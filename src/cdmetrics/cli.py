"""Command-line interface.

Subcommands: metrics, estimate, fit, validate, reproduce.  Exit codes form
a ladder so CI can gate on failure class: 0 ok, 1 usage, 2 parse error,
3 diagram validation error, 4 bad data/model file, 5 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import corpus as corpus_io
from .diagram import ClassDiagram, validate
from .dsl import from_dict, parse
from .errors import DiagramError, DslSyntaxError, InvalidAlpha, ModelError
from .metrics import METRIC_NAMES, compute_metrics
from .regression import (
    PUBLISHED_UNDERSTANDABILITY_MODEL,
    LinearModel,
    estimate,
    fit,
)
from .spearman import DifferenceMode, spearman

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DATA = 4
EXIT_REPRODUCE = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _alpha(text: str) -> float:
    """argparse type for --alpha: a significance level in (0, 0.5]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value <= 0.5:
        raise argparse.ArgumentTypeError(str(InvalidAlpha(value)))
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="cdmetrics", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress report output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser("metrics", help="compute the 11 design metrics")
    p_metrics.add_argument("paths", nargs="+", metavar="FILE")

    p_est = sub.add_parser("estimate", help="estimate understandability")
    p_est.add_argument("paths", nargs="+", metavar="FILE")
    p_est.add_argument("--model", metavar="PATH", help="model file (JSON)")

    p_fit = sub.add_parser("fit", help="fit a linear model from a rated corpus")
    p_fit.add_argument("corpus", metavar="CORPUS")
    p_fit.add_argument(
        "--predictors", required=True, metavar="NAME,NAME,...",
        help="comma-separated metric names",
    )

    p_val = sub.add_parser("validate", help="Spearman validation of a corpus")
    p_val.add_argument("corpus", metavar="CORPUS")
    p_val.add_argument("--mode", choices=("rank", "value"), default="rank")
    p_val.add_argument("--alpha", type=_alpha, default=0.05)
    p_val.add_argument("--model", metavar="PATH", help="model file (JSON)")

    p_rep = sub.add_parser(
        "reproduce", help="re-run the published 28-diagram validation"
    )
    p_rep.add_argument("--mode", choices=("rank", "value"), default="rank")
    p_rep.add_argument("--alpha", type=_alpha, default=0.05)
    p_rep.add_argument("--tolerance", type=float, default=0.002)

    return parser


def _load_diagram(path: Path) -> ClassDiagram:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return from_dict(json.loads(text))
    return parse(text)


def _load_model(path: str | None) -> LinearModel:
    if path is None:
        return PUBLISHED_UNDERSTANDABILITY_MODEL
    try:
        return LinearModel.from_json_obj(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, ModelError) as exc:
        raise ModelError(f"{path}: {exc}") from exc


def _emit_table(headers: list[str], rows: list[list[str]], out):
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(), file=out)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)


def _emit_csv(headers: list[str], rows: list[list[str]], out):
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def _per_file(paths, handler):
    """Run handler per path, collecting rows; the worst exit code wins."""
    rows = []
    exit_code = EXIT_OK
    for raw in paths:
        path = Path(raw)
        try:
            diagram = validate(_load_diagram(path))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{raw}: {exc}", file=sys.stderr)
            exit_code = max(exit_code, EXIT_PARSE)
            continue
        except DslSyntaxError as exc:
            print(f"{raw}:{exc}", file=sys.stderr)
            exit_code = max(exit_code, EXIT_PARSE)
            continue
        except DiagramError as exc:
            print(f"{raw}: {exc}", file=sys.stderr)
            exit_code = max(exit_code, EXIT_VALIDATION)
            continue
        rows.append(handler(raw, diagram))
    return rows, exit_code


def _cmd_metrics(args) -> int:
    def handler(path, diagram):
        return path, diagram.id, compute_metrics(diagram)

    results, exit_code = _per_file(args.paths, handler)
    if args.quiet:
        return exit_code
    if args.format == "json":
        payload = [
            {"file": path, "id": did, "metrics": vec.as_dict()}
            for path, did, vec in results
        ]
        print(json.dumps(payload, indent=2))
    else:
        headers = ["file", "id", *METRIC_NAMES]
        rows = [
            [path, did, *(str(vec[m]) for m in METRIC_NAMES)]
            for path, did, vec in results
        ]
        emit = _emit_csv if args.format == "csv" else _emit_table
        emit(headers, rows, sys.stdout)
    return exit_code


def _cmd_estimate(args) -> int:
    try:
        model = _load_model(args.model)
    except ModelError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA

    def handler(path, diagram):
        vec = compute_metrics(diagram)
        return path, diagram.id, vec, estimate(model, vec)

    results, exit_code = _per_file(args.paths, handler)
    if args.quiet:
        return exit_code
    predictors = model.predictors()
    if args.format == "json":
        payload = [
            {
                "file": path,
                "id": did,
                "metrics": {p: vec[p] for p in predictors},
                "estimate": value,
            }
            for path, did, vec, value in results
        ]
        print(json.dumps(payload, indent=2))
    else:
        headers = ["file", "id", *predictors, "estimate"]
        human = args.format == "table"
        rows = [
            [path, did, *(str(vec[p]) for p in predictors),
             f"{value:.3f}" if human else repr(value)]
            for path, did, vec, value in results
        ]
        emit = _emit_csv if args.format == "csv" else _emit_table
        emit(headers, rows, sys.stdout)
    return exit_code


def _cmd_fit(args) -> int:
    predictors = [p.strip() for p in args.predictors.split(",") if p.strip()]
    try:
        samples = corpus_io.load_rating_corpus(args.corpus)
        model = fit(samples, predictors)
    except (OSError, corpus_io.CorpusError, ModelError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA
    if not args.quiet:
        print(json.dumps(model.to_json_obj(), indent=2))
    return EXIT_OK


def _validate_pairs(corpus_path: str, model: LinearModel):
    text = Path(corpus_path).read_text(encoding="utf-8")
    rows = corpus_io.parse_validation_rows(text, corpus_path)
    base = Path(corpus_path).parent
    pairs = []
    for row in rows:
        if row.get("computed") not in (None, ""):
            computed = float(row["computed"])
        else:
            diagram = validate(_load_diagram(base / row["diagram"]))
            computed = estimate(model, compute_metrics(diagram))
        pairs.append(corpus_io.pair_from_row(row, computed, corpus_path))
    return pairs


def _report_validation(report, fmt: str, out):
    if fmt == "json":
        print(json.dumps({
            "n": report.n,
            "mode": report.mode.value,
            "sum_d_squared": report.sum_d_squared,
            "r_s": report.r_s,
            "alpha": report.alpha,
            "critical_value": None if math.isnan(report.critical_value)
            else report.critical_value,
            "significant": report.significant,
        }, indent=2), file=out)
        return
    verdict = "significant" if report.significant else "not significant"
    lines = [
        f"n              {report.n}",
        f"mode           {report.mode.value}",
        f"sum d^2        {report.sum_d_squared:.4f}",
        f"r_s            {report.r_s:.4f}",
        f"critical value {report.critical_value:.4f} (alpha={report.alpha})",
        f"verdict        {verdict} at alpha={report.alpha}",
    ]
    if fmt == "csv":
        _emit_csv(
            ["n", "mode", "sum_d_squared", "r_s", "critical_value", "significant"],
            [[str(report.n), report.mode.value, f"{report.sum_d_squared:.4f}",
              f"{report.r_s:.4f}", f"{report.critical_value:.4f}",
              str(report.significant).lower()]],
            out,
        )
    else:
        print("\n".join(lines), file=out)


def _cmd_validate(args) -> int:
    try:
        model = _load_model(args.model)
        pairs = _validate_pairs(args.corpus, model)
        report = spearman(pairs, DifferenceMode(args.mode), alpha=args.alpha)
    except (OSError, ValueError, corpus_io.CorpusError, ModelError,
            DslSyntaxError, DiagramError) as exc:
        print(f"{args.corpus}: {exc}", file=sys.stderr)
        return EXIT_DATA
    if not args.quiet:
        _report_validation(report, args.format, sys.stdout)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    pairs = corpus_io.load_reference_ratings()
    report = spearman(pairs, DifferenceMode(args.mode), alpha=args.alpha)
    reported = corpus_io.REPORTED_RANK_CORRELATION
    gap = abs(report.r_s - reported)
    ok = gap <= args.tolerance
    if not args.quiet:
        if args.format == "json":
            print(json.dumps({
                "n": report.n,
                "mode": report.mode.value,
                "computed_r_s": report.r_s,
                "reported_r_s": reported,
                "gap": gap,
                "tolerance": args.tolerance,
                "significant": report.significant,
                "reproduced": ok,
            }, indent=2))
        else:
            print(f"computed r_s   {report.r_s:.4f} ({report.mode.value} mode, n={report.n})")
            print(f"reported r_s   {reported:.4f}")
            print(f"gap            {gap:.4f} (tolerance {args.tolerance})")
            verdict = "significant" if report.significant else "not significant"
            print(f"significance   {verdict} at alpha={report.alpha} "
                  f"(critical {report.critical_value:.4f})")
            print(f"reproduction   {'OK' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_REPRODUCE


_COMMANDS = {
    "metrics": _cmd_metrics,
    "estimate": _cmd_estimate,
    "fit": _cmd_fit,
    "validate": _cmd_validate,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
