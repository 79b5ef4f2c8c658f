"""Command-line interface.

Subcommands: metrics, estimate, fit, validate, reproduce.  Exit codes form
a ladder so CI can gate on failure class: 0 ok, 1 usage, 2 parse error,
3 diagram validation error, 4 bad data/model file, 5 reproduction mismatch.
Subcommands return their reports; main prints them.  An error's type
carries its exit code (`CdmetricsError.exit_code`).  Each command imports
the modules it runs, when it runs: `metrics` never loads the corpus reader,
and `reproduce` never loads the graph core.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import CdmetricsError, CorpusError, DiagramFormatError, ModelError, naming, read_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REPRODUCE = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _float_in(interval: str, accept):
    """argparse type: a float in `interval`, which accept() checks."""
    def convert(text: str) -> float:
        try:
            if accept(value := float(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be a number in {interval}, got {text!r}")
    return convert


_alpha = _float_in("(0, 0.5]", lambda a: 0 < a <= 0.5)
_tolerance = _float_in("[0, inf)", lambda t: 0 <= t < math.inf)


def _predictors(text: str) -> list[str]:
    """argparse type: comma-separated metric names, at least one, each named once."""
    from .metrics import METRIC_NAMES

    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"names no metric: {text!r}")
    for i, name in enumerate(names):
        if name not in METRIC_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown metric {name!r}; choose from {', '.join(METRIC_NAMES)}")
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"metric {name!r} named twice")
    return names


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
    spearman_args = argparse.ArgumentParser(add_help=False)  # validate's and reproduce's
    # DifferenceMode's values, written out so that parsing loads no spearman; a test pins them.
    spearman_args.add_argument("--mode", choices=("rank", "value"), default="rank")
    spearman_args.add_argument("--alpha", type=_alpha, default=0.05)

    p_metrics = sub.add_parser("metrics", help="compute the 11 design metrics")
    p_metrics.set_defaults(run=_cmd_metrics)
    p_metrics.add_argument("paths", nargs="+", metavar="FILE")

    p_est = sub.add_parser("estimate", help="estimate understandability")
    p_est.set_defaults(run=_cmd_estimate)
    p_est.add_argument("paths", nargs="+", metavar="FILE")
    p_est.add_argument("--model", metavar="PATH", help="model file (JSON)")

    p_fit = sub.add_parser("fit", help="fit a linear model from a rated corpus")
    p_fit.set_defaults(run=_cmd_fit)
    p_fit.add_argument("corpus", metavar="CORPUS")
    p_fit.add_argument(
        "--predictors", required=True, type=_predictors, metavar="NAME,NAME,...",
        help="comma-separated metric names, each named once",
    )

    p_val = sub.add_parser("validate", parents=[spearman_args],
                           help="Spearman validation of a corpus")
    p_val.set_defaults(run=_cmd_validate)
    p_val.add_argument("corpus", metavar="CORPUS")
    p_val.add_argument("--model", metavar="PATH", help="model file (JSON)")

    p_rep = sub.add_parser("reproduce", parents=[spearman_args],
                           help="re-run the published 28-diagram validation")
    p_rep.set_defaults(run=_cmd_reproduce)
    p_rep.add_argument("--tolerance", type=_tolerance, default=0.002)

    return parser


def _load_diagram(path) -> ClassDiagram:
    """Read, parse and validate one diagram file."""
    from .diagram import validate
    from .dsl import from_dict, parse

    is_json = os.path.splitext(path)[1].lower() == ".json"
    decode = (lambda text: from_dict(_decode_json(text))) if is_json else parse
    return read_file(path, DiagramFormatError, lambda text: validate(decode(text)))


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r:.40} named twice")
        obj[key] = value
    return obj


# The one JSON decoder of diagram and model files: an object that repeats a key is a ValueError.
_decode_json = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def _load_model(path: str | None) -> LinearModel:
    from .regression import PUBLISHED_UNDERSTANDABILITY_MODEL, LinearModel

    if path is None:
        return PUBLISHED_UNDERSTANDABILITY_MODEL
    return read_file(path, ModelError, lambda text: LinearModel.from_json_obj(_decode_json(text)))


def _estimate(model: LinearModel, model_path: str | None, metrics) -> float:
    """The model's estimate; one that overflows is the fault of the model file."""
    from .regression import estimate

    value = estimate(model, metrics)
    if not math.isfinite(value):
        raise ModelError(f"model gives a non-finite estimate ({value})", model_path)
    return value


def _per_file(paths, record):
    """record(path, diagram) for each good diagram file; the worst exit code wins."""
    records, exit_code = [], EXIT_OK
    for path in paths:
        try:
            records.append(record(path, _load_diagram(path)))
        except CdmetricsError as exc:
            print(exc, file=sys.stderr)
            exit_code = max(exit_code, exc.exit_code)
    return records, exit_code, None


def _cmd_metrics(args):
    from .metrics import compute_metrics

    return _per_file(args.paths, lambda path, diagram: {
        "file": path, "id": diagram.id, "metrics": compute_metrics(diagram).as_dict(),
    })


def _cmd_estimate(args):
    from .metrics import compute_metrics

    model = _load_model(args.model)

    def record(path, diagram):
        vec = compute_metrics(diagram)
        return {"file": path, "id": diagram.id,
                "metrics": {p: getattr(vec, p) for p, _ in model.coefficients},
                "estimate": _estimate(model, args.model, vec)}

    return _per_file(args.paths, record)


def _cmd_fit(args):
    from .corpus import load_rating_corpus
    from .regression import fit

    with naming(args.corpus):
        model = fit(load_rating_corpus(args.corpus), args.predictors)
    return model.to_json_obj(), EXIT_OK, None


def _cmd_validate(args):
    from .corpus import validation_pairs
    from .metrics import compute_metrics
    from .spearman import DifferenceMode, spearman

    model = _load_model(args.model)
    base = os.path.dirname(args.corpus)
    with naming(args.corpus):
        pairs = validation_pairs(
            read_file(args.corpus, CorpusError), args.corpus,
            lambda name: _estimate(model, args.model,
                                   compute_metrics(_load_diagram(os.path.join(base, name)))),
        )
        report = spearman(pairs, DifferenceMode(args.mode), alpha=args.alpha)
    critical = report.critical_value
    verdict = "significant" if report.significant else "not significant"
    # Every field of the report but the per-pair d, in field order.
    record = {name: value for name, value in report._asdict().items() if name != "d"}
    record.update(mode=report.mode.value,
                  critical_value=None if math.isnan(critical) else critical)
    return record, EXIT_OK, [
        f"n              {report.n}",
        f"mode           {report.mode.value}",
        f"sum d^2        {report.sum_d_squared:.4f}",
        f"r_s            {report.r_s:.4f}",
        f"critical value {critical:.4f} (alpha={report.alpha})",
        f"verdict        {verdict} at alpha={report.alpha}",
    ]


def _cmd_reproduce(args):
    from .corpus import REPORTED_RANK_CORRELATION, load_reference_ratings
    from .spearman import DifferenceMode, spearman

    pairs = load_reference_ratings()
    report = spearman(pairs, DifferenceMode(args.mode), alpha=args.alpha)
    reported = REPORTED_RANK_CORRELATION
    gap = abs(report.r_s - reported)
    ok = gap <= args.tolerance
    verdict = "significant" if report.significant else "not significant"
    return {
        "n": report.n,
        "mode": report.mode.value,
        "computed_r_s": report.r_s,
        "reported_r_s": reported,
        "gap": gap,
        "tolerance": args.tolerance,
        "significant": report.significant,
        "reproduced": ok,
    }, EXIT_OK if ok else EXIT_REPRODUCE, [
        f"computed r_s   {report.r_s:.4f} ({report.mode.value} mode, n={report.n})",
        f"reported r_s   {reported:.4f}",
        f"gap            {gap:.4f} (tolerance {args.tolerance})",
        f"significance   {verdict} at alpha={report.alpha} "
        f"(critical {report.critical_value:.4f})",
        f"reproduction   {'OK' if ok else 'FAILED'}",
    ]


def _emit(report, lines, fmt: str) -> None:
    """Print a record, or a list of records one row each: json as is, csv
    flattened at full precision, table as the command's lines or as aligned
    columns with floats to 3 decimals."""
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    if fmt == "table" and lines is not None:
        print("\n".join(lines))
        return
    rows = [  # nested records, such as the metrics of a row, become columns
        {k: v for key, value in record.items()
         for k, v in (value.items() if isinstance(value, dict) else [(key, value)])}
        for record in (report if isinstance(report, list) else [report])
    ]
    headers = list(rows[0])
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows([v if isinstance(v, str) else json.dumps(v) for v in r.values()]
                         for r in rows)
        return
    cells = [[f"{v:.3f}" if isinstance(v, float) else str(v) for v in r.values()] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    for row in [headers, *cells]:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, exit_code, lines = args.run(args)
    except CdmetricsError as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code
    # An empty report (every input failed) leaves stdout empty.  Model files
    # are JSON, so fit writes JSON whatever --format says.
    if report and not args.quiet:
        try:
            _emit(report, lines, "json" if args.command == "fit" else args.format)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left, as `| head -1` does: write on to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return exit_code


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
