#!/usr/bin/env python3
"""cdmetrics benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cdmetrics checkout: the program is imported from
./src, and inputs, outputs and spans go to ./.perfbench_out.  It prints a
report, then as the last line of stdout one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (see BENCHMARK.json and
perfbench/README.md, which also says why each workload and size was chosen).

Each workload is a closed loop with one client and no extra threads.  It
runs whole passes over its operations until --seconds have passed, not
counting the set-up probes and the reference work (host.py) between them.  A traced
run alternates untraced and traced passes, so that the tracing overhead is
measured within the run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import host
import inputs
import oracle
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

# Fresh interpreters timed per run for setup_s, spread over the run; the
# median is reported.
SETUP_SPAWNS = 5
# `python -X importtime` runs per traced run; the median is reported.
IMPORTTIME_SPAWNS = 3
CLI_COMMANDS = ("metrics", "estimate", "fit", "validate", "reproduce")
CLI_ENTRY = "from cdmetrics.cli import entry_point; entry_point()"
# Value-mode reproduction differs from the reported 0.9482 by 0.0503.
VALUE_MODE_TOLERANCE = "0.06"
# The program solves the normal equations, which square the condition number
# (about 1e3 for these corpora) of the design, so fits agree to about 1e-10.
FIT_TOLERANCE = 1e-7
# Half a unit in the 4th decimal place of the pinned reproduction results.
PINNED_TOLERANCE = 5e-5

def fail_setup(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    at = len(ordered) - 10
    return ordered[at - 1], 100.0 * at / len(ordered)


def done(started: float, setup, passes: list, args) -> bool:
    """Time is up, and a traced run has as many traced as untraced passes."""
    busy = time.perf_counter() - started - setup.spent
    return busy >= args.seconds and not (args.trace and len(passes) % 2)


# --- checks against the oracle (outside every timed region) -------------------

def verdict(check, output):
    """None if the output passes the check, else why it fails."""
    try:
        problem = check(output)
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"unreadable output: {exc!r}"
    return f"wrong output: {problem}" if problem else None


def check_diagram(output, want, complete=True):
    """Each reported metric, all 11 if complete, and any estimate against the oracle's."""
    got = output["metrics"]
    wrong = {n: (got.get(n), v) for n, v in want.items()
             if (complete or n in got) and got.get(n) != v}
    if wrong:
        return f"metrics differ from the oracle (got, want): {wrong}"
    if "estimate" in output and not oracle.close(output["estimate"], oracle.published_estimate(want)):
        return f"estimate {output['estimate']} != {oracle.published_estimate(want)}"
    return None


def check_fit(output, want):
    got = [output["intercept"], *(output["coefficients"][p] for p in want["coefficients"])]
    ref = [want["intercept"], *want["coefficients"].values()]
    if not all(oracle.close(g, r, FIT_TOLERANCE) for g, r in zip(got, ref)):
        return f"fit {got} != lstsq {ref}"
    return None


def check_report(output, want, pinned=None):
    r_s, sum_d2, n = want
    if output["n"] != n:
        return f"n {output['n']} != {n}"
    if not oracle.close(output["r_s"], r_s):
        return f"r_s {output['r_s']} != {r_s}"
    if "sum_d_squared" in output and not oracle.close(output["sum_d_squared"], sum_d2):
        return f"sum d^2 {output['sum_d_squared']} != {sum_d2}"
    if pinned is not None and abs(output["r_s"] - pinned) > PINNED_TOLERANCE:
        return f"r_s {output['r_s']} is not the pinned {pinned}"
    return None


# --- workloads ------------------------------------------------------------------

def cli_small(args, run_dir: Path, env):
    """Sequential CLI subprocesses, five subcommands per pass.

    Inputs: 12 diagrams of 2-8 classes (half .cd, half .json), a 200-row fit
    corpus, a validation corpus whose `diagram` column names those diagrams,
    and the bundled reproduction.  This is how users run the tool; nearly
    all of each call is interpreter start plus import, so start-up work shows
    here and graph-core work does not.
    """
    rng = random.Random(args.seed)
    specs, files = [], []
    for i in range(12):
        spec = inputs.random_diagram(rng, rng.randint(2, 8), f"s{i}")
        specs.append(spec)
        files.append(os.path.relpath(
            inputs.write_diagram(spec, run_dir, "cd" if i % 2 == 0 else "json"), ROOT))
    fit_corpus = inputs.rating_corpus(rng, 200, ["NAssoc", "NA", "MaxDIT"])
    fit_path = os.path.relpath(inputs.write_rating_corpus(fit_corpus, run_dir / "fit.csv"), ROOT)
    known = [rng.randint(1, 5) for _ in specs]
    val_path = run_dir / "validate.csv"
    val_path.write_text("id,known,diagram\n" + "".join(
        f"V{i},{k},{Path(f).name}\n" for i, (k, f) in enumerate(zip(known, files))))
    val_path = os.path.relpath(val_path, ROOT)
    wants = [oracle.diagram_metrics(s) for s in specs]
    fit_want = oracle.least_squares(fit_corpus)
    estimates = [oracle.published_estimate(w) for w in wants]
    validate_want = {m: oracle.spearman_r(known, estimates, m) for m in ("rank", "value")}
    ref_want = {m: oracle.spearman_r(*oracle.reference_pairs(SRC), m) for m in ("rank", "value")}

    def command(cmd, mode):
        head = ["--format", "json", cmd]
        if cmd in ("metrics", "estimate"):
            return head + files
        if cmd == "fit":
            return head + [fit_path, "--predictors", "NAssoc,NA,MaxDIT"]
        if cmd == "validate":
            return head + [val_path, "--mode", mode]
        return head + ["--mode", mode] + (
            ["--tolerance", VALUE_MODE_TOLERANCE] if mode == "value" else [])

    def check(cmd, mode, out):
        if cmd in ("metrics", "estimate"):
            if [entry["file"] for entry in out] != files:
                return "output does not follow the argument order"
            problems = [check_diagram(entry, want, complete=cmd == "metrics")
                        for entry, want in zip(out, wants)]
            return next((f"{f}: {p}" for f, p in zip(files, problems) if p), None)
        if cmd == "fit":
            return check_fit(out, fit_want)
        if cmd == "validate":
            return check_report(out, validate_want[mode])
        if not out["reproduced"]:
            return "reproduction reported as failed"
        return check_report({"n": out["n"], "r_s": out["computed_r_s"]}, ref_want[mode],
                            oracle.PINNED_REPRODUCTION[mode])

    calls_dir = run_dir / "calls"
    calls_dir.mkdir()
    setup = host.SetupProbes(SETUP_SPAWNS, args.seconds, env, run_dir, SRC)
    ops, passes = [], []
    started = time.perf_counter()
    while not passes or not done(started, setup, passes, args):
        setup.due(time.perf_counter() - started - setup.spent)
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        mode = ("rank", "value")[(k // 2) % 2]
        pass_wall = 0.0
        for index, cmd in enumerate(CLI_COMMANDS):
            stem = calls_dir / f"{k}-{cmd}"
            if traced:
                argv = [str(HERE / "traced_cli.py"), f"{stem}.spans", f"{k}.{cmd}"]
            else:
                argv = ["-c", CLI_ENTRY]
            ref = host.reference_spawn_seconds(env, run_dir)
            code, wall, rss = host.spawn(argv + command(cmd, mode), env,
                                         Path(f"{stem}.out"), Path(f"{stem}.err"))
            pass_wall += wall
            ops.append({"pass": k, "op": index, "kind": cmd, "mode": mode, "traced": traced,
                        "wall": wall, "ref": ref, "rss_mb": rss, "code": code, "stem": str(stem)})
        passes.append({"wall": pass_wall, "traced": traced})
    host.pair_references(ops, host.reference_spawn_seconds(env, run_dir))
    setup.finish()

    spans = []
    for op in ops:
        if op["code"] != 0:
            op["error"] = f"exit code {op['code']}"
        else:
            op["error"] = verdict(lambda text: check(op["kind"], op["mode"], json.loads(text)),
                                  Path(op["stem"] + ".out").read_text())
        if op["traced"] and Path(op["stem"] + ".spans").exists():
            spans.append(json.loads(Path(op["stem"] + ".spans").read_text()))
    peak = max(op["rss_mb"] for op in ops if not op["traced"])
    return {"passes": passes, "ops": ops, "probes": [], "span_lists": spans, "peak_rss_mb": peak,
            "setup_times": setup.times}


def large_diagrams(rng: random.Random, run_dir: Path):
    """Per pass 22 diagrams: 2 x 1600, 4 x 400 and 16 x 100 classes, half DSL, half JSON.

    Start-up is excluded and compute_metrics grows super-linearly with size,
    so the graph core carries the load here; each size takes a similar share
    of classes (3200/1600/1600) so that small and large diagrams both count.
    The probes are generalization and aggregation chains of 1000 classes,
    child-first and root-first, in both formats: deep chains use the graph
    core differently from wide random graphs, and the seed code fails on
    every one of them with RecursionError.
    """
    ops, checks = [], []
    for size, count in ((1600, 2), (400, 4), (100, 16)):
        for i in range(count):
            spec = inputs.random_diagram(rng, size, f"d{size}_{i}")
            fmt = "cd" if i % 2 == 0 else "json"
            ops.append({"kind": "diagram", "format": fmt,
                        "path": str(inputs.write_diagram(spec, run_dir, fmt)), "units": size})
            checks.append(lambda out, want=oracle.diagram_metrics(spec): check_diagram(out, want))
    order = list(range(len(ops)))
    rng.shuffle(order)
    ops, checks = [ops[i] for i in order], [checks[i] for i in order]

    probes, probe_checks = [], []
    for kind in ("generalization", "aggregation"):
        for root_first in (False, True):
            spec = inputs.chain_diagram(kind, 1000, root_first)
            want = oracle.diagram_metrics(spec)
            for fmt in ("cd", "json"):
                probes.append({"kind": "diagram", "format": fmt, "name": f"{spec['id']}.{fmt}",
                               "path": str(inputs.write_diagram(spec, run_dir, fmt)), "units": 1000})
                probe_checks.append(lambda out, want=want: check_diagram(out, want))
    return ops, checks, probes, probe_checks


def rating_corpora(rng: random.Random, run_dir: Path):
    """Per pass: fit on 10^4-row corpora with 3 and 11 predictors, Spearman
    validation of a 10^4-row corpus in rank and value mode, and the bundled
    28-pair reproduction (one operation, both modes).

    The graph core does no work here; corpus, regression and spearman carry
    the load, building a model from a corpus (fit) and checking a corpus
    against a model (validate).  10^4 rows make each step take milliseconds,
    well above timer resolution, and the ratings (integers 1..5) are heavily
    tied, as expert ratings are.
    """
    ops, checks = [], []
    for predictors in (["NAssoc", "NA", "MaxDIT"], list(inputs.METRIC_NAMES)):
        corpus = inputs.rating_corpus(rng, 10_000, predictors)
        path = inputs.write_rating_corpus(corpus, run_dir / f"fit{len(predictors)}.csv")
        ops.append({"kind": "fit", "path": str(path), "predictors": predictors, "units": 10_000})
        checks.append(lambda out, want=oracle.least_squares(corpus): check_fit(out, want))
    val = inputs.validation_corpus(rng, 10_000)
    val_path = inputs.write_validation_corpus(val, run_dir / "validate.csv")
    reference = oracle.reference_pairs(SRC)
    for mode in ("rank", "value"):
        ops.append({"kind": "validate", "path": str(val_path), "mode": mode, "units": 10_000})
        want = oracle.spearman_r(val["known"], val["computed"], mode)
        checks.append(lambda out, want=want: check_report(out, want))
    ops.append({"kind": "reproduce", "units": 2 * len(reference[0])})
    wants = {mode: oracle.spearman_r(*reference, mode) for mode in ("rank", "value")}

    def check_reproduce(out):
        problems = (check_report(out[mode], want, oracle.PINNED_REPRODUCTION[mode])
                    for mode, want in wants.items())
        return next(filter(None, problems), None)

    checks.append(check_reproduce)
    return ops, checks, [], []


def in_process(make_inputs, args, run_dir: Path, env):
    """Run the operations make_inputs writes in the worker process, then check the outputs."""
    ops, checks, probes, probe_checks = make_inputs(random.Random(args.seed), run_dir)
    spec_path, result_path = run_dir / "spec.json", run_dir / "worker.json"
    spec_path.write_text(json.dumps({"ops": ops, "probes": probes, "seconds": args.seconds,
                                     "trace": bool(args.trace), "setup_spawns": SETUP_SPAWNS,
                                     "run_dir": str(run_dir), "src": str(SRC)}))
    code, _, rss = host.spawn([str(HERE / "worker.py"), str(spec_path), str(result_path)], env,
                              run_dir / "worker.out", run_dir / "worker.err")
    if code != 0:
        fail_setup(f"worker exited with {code}: {(run_dir / 'worker.err').read_text()[-2000:]}")
    result = json.loads(result_path.read_text())
    traced_passes = {i for i, p in enumerate(result["passes"]) if p["traced"]}
    for rec in result["ops"]:
        rec["traced"] = rec["pass"] in traced_passes
    for rec in result["probes"]:
        rec["traced"] = bool(args.trace)
    for records, specs, check_list in ((result["ops"], ops, checks),
                                       (result["probes"], probes, probe_checks)):
        for rec in records:
            op = specs[rec["op"]]
            rec["kind"], rec["units"] = op["kind"], op["units"]
            rec["name"] = op.get("name", op["kind"])
            if rec["error"] is None:
                rec["error"] = verdict(check_list[rec["op"]], rec["output"])
    return {"passes": result["passes"], "ops": result["ops"], "probes": result["probes"],
            "span_lists": [result["spans"]], "peak_rss_mb": rss,
            "setup_times": result["setup_times"]}


WORKLOADS = {
    "cli_small": cli_small,
    "large_diagrams": functools.partial(in_process, large_diagrams),
    "rating_corpora": functools.partial(in_process, rating_corpora),
}


# --- measurements outside the workload loop -------------------------------------

def measure_imports(env, run_dir: Path) -> dict[str, float]:
    """Cumulative import seconds of scipy.stats and of cdmetrics.cli, from -X importtime.

    cdmetrics.cli's figure includes its parent package, which it nests.
    """
    out, err = run_dir / "importtime.out", run_dir / "importtime.err"
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_SPAWNS):
        host.spawn(["-X", "importtime", "-c", "import cdmetrics.cli"], env, out, err)
        cumulative = {}
        for line in err.read_text().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        samples["import.scipy_stats.cum_s"].append(cumulative.get("scipy.stats", 0.0))
        samples["import.cdmetrics_cli.cum_s"].append(cumulative.get("cdmetrics.cli", 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def facts(args) -> dict:
    import networkx
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__}


# --- metrics --------------------------------------------------------------------

def end_to_end(run, setup_times) -> dict[str, float]:
    return {"setup_s": statistics.median(setup_times), "peak_rss_mb": run["peak_rss_mb"],
            **timing(run)}


def timing(run) -> dict[str, float]:
    """Operation latency and throughput over the untraced passes."""
    ops = [op for op in run["ops"] if not op["traced"]]
    passes = [p["wall"] for p in run["passes"] if not p["traced"]]
    walls = [op["wall"] for op in ops]
    # A pass's cost in reference units, each operation taken at its median
    # over the passes, so that a host stall during one long operation counts
    # no more than any other outlier.
    relative = defaultdict(list)
    for op in ops:
        relative[op["op"]].append(op["wall"] / op["ref"])
    return {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "ops_per_s": sum(op["error"] is None for op in ops) / len(passes) / statistics.median(passes),
        "pass_ref_ratio": sum(statistics.median(values) for values in relative.values()),
    }


def per_layer(run, imports) -> dict[str, float]:
    traced_passes = sum(p["traced"] for p in run["passes"])
    self_s, calls, errors, counts = Counter(), Counter(), Counter(), Counter()
    for spans in run["span_lists"]:
        for span, own in zip(spans, tracing.self_times(spans)):
            name = span["name"]
            errors[name] += span["error"] is not None
            if str(span["request"]).startswith("probe"):
                continue
            self_s[name] += own
            calls[name] += 1
            counts[name] += span["count"] or 0
    layer = {**timing(run), **imports}
    for name in tracing.SPAN_NAMES:
        layer[f"{name}.self_s"] = self_s[name] / traced_passes
        layer[f"{name}.calls"] = calls[name] / traced_passes
        layer[f"{name}.errors"] = errors[name]
    layer["dsl.parse.lines_per_s"] = (
        counts["dsl.parse"] / self_s["dsl.parse"] if self_s["dsl.parse"] else 0.0)
    layer["metrics.hierarchy_edges"] = counts["metrics.compute_metrics"] / traced_passes
    layer["regression.fit.rows_per_s"] = (
        counts["regression.fit"] / self_s["regression.fit"] if self_s["regression.fit"] else 0.0)
    layer["chains.attempted"] = len(run["probes"])
    layer["chains.failed"] = sum(p["error"] is not None for p in run["probes"])
    untraced = [p["wall"] for p in run["passes"] if not p["traced"]]
    traced = [p["wall"] for p in run["passes"] if p["traced"]]
    layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    for cmd in CLI_COMMANDS:
        walls = [op["wall"] for op in run["ops"]
                 if op["kind"] == cmd and "code" in op and not op["traced"]]
        layer[f"{cmd}_cmd_p50_s"] = statistics.median(walls) if walls else 0.0
    return layer


# --- report -------------------------------------------------------------------

def report(args, info, run, e2e, setup_times, layer, gated):
    print(f"cdmetrics benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={info[k]}" for k in
                                  ("nproc", "cpus_usable", "machine", "python",
                                   "numpy", "scipy", "networkx")))
    ops = run["ops"]
    untraced = [op for op in ops if not op["traced"]]
    busy = sum(p["wall"] for p in run["passes"] if not p["traced"])
    print(f"passes: {len(run['passes'])} ({sum(p['traced'] for p in run['passes'])} traced), "
          f"operations: {len(ops)}, closed loop, one client")
    print("waiting time: not applicable (one thread, no queues)")

    walls = [op["wall"] for op in untraced]
    times = timing(run)
    print("\nend-to-end (untraced passes; * gated by BENCHMARK.json):")
    rows = [("setup_s", "s", e2e["setup_s"],
             f"median of {len(setup_times)} fresh imports spread over the run"),
            ("cli_p50_s" if args.workload == "cli_small" else "op_p50_s", "s", times["op_p50_s"],
             f"median of {len(walls)} operations"),
            ("cli_tail_s" if args.workload == "cli_small" else "op_tail_s", "s", times["op_tail_s"],
             f"p{tail(walls)[1]:.1f} of {len(walls)} operations")]
    if args.workload == "cli_small":
        for cmd in CLI_COMMANDS:
            cmd_walls = [op["wall"] for op in untraced if op["kind"] == cmd]
            rows.append((f"{cmd}_cmd_p50_s", "s", statistics.median(cmd_walls),
                         f"median of {len(cmd_walls)} calls"))
    rows.append(("ops_per_s", "1/s", times["ops_per_s"],
                 "correct operations per pass / median pass time"))
    rows.append(("pass_ref_ratio", "ratio", times["pass_ref_ratio"],
                 "pass time over reference time, per operation, median over passes"))
    rows.append(("peak_rss_mb", "MB", e2e["peak_rss_mb"], "peak RSS of the program's process"))
    done_units = sum(op["units"] for op in untraced if op["error"] is None and "units" in op)
    if args.workload == "large_diagrams":
        chains = run["probes"]
        rows.append(("classes_per_s", "1/s",
                     (done_units + sum(op["units"] for op in chains if op["error"] is None))
                     / (busy + sum(op["wall"] for op in chains)),
                     "classes of correct diagrams, chain probes included"))
    if args.workload == "rating_corpora":
        rows.append(("rows_per_s", "1/s", done_units / busy, "rows correctly fitted or validated"))
    everything = ops + run["probes"]
    failures = [op["error"] for op in everything if op["error"]]
    rows.append(("error_rate", "ratio", len(failures) / len(everything),
                 f"{len(failures)} of {len(everything)} operations, probes included"))
    for name, unit, value, note in rows:
        star = "*" if name.replace("cli_", "op_") in gated else ""
        print(f"  {name + star:<20} {value:>12.6g} {unit:<6} {note}")
    absent = {"cli_small": "classes_per_s, rows_per_s",
              "large_diagrams": "cli_*, *_cmd_p50_s, rows_per_s",
              "rating_corpora": "cli_*, *_cmd_p50_s, classes_per_s"}[args.workload]
    print(f"  not applicable to this workload: {absent}")
    if failures:
        print("  failures by kind: " + ", ".join(
            f"{kind}: {n}" for kind, n in Counter(f.split(":")[0] for f in failures).items()))
    for op in run["probes"]:
        print(f"  probe {op['name']:<32} {op['error'] or 'ok'}")
    for op in [op for op in ops if op["error"]][:5]:
        print(f"  failed {op['kind']} (pass {op['pass']}): {op['error'][:300]}")

    if layer is not None:
        print("\nper layer (traced passes; self_s and calls per pass, errors per run):")
        for name, value in layer.items():
            print(f"  {name:<40} {value:>12.6g}")
        traced_wall = statistics.median(p["wall"] for p in run["passes"] if p["traced"])
        if args.workload == "cli_small":
            share = layer["import.scipy_stats.cum_s"] / layer["op_p50_s"]
            print(f"  import.scipy_stats.cum_s / cli_p50_s = {share:.3f}")
        else:
            top = max(tracing.SPAN_NAMES, key=lambda n: layer[f"{n}.self_s"])
            print(f"  largest self time: {top}, "
                  f"{layer[f'{top}.self_s'] / traced_wall:.3f} of the traced pass wall time")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (SRC / "cdmetrics" / "cli.py").is_file():
        fail_setup(f"no cdmetrics sources under {SRC}; run from the root of a checkout")
    # Names and units of the reported metrics come from here.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))

    info = facts(args)
    imports = measure_imports(env, run_dir) if args.trace else None
    try:
        run = WORKLOADS[args.workload](args, run_dir, env)
    except RuntimeError as exc:  # a set-up probe failed
        fail_setup(str(exc))
    setup_times = run["setup_times"]

    e2e = end_to_end(run, setup_times)
    layer = per_layer(run, imports) if args.trace else None
    report(args, info, run, e2e, setup_times, layer,
           {m["name"] for m in benchmark["end_to_end"]})

    spans = [span for spans in run["span_lists"] for span in spans]
    (run_dir / "spans.json").write_text(json.dumps(spans))
    failed = sum(op["error"] is not None for op in run["ops"])
    values, listed = (layer, "per_layer") if args.trace else (e2e, "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": len(run["ops"]),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in benchmark[listed]},
    }
    record = {"facts": info, **result, "end_to_end": e2e, "setup_times": setup_times,
              "passes": run["passes"],
              "ops": [{k: op.get(k) for k in ("pass", "kind", "traced", "wall", "ref", "error")}
                      for op in run["ops"] + run["probes"]]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
