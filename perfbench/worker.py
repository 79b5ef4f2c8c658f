"""In-process runner for the large_diagrams and rating_corpora workloads.

    python3 perfbench/worker.py SPEC_JSON RESULT_JSON

Runs in its own process so that its peak memory is that of the program plus
its inputs, not of the benchmark's oracles.  It calls the public functions of
cdmetrics directly, in whole passes over the spec's operations until the time
is up, then runs the spec's probes once.  In a traced run odd passes and the
probes are traced and even passes are not, so one run gives both the layer
spans and the untraced times the tracing overhead is measured against.
It times the reference work (host.py) before each operation, and the
set-up probes between passes.
Outputs are only recorded here; run.py checks them after the run.
"""

import gc
import json
import os
import sys
import time
from importlib import import_module
from pathlib import Path

import host
import tracing

# Through import_module, since the package re-exports functions under the
# names of some of its modules (cdmetrics.spearman is the function).
corpus, diagram, dsl, metrics, regression, spearman = (
    import_module(f"cdmetrics.{name}")
    for name in ("corpus", "diagram", "dsl", "metrics", "regression", "spearman")
)


def _report(report) -> dict:
    return {"n": report.n, "r_s": report.r_s, "sum_d_squared": report.sum_d_squared}


def run_diagram(op):
    text = Path(op["path"]).read_text(encoding="utf-8")
    parsed = dsl.from_dict(json.loads(text)) if op["format"] == "json" else dsl.parse(text)
    vector = metrics.compute_metrics(diagram.validate(parsed))
    value = regression.estimate(regression.PUBLISHED_UNDERSTANDABILITY_MODEL, vector)
    return {"metrics": vector.as_dict(), "estimate": value}


def run_fit(op):
    samples = corpus.load_rating_corpus(op["path"])
    return regression.fit(samples, op["predictors"]).to_json_obj()


def run_validate(op):
    text = Path(op["path"]).read_text(encoding="utf-8")
    rows = corpus.parse_validation_rows(text, op["path"])
    pairs = [corpus.pair_from_row(row, float(row["computed"]), op["path"]) for row in rows]
    return _report(spearman.spearman(pairs, spearman.DifferenceMode(op["mode"])))


def run_reproduce(op):
    pairs = corpus.load_reference_ratings()
    return {mode.value: _report(spearman.spearman(pairs, mode)) for mode in spearman.DifferenceMode}


RUNNERS = {
    "diagram": run_diagram,
    "fit": run_fit,
    "validate": run_validate,
    "reproduce": run_reproduce,
}


def run_op(op, index, pass_index, tracer):
    if tracer is not None:
        tracer.request = f"{pass_index}.{index}"
    start = time.perf_counter()
    try:
        output, error = RUNNERS[op["kind"]](op), None
    except Exception as exc:  # recorded as a failed operation; the run goes on
        output, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    wall = time.perf_counter() - start
    return {"op": index, "pass": pass_index, "wall": wall, "output": output, "error": error}


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if spec["trace"] else None
    setup = host.SetupProbes(spec["setup_spawns"], spec["seconds"], os.environ,
                             Path(spec["run_dir"]), Path(spec["src"]))
    passes, records = [], []
    started = time.perf_counter()
    while True:
        setup.due(time.perf_counter() - started - setup.spent)
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        # Every pass starts from the same collector state, as every CLI call
        # starts from a fresh process, so that the collections inside a pass
        # (part of the program's cost) fall on the same operations each time.
        gc.collect()
        pass_wall = 0.0
        for index, op in enumerate(spec["ops"]):
            ref = host.reference_seconds()
            records.append(run_op(op, index, len(passes), tracer if traced else None))
            records[-1]["ref"] = ref
            pass_wall += records[-1]["wall"]
        passes.append({"wall": pass_wall, "traced": traced})
        if traced:
            tracer.uninstall()
        enough = time.perf_counter() - started - setup.spent >= spec["seconds"]
        if enough and (tracer is None or len(passes) % 2 == 0):
            break
    host.pair_references(records, host.reference_seconds())
    setup.finish()

    if tracer is not None:
        tracer.install()
    probes = [run_op(op, index, "probe", tracer) for index, op in enumerate(spec["probes"])]
    if tracer is not None:
        tracer.uninstall()

    result = {"passes": passes, "ops": records, "probes": probes, "setup_times": setup.times,
              "spans": tracer.spans if tracer is not None else []}
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
