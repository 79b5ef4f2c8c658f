"""Spans around calls into cdmetrics, recorded from outside the program.

A Tracer rebinds the traced functions, and every alias of them in the
loaded cdmetrics modules (such as the names cli.py imports), to timing
wrappers; the library source is never edited.  Spans are kept in memory and
written out by the caller when the run ends.  The program is single-threaded,
so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, span name) for every traced library function.
TRACED = (
    ("cdmetrics.dsl", "parse", "dsl.parse"),
    ("cdmetrics.dsl", "from_dict", "dsl.from_dict"),
    ("cdmetrics.diagram", "validate", "diagram.validate"),
    ("cdmetrics.metrics", "compute_metrics", "metrics.compute_metrics"),
    ("cdmetrics.regression", "estimate", "regression.estimate"),
    ("cdmetrics.regression", "fit", "regression.fit"),
    ("cdmetrics.corpus", "load_rating_corpus", "corpus.load_rating_corpus"),
    ("cdmetrics.corpus", "parse_validation_rows", "corpus.parse_validation_rows"),
    ("cdmetrics.corpus", "load_reference_ratings", "corpus.load_reference_ratings"),
    ("cdmetrics.spearman", "spearman", "spearman.spearman"),
    ("cdmetrics.spearman", "significance", "spearman.significance"),
)
SPAN_NAMES = ("cli.main", *(name for _, _, name in TRACED))


def _hierarchy_edges(diagram, *_args, **_kwargs) -> int:
    return sum(r.kind.value in ("generalization", "aggregation") for r in diagram.relationships)


# Work counted at the boundary of a span, before it starts.
COUNTERS = {
    "dsl.parse": lambda source, *_a, **_k: source.count("\n") + 1,
    "metrics.compute_metrics": _hierarchy_edges,
    "regression.fit": lambda samples, *_a, **_k: len(samples),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
                "error": None,
                "count": counter(*args, **kwargs) if counter else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        """Rebind each traced function wherever a cdmetrics module holds it."""
        for module_name, attr, name in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for loaded_name, module in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "cdmetrics" or module is None:
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, alias, original))
                        setattr(module, alias, wrapper)

    def uninstall(self):
        for module, alias, original in reversed(self._saved):
            setattr(module, alias, original)
        self._saved.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]
