"""Independent reference results that the program's outputs are checked against.

None of this imports cdmetrics: metrics come from networkx over the planted
edge lists, fits from numpy.linalg.lstsq, ranks from scipy.stats.rankdata.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.stats import rankdata

# The published understandability model, as printed in the paper.
PUBLISHED_INTERCEPT = 1.33515
PUBLISHED_WEIGHTS = {"NAssoc": 0.129, "NA": 0.0463, "MaxDIT": 0.3405}

# Pinned results of the bundled 28-pair reproduction (4 decimal places).
PINNED_REPRODUCTION = {"rank": 0.9492, "value": 0.9985}


def _edges(spec: dict, kind: str) -> list[tuple[str, str]]:
    return [(a, b) for k, a, b in spec["relationships"] if k == kind]


def _longest_path(edges) -> int:
    return nx.dag_longest_path_length(nx.DiGraph(edges)) if edges else 0


def _components(edges) -> int:
    return nx.number_connected_components(nx.Graph(edges)) if edges else 0


def diagram_metrics(spec: dict) -> dict[str, int]:
    gen = _edges(spec, "generalization")
    agg = _edges(spec, "aggregation")
    return {
        "NC": len(spec["classes"]),
        "NA": sum(len(attrs) for _, attrs, _ in spec["classes"]),
        "NM": sum(len(methods) for _, _, methods in spec["classes"]),
        "NAssoc": len(_edges(spec, "association")),
        "NAgg": len(agg),
        "NDep": len(_edges(spec, "dependency")),
        "NGen": len(gen),
        "NAggH": _components(agg),
        "NGenH": _components(gen),
        "MaxHAgg": _longest_path(agg),
        "MaxDIT": _longest_path(gen),
    }


def published_estimate(metrics: dict[str, int]) -> float:
    return PUBLISHED_INTERCEPT + sum(w * metrics[m] for m, w in PUBLISHED_WEIGHTS.items())


def least_squares(corpus: dict) -> dict:
    """Intercept and coefficients of the corpus's OLS fit, by lstsq."""
    predictors = corpus["predictors"]
    design = np.array([[1.0, *(values[p] for p in predictors)] for values, _ in corpus["rows"]])
    ratings = np.array([rating for _, rating in corpus["rows"]])
    solution = np.linalg.lstsq(design, ratings, rcond=None)[0]
    return {"intercept": float(solution[0]),
            "coefficients": dict(zip(predictors, map(float, solution[1:])))}


def spearman_r(known, computed, mode: str) -> tuple[float, float, int]:
    """(r_s, sum of d^2, n) by 1 - 6*sum(d^2)/(n(n^2-1)), as the program defines it."""
    known = np.asarray(known, dtype=float)
    computed = np.asarray(computed, dtype=float)
    if mode == "rank":
        d = rankdata(known) - rankdata(computed)
    else:
        d = computed - known
    n = len(d)
    sum_d2 = float(np.sum(d * d))
    return 1 - 6 * sum_d2 / (n * (n * n - 1)), sum_d2, n


def reference_pairs(src: Path) -> tuple[list[float], list[float]]:
    """The bundled known/computed ratings, read straight from the data file."""
    with open(src / "cdmetrics" / "data" / "table2.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["known"]) for r in rows], [float(r["computed"]) for r in rows]


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
