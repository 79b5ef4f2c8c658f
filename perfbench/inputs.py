"""Seeded inputs for the three workloads.

Everything is derived from the seed alone, and the program under test sees
only the files written here (`.cd`, `.json`, `.csv`).  Each generator also
returns the planted facts (edge lists, class members, corpus columns) that
the oracle checks the program's output against.

Sizes are fixed per workload and only the structure varies with the seed, so
that the cost of a run does not depend on the seed: every diagram of a given
size has the same number of classes and relationships of each kind.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

METRIC_NAMES = (
    "NC", "NA", "NM", "NAssoc", "NAgg", "NDep", "NGen",
    "NAggH", "NGenH", "MaxHAgg", "MaxDIT",
)

# Value ranges for synthetic fit-corpus predictors, roughly those of real
# class diagrams; drawn independently so that the design is well conditioned.
PREDICTOR_RANGES = {
    "NC": (1, 60), "NA": (0, 200), "NM": (0, 200), "NAssoc": (0, 80),
    "NAgg": (0, 30), "NDep": (0, 40), "NGen": (0, 40), "NAggH": (0, 10),
    "NGenH": (0, 10), "MaxHAgg": (0, 8), "MaxDIT": (0, 8),
}

_KEYWORDS = {
    "association": ("assoc", "--"),
    "aggregation": ("agg", "o-"),
    "dependency": ("dep", "->"),
    "generalization": ("gen", "=>"),
}


def random_diagram(rng: random.Random, n: int, ident: str) -> dict:
    """A valid diagram of n classes with fixed per-kind relationship counts.

    Hierarchy edges follow a hidden topological order (class index), so
    generalization and aggregation stay acyclic; declaration order of classes
    and relationships is shuffled so that it says nothing about that order.
    """
    names = [f"{ident}_c{i}" for i in range(n)]
    classes = [
        (name,
         [f"a{j}" for j in range(rng.randint(0, 5))],
         [f"m{j}" for j in range(rng.randint(0, 5))])
        for name in names
    ]
    gen: list[tuple[str, str]] = []
    for child in rng.sample(range(1, n), k=round(0.4 * n)) if n > 1 else ():
        gen.append((names[child], names[rng.randrange(child)]))
    agg_pairs: set[tuple[int, int]] = set()
    while len(agg_pairs) < round(0.3 * n):
        whole = rng.randrange(n - 1)
        agg_pairs.add((whole, rng.randrange(whole + 1, n)))
    agg = [(names[w], names[p]) for w, p in sorted(agg_pairs)]
    assoc = [(rng.choice(names), rng.choice(names)) for _ in range(n)]
    dep = [(rng.choice(names), rng.choice(names)) for _ in range(n // 2)]

    relationships = (
        [("association", a, b) for a, b in assoc]
        + [("aggregation", a, b) for a, b in agg]
        + [("dependency", a, b) for a, b in dep]
        + [("generalization", a, b) for a, b in gen]
    )
    rng.shuffle(classes)
    rng.shuffle(relationships)
    return {"id": ident, "classes": classes, "relationships": relationships}


def chain_diagram(kind: str, n: int, root_first: bool) -> dict:
    """A single generalization or aggregation chain of n classes.

    Edge i runs from class i to class i+1: child => parent for
    generalization, whole o- part for aggregation.  So the depth metric of
    the chain is n - 1.  Child-first order declares the deepest child
    (generalization) or the innermost part (aggregation) first.
    """
    names = [f"L{i}" for i in range(n)]
    edges = [(kind, names[i], names[i + 1]) for i in range(n - 1)]
    # L0 is the deepest child of a generalization chain but the outermost
    # whole of an aggregation chain.
    if root_first == (kind == "generalization"):
        names.reverse()
        edges.reverse()
    order = "rootfirst" if root_first else "childfirst"
    return {
        "id": f"{kind[:3]}_chain_{order}",
        "classes": [(name, [], []) for name in names],
        "relationships": edges,
    }


def to_dsl(spec: dict) -> str:
    lines = [f"diagram {spec['id']}"]
    for name, attrs, methods in spec["classes"]:
        if not attrs and not methods:
            lines.append(f"class {name} {{}}")
            continue
        lines.append(f"class {name} {{")
        lines.extend(f"  attr {a}" for a in attrs)
        lines.extend(f"  method {m}" for m in methods)
        lines.append("}")
    for kind, a, b in spec["relationships"]:
        keyword, arrow = _KEYWORDS[kind]
        lines.append(f"{keyword} {a} {arrow} {b}")
    return "\n".join(lines) + "\n"


def to_json(spec: dict) -> str:
    return json.dumps({
        "id": spec["id"],
        "classes": [
            {"name": name, "attributes": attrs, "methods": methods}
            for name, attrs, methods in spec["classes"]
        ],
        "relationships": [
            {"kind": kind, "from": a, "to": b}
            for kind, a, b in spec["relationships"]
        ],
    })


def write_diagram(spec: dict, directory: Path, fmt: str) -> Path:
    path = directory / f"{spec['id']}.{fmt}"
    path.write_text(to_dsl(spec) if fmt == "cd" else to_json(spec), encoding="utf-8")
    return path


def rating_corpus(rng: random.Random, rows: int, predictors: list[str]) -> dict:
    """Predictor columns drawn independently plus a planted linear rating."""
    weights = {p: rng.uniform(-0.2, 0.4) for p in predictors}
    intercept = rng.uniform(0.5, 2.0)
    table = []
    for _ in range(rows):
        values = {p: rng.randint(*PREDICTOR_RANGES[p]) for p in predictors}
        rating = intercept + sum(weights[p] * values[p] for p in predictors)
        table.append((values, rating + rng.gauss(0.0, 0.3)))
    return {"predictors": predictors, "rows": table}


def write_rating_corpus(corpus: dict, path: Path) -> Path:
    predictors = corpus["predictors"]
    lines = [",".join([*predictors, "rating"])]
    for values, rating in corpus["rows"]:
        lines.append(",".join([*(str(values[p]) for p in predictors), repr(rating)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def validation_corpus(rng: random.Random, rows: int) -> dict:
    """Expert ratings 1..5 (heavily tied) and estimates loosely tracking them."""
    known = [rng.randint(1, 5) for _ in range(rows)]
    computed = [round(0.8 * k + rng.gauss(0.5, 0.6), 3) for k in known]
    return {"known": known, "computed": computed}


def write_validation_corpus(corpus: dict, path: Path) -> Path:
    lines = ["id,known,computed"]
    for i, (k, c) in enumerate(zip(corpus["known"], corpus["computed"])):
        lines.append(f"R{i},{k},{c!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
