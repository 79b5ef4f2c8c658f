"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cdmetrics.corpus import load_reference_ratings
from cdmetrics.diagram import validate
from cdmetrics.dsl import parse, serialize
from cdmetrics.errors import DslSyntaxError, ModelError
from cdmetrics.metrics import MetricsVector, compute_metrics
from cdmetrics.regression import (
    PUBLISHED_UNDERSTANDABILITY_MODEL,
    estimate,
    fit,
)
from cdmetrics.spearman import DifferenceMode, significance, spearman

from .conftest import fails, valid_diagrams
from .oracles import metrics_brute, random_diagram

from hypothesis import given, settings
from hypothesis import strategies as st


def _ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_reference_reproduction():
    start = time.perf_counter()
    report = spearman(load_reference_ratings(), DifferenceMode.RANK)
    elapsed = time.perf_counter() - start
    assert report.n == 28
    assert report.sum_d_squared == pytest.approx(185.5, abs=1e-9)
    assert abs(report.r_s - 0.9482) <= 0.002
    assert report.r_s == pytest.approx(0.9492, abs=0.0005)
    assert elapsed < 1.0
    _ok(1, f"rank-mode r_s={report.r_s:.4f}, within 0.002 of 0.9482, "
           f"{elapsed * 1000:.1f} ms")


def test_criterion_2_value_mode_discrepancy():
    report = spearman(load_reference_ratings(), DifferenceMode.VALUE)
    assert report.sum_d_squared == pytest.approx(5.4126, abs=0.001)
    assert report.r_s == pytest.approx(0.9985, abs=0.0005)
    _ok(2, f"value-mode r_s={report.r_s:.4f} (sum d^2={report.sum_d_squared:.4f})")


def test_criterion_3_published_model_application():
    cases = [
        ((0, 0, 0), 1.33515),
        ((1, 1, 1), 1.85095),
        ((5, 20, 2), 3.58715),
    ]
    for (nassoc, na, maxdit), expected in cases:
        vec = MetricsVector(NAssoc=nassoc, NA=na, MaxDIT=maxdit)
        got = estimate(PUBLISHED_UNDERSTANDABILITY_MODEL, vec)
        assert got == pytest.approx(expected, abs=1e-9)
    _ok(3, "published-model estimates exact to 1e-9 on all three triples")


def test_criterion_4_regression_recovery():
    predictors = ["NAssoc", "NA", "MaxDIT"]
    rows = [
        (0, 0, 0, 1.33515),
        (1, 0, 0, 1.46415),
        (0, 1, 0, 1.38145),
        (0, 0, 1, 1.67565),
    ]
    model = fit(([*predictors, "rating"], np.array(rows, dtype=float)), predictors)
    assert model.intercept == pytest.approx(1.33515, abs=1e-9)
    for name, expected in (("NAssoc", 0.129), ("NA", 0.0463), ("MaxDIT", 0.3405)):
        assert dict(model.coefficients)[name] == pytest.approx(expected, abs=1e-9)

    rng = random.Random(4)
    for _ in range(100):
        p = rng.randint(1, 5)
        n = rng.randint(p + 1, 20)
        names = rng.sample(
            ["NC", "NA", "NM", "NAssoc", "NAgg", "NDep", "NGen",
             "NAggH", "NGenH", "MaxHAgg", "MaxDIT"], p)
        intercept = rng.uniform(-5, 5)
        weights = [rng.uniform(-3, 3) for _ in range(p)]
        values, ratings = [], []
        for _ in range(n):
            x = [rng.uniform(-10, 10) for _ in range(p)]
            values.append(x)
            ratings.append(intercept + sum(w * v for w, v in zip(weights, x)))
        fitted = fit(([*names, "rating"], np.column_stack([values, ratings])), names)
        assert fitted.intercept == pytest.approx(intercept, abs=1e-8, rel=1e-8)
        for name, w in zip(names, weights):
            assert dict(fitted.coefficients)[name] == pytest.approx(
                w, abs=1e-8, rel=1e-8)

    v = np.arange(5.0)
    degenerate = (["NA", "NM", "rating"], np.column_stack([v, v, v + 1]))
    with fails(ModelError, 4, "design columns are linearly dependent"):
        fit(degenerate, ["NA", "NM"])
    _ok(4, "plane recovery to 1e-9, 100 planted models to 1e-8, "
           "singular design rejected")


def test_criterion_5_metric_oracle_equivalence():
    rng = random.Random(5)
    disagreements = 0
    for _ in range(1000):
        d = random_diagram(rng, max_classes=8)
        validate(d)
        if compute_metrics(d).as_dict() != metrics_brute(d):
            disagreements += 1
    assert disagreements == 0
    _ok(5, "1000 random diagrams, all 11 metrics match brute force, "
           "0 disagreements")


def test_criterion_6_significance_threshold():
    critical, _ = significance(0.9492, 28, 0.05)
    assert critical == pytest.approx(0.374, abs=0.005)
    report = spearman(load_reference_ratings(), DifferenceMode.RANK, alpha=0.05)
    assert report.significant
    _ok(6, f"critical value {critical:.4f} within 0.374±0.005; "
           "fixture r_s significant")


@settings(max_examples=1000, deadline=None)
@given(valid_diagrams())
def test_criterion_7a_round_trip(d):
    assert parse(serialize(d)) == d


MALFORMED = [
    ("clazz A {}\n", 1, 1),
    ("class 9lives {}\n", 1, 7),
    ("class A {}\nassoc A --> A\n", 2, 9),
    ("class A {}\nclass B {}\nagg A -- B\n", 3, 7),
    ("class A {}\ngen A =>\n", 2, 9),
    ("class A {\n attr x\n", 2, 8),
    ("class A {\n wibble x\n}\n", 2, 2),
    ("diagram a\ndiagram b\n", 2, 1),
    ("class A {} extra\n", 1, 12),
    ("dep -> B\n", 1, 5),
]


def test_criterion_7b_error_corpus():
    for source, line, column in MALFORMED:
        with pytest.raises(DslSyntaxError) as exc:
            parse(source)
        assert (exc.value.line, exc.value.column) == (line, column), source
    _ok(7, "1000 round-trips exact; all malformed fixtures give the "
           "expected line/column")


# Table 2's printed estimates against the published model, in integer units of
# 1e-6: every printed number, and half a unit in its last digit, is a multiple.
MICRO = 10**6
# Half a unit in the last printed digit of 1.33515, 0.129, 0.0463 and 0.3405.
SLACK = (5, 500, 50, 50)
NO_SLACK = (0, 0, 0, 0)


def _reachable(estimate, weights, slack):
    """How many non-negative integer triples (NAssoc, NA, MaxDIT) can give an
    estimate within 500 of `estimate` (half a unit of its printed last digit),
    the intercept and each weight off by at most its slack."""
    (c0, ca, cn, cm), (h0, ha, hn, hm) = weights, slack
    top, bottom = estimate + 500, estimate - 500
    count = 0
    # Every term is non-negative, so the estimate bounds NAssoc and MaxDIT, and
    # for each pair of them the NA that fit form an interval.
    for a in range((top - c0 + h0) // (ca - ha) + 1):
        for m in range((top - c0 + h0 - (ca - ha) * a) // (cm - hm) + 1):
            low = c0 - h0 + (ca - ha) * a + (cm - hm) * m
            high = c0 + h0 + (ca + ha) * a + (cm + hm) * m
            first = max(0, -((high - bottom) // (cn + hn)))  # ceil((bottom - high) / (cn + hn))
            count += max(0, (top - low) // (cn - hn) - first + 1)
    return count


def _reachable_by_enumeration(estimate, weights, slack):
    """_reachable by exact rationals over every triple the estimate bounds."""
    w, h = [Fraction(c, MICRO) for c in weights], [Fraction(c, MICRO) for c in slack]
    top, bottom = Fraction(estimate + 500, MICRO), Fraction(estimate - 500, MICRO)
    bounds = [range(int((top - w[0] + h[0]) // (w[i] - h[i])) + 1) for i in (1, 2, 3)]
    count = 0
    for x in itertools.product(*bounds):
        low = w[0] - h[0] + sum((w[i] - h[i]) * v for i, v in zip((1, 2, 3), x))
        high = w[0] + h[0] + sum((w[i] + h[i]) * v for i, v in zip((1, 2, 3), x))
        count += low <= top and high >= bottom
    return count


def test_criterion_8_table2_audit():
    model = PUBLISHED_UNDERSTANDABILITY_MODEL
    assert [name for name, _ in model.coefficients] == ["NAssoc", "NA", "MaxDIT"]
    weights = [round(w * MICRO) for w in (model.intercept, *(w for _, w in model.coefficients))]
    estimates = [round(computed * MICRO) for _, computed in load_reference_ratings()]
    start = time.perf_counter()
    exact = [_reachable(e, weights, NO_SLACK) for e in estimates]
    loose = [_reachable(e, weights, SLACK) for e in estimates]
    elapsed = time.perf_counter() - start
    # 13 of the 28 printed estimates come from the printed model and some
    # integer metrics; 25 do when every printed number may be off by half a
    # unit in its last digit; D0, D1 and D5 never do.
    assert [i for i, n in enumerate(exact) if not n] == [0, 1, 2, 3, *range(5, 13), 14, 15, 16]
    assert [i for i, n in enumerate(loose) if not n] == [0, 1, 5]
    for row in (0, 1, 2, 5, 13):
        for slack in (NO_SLACK, SLACK):
            assert (_reachable(estimates[row], weights, slack)
                    == _reachable_by_enumeration(estimates[row], weights, slack))
    assert elapsed < 1.0
    _ok(8, f"Table 2: {sum(map(bool, exact))} of 28 estimates reachable from the printed model, "
           f"{sum(map(bool, loose))} with half-unit slack; never D0, D1, D5")
