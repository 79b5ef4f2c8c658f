import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmetrics.errors import ModelError
from cdmetrics.metrics import METRIC_NAMES, MetricsVector
from cdmetrics.regression import (
    PUBLISHED_UNDERSTANDABILITY_MODEL,
    LinearModel,
    estimate,
    fit,
)

from .conftest import fails

PUBLISHED = PUBLISHED_UNDERSTANDABILITY_MODEL


def test_published_model_constants():
    assert PUBLISHED.intercept == 1.33515
    assert PUBLISHED.coefficients == (
        ("NAssoc", 0.129), ("NA", 0.0463), ("MaxDIT", 0.3405),
    )


def test_estimate_intercept_only():
    assert estimate(PUBLISHED, MetricsVector()) == pytest.approx(1.33515, abs=1e-12)


def test_estimate_unit_metrics():
    vec = MetricsVector(NAssoc=1, NA=1, MaxDIT=1)
    assert estimate(PUBLISHED, vec) == pytest.approx(1.85095, abs=1e-9)


def test_estimate_larger_diagram():
    vec = MetricsVector(NAssoc=5, NA=20, MaxDIT=2)
    assert estimate(PUBLISHED, vec) == pytest.approx(3.58715, abs=1e-9)


def test_model_rejects_unknown_metric_and_nonfinite():
    with pytest.raises(ModelError, match="coefficients: unknown metric name 'NotAMetric'"):
        LinearModel.from_json_obj({"intercept": 0, "coefficients": {"NotAMetric": 1.0}})
    with pytest.raises(ModelError, match="^intercept: expected a finite number, got nan$"):
        LinearModel.from_json_obj({"intercept": float("nan"), "coefficients": {}})
    with pytest.raises(ModelError, match="^coefficients.NA: expected a finite number"):
        LinearModel.from_json_obj({"intercept": 0, "coefficients": {"NA": 10 ** 400}})


def test_model_reader_takes_the_largest_finite_floats():
    big = 1.7976931348623157e308  # sys.float_info.max: the bound is inclusive
    model = LinearModel.from_json_obj({"intercept": big, "coefficients": {"NA": -big}})
    assert model == LinearModel(big, (("NA", -big),))


def test_model_reader_takes_json_ints_as_floats_and_ignores_other_keys():
    model = LinearModel.from_json_obj({"intercept": 1, "coefficients": {"NA": 2}, "r2": 0.5})
    assert model == LinearModel(1.0, (("NA", 2.0),))
    assert all(type(v) is float for v in (model.intercept, *dict(model.coefficients).values()))


def test_model_json_round_trip():
    obj = PUBLISHED.to_json_obj()
    assert obj == {
        "intercept": 1.33515,
        "coefficients": {"NAssoc": 0.129, "NA": 0.0463, "MaxDIT": 0.3405},
    }
    assert LinearModel.from_json_obj(obj) == PUBLISHED


def _corpus(rows, predictors):
    """The (names, table) corpus of (predictor values..., rating) rows."""
    table = np.array(rows, dtype=float).reshape(len(rows), len(predictors) + 1)
    return [*predictors, "rating"], table


def test_fit_exact_line():
    model = fit(_corpus([(0, 2), (1, 3), (2, 4)], ["NAssoc"]), ["NAssoc"])
    assert model.intercept == pytest.approx(2.0, abs=1e-9)
    assert dict(model.coefficients)["NAssoc"] == pytest.approx(1.0, abs=1e-9)


def test_fit_recovers_published_plane():
    predictors = ["NAssoc", "NA", "MaxDIT"]
    rows = [
        (0, 0, 0, 1.33515),
        (1, 0, 0, 1.46415),
        (0, 1, 0, 1.38145),
        (0, 0, 1, 1.67565),
    ]
    model = fit(_corpus(rows, predictors), predictors)
    assert model.intercept == pytest.approx(1.33515, abs=1e-9)
    weights = dict(model.coefficients)
    assert weights["NAssoc"] == pytest.approx(0.129, abs=1e-9)
    assert weights["NA"] == pytest.approx(0.0463, abs=1e-9)
    assert weights["MaxDIT"] == pytest.approx(0.3405, abs=1e-9)


def test_fitted_weights_are_plain_floats():
    rows = [(0, 1, 2.0), (1, 0, 3.5), (2, 2, 4.0), (3, 1, 6.5)]
    model = fit(_corpus(rows, ["NA", "NM"]), ["NA", "NM"])
    assert all(type(w) is float for w in (model.intercept, *dict(model.coefficients).values()))


def test_fit_insufficient_samples():
    predictors = ["NAssoc", "NA", "MaxDIT"]
    rows = [(0, 0, 0, 1.0), (1, 0, 0, 2.0), (0, 1, 0, 3.0)]
    with fails(ModelError, 4, "need at least 4 samples, got 3"):
        fit(_corpus(rows, predictors), predictors)


def test_fit_reads_the_requested_columns_in_the_requested_order():
    rows = [(1, 5, 2, 2.0), (2, 3, 7, 3.5), (3, 1, 1, 4.0), (4, 4, 2, 6.5), (5, 9, 0, 1.0)]
    wide = _corpus(rows, ["NA", "NM", "NC"])
    narrow = _corpus([(nc, na, y) for na, _, nc, y in rows], ["NC", "NA"])
    assert fit(wide, ["NC", "NA"]) == fit(narrow, ["NC", "NA"])
    with pytest.raises(ModelError, match=r"^sample missing predictor\(s\): \['NGen'\]$"):
        fit(wide, ["NA", "NGen"])
    with pytest.raises(ModelError, match=r"^sample missing predictor\(s\): \['rating'\]$"):
        fit(wide, ["rating"])


def test_fit_singular_design():
    predictors = ["NA", "NM"]
    rows = [(1, 1, 2.0), (2, 2, 3.0), (3, 3, 4.0), (4, 4, 5.0)]
    with fails(ModelError, 4, "design columns are linearly dependent"):
        fit(_corpus(rows, predictors), predictors)


def _planted_case(seed):
    rng = random.Random(seed)
    p = rng.randint(1, 5)
    n = rng.randint(p + 1, 20)
    predictors = rng.sample(METRIC_NAMES, p)
    intercept = rng.uniform(-5, 5)
    weights = [rng.uniform(-3, 3) for _ in range(p)]
    rows = []
    for _ in range(n):
        x = [rng.uniform(-10, 10) for _ in range(p)]
        y = intercept + sum(w * v for w, v in zip(weights, x))
        rows.append((*x, y))
    return predictors, intercept, weights, rows


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_planted_model_recovery(seed):
    predictors, intercept, weights, rows = _planted_case(seed)
    model = fit(_corpus(rows, predictors), predictors)
    assert model.intercept == pytest.approx(intercept, abs=1e-8, rel=1e-8)
    fitted = dict(model.coefficients)
    for name, w in zip(predictors, weights):
        assert fitted[name] == pytest.approx(w, abs=1e-8, rel=1e-8)


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_residual_orthogonality(seed):
    rng = random.Random(seed)
    predictors = ["NAssoc", "NA"]
    rows = [
        (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 6))
        for _ in range(10)
    ]
    model = fit(_corpus(rows, predictors), predictors)
    residuals = [row[-1] - estimate(model, MetricsVector(**dict(zip(predictors, row))))
                 for row in rows]
    scale = max(1.0, max(abs(row[-1]) for row in rows))
    assert abs(sum(residuals)) <= 1e-8 * scale * len(rows)
    for i in range(len(predictors)):
        dot = sum(r * row[i] for r, row in zip(residuals, rows))
        col_norm = math.sqrt(sum(row[i] ** 2 for row in rows))
        assert abs(dot) <= 1e-8 * max(1.0, col_norm * scale)


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_prediction_invariant_under_predictor_reordering(seed):
    predictors, _, _, rows = _planted_case(seed)
    if len(predictors) < 2:
        return
    rated = _corpus(rows, predictors)
    rng = random.Random(seed + 1)
    shuffled = predictors[:]
    rng.shuffle(shuffled)
    a = fit(rated, predictors)
    b = fit(rated, shuffled)
    for row in rows:
        values = MetricsVector(**dict(zip(predictors, row)))
        assert estimate(a, values) == pytest.approx(estimate(b, values), abs=1e-7, rel=1e-7)


def test_estimate_is_affine():
    v1 = MetricsVector(NAssoc=2.0, NA=7.0, MaxDIT=1.0)
    v2 = MetricsVector(NAssoc=5.0, NA=1.0, MaxDIT=4.0)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        blended = MetricsVector(*(alpha * a + (1 - alpha) * b for a, b in zip(v1, v2)))
        expected = alpha * estimate(PUBLISHED, v1) + (1 - alpha) * estimate(PUBLISHED, v2)
        assert estimate(PUBLISHED, blended) == pytest.approx(expected, abs=1e-12)


def test_fit_ill_conditioned_design():
    # NM tracks NA to within 1e-4: the design's condition number is about
    # 2.1e6, which squares to about 4e12 in the normal equations.
    rng = random.Random(0)
    rows = []
    for _ in range(200):
        na = rng.uniform(0, 100)
        nm = na + 1e-4 * rng.uniform(-1, 1)
        rows.append((na, nm, 1 + 0.5 * na + 0.25 * nm))
    model = fit(_corpus(rows, ["NA", "NM"]), ["NA", "NM"])
    assert model.intercept == pytest.approx(1.0, abs=1e-8)
    weights = dict(model.coefficients)
    assert weights["NA"] == pytest.approx(0.5, abs=1e-8)
    assert weights["NM"] == pytest.approx(0.25, abs=1e-8)
