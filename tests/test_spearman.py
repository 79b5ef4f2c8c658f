import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.stats import rankdata
from scipy.stats import t as student_t

from cdmetrics.corpus import load_reference_ratings
from cdmetrics.errors import TooFewPairs, ValidationInputError
from cdmetrics.spearman import (
    DifferenceMode,
    _t_ppf,
    ranks_with_ties,
    significance,
    spearman,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _pairs(knowns, computeds):
    return [(k, c) for k, c in zip(knowns, computeds)]


def test_ranks_simple():
    assert ranks_with_ties([10, 20, 30]) == [1, 2, 3]


def test_ranks_with_a_tie():
    assert ranks_with_ties([10, 20, 20, 30]) == [1, 2.5, 2.5, 4]


def test_ranks_full_tie():
    assert ranks_with_ties([5, 5, 5]) == [2, 2, 2]


def test_ranks_empty_input():
    assert ranks_with_ties([]) == []


# Mostly a few small values, so that ties are common; both signed zeros among them.
tie_heavy_values = st.one_of(st.integers(0, 3), st.sampled_from([-0.0, 0.0, 1.5]), finite_floats)


# The examples: equal values of two types, the int 1 and the float 1.0, or of two
# signs, 0.0 and -0.0, are one tie, in any order.
@given(st.lists(tie_heavy_values, max_size=60))
@example([1, 1.0, 0.0, -0.0, 2, 1])
@example([1.0, -0.0, 1, 0.0, 1.0, 0.5, -0.0])
@example([-0.0, 1, 0.0, 1.0])
def test_ranks_match_scipy_average_ranks(values):
    assert ranks_with_ties(values) == rankdata(values, method="average").tolist()


@given(st.lists(finite_floats, min_size=1, max_size=40))
def test_rank_sum_is_exact(values):
    n = len(values)
    assert sum(ranks_with_ties(values)) == pytest.approx(n * (n + 1) / 2, abs=1e-9)


def test_identical_ordering_gives_one():
    report = spearman(_pairs([1, 2, 3], [10, 20, 30]))
    assert report.r_s == 1.0
    assert report.sum_d_squared == 0.0


def test_reversed_ordering_gives_minus_one():
    report = spearman(_pairs([1, 2, 3], [30, 20, 10]))
    assert report.r_s == -1.0


def test_too_few_pairs():
    with pytest.raises(TooFewPairs):
        spearman(_pairs([1], [2]))


@pytest.mark.parametrize("computed", [1e200, 1e154])
def test_value_mode_overflow_is_an_input_error(computed):
    # At 1e200 d^2 overflows; at 1e154 the sum of d^2 is finite but 6 times it is not.
    pairs = _pairs([1, 2, 3, 4], [computed, 2, 3, 4])
    with pytest.raises(ValidationInputError, match="r_s overflows in value mode"):
        spearman(pairs, DifferenceMode.VALUE)
    assert math.isfinite(spearman(pairs).r_s)  # rank mode cannot overflow


def test_two_pairs_allowed():
    report = spearman(_pairs([1, 2], [2, 3]))
    assert report.n == 2
    assert math.isnan(report.critical_value)
    assert report.significant is False


def test_reference_fixture_rank_mode():
    report = spearman(load_reference_ratings(), DifferenceMode.RANK)
    assert report.n == 28
    assert report.sum_d_squared == pytest.approx(185.5, abs=1e-9)
    assert report.r_s == pytest.approx(0.9492, abs=0.0005)
    assert report.significant


def test_reference_fixture_value_mode():
    report = spearman(load_reference_ratings(), DifferenceMode.VALUE)
    assert report.sum_d_squared == pytest.approx(5.4126, abs=0.001)
    assert report.r_s == pytest.approx(0.9985, abs=0.0005)


def test_critical_value_for_28_pairs():
    critical, significant = significance(0.9492, 28, 0.05)
    assert critical == pytest.approx(0.374, abs=0.005)
    assert significant


def test_zero_correlation_never_significant():
    for n in (4, 10, 28, 100):
        _, significant = significance(0.0, n, 0.05)
        assert not significant


# --- the t quantile, against scipy as the oracle --------------------------------

GRID_N = [*range(4, 31), 100, 10**3, 10**4, 10**5, 10**6]
GRID_ALPHA = [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5]


def _scipy_quantile(alpha, n):
    """The quantile the threshold used to take from scipy, which the package
    no longer imports."""
    return float(student_t.ppf(1 - alpha / 2, n - 2))


@pytest.mark.parametrize("alpha", GRID_ALPHA)
def test_quantile_and_critical_value_match_scipy_on_grid(alpha):
    for n in GRID_N:
        t = _scipy_quantile(alpha, n)
        assert _t_ppf(1 - alpha / 2, n - 2) == pytest.approx(t, rel=1e-9), n
        critical, _ = significance(0.0, n, alpha)
        assert critical == pytest.approx(t / math.sqrt(n - 2 + t * t), rel=1e-9), n


@given(st.integers(4, 10**6), st.floats(1e-6, 0.5))
def test_quantile_matches_scipy(n, alpha):
    assert _t_ppf(1 - alpha / 2, n - 2) == pytest.approx(_scipy_quantile(alpha, n), rel=1e-9)


def test_alpha_below_float_resolution_gives_no_threshold():
    # 1 - alpha/2 rounds to 1: the quantile is infinite, as scipy's was.
    critical, significant = significance(1.0, 28, 1e-17)
    assert math.isnan(critical) and not significant


@pytest.mark.parametrize("n, alpha", [(2, 0.05), (3, 0.05), (28, 1e-17)])
def test_no_threshold_gives_nan_and_not_significant(n, alpha):
    # Fewer than 4 pairs, or 1 - alpha/2 that rounds to 1: no t quantile to compare with.
    critical, significant = significance(1.0, n, alpha)
    assert math.isnan(critical) and significant is False


def _loaded_scipy_and_numpy(code: str, cwd=None) -> str:
    """Run code in a fresh interpreter; which of scipy and numpy it loaded."""
    code = f"import sys\n{code}\nprint(sorted({{'scipy', 'numpy'}} & set(sys.modules)))\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1]


def test_cli_and_significance_import_neither_scipy_nor_numpy():
    code = ("import sys, cdmetrics.cli\n"
            "from cdmetrics.spearman import significance\n"
            "significance(0.5, 28, 0.05)")
    assert _loaded_scipy_and_numpy(code) == "[]"


def test_submodule_import_binds_the_module():
    # The package root exports no names that could shadow its submodules.
    import cdmetrics.spearman as m

    assert isinstance(m, types.ModuleType)
    assert m.spearman is spearman


def _assume_no_constant_column(raw):
    """r_s is defined only where neither column is constant (see the test below)."""
    assume(len({k for k, _ in raw}) > 1 and len({c for _, c in raw}) > 1)


# A constant column has no ranking, so r_s is undefined.  Rank mode's formula would
# still give a number (0.5 against untied values, 1 if both columns are constant);
# it raises instead, naming the column, known first.  Value mode keeps its formula.
@given(st.lists(finite_floats, min_size=2, max_size=30), finite_floats, st.booleans())
def test_a_constant_column_is_an_error_in_rank_mode(values, constant, known_is_constant):
    column = [constant] * len(values)
    knowns, computeds = (column, values) if known_is_constant else (values, column)
    tied = "known" if known_is_constant or len(set(values)) == 1 else "computed"
    pairs = _pairs(knowns, computeds)
    with pytest.raises(ValidationInputError,
                       match=f"^column '{tied}' is constant: no r_s in rank mode$"):
        spearman(pairs)
    n = len(pairs)
    sum_d_squared = sum((k - c) ** 2 for k, c in pairs)
    report = spearman(pairs, DifferenceMode.VALUE)
    assert report.r_s == pytest.approx(1 - 6 * sum_d_squared / (n * (n * n - 1)), rel=1e-12)


def test_a_constant_known_column_against_untied_values_is_an_error():
    # The formula gives exactly 0.5 here, which would read as a real correlation.
    pairs = _pairs([3] * 100, range(100))
    known, computed = ranks_with_ties([3] * 100), ranks_with_ties(list(range(100)))
    assert 1 - 6 * sum((k - c) ** 2 for k, c in zip(known, computed)) / (100 * 9999) == 0.5
    with pytest.raises(ValidationInputError, match="column 'known' is constant"):
        spearman(pairs)
    # A first value at the mean rank is not enough: 2 of [2, 1, 3] is not a constant column.
    assert spearman(_pairs([2, 1, 3], [1, 2, 3])).r_s == 0.5
    with pytest.raises(TooFewPairs):  # too few pairs is still named first
        spearman(_pairs([3], [3]))


@given(
    st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=30),
    st.randoms(use_true_random=False),
)
def test_permutation_equivariance(raw, rnd):
    _assume_no_constant_column(raw)
    pairs = [(k, c) for k, c in raw]
    shuffled = pairs[:]
    rnd.shuffle(shuffled)
    assert spearman(shuffled).r_s == pytest.approx(spearman(pairs).r_s, abs=1e-9)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=30))
def test_monotone_transform_invariance(raw):
    _assume_no_constant_column(raw)
    pairs = [(k, c) for k, c in raw]
    # doubling is exact in binary floats, so tie structure is preserved
    transformed = [(p[0], 8 * p[1]) for p in pairs]
    assert spearman(transformed).r_s == pytest.approx(spearman(pairs).r_s, abs=1e-9)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=30,
                unique_by=(lambda t: t[0], lambda t: t[1])))
def test_antisymmetry_without_ties(raw):
    pairs = [(k, c) for k, c in raw]
    negated = [(p[0], -p[1]) for p in pairs]
    assert spearman(negated).r_s == pytest.approx(-spearman(pairs).r_s, abs=1e-9)
