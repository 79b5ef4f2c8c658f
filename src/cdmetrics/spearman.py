"""Spearman rank-correlation validation of model estimates against ratings.

r_s = 1 - 6*sum(d^2) / (n*(n^2 - 1)), with d = known - computed per pair.  In
the default rank mode each side is replaced by its fractional ranks first; in
value mode d is the raw difference (both modes use the same formula).

The significance threshold takes the two-sided Student-t quantile at n - 2
degrees of freedom from the standard library alone: the regularised
incomplete beta function by its continued fraction (Numerical Recipes,
section 6.4) for the tail, inverted by Newton steps from a Cornish-Fisher
start.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Sequence
from enum import Enum
from operator import mul, sub

from .errors import ValidationInputError


class DifferenceMode(Enum):
    RANK = "rank"
    VALUE = "value"


class ValidationReport(namedtuple(
        "ValidationReport", "n mode d sum_d_squared r_s alpha critical_value significant")):
    """n pairs in `mode`; d = known - computed per pair (of ranks in rank mode, of
    values in value mode) and sum_d_squared; r_s; and at alpha, critical_value
    (NaN when significance() has no threshold: n < 4 or a tiny alpha) and significant."""

    __slots__ = ()


def ranks_with_ties(values: Sequence[float]) -> list[float]:
    """Fractional ranks: 1 for the smallest, ties given the mean of the ranks
    they span; they sum to n(n+1)/2, and ranks_with_ties([]) is [].  By counts: each
    distinct value, in order, gets below + (count + 1) / 2, below counting the values
    under it; equal values (1 and 1.0, 0.0 and -0.0) are one entry, with one rank."""
    counts, rank, below = Counter(values), {}, 0
    for value in sorted(counts):
        count = counts[value]
        rank[value] = below + (count + 1) / 2
        below += count
    return list(map(rank.__getitem__, values))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method, so
    that I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times it.  It converges within
    a hundred terms for x < (a + 1) / (a + b + 2)."""
    f, c, d = 1.0, 1.0, 0.0
    for k in range(1, 1000):
        m = k // 2
        if k % 2:
            coef = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            coef = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1 / (1 + coef * d or 1e-300)  # Lentz: a zero denominator becomes a tiny one
        c = 1 + coef / c or 1e-300
        f *= c * d
        if abs(c * d - 1) < 1e-15:
            break
    return 1 / f


def _t_ppf(p: float, nu: int) -> float:
    """The p-quantile of Student's t with nu degrees of freedom, p in [0.75, 1).

    The two-sided tail 2(1 - p) is I_x(nu/2, 1/2) at x = nu / (nu + t^2);
    written as t f(t), f the t density, times a continued fraction, it is
    close to a power of t.  So Newton's method runs on log tail against
    log t, whose slope is -2 t f(t) / tail, and takes at most four steps from
    the Cornish-Fisher start.  Agrees with scipy's t.ppf to 1e-10 relative
    for nu up to 10^6.
    """
    # Imported here, not at module level, so that only validate and reproduce
    # pay the statistics import at start-up.
    from statistics import NormalDist

    a, tail_p = nu / 2, 2 * (1 - p)
    # log(Gamma(a + 1/2) / Gamma(a)); at large a the lgamma difference loses digits.
    log_c = (math.lgamma(a + 0.5) - math.lgamma(a) if a < 100
             else 0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a ** 3))
    log_c -= 0.5 * math.log(nu * math.pi)  # now log f(0)
    z = -NormalDist().inv_cdf(1 - p)
    z2 = z * z
    t = z * (1 + (z2 + 1) / (4 * nu) + ((5 * z2 + 16) * z2 + 3) / (96 * nu * nu))
    for _ in range(20):
        log_tf = log_c + math.log(t) - (a + 0.5) * math.log1p(t * t / nu)
        if 1.5 * nu < (a + 1) * t * t:  # x < (a + 1) / (a + 2.5): expand I_x(a, 1/2)
            ratio = _beta_fraction(a, 0.5, nu / (nu + t * t)) / a  # tail / (t f(t))
            log_tail = log_tf + math.log(ratio)
        else:  # expand I_{1-x}(1/2, a) = 1 - tail
            tail = 1 - 2 * math.exp(log_tf) * _beta_fraction(0.5, a, t * t / (nu + t * t))
            ratio, log_tail = tail * math.exp(-log_tf), math.log(tail)
        step = (log_tail - math.log(tail_p)) * ratio / 2
        t *= math.exp(step)
        if abs(step) < 1e-8:  # convergence is quadratic: what is left is about step^2
            break
    return t


def significance(r_s: float, n: int, alpha: float) -> tuple[float, bool]:
    """Critical value via the t-approximation; significant iff r_s exceeds it.

    Takes alpha in (0, 0.5], unchecked: the CLI's --alpha type makes sure of
    it.  r_s is compared with t / sqrt(n - 2 + t^2) for the t quantile at
    1 - alpha/2.  There is no threshold, and the result is (NaN, False), when
    n < 4, or when alpha is below about 1.1e-16, so that 1 - alpha/2 rounds
    to 1 and t would be infinite.
    """
    if n < 4 or 1 - alpha / 2 == 1:
        return math.nan, False
    t_quantile = _t_ppf(1 - alpha / 2, n - 2)
    # Equal to t / sqrt(n - 2 + t^2); in this form the critical value at n = 5
    # that tests/test_cli_golden.py pins keeps its last digit.
    critical = math.sqrt(t_quantile * t_quantile / (n - 2 + t_quantile * t_quantile))
    return critical, r_s > critical


def spearman(
    pairs: Sequence[tuple[float, float]],
    mode: DifferenceMode = DifferenceMode.RANK,
    alpha: float = 0.05,
) -> ValidationReport:
    """Correlation report for plain (known, computed) tuples.

    The pairs are not checked here: their reader makes every value finite
    (corpus.validation_pairs for the known and computed cells, and the CLI's
    estimate check for a value estimated from a diagram).  A ValidationInputError
    is raised for fewer than 2 pairs (`need at least 2 pairs, got 1`), for a
    constant column in rank mode (`column 'known' is constant: no r_s in rank
    mode`), and in value mode for finite differences too large for r_s, whose
    sum of squares overflows (`differences too large: r_s overflows in value
    mode`).  Where significance() has no threshold, as with fewer than 4 pairs,
    the report carries critical_value = NaN and significant = False.
    """
    n = len(pairs)
    if n < 2:
        raise ValidationInputError(f"need at least 2 pairs, got {n}")
    score = ranks_with_ties if mode is DifferenceMode.RANK else (lambda values: values)
    # Columns by index: zip(*pairs) would hold a tuple iterator per pair, and at
    # 10^4 pairs those set off extra garbage collections.
    known = score([p[0] for p in pairs])
    computed = score([p[1] for p in pairs])
    if mode is DifferenceMode.RANK:  # a constant column has no r_s; the formula would give one
        for name, ranks in (("known", known), ("computed", computed)):
            if ranks[0] == (n + 1) / 2 and ranks.count(ranks[0]) == n:  # all at the mean rank
                raise ValidationInputError(f"column {name!r} is constant: no r_s in rank mode")
    d = tuple(map(sub, known, computed))
    sum_d_squared = sum(map(mul, d, d))
    r_s = 1 - 6 * sum_d_squared / (n * (n * n - 1))
    if not math.isfinite(r_s):  # only value mode's raw differences can be this large
        raise ValidationInputError(f"differences too large: r_s overflows in {mode.value} mode")
    return ValidationReport(n, mode, d, sum_d_squared, r_s, alpha, *significance(r_s, n, alpha))
