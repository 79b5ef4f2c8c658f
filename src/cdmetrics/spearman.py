"""Spearman rank-correlation validation of model estimates against ratings.

r_s = 1 - 6*sum(d^2) / (n*(n^2 - 1)), with d taken per pair.  In the default
rank mode d is the difference of fractional ranks; value mode uses the raw
difference computed - known instead (both modes use the same formula).

The significance threshold takes the two-sided Student-t quantile at n - 2
degrees of freedom from the standard library alone: the regularised
incomplete beta function by its continued fraction (Numerical Recipes,
section 6.4) for the tail, inverted by Newton steps from a Cornish-Fisher
start.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import EmptyInput, InvalidAlpha, TooFewPairs, ValidationInputError


class DifferenceMode(Enum):
    RANK = "rank"
    VALUE = "value"


class RatedPair(NamedTuple):
    """A known rating and the computed value to rank it against, unchecked."""

    known: float
    computed: float


class ValidationReport(NamedTuple):
    n: int
    mode: DifferenceMode
    d: tuple[float, ...]
    sum_d_squared: float
    r_s: float
    alpha: float
    critical_value: float  # NaN when n < 4
    significant: bool


def ranks_with_ties(values: Sequence[float]) -> list[float]:
    """Fractional ranks: 1 for the smallest, ties averaged; sums to n(n+1)/2."""
    if not values:
        raise EmptyInput()
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


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
    """The p-quantile of Student's t with nu degrees of freedom, p in [0.75, 1].

    The two-sided tail 2(1 - p) is I_x(nu/2, 1/2) at x = nu / (nu + t^2);
    written as t f(t), f the t density, times a continued fraction, it is
    close to a power of t.  So Newton's method runs on log tail against
    log t, whose slope is -2 t f(t) / tail, and takes at most four steps from
    the Cornish-Fisher start.  Agrees with scipy's t.ppf to 1e-10 relative
    for nu up to 10^6.
    """
    if p == 1:
        return math.inf
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

    r_s is compared with t / sqrt(n - 2 + t^2) for the t quantile at
    1 - alpha/2.  Below alpha of about 1.1e-16, 1 - alpha/2 rounds to 1, t
    is infinite and the critical value NaN, so nothing is significant.
    """
    if not (0 < alpha <= 0.5):
        raise InvalidAlpha(alpha)
    if n < 4:
        raise TooFewPairs(n, minimum=4)
    t_quantile = _t_ppf(1 - alpha / 2, n - 2)
    # Equal to t / sqrt(n - 2 + t^2); in this form the critical value at n = 5
    # that tests/test_cli_golden.py pins keeps its last digit.
    critical = math.sqrt(t_quantile * t_quantile / (n - 2 + t_quantile * t_quantile))
    return critical, r_s > critical


def spearman(
    pairs: Sequence[RatedPair],
    mode: DifferenceMode = DifferenceMode.RANK,
    alpha: float = 0.05,
) -> ValidationReport:
    """Correlation report for known-vs-computed pairs.

    The pairs are not checked here: their reader makes every value finite
    (corpus.validation_pairs for the known and computed cells, and the CLI's
    estimate check for a value estimated from a diagram).  In value mode,
    finite differences can still be too large for r_s, whose sum of squares
    overflows; that raises ValidationInputError.  With fewer than
    4 pairs the significance threshold is undefined; the report then carries
    critical_value = NaN and significant = False.
    """
    n = len(pairs)
    if n < 2:
        raise TooFewPairs(n)
    if mode is DifferenceMode.RANK:
        known_ranks = ranks_with_ties([p.known for p in pairs])
        computed_ranks = ranks_with_ties([p.computed for p in pairs])
        d = [k - c for k, c in zip(known_ranks, computed_ranks)]
    else:
        d = [p.computed - p.known for p in pairs]
    sum_d_squared = sum(x * x for x in d)
    r_s = 1 - 6 * sum_d_squared / (n * (n * n - 1))
    if not math.isfinite(r_s):  # only value mode's raw differences can be this large
        raise ValidationInputError(f"differences too large: r_s overflows in {mode.value} mode")
    if n >= 4:
        critical, signif = significance(r_s, n, alpha)
    else:
        critical, signif = math.nan, False
    return ValidationReport(
        n=n,
        mode=mode,
        d=tuple(d),
        sum_d_squared=sum_d_squared,
        r_s=r_s,
        alpha=alpha,
        critical_value=critical,
        significant=signif,
    )
