"""Spearman rank-correlation validation of model estimates against ratings.

r_s = 1 - 6*sum(d^2) / (n*(n^2 - 1)), with d taken per pair.  In the default
rank mode d is the difference of fractional ranks; value mode uses the raw
difference computed - known instead (both modes use the same formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from scipy.stats import t as student_t

from .errors import EmptyInput, InvalidAlpha, TooFewPairs, ValidationInputError


class DifferenceMode(Enum):
    RANK = "rank"
    VALUE = "value"


@dataclass(frozen=True)
class RatedPair:
    known: float
    computed: float

    def __post_init__(self):
        if not (math.isfinite(self.known) and math.isfinite(self.computed)):
            raise ValidationInputError("pair values must be finite")


@dataclass(frozen=True)
class ValidationReport:
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
    order = sorted(range(len(values)), key=lambda i: values[i])
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


def significance(r_s: float, n: int, alpha: float) -> tuple[float, bool]:
    """Critical value via the t-approximation; significant iff r_s exceeds it."""
    if not (0 < alpha <= 0.5):
        raise InvalidAlpha(alpha)
    if n < 4:
        raise TooFewPairs(n, minimum=4)
    t_quantile = float(student_t.ppf(1 - alpha / 2, n - 2))
    critical = t_quantile / math.sqrt(n - 2 + t_quantile * t_quantile)
    return critical, r_s > critical


def spearman(
    pairs: Sequence[RatedPair],
    mode: DifferenceMode = DifferenceMode.RANK,
    alpha: float = 0.05,
) -> ValidationReport:
    """Correlation report for known-vs-computed pairs.

    With fewer than 4 pairs the significance threshold is undefined; the
    report then carries critical_value = NaN and significant = False.
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
