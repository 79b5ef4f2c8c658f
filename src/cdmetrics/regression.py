"""Linear quality models: application and ordinary-least-squares fitting.

The published understandability model predicts an expert rating from three
diagram metrics::

    understandability = 1.33515 + 0.129*NAssoc + 0.0463*NA + 0.3405*MaxDIT

New models over any subset of the eleven metrics are fitted by ordinary least
squares on the design matrix itself (numpy.linalg.lstsq, an SVD solve), so
the condition number is not squared as it would be by the normal equations.

The records here check nothing: LinearModel.from_json_obj checks a model file,
corpus.load_rating_corpus a fit corpus, which it reads by column into floats,
and fit only that the corpus holds its predictors and its solution is finite.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .errors import InsufficientSamples, ModelError, SingularDesign, check
from .metrics import METRIC_NAMES, MetricsVector


def _number(value, path: str) -> float:
    """A model file's number as a float: a finite JSON int or float, not a bool."""
    # The comparison is exact, so NaN, an infinity and an int beyond floats all fail.
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ModelError(f"{path}: expected a finite number, got {value!r:.40}")


class LinearModel(namedtuple("LinearModel", "intercept coefficients")):
    """Intercept plus named metric coefficients, all in rating units; unchecked.
    `coefficients` is a tuple of (metric name, weight) pairs."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "intercept": self.intercept,
            "coefficients": {name: weight for name, weight in self.coefficients},
        }

    @classmethod
    def from_json_obj(cls, obj) -> "LinearModel":
        """The model of a model file's JSON object.  `intercept` and each weight
        of the `coefficients` object must be finite JSON numbers and each name a
        metric; other keys are ignored.  A fault is a ModelError naming the
        field, such as ``coefficients.NA``."""
        intercept = _number(check(obj, dict, ModelError, "model").get("intercept"), "intercept")
        weights = check(obj.get("coefficients"), dict, ModelError, "coefficients")
        coefficients = []
        for name, weight in weights.items():
            if name not in METRIC_NAMES:
                raise ModelError(f"coefficients: unknown metric name {name!r:.40}")
            coefficients.append((name, _number(weight, f"coefficients.{name}")))
        return cls(intercept, tuple(coefficients))


PUBLISHED_UNDERSTANDABILITY_MODEL = LinearModel(
    intercept=1.33515,
    coefficients=(("NAssoc", 0.129), ("NA", 0.0463), ("MaxDIT", 0.3405)),
)


class RatingCorpus(namedtuple("RatingCorpus", "predictors values ratings")):
    """Rated diagrams by column, unchecked: a tuple of predictor names, and numpy
    arrays of n x p values and n ratings."""

    __slots__ = ()


def estimate(model: LinearModel, metrics: MetricsVector) -> float:
    """intercept + sum of weight * getattr(metrics, name); no clamping or rounding."""
    return model.intercept + sum(
        weight * getattr(metrics, name) for name, weight in model.coefficients
    )


def fit(corpus: RatingCorpus, predictors: Sequence[str]) -> LinearModel:
    """Ordinary least squares over the requested corpus columns plus an intercept.

    Needs at least len(predictors) + 1 rows, the predictors among the corpus's
    columns and a full-rank design; otherwise raises InsufficientSamples,
    ModelError or SingularDesign.
    """
    needed = len(predictors) + 1
    rows = len(corpus.ratings)
    if rows < needed:
        raise InsufficientSamples(needed, rows)
    if missing := set(predictors).difference(corpus.predictors):
        raise ModelError(f"sample missing predictor(s): {sorted(missing)}")

    # Imported here, not at module level, so that the `metrics` and `estimate`
    # paths do not pay numpy's import time at start-up.
    import numpy as np

    design = np.ones((rows, needed))
    design[:, 1:] = corpus.values[:, [corpus.predictors.index(p) for p in predictors]]
    solution, _, rank, _ = np.linalg.lstsq(design, corpus.ratings, rcond=None)
    if rank < needed:
        raise SingularDesign()
    weights = solution.tolist()  # plain floats
    if not all(map(math.isfinite, weights)):
        raise ModelError("model weights must be finite")
    return LinearModel(intercept=weights[0], coefficients=tuple(zip(predictors, weights[1:])))
