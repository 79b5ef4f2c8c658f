"""Linear quality models: application and ordinary-least-squares fitting.

The published understandability model predicts an expert rating from three
diagram metrics::

    understandability = 1.33515 + 0.129*NAssoc + 0.0463*NA + 0.3405*MaxDIT

New models over any subset of the eleven metrics are fitted by ordinary least
squares on the design matrix itself (numpy.linalg.lstsq, an SVD solve), so
the condition number is not squared as it would be by the normal equations.

The records here check nothing: LinearModel.from_json_obj checks a model file,
corpus.load_rating_corpus a fit corpus, and fit only what no reader can know,
that the samples hold its predictors and that its solution is finite.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, NamedTuple, Sequence

from .errors import InsufficientSamples, ModelError, SingularDesign, check
from .metrics import METRIC_NAMES, MetricsVector


def _number(value, path: str) -> float:
    """A model file's number as a float: a finite JSON int or float, not a bool."""
    # The comparison is exact, so NaN, an infinity and an int beyond floats all fail.
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ModelError(f"{path}: expected a finite number, got {value!r:.40}")


class LinearModel(NamedTuple):
    """Intercept plus named metric coefficients, all in rating units; unchecked."""

    intercept: float
    coefficients: tuple[tuple[str, float], ...]

    def predictors(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coefficients)

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


class RatedSample(NamedTuple):
    """Predictor values for one diagram paired with its expert rating, unchecked."""

    predictors: Mapping[str, float]
    rating: float


def estimate(model: LinearModel, metrics: MetricsVector | Mapping[str, float]) -> float:
    """intercept + sum of weight * metric value; no clamping or rounding."""
    return model.intercept + sum(
        weight * float(metrics[name]) for name, weight in model.coefficients
    )


def fit(samples: Sequence[RatedSample], predictors: Sequence[str]) -> LinearModel:
    """Ordinary least squares over the requested predictors plus an intercept.

    Needs at least len(predictors) + 1 samples and a full-rank design;
    otherwise raises InsufficientSamples or SingularDesign.
    """
    predictors = list(predictors)
    needed = len(predictors) + 1
    if len(samples) < needed:
        raise InsufficientSamples(needed, len(samples))
    wanted = set(predictors)
    for sample in samples:
        if not sample.predictors.keys() >= wanted:
            missing = wanted - sample.predictors.keys()
            raise ModelError(f"sample missing predictor(s): {sorted(missing)}")

    # Imported here, not at module level, so that the `metrics` and `estimate`
    # paths do not pay numpy's import time at start-up.
    import numpy as np

    design = np.ones((len(samples), needed))
    design[:, 1:] = [[s.predictors[p] for p in predictors] for s in samples]
    ratings = np.array([s.rating for s in samples])
    solution, _, rank, _ = np.linalg.lstsq(design, ratings, rcond=None)
    if rank < needed:
        raise SingularDesign()
    weights = solution.tolist()  # plain floats
    if not all(map(math.isfinite, weights)):
        raise ModelError("model weights must be finite")
    return LinearModel(intercept=weights[0], coefficients=tuple(zip(predictors, weights[1:])))
