"""Linear quality models: application and ordinary-least-squares fitting.

The published understandability model predicts an expert rating from three
diagram metrics::

    understandability = 1.33515 + 0.129*NAssoc + 0.0463*NA + 0.3405*MaxDIT

New models over any subset of the eleven metrics are fitted by ordinary least
squares on the design matrix itself (numpy.linalg.lstsq, an SVD solve), so
the condition number is not squared as it would be by the normal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import InsufficientSamples, ModelError, SingularDesign
from .metrics import METRIC_NAMES, MetricsVector

_METRIC_SET = frozenset(METRIC_NAMES)


@dataclass(frozen=True)
class LinearModel:
    """Intercept plus named metric coefficients, all in rating units."""

    intercept: float
    coefficients: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(
            (name, float(weight)) for name, weight in self.coefficients
        ))
        object.__setattr__(self, "intercept", float(self.intercept))
        names = [name for name, _ in self.coefficients]
        if len(set(names)) != len(names):
            raise ModelError("duplicate metric name in coefficients")
        unknown = set(names) - _METRIC_SET
        if unknown:
            raise ModelError(f"unknown metric name(s): {sorted(unknown)}")
        for value in (self.intercept, *(w for _, w in self.coefficients)):
            if not math.isfinite(value):
                raise ModelError("model weights must be finite")

    def predictors(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coefficients)

    def to_json_obj(self) -> dict:
        return {
            "intercept": self.intercept,
            "coefficients": {name: weight for name, weight in self.coefficients},
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "LinearModel":
        try:
            intercept = float(obj["intercept"])
            coefficients = tuple(
                (str(name), float(weight))
                for name, weight in obj["coefficients"].items()
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ModelError(f"malformed model object: {exc}") from exc
        return cls(intercept, coefficients)


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
    return LinearModel(
        intercept=solution[0],
        coefficients=tuple(zip(predictors, solution[1:])),
    )
