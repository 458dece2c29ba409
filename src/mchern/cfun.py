"""Constructible functions on a surface arrangement and their push-forward.

Functions are finite rational combinations of indicator functions of
arrangement strata (the open curve strata, the crossing points, and the
complement of all curves).  Push-forward to a stage surface integrates
fiberwise Euler characteristics: the fiber over a contracted base point
is a union of whole curves, so a curve stratum contributes 2 minus its
number of crossings and a crossing point contributes 1, while a generic
point downstairs only ever sees the open stratum.

The result is a :class:`BaseFunction`: a generic value plus finitely many
corrections at named base points.  Which strata exist, their weights, Euler
numbers and contracted points, the weighted unit and the fiberwise integral
are read from :class:`~mchern.surface.RelativeArrangement`.  The CSM class
of ``f`` is ``surface.csm(f.weights, stage)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .modsys import strata_from_json
from .surface import SurfaceModel


class ConstructibleFunction:
    """Rational weights on strata, keyed by frozensets of curve indices."""

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[frozenset[int], Fraction | int] = ()):
        items = weights.items() if isinstance(weights, Mapping) else weights
        self.weights: dict[frozenset[int], Fraction] = {}
        for key, value in items:
            value = Fraction(value)
            if value:
                self.weights[frozenset(key)] = value

    @classmethod
    def indicator(cls, subset: Iterable[int]) -> "ConstructibleFunction":
        return cls({frozenset(subset): Fraction(1)})

    @classmethod
    def indicator_closed_curve(cls, surface: SurfaceModel, j: int) -> "ConstructibleFunction":
        """Indicator of the whole curve: its open stratum plus its crossings."""
        weights = {frozenset((j,)): Fraction(1)}
        for a, b in surface.meeting_pairs():
            if j in (a, b):
                weights[frozenset((a, b))] = Fraction(1)
        return cls(weights)

    def __add__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        out = dict(self.weights)
        for key, value in other.weights.items():
            out[key] = out.get(key, Fraction(0)) + value
        return ConstructibleFunction(out)

    def __sub__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        return self + (-1) * other

    def __rmul__(self, factor) -> "ConstructibleFunction":
        f = Fraction(factor)
        return ConstructibleFunction({k: f * v for k, v in self.weights.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstructibleFunction):
            return NotImplemented
        return self.weights == other.weights

    def __repr__(self) -> str:
        return f"ConstructibleFunction({len(self.weights)} strata)"


@dataclass(frozen=True)
class BaseFunction:
    """Generic value plus corrections at named base points."""

    generic_value: Fraction
    corrections: Mapping[str, Fraction] = field(default_factory=dict)

    def value_at(self, point: str) -> Fraction:
        return self.generic_value + self.corrections.get(point, Fraction(0))

    def is_constant(self, value) -> bool:
        return self.generic_value == Fraction(value) and not any(
            self.corrections.values()
        )

    def to_json(self) -> dict:
        return {
            "generic": str(self.generic_value),
            "corrections": {
                name: str(value)
                for name, value in sorted(self.corrections.items())
                if value
            },
        }


def pushforward(
    surface: SurfaceModel, f: ConstructibleFunction, to_stage: int = 0
) -> BaseFunction:
    """Integrate fiberwise Euler characteristics down to the stage surface."""
    values = surface.relative(to_stage).fiber_integral(f.weights)
    generic = f.weights.get(frozenset(), Fraction(0))
    corrections = {
        root: value - generic for root, value in values.items() if value != generic
    }
    return BaseFunction(generic, corrections)


def weighted_unit(surface: SurfaceModel, stage: int = 0) -> ConstructibleFunction:
    """Each stratum weighted by 1 / prod (mu_i + 1) over its curves."""
    return ConstructibleFunction(surface.relative(stage).weighted_unit)


def verify_unit_pushforward(surface: SurfaceModel, stage: int = 0) -> bool:
    """The weighted unit pushes forward to the constant function 1."""
    return pushforward(surface, weighted_unit(surface, stage), stage).is_constant(1)


# -- JSON wire format ---------------------------------------------------------


def _weight_from_json(value) -> Fraction:
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError(f"weight {value!r} has a zero denominator") from None


def function_from_json(obj: Mapping) -> ConstructibleFunction:
    try:
        return ConstructibleFunction(
            strata_from_json(obj["strata"], "weight", _weight_from_json, int)
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed function object: {exc}") from exc


def function_to_json(f: ConstructibleFunction) -> dict:
    return {
        "strata": [
            {"subset": sorted(key), "weight": str(weight)}
            for key, weight in sorted(
                f.weights.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
            )
        ]
    }
