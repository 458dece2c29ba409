"""Constructible functions on a surface arrangement and their push-forward.

A function is a plain mapping from curve subsets to rational weights, the
combination of the indicator functions of those arrangement strata (the open
curve strata, the crossing points, and the complement ``()`` of all curves);
:meth:`~mchern.surface.RelativeArrangement.keyed` checks its keys.
Push-forward to a stage surface integrates fiberwise Euler characteristics:
the fiber over a contracted base point is a union of whole curves, so a
curve stratum contributes 2 minus its number of crossings and a crossing
point contributes 1, while a generic point downstairs only ever sees the
open stratum.

The result is a :class:`BaseFunction`: a generic value plus finitely many
corrections at named base points.  Which strata exist, their weights, Euler
numbers and contracted points, the weighted unit and the fiberwise integral
are read from :class:`~mchern.surface.RelativeArrangement`.  The CSM class
of ``f`` is ``surface.csm(f, stage)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .modsys import strata_from_json, strata_to_json
from .ring import bounded
from .surface import SurfaceModel


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


def pushforward(surface: SurfaceModel, f: Mapping, to_stage: int = 0) -> BaseFunction:
    """Integrate fiberwise Euler characteristics down to the stage surface."""
    rel = surface.relative(to_stage)
    weights = rel.keyed(f)
    generic = Fraction(weights.get((), 0))
    corrections = {
        root: value - generic
        for root, value in rel.fiber_integral(weights).items()
        if value != generic
    }
    return BaseFunction(generic, corrections)


def weighted_unit(surface: SurfaceModel, stage: int = 0) -> dict[tuple[int, ...], Fraction]:
    """Each stratum weighted by 1 / prod (mu_i + 1) over its curves."""
    return surface.relative(stage).weighted_unit


# -- JSON wire format ---------------------------------------------------------


def _weight_from_json(value) -> Fraction:
    text = str(value)
    # a decimal exponent, as Fraction reads one, is bounded before Fraction computes 10**it
    if "e" in text.lower() and (exponent := re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z", text)):
        bounded(int(exponent[1]), "weight exponent")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"weight {value!r} has a zero denominator") from None


def function_from_json(obj: Mapping) -> dict[frozenset, Fraction]:
    """The decoded ``{subset: weight}`` mapping, zero weights included."""
    try:
        return strata_from_json(obj["strata"], "weight", _weight_from_json, int)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed function object: {exc}") from exc


def function_to_json(f: Mapping) -> dict:
    """The nonzero weights, by stratum depth and then by sorted curves."""
    items = sorted(f.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return {"strata": strata_to_json(((sorted(k), w) for k, w in items if w), "weight", str)}
