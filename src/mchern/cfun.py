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
corrections at named base points.  Which strata exist, their Euler numbers,
contracted points and the fiberwise integral are read in integers over one
common denominator from :class:`~mchern.surface.RelativeArrangement`, and
divided by it once.  The CSM class of ``f`` is ``surface.csm(f, stage)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Optional

from .modsys import strata_from_json, strata_to_json
from .ring import bounded, decimal, json_fields
from .surface import SurfaceModel


class BaseFunction:
    """Generic value plus corrections at named base points."""

    __slots__ = ("generic_value", "corrections")

    def __init__(self, generic_value: Fraction, corrections: Optional[Mapping[str, Fraction]] = None):
        self.generic_value, self.corrections = generic_value, {} if corrections is None else corrections

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
    den, nums = rel.keyed(f)
    f0 = nums.get((), 0)
    corrections = {
        root: Fraction(total - f0, den) for root, total in rel.fiber_totals(nums).items() if total != f0
    }
    return BaseFunction(Fraction(f0, den), corrections)


def weighted_unit(surface: SurfaceModel, stage: int = 0) -> dict[tuple[int, ...], Fraction]:
    """Each stratum weighted by 1 / prod (mu_i + 1) over its curves."""
    den, nums = surface.relative(stage).unit
    return {key: Fraction(n, den) for key, n in nums.items()}


# -- JSON wire format ---------------------------------------------------------


def _weight_from_json(value) -> Fraction:
    text = str(value)
    # a decimal exponent, as Fraction reads one, is bounded before Fraction computes 10**it
    if "e" in text.lower() and (exponent := re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z", text)):
        bounded(int(exponent[1]), "weight exponent")
    try:
        weight = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"weight {value!r} has a zero denominator") from None
    decimal(weight, f"weight {value!r}")  # it is written back in the report
    return weight


def function_from_json(obj: Mapping) -> dict[frozenset, Fraction]:
    """The decoded ``{subset: weight}`` mapping, zero weights included; each distinct weight is parsed once."""
    (entries,) = json_fields(obj, "function object", ("strata",), {})
    parsed: dict[tuple, Fraction] = {}  # keyed by JSON type and value, so 1 and true are read apart

    def weight(value) -> Fraction:
        if isinstance(value, (list, dict)):  # unhashable, and no weight: refused by _weight_from_json
            return _weight_from_json(value)
        if (found := parsed.get(key := (type(value), value))) is None:
            found = parsed[key] = _weight_from_json(value)
        return found

    return strata_from_json(entries, "weight", weight, int)


def function_to_json(f: Mapping) -> dict:
    """The nonzero weights, by stratum depth and then by sorted curves."""
    items = sorted(f.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return {"strata": strata_to_json(((sorted(k), w) for k, w in items if w), "weight", str)}
