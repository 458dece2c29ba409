"""Iterated point blow-ups of the projective plane, with exact Chow data.

A :class:`SurfaceModel` is built from a sequence of symbolic blow-up
events: a generic point of the surface, a generic point on one named
exceptional curve, or the intersection point of two meeting exceptional
curves.  These three moves generate every normal-crossings configuration
of exceptional curves over the plane without ever needing coordinates,
and they can never create a triple point.

The Chow group of the stage-k surface is free on [Z]; h, e_1, ..., e_k;
[pt], where h pulls back a line and e_i is the total transform of the
i-th exceptional divisor.  Working in total transforms makes push-forward
to an earlier stage literal coordinate deletion.  A model records, per
curve, only the curves its center lay on, and the pairs of curves currently
meeting (one point each, never three through a point).  The rest is read
from those: the proper-transform class of curve j is e_j minus the e's of
the later centers on j, and :meth:`SurfaceModel.relative` alone derives the
discrepancies, via mu_new = 1 + sum of the mu's of curves through the
center (:func:`mchern.strata.discrepancy` at codimension 2), and the
original base point each curve lies over.

Everything downstream is linear in the Chow group: total Chern classes, the
one CSM route :meth:`SurfaceModel.csm` for rational functions on arrangement
strata (the weighted stratum class is that of the weighted unit, and its
push-forwards recover the Chern classes of every intermediate stage), and
the exporter producing the matching :class:`~mchern.modsys.ModificationSystem`.
All of it is exact, over Fractions and integer polynomials.

The facts about one stratum of the arrangement relative to a stage (whether
it exists, its weight 1 / prod (mu_i + 1), its Euler number, the point it
contracts to) and the weighted unit live on :class:`RelativeArrangement`,
and every consumer here and in :mod:`mchern.cfun` reads them from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Optional, Sequence, Union

from .modsys import MarkedLocus, ModificationSystem, json_int, json_object
from .ring import LPolynomial, MotivicClass
from .strata import discrepancy


@dataclass(frozen=True)
class GenericPoint:
    """Blow up a point away from every exceptional curve."""


@dataclass(frozen=True)
class PointOnCurve:
    """Blow up a generic point of one exceptional curve."""

    curve: int


@dataclass(frozen=True)
class IntersectionPoint:
    """Blow up the point where two meeting exceptional curves cross."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("intersection event needs two distinct curves")
        a, b = sorted((self.a, self.b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


Event = Union[GenericPoint, PointOnCurve, IntersectionPoint]


def _references(event: Event) -> tuple[int, ...]:
    """The curves the event's center lies on; TypeError for what is not an event."""
    if isinstance(event, GenericPoint):
        return ()
    if isinstance(event, PointOnCurve):
        return (event.curve,)
    if isinstance(event, IntersectionPoint):
        return (event.a, event.b)
    raise TypeError(f"unknown event {event!r}")


def swap_last_two(program: tuple[Event, ...]) -> Optional[tuple[Event, ...]]:
    """Exchange the final two events when they are independent.

    The last event is independent of the one before it when it does not
    reference the curve that event creates; neither event can reference
    the other's curve, so no index remapping is needed.
    """
    if len(program) < 2:
        return None
    first, second = program[-2], program[-1]
    created = len(program) - 1  # curve index made by the first of the two
    if created in _references(second) or first == second:
        return None
    return program[:-2] + (second, first)


class ChowClass:
    """Graded rational vector over the basis ([Z]; h, e_1..e_k; [pt]).

    Coordinates stay the exact ints or Fractions their producer made (an int
    and the equal Fraction compare, hash and print alike); push-forward slices.
    """

    __slots__ = ("top", "curves", "points")

    def __init__(self, top, curves: Sequence, points):
        self.top = top
        self.curves = tuple(curves)
        self.points = points

    def _check(self, other: "ChowClass"):
        if len(self.curves) != len(other.curves):
            raise ValueError("Chow classes live on different surfaces")

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        return ChowClass(
            self.top + other.top,
            tuple(a + b for a, b in zip(self.curves, other.curves)),
            self.points + other.points,
        )

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        return ChowClass(
            self.top - other.top,
            tuple(a - b for a, b in zip(self.curves, other.curves)),
            self.points - other.points,
        )

    def __rmul__(self, factor) -> "ChowClass":
        f = Fraction(factor)
        return ChowClass(f * self.top, tuple(f * c for c in self.curves), f * self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return (
            self.top == other.top
            and self.curves == other.curves
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return hash((self.top, self.curves, self.points))

    def to_json(self) -> dict:
        return {
            "top": str(self.top),
            "curves": [str(c) for c in self.curves],
            "points": str(self.points),
        }

    def __repr__(self) -> str:
        names = ["h"] + [f"e{i}" for i in range(1, len(self.curves))]
        parts = []
        if self.top:
            parts.append(f"{self.top}*[Z]" if self.top != 1 else "[Z]")
        for name, c in zip(names, self.curves):
            if c:
                parts.append(f"{c}*{name}" if c != 1 else name)
        if self.points:
            parts.append(f"{self.points}*[pt]" if self.points != 1 else "[pt]")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class RelativeArrangement:
    """The exceptional arrangement of the map down to a given stage.

    Curves created after the stage are the arrangement; their
    discrepancies are recomputed with stage-surviving curves weighted 0.
    ``roots`` names, per arrangement curve, the point of the stage
    surface it contracts to.

    A stratum is keyed by the sorted tuple of the curves it lies on: ``()``
    is the open complement, ``(j,)`` the open part of curve j, ``(a, b)``
    the crossing point of a and b.
    """

    stage: int
    curves: tuple[int, ...]
    mus: Mapping[int, int]
    pairs: tuple[tuple[int, int], ...]
    meets: Mapping[int, int]
    roots: Mapping[int, str]
    root_order: tuple[str, ...]

    @property
    def strata(self) -> tuple[tuple[int, ...], ...]:
        """The strata on at least one curve: each curve, then each crossing."""
        return tuple((t,) for t in self.curves) + self.pairs

    def check(self, subset: Iterable[int]) -> tuple[int, ...]:
        """The key of the stratum on exactly these curves; ValueError if there is none."""
        key = tuple(sorted(set(subset)))
        for j in key:
            if j not in self.meets:
                raise ValueError(
                    f"unknown stratum: curve {j} is not in the stage-{self.stage} arrangement"
                )
        if len(key) > 2:
            raise ValueError(f"unknown stratum of depth {len(key)}: no triple points")
        if len(key) == 2 and key not in self._pair_set:
            raise ValueError(f"unknown stratum: curves {key[0]} and {key[1]} do not meet")
        return key

    @cached_property
    def _pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.pairs)

    def weight(self, key: tuple[int, ...]) -> Fraction:
        """Stringy weight 1 / prod (mu_i + 1): the weight 1 / prod [P^mu_i] at L = 1."""
        return Fraction(1, prod(self.mus[j] + 1 for j in key))

    @property
    def weighted_unit(self) -> dict[tuple[int, ...], Fraction]:
        """Every stratum, the open one included, with its stringy weight."""
        return {key: self.weight(key) for key in ((),) + self.strata}

    def euler(self, key: tuple[int, ...]) -> int:
        """Euler number of a curve stratum (2 minus its crossings) or a crossing (1)."""
        return 2 - self.meets[key[0]] if len(key) == 1 else 1

    def root(self, key: tuple[int, ...]) -> str:
        """The point of the stage surface a curve or crossing stratum contracts to."""
        return self.roots[key[0]]

    def keyed(self, f: Mapping) -> dict[tuple[int, ...], Fraction]:
        """A constructible function ``{curve subset: weight}`` with each key :meth:`check`-ed.

        Zero weights stay.  A stratum given twice, say as ``(1, 2)`` and
        ``(2, 1)``, is a ValueError.
        """
        out: dict[tuple[int, ...], Fraction] = {}
        for subset, value in f.items():
            key = self.check(subset)
            if key in out:
                raise ValueError(f"duplicate stratum {list(key)!r}")
            out[key] = value
        return out

    def fiber_integral(self, weights: Mapping[tuple[int, ...], Fraction]) -> dict[str, Fraction]:
        """Per contracted point, the sum of weight times Euler number over its fiber.

        ``weights`` is keyed as :meth:`keyed` returns it; the open stratum lies
        over no contracted point.
        """
        totals = {root: Fraction(0) for root in self.root_order}
        for key, value in weights.items():
            if key:
                totals[self.root(key)] += value * self.euler(key)
        return totals


class SurfaceModel:
    """The surface obtained from the plane by a sequence of point blow-ups."""

    __slots__ = ("events", "_through", "_pairs", "_last_relative")

    def __init__(self, events: Iterable[Event] = ()):
        self.events: tuple[Event, ...] = tuple(events)
        through: list[tuple[int, ...]] = []  # per curve, the curves its center lay on
        pairs: set[tuple[int, int]] = set()
        for k, center in enumerate(map(_references, self.events)):
            if center and not 1 <= min(center) <= max(center) <= k:
                raise ValueError(
                    f"invalid curve index {center[0]}" if len(center) == 1
                    else f"invalid curve pair ({center[0]}, {center[1]})"
                )
            if len(center) == 2 and center not in pairs:
                raise ValueError(f"curves {center[0]} and {center[1]} do not meet")
            pairs.discard(center)  # the crossing blown up is gone; pairs holds no shorter tuple
            pairs.update((j, k + 1) for j in center)
            through.append(center)
        self._through: tuple[tuple[int, ...], ...] = tuple(through)
        self._pairs: frozenset[tuple[int, int]] = frozenset(pairs)
        self._last_relative: Optional[RelativeArrangement] = None

    @property
    def k(self) -> int:
        return len(self.events)

    @property
    def discrepancies(self) -> tuple[int, ...]:
        return tuple(self.relative(0).mus.values())

    def meeting_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._pairs))

    # -- construction -----------------------------------------------------------

    def apply_event(self, event: Event) -> "SurfaceModel":
        return SurfaceModel(self.events + (event,))

    def stage_model(self, m: int) -> "SurfaceModel":
        if not 0 <= m <= self.k:
            raise ValueError(f"stage {m} out of range 0..{self.k}")
        return SurfaceModel(self.events[:m])

    # -- Chow classes -------------------------------------------------------------

    def chern_class(self) -> ChowClass:
        """[Z] + c_1 + c_2 with c_1 = 3h - sum e_i and c_2 = (3 + k)[pt]."""
        return ChowClass(1, (3,) + (-1,) * self.k, 3 + self.k)

    def relative(self, stage: int) -> RelativeArrangement:
        """The arrangement down to ``stage``; the last one is kept and shared, so never mutate it."""
        if (last := self._last_relative) is not None and last.stage == stage:
            return last
        if not 0 <= stage <= self.k:
            raise ValueError(f"stage {stage} out of range 0..{self.k}")
        curves = tuple(range(stage + 1, self.k + 1))
        mus: dict[int, int] = {}
        roots: dict[int, str] = {}
        # the n-th generic point of the whole program is the base point p<n>
        generics = sum(not center for center in self._through[:stage])
        for t in curves:
            over = [c for c in self._through[t - 1] if c > stage]
            mus[t] = discrepancy((mus[c] for c in over), 2)
            if over:
                root = roots[over[0]]
            elif not self._through[t - 1]:  # a generic point
                generics += 1
                root = f"p{generics}"
            else:
                root = f"q{t}"
            roots[t] = root
        pairs = tuple(p for p in self.meeting_pairs() if p[0] > stage)
        meets = {t: 0 for t in curves}
        for a, b in pairs:
            meets[a] += 1
            meets[b] += 1
        root_order = tuple(dict.fromkeys(roots.values()))
        rel = RelativeArrangement(stage, curves, mus, pairs, meets, roots, root_order)
        self._last_relative = rel  # read once per call: a racing store cannot swap stages
        return rel

    def csm(self, weights: Mapping, stage: int = 0) -> ChowClass:
        """CSM class of the function sum weights[S] * 1_S on the stage's strata.

        ``weights`` maps curve subsets to ints or Fractions and is read through
        :meth:`RelativeArrangement.keyed`.  With f0 the open stratum's value
        this is f0 c(S) + sum (f_S - f0) csm(S), where csm is [pt] for a
        crossing and, for a curve stratum (t,), its proper transform (e_t minus
        the e of each later center on t) plus its Euler number times [pt].
        Integer arithmetic over one common denominator.
        """
        rel = self.relative(stage)
        weights = rel.keyed(weights)
        den = lcm(*(w.denominator for w in weights.values()))
        num = {key: w.numerator * (den // w.denominator) for key, w in weights.items()}
        f0 = num.pop((), 0)
        excess = {key: num.get(key, 0) - f0 for key in rel.strata}
        chern = self.chern_class()  # integral
        top = f0 * chern.top
        curves = [f0 * c for c in chern.curves]
        for s, through in enumerate(self._through, start=1):
            curves[s] += excess.get((s,), 0) - sum(excess[(t,)] for t in through if t > stage)
        pt = f0 * chern.points + sum(w * rel.euler(key) for key, w in excess.items())
        return ChowClass(Fraction(top, den), [Fraction(c, den) for c in curves], Fraction(pt, den))

    def csm_stratum(self, subset: Iterable[int], relative_to: int = 0) -> ChowClass:
        """CSM class of the locus on exactly the given arrangement curves."""
        return self.csm({tuple(subset): 1}, relative_to)

    def stringy_class(self, relative_to: int = 0) -> ChowClass:
        """CSM class of the weighted unit: each stratum weighted by 1 / prod (mu_i + 1)."""
        return self.csm(self.relative(relative_to).weighted_unit, relative_to)

    def pushforward(self, cls: ChowClass, to_stage: int) -> ChowClass:
        """Down to the stage surface: e_i with i > stage die, all else persists."""
        if not 0 <= to_stage <= self.k:
            raise ValueError(f"stage {to_stage} out of range 0..{self.k}")
        if len(cls.curves) != self.k + 1:
            raise ValueError("class does not live on this surface")
        return ChowClass(cls.top, cls.curves[: to_stage + 1], cls.points)

    # -- Euler-level fiber data ------------------------------------------------------

    def fiber_euler_profile(self, base_point: str) -> Fraction:
        """Weighted Euler sum over the fiber strata above one base point."""
        if base_point == "generic":
            return Fraction(1)
        rel = self.relative(0)
        if base_point not in rel.root_order:
            raise ValueError(f"unknown anchor {base_point!r}")
        return rel.fiber_integral(rel.weighted_unit)[base_point]

    # -- export to the abstract side ---------------------------------------------------

    def class_of_stage(self, m: int) -> MotivicClass:
        """Grothendieck-ring class of the stage-m surface: L^2 + (m+1)L + 1."""
        if not 0 <= m <= self.k:
            raise ValueError(f"stage {m} out of range 0..{self.k}")
        return MotivicClass(LPolynomial((1, m + 1, 1)))

    def export_modification_system(
        self, relative_to: int = 0
    ) -> tuple[ModificationSystem, dict[str, MarkedLocus]]:
        """The abstract system of the map down to the given stage.

        Returns the system together with its canonical marked loci: the
        full surface, plus one fiber locus per contracted base point.
        """
        rel = self.relative(relative_to)
        divisors = [(f"e{t}", rel.mus[t]) for t in rel.curves]
        bit = {t: 1 << i for i, t in enumerate(rel.curves)}
        mask = {key: sum(bit[t] for t in key) for key in rel.strata}
        # an open curve stratum is P^1 minus its crossings; a crossing is a point
        classes = {
            key: MotivicClass(LPolynomial((rel.euler(key) - 1, 1)))
            if len(key) == 1
            else MotivicClass.one()
            for key in rel.strata
        }
        ambient = self.class_of_stage(self.k)
        strata = {0: ambient - MotivicClass.sum(classes.values())}
        strata.update((mask[key], cls) for key, cls in classes.items())

        system = ModificationSystem(
            2,
            divisors,
            strata,
            ambient_class=ambient,
            label=f"plane blow-ups k={self.k}, stage {relative_to}",
        )

        loci = {"full": system.full_locus("full")}
        for root in rel.root_order:
            loci[root] = MarkedLocus(
                root,
                {mask[key]: cls for key, cls in classes.items() if rel.root(key) == root},
            )
        return system, loci

    def __repr__(self) -> str:
        return f"SurfaceModel(k={self.k}, anchors={len(self.relative(0).root_order)})"


# -- JSON wire format ------------------------------------------------------------------


def events_from_json(obj: Mapping) -> tuple[Event, ...]:
    events: list[Event] = []
    try:
        entries = obj["events"]
        if not isinstance(entries, list):
            raise ValueError(f"events must be a list, got {type(entries).__name__}")
        for entry in entries:
            entry = json_object(entry, "event")
            kind = entry["type"]
            if kind == "generic":
                events.append(GenericPoint())
            elif kind == "on_curve":
                events.append(PointOnCurve(json_int(entry["curve"], "curve")))
            elif kind == "intersection":
                pair = entry["pair"]
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"pair must be a list of two curve indices, got {pair!r}")
                a, b = pair
                events.append(IntersectionPoint(json_int(a, "pair"), json_int(b, "pair")))
            else:
                raise ValueError(f"unknown event type {kind!r}")
    except KeyError as exc:
        raise ValueError(f"malformed surface program: {exc}") from exc
    return tuple(events)


def events_to_json(events: Iterable[Event]) -> dict:
    out = []
    for curves in map(_references, events):
        if not curves:
            out.append({"type": "generic"})
        elif len(curves) == 1:
            out.append({"type": "on_curve", "curve": curves[0]})
        else:
            out.append({"type": "intersection", "pair": list(curves)})
    return {"events": out}
