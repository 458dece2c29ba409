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
to an earlier stage literal coordinate deletion.  Tracked per curve:

* its proper-transform class (e_j minus the e's of later centers on it),
* its discrepancy, via mu_new = 1 + sum of the mu's of curves through
  the center (the codimension-2 case of the general multiplicity rule),
* which original base point it lies over,
* the pairs of curves currently meeting (one point each, never three
  through a point).

Everything downstream is linear in the Chow group: total Chern classes,
CSM classes of arrangement strata, the weighted stratum sum whose
push-forwards recover the Chern classes of every intermediate stage, and
the exporter producing the matching :class:`~mchern.modsys.ModificationSystem`.
All of it is exact, over Fractions and integer polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .modsys import MarkedLocus, ModificationSystem
from .ring import LPolynomial, MotivicClass


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
        if self.a > self.b:
            object.__setattr__(self, "a", self.b)
            object.__setattr__(self, "b", self.a)


Event = Union[GenericPoint, PointOnCurve, IntersectionPoint]


class ChowClass:
    """Graded rational vector over the basis ([Z]; h, e_1..e_k; [pt])."""

    __slots__ = ("top", "curves", "points")

    def __init__(self, top, curves: Sequence, points):
        self.top = Fraction(top)
        self.curves = tuple(Fraction(c) for c in curves)
        self.points = Fraction(points)

    @property
    def basis_size(self) -> int:
        return len(self.curves)

    @classmethod
    def zero(cls, k: int) -> "ChowClass":
        return cls(0, (0,) * (k + 1), 0)

    @classmethod
    def point(cls, k: int) -> "ChowClass":
        return cls(0, (0,) * (k + 1), 1)

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
    """

    stage: int
    curves: tuple[int, ...]
    mus: Mapping[int, int]
    pairs: tuple[tuple[int, int], ...]
    meets: Mapping[int, int]
    roots: Mapping[int, str]
    root_order: tuple[str, ...]


class SurfaceModel:
    """The surface obtained from the plane by a sequence of point blow-ups."""

    __slots__ = ("events", "_proper", "_mu", "_anchor", "_center_curves", "_pairs")

    def __init__(self, events: Iterable[Event] = ()):
        self.events: tuple[Event, ...] = ()
        self._proper: tuple[tuple[int, ...], ...] = ()  # e-coefficients per curve
        self._mu: tuple[int, ...] = ()
        self._anchor: tuple[str, ...] = ()
        self._center_curves: tuple[tuple[int, ...], ...] = ()
        self._pairs: frozenset[frozenset[int]] = frozenset()
        model = self
        for event in events:
            model = model.apply_event(event)
        if model is not self:
            for slot in self.__slots__:
                setattr(self, slot, getattr(model, slot))

    @classmethod
    def plane(cls) -> "SurfaceModel":
        return cls()

    @property
    def k(self) -> int:
        return len(self._mu)

    @property
    def discrepancies(self) -> tuple[int, ...]:
        return self._mu

    @property
    def anchors(self) -> tuple[str, ...]:
        seen: list[str] = []
        for label in self._anchor:
            if label not in seen:
                seen.append(label)
        return tuple(seen)

    def anchor_of(self, curve: int) -> str:
        return self._anchor[curve - 1]

    def meeting_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(tuple(sorted(p)) for p in self._pairs))

    def pair_meets(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._pairs

    # -- construction -----------------------------------------------------------

    def apply_event(self, event: Event) -> "SurfaceModel":
        k = self.k
        new = SurfaceModel.__new__(SurfaceModel)
        if isinstance(event, GenericPoint):
            through: tuple[int, ...] = ()
            generics = sum(1 for e in self.events if isinstance(e, GenericPoint))
            anchor = f"p{generics + 1}"
        elif isinstance(event, PointOnCurve):
            if not 1 <= event.curve <= k:
                raise ValueError(f"invalid curve index {event.curve}")
            through = (event.curve,)
            anchor = self._anchor[event.curve - 1]
        elif isinstance(event, IntersectionPoint):
            if not (1 <= event.a <= k and 1 <= event.b <= k):
                raise ValueError(f"invalid curve pair ({event.a}, {event.b})")
            if not self.pair_meets(event.a, event.b):
                raise ValueError(f"curves {event.a} and {event.b} do not meet")
            through = (event.a, event.b)
            anchor = self._anchor[event.a - 1]
        else:
            raise TypeError(f"unknown event {event!r}")

        new_index = k + 1
        proper = []
        for j, vec in enumerate(self._proper, start=1):
            extended = vec + ((-1,) if j in through else (0,))
            proper.append(extended)
        proper.append((0,) * k + (1,))

        pairs = set(self._pairs)
        if len(through) == 2:
            pairs.discard(frozenset(through))
        for j in through:
            pairs.add(frozenset((j, new_index)))

        new.events = self.events + (event,)
        new._proper = tuple(proper)
        new._mu = self._mu + (1 + sum(self._mu[j - 1] for j in through),)
        new._anchor = self._anchor + (anchor,)
        new._center_curves = self._center_curves + (through,)
        new._pairs = frozenset(pairs)
        return new

    def stage_model(self, m: int) -> "SurfaceModel":
        if not 0 <= m <= self.k:
            raise ValueError(f"stage {m} out of range 0..{self.k}")
        return SurfaceModel(self.events[:m])

    # -- Chow classes -------------------------------------------------------------

    def chern_class(self) -> ChowClass:
        """[Z] + c_1 + c_2 with c_1 = 3h - sum e_i and c_2 = (3 + k)[pt]."""
        return ChowClass(1, (3,) + (-1,) * self.k, 3 + self.k)

    def curve_class(self, j: int) -> ChowClass:
        """Proper-transform class of the j-th exceptional curve."""
        if not 1 <= j <= self.k:
            raise ValueError(f"invalid curve index {j}")
        return ChowClass(0, (0,) + self._proper[j - 1], 0)

    def relative(self, stage: int) -> RelativeArrangement:
        if not 0 <= stage <= self.k:
            raise ValueError(f"stage {stage} out of range 0..{self.k}")
        curves = tuple(range(stage + 1, self.k + 1))
        mus: dict[int, int] = {}
        roots: dict[int, str] = {}
        root_order: list[str] = []
        for t in curves:
            through = self._center_curves[t - 1]
            over = [c for c in through if c > stage]
            mus[t] = 1 + sum(mus[c] for c in over)
            if over:
                root = roots[over[0]]
                if len(over) == 2 and roots[over[1]] != root:
                    raise AssertionError("meeting curves must contract to one point")
            else:
                event = self.events[t - 1]
                root = self._anchor[t - 1] if isinstance(event, GenericPoint) else f"q{t}"
            roots[t] = root
            if root not in root_order:
                root_order.append(root)
        pairs = tuple(
            p for p in self.meeting_pairs() if p[0] > stage and p[1] > stage
        )
        meets = {t: 0 for t in curves}
        for a, b in pairs:
            meets[a] += 1
            meets[b] += 1
        return RelativeArrangement(stage, curves, mus, pairs, meets, roots, tuple(root_order))

    def csm_stratum(self, subset: Iterable[int], relative_to: int = 0) -> ChowClass:
        """CSM class of the locus on exactly the given arrangement curves.

        The closure of a curve stratum is a rational curve, so its CSM
        class is its Chow class plus 2[pt]; removing the stratum's
        boundary points subtracts [pt] each.  The empty subset is computed
        by inclusion-exclusion against the whole surface.
        """
        rel = self.relative(relative_to)
        I = tuple(sorted(set(subset)))
        for j in I:
            if j not in rel.meets:
                raise ValueError(f"curve {j} is not in the stage-{relative_to} arrangement")
        pt = ChowClass.point(self.k)
        if len(I) == 2:
            if I not in rel.pairs:
                raise ValueError(f"curves {I[0]} and {I[1]} do not meet")
            return pt
        if len(I) == 1:
            j = I[0]
            return self.curve_class(j) + (2 - rel.meets[j]) * pt
        if len(I) > 2:
            raise ValueError("no triple points: strata have depth at most 2")
        total = self.chern_class()
        for j in rel.curves:
            total = total - (self.curve_class(j) + 2 * pt)
        return total + len(rel.pairs) * pt

    def stringy_class(self, relative_to: int = 0) -> ChowClass:
        """Weighted CSM sum over the strata of the relative arrangement."""
        rel = self.relative(relative_to)
        total = self.csm_stratum((), relative_to)
        for j in rel.curves:
            total = total + Fraction(1, rel.mus[j] + 1) * self.csm_stratum((j,), relative_to)
        for a, b in rel.pairs:
            weight = Fraction(1, (rel.mus[a] + 1) * (rel.mus[b] + 1))
            total = total + weight * ChowClass.point(self.k)
        return total

    def pushforward(self, cls: ChowClass, to_stage: int) -> ChowClass:
        """Down to the stage surface: e_i with i > stage die, all else persists."""
        if not 0 <= to_stage <= self.k:
            raise ValueError(f"stage {to_stage} out of range 0..{self.k}")
        if cls.basis_size != self.k + 1:
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
        total = Fraction(0)
        for j in rel.curves:
            if rel.roots[j] == base_point:
                total += Fraction(2 - rel.meets[j], rel.mus[j] + 1)
        for a, b in rel.pairs:
            if rel.roots[a] == base_point:
                total += Fraction(1, (rel.mus[a] + 1) * (rel.mus[b] + 1))
        return total

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

        curve_cls = {
            t: MotivicClass(LPolynomial((1 - rel.meets[t], 1))) for t in rel.curves
        }
        ambient = LPolynomial((1, self.k + 1, 1))
        empty = MotivicClass(ambient)
        for t in rel.curves:
            empty = empty - curve_cls[t]
        empty = empty - len(rel.pairs)

        strata: dict[int, MotivicClass] = {0: empty}
        for t in rel.curves:
            strata[bit[t]] = curve_cls[t]
        for a, b in rel.pairs:
            strata[bit[a] | bit[b]] = MotivicClass.one()

        system = ModificationSystem(
            2,
            divisors,
            strata,
            ambient_class=MotivicClass(ambient),
            label=f"plane blow-ups k={self.k}, stage {relative_to}",
        )

        loci = {"full": system.full_locus("full")}
        for root in rel.root_order:
            fiber_strata: dict[int, MotivicClass] = {}
            for t in rel.curves:
                if rel.roots[t] == root:
                    fiber_strata[bit[t]] = curve_cls[t]
            for a, b in rel.pairs:
                if rel.roots[a] == root:
                    fiber_strata[bit[a] | bit[b]] = MotivicClass.one()
            loci[root] = MarkedLocus(root, fiber_strata)
        return system, loci

    def __repr__(self) -> str:
        return f"SurfaceModel(k={self.k}, anchors={len(self.anchors)})"


# -- JSON wire format ------------------------------------------------------------------


def events_from_json(obj: Mapping) -> tuple[Event, ...]:
    events: list[Event] = []
    try:
        for entry in obj["events"]:
            kind = entry["type"]
            if kind == "generic":
                events.append(GenericPoint())
            elif kind == "on_curve":
                events.append(PointOnCurve(int(entry["curve"])))
            elif kind == "intersection":
                a, b = entry["pair"]
                events.append(IntersectionPoint(int(a), int(b)))
            else:
                raise ValueError(f"unknown event type {kind!r}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed surface program: {exc}") from exc
    return tuple(events)


def events_to_json(events: Iterable[Event]) -> dict:
    out = []
    for event in events:
        if isinstance(event, GenericPoint):
            out.append({"type": "generic"})
        elif isinstance(event, PointOnCurve):
            out.append({"type": "on_curve", "curve": event.curve})
        elif isinstance(event, IntersectionPoint):
            out.append({"type": "intersection", "pair": [event.a, event.b]})
        else:
            raise TypeError(f"unknown event {event!r}")
    return {"events": out}
