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
discrepancies (refusing one above :data:`mchern.ring.INPUT_BOUND`), via
mu_new = 1 + sum of the mu's of curves through the center
(:func:`mchern.strata.discrepancy` at codimension 2), and the original base
point each curve lies over.

Everything downstream is linear in the Chow group: total Chern classes, the
one CSM route :meth:`SurfaceModel._csm` for rational functions on arrangement
strata (the weighted stratum class is that of the weighted unit, and its
push-forwards recover the Chern classes of every intermediate stage), and
the exporter producing the matching :class:`~mchern.modsys.ModificationSystem`.
All of it is exact, over Fractions and integer polynomials.

The facts about one stratum of the arrangement relative to a stage (whether
it exists, its weight 1 / prod (mu_i + 1), its Euler number, the point it
contracts to) live on :class:`RelativeArrangement`; every consumer here and
in :mod:`mchern.cfun` reads them, and weighted functions, from there as
``(den, {stratum key: int})``, divided by ``den`` where a value leaves.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import prod
from operator import add, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

from .modsys import Divisor, MarkedLocus, ModificationSystem, json_int, json_list
from .ring import LPolynomial, MotivicClass, bounded, json_fields, json_object, over_lcm
from .strata import discrepancy


class _Event:
    """Two events are equal when they are of one kind and lie on the same curves; the curves tell the kind."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and _references(other) == _references(self)

    def __hash__(self) -> int:
        return hash(_references(self))


class GenericPoint(_Event):
    """Blow up a point away from every exceptional curve."""

    __slots__ = ()


class PointOnCurve(_Event):
    """Blow up a generic point of one exceptional curve."""

    __slots__ = ("curve",)

    def __init__(self, curve: int):
        self.curve = curve


class IntersectionPoint(_Event):
    """Blow up the point where two meeting exceptional curves cross."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a == b:
            raise ValueError("intersection event needs two distinct curves")
        self.a, self.b = sorted((a, b))


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

    def _zip(self, other: "ChowClass", op) -> "ChowClass":
        """``op`` coordinate by coordinate; both classes must live on one surface."""
        if len(self.curves) != len(other.curves):
            raise ValueError("Chow classes live on different surfaces")
        curves = tuple(map(op, self.curves, other.curves))
        return ChowClass(op(self.top, other.top), curves, op(self.points, other.points))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return self._zip(other, add)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self._zip(other, sub)

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

    def __init__(
        self,
        stage: int,
        curves: tuple[int, ...],
        mus: Mapping[int, int],
        pairs: tuple[tuple[int, int], ...],
        meets: Mapping[int, int],
        roots: Mapping[int, str],
        root_order: tuple[str, ...],
    ):
        self.stage, self.curves, self.mus, self.pairs = stage, curves, mus, pairs
        self.meets, self.roots, self.root_order = meets, roots, root_order

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

    @cached_property
    def unit(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """The weighted unit as ``(den, nums)``: every stratum, the open one included, weighs
        ``nums[key] / den`` = 1 / prod (mu_i + 1) (the weight 1 / prod [P^mu_i] at L = 1)."""
        return over_lcm({key: prod(self.mus[j] + 1 for j in key) for key in ((),) + self.strata})

    def euler(self, key: tuple[int, ...]) -> int:
        """Euler number of a curve stratum (2 minus its crossings) or a crossing (1)."""
        return 2 - self.meets[key[0]] if len(key) == 1 else 1

    def root(self, key: tuple[int, ...]) -> str:
        """The point of the stage surface a curve or crossing stratum contracts to."""
        return self.roots[key[0]]

    def keyed(self, f: Mapping) -> tuple[int, dict[tuple[int, ...], int]]:
        """A constructible function ``{curve subset: int or Fraction weight}`` as ``(den, nums)``:
        each key :meth:`check`-ed, each weight ``nums[key] / den`` over the least common denominator.

        Zero weights stay.  A stratum given twice, say as ``(1, 2)`` and
        ``(2, 1)``, is a ValueError.
        """
        out: dict[tuple[int, ...], Fraction] = {}
        for subset, value in f.items():
            key = self.check(subset)
            if key in out:
                raise ValueError(f"duplicate stratum {list(key)!r}")
            out[key] = value
        den, scale = over_lcm({key: w.denominator for key, w in out.items()})
        return den, {key: w.numerator * scale[key] for key, w in out.items()}

    def fiber_totals(self, nums: Mapping[tuple[int, ...], int]) -> dict[str, int]:
        """Per contracted point, the sum of weight times Euler number over its fiber, for integer
        weights keyed as :meth:`keyed` keys them; the open stratum lies over no contracted point."""
        totals = dict.fromkeys(self.root_order, 0)
        for key, w in nums.items():
            if key:
                totals[self.root(key)] += self.euler(key) * w
        return totals


class SurfaceModel:
    """The surface obtained from the plane by a sequence of point blow-ups."""

    __slots__ = ("events", "_through", "_pairs", "_last_relative")

    def __init__(self, events: Iterable[Event] = ()):
        self.events: tuple[Event, ...] = tuple(events)
        self._through = tuple(map(_references, self.events))  # per curve, the curves its center lay on
        pairs: set[tuple[int, int]] = set()
        for k, center in enumerate(self._through, 1):  # curve k is made by event k
            if len(center) == 1:
                if not 1 <= center[0] < k:
                    raise ValueError(f"invalid curve index {center[0]}")
                pairs.add((center[0], k))
            elif center:
                a, b = center
                if not (1 <= a < k and 1 <= b < k):
                    raise ValueError(f"invalid curve pair ({a}, {b})")
                if center not in pairs:
                    raise ValueError(f"curves {a} and {b} do not meet")
                pairs.remove(center)  # the crossing blown up is gone
                pairs.update(((a, k), (b, k)))
        self._pairs: tuple[tuple[int, int], ...] = tuple(sorted(pairs))
        self._last_relative: Optional[RelativeArrangement] = None

    @property
    def k(self) -> int:
        return len(self.events)

    @property
    def discrepancies(self) -> tuple[int, ...]:
        return tuple(self.relative(0).mus.values())

    def meeting_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    # -- construction -----------------------------------------------------------

    def _stage(self, m: int) -> int:
        """``m`` if it names a stage of this surface, 0..k; else a ValueError."""
        if not 0 <= m <= self.k:
            raise ValueError(f"stage {m} out of range 0..{self.k}")
        return m

    def stage_model(self, m: int) -> "SurfaceModel":
        return SurfaceModel(self.events[: self._stage(m)])

    # -- Chow classes -------------------------------------------------------------

    def chern_class(self, stage: Optional[int] = None) -> ChowClass:
        """[Z] + c_1 + c_2 of stage m (default k): c_1 = 3h - sum e_i and c_2 = (3 + m)[pt]."""
        m = self.k if stage is None else self._stage(stage)
        return ChowClass(1, (3,) + (-1,) * m, 3 + m)

    def relative(self, stage: int) -> RelativeArrangement:
        """The arrangement down to ``stage``; the last one is kept and shared, so never mutate it.
        A derived discrepancy above :data:`mchern.ring.INPUT_BOUND` is an input error."""
        if (last := self._last_relative) is not None and last.stage == stage:
            return last
        curves = tuple(range(self._stage(stage) + 1, self.k + 1))
        mus: dict[int, int] = {}
        roots: dict[int, str] = {}
        # the n-th generic point of the whole program is the base point p<n>
        generics = sum(not center for center in self._through[:stage])
        for t in curves:
            over = [c for c in self._through[t - 1] if c > stage]
            mus[t] = bounded(discrepancy((mus[c] for c in over), 2), f"curve {t} discrepancy")
            if over:
                root = roots[over[0]]
            elif not self._through[t - 1]:  # a generic point
                generics += 1
                root = f"p{generics}"
            else:
                root = f"q{t}"
            roots[t] = root
        pairs = tuple(p for p in self._pairs if p[0] > stage)
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
        return self._csm(rel, *rel.keyed(weights))

    def _csm(self, rel: RelativeArrangement, den: int, nums: Mapping) -> ChowClass:
        """:meth:`csm` on ``rel``'s stage of the weights ``nums[key] / den``, keyed as ``keyed`` keys."""
        n = self._csm_numerators(rel, nums)  # Fraction(c, den): half the cost of Fraction(1, den) * c
        return ChowClass(Fraction(n.top, den), [Fraction(c, den) for c in n.curves], Fraction(n.points, den))

    def _csm_numerators(self, rel: RelativeArrangement, nums: Mapping) -> ChowClass:
        """:meth:`_csm` times its ``den``: a class of ints."""
        f0 = nums.get((), 0)
        excess = {key: nums.get(key, 0) - f0 for key in rel.strata}
        chern = self.chern_class()  # integral
        top = f0 * chern.top
        curves = [f0 * c for c in chern.curves]
        for s in rel.curves:  # a curve up to the stage is no stratum and lies on none of them
            curves[s] += excess[(s,)] - sum(excess[(t,)] for t in self._through[s - 1] if t > rel.stage)
        pt = f0 * chern.points + sum(w * rel.euler(key) for key, w in excess.items())
        return ChowClass(top, curves, pt)

    def csm_stratum(self, subset: Iterable[int], relative_to: int = 0) -> ChowClass:
        """CSM class of the locus on exactly the given arrangement curves."""
        return self.csm({tuple(subset): 1}, relative_to)

    def stringy_class(self, relative_to: int = 0) -> ChowClass:
        """CSM class of the weighted unit: each stratum weighted by 1 / prod (mu_i + 1)."""
        rel = self.relative(relative_to)
        return self._csm(rel, *rel.unit)

    def pushforward(self, cls: ChowClass, to_stage: int) -> ChowClass:
        """Down to the stage surface: e_i with i > stage die, all else persists."""
        stage = self._stage(to_stage)
        if len(cls.curves) != self.k + 1:
            raise ValueError("class does not live on this surface")
        return ChowClass(cls.top, cls.curves[: stage + 1], cls.points)

    # -- Euler-level fiber data ------------------------------------------------------

    def fiber_euler_profile(self, base_point: str) -> Fraction:
        """Weighted Euler sum over the fiber strata above one base point."""
        if base_point == "generic":
            return Fraction(1)
        rel = self.relative(0)
        if base_point not in rel.root_order:
            raise ValueError(f"unknown anchor {base_point!r}")
        den, unit = rel.unit
        return Fraction(rel.fiber_totals(unit)[base_point], den)

    # -- export to the abstract side ---------------------------------------------------

    def class_of_stage(self, m: int) -> MotivicClass:
        """Grothendieck-ring class of the stage-m surface: L^2 + (m+1)L + 1."""
        return MotivicClass(LPolynomial((1, self._stage(m) + 1, 1)))

    def export_modification_system(
        self, relative_to: int = 0
    ) -> tuple[ModificationSystem, dict[str, MarkedLocus]]:
        """The abstract system of the map down to the given stage.

        Returns the system together with its canonical marked loci: the
        full surface, plus one fiber locus per contracted base point.
        """
        rel = self.relative(relative_to)
        divisors = tuple(Divisor(f"e{t}", rel.mus[t]) for t in rel.curves)
        bit = {t: 1 << i for i, t in enumerate(rel.curves)}
        # an open curve stratum is P^1 less its crossings, L + e - 1 for Euler number e
        eulers = {(t,): rel.euler((t,)) for t in rel.curves}
        curve_class = {e: MotivicClass._of(LPolynomial._of([e - 1, 1]), ()) for e in set(eulers.values())}
        ambient = self.class_of_stage(self.k)
        # the open stratum, the ambient class less all of those, keeps its L^2, so no class is zero
        excess = sum(eulers.values()) - len(eulers) + len(rel.pairs)
        strata = {0: MotivicClass._of(LPolynomial._of([1 - excess, self.k + 1 - len(eulers), 1]), ())}
        fibers: dict[str, dict[int, MotivicClass]] = {root: {} for root in rel.root_order}
        for key, e in eulers.items():
            strata[bit[key[0]]] = fibers[rel.root(key)][bit[key[0]]] = curve_class[e]
        point = MotivicClass.one()  # a crossing
        for key in rel.pairs:
            mask = bit[key[0]] | bit[key[1]]
            strata[mask] = fibers[rel.root(key)][mask] = point

        label = f"plane blow-ups k={self.k}, stage {relative_to}"
        index = {d.ident: i for i, d in enumerate(divisors)}
        system = ModificationSystem._of(2, divisors, strata, ambient, label, index)
        loci = {"full": MarkedLocus._of("full", dict(strata))}
        loci.update((root, MarkedLocus._of(root, fiber)) for root, fiber in fibers.items())
        return system, loci

    # -- checks ----------------------------------------------------------------------

    def stage_checks(self, m: int, folds: dict) -> dict[str, bool]:
        """The checks of stage ``m``, all read from one arrangement and one weighted unit in integers.

        The unit's push-forward is 1 off the contracted points (the open stratum weighs 1), its fiber
        integral at each of them, and its CSM class the stage's Chern class, all times ``den``.  chi(full)
        is the open stratum (mask 0) plus the reduced fiber chis, as the fibers partition the other strata;
        ``folds`` maps a fiber's chi terms, the fold's exact input, to its reduced chi for one command.
        """
        rel = self.relative(m)
        den, unit = rel.unit
        chern = self.chern_class(m)
        profiles_one = all(total == den for total in rel.fiber_totals(unit).values())
        checks = {
            "pushforward_matches_chern": self.pushforward(self._csm_numerators(rel, unit), m)
            == ChowClass(den * chern.top, [den * e for e in chern.curves], den * chern.points),
            "unit_pushforward": unit[()] == den and profiles_one,
        }
        if m == 0:
            checks["fiber_profiles_one"] = profiles_one
        system, loci = self.export_modification_system(m)
        fibers = [(system.chi_terms(locus), locus) for name, locus in loci.items() if name != "full"]
        folds.update((terms, system.chi(locus, terms).reduced()) for terms, locus in fibers if terms not in folds)
        fiber_chi = [folds[terms] for terms, _ in fibers]
        chi_full = MotivicClass.sum([system.stratum(0)] + fiber_chi)
        stage_class = self.class_of_stage(m)
        checks["chi_matches_stage_class"] = chi_full == stage_class
        checks["euler_chi"] = system.euler_chi(loci["full"]) == stage_class.euler_specialize()
        checks["fiber_chi_one"] = all(chi == 1 for chi in fiber_chi)
        return checks

    def order_swap_holds(self) -> Optional[bool]:
        """Whether exchanging the last two events keeps the weighted stratum class's push-forward to
        the plane; ``None`` when :func:`swap_last_two` finds them dependent or there are fewer than two."""
        if (swapped := swap_last_two(self.events)) is None:
            return None
        other = SurfaceModel(swapped)
        return other.pushforward(other.stringy_class(0), 0) == self.pushforward(self.stringy_class(0), 0)

    def __repr__(self) -> str:
        return f"SurfaceModel(k={self.k}, anchors={sum(not center for center in self._through)})"


# -- JSON wire format ------------------------------------------------------------------


def events_from_json(obj: Mapping) -> tuple[Event, ...]:
    (entries,) = json_fields(obj, "surface program", ("events",), {})
    events: list[Event] = []
    kinds = {"generic": ("type",), "on_curve": ("type", "curve"), "intersection": ("type", "pair")}
    for entry in json_list(entries, "events"):
        kind = json_object(entry, "event").get("type")  # the type decides the other key
        if (keys := kinds.get(kind) if isinstance(kind, str) else None) is None:
            raise ValueError(f"unknown event type {kind!r}")
        if len(entry) != len(keys) or keys[-1] not in entry:
            json_fields(entry, f"{kind} event", keys, {})  # the message for any other shape
        if kind == "generic":
            events.append(GenericPoint())
        elif kind == "on_curve":
            events.append(PointOnCurve(json_int(entry["curve"], "curve")))
        elif not isinstance(pair := entry["pair"], list) or len(pair) != 2:
            raise ValueError(f"pair must be a list of two curve indices, got {pair!r}")
        else:
            events.append(IntersectionPoint(json_int(pair[0], "pair"), json_int(pair[1], "pair")))
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
