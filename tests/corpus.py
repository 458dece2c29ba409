"""Deterministic test corpora: surface programs and crepant chains.

The surface corpus enumerates blow-up programs breadth-first, trying
every admissible event type at every step (generic point, a point on
each existing curve, each crossing), and truncates at a size cap so the
sweep stays desk-scale.  Order-swap pairs pick programs whose final two
events are independent and exchange them with
:func:`mchern.surface.swap_last_two`; the geometry downstairs cannot tell
the difference, which the tests verify exactly.

:func:`blowup_program` turns a surface event program into the engine's own
point blow-up program, so the same corpus drives :func:`mchern.blowup.run_program`.

The chain builders insert a chain of rational curves into a trivial
system one curve at a time, as codimension-1 centers.  Every inserted
divisor gets multiplicity 0, giving the discrepancy-free flavor of a
minimal resolution; two insertion orders must produce identical systems.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping

from mchern.blowup import BlowupCenter, BlowupProgram, LocusRule, blow_up
from mchern.cfun import BaseFunction
from mchern.modsys import ModificationSystem
from mchern.ring import LPolynomial, MotivicClass
from mchern.surface import (
    ChowClass,
    Event,
    GenericPoint,
    IntersectionPoint,
    PointOnCurve,
    SurfaceModel,
    swap_last_two,
)


def apply_event(surface: SurfaceModel, event: Event) -> SurfaceModel:
    """The surface with one more blow-up event."""
    return SurfaceModel(surface.events + (event,))


def value_at(base: BaseFunction, point: str) -> Fraction:
    """A pushed-forward function's value at a named base point."""
    return base.generic_value + base.corrections.get(point, Fraction(0))


def is_constant(base: BaseFunction, value) -> bool:
    """Whether a pushed-forward function is ``value`` everywhere."""
    return base.generic_value == Fraction(value) and not any(base.corrections.values())


def chow_point(k: int) -> ChowClass:
    """The class of a point on a surface with k exceptional curves."""
    return ChowClass(0, (0,) * (k + 1), 1)


def event_choices(surface: SurfaceModel) -> list[Event]:
    """All admissible next events, in a fixed deterministic order."""
    choices: list[Event] = [GenericPoint()]
    for j in range(1, surface.k + 1):
        choices.append(PointOnCurve(j))
    for a, b in surface.meeting_pairs():
        choices.append(IntersectionPoint(a, b))
    return choices


def random_tower(rng: random.Random, k: int) -> SurfaceModel:
    """k events: mostly a point on the newest curve, often its crossing, sometimes any event."""
    s = SurfaceModel((GenericPoint(),))
    while s.k < k:
        crossings = [IntersectionPoint(*p) for p in s.meeting_pairs() if s.k in p]
        roll = rng.random()
        if roll < 0.5:
            event = PointOnCurve(s.k)
        elif roll < 0.8 and crossings:
            event = rng.choice(crossings)
        else:
            event = rng.choice(event_choices(s))
        s = apply_event(s, event)
    return s


def surface_corpus(max_events: int = 6, limit: int = 500) -> list[tuple[Event, ...]]:
    """Breadth-first enumeration of event programs, capped at ``limit``."""
    programs: list[tuple[Event, ...]] = []
    queue: deque[tuple[tuple[Event, ...], SurfaceModel]] = deque()
    queue.append(((), SurfaceModel()))
    while queue and len(programs) < limit:
        events, surface = queue.popleft()
        programs.append(events)
        if len(events) < max_events:
            for event in event_choices(surface):
                queue.append((events + (event,), apply_event(surface, event)))
    return programs


def order_swap_pairs(
    programs: Iterable[tuple[Event, ...]], want: int = 20
) -> list[tuple[tuple[Event, ...], tuple[Event, ...]]]:
    pairs = []
    seen = set()
    for program in programs:
        swapped = swap_last_two(program)
        if swapped is None:
            continue
        key = frozenset((program, swapped))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((program, swapped))
        if len(pairs) >= want:
            break
    return pairs


def final_transposition(program: tuple[Event, ...]) -> dict[str, str]:
    """Divisor relabeling aligning a program with its last-two swap."""
    k = len(program)
    return {f"e{k - 1}": f"e{k}", f"e{k}": f"e{k - 1}"}


def systems_isomorphic_under(
    a: ModificationSystem, b: ModificationSystem, ident_map: Mapping[str, str]
) -> bool:
    """Exact equality of systems after renaming a's divisors via ident_map."""
    if a.ambient_dim != b.ambient_dim or len(a.divisors) != len(b.divisors):
        return False
    mapped_mu = {ident_map.get(d.ident, d.ident): d.mu for d in a.divisors}
    if mapped_mu != {d.ident: d.mu for d in b.divisors}:
        return False
    b_strata = {frozenset(b.ids_of(mask)): cls for mask, cls in b.strata.items()}
    a_strata = {
        frozenset(ident_map.get(i, i) for i in a.ids_of(mask)): cls
        for mask, cls in a.strata.items()
    }
    if set(a_strata) != set(b_strata):
        return False
    return all(a_strata[key] == b_strata[key] for key in a_strata)


def systems_equal_by_ident(a: ModificationSystem, b: ModificationSystem) -> bool:
    return systems_isomorphic_under(a, b, {})


# -- discrepancy-free chains -----------------------------------------------------


def trivial_plane_system() -> ModificationSystem:
    cls = MotivicClass(LPolynomial((1, 1, 1)))
    return ModificationSystem(2, (), {(): cls}, ambient_class=cls, label="plane")


def chain_insertion_center(
    system: ModificationSystem, position: int, inserted: set[int]
) -> BlowupCenter:
    """The chain curve at ``position`` as a codimension-1 center.

    The curve meets whichever of its chain neighbors are already present,
    one point each; the rest of it lies in the open stratum.
    """
    neighbors = [p for p in (position - 1, position + 1) if p in inserted]
    strata: dict[frozenset[str], MotivicClass] = {
        frozenset(): MotivicClass(LPolynomial((1 - len(neighbors), 1)))
    }
    for p in neighbors:
        strata[frozenset((f"c{p}",))] = MotivicClass.one()
    return BlowupCenter(codim=1, containing=frozenset(), center_strata=strata)


def chain_system(length: int, order: Iterable[int]) -> ModificationSystem:
    """Insert a chain of ``length`` rational curves in the given order.

    Every insertion is a codimension-1 step, so each new divisor carries
    multiplicity 0.
    """
    order = list(order)
    if sorted(order) != list(range(1, length + 1)):
        raise ValueError("order must be a permutation of 1..length")
    system = trivial_plane_system()
    inserted: set[int] = set()
    for position in order:
        center = chain_insertion_center(system, position, inserted)
        system = blow_up(system, center, fresh_id=f"c{position}").system
        inserted.add(position)
    return system


def chain_two_orders(length: int) -> tuple[ModificationSystem, ModificationSystem]:
    """The same chain built left-to-right and odds-before-evens."""
    forward = list(range(1, length + 1))
    shuffled = [p for p in forward if p % 2 == 1] + [p for p in forward if p % 2 == 0]
    return chain_system(length, forward), chain_system(length, shuffled)


# -- surface programs as engine programs ------------------------------------------


def blowup_program(events: Iterable[Event]) -> BlowupProgram:
    """The point blow-ups of a surface event program, as a program over the plane.

    Curve j is the engine's divisor ``exc{j-1}``.  An event's point lies on
    exactly the curves it names, so its one center stratum is those divisors.
    The marked locus ``U`` is the whole plane.
    """
    steps = []
    for event in events:
        if isinstance(event, PointOnCurve):
            on = frozenset({f"exc{event.curve - 1}"})
        elif isinstance(event, IntersectionPoint):
            on = frozenset({f"exc{event.a - 1}", f"exc{event.b - 1}"})
        else:
            on = frozenset()
        steps.append(BlowupCenter(2, on, {on: MotivicClass.one()}, {"U": LocusRule.contains()}))
    plane = trivial_plane_system()
    return BlowupProgram(plane, tuple(steps), {"U": plane.full_locus("U")})
