"""Blow-up transformation of modification systems.

A :class:`BlowupCenter` describes, extensionally, a smooth center meeting
the current divisor arrangement with normal crossings: its codimension d,
the set K0 of divisors containing it, and the classes [E_I ^ S] of its
pieces inside each stratum.  Whether such data is realized by an actual
subvariety is the caller's assertion; the engine only checks the
combinatorial admissibility conditions.

Blowing up replaces S by a P^(d-1)-bundle.  The new exceptional divisor
gets multiplicity

    mu0 = sum_{j in K0} mu_j + d - 1      (:func:`mchern.strata.discrepancy`),

old strata lose their intersection with S, and the part of the new
arrangement over S is governed by the fiber picture: divisors containing
S cut each fiber in |K0| independent hyperplanes, divisors through S but
not containing it swallow whole fibers.  Concretely, for old subsets M

    [new E_M] = [E_M] - [E_M ^ S]

and for subsets {0} u N containing the fresh index

    [new E_{0 u N}] = [E_{K0 u (N \\ K0)} ^ S] * [H_{|N ^ K0|}]

with [H_i] the fiber stratum class from :mod:`mchern.strata`.  Marked
loci transform by the same two rules applied to their own center data.
The weighted functional chi is invariant under this transformation by a
local argument, and :func:`audited_step` checks it locally: it blows a step
up once and sums only the strata that step replaced, which gives the step's
change of chi.  :func:`run_program` and :func:`verify_invariance` both go
through it, and :func:`run_program` telescopes the final chi from those
changes instead of summing the final system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .modsys import (
    Divisor,
    MarkedLocus,
    ModificationSystem,
    json_bounded,
    json_list,
    json_object,
    strata_from_json,
    strata_to_json,
    subset_from_json,
    system_from_json,
    system_to_json,
)
from .ring import MotivicClass, projective_class
from .strata import FiberFrame, discrepancy, hyperplane_stratum_class


class BlowupError(ValueError):
    """Raised for centers or programs that violate admissibility."""


CONTAINS_CENTER = "contains_center"
DISJOINT_FROM_CENTER = "disjoint_from_center"


@dataclass(frozen=True)
class LocusRule:
    """How a marked locus meets the center.

    ``contains_center`` means the locus contains all of S, so the center
    data is reused as is; ``disjoint_from_center`` means the intersection
    is empty; ``explicit`` supplies the classes [E_I ^ S ^ U] directly.
    """

    kind: str
    strata: Optional[Mapping[frozenset[str], MotivicClass]] = None

    def __post_init__(self):
        if self.kind not in (CONTAINS_CENTER, DISJOINT_FROM_CENTER, "explicit"):
            raise ValueError(f"unknown locus rule kind {self.kind!r}")
        if self.kind == "explicit" and self.strata is None:
            raise ValueError("explicit locus rule requires stratum classes")

    @classmethod
    def contains(cls) -> "LocusRule":
        return cls(CONTAINS_CENTER)

    @classmethod
    def disjoint(cls) -> "LocusRule":
        return cls(DISJOINT_FROM_CENTER)

    @classmethod
    def explicit(cls, strata: Mapping[frozenset[str], MotivicClass]) -> "LocusRule":
        return cls("explicit", dict(strata))


@dataclass(frozen=True)
class BlowupCenter:
    """Extensional description of a smooth normal-crossings center."""

    codim: int
    containing: frozenset[str] = frozenset()
    center_strata: Mapping[frozenset[str], MotivicClass] = field(default_factory=dict)
    locus_rules: Mapping[str, LocusRule] = field(default_factory=dict)

    def total_class(self) -> MotivicClass:
        return MotivicClass.sum(self.center_strata.values())


@dataclass(frozen=True)
class BlowupResult:
    system: ModificationSystem
    loci: dict[str, MarkedLocus]
    fresh_id: str


def _center_masks(system: ModificationSystem, center: BlowupCenter) -> tuple[int, dict[int, MotivicClass]]:
    """The mask of K0 and the center's nonzero classes by stratum mask.

    Raises :class:`BlowupError` naming every way the center is inadmissible
    against the current system.
    """
    n, d = system.ambient_dim, center.codim
    if not 1 <= d <= n:
        raise BlowupError(f"codimension {d} outside 1..{n}")
    try:
        k0_mask = system.mask_of(tuple(center.containing))
        strata = {}
        for key, cls in center.center_strata.items():
            mask = system.mask_of(tuple(key))
            if not cls.is_zero():
                strata[mask] = cls
    except ValueError as exc:
        raise BlowupError(str(exc)) from None
    problems: list[str] = []
    if k0_mask.bit_count() > d:
        problems.append(
            f"center lies on {k0_mask.bit_count()} divisors, more than its codimension {d}"
        )
    for mask in sorted(strata):
        ids = system.ids_of(mask)
        if mask & k0_mask != k0_mask:
            problems.append(f"center stratum {ids} does not contain all of K0")
        if mask not in system.strata:
            problems.append(f"center is nonzero on the empty stratum {ids}")
        if (mask & ~k0_mask).bit_count() > n - d:
            problems.append(
                f"center stratum {ids} would create strata deeper than dimension {n}"
            )
    if problems:
        raise BlowupError("; ".join(problems))
    return k0_mask, strata


def _locus_center_data(
    system: ModificationSystem,
    center: BlowupCenter,
    center_strata: dict[int, MotivicClass],
    locus: MarkedLocus,
) -> dict[int, MotivicClass]:
    rule = center.locus_rules.get(locus.name)
    if rule is None:
        raise BlowupError(
            f"no center rule for locus {locus.name!r}; declare contains_center, "
            "disjoint_from_center, or explicit classes"
        )
    if rule.kind == CONTAINS_CENTER:
        return dict(center_strata)
    if rule.kind == DISJOINT_FROM_CENTER:
        return {}
    data = {}
    for key, cls in rule.strata.items():
        try:
            mask = system.mask_of(tuple(key))
        except ValueError as exc:
            raise BlowupError(f"locus {locus.name!r}: {exc}") from None
        if cls.is_zero():
            continue
        if mask not in center_strata:
            raise BlowupError(
                f"locus {locus.name!r} meets the center on {system.ids_of(mask)} "
                "where the center itself is empty"
            )
        data[mask] = cls
    return data


def _transform_strata(
    old: Mapping[int, MotivicClass],
    center_data: Mapping[int, MotivicClass],
    k0_mask: int,
    fiber: Sequence[MotivicClass],
    new_bit: int,
) -> dict[int, MotivicClass]:
    out = dict(old)
    for mask, cls in center_data.items():
        out[mask] = old[mask] - cls if mask in old else -cls
    for mask, cls in center_data.items():
        outside = mask & ~k0_mask
        sub = k0_mask
        while True:
            h = fiber[sub.bit_count()]
            if not h.is_zero():
                new_mask = new_bit | outside | sub
                term = cls * h
                cur = out.get(new_mask)
                out[new_mask] = term if cur is None else cur + term
            if sub == 0:
                break
            sub = (sub - 1) & k0_mask
    return out


def blow_up(
    system: ModificationSystem,
    center: BlowupCenter,
    loci: Iterable[MarkedLocus] = (),
    *,
    fresh_id: Optional[str] = None,
) -> BlowupResult:
    """Apply one blow-up, transforming the system and any marked loci."""
    k0_mask, center_strata = _center_masks(system, center)
    loci = list(loci)
    locus_data = {
        locus.name: _locus_center_data(system, center, center_strata, locus)
        for locus in loci
    }

    if fresh_id is None:
        step = len(system.divisors)
        while f"exc{step}" in system.idents:
            step += 1
        fresh_id = f"exc{step}"
    elif fresh_id in system.idents:
        raise BlowupError(f"fresh divisor id {fresh_id!r} already in use")

    d = center.codim
    k0_size = k0_mask.bit_count()
    mu0 = discrepancy(system.mu_of_mask(k0_mask), d)
    frame = FiberFrame(d, k0_size)
    fiber = [hyperplane_stratum_class(frame, size) for size in range(k0_size + 1)]
    new_bit = 1 << len(system.divisors)

    new_strata = _transform_strata(system.strata, center_strata, k0_mask, fiber, new_bit)
    ambient = system.ambient_class
    if ambient is not None:
        ambient = ambient + center.total_class() * (projective_class(d - 1) - 1)
    new_system = ModificationSystem(
        system.ambient_dim,
        system.divisors + (Divisor(fresh_id, mu0),),
        new_strata,
        ambient_class=ambient,
        label=system.label,
    )
    new_loci = {
        locus.name: MarkedLocus(
            locus.name,
            _transform_strata(locus.strata, locus_data[locus.name], k0_mask, fiber, new_bit),
        )
        for locus in loci
    }
    return BlowupResult(new_system, new_loci, fresh_id)


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class StepAudit:
    index: int
    fresh_id: str
    invariance_ok: bool
    total_class_ok: bool
    fiber_complete: bool
    chi_delta: MotivicClass  # chi(full) after the step minus chi(full) before it

    @property
    def passed(self) -> bool:
        """The one pass rule for a step: chi kept, total class and fresh fibers as expected."""
        return self.invariance_ok and self.total_class_ok and self.fiber_complete


def step_difference(old: Mapping[int, MotivicClass], new: Mapping[int, MotivicClass]) -> dict:
    """``new[m] - old[m]`` (absent is 0) on every mask of either map whose class object changed."""
    diff = {m: cls - old[m] if m in old else cls for m, cls in new.items() if old.get(m) is not cls}
    diff.update((m, -cls) for m, cls in old.items() if m not in new)
    return diff


def audited_step(
    system: ModificationSystem,
    center: BlowupCenter,
    loci: Iterable[MarkedLocus],
    index: int = 0,
) -> tuple[BlowupResult, StepAudit]:
    """Blow up once with the given loci and audit only the strata the step replaced.

    One :func:`step_difference` of the system feeds all three checks.  :func:`blow_up`
    only appends the fresh divisor, so old masks keep their weights: chi after minus chi
    before is chi of that difference in the new system, zero iff the step keeps chi.  The
    audit keeps that value as ``chi_delta``.  Each locus is checked the same way on its own
    difference.
    """
    loci = list(loci)
    result = blow_up(system, center, loci)
    after = result.system
    diff = step_difference(system.strata, after.strata)
    locus_diffs = [step_difference(u.strata, result.loci[u.name].strata) for u in loci]
    chi_delta = after.chi(MarkedLocus("step", diff))
    audit = StepAudit(
        index,
        result.fresh_id,
        chi_delta.is_zero()
        and all(after.chi(MarkedLocus("step", delta)).is_zero() for delta in locus_diffs),
        total_class_delta_matches(diff, center),
        fiber_completeness_holds(diff, center, after.mask_of(result.fresh_id)),
        chi_delta,
    )
    return result, audit


def verify_invariance(
    system: ModificationSystem,
    center: BlowupCenter,
    loci: Iterable[MarkedLocus] = (),
) -> bool:
    """chi before equals chi after, for the full locus and every given locus."""
    return audited_step(system, center, loci)[1].invariance_ok


def total_class_delta_matches(diff: Mapping[int, MotivicClass], center: BlowupCenter) -> bool:
    """Blow-up trades S for a P^(d-1)-bundle over it: the step's difference sums to that gain."""
    gained = center.total_class() * (projective_class(center.codim - 1) - 1)
    return MotivicClass.sum(diff.values()) == gained


def fiber_completeness_holds(
    diff: Mapping[int, MotivicClass], center: BlowupCenter, bit: int
) -> bool:
    """Strata with the fresh ``bit`` (all new, so all in ``diff``) sum to [S] * [P^(d-1)]."""
    total = MotivicClass.sum(cls for mask, cls in diff.items() if mask & bit)
    return total == center.total_class() * projective_class(center.codim - 1)


# -- programs ------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupProgram:
    initial: ModificationSystem
    steps: tuple[BlowupCenter, ...]
    loci: Mapping[str, MarkedLocus] = field(default_factory=dict)


@dataclass(frozen=True)
class ProgramResult:
    final: ModificationSystem
    loci: dict[str, MarkedLocus]
    snapshots: tuple[ModificationSystem, ...]
    audits: tuple[StepAudit, ...]
    final_chi: MotivicClass

    @property
    def all_checks_passed(self) -> bool:
        """Every step audit passed (:attr:`StepAudit.passed`)."""
        return all(a.passed for a in self.audits)


def run_program(program: BlowupProgram) -> ProgramResult:
    """Left fold of blow_up over the steps, with per-step snapshots and audits.

    Each step is blown up once, with the program's loci, and audited on that
    result.  The final chi is telescoped: chi of the initial system plus each
    step's nonzero ``chi_delta``, so the final system is never summed.  Errors
    raised by a step are re-raised with the step index attached.
    """
    system = program.initial
    loci = dict(program.loci)
    snapshots = [system]
    audits: list[StepAudit] = []
    for index, step in enumerate(program.steps):
        try:
            result, audit = audited_step(system, step, loci.values(), index)
        except BlowupError as exc:
            raise BlowupError(f"step {index}: {exc}") from exc
        audits.append(audit)
        system, loci = result.system, result.loci
        snapshots.append(system)
    deltas = [a.chi_delta for a in audits if not a.chi_delta.is_zero()]
    final_chi = MotivicClass.sum([program.initial.chi(program.initial.full_locus())] + deltas)
    return ProgramResult(system, loci, tuple(snapshots), tuple(audits), final_chi)


# -- JSON wire format ------------------------------------------------------------


def center_from_json(obj: Mapping) -> BlowupCenter:
    obj = json_object(obj, "blow-up step")
    try:
        rules: dict[str, LocusRule] = {}
        for name, kind in json_object(obj.get("locus_defaults", {}), "locus_defaults").items():
            if kind == CONTAINS_CENTER:
                rules[name] = LocusRule.contains()
            elif kind == DISJOINT_FROM_CENTER:
                rules[name] = LocusRule.disjoint()
            else:
                raise ValueError(f"unknown locus default {kind!r} for {name!r}")
        explicit = json_object(obj.get("locus_center_strata", {}), "locus_center_strata")
        for name, entries in explicit.items():
            rules[name] = LocusRule.explicit(strata_from_json(entries))
        return BlowupCenter(
            codim=json_bounded(obj["codim"], "codim"),
            containing=subset_from_json(obj.get("containing", [])),
            center_strata=strata_from_json(obj.get("center_strata", [])),
            locus_rules=rules,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed blow-up step: {exc}") from exc


def _by_sorted_ids(strata: Mapping[frozenset[str], MotivicClass]) -> list:
    return sorted(((sorted(key), cls) for key, cls in strata.items()), key=lambda kv: kv[0])


def center_to_json(center: BlowupCenter) -> dict:
    obj: dict = {
        "codim": center.codim,
        "containing": sorted(center.containing),
        "center_strata": strata_to_json(_by_sorted_ids(center.center_strata)),
    }
    defaults = {}
    explicit = {}
    for name, rule in sorted(center.locus_rules.items()):
        if rule.kind == "explicit":
            explicit[name] = strata_to_json(_by_sorted_ids(rule.strata))
        else:
            defaults[name] = rule.kind
    if defaults:
        obj["locus_defaults"] = defaults
    if explicit:
        obj["locus_center_strata"] = explicit
    return obj


def program_from_json(obj: Mapping) -> BlowupProgram:
    try:
        system, loci = system_from_json(obj["initial"])
        steps = tuple(map(center_from_json, json_list(obj.get("steps", []), "steps")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed program object: {exc}") from exc
    return BlowupProgram(system, steps, loci)


def program_to_json(program: BlowupProgram) -> dict:
    return {
        "initial": system_to_json(program.initial, program.loci or None),
        "steps": [center_to_json(step) for step in program.steps],
    }
