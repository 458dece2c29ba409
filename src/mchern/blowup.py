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

from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from .modsys import (
    Divisor,
    MarkedLocus,
    ModificationSystem,
    json_bounded,
    json_list,
    strata_from_json,
    strata_to_json,
    subset_from_json,
    system_from_json,
    system_to_json,
)
from .ring import INPUT_BOUND, MotivicClass, json_fields, json_object, projective_class
from .strata import FiberFrame, discrepancy, hyperplane_stratum_class


class BlowupError(ValueError):
    """Raised for centers or programs that violate admissibility."""


CONTAINS_CENTER = "contains_center"
DISJOINT_FROM_CENTER = "disjoint_from_center"


class LocusRule:
    """How a marked locus meets the center.

    ``contains_center`` means the locus contains all of S, so the center
    data is reused as is; ``disjoint_from_center`` means the intersection
    is empty; ``explicit`` supplies the classes [E_I ^ S ^ U] directly.
    """

    __slots__ = ("kind", "strata")

    def __init__(self, kind: str, strata: Optional[Mapping[frozenset[str], MotivicClass]] = None):
        if kind not in (CONTAINS_CENTER, DISJOINT_FROM_CENTER, "explicit"):
            raise ValueError(f"unknown locus rule kind {kind!r}")
        if kind == "explicit" and strata is None:
            raise ValueError("explicit locus rule requires stratum classes")
        self.kind, self.strata = kind, strata

    @classmethod
    def contains(cls) -> "LocusRule":
        return cls(CONTAINS_CENTER)

    @classmethod
    def disjoint(cls) -> "LocusRule":
        return cls(DISJOINT_FROM_CENTER)

    @classmethod
    def explicit(cls, strata: Mapping[frozenset[str], MotivicClass]) -> "LocusRule":
        return cls("explicit", dict(strata))


class BlowupCenter:
    """Extensional description of a smooth normal-crossings center."""

    def __init__(
        self,
        codim: int,
        containing: frozenset[str] = frozenset(),
        center_strata: Optional[Mapping[frozenset[str], MotivicClass]] = None,
        locus_rules: Optional[Mapping[str, LocusRule]] = None,
    ):
        self.codim, self.containing = codim, containing
        self.center_strata = {} if center_strata is None else center_strata
        self.locus_rules = {} if locus_rules is None else locus_rules

    def total_class(self) -> MotivicClass:
        """[S]: the center's stratum classes, summed once per center."""
        return self._total

    @cached_property
    def _total(self) -> MotivicClass:
        return MotivicClass.sum(self.center_strata.values())

    @cached_property
    def bundle_class(self) -> MotivicClass:
        """[S] * [P^(d-1)]: the P^(d-1)-bundle over S that blowing up puts in place of S."""
        return self._total * projective_class(self.codim - 1)


class BlowupResult:
    __slots__ = ("system", "loci", "fresh_id")

    def __init__(self, system: ModificationSystem, loci: dict[str, MarkedLocus], fresh_id: str):
        self.system, self.loci, self.fresh_id = system, loci, fresh_id


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
        if mask & k0_mask != k0_mask:
            problems.append(f"center stratum {system.ids_of(mask)} does not contain all of K0")
        if mask not in system.strata:
            problems.append(f"center is nonzero on the empty stratum {system.ids_of(mask)}")
        if (mask & ~k0_mask).bit_count() > n - d:
            problems.append(
                f"center stratum {system.ids_of(mask)} would create strata deeper than dimension {n}"
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
    """The module docstring's two rules, into a new dict that keeps no zero class.  Every center
    stratum contains K0, so no two of them write one fresh mask, and no fresh class is zero."""
    out = dict(old)
    for mask, cls in center_data.items():
        rest = old[mask] - cls if mask in old else -cls
        if rest.is_zero():
            del out[mask]
        else:
            out[mask] = rest
    for mask, cls in center_data.items():
        outside = mask & ~k0_mask
        sub = k0_mask
        while True:
            h = fiber[sub.bit_count()]
            if not h.is_zero():
                out[new_bit | outside | sub] = cls * h
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
    """Apply one blow-up, transforming the system and any marked loci.

    Only the center is checked; the results are built trusted, so a step costs what it
    touches.  A fresh multiplicity above :data:`mchern.ring.INPUT_BOUND` is refused, and so
    is a center on more than 16 divisors, and a step whose fresh strata exceed it: 2^|K0| for
    each center stratum of the system and of every locus.
    """
    k0_mask, center_strata = _center_masks(system, center)
    k0_size = k0_mask.bit_count()
    if 1 << k0_size > INPUT_BOUND:  # also caps the fiber table, built even for no center strata
        raise BlowupError(
            f"center lies on {k0_size} divisors: 2^{k0_size} fresh strata per center stratum"
            f" exceed the input bound {INPUT_BOUND}"
        )
    loci = list(loci)
    locus_data = {
        locus.name: _locus_center_data(system, center, center_strata, locus)
        for locus in loci
    }
    pieces = len(center_strata) + sum(map(len, locus_data.values()))
    if pieces << k0_size > INPUT_BOUND:
        raise BlowupError(
            f"center would write up to {pieces << k0_size} fresh strata, 2^{k0_size} for each of {pieces}"
            f" center strata in the system and its loci, more than the input bound {INPUT_BOUND}"
        )

    index = system._ident_index
    if fresh_id is None:
        step = len(system.divisors)
        while f"exc{step}" in index:
            step += 1
        fresh_id = f"exc{step}"
    elif fresh_id in index:
        raise BlowupError(f"fresh divisor id {fresh_id!r} already in use")

    d = center.codim
    mu0 = discrepancy(system.mu_of_mask(k0_mask), d)
    if mu0 > INPUT_BOUND:
        raise BlowupError(
            f"fresh divisor {fresh_id!r} multiplicity {mu0} exceeds the input bound {INPUT_BOUND}"
        )
    frame = FiberFrame(d, k0_size)
    fiber = [hyperplane_stratum_class(frame, size) for size in range(k0_size + 1)]
    new_bit = 1 << len(system.divisors)

    new_strata = _transform_strata(system.strata, center_strata, k0_mask, fiber, new_bit)
    ambient = system.ambient_class
    if ambient is not None:
        ambient = ambient + (center.bundle_class - center.total_class())
    new_system = ModificationSystem._of(
        system.ambient_dim,
        system.divisors + (Divisor(fresh_id, mu0),),
        new_strata,
        ambient,
        system.label,
        {**index, fresh_id: len(system.divisors)},
    )
    new_loci = {
        locus.name: MarkedLocus._of(
            locus.name,
            _transform_strata(locus.strata, locus_data[locus.name], k0_mask, fiber, new_bit),
        )
        for locus in loci
    }
    return BlowupResult(new_system, new_loci, fresh_id)


# -- verification -------------------------------------------------------------


class StepAudit:
    """One step's checks, ``{report key: verdict}``, and ``chi_delta``: chi(full) after it minus before."""

    __slots__ = ("index", "fresh_id", "checks", "chi_delta")

    def __init__(self, index: int, fresh_id: str, checks: dict[str, bool], chi_delta: MotivicClass):
        self.index, self.fresh_id, self.checks, self.chi_delta = index, fresh_id, checks, chi_delta

    @property
    def passed(self) -> bool:
        """The one pass rule for a step: every check holds."""
        return all(self.checks.values())


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

    One :func:`step_difference` of the system feeds all three checks, kept under the keys
    ``blowup run`` reports them by.  :func:`blow_up` only appends the fresh divisor, so old
    masks keep their weights: chi after minus chi before is chi of that difference in the
    new system, zero iff the step keeps chi.  The audit keeps that value as ``chi_delta``.
    Each locus is checked the same way on its own difference.
    """
    loci = list(loci)
    result = blow_up(system, center, loci)
    after = result.system
    diff = step_difference(system.strata, after.strata)
    locus_diffs = [step_difference(u.strata, result.loci[u.name].strata) for u in loci]
    chi_delta = after.chi(MarkedLocus("step", diff))
    checks = {
        "chi_invariant": chi_delta.is_zero()
        and all(after.chi(MarkedLocus("step", delta)).is_zero() for delta in locus_diffs),
        "total_class_ok": total_class_delta_matches(diff, center),
        "fiber_complete": fiber_completeness_holds(diff, center, after.mask_of(result.fresh_id)),
    }
    return result, StepAudit(index, result.fresh_id, checks, chi_delta)


def verify_invariance(
    system: ModificationSystem,
    center: BlowupCenter,
    loci: Iterable[MarkedLocus] = (),
) -> bool:
    """chi before equals chi after, for the full locus and every given locus."""
    return audited_step(system, center, loci)[1].checks["chi_invariant"]


def total_class_delta_matches(diff: Mapping[int, MotivicClass], center: BlowupCenter) -> bool:
    """Blow-up trades S for a P^(d-1)-bundle over it: the step's difference sums to that gain."""
    return MotivicClass.sum(diff.values()) == center.bundle_class - center.total_class()


def fiber_completeness_holds(
    diff: Mapping[int, MotivicClass], center: BlowupCenter, bit: int
) -> bool:
    """Strata with the fresh ``bit`` (all new, so all in ``diff``) sum to [S] * [P^(d-1)]."""
    total = MotivicClass.sum(cls for mask, cls in diff.items() if mask & bit)
    return total == center.bundle_class


# -- programs ------------------------------------------------------------------


class BlowupProgram:
    __slots__ = ("initial", "steps", "loci")

    def __init__(
        self,
        initial: ModificationSystem,
        steps: tuple[BlowupCenter, ...],
        loci: Optional[Mapping[str, MarkedLocus]] = None,
    ):
        self.initial, self.steps, self.loci = initial, steps, {} if loci is None else loci


class ProgramResult:
    def __init__(
        self,
        program: BlowupProgram,
        final: ModificationSystem,
        loci: dict[str, MarkedLocus],
        audits: tuple[StepAudit, ...],
        final_chi: MotivicClass,
    ):
        self.program, self.final, self.loci = program, final, loci
        self.audits, self.final_chi = audits, final_chi

    @property
    def all_checks_passed(self) -> bool:
        """Every step audit passed (:attr:`StepAudit.passed`)."""
        return all(a.passed for a in self.audits)

    @cached_property
    def snapshots(self) -> tuple[ModificationSystem, ...]:
        """The initial system and each step's, blown up again on request, unaudited: the run keeps none."""
        steps, initial = self.program.steps, self.program.initial
        return tuple(accumulate(steps, lambda system, step: blow_up(system, step).system, initial=initial))


def run_program(program: BlowupProgram) -> ProgramResult:
    """Left fold of blow_up over the steps, with per-step audits, keeping only the current system.

    Each step is blown up once, with the program's loci, and audited on that result.  The final chi
    is telescoped: chi of the initial system plus each step's nonzero ``chi_delta``, so the final
    system is never summed.  An input error raised by a step is re-raised with the step index attached.
    """
    system, loci = program.initial, dict(program.loci)
    audits: list[StepAudit] = []
    for index, step in enumerate(program.steps):
        try:
            result, audit = audited_step(system, step, loci.values(), index)
        except ValueError as exc:
            raise BlowupError(f"step {index}: {exc}") from exc
        audits.append(audit)
        system, loci = result.system, result.loci
    deltas = [a.chi_delta for a in audits if not a.chi_delta.is_zero()]
    final_chi = MotivicClass.sum([program.initial.chi(program.initial.full_locus())] + deltas)
    return ProgramResult(program, system, loci, tuple(audits), final_chi)


# -- JSON wire format ------------------------------------------------------------


def center_from_json(obj: Mapping) -> BlowupCenter:
    keys = {"containing": [], "center_strata": [], "locus_defaults": {}, "locus_center_strata": {}}
    codim, containing, strata, defaults, explicit = json_fields(obj, "blow-up step", ("codim",), keys)
    rules: dict[str, LocusRule] = {}
    for name, kind in json_object(defaults, "locus_defaults").items():
        if kind == CONTAINS_CENTER:
            rules[name] = LocusRule.contains()
        elif kind == DISJOINT_FROM_CENTER:
            rules[name] = LocusRule.disjoint()
        else:
            raise ValueError(f"unknown locus default {kind!r} for {name!r}")
    for name, entries in json_object(explicit, "locus_center_strata").items():
        if name in rules:
            raise BlowupError(f"locus {name!r} has both a locus_defaults kind and locus_center_strata")
        rules[name] = LocusRule.explicit(strata_from_json(entries))
    return BlowupCenter(
        codim=json_bounded(codim, "codim"),
        containing=subset_from_json(containing),
        center_strata=strata_from_json(strata),
        locus_rules=rules,
    )


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
    initial, entries = json_fields(obj, "program object", ("initial",), {"steps": []})
    system, loci = system_from_json(initial)
    steps = []
    for index, entry in enumerate(json_list(entries, "steps")):
        try:  # a step gives a rule only to a declared locus, and one rule to each
            steps.append(step := center_from_json(entry))
            if undeclared := sorted(step.locus_rules.keys() - loci.keys()):
                raise BlowupError(f"locus {undeclared[0]!r} has a rule but is not declared")
        except ValueError as exc:
            raise BlowupError(f"step {index}: {exc}") from exc
    return BlowupProgram(system, tuple(steps), loci)


def program_to_json(program: BlowupProgram) -> dict:
    return {
        "initial": system_to_json(program.initial, program.loci or None),
        "steps": [center_to_json(step) for step in program.steps],
    }
