import gc
import itertools
import random

import pytest

from corpus import blowup_program
from mchern.blowup import (
    BlowupCenter,
    BlowupError,
    BlowupProgram,
    LocusRule,
    StepAudit,
    _transform_strata,
    audited_step,
    blow_up,
    fiber_completeness_holds,
    run_program,
    step_difference,
    total_class_delta_matches,
    verify_invariance,
)
from mchern.modsys import Divisor, MarkedLocus, ModificationSystem, system_to_json
from mchern.ring import INPUT_BOUND, LPolynomial, MotivicClass, affine_class, projective_class
from mchern.sampling import random_invariance_case
from mchern.strata import hyperplane_stratum_class

PLANE = MotivicClass(LPolynomial((1, 1, 1)))


def trivial_plane():
    return ModificationSystem(2, (), {(): PLANE}, ambient_class=PLANE, label="P2")


def point_center(on=frozenset()):
    strata = {frozenset(on): MotivicClass.one()}
    return BlowupCenter(codim=2, containing=frozenset(on), center_strata=strata)


class TestSingleBlowup:
    def test_point_on_plane(self):
        result = blow_up(trivial_plane(), point_center())
        system = result.system
        assert [d.mu for d in system.divisors] == [1]
        assert system.stratum(()) == MotivicClass(LPolynomial((0, 1, 1)))
        assert system.stratum((result.fresh_id,)) == projective_class(1)
        assert system.total_class() == MotivicClass(LPolynomial((1, 2, 1)))
        assert system.validate() == []

    def test_point_on_exceptional_curve(self):
        first = blow_up(trivial_plane(), point_center())
        eid = first.fresh_id
        second = blow_up(first.system, point_center(on={eid}))
        system = second.system
        assert [d.mu for d in system.divisors] == [1, 2]
        assert system.stratum(()) == MotivicClass(LPolynomial((0, 1, 1)))
        assert system.stratum((eid,)) == affine_class(1)
        assert system.stratum((second.fresh_id,)) == affine_class(1)
        assert system.stratum((eid, second.fresh_id)) == MotivicClass.one()
        assert system.total_class() == MotivicClass(LPolynomial((1, 3, 1)))

    def test_codim_one_center_moves_classes(self):
        # d = 1: the fiber is a point, so nothing is gained; the class of the
        # center migrates onto the new divisor with multiplicity 0
        center = BlowupCenter(
            codim=1,
            containing=frozenset(),
            center_strata={frozenset(): projective_class(1)},
        )
        result = blow_up(trivial_plane(), center)
        system = result.system
        assert [d.mu for d in system.divisors] == [0]
        assert system.stratum((result.fresh_id,)) == projective_class(1)
        assert system.stratum(()) == PLANE - projective_class(1)
        assert system.total_class() == PLANE
        # the mu = 0 weight [P^0] = 1 is dropped from chi's denominators
        fresh = system.mask_of(result.fresh_id)
        assert system.chi(MarkedLocus("E", {fresh: system.strata[fresh]})).den == ()
        assert system.chi(system.full_locus()) == PLANE

    def test_fresh_id_collision_avoided(self):
        system = ModificationSystem(2, (("exc0", 1),), {(): PLANE})
        center = BlowupCenter(
            codim=2, containing=frozenset(), center_strata={frozenset(): MotivicClass.one()}
        )
        result = blow_up(system, center)
        assert result.fresh_id == "exc1"
        with pytest.raises(BlowupError):
            blow_up(system, center, fresh_id="exc0")


class TestCenterValidation:
    def test_stratum_not_containing_k0_rejected(self):
        first = blow_up(trivial_plane(), point_center())
        eid = first.fresh_id
        bad = BlowupCenter(
            codim=2,
            containing=frozenset({eid}),
            center_strata={frozenset(): MotivicClass.one()},
        )
        with pytest.raises(BlowupError, match="does not contain"):
            blow_up(first.system, bad)

    def test_center_on_empty_stratum_rejected(self):
        first = blow_up(trivial_plane(), point_center())
        second = blow_up(first.system, point_center())  # two disjoint points
        a, b = first.fresh_id, second.fresh_id
        bad = BlowupCenter(
            codim=2,
            containing=frozenset({a, b}),
            center_strata={frozenset({a, b}): MotivicClass.one()},
        )
        with pytest.raises(BlowupError, match="empty stratum"):
            blow_up(second.system, bad)

    def test_codim_out_of_range(self):
        with pytest.raises(BlowupError, match="codimension"):
            blow_up(trivial_plane(), BlowupCenter(codim=3, center_strata={frozenset(): MotivicClass.one()}))

    def test_unknown_containing_id(self):
        bad = BlowupCenter(
            codim=2,
            containing=frozenset({"ghost"}),
            center_strata={frozenset(): MotivicClass.one()},
        )
        with pytest.raises(BlowupError, match="ghost"):
            blow_up(trivial_plane(), bad)

    def test_too_deep_center_stratum_rejected(self):
        first = blow_up(trivial_plane(), point_center())
        eid = first.fresh_id
        # a codim-2 center through a divisor it does not contain would create
        # depth-3 strata on a surface
        bad = BlowupCenter(
            codim=2,
            containing=frozenset(),
            center_strata={frozenset({eid}): MotivicClass.one()},
        )
        with pytest.raises(BlowupError, match="deeper"):
            blow_up(first.system, bad)

    def test_center_on_more_divisors_than_codim_rejected(self):
        first = blow_up(trivial_plane(), point_center())
        second = blow_up(first.system, point_center(on={first.fresh_id}))
        both = frozenset({first.fresh_id, second.fresh_id})  # their crossing point
        bad = BlowupCenter(codim=1, containing=both, center_strata={both: MotivicClass.one()})
        with pytest.raises(BlowupError) as info:
            blow_up(second.system, bad)
        assert str(info.value) == "center lies on 2 divisors, more than its codimension 1"

    def test_every_problem_is_reported_in_order(self):
        first = blow_up(trivial_plane(), point_center())
        second = blow_up(first.system, point_center())  # two disjoint points
        both = frozenset({first.fresh_id, second.fresh_id})
        bad = BlowupCenter(codim=1, containing=both, center_strata={both: MotivicClass.one()})
        with pytest.raises(BlowupError) as info:
            blow_up(second.system, bad)
        assert str(info.value) == (
            "center lies on 2 divisors, more than its codimension 1; "
            "center is nonzero on the empty stratum ('exc0', 'exc1')"
        )


class TestBookkeepingInvariants:
    def test_total_class_update(self):
        system = trivial_plane()
        center = point_center()
        result = blow_up(system, center)
        diff = step_difference(system.strata, result.system.strata)
        assert total_class_delta_matches(diff, center)
        assert fiber_completeness_holds(diff, center, result.system.mask_of(result.fresh_id))

    def test_multiplicity_rule(self):
        first = blow_up(trivial_plane(), point_center())
        second = blow_up(first.system, point_center(on={first.fresh_id}))
        d = 2
        mus = {div.ident: div.mu for div in second.system.divisors}
        assert mus[second.fresh_id] - (d - 1) == mus[first.fresh_id]

    def test_randomized_bookkeeping(self):
        rng = random.Random(23)
        for _ in range(40):
            system, center, _ = random_invariance_case(rng, max_divisors=6)
            result = blow_up(system, center)
            diff = step_difference(system.strata, result.system.strata)
            assert total_class_delta_matches(diff, center)
            assert fiber_completeness_holds(diff, center, result.system.mask_of(result.fresh_id))


class TestInvariance:
    def test_point_blowup_full_locus(self):
        assert verify_invariance(trivial_plane(), point_center())

    def test_nested_two_step(self):
        first = blow_up(trivial_plane(), point_center())
        assert verify_invariance(first.system, point_center(on={first.fresh_id}))
        # the fiber part collapses: (L^3 + 2L^2 + 2L + 1) / ([P^1][P^2]) = 1
        num = MotivicClass(LPolynomial((1, 2, 2, 1)), (1, 2))
        assert num == 1

    def test_randomized_invariance(self):
        rng = random.Random(5)
        for _ in range(60):
            system, center, loci = random_invariance_case(rng, max_divisors=6)
            assert verify_invariance(system, center, loci)

    def test_invariance_agrees_with_evaluation_oracle(self):
        # second equality route: two localized fractions are equal iff they
        # agree at enough integer points; cross-check chi before and after
        rng = random.Random(13)
        for _ in range(20):
            system, center, loci = random_invariance_case(rng, max_divisors=5)
            full = system.full_locus("full-check")
            rules = dict(center.locus_rules)
            rules["full-check"] = LocusRule.contains()
            center = BlowupCenter(
                center.codim, center.containing, dict(center.center_strata), rules
            )
            result = blow_up(system, center, [full, *loci])
            for locus in (full, *loci):
                before = system.chi(locus)
                after = result.system.chi(result.loci[locus.name])
                assert before == after
                for q in range(2, 9):
                    assert before.eval_at(q) == after.eval_at(q)

    def test_marked_locus_defaults(self):
        system = blow_up(trivial_plane(), point_center()).system
        eid = system.idents[0]
        fiber = MarkedLocus("fiber", {system.mask_of((eid,)): projective_class(1)})
        away = MarkedLocus("away", {0: affine_class(2)})
        center = BlowupCenter(
            codim=2,
            containing=frozenset({eid}),
            center_strata={frozenset({eid}): MotivicClass.one()},
            locus_rules={"fiber": LocusRule.contains(), "away": LocusRule.disjoint()},
        )
        assert verify_invariance(system, center, [fiber, away])
        result = blow_up(system, center, [fiber, away])
        assert result.system.chi(result.loci["fiber"]) == 1
        assert result.system.chi(result.loci["away"]) == affine_class(2)

    def test_missing_locus_rule_rejected(self):
        system = trivial_plane()
        locus = MarkedLocus("T", {0: MotivicClass.one()})
        with pytest.raises(BlowupError, match="no center rule"):
            blow_up(system, point_center(), [locus])

    def test_locus_rule_kinds_are_checked(self):
        with pytest.raises(ValueError, match="^unknown locus rule kind 'sometimes'$"):
            LocusRule("sometimes")
        with pytest.raises(ValueError, match="^explicit locus rule requires stratum classes$"):
            LocusRule("explicit")
        assert LocusRule("explicit", {}).strata == {}

    def test_explicit_rule_outside_center_rejected(self):
        system = blow_up(trivial_plane(), point_center()).system
        eid = system.idents[0]
        locus = MarkedLocus("T", {0: MotivicClass.one()})
        center = BlowupCenter(
            codim=2,
            containing=frozenset(),
            center_strata={frozenset(): MotivicClass.one()},
            locus_rules={"T": LocusRule.explicit({frozenset({eid}): MotivicClass.one()})},
        )
        with pytest.raises(BlowupError, match="center itself is empty"):
            blow_up(system, center, [locus])


class TestPrograms:
    def test_empty_program(self):
        system = trivial_plane()
        outcome = run_program(BlowupProgram(system, ()))
        assert outcome.final is system
        assert outcome.snapshots == (system,)
        assert outcome.all_checks_passed
        assert outcome.final_chi == PLANE

    def test_two_step_nested(self):
        program = BlowupProgram(
            trivial_plane(),
            (
                point_center(),
                BlowupCenter(
                    codim=2,
                    containing=frozenset({"exc0"}),
                    center_strata={frozenset({"exc0"}): MotivicClass.one()},
                ),
            ),
        )
        outcome = run_program(program)
        assert outcome.all_checks_passed
        assert outcome.final.total_class() == MotivicClass(LPolynomial((1, 3, 1)))
        assert len(outcome.snapshots) == 3
        assert outcome.final.chi(outcome.final.full_locus()) == PLANE
        assert outcome.final_chi == PLANE

    def test_two_disjoint_points(self):
        program = BlowupProgram(trivial_plane(), (point_center(), point_center()))
        outcome = run_program(program)
        assert [d.mu for d in outcome.final.divisors] == [1, 1]
        assert outcome.final.total_class() == MotivicClass(LPolynomial((1, 3, 1)))

    def test_audit_catches_wrong_fresh_multiplicity(self, monkeypatch):
        # a fresh divisor one too heavy breaks chi invariance but neither
        # bookkeeping check, so only the before/after comparison can flag it
        monkeypatch.setattr("mchern.blowup.Divisor", lambda ident, mu: Divisor(ident, mu + 1))
        outcome = run_program(BlowupProgram(trivial_plane(), (point_center(),)))
        [audit] = outcome.audits
        assert not audit.checks["chi_invariant"]
        assert_telescoped(outcome)
        assert audit.checks["total_class_ok"] and audit.checks["fiber_complete"]
        assert not outcome.all_checks_passed

    def test_error_carries_step_index(self):
        bad = BlowupCenter(
            codim=2,
            containing=frozenset({"nowhere"}),
            center_strata={frozenset(): MotivicClass.one()},
        )
        program = BlowupProgram(trivial_plane(), (point_center(), bad))
        with pytest.raises(BlowupError, match="step 1"):
            run_program(program)

    def test_chi_returns_initial_class(self):
        # growing a random tower from the plane keeps chi(full) at the plane class
        rng = random.Random(31)
        for _ in range(10):
            system = trivial_plane()
            for _ in range(rng.randint(1, 4)):
                from mchern.sampling import random_center

                center = random_center(rng, system)
                if center is None:
                    break
                system = blow_up(system, center).system
            assert system.chi(system.full_locus()) == PLANE


def point_chain(rng, length):
    """A point of the plane, then points each on the newest divisor or on its crossing
    with the one before.  Locus U is the plane; V, a line, draws its rule per step."""

    def center(on):
        rules = {
            "U": LocusRule.contains(),
            "V": rng.choice((LocusRule.contains(), LocusRule.disjoint())),
        }
        return BlowupCenter(2, frozenset(on), {frozenset(on): MotivicClass.one()}, rules)

    steps = [center(())]
    for n in range(length - 1):
        steps.append(center({f"exc{n}", f"exc{n - 1}"} if n and rng.random() < 0.4 else {f"exc{n}"}))
    loci = {"U": MarkedLocus("U", {0: PLANE}), "V": MarkedLocus("V", {0: projective_class(1)})}
    return BlowupProgram(trivial_plane(), tuple(steps), loci)


def assert_local_audit_matches_resum(system, center, loci):
    """The local difference's chi is chi after minus chi before, the full re-sum."""
    result = blow_up(system, center, loci)
    after = result.system
    assert after.divisors[:-1] == system.divisors  # old masks keep their weights
    pairs = [(system.full_locus(), after.full_locus())]
    pairs += [(locus, result.loci[locus.name]) for locus in loci]
    for old, new in pairs:
        local = after.chi(MarkedLocus(old.name, step_difference(old.strata, new.strata)))
        assert local == after.chi(new) - system.chi(old)
    return result


class TestLocalAudit:
    def test_random_cases_match_full_resum(self):
        for seed in range(200):
            system, center, loci = random_invariance_case(random.Random(seed), max_divisors=6)
            assert_local_audit_matches_resum(system, center, loci)

    def test_chain_steps_match_full_resum(self):
        rng = random.Random(7)
        for _ in range(4):
            program = point_chain(rng, 14)
            system, loci = program.initial, list(program.loci.values())
            for center in program.steps:
                result = assert_local_audit_matches_resum(system, center, loci)
                system, loci = result.system, list(result.loci.values())
            assert run_program(program).all_checks_passed

    def test_difference_feeds_the_bookkeeping_checks(self):
        # oracle: the whole-system routes the two checks took before reading the difference
        cases = [
            random_invariance_case(random.Random(seed), max_divisors=6)[:2] for seed in range(100)
        ]
        rng = random.Random(11)
        for _ in range(3):
            program = point_chain(rng, 12)
            system = program.initial
            for center in program.steps:
                cases.append((system, center))
                system = blow_up(system, center).system
        for before, center in cases:
            result = blow_up(before, center)
            after = result.system
            diff = step_difference(before.strata, after.strata)
            assert MotivicClass.sum(diff.values()) == after.total_class() - before.total_class()
            bit = after.mask_of(result.fresh_id)
            fresh = {m: c for m, c in diff.items() if m & bit}
            expected = {m: c for m, c in after.strata.items() if m & bit}
            assert fresh == expected
            assert all(fresh[m] is c for m, c in expected.items())

    def test_one_system_difference_per_step(self, monkeypatch):
        calls = []

        def counting(old, new):
            calls.append(1)
            return step_difference(old, new)

        monkeypatch.setattr("mchern.blowup.step_difference", counting)
        for steps in (1, 5, 14):
            program = point_chain(random.Random(steps), steps)
            calls.clear()
            assert run_program(program).all_checks_passed
            assert len(calls) == steps * (1 + len(program.loci))
        calls.clear()
        run_program(BlowupProgram(trivial_plane(), (point_center(), point_center())))
        assert len(calls) == 2

    def test_a_step_passes_only_when_all_three_checks_hold(self):
        for flags in itertools.product((True, False), repeat=3):
            checks = dict(zip(("chi_invariant", "total_class_ok", "fiber_complete"), flags))
            assert StepAudit(0, "exc0", checks, MotivicClass.zero()).passed is all(flags)

    def test_difference_walks_every_mask(self):
        one, two = MotivicClass.one(), MotivicClass.from_int(2)
        old = {0: PLANE, 1: one, 2: one}
        new = {0: PLANE, 1: two, 4: one}
        diff = step_difference(old, new)
        assert sorted(diff) == [1, 2, 4]
        assert diff[1] == 1 and diff[2] == -1 and diff[4] == 1

    def test_corrupting_a_stratum_away_from_the_center_fails_the_step(self, monkeypatch):
        def corrupt(old, center_data, *rest):
            out = _transform_strata(old, center_data, *rest)
            far = min((m for m in old if m not in center_data), default=None)
            if far is not None:
                out[far] = out[far] + out[far]
            return out

        monkeypatch.setattr("mchern.blowup._transform_strata", corrupt)
        # step 0 has no stratum away from its center; steps 1 and 2 each double one
        centers = (point_center(), point_center(on={"exc0"}), point_center())
        outcome = run_program(BlowupProgram(trivial_plane(), centers))
        first, *later = outcome.audits
        assert first.checks["chi_invariant"] and first.checks["total_class_ok"]
        for audit in later:
            assert not audit.checks["chi_invariant"] and not audit.checks["total_class_ok"]
            assert audit.checks["fiber_complete"]
        assert_telescoped(outcome)
        _, audit = audited_step(outcome.snapshots[1], centers[1], ())
        assert not audit.checks["chi_invariant"] and not audit.checks["total_class_ok"]
        assert not verify_invariance(outcome.snapshots[1], centers[1])

    def test_corrupting_a_locus_away_from_the_center_fails_chi_only(self, monkeypatch):
        system = blow_up(trivial_plane(), point_center()).system
        locus = system.full_locus("U")
        center = BlowupCenter(
            2, frozenset({"exc0"}), {frozenset({"exc0"}): MotivicClass.one()},
            {"U": LocusRule.contains()},
        )
        assert audited_step(system, center, [locus])[1].checks["chi_invariant"]

        def corrupt(old, *rest):
            out = _transform_strata(old, *rest)
            if old is locus.strata:  # the open stratum, away from the point on exc0
                out[0] = out[0] + out[0]
            return out

        monkeypatch.setattr("mchern.blowup._transform_strata", corrupt)
        _, audit = audited_step(system, center, [locus])
        assert not audit.checks["chi_invariant"]
        assert audit.checks["total_class_ok"] and audit.checks["fiber_complete"]


def assert_telescoped(outcome):
    """final_chi equals the whole final system re-summed, in value and in report bytes."""
    resum = outcome.final.chi(outcome.final.full_locus())
    assert outcome.final_chi == resum
    assert outcome.final_chi.to_json() == resum.to_json()


class TestTelescopedChi:
    def test_corpus_programs(self, corpus_programs):
        for events in corpus_programs[:200]:
            outcome = run_program(blowup_program(events))
            assert outcome.all_checks_passed
            assert_telescoped(outcome)
            assert outcome.final_chi.to_json() == PLANE.to_json()

    def test_point_chains(self):
        rng = random.Random(5)
        for length in (1, 2, 6, 12, 24):
            outcome = run_program(point_chain(rng, length))
            assert outcome.all_checks_passed
            assert all(a.chi_delta.is_zero() for a in outcome.audits)
            assert_telescoped(outcome)

    def test_failing_programs(self, monkeypatch, corpus_programs):
        # one too heavy a fresh divisor: every step changes chi, so every delta counts
        monkeypatch.setattr("mchern.blowup.Divisor", lambda ident, mu: Divisor(ident, mu + 1))
        rng = random.Random(6)
        programs = [blowup_program(events) for events in corpus_programs[1:120]]
        programs += [point_chain(rng, length) for length in (1, 2, 6, 12)]
        for program in programs:
            outcome = run_program(program)
            assert not any(a.chi_delta.is_zero() or a.passed for a in outcome.audits)
            assert_telescoped(outcome)

    def test_final_system_is_never_summed(self, monkeypatch):
        whole = []
        original = ModificationSystem.chi

        def recording(system, locus):
            if locus.strata.keys() == system.strata.keys() and all(
                locus.strata[m] is cls for m, cls in system.strata.items()
            ):
                whole.append(system)
            return original(system, locus)

        monkeypatch.setattr(ModificationSystem, "chi", recording)
        for steps in (1, 5, 14):
            program = point_chain(random.Random(steps), steps)
            whole.clear()
            outcome = run_program(program)
            assert outcome.all_checks_passed
            assert whole == [program.initial]


def live_systems():
    # ModificationSystem has __slots__ and no __weakref__, so the live ones are counted through gc
    return sum(isinstance(obj, ModificationSystem) for obj in gc.get_objects())


class TestSystemsKept:
    def test_a_run_keeps_only_the_current_system(self, monkeypatch):
        alive, audited = [], audited_step

        def counting(*args):
            out = audited(*args)
            alive.append(live_systems())
            return out

        gc.collect()
        before = live_systems()
        steps = (point_center(),) + tuple(point_center(on={f"exc{j}"}) for j in range(39))
        program = BlowupProgram(trivial_plane(), steps)
        monkeypatch.setattr("mchern.blowup.audited_step", counting)
        assert run_program(program).all_checks_passed
        # the initial system, the step's input and its output
        assert len(alive) == 40 and max(alive) - before <= 3

    def test_snapshots_are_an_unaudited_blow_up_fold(self, corpus_programs):
        rng = random.Random(9)
        programs = [BlowupProgram(trivial_plane(), ())]
        programs += [point_chain(rng, length) for length in (1, 2, 6, 12)]
        programs += [blowup_program(events) for events in corpus_programs[:100]]
        for program in programs:
            systems = [program.initial]
            for center in program.steps:
                systems.append(blow_up(systems[-1], center).system)
            outcome = run_program(program)
            assert "snapshots" not in vars(outcome)  # derived on request, not kept by the run
            assert list(map(system_to_json, outcome.snapshots)) == list(map(system_to_json, systems))
            assert system_to_json(outcome.snapshots[-1]) == system_to_json(outcome.final)

    def test_any_input_error_in_a_step_names_the_step(self, monkeypatch):
        original = hyperplane_stratum_class

        def failing(frame, size):
            if frame.k:  # the second step is the first on a divisor
                raise ValueError("no fiber here")
            return original(frame, size)

        monkeypatch.setattr("mchern.blowup.hyperplane_stratum_class", failing)
        program = BlowupProgram(trivial_plane(), (point_center(), point_center(on={"exc0"})))
        with pytest.raises(BlowupError) as info:
            run_program(program)
        assert str(info.value) == "step 1: no fiber here"


def assert_built_as_checked(before, loci, result):
    """The trusted system and loci equal, field for field, what the checking constructors
    make of the same parts: one divisor appended, no zero class, the same mask of every id."""
    after = result.system
    checked = ModificationSystem(
        after.ambient_dim, after.divisors, after.strata,
        ambient_class=after.ambient_class, label=after.label,
    )
    assert after.divisors[:-1] == before.divisors
    assert after.divisors[-1].ident == result.fresh_id
    assert not any(cls.is_zero() for cls in after.strata.values())
    assert after.strata.keys() == checked.strata.keys()
    assert all(after.strata[m] is cls for m, cls in checked.strata.items())
    assert (after.ambient_dim, after.label) == (checked.ambient_dim, checked.label)
    assert after.ambient_class is checked.ambient_class
    assert all(after.mask_of(i) == checked.mask_of(i) == 1 << n for n, i in enumerate(after.idents))
    for locus in loci:
        got = result.loci[locus.name]
        want = MarkedLocus(locus.name, got.strata)
        assert not any(cls.is_zero() for cls in got.strata.values())
        assert got.strata == want.strata and got.name == want.name


class TestTrustedConstruction:
    def test_corpus_program_steps(self, corpus_programs):
        # intersection events empty a crossing stratum, so zero classes do arise
        emptied = 0
        for events in corpus_programs[:150]:
            program = blowup_program(events)
            system, loci = program.initial, list(program.loci.values())
            for center in program.steps:
                result = blow_up(system, center, loci)
                assert_built_as_checked(system, loci, result)
                masks = [system.mask_of(tuple(key)) for key in center.center_strata]
                emptied += any(m not in result.system.strata for m in masks)
                system, loci = result.system, list(result.loci.values())
        assert emptied

    def test_random_invariance_cases(self):
        for seed in range(50):
            system, center, loci = random_invariance_case(random.Random(seed), max_divisors=6)
            assert_built_as_checked(system, loci, blow_up(system, center, loci))


class TestDerivedMultiplicityBound:
    def one_divisor(self, mu):
        line = projective_class(1)
        return ModificationSystem(2, (("a", mu),), {(): PLANE - line, ("a",): line})

    def test_fresh_multiplicity_at_the_bound_is_kept(self):
        result = blow_up(self.one_divisor(INPUT_BOUND - 1), point_center(on={"a"}))
        assert result.system.divisors[-1].mu == INPUT_BOUND

    def test_fresh_multiplicity_past_the_bound_is_refused(self):
        with pytest.raises(BlowupError, match=f"'exc1' multiplicity {INPUT_BOUND + 1} exceeds"):
            blow_up(self.one_divisor(INPUT_BOUND), point_center(on={"a"}))

    def test_program_names_the_step(self):
        centers = (point_center(), point_center(on={"a"}))
        program = BlowupProgram(self.one_divisor(INPUT_BOUND), centers)
        with pytest.raises(BlowupError, match="^step 1: fresh divisor 'exc2'"):
            run_program(program)


def all_divisors_program(count):
    """``count`` divisors meeting in one stratum, and a center on all of them."""
    ids = [f"d{i}" for i in range(count)]
    system = ModificationSystem(count, [(i, 0) for i in ids], {(): PLANE, tuple(ids): MotivicClass.one()})
    everything = frozenset(ids)
    center = BlowupCenter(count, everything, {everything: MotivicClass.one()})
    return system, center


class TestCenterDivisorBound:
    def test_a_center_on_16_divisors_is_blown_up(self):
        system, center = all_divisors_program(16)
        result = blow_up(system, center)
        # the open stratum, and the fresh divisor on each proper subset of K0: on all of K0
        # the fiber class is [P^(d - |K0| - 1)] = [P^-1] = 0
        assert len(result.system.strata) == 2**16

    def test_a_center_on_17_divisors_is_refused(self):
        system, center = all_divisors_program(17)
        with pytest.raises(BlowupError) as info:
            blow_up(system, center)
        assert str(info.value) == (
            "center lies on 17 divisors: 2^17 fresh strata per center stratum"
            " exceed the input bound 65536"
        )
