import random

import pytest

from mchern.blowup import (
    BlowupCenter,
    BlowupError,
    BlowupProgram,
    LocusRule,
    blow_up,
    fiber_completeness_holds,
    run_program,
    total_class_delta_matches,
    verify_invariance,
)
from mchern.modsys import Divisor, MarkedLocus, ModificationSystem
from mchern.ring import LPolynomial, MotivicClass, affine_class, projective_class
from mchern.sampling import random_invariance_case

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


class TestBookkeepingInvariants:
    def test_total_class_update(self):
        system = trivial_plane()
        center = point_center()
        result = blow_up(system, center)
        assert total_class_delta_matches(system, result.system, center)
        assert fiber_completeness_holds(result.system, center, result.fresh_id)

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
            assert total_class_delta_matches(system, result.system, center)
            assert fiber_completeness_holds(result.system, center, result.fresh_id)


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
        assert not audit.invariance_ok
        assert audit.total_class_ok and audit.fiber_complete
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
