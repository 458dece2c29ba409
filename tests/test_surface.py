import random
from fractions import Fraction
from math import lcm, prod

import pytest

from corpus import (
    apply_event,
    chow_point,
    final_transposition,
    is_constant,
    order_swap_pairs,
    random_tower,
    systems_isomorphic_under,
    value_at,
)
from mchern import cfun, ring
from mchern.blowup import BlowupCenter, BlowupProgram, run_program
from mchern.modsys import MarkedLocus, ModificationSystem
from mchern.ring import INPUT_BOUND, LPolynomial, MotivicClass
from mchern.surface import (
    ChowClass,
    GenericPoint,
    IntersectionPoint,
    PointOnCurve,
    RelativeArrangement,
    SurfaceModel,
    swap_last_two,
)

NESTED2 = (GenericPoint(), PointOnCurve(1))
CHAIN3 = (GenericPoint(), PointOnCurve(1), IntersectionPoint(1, 2))


def center_curves(event):
    """The curves an event's center lies on, read from the event alone."""
    if isinstance(event, PointOnCurve):
        return (event.curve,)
    if isinstance(event, IntersectionPoint):
        return (event.a, event.b)
    return ()


def curve_class(s, j):
    """Proper transform of curve j: e_j minus the e of each later center on j.

    Read from the events alone, as an oracle independent of the CSM route.
    """
    curves = [0] * (s.k + 1)
    curves[j] = 1
    for n, event in enumerate(s.events, start=1):
        if j in center_curves(event):
            curves[n] = -1
    return ChowClass(0, curves, 0)


def anchors(s):
    """The base points over which the curves lie, in first-seen order."""
    return tuple(dict.fromkeys(s.relative(0).roots.values()))


def arrangement(rel):
    """The fields of a relative arrangement, which has no ``==`` of its own."""
    return rel.stage, rel.curves, rel.mus, rel.pairs, rel.meets, rel.roots, rel.root_order


def divisor_fields(system):
    """A system's divisors as ``(ident, mu)`` pairs."""
    return [(d.ident, d.mu) for d in system.divisors]


def long_towers():
    """Random towers with crossings at k = 40 and 64, whose fiber chis merge numerators
    past 64 coefficients.  A run of crossings with the newest curve grows its discrepancy
    like a Fibonacci number, and ``SurfaceModel.relative`` refuses one past the input bound,
    so the towers are checked to stay within it."""
    rng = random.Random(0)
    towers = [random_tower(rng, k) for k in (40, 64)]
    assert all(max(s.discrepancies) <= INPUT_BOUND for s in towers)
    return towers


def unit_weighing_mu_plus_two(rel):
    """``RelativeArrangement.unit`` with the wrong weight rule 1 / prod (mu_i + 2)."""
    weights = {key: prod(rel.mus[j] + 2 for j in key) for key in ((),) + rel.strata}
    den = lcm(*weights.values())
    return den, {key: den // w for key, w in weights.items()}


def checked_export(s, m):
    """The stage-m export rebuilt through the checking constructors, each fiber locus
    found by a scan of every stratum."""
    rel = s.relative(m)
    bit = {t: 1 << i for i, t in enumerate(rel.curves)}
    mask = {key: sum(bit[t] for t in key) for key in rel.strata}
    classes = {
        key: MotivicClass(LPolynomial((rel.euler(key) - 1, 1))) if len(key) == 1 else MotivicClass.one()
        for key in rel.strata
    }
    ambient = s.class_of_stage(s.k)
    strata = {0: ambient - MotivicClass.sum(classes.values())}
    strata.update((mask[key], cls) for key, cls in classes.items())
    system = ModificationSystem(
        2,
        [(f"e{t}", rel.mus[t]) for t in rel.curves],
        strata,
        ambient_class=ambient,
        label=f"plane blow-ups k={s.k}, stage {m}",
    )
    loci = {"full": system.full_locus("full")}
    for root in rel.root_order:
        loci[root] = MarkedLocus(
            root, {mask[key]: cls for key, cls in classes.items() if rel.root(key) == root}
        )
    return system, loci


def reference_stage_checks(s, m):
    """The checks of SurfaceModel.stage_checks by the public route: the stringy class, the
    weighted unit pushed forward by cfun, and the checked export."""
    pushed = s.pushforward(s.stringy_class(m), m)
    unit = cfun.pushforward(s, cfun.weighted_unit(s, m), m)
    checks = {
        "pushforward_matches_chern": pushed == s.stage_model(m).chern_class(),
        "unit_pushforward": is_constant(unit, 1),
    }
    if m == 0:
        checks["fiber_profiles_one"] = all(value_at(unit, a) == 1 for a in s.relative(0).root_order)
    system, loci = checked_export(s, m)
    fiber_chi = [system.chi(locus).reduced() for name, locus in loci.items() if name != "full"]
    chi_full = MotivicClass.sum([system.stratum(0)] + fiber_chi)
    stage_class = s.class_of_stage(m)
    checks["chi_matches_stage_class"] = chi_full == stage_class
    checks["euler_chi"] = system.euler_chi(loci["full"]) == stage_class.euler_specialize()
    checks["fiber_chi_one"] = all(chi == 1 for chi in fiber_chi)
    return checks


class TestChowClass:
    def test_vector_arithmetic(self):
        a = ChowClass(1, (3, -1), 4)
        b = ChowClass(0, (0, 1), 2)
        assert a + b == ChowClass(1, (3, 0), 6)
        assert a - b == ChowClass(1, (3, -2), 2)
        assert Fraction(1, 2) * b == ChowClass(0, (0, Fraction(1, 2)), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ChowClass(1, (3,), 3) + ChowClass(1, (3, -1), 4)

    def test_repr_mentions_generators(self):
        text = repr(ChowClass(1, (3, Fraction(-3, 2)), 3))
        assert "[Z]" in text and "h" in text and "e1" in text and "[pt]" in text

    def test_int_and_fraction_coordinates_agree(self):
        # coordinates are kept as given, so ints and equal Fractions must not differ
        ints = ChowClass(1, [3, -1, 0], 4)
        fractions = ChowClass(Fraction(1), (Fraction(3), Fraction(-1), Fraction(0)), Fraction(4))
        assert ints == fractions
        assert hash(ints) == hash(fractions)
        assert ints.to_json() == fractions.to_json()
        assert repr(ints) == repr(fractions)


@pytest.mark.parametrize("stage", [-1, 4])
@pytest.mark.parametrize(
    "call",
    [
        lambda s, m: s.stage_model(m),
        lambda s, m: s.relative(m),
        lambda s, m: s.pushforward(s.chern_class(), m),
        lambda s, m: s.class_of_stage(m),
    ],
    ids=["stage_model", "relative", "pushforward", "class_of_stage"],
)
def test_a_stage_outside_0_to_k_is_refused(call, stage):
    surface = SurfaceModel(CHAIN3)
    surface.relative(3)  # a kept arrangement must not let another stage through
    with pytest.raises(ValueError) as info:
        call(surface, stage)
    assert str(info.value) == f"stage {stage} out of range 0..3"


class TestEvents:
    def test_three_step_chain(self):
        s = SurfaceModel(CHAIN3)
        assert s.k == 3
        assert s.discrepancies == (1, 2, 4)
        assert curve_class(s, 1) == ChowClass(0, (0, 1, -1, -1), 0)
        assert curve_class(s, 2) == ChowClass(0, (0, 0, 1, -1), 0)
        assert curve_class(s, 3) == ChowClass(0, (0, 0, 0, 1), 0)
        assert s.meeting_pairs() == ((1, 3), (2, 3))
        assert anchors(s) == ("p1",)

    def test_first_blowup(self):
        s = SurfaceModel((GenericPoint(),))
        assert s.k == 1
        assert s.discrepancies == (1,)
        assert s.meeting_pairs() == ()
        assert curve_class(s, 1) == ChowClass(0, (0, 1), 0)

    def test_two_anchors(self):
        s = SurfaceModel((GenericPoint(), GenericPoint(), PointOnCurve(2)))
        assert anchors(s) == ("p1", "p2")
        assert s.relative(0).roots[3] == "p2"

    def test_meeting_curves_contract_to_one_point(self, corpus_surfaces):
        # a center lies only on curves it then meets, so by induction they share a root
        for s in corpus_surfaces:
            for m in range(s.k + 1):
                rel = s.relative(m)
                for a, b in rel.pairs:
                    assert rel.roots[a] == rel.roots[b]
                for t in rel.curves:
                    for c in center_curves(s.events[t - 1]):
                        if c in rel.roots:
                            assert rel.roots[t] == rel.roots[c]

    def test_invalid_curve_index(self):
        with pytest.raises(ValueError, match="invalid curve"):
            SurfaceModel((GenericPoint(), PointOnCurve(2)))

    def test_invalid_curve_messages(self):
        with pytest.raises(ValueError, match=r"^invalid curve index 2$"):
            SurfaceModel((GenericPoint(), PointOnCurve(2)))
        with pytest.raises(ValueError, match=r"^invalid curve pair \(1, 3\)$"):
            SurfaceModel((GenericPoint(), PointOnCurve(1), IntersectionPoint(3, 1)))
        with pytest.raises(ValueError, match="^curves 1 and 2 do not meet$"):
            SurfaceModel((GenericPoint(), GenericPoint(), IntersectionPoint(2, 1)))

    def test_unknown_event_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown event"):
            SurfaceModel((GenericPoint(), "on_curve 1"))

    def test_non_meeting_pair(self):
        with pytest.raises(ValueError, match="do not meet"):
            SurfaceModel((GenericPoint(), GenericPoint(), IntersectionPoint(1, 2)))

    def test_intersection_pair_is_unordered(self):
        assert IntersectionPoint(2, 1) == IntersectionPoint(1, 2)
        assert len({IntersectionPoint(2, 1), IntersectionPoint(1, 2), GenericPoint(), GenericPoint()}) == 2
        assert PointOnCurve(1) != (1,) and GenericPoint() != ()  # an event is no tuple of its curves
        assert (IntersectionPoint(3, 1).a, IntersectionPoint(3, 1).b) == (1, 3)
        with pytest.raises(ValueError, match="distinct"):
            IntersectionPoint(2, 2)

    def test_pair_destroyed_after_blowup(self):
        s = SurfaceModel(CHAIN3)
        assert (1, 2) not in s.meeting_pairs()
        with pytest.raises(ValueError, match="do not meet"):
            apply_event(s, IntersectionPoint(1, 2))

    def test_stage_model(self):
        s = SurfaceModel(CHAIN3)
        assert s.stage_model(2).events == CHAIN3[:2]
        assert s.stage_model(0).k == 0
        with pytest.raises(ValueError):
            s.stage_model(4)


class TestChern:
    def test_plane(self):
        assert SurfaceModel().chern_class() == ChowClass(1, (3,), 3)

    def test_one_blowup(self):
        assert SurfaceModel((GenericPoint(),)).chern_class() == ChowClass(1, (3, -1), 4)

    def test_two_nested(self):
        assert SurfaceModel(NESTED2).chern_class() == ChowClass(1, (3, -1, -1), 5)


def euler_from_incidence(surface, subset, stage=0):
    """Independent Euler characteristic of a stratum from the incidence graph."""
    rel = surface.relative(stage)
    if len(subset) == 2:
        return 1
    if len(subset) == 1:
        return 2 - rel.meets[subset[0]]
    curves, pairs = len(rel.curves), len(rel.pairs)
    return (3 + surface.k) - (2 * curves - pairs)


class TestCsmStrata:
    def test_single_curve_k1(self):
        s = SurfaceModel((GenericPoint(),))
        assert s.csm_stratum((1,)) == ChowClass(0, (0, 1), 2)

    def test_single_curve_nested(self):
        s = SurfaceModel(NESTED2)
        assert s.csm_stratum((1,)) == ChowClass(0, (0, 1, -1), 1)

    def test_empty_stratum_nested(self):
        s = SurfaceModel(NESTED2)
        assert s.csm_stratum(()) == ChowClass(1, (3, -2, -1), 2)

    def test_pair_stratum(self):
        s = SurfaceModel(CHAIN3)
        assert s.csm_stratum((1, 3)) == chow_point(3)
        with pytest.raises(ValueError, match="do not meet"):
            s.csm_stratum((1, 2))

    def test_depth_three_rejected(self):
        s = SurfaceModel(CHAIN3)
        with pytest.raises(ValueError, match="depth"):
            s.csm_stratum((1, 2, 3))

    def test_partition_of_unity(self, corpus_surfaces):
        for s in corpus_surfaces[:120]:
            total = s.csm_stratum(())
            for j in range(1, s.k + 1):
                total = total + s.csm_stratum((j,))
            for pair in s.meeting_pairs():
                total = total + s.csm_stratum(pair)
            assert total == s.chern_class()

    def test_point_degrees_match_incidence_euler(self, corpus_surfaces):
        for s in corpus_surfaces[:120]:
            assert s.csm_stratum(()).points == euler_from_incidence(s, ())
            for j in range(1, s.k + 1):
                assert s.csm_stratum((j,)).points == euler_from_incidence(s, (j,))

    def test_closed_curve_class(self, corpus_surfaces):
        # closure CSM = stratum CSM plus one point per crossing
        for s in corpus_surfaces[:80]:
            for j in range(1, s.k + 1):
                closure = s.csm_stratum((j,))
                for a, b in s.meeting_pairs():
                    if j in (a, b):
                        closure = closure + chow_point(s.k)
                assert closure == curve_class(s, j) + 2 * chow_point(s.k)

    def test_curve_strata_match_proper_transforms(self, corpus_surfaces):
        # reference independent of csm: the proper transform from curve_class,
        # plus the stratum's Euler number in points
        for s in corpus_surfaces[:200]:
            for m in range(s.k + 1):
                rel = s.relative(m)
                for j in rel.curves:
                    expected = curve_class(s, j) + rel.euler((j,)) * chow_point(s.k)
                    assert s.csm_stratum((j,), m) == expected


class TestStringy:
    def test_plane(self):
        s = SurfaceModel()
        assert s.stringy_class(0) == s.chern_class()

    def test_k1(self):
        s = SurfaceModel((GenericPoint(),))
        assert s.stringy_class(0) == ChowClass(1, (3, Fraction(-3, 2)), 3)

    def test_nested_weights(self):
        s = SurfaceModel(NESTED2)
        expected = (
            s.csm_stratum(())
            + Fraction(1, 2) * s.csm_stratum((1,))
            + Fraction(1, 3) * s.csm_stratum((2,))
            + Fraction(1, 6) * chow_point(2)
        )
        assert s.stringy_class(0) == expected

    def test_matches_weighted_csm_sum(self, corpus_surfaces):
        # reference: the open stratum is the Chern class minus the others
        for s in corpus_surfaces[:120]:
            for m in range(s.k + 1):
                rel = s.relative(m)
                expected = s.chern_class()
                for key in rel.strata:
                    weight = Fraction(1, prod(rel.mus[j] + 1 for j in key))
                    expected = expected + (weight - 1) * s.csm_stratum(key, m)
                got = s.stringy_class(m)
                assert (got.top, got.curves, got.points) == (
                    expected.top, expected.curves, expected.points
                )

    def test_relative_discrepancies(self):
        s = SurfaceModel(CHAIN3)
        rel = s.relative(1)
        assert rel.curves == (2, 3)
        assert rel.mus == {2: 1, 3: 2}
        assert rel.pairs == ((2, 3),)
        rel0 = s.relative(0)
        assert rel0.mus == {1: 1, 2: 2, 3: 4}

    def test_relative_kept_for_its_stage_only(self):
        s = SurfaceModel(CHAIN3 + (PointOnCurve(3),))
        for m in (2, 2, 0, 4, 2, 0, 0):
            assert arrangement(s.relative(m)) == arrangement(SurfaceModel(s.events).relative(m))
        assert s.relative(0) is s.relative(0)

    def test_verify_stage_derives_one_arrangement(self, monkeypatch):
        built = []

        class Counting(RelativeArrangement):
            def __init__(self, *fields):
                super().__init__(*fields)
                built.append(self.stage)

        monkeypatch.setattr("mchern.surface.RelativeArrangement", Counting)
        s = SurfaceModel(CHAIN3 + (GenericPoint(),))
        for m in range(s.k + 1):
            assert all(s.stage_checks(m, {}).values())
        assert built == list(range(s.k + 1))


class TestVerifyStage:
    """SurfaceModel.stage_checks gives the checks of the public route, in the same order."""

    @staticmethod
    def assert_same_checks(surfaces):
        for s in surfaces:
            folds = {}  # one table for all stages, as one command passes it
            for m in range(s.k + 1):
                assert list(s.stage_checks(m, folds).items()) == list(
                    reference_stage_checks(s, m).items()
                )

    def test_corpus(self, corpus_surfaces):
        assert any(isinstance(e, IntersectionPoint) for s in corpus_surfaces for e in s.events)
        self.assert_same_checks(corpus_surfaces)

    def test_towers_with_crossings(self):
        # long fibers, so the fiber chis cancel factors inside the merge tree
        rng = random.Random(8)
        self.assert_same_checks(random_tower(rng, k) for k in (12, 18, 24, 24))

    def test_long_towers_with_crossings(self, monkeypatch):
        lengths, cancel = [], ring._cancel

        def spy(num, mus):
            lengths.append(len(num))
            return cancel(num, mus)

        monkeypatch.setattr(ring, "_cancel", spy)
        self.assert_same_checks(long_towers())
        assert max(lengths) > 64

    def test_chain_160_every_stage(self):
        # a generic point, then 159 points each on the newest curve
        chain = SurfaceModel((GenericPoint(),) + tuple(PointOnCurve(j) for j in range(1, 160)))
        for m in range(chain.k + 1):
            assert all(chain.stage_checks(m, {}).values())

    @pytest.mark.parametrize(
        "attr, wrong",
        [
            pytest.param("unit", property(unit_weighing_mu_plus_two), id="unit-mu-plus-two"),
            ("euler", lambda rel, key: 3 - rel.meets[key[0]] if len(key) == 1 else 1),
        ],
    )
    def test_same_failures(self, monkeypatch, corpus_surfaces, attr, wrong):
        monkeypatch.setattr(RelativeArrangement, attr, wrong)
        surfaces = [s for s in corpus_surfaces[:150] if s.k]
        for s in surfaces:
            assert not all(s.stage_checks(0, {}).values())
        self.assert_same_checks(surfaces)


class TestPushforward:
    def test_k1_recovers_plane_chern(self):
        s = SurfaceModel((GenericPoint(),))
        assert s.pushforward(s.stringy_class(0), 0) == ChowClass(1, (3,), 3)

    def test_identity_at_top_stage(self):
        s = SurfaceModel(NESTED2)
        cls = s.stringy_class(0)
        assert s.pushforward(cls, s.k) == cls

    def test_nested_stage_one(self):
        s = SurfaceModel(NESTED2)
        assert s.pushforward(s.stringy_class(1), 1) == ChowClass(1, (3, -1), 4)

    def test_matches_stage_chern_everywhere(self, corpus_surfaces):
        for s in corpus_surfaces[:120]:
            for m in range(s.k + 1):
                pushed = s.pushforward(s.stringy_class(m), m)
                assert pushed == s.stage_model(m).chern_class()

    def test_chain_400_stays_linear(self):
        # Scaling guard: the weighted class is one pass over the curves, not a
        # sum of k Chow vectors of length k.
        chain = SurfaceModel((GenericPoint(),) + tuple(PointOnCurve(j) for j in range(1, 400)))
        for m in (0, 200, 399):
            pushed = chain.pushforward(chain.stringy_class(m), m)
            assert pushed == chain.stage_model(m).chern_class()
        # the open stratum is the same one pass with weight 0, not k subtractions
        assert chain.csm_stratum(()) == ChowClass(1, (3, -2) + (-1,) * 399, 2)

    def test_chain_1600_pushforwards_are_slices(self):
        # Scaling guard: a push-forward slices the coordinates and builds no
        # Fraction, so all k + 1 of them, as `surface report` makes, stay cheap.
        chain = SurfaceModel((GenericPoint(),) + tuple(PointOnCurve(j) for j in range(1, 1600)))
        stringy = chain.stringy_class(0)
        for m in range(chain.k + 1):
            expected = ChowClass(stringy.top, stringy.curves[: m + 1], stringy.points)
            assert chain.pushforward(stringy, m) == expected

    def test_wrong_basis_rejected(self):
        s = SurfaceModel(NESTED2)
        with pytest.raises(ValueError):
            s.pushforward(ChowClass(1, (3,), 3), 0)


class TestExport:
    def test_k1_matches_engine_output(self):
        plane = ModificationSystem(
            2, (), {(): MotivicClass(LPolynomial((1, 1, 1)))},
            ambient_class=MotivicClass(LPolynomial((1, 1, 1))),
        )
        center = BlowupCenter(
            codim=2, containing=frozenset(), center_strata={frozenset(): MotivicClass.one()}
        )
        engine = run_program(BlowupProgram(plane, (center,))).final
        exported, _ = SurfaceModel((GenericPoint(),)).export_modification_system(0)
        assert systems_isomorphic_under(exported, engine, {"e1": "exc0"})

    def test_equals_the_checked_rebuild(self, corpus_surfaces):
        rng = random.Random(3)
        surfaces = corpus_surfaces[::5] + [random_tower(rng, k) for k in (14, 30)]
        for s in surfaces:
            for m in range(s.k + 1):
                system, loci = s.export_modification_system(m)
                rebuilt, rebuilt_loci = checked_export(s, m)
                assert divisor_fields(system) == divisor_fields(rebuilt)
                for ident in rebuilt.idents:
                    assert system.mask_of(ident) == rebuilt.mask_of(ident)
                assert (system.label, system.ambient_class) == (rebuilt.label, rebuilt.ambient_class)
                assert list(system.strata.items()) == list(rebuilt.strata.items())
                assert list(loci) == list(rebuilt_loci)
                for name, locus in loci.items():
                    assert locus.name == name
                    assert list(locus.strata.items()) == list(rebuilt_loci[name].strata.items())

    def test_field_for_field_on_long_towers(self):
        def fields(strata):
            return [(mask, cls.num.coeffs, cls.den) for mask, cls in strata.items()]

        for s in long_towers():
            for m in range(s.k + 1):
                system, loci = s.export_modification_system(m)
                rebuilt, rebuilt_loci = checked_export(s, m)
                assert (system.ambient_dim, divisor_fields(system), system.label) == (
                    rebuilt.ambient_dim, divisor_fields(rebuilt), rebuilt.label
                )
                ambient, expected = system.ambient_class, rebuilt.ambient_class
                assert (ambient.num.coeffs, ambient.den) == (expected.num.coeffs, expected.den)
                assert fields(system.strata) == fields(rebuilt.strata)
                assert list(loci) == list(rebuilt_loci)
                for name, locus in rebuilt_loci.items():
                    assert loci[name].name == name
                    assert fields(loci[name].strata) == fields(locus.strata)

    def test_k0_trivial(self):
        system, loci = SurfaceModel().export_modification_system(0)
        assert len(system.divisors) == 0
        assert system.chi(loci["full"]) == MotivicClass(LPolynomial((1, 1, 1)))

    def test_nested_chi(self):
        s = SurfaceModel(NESTED2)
        system, loci = s.export_modification_system(0)
        assert system.validate() == []
        assert system.chi(loci["full"]) == s.class_of_stage(0)
        assert system.euler_chi(loci["full"]) == 3

    def test_fiber_loci_have_unit_chi(self, corpus_surfaces):
        for s in corpus_surfaces[:60]:
            for m in range(s.k + 1):
                system, loci = s.export_modification_system(m)
                for name, locus in loci.items():
                    if name == "full":
                        assert system.chi(locus) == s.class_of_stage(m)
                    else:
                        assert system.chi(locus) == MotivicClass.one()

    def test_fiber_loci_partition_the_curve_strata(self, corpus_surfaces):
        # SurfaceModel.stage_checks builds chi(full) from the fibers; check it against the whole sum
        for s in corpus_surfaces:
            for m in range(s.k + 1):
                system, loci = s.export_modification_system(m)
                fibers = [locus for name, locus in loci.items() if name != "full"]
                masks = [mask for locus in fibers for mask in locus.strata]
                assert len(masks) == len(set(masks))
                assert set(masks) == set(system.strata) - {0}
                assert all(
                    cls is system.strata[mask] for locus in fibers for mask, cls in locus.strata.items()
                )
                assembled = MotivicClass.sum(
                    [system.stratum(0)] + [system.chi(locus).reduced() for locus in fibers]
                )
                assert assembled == system.chi(loci["full"])

    def test_more_divisors_than_a_machine_word(self):
        chain = SurfaceModel((GenericPoint(),) + tuple(PointOnCurve(j) for j in range(1, 70)))
        system, loci = chain.export_modification_system(0)
        assert len(system.divisors) == 70
        assert system.validate() == []
        fibers = [locus for name, locus in loci.items() if name != "full"]
        assert fibers and all(system.euler_chi(locus) == 1 for locus in fibers)

    def test_chain_100_chi_is_exact(self):
        # Scaling guard: chi over 100 divisors (numerator degree ~5000) stays
        # fast only while class sums avoid dense products of [P^mu]s.
        chain = SurfaceModel((GenericPoint(),) + tuple(PointOnCurve(j) for j in range(1, 100)))
        system, loci = chain.export_modification_system(0)
        assert system.chi(system.full_locus()) == chain.class_of_stage(0)
        fibers = [locus for name, locus in loci.items() if name != "full"]
        assert fibers and all(system.chi(locus) == MotivicClass.one() for locus in fibers)

    def test_stage_classes(self):
        s = SurfaceModel(CHAIN3)
        assert s.class_of_stage(0) == MotivicClass(LPolynomial((1, 1, 1)))
        assert s.class_of_stage(2) == MotivicClass(LPolynomial((1, 3, 1)))


class TestFiberProfiles:
    def test_k1(self):
        assert SurfaceModel((GenericPoint(),)).fiber_euler_profile("p1") == 1

    def test_nested_sum(self):
        s = SurfaceModel(NESTED2)
        # by hand: (2-1)/2 + (2-1)/3 + 1/6
        assert Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 6) == 1
        assert s.fiber_euler_profile("p1") == 1

    def test_generic(self):
        assert SurfaceModel(CHAIN3).fiber_euler_profile("generic") == 1

    def test_unknown_anchor(self):
        with pytest.raises(ValueError, match="unknown anchor"):
            SurfaceModel(CHAIN3).fiber_euler_profile("p9")


class TestOrderIndependence:
    def test_swapped_final_events(self, corpus_programs):
        pairs = order_swap_pairs(corpus_programs, want=12)
        assert len(pairs) == 12
        for first, second in pairs:
            sa, sb = SurfaceModel(first), SurfaceModel(second)
            pushed_a = sa.pushforward(sa.stringy_class(0), 0)
            pushed_b = sb.pushforward(sb.stringy_class(0), 0)
            assert pushed_a == pushed_b
            ea, _ = sa.export_modification_system(0)
            eb, _ = sb.export_modification_system(0)
            assert systems_isomorphic_under(ea, eb, final_transposition(first))

    def test_order_swap_holds_on_every_swappable_program(self, corpus_programs):
        pairs = order_swap_pairs(corpus_programs, want=len(corpus_programs))
        assert len(pairs) > 12
        assert all(SurfaceModel(p).order_swap_holds() is True for pair in pairs for p in pair)
        assert SurfaceModel(()).order_swap_holds() is None
        assert SurfaceModel((GenericPoint(),)).order_swap_holds() is None
        assert SurfaceModel((GenericPoint(), PointOnCurve(1))).order_swap_holds() is None

    def test_swap_guard(self):
        # the second event references the first's curve: not independent
        assert swap_last_two((GenericPoint(), PointOnCurve(1))) is None
        assert swap_last_two((GenericPoint(),)) is None
        program = (GenericPoint(), GenericPoint(), PointOnCurve(1))
        swapped = swap_last_two(program)
        assert swapped == (GenericPoint(), PointOnCurve(1), GenericPoint())
