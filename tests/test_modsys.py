import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mchern.modsys import Divisor, MarkedLocus, ModificationSystem
from mchern.ring import LPolynomial, MotivicClass, projective_class
from mchern.sampling import random_invariance_case, random_locus, random_system


PLANE_CLASS = MotivicClass(LPolynomial((1, 1, 1)))


def trivial_plane():
    return ModificationSystem(2, (), {(): PLANE_CLASS}, ambient_class=PLANE_CLASS)


def blown_plane():
    """One point blown up: strata L^2 + L and L + 1 on a mu=1 divisor."""
    return ModificationSystem(
        2,
        (("e", 1),),
        {(): MotivicClass(LPolynomial((0, 1, 1))), ("e",): MotivicClass(LPolynomial((1, 1)))},
        ambient_class=MotivicClass(LPolynomial((1, 2, 1))),
    )


class TestConstruction:
    def test_mask_roundtrip(self):
        system = ModificationSystem(
            3,
            (("a", 0), ("b", 2), ("c", 1)),
            {(): MotivicClass.one()},
        )
        mask = system.mask_of(("a", "c"))
        assert system.ids_of(mask) == ("a", "c")
        assert system.mu_of_mask(mask) == (0, 1)
        # bits past the last divisor name no divisor
        assert system.ids_of(mask | 1 << 3 | 1 << 70) == ("a", "c")
        assert system.mu_of_mask(mask | 1 << 3 | 1 << 70) == (0, 1)
        assert system.mask_of(()) == 0

    def test_unknown_id_rejected(self):
        system = trivial_plane()
        with pytest.raises(ValueError):
            system.mask_of(("nope",))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ModificationSystem(2, (("a", 0), ("a", 1)), {})

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            Divisor("a", -1)

    def test_non_integer_mu_rejected(self):
        for mu in (1.0, True, "1"):
            with pytest.raises(ValueError, match="not an integer"):
                Divisor("a", mu)

    def test_chi_denominator_sorted_without_zero_weights(self):
        system = ModificationSystem(3, (("a", 0), ("b", 2), ("c", 1)), {(): MotivicClass.one()})
        mask = system.mask_of(("a", "b", "c"))
        term = system.chi(MarkedLocus("p", {mask: MotivicClass(LPolynomial.one(), (1,))}))
        assert term.den == (1, 1, 2)

    def test_a_stratum_given_twice_is_refused(self):
        # the mask 3 and the subset ("a", "b") name one stratum
        one = MotivicClass.one()
        with pytest.raises(ValueError) as info:
            ModificationSystem(2, (("a", 0), ("b", 0)), {3: one, ("a", "b"): one})
        assert str(info.value) == "duplicate stratum key ('a', 'b')"

    def test_a_subset_repeating_an_id_is_refused(self):
        with pytest.raises(ValueError) as info:
            ModificationSystem(2, (("a", 0),), {("a", "a"): MotivicClass.one()})
        assert str(info.value) == "repeated divisor id 'a' in subset"

    @pytest.mark.parametrize("mask", [-1, 4])
    def test_a_mask_out_of_range_is_refused(self, mask):
        with pytest.raises(ValueError) as info:
            ModificationSystem(2, (("a", 0), ("b", 0)), {mask: MotivicClass.one()})
        assert str(info.value) == f"mask {mask} out of range for 2 divisors"

    def test_zero_strata_dropped(self):
        system = ModificationSystem(2, (("a", 1),), {(): PLANE_CLASS, ("a",): MotivicClass.zero()})
        assert system.strata.keys() == {0}


def scanned_mu_of_mask(system, mask):
    """Reference: test every divisor's bit."""
    return tuple(d.mu for i, d in enumerate(system.divisors) if mask >> i & 1)


class TestMuOfMask:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=10), st.integers(0, 1 << 12))
    @example([3], 0)
    def test_matches_the_scan_over_every_divisor(self, mus, extra):
        n = len(mus)
        system = ModificationSystem(2, [(f"d{i}", mu) for i, mu in enumerate(mus)], {})
        # none, the top divisor, all of them, bits past the last one, and one drawn
        for mask in (0, 1 << (n - 1), (1 << n) - 1, 1 << n, (1 << (n + 2)) - 1, extra):
            assert system.mu_of_mask(mask) == scanned_mu_of_mask(system, mask)


class TestValidate:
    def test_trivial_system_valid(self):
        assert trivial_plane().validate() == []

    def test_deep_stratum_flagged(self):
        system = ModificationSystem(
            2,
            (("a", 0), ("b", 0), ("c", 0)),
            {(): PLANE_CLASS, ("a", "b", "c"): MotivicClass.one()},
        )
        problems = system.validate()
        assert len(problems) == 1
        assert "depth 3" in problems[0]

    def test_total_class_mismatch_flagged(self):
        system = ModificationSystem(
            2, (), {(): PLANE_CLASS}, ambient_class=MotivicClass.one()
        )
        problems = system.validate()
        assert len(problems) == 1
        assert "ambient" in problems[0]

    def test_locus_violations(self):
        system = blown_plane()
        bad = MarkedLocus("T", {system.mask_of(("e",)) : MotivicClass.one()})
        assert system.locus_violations(bad) == []
        empty_stratum = MarkedLocus("U", {3: MotivicClass.one()})
        assert system.locus_violations(empty_stratum)


class TestChi:
    def test_full_locus_of_blowup(self):
        system = blown_plane()
        full = system.full_locus()
        assert system.chi(full) == PLANE_CLASS
        assert system.euler_chi(full) == 3

    def test_fiber_locus(self):
        system = blown_plane()
        fiber = MarkedLocus("fiber", {system.mask_of(("e",)): MotivicClass(LPolynomial((1, 1)))})
        assert system.chi(fiber) == 1
        assert system.euler_chi(fiber) == 1

    def test_trivial_system_empty_product(self):
        system = trivial_plane()
        locus = MarkedLocus("T", {0: projective_class(1)})
        assert system.chi(locus) == projective_class(1)

    def test_empty_locus(self):
        system = blown_plane()
        assert system.chi(MarkedLocus("empty", {})).is_zero()
        assert system.euler_chi(MarkedLocus("empty", {})) == 0

    def test_chi_linear_in_locus(self):
        rng = random.Random(7)
        for _ in range(25):
            system = random_system(rng, max_divisors=5)
            t1 = random_locus(rng, system, "T1")
            t2 = random_locus(rng, system, "T2")
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            combo = MarkedLocus("combo", {
                mask: a * t1.strata.get(mask, MotivicClass.zero())
                + b * t2.strata.get(mask, MotivicClass.zero())
                for mask in t1.strata.keys() | t2.strata.keys()
            })
            assert system.chi(combo) == a * system.chi(t1) + b * system.chi(t2)

    def test_euler_chi_agrees_with_specialization(self, corpus_surfaces):
        rng = random.Random(11)
        for _ in range(25):
            system = random_system(rng, max_divisors=6)
            locus = random_locus(rng, system, "T")
            assert system.euler_chi(locus) == system.chi(locus).euler_specialize()
        # exported surface systems: the full locus and every fiber locus
        for surface in corpus_surfaces[:100]:
            for m in range(surface.k + 1):
                system, loci = surface.export_modification_system(m)
                for locus in loci.values():
                    assert system.euler_chi(locus) == system.chi(locus).euler_specialize()
        # stratum classes with denominators, whose weights enter the integer sum too
        rng, with_dens = random.Random(13), 0

        def with_den(cls):
            return MotivicClass(cls.num, [rng.randint(0, 4) for _ in range(rng.randint(0, 3))])

        for _ in range(100):
            plain, _, plain_loci = random_invariance_case(rng, max_divisors=6)
            system = ModificationSystem(
                plain.ambient_dim, plain.divisors, {m: with_den(c) for m, c in plain.strata.items()}
            )
            loci = [system.full_locus()] + [
                MarkedLocus(u.name, {m: with_den(c) for m, c in u.strata.items()}) for u in plain_loci
            ]
            with_dens += any(cls.den for cls in system.strata.values())
            for locus in loci:
                assert system.euler_chi(locus) == system.chi(locus).euler_specialize()
            assert system.euler_chi(MarkedLocus("empty", {})) == 0
        assert with_dens > 50


class TestFullLocus:
    def test_trivial(self):
        system = trivial_plane()
        assert system.full_locus().strata == {0: PLANE_CLASS}

    def test_blown(self):
        system = blown_plane()
        full = system.full_locus()
        assert full.strata[0] == MotivicClass(LPolynomial((0, 1, 1)))
        assert full.strata[1] == MotivicClass(LPolynomial((1, 1)))
