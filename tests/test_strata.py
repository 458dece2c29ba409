import itertools
from fractions import Fraction
from math import comb

import pytest

from mchern.ring import MotivicClass, affine_class, projective_class, torus_class
from mchern.strata import (
    FiberFrame,
    euler_shadow_simplexcor,
    hyperplane_stratum_class,
    stratum_euler,
    sweep_identities,
    verify_simplex,
    verify_simplexcor,
)


class TestFrame:
    def test_bounds(self):
        FiberFrame(1, 0)
        FiberFrame(4, 4)
        with pytest.raises(ValueError):
            FiberFrame(0, 0)
        with pytest.raises(ValueError):
            FiberFrame(2, 3)


class TestStratumClass:
    def test_frozen_examples(self):
        assert hyperplane_stratum_class(FiberFrame(2, 1), 0) == affine_class(1)
        assert hyperplane_stratum_class(FiberFrame(2, 1), 1) == 1
        assert hyperplane_stratum_class(FiberFrame(3, 2), 0) == torus_class(1) * affine_class(1)

    def test_full_subset_on_maximal_frame_is_empty(self):
        assert hyperplane_stratum_class(FiberFrame(3, 3), 3).is_zero()

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            hyperplane_stratum_class(FiberFrame(3, 2), 3)
        with pytest.raises(ValueError):
            hyperplane_stratum_class(FiberFrame(3, 2), -1)

    @pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 7) for k in range(d + 1)])
    def test_strata_partition_the_fiber(self, d, k):
        frame = FiberFrame(d, k)
        total = sum(
            (comb(k, size) * hyperplane_stratum_class(frame, size) for size in range(k + 1)),
            MotivicClass.zero(),
        )
        assert total == projective_class(d - 1)

    def test_stratum_euler_matches_specialization(self):
        for d in range(1, 6):
            for k in range(d + 1):
                for size in range(k + 1):
                    cls = hyperplane_stratum_class(FiberFrame(d, k), size)
                    assert cls.euler_specialize() == stratum_euler(d, k, size)


def brute_force_simplex_lhs(d, k, mus):
    """Independent oracle: expand the subset sum with raw coefficient lists."""
    total = MotivicClass.zero()
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(k), size) for size in range(k + 1)
    ):
        term = hyperplane_stratum_class(FiberFrame(d, k), len(subset))
        for i in range(k):
            if i not in subset:
                term = term * projective_class(mus[i])
        total = total + term
    return total


class TestSimplex:
    def test_frozen_examples(self):
        assert verify_simplex(FiberFrame(2, 1), (1,))
        assert verify_simplex(FiberFrame(1, 1), (0,))
        assert verify_simplex(FiberFrame(3, 2), (1, 2))

    def test_d2_expansion_by_hand(self):
        # L*(L + 1) + 1 = [P^2]
        lhs = affine_class(1) * projective_class(1) + MotivicClass.one()
        assert lhs == projective_class(2)

    def test_matches_brute_force_oracle(self):
        for d, k, mus in [(3, 2, (1, 2)), (4, 3, (0, 1, 2)), (2, 2, (3, 0))]:
            assert brute_force_simplex_lhs(d, k, mus) == projective_class(sum(mus) + d - 1)
            assert verify_simplex(FiberFrame(d, k), mus)

    def test_perturbed_weight_fails(self):
        assert not verify_simplex(FiberFrame(2, 1), (1,), mu0_offset=1)

    def test_wrong_multiplicity_count(self):
        with pytest.raises(ValueError):
            verify_simplex(FiberFrame(2, 1), (1, 2))


class TestSimplexcor:
    def test_frozen_examples(self):
        assert verify_simplexcor(FiberFrame(2, 1), (1,))
        assert verify_simplexcor(FiberFrame(2, 0), ())
        assert verify_simplexcor(FiberFrame(4, 3), (0, 1, 2))

    def test_d2_by_hand(self):
        # L/[P^2] + 1/([P^2][P^1]) = 1/[P^1]
        lhs = affine_class(1).div_by_projective(2) + MotivicClass.one().div_by_projective(
            2
        ).div_by_projective(1)
        assert lhs == MotivicClass.one().div_by_projective(1)

    def test_perturbed_weight_fails(self):
        assert not verify_simplexcor(FiberFrame(2, 1), (1,), mu0_offset=1)
        assert not verify_simplexcor(FiberFrame(3, 2), (1, 2), mu0_offset=-1)

    def test_euler_shadow(self):
        assert euler_shadow_simplexcor(FiberFrame(2, 1), (1,))
        assert euler_shadow_simplexcor(FiberFrame(4, 3), (0, 1, 2))
        # by hand for d=2, k=1, mu=(1): mu0 = 2, chi values 1 and 1
        lhs = Fraction(1, 3) + Fraction(1, 6)
        assert lhs == Fraction(1, 2)
        assert not euler_shadow_simplexcor(FiberFrame(2, 1), (1,), mu0_offset=1)


class TestSweep:
    def test_small_sweep_counts_all_tuples(self):
        result = sweep_identities(3, 2)
        # sum over d<=3, k<=d of 3^k tuples: 4 + 13 + 40
        assert result.cases == 57
        assert result.passed

    def test_degenerate_bound(self):
        assert sweep_identities(1, 0).passed

    def test_perturbed_sweep_reports_counterexample(self):
        result = sweep_identities(3, 2, which="simplexcor", mu0_offset=1)
        assert not result.passed
        assert result.counterexample.identity == "simplexcor"
        assert "fails at" in result.counterexample.describe()

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            sweep_identities(0, 2)
        with pytest.raises(ValueError):
            sweep_identities(2, 2, which="nonsense")

    def test_permuted_tuples_agree(self):
        # the sweep caches by sorted multiset; spot-check that permutations
        # genuinely evaluate equal
        for mus in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]:
            assert verify_simplex(FiberFrame(4, 3), mus)
            assert verify_simplexcor(FiberFrame(4, 3), mus)
