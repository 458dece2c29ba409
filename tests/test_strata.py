import itertools
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchern import strata
from mchern.ring import LPolynomial, MotivicClass, affine_class, projective_class, torus_class
from mchern.strata import (
    Counterexample,
    FiberFrame,
    _weighted_numerator,
    discrepancy,
    euler_shadow_simplexcor,
    hyperplane_stratum_class,
    sweep_identities,
    verify_simplex,
    verify_simplexcor,
)


def stratum_euler(d: int, k: int, size: int) -> int:
    """Euler characteristic of a stratum, counted combinatorially.

    For size < k the stratum is a torus of dimension k-size-1 times an
    affine cell, so it has Euler characteristic 0 unless size = k-1, where
    it is 1; for size = k it is the projective space P^(d-k-1).
    """
    if size < k:
        return 1 if size == k - 1 else 0
    return d - k


class TestFrame:
    def test_bounds(self):
        FiberFrame(1, 0)
        FiberFrame(4, 4)
        with pytest.raises(ValueError):
            FiberFrame(0, 0)
        with pytest.raises(ValueError):
            FiberFrame(2, 3)


class TestDiscrepancy:
    def test_values(self):
        assert discrepancy((), 1) == 0  # a divisor blown up along itself keeps weight 0
        assert discrepancy((), 2) == 1  # a point of a surface
        assert discrepancy((1, 2), 2) == 4  # the crossing of two exceptional curves
        assert discrepancy(iter((3,)), 4) == 6

    def test_simplex_is_the_projective_class_of_mu0(self):
        for d, k in ((1, 1), (3, 2), (4, 4)):
            mus = tuple(range(k))
            lhs = MotivicClass(_weighted_numerator(FiberFrame(d, k), mus))
            assert lhs == projective_class(discrepancy(mus, d))


class TestStratumClass:
    def test_frozen_examples(self):
        assert hyperplane_stratum_class(FiberFrame(2, 1), 0) == affine_class(1)
        assert hyperplane_stratum_class(FiberFrame(2, 1), 1) == 1
        assert hyperplane_stratum_class(FiberFrame(3, 2), 0) == torus_class(1) * affine_class(1)

    def test_equal_frames_share_one_cache_entry(self):
        # blow_up makes a fresh frame per step; a frame equal by value must hit the cache
        assert FiberFrame(5, 2) == FiberFrame(5, 2) != FiberFrame(5, 3)
        assert hyperplane_stratum_class(FiberFrame(5, 2), 1) is hyperplane_stratum_class(FiberFrame(5, 2), 1)

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


def fraction_euler_shadow(d, k, mus, mu0_offset=0):
    """Independent oracle: the Euler-specialized simplexcor as a Fraction subset sum."""
    mu0 = sum(mus) + d - 1 + mu0_offset
    if mu0 < 0:
        return False
    lhs = Fraction(0)
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(k), size) for size in range(k + 1)
    ):
        den = mu0 + 1
        for i in subset:
            den *= mus[i] + 1
        lhs += Fraction(stratum_euler(d, k, len(subset)), den)
    rhs = Fraction(1)
    for mu in mus:
        rhs /= mu + 1
    return lhs == rhs


def multisets(d_max, mu_max):
    for d in range(1, d_max + 1):
        for k in range(d + 1):
            for mus in itertools.combinations_with_replacement(range(mu_max + 1), k):
                yield d, k, mus


def count_linear_products(monkeypatch) -> list[int]:
    """The mu of every strata._mul_projective call from now on, in call order."""
    calls, mul_projective = [], strata._mul_projective

    def counting(c, mu):
        calls.append(mu)
        return mul_projective(c, mu)

    monkeypatch.setattr(strata, "_mul_projective", counting)
    return calls


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
        # the numerator itself, not only the verdict; both sides are symmetric
        # in the mu_i, so sorted tuples cover every case
        for d, k, mus in multisets(6, 3):
            expected = brute_force_simplex_lhs(d, k, mus)
            assert expected == projective_class(sum(mus) + d - 1)
            assert _weighted_numerator(FiberFrame(d, k), mus) == expected.num
            assert verify_simplex(FiberFrame(d, k), mus)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=8), st.integers(0, 3))
    def test_numerator_matches_brute_force_property(self, mus, extra):
        d, k = len(mus) + extra or 1, len(mus)
        expected = brute_force_simplex_lhs(d, k, mus)
        assert _weighted_numerator(FiberFrame(d, k), mus) == expected.num

    def test_linear_kernel_count_is_one_per_multiplicity(self, monkeypatch):
        # a subset loop would need 2^k products; the tail grows by one product per prefix
        calls = count_linear_products(monkeypatch)
        k = 12
        assert verify_simplex(FiberFrame(k, k), tuple(range(k)))
        assert calls == list(range(k))

    @pytest.mark.parametrize("identity", [verify_simplex, verify_simplexcor])
    def test_deep_multiset_is_walked_without_recursion(self, identity, monkeypatch):
        calls = count_linear_products(monkeypatch)
        assert identity(FiberFrame(1200, 1200), (0,) * 1200)
        assert len(calls) == 1200

    def test_perturbed_weight_fails(self):
        assert not verify_simplex(FiberFrame(2, 1), (1,), mu0_offset=1)

    def test_wrong_multiplicity_count(self):
        with pytest.raises(ValueError):
            verify_simplex(FiberFrame(2, 1), (1, 2))
        with pytest.raises(ValueError):
            verify_simplexcor(FiberFrame(2, 1), (1, 2), mu0_offset=-9)


class TestSimplexcor:
    def test_frozen_examples(self):
        assert verify_simplexcor(FiberFrame(2, 1), (1,))
        assert verify_simplexcor(FiberFrame(2, 0), ())
        assert verify_simplexcor(FiberFrame(4, 3), (0, 1, 2))

    def test_d2_by_hand(self):
        # L/[P^2] + 1/([P^2][P^1]) = 1/[P^1]
        one = LPolynomial.one()
        lhs = MotivicClass(LPolynomial((0, 1)), (2,)) + MotivicClass(one, (2, 1))
        assert lhs == MotivicClass(one, (1,))

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

    def test_euler_shadow_matches_fraction_oracle(self):
        for d, k, mus in multisets(7, 3):
            for offset in range(-3, 3):
                frame = FiberFrame(d, k)
                got = euler_shadow_simplexcor(frame, mus, mu0_offset=offset)
                assert got == fraction_euler_shadow(d, k, mus, offset), (d, k, mus, offset)
                assert got == (offset == 0)

    def test_decides_as_simplex_over_the_default_sweep(self):
        # for mu0 >= 0, MotivicClass.__eq__ cross-multiplies num / ([P^mu0] prod [P^mu]) with
        # 1 / prod [P^mu] by exactly [P^mu0], which is num == [P^mu0]: the simplex test
        for d, k, mus in multisets(6, 4):
            frame = FiberFrame(d, k)
            for offset in range(-2, 3):
                expected = verify_simplex(frame, mus, mu0_offset=offset)
                assert verify_simplexcor(frame, mus, mu0_offset=offset) == expected, (d, mus, offset)

    def test_euler_shadow_negative_mu0_fails(self):
        # mu0 = -1 makes the weight [P^mu0] evaluate to 0 at L = 1
        assert not euler_shadow_simplexcor(FiberFrame(1, 0), (), mu0_offset=-1)
        assert not euler_shadow_simplexcor(FiberFrame(1, 0), (), mu0_offset=-2)
        assert not verify_simplexcor(FiberFrame(1, 0), (), mu0_offset=-1)


def reference_sweep(d_max, mu_max, which, mu0_offset=0):
    """The product-order walk over every mu tuple, cached per multiset: ``(cases, counterexample)``.

    It calls the identities through the module, as the sweep does, so a
    patched identity reaches both.
    """
    cache = {}
    cases = 0
    for d in range(1, d_max + 1):
        for k in range(d + 1):
            for mus in itertools.product(range(mu_max + 1), repeat=k):
                cases += 1
                key = (d, tuple(sorted(mus)))
                ok = cache.get(key)
                if ok is None:
                    ok = strata.verify_simplex(FiberFrame(d, k), key[1], mu0_offset=mu0_offset)
                    cache[key] = ok
                if not ok:
                    return cases, Counterexample(which, d, k, mus)
    return cases, None


class TestSweep:
    def test_small_sweep_counts_all_tuples(self):
        for which in ("simplex", "simplexcor"):
            result = sweep_identities(3, 2, which=which)
            # sum over d<=3, k<=d of 3^k tuples: 4 + 13 + 40
            assert result.cases == 57
            assert result.passed

    def test_degenerate_bound(self):
        assert sweep_identities(1, 0, which="simplex").passed
        assert sweep_identities(1, 0, which="simplexcor").passed

    def test_perturbed_sweep_reports_counterexample(self):
        result = sweep_identities(3, 2, which="simplexcor", mu0_offset=1)
        assert not result.passed
        assert result.counterexample == Counterexample("simplexcor", 1, 0, ())
        assert result.cases == 1

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            sweep_identities(0, 2, which="simplex")
        for which in ("nonsense", "both"):
            with pytest.raises(ValueError, match="unknown identity selector"):
                sweep_identities(2, 2, which=which)

    @pytest.mark.parametrize("which", ["simplex", "simplexcor"])
    def test_matches_reference_walk(self, which):
        for d_max in range(1, 6):
            for mu_max in range(4):
                for offset in range(-3, 3):
                    got = sweep_identities(d_max, mu_max, which=which, mu0_offset=offset)
                    want = reference_sweep(d_max, mu_max, which, offset)
                    assert (got.cases, got.counterexample) == want, (d_max, mu_max, offset)

    @pytest.mark.parametrize("which", ["simplex", "simplexcor"])
    def test_injected_fault_matches_reference_walk(self, which, monkeypatch):
        # a real mu0_offset fails at the first case, so only a fault on one
        # multiset reaches a counterexample with a nonzero rank
        real = strata.verify_simplex  # the sweep decides both identities through it
        cases = []
        for target in list(multisets(5, 3))[::3]:
            d_t, _, mus_t = target

            def faulty(frame, mus, *, mu0_offset=0):
                if (frame.d, tuple(sorted(mus))) == (d_t, mus_t):
                    return False
                return real(frame, mus, mu0_offset=mu0_offset)

            monkeypatch.setattr(strata, "verify_simplex", faulty)
            got = sweep_identities(5, 3, which=which)
            assert (got.cases, got.counterexample) == reference_sweep(5, 3, which), target
            assert got.counterexample.mus == mus_t
            cases.append(got.cases)
        assert max(cases) > 1000  # 452 tuples precede the d = 5 block

    @pytest.mark.parametrize("which", ["simplex", "simplexcor"])
    def test_one_verification_per_multiset(self, which, monkeypatch):
        real, seen = strata.verify_simplex, []

        def counting(frame, mus, *, mu0_offset=0):
            seen.append((frame.d, tuple(mus)))
            return real(frame, mus, mu0_offset=mu0_offset)

        monkeypatch.setattr(strata, "verify_simplex", counting)
        d_max, mu_max = 6, 3
        assert sweep_identities(d_max, mu_max, which=which).passed
        expected = sum(comb(mu_max + k, k) for d in range(1, d_max + 1) for k in range(d + 1))
        assert len(seen) == expected == len(set(seen))

    def test_permuted_tuples_agree(self):
        # the sweep checks only sorted multisets; spot-check that permutations
        # genuinely evaluate equal
        for mus in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]:
            assert verify_simplex(FiberFrame(4, 3), mus)
            assert verify_simplexcor(FiberFrame(4, 3), mus)


class TestSweepMemo:
    def test_no_memo_outside_a_sweep(self):
        assert strata._sweep_memo.get() is None
        assert sweep_identities(4, 3, which="simplex").passed
        assert strata._sweep_memo.get() is None
        assert not sweep_identities(4, 3, which="simplexcor", mu0_offset=1).passed
        assert strata._sweep_memo.get() is None

    @pytest.mark.parametrize("which", ["simplex", "simplexcor"])
    def test_no_memo_after_an_identity_raises(self, which, monkeypatch):
        real, calls = strata.verify_simplex, []

        def raising(frame, mus, *, mu0_offset=0):
            calls.append(strata._sweep_memo.get())
            if len(calls) == 40:
                raise RuntimeError("boom")
            return real(frame, mus, mu0_offset=mu0_offset)

        monkeypatch.setattr(strata, "verify_simplex", raising)
        with pytest.raises(RuntimeError, match="boom"):
            sweep_identities(5, 3, which=which)
        assert strata._sweep_memo.get() is None
        assert calls[0] is calls[-1] is not None and len(calls[-1]) > 1  # one memo per call

    def test_memo_does_not_reach_another_thread(self, monkeypatch):
        real, seen = strata.verify_simplex, []

        def looking(frame, mus, *, mu0_offset=0):
            if not seen:
                worker = threading.Thread(target=lambda: seen.append(strata._sweep_memo.get()))
                worker.start()
                worker.join()
            return real(frame, mus, mu0_offset=mu0_offset)

        monkeypatch.setattr(strata, "verify_simplex", looking)
        assert sweep_identities(3, 2, which="simplex").passed
        assert seen == [None]

    def test_memo_numerators_match_from_scratch(self, monkeypatch):
        real, checked = strata.verify_simplex, []

        def comparing(frame, mus, *, mu0_offset=0):
            inside = _weighted_numerator(frame, mus)
            token = strata._sweep_memo.set(None)
            try:
                assert inside == _weighted_numerator(frame, mus)
            finally:
                strata._sweep_memo.reset(token)
            checked.append(mus)
            return real(frame, mus, mu0_offset=mu0_offset)

        monkeypatch.setattr(strata, "verify_simplex", comparing)
        assert sweep_identities(6, 3, which="simplex").passed
        assert len(checked) == sum(comb(3 + k, k) for d in range(1, 7) for k in range(d + 1))

    def test_each_multiset_is_extended_once(self, monkeypatch):
        # one product per nonempty multiset, one step from its prefix, and none for a further d
        calls = count_linear_products(monkeypatch)
        d_max, mu_max = 7, 3
        assert sweep_identities(d_max, mu_max, which="simplex").passed
        assert len(calls) == sum(comb(mu_max + k, k) for k in range(1, d_max + 1)) == 329
