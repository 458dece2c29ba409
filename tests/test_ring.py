from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mchern import ring
from mchern.ring import (
    INPUT_BOUND,
    LPolynomial,
    MotivicClass,
    _div_cyclotomic,
    _div_projective,
    _mul_cyclotomic,
    _mul_projective,
    _union_lacks,
    affine_class,
    bounded,
    projective_class,
    projective_poly,
    torus_class,
)


def convolve(a, b):
    """Independent polynomial-product oracle over plain lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


lpolys = st.lists(st.integers(-9, 9), max_size=5).map(LPolynomial)
classes = st.builds(
    MotivicClass, lpolys, st.lists(st.integers(1, 4), max_size=3).map(tuple)
)


class TestLPolynomial:
    def test_trailing_zeros_stripped(self):
        p = LPolynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert p.degree == 1
        assert LPolynomial((0, 0)).is_zero()
        assert LPolynomial(()).degree == -1

    @given(st.lists(st.integers(-9, 9), max_size=6), st.lists(st.integers(-9, 9), max_size=6))
    def test_mul_matches_convolution(self, a, b):
        expected = LPolynomial(convolve(a, b))
        assert LPolynomial(a) * LPolynomial(b) == expected

    def test_monic_division(self):
        num = LPolynomial((1, 1, 1, 1))  # [P^3]
        quot, rem = num.divide_by_monic(LPolynomial((1, 1)))
        assert rem.is_zero()
        assert quot == LPolynomial((1, 0, 1))
        quot, rem = LPolynomial((1,)).divide_by_monic(LPolynomial((1, 1)))
        assert quot.is_zero() and rem == LPolynomial((1,))

    def test_non_monic_divisor_rejected(self):
        with pytest.raises(ValueError):
            LPolynomial((1, 1)).divide_by_monic(LPolynomial((1, 2)))

    def test_pow(self):
        assert LPolynomial((-1, 1)) ** 2 == LPolynomial((1, -2, 1))
        assert LPolynomial((3,)) ** 0 == LPolynomial.one()

    def test_evaluate_exact(self):
        p = LPolynomial((1, -2, 1))
        assert p.evaluate(1) == 0
        assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 + x", "cannot parse term 'x' in '1 + x'"),
            ("L^", "cannot parse term 'L^' in 'L^'"),
            ("1 +", "cannot parse polynomial '1 +'"),
            ("2^3", "exponent without L in term '2^3'"),
            ("2*", "cannot parse term '2*' in '2*'"),
            ("1 + 3*", "cannot parse term '3*' in '1 + 3*'"),
            ("1 + " + "x" * 50, "cannot parse term '" + "x" * 40 + "'... (50 characters) in '1 + x"),
        ],
    )
    def test_parse_errors_quote_at_most_a_prefix(self, text, message):
        with pytest.raises(ValueError) as err:
            LPolynomial.from_text(text)
        assert str(err.value).startswith(message)


class TestConstructors:
    def test_projective_class(self):
        assert projective_class(0) == MotivicClass.one()
        assert projective_class(2) == MotivicClass(LPolynomial((1, 1, 1)))
        assert projective_class(5) == MotivicClass(LPolynomial((1,) * 6))
        with pytest.raises(ValueError):
            projective_class(-1)

    def test_affine_class(self):
        assert affine_class(0) == MotivicClass.one()
        assert affine_class(1) == MotivicClass(LPolynomial((0, 1)))
        assert affine_class(3) == MotivicClass(LPolynomial((0, 0, 0, 1)))

    def test_torus_class(self):
        assert torus_class(0) == MotivicClass.one()
        assert torus_class(1) == MotivicClass(LPolynomial((-1, 1)))
        assert torus_class(2) == MotivicClass(LPolynomial((1, -2, 1)))

    def test_projective_poly_negative_is_zero(self):
        assert projective_poly(-1).is_zero()


class TestArithmetic:
    def test_linear_combination(self):
        value = projective_class(1) + projective_class(1) - projective_class(0)
        assert value == MotivicClass(LPolynomial((1, 2)))

    def test_product(self):
        assert projective_class(1) * projective_class(1) == MotivicClass(
            LPolynomial((1, 2, 1))
        )

    def test_fraction_sum_reduces(self):
        # 1/[P^1] + L/[P^1] = (1 + L)/(1 + L) = 1, by cross-multiplication
        lhs = MotivicClass(LPolynomial.one(), (1,)) + MotivicClass(LPolynomial((0, 1)), (1,))
        assert lhs == 1

    def test_div_by_projective(self):
        assert MotivicClass(projective_poly(2), (2,)) == 1
        half = MotivicClass(LPolynomial.one(), (1,))
        assert half.den == (1,)
        assert MotivicClass(LPolynomial((0, 1, 1)), (1,)) == affine_class(1)

    def test_int_coercion(self):
        assert projective_class(1) - 1 == affine_class(1)
        assert 2 * projective_class(0) == MotivicClass.from_int(2)


class TestSpecializations:
    def test_euler(self):
        assert projective_class(2).euler_specialize() == 3
        assert MotivicClass(LPolynomial((1, 2, 1))).euler_specialize() == 4
        assert MotivicClass(projective_poly(1), (1,)).euler_specialize() == 1

    @given(st.integers(0, 8))
    def test_euler_of_projective(self, mu):
        assert projective_class(mu).euler_specialize() == mu + 1

    def test_eval_at(self):
        assert projective_class(2).eval_at(2) == 7
        assert affine_class(1).eval_at(3) == 3
        assert torus_class(2).eval_at(2) == 1
        with pytest.raises(ValueError):
            projective_class(1).eval_at(1)

    @settings(max_examples=100, deadline=None)
    @given(classes, classes, st.integers(2, 5))
    def test_eval_at_is_ring_homomorphism(self, a, b, q):
        assert (a + b).eval_at(q) == a.eval_at(q) + b.eval_at(q)
        assert (a * b).eval_at(q) == a.eval_at(q) * b.eval_at(q)


class TestPolynomiality:
    def test_exact_quotient(self):
        value = MotivicClass(LPolynomial((0, 1, 1)), (1,)).reduced()  # (L^2 + L)/[P^1]
        assert (value.num, value.den) == (LPolynomial((0, 1)), ())

    def test_non_polynomial(self):
        assert MotivicClass(LPolynomial.one(), (1,)).reduced().den == (1,)

    def test_quotient_via_product_oracle(self):
        # (1 + L)(1 + L^2) = [P^3], so [P^3]/[P^1] = 1 + L^2
        assert LPolynomial(convolve([1, 1], [1, 0, 1])) == projective_poly(3)
        value = MotivicClass(projective_poly(3), (1,)).reduced()
        assert (value.num, value.den) == (LPolynomial((1, 0, 1)), ())

    def test_shared_root_factors(self):
        # [P^3] = [P^1] * (1 + L^2): cancellation must survive repeated [P^1]s
        num = projective_poly(3) * projective_poly(1)
        value = MotivicClass(num, (3, 1)).reduced()
        assert (value.num, value.den) == (LPolynomial.one(), ())

    def test_reduced_form(self):
        value = MotivicClass(LPolynomial((0, 1, 1)), (1,))
        red = value.reduced()
        assert red.den == ()
        assert red.num == LPolynomial((0, 1))
        assert red == value


def fields(value):
    return value.num, value.den


def rewritten(x, ups, downs):
    """x * prod [P^e] / prod [P^e] over ``ups``, then [P^f] / [P^f] over ``downs``: x again."""
    y = MotivicClass(reduce(lambda p, e: p * projective_poly(e), ups, x.num), x.den + tuple(ups))
    return reduce(lambda v, f: v * MotivicClass(projective_poly(f), (f,)), downs, y)


exponent_lists = st.lists(st.integers(1, 7), max_size=3)


class TestCanonicalForm:
    """reduced() is the lowest-terms form over Phi_d, covered greedily by [P^mu]s."""

    @settings(max_examples=200, deadline=None)
    @given(classes, exponent_lists, exponent_lists)
    @example(MotivicClass(LPolynomial.one(), (1,)), [3], [])  # (1 + L^2) / [P^3] with [P^1]
    @example(MotivicClass(LPolynomial.one(), (3,)), [2, 5], [11])
    def test_equal_values_print_equal(self, x, ups, downs):
        y = rewritten(x, ups, downs)
        assert y == x
        assert y.to_json() == x.to_json()
        assert fields(y.reduced()) == fields(x.reduced())

    @settings(max_examples=200, deadline=None)
    @given(classes, classes)
    def test_equal_json_iff_equal_values(self, x, z):
        assert (x.to_json() == z.to_json()) == (x == z)

    def test_written_two_ways(self):
        x = MotivicClass(LPolynomial.from_text("1 + L^2"), (3,))
        assert x.to_json() == {"numerator": "1", "denominator": [1]}
        assert str(x) == "(1) / ([P^1])"

    @settings(max_examples=200, deadline=None)
    @given(classes, exponent_lists, exponent_lists)
    def test_decode_encode_is_identity_on_canonical_form(self, x, ups, downs):
        back = MotivicClass.from_json(rewritten(x, ups, downs).to_json())
        assert back == x
        assert fields(back) == fields(x.reduced())

    @settings(max_examples=200, deadline=None)
    @given(classes, exponent_lists, exponent_lists)
    def test_reduced_is_idempotent(self, x, ups, downs):
        red = rewritten(x, ups, downs).reduced()
        assert fields(red.reduced()) == fields(red)
        assert red == x

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.lists(st.integers(1, 11), max_size=4))
    @example(0, [3])
    @example(2, [1, 3, 5])
    def test_a_product_of_projective_classes_is_its_own_form(self, k, mus):
        # no Phi_d divides L^k, and greedy largest-first rebuilds every [P^mu] as written
        red = MotivicClass(LPolynomial.monomial(k), mus).reduced()
        assert fields(red) == (LPolynomial.monomial(k), tuple(sorted(mus)))


class TestRingLaws:
    @settings(max_examples=120, deadline=None)
    @given(classes, classes, classes)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=120, deadline=None)
    @given(classes, classes, classes)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=120, deadline=None)
    @given(classes)
    def test_self_cancellation(self, a):
        assert (a - a).is_zero() or (a - a) == 0

    @settings(max_examples=120, deadline=None)
    @given(classes, classes)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=80, deadline=None)
    @given(classes, st.integers(0, 4))
    def test_divide_then_multiply_roundtrip(self, a, mu):
        assert a * projective_class(mu) * MotivicClass(LPolynomial.one(), (mu,)) == a


def dense_product(mus):
    """prod [P^mu] as a coefficient list, by schoolbook convolution."""
    return reduce(lambda acc, mu: convolve(acc, [1] * (mu + 1)), mus, [1])


def pairwise_add(a, b):
    """The pairwise sum over the max-multiplicity union, with dense cofactors."""
    ca, cb = Counter(a.den), Counter(b.den)
    union = ca | cb
    na = convolve(list(a.num.coeffs), dense_product((union - ca).elements()))
    nb = convolve(list(b.num.coeffs), dense_product((union - cb).elements()))
    width = max(len(na), len(nb))
    na, nb = na + [0] * (width - len(na)), nb + [0] * (width - len(nb))
    return MotivicClass(LPolynomial([x + y for x, y in zip(na, nb)]), union.elements())


coeff_lists = st.lists(st.integers(-9, 9), max_size=7)
# numerators up to degree 9 over up to four factors with repeats, zeros and
# mu = 0 included: numerators may outgrow their denominators
sum_terms = st.lists(
    st.builds(
        MotivicClass,
        st.lists(st.integers(-5, 5), max_size=10).map(LPolynomial),
        st.lists(st.integers(0, 3), max_size=4),
    ),
    max_size=6,
)


class TestOnePassSum:
    @settings(max_examples=150, deadline=None)
    @given(sum_terms)
    @example([])
    @example([MotivicClass(0, (2, 2)), MotivicClass(0, (1,))])
    @example([MotivicClass(LPolynomial.monomial(9), (1,)), MotivicClass(1, (3, 3))])
    def test_equals_pairwise_fold_field_for_field(self, terms):
        expected = reduce(pairwise_add, terms, MotivicClass.zero())
        for got in (MotivicClass.sum(terms), sum(terms, MotivicClass.zero())):
            assert got.num.coeffs == expected.num.coeffs
            assert got.den == expected.den

    def test_empty_is_zero(self):
        total = MotivicClass.sum(())
        assert total.num.coeffs == () and total.den == ()

    def test_zero_terms_keep_their_denominators(self):
        total = MotivicClass.sum([MotivicClass(0, (2,)), MotivicClass(1), MotivicClass(0, (1, 1))])
        assert total.den == (1, 1, 2)
        assert total.num.coeffs == tuple(dense_product((1, 1, 2)))
        assert total == 1

    def test_repeated_mu_takes_the_top_multiplicity(self):
        total = MotivicClass.sum([MotivicClass(1, (1, 1)), MotivicClass(1, (1, 2))])
        assert total.den == (1, 1, 2)
        assert total == MotivicClass(projective_poly(2) + projective_poly(1), (1, 1, 2))

    def test_numerator_longer_than_the_common_denominator(self):
        big = MotivicClass(LPolynomial.monomial(12, 3), (1,))
        total = MotivicClass.sum([big, MotivicClass(1, (2,)), MotivicClass(LPolynomial.monomial(7))])
        assert total.den == (1, 2)
        assert total.num.degree == 14
        assert total.eval_at(2) == Fraction(3 * 2**12, 3) + Fraction(1, 7) + 2**7


# 7 to 24 distinct denominators, so a merge tree has at least four levels and
# odd leftovers; repeated mu and zero numerators included
tree_terms = st.lists(
    st.builds(
        MotivicClass,
        st.lists(st.integers(-5, 5), max_size=6).map(LPolynomial),
        st.lists(st.integers(0, 6), max_size=4),
    ),
    min_size=7,
    max_size=24,
    unique_by=lambda t: t.den,
)


def groups(n):
    """n terms with n distinct denominators [P^a][P^b], 1 <= a <= b."""
    dens = [(a, b) for b in range(1, 10) for a in range(1, b + 1)][:n]
    return [MotivicClass(LPolynomial((j, 1, -j)), den) for j, den in enumerate(dens)]


class TestMergeTree:
    @settings(max_examples=60, deadline=None)
    @given(tree_terms)
    @example([MotivicClass(0, (mu, mu)) for mu in range(1, 7)] + [MotivicClass(1, (6,))])
    def test_equals_pairwise_fold_field_for_field(self, terms):
        expected = reduce(pairwise_add, terms, MotivicClass.zero())
        got = MotivicClass.sum(terms)
        assert got.num.coeffs == expected.num.coeffs
        assert got.den == expected.den

    @pytest.mark.parametrize("n", [2, 3, 33])
    def test_fixed_group_counts(self, n):
        terms = groups(n)
        expected = reduce(pairwise_add, terms, MotivicClass.zero())
        got = MotivicClass.sum(terms)
        assert (got.num.coeffs, got.den) == (expected.num.coeffs, expected.den)
        assert got.eval_at(2) == sum(t.eval_at(2) for t in terms)

    def test_divides_nothing(self, monkeypatch):
        terms = groups(33) + [MotivicClass(LPolynomial((1, 2, 1)), (1, 2))]
        expected = reduce(pairwise_add, terms, MotivicClass.zero())

        def refuse(p, mu):
            raise AssertionError("MotivicClass.sum must not divide")

        monkeypatch.setattr(ring, "_div_projective", refuse)
        got = MotivicClass.sum(terms)
        assert (got.num.coeffs, got.den) == (expected.num.coeffs, expected.den)


def dense_poly(mus):
    return LPolynomial(dense_product(mus))


def cross_equal(a, b):
    """== by dense cross-multiplication with the cofactors Counter finds."""
    ca, cb = Counter(a.den), Counter(b.den)
    left = convolve(list(a.num.coeffs), dense_product((cb - ca).elements()))
    right = convolve(list(b.num.coeffs), dense_product((ca - cb).elements()))
    return left == right


# sorted exponent tuples over a small range, so repeats on both sides are common
sorted_dens = st.lists(st.integers(1, 4), max_size=8).map(lambda xs: tuple(sorted(xs)))


class TestSortedDenominators:
    @settings(max_examples=200)
    @given(sorted_dens, sorted_dens)
    @example((), ())
    @example((), (2, 2))
    @example((1, 2, 2), (1, 2, 2))
    @example((1, 1, 2), (1, 2, 2))
    def test_union_lacks_match_counter(self, a, b):
        ca, cb = Counter(a), Counter(b)
        union, lack_a, lack_b = _union_lacks(a, b)
        assert union == tuple(sorted((ca | cb).elements()))
        assert Counter(lack_a) == (ca | cb) - ca
        assert Counter(lack_b) == (ca | cb) - cb

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), max_size=6).map(LPolynomial),
        sorted_dens,
        sorted_dens,
        sorted_dens,
        st.integers(-2, 2),
    )
    @example(LPolynomial.one(), (), (1, 1, 2), (1, 2, 2), 0)
    @example(LPolynomial.one(), (), (1, 1, 2), (1, 2, 2), 1)
    def test_eq_matches_counter_cross_multiplication(self, p, common, x, y, shift):
        # p / common written over two larger denominators, then one side moved
        a = MotivicClass(p * dense_poly(x), common + x)
        b = MotivicClass(p * dense_poly(y) + shift, common + y)
        assert (a == b) is cross_equal(a, b)
        assert (a == b) is (b == a)
        if shift == 0:
            assert a == b


def assert_well_formed(value):
    """The fields equal what the checking public constructors make of them."""
    assert type(value.den) is tuple
    assert value.den == MotivicClass(value.num, value.den).den
    assert value.num.coeffs == LPolynomial(value.num.coeffs).coeffs


class TestTrustedConstructors:
    @settings(max_examples=150, deadline=None)
    @given(classes, classes, st.integers(-3, 3))
    @example(MotivicClass(LPolynomial((0, 1)), (3, 1)), MotivicClass(LPolynomial((0, -1)), (2,)), 0)
    def test_results_are_well_formed(self, a, b, c):
        sums = (a + b, a - b, MotivicClass.sum((a, b, a)))
        for value in (*sums, -a, a * b, b * a, a * c, (a * b).reduced()):
            assert_well_formed(value)
        for poly in (a.num + b.num, a.num - a.num, -a.num, a.num * b.num, a.num * 0, a.num * c):
            assert poly.coeffs == LPolynomial(poly.coeffs).coeffs

    def test_reduced_keeps_the_denominator_ascending(self):
        value = MotivicClass(LPolynomial((1, 1)), (3, 1, 2, 2)).reduced()
        assert value.den == (2, 2, 3)
        assert_well_formed(value)


class TestProjectiveKernels:
    @given(coeff_lists.map(LPolynomial), st.integers(0, 6))
    def test_sliding_window_multiply(self, c, mu):
        assert _mul_projective(c.coeffs, mu) == list((c * projective_poly(mu)).coeffs)

    @given(coeff_lists, st.integers(0, 6))
    def test_exact_divide_inverts_multiply(self, c, mu):
        product = (LPolynomial(c) * projective_poly(mu)).coeffs
        assert _div_projective(product, mu) == list(LPolynomial(c).coeffs)

    @settings(max_examples=200)
    @given(coeff_lists, st.integers(0, 6))
    def test_divide_matches_long_division(self, p, mu):
        quot, rem = LPolynomial(p).divide_by_monic(projective_poly(mu))
        got = _div_projective(list(LPolynomial(p).coeffs), mu)
        assert got == (list(quot.coeffs) if rem.is_zero() else None)

    def test_reduced_keeps_an_indivisible_factor(self):
        # [P^3] = [P^1] (1 + L^2) is not a multiple of [P^2] = 1 + L + L^2
        red = MotivicClass(projective_poly(3), (1, 2)).reduced()
        assert red.num.coeffs == (1, 0, 1)
        assert red.den == (2,)
        assert red == MotivicClass(projective_poly(3), (1, 2))

    @given(coeff_lists, st.integers(2, 30))
    def test_cyclotomic_divide_inverts_multiply(self, c, d):
        c = list(LPolynomial(c).coeffs)
        product = _mul_cyclotomic(c, d)
        assert _div_cyclotomic(product, d) == c
        if c:
            assert _div_cyclotomic(product + [1], d) is None

    @pytest.mark.parametrize("mu", range(1, 13))
    def test_projective_class_is_the_product_of_its_cyclotomic_factors(self, mu):
        ds = [d for d in range(2, mu + 2) if (mu + 1) % d == 0]
        assert reduce(_mul_cyclotomic, ds, [1]) == list(projective_poly(mu).coeffs)


class TestInputBound:
    def test_the_bound_is_inclusive_and_named(self):
        assert bounded(INPUT_BOUND, "x") == INPUT_BOUND
        with pytest.raises(ValueError, match=f"^x {INPUT_BOUND + 1} exceeds the input bound {INPUT_BOUND}$"):
            bounded(INPUT_BOUND + 1, "x")

    def test_text_exponents(self):
        assert LPolynomial.from_text(f"2 + L^{INPUT_BOUND}").coeffs[-1] == 1
        with pytest.raises(ValueError, match="exponent of L"):
            LPolynomial.from_text(f"1 + L^{INPUT_BOUND + 1}")
        with pytest.raises(ValueError, match="exponent of L"):
            MotivicClass.from_json({"numerator": f"3*L^{INPUT_BOUND + 1}"})

    def test_denominator_exponents(self):
        value = MotivicClass.from_json({"numerator": "1", "denominator": [INPUT_BOUND, 1]})
        assert value.den == (1, INPUT_BOUND)
        with pytest.raises(ValueError, match="denominator exponent"):
            MotivicClass.from_json({"numerator": "1", "denominator": [1, INPUT_BOUND + 1]})
        # the type check still comes first
        with pytest.raises(ValueError, match="is not an integer"):
            MotivicClass.from_json({"numerator": "1", "denominator": ["x", INPUT_BOUND + 1]})
