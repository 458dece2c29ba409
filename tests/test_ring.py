import operator
import random
import sys
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
    _plus,
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


def horner(coeffs, x):
    """Horner's rule, the reference value of a coefficient sequence at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(10**6), 10**6), max_size=140),
        st.one_of(st.integers(-70000, 70000), st.fractions(max_denominator=10**4)),
    )
    @example([1] + [0] * 99 + [1], 65536)
    @example([7] * 33, Fraction(-3, 2))
    @example([], Fraction(1, 3))
    def test_evaluate_equals_horner(self, coeffs, x):
        p = LPolynomial(coeffs)
        got, expected = p.evaluate(x), horner(p.coeffs, x)
        assert got == expected and type(got) is type(expected)

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


class TestDecimalAt:
    def test_degrees_refuse_only_what_str_refuses(self, monkeypatch):
        # a limit of 640 digits, Python's smallest, so every value here is cheap to compute
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
        # numerators with a root among the q, where the value is 0 whatever the degrees
        vanishing = [LPolynomial((2, -1)), LPolynomial((-1001, 1)), LPolynomial((0, -3, 1)) ** 450]
        classes = [
            MotivicClass(LPolynomial.monomial(n, c) + 2, den)
            for n in range(0, 2400, 97) for c in (1, -5) for den in ((), (1, 3), (n // 2,))
        ] + [MotivicClass(LPolynomial((c, 0, 1)), (mu, mu)) for mu in range(0, 1200, 61) for c in (0, 7)]
        classes += [
            MotivicClass(p, den) for p in vanishing for mu in range(0, 2400, 97) for den in ((mu,), (mu // 2, 1))
        ]

        class Evaluated(Exception):
            pass

        def evaluated(self, x):
            raise Evaluated

        refused = 0
        for value in classes:
            for q in (2, 3, 10, 12, 1001, 2**20 + 1):
                exact = value.eval_at(q)
                with monkeypatch.context() as m:
                    m.setattr(LPolynomial, "evaluate", evaluated)
                    try:
                        value.decimal_at(q, "the value")
                    except ValueError as err:
                        refused += 1
                        assert str(err) == "the value has more than 640 digits"
                        assert max(abs(exact.numerator), exact.denominator) >= 10**640
                    except Evaluated:
                        pass
        assert refused > 100


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


# numerators of terms that share one denominator
sum_numerators = st.lists(st.integers(-5, 5), max_size=10).map(LPolynomial)


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

    @settings(max_examples=150, deadline=None)
    @given(sum_numerators, sum_numerators, sum_numerators, st.lists(st.integers(0, 3), max_size=4))
    @example(LPolynomial((1, 2)), LPolynomial((3, 0, 1)), LPolynomial((0, 1)), [2, 1, 2])
    @example(LPolynomial((1, 1)), LPolynomial((1, 1)), LPolynomial(()), [])
    def test_shared_denominator_paths_equal_the_merge_route(self, p, q, r, den):
        a, b, c = MotivicClass(p, den), MotivicClass(q, den), MotivicClass(r)

        def fields(x):
            return x.num.coeffs, x.den

        assert fields(a + b) == fields(pairwise_add(a, b)) == fields(MotivicClass.sum((a, b)))
        assert fields(a - b) == fields(pairwise_add(a, -b)) == fields(MotivicClass.sum((a, -b)))
        assert fields(a * c) == fields(c * a) == fields(MotivicClass(p * r, den))
        assert (a == b) is cross_equal(a, b) is (b == a) is (p == q)

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


# 7 to 24 distinct denominators, so the left fold merges six to 23 times;
# repeated mu and zero numerators included
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


def assert_matches_pairwise_fold(got, terms):
    """``got`` against the pairwise oracle, which never cancels: field for field once both are
    reduced, and raw when no merge of the fold can pass ``_CANCEL_LENGTH`` coefficients (every
    partial union lies in the full one, so no merged numerator outgrows the oracle's widest)."""
    expected = reduce(pairwise_add, terms, MotivicClass.zero())
    assert fields(got.reduced()) == fields(expected.reduced()) and (got - expected).num.coeffs == ()
    union = reduce(operator.or_, (Counter(t.den) for t in terms), Counter())
    widths = [len(t.num.coeffs) + sum((union - Counter(t.den)).elements()) for t in terms]
    if max(widths, default=0) <= ring._CANCEL_LENGTH:
        assert fields(got) == fields(expected)


# a merge past 64 coefficients cancels [P^mu] factors the oracle keeps: L^4 over () against
# a 65-coefficient numerator over fifteen factors
CANCELLING_TERMS = [
    MotivicClass(0, (1,)), MotivicClass(0, (2, 2)), MotivicClass(0, (3, 3)), MotivicClass(0, (5, 5, 5)),
    MotivicClass(0, (6, 6, 6)), MotivicClass(0, (4, 4, 4, 4)), MotivicClass(LPolynomial.monomial(4)),
]


class TestMergeTree:
    @settings(max_examples=60, deadline=None)
    @given(tree_terms)
    @example([MotivicClass(0, (mu, mu)) for mu in range(1, 7)] + [MotivicClass(1, (6,))])
    @example(CANCELLING_TERMS)
    def test_equals_pairwise_fold_field_for_field(self, terms):
        got = MotivicClass.sum(terms)
        assert (got.num.coeffs, got.den) == fold_fields(terms)
        assert_matches_pairwise_fold(got, terms)

    @settings(max_examples=60, deadline=None)
    @given(tree_terms, st.lists(st.integers(0, 23), max_size=8))
    @example(CANCELLING_TERMS, [])
    def test_plus_minus_folds_over_shared_denominators(self, terms, picks):
        # repeated picks put equal denominators side by side, on the direct paths
        subs = [terms[i % len(terms)] for i in picks]
        signed = terms + [-t for t in subs]
        got = reduce(operator.sub, subs, reduce(operator.add, terms))
        assert fields(got) == fields(MotivicClass.sum(signed))
        assert_matches_pairwise_fold(got, signed)
        assert got - got == 0

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


def long_terms(rng):
    """3-8 terms with numerators of 65-120 coefficients over 1-3 factors each, the union
    holding at least 3 distinct factors; most numerators are multiples of some of them."""
    while True:
        pool = rng.sample(range(1, 13), 5)
        terms = []
        for _ in range(rng.randint(3, 8)):
            base = dense_product(mu for mu in pool if rng.random() < 0.5)
            free = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(65, 120) - len(base) + 1)]
            terms.append(MotivicClass(LPolynomial(convolve(free, base)), rng.sample(pool, rng.randint(1, 3))))
        if len({mu for t in terms for mu in t.den}) >= 3:
            return terms


class TestCancelInsideMerge:
    """Merges past 64 coefficients cancel factors: same value, not same fields."""

    def test_equals_pairwise_fold_in_value_and_json(self):
        rng = random.Random(21)
        fewer = 0
        for _ in range(120):
            terms = long_terms(rng)
            expected = reduce(pairwise_add, terms, MotivicClass.zero())
            for got in (MotivicClass.sum(terms), reduce(operator.add, terms)):
                assert cross_equal(got, expected) and got == expected
                assert got.to_json() == expected.to_json()
                assert Counter(got.den) <= Counter(expected.den)
                assert_well_formed(got)
                fewer += len(got.den) < len(expected.den)
        assert fewer > 60

    def test_a_merge_leaves_no_factor_that_divides(self):
        # one merge past the threshold: every [P^mu] left fails to divide the numerator
        rng = random.Random(22)
        cancelled = 0
        for _ in range(150):
            a, b = long_terms(rng)[:2]
            union = _union_lacks(a.den, b.den)[0]
            if a.den == b.den:  # equal denominators add with no merge
                continue
            got = MotivicClass.sum((a, b))
            assert got == pairwise_add(a, b)
            assert all(_div_projective(list(got.num.coeffs), mu) is None for mu in got.den)
            cancelled += len(got.den) < len(union)
        assert cancelled > 20

    def test_at_most_64_coefficients_nothing_cancels(self, monkeypatch):
        def refuse(p, mu):
            raise AssertionError("no division at or below the threshold")

        monkeypatch.setattr(ring, "_div_projective", refuse)
        short = [MotivicClass(LPolynomial([1] * 61), (1, 2)), MotivicClass(LPolynomial([1] * 61), (3,))]
        assert MotivicClass.sum(short).den == (1, 2, 3)
        assert len(MotivicClass.sum(short).num.coeffs) == 64

    def test_two_factors_cancel_too(self):
        # [P^2] divides L^70 [P^2] [P^5] + [P^2]; [P^5] does not divide what is left
        two = [MotivicClass(LPolynomial.monomial(70) * dense_poly((2,)), (2,)), MotivicClass(1, (5,))]
        assert MotivicClass.sum(two).den == (5,)
        assert MotivicClass.sum(two) == MotivicClass(LPolynomial.monomial(70), ()) + MotivicClass(1, (5,))

    def test_each_mu_is_tried_once_largest_first(self, monkeypatch):
        # 3 L^70 [P^5] + [P^2]^3 over [P^2]^3 [P^5]: [P^5] fails, the first [P^2] divides,
        # as [P^5] = [P^2] (1 + L^3), and the other two fail; a failed mu is tried again
        tried = []

        def spy(p, mu):
            tried.append(mu)
            return _div_projective(p, mu)

        terms = [MotivicClass(LPolynomial.monomial(70, 3), (2, 2, 2)), MotivicClass(1, (5,))]
        expected = pairwise_add(*terms)
        monkeypatch.setattr(ring, "_div_projective", spy)
        got = MotivicClass.sum(terms)
        assert tried == [5, 2, 2, 2]
        assert got.den == (2, 2, 5) and got == expected and got.to_json() == expected.to_json()
        assert got.to_json() == {
            "numerator": "1 + 2*L + 3*L^2 + 2*L^3 + L^4 + 3*L^70 + 3*L^73",
            "denominator": [2, 2, 5],
        }

    def test_reduced_tries_each_mu_once_largest_first(self, monkeypatch):
        # 3 L^70 over [P^1] [P^2]^2 [P^5]: no [P^mu] divides it, and each is tried once;
        # the Phi pass is not spied and leaves the value as it is
        value = MotivicClass(LPolynomial.monomial(70, 3), (1, 2, 2, 5))
        tried, lowest_terms = [], ring._lowest_terms

        def spy(p, mu):
            tried.append(mu)
            return _div_projective(p, mu)

        def unspied(num, mus):
            monkeypatch.setattr(ring, "_div_projective", _div_projective)
            return lowest_terms(num, mus)

        monkeypatch.setattr(ring, "_div_projective", spy)
        monkeypatch.setattr(ring, "_lowest_terms", unspied)
        assert fields(value.reduced()) == (LPolynomial.monomial(70, 3), (1, 2, 2, 5))
        assert tried == [5, 2, 2, 1]
        assert value.to_json() == {"numerator": "3*L^70", "denominator": [1, 2, 2, 5]}

    def test_a_fiber_chi_stays_short(self):
        # chi of a 60-curve chain fiber is 1; without cancelling, its numerator has
        # about sum(mu) = 1830 coefficients by the root of the merge tree
        from mchern.surface import GenericPoint, PointOnCurve, SurfaceModel

        chain = SurfaceModel((GenericPoint(),) + tuple(PointOnCurve(j) for j in range(1, 60)))
        system, loci = chain.export_modification_system(0)
        (fiber,) = (locus for name, locus in loci.items() if name != "full")
        chi = system.chi(fiber)
        assert chi == 1 and len(chi.num.coeffs) <= 2 * 64


# numerators of up to 90 coefficients over up to four factors, repeats included, so
# partial sums pass 64 coefficients; equal denominators fall side by side and apart
fold_terms = st.lists(
    st.builds(
        MotivicClass,
        st.lists(st.integers(-3, 3), max_size=90).map(LPolynomial),
        st.lists(st.integers(0, 12), max_size=4),
    ),
    max_size=10,
)


def fold_fields(terms):
    """The fields of reduce(operator.add, terms), and of zero for no terms."""
    total = reduce(operator.add, terms) if terms else MotivicClass.zero()
    return total.num.coeffs, total.den


class TestLeftFold:
    """The contract of MotivicClass.sum: the left fold of ``+``, field for field."""

    @staticmethod
    def assert_every_prefix(terms):
        for n in range(len(terms) + 1):
            got = MotivicClass.sum(terms[:n])
            assert (got.num.coeffs, got.den) == fold_fields(terms[:n])

    @settings(max_examples=100, deadline=None)
    @given(fold_terms)
    def test_equals_the_plus_fold(self, terms):
        self.assert_every_prefix(terms)

    def test_equals_the_plus_fold_where_merges_cancel(self):
        # numerators that are multiples of their factors, so merges past 64 coefficients
        # cancel some; a term repeated apart and side by side
        rng = random.Random(24)
        shorter = 0
        for _ in range(60):
            terms = long_terms(rng)
            terms += [terms[0], terms[0], MotivicClass(3, terms[-1].den)]
            self.assert_every_prefix(terms)
            union = reduce(lambda u, t: _union_lacks(u, t.den)[0], terms, ())
            shorter += len(MotivicClass.sum(terms).den) < len(union)
        assert shorter > 30

    def test_a_chain_fiber_telescopes(self):
        # chi's terms in mask order: the fold equals the + fold, and its partial sums
        # stay short, as each merge past 64 coefficients cancels what divides it
        from mchern.surface import GenericPoint, PointOnCurve, SurfaceModel

        chain = SurfaceModel((GenericPoint(),) + tuple(PointOnCurve(j) for j in range(1, 60)))
        system, loci = chain.export_modification_system(0)
        (fiber,) = (locus for name, locus in loci.items() if name != "full")
        terms = [
            MotivicClass(cls.num, cls.den + system.mu_of_mask(mask))
            for mask, cls in sorted(fiber.strata.items())
        ]
        self.assert_every_prefix(terms)
        assert all(len(MotivicClass.sum(terms[:n]).num.coeffs) <= 2 * 64 for n in range(len(terms) + 1))
        chi = system.chi(fiber)
        assert (chi.num.coeffs, chi.den) == fold_fields(terms) and chi == 1


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

    @settings(max_examples=300)
    @given(
        st.one_of(coeff_lists, st.lists(st.integers(-(10**100), 10**100), max_size=7)),
        st.integers(0, 40),
        st.sampled_from(("as drawn", "times [P^mu]", "times [P^mu], one nudged")),
        st.integers(0, 3),
    )
    @example([], 5, "as drawn", 3)  # all zeros, shorter than mu + 1
    @example([], 5, "as drawn", 60)  # all zeros, longer
    @example([2, 2, 2], 5, "as drawn", 0)  # equal residues up to len(p), and then s_3 = 0
    @example([1, 3, 3], 2, "as drawn", 0)  # only residue 0 differs
    @example([1] * 41, 40, "as drawn", 0)  # [P^40] itself
    @example([10**99 + 7, -(10**99), 3], 2, "times [P^mu]", 2)
    def test_divide_matches_long_division(self, c, mu, how, zeros):
        # untrimmed numerators keep their length: the quotient has len(p) - mu coefficients
        p = list(c) if how == "as drawn" else _mul_projective(c, mu)
        if how.endswith("nudged") and p:
            p[len(p) // 2] += 1
        p += [0] * zeros
        quot, rem = LPolynomial(p).divide_by_monic(projective_poly(mu))
        got = _div_projective(p, mu)
        width = max(len(p) - mu, 0)
        assert got == (list(quot.coeffs) + [0] * (width - len(quot.coeffs)) if rem.is_zero() else None)

    @given(coeff_lists, coeff_lists)
    @example([1, 2, 3], [-1, -2, -3])  # cancels to trailing zeros, which stay
    @example([4], [0, 1, -4, 2])
    def test_plus_is_a_new_elementwise_sum(self, a, b):
        before = (list(a), list(b))
        got = _plus(a, b)
        n = max(len(a), len(b))
        assert got == [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
        assert (a, b) == before and got is not a and got is not b
        assert LPolynomial(a) + LPolynomial(b) == LPolynomial(got)

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
