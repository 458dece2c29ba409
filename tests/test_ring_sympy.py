"""Differential test of the localized ring against sympy's rational functions.

The oracle is sympy's field Q(L): its elements are kept in lowest terms by
``cancel``, so two of them are equal exactly when they are the same rational
function.  sympy is a test-only dependency; the package never imports it.
"""

import random

import pytest

from mchern.ring import LPolynomial, MotivicClass, _lowest_terms, _mul_cyclotomic

sympy = pytest.importorskip("sympy")

R, L = sympy.ring("L", sympy.QQ)
K = sympy.field("L", sympy.QQ)[0]


def poly(coeffs):
    return sum((c * L**i for i, c in enumerate(coeffs)), R.zero)


def as_sympy(value: MotivicClass):
    den = K.one
    for mu in value.den:
        den *= K(poly([1] * (mu + 1)))
    return K(poly(value.num.coeffs)) / den


def random_class(rng: random.Random) -> MotivicClass:
    coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(0, 6))]
    den = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
    if den and rng.random() < 0.4:
        # make a factor cancel, so reduced() has work to do
        return MotivicClass(LPolynomial(coeffs) * LPolynomial((1,) * (den[0] + 1)), den)
    return MotivicClass(LPolynomial(coeffs), den)


@pytest.mark.parametrize("seed", range(2))
def test_ring_operations_agree_with_sympy(seed):
    rng = random.Random(seed)
    for _ in range(50):
        a, b, c = (random_class(rng) for _ in range(3))
        fa, fb, fc = map(as_sympy, (a, b, c))
        assert as_sympy(a + b) == fa + fb
        assert as_sympy(a - b) == fa - fb
        assert as_sympy(a * b) == fa * fb
        assert as_sympy(MotivicClass.sum((a, b, c))) == fa + fb + fc
        assert (a == b) == (fa == fb)

        red = a.reduced()
        assert as_sympy(red) == fa
        # a factor left in the denominator does not divide the numerator
        for mu in red.den:
            assert poly(red.num.coeffs) % poly([1] * (mu + 1)) != 0



def long_term(rng: random.Random, pool: list[int]) -> MotivicClass:
    """A numerator of 65-120 coefficients, often a multiple of factors in ``pool``, over 1-3 of them."""
    shared = [mu for mu in pool if rng.random() < 0.5]
    num = LPolynomial([rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(65, 120) - sum(shared))])
    for mu in shared:
        num = num * LPolynomial((1,) * (mu + 1))
    return MotivicClass(num, rng.sample(pool, rng.randint(1, 3)))


@pytest.mark.parametrize("seed", range(2))
def test_long_sums_agree_with_sympy(seed):
    # past 64 coefficients the merge tree cancels factors as it adds
    rng = random.Random(200 + seed)
    for _ in range(10):
        pool = rng.sample(range(1, 13), 4)
        terms = [long_term(rng, pool) for _ in range(rng.randint(3, 8))]
        total = MotivicClass.sum(terms)
        assert as_sympy(total) == sum(map(as_sympy, terms), K.zero)
        assert as_sympy(total.reduced()) == as_sympy(total)


@pytest.mark.parametrize("seed", range(2))
def test_lowest_terms_match_sympy_cancel(seed):
    rng = random.Random(100 + seed)
    for _ in range(60):
        a = random_class(rng) * MotivicClass(LPolynomial.one(), [rng.randint(1, 7)])
        num, phis = _lowest_terms(list(a.num.coeffs), a.den)
        den = R.one
        for d, count in phis.items():
            den *= poly(_mul_cyclotomic([1], d)) ** count
        # sympy keeps a field element in lowest terms up to a constant: divide it out
        f = as_sympy(a)
        lc = f.denom.LC
        assert (poly(num), den) == (f.numer.quo_ground(lc), f.denom.quo_ground(lc))
        red = a.reduced()  # the canonical form has the same lowest terms
        assert _lowest_terms(list(red.num.coeffs), red.den) == (num, phis)
        assert as_sympy(red) == f


@pytest.mark.parametrize("d", range(2, 41))
def test_cyclotomic_factor_matches_sympy(d):
    assert poly(_mul_cyclotomic([1], d)) == R(sympy.cyclotomic_poly(d, sympy.Symbol("L")))
