"""Strata of linearly independent hyperplanes in a projective fiber.

A :class:`FiberFrame` fixes a fiber P^(d-1) together with k linearly
independent hyperplanes H_1, ..., H_k (0 <= k <= d).  The locus of points
lying on exactly the hyperplanes indexed by a subset I depends only on
|I| and has class

    (L-1)^(k-|I|-1) * L^(d-k)     when |I| < k,
    [P^(d-k-1)]                    when |I| = k.

Two identities over these classes drive the blow-up bookkeeping:

* simplex:     sum_I [H_I] * prod_{i not in I} [P^mu_i]  =  [P^(sum mu + d - 1)]
* simplexcor:  sum_I [H_I] / ([P^mu0] * prod_{i in I} [P^mu_i])
                 =  1 / prod_j [P^mu_j],   with mu0 = sum mu + d - 1.

Both are verified exactly; grouped by |I|, the sums need only the elementary
symmetric polynomials of the [P^mu_i], O(k^2) linear products.  mu0 is
:func:`discrepancy`, the one blow-up multiplicity rule; ``mu0_offset``
perturbs it so a harness can confirm the identities need the exact weight.
:func:`sweep_identities` checks one identity on every multiset of
multiplicities once, and counts cases as tuples in product order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import sub
from typing import Iterable, Optional, Sequence

from .ring import LPolynomial, MotivicClass, _add_coeffs, _mul_projective, projective_poly


def discrepancy(mus: Iterable[int], d: int) -> int:
    """mu0 of the divisor made by blowing up a codim-d center on divisors ``mus``: K' = pi*K + (d-1)E."""
    return sum(mus) + d - 1


@dataclass(frozen=True)
class FiberFrame:
    """Fiber P^(d-1) carrying k linearly independent hyperplanes."""

    d: int
    k: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("fiber dimension parameter d must be >= 1")
        if not 0 <= self.k <= self.d:
            raise ValueError("need 0 <= k <= d")


def _stratum_poly(d: int, k: int, size: int) -> LPolynomial:
    if size < k:
        torus = LPolynomial((-1, 1)) ** (k - size - 1)
        return torus * LPolynomial.monomial(d - k)
    return projective_poly(d - k - 1)


def hyperplane_stratum_class(frame: FiberFrame, size: int) -> MotivicClass:
    """Class of the locus on exactly ``size`` of the frame's hyperplanes."""
    if not 0 <= size <= frame.k:
        raise ValueError(f"subset size {size} out of range 0..{frame.k}")
    return MotivicClass(_stratum_poly(frame.d, frame.k, size))


def _weighted_numerator(frame: FiberFrame, mus: Sequence[int]) -> LPolynomial:
    """sum_I [H_I] * prod_{i not in I} [P^mu_i], grouped by j = k - |I|.

    Group j is [H_(k-j)] * e_j([P^mu_1], ..., [P^mu_k]), so the sum is
    L^(d-k) * sum_{j>=1} (L-1)^(j-1) e_j + [P^(d-k-1)], taken by Horner's
    rule in L - 1; its two parts occupy disjoint degrees.
    """
    if len(mus) != frame.k:
        raise ValueError(f"expected {frame.k} multiplicities, got {len(mus)}")
    e = [[1]]
    for mu in mus:  # e_j += e_(j-1) * [P^mu], top j first
        e.append(_mul_projective(e[-1], mu))
        for j in range(len(e) - 2, 0, -1):
            e[j] = _add_coeffs(e[j], _mul_projective(e[j - 1], mu))
    acc: list[int] = []
    for ej in reversed(e[1:]):  # acc <- acc * (L - 1) + e_j
        acc = _add_coeffs(list(map(sub, [0, *acc], [*acc, 0])), ej)
    return LPolynomial([1] * (frame.d - frame.k) + acc)


def verify_simplex(frame: FiberFrame, mus: Sequence[int], *, mu0_offset: int = 0) -> bool:
    """Check the weighted stratum sum against [P^(sum mu + d - 1)] exactly."""
    return _weighted_numerator(frame, mus) == projective_poly(discrepancy(mus, frame.d) + mu0_offset)


def verify_simplexcor(frame: FiberFrame, mus: Sequence[int], *, mu0_offset: int = 0) -> bool:
    """Check the localized form: weighted strata sum to 1 / prod [P^mu_j]."""
    # Over the common denominator [P^mu0] * prod_j [P^mu_j], the term for
    # subset I contributes [H_I] * prod_{i not in I} [P^mu_i] on top.
    num = _weighted_numerator(frame, mus)
    mu0 = discrepancy(mus, frame.d) + mu0_offset
    if mu0 < 0:
        return False
    return MotivicClass(num, (mu0, *mus)) == MotivicClass(LPolynomial.one(), mus)


def stratum_euler(d: int, k: int, size: int) -> int:
    """Euler characteristic of a stratum, counted combinatorially.

    For size < k the stratum is a torus of dimension k-size-1 times an
    affine cell, so it has Euler characteristic 0 unless size = k-1, where
    it is 1; for size = k it is the projective space P^(d-k-1).
    """
    if size < k:
        return 1 if size == k - 1 else 0
    return d - k


def euler_shadow_simplexcor(frame: FiberFrame, mus: Sequence[int], *, mu0_offset: int = 0) -> bool:
    """The simplexcor identity at L = 1, where [P^mu] becomes mu + 1, over Z.

    Times (mu0 + 1) * prod_j (mu_j + 1) it reads
    sum_s stratum_euler(d, k, s) * e_(k-s)(mu_1 + 1, ..., mu_k + 1) = mu0 + 1.
    """
    d, k = frame.d, frame.k
    mu0 = discrepancy(mus, d) + mu0_offset
    if mu0 < 0:
        return False
    e = [1]
    for mu in mus:
        e = [a + b * (mu + 1) for a, b in zip([*e, 0], [0, *e])]
    return sum(stratum_euler(d, k, s) * e[k - s] for s in range(k + 1)) == mu0 + 1


@dataclass(frozen=True)
class Counterexample:
    identity: str
    d: int
    k: int
    mus: tuple[int, ...]


@dataclass(frozen=True)
class SweepResult:
    cases: int
    counterexample: Optional[Counterexample]

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def sweep_identities(
    d_max: int,
    mu_max: int,
    *,
    which: str,
    mu0_offset: int = 0,
) -> SweepResult:
    """Exhaustive sweep over 1 <= d <= d_max, 0 <= k <= d, mu in {0..mu_max}^k.

    ``which`` is ``"simplex"`` or ``"simplexcor"``.  Both identities are
    symmetric in the mu_i, so each multiset is checked once, as its sorted
    tuple.  That tuple comes first among its permutations in product order,
    so the first failing multiset is the first failing tuple, and ``cases``
    counts the tuples up to it: those of the earlier (d, k) blocks, plus its
    rank as a base-(mu_max + 1) number, plus one.
    """
    if d_max < 1 or mu_max < 0:
        raise ValueError("need d_max >= 1 and mu_max >= 0")
    if which not in ("simplex", "simplexcor"):
        raise ValueError(f"unknown identity selector {which!r}")
    base = mu_max + 1
    cases = 0
    for d in range(1, d_max + 1):
        for k in range(0, d + 1):
            frame = FiberFrame(d, k)
            for mus in itertools.combinations_with_replacement(range(base), k):
                if which == "simplex":
                    ok = verify_simplex(frame, mus, mu0_offset=mu0_offset)
                else:
                    ok = verify_simplexcor(frame, mus, mu0_offset=mu0_offset)
                    ok = ok and euler_shadow_simplexcor(frame, mus, mu0_offset=mu0_offset)
                if not ok:
                    rank = reduce(lambda r, mu: r * base + mu, mus, 0)
                    return SweepResult(cases + rank + 1, Counterexample(which, d, k, mus))
            cases += base**k
    return SweepResult(cases, None)
