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
symmetric polynomials of the [P^mu_i], and their d-independent sum grows by
one linear product per multiplicity.  Cleared of its denominator, simplexcor
is the simplex numerator test.  mu0 is :func:`discrepancy`, the one blow-up
multiplicity rule; ``mu0_offset`` perturbs it so a harness can confirm the
identities need the exact weight.  :func:`sweep_identities` checks one
identity on every multiset of multiplicities once, and counts cases as tuples
in product order.  For the length of one call it keeps each multiset's sum,
so a multiset costs one product, one step from its prefix, and nothing more
for each further d.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from functools import lru_cache, reduce
from operator import sub
from typing import Iterable, Optional, Sequence

from .ring import LPolynomial, MotivicClass, _mul_projective, _plus, projective_poly


def discrepancy(mus: Iterable[int], d: int) -> int:
    """mu0 of the divisor made by blowing up a codim-d center on divisors ``mus``: K' = pi*K + (d-1)E."""
    return sum(mus) + d - 1


class FiberFrame:
    """Fiber P^(d-1) carrying k linearly independent hyperplanes; equal frames share one cache entry."""

    __slots__ = ("d", "k")

    def __init__(self, d: int, k: int):
        if d < 1:
            raise ValueError("fiber dimension parameter d must be >= 1")
        if not 0 <= k <= d:
            raise ValueError("need 0 <= k <= d")
        self.d, self.k = d, k

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiberFrame) and (self.d, self.k) == (other.d, other.k)

    def __hash__(self) -> int:
        return hash((self.d, self.k))


@lru_cache(maxsize=None)
def hyperplane_stratum_class(frame: FiberFrame, size: int) -> MotivicClass:
    """Class of the locus on exactly ``size`` of the frame's hyperplanes (cached)."""
    d, k = frame.d, frame.k
    if not 0 <= size <= k:
        raise ValueError(f"subset size {size} out of range 0..{k}")
    if size < k:
        return MotivicClass(LPolynomial((-1, 1)) ** (k - size - 1) * LPolynomial.monomial(d - k))
    return MotivicClass(projective_poly(d - k - 1))


# Within one sweep_identities call: each multiset seen -> its _tail.
_sweep_memo: ContextVar[Optional[dict]] = ContextVar("sweep_memo", default=None)


def _tail(mus: tuple[int, ...], memo: dict) -> list[int]:
    """T = sum_(j>=1) (L-1)^(j-1) e_j([P^mu_1], ..., [P^mu_k]), the part of the numerator free of d.

    As e_j = e_j' + [P^mu] e_(j-1)' over the prefix (Macdonald, I.2), T = T' + [P^mu] (1 + (L-1) T'):
    one linear product per prefix, walked in a loop from the longest one ``memo`` holds.  When the
    prefix satisfies simplex, 1 + (L-1) T' = L^(sum mu' + k - 1), so the step is the induction on k.
    """
    n = len(mus)
    while n and mus[:n] not in memo:
        n -= 1
    tail = memo.get(mus[:n], [])
    for n in range(n + 1, len(mus) + 1):
        step = list(map(sub, [1, *tail], [*tail, 0]))  # 1 + L T' - T'
        tail = memo[mus[:n]] = _plus(tail, _mul_projective(step, mus[n - 1]))
    return tail


def _weighted_numerator(frame: FiberFrame, mus: Sequence[int]) -> LPolynomial:
    """sum_I [H_I] * prod_{i not in I} [P^mu_i], grouped by j = k - |I|.

    Group j is [H_(k-j)] * e_j([P^mu_1], ..., [P^mu_k]), so the sum is
    L^(d-k) * sum_{j>=1} (L-1)^(j-1) e_j + [P^(d-k-1)]; its two parts occupy
    disjoint degrees.  The first is the :func:`_tail`, from the sweep's memo,
    one product per multiset; outside a sweep, from a fresh memo in k products.
    """
    if len(mus) != frame.k:
        raise ValueError(f"expected {frame.k} multiplicities, got {len(mus)}")
    memo = _sweep_memo.get()
    tail = _tail(tuple(mus), {} if memo is None else memo)
    return LPolynomial._of([1] * (frame.d - frame.k) + tail)


def verify_simplex(frame: FiberFrame, mus: Sequence[int], *, mu0_offset: int = 0) -> bool:
    """Check the weighted stratum sum against [P^(sum mu + d - 1)] exactly."""
    return _weighted_numerator(frame, mus) == projective_poly(discrepancy(mus, frame.d) + mu0_offset)


def verify_simplexcor(frame: FiberFrame, mus: Sequence[int], *, mu0_offset: int = 0) -> bool:
    """Check the localized form: weighted strata sum to 1 / prod [P^mu_j]."""
    # Over the common denominator [P^mu0] * prod_j [P^mu_j], the term for subset I contributes
    # [H_I] * prod_{i not in I} [P^mu_i] on top and the right side [P^mu0]: the simplex numerator.
    num = _weighted_numerator(frame, mus)  # first, so a wrong count of multiplicities raises
    mu0 = discrepancy(mus, frame.d) + mu0_offset
    return mu0 >= 0 and num == projective_poly(mu0)


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
    sum_s stratum_euler(d, k, s) * e_(k-s)(mu_1 + 1, ..., mu_k + 1) = mu0 + 1,
    where only s = k - 1 (Euler characteristic 1, times e_1) and s = k
    (d - k, times e_0 = 1) contribute.
    """
    d, k = frame.d, frame.k
    mu0 = discrepancy(mus, d) + mu0_offset
    e1 = sum(mu + 1 for mu in mus)
    return mu0 >= 0 and e1 + d - k == mu0 + 1


class Counterexample:
    __slots__ = ("identity", "d", "k", "mus")

    def __init__(self, identity: str, d: int, k: int, mus: tuple[int, ...]):
        self.identity, self.d, self.k, self.mus = identity, d, k, mus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Counterexample) and (
            (self.identity, self.d, self.k, self.mus) == (other.identity, other.d, other.k, other.mus)
        )


class SweepResult:
    __slots__ = ("cases", "counterexample")

    def __init__(self, cases: int, counterexample: Optional[Counterexample]):
        self.cases, self.counterexample = cases, counterexample

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
    token = _sweep_memo.set({})
    try:
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
    finally:
        _sweep_memo.reset(token)
    return SweepResult(cases, None)
