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

Both are verified exactly by brute force over all 2^k subsets.  The
``mu0_offset`` hooks perturb mu0 so that a harness can confirm the
identities really require the exact weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ring import LPolynomial, MotivicClass, projective_poly


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


def _subset_products(mus: Sequence[int]) -> list[LPolynomial]:
    """prod_{i in mask} [P^mu_i] for every bitmask over ``mus``."""
    k = len(mus)
    ps = [projective_poly(mu) for mu in mus]
    out = [LPolynomial.one()] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        out[mask] = out[mask ^ low] * ps[low.bit_length() - 1]
    return out


def _weighted_numerator(frame: FiberFrame, mus: Sequence[int]) -> LPolynomial:
    """sum_I [H_I] * prod_{i not in I} [P^mu_i] over all 2^k subsets I."""
    if len(mus) != frame.k:
        raise ValueError(f"expected {frame.k} multiplicities, got {len(mus)}")
    d, k = frame.d, frame.k
    prods = _subset_products(mus)
    full = (1 << k) - 1
    strat = [_stratum_poly(d, k, size) for size in range(k + 1)]
    num = LPolynomial.zero()
    for mask in range(1 << k):
        num = num + strat[mask.bit_count()] * prods[full ^ mask]
    return num


def verify_simplex(frame: FiberFrame, mus: Sequence[int], *, mu0_offset: int = 0) -> bool:
    """Check the weighted stratum sum against [P^(sum mu + d - 1)] exactly."""
    return _weighted_numerator(frame, mus) == projective_poly(sum(mus) + frame.d - 1 + mu0_offset)


def verify_simplexcor(frame: FiberFrame, mus: Sequence[int], *, mu0_offset: int = 0) -> bool:
    """Check the localized form: weighted strata sum to 1 / prod [P^mu_j]."""
    # Over the common denominator [P^mu0] * prod_j [P^mu_j], the term for
    # subset I contributes [H_I] * prod_{i not in I} [P^mu_i] on top.
    num = _weighted_numerator(frame, mus)
    mu0 = sum(mus) + frame.d - 1 + mu0_offset
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
    """The simplexcor identity after Euler specialization, as exact rationals."""
    d, k = frame.d, frame.k
    mu0 = sum(mus) + d - 1 + mu0_offset
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


@dataclass(frozen=True)
class Counterexample:
    identity: str
    d: int
    k: int
    mus: tuple[int, ...]

    def describe(self) -> str:
        return f"{self.identity} fails at d={self.d}, k={self.k}, mus={list(self.mus)}"


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
    which: str = "both",
    mu0_offset: int = 0,
) -> SweepResult:
    """Exhaustive sweep over 1 <= d <= d_max, 0 <= k <= d, mu in {0..mu_max}^k.

    Results are cached per multiplicity multiset: both identities are
    symmetric under permuting the mu_i, so sorted tuples decide every case.
    """
    if d_max < 1 or mu_max < 0:
        raise ValueError("need d_max >= 1 and mu_max >= 0")
    if which not in ("simplex", "simplexcor", "both"):
        raise ValueError(f"unknown identity selector {which!r}")
    cache: dict[tuple[int, tuple[int, ...]], bool] = {}
    cases = 0
    for d in range(1, d_max + 1):
        for k in range(0, d + 1):
            for mus in itertools.product(range(mu_max + 1), repeat=k):
                cases += 1
                key = (d, tuple(sorted(mus)))
                ok = cache.get(key)
                if ok is None:
                    frame = FiberFrame(d, k)
                    ok = True
                    if which in ("simplex", "both"):
                        ok = verify_simplex(frame, key[1], mu0_offset=mu0_offset)
                    if ok and which in ("simplexcor", "both"):
                        ok = verify_simplexcor(frame, key[1], mu0_offset=mu0_offset)
                        if ok:
                            ok = euler_shadow_simplexcor(frame, key[1], mu0_offset=mu0_offset)
                    cache[key] = ok
                if not ok:
                    name = which if which != "both" else "simplex/simplexcor"
                    return SweepResult(cases, Counterexample(name, d, k, tuple(mus)))
    return SweepResult(cases, None)
