"""Seeded random generators for invariance property checks.

Systems, centers, and marked loci are drawn small enough that the
exhaustive subset sums stay cheap: centers only lie on at most
min(|J|, d) divisors, stratum classes are low-degree polynomials, and
every admissibility constraint of the blow-up engine is respected by
construction, so the draws build them with the trusted constructors.  Bounded
integers come from :func:`_below`, the generator's raw bits read word for word
as ``Random.randint`` reads them, as the digests in ``tests/test_sampling.py`` check.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional

from .blowup import BlowupCenter, LocusRule
from .modsys import Divisor, MarkedLocus, ModificationSystem
from .ring import LPolynomial, MotivicClass

MAX_DIVISORS = 32  # a draw lists every subset of at most 4 divisors: 41 448 at 32, 1.7e8 at 256


def capped(max_divisors: int) -> int:
    """``max_divisors`` if it is at most :data:`MAX_DIVISORS`, else an input error."""
    if max_divisors > MAX_DIVISORS:
        raise ValueError(f"max_divisors {max_divisors} exceeds the cap {MAX_DIVISORS}")
    return max_divisors


def _below(bits: Callable[[int], int], n: int) -> int:
    """A uniform draw from range(n), n >= 1, as ``Random.randint`` makes it since Python 3.10:
    ``n.bit_length()`` bits from ``bits`` (a ``getrandbits``), drawn again while they reach n."""
    r = bits(n.bit_length())
    while r >= n:
        r = bits(n.bit_length())
    return r


def random_polynomial(rng: random.Random, max_degree: int = 2, max_coeff: int = 3) -> LPolynomial:
    bits = rng.getrandbits
    return LPolynomial._of([_below(bits, max_coeff + 1) for _ in range(_below(bits, max_degree + 1) + 1)])


def random_class(
    rng: random.Random,
    *,
    nonzero: bool = False,
    max_degree: int = 2,
    max_coeff: int = 3,
) -> MotivicClass:
    poly = random_polynomial(rng, max_degree, max_coeff)
    while nonzero and poly.is_zero():
        poly = random_polynomial(rng, max_degree, max_coeff)
    return MotivicClass._of(poly, ())


def random_system(rng: random.Random, *, max_divisors: int = 8) -> ModificationSystem:
    """A system on up to ``max_divisors`` divisors of multiplicity 0..4; past
    :data:`MAX_DIVISORS` an input error, raised before any draw."""
    capped(max_divisors)
    ambient_dim = 2 + _below(rng.getrandbits, 3)
    count = _below(rng.getrandbits, max_divisors + 1)
    divisors = tuple(Divisor(f"d{i}", _below(rng.getrandbits, 5)) for i in range(count))
    strata = {0: random_class(rng, nonzero=True)}
    subsets = [  # each a tuple of one-bit masks
        combo
        for size in range(1, min(count, ambient_dim) + 1)
        for combo in itertools.combinations([1 << i for i in range(count)], size)
    ]
    rng.shuffle(subsets)
    for combo in subsets[: max(1, len(subsets) // 2)]:
        strata[sum(combo)] = random_class(rng, nonzero=True)
    index = {f"d{i}": i for i in range(count)}
    return ModificationSystem._of(ambient_dim, divisors, strata, None, "random", index)


def random_center(rng: random.Random, system: ModificationSystem) -> Optional[BlowupCenter]:
    """An admissible center with nonempty stratum data, or None if impossible.

    K0 is drawn among the subsets of at most d divisors that some stratum lies
    on with at most n - d divisors besides, in the order of their sorted ids.
    """
    n = system.ambient_dim
    d = 1 + _below(rng.getrandbits, n)
    idents = system.idents
    order = sorted(range(len(idents)), key=idents.__getitem__)
    # one pass over the strata: each joins the list of every K0 it may contain, keyed by
    # the K0's positions in id order, so the keys sort as their sorted ids do
    eligible_by_k0: dict[tuple[int, ...], list[int]] = {}
    for mask in sorted(system.strata):
        on = [r for r, i in enumerate(order) if mask >> i & 1]
        for size in range(max(len(on) - (n - d), 0), min(len(on), d) + 1):
            for k0 in itertools.combinations(on, size):
                eligible_by_k0.setdefault(k0, []).append(mask)
    if not eligible_by_k0:
        return None
    k0 = rng.choice(sorted(eligible_by_k0))

    eligible = [frozenset(system.ids_of(mask)) for mask in eligible_by_k0[k0]]
    chosen = [key for key in eligible if rng.random() < 0.6] or [rng.choice(eligible)]
    center_strata = {
        key: random_class(rng, nonzero=True, max_degree=1) for key in chosen
    }
    containing = frozenset(idents[order[r]] for r in k0)
    return BlowupCenter(codim=d, containing=containing, center_strata=center_strata)


def random_locus(
    rng: random.Random, system: ModificationSystem, name: str
) -> MarkedLocus:
    strata = {}
    for mask in sorted(system.strata):
        roll = rng.random()
        if roll < 0.5:
            strata[mask] = random_class(rng, nonzero=True, max_degree=1)
    return MarkedLocus._of(name, strata)


def attach_locus_rules(
    rng: random.Random, center: BlowupCenter, loci: list[MarkedLocus], system: ModificationSystem
) -> BlowupCenter:
    """Give every locus a center rule: contains, disjoint, or explicit data."""
    rules = dict(center.locus_rules)
    for locus in loci:
        roll = rng.random()
        if roll < 0.4:
            rules[locus.name] = LocusRule.contains()
        elif roll < 0.7:
            rules[locus.name] = LocusRule.disjoint()
        else:
            explicit = {}
            for key, cls in center.center_strata.items():
                if rng.random() < 0.5:
                    explicit[key] = random_class(rng, nonzero=True, max_degree=1)
            rules[locus.name] = LocusRule.explicit(explicit)
    return BlowupCenter(center.codim, center.containing, dict(center.center_strata), rules)


def random_invariance_case(rng: random.Random, *, max_divisors: int = 8):
    """(system, center, two loci) for verify_invariance; the open stratum, always drawn, admits a center."""
    system = random_system(rng, max_divisors=max_divisors)
    center = random_center(rng, system)
    loci = [random_locus(rng, system, f"T{i}") for i in range(2)]
    return system, attach_locus_rules(rng, center, loci, system), loci
