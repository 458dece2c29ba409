"""Acceptance suite: one test per verification target, exact tolerances.

Every check here is an exact identity over integer polynomials, localized
fractions, or rational vectors; there are no numeric tolerances anywhere.
Each test prints a single pass/fail line so a full run reads as a
checklist (use ``pytest tests/test_acceptance.py -v -s``).
"""

import itertools
import random

from mchern import cfun
from mchern.blowup import (
    blow_up,
    fiber_completeness_holds,
    step_difference,
    total_class_delta_matches,
    verify_invariance,
)
from corpus import (
    chain_two_orders,
    final_transposition,
    is_constant,
    order_swap_pairs,
    systems_equal_by_ident,
    systems_isomorphic_under,
)
from mchern.ring import MotivicClass
from mchern.sampling import random_class, random_invariance_case
from mchern.strata import FiberFrame, euler_shadow_simplexcor, sweep_identities
from mchern.surface import ChowClass, GenericPoint, SurfaceModel

SEED = 101


def report(number, label, ok):
    print(f"[{number:>2}/10] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_acceptance_01_simplex_sweep():
    result = sweep_identities(6, 4, which="simplex")
    ok = result.passed and result.cases == 24411
    report(1, "hyperplane stratum identity, exhaustive d<=6, mu<=4", ok)


def test_acceptance_02_simplexcor_sweep_with_euler_shadow():
    result = sweep_identities(6, 4, which="simplexcor")
    ok = result.passed and result.cases == 24411
    # the shadow reads only d, k and the mu, so it is checked here over the same multisets
    for d in range(1, 7):
        for k in range(d + 1):
            frame = FiberFrame(d, k)
            for mus in itertools.combinations_with_replacement(range(5), k):
                ok = ok and euler_shadow_simplexcor(frame, mus)
                ok = ok and not any(euler_shadow_simplexcor(frame, mus, mu0_offset=o) for o in (-1, 1))
    report(2, "localized identity plus exact Euler specialization", ok)


def test_acceptance_03_randomized_blowup_invariance():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        system, center, loci = random_invariance_case(rng, max_divisors=8)
        ok = ok and verify_invariance(system, center, loci)
        result = blow_up(system, center)
        diff = step_difference(system.strata, result.system.strata)
        ok = ok and total_class_delta_matches(diff, center)
        ok = ok and fiber_completeness_holds(diff, center, result.system.mask_of(result.fresh_id))
    report(3, "200 seeded blow-ups: chi invariance, total class and fiber completeness", ok)


def test_acceptance_04_export_chi_matches_every_stage(corpus_surfaces):
    ok = True
    for surface in corpus_surfaces:
        for m in range(surface.k + 1):
            system, loci = surface.export_modification_system(m)
            ok = ok and system.chi(loci["full"]) == surface.class_of_stage(m)
            ok = ok and system.euler_chi(loci["full"]) == 3 + m
    report(4, "exported systems: chi(full) equals each stage class", ok)


def test_acceptance_05_pushforward_recovers_chern(corpus_surfaces):
    witness = SurfaceModel((GenericPoint(),))
    pushed = witness.pushforward(witness.stringy_class(0), 0)
    ok = pushed == ChowClass(1, (3,), 3)
    for surface in corpus_surfaces:
        for m in range(surface.k + 1):
            pushed = surface.pushforward(surface.stringy_class(m), m)
            ok = ok and pushed == surface.stage_model(m).chern_class()
    report(5, "weighted stratum class pushes to every stage Chern class", ok)


def test_acceptance_06_fiber_profiles_are_one(corpus_surfaces):
    ok = True
    for surface in corpus_surfaces:
        for anchor in surface.relative(0).root_order:
            ok = ok and surface.fiber_euler_profile(anchor) == 1
    report(6, "weighted fiber Euler profile equals 1 at every anchor", ok)


def test_acceptance_07_unit_pushforward(corpus_surfaces):
    ok = True
    for surface in corpus_surfaces:
        for m in range(surface.k + 1):
            unit = cfun.pushforward(surface, cfun.weighted_unit(surface, m), m)
            ok = ok and is_constant(unit, 1)
    report(7, "weighted unit pushes forward to the constant function 1", ok)


def test_acceptance_08_order_independence(corpus_programs):
    pairs = order_swap_pairs(corpus_programs, want=20)
    ok = len(pairs) >= 20
    for first, second in pairs:
        sa, sb = SurfaceModel(first), SurfaceModel(second)
        ok = ok and sa.pushforward(sa.stringy_class(0), 0) == sb.pushforward(
            sb.stringy_class(0), 0
        )
        ea, _ = sa.export_modification_system(0)
        eb, _ = sb.export_modification_system(0)
        ok = ok and systems_isomorphic_under(ea, eb, final_transposition(first))
    for length in range(1, 6):
        forward, shuffled = chain_two_orders(length)
        ok = ok and systems_equal_by_ident(forward, shuffled)
        ok = ok and all(d.mu == 0 for d in forward.divisors)
        ok = ok and forward.euler_chi(forward.full_locus()) == shuffled.euler_chi(
            shuffled.full_locus()
        )
    report(8, "center order permutations leave pushed classes unchanged", ok)


def test_acceptance_09_chern_number_shadow(corpus_surfaces):
    ok = True
    for surface in corpus_surfaces:
        chern = surface.chern_class()
        pushed = surface.pushforward(surface.stringy_class(0), 0)
        plane_chern = surface.stage_model(0).chern_class()
        ok = ok and pushed.points == plane_chern.points  # degree-0 part: chi
        ok = ok and pushed.top == plane_chern.top  # degree-2 part: fundamental class
        ok = ok and chern.points == 3 + surface.k
    report(9, "degree-0 and degree-2 parts of the pushed class match", ok)


def test_acceptance_10_ring_laws():
    rng = random.Random(SEED)

    def draw():
        base = random_class(rng, max_degree=3, max_coeff=4)
        dens = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        return MotivicClass(base.num, dens)

    ok = True
    for _ in range(10_000):
        a, b, c = draw(), draw(), draw()
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and (a - a).is_zero()
        if not ok:
            break
    report(10, "10^4 seeded triples satisfy the ring laws exactly", ok)
