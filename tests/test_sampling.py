"""The seeded case generators draw the same cases, case for case.

``verify invariance --json`` records only the indices of failing cases, so
its pinned digests do not see a change in what is drawn.  The digest below
covers every drawn system, its marked loci and its center, over several
seeds and divisor caps; it was recorded before the draw was rewritten.
"""

import hashlib
import json
import random

import pytest

from mchern.blowup import blow_up, center_to_json
from mchern.modsys import system_to_json
from mchern.sampling import random_center, random_invariance_case, random_system

SEEDS = (1, 7, 12345, 2**31 - 5)
MAX_DIVISORS = (2, 5, 8, 12)
CASES = 120
DRAWS_SHA256 = "b0c0df61b2b7095e5efaf6a704d785419f9940e9ad2946f2660ee6b338278a50"
GROWN_SHA256 = "64aede0a556c2d4d7572d834de8efde83903a46dbf4a1ed001c188f34c9f3ae1"


def draws_digest() -> str:
    digest = hashlib.sha256()
    for max_divisors in MAX_DIVISORS:
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(CASES):
                system, center, loci = random_invariance_case(rng, max_divisors=max_divisors)
                case = [
                    system_to_json(system, {locus.name: locus for locus in loci}),
                    center_to_json(center),
                ]
                digest.update(json.dumps(case, sort_keys=True).encode())
    return digest.hexdigest()


def test_drawn_cases_are_pinned():
    assert draws_digest() == DRAWS_SHA256


def test_centers_on_grown_systems_are_pinned():
    # blown-up systems name their divisors exc0, exc1, ..., so past exc9 the id order
    # that breaks ties between candidate K0 sets is not the divisor order
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(12):
        system, center, _ = random_invariance_case(rng, max_divisors=4)
        for _ in range(14):
            system = blow_up(system, center).system
            center = random_center(rng, system)
            if center is None:
                break
            digest.update(json.dumps(center_to_json(center), sort_keys=True).encode())
    assert digest.hexdigest() == GROWN_SHA256


class NoDraws:
    """An RNG whose every method fails, so a test sees that nothing was drawn."""

    def __getattr__(self, name):
        raise AssertionError(f"drew with rng.{name}")


@pytest.mark.parametrize("draw", [random_system, random_invariance_case])
def test_more_than_32_divisors_are_refused_before_any_draw(draw):
    with pytest.raises(ValueError) as info:
        draw(NoDraws(), max_divisors=33)
    assert str(info.value) == "max_divisors 33 exceeds the cap 32"
