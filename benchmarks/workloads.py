"""Seeded input generators for the four benchmark workloads.

Each generator writes the CLI's own JSON formats and returns a plan: the
ordered ``mchern`` argument vectors of one workload run, plus the length
of its *prefix*, the commands every run completes and fingerprints.
Nothing here imports ``mchern``; the program only sees the files written
here.  The same workload and seed always give byte-identical files.

Run-to-run steadiness: every seed draws the same mix of program shapes
(crossing rates, locus kinds, surface sizes) in the same rotation, and
only event positions and locus rules are random.  Programs are grown to
a fixed cost budget, so one workload's commands cost about the same
whatever the seed.  Plans hold more distinct inputs than a run reaches,
so a run's samples are fresh draws from one distribution rather than
repeats of a few inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("blowup-chain", "surface-verify", "surface-report", "sweeps")

PLANE = "1 + L + L^2"

# -- blowup-chain --------------------------------------------------------------

CHAIN_PROGRAMS = 96
CHAIN_PREFIX = 16
CHAIN_CROSSING_RATES = (0.0, 0.2, 0.35, 0.5)
CHAIN_LOCUS_CLASSES = ("1 + L", PLANE, "L^2", "2 + L")
CHAIN_CONTAIN_P = 0.85
# Proxy budget: sum over steps of (strata touched per audit) * (denominator
# degree of chi).  100k keeps one `blowup run` near 0.25 s on a 2-CPU host
# at the commit that added the benchmark.
CHAIN_BUDGET = 100_000


def _cls(text: str) -> dict:
    return {"numerator": text, "denominator": []}


def _exc(i: int) -> str:
    return f"exc{i}"


def blowup_chain_program(rng: random.Random, crossing_rate: float, locus: str) -> dict:
    """A codim-2 chain over the plane with one marked locus ``U``.

    Step 0 blows up a point of the plane.  Each later step blows up a point
    on the newest exceptional divisor E_n or the crossing E_(n-1) ^ E_n.
    Crossings are drawn with a mean-reverting rate so every program of a
    shape has close to ``crossing_rate`` crossing steps.  The locus rule is
    ``contains_center`` only where U is nonzero on the center's stratum:
    always at a crossing point, with probability CHAIN_CONTAIN_P on a curve.
    """
    initial = {
        "ambient_dim": 2,
        "divisors": [],
        "strata": [{"subset": [], "class": _cls(PLANE)}],
        "ambient_class": _cls(PLANE),
        "loci": [{"name": "U", "strata": [{"subset": [], "class": _cls(locus)}]}],
    }
    contains = rng.random() < CHAIN_CONTAIN_P
    steps = [_chain_step((), contains)]
    mus = [1]
    support = {(), (0,)} if contains else {()}  # strata where U is nonzero
    pairs = set()
    crossings = 0
    cost = 0
    while True:
        n = len(mus) - 1
        p = min(1.0, max(0.0, crossing_rate + (crossing_rate * n - crossings) * 0.5))
        cross = n >= 1 and rng.random() < p
        key = (n - 1, n) if cross else (n,)
        mu = sum(mus[i] for i in key) + 1
        strata = 1 + len(mus) + len(pairs)
        degree = sum(set(mus)) + mu
        cost += (2 * strata + 2 * len(support) + 4) * degree
        if cost > CHAIN_BUDGET:
            break
        new = n + 1
        if cross:
            crossings += 1
            contains = key in support
            pairs.discard(key)
            pairs |= {(n - 1, new), (n, new)}
        else:
            contains = key in support and rng.random() < CHAIN_CONTAIN_P
            pairs.add((n, new))
        if contains:
            support |= {(new,), (n, new)}
            if cross:
                support.discard(key)
                support.add((n - 1, new))
        steps.append(_chain_step(key, contains))
        mus.append(mu)
    return {"initial": initial, "steps": steps}


def _chain_step(key: tuple[int, ...], contains: bool) -> dict:
    ids = [_exc(i) for i in key]
    return {
        "codim": 2,
        "containing": ids,
        "center_strata": [{"subset": ids, "class": _cls("1")}],
        "locus_defaults": {"U": "contains_center" if contains else "disjoint_from_center"},
    }


def _gen_blowup_chain(rng: random.Random, out: Path) -> tuple[list[list[str]], int]:
    plan = []
    for j in range(CHAIN_PROGRAMS):
        rate = CHAIN_CROSSING_RATES[j % len(CHAIN_CROSSING_RATES)]
        locus = CHAIN_LOCUS_CLASSES[(j // len(CHAIN_CROSSING_RATES)) % len(CHAIN_LOCUS_CLASSES)]
        name = f"chain-{j:03d}.json"
        _write(out / name, blowup_chain_program(rng, rate, locus))
        plan.append(["blowup", "run", "--program", name, "--json"])
    return plan, CHAIN_PREFIX


# -- surface programs ------------------------------------------------------------


class _SurfaceState:
    """Just enough of the event calculus to keep generated events valid."""

    def __init__(self):
        self.events: list[dict] = []
        self.through: list[tuple[int, ...]] = []
        self.mus: list[int] = []
        self.pairs: set[tuple[int, int]] = set()

    @property
    def k(self) -> int:
        return len(self.mus)

    def apply(self, through: tuple[int, ...]):
        new = self.k + 1
        if not through:
            self.events.append({"type": "generic"})
        elif len(through) == 1:
            self.events.append({"type": "on_curve", "curve": through[0]})
        else:
            self.events.append({"type": "intersection", "pair": list(through)})
            self.pairs.discard(through)
        for c in through:
            self.pairs.add((c, new))
        self.through.append(through)
        self.mus.append(1 + sum(self.mus[c - 1] for c in through))

    def partners(self, curve: int) -> list[tuple[int, int]]:
        return sorted(p for p in self.pairs if curve in p)


SURFACE_VERIFY_PROGRAMS = 120
SURFACE_VERIFY_PREFIX = 20
SURFACE_VERIFY_K = 18
SURFACE_VERIFY_CROSSINGS = 5
SURFACE_VERIFY_SIDE = 3
SURFACE_VERIFY_MU_BAND = (200, 300)


def surface_verify_program(rng: random.Random) -> dict:
    """A tower of point blow-ups over one base point, k = SURFACE_VERIFY_K.

    Most events blow up a point on the newest curve, so multiplicities grow
    and `chi` on the exported systems dominates.  At seeded positions,
    SURFACE_VERIFY_CROSSINGS events blow up a crossing of the newest curve
    (a point on it while it has none) and SURFACE_VERIFY_SIDE events a
    point on an older curve.  Command time grows with the sum of the
    multiplicities, so programs whose sum falls outside SURFACE_VERIFY_MU_BAND
    are drawn again.
    """
    while True:
        kinds = (
            ["crossing"] * SURFACE_VERIFY_CROSSINGS
            + ["side"] * SURFACE_VERIFY_SIDE
            + ["tower"] * (SURFACE_VERIFY_K - 1 - SURFACE_VERIFY_CROSSINGS - SURFACE_VERIFY_SIDE)
        )
        rng.shuffle(kinds)
        state = _SurfaceState()
        state.apply(())
        for kind in kinds:
            n = state.k
            partners = state.partners(n)
            if kind == "crossing" and partners:
                state.apply(rng.choice(partners))
            elif kind == "side":
                state.apply((rng.randint(1, n),))
            else:
                state.apply((n,))
        low, high = SURFACE_VERIFY_MU_BAND
        if low <= sum(state.mus) <= high:
            return {"events": state.events}


def _gen_surface_verify(rng: random.Random, out: Path) -> tuple[list[list[str]], int]:
    plan = []
    for j in range(SURFACE_VERIFY_PROGRAMS):
        name = f"surface-{j:03d}.json"
        _write(out / name, surface_verify_program(rng))
        plan.append(["surface", "verify-main", "--program", name, "--json"])
    return plan, SURFACE_VERIFY_PREFIX


SURFACE_REPORT_SURFACES = 36
SURFACE_REPORT_PREFIX = 6
SURFACE_REPORT_K = 160
SURFACE_REPORT_FUNCTIONS = 2


def surface_report_program(rng: random.Random, k: int) -> _SurfaceState:
    """A wide branching surface: many anchors, many crossings, any curve."""
    state = _SurfaceState()
    state.apply(())
    while state.k < k:
        r = rng.random()
        if r < 0.08:
            state.apply(())
        elif r < 0.35 and state.pairs:
            state.apply(rng.choice(sorted(state.pairs)))
        else:
            state.apply((rng.randint(1, state.k),))
    return state


_WEIGHTS = ("1", "-1", "2", "1/2", "-1/3", "3/4", "5/6", "-7/5", "2/9", "11/7")


def weight_function(rng: random.Random, state: _SurfaceState) -> dict:
    """Seeded rational weights on a random selection of the surface's strata."""
    strata = [{"subset": [], "weight": rng.choice(_WEIGHTS)}]
    for j in range(1, state.k + 1):
        if rng.random() < 0.6:
            strata.append({"subset": [j], "weight": rng.choice(_WEIGHTS)})
    for a, b in sorted(state.pairs):
        if rng.random() < 0.6:
            strata.append({"subset": [a, b], "weight": rng.choice(_WEIGHTS)})
    return {"strata": strata}


def _gen_surface_report(rng: random.Random, out: Path) -> tuple[list[list[str]], int]:
    """Per surface: one report, then one push per weight function.

    Pushes are the majority, so the median command is a push and the tail
    is a report.
    """
    plan = []
    for j in range(SURFACE_REPORT_SURFACES):
        name = f"wide-{j:02d}.json"
        state = surface_report_program(rng, SURFACE_REPORT_K)
        _write(out / name, {"events": state.events})
        plan.append(["surface", "report", "--program", name, "--json"])
        for f in range(SURFACE_REPORT_FUNCTIONS):
            fname = f"wide-{j:02d}-fn{f}.json"
            _write(out / fname, weight_function(rng, state))
            plan.append(["cfun", "push", "--program", name, "--function", fname, "--json"])
    return plan, SURFACE_REPORT_PREFIX * (1 + SURFACE_REPORT_FUNCTIONS)


# -- sweeps ----------------------------------------------------------------------

SWEEP_CYCLES = 32
SWEEP_PREFIX = 6
SWEEP_BOUNDS = {"simplex": (6, 4), "simplexcor": (6, 3)}
SWEEP_INVARIANCE_COUNT = 60


def _gen_sweeps(rng: random.Random, out: Path) -> tuple[list[list[str]], int]:
    """Identity sweeps, then `verify invariance` with a fresh derived seed.

    The bounds are chosen so the three commands cost about the same, which
    keeps the distribution of command times unimodal.
    """
    plan = []
    for _ in range(SWEEP_CYCLES):
        for which, (d_max, mu_max) in SWEEP_BOUNDS.items():
            plan.append(
                ["verify", which, "--d-max", str(d_max), "--mu-max", str(mu_max), "--json"]
            )
        seed = rng.randrange(1, 2**31)
        plan.append(
            ["verify", "invariance", "--count", str(SWEEP_INVARIANCE_COUNT),
             "--seed", str(seed), "--json"]
        )
    return plan, SWEEP_PREFIX * 3


# -- entry point -------------------------------------------------------------------

_GENERATORS = {
    "blowup-chain": _gen_blowup_chain,
    "surface-verify": _gen_surface_verify,
    "surface-report": _gen_surface_report,
    "sweeps": _gen_sweeps,
}


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out``; return the plan.

    ``out`` is emptied of earlier JSON files first, so it holds exactly
    this workload's inputs and ``plan.json``.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("*.json"):
        old.unlink()
    rng = random.Random(f"{workload}:{seed}")
    commands, prefix = _GENERATORS[workload](rng, out)
    plan = {"workload": workload, "seed": seed, "prefix": prefix, "commands": commands}
    _write(out / "plan.json", plan)
    return plan
