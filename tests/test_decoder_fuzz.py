"""Fuzz the JSON decoders through ``cli.main``: a mutated input is refused in one line, or it passes.

The seeds are valid inputs of the four commands that read programs.  Each example applies one to
three mutations to one seed: delete a key or list entry, duplicate one list entry, or put a
boundary value in place of a value.  Only one entry is duplicated per input, as longer lists soon
reach valid inputs that run for seconds, such as a center on 16 divisors.

An input the decoders accept must pass: each blow-up step keeps chi, and the weighted unit pushes
forward to every stage's Chern class, so an exit 1 on a decoded input is an engine defect.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import blowup_program
from mchern.blowup import program_to_json
from mchern.cli import main
from mchern.surface import GenericPoint, IntersectionPoint, PointOnCurve, SurfaceModel, events_to_json

EVENTS = (
    GenericPoint(), PointOnCurve(1), IntersectionPoint(1, 2), PointOnCurve(3), IntersectionPoint(3, 4),
    GenericPoint(), PointOnCurve(6),
)

# a point on the one divisor of a blown-up plane, with an explicit rule and a disjoint one
RULES_PROGRAM = {
    "initial": {
        "ambient_dim": 2,
        "divisors": [{"id": "e", "mu": 1}],
        "strata": [{"subset": [], "class": "L + L^2"}, {"subset": ["e"], "class": "1 + L"}],
        "loci": [
            {"name": "U", "strata": [{"subset": ["e"], "class": "1 + L"}]},
            {"name": "V", "strata": [{"subset": [], "class": "L^2"}]},
        ],
    },
    "steps": [
        {
            "codim": 2,
            "containing": ["e"],
            "center_strata": [{"subset": ["e"], "class": {"numerator": "1", "denominator": []}}],
            "locus_defaults": {"V": "disjoint_from_center"},
            "locus_center_strata": {"U": [{"subset": ["e"], "class": "1"}]},
        }
    ],
}


def weight_function(events):
    """Weights on the open stratum, every curve and every crossing of the surface."""
    surface = SurfaceModel(events)
    keys = [[]] + [[j] for j in range(1, surface.k + 1)] + [list(p) for p in surface.meeting_pairs()]
    weights = ("1", "1/2", "-1/3", "2", "3/4")
    return {"strata": [{"subset": key, "weight": weights[i % 5]} for i, key in enumerate(keys)]}


PROGRAMS = [program_to_json(blowup_program(EVENTS[:6])), RULES_PROGRAM]
SURFACES = [events_to_json(EVENTS[:k]) for k in (3, 5, 7)]
FUNCTIONS = [weight_function(EVENTS[:k]) for k in (3, 5, 7)]

BOUNDARY = (
    None, True, False, 0, 1, -1, 2, 3, 17, 2**16, 2**16 + 1, 2**63, -(2**63), 1.5, float("nan"),
    "", "1/0", "L", "exc0", "generic", "on_curve", "intersection",
    "contains_center", "disjoint_from_center", "explicit", [], {}, [[]], [{}], {"": []},
)


def places(node):
    """Every ``(container, key)`` at or below ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            yield node, key
            yield from places(child)


@st.composite
def mutated(draw, seed):
    obj, duplicated = copy.deepcopy(seed), False
    for _ in range(draw(st.integers(1, 3))):
        spots = list(places(obj))
        if not spots:
            break
        parent, key = spots[draw(st.integers(0, len(spots) - 1))]
        action = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list) and not duplicated:
            parent.insert(key, copy.deepcopy(parent[key]))
            duplicated = True
        else:
            parent[key] = draw(st.sampled_from(BOUNDARY))
    return obj


def command(kind, program, function):
    """One command's argv and the files it reads, as ``(argv, {name: object})``."""
    argv = kind.split() + ["--program", "p.json"]
    if kind == "cfun push":
        return argv + ["--function", "f.json"], {"p.json": program, "f.json": function}
    return argv, {"p.json": program}


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(("blowup run", "surface verify-main", "surface report", "cfun push")))
    if kind == "blowup run":
        return command(kind, draw(mutated(draw(st.sampled_from(PROGRAMS)))), None)
    k = draw(st.integers(0, 2))
    program, function = SURFACES[k], FUNCTIONS[k]
    if kind != "cfun push" or draw(st.booleans()):
        program = draw(mutated(program))
    else:
        function = draw(mutated(function))
    return command(kind, program, function)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, argv, files):
    """Write the files, run ``argv`` with ``--json`` in-process: ``(exit code, stdout, stderr)``."""
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(workdir / a) if a in files else a for a in argv] + ["--json"])
    return code, out.getvalue(), err.getvalue()


def test_the_seeds_pass(workdir):
    runs = [("blowup run", program, None) for program in PROGRAMS]
    for program, function in zip(SURFACES, FUNCTIONS):
        runs += [(kind, program, function) for kind in ("surface verify-main", "surface report", "cfun push")]
    for kind, program, function in runs:
        assert run(workdir, *command(kind, program, function))[0] == 0, kind


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cases())
def test_a_mutated_input_is_refused_in_one_line_or_passes(workdir, case):
    code, out, err = run(workdir, *case)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    else:
        assert json.loads(out)["status"] == "pass"
