"""Report digests pinned across refactors.

Each command runs on small fixed inputs written here, and its report digest
must equal the recorded value.  The digest hashes the whole report body, so
any change to a reported value or to the report layout shows up here.  A
change that alters reports on purpose updates these values and says why.
"""

import json

import pytest

from mchern.cli import main

ONE = {"numerator": "1", "denominator": []}
PLANE_CLASS = {"numerator": "1 + L + L^2", "denominator": []}

PROGRAM = {
    "initial": {
        "ambient_dim": 2,
        "divisors": [],
        "strata": [{"subset": [], "class": PLANE_CLASS}],
        "ambient_class": PLANE_CLASS,
        "loci": [{"name": "U", "strata": [{"subset": [], "class": ONE}]}],
    },
    "steps": [
        {
            "codim": 2,
            "containing": [],
            "center_strata": [{"subset": [], "class": ONE}],
            "locus_defaults": {"U": "contains_center"},
        },
        {
            "codim": 2,
            "containing": ["exc0"],
            "center_strata": [{"subset": ["exc0"], "class": ONE}],
            "locus_defaults": {"U": "contains_center"},
        },
        {
            "codim": 2,
            "containing": [],
            "center_strata": [{"subset": [], "class": ONE}],
            "locus_defaults": {"U": "disjoint_from_center"},
        },
    ],
}

SURFACE = {
    "events": [
        {"type": "generic"},
        {"type": "on_curve", "curve": 1},
        {"type": "intersection", "pair": [1, 2]},
        {"type": "generic"},
    ]
}

FUNCTION = {"strata": [{"subset": [1], "weight": "1/2"}, {"subset": [3], "weight": "2"}]}

GOLDEN = {
    "blowup run": (
        ["blowup", "run", "--program", "{program}"],
        "4223f32de26fc60ee97612cf9489e2f73b48c30b848b69bafd6ec3371ccef546",
    ),
    "verify invariance": (
        ["verify", "invariance", "--count", "20", "--seed", "9"],
        "8f17a15f6cc806f4b3d2f98f8dcf5b2b456acc895ca049442ee7788754a7cc71",
    ),
    "surface verify-main": (
        ["surface", "verify-main", "--program", "{surface}"],
        "35badeb439b67f22ca468c727036caf3a9902896491d37e6e52713faebf371cb",
    ),
    "surface report": (
        ["surface", "report", "--program", "{surface}"],
        "bae7a37e7fd385a0fa715e48933a9f3e173ca3b9a617d4ede730a46338d393f6",
    ),
    "cfun push": (
        ["cfun", "push", "--program", "{surface}", "--function", "{function}"],
        "dd42b05af66282f54a2794ed607a7b0750210464d233045b451bf96b15453cff",
    ),
}


@pytest.fixture
def input_paths(tmp_path):
    paths = {}
    for name, obj in (("program", PROGRAM), ("surface", SURFACE), ("function", FUNCTION)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digest_is_pinned(command, input_paths, capsys):
    argv, digest = GOLDEN[command]
    argv = [arg.format(**input_paths) for arg in argv]
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == command
    assert report["digest"] == digest


# Identity sweeps, including perturbed weights that must fail (exit 1).
SWEEP_GOLDEN = {
    "simplex": (
        ["verify", "simplex", "--d-max", "6", "--mu-max", "4"],
        0,
        "e09113876f1a7dafbe9e3d551cc05cdcdaa179abce7723820ec11d9cec502c6e",
    ),
    "simplexcor": (
        ["verify", "simplexcor", "--d-max", "6", "--mu-max", "3"],
        0,
        "c68a26cc597be2949dba4ece9757604bff5ae8d2b704ac05ce9fa49e9fb86564",
    ),
    "simplex mu0+1": (
        ["verify", "simplex", "--d-max", "4", "--mu-max", "2", "--mu0-offset", "1"],
        1,
        "255de521d2ff0f0d646ea78dd0282df9eeb29caadb9b55aeaad6df5fcd545614",
    ),
    "simplexcor mu0-1": (
        ["verify", "simplexcor", "--d-max", "4", "--mu-max", "2", "--mu0-offset", "-1"],
        1,
        "a497a1a945fac756e626218b5c8bb90527c859b4a9f10696ad9cf6665d1f2264",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_digest_is_pinned(name, capsys):
    argv, code, digest = SWEEP_GOLDEN[name]
    assert main(argv + ["--json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == " ".join(argv[:2])
    assert report["digest"] == digest
