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
