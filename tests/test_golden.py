"""Report digests and ``--json`` stdout bytes pinned across refactors.

Each command runs on small fixed inputs written here.  Its report digest and
the sha256 of its whole ``--json`` standard output must equal the recorded
values.  The digest hashes the whole report body, so any change to a reported
value shows up here; the stdout hash also catches a change to the printed
layout (indentation, separators, escapes, key order, the final newline).  A
change that alters reports on purpose updates these values and says why.
"""

import hashlib
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

# a function on the curves above stage 1 of SURFACE: curves 2, 3, 4 and the crossing of 2 and 3
STAGE1_FUNCTION = {
    "strata": [
        {"subset": [], "weight": "1/2"},
        {"subset": [2], "weight": "-1/3"},
        {"subset": [3], "weight": "5/4"},
        {"subset": [4], "weight": "2"},
        {"subset": [2, 3], "weight": "7/6"},
    ]
}

GOLDEN = {
    "blowup run": (
        ["blowup", "run", "--program", "{program}"],
        "4223f32de26fc60ee97612cf9489e2f73b48c30b848b69bafd6ec3371ccef546",
        "a51885a6e06578e767784e180058440017d7c030073f300b33f2c7375eb0f9fd",
    ),
    "verify invariance": (
        ["verify", "invariance", "--count", "20", "--seed", "9"],
        "8f17a15f6cc806f4b3d2f98f8dcf5b2b456acc895ca049442ee7788754a7cc71",
        "88ed6a785667eb91c4474a6f39aa538dab4b127f50409fad61fd280a81568aaf",
    ),
    "surface verify-main": (
        ["surface", "verify-main", "--program", "{surface}"],
        "35badeb439b67f22ca468c727036caf3a9902896491d37e6e52713faebf371cb",
        "9a652ef6a0e1580107447904ca9ff0919b73f9dc4f17a1b1de072c0c6f3e32c8",
    ),
    "surface report": (
        ["surface", "report", "--program", "{surface}"],
        "bae7a37e7fd385a0fa715e48933a9f3e173ca3b9a617d4ede730a46338d393f6",
        "d8c6af3fefd58f590c1a77569640909947b3c1ba483862cf6709838051b66cb6",
    ),
    "cfun push": (
        ["cfun", "push", "--program", "{surface}", "--function", "{function}"],
        "dd42b05af66282f54a2794ed607a7b0750210464d233045b451bf96b15453cff",
        "dd63c2b0fdfd6009fdd6378f9eeb2185386621e174957c00af152450a5f79760",
    ),
    "cfun push --stage 1": (
        ["cfun", "push", "--program", "{surface}", "--function", "{stage1_function}", "--stage", "1"],
        "5fafa4f68e1d79b2cebe1cb66b8b0933be3e3cf3b88824bcb6e227694705b96c",
        "dea28d56889bb452917d77786212f0c10a03bdb0a2bdae834aad6f9667387fbc",
    ),
    "surface verify-main --stage 1": (
        ["surface", "verify-main", "--program", "{surface}", "--stage", "1"],
        "af006cba8e811ab148e0fd58cbe23b896594e9c19056cbf579a99d0758d46096",
        "9b79925461ad4f94f480ace98b124600c1390f4990472482f29e042126cc5836",
    ),
}


@pytest.fixture
def input_paths(tmp_path):
    paths = {}
    inputs = (
        ("program", PROGRAM),
        ("surface", SURFACE),
        ("function", FUNCTION),
        ("stage1_function", STAGE1_FUNCTION),
    )
    for name, obj in inputs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digest_is_pinned(command, input_paths, capsys):
    argv, digest, stdout_sha256 = GOLDEN[command]
    argv = [arg.format(**input_paths) for arg in argv]
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["command"] == " ".join(argv[:2])
    assert report["digest"] == digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256


# Identity sweeps, including perturbed weights that must fail (exit 1).
SWEEP_GOLDEN = {
    "simplex": (
        ["verify", "simplex", "--d-max", "6", "--mu-max", "4"],
        0,
        "e09113876f1a7dafbe9e3d551cc05cdcdaa179abce7723820ec11d9cec502c6e",
        "1acc235aeb77c30c41450a23fcbb10a962bf9f43ddcbae87d1cf404a5eca0ce3",
    ),
    "simplexcor": (
        ["verify", "simplexcor", "--d-max", "6", "--mu-max", "3"],
        0,
        "c68a26cc597be2949dba4ece9757604bff5ae8d2b704ac05ce9fa49e9fb86564",
        "7cbb356932aa8dd72f877c9b002c3f04e811c7cd70d7da9d650c39c2e8136f3f",
    ),
    "simplex mu0+1": (
        ["verify", "simplex", "--d-max", "4", "--mu-max", "2", "--mu0-offset", "1"],
        1,
        "255de521d2ff0f0d646ea78dd0282df9eeb29caadb9b55aeaad6df5fcd545614",
        "a237e3307085b4bbe59b7012eb6557ea8ec8a17c2dbe26722e8de8bff8633b25",
    ),
    "simplexcor mu0-1": (
        ["verify", "simplexcor", "--d-max", "4", "--mu-max", "2", "--mu0-offset", "-1"],
        1,
        "a497a1a945fac756e626218b5c8bb90527c859b4a9f10696ad9cf6665d1f2264",
        "24a044feea18ee86aa8a18ae912a7aba593b1346921bb621a907da733d46b45f",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_digest_is_pinned(name, capsys):
    argv, code, digest, stdout_sha256 = SWEEP_GOLDEN[name]
    assert main(argv + ["--json"]) == code
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["command"] == " ".join(argv[:2])
    assert report["digest"] == digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
