"""The package's public surface."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mchern


def test_every_exported_name_resolves():
    assert [name for name in mchern.__all__ if not hasattr(mchern, name)] == []


def test_sweep_needs_an_identity_selector():
    with pytest.raises(TypeError):
        mchern.sweep_identities(2, 2)


def test_runtime_imports_only_the_standard_library():
    # the package stays stdlib-only; a faster emitter must not bring in orjson or ujson
    src = Path(mchern.__file__).parent
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside mchern
            for top in (name.split(".")[0] for name in names):
                if top != "mchern" and top not in sys.stdlib_module_names:
                    outside.append((path.name, top))
    assert outside == []


def test_import_generates_no_code():
    # records are plain classes: importing the CLI loads no dataclasses, nor what it imports;
    # where the builtin _sha256 exists, the report digest does not load OpenSSL's _hashlib either
    unwanted = {"dataclasses", "inspect", "ast"} | ({"_hashlib"} if importlib.util.find_spec("_sha256") else set())
    probe = (
        "import sys; before = set(sys.modules); import mchern, mchern.cli; "
        f"print(sorted(set({sorted(unwanted)!r}) & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mchern.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"
