"""The package's public surface."""

import ast
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
