"""The benchmark tracer's targets exist in the package.

``benchmarks/tracer.py`` wraps functions by name and reads each one through
``owner.__dict__``, so renaming or deleting a target breaks traced runs.
The tracer imports only the standard library and is loaded from its file.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("mchern_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = []
    for module_name, path, _ in load_tracer().TARGETS:
        owner = importlib.import_module(f"mchern.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(f"{module_name}.{path}")
    assert missing == []
