"""The benchmark's own tests.

    python3 -m pytest benchmarks/test_benchmark.py -q
    python3 benchmarks/test_benchmark.py

They write only under ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import child
import oracle
import run
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_work"


def temp_workdir() -> tempfile.TemporaryDirectory:
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK, prefix="test-")


class InChdir:
    def __init__(self, path: Path):
        self.path = path

    def __enter__(self):
        self.saved = os.getcwd()
        os.chdir(self.path)

    def __exit__(self, *exc):
        os.chdir(self.saved)


def redigest(report: dict) -> dict:
    body = {k: v for k, v in report.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return dict(body, digest=hashlib.sha256(canonical.encode()).hexdigest())


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        with temp_workdir() as a, temp_workdir() as b, temp_workdir() as c:
            for workload in workloads.WORKLOADS:
                first = Path(a) / workload
                second = Path(b) / workload
                other = Path(c) / workload
                workloads.generate(workload, 7, first)
                workloads.generate(workload, 7, second)
                workloads.generate(workload, 8, other)
                names = sorted(p.name for p in first.iterdir())
                self.assertEqual(names, sorted(p.name for p in second.iterdir()))
                for name in names:
                    self.assertEqual((first / name).read_bytes(), (second / name).read_bytes())
                self.assertNotEqual(
                    [(first / n).read_bytes() for n in names],
                    [(other / n).read_bytes() for n in names if (other / n).exists()],
                )

    def test_generated_inputs_pass_the_program_validators(self):
        with temp_workdir() as tmp:
            for workload in workloads.WORKLOADS:
                out = Path(tmp) / workload
                plan = workloads.generate(workload, 3, out)
                decoded = child.decode_inputs(plan, out)
                self.assertEqual(child.validate_inputs(plan, decoded), [])


class OracleTests(unittest.TestCase):
    def test_corrupted_final_chi_is_a_failure(self):
        with temp_workdir() as tmp:
            out = Path(tmp)
            plan = workloads.generate("blowup-chain", 1, out)
            argv = plan["commands"][0]
            with InChdir(out):
                code, stdout, _ = child.run_command(argv)
            problems, report = oracle.judge(argv, code, stdout, out)
            self.assertEqual(problems, [])
            final = report["results"]["final_chi"]
            final["numerator"] = final["numerator"] + " + L^3"
            corrupted = json.dumps(redigest(report))
            problems, _ = oracle.judge(argv, 0, corrupted, out)
            self.assertTrue(any("final_chi" in p for p in problems), problems)

    def test_mu0_offset_is_a_failed_command(self):
        argv = ["verify", "simplexcor", "--d-max", "3", "--mu-max", "1",
                "--mu0-offset", "1", "--json"]
        record, _ = child.execute(argv, HERE)
        self.assertFalse(record["ok"])
        self.assertEqual(record["units"], 0)

    def test_tail_has_ten_samples_beyond_it(self):
        value, percentile = run.tail([float(i) for i in range(100)])
        self.assertEqual((value, percentile), (89.0, 90.0))


class TraceTests(unittest.TestCase):
    def test_traced_run_matches_untraced_and_covers_each_command(self):
        from mchern import cli

        original_main = cli.main
        with temp_workdir() as tmp:
            out = Path(tmp)
            plan = workloads.generate("surface-verify", 2, out)
            plan = dict(plan, prefix=2, commands=plan["commands"][:4])
            (out / "plan.json").write_text(json.dumps(plan))
            with InChdir(out):
                result = child.run(out, 0.0, trace=True)
        self.assertIs(cli.main, original_main)
        self.assertTrue(all(r["ok"] for r in result["records"]), result["records"])
        self.assertEqual(result["traced_fingerprint"], result["fingerprint"])
        layers = result["layers"]
        self.assertEqual(layers["cli.main.calls"]["value"], 2)
        self.assertGreater(layers["trace.main_coverage"]["value"], 0.95)
        self.assertGreater(layers["modsys.chi.calls"]["value"], 0)
        self.assertEqual(layers["strata.verify_simplex.calls"]["value"], 0)


class EntryPointTests(unittest.TestCase):
    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with temp_workdir() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, str(Path(tmp) / HERE.name / "run.py"), "--workload", "sweeps",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
