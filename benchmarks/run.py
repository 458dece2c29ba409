"""mchern benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload blowup-chain --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed into ``.bench_work/`` at the
repository root, measures set-up time in fresh interpreters, then runs the
workload in one child process (see ``child.py``) and prints one JSON line
of results last.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the traced loop and reports the per-layer metrics.
The line before the result carries what sits beside the metrics: the
digest fingerprint, the tail percentile and its sample count, and the
failure ratio.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def setup_seconds(workdir: Path) -> float:
    """Spawn to decoded inputs: fresh interpreter, ``import mchern``, decode."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup", "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return (int(done.stdout.split()[-1]) - start) / 1e9


def normalised_setups(workdir: Path) -> tuple[list[float], list[float]]:
    """Raw and normalised set-up times of SETUP_PROBES fresh interpreters."""
    speed = calibration.Speed()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        kernel = speed.measure()
        raw.append(setup_seconds(workdir))
        scaled.append(calibration.normalised(raw[-1], kernel))
    return raw, scaled


def tail(walls: list[float]) -> tuple[float, float]:
    """Wall time at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(result: dict, setups: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """Normalised end-to-end metrics, plus the raw figures printed beside them."""
    records = result["records"]
    units = sum(r["units"] for r in records)
    raw = [r["wall_s"] for r in records]
    walls = [calibration.normalised(r["wall_s"], r["kernel_s"]) for r in records]
    failed = sum(not r["ok"] for r in records)
    tail_s, percentile = tail(walls)
    metrics = {
        "setup_s": {"value": statistics.median(setups[1]), "unit": "s"},
        "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "units_per_s": {"value": units / sum(walls), "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        "pass_ratio": {"value": 1 - failed / len(records), "unit": "ratio"},
    }
    beside = {
        "op_tail": {"percentile": round(percentile, 2), "samples": len(walls)},
        "fail_ratio": failed / len(records),
        "raw": {
            "setup_s": statistics.median(setups[0]),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[0],
            "units_per_s": units / sum(raw),
            "kernel_s": statistics.median(r["kernel_s"] for r in records),
        },
    }
    return metrics, beside


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mchern benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "mchern"
    if not (source / "__init__.py").is_file():
        return fail(f"no mchern sources under {source}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    plan = workloads.generate(args.workload, args.seed, workdir)
    compileall.compile_dir(str(source), quiet=1)  # users run from compiled bytecode

    try:
        setups = None if args.trace else normalised_setups(workdir)
        out = workdir / f"result-trace{args.trace}.json"
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), "run", "--workdir", str(workdir),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
            timeout=CHILD_TIMEOUT_S, check=True, stdout=subprocess.DEVNULL,
        )
    except subprocess.CalledProcessError as exc:
        return fail(f"{exc.cmd[2]} child exited with {exc.returncode}")
    except subprocess.TimeoutExpired as exc:
        return fail(f"child timed out after {exc.timeout} s")
    result = json.loads(out.read_text())

    records = result["records"]
    failed = sum(not r["ok"] for r in records)
    beside = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commands": len(plan["commands"]),
        "prefix": plan["prefix"],
        "fingerprint": result["fingerprint"],
    }
    if args.trace:
        metrics = result["layers"]
        beside["passes"] = result["passes"]
        beside["traced_fingerprint"] = result["traced_fingerprint"]
        beside["spans_dropped"] = result["spans_dropped"]
        fingerprints_agree = result["traced_fingerprint"] == result["fingerprint"]
    else:
        metrics, extra = end_to_end(result, setups)
        beside.update(extra)
        fingerprints_agree = True
    beside["failures"] = [r for r in records if not r["ok"]][:3]
    print(json.dumps(beside, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and fingerprints_agree,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
