"""The benchmark's child process: one workload, one client, one thread.

``child.py setup --workdir W`` imports ``mchern``, decodes every input of
the plan in W once, prints ``time.monotonic_ns()`` and exits; the parent
subtracts its own clock reading taken just before the spawn.

``child.py run --workdir W --seconds S --trace 0|1 --out R`` validates the
inputs, then drives ``mchern.cli.main`` in-process as a closed loop: the
next command starts when the previous one has returned.  Each command's
standard output is captured and judged by :mod:`oracle`.  The result,
with per-command wall times, is written to R as JSON.

Untraced, the loop walks the plan from the start until S seconds have
passed and the prefix is done.  Traced, it first runs the prefix once
untraced as a reference, then installs the :mod:`tracer` and repeats the
prefix until S seconds have passed, so every per-layer figure is a whole
number of identical passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibration
import oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _files(argv: list[str]):
    for flag in ("--program", "--function"):
        if flag in argv:
            yield flag, argv[argv.index(flag) + 1]


def decode_inputs(plan: dict, workdir: Path) -> dict:
    """Decode every distinct input file once, the way the CLI does."""
    from mchern import cfun, cli
    from mchern.blowup import program_from_json
    from mchern.surface import SurfaceModel, events_from_json

    decoders = {
        "function": cfun.function_from_json,
        "program": program_from_json,
        "surface": lambda payload: SurfaceModel(events_from_json(payload)),
    }
    decoded = {}
    for argv in plan["commands"]:
        for flag, name in _files(argv):
            kind = "function" if flag == "--function" else (
                "program" if argv[0] == "blowup" else "surface")
            if name not in decoded:
                payload = cli.load_payload(str(workdir / name), kind)
                decoded[name] = decoders[kind](payload)
    return decoded


def validate_inputs(plan: dict, decoded: dict) -> list[str]:
    """Run the program's own validators on every generated input."""
    from mchern import cfun

    problems = []
    for argv in plan["commands"]:
        files = dict(_files(argv))
        if argv[0] == "blowup":
            program = decoded[files["--program"]]
            found = program.initial.validate()
            for locus in program.loci.values():
                found += program.initial.locus_violations(locus)
            problems += [f"{files['--program']}: {p}" for p in found]
        elif "--function" in files:
            try:
                cfun.pushforward(decoded[files["--program"]], decoded[files["--function"]], 0)
            except ValueError as exc:
                problems.append(f"{files['--function']}: {exc}")
    return problems


def run_command(argv: list[str]):
    """One in-process CLI call: (exit code, standard output, wall seconds)."""
    from mchern import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed command, not a benchmark error
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def execute(
    argv: list[str], workdir: Path, speed: calibration.Speed | None = None
) -> tuple[dict, str]:
    """Run and judge one command, after timing the calibration kernel if ``speed``.

    Returns the command's record and its standard output.
    """
    kernel = speed.measure() if speed else None
    code, stdout, wall = run_command(argv)
    problems, report = oracle.judge(argv, code, stdout, workdir)
    record = {
        "argv": argv,
        "wall_s": wall,
        "kernel_s": kernel,
        "ok": not problems,
        "problems": problems[:3],
        "units": oracle.units(argv, report) if report and not problems else 0,
        "digest": report.get("digest") if report else None,
    }
    return record, stdout


def fingerprint(records: list[dict]) -> str:
    """sha256 over the ordered report digests."""
    joined = "".join(str(r["digest"]) for r in records)
    return hashlib.sha256(joined.encode()).hexdigest()


def blowup_steps(plan: dict, workdir: Path, count: int) -> int:
    """Blow-up steps the first ``count`` commands ask for."""
    steps = 0
    for argv in plan["commands"][:count]:
        if argv[:2] == ["blowup", "run"]:
            program = json.loads((workdir / argv[argv.index("--program") + 1]).read_text())
            steps += len(program["steps"])
        elif argv[:2] == ["verify", "invariance"]:
            steps += int(argv[argv.index("--count") + 1])
    return steps


def run(workdir: Path, seconds: float, trace: bool) -> dict:
    plan = json.loads((workdir / "plan.json").read_text())
    problems = validate_inputs(plan, decode_inputs(plan, workdir))
    if problems:
        raise SystemExit("invalid generated input: " + "; ".join(problems[:5]))
    commands, prefix = plan["commands"], plan["prefix"]
    execute(commands[0], workdir)  # warm-up: fills lazy caches, not counted

    if not trace:
        speed = calibration.Speed()
        records = []
        start = time.perf_counter()
        while len(records) < prefix or time.perf_counter() - start < seconds:
            records.append(execute(commands[len(records) % len(commands)], workdir, speed)[0])
        return {
            "records": records,
            "fingerprint": fingerprint(records[:prefix]),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    import tracer as tracing

    speed = calibration.Speed()
    reference, outputs = zip(*(execute(argv, workdir, speed) for argv in commands[:prefix]))
    tracer = tracing.Tracer()
    traced = []
    tracer.install()
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            for argv, expected in zip(commands[:prefix], outputs):
                record, stdout = execute(argv, workdir, speed)
                if stdout != expected:
                    record["ok"] = False
                    record["problems"].append("traced output differs from the untraced reference")
                traced.append(record)
    finally:
        tracer.uninstall()
    passes = len(traced) // prefix
    main_spans = tracer.span_durations("cli.main")
    coverage = [span / r["wall_s"] for span, r in zip(main_spans, traced)]
    metrics = tracing.layer_metrics(tracer, passes, blowup_steps(plan, workdir, prefix))
    reference_wall = sum(calibration.normalised(r["wall_s"], r["kernel_s"]) for r in reference)
    traced_wall = sum(calibration.normalised(r["wall_s"], r["kernel_s"]) for r in traced) / passes
    metrics["trace.overhead_ratio"] = (traced_wall / reference_wall, "ratio")
    metrics["trace.main_coverage"] = (min(coverage), "ratio")
    ring_self = tracer.self_s(*tracing.RING_SELF)
    metrics["ring.self_share"] = (ring_self / tracer.total_s("cli.main"), "ratio")
    (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    return {
        "records": list(reference) + traced,
        "fingerprint": fingerprint(reference),
        "traced_fingerprint": fingerprint(traced[:prefix]),
        "passes": passes,
        "spans_dropped": tracer.dropped,
        "layers": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        decode_inputs(json.loads((args.workdir / "plan.json").read_text()), args.workdir)
        print(time.monotonic_ns())
        return 0
    os.chdir(args.workdir)  # the plan names its inputs relative to the workdir
    result = run(args.workdir, args.seconds, bool(args.trace))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
