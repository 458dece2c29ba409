"""Command-line interface: it reads input files, renders reports and writes them.

It decides no check: each is made in the module that owns it, under its report
key (:func:`mchern.blowup.audited_step`, :meth:`mchern.surface.SurfaceModel.stage_checks`).
Exit codes: 0 all checks passed, 1 a verified identity failed, 2 bad input,
3 internal error.  :func:`main` turns an input error (a ``ValueError``) into
one ``error:`` stderr line and any other exception, a report that cannot be
written included, into one ``internal error:`` line.  A reader that closes
standard output early does not change the exit code.  Reports are JSON with
sorted keys; all randomness is seeded and the seed is recorded, so re-running
a command reproduces the report byte for byte.  Wall-clock timings are only
attached on request (--timings) and are never part of the digest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

try:  # the builtin module gives the same digest; hashlib would also load OpenSSL at import
    from _sha256 import sha256
except ImportError:  # a Python without it
    from hashlib import sha256

from . import cfun
from .blowup import audited_step, program_from_json, run_program
from .modsys import json_str, system_to_json
from .ring import MotivicClass, decimal, json_fields
from .sampling import capped, random_invariance_case
from .strata import sweep_identities
from .surface import SurfaceModel, events_from_json, events_to_json

DEFAULT_SEED = 101

PASS, FAIL = "pass", "fail"


def _bound(value: int, name: str) -> int:
    if value < 0:
        raise ValueError(f"sweep bound {name} must be nonnegative, got {value}")
    return value


def _read(path: str) -> tuple[bytes, str]:
    """The bytes of ``path`` and their UTF-8 text."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data, data.decode("utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not valid UTF-8: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key that repeats an earlier one
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"repeated JSON key {key!r}")
    return obj


def read_payload(path: str, expected_kind: str) -> tuple[dict, str]:
    """The payload of one input file and the sha256 of the bytes it was parsed from."""
    data, text = _read(path)
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # also JSON too deep for the parser
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(obj, dict) and "kind" in obj:
        kind, obj, label = json_fields(obj, "scenario", ("kind", "payload"), {"label": ""})
        if kind != expected_kind:
            raise ValueError(f"{path} holds a {kind!r} scenario, expected {expected_kind!r}")
        json_str(label, "scenario label")
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj, sha256(data).hexdigest()


def load_payload(path: str, expected_kind: str) -> dict:
    return read_payload(path, expected_kind)[0]


def build_report(command: str, inputs: dict, results: dict, status: str, seed=None) -> dict:
    body = {"command": command, "inputs": inputs, "results": results, "status": status}
    if seed is not None:
        body["seed"] = seed
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["digest"] = sha256(canonical.encode()).hexdigest()
    return body


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALAR_TEXT = {  # json's text for each scalar, by exact type: a bool is not written as an int
    str: _quote, int: int.__repr__, type(None): lambda _: "null",
    bool: {True: "true", False: "false"}.__getitem__,
    float: lambda x: _NON_FINITE.get(repr(x)) or float.__repr__(x),
}


def _write_json(obj, newline_indent: str, write) -> None:
    """Write a dict, list or tuple in pieces, as ``json.dumps(obj, sort_keys=True, indent=2)``."""
    inner = newline_indent + "  "
    sep, comma = ("{" if isinstance(obj, dict) else "[") + inner, "," + inner
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):  # _quote raises TypeError on a non-str key
            text = _SCALAR_TEXT.get(type(value))
            write(sep + _quote(key) + ": " + (text(value) if text else ""))
            if text is None:
                _write_json(value, inner, write)
            sep = comma
        return write(newline_indent + "}" if obj else "{}")
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    first = type(obj[0]) if obj else None
    if first is str or (first is int and set(map(type, obj)) == {int}):
        try:  # the whole list in one C-level pass; _quote rejects a later non-str
            return write(sep + comma.join(map(_SCALAR_TEXT[first], obj)) + newline_indent + "]")
        except TypeError:
            pass
    for value in obj:
        text = _SCALAR_TEXT.get(type(value))
        write(sep + (text(value) if text else ""))
        if text is None:
            _write_json(value, inner, write)
        sep = comma
    write(newline_indent + "]" if obj else "[]")


def emit(report: dict, args, started: float) -> None:
    if getattr(args, "timings", False):
        report = dict(report)
        report["timings"] = {"wall_seconds": round(time.monotonic() - started, 6)}
    if getattr(args, "json", False):
        chunks: list[str] = []
        _write_json(report, "\n", chunks.append)
        print("".join(chunks))
    else:
        print(f"{report['command']}: {report['status']}")
        for key, value in sorted(report["results"].items()):
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"  {key}: {value}")
        if "timings" in report:
            print(f"wall_seconds: {report['timings']['wall_seconds']}")


# -- verify ---------------------------------------------------------------------


def cmd_verify_identity(args) -> dict:
    which = args.identity
    d_max = _bound(args.d_max, "d_max")
    mu_max = _bound(args.mu_max, "mu_max")
    result = sweep_identities(
        d_max, mu_max, which=which, mu0_offset=args.mu0_offset
    )
    results = {"cases": result.cases, "d_max": d_max, "mu_max": mu_max}
    if args.mu0_offset:
        results["mu0_offset"] = args.mu0_offset
    if (c := result.counterexample) is not None:
        results["counterexample"] = {"d": c.d, "k": c.k, "mus": list(c.mus)}
    status = PASS if result.passed else FAIL
    inputs = {"d_max": d_max, "mu_max": mu_max, "mu0_offset": args.mu0_offset}
    return build_report(f"verify {which}", inputs, results, status)


def cmd_verify_invariance(args) -> dict:
    count = _bound(args.count, "count")
    max_divisors = capped(_bound(args.max_divisors, "max_divisors"))  # before any draw
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    rng = random.Random(seed)
    cases = (random_invariance_case(rng, max_divisors=max_divisors) for _ in range(count))
    failures = [index for index, case in enumerate(cases) if not audited_step(*case)[1].passed]
    results = {"cases": count, "max_divisors": max_divisors, "failures": failures}
    status = PASS if not failures else FAIL
    inputs = {"count": count, "max_divisors": max_divisors}
    return build_report("verify invariance", inputs, results, status, seed=seed)


# -- blowup -----------------------------------------------------------------------


def cmd_blowup_run(args) -> dict:
    if args.program is None:
        raise ValueError("blowup run needs --program or --scenario")
    payload, digest = read_payload(args.program, "program")
    outcome = run_program(program_from_json(payload))
    results = {
        "steps": [{"step": a.index, "fresh_id": a.fresh_id, **a.checks} for a in outcome.audits],
        "final_system": system_to_json(outcome.final, outcome.loci or None),
        "final_chi": outcome.final_chi.to_json(),
    }
    if args.emit_snapshots:
        results["snapshots"] = [system_to_json(s) for s in outcome.snapshots]
    status = PASS if outcome.all_checks_passed else FAIL
    return build_report("blowup run", {"program": digest}, results, status)


# -- surface -----------------------------------------------------------------------


def _load_surface(args) -> tuple[SurfaceModel, str]:
    if args.program is None:
        raise ValueError("surface commands need --program or --scenario")
    payload, digest = read_payload(args.program, "surface")
    return SurfaceModel(events_from_json(payload)), digest


def cmd_surface_verify(args) -> dict:
    surface, digest = _load_surface(args)
    stages = [args.stage] if args.stage is not None else list(range(surface.k + 1))
    results: dict = {"k": surface.k, "stages": {}}
    ok, folds = True, {}  # folds: the fold table of this command only
    for m in stages:
        checks = surface.stage_checks(m, folds)
        results["stages"][str(m)] = checks
        ok = ok and all(checks.values())
    same = surface.order_swap_holds()
    if same is not None:
        results["order_swap"] = "push-forwards equal" if same else "push-forwards differ"
        ok = ok and same
    status = PASS if ok else FAIL
    inputs = {"program": digest, "stage": args.stage}
    return build_report("surface verify-main", inputs, results, status)


def cmd_surface_report(args) -> dict:
    surface, digest = _load_surface(args)
    stringy = surface.stringy_class(0)
    rel = surface.relative(0)
    den, unit = rel.unit
    rendered = stringy.to_json()  # pushforward to stage m keeps curves[: m + 1]
    results = {
        "events": events_to_json(surface.events)["events"],
        "k": surface.k,
        "discrepancies": list(surface.discrepancies),
        "incidence": [list(p) for p in surface.meeting_pairs()],
        "chern": surface.chern_class().to_json(),
        "weighted_stratum_class": rendered,
        "pushforwards": {
            str(m): {**rendered, "curves": rendered["curves"][: m + 1]}
            for m in range(surface.k + 1)
        },
        "fiber_profiles": {
            anchor: str(Fraction(total, den)) for anchor, total in rel.fiber_totals(unit).items()
        },
    }
    return build_report("surface report", {"program": digest}, results, PASS)


# -- cfun ------------------------------------------------------------------------


def cmd_cfun_push(args) -> dict:
    surface, digest = _load_surface(args)
    payload, function_digest = read_payload(args.function, "function")
    function = cfun.function_from_json(payload)
    stage = args.stage or 0
    base = cfun.pushforward(surface, function, stage)
    results = {
        "function": cfun.function_to_json(function),
        "pushforward": base.to_json(),
    }
    inputs = {"program": digest, "function": function_digest}
    return build_report("cfun push", inputs, results, PASS)


# -- motivic ------------------------------------------------------------------------


def cmd_motivic_eval(args) -> dict:
    text = args.class_spec
    if text.startswith("@"):
        # decoded as a text-mode read would decode it, newlines included
        text = io.StringIO(_read(text[1:])[1], newline=None).read()
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError):  # also JSON too deep for the parser
        obj = text  # allow a bare polynomial expression
    value = MotivicClass.from_json(obj)
    results: dict = {"class": value.to_json(), "canonical": str(value)}
    if args.euler:
        results["euler"] = decimal(value.euler_specialize(), "the value at L = 1")
    for q in args.at or ():
        results[f"at_{q}"] = value.decimal_at(q, f"the value at --at {q}")
    inputs = {"class": obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)}
    return build_report("motivic eval", inputs, results, PASS)


# -- plumbing --------------------------------------------------------------------


@functools.cache  # built on first use; ``run`` names a cmd_* function, looked up per call
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mchern",
        description="exact identity checks for localized motivic classes and blow-ups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, run: str, *, program: bool = False) -> argparse.ArgumentParser:
        """A subcommand running ``run``, with the flags every command takes."""
        cmd = group.add_parser(name)
        cmd.set_defaults(run=run)
        if program:
            cmd.add_argument("--program", "--scenario")
        cmd.add_argument("--json", action="store_true", help="emit a JSON report")
        cmd.add_argument("--timings", action="store_true", help="attach wall-clock timings")
        return cmd

    verify = sub.add_parser("verify", help="identity sweeps")
    vsub = verify.add_subparsers(dest="identity", required=True)
    for name in ("simplex", "simplexcor"):
        vp = command(vsub, name, "cmd_verify_identity")
        vp.add_argument("--d-max", type=int, default=6)
        vp.add_argument("--mu-max", type=int, default=4)
        vp.add_argument("--mu0-offset", type=int, default=0)
    vinv = command(vsub, "invariance", "cmd_verify_invariance")
    vinv.add_argument("--count", type=int, default=200)
    vinv.add_argument("--seed", type=int, default=None)
    vinv.add_argument("--max-divisors", type=int, default=8)

    blowup = sub.add_parser("blowup", help="run blow-up programs")
    bsub = blowup.add_subparsers(dest="action", required=True)
    brun = command(bsub, "run", "cmd_blowup_run", program=True)
    brun.add_argument("--emit-snapshots", action="store_true")

    surf = sub.add_parser("surface", help="plane blow-up surfaces")
    ssub = surf.add_subparsers(dest="action", required=True)
    sver = command(ssub, "verify-main", "cmd_surface_verify", program=True)
    sver.add_argument("--stage", type=int, default=None)
    command(ssub, "report", "cmd_surface_report", program=True)

    cf = sub.add_parser("cfun", help="constructible functions")
    csub = cf.add_subparsers(dest="action", required=True)
    cpush = command(csub, "push", "cmd_cfun_push", program=True)
    cpush.add_argument("--function", required=True)
    cpush.add_argument("--stage", type=int, default=None)

    mot = sub.add_parser("motivic", help="evaluate classes")
    msub = mot.add_subparsers(dest="action", required=True)
    meval = command(msub, "eval", "cmd_motivic_eval")
    meval.add_argument("class_spec", help="class JSON, bare polynomial, or @file")
    meval.add_argument("--at", type=int, action="append")
    meval.add_argument("--euler", action="store_true")

    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    args = make_parser().parse_args(argv)
    try:
        report = globals()[args.run](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        emit(report, args, started)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early; keep the verdict and let the exit flush
        # write to /dev/null instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # Closing drops what is still buffered, so the exit flush has nothing to fail on.
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return 3
    return 0 if report["status"] == PASS else 1


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
