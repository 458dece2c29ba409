"""Command-line driver: scenario ingestion, verification sweeps, reports.

Exit codes: 0 all checks passed, 1 a verified identity failed, 2 bad input,
3 internal error.  :func:`main` turns an input error (a ``ValueError``) into
one ``error:`` stderr line and any other exception into one ``internal
error:`` line.  A reader that closes standard output early does not change
the exit code.  Reports are JSON with sorted keys; all randomness is seeded
and the seed is recorded, so re-running a command reproduces the report byte
for byte.  Wall-clock timings are only attached on request (--timings) and
are never part of the digest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import random
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import cfun
from .blowup import audited_step, program_from_json, run_program
from .modsys import system_to_json
from .ring import MotivicClass
from .sampling import random_invariance_case
from .strata import sweep_identities
from .surface import SurfaceModel, events_from_json, events_to_json, swap_last_two

DEFAULT_SEED = 101

PASS, FAIL = "pass", "fail"


class ScenarioError(ValueError):
    pass


def _bound(value: int, name: str) -> int:
    if value < 0:
        raise ScenarioError(f"sweep bound {name} must be nonnegative, got {value}")
    return value


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ScenarioError(f"repeated JSON key {key!r}")
    return obj


def read_payload(path: str, expected_kind: str) -> tuple[dict, str]:
    """The payload of one input file and the sha256 of the bytes it was parsed from."""
    data = _read(path)
    try:
        obj = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # also JSON too deep for the parser
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(obj, dict) and "kind" in obj:
        if obj["kind"] != expected_kind:
            raise ScenarioError(
                f"{path} holds a {obj['kind']!r} scenario, expected {expected_kind!r}"
            )
        obj = obj.get("payload", {})
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    return obj, hashlib.sha256(data).hexdigest()


def load_payload(path: str, expected_kind: str) -> dict:
    return read_payload(path, expected_kind)[0]


def build_report(command: str, inputs: dict, results: dict, status: str, seed=None) -> dict:
    body = {"command": command, "inputs": inputs, "results": results, "status": status}
    if seed is not None:
        body["seed"] = seed
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
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
    if result.counterexample is not None:
        results["counterexample"] = {
            "d": result.counterexample.d,
            "k": result.counterexample.k,
            "mus": list(result.counterexample.mus),
        }
    status = PASS if result.passed else FAIL
    inputs = {"d_max": d_max, "mu_max": mu_max, "mu0_offset": args.mu0_offset}
    return build_report(f"verify {which}", inputs, results, status)


def cmd_verify_invariance(args) -> dict:
    count = _bound(args.count, "count")
    max_divisors = _bound(args.max_divisors, "max_divisors")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        system, center, loci = random_invariance_case(rng, max_divisors=max_divisors)
        _, audit = audited_step(system, center, loci)
        if not audit.passed:
            failures.append(index)
    results = {"cases": count, "max_divisors": max_divisors, "failures": failures}
    status = PASS if not failures else FAIL
    inputs = {"count": count, "max_divisors": max_divisors}
    return build_report("verify invariance", inputs, results, status, seed=seed)


# -- blowup -----------------------------------------------------------------------


def cmd_blowup_run(args) -> dict:
    if args.program is None:
        raise ScenarioError("blowup run needs --program or --scenario")
    payload, digest = read_payload(args.program, "program")
    program = program_from_json(payload)
    problems = program.initial.validate()
    for locus in program.loci.values():
        problems += program.initial.locus_violations(locus)
    if problems:
        raise ScenarioError("; ".join(problems))
    outcome = run_program(program)
    audits = [
        {
            "step": a.index,
            "fresh_id": a.fresh_id,
            "chi_invariant": a.invariance_ok,
            "total_class_ok": a.total_class_ok,
            "fiber_complete": a.fiber_complete,
        }
        for a in outcome.audits
    ]
    results = {
        "steps": audits,
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
        raise ScenarioError("surface commands need --program or --scenario")
    payload, digest = read_payload(args.program, "surface")
    return SurfaceModel(events_from_json(payload)), digest


def verify_surface_stage(surface: SurfaceModel, m: int) -> dict:
    """The checks of stage ``m``, with chi summed once per fiber locus.

    chi(full) is the open stratum (mask 0) plus the reduced fiber chis: exact, as the fibers
    partition the other strata and chi is linear in the locus.
    """
    stage = surface.stage_model(m)
    pushed = surface.pushforward(surface.stringy_class(m), m)
    # the weighted unit pushed down; its values are the fiber Euler profiles
    unit = cfun.pushforward(surface, cfun.weighted_unit(surface, m), m)
    checks = {
        "pushforward_matches_chern": pushed == stage.chern_class(),
        "unit_pushforward": unit.is_constant(1),
    }
    if m == 0:
        checks["fiber_profiles_one"] = all(
            unit.value_at(anchor) == 1 for anchor in surface.relative(0).root_order
        )
    system, loci = surface.export_modification_system(m)
    fiber_chi = [system.chi(locus).reduced() for name, locus in loci.items() if name != "full"]
    chi_full = MotivicClass.sum([system.stratum(0)] + fiber_chi)
    stage_class = surface.class_of_stage(m)
    checks["chi_matches_stage_class"] = chi_full == stage_class
    checks["euler_chi"] = system.euler_chi(loci["full"]) == stage_class.euler_specialize()
    checks["fiber_chi_one"] = all(chi == 1 for chi in fiber_chi)
    return checks


def cmd_surface_verify(args) -> dict:
    surface, digest = _load_surface(args)
    stages = [args.stage] if args.stage is not None else list(range(surface.k + 1))
    results: dict = {"k": surface.k, "stages": {}}
    ok = True
    for m in stages:
        checks = verify_surface_stage(surface, m)
        results["stages"][str(m)] = checks
        ok = ok and all(checks.values())
    swapped = swap_last_two(surface.events)
    if swapped is not None:
        other = SurfaceModel(swapped)
        same = other.pushforward(other.stringy_class(0), 0) == surface.pushforward(
            surface.stringy_class(0), 0
        )
        results["order_swap"] = "push-forwards equal" if same else "push-forwards differ"
        ok = ok and same
    status = PASS if ok else FAIL
    inputs = {"program": digest, "stage": args.stage}
    return build_report("surface verify-main", inputs, results, status)


def cmd_surface_report(args) -> dict:
    surface, digest = _load_surface(args)
    stringy = surface.stringy_class(0)
    unit = cfun.pushforward(surface, cfun.weighted_unit(surface, 0), 0)
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
            anchor: str(unit.value_at(anchor)) for anchor in surface.relative(0).root_order
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
        text = io.TextIOWrapper(io.BytesIO(_read(text[1:])), encoding="utf-8").read()
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError):  # also JSON too deep for the parser
        obj = text  # allow a bare polynomial expression
    value = MotivicClass.from_json(obj)
    results: dict = {"class": value.to_json(), "canonical": str(value)}
    if args.euler:
        results["euler"] = str(value.euler_specialize())
    for q in args.at or ():
        results[f"at_{q}"] = str(value.eval_at(q))
    inputs = {"class": obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)}
    return build_report("motivic eval", inputs, results, PASS)


# -- plumbing --------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--timings", action="store_true", help="attach wall-clock timings")


@functools.cache  # built on first use; ``run`` names a cmd_* function, looked up per call
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mchern",
        description="exact identity checks for localized motivic classes and blow-ups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="identity sweeps")
    vsub = verify.add_subparsers(dest="identity", required=True)
    for name in ("simplex", "simplexcor"):
        vp = vsub.add_parser(name)
        vp.set_defaults(run="cmd_verify_identity")
        vp.add_argument("--d-max", type=int, default=6)
        vp.add_argument("--mu-max", type=int, default=4)
        vp.add_argument("--mu0-offset", type=int, default=0)
        _add_common(vp)
    vinv = vsub.add_parser("invariance")
    vinv.set_defaults(run="cmd_verify_invariance")
    vinv.add_argument("--count", type=int, default=200)
    vinv.add_argument("--seed", type=int, default=None)
    vinv.add_argument("--max-divisors", type=int, default=8)
    _add_common(vinv)

    blowup = sub.add_parser("blowup", help="run blow-up programs")
    bsub = blowup.add_subparsers(dest="action", required=True)
    brun = bsub.add_parser("run")
    brun.set_defaults(run="cmd_blowup_run")
    brun.add_argument("--program", "--scenario")
    brun.add_argument("--emit-snapshots", action="store_true")
    _add_common(brun)

    surf = sub.add_parser("surface", help="plane blow-up surfaces")
    ssub = surf.add_subparsers(dest="action", required=True)
    sver = ssub.add_parser("verify-main")
    sver.set_defaults(run="cmd_surface_verify")
    sver.add_argument("--program", "--scenario")
    sver.add_argument("--stage", type=int, default=None)
    _add_common(sver)
    srep = ssub.add_parser("report")
    srep.set_defaults(run="cmd_surface_report")
    srep.add_argument("--program", "--scenario")
    _add_common(srep)

    cf = sub.add_parser("cfun", help="constructible functions")
    csub = cf.add_subparsers(dest="action", required=True)
    cpush = csub.add_parser("push")
    cpush.set_defaults(run="cmd_cfun_push")
    cpush.add_argument("--program", "--scenario")
    cpush.add_argument("--function", required=True)
    cpush.add_argument("--stage", type=int, default=None)
    _add_common(cpush)

    mot = sub.add_parser("motivic", help="evaluate classes")
    msub = mot.add_subparsers(dest="action", required=True)
    meval = msub.add_parser("eval")
    meval.set_defaults(run="cmd_motivic_eval")
    meval.add_argument("class_spec", help="class JSON, bare polynomial, or @file")
    meval.add_argument("--at", type=int, action="append")
    meval.add_argument("--euler", action="store_true")
    _add_common(meval)

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
    return 0 if report["status"] == PASS else 1


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
