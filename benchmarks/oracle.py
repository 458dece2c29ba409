"""Output checks that never call ``mchern``.

Every check reads the command's input files and its JSON report and
recomputes what it can with ``fractions.Fraction`` and plain integers.
A check returns a list of problems; an empty list means the output is
accepted.  Nothing here imports the program, so a defect in
``mchern.ring`` cannot hide itself by also breaking its own oracle.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

EVAL_POINTS = (2, 3, 5)

_TERM = re.compile(r"^(?:(\d+)\*?)?(L)?(?:\^(\d+))?$")


def poly_eval(text: str, q) -> Fraction:
    """Value at L = q of an ascending polynomial text such as ``1 - 2*L + L^2``."""
    s = text.replace(" ", "")
    if s in ("", "0"):
        return Fraction(0)
    total = Fraction(0)
    for token in re.findall(r"[+-]?[^+-]+", s):
        sign = -1 if token[0] == "-" else 1
        m = _TERM.match(token.lstrip("+-"))
        if m is None or not (m.group(1) or m.group(2)):
            raise ValueError(f"bad term {token!r} in {text!r}")
        coeff = int(m.group(1) or 1)
        exp = int(m.group(3)) if m.group(3) else (1 if m.group(2) else 0)
        total += sign * coeff * Fraction(q) ** exp
    return total


def class_eval(obj: dict, q) -> Fraction:
    """Value at L = q of a class ``{"numerator": text, "denominator": [mu, ...]}``."""
    value = poly_eval(obj["numerator"], q)
    for mu in obj.get("denominator", ()):
        value /= sum(Fraction(q) ** i for i in range(mu + 1))
    return value


def digest_ok(report: dict) -> bool:
    """The report's digest is the sha256 of its own canonical body."""
    body = {k: v for k, v in report.items() if k not in ("digest", "timings")}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest() == report.get("digest")


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _load(workdir: Path, name: str):
    return json.loads((workdir / name).read_text())


# -- blowup run -------------------------------------------------------------------


def check_blowup(argv, report, workdir: Path) -> list[str]:
    program = _load(workdir, _arg(argv, "--program"))
    problems = []
    steps = report["results"]["steps"]
    if len(steps) != len(program["steps"]):
        problems.append(f"{len(steps)} step audits for {len(program['steps'])} steps")
    for audit in steps:
        for key in ("chi_invariant", "total_class_ok", "fiber_complete"):
            if audit.get(key) is not True:
                problems.append(f"step {audit.get('step')}: {key} is {audit.get(key)!r}")
    final = report["results"]["final_chi"]
    for q in EVAL_POINTS:
        initial = sum(
            (class_eval(entry["class"], q) for entry in program["initial"]["strata"]),
            Fraction(0),
        )
        got = class_eval(final, q)
        if got != initial:
            problems.append(f"final_chi at L={q} is {got}, initial class is {initial}")
    return problems


# -- surface programs ---------------------------------------------------------------


class SurfaceFacts:
    """The stage-0 arrangement of a surface program, recomputed from its events."""

    def __init__(self, events: list[dict]):
        self.roots: dict[int, str] = {}
        self.root_order: list[str] = []
        self.through: dict[int, tuple[int, ...]] = {}
        self.mus: dict[int, int] = {}
        pairs: set[tuple[int, int]] = set()
        generics = 0
        for t, event in enumerate(events, start=1):
            if event["type"] == "generic":
                generics += 1
                root = f"p{generics}"
                through: tuple[int, ...] = ()
            elif event["type"] == "on_curve":
                through = (event["curve"],)
                root = self.roots[through[0]]
            else:
                through = tuple(sorted(event["pair"]))
                pairs.discard(through)
                root = self.roots[through[0]]
            for c in through:
                pairs.add((c, t))
            self.through[t] = through
            self.mus[t] = 1 + sum(self.mus[c] for c in through)
            self.roots[t] = root
            if root not in self.root_order:
                self.root_order.append(root)
        self.k = len(events)
        self.pairs = pairs
        self.meets = {t: 0 for t in range(1, self.k + 1)}
        for a, b in pairs:
            self.meets[a] += 1
            self.meets[b] += 1

    def weighted_class(self) -> dict:
        """The weighted stratum class relative to stage 0, as ``ChowClass.to_json``.

        Every stratum's CSM class carries the weight 1 / prod (mu + 1).  A
        curve's proper transform is e_j minus the e_t of later centers on
        it, so curve j shifts e_j by -(1 - w_j) and each such e_t by
        +(1 - w_j); the point part is the weighted Euler sum.
        """
        w = {t: Fraction(1, mu + 1) for t, mu in self.mus.items()}
        curves = [Fraction(3)]
        for i in range(1, self.k + 1):
            curves.append(-1 - (1 - w[i]) + sum((1 - w[j] for j in self.through[i]), Fraction(0)))
        points = (3 + self.k) - 2 * self.k + len(self.pairs)
        points += sum(w[j] * (2 - self.meets[j]) for j in w)
        points += sum(w[a] * w[b] for a, b in self.pairs)
        return {"top": "1", "curves": [str(c) for c in curves], "points": str(points)}

    def pushforward(self, strata: list[dict]) -> dict:
        """Fiberwise Euler sums of a weight function, as ``BaseFunction.to_json``."""
        weights: dict[tuple[int, ...], Fraction] = {}
        for entry in strata:
            key = tuple(sorted(entry["subset"]))
            weights[key] = weights.get(key, Fraction(0)) + Fraction(entry["weight"])
        generic = weights.get((), Fraction(0))
        values = {root: Fraction(0) for root in self.root_order}
        for key, weight in weights.items():
            if len(key) == 1:
                values[self.roots[key[0]]] += weight * (2 - self.meets[key[0]])
            elif len(key) == 2:
                values[self.roots[key[0]]] += weight
        corrections = {
            root: str(value - generic)
            for root, value in sorted(values.items())
            if value != generic
        }
        return {"generic": str(generic), "corrections": corrections}


def chern_class(m: int) -> dict:
    """[Z] + 3h - sum_{i<=m} e_i + (3+m)[pt], the Chern class of stage m."""
    return {"top": "1", "curves": ["3"] + ["-1"] * m, "points": str(3 + m)}


def check_surface_report(argv, report, workdir: Path) -> list[str]:
    """Chern classes in closed form; the weighted class recomputed from the events.

    ``pushforwards[m]`` pushes the stage-0 weighted class down to stage m.
    At m = 0 that is the Chern class of the plane; for m > 0 it is the
    truncation of the weighted class to h, e_1..e_m, not the Chern class
    of stage m (that needs the class weighted relative to stage m, which
    ``surface verify-main`` checks).
    """
    facts = SurfaceFacts(_load(workdir, _arg(argv, "--program"))["events"])
    results = report["results"]
    problems = []
    if results["k"] != facts.k:
        problems.append(f"k is {results['k']}, program has {facts.k} events")
    if results["chern"] != chern_class(facts.k):
        problems.append("chern is not [Z] + 3h - sum e_i + (3+k)[pt]")
    weighted = facts.weighted_class()
    if results["weighted_stratum_class"] != weighted:
        problems.append("weighted_stratum_class differs from the recomputed class")
    if weighted["points"] != "3":
        problems.append(f"weighted Euler sum is {weighted['points']}, not 3")
    pushed = results["pushforwards"]
    if sorted(pushed, key=int) != [str(m) for m in range(facts.k + 1)]:
        problems.append("pushforwards do not cover every stage")
    if pushed.get("0") != chern_class(0):
        problems.append("push-forward to the plane is not its Chern class")
    for m, value in pushed.items():
        want = dict(weighted, curves=weighted["curves"][: int(m) + 1])
        if value != want:
            problems.append(f"push-forward to stage {m} is not the truncated weighted class")
    bad = [a for a, v in results["fiber_profiles"].items() if v != "1"]
    if bad:
        problems.append(f"fiber profiles not 1 at {bad}")
    if sorted(results["fiber_profiles"]) != sorted(facts.root_order):
        problems.append("fiber profiles do not cover every anchor")
    return problems


def check_cfun_push(argv, report, workdir: Path) -> list[str]:
    facts = SurfaceFacts(_load(workdir, _arg(argv, "--program"))["events"])
    function = _load(workdir, _arg(argv, "--function"))
    want = facts.pushforward(function["strata"])
    got = report["results"]["pushforward"]
    return [] if got == want else [f"pushforward {got} != recomputed {want}"]


def check_surface_verify(argv, report, workdir: Path) -> list[str]:
    events = _load(workdir, _arg(argv, "--program"))["events"]
    stages = report["results"]["stages"]
    problems = []
    if sorted(stages, key=int) != [str(m) for m in range(len(events) + 1)]:
        problems.append("not every stage was verified")
    for m, checks in stages.items():
        failed = [name for name, ok in checks.items() if ok is not True]
        if failed:
            problems.append(f"stage {m}: {failed} false")
    swap = report["results"].get("order_swap")
    if swap is not None and swap != "push-forwards equal":
        problems.append(f"order swap: {swap}")
    return problems


# -- sweeps ------------------------------------------------------------------------------


def sweep_cases(d_max: int, mu_max: int) -> int:
    return sum((mu_max + 1) ** k for d in range(1, d_max + 1) for k in range(d + 1))


def check_identity(argv, report, workdir: Path) -> list[str]:
    want = sweep_cases(int(_arg(argv, "--d-max")), int(_arg(argv, "--mu-max")))
    results = report["results"]
    problems = [] if results["cases"] == want else [f"cases {results['cases']} != {want}"]
    if "counterexample" in results:
        problems.append(f"counterexample {results['counterexample']}")
    return problems


def check_invariance(argv, report, workdir: Path) -> list[str]:
    results = report["results"]
    want = int(_arg(argv, "--count"))
    problems = [] if results["cases"] == want else [f"cases {results['cases']} != {want}"]
    if results["failures"] != []:
        problems.append(f"failures {results['failures']}")
    return problems


# -- dispatch -------------------------------------------------------------------------------


def _checker(argv):
    head = tuple(argv[:2])
    if head == ("blowup", "run"):
        return check_blowup
    if head == ("surface", "report"):
        return check_surface_report
    if head == ("surface", "verify-main"):
        return check_surface_verify
    if head == ("cfun", "push"):
        return check_cfun_push
    if head == ("verify", "invariance"):
        return check_invariance
    if head[0] == "verify":
        return check_identity
    raise ValueError(f"no oracle for {argv}")


def units(argv, report) -> int:
    """Work one command completed, in the workload's own unit."""
    results = report["results"]
    head = tuple(argv[:2])
    if head == ("blowup", "run"):
        return len(results["steps"])  # blow-up steps audited
    if head == ("surface", "verify-main"):
        return len(results["stages"])  # surface stages verified
    if head == ("surface", "report"):
        return results["k"]  # exceptional curves reported
    if head[0] == "verify":
        return results["cases"]  # identity or invariance cases checked
    return 0


def judge(argv, exit_code, stdout: str, workdir: Path) -> tuple[list[str], dict | None]:
    """Problems with one command's outcome, plus its parsed report.

    A command fails if it exits non-zero, its status is not ``pass``, its
    digest does not match its body, or the workload oracle rejects it.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"], None
    problems = []
    if report.get("status") != "pass":
        problems.append(f"status {report.get('status')!r}")
    if not digest_ok(report):
        problems.append("digest does not match the report body")
    try:
        problems += _checker(argv)(argv, report, workdir)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"report is missing data: {exc!r}")
    return problems, report
