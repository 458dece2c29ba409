"""Mutation checks: does the test suite notice a deliberately broken verifier?

Run by hand from the repository root (pytest does not collect this file):

    python tests/mutants.py            # every mutant
    python tests/mutants.py euler      # only mutants whose name contains "euler"

Each mutant names a file, a snippet that occurs exactly once in it, its
replacement, and the tests that should fail.  For each mutant the ``src``
and ``tests`` trees are copied to a fresh temporary directory, the snippet
is replaced there, and ``pytest -x`` runs the named tests on the copy.  The
working tree is never modified.  A mutant whose tests still pass survives.
First the named tests are run once on an unmodified copy, which must pass.

Exit status: 0 every mutant is killed, 1 a mutant survived, 2 a snippet is
missing or repeated, or the unmodified tests fail.

Equivalent mutants (changes that cannot alter any result) are listed with
the reason, and not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "fiber sum drops the open stratum",
        "src/mchern/cli.py",
        "MotivicClass.sum([system.stratum(0)] + fiber_chi)",
        "MotivicClass.sum(fiber_chi)",
        ("tests/test_cli.py::TestSurfaceCommands",),
    ),
    Mutant(
        "fiber sum drops one fiber",
        "src/mchern/cli.py",
        "MotivicClass.sum([system.stratum(0)] + fiber_chi)",
        "MotivicClass.sum([system.stratum(0)] + fiber_chi[1:])",
        ("tests/test_cli.py::TestSurfaceCommands",),
    ),
    Mutant(
        "euler_chi ignores the class denominators",
        "src/mchern/modsys.py",
        "prod(mu + 1 for mu in cls.den + self.mu_of_mask(mask))",
        "prod(mu + 1 for mu in self.mu_of_mask(mask))",
        ("tests/test_modsys.py",),
    ),
    Mutant(
        "fiber_completeness_holds always passes",
        "src/mchern/blowup.py",
        "return total == center.total_class() * projective_class(center.codim - 1)",
        "return True",
        ("tests/test_cli.py::TestBlowupRun",),
    ),
    Mutant(
        "from_text quotes the whole text again",
        "src/mchern/ring.py",
        'raise ValueError(f"cannot parse term {_clip(token)} in {_clip(text)}")',
        'raise ValueError(f"cannot parse term {_clip(token)} in {text!r}")',
        ("tests/test_cli.py::test_unparsable_class_text_error_is_clipped", "tests/test_ring.py"),
    ),
    Mutant(
        "a step passes without fiber completeness",
        "src/mchern/blowup.py",
        "return self.invariance_ok and self.total_class_ok and self.fiber_complete",
        "return self.invariance_ok and self.total_class_ok",
        (
            "tests/test_blowup.py::TestLocalAudit::test_a_step_passes_only_when_all_three_checks_hold",
            "tests/test_cli.py::TestVerify::test_invariance_fails_a_case_with_an_incomplete_fiber",
        ),
    ),
    Mutant(
        "a step passes without the total-class check",
        "src/mchern/blowup.py",
        "return self.invariance_ok and self.total_class_ok and self.fiber_complete",
        "return self.invariance_ok and self.fiber_complete",
        ("tests/test_blowup.py::TestLocalAudit::test_a_step_passes_only_when_all_three_checks_hold",),
    ),
    Mutant(
        "fiber_completeness_holds sums the whole step difference",
        "src/mchern/blowup.py",
        "MotivicClass.sum(cls for mask, cls in diff.items() if mask & bit)",
        "MotivicClass.sum(diff.values())",
        ("tests/test_blowup.py::TestBookkeepingInvariants",),
    ),
    Mutant(
        "a '*' with no L after it is accepted again",
        "src/mchern/ring.py",
        r"(?:(?P<coeff>\d+)(?:\*(?=L))?)?",
        r"(?:(?P<coeff>\d+)\*?)?",
        ("tests/test_ring.py", "tests/test_cli.py::TestMotivicEval"),
    ),
    Mutant(
        "mu0 adds d instead of d - 1",
        "src/mchern/strata.py",
        "    return sum(mus) + d - 1\n",
        "    return sum(mus) + d\n",
        (
            "tests/test_blowup.py::TestSingleBlowup",
            "tests/test_surface.py",
            "tests/test_strata.py",
            "tests/test_cli.py::TestSurfaceCommands",
        ),
    ),
    Mutant(
        "step_difference drops the removed masks",
        "src/mchern/blowup.py",
        "    diff.update((m, -cls) for m, cls in old.items() if m not in new)\n",
        "",
        ("tests/test_blowup.py::TestLocalAudit::test_difference_walks_every_mask",),
    ),
    Mutant(
        "IntersectionPoint keeps its pair unsorted",
        "src/mchern/surface.py",
        "a, b = sorted((self.a, self.b))",
        "a, b = self.a, self.b",
        ("tests/test_surface.py::TestEvents",),
    ),
    Mutant(
        "keyed accepts a stratum given twice",
        "src/mchern/surface.py",
        "            if key in out:\n                raise ValueError(f\"duplicate stratum {list(key)!r}\")\n",
        "",
        ("tests/test_cfun.py",),
    ),
    Mutant(
        "the JSON writer's list fast path trusts the first item's type",
        "src/mchern/cli.py",
        "(first is int and set(map(type, obj)) == {int})",
        "first is int",
        ("tests/test_cli.py::test_json_writer_equals_json_dumps",),
    ),
    Mutant(
        "_union_lacks cancels no shared exponent",
        "src/mchern/ring.py",
        "        if mu in lack_a:\n",
        "        if False:\n",
        ("tests/test_ring.py",),
    ),
    Mutant(
        "reduced skips the Phi pass",
        "src/mchern/ring.py",
        "        if remaining:\n            num, remaining = _greedy_cover(*_lowest_terms(num, remaining))\n",
        "",
        (
            "tests/test_ring.py::TestCanonicalForm",
            "tests/test_cli.py::TestBlowupRun::test_equal_initial_classes_print_equal_results",
        ),
    ),
    Mutant(
        "the greedy cover takes the smallest d first",
        "src/mchern/ring.py",
        "d = max(phis)",
        "d = min(phis)",
        ("tests/test_ring.py::TestCanonicalForm::test_a_product_of_projective_classes_is_its_own_form",),
    ),
    Mutant(
        "the first pass of reduced skips one [P^mu]",
        "src/mchern/ring.py",
        "for mu in sorted(self.den, reverse=True):",
        "for mu in sorted(self.den, reverse=True)[1:]:",
        ("tests/test_ring.py::TestCanonicalForm",),
    ),
    Mutant(
        "run_program drops the last nonzero chi delta",
        "src/mchern/blowup.py",
        "deltas = [a.chi_delta for a in audits if not a.chi_delta.is_zero()]",
        "deltas = [a.chi_delta for a in audits if not a.chi_delta.is_zero()][:-1]",
        ("tests/test_blowup.py::TestTelescopedChi::test_failing_programs",),
    ),
    Mutant(
        "run_program sums the final system again",
        "src/mchern/blowup.py",
        "final_chi = MotivicClass.sum([program.initial.chi(program.initial.full_locus())] + deltas)",
        "final_chi = system.chi(system.full_locus())",
        ("tests/test_blowup.py::TestTelescopedChi::test_final_system_is_never_summed",),
    ),
    Mutant(
        "strata_to_json ignores the caller's order",
        "src/mchern/modsys.py",
        "for ids, v in pairs]",
        "for ids, v in sorted(pairs, key=lambda p: sorted(map(str, p[0])))]",
        ("tests/test_serialize.py::TestStrataJson", "tests/test_golden.py"),
    ),
    Mutant(
        "from_text reads an L-exponent past the input bound",
        "src/mchern/ring.py",
        'bounded(int(exp), "exponent of L")',
        "int(exp)",
        ("tests/test_ring.py::TestInputBound",),
    ),
    Mutant(
        "_locus_center_data lets an unknown id escape without its locus and step",
        "src/mchern/blowup.py",
        '            raise BlowupError(f"locus {locus.name!r}: {exc}") from None\n',
        "            raise\n",
        ("tests/test_cli.py::test_unknown_id_names_its_step",),
    ),
)

EQUIVALENT = (
    (
        "_div_projective accumulates every residue class",
        "src/mchern/ring.py",
        "for r in range(min(step, n + 1 - step)):",
        "for r in range(step):",
        "a residue r >= n + 1 - step has at most one entry in q[r::step], "
        "and accumulate leaves a one-entry slice as it is",
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tests_pass(tree: Path, tests: tuple[str, ...]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode == 0


def _run(tests: tuple[str, ...], mutant: Mutant | None = None) -> bool:
    with tempfile.TemporaryDirectory(prefix="mchern-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text()
            target.write_text(text.replace(mutant.snippet, mutant.replacement))
        return _tests_pass(tree, tests)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    for m in chosen:
        count = (ROOT / m.path).read_text().count(m.snippet)
        if count != 1:
            print(f"snippet of {m.name!r} occurs {count} times in {m.path}", file=sys.stderr)
            return 2
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    if tests and not _run(tests):
        print(f"the unmodified tests fail: {' '.join(tests)}", file=sys.stderr)
        return 2
    survivors = 0
    for m in chosen:
        survived = _run(m.tests, m)
        survivors += survived
        print(f"{'SURVIVED' if survived else 'killed  '}  {m.name}  ({m.path})")
    for name, path, _, _, reason in EQUIVALENT:
        print(f"equivalent  {name}  ({path}): {reason}")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
