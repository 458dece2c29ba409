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
        "src/mchern/surface.py",
        "MotivicClass.sum([system.stratum(0)] + fiber_chi)",
        "MotivicClass.sum(fiber_chi)",
        ("tests/test_cli.py::TestSurfaceCommands",),
    ),
    Mutant(
        "fiber sum drops one fiber",
        "src/mchern/surface.py",
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
        "return total == center.bundle_class",
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
        "return all(self.checks.values())",
        'return all(ok for key, ok in self.checks.items() if key != "fiber_complete")',
        (
            "tests/test_blowup.py::TestLocalAudit::test_a_step_passes_only_when_all_three_checks_hold",
            "tests/test_cli.py::TestVerify::test_invariance_fails_a_case_with_an_incomplete_fiber",
        ),
    ),
    Mutant(
        "a step passes without the total-class check",
        "src/mchern/blowup.py",
        "return all(self.checks.values())",
        'return all(ok for key, ok in self.checks.items() if key != "total_class_ok")',
        ("tests/test_blowup.py::TestLocalAudit::test_a_step_passes_only_when_all_three_checks_hold",),
    ),
    Mutant(
        "the audit files the total-class and fiber verdicts under each other's keys",
        "src/mchern/blowup.py",
        '        "total_class_ok": total_class_delta_matches(diff, center),\n'
        '        "fiber_complete": fiber_completeness_holds(',
        '        "fiber_complete": total_class_delta_matches(diff, center),\n'
        '        "total_class_ok": fiber_completeness_holds(',
        (
            "tests/test_blowup.py::TestLocalAudit::"
            "test_corrupting_a_stratum_away_from_the_center_fails_the_step",
        ),
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
        "self.a, self.b = sorted((a, b))",
        "self.a, self.b = a, b",
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
        "the [P^mu] cancel loop skips the largest mu",
        "src/mchern/ring.py",
        "for mu in reversed(mus):",
        "for mu in list(reversed(mus))[1:]:",
        ("tests/test_ring.py::TestCanonicalForm", "tests/test_ring.py::TestCancelInsideMerge"),
    ),
    Mutant(
        "_plus drops the longer operand's tail",
        "src/mchern/ring.py",
        "return [*map(add, a, b), *a[len(b) :]]",
        "return [*map(add, a, b)]",
        ("tests/test_ring.py::TestProjectiveKernels",),
    ),
    Mutant(
        "surface report reads the fiber profiles off the top stage",
        "src/mchern/cli.py",
        "rel = surface.relative(0)",
        "rel = surface.relative(surface.k)",
        ("tests/test_cli.py::TestSurfaceCommands",),
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

    Mutant(
        "the trusted blow-up path keeps a zero class",
        "src/mchern/blowup.py",
        "        if rest.is_zero():\n            del out[mask]\n        else:\n            out[mask] = rest\n",
        "        out[mask] = rest\n",
        ("tests/test_blowup.py::TestTrustedConstruction",),
    ),
    Mutant(
        "the sweep memo extends mus[1:] instead of mus[:-1]",
        "src/mchern/strata.py",
        "tail = memo.get(mus[:n], [])",
        "tail = memo.get(mus[1 : n + 1], [])",
        ("tests/test_strata.py::TestSweep", "tests/test_strata.py::TestSweepMemo"),
    ),
    Mutant(
        "the prefix step drops the 1 +",
        "src/mchern/strata.py",
        "map(sub, [1, *tail], [*tail, 0])",
        "map(sub, [0, *tail], [*tail, 0])",
        ("tests/test_strata.py::TestSimplex", "tests/test_strata.py::TestSweep"),
    ),
    Mutant(
        "the Euler shadow reads d - k + 1",
        "src/mchern/strata.py",
        "e1 + d - k == mu0 + 1",
        "e1 + d - k + 1 == mu0 + 1",
        ("tests/test_strata.py::TestSimplexcor",),
    ),
    Mutant(
        "the bounded draw draws again only on r > n",
        "src/mchern/sampling.py",
        "while r >= n:",
        "while r > n:",
        ("tests/test_sampling.py",),
    ),
    Mutant(
        "the shared-denominator __sub__ adds",
        "src/mchern/ring.py",
        "return MotivicClass._of(self.num - other.num, self.den)",
        "return MotivicClass._of(self.num + other.num, self.den)",
        ("tests/test_ring.py::TestOnePassSum", "tests/test_ring.py::TestMergeTree"),
    ),
    Mutant(
        "blow_up drops the bound on a fresh multiplicity",
        "src/mchern/blowup.py",
        "    if mu0 > INPUT_BOUND:\n",
        "    if False:\n",
        (
            "tests/test_blowup.py::TestDerivedMultiplicityBound",
            "tests/test_cli.py::TestDerivedMultiplicityBound",
        ),
    ),
    Mutant(
        "blow_up refuses a fresh multiplicity equal to the bound",
        "src/mchern/blowup.py",
        "    if mu0 > INPUT_BOUND:\n",
        "    if mu0 >= INPUT_BOUND:\n",
        ("tests/test_blowup.py::TestDerivedMultiplicityBound",),
    ),
    Mutant(
        "the [P^mu] cancel loop keeps a divided [P^mu]",
        "src/mchern/ring.py",
        "            num = quot\n",
        "            num = quot\n            kept.append(mu)\n",
        ("tests/test_ring.py::TestCancelInsideMerge", "tests/test_ring_sympy.py"),
    ),
    Mutant(
        "the residue test sums residues mod mu, not mod mu + 1",
        "src/mchern/ring.py",
        "        if sum(p[r::step]) != top:\n",
        "        if sum(p[r::mu or 1]) != sum(p[mu :: mu or 1]):\n",
        ("tests/test_ring.py::TestProjectiveKernels",),
    ),
    Mutant(
        "the residue test skips residue 0",
        "src/mchern/ring.py",
        "for r in reversed(range(min(mu, n))):",
        "for r in reversed(range(1, min(mu, n))):",
        ("tests/test_ring.py::TestProjectiveKernels",),
    ),
    Mutant(
        "the fiber loci leave out the crossing points",
        "src/mchern/surface.py",
        "            strata[mask] = fibers[rel.root(key)][mask] = point\n",
        "            strata[mask] = point\n",
        ("tests/test_surface.py::TestExport", "tests/test_surface.py::TestVerifyStage"),
    ),
    Mutant(
        "the integer fiber integral drops the crossing points",
        "src/mchern/surface.py",
        "            if key:\n                totals[self.root(key)]",
        "            if len(key) == 1:\n                totals[self.root(key)]",
        ("tests/test_cfun.py",),
    ),
    Mutant(
        "the integer fiber integral drops the Euler numbers",
        "src/mchern/surface.py",
        "+= self.euler(key) * w\n",
        "+= w\n",
        ("tests/test_cfun.py", "tests/test_surface.py::TestVerifyStage"),
    ),
    Mutant(
        "the open stratum's L coefficient is off by one",
        "src/mchern/surface.py",
        "self.k + 1 - len(eulers)",
        "self.k - len(eulers)",
        ("tests/test_surface.py::TestExport", "tests/test_surface.py::TestVerifyStage"),
    ),
    Mutant(
        "keyed does not scale a weight to the common denominator",
        "src/mchern/surface.py",
        "{key: w.numerator * scale[key] for",
        "{key: w.numerator for",
        ("tests/test_cfun.py", "tests/test_golden.py"),
    ),
    Mutant(
        "the unit's weight rule is 1 / prod (mu + 2)",
        "src/mchern/surface.py",
        "prod(self.mus[j] + 1 for j in key)",
        "prod(self.mus[j] + 2 for j in key)",
        ("tests/test_cfun.py::TestWeightedUnit", "tests/test_surface.py::TestVerifyStage"),
    ),
    Mutant(
        "cfun.pushforward leaves its generic value unscaled by den",
        "src/mchern/cfun.py",
        "BaseFunction(Fraction(f0, den), corrections)",
        "BaseFunction(Fraction(f0), corrections)",
        ("tests/test_cfun.py",),
    ),
    Mutant(
        "the weight cache is keyed by value alone, so true reads as 1",
        "src/mchern/cfun.py",
        "parsed.get(key := (type(value), value))",
        "parsed.get(key := value)",
        ("tests/test_cfun.py::TestWeightDecoding",),
    ),
    Mutant(
        "relative drops the bound on a derived discrepancy",
        "src/mchern/surface.py",
        'bounded(discrepancy((mus[c] for c in over), 2), f"curve {t} discrepancy")',
        "discrepancy((mus[c] for c in over), 2)",
        ("tests/test_cli.py::TestSizeBounds",),
    ),
    Mutant(
        "the fold drops its last term",
        "src/mchern/ring.py",
        "    for d, n in pairs:\n",
        "    for d, n in list(pairs)[:-1]:\n",
        ("tests/test_ring.py::TestOnePassSum", "tests/test_ring.py::TestLeftFold"),
    ),
    Mutant(
        "verify invariance checks the divisor cap only when it draws",
        "src/mchern/cli.py",
        'capped(_bound(args.max_divisors, "max_divisors"))',
        '_bound(args.max_divisors, "max_divisors")',
        ("tests/test_cli.py::test_malformed_input_is_one_line_exit_two",),
    ),
    Mutant(
        "evaluate joins the blocks of a level with the previous level's power",
        "src/mchern/ring.py",
        "            power *= power\n",
        "            power *= x\n",
        ("tests/test_ring.py::TestLPolynomial",),
    ),
    Mutant(
        "random_center orders the K0 sets by divisor position, not by id",
        "src/mchern/sampling.py",
        "order = sorted(range(len(idents)), key=idents.__getitem__)",
        "order = list(range(len(idents)))",
        ("tests/test_sampling.py",),
    ),
    Mutant(
        "the stage rule accepts m < k only",
        "src/mchern/surface.py",
        "if not 0 <= m <= self.k:",
        "if not 0 <= m < self.k:",
        ("tests/test_surface.py",),
    ),
    Mutant(
        "the divisor cap refuses 32",
        "src/mchern/sampling.py",
        "if max_divisors > MAX_DIVISORS:",
        "if max_divisors >= MAX_DIVISORS:",
        ("tests/test_cli.py::TestSizeBounds",),
    ),
    Mutant(
        "blow_up drops the bound on the divisors through a center",
        "src/mchern/blowup.py",
        "    if 1 << k0_size > INPUT_BOUND:",
        "    if False:",
        ("tests/test_blowup.py::TestCenterDivisorBound", "tests/test_cli.py::TestSizeBounds"),
    ),
    Mutant(
        "blow_up drops the bound on a step's fresh strata",
        "src/mchern/blowup.py",
        "    if pieces << k0_size > INPUT_BOUND:",
        "    if False:",
        ("tests/test_blowup.py::TestCenterDivisorBound", "tests/test_cli.py::TestSizeBounds"),
    ),
    Mutant(
        "an explicit locus rule refuses a zero class outside the center",
        "src/mchern/blowup.py",
        "        if cls.is_zero():\n            continue\n",
        "",
        ("tests/test_blowup.py::TestInvariance",),
    ),
    Mutant(
        "the fresh-id search tries one name past exc{len(divisors)} only",
        "src/mchern/blowup.py",
        'while f"exc{step}" in index:',
        'if f"exc{step}" in index:',
        ("tests/test_blowup.py::TestCenterValidation",),
    ),
    Mutant(
        "the fresh-strata bound counts one center stratum",
        "src/mchern/blowup.py",
        "pieces = len(center_strata) + sum(map(len, locus_data.values()))",
        "pieces = 1",
        ("tests/test_cli.py::TestSizeBounds",),
    ),
    Mutant(
        "the fresh-strata bound leaves out the loci",
        "src/mchern/blowup.py",
        "pieces = len(center_strata) + sum(map(len, locus_data.values()))",
        "pieces = len(center_strata)",
        ("tests/test_blowup.py::TestCenterDivisorBound",),
    ),
    Mutant(
        "the fold table is keyed by fiber name",
        "src/mchern/surface.py",
        "        folds.update((terms, system.chi(locus, terms).reduced()) for terms, locus in fibers if terms not in folds)\n"
        "        fiber_chi = [folds[terms] for terms, _ in fibers]\n",
        "        fibers = [(name, terms, locus) for (terms, locus), name in zip(fibers, [n for n in loci if n != \"full\"])]\n"
        "        folds.update((n, system.chi(locus, t).reduced()) for n, t, locus in fibers if n not in folds)\n"
        "        fiber_chi = [folds[n] for n, _, _ in fibers]\n",
        ("tests/test_cli.py::TestSurfaceCommands",),
    ),
    Mutant(
        "the fold table's key leaves out the numerators",
        "src/mchern/surface.py",
        "        folds.update((terms, system.chi(locus, terms).reduced()) for terms, locus in fibers if terms not in folds)\n"
        "        fiber_chi = [folds[terms] for terms, _ in fibers]\n",
        "        fibers = [(tuple(d for d, _ in terms), terms, locus) for terms, locus in fibers]\n"
        "        folds.update((k, system.chi(locus, t).reduced()) for k, t, locus in fibers if k not in folds)\n"
        "        fiber_chi = [folds[k] for k, _, _ in fibers]\n",
        ("tests/test_cli.py::TestSurfaceCommands",),
    ),
    Mutant(
        "the integer Chern check skips the points coordinate",
        "src/mchern/surface.py",
        "[den * e for e in chern.curves], den * chern.points)",
        "[den * e for e in chern.curves], self._csm_numerators(rel, unit).points)",
        ("tests/test_surface.py::TestVerifyStage",),
    ),
    Mutant(
        "the JSON reader lets an undeclared key pass",
        "src/mchern/ring.py",
        "            if key not in optional and key not in required:\n",
        "            if False:\n",
        ("tests/test_cli.py::test_malformed_input_is_one_line_exit_two", "tests/test_serialize.py"),
    ),
    Mutant(
        "a locus given a locus_defaults kind and explicit strata passes",
        "src/mchern/blowup.py",
        "        if name in rules:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_malformed_input_is_one_line_exit_two",),
    ),
    Mutant(
        "a locus rule for an undeclared locus passes",
        "src/mchern/blowup.py",
        "if undeclared := sorted(step.locus_rules.keys() - loci.keys()):",
        "if undeclared := []:",
        ("tests/test_cli.py::test_malformed_input_is_one_line_exit_two",),
    ),
    Mutant(
        "the system decoder skips locus_violations",
        "src/mchern/modsys.py",
        "system.validate() + [p for locus in loci.values() for p in system.locus_violations(locus)]",
        "system.validate()",
        ("tests/test_cli.py::test_program_from_json_refuses_what_blowup_run_refuses",),
    ),
    Mutant(
        "snapshots replay all steps but the last",
        "src/mchern/blowup.py",
        "steps, initial = self.program.steps, self.program.initial",
        "steps, initial = self.program.steps[:-1], self.program.initial",
        ("tests/test_blowup.py::TestSystemsKept",),
    ),
    Mutant(
        "program_from_json names the step of a BlowupError only",
        "src/mchern/blowup.py",
        ' is not declared")\n        except ValueError as exc:',
        ' is not declared")\n        except BlowupError as exc:',
        ("tests/test_cli.py::test_malformed_input_is_one_line_exit_two",),
    ),
    Mutant(
        "run_program names the step of a BlowupError only",
        "src/mchern/blowup.py",
        "loci.values(), index)\n        except ValueError as exc:",
        "loci.values(), index)\n        except BlowupError as exc:",
        ("tests/test_blowup.py::TestSystemsKept",),
    ),
    Mutant(
        "a report that cannot be written escapes main",
        "src/mchern/cli.py",
        "    except OSError as exc:\n        print(",
        "    except ZeroDivisionError as exc:\n        print(",
        (
            "tests/test_cli.py::test_a_report_that_cannot_be_written_exits_three",
            "tests/test_cli.py::test_a_stdout_that_refuses_writes_exits_three",
        ),
    ),
    Mutant(
        "a report that cannot be written leaves its buffer to the exit flush",
        "src/mchern/cli.py",
        "            sys.stdout.close()\n",
        "            pass\n",
        ("tests/test_cli.py::test_a_report_that_cannot_be_written_exits_three",),
    ),
    Mutant(
        "the scenario envelope lets an unknown key pass",
        "src/mchern/cli.py",
        'json_fields(obj, "scenario", ("kind", "payload"), {"label": ""})',
        'json_fields(obj, "scenario", ("kind", "payload"), {"label": "", **obj})[:3]',
        ("tests/test_cli.py::test_malformed_input_is_one_line_exit_two",),
    ),
    Mutant(
        "FiberFrame equality and hash ignore k",
        "src/mchern/strata.py",
        "(self.d, self.k) == (other.d, other.k)\n\n    def __hash__(self) -> int:\n        return hash((self.d, self.k))",
        "self.d == other.d\n\n    def __hash__(self) -> int:\n        return hash(self.d)",
        ("tests/test_strata.py::TestStratumClass",),
    ),
    Mutant(
        "FiberFrame equality is identity",
        "src/mchern/strata.py",
        "return isinstance(other, FiberFrame) and (self.d, self.k) == (other.d, other.k)",
        "return self is other",
        ("tests/test_strata.py::TestStratumClass",),
    ),
    Mutant(
        "FiberFrame hashes by identity",
        "src/mchern/strata.py",
        "return hash((self.d, self.k))",
        "return id(self)",
        ("tests/test_strata.py::TestStratumClass",),
    ),
    Mutant(
        "FiberFrame accepts d = 0",
        "src/mchern/strata.py",
        "        if d < 1:\n",
        "        if False:\n",
        ("tests/test_strata.py::TestFrame",),
    ),
    Mutant(
        "FiberFrame accepts k > d",
        "src/mchern/strata.py",
        "if not 0 <= k <= d:",
        "if not 0 <= k:",
        ("tests/test_strata.py::TestFrame",),
    ),
    Mutant(
        "Counterexample equality is identity",
        "src/mchern/strata.py",
        "return isinstance(other, Counterexample) and (",
        "return self is other and (",
        ("tests/test_strata.py::TestSweep",),
    ),
    Mutant(
        "an event equals a tuple of its curves",
        "src/mchern/surface.py",
        "return type(other) is type(self) and _references(other) == _references(self)",
        "return _references(other) == _references(self)",
        ("tests/test_surface.py::TestEvents",),
    ),
    Mutant(
        "event equality is identity",
        "src/mchern/surface.py",
        "return type(other) is type(self) and _references(other) == _references(self)",
        "return self is other",
        ("tests/test_surface.py::TestEvents", "tests/test_serialize.py::TestSurfaceJson"),
    ),
    Mutant(
        "events hash by identity",
        "src/mchern/surface.py",
        "return hash(_references(self))",
        "return id(self)",
        ("tests/test_surface.py::TestEvents",),
    ),
    Mutant(
        "IntersectionPoint accepts one curve twice",
        "src/mchern/surface.py",
        "        if a == b:\n",
        "        if False:\n",
        ("tests/test_surface.py::TestEvents",),
    ),
    Mutant(
        "Divisor accepts a non-integer multiplicity",
        "src/mchern/modsys.py",
        "if type(mu) is not int:",
        "if False:",
        ("tests/test_modsys.py",),
    ),
    Mutant(
        "Divisor accepts a negative multiplicity",
        "src/mchern/modsys.py",
        "        if mu < 0:\n",
        "        if False:\n",
        ("tests/test_modsys.py",),
    ),
    Mutant(
        "LocusRule accepts an unknown kind",
        "src/mchern/blowup.py",
        'if kind not in (CONTAINS_CENTER, DISJOINT_FROM_CENTER, "explicit"):',
        "if False:",
        ("tests/test_blowup.py::TestInvariance",),
    ),
    Mutant(
        "LocusRule accepts an explicit rule without classes",
        "src/mchern/blowup.py",
        'if kind == "explicit" and strata is None:',
        "if False:",
        ("tests/test_blowup.py::TestInvariance",),
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
    (
        "a stratum's root is that of its last curve",
        "src/mchern/surface.py",
        "return self.roots[key[0]]",
        "return self.roots[key[-1]]",
        "two meeting curves lie over one point of the stage surface, so both curves "
        "of a crossing have the same root",
    ),
)


def orphans() -> list[tuple[str, str, int]]:
    """``(name, path, count)`` of each mutant or equivalent whose snippet does not occur exactly once."""
    entries = [(m.name, m.path, m.snippet) for m in MUTANTS]
    entries += [(name, path, snippet) for name, path, snippet, _, _ in EQUIVALENT]
    counts = [(name, path, (ROOT / path).read_text().count(snippet)) for name, path, snippet in entries]
    return [entry for entry in counts if entry[2] != 1]


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
    for name, path, count in orphans():
        print(f"snippet of {name!r} occurs {count} times in {path}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
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
