import contextlib
import copy
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import random_tower, value_at
from mchern import blowup, cfun, cli
from mchern.cli import main
from mchern.modsys import Divisor, ModificationSystem
from mchern.ring import LPolynomial, MotivicClass, projective_poly
from mchern.sampling import attach_locus_rules, random_center, random_invariance_case
from mchern.surface import RelativeArrangement, SurfaceModel, events_from_json, events_to_json

PLANE_CLASS = {"numerator": "1 + L + L^2", "denominator": []}


@pytest.fixture
def surface_file(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(
        json.dumps(
            {
                "events": [
                    {"type": "generic"},
                    {"type": "on_curve", "curve": 1},
                    {"type": "intersection", "pair": [1, 2]},
                ]
            }
        )
    )
    return str(path)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.json"
    path.write_text(
        json.dumps(
            {
                "initial": {
                    "ambient_dim": 2,
                    "divisors": [],
                    "strata": [{"subset": [], "class": PLANE_CLASS}],
                    "ambient_class": PLANE_CLASS,
                },
                "steps": [
                    {
                        "codim": 2,
                        "containing": [],
                        "center_strata": [
                            {"subset": [], "class": {"numerator": "1", "denominator": []}}
                        ],
                    },
                    {
                        "codim": 2,
                        "containing": ["exc0"],
                        "center_strata": [
                            {"subset": ["exc0"], "class": {"numerator": "1", "denominator": []}}
                        ],
                    },
                ],
            }
        )
    )
    return str(path)


class TestVerify:
    def test_simplex_pass(self, capsys):
        assert main(["verify", "simplex", "--d-max", "3", "--mu-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "57" in out

    def test_simplexcor_pass_json(self, capsys):
        assert main(["verify", "simplexcor", "--d-max", "2", "--mu-max", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert report["results"]["cases"] == 10

    def test_degenerate_bound(self, capsys):
        assert main(["verify", "simplex", "--d-max", "1", "--mu-max", "0"]) == 0

    def test_perturbed_mu0_fails_with_counterexample(self, capsys):
        code = main(
            ["verify", "simplexcor", "--d-max", "3", "--mu-max", "1", "--mu0-offset", "1", "--json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        assert "counterexample" in report["results"]

    def test_malformed_bounds(self, capsys):
        assert main(["verify", "simplex", "--d-max", "0"]) == 2

    def test_invariance(self, capsys):
        assert main(["verify", "invariance", "--count", "15", "--seed", "9", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 9
        assert report["results"]["failures"] == []

    def test_invariance_fails_a_case_with_an_incomplete_fiber(self, capsys, monkeypatch):
        # the case rule is StepAudit.passed, so fiber completeness counts as well
        monkeypatch.setattr(blowup, "fiber_completeness_holds", lambda *args: False)
        assert main(["verify", "invariance", "--count", "5", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        assert report["results"]["failures"] == [0, 1, 2, 3, 4]


def results_bytes(out):
    """The ``results`` member of a --json report, as printed."""
    start = out.index('\n  "results": ')
    return out[start : out.index('\n  "status": ', start)]


class TestBlowupRun:
    def test_program_passes(self, capsys, program_file):
        assert main(["blowup", "run", "--program", program_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert report["results"]["final_chi"] == PLANE_CLASS
        mus = [d["mu"] for d in report["results"]["final_system"]["divisors"]]
        assert mus == [1, 2]

    def test_failed_audit_exits_one(self, capsys, monkeypatch, program_file, tmp_path):
        payload = json.loads(open(program_file).read())
        payload["steps"] = payload["steps"][:1]
        path = tmp_path / "one_step.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setattr("mchern.blowup.Divisor", lambda ident, mu: Divisor(ident, mu + 1))
        assert main(["blowup", "run", "--program", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        [step] = report["results"]["steps"]
        assert step["chi_invariant"] is False
        assert step["total_class_ok"] is True and step["fiber_complete"] is True

    def test_step_entries_are_the_audit_checks(self, capsys, program_file):
        # the report names each step's checks by the keys audited_step gives them
        assert main(["blowup", "run", "--program", program_file, "--json"]) == 0
        [first, _] = json.loads(capsys.readouterr().out)["results"]["steps"]
        program = blowup.program_from_json(json.loads(Path(program_file).read_text()))
        _, audit = blowup.audited_step(program.initial, program.steps[0], program.loci.values())
        assert set(audit.checks) == set(first) - {"step", "fresh_id"}
        assert first == {"step": 0, "fresh_id": audit.fresh_id, **audit.checks}

    def test_incomplete_fiber_exits_one(self, capsys, monkeypatch, program_file, tmp_path):
        payload = json.loads(open(program_file).read())
        payload["steps"] = payload["steps"][:1]
        path = tmp_path / "one_step.json"
        path.write_text(json.dumps(payload))
        original = blowup.hyperplane_stratum_class
        monkeypatch.setattr(blowup, "hyperplane_stratum_class", lambda *a: original(*a) + 1)
        assert main(["blowup", "run", "--program", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        [step] = report["results"]["steps"]
        assert step["fiber_complete"] is False

    def test_long_point_chain_passes(self, capsys, tmp_path):
        # a point of the plane, then 119 points each on the newest divisor; with
        # local audits the run costs a fraction of a second (no timing asserted)
        def step(on):
            return {"codim": 2, "containing": on, "center_strata": [{"subset": on, "class": "1"}]}

        payload = {
            "initial": {
                "ambient_dim": 2,
                "divisors": [],
                "strata": [{"subset": [], "class": PLANE_CLASS}],
                "ambient_class": PLANE_CLASS,
            },
            "steps": [step([])] + [step([f"exc{j}"]) for j in range(119)],
        }
        path = tmp_path / "prog120.json"
        path.write_text(json.dumps(payload))
        assert main(["blowup", "run", "--program", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass" and len(report["results"]["steps"]) == 120
        assert report["results"]["final_chi"] == PLANE_CLASS

    def test_equal_initial_classes_print_equal_results(self, capsys, tmp_path):
        # (1 + L^2)/[P^3] is 1/[P^1]: [P^3] = (1 + L)(1 + L^2)
        def results(cls):
            payload = {
                "initial": {
                    "ambient_dim": 2,
                    "divisors": [],
                    "strata": [{"subset": [], "class": cls}],
                    "ambient_class": cls,
                },
                "steps": [
                    {"codim": 2, "containing": [], "center_strata": [{"subset": [], "class": "1"}]}
                ],
            }
            path = tmp_path / "program.json"
            path.write_text(json.dumps(payload))
            assert main(["blowup", "run", "--program", str(path), "--json"]) == 0
            return results_bytes(capsys.readouterr().out)

        written = results({"numerator": "1 + L^2", "denominator": [3]})
        assert written == results({"numerator": "1", "denominator": [1]})
        assert '"numerator": "1 + L + L^2"' in written  # the ambient class, 1/[P^1] + L

    @pytest.mark.parametrize("exponents", [(3,), (1, 2), (5, 5, 11)])
    def test_rewritten_classes_print_equal_results(self, capsys, program_file, tmp_path, exponents):
        # every class x written as x * prod [P^e] / prod [P^e]
        def rewrite(obj):
            if isinstance(obj, list):
                return [rewrite(item) for item in obj]
            if not isinstance(obj, dict):
                return obj
            out = {key: rewrite(value) for key, value in obj.items()}
            for key in ("class", "ambient_class"):
                if key in obj:
                    x = MotivicClass.from_json(obj[key])
                    num = x.num
                    for e in exponents:
                        num = num * projective_poly(e)
                    out[key] = {"numerator": num.to_text(), "denominator": [*x.den, *exponents]}
            return out

        path = tmp_path / "rewritten.json"
        path.write_text(json.dumps(rewrite(json.loads(open(program_file).read()))))
        assert main(["blowup", "run", "--program", program_file, "--json"]) == 0
        expected = results_bytes(capsys.readouterr().out)
        assert main(["blowup", "run", "--program", str(path), "--json"]) == 0
        assert results_bytes(capsys.readouterr().out) == expected

    def test_shuffled_strata_lists_print_equal_results(self, capsys, tmp_path):
        # the printed classes are canonical, so no result depends on the order in which the
        # input lists its strata; every such list (system, loci, centers, locus rules) is shuffled
        def shuffled(obj, rng):
            if isinstance(obj, dict):
                return {key: shuffled(value, rng) for key, value in obj.items()}
            if not isinstance(obj, list):
                return obj
            out = [shuffled(item, rng) for item in obj]
            if out and all(isinstance(item, dict) and "subset" in item for item in out):
                rng.shuffle(out)
            return out

        def run(payload):
            path = tmp_path / "program.json"
            path.write_text(json.dumps(payload))
            code = main(["blowup", "run", "--program", str(path), "--json"])
            return code, results_bytes(capsys.readouterr().out)

        rng = random.Random(5)
        for _ in range(12):
            system, center, loci = random_invariance_case(rng, max_divisors=5)
            second = blowup.blow_up(system, center, loci)
            follow = random_center(rng, second.system)
            steps = (center,) if follow is None else (
                center, attach_locus_rules(rng, follow, list(second.loci.values()), second.system))
            named = {locus.name: locus for locus in loci}
            payload = blowup.program_to_json(blowup.BlowupProgram(system, steps, named))
            expected = run(payload)
            assert expected[0] == 0
            for _ in range(3):
                assert run(shuffled(payload, rng)) == expected

    @pytest.mark.parametrize("exponent", [1.5, True])
    def test_non_integer_exponent_is_input_error(self, capsys, program_file, tmp_path, exponent):
        payload = json.loads(open(program_file).read())
        payload["initial"]["strata"][0]["class"]["denominator"] = [exponent]
        path = tmp_path / "bad_exponent.json"
        path.write_text(json.dumps(payload))
        assert main(["blowup", "run", "--program", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_snapshots_emitted(self, capsys, program_file):
        assert main(["blowup", "run", "--program", program_file, "--emit-snapshots", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]["snapshots"]) == 3

    def test_corrupted_center_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "initial": {
                        "ambient_dim": 2,
                        "divisors": [{"id": "e", "mu": 1}],
                        "strata": [
                            {"subset": [], "class": {"numerator": "L + L^2", "denominator": []}},
                            {"subset": ["e"], "class": {"numerator": "1 + L", "denominator": []}},
                        ],
                    },
                    "steps": [
                        {
                            "codim": 2,
                            "containing": ["e"],
                            "center_strata": [
                                {"subset": [], "class": {"numerator": "1", "denominator": []}}
                            ],
                        }
                    ],
                }
            )
        )
        assert main(["blowup", "run", "--program", str(path)]) == 2
        assert "does not contain" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["blowup", "run", "--program", "/nonexistent.json"]) == 2

    def test_wrapped_scenario(self, capsys, program_file, tmp_path):
        payload = json.loads(open(program_file).read())
        wrapped = tmp_path / "scenario.json"
        wrapped.write_text(json.dumps({"kind": "program", "label": "demo", "payload": payload}))
        assert main(["blowup", "run", "--scenario", str(wrapped)]) == 0

    def test_wrong_kind_rejected(self, capsys, tmp_path):
        wrapped = tmp_path / "scenario.json"
        wrapped.write_text(json.dumps({"kind": "surface", "payload": {}}))
        assert main(["blowup", "run", "--scenario", str(wrapped)]) == 2


class TestSurfaceCommands:
    def test_verify_main_all_stages(self, capsys, surface_file):
        assert main(["surface", "verify-main", "--program", surface_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert set(report["results"]["stages"].keys()) == {"0", "1", "2", "3"}
        assert report["results"]["stages"]["0"]["fiber_profiles_one"] is True

    def test_verify_main_single_stage(self, capsys, surface_file):
        assert main(["surface", "verify-main", "--program", surface_file, "--stage", "2"]) == 0

    def test_report_builds_the_weighted_unit_once(self, capsys, monkeypatch, surface_file):
        built, unit = [], RelativeArrangement.unit.func

        def counting(rel):
            built.append(rel.stage)
            return unit(rel)

        spy = cached_property(counting)
        spy.__set_name__(RelativeArrangement, "unit")
        monkeypatch.setattr(RelativeArrangement, "unit", spy)
        assert main(["surface", "report", "--program", surface_file]) == 0
        assert built == [0]

    @staticmethod
    def corrupt_export(monkeypatch, pick):
        """Export systems where one stratum, chosen by ``pick``, gains 1 everywhere it appears."""
        original = SurfaceModel.export_modification_system

        def export(self, relative_to=0):
            system, loci = original(self, relative_to)
            mask = pick(loci)
            if mask is not None:
                system.strata[mask] += 1
                for locus in loci.values():
                    if mask in locus.strata:
                        locus.strata[mask] = system.strata[mask]
            return system, loci

        monkeypatch.setattr(SurfaceModel, "export_modification_system", export)

    def test_verify_main_catches_a_corrupt_fiber(self, capsys, monkeypatch, surface_file):
        def first_curve_of_first_fiber(loci):
            fibers = sorted(name for name in loci if name != "full")
            if fibers:
                return min(mask for mask in loci[fibers[0]].strata if mask.bit_count() == 1)
            return None

        self.corrupt_export(monkeypatch, first_curve_of_first_fiber)
        assert main(["surface", "verify-main", "--program", surface_file, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        stages = report["results"]["stages"]
        for m in ("0", "1", "2"):  # stage 3 is the top surface: nothing is contracted
            assert stages[m]["fiber_chi_one"] is False
            assert stages[m]["chi_matches_stage_class"] is False
        assert all(stages["3"].values())

    def test_verify_main_catches_a_corrupt_open_stratum(self, capsys, monkeypatch, surface_file):
        self.corrupt_export(monkeypatch, lambda loci: 0)
        assert main(["surface", "verify-main", "--program", surface_file, "--json"]) == 1
        stages = json.loads(capsys.readouterr().out)["results"]["stages"]
        for checks in stages.values():
            assert checks["chi_matches_stage_class"] is False and checks["euler_chi"] is False
            assert checks["fiber_chi_one"] is True

    def test_verify_main_folds_again_a_fiber_corrupted_at_a_later_stage(self, capsys, monkeypatch, tmp_path):
        # fiber p2 (curves 2, 3 and their crossing) is the same at stages 0 and 1; a table
        # keyed by fiber name, or by denominators alone, would reuse its stage-0 chi
        path = tmp_path / "two.json"
        path.write_text(
            json.dumps({"events": [{"type": "generic"}, {"type": "generic"}, {"type": "on_curve", "curve": 2}]})
        )

        def curve_of_p2_after_stage_0(loci):
            if "p2" in loci and "p1" not in loci:
                return min(mask for mask in loci["p2"].strata if mask.bit_count() == 1)
            return None

        self.corrupt_export(monkeypatch, curve_of_p2_after_stage_0)
        assert main(["surface", "verify-main", "--program", str(path), "--json"]) == 1
        stages = json.loads(capsys.readouterr().out)["results"]["stages"]
        assert [m for m, checks in stages.items() if not checks["fiber_chi_one"]] == ["1"]

    def test_verify_main_folds_each_distinct_fiber_once_per_command(self, capsys, monkeypatch, tmp_path):
        surface = random_tower(random.Random(8), 18)
        fibers = [
            system.chi_terms(locus)
            for system, loci in map(surface.export_modification_system, range(surface.k + 1))
            for name, locus in loci.items()
            if name != "full"
        ]
        assert len(set(fibers)) < len(fibers)  # some fiber is left unchanged by a stage
        folds, chi = [], ModificationSystem.chi

        def spy(system, locus, terms=None):
            assert terms == system.chi_terms(locus)  # built once, by the caller, for this locus
            folds.append(terms)
            return chi(system, locus, terms)

        monkeypatch.setattr(ModificationSystem, "chi", spy)
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(events_to_json(surface.events)))
        for runs in (1, 2):  # the table lives for one command: the second folds them all again
            assert main(["surface", "verify-main", "--program", str(path)]) == 0
            assert len(folds) == runs * len(set(fibers))
            assert set(folds) == set(fibers)

    def test_verify_main_one_stage_equals_its_entry_of_all_stages(self, capsys, tmp_path):
        surface = random_tower(random.Random(8), 18)
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(events_to_json(surface.events)))
        assert main(["surface", "verify-main", "--program", str(path), "--json"]) == 0
        stages = json.loads(capsys.readouterr().out)["results"]["stages"]
        for m in range(surface.k + 1):
            assert main(["surface", "verify-main", "--program", str(path), "--stage", str(m), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["results"]["stages"] == {str(m): stages[str(m)]}

    def test_stage_out_of_range(self, capsys, surface_file):
        assert main(["surface", "verify-main", "--program", surface_file, "--stage", "9"]) == 2

    def test_order_swap_note(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(
            json.dumps({"events": [{"type": "generic"}, {"type": "generic"}, {"type": "on_curve", "curve": 1}]})
        )
        assert main(["surface", "verify-main", "--program", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["order_swap"] == "push-forwards equal"

    def test_report(self, capsys, surface_file):
        assert main(["surface", "report", "--program", surface_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        assert results["discrepancies"] == [1, 2, 4]
        assert results["chern"]["points"] == "6"
        assert results["pushforwards"]["0"] == {"top": "1", "curves": ["3"], "points": "3"}
        assert results["fiber_profiles"] == {"p1": "1"}

    def test_report_pushforwards_truncate_as_pushforward_does(self, capsys, surface_file):
        assert main(["surface", "report", "--program", surface_file, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        with open(surface_file) as handle:
            surface = SurfaceModel(events_from_json(json.load(handle)))
        stringy = surface.stringy_class(0)
        assert results["weighted_stratum_class"] == stringy.to_json()
        assert results["pushforwards"] == {
            str(m): surface.pushforward(stringy, m).to_json() for m in range(surface.k + 1)
        }

    def test_report_fiber_profiles_equal_the_pushforward_route(self, capsys, tmp_path, corpus_surfaces):
        path = tmp_path / "surface.json"
        for surface in corpus_surfaces:
            path.write_text(json.dumps(events_to_json(surface.events)))
            assert main(["surface", "report", "--program", str(path), "--json"]) == 0
            profiles = json.loads(capsys.readouterr().out)["results"]["fiber_profiles"]
            unit = cfun.pushforward(surface, cfun.weighted_unit(surface, 0), 0)
            assert profiles == {a: str(value_at(unit, a)) for a in surface.relative(0).root_order}

    def test_report_on_a_descending_pair(self, capsys, surface_file, tmp_path):
        # surface_file is the same program with the pair written as [1, 2]
        path = tmp_path / "descending.json"
        events = [{"type": "generic"}, {"type": "on_curve", "curve": 1}]
        path.write_text(json.dumps({"events": events + [{"type": "intersection", "pair": [2, 1]}]}))
        results = []
        for program in (surface_file, str(path)):
            assert main(["surface", "report", "--program", program, "--json"]) == 0
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert results[1] == results[0]
        assert results[1]["events"][2] == {"type": "intersection", "pair": [1, 2]}

    def test_invalid_event_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"events": [{"type": "on_curve", "curve": 3}]}))
        assert main(["surface", "verify-main", "--program", str(path)]) == 2


class TestCfunPush:
    def test_push(self, capsys, surface_file, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"strata": [{"subset": [1], "weight": "1/2"}]}))
        assert main(["cfun", "push", "--program", surface_file, "--function", str(fn), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["pushforward"]["generic"] == "0"
        assert report["results"]["pushforward"]["corrections"] == {"p1": "1/2"}

    def test_zero_weight_on_a_real_stratum(self, capsys, surface_file, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"strata": [{"subset": [1, 3], "weight": "0"}]}))
        assert main(["cfun", "push", "--program", surface_file, "--function", str(fn), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["function"] == {"strata": []}
        assert report["results"]["pushforward"] == {"generic": "0", "corrections": {}}

    def test_bad_function(self, capsys, surface_file, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"strata": [{"subset": [9], "weight": "1"}]}))
        assert main(["cfun", "push", "--program", surface_file, "--function", str(fn)]) == 2


class TestMotivicEval:
    def test_inline_json(self, capsys):
        code = main(
            ["motivic", "eval", '{"numerator": "1 + 2*L + L^2", "denominator": [1]}',
             "--euler", "--at", "2", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["canonical"] == "1 + L"
        assert report["results"]["euler"] == "2"
        assert report["results"]["at_2"] == "3"

    def test_bare_polynomial(self, capsys):
        assert main(["motivic", "eval", "1 + L", "--at", "3"]) == 0
        out = capsys.readouterr().out
        assert "at_3: 4" in out

    def test_bad_class(self, capsys):
        assert main(["motivic", "eval", "[1, 2]"]) == 2
        assert main(["motivic", "eval", "L^"]) == 2

    def test_huge_exponent_is_input_error(self, capsys):
        assert main(["motivic", "eval", "L^1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err == "error: exponent of L 1000000000000 exceeds the input bound 65536\n"

    def test_star_needs_an_l_after_it(self, capsys):
        assert main(["motivic", "eval", "2*"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_file_reads_like_text(self, capsys, tmp_path):
        # a CRLF file is read with universal newlines, as a text-mode open reads it
        path = tmp_path / "class.txt"
        path.write_bytes(b"1 + L\r\n")
        assert main(["motivic", "eval", f"@{path}", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"]["class"] == "1 + L\n"
        assert report["results"]["canonical"] == "1 + L"


# every kind of whitespace is insignificant in a bare polynomial
WHITESPACE = {
    "trailing-newline": ("1 + L\n", "1 + L"),
    "newline-before-term": ("1\n+ L", "1 + L"),
    "two-trailing-newlines": ("1+L\n\n", "1 + L"),
    "trailing-crlf": ("1 + L\r\n", "1 + L"),
    "trailing-tab": ("1 + L\t", "1 + L"),
    "newline-before-exponent": ("L\n^2", "L^2"),
}


@pytest.mark.parametrize("via_file", [False, True], ids=["inline", "file"])
@pytest.mark.parametrize("case", WHITESPACE)
def test_whitespace_in_bare_polynomial(capsys, tmp_path, case, via_file):
    text, canonical = WHITESPACE[case]
    spec = text
    if via_file:
        path = tmp_path / "class.txt"
        path.write_bytes(text.encode())
        spec = f"@{path}"
    assert main(["motivic", "eval", spec, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["canonical"] == canonical


class TestRepeatedCalls:
    """One process may run many commands; nothing from one reaches the next."""

    def test_appended_option_does_not_grow(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["motivic", "eval", "1", "--at", "2", "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert [key for key in json.loads(outs[1])["results"] if key.startswith("at_")] == ["at_2"]

    def test_omitted_stage_is_stage_zero_again(self, capsys, surface_file, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"strata": [{"subset": [3], "weight": "1"}]}))
        push = ["cfun", "push", "--program", surface_file, "--function", str(fn), "--json"]
        outs = []
        for extra in ([], ["--stage", "1"], []):
            assert main(push + extra) == 0
            outs.append(json.loads(capsys.readouterr().out)["results"]["pushforward"])
        assert outs[0] == outs[2] != outs[1]


class TestReportDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = ["verify", "invariance", "--count", "10", "--seed", "3", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_digest_stable_under_timings(self, capsys):
        base = ["verify", "simplex", "--d-max", "2", "--mu-max", "1", "--json"]
        assert main(base) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(base + ["--timings"]) == 0
        timed = json.loads(capsys.readouterr().out)
        assert "timings" in timed and "timings" not in plain
        assert timed["digest"] == plain["digest"]

    def test_text_timings_add_one_last_line(self, capsys):
        base = ["motivic", "eval", "1+L"]
        assert main(base) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(base + ["--timings"]) == 0
        timed = capsys.readouterr().out.splitlines()
        assert len(timed) == len(plain) + 1 and timed[:-1] == plain
        assert timed[-1].startswith("wall_seconds: ")
        assert float(timed[-1].split(": ")[1]) >= 0


def _write_json_text(obj) -> str:
    chunks = []
    cli._write_json(obj, "\n", chunks.append)
    return "".join(chunks)


@pytest.fixture
def layout_commands(tmp_path, surface_file, program_file):
    # a k = 120 chain, so curve lists are long and take the one-pass str route
    chain = tmp_path / "chain.json"
    events = [{"type": "generic"}] + [{"type": "on_curve", "curve": j} for j in range(1, 120)]
    chain.write_text(json.dumps({"events": events}))
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"strata": [{"subset": [1], "weight": "1/2"}]}))
    return {
        "verify simplex": ["verify", "simplex", "--d-max", "3", "--mu-max", "2"],
        "verify invariance": ["verify", "invariance", "--count", "5", "--seed", "4"],
        "blowup run": ["blowup", "run", "--program", program_file, "--emit-snapshots"],
        "surface verify-main": ["surface", "verify-main", "--program", surface_file],
        "surface report": ["surface", "report", "--program", str(chain)],
        "cfun push": ["cfun", "push", "--program", str(chain), "--function", str(fn)],
        "motivic eval": ["motivic", "eval", '{"numerator": "1 + 2*L + L^2", "denominator": [1]}',
                         "--euler", "--at", "2"],
    }


@pytest.mark.parametrize("timings", [False, True], ids=["plain", "timings"])
@pytest.mark.parametrize(
    "command",
    ["verify simplex", "verify invariance", "blowup run", "surface verify-main",
     "surface report", "cfun push", "motivic eval"],
)
def test_json_output_is_the_indented_dump(capsys, layout_commands, command, timings):
    argv = layout_commands[command] + ["--json"] + (["--timings"] if timings else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert ("timings" in json.loads(out)) == timings


_TEXT = st.text(st.characters(exclude_categories=()))  # control characters and lone surrogates too
_INTS = st.integers(-(2**130), 2**130)
# homogeneous scalar lists are leaves too, so the one-pass list route is reached at any depth
_JSON_LEAVES = (
    st.none() | st.booleans() | _INTS | st.floats(allow_nan=True) | _TEXT
    | st.lists(_TEXT) | st.lists(_INTS | st.booleans())
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(_TEXT, children),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_TREES)
@example(["x", 1, None])
@example([1, True])
@example([True, 1])
@example((float("nan"), float("inf"), -float("inf"), -0.0))
@example({"": [], "a": {}, "b": ()})
def test_json_writer_equals_json_dumps(tree):
    # the writer starts at a container, as every report is a dict
    assert _write_json_text([tree]) == json.dumps([tree], sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [{1: "x"}, Fraction(1, 2), set(), ["x", set()], [1, Fraction(1, 2)], {"a": {2: 3}}],
    ids=["int-key", "fraction", "set", "set-after-str", "fraction-after-int", "nested-int-key"],
)
def test_json_writer_rejects_non_str_keys_and_non_json_values(value):
    with pytest.raises(TypeError):
        _write_json_text(value)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mchern", "verify", "simplex", "--d-max", "2", "--mu-max", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "pass" in proc.stdout


# A plane blown up once, then a point on that exceptional curve; valid as is.
ONE_DIVISOR_PROGRAM = {
    "initial": {
        "ambient_dim": 2,
        "divisors": [{"id": "e", "mu": 1}],
        "strata": [
            {"subset": [], "class": {"numerator": "L + L^2", "denominator": []}},
            {"subset": ["e"], "class": {"numerator": "1 + L", "denominator": []}},
        ],
        "loci": [{"name": "U", "strata": [{"subset": ["e"], "class": "1 + L"}]}],
    },
    "steps": [
        {
            "codim": 2,
            "containing": ["e"],
            "center_strata": [{"subset": ["e"], "class": "1"}],
            "locus_defaults": {"U": "contains_center"},
        }
    ],
}
SURFACE = {
    "events": [
        {"type": "generic"},
        {"type": "on_curve", "curve": 1},
        {"type": "intersection", "pair": [1, 2]},
    ]
}
FUNCTION = {"strata": [{"subset": [1], "weight": "1/2"}]}


def _with(obj, path, value):
    """A deep copy of ``obj`` with the entry at ``path`` replaced by ``value``."""
    out = copy.deepcopy(obj)
    *head, last = path
    target = out
    for key in head:
        target = target[key]
    target[last] = value
    return out


STRATUM_E = ONE_DIVISOR_PROGRAM["initial"]["strata"][1]
MALFORMED = {
    "initial-not-object": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial"], [])),
    "step-not-object": ("program", _with(ONE_DIVISOR_PROGRAM, ["steps"], [5])),
    "locus-defaults-list": (
        "program", _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "locus_defaults"], [])),
    "locus-not-object": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "loci"], ["U"])),
    "duplicate-locus": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["initial", "loci"],
              ONE_DIVISOR_PROGRAM["initial"]["loci"] * 2)),
    "duplicate-stratum": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["initial", "strata"],
              ONE_DIVISOR_PROGRAM["initial"]["strata"] + [STRATUM_E])),
    "repeated-id": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "center_strata", 0, "subset"], ["e", "e"])),
    "containing-string": (
        "program", _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "containing"], "e")),
    "codim-float": ("program", _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "codim"], 2.7)),
    "mu-bool": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors", 0, "mu"], True)),
    "ambient-dim-string": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "ambient_dim"], "2")),
    "numerator-float": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["initial", "strata", 1, "class"], {"numerator": [1, 1.5]})),
    "curve-float": ("surface", _with(SURFACE, ["events", 1, "curve"], 1.9)),
    "curve-bool": ("surface", _with(SURFACE, ["events", 1, "curve"], True)),
    "pair-string": ("surface", _with(SURFACE, ["events", 2, "pair"], ["1", 2])),
    "pair-three": ("surface", _with(SURFACE, ["events", 2, "pair"], [1, 2, 3])),
    "pair-one": ("surface", _with(SURFACE, ["events", 2, "pair"], [1])),
    "events-object": ("surface", _with(SURFACE, ["events"], {"type": "generic"})),
    "events-empty-object": ("surface", _with(SURFACE, ["events"], {})),
    "cfun-duplicate": ("function", _with(FUNCTION, ["strata"], FUNCTION["strata"] * 2)),
    "cfun-repeated-id": ("function", _with(FUNCTION, ["strata", 0, "subset"], [1, 1])),
    "cfun-string-subset": ("function", _with(FUNCTION, ["strata", 0, "subset"], "1")),
    "cfun-bool-id": ("function", _with(FUNCTION, ["strata", 0, "subset"], [True])),
    "cfun-zero-denominator": ("function", _with(FUNCTION, ["strata", 0, "weight"], "1/0")),
    "cfun-zero-weight-unknown-curve": (
        "function", {"strata": [{"subset": [999], "weight": "0"}]}),
    "cfun-zero-weight-triple-point": (
        "function", {"strata": [{"subset": [1, 2, 3], "weight": "0"}]}),
    "motivic-float-coefficient": ("motivic", {"numerator": [1, 1.5]}),
    "motivic-denominator-int": ("motivic", {"numerator": "1", "denominator": 5}),
    "motivic-unknown-key": ("motivic", {"numerator": "1", "denominators": [1]}),
    "stratum-class-unknown-key": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["initial", "strata", 1, "class"],
              {"numerator": "1 + L", "denominators": []})),
    "locus-name-int": (
        "program",
        _with(_with(ONE_DIVISOR_PROGRAM, ["steps"], []), ["initial", "loci"],
              [{"name": 5, "strata": []}, {"name": "U", "strata": []}])),
    "divisor-id-int": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors"],
              ONE_DIVISOR_PROGRAM["initial"]["divisors"] + [{"id": 5, "mu": 0}])),
    "divisor-id-bool": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors"],
              ONE_DIVISOR_PROGRAM["initial"]["divisors"] + [{"id": True, "mu": 0}])),
    "label-object": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "label"], {"x": 1})),
    "steps-empty-string": ("program", _with(ONE_DIVISOR_PROGRAM, ["steps"], "")),
    "steps-object": ("program", _with(ONE_DIVISOR_PROGRAM, ["steps"], {})),
    "steps-int": ("program", _with(ONE_DIVISOR_PROGRAM, ["steps"], 0)),
    "divisors-empty-string": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors"], "")),
    "divisors-object": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors"], {})),
    "divisor-pair": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors"], [["e", 1]])),
    "loci-object": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "loci"], {})),
    "count-negative": ("invariance", ["--count", "-5"]),
    "max-divisors-negative": ("invariance", ["--max-divisors", "-1"]),
    "max-divisors-past-cap": ("invariance", ["--count", "0", "--max-divisors", "1000000"]),
    # each of these once ran out of memory (exit 3) or for seconds
    "bound-L-exponent": ("motivic", "L^1000000000000"),
    "bound-denominator": ("motivic", {"numerator": "1", "denominator": [100000000]}),
    "bound-mu": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors", 0, "mu"], 10**12)),
    "bound-ambient-dim": (
        "program",
        _with(_with(ONE_DIVISOR_PROGRAM, ["initial", "ambient_dim"], 10**12),
              ["steps", 0, "codim"], 10**12)),
    "bound-codim": ("program", _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "codim"], 10**12)),
    "bound-weight-exponent": ("function", _with(FUNCTION, ["strata", 0, "weight"], "1e3000000")),
    "bound-weight-negative-exponent": (
        "function", _with(FUNCTION, ["strata", 0, "weight"], "2.5E-3_000_000")),
    # bytes are written as they are
    "utf-8-surface-file": ("surface", b"\xff\xfe{}"),
    "utf-8-motivic-file": ("motivic-file", b"\xff\xfe{}"),
    # a key no decoder declares, one per object kind; each ran as if it were absent
    "program-stray-key": ("program", {"initial": ONE_DIVISOR_PROGRAM["initial"],
                                      "stepz": ONE_DIVISOR_PROGRAM["steps"]}),
    "step-stray-key": ("program", _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "codimension"], 2)),
    "step-1-stray-key": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["steps"],
              [ONE_DIVISOR_PROGRAM["steps"][0],
               _with(ONE_DIVISOR_PROGRAM["steps"][0], ["codimension"], 2)])),
    "system-stray-key": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "labl"], "x")),
    "divisor-stray-key": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "divisors", 0, "mul"], 1)),
    "locus-stray-key": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "loci", 0, "strat"], [])),
    "stratum-stray-key": ("program", _with(ONE_DIVISOR_PROGRAM, ["initial", "strata", 1, "clas"], "1")),
    "surface-stray-key": ("surface", _with(SURFACE, ["event"], [])),
    "event-generic-stray-key": ("surface", _with(SURFACE, ["events", 0], {"type": "generic", "curv": 1})),
    "event-on-curve-stray-key": ("surface", _with(SURFACE, ["events", 1, "pair"], [1, 2])),
    "event-intersection-stray-key": ("surface", _with(SURFACE, ["events", 2, "curve"], 1)),
    "cfun-stray-key": ("function", _with(FUNCTION, ["weights"], [])),
    "cfun-stratum-stray-key": ("function", _with(FUNCTION, ["strata", 0, "class"], "1")),
    # a step's locus rules: only for a declared locus, and one per locus
    "locus-rule-undeclared": (
        "program",
        _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "locus_defaults", "Typo"], "disjoint_from_center")),
    "locus-rule-twice": (
        "program", _with(ONE_DIVISOR_PROGRAM, ["steps", 0, "locus_center_strata"], {"U": []})),
    # the scenario envelope: each of these ran, or blamed the program object
    "scenario-stray-key": (
        "program", {"kind": "program", "lable": "x", "payload": ONE_DIVISOR_PROGRAM}),
    "scenario-label-int": (
        "program", {"kind": "program", "label": 5, "payload": ONE_DIVISOR_PROGRAM}),
    "scenario-no-payload": ("program", {"kind": "program"}),
}
NAMED = {  # the whole error line of each case that names a key or a locus
    "program-stray-key": "unknown program object key 'stepz'",
    "step-stray-key": "step 0: unknown blow-up step key 'codimension'",
    "step-1-stray-key": "step 1: unknown blow-up step key 'codimension'",
    "system-stray-key": "unknown system object key 'labl'",
    "divisor-stray-key": "unknown divisor key 'mul'",
    "locus-stray-key": "unknown locus key 'strat'",
    "stratum-stray-key": "unknown stratum key 'clas'",
    "surface-stray-key": "unknown surface program key 'event'",
    "event-generic-stray-key": "unknown generic event key 'curv'",
    "event-on-curve-stray-key": "unknown on_curve event key 'pair'",
    "event-intersection-stray-key": "unknown intersection event key 'curve'",
    "cfun-stray-key": "unknown function object key 'weights'",
    "cfun-stratum-stray-key": "unknown stratum key 'class'",
    "locus-rule-undeclared": "step 0: locus 'Typo' has a rule but is not declared",
    "locus-rule-twice": "step 0: locus 'U' has both a locus_defaults kind and locus_center_strata",
    "scenario-stray-key": "unknown scenario key 'lable'",
    "scenario-label-int": "scenario label must be a string, got 5",
    "scenario-no-payload": "malformed scenario: 'payload'",
}
BOUND_FIELDS = {  # the field each bound case names
    "bound-L-exponent": "exponent of L",
    "bound-denominator": "denominator exponent",
    "bound-mu": "mu",
    "bound-ambient-dim": "ambient_dim",
    "bound-codim": "step 0: codim",
    "bound-weight-exponent": "weight exponent",
    "bound-weight-negative-exponent": "weight exponent",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_one_line_exit_two(capsys, tmp_path, case):
    kind, payload = MALFORMED[case]
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(SURFACE))
    path = tmp_path / "input.json"
    raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()  # ASCII JSON
    path.write_bytes(raw)
    argv = {
        "program": ["blowup", "run", "--program", str(path)],
        "surface": ["surface", "report", "--program", str(path)],
        "function": ["cfun", "push", "--program", str(surface), "--function", str(path)],
        "motivic": ["motivic", "eval", raw.decode("latin-1")],
        "motivic-file": ["motivic", "eval", f"@{path}"],
        "invariance": ["verify", "invariance"],
    }[kind]
    if kind == "invariance":
        argv += payload
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if kind == "invariance":
        assert {
            "count-negative": "sweep bound count must be nonnegative",
            "max-divisors-negative": "sweep bound max_divisors must be nonnegative",
            "max-divisors-past-cap": "max_divisors 1000000 exceeds the cap 32",  # with no case drawn
        }[case] in err
    if kind == "surface" or case.startswith(("steps-", "divisor", "loci-")):
        # each of these cases is named after the field it breaks
        assert case.split("-")[0] in err
    if kind in ("motivic", "program") and case.endswith("unknown-key"):
        assert "unknown motivic class key 'denominators'" in err
    if case in BOUND_FIELDS:
        assert f"error: {BOUND_FIELDS[case]} " in err and "exceeds the input bound 65536" in err
    if case.startswith("utf-8"):
        assert err.startswith(f"error: {path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff")
    if case in NAMED:
        assert err == f"error: {NAMED[case]}\n"


DEEP = "[" * 100000


@pytest.mark.parametrize("route", ["program", "surface", "function", "motivic", "motivic-file"])
def test_deeply_nested_json_is_one_line_exit_two(capsys, tmp_path, route):
    # the parser's recursion limit is an input error, not an internal one
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(SURFACE))
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    argv = {
        "program": ["blowup", "run", "--program", str(path)],
        "surface": ["surface", "report", "--program", str(path)],
        "function": ["cfun", "push", "--program", str(surface), "--function", str(path)],
        "motivic": ["motivic", "eval", DEEP],
        "motivic-file": ["motivic", "eval", f"@{path}"],
    }[route]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # a payload file is reported as too deep; a class text falls back, like any text
    # that is not JSON, to the polynomial parser, which rejects it
    assert ("cannot parse" if route.startswith("motivic") else "maximum recursion depth") in err


def test_unparsable_class_text_error_is_clipped(capsys):
    # the parser quotes a prefix of a long text and names its length, once per quote
    assert main(["motivic", "eval", DEEP]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse") and err.count("\n") == 1
    assert len(err) < 300 and "(100000 characters)" in err


# Raw texts, since json.dumps cannot write a key twice; the last value alone is valid.
REPEATED_KEY = {
    "program": ("program", json.dumps(ONE_DIVISOR_PROGRAM)[:-1] + ', "steps": []}', "steps"),
    "surface": (
        "surface",
        '{"events": [{"type": "generic"}, {"type": "on_curve", "curve": 7, "curve": 1}]}',
        "curve",
    ),
    "function": ("function", '{"strata": [{"subset": [1], "weight": "9", "weight": "1"}]}',
                 "weight"),
    "motivic": ("motivic", '{"numerator": "1", "numerator": "L", "denominator": [1]}',
                "numerator"),
}


@pytest.mark.parametrize("case", REPEATED_KEY)
def test_repeated_json_key_is_one_line_exit_two(capsys, tmp_path, case):
    kind, text, key = REPEATED_KEY[case]
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(SURFACE))
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = {
        "program": ["blowup", "run", "--program", str(path)],
        "surface": ["surface", "report", "--program", str(path)],
        "function": ["cfun", "push", "--program", str(surface), "--function", str(path)],
        "motivic": ["motivic", "eval", text],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: repeated JSON key {key!r}\n"


@pytest.mark.parametrize("case, field", [
    ("locus-name-int", "locus name"),
    ("divisor-id-int", "divisor id"),
    ("divisor-id-bool", "divisor id"),
    ("label-object", "label"),
])
def test_string_fields_name_the_field(capsys, tmp_path, case, field):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(MALFORMED[case][1]))
    assert main(["blowup", "run", "--program", str(path)]) == 2
    assert f"{field} must be a string" in capsys.readouterr().err


def test_unexpected_exception_is_one_line_exit_three(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("mchern.cli.cmd_verify_identity", broken)
    assert main(["verify", "simplex"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""


def test_a_key_error_inside_a_decoder_is_an_internal_error(capsys, monkeypatch, tmp_path):
    # every key is read by json_fields, so a KeyError left in a decoder is a bug, not bad input
    def broken(value, item=str):
        return {}["subset"]

    monkeypatch.setattr("mchern.modsys.subset_from_json", broken)
    path = tmp_path / "program.json"
    path.write_text(json.dumps(ONE_DIVISOR_PROGRAM))
    assert main(["blowup", "run", "--program", str(path)]) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'subset'\n"


INITIAL = ONE_DIVISOR_PROGRAM["initial"]
TWO_DIVISORS = _with(
    ONE_DIVISOR_PROGRAM, ["initial", "divisors"], INITIAL["divisors"] + [{"id": "f", "mu": 0}])
INVALID_SYSTEMS = {  # each decodes field by field, but no program can run from it
    "ambient-class": (  # the plane declared as 1 + L; two point blow-ups would end at 1 + 3*L
        {"initial": {"ambient_dim": 2, "strata": [{"subset": [], "class": PLANE_CLASS}],
                     "ambient_class": "1 + L"},
         "steps": [{"codim": 2, "center_strata": [{"subset": on, "class": "1"}], "containing": on}
                   for on in ([], ["exc0"])]},
        "strata do not sum to the declared ambient class"),
    "deep-stratum": (
        _with(_with(TWO_DIVISORS, ["initial", "strata"],
                    INITIAL["strata"] + [{"subset": ["e", "f"], "class": "1"}]),
              ["initial", "ambient_dim"], 1),
        "stratum ('e', 'f') has depth 2 > ambient dimension 1"),
    "locus-on-empty-stratum": (
        _with(TWO_DIVISORS, ["initial", "loci", 0, "strata"],
              INITIAL["loci"][0]["strata"] + [{"subset": ["f"], "class": "1"}]),
        "locus 'U' is nonzero on the empty stratum ('f',)"),
}


@pytest.mark.parametrize("case", INVALID_SYSTEMS)
def test_program_from_json_refuses_what_blowup_run_refuses(capsys, tmp_path, case):
    payload, message = INVALID_SYSTEMS[case]
    with pytest.raises(ValueError) as info:
        blowup.program_from_json(payload)
    assert str(info.value) == message
    program = tmp_path / "program.json"
    program.write_text(json.dumps(payload))
    assert main(["blowup", "run", "--program", str(program)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("where", ["center_strata", "locus_center_strata"])
def test_unknown_id_names_its_step(capsys, tmp_path, where):
    # the same unknown id in a center's strata and in an explicit locus rule
    strata = [{"subset": ["e", "nope"], "class": "1"}]
    in_locus = where == "locus_center_strata"
    step = _with(ONE_DIVISOR_PROGRAM["steps"][0], [where], {"U": strata} if in_locus else strata)
    if in_locus:  # the explicit rule replaces U's locus_defaults kind: a locus takes one rule
        del step["locus_defaults"]
    path = tmp_path / "program.json"
    path.write_text(json.dumps(_with(ONE_DIVISOR_PROGRAM, ["steps"], [step, step])))
    assert main(["blowup", "run", "--program", str(path)]) == 2
    locus = "locus 'U': " if in_locus else ""
    assert capsys.readouterr().err == f"error: step 0: {locus}unknown divisor id 'nope'\n"


def test_valid_baselines_of_malformed_inputs(capsys, tmp_path):
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(SURFACE))
    program = tmp_path / "program.json"
    program.write_text(json.dumps(ONE_DIVISOR_PROGRAM))
    function = tmp_path / "function.json"
    function.write_text(json.dumps(FUNCTION))
    assert main(["blowup", "run", "--program", str(program)]) == 0
    assert main(["cfun", "push", "--program", str(surface), "--function", str(function)]) == 0


def test_closed_pipe_keeps_verdict_without_traceback(tmp_path):
    # a report far larger than a pipe buffer, so writing meets the closed reader
    events = [{"type": "generic"}] + [{"type": "on_curve", "curve": j} for j in range(1, 120)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"events": events}))
    read_fd, write_fd = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "mchern", "surface", "report", "--program", str(path), "--json"],
        stdout=write_fd,
        stderr=subprocess.PIPE,
    )
    os.close(write_fd)
    head = os.read(read_fd, 20)
    os.close(read_fd)
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b"{")
    assert err == b""
    assert proc.returncode == 0


SRC = str(Path(__file__).resolve().parents[1] / "src")
CHAIN_BYTES = json.dumps(
    {"events": [{"type": "generic"}] + [{"type": "on_curve", "curve": j} for j in range(1, 6)]}
).encode()


NO_SPACE = "internal error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_report_that_cannot_be_written_exits_three(flags, unbuffered):
    # buffered, the failed bytes stay in stdout's buffer for the exit flush unless main drops them
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "mchern", "motivic", "eval", "1 + L", *flags],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert proc.stderr.decode() == NO_SPACE  # one line: no traceback, no failed exit flush
    assert proc.returncode == 3


def test_a_stdout_that_refuses_writes_exits_three(capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with contextlib.redirect_stdout(Full()) as full:
        assert main(["motivic", "eval", "1 + L"]) == 3
    assert capsys.readouterr().err == NO_SPACE
    assert full.closed  # nothing left buffered for a later flush


def _report_program(path: str, **run) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "mchern", "surface", "report", "--program", path, "--json"],
        capture_output=True, env=env, timeout=60, **run,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_piped_program_digest_is_of_the_bytes_parsed():
    proc = _report_program("/dev/stdin", input=CHAIN_BYTES)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["inputs"]["program"] == hashlib.sha256(CHAIN_BYTES).hexdigest()
    assert report["results"]["k"] == 6


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_fifo_program_is_read_once(tmp_path):
    fifo = tmp_path / "program.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as handle:
            handle.write(CHAIN_BYTES)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    proc = _report_program(str(fifo))
    writer.join(timeout=5)
    assert not writer.is_alive()
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["program"] == hashlib.sha256(CHAIN_BYTES).hexdigest()


def crossing_program(crossings: int) -> dict:
    """A point of the plane, a point on it, then points where the two newest divisors cross:
    each fresh multiplicity is the sum of the two before it plus one (Fibonacci-like)."""

    def step(on):
        return {"codim": 2, "containing": on, "center_strata": [{"subset": on, "class": "1"}]}

    steps = [step([]), step(["exc0"])]
    steps += [step([f"exc{j}", f"exc{j + 1}"]) for j in range(crossings)]
    initial = {
        "ambient_dim": 2,
        "divisors": [],
        "strata": [{"subset": [], "class": PLANE_CLASS}],
        "ambient_class": PLANE_CLASS,
    }
    return {"initial": initial, "steps": steps}


class TestDerivedMultiplicityBound:
    def test_twenty_crossings_pass(self, capsys, tmp_path):
        path = tmp_path / "crossings.json"
        path.write_text(json.dumps(crossing_program(20)))
        assert main(["blowup", "run", "--program", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["final_system"]["divisors"][-1] == {"id": "exc21", "mu": 46367}

    def test_a_crossing_past_the_bound_names_its_step(self, capsys, tmp_path):
        path = tmp_path / "crossings.json"
        path.write_text(json.dumps(crossing_program(21)))
        assert main(["blowup", "run", "--program", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: step 22: fresh divisor 'exc22' multiplicity 75024"
            " exceeds the input bound 65536\n"
        )


class TestSizeBounds:
    def test_more_than_32_divisors_exit_2(self, capsys):
        assert main(["verify", "invariance", "--max-divisors", "33"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_divisors 33 exceeds the cap 32\n"

    def test_32_divisors_pass(self, capsys):
        assert main(["verify", "invariance", "--max-divisors", "32", "--count", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["max_divisors"] == 32

    def test_a_center_on_17_divisors_names_its_step(self, capsys, tmp_path):
        ids = [f"d{i}" for i in range(17)]
        on_all = [{"subset": ids, "class": "1"}]
        program = {
            "initial": {
                "ambient_dim": 17,
                "divisors": [{"id": i, "mu": 0} for i in ids],
                "strata": [{"subset": [], "class": "1 + L"}] + on_all,
            },
            "steps": [{"codim": 17, "containing": ids, "center_strata": on_all}],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(program))
        assert main(["blowup", "run", "--program", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: step 0: center lies on 17 divisors: 2^17 fresh strata per center stratum"
            " exceed the input bound 65536\n"
        )

    def test_a_derived_discrepancy_past_the_bound_names_its_curve(self, capsys, tmp_path):
        # a run of crossings with the newest curve grows mu like a Fibonacci number: this
        # 2.4 KB program would derive mu = 1 337 312, and curve 46 is the first past the bound
        rng = random.Random(40)
        random_tower(rng, 40)
        surface = random_tower(rng, 64)
        assert repr(surface) == "SurfaceModel(k=64, anchors=2)"
        program = tmp_path / "tower.json"
        program.write_text(json.dumps(events_to_json(surface.events)))
        function = tmp_path / "fn.json"
        function.write_text(json.dumps({"strata": [{"subset": [], "weight": "1"}]}))
        for argv in (
            ["surface", "verify-main", "--program", str(program)],
            ["surface", "report", "--program", str(program)],
            ["cfun", "push", "--program", str(program), "--function", str(function)],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: curve 46 discrepancy 83578 exceeds the input bound 65536\n"


class TestOutputDigits:
    def test_value_at_names_the_at_option(self, capsys):
        assert main(["motivic", "eval", "L^65536", "--at", "2", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"error: the value at --at 2 has more than {limit} digits\n"

    def test_weight_names_itself(self, capsys, surface_file, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"strata": [{"subset": [1], "weight": "1e5000"}]}))
        assert main(["cfun", "push", "--program", surface_file, "--function", str(fn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"error: weight '1e5000' has more than {limit} digits\n"

    @pytest.mark.parametrize(
        "spec", ["L^65536", '{"numerator": "1", "denominator": [65536]}', "3 - L^4000"]
    )
    def test_degrees_refuse_before_evaluating(self, capsys, monkeypatch, spec):
        def refuse(self, x):
            raise AssertionError("the degrees alone prove the value too long")

        monkeypatch.setattr(LPolynomial, "evaluate", refuse)
        q = 10**20
        assert main(["motivic", "eval", spec, "--at", str(q)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"error: the value at --at {q} has more than {limit} digits\n"

    def test_a_value_that_vanishes_still_prints(self, capsys):
        # D = 20000 > n = 1, but num(2) = 0, so no degree bound applies
        spec = '{"numerator": "2 - L", "denominator": [20000]}'
        assert main(["motivic", "eval", spec, "--at", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["at_2"] == "0"
