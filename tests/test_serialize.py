import json
import random
from fractions import Fraction

import pytest

from mchern import cfun
from mchern.blowup import (
    BlowupCenter,
    BlowupProgram,
    LocusRule,
    center_from_json,
    center_to_json,
    program_from_json,
    program_to_json,
    run_program,
)
from mchern.modsys import (
    MarkedLocus,
    ModificationSystem,
    strata_from_json,
    strata_to_json,
    system_from_json,
    system_to_json,
)
from mchern.ring import LPolynomial, MotivicClass, json_fields, projective_class
from mchern.sampling import random_invariance_case
from mchern.surface import (
    GenericPoint,
    IntersectionPoint,
    PointOnCurve,
    SurfaceModel,
    events_from_json,
    events_to_json,
)


class TestPolynomialText:
    cases = [
        LPolynomial(()),
        LPolynomial((1,)),
        LPolynomial((0, 1)),
        LPolynomial((1, 1, 1)),
        LPolynomial((1, -2, 1)),
        LPolynomial((-1, 0, 7)),
        LPolynomial((0, 0, -1)),
    ]

    @pytest.mark.parametrize("poly", cases)
    def test_roundtrip(self, poly):
        assert LPolynomial.from_text(poly.to_text()) == poly

    def test_expected_forms(self):
        assert LPolynomial((1, 1, 1)).to_text() == "1 + L + L^2"
        assert LPolynomial((1, -2, 1)).to_text() == "1 - 2*L + L^2"
        assert LPolynomial(()).to_text() == "0"
        assert LPolynomial((0, 0, -1)).to_text() == "-L^2"

    def test_parse_flexibility(self):
        assert LPolynomial.from_text("L") == LPolynomial((0, 1))
        assert LPolynomial.from_text("2L^3") == LPolynomial((0, 0, 0, 2))
        assert LPolynomial.from_text(" 1+L ") == LPolynomial((1, 1))

    def test_parse_errors(self):
        for bad in ("x", "L^", "2*^3", "++1"):
            with pytest.raises(ValueError):
                LPolynomial.from_text(bad)


class TestMotivicClassJson:
    def test_roundtrip(self):
        value = MotivicClass(LPolynomial((0, 1, 1)), (1, 2))
        again = MotivicClass.from_json(value.to_json())
        assert again == value

    def test_reduced_on_output(self):
        value = MotivicClass(LPolynomial((0, 1, 1)), (1,))
        assert value.to_json() == {"numerator": "L", "denominator": []}

    def test_accepts_bare_forms(self):
        assert MotivicClass.from_json(3) == MotivicClass.from_int(3)
        assert MotivicClass.from_json("1 + L") == projective_class(1)
        assert MotivicClass.from_json({"numerator": [1, 1], "denominator": [1]}) == 1

    def test_rejects_garbage(self):
        for obj in (
            [1, 2],
            {"numerator": "1", "denominator": [1.5]},
            {"numerator": "1", "denominator": [True]},
            {"numerator": "1", "denominators": [1]},
        ):
            with pytest.raises(ValueError):
                MotivicClass.from_json(obj)


def sample_system():
    return ModificationSystem(
        2,
        (("e", 1),),
        {(): MotivicClass(LPolynomial((0, 1, 1))), ("e",): projective_class(1)},
        ambient_class=MotivicClass(LPolynomial((1, 2, 1))),
        label="one blow-up",
    )


class TestSystemJson:
    def test_roundtrip_with_loci(self):
        system = sample_system()
        loci = {"fiber": MarkedLocus("fiber", {system.mask_of(("e",)): projective_class(1)})}
        obj = system_to_json(system, loci)
        system2, loci2 = system_from_json(obj)
        assert system2.ambient_dim == 2
        assert system2.idents == ("e",)
        assert system2.stratum(("e",)) == projective_class(1)
        assert system2.ambient_class == system.ambient_class
        assert system2.label == "one blow-up"
        assert loci2["fiber"].strata == loci["fiber"].strata

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            system_from_json({"divisors": []})


class TestProgramJson:
    def test_roundtrip_and_run(self):
        plane = ModificationSystem(
            2, (), {(): MotivicClass(LPolynomial((1, 1, 1)))},
            ambient_class=MotivicClass(LPolynomial((1, 1, 1))),
        )
        center = BlowupCenter(
            codim=2, containing=frozenset(), center_strata={frozenset(): MotivicClass.one()}
        )
        from mchern.blowup import BlowupProgram

        program = BlowupProgram(plane, (center,))
        again = program_from_json(program_to_json(program))
        outcome = run_program(again)
        assert outcome.final.total_class() == MotivicClass(LPolynomial((1, 2, 1)))

    def test_center_rules_roundtrip(self):
        center = BlowupCenter(
            codim=2,
            containing=frozenset({"e"}),
            center_strata={frozenset({"e"}): MotivicClass.one()},
            locus_rules={
                "A": LocusRule.contains(),
                "B": LocusRule.disjoint(),
                "C": LocusRule.explicit({frozenset({"e"}): MotivicClass.one()}),
            },
        )
        again = center_from_json(center_to_json(center))
        assert again.codim == 2
        assert again.containing == frozenset({"e"})
        assert again.locus_rules["A"].kind == "contains_center"
        assert again.locus_rules["B"].kind == "disjoint_from_center"
        assert again.locus_rules["C"].kind == "explicit"

    def test_unknown_default_rejected(self):
        with pytest.raises(ValueError):
            center_from_json(
                {"codim": 2, "center_strata": [], "locus_defaults": {"A": "sometimes"}}
            )


class TestSurfaceJson:
    def test_roundtrip(self):
        events = (GenericPoint(), PointOnCurve(1), IntersectionPoint(1, 2))
        again = events_from_json(events_to_json(events))
        assert again == events
        assert SurfaceModel(again).k == 3

    def test_descending_pair_is_written_ascending(self):
        events = [{"type": "generic"}, {"type": "on_curve", "curve": 1}]
        wire = {"events": events + [{"type": "intersection", "pair": [2, 1]}]}
        assert events_to_json(events_from_json(wire))["events"][2]["pair"] == [1, 2]

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            events_from_json({"events": [{"type": "on_curve"}]})
        with pytest.raises(ValueError, match="unknown event"):
            events_from_json({"events": [{"type": "squish"}]})


class TestStrataJson:
    def test_pairs_keep_the_callers_order(self):
        pairs = [(("b",), projective_class(1)), ((), MotivicClass.one()), (("a", "b"), MotivicClass.from_int(2))]
        wire = strata_to_json(pairs)
        assert [entry["subset"] for entry in wire] == [["b"], [], ["a", "b"]]
        assert wire[0] == {"subset": ["b"], "class": {"numerator": "1 + L", "denominator": []}}

    def test_inverse_of_the_decoder(self):
        pairs = [((3,), Fraction(1, 2)), ((1, 2), Fraction(-3)), ((), Fraction(0))]
        wire = _wire(strata_to_json(pairs, "weight", str))
        assert wire[1] == {"subset": [1, 2], "weight": "-3"}
        decoded = strata_from_json(wire, "weight", Fraction, int)
        assert decoded == {frozenset(ids): value for ids, value in pairs}
        assert strata_to_json(((sorted(k), v) for k, v in decoded.items()), "weight", str) == wire


class TestFunctionJson:
    def test_roundtrip(self):
        f = {frozenset(): 1, frozenset((1,)): Fraction(1, 2)}
        again = cfun.function_from_json(cfun.function_to_json(f))
        assert again == f

    def test_zero_weights(self):
        # decoded, a zero weight is kept; encoded, it is left out
        wire = {"strata": [{"subset": [], "weight": "1"}, {"subset": [1], "weight": "0"}]}
        f = cfun.function_from_json(wire)
        assert f == {frozenset(): 1, frozenset((1,)): 0}
        assert cfun.function_to_json(f) == {"strata": [{"subset": [], "weight": "1"}]}

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            cfun.function_from_json({"strata": [{"subset": [1]}]})


@pytest.mark.parametrize(
    "decode, what, key",
    [
        (system_from_json, "system object", "ambient_dim"),
        (center_from_json, "blow-up step", "codim"),
        (program_from_json, "program object", "initial"),
        (events_from_json, "surface program", "events"),
        (cfun.function_from_json, "function object", "strata"),
    ],
)
def test_a_missing_key_names_its_decoder_and_the_key(decode, what, key):
    with pytest.raises(ValueError) as info:
        decode({})
    assert str(info.value) == f"malformed {what}: '{key}'"


@pytest.mark.parametrize(
    "decode, wire, message",
    [
        (events_from_json, {"events": [{"type": "on_curve", "pair": [1, 2]}]}, "malformed on_curve event: 'curve'"),
        (events_from_json, {"events": [{"type": "intersection", "curve": 1}]},
         "malformed intersection event: 'pair'"),
        (events_from_json, {"events": [{"type": "generic", "curve": 1}]}, "unknown generic event key 'curve'"),
        (events_from_json, {"events": [{"type": ["generic"]}]}, "unknown event type ['generic']"),
        (strata_from_json, [{"subset": [], "clas": "1"}], "malformed stratum: 'class'"),
        (strata_from_json, [["subset", "class"]], "stratum must be a JSON object, got list"),
        (cfun.function_from_json, {"strata": [{"subset": [], "class": "1"}]}, "malformed stratum: 'weight'"),
    ],
)
def test_a_two_key_entry_without_its_keys_is_read_by_json_fields(decode, wire, message):
    # entries of exactly their two keys are read directly; every other shape keeps json_fields's message
    with pytest.raises(ValueError) as info:
        decode(wire)
    assert str(info.value) == message


class TestJsonFields:
    def test_required_values_then_optional_values_or_defaults(self):
        assert json_fields({"c": 3, "a": 1}, "thing", ("a",), {"b": [], "c": 0}) == [1, [], 3]
        assert json_fields({"a": 1}, "thing", ("a",), {"b": 0}) == [1, 0]  # exactly the required keys

    def test_each_error_names_the_object(self):
        for value, message in [
            ([1], "thing must be a JSON object, got list"),
            ({"b": 2}, "malformed thing: 'a'"),
            ({"a": 1, "z": 0, "y": 0}, "unknown thing key 'z'"),  # the first in the object's order
        ]:
            with pytest.raises(ValueError) as info:
                json_fields(value, "thing", ("a",), {"b": 0})
            assert str(info.value) == message


def _wire(obj):
    return json.loads(json.dumps(obj))


class TestStrictDecodersAcceptEncoderOutput:
    """Decoding then re-encoding gives back the same JSON."""

    def test_sampled_programs_and_systems(self):
        rng = random.Random(23)
        for _ in range(100):
            system, center, loci = random_invariance_case(rng)
            named = {locus.name: locus for locus in loci}
            wire = _wire(program_to_json(BlowupProgram(system, (center,), named)))
            assert program_to_json(program_from_json(wire)) == wire
            wire = _wire(system_to_json(system, named))
            assert system_to_json(*system_from_json(wire)) == wire

    def test_corpus_events_and_weighted_units(self, corpus_surfaces):
        for surface in corpus_surfaces:
            wire = _wire(events_to_json(surface.events))
            assert events_to_json(events_from_json(wire)) == wire
            wire = _wire(cfun.function_to_json(cfun.weighted_unit(surface, 0)))
            assert cfun.function_to_json(cfun.function_from_json(wire)) == wire
