import json
import random
import sys
from fractions import Fraction

import pytest

from corpus import chow_point, is_constant, value_at
from mchern import cfun
from mchern.cfun import BaseFunction
from mchern.cli import main
from mchern.surface import GenericPoint, IntersectionPoint, PointOnCurve, SurfaceModel, events_to_json

K1 = SurfaceModel((GenericPoint(),))
NESTED = SurfaceModel((GenericPoint(), PointOnCurve(1)))
CHAIN = SurfaceModel((GenericPoint(), PointOnCurve(1), IntersectionPoint(1, 2)))


def closed_curve(surface: SurfaceModel, j: int) -> dict:
    """Indicator of the whole curve j: its open stratum plus its crossings."""
    return {(j,): 1, **{pair: 1 for pair in surface.relative(0).pairs if j in pair}}


class TestConstructibleFunction:
    """A constructible function is a mapping from curve subsets to weights."""

    def test_indicator_closed_curve(self):
        f = closed_curve(CHAIN, 1)
        assert f == {(1,): 1, (1, 3): 1}
        assert CHAIN.relative(0).keyed(f) == (1, f)

    def test_keys_checked_and_zeros_kept(self):
        rel = NESTED.relative(0)
        assert rel.keyed({frozenset((2, 1)): 0, frozenset(): 1}) == (1, {(1, 2): 0, (): 1})

    def test_weights_over_their_least_common_denominator(self):
        rel = NESTED.relative(0)
        f = {(1,): Fraction(1, 2), (2,): Fraction(-2, 3), (): 4, (1, 2): Fraction(5, 6)}
        assert rel.keyed(f) == (6, {(1,): 3, (2,): -4, (): 24, (1, 2): 5})


class TestPushforward:
    def test_closed_curve_gives_full_euler(self):
        base = cfun.pushforward(K1, closed_curve(K1, 1))
        assert base.generic_value == 0
        assert value_at(base, "p1") == 2

    def test_weighted_unit_is_constant_one(self):
        f = cfun.weighted_unit(K1, 0)
        base = cfun.pushforward(K1, f)
        assert is_constant(base, 1)
        assert value_at(base, "p1") == 1

    def test_open_complement(self):
        base = cfun.pushforward(K1, {(): 1})
        assert base.generic_value == 1
        assert value_at(base, "p1") == 0
        assert base.corrections == {"p1": -1}

    def test_unknown_stratum(self):
        with pytest.raises(ValueError, match="unknown stratum"):
            cfun.pushforward(K1, {(4,): 1})
        with pytest.raises(ValueError, match="do not meet"):
            cfun.pushforward(CHAIN, {(1, 2): 1})

    def test_zero_weight_key_is_checked(self):
        with pytest.raises(ValueError, match="unknown stratum"):
            cfun.pushforward(K1, {(4,): 0})

    def test_stratum_given_twice(self):
        # one stratum written twice is an input error, not a doubled weight
        with pytest.raises(ValueError, match=r"duplicate stratum \[1, 2\]"):
            cfun.pushforward(NESTED, {(1, 2): 1, (2, 1): 1})
        with pytest.raises(ValueError, match=r"duplicate stratum \[\]"):
            cfun.pushforward(NESTED, {(): 1, frozenset(): 1})

    def test_linearity(self):
        combo = cfun.pushforward(NESTED, {(1,): 2, (): Fraction(1, 3)})
        single_f = cfun.pushforward(NESTED, {(1,): 1})
        single_g = cfun.pushforward(NESTED, {(): 1})
        for point in ("p1", "generic-ish"):
            assert value_at(combo, point) == 2 * value_at(single_f, point) + Fraction(
                1, 3
            ) * value_at(single_g, point)

    def test_two_route_euler_agreement(self, corpus_surfaces):
        # closed-curve push-forward values equal fiber Euler characteristics
        # computed straight from the incidence graph
        for s in corpus_surfaces[:60]:
            rel = s.relative(0)
            for j in rel.curves:
                base = cfun.pushforward(s, closed_curve(s, j))
                assert base.generic_value == 0
                for root in rel.root_order:
                    if rel.roots[j] == root:
                        assert value_at(base, root) == 2
                    else:
                        assert value_at(base, root) == 0


def fraction_fiber_integral(rel, weights):
    """Per contracted point, weight times Euler number summed one Fraction at a time."""
    totals = {root: Fraction(0) for root in rel.root_order}
    for key, value in weights.items():
        if key:
            totals[rel.root(key)] += value * rel.euler(key)
    return totals


def random_weight(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(-rng.randint(1, 9))
    if kind == 2:  # a large prime denominator
        return Fraction(rng.randint(-50, 50), 2**61 - 1)
    if kind == 3:
        return Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**30))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


class TestIntegerFiberIntegral:
    def test_equals_the_fraction_sum(self, corpus_surfaces):
        rng = random.Random(11)
        for s in corpus_surfaces[::3]:
            for m in range(s.k + 1):
                rel = s.relative(m)
                weights = {key: random_weight(rng) for key in ((),) + rel.strata if rng.random() < 0.8}
                den, nums = rel.keyed(weights)
                got = rel.fiber_totals(nums)
                assert {root: Fraction(t, den) for root, t in got.items()} == fraction_fiber_integral(
                    rel, weights
                )
                assert list(got) == list(rel.root_order)
                assert all(type(total) is int for total in got.values())

    def test_int_weights_and_no_weights(self):
        rel = CHAIN.relative(0)
        assert rel.keyed({}) == (1, {})
        assert rel.fiber_totals({}) == {"p1": 0}
        den, nums = rel.keyed({(1,): 2, (1, 3): -1, (): 5})
        assert den == 1
        assert rel.fiber_totals(nums) == {"p1": 2 * 1 - 1}


class TestWeightedUnit:
    def test_plane(self):
        assert cfun.weighted_unit(SurfaceModel(), 0) == {(): 1}

    def test_k1(self):
        assert cfun.weighted_unit(K1, 0) == {(): 1, (1,): Fraction(1, 2)}

    def test_nested(self):
        assert sorted(cfun.weighted_unit(NESTED, 0).values()) == [
            Fraction(1, 6),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(1),
        ]

    def test_integers_over_the_lcm_built_once(self):
        # mu = 1 on curve 1 and 2 on curve 2: weights 1, 1/2, 1/3 and 1/6 over 6
        rel = NESTED.relative(0)
        assert rel.unit == (6, {(): 6, (1,): 3, (2,): 2, (1, 2): 1})
        assert rel.unit is rel.unit
        # over the lcm of the products (mu = 1, 2, 4 on curves 1, 2, 3), not over their product
        assert CHAIN.relative(0).unit == (30, {(): 30, (1,): 15, (2,): 10, (3,): 6, (1, 3): 3, (2, 3): 2})


class TestUnitPushforward:
    def test_small_surfaces(self):
        for s in (SurfaceModel(), K1, NESTED, CHAIN):
            for m in range(s.k + 1):
                assert is_constant(cfun.pushforward(s, cfun.weighted_unit(s, m), m), 1)

    def test_identity_stage_trivial(self):
        assert is_constant(cfun.pushforward(K1, cfun.weighted_unit(K1, 1), 1), 1)

    def test_restricted_to_fiber_is_indicator(self):
        rel = NESTED.relative(0)
        f = {
            key: weight
            for key, weight in cfun.weighted_unit(NESTED, 0).items()
            if key and rel.root(key) == "p1"
        }
        base = cfun.pushforward(NESTED, f)
        assert base.generic_value == 0
        assert value_at(base, "p1") == 1

    def test_restrict_unknown_point(self):
        # a point with no fiber strata sees only the generic value
        assert "p7" not in NESTED.relative(0).root_order
        base = cfun.pushforward(NESTED, cfun.weighted_unit(NESTED, 0))
        assert value_at(base, "p7") == base.generic_value == 1


def random_function(rng: random.Random, surface: SurfaceModel, stage: int):
    """Seeded rational weights on a random subset of the strata, the open one always."""
    weights = {frozenset(): Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 7))}
    for key in surface.relative(stage).strata:
        if rng.random() < 0.7:
            weights[frozenset(key)] = Fraction(rng.randint(-6, 6), rng.randint(1, 9))
    return weights


class TestNaturality:
    def test_csm_commutes_with_pushforward(self, corpus_surfaces):
        # MacPherson: f_* c_SM(phi) = c_SM(f_* phi), and downstairs
        # c_SM(g + sum corr_p 1_p) = g c(S_m) + sum corr_p [pt]
        rng = random.Random(7)
        cases = 0
        for s in corpus_surfaces[:300]:
            for m in range(s.k + 1):
                f = random_function(rng, s, m)
                base = cfun.pushforward(s, f, m)
                stage = s.stage_model(m)
                expected = base.generic_value * stage.chern_class()
                for correction in base.corrections.values():
                    expected = expected + correction * chow_point(m)
                assert s.pushforward(s.csm(f, m), m) == expected
                cases += 1
        assert cases > 1000

    def test_csm_checks_every_key(self):
        with pytest.raises(ValueError, match="do not meet"):
            CHAIN.csm({(1, 2): 1})
        with pytest.raises(ValueError, match="not in the stage-1 arrangement"):
            CHAIN.csm({frozenset((1,)): 1}, 1)

    def test_csm_rejects_a_stratum_given_twice(self):
        # csm and the push-forward read one checked mapping, so the square
        # cannot count a crossing once on one side and twice on the other
        with pytest.raises(ValueError, match="duplicate stratum"):
            NESTED.csm({(1, 2): 1, (2, 1): 1})


class TestBaseFunction:
    def test_values_and_constancy(self):
        base = BaseFunction(Fraction(1), {"p1": Fraction(-1)})
        assert value_at(base, "p1") == 0
        assert value_at(base, "anywhere else") == 1
        assert not is_constant(base, 1)
        assert is_constant(BaseFunction(Fraction(2), {}), 2)

    def test_json(self):
        base = BaseFunction(Fraction(1, 2), {"p1": Fraction(3)})
        assert base.to_json() == {"generic": "1/2", "corrections": {"p1": "3"}}


# -- weight decoding ------------------------------------------------------------

NINES = "9" * 300
LIMIT_DIGITS = "1" * (sys.get_int_max_str_digits() + 1)  # 4301 under the default limit
PAST_LIMIT = (
    f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string conversion: "
    f"value has {len(LIMIT_DIGITS)} digits; use sys.set_int_max_str_digits() to increase the limit"
)
WEIGHTS = [  # (JSON weight, its value as Fraction(str(weight)) gives it, or the message it fails with)
    # ASCII integers and fractions, up to 300 digits a side
    ("-0", Fraction(0)),
    ("007/014", Fraction(1, 2)),
    ("1/0", "weight '1/0' has a zero denominator"),
    (NINES, Fraction(NINES)),
    (f"-{NINES}/{'3' * 300}", Fraction(-3)),
    # every other text and every non-string
    (LIMIT_DIGITS, PAST_LIMIT),
    ("1/-2", "Invalid literal for Fraction: '1/-2'"),
    ("+1/2", Fraction(1, 2)),
    (" 1/2", Fraction(1, 2)),
    ("1_000", Fraction(1000)),
    ("1.5", Fraction(3, 2)),
    ("1e3", Fraction(1000)),
    ("١/٢", Fraction(1, 2)),  # Arabic-Indic digits
    (2, Fraction(2)),
    (0.5, Fraction(1, 2)),
    (True, "Invalid literal for Fraction: 'True'"),
    (None, "Invalid literal for Fraction: 'None'"),
    ([1], "Invalid literal for Fraction: '[1]'"),
    ({"a": 1}, "Invalid literal for Fraction: \"{'a': 1}\""),
]


def _push(capsys, tmp_path, strata: list) -> tuple[int, str, str]:
    program, function = tmp_path / "chain.json", tmp_path / "fn.json"
    program.write_text(json.dumps(events_to_json(CHAIN.events)))
    function.write_text(json.dumps({"strata": strata}))
    code = main(["cfun", "push", "--program", str(program), "--function", str(function), "--json"])
    out, err = capsys.readouterr()
    return code, out, err


class TestWeightDecoding:
    @pytest.mark.parametrize("weight, expected", WEIGHTS, ids=lambda v: repr(v)[:24])
    def test_decoder(self, weight, expected):
        wire = {"strata": [{"subset": [], "weight": weight}]}
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                cfun.function_from_json(wire)
            assert str(info.value) == expected
        else:
            assert cfun.function_from_json(wire) == {frozenset(): expected}

    @pytest.mark.parametrize("weight, expected", WEIGHTS, ids=lambda v: repr(v)[:24])
    def test_cfun_push(self, capsys, tmp_path, weight, expected):
        code, out, err = _push(capsys, tmp_path, [{"subset": [], "weight": weight}])
        if isinstance(expected, str):
            assert (code, out, err) == (2, "", f"error: {expected}\n")
        else:
            results = json.loads(out)["results"]
            assert code == 0 and results["pushforward"]["generic"] == str(expected)
            echoed = [{"subset": [], "weight": str(expected)}] if expected else []
            assert results["function"] == {"strata": echoed}

    def test_one_and_true_are_read_apart(self, capsys, tmp_path):
        strata = [{"subset": [], "weight": 1}, {"subset": [1], "weight": True}]
        assert _push(capsys, tmp_path, strata) == (2, "", "error: Invalid literal for Fraction: 'True'\n")

    def test_equal_weights_echo_alike(self, capsys, tmp_path):
        strata = [{"subset": [], "weight": "1"}, {"subset": [1], "weight": 1}, {"subset": [2], "weight": "2/2"}]
        code, out, _ = _push(capsys, tmp_path, strata)
        assert code == 0
        assert json.loads(out)["results"]["function"] == {
            "strata": [{"subset": ids, "weight": "1"} for ids in ([], [1], [2])]}

    def test_a_repeated_bad_weight_fails_at_its_first_entry(self, capsys, tmp_path):
        # the later entries are never read: the last one's subset is no list
        strata = [{"subset": [j], "weight": "1/0"} for j in (1, 2, 3)] + [{"subset": 1, "weight": "1"}]
        assert _push(capsys, tmp_path, strata) == (2, "", "error: weight '1/0' has a zero denominator\n")

    def test_every_distinct_weight_is_print_checked_once(self, monkeypatch):
        # one route for every weight: short plain texts pass the same print check as long ones
        checked = []
        monkeypatch.setattr(cfun, "decimal", lambda value, what: checked.append(what))
        long_num, long_den = "9" * 301, "1/" + "7" * 301
        weights = [NINES, f"1/{NINES}", long_num, long_den, NINES]
        cfun.function_from_json({"strata": [{"subset": [j], "weight": w} for j, w in enumerate(weights)]})
        assert checked == [f"weight {w!r}" for w in weights[:4]]
