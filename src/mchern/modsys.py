"""Combinatorial model of a modification and its weighted class functional.

A :class:`ModificationSystem` records what the formulas actually consume
about a proper birational map with normal-crossings exceptional divisor:
the index set of exceptional components with their multiplicities, and
the class [E_I] of each locus lying on exactly the components indexed by
I.  Strata are stored extensionally; geometry only enters through the
exporters in :mod:`mchern.blowup` and :mod:`mchern.surface`.

A :class:`MarkedLocus` carries the classes [E_I ^ preimage(U)] for a
distinguished locus U downstairs.  The functional

    chi(U) = sum_I [E_I ^ preimage(U)] / prod_{i in I} [P^mu_i]

recovers the class of U itself; its evaluation at L = 1 is the weighted
Euler sum.  Subsets are encoded as bitmasks over the divisor index set.

The JSON decoders here are strict: integers must be JSON integers, subsets
lists of distinct ids, and no subset may be listed twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Optional, Union

from .ring import MotivicClass, bounded

SubsetKey = Union[int, str, Iterable[str]]


@dataclass(frozen=True)
class Divisor:
    ident: str
    mu: int

    def __post_init__(self):
        if type(self.mu) is not int:
            raise ValueError(f"divisor {self.ident!r} multiplicity {self.mu!r} is not an integer")
        if self.mu < 0:
            raise ValueError(f"divisor {self.ident!r} has negative multiplicity")


class MarkedLocus:
    """Stratum-intersection classes of a distinguished locus.

    Keys are bitmasks over the owning system's divisors; absent keys mean
    the intersection is empty.  Instances are immutable by convention.
    """

    __slots__ = ("name", "strata")

    def __init__(self, name: str, strata: Mapping[int, MotivicClass]):
        self.name = name
        self.strata = {
            mask: cls for mask, cls in strata.items() if not cls.is_zero()
        }

    def __repr__(self) -> str:
        return f"MarkedLocus({self.name!r}, {len(self.strata)} strata)"


class ModificationSystem:
    """Divisor multiplicities plus the classes of all arrangement strata."""

    __slots__ = ("ambient_dim", "divisors", "strata", "ambient_class", "label", "_ident_index")

    def __init__(
        self,
        ambient_dim: int,
        divisors: Iterable[Union[Divisor, tuple[str, int]]],
        strata: Mapping[SubsetKey, MotivicClass],
        *,
        ambient_class: Optional[MotivicClass] = None,
        label: str = "",
    ):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        divs = tuple(d if isinstance(d, Divisor) else Divisor(*d) for d in divisors)
        idents = [d.ident for d in divs]
        if len(set(idents)) != len(idents):
            raise ValueError("divisor ids must be distinct")
        self.ambient_dim = ambient_dim
        self.divisors = divs
        index = {d.ident: i for i, d in enumerate(divs)}
        normalized: dict[int, MotivicClass] = {}
        for key, cls in strata.items():
            mask = _as_mask(key, index, len(divs))
            if not cls.is_zero():
                if mask in normalized:
                    raise ValueError(f"duplicate stratum key {key!r}")
                normalized[mask] = cls
        self.strata = normalized
        self.ambient_class = ambient_class
        self.label = label
        self._ident_index = index

    @property
    def idents(self) -> tuple[str, ...]:
        return tuple(d.ident for d in self.divisors)

    def mask_of(self, ids: SubsetKey) -> int:
        return _as_mask(ids, self._ident_index, len(self.divisors))

    def ids_of(self, mask: int) -> tuple[str, ...]:
        return tuple(
            d.ident for i, d in enumerate(self.divisors) if mask >> i & 1
        )

    def mu_of_mask(self, mask: int) -> tuple[int, ...]:
        divs, mus = self.divisors, []
        mask &= (1 << len(divs)) - 1  # bits past the last divisor name none
        while mask:  # one step per set bit, lowest first
            mus.append(divs[(mask & -mask).bit_length() - 1].mu)
            mask &= mask - 1
        return tuple(mus)

    def stratum(self, key: SubsetKey) -> MotivicClass:
        return self.strata.get(self.mask_of(key), MotivicClass.zero())

    def total_class(self) -> MotivicClass:
        return MotivicClass.sum(self.strata.values())

    # -- invariants ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Empty list iff all structural invariants hold."""
        problems: list[str] = []
        for mask in sorted(self.strata):
            if mask.bit_count() > self.ambient_dim:
                problems.append(
                    f"stratum {self.ids_of(mask)} has depth {mask.bit_count()} "
                    f"> ambient dimension {self.ambient_dim}"
                )
        if self.ambient_class is not None and self.total_class() != self.ambient_class:
            problems.append("strata do not sum to the declared ambient class")
        return problems

    def locus_violations(self, locus: MarkedLocus) -> list[str]:
        problems: list[str] = []
        limit = 1 << len(self.divisors)
        for mask in sorted(locus.strata):
            if mask >= limit:
                problems.append(f"locus {locus.name!r} keys unknown divisors (mask {mask})")
            elif mask not in self.strata:
                problems.append(
                    f"locus {locus.name!r} is nonzero on the empty stratum "
                    f"{self.ids_of(mask)}"
                )
        return problems

    # -- the functional --------------------------------------------------------

    def full_locus(self, name: str = "full") -> MarkedLocus:
        return MarkedLocus(name, dict(self.strata))

    def chi(self, locus: MarkedLocus) -> MotivicClass:
        """Weighted stratum sum; with the full locus this is the base class."""
        # a mu = 0 divisor weighs [P^0] = 1, which is no denominator factor.  Any order gives
        # the same value; in mask order, merge-tree neighbours share divisors, which is cheaper.
        return MotivicClass.sum(
            MotivicClass._of(cls.num, tuple(sorted(filter(None, cls.den + self.mu_of_mask(mask)))))
            for mask, cls in sorted(locus.strata.items())
        )

    def euler_chi(self, locus: MarkedLocus) -> Fraction:
        """Euler-specialized functional: the weights [P^mu] become mu + 1."""
        terms = [  # (numerator at L = 1, integer weight of the stratum's divisors and class)
            (cls.num.evaluate(1), prod(mu + 1 for mu in cls.den + self.mu_of_mask(mask)))
            for mask, cls in locus.strata.items()
        ]
        den = lcm(*(weight for _, weight in terms))  # summed in integers, one Fraction
        return Fraction(sum(num * (den // weight) for num, weight in terms), den)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"ModificationSystem(n={self.ambient_dim}, divisors={len(self.divisors)}, "
            f"strata={len(self.strata)}{tag})"
        )


def _as_mask(key: SubsetKey, index: Mapping[str, int], count: int) -> int:
    if isinstance(key, int):
        if key < 0 or key >= 1 << count:
            raise ValueError(f"mask {key} out of range for {count} divisors")
        return key
    if isinstance(key, str):
        key = (key,)
    mask = 0
    for ident in key:
        try:
            bit = 1 << index[ident]
        except KeyError:
            raise ValueError(f"unknown divisor id {ident!r}") from None
        if mask & bit:
            raise ValueError(f"repeated divisor id {ident!r} in subset")
        mask |= bit
    return mask


# -- JSON wire format ----------------------------------------------------------


def json_int(value, what: str) -> int:
    """A JSON integer; bools, floats and strings are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_bounded(value, what: str) -> int:
    """A JSON integer no larger than :data:`mchern.ring.INPUT_BOUND`."""
    return bounded(json_int(value, what), what)


def json_str(value, what: str) -> str:
    """A JSON string; numbers, bools and objects are rejected."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def json_object(value, what: str) -> Mapping:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def subset_from_json(value, item: type = str) -> frozenset:
    """A JSON list of distinct ids of type ``item``."""
    if not isinstance(value, list) or any(type(i) is not item for i in value):
        raise ValueError(f"subset must be a list of {item.__name__} ids, got {value!r}")
    subset = frozenset(value)
    if len(subset) != len(value):
        raise ValueError(f"repeated id in subset {value!r}")
    return subset


def strata_from_json(
    entries, value: str = "class", decode=MotivicClass.from_json, item: type = str
) -> dict[frozenset, object]:
    """Decode ``[{"subset": [...], value: ...}, ...]``, keyed by subset; no subset twice."""
    out: dict[frozenset, object] = {}
    for entry in json_list(entries, "strata"):
        subset = subset_from_json(entry["subset"], item)
        if subset in out:
            raise ValueError(f"duplicate stratum {sorted(subset)!r}")
        out[subset] = decode(entry[value])
    return out


def strata_to_json(
    pairs: Iterable[tuple[Iterable, object]], value: str = "class", encode=MotivicClass.to_json
) -> list[dict]:
    """The inverse of :func:`strata_from_json`: ``(ids, value)`` pairs, in the caller's order."""
    return [{"subset": list(ids), value: encode(v)} for ids, v in pairs]


def system_to_json(
    system: ModificationSystem, loci: Optional[Mapping[str, MarkedLocus]] = None
) -> dict:
    def by_mask(strata: Mapping[int, MotivicClass]) -> list[dict]:
        return strata_to_json((system.ids_of(mask), cls) for mask, cls in sorted(strata.items()))

    obj: dict = {
        "ambient_dim": system.ambient_dim,
        "divisors": [{"id": d.ident, "mu": d.mu} for d in system.divisors],
        "strata": by_mask(system.strata),
    }
    if system.label:
        obj["label"] = system.label
    if system.ambient_class is not None:
        obj["ambient_class"] = system.ambient_class.to_json()
    if loci is not None:
        obj["loci"] = [
            {"name": name, "strata": by_mask(locus.strata)} for name, locus in sorted(loci.items())
        ]
    return obj


def system_from_json(obj: Mapping) -> tuple[ModificationSystem, dict[str, MarkedLocus]]:
    obj = json_object(obj, "system")
    try:
        divisors = []
        for entry in json_list(obj.get("divisors", []), "divisors"):
            entry = json_object(entry, "divisor")
            divisors.append((json_str(entry["id"], "divisor id"), json_bounded(entry["mu"], "mu")))
        ambient = obj.get("ambient_class")
        system = ModificationSystem(
            json_bounded(obj["ambient_dim"], "ambient_dim"),
            divisors,
            strata_from_json(obj.get("strata", [])),
            ambient_class=MotivicClass.from_json(ambient) if ambient is not None else None,
            label=json_str(obj.get("label", ""), "label"),
        )
        loci: dict[str, MarkedLocus] = {}
        for entry in json_list(obj.get("loci", []), "loci"):
            name = json_str(json_object(entry, "locus")["name"], "locus name")
            if name in loci:
                raise ValueError(f"duplicate locus {name!r}")
            strata = strata_from_json(entry.get("strata", []))
            loci[name] = MarkedLocus(name, {system.mask_of(k): v for k, v in strata.items()})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed system object: {exc}") from exc
    return system, loci
