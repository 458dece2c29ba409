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

The JSON decoders here read each object by :func:`mchern.ring.json_fields`,
so an undeclared key is an input error; integers must be JSON integers,
subsets lists of distinct ids, and no subset may be listed twice.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Optional, Union

from .ring import MotivicClass, _fold, bounded, json_fields, over_lcm

SubsetKey = Union[int, str, Iterable[str]]


class Divisor:
    __slots__ = ("ident", "mu")

    def __init__(self, ident: str, mu: int):
        if type(mu) is not int:
            raise ValueError(f"divisor {ident!r} multiplicity {mu!r} is not an integer")
        if mu < 0:
            raise ValueError(f"divisor {ident!r} has negative multiplicity")
        self.ident, self.mu = ident, mu


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

    @classmethod
    def _of(cls, name: str, strata: dict[int, MotivicClass]) -> MarkedLocus:
        """Trusted constructor: ``strata`` is a fresh dict with no zero class."""
        locus = object.__new__(cls)
        locus.name, locus.strata = name, strata
        return locus

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

    @classmethod
    def _of(cls, ambient_dim, divisors, strata, ambient_class, label, index) -> ModificationSystem:
        """Trusted constructor: ``divisors`` a tuple of distinct ids, ``index`` their positions,
        ``strata`` a fresh dict keyed by in-range masks with no zero class; checks nothing."""
        system = object.__new__(cls)
        system.ambient_dim, system.divisors, system.strata = ambient_dim, divisors, strata
        system.ambient_class, system.label, system._ident_index = ambient_class, label, index
        return system

    @property
    def idents(self) -> tuple[str, ...]:
        return tuple(d.ident for d in self.divisors)

    def mask_of(self, ids: SubsetKey) -> int:
        return _as_mask(ids, self._ident_index, len(self.divisors))

    def ids_of(self, mask: int) -> tuple[str, ...]:
        divs, ids = self.divisors, []
        mask &= (1 << len(divs)) - 1  # bits past the last divisor name none
        while mask:  # one step per set bit, lowest first, as in mu_of_mask
            ids.append(divs[(mask & -mask).bit_length() - 1].ident)
            mask &= mask - 1
        return tuple(ids)

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

    def chi_terms(self, locus: MarkedLocus) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """What :meth:`chi` folds: per stratum in mask order, its sorted [P^mu] exponents and numerator."""
        return tuple(
            (tuple(sorted(filter(None, cls.den + self.mu_of_mask(mask)))), cls.num.coeffs)  # [P^0] = 1
            for mask, cls in sorted(locus.strata.items())  # creation order: the partial sums telescope
        )

    def chi(self, locus: MarkedLocus, terms: Optional[tuple] = None) -> MotivicClass:
        """Weighted stratum sum, the base class on the full locus; ``terms``: ``chi_terms(locus)``, if built."""
        return _fold(iter(self.chi_terms(locus) if terms is None else terms))

    def euler_chi(self, locus: MarkedLocus) -> Fraction:
        """Euler-specialized functional: the weights [P^mu] become mu + 1."""
        strata = locus.strata.items()  # summed in integers over the lcm of the weights, one Fraction
        weights = {mask: prod(mu + 1 for mu in cls.den + self.mu_of_mask(mask)) for mask, cls in strata}
        den, scale = over_lcm(weights)
        return Fraction(sum(cls.num.evaluate(1) * scale[mask] for mask, cls in strata), den)

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


def json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def subset_from_json(value, item: type = str) -> frozenset:
    """A JSON list of distinct ids of type ``item``."""
    if not isinstance(value, list) or not {item}.issuperset(map(type, value)):
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
        if type(entry) is not dict or len(entry) != 2 or "subset" not in entry or value not in entry:
            json_fields(entry, "stratum", ("subset", value), {})  # the message for any other shape
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
    keys = {"divisors": [], "strata": [], "ambient_class": None, "label": "", "loci": []}
    dim, divisors, strata, ambient, label, entries = json_fields(obj, "system object", ("ambient_dim",), keys)
    pairs = [json_fields(d, "divisor", ("id", "mu"), {}) for d in json_list(divisors, "divisors")]
    system = ModificationSystem(
        json_bounded(dim, "ambient_dim"),
        [(json_str(ident, "divisor id"), json_bounded(mu, "mu")) for ident, mu in pairs],
        strata_from_json(strata),
        ambient_class=MotivicClass.from_json(ambient) if ambient is not None else None,
        label=json_str(label, "label"),
    )
    loci: dict[str, MarkedLocus] = {}
    for entry in json_list(entries, "loci"):
        name, strata = json_fields(entry, "locus", ("name",), {"strata": []})
        if json_str(name, "locus name") in loci:
            raise ValueError(f"duplicate locus {name!r}")
        loci[name] = MarkedLocus(name, {system.mask_of(k): v for k, v in strata_from_json(strata).items()})
    if problems := system.validate() + [p for locus in loci.values() for p in system.locus_violations(locus)]:
        raise ValueError("; ".join(problems))  # a decoded system is one a program can run from
    return system, loci
