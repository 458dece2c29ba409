"""Exact arithmetic in a localized Grothendieck ring of varieties.

Values live in the ring of integer polynomials in the Lefschetz class
``L`` (the class of the affine line), localized at the projective-space
classes

    [P^mu] = 1 + L + ... + L^mu.

A :class:`MotivicClass` is an exact fraction ``num / prod_i [P^mu_i]``:
an integer-polynomial numerator together with a sorted tuple of localization
exponents.  Equality is decided by cross-multiplication.
:meth:`MotivicClass.reduced` gives the canonical form that reports and
printing use: the fraction in lowest terms over the cyclotomic factors
Phi_d of the [P^mu], so equal classes print equal text.

:meth:`MotivicClass.sum` is a left fold of ``+``, scaling each side of a merge by
the factors it lacks, and ``==`` cross-multiplies by the same lacks.  One ``[P^mu]``
multiplies or exactly divides in O(n), by ``(L-1)[P^mu] = L^(mu+1) - 1``, and one
cyclotomic ``Phi_d``, a quotient of such factors, in O(n) per factor.

Decoders here and in the other modules reject an exponent, multiplicity or
dimension above :data:`INPUT_BOUND`, and so does a blow-up for the multiplicity
it derives; the README lists the other size caps.

Coefficients are Python integers, hence arbitrary precision.  All values
are immutable and all operations are pure functions, so instances can be
freely shared between threads or tasks.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, takewhile, zip_longest
from math import lcm, prod
from operator import add, not_, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

INPUT_BOUND = 2**16  # largest exponent, multiplicity or dimension an input may give


def bounded(value: int, what: str) -> int:
    """``value`` if it is at most :data:`INPUT_BOUND`, else an input error naming ``what``."""
    if value > INPUT_BOUND:
        raise ValueError(f"{what} {value} exceeds the input bound {INPUT_BOUND}")
    return value


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else an input error naming ``what``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def json_fields(value, what: str, required: Sequence[str], optional: Mapping[str, object]) -> list:
    """The values of ``required``, then of ``optional`` keys or their defaults; input errors name ``what``."""
    value, fields = json_object(value, what), []
    try:
        for key in required:
            fields.append(value[key])
    except KeyError as exc:
        raise ValueError(f"malformed {what}: {exc}") from None
    if len(value) > len(required):
        for key in value:
            if key not in optional and key not in required:
                raise ValueError(f"unknown {what} key {key!r}")
        fields += map(value.get, optional, optional.values())
    elif optional:  # exactly the required keys
        fields += optional.values()
    return fields


def over_lcm(weights: Mapping) -> tuple[int, dict]:
    """The reciprocals ``1 / w`` of positive integer weights: ``den = lcm(w)``, ``{key: den // w}``."""
    den = lcm(*weights.values())
    return den, {key: den // w for key, w in weights.items()}


def decimal(value: Union[int, Fraction], what: str) -> str:
    """``str(value)``, or an input error naming ``what`` when ``str`` refuses so many digits."""
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from None


def _trim(cs: list[int]) -> list[int]:
    """``cs`` cut in place before its trailing zeros, by one scan and one slice."""
    if cs and cs[-1] == 0:
        del cs[len(cs) - len(list(takewhile(not_, reversed(cs)))) :]
    return cs


class LPolynomial:
    """Integer polynomial in L, stored as an ascending coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _trim(list(coeffs))
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def _of(cls, cs: list[int]) -> "LPolynomial":
        """Trusted constructor for a fresh list of ints: trims trailing zeros, checks nothing."""
        p = object.__new__(cls)
        p.coeffs = tuple(_trim(cs))
        return p

    @classmethod
    def zero(cls) -> "LPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "LPolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: int) -> "LPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "LPolynomial":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LPolynomial.constant(other)
        if not isinstance(other, LPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "LPolynomial") -> "LPolynomial":
        if isinstance(other, int):
            other = LPolynomial.constant(other)
        return LPolynomial._of(_plus(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "LPolynomial":
        return LPolynomial._of([-c for c in self.coeffs])

    def __sub__(self, other: "LPolynomial") -> "LPolynomial":
        if isinstance(other, int):
            other = LPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "LPolynomial":
        return LPolynomial.constant(other) - self

    def __mul__(self, other: Union["LPolynomial", int]) -> "LPolynomial":
        if isinstance(other, int):
            return LPolynomial._of([c * other for c in self.coeffs])
        if not isinstance(other, LPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return LPolynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = LPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x):
        """The exact value at an int or Fraction ``x``: Horner's rule up to 16 coefficients.  A
        longer polynomial is cut into blocks of 16, each evaluated so, and neighbouring blocks
        join in halves, ``low + x^m * high``, by one shared power x^m per level: the products
        stay balanced, so the cost is subquadratic in the degree, not quadratic as Horner's."""
        cs, m = self.coeffs, 16
        if len(cs) <= m:
            acc = 0
            for c in reversed(cs):
                acc = acc * x + c
            return acc
        values = [LPolynomial._of(list(cs[i : i + m])).evaluate(x) for i in range(0, len(cs), m)]
        power = x**m
        while len(values) > 1:
            pairs = zip_longest(values[::2], values[1::2], fillvalue=0)
            values = [low + power * high for low, high in pairs]
            power *= power
        return values[0]

    def divide_by_monic(self, divisor: "LPolynomial") -> tuple["LPolynomial", "LPolynomial"]:
        """Long division by a monic divisor; returns (quotient, remainder)."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        dd = divisor.degree
        rem = list(self.coeffs)
        if len(rem) <= dd:
            return LPolynomial.zero(), LPolynomial(rem)
        qlen = len(rem) - dd
        quot = [0] * qlen
        for i in reversed(range(qlen)):
            c = rem[i + dd]
            if c:
                quot[i] = c
                for j, dc in enumerate(divisor.coeffs):
                    rem[i + j] -= c * dc
        return LPolynomial(quot), LPolynomial(rem)

    def to_text(self) -> str:
        """Canonical ascending text form, e.g. ``1 - 2*L + L^2``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "L" if i == 1 else f"L^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    _TERM_RE = re.compile(r"(?:(?P<coeff>\d+)(?:\*(?=L))?)?(?P<var>L)?(?:\^(?P<exp>\d+))?")

    @classmethod
    def from_text(cls, text: str) -> "LPolynomial":
        s = "".join(text.split())  # all whitespace is insignificant
        if s in ("", "0"):
            return cls.zero()
        tokens = re.findall(r"[+-]?[^+-]+", s)
        if "".join(tokens) != s:
            raise ValueError(f"cannot parse polynomial {_clip(text)}")
        coeffs: dict[int, int] = {}
        for token in tokens:
            sign = 1
            if token[0] == "+":
                token = token[1:]
            elif token[0] == "-":
                sign = -1
                token = token[1:]
            m = cls._TERM_RE.fullmatch(token)
            coeff, var, exp = m.group("coeff", "var", "exp") if m else (None, None, None)
            if coeff is None and var is None:  # also no match, or an empty term
                raise ValueError(f"cannot parse term {_clip(token)} in {_clip(text)}")
            if exp is not None and var is None:
                raise ValueError(f"exponent without L in term {_clip(token)}")
            e = bounded(int(exp), "exponent of L") if exp is not None else (1 if var else 0)
            coeffs[e] = coeffs.get(e, 0) + sign * int(coeff or 1)
        out = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return cls(out)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LPolynomial({self.to_text()!r})"


def _clip(text: str, limit: int = 40) -> str:
    """``text`` quoted, or its first ``limit`` characters quoted and its length named."""
    return repr(text) if len(text) <= limit else f"{text[:limit]!r}... ({len(text)} characters)"


@lru_cache(maxsize=None)
def projective_poly(mu: int) -> LPolynomial:
    """The polynomial 1 + L + ... + L^mu; zero when mu < 0 (empty space)."""
    return LPolynomial((1,) * (mu + 1))


def _plus(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of a + b as a new list; neither operand is written, as a sweep shares rows."""
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    return [*map(add, a, b), *a[len(b) :]]


def _mul_projective(c: Sequence[int], mu: int) -> list[int]:
    """Coefficients of c * [P^mu], a sliding-window sum: out[k] = c[k-mu] + ... + c[k]."""
    s = list(accumulate(c))
    s += s[-1:] * mu
    return s[: mu + 1] + list(map(sub, s[mu + 1 :], s))


def _div_projective(p: Sequence[int], mu: int) -> Optional[list[int]]:
    """Coefficients of p / [P^mu] if exact, else None: the one divisibility test.  As [P^mu] divides
    L^(mu+1) - 1, p = sum s_r L^r mod [P^mu], s_r = sum p[r::mu+1], of degree <= mu: exact iff all s_r
    are equal (s_r = 0 for len(p) <= r <= mu); then q[k] = p[k] - p[k-1] + q[k-mu-1], per residue."""
    n, step = len(p), mu + 1
    top = sum(p[mu::step])
    for r in reversed(range(min(mu, n))):  # a merged numerator's residue sums differ first at the top
        if sum(p[r::step]) != top:
            return None
    q = list(map(sub, p, [0, *p]))
    for r in range(min(step, n + 1 - step)):
        q[r::step] = accumulate(q[r::step])
    return q[: max(n - mu, 0)]


@lru_cache(maxsize=None)
def _divisors_above_one(n: int) -> tuple[int, ...]:
    """The d > 1 dividing n: [P^(n-1)] is the product of Phi_d over them."""
    return tuple(d for d in range(2, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _phi_exponents(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(ups, downs): Phi_d = prod [P^mu] over ups / over downs (d > 1, Moebius inversion)."""
    ups, downs = [], []
    for e in _divisors_above_one(d):
        primes = [p for p in _divisors_above_one(d // e) if len(_divisors_above_one(p)) == 1]
        if prod(primes) == d // e:  # moebius(d/e) is 0 unless d/e is squarefree
            (downs if len(primes) % 2 else ups).append(e - 1)
    return tuple(ups), tuple(downs)


def _mul_cyclotomic(c: list[int], d: int) -> list[int]:
    """Coefficients of c * Phi_d; each division by a [P^mu] here is exact."""
    ups, downs = _phi_exponents(d)
    return reduce(_div_projective, downs, reduce(_mul_projective, ups, c))


def _div_cyclotomic(p: list[int], d: int) -> Optional[list[int]]:
    """Coefficients of p / Phi_d when the division is exact, else None."""
    ups, downs = _phi_exponents(d)
    p = reduce(_mul_projective, downs, p)
    for mu in ups:
        if (p := _div_projective(p, mu)) is None:
            break
    return p


def _lowest_terms(num: list[int], mus: Iterable[int]) -> tuple[list[int], Counter]:
    """num / prod [P^mu] in lowest terms: the numerator and the Phi_d left, unique for the value."""
    phis = Counter(d for mu in mus for d in _divisors_above_one(mu + 1))
    for d in phis:
        while phis[d] and (quot := _div_cyclotomic(num, d)) is not None:
            num, phis[d] = quot, phis[d] - 1
    return num, +phis


def _greedy_cover(num: list[int], phis: Counter) -> tuple[list[int], list[int]]:
    """Cover the Phi_d by [P^mu]s, descending: the largest d left picks [P^(d-1)], whose
    other factors cancel what they meet in the multiset, else multiply the numerator."""
    cover = []
    while phis:
        d = max(phis)
        factors = Counter(_divisors_above_one(d))
        num = reduce(_mul_cyclotomic, factors - phis, num)
        phis -= factors
        cover.append(d - 1)
    return num, cover


def _union_lacks(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The max-multiplicity union of two sorted exponent tuples and what a and b each lack of it."""
    lack_a, lack_b = list(b), []  # each exponent of a cancels one equal exponent of b
    for mu in a:
        if mu in lack_a:
            lack_a.remove(mu)
        else:
            lack_b.append(mu)
    return tuple(sorted(a + tuple(lack_a))), lack_a, lack_b


# a longer merged numerator cancels the [P^mu] that divide it; on shorter ones the
# trial divisions cost more than the smaller numerators save
_CANCEL_LENGTH = 64


def _cancel(num: list[int], mus: Sequence[int]) -> tuple[list[int], list[int]]:
    """Cancel each [P^mu] dividing num over ascending mus, largest first: (numerator, mus kept descending)."""
    kept = []
    for mu in reversed(mus):
        if (quot := _div_projective(num, mu)) is None:
            kept.append(mu)
        else:
            num = quot
    return num, kept


def _merge(a: tuple[tuple, list], b: tuple[tuple, list]) -> tuple[tuple, list]:
    """The sum of two (sorted denominator, numerator) pairs over their union; see :func:`_cancel`."""
    (da, na), (db, nb) = a, b
    union, lack_a, lack_b = _union_lacks(da, db)
    num = _plus(reduce(_mul_projective, lack_a, na), reduce(_mul_projective, lack_b, nb))
    if len(num) <= _CANCEL_LENGTH:
        return union, num
    num, kept = _cancel(num, union)
    return tuple(reversed(kept)), num


def _fold(pairs: Iterator[tuple[tuple[int, ...], Sequence[int]]]) -> "MotivicClass":
    """The class of (sorted denominator, trimmed numerator) pairs summed left as ``+`` sums them:
    an equal denominator adds the numerators, another merges; each partial sum is trimmed."""
    den, num = next(pairs, ((), ()))
    for d, n in pairs:
        den, num = (den, _plus(num, n)) if d == den else _merge((den, num), (d, n))
        _trim(num)
    return MotivicClass._of(LPolynomial._of(num), den)


class MotivicClass:
    """Fraction num / prod [P^mu] in the localized Grothendieck ring.

    The denominator is a multiset of exponents mu >= 1 (factors with
    mu = 0 are the unit [P^0] = 1 and are dropped on construction).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Union[LPolynomial, int], den: Iterable[int] = ()):
        if isinstance(num, int):
            num = LPolynomial.constant(num)
        if not isinstance(num, LPolynomial):
            raise TypeError(f"numerator must be LPolynomial or int, got {num!r}")
        ds = []
        for mu in den:
            if type(mu) is not int:
                raise ValueError(f"denominator exponent {mu!r} is not an integer")
            if mu < 0:
                raise ValueError("denominator exponents must be nonnegative")
            if mu > 0:
                ds.append(mu)
        self.num = num
        self.den: tuple[int, ...] = tuple(sorted(ds))

    @classmethod
    def _of(cls, num: LPolynomial, den: tuple[int, ...]) -> "MotivicClass":
        """Trusted constructor: ``den`` is already a sorted tuple of positive ints."""
        m = object.__new__(cls)
        m.num = num
        m.den = den
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MotivicClass":
        return cls(LPolynomial.zero())

    @classmethod
    def one(cls) -> "MotivicClass":
        return cls(LPolynomial.one())

    @classmethod
    def from_int(cls, c: int) -> "MotivicClass":
        return cls(LPolynomial.constant(c))

    @staticmethod
    def _coerce(value) -> Optional["MotivicClass"]:
        if isinstance(value, MotivicClass):
            return value
        if isinstance(value, int):
            return MotivicClass.from_int(value)
        if isinstance(value, LPolynomial):
            return MotivicClass(value)
        return None

    # -- ring structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @classmethod
    def sum(cls, terms: Iterable["MotivicClass"]) -> "MotivicClass":
        """Add ``terms`` by the left fold :func:`_fold`, in input order: the result equals
        ``functools.reduce(operator.add, terms)`` field for field.  A merge nA/DA + nB/DB is
        (nA * prod(U - DA) + nB * prod(U - DB)) / U, the union U keeping each mu at its top
        multiplicity, with the cofactors multiplied in one [P^mu] at a time."""
        return _fold((t.den, t.num.coeffs) for t in terms)

    def __add__(self, other) -> "MotivicClass":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:  # what sum makes of one shared denominator
            return MotivicClass._of(self.num + other.num, self.den)
        return MotivicClass.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "MotivicClass":
        return MotivicClass._of(-self.num, self.den)

    def __sub__(self, other) -> "MotivicClass":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return MotivicClass._of(self.num - other.num, self.den)
        return self + (-other)

    def __rsub__(self, other) -> "MotivicClass":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "MotivicClass":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = tuple(sorted(self.den + other.den)) if other.den else self.den
        return MotivicClass._of(self.num * other.num, den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        _, lack_self, lack_o = _union_lacks(self.den, o.den)
        left = reduce(_mul_projective, lack_self, list(self.num.coeffs))
        right = reduce(_mul_projective, lack_o, list(o.num.coeffs))
        return left == right

    __hash__ = None  # equality is cross-multiplicative; no stable hash

    # -- specializations ----------------------------------------------------

    def _at(self, q: int) -> Fraction:
        """The exact value at L = q >= 1: num(q) / prod [P^mu](q), where [P^mu](1) = mu + 1."""
        den = prod(mu + 1 if q == 1 else projective_poly(mu).evaluate(q) for mu in self.den)
        return Fraction(self.num.evaluate(q), den)

    def euler_specialize(self) -> Fraction:
        """Evaluation at L = 1; on [X] this is the Euler characteristic."""
        return self._at(1)

    def eval_at(self, q: int) -> Fraction:
        """Exact value at L = q for an integer q >= 2 (point-count style)."""
        if not isinstance(q, int) or q <= 1:
            raise ValueError("eval_at requires an integer q >= 2")
        return self._at(q)

    def decimal_at(self, q: int, what: str) -> str:
        """``decimal(self.eval_at(q), what)``, refused before evaluating when degrees prove it too
        long. As [P^mu](q) lies in [q^mu, 2 q^mu), and q > 2 max|c| gives q^n / 2 < |num(q)|
        <= sum|c| q^n (n = deg num, so num(q) is not 0), for n > D = sum den the printed numerator exceeds
        q^(n-D) / 2^(k+1), k = len den, and for D > n the printed denominator exceeds q^(D-n) / sum|c|."""
        cs, n, big = [abs(c) for c in self.num.coeffs], self.num.degree, sum(self.den)
        limit = sys.get_int_max_str_digits()
        if limit and cs and q > 2 * max(cs):
            log_q = q.bit_length() - 1  # bits: a lower bound on log2 of the printed part
            if n > big:
                bits = (n - big) * log_q - len(self.den) - 1
            else:
                bits = (big - n) * log_q - sum(cs).bit_length()
            if bits >= (10**limit).bit_length():  # then 2^bits > 10^limit
                raise ValueError(f"{what} has more than {limit} digits")
        return decimal(self.eval_at(q), what)

    # -- reduction ----------------------------------------------------------

    def reduced(self) -> "MotivicClass":
        """The canonical form, so equal classes give equal fields.

        Whole [P^mu] factors dividing the numerator go first, through :func:`_cancel`;
        only a denominator left goes to :func:`_lowest_terms` and :func:`_greedy_cover`.
        """
        num, remaining = _cancel(list(self.num.coeffs), self.den)
        if remaining:
            num, remaining = _greedy_cover(*_lowest_terms(num, remaining))
        return MotivicClass._of(LPolynomial._of(num), tuple(reversed(remaining)))

    # -- presentation --------------------------------------------------------

    def to_json(self) -> dict:
        red = self.reduced()
        return {"numerator": red.num.to_text(), "denominator": list(red.den)}

    @classmethod
    def from_json(cls, obj) -> "MotivicClass":
        if type(obj) is int:
            return cls.from_int(obj)
        if isinstance(obj, str):
            return cls(LPolynomial.from_text(obj))
        num, den = json_fields(obj, "motivic class", (), {"numerator": "0", "denominator": []})
        if isinstance(num, list):
            if any(type(c) is not int for c in num):
                raise ValueError(f"numerator coefficients must be integers, got {num!r}")
            poly = LPolynomial(num)
        else:
            poly = LPolynomial.from_text(str(num))
        if not isinstance(den, list):
            raise ValueError(f"denominator must be a list of exponents, got {den!r}")
        value = cls(poly, den)
        bounded(max(value.den, default=0), "denominator exponent")
        return value

    def __str__(self) -> str:
        red = self.reduced()
        if not red.den:
            return red.num.to_text()
        factors = " * ".join(f"[P^{mu}]" for mu in red.den)
        return f"({red.num.to_text()}) / ({factors})"

    def __repr__(self) -> str:
        return f"MotivicClass({self.num.to_text()!r}, den={self.den!r})"


# -- the named generators ----------------------------------------------------


def projective_class(mu: int) -> MotivicClass:
    """[P^mu] = 1 + L + ... + L^mu."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return MotivicClass(projective_poly(mu))


def affine_class(n: int) -> MotivicClass:
    """L^n, the class of affine n-space."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return MotivicClass(LPolynomial.monomial(n))


def torus_class(n: int) -> MotivicClass:
    """(L - 1)^n, the class of the n-dimensional split torus."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return MotivicClass(LPolynomial((-1, 1)) ** n)
