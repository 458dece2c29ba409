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

:meth:`MotivicClass.sum` adds many classes by a balanced pairwise merge
tree over their denominators, scaling each side by the factors it lacks;
``+`` goes through it, and ``==`` cross-multiplies by the same lacks.  One
``[P^mu]`` multiplies or exactly divides in O(n), by ``(L-1)[P^mu] = L^(mu+1) - 1``,
and one cyclotomic ``Phi_d``, a quotient of such factors, in O(n) per factor.

Decoders here and in the other modules reject an exponent, multiplicity or
dimension above :data:`INPUT_BOUND`, so a small input cannot exhaust memory.

Coefficients are Python integers, hence arbitrary precision.  All values
are immutable and all operations are pure functions, so instances can be
freely shared between threads or tasks.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import prod
from operator import add, sub
from typing import Iterable, Optional, Sequence, Union

INPUT_BOUND = 2**16  # largest exponent, multiplicity or dimension an input may give


def bounded(value: int, what: str) -> int:
    """``value`` if it is at most :data:`INPUT_BOUND`, else an input error naming ``what``."""
    if value > INPUT_BOUND:
        raise ValueError(f"{what} {value} exceeds the input bound {INPUT_BOUND}")
    return value


class LPolynomial:
    """Integer polynomial in L, stored as an ascending coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def _of(cls, cs: list[int]) -> "LPolynomial":
        """Trusted constructor for a fresh list of ints: trims trailing zeros, checks nothing."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LPolynomial._of(out)

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
        """Evaluate by Horner's rule; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _mul_projective(c: Sequence[int], mu: int) -> list[int]:
    """Coefficients of c * [P^mu], a sliding-window sum: out[k] = c[k-mu] + ... + c[k]."""
    s = list(accumulate(c))
    s += s[-1:] * mu
    return s[: mu + 1] + list(map(sub, s[mu + 1 :], s))


def _div_projective(p: Sequence[int], mu: int) -> Optional[list[int]]:
    """Coefficients of p / [P^mu] when the division is exact, else None.

    Its power series obeys q[k] = p[k] - p[k-1] + q[k-mu-1], which repeats
    with period mu + 1 beyond len(p): exact iff q[len(p)-mu : len(p)+1] = 0.
    """
    n = len(p)
    step = mu + 1
    q = list(map(sub, [*p, 0], [0, *p]))
    for r in range(min(step, n + 1 - step)):
        q[r::step] = accumulate(q[r::step])
    cut = max(n - mu, 0)
    return None if any(q[cut:]) else q[:cut]


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


def _add_coeffs(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of a + b, written into the longer of the two lists."""
    if len(a) < len(b):
        a, b = b, a
    a[: len(b)] = map(add, a, b)
    return a


def _union_lacks(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The max-multiplicity union of two sorted exponent tuples and what a and b each lack of it."""
    lack_a, lack_b = list(b), []  # each exponent of a cancels one equal exponent of b
    for mu in a:
        if mu in lack_a:
            lack_a.remove(mu)
        else:
            lack_b.append(mu)
    return tuple(sorted(a + tuple(lack_a))), lack_a, lack_b


def _merge(a: tuple[tuple, list], b: tuple[tuple, list]) -> tuple[tuple, list]:
    """The sum of two (sorted denominator, numerator coefficients) fractions over their union."""
    (da, na), (db, nb) = a, b
    union, lack_a, lack_b = _union_lacks(da, db)
    na = reduce(_mul_projective, lack_a, na)
    nb = reduce(_mul_projective, lack_b, nb)
    return union, _add_coeffs(na, nb)


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
        """Add ``terms`` by a balanced pairwise merge tree over their denominators.

        Terms sharing a denominator are added first.  A merge of nA/DA and
        nB/DB gives (nA * prod(U - DA) + nB * prod(U - DB)) / U, where the
        union U keeps each mu at its top multiplicity; the cofactors are
        multiplied in one [P^mu] at a time, so no full product is built and
        nothing is divided.  The union is associative, so the result equals
        a pairwise ``+`` fold's field for field.
        """
        nums: dict[tuple[int, ...], LPolynomial] = {}
        for t in terms:
            nums[t.den] = nums[t.den] + t.num if t.den in nums else t.num
        if len(nums) == 1:
            ((den, num),) = nums.items()
            return cls._of(num, den)
        level = [(den, list(num.coeffs)) for den, num in nums.items()]
        while len(level) > 1:
            merged = [_merge(a, b) for a, b in zip(level[::2], level[1::2])]
            level = merged + level[len(merged) * 2 :]
        den, num = level[0] if level else ((), [])
        return cls._of(LPolynomial._of(num), den)

    def __add__(self, other) -> "MotivicClass":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MotivicClass.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "MotivicClass":
        return MotivicClass._of(-self.num, self.den)

    def __sub__(self, other) -> "MotivicClass":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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
        return MotivicClass._of(self.num * other.num, tuple(sorted(self.den + other.den)))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        _, lack_self, lack_o = _union_lacks(self.den, o.den)
        left = reduce(_mul_projective, lack_self, list(self.num.coeffs))
        right = reduce(_mul_projective, lack_o, list(o.num.coeffs))
        return left == right

    __hash__ = None  # equality is cross-multiplicative; no stable hash

    # -- specializations ----------------------------------------------------

    def euler_specialize(self) -> Fraction:
        """Evaluation at L = 1; on [X] this is the Euler characteristic."""
        den = 1
        for mu in self.den:
            den *= mu + 1
        return Fraction(self.num.evaluate(1), den)

    def eval_at(self, q: int) -> Fraction:
        """Exact value at L = q for an integer q >= 2 (point-count style)."""
        if not isinstance(q, int) or q <= 1:
            raise ValueError("eval_at requires an integer q >= 2")
        den = 1
        for mu in self.den:
            den *= projective_poly(mu).evaluate(q)
        return Fraction(self.num.evaluate(q), den)

    # -- reduction ----------------------------------------------------------

    def reduced(self) -> "MotivicClass":
        """The canonical form, so equal classes give equal fields.

        Whole [P^mu] factors dividing the numerator go first, in O(n) each; only a
        denominator left goes to :func:`_lowest_terms` and :func:`_greedy_cover`.
        """
        num = list(self.num.coeffs)
        remaining: list[int] = []
        for mu in sorted(self.den, reverse=True):
            quot = _div_projective(num, mu)
            if quot is None:
                remaining.append(mu)
            else:
                num = quot
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
        if not isinstance(obj, dict):
            raise ValueError(f"cannot decode motivic class from {obj!r}")
        unknown = [key for key in obj if key not in ("numerator", "denominator")]
        if unknown:
            raise ValueError(f"unknown motivic class key {unknown[0]!r}")
        num = obj.get("numerator", "0")
        if isinstance(num, list):
            if any(type(c) is not int for c in num):
                raise ValueError(f"numerator coefficients must be integers, got {num!r}")
            poly = LPolynomial(num)
        else:
            poly = LPolynomial.from_text(str(num))
        den = obj.get("denominator", [])
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
