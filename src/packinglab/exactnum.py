"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

A value is one canonical int triple over a discriminant: it reads
(a + b*sqrt(disc)) / q with q > 0 and gcd(a, b, q) == 1, where disc is a
square-free integer >= 2, or 0 with b == 0 for a plain rational.  This is the
form the int code of vectors and matrices is built on (encode, below).  Each
operation works on the ints and reduces its result once by the gcd, so every
value has one representation and equality is equality of the fields.  The rational and
surd parts are read as Fractions through the rat and surd properties.

A discriminant is split into its square-free part only where a value enters
from outside, in the constructor and the literal parser; the split is cached
per discriminant, and a discriminant above MAX_DISC is refused.  All
comparisons are decided by exact sign analysis; floats never enter any
correctness path.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import PackingLabError

# trial division of a discriminant this size takes milliseconds; 10**13
# takes about half a second per literal
MAX_DISC = 10**9


class DiscMismatch(PackingLabError):
    """Arithmetic attempted between values of two different quadratic fields."""


class DivisionByZero(PackingLabError, ZeroDivisionError):
    """Inverse or quotient of the zero value."""


@lru_cache(maxsize=256)
def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, f) with d == s*s*f and f square-free, for 0 < d <= MAX_DISC."""
    if d > MAX_DISC:
        raise ValueError(f"discriminant {d} exceeds {MAX_DISC}")
    s, f = 1, 1
    p = 2
    while p * p <= d:
        exp = 0
        while d % p == 0:
            d //= p
            exp += 1
        s *= p ** (exp // 2)
        if exp % 2:
            f *= p
        p += 1 if p == 2 else 2
    return s, f * d


def quad_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for square-free d (b == 0 when d == 0)."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    t = a * a - b * b * d  # nonzero: sqrt(d) is irrational
    return 1 if (t > 0) == (a > 0) else -1


_new = object.__new__


class QuadExt:
    """An element of Q(sqrt(d)), immutable and hashable.

    QuadExt(rat, surd, disc) is rat + surd*sqrt(disc) for rationals rat and
    surd and an integer disc >= 0; QuadExt(text) parses a literal.
    """

    __slots__ = ("_a", "_b", "_q", "_d", "_hash")

    def __new__(cls, rat=0, surd=0, disc: int = 0):
        if isinstance(rat, str):
            return _parse(rat)
        if isinstance(rat, QuadExt):
            return rat
        return _from_parts(*_ratio(rat), *_ratio(surd), int(disc))

    @classmethod
    def sqrt(cls, d: int) -> "QuadExt":
        return cls(0, 1, d)

    @classmethod
    def parse(cls, text: str) -> "QuadExt":
        if not isinstance(text, str):
            raise TypeError(f"an exact-number literal must be a string, not {type(text).__name__}")
        return _parse(text)

    # -- views ------------------------------------------------------------

    @property
    def rat(self) -> Fraction:
        return Fraction(self._a, self._q)

    @property
    def surd(self) -> Fraction:
        return Fraction(self._b, self._q)

    @property
    def disc(self) -> int:
        return self._d

    @property
    def triple(self) -> tuple[int, int, int]:
        """(a, b, q): the value is (a + b*sqrt(disc)) / q in lowest terms."""
        return self._a, self._b, self._q

    def is_rational(self) -> bool:
        return not self._b

    def is_rational_integer(self) -> bool:
        return not self._b and self._q == 1

    def __float__(self):
        out = self._a / self._q
        if self._b:
            out += self._b / self._q * math.sqrt(self._d)
        return out

    def __str__(self):
        a, b, q = self._a, self._b, self._q
        if not b:
            return _fmt(a, q)
        surd_part = f"{_fmt(b, q)}*sqrt({self._d})"
        if not a:
            return surd_part
        return f"{_fmt(a, q)}{'+' if b > 0 else ''}{surd_part}"

    def __repr__(self):
        return f"QuadExt({str(self)!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else _sum(self, y._a, y._b, y._q, y._d)

    __radd__ = __add__

    def __sub__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else _sum(self, -y._a, -y._b, y._q, y._d)

    def __rsub__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else _sum(y, -self._a, -self._b, self._q, self._d)

    def __neg__(self):
        return _raw(-self._a, -self._b, self._q, self._d)

    def __pos__(self):
        return self

    def __mul__(self, other):
        y = _lift(other)
        if y is None:
            return NotImplemented
        xd, yd = self._d, y._d
        if not (xd or yd):
            a, q = self._a * y._a, self._q * y._q
            g = gcd(a, q)
            return _raw(a // g, 0, q // g, 0) if g != 1 else _raw(a, 0, q, 0)
        d = _field(xd, yd)
        xa, xb, ya, yb = self._a, self._b, y._a, y._b
        return from_triple(xa * ya + d * xb * yb, xa * yb + xb * ya, self._q * y._q, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        a, b, q, d = self._a, self._b, self._q, self._d
        if not b:
            if not a:
                raise DivisionByZero("inverse of zero")
            return _raw(q, 0, a, 0) if a > 0 else _raw(-q, 0, -a, 0)
        # q / (a + b sqrt(d)) = q (a - b sqrt(d)) / norm; norm != 0 because
        # sqrt(d) is irrational for square-free d >= 2
        norm = a * a - b * b * d
        if norm < 0:
            return from_triple(-q * a, q * b, -norm, d)
        return from_triple(q * a, -q * b, norm, d)

    def __truediv__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else self * y.inverse()

    def __rtruediv__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else y * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadExt":
        return _raw(self._a, -self._b, self._q, self._d)

    # -- ordering ---------------------------------------------------------

    def sign(self) -> int:
        return quad_sign(self._a, self._b, self._d)

    def _cmp(self, y: "QuadExt") -> int:
        xq, yq = self._q, y._q
        return quad_sign(self._a * yq - y._a * xq, self._b * yq - y._b * xq, _field(self._d, y._d))

    def __eq__(self, other):
        y = _lift(other)
        if y is None:
            return NotImplemented
        return self._a == y._a and self._b == y._b and self._q == y._q and self._d == y._d

    def __lt__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else self._cmp(y) < 0

    def __le__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else self._cmp(y) <= 0

    def __gt__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else self._cmp(y) > 0

    def __ge__(self, other):
        y = _lift(other)
        return NotImplemented if y is None else self._cmp(y) >= 0

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # equal to hash((self.rat, self.surd, self.disc)); an integral
        # Fraction hashes as its int
        if self._q == 1:
            h = hash((self._a, self._b, self._d))
        else:
            h = hash((self.rat, self.surd, self._d))
        self._hash = h
        return h

    def __bool__(self):
        return bool(self._a or self._b)

    def __abs__(self):
        return -self if quad_sign(self._a, self._b, self._d) < 0 else self


def _raw(a: int, b: int, q: int, d: int) -> QuadExt:
    """A QuadExt from a triple that is already canonical."""
    x = _new(QuadExt)
    x._a = a
    x._b = b
    x._q = q
    x._d = d
    return x


def from_triple(a: int, b: int, q: int, d: int) -> QuadExt:
    """(a + b*sqrt(d)) / q for q > 0 and square-free d (b == 0 when d == 0),
    reduced to lowest terms."""
    g = gcd(a, b, q)
    if g != 1:
        a //= g
        b //= g
        q //= g
    return _raw(a, b, q, d if b else 0)


def _field(xd: int, yd: int) -> int:
    """The common discriminant of two operands."""
    if xd == yd or not yd:
        return xd
    if not xd:
        return yd
    raise DiscMismatch(f"sqrt({xd}) vs sqrt({yd})")


def _sum(x: QuadExt, a: int, b: int, q: int, d: int) -> QuadExt:
    """x + (a + b*sqrt(d)) / q."""
    d = _field(x._d, d)
    xq = x._q
    if xq == q:
        return from_triple(x._a + a, x._b + b, q, d)
    return from_triple(x._a * q + a * xq, x._b * q + b * xq, xq * q, d)


def _lift(x) -> QuadExt | None:
    """An operand as a QuadExt; None for a type arithmetic does not take."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, int):
        return _raw(int(x), 0, 1, 0)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator, 0)
    return None


def _ratio(x) -> tuple[int, int]:
    """A rational constructor argument as (numerator, denominator > 0)."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _from_parts(rn: int, rd: int, sn: int, sd: int, disc: int) -> QuadExt:
    """rn/rd + (sn/sd)*sqrt(disc) for rd, sd > 0, in canonical form."""
    if disc < 0:
        raise ValueError("discriminant must be non-negative")
    if sn and not disc:
        raise ValueError("a surd term needs a positive discriminant")
    if disc:
        s, disc = _squarefree_split(disc)
        sn *= s
        if disc == 1:
            rn, rd, sn, sd = rn * sd + sn * rd, rd * sd, 0, 1
    if not sn:
        disc = 0
    q = lcm(rd, sd)
    return from_triple(rn * (q // rd), sn * (q // sd), q, disc)


def _fmt(n: int, q: int) -> str:
    g = gcd(n, q)
    n, q = n // g, q // g
    return str(n) if q == 1 else f"{n}/{q}"


_RAT = r"([+-]?\d+)(?:/(\d+))?"
_RE_RATIONAL = re.compile(rf"^{_RAT}$")
# a rational part is always followed by the sign of the surd part
_RE_SURD = re.compile(rf"^(?:{_RAT}(?=[+-]))?{_RAT}\*sqrt\((\d+)\)$")


def _parse(text: str) -> QuadExt:
    m = _RE_RATIONAL.match(text)
    if m:
        rn, rd = m.groups()
        sn = sd = disc = None
    else:
        m = _RE_SURD.match(text)
        if not m:
            raise ValueError(f"not a valid exact-number literal: {text!r}")
        rn, rd, sn, sd, disc = m.groups()
    rd, sd = int(rd or 1), int(sd or 1)
    if not (rd and sd):
        raise ValueError(f"zero denominator in exact-number literal {text!r}")
    return _from_parts(int(rn or 0), rd, int(sn or 0), sd, int(disc or 0))


ZERO = _raw(0, 0, 1, 0)
ONE = _raw(1, 0, 1, 0)


def field_disc(values) -> int:
    """The one square-free d > 0 among the values' fields, or 0 if all are
    rational; two different nonzero discriminants raise DiscMismatch."""
    d = 0
    for x in values:
        if x._d and x._d != d:
            if d:
                raise DiscMismatch(f"sqrt({d}) vs sqrt({x._d})")
            d = x._d
    return d


def encode(values) -> tuple[int, ...]:
    """(a_0, b_0, ..., a_k, b_k, den): value j is (a_j + b_j sqrt(d)) / den.

    Each value's triple (a, b, q) is put over the least common denominator,
    so the numerators and den share no factor and the tuple is canonical.
    Every value must lie in one field (field_disc).
    """
    den = lcm(*(x._q for x in values))
    out = []
    for x in values:
        f = den // x._q
        out += (x._a * f, x._b * f)
    out.append(den)
    return tuple(out)


def compare(x, y) -> int:
    """Exact three-way comparison: -1, 0 or 1."""
    diff = QuadExt(x) - y if isinstance(x, (int, Fraction, str)) else x - y
    return diff.sign()


def is_rational_integer(x) -> bool:
    return QuadExt(x).is_rational_integer() if not isinstance(x, QuadExt) else x.is_rational_integer()
