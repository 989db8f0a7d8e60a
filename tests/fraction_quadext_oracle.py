"""QuadExt as packinglab first wrote it: two Fractions and a discriminant.

Each value is rat + surd*sqrt(disc) with rat and surd Fractions, and every
operation goes back through the constructor.  The package's QuadExt works on
one canonical int triple instead; the two must agree on every operation,
every printed form and every raised error.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

from packinglab.exactnum import DiscMismatch, DivisionByZero


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, f) with d == s*s*f and f square-free."""
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


_RAT = r"[+-]?\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"^({_RAT})$")
_RE_SURD = re.compile(rf"^({_RAT})\*sqrt\((\d+)\)$")
_RE_FULL = re.compile(rf"^({_RAT})([+-]\d+(?:/\d+)?)\*sqrt\((\d+)\)$")


@total_ordering
class QuadExt:
    """An element of Q(sqrt(d)), immutable and hashable."""

    __slots__ = ("rat", "surd", "disc", "_hash")

    def __init__(self, rat=0, surd=0, disc: int = 0):
        if isinstance(rat, str):
            rat, surd, disc = _parse_parts(rat)
        elif isinstance(rat, QuadExt):
            rat, surd, disc = rat.rat, rat.surd, rat.disc
        rat = Fraction(rat)
        surd = Fraction(surd)
        disc = int(disc)
        if disc < 0:
            raise ValueError("discriminant must be non-negative")
        if surd != 0 and disc == 0:
            raise ValueError("a surd term needs a positive discriminant")
        if disc > 0:
            s, f = _squarefree_split(disc)
            surd *= s
            disc = f
        if disc == 1 or disc == 0:
            rat += surd * (1 if disc == 1 else 0)
            surd = Fraction(0)
            disc = 0
        if surd == 0:
            disc = 0
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "surd", surd)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def sqrt(cls, d: int) -> "QuadExt":
        return cls(0, 1, d)

    @classmethod
    def parse(cls, text: str) -> "QuadExt":
        return cls(text)

    # -- coercion ---------------------------------------------------------

    def _merge(self, other) -> tuple["QuadExt", "QuadExt"]:
        if not isinstance(other, QuadExt):
            if not isinstance(other, (int, Fraction)):
                raise TypeError(f"cannot coerce {other!r}")
            other = QuadExt(other)
        if self.disc == other.disc or other.disc == 0:
            return self, other
        if self.disc == 0:
            return self, other
        raise DiscMismatch(f"sqrt({self.disc}) vs sqrt({other.disc})")

    def _common_disc(self, other: "QuadExt") -> int:
        return self.disc or other.disc

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        try:
            a, b = self._merge(other)
        except TypeError:
            return NotImplemented
        return QuadExt(a.rat + b.rat, a.surd + b.surd, a._common_disc(b))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.rat, -self.surd, self.disc)

    def __pos__(self):
        return self

    def __sub__(self, other):
        try:
            a, b = self._merge(other)
        except TypeError:
            return NotImplemented
        return QuadExt(a.rat - b.rat, a.surd - b.surd, a._common_disc(b))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            a, b = self._merge(other)
        except TypeError:
            return NotImplemented
        d = a._common_disc(b)
        return QuadExt(
            a.rat * b.rat + a.surd * b.surd * d,
            a.rat * b.surd + a.surd * b.rat,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if self.rat == 0 and self.surd == 0:
            raise DivisionByZero("inverse of zero")
        if self.surd == 0:
            return QuadExt(1 / self.rat)
        norm = self.rat * self.rat - self.surd * self.surd * self.disc
        # norm == 0 would force sqrt(disc) rational, impossible for
        # square-free disc >= 2 unless the value itself is zero.
        return QuadExt(self.rat / norm, -self.surd / norm, self.disc)

    def __truediv__(self, other):
        try:
            a, b = self._merge(other)
        except TypeError:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExt(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.rat, -self.surd, self.disc)

    # -- ordering ---------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.rat, self.surd, self.disc)

    def __eq__(self, other):
        try:
            a, b = self._merge(other)
        except (TypeError, DiscMismatch):
            return NotImplemented if not isinstance(other, QuadExt) else False
        return a.rat == b.rat and a.surd == b.surd

    def __lt__(self, other):
        try:
            a, b = self._merge(other)
        except TypeError:
            return NotImplemented
        if a.surd == b.surd:
            return a.rat < b.rat
        return _sign(a.rat - b.rat, a.surd - b.surd, a.disc or b.disc) < 0

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rat, self.surd, self.disc)) if self.disc else hash(self.rat)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return self.rat != 0 or self.surd != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- views ------------------------------------------------------------

    def is_rational(self) -> bool:
        return self.surd == 0

    def is_rational_integer(self) -> bool:
        return self.surd == 0 and self.rat.denominator == 1

    def __float__(self):
        out = float(self.rat)
        if self.surd:
            out += float(self.surd) * math.sqrt(self.disc)
        return out

    def __str__(self):
        if self.surd == 0:
            return _fmt_frac(self.rat)
        surd_part = f"{_fmt_frac(self.surd)}*sqrt({self.disc})"
        if self.rat == 0:
            return surd_part
        joiner = "+" if self.surd > 0 else ""
        return f"{_fmt_frac(self.rat)}{joiner}{surd_part}"

    def __repr__(self):
        return f"QuadExt({str(self)!r})"


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 d exactly
    t = a * a - b * b * d
    s = (t > 0) - (t < 0)
    return s if a > 0 else -s


def _fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_parts(text: str) -> tuple[Fraction, Fraction, int]:
    m = _RE_RATIONAL.match(text)
    if m:
        return Fraction(m.group(1)), Fraction(0), 0
    m = _RE_SURD.match(text)
    if m:
        return Fraction(0), Fraction(m.group(1)), int(m.group(2))
    m = _RE_FULL.match(text)
    if m:
        return Fraction(m.group(1)), Fraction(m.group(2)), int(m.group(3))
    raise ValueError(f"not a valid exact-number literal: {text!r}")


def compare(x, y) -> int:
    """Exact three-way comparison: -1, 0 or 1."""
    diff = QuadExt(x) - y if isinstance(x, (int, Fraction, str)) else x - y
    return diff.sign()


def is_rational_integer(x) -> bool:
    return QuadExt(x).is_rational_integer() if not isinstance(x, QuadExt) else x.is_rational_integer()
