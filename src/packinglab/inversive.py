"""Inversive coordinates for oriented spheres, planes and their reflections.

An oriented (n-1)-sphere in R^n is the row vector v = (cobend, bend, bend*z)
where bend = 1/r and z is the center; a plane with unit normal nhat and
equation x . nhat = c is (2c, 0, nhat).  Every wall satisfies Q(v) = -1 for
the bilinear form with Q[0][1] = Q[1][0] = 1/2 and -Identity on the spatial
block.  The product of two walls reads off their relative position:

    -1 same wall, 1 externally tangent, 0 orthogonal, > 1 disjoint,
    cos(theta) at intersection angle theta.

The int code.  An InversiveVector holds two things: its code, the tuple of
its coordinates' QuadExt triples over one least common denominator,
(a_0, b_0, ..., a_k, b_k, den), and d, the square-free discriminant of the
one field Q(sqrt(d)) of its coordinates (0 when all are rational).  The
constructor encodes once (exactnum.encode, below linalg, whose IntMatrix
rows are the same code); from_code wraps a code that is canonical already,
as every reflection and packing row is.  The code is canonical, so it is
the vector's equality and hash, the orbit kernel's dedup key and a row of a
Packing; cobend, bend, bz and coords() decode it on each read.  Q(v) = -1 is
decided on the code alone, by q_is_minus_one and nowhere else: validate asks
it for one wall, the document loader for every vector of a document at
once.  Every product of two walls is _product on their codes:
inversive_product (and arithmetic.gram_matrix through it), reflect and
verify_realization.  reflection_matrix builds I + 2 Q s^T s on the wall's
code, and a ReflectionMatrix keeps that int form, so apply multiplies codes
(IntMatrix.left_mul) and preserves_form multiplies M Q M^T on it; its
QuadExt entries are decoded on their first read.
"""

from __future__ import annotations

import numpy as np

from .errors import PackingLabError, ParameterError
from .exactnum import ONE, ZERO, QuadExt, _field, decode, dtype_under, encode, field_disc, from_triple, max_abs
from .exactnum import reduce_code
from .linalg import IntMatrix, Matrix, as_quad

_HALF = ONE / 2


class ZeroRadius(PackingLabError):
    pass


class NonUnitNormal(PackingLabError):
    pass


class InvalidWall(PackingLabError):
    pass


class InversiveVector:
    """One oriented wall; an immutable value held as its int code and field."""

    __slots__ = ("code", "d")

    def __init__(self, cobend, bend, bz):
        coords = (as_quad(cobend), as_quad(bend), *map(as_quad, bz))
        _set_d(self, field_disc([x._d for x in coords]))
        _set_code(self, encode(coords))

    def __setattr__(self, name, value):
        raise AttributeError("InversiveVector is immutable")

    @classmethod
    def from_coords(cls, coords) -> "InversiveVector":
        coords = list(coords)
        return cls(coords[0], coords[1], coords[2:])

    @classmethod
    def from_code(cls, code, d: int) -> "InversiveVector":
        """The vector with canonical int code `code` (gcd 1, den > 0) in
        Q(sqrt(d)), unchecked; d becomes 0 when the code has no surd part."""
        v = _new(cls)
        _set_code(v, tuple(code))
        _set_d(v, d if d and any(v.code[1:-1:2]) else 0)
        return v

    @property
    def cobend(self) -> QuadExt:
        return from_triple(*self.code[0:2], self.code[-1], self.d)

    @property
    def bend(self) -> QuadExt:
        return from_triple(*self.code[2:4], self.code[-1], self.d)

    @property
    def bz(self) -> tuple[QuadExt, ...]:
        return self.coords()[2:]

    @property
    def dim(self) -> int:
        return len(self.code) // 2 - 2

    def coords(self) -> tuple[QuadExt, ...]:
        return decode(self.code, self.d)

    def is_plane(self) -> bool:
        return not (self.code[2] or self.code[3])

    def center(self) -> tuple[QuadExt, ...]:
        if self.is_plane():
            raise ZeroRadius("a plane has no center")
        inv = self.bend.inverse()
        return tuple(x * inv for x in self.bz)

    def radius(self) -> QuadExt:
        """Signed radius; negative for an outward-oriented sphere."""
        if self.is_plane():
            raise ZeroRadius("a plane has no radius")
        return self.bend.inverse()

    def validate(self) -> bool:
        """Q(v) == -1, decided on the int code."""
        return q_is_minus_one(self.code, self.d)

    def reflect(self, wall: "InversiveVector") -> "InversiveVector":
        """Image of self under inversion through wall (right action v + 2<v,s>s).

        On the codes u/du and s/ds, 2<v,s> = (na + nb sqrt(d)) / (du ds),
        so coordinate j is (u_j ds^2 + (na + nb sqrt(d)) s_j) / (du ds^2).
        """
        u, s = self.code, wall.code
        na, nb, _, d = _product(self, wall)
        sq = s[-1] * s[-1]
        nums = []
        for ua, ub, sa, sb in zip(u[0:-1:2], u[1:-1:2], s[0:-1:2], s[1:-1:2]):
            nums += (ua * sq + na * sa + d * nb * sb, ub * sq + na * sb + nb * sa)
        return InversiveVector.from_code(reduce_code(nums, u[-1] * sq), d)

    def __neg__(self):
        return InversiveVector.from_code((*(-x for x in self.code[:-1]), self.code[-1]), self.d)

    def __eq__(self, other):
        if not isinstance(other, InversiveVector):
            return NotImplemented
        return self.code == other.code and self.d == other.d

    def __hash__(self):
        return hash((self.code, self.d))

    def __repr__(self):
        return f"InversiveVector({self.cobend}, {self.bend}, {list(map(str, self.bz))})"


_new = object.__new__
_set_code = InversiveVector.code.__set__
_set_d = InversiveVector.d.__set__


def decode_rows(codes: np.ndarray, d: int) -> list[InversiveVector]:
    """The InversiveVectors of an array of canonical int codes in Q(sqrt(d))."""
    return [InversiveVector.from_code(row, d) for row in codes.tolist()]


def q_is_minus_one(code, d: int):
    """Q(v) == -1 for an encoded inversive vector: the product of v with
    itself is Q(v), as a numerator over 2*den**2.

    code may also be the columns of many codes (codes.T of an int64 or
    object array), as _product_numerator works elementwise; the answer is
    then a bool array.  Its terms sum to at most 4 (1 + d) k M^2 in absolute
    value for k coordinates with entries up to M, and int64 columns over
    that bound are checked on Python ints.
    """
    if isinstance(code, np.ndarray):
        code = code.astype(dtype_under(4 * (1 + d) * (len(code) // 2) * max_abs(code) ** 2), copy=False)
    den = code[-1]
    na, nb = _product_numerator(code, code, d)
    return (na == -2 * den * den) & (nb == 0)


def sphere_from_center_radius(center, radius) -> InversiveVector:
    """Oriented sphere; a negative radius flips the interior to the outside."""
    r = as_quad(radius)
    if not r:
        raise ZeroRadius("radius must be nonzero")
    center = [as_quad(x) for x in center]
    bend = r.inverse()
    norm2 = sum((x * x for x in center), ZERO)
    return InversiveVector(bend * norm2 - r, bend, [bend * x for x in center])


def plane_from_normal_offset(normal, offset) -> InversiveVector:
    normal = [as_quad(x) for x in normal]
    if sum((x * x for x in normal), ZERO) != 1:
        raise NonUnitNormal("normal must have exact unit length")
    return InversiveVector(as_quad(offset) * 2, 0, normal)


def inversive_product(u: InversiveVector, v: InversiveVector) -> QuadExt:
    return from_triple(*_product(u, v))


def _product(u: InversiveVector, v: InversiveVector) -> tuple[int, int, int, int]:
    """<u, v> = (a + b*sqrt(d)) / den as (a, b, den, d), unreduced, on the
    codes; walls of two dimensions raise InvalidWall, two fields DiscMismatch."""
    if len(u.code) != len(v.code):
        raise InvalidWall("mixed ambient dimensions")
    cu, cv, d = u.code, v.code, _field(u.d, v.d)
    return (*_product_numerator(cu, cv, d), 2 * cu[-1] * cv[-1], d)


def _product_numerator(u: tuple[int, ...], v: tuple[int, ...], d: int) -> tuple[int, int]:
    """The inversive product of two int codes over one field Q(sqrt(d)) as
    (a, b), for the value (a + b*sqrt(d)) / (2*den_u*den_v)."""
    a0, b0, a1, b1 = u[:4]
    c0, e0, c1, e1 = v[:4]
    na = a0 * c1 + a1 * c0 + d * (b0 * e1 + b1 * e0)
    nb = a0 * e1 + b0 * c1 + a1 * e0 + b1 * c0
    for j in range(4, len(u) - 1, 2):
        a, b, c, e = u[j], u[j + 1], v[j], v[j + 1]
        na -= 2 * (a * c + d * b * e)
        nb -= 2 * (a * e + b * c)
    return na, nb


def q_matrix(n: int) -> Matrix:
    """The (n+2)x(n+2) form: antidiagonal 1/2 block, then -Identity."""
    k = n + 2
    rows = [[ZERO] * k for _ in range(k)]
    rows[0][1] = rows[1][0] = _HALF
    for i in range(2, k):
        rows[i][i] = -ONE
    return tuple(tuple(row) for row in rows)


class ReflectionMatrix:
    """Right-action matrix of the inversion through one wall: its int form
    (linalg.IntMatrix), and its QuadExt entries, given or else decoded from
    the int form on their first read and kept."""

    __slots__ = ("_entries", "dim", "code")

    def __init__(self, entries: Matrix | None, dim: int, code: IntMatrix | None = None):
        self._entries = entries
        self.dim = dim
        self.code = IntMatrix.encode(entries) if code is None else code
        k, rows = dim + 2, self.code.rows
        if len(rows) != k or (rows and len(rows[0]) != 2 * k):
            shape = f"{len(rows)}x{len(rows[0]) // 2 if rows else 0}"
            raise ParameterError(f"a reflection in dimension {dim} needs a {k}x{k} matrix, not {shape}")

    @property
    def entries(self) -> Matrix:
        if self._entries is None:
            self._entries = self.code.decode()
        return self._entries

    def apply(self, v: InversiveVector) -> InversiveVector:
        if v.dim != self.dim:
            raise InvalidWall("mixed ambient dimensions")
        d = _field(v.d, self.code.d)
        return InversiveVector.from_code(self.code.left_mul(v.code, d), d)

    def preserves_form(self) -> bool:
        """M Q M^T == Q, on the int form."""
        q = IntMatrix.encode(q_matrix(self.dim))
        lhs = self.code @ q @ self.code.transpose()
        return (lhs.rows, lhs.den) == (q.rows, q.den)


def reflection_matrix(wall: InversiveVector) -> ReflectionMatrix:
    """I + 2 Q s^T s for a wall s with Q(s) = -1; an exact involution.

    On the wall's code c/den, 2 Q s is (c_1, c_0, -2 c_2, ...)/den, so entry
    (i, j) is (delta_ij den^2 + (2 Q c)_i c_j) / den^2 in pair arithmetic.
    """
    if not wall.validate():
        raise InvalidWall("wall does not satisfy Q(v) = -1")
    code, d = wall.code, wall.d
    sq = code[-1] * code[-1]
    pairs = list(zip(code[0:-1:2], code[1:-1:2]))
    twice_qs = [pairs[1], pairs[0]] + [(-2 * a, -2 * b) for a, b in pairs[2:]]
    rows = []
    for i, (ta, tb) in enumerate(twice_qs):
        row = []
        for j, (a, b) in enumerate(pairs):
            row += (ta * a + d * tb * b + (sq if i == j else 0), ta * b + tb * a)
        rows.append(row)
    m = IntMatrix(rows, sq, d)
    return ReflectionMatrix(None, wall.dim, m)
