"""Inversive coordinates for oriented spheres, planes and their reflections.

An oriented (n-1)-sphere in R^n is the row vector v = (cobend, bend, bend*z)
where bend = 1/r and z is the center; a plane with unit normal nhat and
equation x . nhat = c is (2c, 0, nhat).  Every wall satisfies Q(v) = -1 for
the bilinear form with Q[0][1] = Q[1][0] = 1/2 and -Identity on the spatial
block.  The product of two walls reads off their relative position:

    -1 same wall, 1 externally tangent, 0 orthogonal, > 1 disjoint,
    cos(theta) at intersection angle theta.

The int code: a vector whose coordinates lie in one field Q(sqrt(d))
(field_disc) is the tuple of its coordinates' QuadExt triples over one least
common denominator (encode, and encode_rows for many vectors at once; both
live in exactnum, below linalg, whose IntMatrix rows are the same code).
The code is canonical, so the orbit kernel uses it as its dedup key and runs
its reflections on it, and a Packing holds its spheres as an array of codes.
Q(v) = -1 is decided on the code alone, by q_is_minus_one and nowhere else:
InversiveVector.validate asks it for one vector, the document loader for
the columns of every vector of a document at once, and reflection_matrix
and verify_realization for the codes they have already built.  Every
product of two walls is _product_numerator on their codes:
inversive_product, InversiveVector.reflect, arithmetic.gram_matrix and
verify_realization.  reflection_matrix builds I + 2 Q s^T s on the wall's
code, and a ReflectionMatrix keeps that int form beside its QuadExt
entries, so apply encodes only the vector and preserves_form multiplies
M Q M^T on it.  QuadExt values are built once, at each function's return;
decode_rows builds the InversiveVectors of an array of codes, for
Packing.spheres and the walls of a loaded system.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .errors import PackingLabError
from .exactnum import ONE, ZERO, QuadExt, _field, dtype_under, encode, field_disc, from_triple, max_abs
from .linalg import IntMatrix, Matrix, as_quad

_HALF = ONE / 2


class ZeroRadius(PackingLabError):
    pass


class NonUnitNormal(PackingLabError):
    pass


class InvalidWall(PackingLabError):
    pass


class InversiveVector:
    """One oriented wall; immutable value type keyed on its exact coordinates."""

    __slots__ = ("cobend", "bend", "bz")

    def __init__(self, cobend, bend, bz):
        object.__setattr__(self, "cobend", as_quad(cobend))
        object.__setattr__(self, "bend", as_quad(bend))
        object.__setattr__(self, "bz", tuple(as_quad(x) for x in bz))

    def __setattr__(self, name, value):
        raise AttributeError("InversiveVector is immutable")

    @classmethod
    def from_coords(cls, coords) -> "InversiveVector":
        coords = list(coords)
        return cls(coords[0], coords[1], coords[2:])

    @property
    def dim(self) -> int:
        return len(self.bz)

    def coords(self) -> tuple[QuadExt, ...]:
        return (self.cobend, self.bend) + self.bz

    def is_plane(self) -> bool:
        return not self.bend

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
        """Q(v) == -1, decided on the int code; coordinates in two different
        quadratic fields raise DiscMismatch."""
        coords = self.coords()
        return q_is_minus_one(encode(coords), field_disc(coords))

    def reflect(self, wall: "InversiveVector") -> "InversiveVector":
        """Image of self under inversion through wall (right action v + 2<v,s>s).

        On the codes u/du and s/ds, 2<v,s> = (na + nb sqrt(d)) / (du ds),
        so coordinate j is (u_j ds^2 + (na + nb sqrt(d)) s_j) / (du ds^2).
        """
        u, s, d = _codes(self, wall)
        na, nb = _product_numerator(u, s, d)
        sq = s[-1] * s[-1]
        den = u[-1] * sq
        return InversiveVector.from_coords(
            from_triple(ua * sq + na * sa + d * nb * sb, ub * sq + na * sb + nb * sa, den, d)
            for ua, ub, sa, sb in zip(u[0:-1:2], u[1:-1:2], s[0:-1:2], s[1:-1:2])
        )

    def __neg__(self):
        return InversiveVector(-self.cobend, -self.bend, tuple(-x for x in self.bz))

    def __eq__(self, other):
        if not isinstance(other, InversiveVector):
            return NotImplemented
        return self.coords() == other.coords()

    def __hash__(self):
        return hash(self.coords())

    def __repr__(self):
        return f"InversiveVector({self.cobend}, {self.bend}, {list(map(str, self.bz))})"


def decode_rows(codes: np.ndarray, d: int) -> list[InversiveVector]:
    """The InversiveVectors of an array of int codes in Q(sqrt(d)), with one
    QuadExt per distinct coordinate triple (a, b, den)."""
    cache: dict[tuple[int, int, int], QuadExt] = {}
    out = []
    for row in codes.tolist():
        coords = []
        for key in zip(row[0:-1:2], row[1:-1:2], repeat(row[-1])):
            x = cache.get(key)
            if x is None:
                x = cache[key] = from_triple(*key, d)
            coords.append(x)
        out.append(InversiveVector.from_coords(coords))
    return out


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
    cu, cv, d = _codes(u, v)
    na, nb = _product_numerator(cu, cv, d)
    return from_triple(na, nb, 2 * cu[-1] * cv[-1], d)


def _codes(u: InversiveVector, v: InversiveVector) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The int codes of two walls and the field of their product."""
    cu, cv = u.coords(), v.coords()
    eu, ev = encode(cu), encode(cv)
    return eu, ev, _pair_field(eu, field_disc(cu), ev, field_disc(cv))


def _pair_field(u: tuple[int, ...], du: int, v: tuple[int, ...], dv: int) -> int:
    """The field of the product of two codes in Q(sqrt(du)) and Q(sqrt(dv));
    codes of two dimensions raise InvalidWall, two fields DiscMismatch."""
    if len(u) != len(v):
        raise InvalidWall("mixed ambient dimensions")
    return _field(du, dv)


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
    """Right-action matrix of the inversion through one wall: its QuadExt
    entries and their int form (linalg.IntMatrix), built once."""

    __slots__ = ("entries", "dim", "code")

    def __init__(self, entries: Matrix, dim: int, code: IntMatrix | None = None):
        self.entries = entries
        self.dim = dim
        self.code = IntMatrix.encode(entries) if code is None else code

    def apply(self, v: InversiveVector) -> InversiveVector:
        coords = v.coords()
        return InversiveVector.from_coords(self.code.left_mul(encode(coords), field_disc(coords)))

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
    s = wall.coords()
    d = field_disc(s)
    code = encode(s)
    if not q_is_minus_one(code, d):
        raise InvalidWall("wall does not satisfy Q(v) = -1")
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
    return ReflectionMatrix(m.decode(), wall.dim, m)
