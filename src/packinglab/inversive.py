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
common denominator (encode).  The code is canonical, so the orbit kernel uses
it as its dedup key and runs its reflections on it.  Q(v) = -1 is decided on
the code alone, by q_is_minus_one and nowhere else: InversiveVector.validate
asks it for one vector, for reflection_matrix and the document loaders, and
verify_realization asks it for the codes it has already built.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import PackingLabError
from .exactnum import ONE, ZERO, DiscMismatch, QuadExt, from_triple
from . import linalg
from .linalg import Matrix, as_quad

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
        """Image of self under inversion through wall (right action v + 2<v,s>s)."""
        p = inversive_product(self, wall) * 2
        return InversiveVector(
            self.cobend + p * wall.cobend,
            self.bend + p * wall.bend,
            tuple(x + p * y for x, y in zip(self.bz, wall.bz)),
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


def field_disc(values: Iterable[QuadExt]) -> int:
    """The one square-free d > 0 among the values' fields, or 0 if all are
    rational; two different nonzero discriminants raise DiscMismatch."""
    d = 0
    for x in values:
        if x.disc and x.disc != d:
            if d:
                raise DiscMismatch(f"sqrt({d}) vs sqrt({x.disc})")
            d = x.disc
    return d


def encode(values: Sequence[QuadExt]) -> tuple[int, ...]:
    """(a_0, b_0, ..., a_k, b_k, den): value j is (a_j + b_j sqrt(d)) / den.

    Each value's QuadExt triple (a, b, q) is put over the least common
    denominator, so the numerators and den share no factor and the tuple is
    canonical.  Every value must lie in one field.
    """
    triples = [x.triple for x in values]
    den = lcm(*(q for _, _, q in triples))
    out = []
    for a, b, q in triples:
        f = den // q
        out += (a * f, b * f)
    out.append(den)
    return tuple(out)


def _decoder(d: int):
    """Encoded tuple -> tuple of QuadExt, memoized per coordinate."""
    cache: dict[tuple[int, int, int], QuadExt] = {}

    def decode(code: tuple[int, ...]) -> tuple[QuadExt, ...]:
        den = code[-1]
        out = []
        for j in range(0, len(code) - 1, 2):
            key = (code[j], code[j + 1], den)
            x = cache.get(key)
            if x is None:
                x = cache[key] = from_triple(*key, d)
            out.append(x)
        return tuple(out)

    return decode


def q_is_minus_one(code: tuple[int, ...], d: int) -> bool:
    """Q(v) == -1 for an encoded inversive vector: cobend*bend - |bz|^2."""
    den = code[-1]
    a0, b0, a1, b1 = code[:4]
    qa = a0 * a1 + d * b0 * b1
    qb = a0 * b1 + b0 * a1
    for j in range(4, len(code) - 1, 2):
        a, b = code[j], code[j + 1]
        qa -= a * a + d * b * b
        qb -= 2 * a * b
    return qa == -den * den and qb == 0


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
    if u.dim != v.dim:
        raise InvalidWall("mixed ambient dimensions")
    out = (u.cobend * v.bend + u.bend * v.cobend) * _HALF
    return out - sum((x * y for x, y in zip(u.bz, v.bz)), ZERO)


def q_matrix(n: int) -> Matrix:
    """The (n+2)x(n+2) form: antidiagonal 1/2 block, then -Identity."""
    k = n + 2
    rows = [[ZERO] * k for _ in range(k)]
    rows[0][1] = rows[1][0] = _HALF
    for i in range(2, k):
        rows[i][i] = -ONE
    return tuple(tuple(row) for row in rows)


class ReflectionMatrix:
    """Right-action matrix of the inversion through one wall."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries: Matrix, dim: int):
        self.entries = entries
        self.dim = dim

    def apply(self, v: InversiveVector) -> InversiveVector:
        return InversiveVector.from_coords(linalg.vec_mat(v.coords(), self.entries))

    def preserves_form(self) -> bool:
        q = q_matrix(self.dim)
        lhs = linalg.mat_mul(
            linalg.mat_mul(self.entries, q), linalg.transpose(self.entries)
        )
        return lhs == q


def reflection_matrix(wall: InversiveVector) -> ReflectionMatrix:
    """I + 2 Q s^T s for a wall s with Q(s) = -1; an exact involution."""
    if not wall.validate():
        raise InvalidWall("wall does not satisfy Q(v) = -1")
    s = wall.coords()
    k = len(s)
    qs = [s[1] * _HALF, s[0] * _HALF] + [-x for x in s[2:]]
    ident = linalg.identity(k)
    entries = tuple(
        tuple(ident[i][j] + 2 * qs[i] * s[j] for j in range(k)) for i in range(k)
    )
    return ReflectionMatrix(entries, wall.dim)
