"""Inversive coordinates for oriented spheres, planes and their reflections.

An oriented (n-1)-sphere in R^n is the row vector v = (cobend, bend, bend*z)
where bend = 1/r and z is the center; a plane with unit normal nhat and
equation x . nhat = c is (2c, 0, nhat).  Every wall satisfies Q(v) = -1 for
the bilinear form with Q[0][1] = Q[1][0] = 1/2 and -Identity on the spatial
block.  The product of two walls reads off their relative position:

    -1 same wall, 1 externally tangent, 0 orthogonal, > 1 disjoint,
    cos(theta) at intersection angle theta.
"""

from __future__ import annotations

from .errors import PackingLabError
from .exactnum import ONE, ZERO, QuadExt
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

    def q_norm(self) -> QuadExt:
        return self.cobend * self.bend - sum(
            (x * x for x in self.bz), ZERO
        )

    def validate(self) -> bool:
        return self.q_norm() == -1

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
