"""Small dense matrices over QuadExt, stored as nested tuples."""

from __future__ import annotations

from .errors import PackingLabError
from .exactnum import ONE, ZERO, QuadExt

Matrix = tuple[tuple[QuadExt, ...], ...]
Vector = tuple[QuadExt, ...]


class SingularMatrix(PackingLabError):
    pass


def as_quad(x) -> QuadExt:
    return x if isinstance(x, QuadExt) else QuadExt(x)


def vector(entries) -> Vector:
    return tuple(as_quad(x) for x in entries)


def matrix(rows) -> Matrix:
    return tuple(vector(row) for row in rows)


def identity(k: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k)
    )


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
        for row in a
    )


def vec_mat(v: Vector, m: Matrix) -> Vector:
    return tuple(
        sum((v[i] * m[i][j] for i in range(len(v))), ZERO)
        for j in range(len(m[0]))
    )


def inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan over the exact field; raises SingularMatrix."""
    k = len(m)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(m, identity(k))]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)

