"""Gram matrices, dual forms and the cyclic-product arithmeticity test."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

from .coxeter import GramMatrix
from .errors import PackingLabError, ParameterError
from .exactnum import ONE, ZERO, QuadExt
from .inversive import InversiveVector, ReflectionMatrix, inversive_product
from . import linalg


class SingularGram(PackingLabError):
    pass


class SingularCluster(PackingLabError):
    pass


def gram_matrix(walls: Sequence[InversiveVector]) -> GramMatrix:
    """All pairwise inversive products; diagonal -1 for valid walls."""
    k = len(walls)
    rows = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = inversive_product(walls[i], walls[i])
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = inversive_product(walls[i], walls[j])
    return GramMatrix.from_rows(rows)


def dual_form(gram: GramMatrix) -> GramMatrix:
    """Exact inverse of the Gram matrix; bends vectors are isotropic for it."""
    try:
        inv = linalg.inverse(gram.entries)
    except linalg.SingularMatrix as exc:
        raise SingularGram(str(exc)) from None
    return GramMatrix(inv, frozenset(), signature_hint="(1,n+1)")


def is_rational_matrix(gram: GramMatrix) -> bool:
    return all(x.is_rational() for row in gram.entries for x in row)


def bends_vector(walls: Sequence[InversiveVector]) -> tuple[QuadExt, ...]:
    return tuple(w.bend for w in walls)


def bends_conjugate(
    reflection: ReflectionMatrix, walls: Sequence[InversiveVector]
) -> linalg.Matrix:
    """Action of a reflection on the bends coordinates: V M V^-1 for the
    cluster matrix V.  Needs as many independent walls as coordinates."""
    v = linalg.matrix([w.coords() for w in walls])
    if len(v) != len(v[0]):
        raise SingularCluster(f"need {len(v[0])} walls, got {len(v)}")
    try:
        v_inv = linalg.inverse(v)
    except linalg.SingularMatrix:
        raise SingularCluster("cluster walls are linearly dependent") from None
    return linalg.mat_mul(linalg.mat_mul(v, reflection.entries), v_inv)


@dataclass(frozen=True)
class VinbergVerdict:
    """Outcome of the cyclic-product scan over the doubled Gram matrix."""

    max_len: int
    witness_cycle: tuple[int, ...] | None = None
    product: QuadExt | None = None

    @property
    def non_arithmetic(self) -> bool:
        return self.witness_cycle is not None

    def __str__(self):
        if self.non_arithmetic:
            cycle = ",".join(str(i + 1) for i in self.witness_cycle)
            return f"NonArithmetic(cycle=({cycle}), product={self.product})"
        return f"PassesUpTo({self.max_len})"


def vinberg_test(gram: GramMatrix, max_len: int = 8) -> VinbergVerdict:
    """Scan cyclic products of 2*Gram for a non-integer value.

    Cycles run over distinct indices, length 2 through max_len, deduplicated
    by rotation and reflection.  They are scanned by length, then by vertex
    set in lexicographic order, then by the order of the cycle through that
    set, and the first violation is the reported witness: (0,1,3,2) comes
    before (0,1,2,4).  A pass is only a semi-decision up to max_len.
    """
    if max_len < 2:
        raise ParameterError("max_len must be at least 2")
    k = gram.size
    doubled = [[x * 2 for x in row] for row in gram.entries]
    nonzero = [[bool(doubled[i][j]) for j in range(k)] for i in range(k)]

    def cycle_product(cycle: tuple[int, ...]) -> QuadExt | None:
        prod = ONE
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not nonzero[a][b]:
                return None
            prod = prod * doubled[a][b]
        return prod

    for length in range(2, max_len + 1):
        for subset in combinations(range(k), length):
            first, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # each undirected cycle once
                prod = cycle_product((first,) + perm)
                if prod is not None and not prod.is_rational_integer():
                    return VinbergVerdict(max_len, (first,) + perm, prod)
    return VinbergVerdict(max_len)
