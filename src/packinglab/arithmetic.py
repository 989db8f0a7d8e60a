"""Gram matrices, dual forms and the cyclic-product arithmeticity test."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .coxeter import GramMatrix
from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt, encode, field_disc, from_triple
from .inversive import InversiveVector, ReflectionMatrix, _pair_field, _product_numerator
from . import linalg
from .linalg import IntMatrix


class SingularGram(PackingLabError):
    pass


class SingularCluster(PackingLabError):
    pass


def gram_matrix(walls: Sequence[InversiveVector]) -> GramMatrix:
    """All pairwise inversive products; diagonal -1 for valid walls.  Each
    wall is encoded once, and each product is taken on the codes."""
    codes = []
    for w in walls:
        coords = w.coords()
        codes.append((encode(coords), field_disc(coords)))
    k = len(codes)
    rows = [[None] * k for _ in range(k)]
    for i, (u, du) in enumerate(codes):
        for j in range(i, k):
            v, dv = codes[j]
            d = _pair_field(u, du, v, dv)
            rows[i][j] = rows[j][i] = from_triple(*_product_numerator(u, v, d), 2 * u[-1] * v[-1], d)
    return GramMatrix(tuple(map(tuple, rows)))


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
    cluster matrix V, computed on the int form.  Needs as many independent
    walls as coordinates."""
    rows = [w.coords() for w in walls]
    if len(rows) != len(rows[0]):
        raise SingularCluster(f"need {len(rows[0])} walls, got {len(rows)}")
    v = IntMatrix.encode(rows)
    try:
        v_inv = v.inverse()
    except linalg.SingularMatrix:
        raise SingularCluster("cluster walls are linearly dependent") from None
    return (v @ reflection.code @ v_inv).decode()


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

    The entries must lie in one field Q(sqrt(d)) (DiscMismatch before the
    scan otherwise), and the doubled entries are int triples.  Each vertex
    set is walked depth-first (_cycles) in the order itertools.permutations
    gives its other vertices: a prefix's product is shared by every cycle
    that extends it, and a zero edge prunes them all.  A set of three or more
    vertices is skipped, with no walk, when one of its vertices has fewer
    than two nonzero edges inside it.  Only the witness's product becomes a
    QuadExt.
    """
    if type(max_len) is not int:
        raise ParameterError(f"max_len must be an int, not {type(max_len).__name__}")
    if max_len < 2:
        raise ParameterError("max_len must be at least 2")
    d = field_disc([x for row in gram.entries for x in row])
    edges = [[(x * 2).triple if x else None for x in row] for row in gram.entries]
    loose = []
    for length in range(2, max_len + 1):
        if length == 3:
            # bit u of near[v]: a nonzero edge v-u; only a vertex with a zero
            # edge can have fewer than two edges inside a set of three or more
            near = [sum(1 << u for u, e in enumerate(row) if e is not None and u != v) for v, row in enumerate(edges)]
            loose = [v for v in range(gram.size) if near[v] | 1 << v != (1 << gram.size) - 1]
        for subset in combinations(range(gram.size), length):
            if loose:
                inside = sum(1 << v for v in subset)
                if any((near[v] & inside).bit_count() < 2 for v in loose if inside >> v & 1):
                    continue  # a cycle through every vertex needs two edges at each
            for cycle, (a, b, q) in _cycles(edges, d, subset):
                if b or a % q:
                    return VinbergVerdict(max_len, cycle, from_triple(a, b, q, d))
    return VinbergVerdict(max_len)


def _cycles(edges, d: int, subset: tuple[int, ...]):
    """Every cycle through the vertex set whose edges are all nonzero, with
    the product (a, b, q) of its edges' triples, (a + b*sqrt(d)) / q
    unreduced.

    A cycle starts at subset[0] and runs through the rest of the set in the
    order of itertools.permutations, each undirected cycle once: its second
    vertex is below its last, or the set has two vertices.
    """
    first = subset[0]

    def walk(path, left, a, b, q):
        prev = path[-1]
        for i, v in enumerate(left):
            e = edges[prev][v]
            if e is None:
                continue  # a zero edge ends every cycle through it
            ea, eb, eq = e
            na, nb, nq = a * ea + d * b * eb, a * eb + b * ea, q * eq
            if len(left) == 1:
                closing = edges[v][first]
                if closing is None or (len(path) > 1 and path[1] > v):
                    continue
                ea, eb, eq = closing
                yield path + (v,), (na * ea + d * nb * eb, na * eb + nb * ea, nq * eq)
                continue
            rest = left[:i] + left[i + 1 :]
            if rest[-1] > (path[1] if len(path) > 1 else v):  # some last vertex is above the second
                yield from walk(path + (v,), rest, na, nb, nq)

    return walk((first,), subset[1:], 1, 0, 1)
