"""Gram matrices, dual forms and the cyclic-product arithmeticity test.

vinberg_test decides Vinberg's criterion, that every cyclic product of 2G
is a rational integer, up to a cycle length: once the 2-cycles pass, a
cycle fails exactly when it has an odd number of surd edges, so a search on
(wall, surd parity) replaces the enumeration of every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm
from typing import Sequence

from .coxeter import GramMatrix, check_square, check_symmetric
from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt, field_disc, from_triple
from .inversive import InversiveVector, ReflectionMatrix, inversive_product
from . import linalg
from .linalg import IntMatrix


class SingularGram(PackingLabError):
    pass


class SingularCluster(PackingLabError):
    pass


def gram_matrix(walls: Sequence[InversiveVector]) -> GramMatrix:
    """All pairwise inversive products, each taken on the walls' codes;
    diagonal -1 for valid walls."""
    walls = list(walls)
    k = len(walls)
    rows = [[None] * k for _ in range(k)]
    for i, u in enumerate(walls):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = inversive_product(u, walls[j])
    return GramMatrix(tuple(map(tuple, rows)))


def dual_form(gram: GramMatrix) -> GramMatrix:
    """Exact inverse of a symmetric Gram matrix; bends vectors are isotropic for
    it.  A singular matrix is refused before an asymmetric one."""
    check_square(gram.entries)
    try:
        inv = linalg.inverse(gram.entries)
    except linalg.SingularMatrix as exc:
        raise SingularGram(str(exc)) from None
    check_symmetric(gram.entries)
    return GramMatrix(inv, frozenset(), signature_hint="(1,n+1)")


def bends_vector(walls: Sequence[InversiveVector]) -> tuple[QuadExt, ...]:
    return tuple(w.bend for w in walls)


def bends_conjugate(
    reflection: ReflectionMatrix, walls: Sequence[InversiveVector]
) -> linalg.Matrix:
    """Action of a reflection on the bends coordinates: V M V^-1 for the
    cluster matrix V, computed on the int form.  Needs as many independent
    walls as coordinates."""
    if len(walls) != walls[0].dim + 2:
        raise SingularCluster(f"need {walls[0].dim + 2} walls, got {len(walls)}")
    den = lcm(*(w.code[-1] for w in walls))
    rows = [[x * (den // w.code[-1]) for x in w.code[:-1]] for w in walls]
    v = IntMatrix(rows, den, field_disc(w.d for w in walls))
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
    """Decide whether every cyclic product of 2*Gram through at most max_len
    walls is a rational integer, and name the first one that is not.

    Cycles run over distinct indices, deduplicated by rotation and
    reflection, in the order of the full scan: by length, then by vertex set
    in lexicographic order, then by the order of the cycle through that set
    (_cycles).  The first violation in that order is the reported witness:
    (0,1,3,2) comes before (0,1,2,4).

    The entries must lie in one field Q(sqrt(d)) (DiscMismatch otherwise)
    and the matrix must be symmetric (ParameterError naming the first
    asymmetric pair otherwise).  The doubled entries are int triples, and
    the decision takes two steps on them:

    1. The 2-cycles are scanned; a violation there is the witness.
    2. Once every (2g)^2 is an integer, each nonzero 2g is an integer or an
       integer times sqrt(d): a rational whose square is an integer is an
       integer, r^2*d in Z forces r in Z for square-free d, and a + b*sqrt(d)
       with a*b != 0 has an irrational square.  A cycle's product is then a
       nonzero integer times sqrt(d)^s, s its number of surd edges, and it
       fails exactly when s is odd.  _odd_surd_length finds the length L of
       the shortest such cycle; no shorter cycle fails, so only the vertex
       sets of length L are scanned for the witness, and none when L is
       above max_len or no such cycle exists.

    The verdict is the one the full scan of every length up to max_len
    gives; only the witness's product becomes a QuadExt.
    """
    if type(max_len) is not int:
        raise ParameterError(f"max_len must be an int, not {type(max_len).__name__}")
    if max_len < 2:
        raise ParameterError("max_len must be at least 2")
    d = field_disc([x._d for row in gram.entries for x in row])
    edges = [[(x * 2).triple if x else None for x in row] for row in gram.entries]
    check_symmetric(edges)  # in one field, equal triples are equal entries
    witness = _first_violation(edges, d, 2)
    if witness is None:
        length = _odd_surd_length(edges, max_len)
        witness = length and _first_violation(edges, d, length)
    return VinbergVerdict(max_len, *witness) if witness else VinbergVerdict(max_len)


def _first_violation(edges, d: int, length: int):
    """The first cycle through length vertices, in the scan order, whose
    product is not a rational integer, with that product; or None."""
    for subset in combinations(range(len(edges)), length):
        for cycle, (a, b, q) in _cycles(edges, d, subset):
            if b or a % q:
                return cycle, from_triple(a, b, q, d)
    return None


def _odd_surd_length(edges, max_len: int) -> int | None:
    """The length of the shortest cycle with an odd number of surd edges
    (nonzero surd part), or None when it is longer than max_len or there is
    none.

    A breadth-first search on the parity cover, whose states are (vertex,
    surd edges walked mod 2), with each parity's states a bit mask.  From a
    vertex s it finds the shortest closed walk with an odd count; that walk
    is a cycle, because splitting it at a repeated vertex leaves a shorter
    odd closed walk (a 2-walk u-v-u is even).  Every such cycle has a
    vertex on a surd edge, so only those are searched from.  A search that
    runs out of states without reaching (s, odd) has 2-coloured the
    component of s with the surd edges as its cut: no cycle through it is
    odd, and its other vertices are not searched from.
    """
    plain = [sum(1 << v for v, e in enumerate(row) if e and not e[1] and v != u) for u, row in enumerate(edges)]
    surd = [sum(1 << v for v, e in enumerate(row) if e and e[1] and v != u) for u, row in enumerate(edges)]
    limit, balanced = max_len + 1, 0
    for s in range(len(edges)):
        if not surd[s] or balanced >> s & 1:
            continue
        seen = front = (1 << s, 0)
        for length in range(1, limit):
            even = _spread(front[0], plain) | _spread(front[1], surd)
            odd = _spread(front[1], plain) | _spread(front[0], surd)
            if odd >> s & 1:
                limit = length
                break
            front = (even & ~seen[0], odd & ~seen[1])
            seen = (seen[0] | even, seen[1] | odd)
            if not front[0] | front[1]:
                balanced |= seen[0] | seen[1]
                break
    return limit if limit <= max_len else None


def _spread(front: int, masks: list[int]) -> int:
    """The union of masks[v] over the bits v of front."""
    out = 0
    while front:
        low = front & -front
        out |= masks[low.bit_length() - 1]
        front ^= low
    return out


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
