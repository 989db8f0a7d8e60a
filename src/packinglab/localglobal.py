"""Residue classes hit by the bend orbit and the bends missing from them.

Works on the linear action on bend vectors reduced mod m: the admissible
residues are those reachable from the starting bend vector, and any bend in
an admissible class that never shows up in the actual packing is reported as
missing up to the bound scanned.

The orbit is closed level by level on numpy int64 arrays.  The frontier is
an (n, k) array of vectors reduced mod m.  Each vector packs into one int64
key, its coordinates read as digits in radix m, so equal keys are equal
vectors.  A generator reduced mod m moves only the coordinates whose rows
differ from the identity's rows mod m, and one that moves none is dropped,
since its images are the vectors themselves.  A level's images are computed
one generator at a time, and only on its moved rows: the frontier times
those r <= k columns gives the new digits, and an image's key is its
parent's key plus the new digits less the old, weighted by their powers of
m.  The Descartes and Soddy moves change one bend each, so they cost 1/k of
a dense product, and the transient arrays stay at n*k entries.  The keys of
a level are sorted and their repeats dropped, the ones already reached are
dropped by a binary search in one sorted array of seen keys, and the rest
are merged into it and decoded into the next frontier by k in-place divmods,
one digit each; the frontier's distinct residues are kept per level.  The
arithmetic is exact only while m**k and k*(m-1)**2 both fit in an int64; a
larger modulus is refused with ParameterError before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt, is_rational_integer


_INT64_MAX = 2**63 - 1


class NonIntegralInput(PackingLabError):
    pass


@dataclass(frozen=True)
class ResidueOrbit:
    modulus: int
    residues: frozenset[int]
    vector_count: int

    def admits(self, bend: int) -> bool:
        return bend % self.modulus in self.residues


def _as_int(x, what: str) -> int:
    if isinstance(x, int):
        return x
    q = QuadExt(x) if not isinstance(x, QuadExt) else x
    if not is_rational_integer(q):
        raise NonIntegralInput(f"{what} {q} is not a rational integer")
    return q.triple[0]


def residue_orbit(
    generators: Sequence[Sequence[Sequence]],
    start: Sequence,
    modulus: int,
) -> ResidueOrbit:
    """Breadth-first closure of the start bend vector under the generator
    matrices, everything reduced mod modulus."""
    if modulus < 1:
        raise ParameterError("modulus must be positive")
    k = len(start)
    if modulus**k > _INT64_MAX or k * (modulus - 1) ** 2 > _INT64_MAX:
        raise ParameterError(f"modulus {modulus} is too large for exact int64 keys of {k} bends")
    radix = modulus ** np.arange(k, dtype=np.int64)
    identity = np.eye(k, dtype=np.int64) % modulus
    moves = []  # per generator that moves a row mod m: those rows, transposed, and their weights
    for g, mat in enumerate(generators):
        entries = [[_as_int(e, f"generator {g + 1} entry") % modulus for e in row] for row in mat]
        if len(entries) != k or any(len(r) != k for r in entries):
            raise ValueError(f"generator {g + 1} is not {k}x{k}")
        mat = np.array(entries, dtype=np.int64).reshape(k, k)
        rows = np.flatnonzero((mat != identity).any(axis=1))
        if len(rows):
            moves.append((rows, mat[rows].T, radix[rows]))
    frontier = np.array([[_as_int(b, "bend") % modulus for b in start]], dtype=np.int64)

    keys = seen = frontier @ radix
    levels = [_residues(frontier, modulus)]
    while len(frontier):
        n = len(frontier)
        images = np.empty(n * len(moves), dtype=np.int64)
        for g, (rows, cols, weights) in enumerate(moves):
            digits = frontier @ cols
            digits %= modulus
            digits -= frontier[:, rows]
            out = images[g * n:(g + 1) * n]
            np.matmul(digits, weights, out=out)
            out += keys
        keys = _distinct(images)
        # a key past the end of seen differs from seen[-1], which is smaller
        pos = np.searchsorted(seen, keys)
        keys = keys[seen[np.minimum(pos, len(seen) - 1)] != keys]
        seen = np.concatenate((seen, keys))
        # two sorted runs: the stable sort (timsort) merges them in linear time
        seen.sort(kind="stable")
        frontier = np.empty((len(keys), k), dtype=np.int64)
        rest = keys.copy()
        for j in range(k):
            np.divmod(rest, modulus, out=(rest, frontier[:, j]))
        levels.append(_residues(frontier, modulus))
    return ResidueOrbit(
        modulus=modulus,
        residues=frozenset(_distinct(np.concatenate(levels)).tolist()),
        vector_count=len(seen),
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d int64 array, sorted in place.

    For int64, a sort and a neighbour test beat np.unique by far.  The test
    writes into one bool mask: np.diff with a prepended entry would copy the
    array twice, and each copy of a level's images costs page faults.
    """
    values.sort()
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _residues(frontier: np.ndarray, modulus: int) -> np.ndarray:
    """The distinct entries of a frontier, sorted.

    A table of all residues is the fastest way, but it is used only when it
    is no larger than the frontier, so that memory follows the orbit and not
    the modulus.
    """
    values = frontier.ravel()
    if modulus > len(values):
        return _distinct(values.copy())
    table = np.zeros(modulus, dtype=bool)
    table[values] = True
    return np.flatnonzero(table)


def missing_bends(
    bends: Iterable, orbit: ResidueOrbit, bound: int | None = None
) -> list[int]:
    """Admissible integers up to bound that the given bend multiset skips.

    Only positive bends are scanned; the bound defaults to the largest bend
    present.
    """
    present = {_as_int(b, "bend") for b in bends}
    if bound is None:
        if not present:
            raise ValueError("empty bend list needs an explicit bound")
        bound = max(present)
    return [
        n for n in range(1, bound + 1) if orbit.admits(n) and n not in present
    ]
