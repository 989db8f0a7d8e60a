"""Residue classes hit by the bend orbit and the bends missing from them.

Works on the linear action on bend vectors reduced mod m: the admissible
residues are those reachable from the starting bend vector, and any bend in
an admissible class that never shows up in the actual packing is reported as
missing up to the bound scanned.

One level kernel closes an orbit on numpy int64 arrays and yields it a
level at a time.  The frontier holds a level's vectors reduced mod m, a
column each.  Each vector packs into one int64 key, its coordinates read as
digits in radix m, so equal keys are equal vectors.  A generator reduced
mod m moves only the coordinates whose rows differ from the identity's rows
mod m, and one that moves none is dropped, since its images are the vectors
themselves.  The moved rows of every generator are stacked in one matrix,
so a level's new digits are one product of it and the frontier, and an
image's key is its parent's key plus its generator's new digits less the
old, weighted by their powers of m and summed.  A Descartes or Soddy move
costs 1/k of a dense product, and a generator that moves every row costs as
much as one.  The keys of a level are sorted and their repeats dropped, the
ones already reached are dropped by a binary search in one sorted array of
seen keys, and the rest are merged into it and decoded into the next
frontier.

When m has two or more prime-power factors and every generator squares to
the identity mod m, as every reflection conjugate does, O_m is not
enumerated.  The kernel closes O_q for each prime power q of m, and the
factors are joined in ascending order of |O_q|, the product of the ones
joined so far being A.  The Schreier generators t_v^-1 g t_u mod A of the
stabilizer of the start mod q come from O_q's BFS tree, read off its
levels: t_u is the word from the start to u, v = g u, and since every
generator is an involution, t_v^-1 is t_v's word reversed.  In BFS order,
and without the ones that are the identity mod A, they are added in
doubling batches, and the kernel closes the start mod A under them.  That
fiber lies in O_A, and once it fills O_A the join is certified: O_{Aq} is
O_A x O_q, |O_{Aq}| is |O_A| |O_q|, and coordinate j's residues mod Aq are
the CRT combinations of its residues mod A and mod q.  If every Schreier
generator is used and the fiber is still short, the kernel closes O_m
itself, so the answer is exact either way.  The last join enumerates a
fiber of |O_m| / |O_q| vectors, q the prime power with the largest orbit.

The arithmetic is exact only while m**k and k*(m-1)**2 both fit in an
int64; a larger modulus is refused with ParameterError before any
generator is read, whichever path would run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt, is_rational_integer


_INT64_MAX = 2**63 - 1
# most edges a block of Schreier generators, k*k entries an edge
_BLOCK = 4096


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
    """The orbit of the start bend vector under the generator matrices,
    everything reduced mod modulus: its bend residues and its size."""
    mats, x = _read(generators, start, modulus)
    powers = _prime_powers(modulus)
    if len(powers) > 1 and (mats @ mats % modulus == np.eye(len(x), dtype=np.int64)).all():
        joined = _joined_orbit(mats, x, powers)
        if joined is not None:
            return joined
    return _bfs(mats, x, modulus)


def _read(generators, start, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The generators as one (r, k, k) array and the start as a vector, both
    reduced mod modulus, once the modulus has passed the int64 guard."""
    if modulus < 1:
        raise ParameterError("modulus must be positive")
    k = len(start)
    if modulus**k > _INT64_MAX or k * (modulus - 1) ** 2 > _INT64_MAX:
        raise ParameterError(f"modulus {modulus} is too large for exact int64 keys of {k} bends")
    mats = []
    for g, mat in enumerate(generators):
        entries = [[_as_int(e, f"generator {g + 1} entry") % modulus for e in row] for row in mat]
        if len(entries) != k or any(len(r) != k for r in entries):
            raise ValueError(f"generator {g + 1} is not {k}x{k}")
        mats.append(entries)
    mats = np.array(mats, dtype=np.int64).reshape(len(mats), k, k)
    return mats, np.array([_as_int(b, "bend") % modulus for b in start], dtype=np.int64)


def _bfs(mats: np.ndarray, x: np.ndarray, modulus: int) -> ResidueOrbit:
    """The orbit closed by the kernel on the whole modulus."""
    count, codes = 0, []
    for keys, vectors in _levels(mats, x[None], modulus):
        count += len(keys)
        codes.append(_codes(vectors, modulus))
    residues = _distinct(np.concatenate(codes) % modulus)
    return ResidueOrbit(modulus, frozenset(residues.tolist()), count)


def _prime_powers(n: int) -> list[int]:
    """The prime powers q of n with q | n and n/q prime to q, by trial division."""
    powers = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            powers.append(q)
        p += 1 if p == 2 else 2
    if n > 1:
        powers.append(n)
    return powers


def _joined_orbit(mats: np.ndarray, x: np.ndarray, powers: list[int]) -> ResidueOrbit | None:
    """The orbit mod the product of powers joined from one orbit per prime
    power, or None where a join cannot be certified.  Every generator is an
    involution mod the product."""
    k = len(x)
    factors = []
    for q in powers:
        mats_q = mats % q
        levels = list(_levels(mats_q, (x % q)[None], q))
        keys, vectors = (np.concatenate(part) for part in zip(*levels))
        starts = list(accumulate((len(level[0]) for level in levels), initial=0))
        codes = _codes(vectors, q)
        cuts = np.searchsorted(codes, q * np.arange(k + 1))
        per_coordinate = [codes[cuts[j]:cuts[j + 1]] - j * q for j in range(k)]
        factors.append((len(keys), q, (keys, vectors, starts, mats_q, q), per_coordinate))
    factors.sort(key=lambda f: f[:2])
    count, a, _, residues = factors[0]
    for size, q, orbit, per_coordinate in factors[1:]:
        schreier = _schreier_generators(*orbit, mats % a, a)
        # a first batch of twice as many as the group has generators: 4 to
        # 11 of them in BFS order certified every Apollonian join tried
        if not _fiber_fills(schreier, x % a, a, count, 2 * len(mats)):
            return None
        # e_a is 1 mod a and 0 mod q, e_q the reverse; the sum stays below
        # (a + q) * a * q, inside an int64 for every modulus the guard admits
        e_a, e_q = q * pow(q, -1, a), a * pow(a, -1, q)
        residues = [
            ((ra[:, None] * e_a + rq * e_q) % (a * q)).ravel()
            for ra, rq in zip(residues, per_coordinate)
        ]
        count *= size
        a *= q
    return ResidueOrbit(a, frozenset().union(*(r.tolist() for r in residues)), count)


def _schreier_generators(
    keys: np.ndarray, vectors: np.ndarray, starts: list[int],
    mats_q: np.ndarray, q: int, mats_a: np.ndarray, a: int,
) -> Iterator[np.ndarray]:
    """The Schreier generators t_v^-1 g t_u mod a of the start's stabilizer
    mod q, for the edges u -> v = g u of the orbit mod q in BFS order,
    leaving out the ones that are the identity mod a.  The orbit's keys and
    vectors are in BFS order, and level d is rows starts[d] to starts[d + 1].

    One product and one sorted lookup give every edge's v.  Of the edges
    from a level into the next, any one into a vector serves as its tree
    edge: t_v is g t_u, and since every generator is an involution, t_v^-1
    is t_u^-1 g.  The words take 2 k**2 entries a vector of the orbit.  The
    generators go in blocks of edges that double from 2r to _BLOCK, as the
    consumer's batches do, since the first blocks mostly certify the join.
    """
    r, k = mats_q.shape[:2]
    n = len(keys)
    eye = np.eye(k, dtype=np.int64)
    order = np.argsort(keys)
    images = (vectors @ mats_q.transpose(0, 2, 1) % q) @ (q ** np.arange(k, dtype=np.int64))
    # v[u*r + g]: the row of g u
    v = order[np.searchsorted(keys[order], images.T.ravel())]
    t, t_inv = np.empty((2, n, k, k), dtype=np.int64)
    t[0] = t_inv[0] = eye
    for first, mid, end in zip(starts, starts[1:], starts[2:]):
        # any edge into a vector of the next level serves as its tree edge
        out = v[first * r:mid * r]
        into = np.flatnonzero(out >= mid)
        edge = np.empty(end - mid, dtype=np.int64)
        edge[out[into] - mid] = into
        parent, gen = np.divmod(edge, r)
        g = mats_a[gen]
        t[mid:end] = g @ t[first + parent] % a
        t_inv[mid:end] = t_inv[first + parent] @ g % a
    lo, size = 0, 2 * r
    while lo < n * r:
        hi = min(lo + size, n * r)
        size = min(2 * size, _BLOCK)
        u, g = np.divmod(np.arange(lo, hi), r)
        s = t_inv[v[lo:hi]] @ (mats_a[g] @ t[u] % a) % a
        yield s[(s != eye).any(axis=(1, 2))]
        lo = hi


def _fiber_fills(schreier: Iterator[np.ndarray], x: np.ndarray, a: int, target: int, batch: int) -> bool:
    """Whether the orbit of x mod a under the Schreier generators reaches
    target vectors.  The generators are added in batches that double from
    the given size, and each closure starts from the orbit so far."""
    if target == 1:
        return True
    rows = x[None]
    pool, have, used = [], 0, 0
    for s in schreier:
        pool.append(s)
        have += len(s)
        while have >= max(2 * used, batch):
            used = max(2 * used, batch)
            pool = [np.concatenate(pool)]
            rows = _orbit_rows(pool[0][:used], rows, a, target)
            if len(rows) == target:
                return True
    if have > used:
        rows = _orbit_rows(np.concatenate(pool), rows, a, target)
    return len(rows) == target


def _orbit_rows(mats: np.ndarray, rows: np.ndarray, modulus: int, most: int) -> np.ndarray:
    """The vectors of the orbit of rows, or its first levels once they hold
    as many as most."""
    found, count = [], 0
    for _, vectors in _levels(mats, rows, modulus):
        found.append(vectors)
        count += len(vectors)
        if count >= most:
            break
    return np.concatenate(found)


def _levels(mats: np.ndarray, rows: np.ndarray, modulus: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The orbit of the distinct vectors rows under mats, all reduced mod
    modulus, a level at a time: each level's keys and vectors, the first
    level being the rows, and the keys of every later one sorted."""
    k = rows.shape[1]
    radix = modulus ** np.arange(k, dtype=np.int64)
    # each row a generator moves mod modulus, generator by generator, and
    # where each moving generator's rows begin
    moved = (mats != np.eye(k, dtype=np.int64) % modulus).any(axis=2)
    gen, row = np.nonzero(moved)
    moves = mats[gen, row]
    weights = radix[row, None]
    counts = moved.sum(axis=1)
    first = (np.cumsum(counts) - counts)[counts > 0]

    frontier = rows.T  # a column per vector
    keys = radix @ frontier
    seen = np.sort(keys)
    while len(keys):
        yield keys, frontier.T
        digits = moves @ frontier
        digits %= modulus
        digits -= frontier[row]
        digits *= weights
        # per generator, the sum of its rows' weighted digit changes
        images = np.add.reduceat(digits, first)
        images += keys
        keys = _distinct(images.ravel())
        # a key past the end of seen differs from seen[-1], which is smaller
        pos = np.searchsorted(seen, keys)
        keys = keys[seen[np.minimum(pos, len(seen) - 1)] != keys]
        seen = np.concatenate((seen, keys))
        # two sorted runs: the stable sort (timsort) merges them in linear time
        seen.sort(kind="stable")
        frontier = keys // radix[:, None] % modulus


def _codes(vectors: np.ndarray, modulus: int) -> np.ndarray:
    """The sorted distinct codes j*modulus + x_j of the vectors, x_j being
    coordinate j's residue.

    A table of all codes is the fastest way, but it is used only when it is
    no larger than the array, so that memory follows the orbit and not the
    modulus.
    """
    size = vectors.shape[1] * modulus
    codes = (vectors + modulus * np.arange(vectors.shape[1], dtype=np.int64)).ravel()
    if size > len(codes):
        return _distinct(codes)
    table = np.zeros(size, dtype=bool)
    table[codes] = True
    return np.flatnonzero(table)


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
