"""Orbit enumeration: packings and superpackings by dual-limit breadth-first
search with a bend bound plus a word-length cap.

The run is saturated when no retained sphere was left unexpanded by the word
cap, i.e. every frontier child either appeared already or exceeded the bend
bound.  Saturation is the completeness certificate; a run that needed the
word cap is reported unsaturated.

The search runs on ints.  A closure fixes one field Q(sqrt(d)), taken from
the walls and the bend bound (two different nonzero discriminants raise
DiscMismatch), and works on the int code that each wall holds
(InversiveVector.code): its coordinates' QuadExt triples over one common
denominator, (a_0, b_0, ..., a_k, b_k, den).  That form is canonical, so the
tuple itself is the dedup key.

Level loop.  The closure expands one breadth-first level at a time.  The
frontier is an (m, 2k+3) array of codes, and every generator's 2Qs, s and
den(s)^2 are stacked into arrays once.  One matmul gives every product
p = v . 2Qs of the level, and broadcasting gives every child
(v den(s)^2 + p s) / (den(v) den(s)^2).  A child with p = 0 is its parent,
and the generator that made the parent maps it back to the grandparent;
both are dropped before any other work.  The plane test is exact, and the
|bend| <= bound test is decided for the whole level in float64 wherever a
proven rounding margin allows (_bend_test); the few children inside the
margin are decided on QuadExt, as abs(bend) <= bound.  The survivors are
reduced by their gcd, and one Python pass over them, parent by parent and
generator by generator (the order a FIFO queue pops them), does the dedup
and raises FrontierOverflow when the level's unexpanded parents plus the
next level exceed the cap.  The new children are the next frontier; its
level is their word length and the generators that made them their
parents.  A child over the bound is dropped without a key: the bound test
is a function of the code, so a repeat would be dropped again.

dtype rule.  numpy int64 arithmetic wraps silently, so a level runs in int64
only when _level_dtype proves, from the largest frontier entry, the largest
2Qs entry, the largest den(s)^2, k and d, that no product or child entry can
reach 2**63.  Otherwise it runs the same expressions on Python ints in
dtype=object arrays.  The bound does not enter, as the bend test decides
the rows its floats leave open on QuadExt.

Verified order.  The kept spheres are sorted by (bend,) + coords.  One
np.lexsort on float64 values proposes the order, and _steps confirms every
adjacent pair exactly, on whole columns (int64 where its own bound holds,
Python ints otherwise).  If a pair fails or a value overflows a float, the
rows are sorted by their decoded (bend,) + coords QuadExt tuples, the order
Packing.bends_list falls back to; floats never decide the order unverified.

The kept codes, in that order, are the Packing that the closure returns
(packing.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt, dtype_under, field_disc, from_triple, int_array, max_abs
from .inversive import InversiveVector, decode_rows
from .linalg import as_quad
# the packing type and its certificate are part of this module's API
from .packing import IntegralityReport, Packing, SphereRecord, _steps, certify_integral


class FrontierOverflow(PackingLabError):
    pass


@dataclass(frozen=True)
class WallSystem:
    walls: tuple[InversiveVector, ...]
    cluster_idx: tuple[int, ...]
    cocluster_idx: tuple[int, ...]

    def __post_init__(self):
        for i in (*self.cluster_idx, *self.cocluster_idx):
            if type(i) is not int:
                raise ParameterError(f"cluster and cocluster indices must be ints, got {i!r}")
        object.__setattr__(self, "walls", tuple(self.walls))
        object.__setattr__(self, "cluster_idx", tuple(sorted(self.cluster_idx)))
        object.__setattr__(self, "cocluster_idx", tuple(sorted(self.cocluster_idx)))
        seen = set(self.cluster_idx) | set(self.cocluster_idx)
        if (
            len(self.cluster_idx) + len(self.cocluster_idx) != len(self.walls)
            or seen != set(range(len(self.walls)))
        ):
            raise ParameterError("cluster and cocluster must partition the walls")
        if not self.cluster_idx:
            raise ParameterError("cluster must be nonempty")
        for i, w in enumerate(self.walls):
            if w.dim != self.dim:
                raise ParameterError(f"wall {i} has dimension {w.dim}, not {self.dim} as wall 0 has")

    @property
    def dim(self) -> int:
        return self.walls[0].dim

    def cluster_walls(self) -> list[InversiveVector]:
        return [self.walls[i] for i in self.cluster_idx]

    def cocluster_walls(self) -> list[InversiveVector]:
        return [self.walls[i] for i in self.cocluster_idx]


def _closure(
    walls: Sequence[InversiveVector],
    generator_idx: Sequence[int],
    seed_idx: Sequence[int],
    bend_bound: QuadExt,
    max_word: int,
    frontier_cap: int,
) -> Packing:
    if type(max_word) is not int or max_word < 0:
        raise ParameterError(f"max_word must be a non-negative int, got {max_word!r}")
    if bend_bound.sign() < 0:
        raise ParameterError(f"bend bound must not be negative, got {bend_bound}")
    d = field_disc([bend_bound.disc, *(w.d for w in walls)])
    n = len(walls[0].code) - 1  # numerators; the denominator is code[n]
    gen_count = len(generator_idx)
    # per generator g with code s: 2Qs for Q = [[0, 1/2], [1/2, 0]] + (-I)
    # is (s1, s0, -2 s2, ...); p = v . 2Qs is one matmul with twice_qs, whose
    # column g holds pa's coefficients and column gen_count + g pb's, and
    # the child v den(s)^2 + p s is v * s2 + pa * s_pa + pb * s_pb by rows
    twice_qs = np.zeros((n, 2 * gen_count), dtype=object)
    s_pa = np.zeros((gen_count, n + 1), dtype=object)
    s_pb = np.zeros((gen_count, n + 1), dtype=object)
    s2 = np.empty(gen_count, dtype=object)
    gen_max = 0
    for g, wall in enumerate(generator_idx):
        s = walls[wall].code
        w = s[2:4] + s[0:2] + tuple(-2 * x for x in s[4:n])
        gen_max = max(gen_max, *map(abs, w))
        twice_qs[0::2, g], twice_qs[1::2, g] = w[0::2], [d * x for x in w[1::2]]
        twice_qs[0::2, gen_count + g], twice_qs[1::2, gen_count + g] = w[1::2], w[0::2]
        s_pa[g, 0:n:2], s_pa[g, 1:n:2] = s[0:n:2], s[1:n:2]
        s_pb[g, 0:n:2], s_pb[g, 1:n:2] = [d * x for x in s[1:n:2]], s[0:n:2]
        s2[g] = s[n] * s[n]
    tables = {object: (twice_qs, s_pa, s_pb, s2)}
    s2_max = max(s2, default=0)

    seeds = list(dict.fromkeys(walls[i].code for i in seed_idx))
    kept = set(seeds)
    frontier = int_array(seeds)
    made_by = np.full(len(frontier), -1)  # generator position per row; -1 for seeds
    levels, makers = [frontier], [made_by]
    plane_count = 0
    capped = False
    length = 0
    while len(frontier):
        if length >= max_word:
            capped = True
            break
        dtype = _level_dtype(max_abs(frontier), gen_max, s2_max, n // 2, d)
        if dtype not in tables:
            tables[dtype] = tuple(x.astype(dtype) for x in tables[object])
        twice_qs, s_pa, s_pb, s2 = tables[dtype]
        frontier = frontier.astype(dtype, copy=False)
        p = frontier[:, :n] @ twice_qs
        pa, pb = p[:, :gen_count], p[:, gen_count:]
        # pa = pb = 0 maps v to itself; the generator that made v maps it
        # back to its parent; both are kept already
        live = ((pa != 0) | (pb != 0)) & (made_by[:, None] != np.arange(gen_count))
        rows, gens = np.nonzero(live)  # parent-major, generator-minor: the queue's order
        pa, pb = pa[rows, gens][:, None], pb[rows, gens][:, None]
        children = frontier[rows] * s2[gens][:, None] + pa * s_pa[gens] + pb * s_pb[gens]
        plane, keep = _bend_test(children[:, 2], children[:, 3], children[:, n], d, bend_bound)
        children, rows, gens, plane = children[keep], rows[keep], gens[keep], plane[keep]
        children //= np.gcd.reduce(children, axis=1)[:, None]
        # the dedup, and the cap on a FIFO queue, which would hold the level's
        # parents not yet expanded plus the next level so far
        nxt = []
        last = len(frontier) - 1
        for r, (key, row) in enumerate(zip(map(tuple, children.tolist()), rows.tolist())):
            if key in kept:
                continue
            kept.add(key)
            nxt.append(r)
            if last - row + len(nxt) > frontier_cap:
                raise FrontierOverflow(f"frontier exceeded {frontier_cap} spheres")
        plane_count += int(plane[nxt].sum())
        frontier, made_by = children[nxt], gens[nxt]
        levels.append(frontier)
        makers.append(made_by)
        length += 1

    codes = int_array(np.concatenate(levels))
    order = _code_order(codes, d)
    lengths = np.repeat(np.arange(len(levels)), [len(x) for x in levels])[order]
    parents = np.array([*generator_idx, -1])[np.concatenate(makers)[order]]
    return Packing.from_codes(
        codes=codes[order],
        d=d,
        word_lengths=lengths.tolist(),
        parents=[None if g < 0 else g for g in parents.tolist()],
        saturated=not capped,
        bend_bound=bend_bound,
        max_word=max_word,
        generator_idx=tuple(generator_idx),
        dim=walls[0].dim,
        boundary_walls=plane_count,
    )


def _level_dtype(frontier_max: int, gen_max: int, s2_max: int, pairs: int, d: int) -> type:
    """np.int64 when no product or child a level computes can reach 2**63,
    else object.

    M = frontier_max bounds every entry of the level's frontier, W = gen_max
    every entry of 2Qs (and so of s), S2 = s2_max every den(s)^2, and k =
    pairs is the number of coordinates.  The products are at most Pa =
    k (1 + d) M W and Pb = 2 k M W (0 when d = 0), and a child's entries
    (unreduced), with every partial sum on the way, at most
    C = M S2 + W (Pa + max(d, 1) Pb), which is at least Pa and Pb.  The bend
    test decides its exact rows on QuadExt (_bend_test), so the bound does
    not enter.
    """
    m, w = frontier_max, gen_max
    pa = pairs * (1 + d) * m * w
    pb = 2 * pairs * m * w if d else 0
    return dtype_under(m * s2_max + w * (pa + max(d, 1) * pb))


def _bend_test(a: np.ndarray, b: np.ndarray, den: np.ndarray, d: int, bound: QuadExt) -> tuple[np.ndarray, np.ndarray]:
    """(plane, keep) for bends (a + b sqrt(d)) / den, den > 0: keep a plane,
    or a sphere with |bend| <= the bound (ba + bb sqrt(d)) / bq, that is with
    x = |a + b sqrt(d)| bq at most y = (ba + bb sqrt(d)) den.

    Floats decide every row whose x - y lies clear of a rounding margin, and
    only the rest are decided exactly, as abs(bend) <= bound on QuadExt.
    The margin, with u = 2**-53 and gamma_n = n u / (1 - n u): each int
    rounds once to a float and sqrt(d) at most twice, and each operation
    once, so float64 gives a + b sqrt(d) to within gamma_5 T, for
    T = |a| + |b| sqrt(d), and x to within gamma_7 T bq; likewise y to
    within gamma_7 TB den, for TB = |ba| + |bb| sqrt(d).  The margin
    m = 2**-48 (T bq + TB den) is computed the same way, so it is at least
    (1 - gamma_8) of its exact value, and the float x - y is rounded once
    more.  So when the float |x - y| exceeds m, the exact x - y has the
    float's sign, as
    2**-48 = 32 u exceeds gamma_7 (1 + u) / (1 - gamma_8) < 7.01 u.
    That bound needs no underflow and no overflow.  No product underflows:
    its factors are 0 or at least 2**-52 in magnitude (ints, sqrt(d) > 1,
    and the sum a + b sqrt(d) of two multiples of 2**-52), and sums never
    do.  An overflow does not pass unseen: by monotone rounding every
    intermediate is at most m / 2**-48 in magnitude, so an inf or nan
    anywhere makes m inf or the comparison false, and the row undecided.
    An int too large for a float leaves the whole level undecided.

    A bend equal to the bound (an integer bound on an integral packing, say)
    is always left undecided.
    """
    ba, bb, bq = bound.triple
    plane = (a == 0) & (b == 0)
    try:
        af, bf, denf = a.astype(np.float64), b.astype(np.float64), den.astype(np.float64)
        baf, bbf, bqf = float(ba), float(bb), float(bq)
    except OverflowError:
        keep, exact = plane.copy(), np.arange(len(a))
    else:
        root = math.sqrt(d)
        with np.errstate(over="ignore", invalid="ignore"):
            surd = bf * root
            t = np.abs(af)
            af += surd
            t += np.abs(surd, out=surd)  # T
            diff = np.abs(af, out=af) * bqf
            diff -= (baf + bbf * root) * denf
            margin = t * bqf
            margin += (abs(baf) + abs(bbf * root)) * denf
            margin *= 2.0**-48
            decided = np.abs(diff) > margin
        keep = plane | (decided & (diff < 0))
        exact = (~decided).nonzero()[0]
    rows = zip(a[exact].tolist(), b[exact].tolist(), den[exact].tolist())
    keep[exact] |= np.array([abs(from_triple(x, y, q, d)) <= bound for x, y, q in rows], dtype=bool)
    return plane, keep


def _code_order(codes: np.ndarray, d: int) -> np.ndarray:
    """The permutation that puts the codes in (bend,) + coords order,
    compared exactly.

    One lexsort on float64 values proposes the order, and _steps confirms
    every adjacent pair on whole columns; as that order is total, the
    confirmed sequence is the sorted one.  Each value is taken from its own
    lowest-terms triple, so equal coordinates tie and the next one decides.
    If a pair fails or a value does not fit a float, the rows are sorted by
    (v.bend, *v.coords()) of their decoded vectors, compared on QuadExt.
    """
    if len(codes) < 2:
        return np.arange(len(codes))
    n = codes.shape[1] - 1
    # bend at numerators 2, 3, then every coordinate
    cols = (2,) + tuple(range(0, n, 2))
    # each coordinate's own lowest terms, so equal values give equal floats
    a, b, den = codes[:, 0:n:2], codes[:, 1:n:2], codes[:, n:]
    g = np.gcd(np.gcd(a, b), den)
    try:
        a, b, den = ((x // g).astype(np.float64) for x in (a, b, den))
    except OverflowError:
        pass
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            values = (a + b * math.sqrt(d)) / den
        order = np.lexsort((*values.T[::-1], values[:, 1]))
        if (_steps(codes[order], cols, d) > 0).all():
            return order
    keys = [(v.bend, *v.coords()) for v in decode_rows(codes, d)]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__))


def generate_packing(
    system: WallSystem,
    bend_bound,
    max_word: int,
    frontier_cap: int = 1_000_000,
) -> Packing:
    """Orbit of the cluster under reflections through the cocluster walls.

    Cluster seeds are always retained; generated spheres are kept while
    |bend| <= bend_bound, and planes (bend 0) are kept regardless.
    """
    return _closure(
        system.walls,
        system.cocluster_idx,
        system.cluster_idx,
        as_quad(bend_bound),
        max_word,
        frontier_cap,
    )


def generate_superpacking(
    system: WallSystem,
    bend_bound,
    max_word: int,
    frontier_cap: int = 1_000_000,
) -> Packing:
    """Closure of the cluster under reflections in every wall of the system."""
    return _closure(
        system.walls,
        tuple(range(len(system.walls))),
        system.cluster_idx,
        as_quad(bend_bound),
        max_word,
        frontier_cap,
    )
