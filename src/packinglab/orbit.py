"""Orbit enumeration: packings and superpackings by dual-limit breadth-first
search with a bend bound plus a word-length cap.

The run is saturated when no retained sphere was left unexpanded by the word
cap, i.e. every frontier child either appeared already or exceeded the bend
bound.  Saturation is the completeness certificate; a run that needed the
word cap is reported unsaturated.

The search runs on plain ints.  A closure fixes one field Q(sqrt(d)), taken
from the walls and the bend bound (two different nonzero discriminants raise
DiscMismatch), and works on the int code that inversive.py owns: each vector
is its coordinates' QuadExt triples over one common denominator
(inversive.encode).  That form is canonical, so the tuple itself is the dedup
key.  A reflection applies the wall's precomputed 2Qs by the field rule and
divides out the gcd; the bend test and the final order are decided by exact
sign analysis (exactnum.quad_sign).  Walls are encoded on entry, and each kept
sphere is decoded once, after sorting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cmp_to_key
from math import gcd
from typing import Sequence

from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt, quad_sign
from .inversive import InversiveVector, _decoder, encode, field_disc
from .linalg import as_quad


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

    @property
    def dim(self) -> int:
        return self.walls[0].dim

    def cluster_walls(self) -> list[InversiveVector]:
        return [self.walls[i] for i in self.cluster_idx]

    def cocluster_walls(self) -> list[InversiveVector]:
        return [self.walls[i] for i in self.cocluster_idx]


@dataclass(frozen=True)
class SphereRecord:
    vector: InversiveVector
    word_length: int
    parent_generator: int | None  # index into WallSystem.walls, None for seeds


@dataclass
class Packing:
    spheres: list[SphereRecord]
    saturated: bool
    bend_bound: QuadExt
    max_word: int
    generator_idx: tuple[int, ...]
    dim: int
    boundary_walls: int = 0  # spheres kept only because they are planes

    def __post_init__(self):
        # dumps writes these ints and bools as they are, so each must be one
        for name in ("max_word", "dim", "boundary_walls"):
            if type(getattr(self, name)) is not int:
                raise ParameterError(f"{name} must be an int, got {getattr(self, name)!r}")
        if type(self.saturated) is not bool:
            raise ParameterError(f"saturated must be true or false, got {self.saturated!r}")
        for g in self.generator_idx:
            if type(g) is not int:
                raise ParameterError(f"generators must be ints, got {g!r}")
        generators = set(self.generator_idx)
        for i, rec in enumerate(self.spheres, start=1):
            n, g = rec.word_length, rec.parent_generator
            if type(n) is not int or n < 0:
                raise ParameterError(f"sphere {i}: word_length must be an int >= 0, got {n!r}")
            if g is not None and not (type(g) is int and g in generators):
                raise ParameterError(
                    f"sphere {i}: parent_generator must be null or one of the generators, got {g!r}"
                )

    def vectors(self) -> list[InversiveVector]:
        return [rec.vector for rec in self.spheres]

    def bends_list(self) -> list[QuadExt]:
        """Sorted multiset of bends, one entry per retained sphere."""
        return sorted(rec.vector.bend for rec in self.spheres)


def _closure(
    walls: Sequence[InversiveVector],
    generator_idx: Sequence[int],
    seed_idx: Sequence[int],
    bend_bound: QuadExt,
    max_word: int,
    frontier_cap: int,
) -> Packing:
    d = field_disc([bend_bound] + [x for w in walls for x in w.coords()])
    codes = [encode(w.coords()) for w in walls]
    n = len(codes[0]) - 1  # numerators; the denominator is code[n]
    generators = []
    for g in generator_idx:
        s = codes[g]
        # 2Qs for Q = [[0, 1/2], [1/2, 0]] + (-I): (s1, s0, -2 s2, ...)
        w = s[2:4] + s[0:2] + tuple(-2 * x for x in s[4:n])
        generators.append((g, w, s[:n], s[n] * s[n]))
    ba, bb, bden = encode((bend_bound,))

    def within_bound(a: int, b: int, den: int) -> bool:
        if quad_sign(a, b, d) < 0:
            a, b = -a, -b
        return quad_sign(a * bden - ba * den, b * bden - bb * den, d) <= 0

    kept: dict[tuple[int, ...], tuple[int, int | None]] = {}
    seen_over_bound: set[tuple[int, ...]] = set()
    queue: deque[tuple[tuple[int, ...], int]] = deque()
    for i in seed_idx:
        key = codes[i]
        if key not in kept:
            kept[key] = (0, None)
            queue.append((key, 0))
    pairs = range(0, n, 2)
    plane_count = 0
    capped = False
    while queue:
        v, length = queue.popleft()
        if length >= max_word:
            capped = True
            continue
        vden = v[n]
        for g, w, s, s2 in generators:
            # v' = v + 2<v,s> s = (v*s2 + p*s) / (vden*s2), p = v . 2Qs
            pa = pb = 0
            for j in pairs:
                va, vb, wa, wb = v[j], v[j + 1], w[j], w[j + 1]
                pa += va * wa + d * vb * wb
                pb += va * wb + vb * wa
            if not (pa or pb):
                continue  # v' == v, already kept
            pbd = pb * d
            child = []
            for j in pairs:
                sa, sb = s[j], s[j + 1]
                child.append(v[j] * s2 + pa * sa + pbd * sb)
                child.append(v[j + 1] * s2 + pa * sb + pb * sa)
            child.append(vden * s2)
            h = gcd(*child)
            key = tuple(x // h for x in child) if h != 1 else tuple(child)
            if key in kept or key in seen_over_bound:
                continue
            is_plane = not (key[2] or key[3])
            if is_plane or within_bound(key[2], key[3], key[n]):
                plane_count += is_plane
                kept[key] = (length + 1, g)
                queue.append((key, length + 1))
                if len(queue) > frontier_cap:
                    raise FrontierOverflow(f"frontier exceeded {frontier_cap} spheres")
            else:
                seen_over_bound.add(key)

    # order by (bend,) + coords, compared exactly; bend sits at numerators 2, 3
    order = (2,) + tuple(range(0, n, 2))

    def compare(x: tuple[int, ...], y: tuple[int, ...]) -> int:
        xd, yd = x[n], y[n]
        for j in order:
            s = quad_sign(x[j] * yd - y[j] * xd, x[j + 1] * yd - y[j + 1] * xd, d)
            if s:
                return s
        return 0

    decode = _decoder(d)
    spheres = []
    for key in sorted(kept, key=cmp_to_key(compare)):
        length, g = kept[key]
        spheres.append(SphereRecord(InversiveVector.from_coords(decode(key)), length, g))
    return Packing(
        spheres=spheres,
        saturated=not capped,
        bend_bound=bend_bound,
        max_word=max_word,
        generator_idx=tuple(generator_idx),
        dim=walls[0].dim,
        boundary_walls=plane_count,
    )


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


@dataclass
class IntegralityReport:
    integral: bool
    witnesses: list[SphereRecord] = field(default_factory=list)


def certify_integral(packing: Packing, max_witnesses: int = 10) -> IntegralityReport:
    witnesses = []
    for rec in packing.spheres:
        if not rec.vector.bend.is_rational_integer():
            witnesses.append(rec)
            if len(witnesses) >= max_witnesses:
                break
    return IntegralityReport(integral=not witnesses, witnesses=witnesses)
