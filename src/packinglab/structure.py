"""Cluster/cocluster decompositions of a wall collection.

A split C | C-hat of the walls is admissible when every pair inside C is
tangent or disjoint and every pair across the split is orthogonal, tangent
or disjoint.  Dihedral angle pairs must therefore sit entirely inside C-hat.
Pairs inside C-hat are unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .coxeter import Angle, Disjoint, GramMatrix, Tangent, diagram_from_gram
from .errors import PackingLabError


class InvalidDecomposition(PackingLabError):
    pass


class TooManyWalls(PackingLabError):
    pass


@dataclass(frozen=True)
class Decomposition:
    cluster: frozenset[int]
    cocluster: frozenset[int]

    def labels(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """1-based labels, for presentation."""
        return (
            tuple(i + 1 for i in sorted(self.cluster)),
            tuple(i + 1 for i in sorted(self.cocluster)),
        )

    def __str__(self):
        c, ch = self.labels()
        fmt = lambda xs: "{" + ",".join(map(str, xs)) + "}"
        return f"C={fmt(c)} C^={fmt(ch)}"


@dataclass
class DecompositionReport:
    valid: bool
    violations: list[tuple[int, int, str]] = field(default_factory=list)


def check_decomposition(gram: GramMatrix, decomposition: Decomposition) -> DecompositionReport:
    k = gram.size
    cluster, cocluster = decomposition.cluster, decomposition.cocluster
    if not cluster:
        raise InvalidDecomposition("cluster must be nonempty")
    if cluster & cocluster or (cluster | cocluster) != frozenset(range(k)):
        raise InvalidDecomposition("cluster and cocluster must partition the walls")
    edges = diagram_from_gram(gram).edges
    violations = []
    for i, j in combinations(range(k), 2):
        kind = edges.get((i, j))
        in_c = (i in cluster) + (j in cluster)
        if in_c == 2 and not isinstance(kind, (Tangent, Disjoint)):
            what = "orthogonal" if kind is None else f"angle pi/{kind.m}"
            violations.append((i, j, f"cluster pair is {what}"))
        elif in_c == 1 and isinstance(kind, Angle):
            violations.append((i, j, f"cross pair meets at angle pi/{kind.m}"))
    return DecompositionReport(valid=not violations, violations=violations)


def enumerate_decompositions(gram: GramMatrix, wall_cap: int = 30) -> list[Decomposition]:
    """The admissible decompositions, clusters in lexicographic order."""
    k = gram.size
    if k > wall_cap:
        raise TooManyWalls(f"{k} walls exceeds cap {wall_cap}")
    edges = diagram_from_gram(gram).edges

    # Any wall on an angle edge is forced into the cocluster; inside the
    # remaining candidates only orthogonal pairs, the absent edges, are
    # forbidden.
    blocked = set()
    for pair, kind in edges.items():
        if isinstance(kind, Angle):
            blocked.update(pair)
    candidates = [i for i in range(k) if i not in blocked]

    all_walls = frozenset(range(k))

    def extend(chosen: list[int], start: int) -> Iterator[Decomposition]:
        for idx in range(start, len(candidates)):
            w = candidates[idx]
            if all((min(c, w), max(c, w)) in edges for c in chosen):
                chosen.append(w)
                cluster = frozenset(chosen)
                yield Decomposition(cluster, all_walls - cluster)
                yield from extend(chosen, idx + 1)
                chosen.pop()

    return list(extend([], 0))
