"""Cluster/cocluster decomposition checking and enumeration.

The enumeration is cross-checked against a brute-force scan written here
from the two defining conditions alone: cluster pairs tangent or disjoint,
cross pairs tangent, disjoint, or orthogonal.
"""

import itertools
from fractions import Fraction

import pytest

from packinglab.coxeter import GramMatrix, gram_from_diagram, parse_diagram
from packinglab.exactnum import QuadExt, compare
from packinglab.fixtures import COX6_DIAGRAM, EISENSTEIN_DIAGRAM
from packinglab.structure import (
    Decomposition,
    InvalidDecomposition,
    TooManyWalls,
    check_decomposition,
    enumerate_decompositions,
)

COX6_GRAM = gram_from_diagram(parse_diagram(COX6_DIAGRAM))
EIS_GRAM = gram_from_diagram(parse_diagram(EISENSTEIN_DIAGRAM))


def all_tangent_gram(k):
    one, neg = QuadExt(1), QuadExt(-1)
    return GramMatrix(tuple(tuple(neg if i == j else one for j in range(k)) for i in range(k)))


def brute_force_decompositions(gram):
    """Direct bipartition scan from the definition, independent of the
    pruning logic in the module under test."""
    k = len(gram.entries)

    def entry_ok_cluster(i, j):
        if (i, j) in gram.placeholders or (j, i) in gram.placeholders:
            return True
        v = gram.entries[i][j]
        return v == QuadExt(1) or compare(v, QuadExt(1)) > 0

    def entry_ok_cross(i, j):
        if (i, j) in gram.placeholders or (j, i) in gram.placeholders:
            return True
        v = gram.entries[i][j]
        return v == QuadExt(0) or v == QuadExt(1) or compare(v, QuadExt(1)) > 0

    found = []
    for r in range(1, k + 1):
        for cluster in itertools.combinations(range(k), r):
            cs = set(cluster)
            ok = all(entry_ok_cluster(i, j) for i, j in itertools.combinations(cluster, 2))
            ok = ok and all(
                entry_ok_cross(i, j) for i in cluster for j in range(k) if j not in cs
            )
            if ok:
                found.append(frozenset(cluster))
    return found


def test_six_wall_first_cluster_valid():
    rep = check_decomposition(COX6_GRAM, Decomposition(frozenset({0}), frozenset(range(1, 6))))
    assert rep.valid and rep.violations == []


def test_six_wall_crossing_wall_invalid():
    # wall 1 (0-based) meets wall 4 at angle pi/3; a crossing can sit in
    # neither the cluster nor across the split
    rep = check_decomposition(COX6_GRAM, Decomposition(frozenset({1}), frozenset({0, 2, 3, 4, 5})))
    assert not rep.valid
    assert any({i, j} == {1, 4} for i, j, _ in rep.violations)


def test_empty_cluster_rejected():
    with pytest.raises(InvalidDecomposition):
        check_decomposition(COX6_GRAM, Decomposition(frozenset(), frozenset(range(6))))


def test_cluster_must_partition():
    with pytest.raises(InvalidDecomposition):
        check_decomposition(COX6_GRAM, Decomposition(frozenset({0}), frozenset({2, 3, 4, 5})))


def test_six_wall_enumeration():
    decs = enumerate_decompositions(COX6_GRAM)
    clusters = [d.cluster for d in decs]
    assert frozenset({0}) in clusters
    for d in decs:
        assert check_decomposition(COX6_GRAM, d).valid


def test_eisenstein_singleton_clusters():
    decs = enumerate_decompositions(EIS_GRAM)
    singles = sorted(sorted(d.cluster) for d in decs if len(d.cluster) == 1)
    assert singles == [[0], [2]]


def test_all_tangent_every_subset_works():
    k = 4
    decs = enumerate_decompositions(all_tangent_gram(k))
    assert len(decs) == 2**k - 1


def test_enumeration_matches_brute_force():
    for gram in (COX6_GRAM, EIS_GRAM, all_tangent_gram(3)):
        mine = sorted(sorted(d.cluster) for d in enumerate_decompositions(gram))
        ref = sorted(sorted(c) for c in brute_force_decompositions(gram))
        assert mine == ref


def test_validity_permutation_invariant():
    perm = (3, 5, 0, 1, 4, 2)
    entries = tuple(
        tuple(COX6_GRAM.entries[perm[i]][perm[j]] for j in range(6)) for i in range(6)
    )
    permuted = GramMatrix(
        entries,
        placeholders=frozenset(
            (min(perm.index(a), perm.index(b)), max(perm.index(a), perm.index(b)))
            for a, b in COX6_GRAM.placeholders
        ),
    )
    ref = sorted(sorted(perm.index(i) for i in c) for c in brute_force_decompositions(COX6_GRAM))
    got = sorted(sorted(d.cluster) for d in enumerate_decompositions(permuted))
    assert got == ref


def test_wall_cap_enforced():
    with pytest.raises(TooManyWalls):
        enumerate_decompositions(all_tangent_gram(8), wall_cap=6)


def test_enumeration_deterministic_order():
    a = [sorted(d.cluster) for d in enumerate_decompositions(COX6_GRAM)]
    b = [sorted(d.cluster) for d in enumerate_decompositions(COX6_GRAM)]
    assert a == b == sorted(a)


def test_orthogonal_cluster_pair_is_a_violation():
    # walls 0 and 2 share no edge, so they are orthogonal; every cross pair
    # is tangent, disjoint or orthogonal
    rep = check_decomposition(COX6_GRAM, Decomposition(frozenset({0, 2}), frozenset({1, 3, 4, 5})))
    assert not rep.valid
    assert rep.violations == [(0, 2, "cluster pair is orthogonal")]
