"""Gram matrices, the dual form, bends conjugation, and the cyclic-product
arithmeticity test."""

import random
from fractions import Fraction

import pytest

from packinglab.arithmetic import (
    SingularCluster,
    SingularGram,
    VinbergVerdict,
    bends_conjugate,
    bends_vector,
    dual_form,
    gram_matrix,
    vinberg_test,
)
from packinglab.coxeter import GramMatrix
from packinglab.exactnum import QuadExt
from packinglab.fixtures import apollonian_system, hexpyr_expected_gram, hexpyr_system
from packinglab.inversive import reflection_matrix, sphere_from_center_radius


def octet_cluster():
    sysm = apollonian_system()
    return [sysm.walls[i] for i in sysm.cluster_idx]


APOLLONIAN_GRAM = gram_matrix(octet_cluster())


def test_descartes_quadruple_gram_pattern():
    e = APOLLONIAN_GRAM.entries
    for i in range(4):
        for j in range(4):
            assert e[i][j] == (QuadExt(-1) if i == j else QuadExt(1))


def test_single_circle_gram():
    c = sphere_from_center_radius((QuadExt(0), QuadExt(0)), QuadExt(1))
    g = gram_matrix([c])
    assert g.entries == ((QuadExt(-1),),)


def test_hexpyr_gram_matches_reference():
    sysm = hexpyr_system()
    assert gram_matrix(list(sysm.walls)).entries == hexpyr_expected_gram().entries


def test_dual_form_of_descartes_gram():
    f = dual_form(APOLLONIAN_GRAM)
    quarter, nquarter = QuadExt(Fraction(1, 4)), QuadExt(Fraction(-1, 4))
    for i in range(4):
        for j in range(4):
            assert f.entries[i][j] == (nquarter if i == j else quarter)


def test_dual_form_inverts_exactly():
    g = hexpyr_expected_gram()
    f = dual_form(GramMatrix(tuple(tuple(row[:4]) for row in g.entries[:4])))
    prod = [
        [sum((f.entries[i][k] * g.entries[k][j] for k in range(4)), QuadExt(0)) for j in range(4)]
        for i in range(4)
    ]
    for i in range(4):
        for j in range(4):
            assert prod[i][j] == (QuadExt(1) if i == j else QuadExt(0))


def test_singular_gram_rejected():
    one, neg = QuadExt(1), QuadExt(-1)
    rows = ((neg, one, one), (one, neg, one), (one, one, neg))
    dup = GramMatrix((rows[0], rows[1], rows[1]))
    with pytest.raises(SingularGram):
        dual_form(dup)


def test_hexpyr_dual_form_keeps_surds():
    # wall 14 meets wall 1 at product 2/sqrt(3); a full-rank quadruple
    # through that pair inherits the surd in its dual form
    g = hexpyr_expected_gram().entries
    idx = (0, 1, 7, 13)
    sub = GramMatrix(tuple(tuple(g[i][j] for j in idx) for i in idx))
    assert any(g[i][j].surd != 0 for i in idx for j in idx)
    assert not all(x.is_rational() for row in dual_form(sub).entries for x in row)


def test_bends_vector_reads_second_coordinate():
    assert bends_vector(octet_cluster()) == (QuadExt(-1), QuadExt(2), QuadExt(2), QuadExt(3))


def test_bends_conjugate_identity():
    from packinglab.inversive import ReflectionMatrix
    from packinglab.linalg import identity

    cluster = octet_cluster()
    ident = ReflectionMatrix(identity(4), dim=2)
    a = bends_conjugate(ident, cluster)
    for i in range(4):
        for j in range(4):
            assert a[i][j] == (QuadExt(1) if i == j else QuadExt(0))


def test_bends_conjugate_is_descartes_swap():
    sysm = apollonian_system()
    cluster = octet_cluster()
    a = bends_conjugate(reflection_matrix(sysm.walls[4]), cluster)
    swap = (
        (QuadExt(-1), QuadExt(2), QuadExt(2), QuadExt(2)),
        (QuadExt(0), QuadExt(1), QuadExt(0), QuadExt(0)),
        (QuadExt(0), QuadExt(0), QuadExt(1), QuadExt(0)),
        (QuadExt(0), QuadExt(0), QuadExt(0), QuadExt(1)),
    )
    assert a == swap


def test_conjugates_preserve_dual_form():
    sysm = apollonian_system()
    cluster = octet_cluster()
    f = dual_form(APOLLONIAN_GRAM).entries
    for widx in sysm.cocluster_idx:
        a = bends_conjugate(reflection_matrix(sysm.walls[widx]), cluster)
        # A^T F A = F entrywise
        for i in range(4):
            for j in range(4):
                got = QuadExt(0)
                for k in range(4):
                    for l in range(4):
                        got = got + a[k][i] * f[k][l] * a[l][j]
                assert got == f[i][j]


def test_bends_on_dual_cone():
    b = bends_vector(octet_cluster())
    f = dual_form(APOLLONIAN_GRAM).entries
    total = QuadExt(0)
    for i in range(4):
        for j in range(4):
            total = total + b[i] * f[i][j] * b[j]
    assert total == QuadExt(0)


def test_singular_cluster_rejected():
    cluster = octet_cluster()
    with pytest.raises(SingularCluster):
        bends_conjugate(reflection_matrix(cluster[0]), [cluster[0]] * 4)


def test_gram_invariant_under_wall_action():
    sysm = apollonian_system()
    cluster = octet_cluster()
    m = reflection_matrix(sysm.walls[5])
    moved = [m.apply(v) for v in cluster]
    assert gram_matrix(moved).entries == APOLLONIAN_GRAM.entries


# -- arithmeticity -------------------------------------------------------------


def test_hexpyr_fails_vinberg_with_pair_witness():
    verdict = vinberg_test(hexpyr_expected_gram(), max_len=8)
    assert verdict.non_arithmetic
    assert verdict.witness_cycle == (0, 13)
    assert verdict.product == QuadExt(Fraction(16, 3))
    assert str(verdict) == "NonArithmetic(cycle=(1,14), product=16/3)"


def test_descartes_gram_passes():
    verdict = vinberg_test(APOLLONIAN_GRAM, max_len=8)
    assert not verdict.non_arithmetic
    assert verdict.witness_cycle is None


def test_diagonal_gram_passes_vacuously():
    neg, zero = QuadExt(-1), QuadExt(0)
    g = GramMatrix(tuple(tuple(neg if i == j else zero for j in range(3)) for i in range(3)))
    verdict = vinberg_test(g, max_len=6)
    assert not verdict.non_arithmetic


def test_verdict_invariant_under_reorientation():
    g = hexpyr_expected_gram()
    k = len(g.entries)
    rng = random.Random(3)
    signs = [rng.choice((QuadExt(1), QuadExt(-1))) for _ in range(k)]
    flipped = GramMatrix(
        tuple(
            tuple(signs[i] * g.entries[i][j] * signs[j] if i != j else g.entries[i][j]
                  for j in range(k))
            for i in range(k)
        )
    )
    a = vinberg_test(g, max_len=4)
    b = vinberg_test(flipped, max_len=4)
    assert a.non_arithmetic == b.non_arithmetic
