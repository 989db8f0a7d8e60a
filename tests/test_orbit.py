"""Orbit enumeration: packings, superpackings, saturation, integrality."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import soddy_oracle
from descartes_oracle import gasket_bends
from soddy import soddy_walls

from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt
from packinglab.fixtures import apollonian_system, hexpyr_system
from packinglab.inversive import inversive_product, plane_from_normal_offset, sphere_from_center_radius
from packinglab.orbit import (
    FrontierOverflow,
    Packing,
    WallSystem,
    certify_integral,
    generate_packing,
    generate_superpacking,
)


def bends(packing):
    return [str(b) for b in packing.bends_list()]


def test_root_quadruple_at_bound_three():
    p = generate_packing(apollonian_system(), QuadExt(3), max_word=64)
    assert bends(p) == ["-1", "2", "2", "3", "3"]
    assert p.saturated


def test_packing_matches_descartes_oracle():
    p = generate_packing(apollonian_system(), QuadExt(60), max_word=500)
    assert p.saturated
    assert bends(p) == [str(b) for b in gasket_bends(60)]


def _pairs(vector):
    """An inversive vector over Q(sqrt(3)) as soddy_oracle's pairs."""
    return tuple(
        (Fraction(a, q), Fraction(b, q)) for a, b, q in (x.triple for x in vector.coords())
    )


def test_soddy_packing_matches_the_soddy_oracle():
    walls = soddy_walls()
    assert tuple(map(_pairs, walls[:5])) == soddy_oracle.ROOT
    p = generate_packing(WallSystem(walls, range(5), range(5, 10)), QuadExt(30), max_word=1000)
    assert p.saturated and certify_integral(p).integral
    got = [_pairs(v) for v in p.vectors()]
    assert len(got) == len(set(got)) == 1119
    assert set(got) == soddy_oracle.soddy_spheres(30)


def test_cluster_only_when_word_zero():
    p = generate_packing(apollonian_system(), QuadExt(10), max_word=0)
    assert bends(p) == ["-1", "2", "2", "3"]
    assert not p.saturated


def test_single_circle_packing():
    unit = sphere_from_center_radius((QuadExt(0), QuadExt(0)), QuadExt(1))
    axis = plane_from_normal_offset((QuadExt(0), QuadExt(1)), QuadExt(-2))
    sysm = WallSystem(walls=(unit, axis), cluster_idx=(0,), cocluster_idx=(1,))
    p = generate_packing(sysm, QuadExt(1), max_word=0)
    assert bends(p) == ["1"]


def test_determinism():
    a = generate_packing(apollonian_system(), QuadExt(40), max_word=300)
    b = generate_packing(apollonian_system(), QuadExt(40), max_word=300)
    assert [r.vector for r in a.spheres] == [r.vector for r in b.spheres]
    assert [(r.word_length, r.parent_generator) for r in a.spheres] == [
        (r.word_length, r.parent_generator) for r in b.spheres
    ]


def test_group_closure_soundness():
    sysm = apollonian_system()
    p = generate_packing(sysm, QuadExt(20), max_word=200)
    vectors = {r.vector for r in p.spheres}
    for rec in p.spheres:
        for widx in sysm.cocluster_idx:
            image = rec.vector.reflect(sysm.walls[widx])
            in_bound = image.bend.is_rational() and abs(Fraction(image.bend.rat)) <= 20
            if image.bend == QuadExt(0) or in_bound:
                assert image in vectors
    assert p.saturated


def test_interior_disjointness():
    p = generate_packing(apollonian_system(), QuadExt(20), max_word=200)
    vs = [r.vector for r in p.spheres]
    one = QuadExt(1)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            assert (inversive_product(vs[i], vs[j]) - one).sign() >= 0


def test_packing_contained_in_superpacking():
    p = generate_packing(apollonian_system(), QuadExt(20), max_word=64)
    sp = generate_superpacking(apollonian_system(), QuadExt(20), max_word=64)
    pv = {r.vector for r in p.spheres}
    spv = {r.vector for r in sp.spheres}
    assert pv <= spv
    assert len(spv) > len(pv)


def test_superpacking_monotone_in_bound():
    small = generate_superpacking(apollonian_system(), QuadExt(10), max_word=24)
    large = generate_superpacking(apollonian_system(), QuadExt(25), max_word=24)
    assert {r.vector for r in small.spheres} <= {r.vector for r in large.spheres}


def test_superpacking_word_zero_is_cluster():
    sp = generate_superpacking(apollonian_system(), QuadExt(100), max_word=0)
    assert bends(sp) == ["-1", "2", "2", "3"]


@pytest.mark.parametrize("make", [generate_packing, generate_superpacking])
@pytest.mark.parametrize(
    "bound, max_word, message",
    [(QuadExt(20), -1, "max_word must be a non-negative int, got -1"),
     (QuadExt(20), 2.0, "max_word must be a non-negative int, got 2.0"),
     (QuadExt(-5), 64, "bend bound must not be negative, got -5"),
     ("1-1*sqrt(3)", 64, r"bend bound must not be negative, got 1-1\*sqrt\(3\)")],
    ids=["word-negative", "word-float", "bound-negative", "bound-negative-surd"],
)
def test_negative_word_or_bound_is_refused(make, bound, max_word, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        make(apollonian_system(), bound, max_word=max_word)


@pytest.mark.parametrize("make", [generate_packing, generate_superpacking])
def test_zero_word_and_zero_bound_are_valid(make):
    p = make(apollonian_system(), QuadExt(0), max_word=0)
    assert bends(p) == ["-1", "2", "2", "3"] and not p.saturated
    # past the seeds, a bound of 0 keeps planes alone
    assert set(bends(make(apollonian_system(), QuadExt(0), max_word=8))) <= {"-1", "0", "2", "3"}


@pytest.mark.parametrize("at", [1, 6], ids=["cluster", "cocluster"])
def test_wall_of_another_dimension_is_refused(at):
    # a 3-D unit sphere among the circles of the strip gasket
    walls = list(apollonian_system().walls)
    walls[at] = sphere_from_center_radius((0, 0, 0), 1)
    with pytest.raises(ParameterError, match=f"^wall {at} has dimension 3, not 2 as wall 0 has$"):
        WallSystem(walls, range(4), range(4, 8))


@pytest.mark.parametrize(
    "cluster, cocluster, message",
    [(range(4), range(3, 8), "cluster and cocluster must partition the walls"),
     (range(4), range(4, 7), "cluster and cocluster must partition the walls"),
     (range(4), range(4, 9), "cluster and cocluster must partition the walls"),
     ((), range(8), "cluster must be nonempty")],
    ids=["overlap", "short", "past-the-walls", "empty-cluster"],
)
def test_wall_system_indices_must_partition_the_walls(cluster, cocluster, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        WallSystem(apollonian_system().walls, cluster, cocluster)


def test_frontier_cap_enforced():
    with pytest.raises(FrontierOverflow):
        generate_packing(apollonian_system(), QuadExt(5000), max_word=5000, frontier_cap=10)


def test_apollonian_integral():
    p = generate_packing(apollonian_system(), QuadExt(100), max_word=600)
    rep = certify_integral(p)
    assert rep.integral and rep.witnesses == []


def test_empty_packing_vacuously_integral():
    empty = Packing(spheres=[], saturated=True, bend_bound=QuadExt(0), max_word=0,
                    generator_idx=(), dim=2)
    assert certify_integral(empty).integral


def test_hexpyr_packing_integral_superpacking_not():
    sysm = hexpyr_system()
    p = generate_packing(sysm, QuadExt(30), max_word=40)
    assert certify_integral(p).integral
    sp = generate_superpacking(sysm, QuadExt(30), max_word=3)
    rep = certify_integral(sp)
    assert not rep.integral
    witness_bends = {str(r.vector.bend) for r in rep.witnesses}
    assert "-1/3" in witness_bends


def test_every_sphere_on_quadric():
    p = generate_superpacking(hexpyr_system(), QuadExt(12), max_word=3)
    for rec in p.spheres:
        assert rec.vector.validate()


def test_word_lengths_start_at_zero_and_step():
    p = generate_packing(apollonian_system(), QuadExt(40), max_word=300)
    seen = {}
    for rec in p.spheres:
        seen.setdefault(rec.word_length, 0)
        seen[rec.word_length] += 1
        if rec.word_length == 0:
            assert rec.parent_generator is None
        else:
            assert rec.parent_generator in apollonian_system().cocluster_idx
    assert seen[0] == 4
