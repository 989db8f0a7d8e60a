"""The int-tuple orbit kernel against the QuadExt closure it replaced.

Every field of the Packing must agree, record order included, and the JSON
of both must be byte-identical.
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import quadext_orbit_oracle as oracle

from packinglab import serialize
from packinglab.exactnum import DiscMismatch, QuadExt
from packinglab.fixtures import apollonian_system, hexpyr_system
from packinglab.inversive import InversiveVector, plane_from_normal_offset, sphere_from_center_radius
from packinglab.orbit import (
    FrontierOverflow,
    Packing,
    WallSystem,
    encode,
    generate_packing,
    generate_superpacking,
)


def assert_same_packing(got, want):
    for f in dataclasses.fields(Packing):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert serialize.dumps(got) == serialize.dumps(want)


def scaled(system, lam):
    """The system under z -> lam*z: cobend * lam, bend / lam, bz unchanged."""
    lam = QuadExt(lam)
    walls = [InversiveVector(w.cobend * lam, w.bend / lam, w.bz) for w in system.walls]
    return WallSystem(walls, system.cluster_idx, system.cocluster_idx)


@pytest.mark.parametrize(
    "system, kind, bound, word",
    [
        (apollonian_system, "packing", 200, 600),
        (hexpyr_system, "packing", 60, 400),
        (hexpyr_system, "super", 30, 3),
        (hexpyr_system, "super", 30, 4),
    ],
    ids=["apollonian-200", "hexpyr-60", "hexpyr-super-30-w3", "hexpyr-super-30-w4"],
)
def test_kernel_matches_oracle(system, kind, bound, word):
    make, make_oracle = {
        "packing": (generate_packing, oracle.generate_packing),
        "super": (generate_superpacking, oracle.generate_superpacking),
    }[kind]
    sysm = system()
    assert_same_packing(make(sysm, QuadExt(bound), max_word=word),
                        make_oracle(sysm, QuadExt(bound), max_word=word))


@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(2, 5)], ids=["1/3", "2/5"])
def test_kernel_matches_oracle_on_fractional_coordinates(lam):
    sysm = scaled(apollonian_system(), lam)
    bound = QuadExt(60) / lam
    got = generate_packing(sysm, bound, max_word=300)
    assert_same_packing(got, oracle.generate_packing(sysm, bound, max_word=300))
    # the denominator and gcd path ran: some kept spheres have den > 1
    assert any(encode(r.vector.coords())[-1] > 1 for r in got.spheres)


@pytest.mark.parametrize(
    "system, bound",
    [
        (apollonian_system, "20+5*sqrt(3)"),
        (apollonian_system, "10*sqrt(2)"),
        (hexpyr_system, "20+2*sqrt(3)"),
    ],
    ids=["apollonian-sqrt3", "apollonian-sqrt2", "hexpyr-sqrt3"],
)
def test_kernel_matches_oracle_on_surd_bound(system, bound):
    sysm, bound = system(), QuadExt.parse(bound)
    assert_same_packing(generate_packing(sysm, bound, max_word=400),
                        oracle.generate_packing(sysm, bound, max_word=400))
    assert_same_packing(generate_superpacking(sysm, bound, max_word=2),
                        oracle.generate_superpacking(sysm, bound, max_word=2))


def test_frontier_overflow_at_the_same_cap():
    sysm, bound = apollonian_system(), QuadExt(30)
    raised = []
    for cap in range(1, 17):
        try:
            want = oracle.generate_packing(sysm, bound, max_word=200, frontier_cap=cap)
        except FrontierOverflow:
            with pytest.raises(FrontierOverflow, match=f"frontier exceeded {cap} spheres"):
                generate_packing(sysm, bound, max_word=200, frontier_cap=cap)
            raised.append(cap)
        else:
            assert_same_packing(generate_packing(sysm, bound, max_word=200, frontier_cap=cap), want)
    assert raised == list(range(1, len(raised) + 1)) and 1 < len(raised) < 16


def test_walls_from_two_fields_raise_disc_mismatch():
    in_sqrt2 = sphere_from_center_radius((QuadExt.sqrt(2), 0), 1)
    half_sqrt3 = QuadExt.sqrt(3) / 2
    in_sqrt3 = plane_from_normal_offset((QuadExt(1) / 2, half_sqrt3), 0)
    sysm = WallSystem(walls=(in_sqrt2, in_sqrt3), cluster_idx=(0,), cocluster_idx=(1,))
    with pytest.raises(DiscMismatch):
        generate_packing(sysm, QuadExt(10), max_word=4)


def test_bound_from_another_field_raises_disc_mismatch():
    with pytest.raises(DiscMismatch):
        generate_packing(hexpyr_system(), QuadExt.parse("10*sqrt(2)"), max_word=4)
