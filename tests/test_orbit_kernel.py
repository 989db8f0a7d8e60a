"""The int-array orbit kernel against the QuadExt closure it replaced.

Every field of the Packing must agree, record order included, and the JSON
of both must be byte-identical.  The kernel's int64/object rule and its
float-proposed, exactly confirmed order are tested here too.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import quadext_orbit_oracle as oracle

from packinglab import orbit, serialize
from packinglab.exactnum import DiscMismatch, QuadExt, encode, field_disc
from packinglab.fixtures import apollonian_system, hexpyr_system
from packinglab.inversive import InversiveVector, decode_rows, plane_from_normal_offset, sphere_from_center_radius
from packinglab.orbit import (
    FrontierOverflow,
    WallSystem,
    generate_packing,
    generate_superpacking,
)


def assert_same_packing(got, want):
    for name in ("spheres", "word_lengths", "parents", "d", "saturated", "bend_bound",
                 "max_word", "generator_idx", "dim", "boundary_walls"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.codes.dtype == want.codes.dtype and np.array_equal(got.codes, want.codes)
    assert serialize.dumps(got) == serialize.dumps(want)


def scaled(system, lam, only=None):
    """The system under z -> lam*z: cobend * lam, bend / lam, bz unchanged;
    only the walls at the indices only, if given."""
    lam = QuadExt(lam)
    walls = [
        InversiveVector(w.cobend * lam, w.bend / lam, w.bz) if only is None or i in only else w
        for i, w in enumerate(system.walls)
    ]
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


def test_object_dtype_when_codes_outgrow_int64():
    lam = Fraction(1, 10**12)
    sysm = scaled(apollonian_system(), lam)
    bound = QuadExt(200) / lam
    got = generate_packing(sysm, bound, max_word=600)
    assert_same_packing(got, oracle.generate_packing(sysm, bound, max_word=600))
    # the object path ran: int64 holds no such code
    assert any(abs(x) >= 2**63 for r in got.spheres for x in encode(r.vector.coords()))


def level_dtypes(monkeypatch):
    """The dtype chosen for each level of the next closures, in order."""
    seen = []
    real = orbit._level_dtype

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(orbit, "_level_dtype", spy)
    return seen


@pytest.mark.parametrize("system", [apollonian_system, hexpyr_system], ids=["d=0", "d=3"])
def test_level_just_under_the_int64_guard(system, monkeypatch):
    """The first level of the largest frontier whose values provably fit
    int64 runs in int64, and one step past it in object dtype.

    The cluster walls alone are scaled by 1/N, which moves the seeds'
    largest entry M and leaves the generators.  The bound, written out:
    2Qs entries W, den^2 at most S2, k coordinates; |pa| <= k (1 + d) M W,
    |pb| <= 2 k M W (0 for d = 0), child entries C = M S2 + W (pa +
    max(d, 1) pb).  N and N + 1 straddle C = 2**63, and C moves by a factor
    under 1 + 2**-20 between them, so a guard that is off by more moves
    one of the two runs.
    """
    base = system()
    d = field_disc(x.disc for w in base.walls for x in w.coords())

    def frontier(scale):
        sysm = scaled(base, Fraction(1, scale), base.cluster_idx)
        codes = [encode(w.coords()) for w in sysm.walls]
        n = len(codes[0]) - 1
        gens = [codes[g] for g in sysm.cocluster_idx]
        m = max(abs(x) for i in sysm.cluster_idx for x in codes[i])
        w = max(abs(x) for s in gens for x in s[2:4] + s[0:2] + tuple(2 * y for y in s[4:n]))
        s2 = max(s[n] ** 2 for s in gens)
        k = n // 2
        pa, pb = k * (1 + d) * m * w, 2 * k * m * w if d else 0
        return sysm, m * s2 + w * (pa + max(d, 1) * pb)

    under, over = 1, 2**40  # C fits at under and not at over
    while over - under > 1:
        mid = (under + over) // 2
        under, over = (mid, over) if frontier(mid)[1] < 2**63 else (under, mid)
    assert frontier(over)[1] < frontier(under)[1] * (1 + 2**-20)
    seen = level_dtypes(monkeypatch)
    for scale, dtype in ((under, np.int64), (over, object)):
        sysm = frontier(scale)[0]
        seen.clear()
        got = generate_packing(sysm, QuadExt(60), max_word=2)
        assert seen[0] is dtype, scale
        assert_same_packing(got, oracle.generate_packing(sysm, QuadExt(60), max_word=2))


def test_deep_hexpyr_levels_run_in_int64(monkeypatch):
    # no kept entry needs more than 11 bits, so every level's children fit
    seen = level_dtypes(monkeypatch)
    got = generate_packing(hexpyr_system(), QuadExt(500), max_word=400)
    assert len(got.spheres) == 836 and got.saturated
    assert len(seen) > 10 and all(dtype is np.int64 for dtype in seen)
    assert_same_packing(got, oracle.generate_packing(hexpyr_system(), QuadExt(500), max_word=400))


def bend_test_rows(monkeypatch):
    """(children, rows the exact test took) for each level of the next
    closures."""
    seen = []
    real_test, real_from_triple = orbit._bend_test, orbit.from_triple

    def bend_test(a, *args):
        seen.append((len(a), 0))
        return real_test(a, *args)

    def from_triple(*args):
        seen[-1] = (seen[-1][0], seen[-1][1] + 1)
        return real_from_triple(*args)

    monkeypatch.setattr(orbit, "_bend_test", bend_test)
    monkeypatch.setattr(orbit, "from_triple", from_triple)
    return seen


def surd_hexpyr():
    """hexpyr under z -> (1 + sqrt 3) z: bends (sqrt 3 - 1)/2 times hexpyr's,
    each with a rational and a surd part."""
    return scaled(hexpyr_system(), 1 + QuadExt.sqrt(3))


@pytest.mark.parametrize(
    "system, bend",
    [(apollonian_system, QuadExt(98)), (surd_hexpyr, QuadExt(59) * (QuadExt.sqrt(3) - 1) / 2)],
    ids=["gasket-98", "hexpyr-59(sqrt3-1)/2"],
)
@pytest.mark.parametrize(
    "offset", [0, Fraction(1, 10**30), -Fraction(1, 10**30)], ids=["at", "above", "below"]
)
def test_bound_at_a_bend_takes_the_exact_test(system, bend, offset, monkeypatch):
    sysm, bound = system(), bend + offset
    rows = bend_test_rows(monkeypatch)
    got = generate_packing(sysm, bound, max_word=400)
    assert_same_packing(got, oracle.generate_packing(sysm, bound, max_word=400))
    # the bend is held exactly when the bound reaches it, and no float could
    # tell the two apart
    assert (bend in [r.vector.bend for r in got.spheres]) == (offset >= 0)
    assert any(exact for _, exact in rows)


@pytest.mark.parametrize(
    "system, bound", [(apollonian_system, 100), (hexpyr_system, 60)], ids=["d=0", "d=3"]
)
def test_bend_test_falls_back_when_floats_overflow(system, bound, monkeypatch):
    lam = Fraction(1, 10**400)
    sysm, bound = scaled(system(), lam), QuadExt(bound) / lam
    rows = bend_test_rows(monkeypatch)
    got = generate_packing(sysm, bound, max_word=400)
    assert_same_packing(got, oracle.generate_packing(sysm, bound, max_word=400))
    # every child of every level took the exact test
    assert len(rows) > 3 and all(exact == children for children, exact in rows)


def exact_order(codes):
    """(bend,) + coords for rational codes, by Fractions."""
    n = len(codes[0]) - 1
    return sorted(codes, key=lambda c: tuple(Fraction(c[j], c[n]) for j in (2, *range(0, n, 2))))


@pytest.mark.parametrize(
    "top", [10**20, 10**400], ids=["floats-tie", "float-overflow"]
)
def test_order_falls_back_to_the_exact_compare(top, monkeypatch):
    # (10**20 + 1) / 3 and 10**20 / 3 are one float; the codes come in the
    # wrong exact order, so the stable float sort keeps them wrong
    codes = [(1, 0, top + 1, 0, 0, 0, 0, 0, 3), (1, 0, top, 0, 0, 0, 0, 0, 3), (1, 0, 5, 0, 0, 0, 0, 0, 3)]
    fallbacks = []
    monkeypatch.setattr(orbit, "decode_rows", lambda *args: fallbacks.append(args) or decode_rows(*args))
    order = orbit._code_order(np.array(codes, dtype=object), 0)
    assert [codes[i] for i in order] == exact_order(codes)
    assert len(fallbacks) == 1


def test_order_confirmed_without_the_fallback(monkeypatch):
    fallbacks = []
    monkeypatch.setattr(orbit, "decode_rows", lambda *args: fallbacks.append(args) or decode_rows(*args))
    got = generate_packing(apollonian_system(), QuadExt(200), max_word=600)
    assert fallbacks == []
    codes = [encode(r.vector.coords()) for r in got.spheres]
    assert codes == exact_order(codes)
