"""Residue admissibility of bends and missing-bend scans."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import residue_orbit_oracle as oracle
import soddy_oracle
from packinglab import localglobal, serialize
from packinglab.arithmetic import bends_conjugate, bends_vector
from packinglab.cli import main
from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt
from packinglab.fixtures import apollonian_system
from packinglab.inversive import reflection_matrix
from packinglab.localglobal import NonIntegralInput, ResidueOrbit, missing_bends, residue_orbit
from packinglab.orbit import WallSystem, generate_packing
from soddy import soddy_walls


def apollonian_generators():
    sysm = apollonian_system()
    cluster = [sysm.walls[i] for i in sysm.cluster_idx]
    gens = [bends_conjugate(reflection_matrix(sysm.walls[i]), cluster) for i in sysm.cocluster_idx]
    return gens, bends_vector(cluster)


GENS, START = apollonian_generators()


def test_modulus_one_admits_everything():
    ro = residue_orbit(GENS, START, 1)
    assert ro.residues == frozenset({0})
    assert ro.admits(17) and ro.admits(-3)


def test_mod_two_matches_independent_closure():
    # brute-force closure over (Z/2)^4 written straight from the action
    mats = [[[int(e.rat) % 2 for e in row] for row in g] for g in GENS]
    start = tuple(int(b.rat) % 2 for b in START)
    seen = {start}
    frontier = [start]
    while frontier:
        vec = frontier.pop()
        for m in mats:
            img = tuple(sum(m[r][c] * vec[c] for c in range(4)) % 2 for r in range(4))
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    expected = {coord for v in seen for coord in v}

    ro = residue_orbit(GENS, START, 2)
    assert set(ro.residues) == expected
    assert ro.vector_count == len(seen)


def test_mod_24_admissible_classes():
    ro = residue_orbit(GENS, START, 24)
    assert sorted(ro.residues) == [2, 3, 6, 11, 14, 15, 18, 23]


def test_enumerated_bends_all_admissible():
    pk = generate_packing(apollonian_system(), QuadExt(400), max_word=2000)
    bends = [int(b.rat) for b in pk.bends_list()]
    for m in (2, 3, 8, 24):
        ro = residue_orbit(GENS, START, m)
        assert all(ro.admits(b) for b in bends)


def test_observed_residues_saturate_admissible_set():
    pk = generate_packing(apollonian_system(), QuadExt(400), max_word=2000)
    observed = {int(b.rat) % 24 for b in pk.bends_list()}
    assert observed == set(residue_orbit(GENS, START, 24).residues)


def test_projection_consistency_coprime_pair():
    big = residue_orbit(GENS, START, 24)
    for m in (3, 8):
        assert {r % m for r in big.residues} == set(residue_orbit(GENS, START, m).residues)


def test_non_integral_generator_rejected():
    bad = [[[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]]]
    with pytest.raises(NonIntegralInput):
        residue_orbit(bad, [1, 1], 4)


def test_non_integral_bend_rejected():
    with pytest.raises(NonIntegralInput):
        missing_bends([QuadExt(Fraction(1, 3))], ResidueOrbit(2, frozenset({0, 1}), 1))


def test_missing_bends_empty_when_complete():
    ro = ResidueOrbit(2, frozenset({0, 1}), 1)
    assert missing_bends(range(1, 11), ro, bound=10) == []


def test_missing_bends_below_min_bound():
    ro = ResidueOrbit(2, frozenset({0, 1}), 1)
    assert missing_bends([5, 6], ro, bound=0) == []


def test_missing_bends_flags_absent_admissible_values():
    ro = ResidueOrbit(4, frozenset({1}), 1)
    assert missing_bends([1, 9], ro, bound=10) == [5]


def test_apollonian_scan_is_stable_and_sound():
    pk = generate_packing(apollonian_system(), QuadExt(600), max_word=3000)
    bends = [int(b.rat) for b in pk.bends_list()]
    ro = residue_orbit(GENS, START, 24)
    first = missing_bends(bends, ro, bound=600)
    second = missing_bends(bends, ro, bound=600)
    assert first == second
    present = set(bends)
    for n in first:
        assert ro.admits(n) and n not in present


# -- the int64 kernel, by hand and against the deque BFS it replaced ----------


@pytest.mark.parametrize(
    "gens, start, m, count, residues",
    [
        ([[[-1, 0], [0, -1]]], [1, 2], 7, 2, {1, 2, 5, 6}),  # v and -v
        ([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]], [1, 2, 3], 10, 3, {1, 2, 3}),  # a 3-cycle
        ([], [4, -4], 9, 1, {4, 5}),
    ],
    ids=["negation", "three-cycle", "no-generators"],
)
def test_small_orbits_by_hand(gens, start, m, count, residues):
    ro = residue_orbit(gens, start, m)
    assert (ro.vector_count, set(ro.residues)) == (count, residues)


def test_residue_memory_follows_the_orbit_not_the_modulus():
    # a 2-vector orbit mod 2*10**9: a table indexed by residue would take 2 GB
    gens, start, m = [[[-1, 0], [0, -1]]], [1, 2], 2 * 10**9
    tracemalloc.start()
    try:
        got = residue_orbit(gens, start, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    want = oracle.residue_orbit(gens, start, m)
    assert (got.residues, got.vector_count) == (want.residues, want.vector_count)
    assert got.residues == {1, 2, m - 2, m - 1}


def assert_matches_oracle(gens, start, m):
    got = residue_orbit(gens, start, m)
    want = oracle.residue_orbit(gens, start, m)
    assert (got.residues, got.vector_count) == (want.residues, want.vector_count)


@pytest.mark.parametrize("m", [*range(1, 49), 120, 240])
def test_apollonian_orbit_matches_oracle(m):
    assert_matches_oracle(GENS, START, m)


def random_generators(rng, k):
    """Two random integer matrices, neither an involution in general, and a
    third whose last row repeats its first, so it is singular mod every m."""
    def mat():
        return [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
    singular = mat()
    singular[-1] = list(singular[0])
    return [mat(), mat(), singular]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k, moduli", [(2, (5, 12, 31, 60)), (3, (4, 9, 15)), (5, (2, 3, 6))])
def test_random_generators_match_oracle(seed, k, moduli):
    rng = random.Random(1000 * k + seed)
    gens = random_generators(rng, k)
    start = [rng.randint(-20, 20) for _ in range(k)]
    for m in moduli:
        assert_matches_oracle(gens, start, m)


def test_lg_scan_mod_120_matches_oracle(capsys, tmp_path):
    system = tmp_path / "apollonian.json"
    assert main(["fixtures", "apollonian", "--out", str(system)]) == 0
    capsys.readouterr()
    code = main(["lg-scan", str(system), "--bound", "50", "--max-word", "300",
                 "--modulus", "120", "--scan-bound", "50"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["admissible_residues"] == sorted(oracle.residue_orbit(GENS, START, 120).residues)


class Unread:
    def __iter__(self):
        raise AssertionError("generators were read")


# The first moduli whose 4-bend keys (m**4) or 2- and 1-bend dot products
# (k*(m-1)**2) no longer fit in an int64.
@pytest.mark.parametrize("k, m", [(4, 55109), (2, 2147483649), (1, 3037000501)])
def test_modulus_past_int64_guard_is_refused_before_work(k, m):
    with pytest.raises(ParameterError):
        residue_orbit(Unread(), [1] * k, m)


def test_largest_guarded_modulus_is_exact():
    m = 55108  # m**4 is just below 2**63
    gens = [
        [[-1 if r == c else 0 for c in range(4)] for r in range(4)],
        [[1 if c == (r + 1) % 4 else 0 for c in range(4)] for r in range(4)],
        [[-1] * 4 for _ in range(4)],
    ]
    assert_matches_oracle(gens, [m - 1, m - 2, 1, 0], m)


def test_bad_modulus_is_a_value_error():
    with pytest.raises(ParameterError):
        residue_orbit(GENS, START, 0)
    with pytest.raises(ValueError):
        residue_orbit(GENS, START, -5)


# -- moved rows: a generator is multiplied only on the rows it changes mod m ---


def soddy_generators():
    walls = soddy_walls()
    cluster = walls[:5]
    return [bends_conjugate(reflection_matrix(w), cluster) for w in walls[5:]], bends_vector(cluster)


@pytest.mark.parametrize("m", [3, 4, 8, 9, 12, 24])
def test_soddy_orbit_matches_oracle(m):
    gens, start = soddy_generators()
    for g in gens:  # each Soddy-Gosset move changes one of the five bends
        assert sum(list(row) != [int(r == c) for c in range(5)] for r, row in enumerate(g)) == 1
    assert_matches_oracle(gens, start, m)
    if m % 3 == 0:
        assert {r % 3 for r in residue_orbit(gens, start, m).residues} <= {0, 2}


def test_lg_scan_on_soddy_matches_both_oracles(capsys, tmp_path):
    """lg-scan on the Soddy system, cluster walls 1-5: its residues are the
    residue BFS oracle's, every one 0 or 2 mod 3, and its missing list is
    the admissible n <= 30 that no sphere of soddy_oracle's packing bends."""
    system = tmp_path / "soddy.json"
    system.write_text(serialize.dumps(WallSystem(soddy_walls(), range(5), range(5, 10))))
    code = main(["lg-scan", str(system), "--bound", "30", "--max-word", "64",
                 "--modulus", "24", "--scan-bound", "30"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    residues = sorted(oracle.residue_orbit(*soddy_generators(), 24).residues)
    assert doc["admissible_residues"] == residues and len(residues) == 16
    assert {r % 3 for r in residues} <= {0, 2}
    bends = {bend for _, (bend, surd), *_ in soddy_oracle.soddy_spheres(30) if bend > 0 and not surd}
    want = [n for n in range(1, 31) if n % 24 in residues and n not in bends]
    assert doc["saturated"] and doc["missing"] == want == []


def identity_mod(m, off):
    """The identity plus m times off: the identity mod m, but not over Z."""
    return [[int(r == c) + m * x for c, x in enumerate(row)] for r, row in enumerate(off)]


@pytest.mark.parametrize("m", [2, 5, 7, 12])
def test_generator_identity_mod_m_only_is_no_move(m):
    rng = random.Random(m)
    k = 4
    start = [rng.randint(-20, 20) for _ in range(k)]
    # m + 1 on the diagonal, +-m off it
    signed = identity_mod(m, [[1 if r == c else (-1) ** (r + c) for c in range(k)] for r in range(k)])
    assert residue_orbit([signed], start, m).vector_count == 1
    other = identity_mod(m, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
    dense = random_generators(rng, k)[:2]
    assert_matches_oracle([signed, dense[0], other, dense[1]], start, m)


@pytest.mark.parametrize("m", [1, 6, 11])
def test_identity_generator_mixed_with_dense_ones(m):
    rng = random.Random(100 + m)
    k = 3
    eye = [[int(r == c) for c in range(k)] for r in range(k)]
    start = [rng.randint(-20, 20) for _ in range(k)]
    assert_matches_oracle([eye, *random_generators(rng, k), eye], start, m)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [4, 9, 10])
def test_two_moved_rows_and_all_rows_moved(seed, m):
    rng = random.Random(10 * m + seed)
    k = 4
    # a 1 off the diagonal moves a row mod every m > 1
    two = [[int(r == c) for c in range(k)] for r in range(k)]
    for r in (1, 3):
        two[r] = [rng.randint(-9, 9) for _ in range(k)]
        two[r][(r + 1) % k] = 1
    full = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
    for r in range(k):
        full[r][(r + 1) % k] = 1
    start = [rng.randint(-20, 20) for _ in range(k)]
    assert_matches_oracle([two], start, m)
    assert_matches_oracle([two, full], start, m)


# -- the prime-power join, against the kernel's BFS on the whole modulus ------


def kernel_bfs(gens, start, m):
    """The kernel's BFS on m itself, the path residue_orbit falls back to."""
    return localglobal._bfs(*localglobal._read(gens, start, m), m)


def record(monkeypatch, name):
    """The modulus of every call of a localglobal function."""
    moduli = []
    wrapped = getattr(localglobal, name)

    def recording(*args):
        moduli.append(args[-1])
        return wrapped(*args)

    monkeypatch.setattr(localglobal, name, recording)
    return moduli


@pytest.mark.parametrize("m, count", [(120, 5760), (240, 46080), (720, 1244160), (77, 366000)])
def test_apollonian_join_matches_the_kernel_bfs(m, count):
    got = residue_orbit(GENS, START, m)
    assert got == kernel_bfs(GENS, START, m)
    assert got.vector_count == count


def test_soddy_join_matches_the_kernel_bfs():
    gens, start = soddy_generators()
    assert residue_orbit(gens, start, 24) == kernel_bfs(gens, start, 24)


@pytest.mark.parametrize("m", [240, 720])
def test_join_never_closes_the_full_modulus(monkeypatch, m):
    moduli = record(monkeypatch, "_levels")
    residue_orbit(GENS, START, m)
    assert moduli and m not in moduli


def test_unsplit_orbit_falls_back_to_the_bfs(monkeypatch):
    # v -> -v: two vectors mod 15, not the 2*2 of a product of the orbits mod 3 and mod 5
    fallbacks = record(monkeypatch, "_bfs")
    ro = residue_orbit([[[-1]]], [1], 15)
    assert (ro.vector_count, set(ro.residues)) == (2, {1, 14})
    assert fallbacks == [15]


def random_involution(rng, k):
    """P J P^-1 for a signed diagonal J and a product P of k elementary
    matrices I + c e_ij, c = +-1, applied one at a time."""
    m = [[(r == c) * rng.choice([-1, 1]) for c in range(k)] for r in range(k)]
    for _ in range(k):
        i, j = rng.sample(range(k), 2)
        c = rng.choice([-1, 1])
        for col in range(k):  # E m: row i gains c times row j
            m[i][col] += c * m[j][col]
        for row in range(k):  # (E m) E^-1: column j loses c times column i
            m[row][j] -= c * m[row][i]
    return m


def test_random_involutions_match_the_deque_oracle(monkeypatch):
    fallbacks = record(monkeypatch, "_bfs")
    rng = random.Random(32)
    branches = []
    for _ in range(60):
        k = rng.randint(2, 5)
        gens = [random_involution(rng, k) for _ in range(rng.randint(1, 3))]
        eye = [[int(r == c) for c in range(k)] for r in range(k)]
        assert all([[sum(g[r][t] * g[t][c] for t in range(k)) for c in range(k)] for r in range(k)] == eye
                   for g in gens)
        start = [rng.randint(-9, 9) for _ in range(k)]
        for m in (6, 10, 12, 15, 30, 60):
            if m**k <= 5 * 10**4:  # keeps the deque oracle quick
                fallbacks.clear()
                assert_matches_oracle(gens, start, m)
                branches.append(bool(fallbacks))
    # both the certified joins and the fallbacks are exercised
    assert branches.count(False) >= 20 and branches.count(True) >= 20
