"""Numeric realization, exact snapping, and exact verification."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guess_grid_oracle as oracle
from packinglab.arithmetic import gram_matrix
from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt
from packinglab.fixtures import (
    apollonian_system,
    cuboctahedron_target,
    hexpyr_expected_gram,
    hexpyr_system,
    tetrahedron_target,
)
from packinglab.geometrize import (
    Ambiguous,
    DisjointFree,
    Exact,
    GaugeDeficient,
    NoCandidate,
    NoConvergence,
    TargetSpec,
    algebraic_guess,
    cluster_split,
    guess_walls,
    polyhedron_target,
    realize,
    target_from_gram,
    verify_realization,
)
from fractions import Fraction


def q(rat, surd=0, disc=0):
    return QuadExt(Fraction(rat), Fraction(surd), disc)


def float_walls(system):
    return [[float(x.rat) for x in w.coords()] for w in system.walls]


# -- realize -------------------------------------------------------------------


def test_tetrahedron_realizes_to_descartes_gram():
    spec = tetrahedron_target()
    out = realize(spec)
    assert out.residual < 1e-10
    w = np.array(out.walls, dtype=float)
    qm = np.diag([0.0, 0.0, -1.0, -1.0])
    qm[0, 1] = qm[1, 0] = 0.5
    gram = w @ qm @ w.T
    cluster = gram[:4, :4]
    assert np.allclose(cluster, np.ones((4, 4)) - 2 * np.eye(4), atol=1e-10)


def test_exact_input_needs_zero_steps():
    spec = tetrahedron_target()
    out = realize(spec, init=float_walls(apollonian_system()))
    assert out.iterations == 0
    assert out.residual < 1e-12


def test_infeasible_targets_fail_honestly():
    # five circles cannot be mutually tangent in the plane
    targets = {(i, j): Exact(q(1)) for i in range(5) for j in range(i + 1, 5)}
    spec = TargetSpec(5, targets)
    with pytest.raises(NoConvergence):
        realize(spec, max_iter=80)


def test_unpinnable_gauge_reported():
    # a single tangent pair admits no tangent triple to pin the frame
    spec = TargetSpec(2, {(0, 1): Exact(q(1))})
    with pytest.raises(GaugeDeficient):
        realize(spec)


def test_dimension_guard():
    spec = TargetSpec(2, {(0, 1): Exact(q(1))}, dim=3)
    with pytest.raises(GaugeDeficient):
        realize(spec)


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": -1}, {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": -1e-24}],
    ids=["seed-negative", "tol-nan", "tol-inf", "tol-zero", "tol-negative"],
)
def test_realize_bad_parameter_is_parameter_error(kwargs):
    with pytest.raises(ParameterError):
        realize(tetrahedron_target(), **kwargs)


def test_damping_is_monotone():
    from packinglab.geometrize import _gauss_newton, _initial_walls

    spec = tetrahedron_target()
    exact = spec.exact_pairs()
    pairs = np.array([(i, j) for i, j, _ in exact], dtype=int).reshape(-1, 2)
    values = np.array([float(v) for _, _, v in exact])
    rng = np.random.default_rng(5)
    x0 = np.asarray(spec.init_hint) + 1e-4 * rng.standard_normal((spec.wall_count, 4))
    norms = []
    for k in range(1, 14):
        _, norm, _ = _gauss_newton(x0.copy(), pairs, values, (), k)
        norms.append(norm)
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-15


# -- algebraic_guess -----------------------------------------------------------


def test_guess_two_over_sqrt_three():
    got = algebraic_guess(1.1547005384, d=3, denom_bound=6, tol=1e-9)
    assert got == q(0, Fraction(2, 3), 3)


def test_guess_half():
    assert algebraic_guess(0.5, d=3, denom_bound=6, tol=1e-12) == q(Fraction(1, 2))


def test_guess_near_four_is_ambiguous():
    with pytest.raises(Ambiguous):
        algebraic_guess(3.9999, d=0, denom_bound=10_000, tol=1e-3)


def test_guess_rejects_transcendental_looking_input():
    with pytest.raises(NoCandidate):
        algebraic_guess(3.14159265358979, d=0, denom_bound=10, tol=1e-9)


def test_guess_integer_survives_any_field():
    assert algebraic_guess(4.0, d=3, denom_bound=64, tol=1e-12) == q(4)


@pytest.mark.parametrize(
    "text, d", [("4-2*sqrt(3)", 3), ("5-2*sqrt(6)", 6), ("3/7-3/7*sqrt(2)", 2)]
)
def test_guess_surd_coefficient_beyond_value_size(text, d):
    # |b|*sqrt(d) exceeds |q*x| + 1 here, so the surd range cannot be bounded
    # by the size of the value alone
    want = QuadExt.parse(text)
    with mpmath.workdps(60):
        x = mpmath.mpf(want.rat.numerator) / want.rat.denominator
        x += mpmath.mpf(want.surd.numerator) / want.surd.denominator * mpmath.sqrt(d)
        assert algebraic_guess(x, d=d, denom_bound=64, tol=1e-18) == want


@pytest.mark.parametrize("d", [0, 3, 6])
@pytest.mark.parametrize(
    "x", [float("nan"), float("inf"), float("-inf"), mpmath.mpf("1e400")],
    ids=["nan", "inf", "-inf", "mpf-past-float"],
)
def test_guess_non_finite_value_has_no_candidate(x, d):
    with pytest.raises(NoCandidate):
        algebraic_guess(x, d=d, denom_bound=64, tol=1e-18)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-18])
def test_guess_bad_tol_is_parameter_error(tol):
    with pytest.raises(ParameterError):
        algebraic_guess(0.5, d=3, denom_bound=6, tol=tol)


def test_guess_zero_tol_asks_for_exact_match():
    assert algebraic_guess(0.5, d=3, denom_bound=6, tol=0.0) == q(Fraction(1, 2))
    with pytest.raises(NoCandidate):
        algebraic_guess(0.1, d=0, denom_bound=64, tol=0.0)  # the float 0.1 is not 1/10


def guess_outcome(guess, *args):
    """What a guesser returns or raises, with every message and candidate."""
    try:
        return "value", guess(*args)
    except Ambiguous as exc:
        return "Ambiguous", str(exc), exc.candidates
    except NoCandidate as exc:
        return "NoCandidate", str(exc)


@st.composite
def guess_cases(draw):
    d = draw(st.sampled_from([0, 2, 3, 5, 6, 7]))
    denom_bound = draw(st.sampled_from([1, 2, 5, 16, 64, 80]))
    tol = 10.0 ** draw(st.integers(-18, -2))
    if draw(st.booleans()):
        # q up to 90, so some values lie beyond the denominator bound
        a, qq = draw(st.integers(-300, 300)), draw(st.integers(1, 90))
        b = draw(st.integers(-300, 300)) if d else 0
        shift = draw(st.sampled_from([-1, 1])) * draw(st.floats(0.1, 3.0)) * tol
        with mpmath.workdps(60):
            x = (a + b * mpmath.sqrt(d)) / qq + shift
    else:
        x = draw(st.floats(-1000.0, 1000.0))
    return x, d, denom_bound, tol


@settings(max_examples=300, deadline=None)
@given(guess_cases())
def test_guess_matches_grid_oracle(case):
    assert guess_outcome(algebraic_guess, *case) == guess_outcome(oracle.algebraic_guess, *case)


@pytest.mark.parametrize(
    "x, d", [(1e17, 0), (1e300, 0), (10**20 + 1, 0), (12345.678, 2), (12345.678, 6)]
)
@pytest.mark.parametrize("tol", [1e-18, 1e-2])
def test_guess_matches_grid_oracle_at_large_values(x, d, tol):
    # a passes 2**63 at 1e300 and 10**20 + 1; at 12345.678 a row of the grid
    # is wider than a block
    case = (x, d, 64, tol)
    assert guess_outcome(algebraic_guess, *case) == guess_outcome(oracle.algebraic_guess, *case)


def test_guess_grid_memory_is_bounded():
    # at |x| near 100 with d = 6 a row of the grid is about 5,400 cells wide,
    # so a block holds only a few rows
    with mpmath.workdps(60):
        x = (500 + 3 * mpmath.sqrt(6)) / 5
    algebraic_guess(x, d=6, denom_bound=64, tol=1e-18)
    tracemalloc.start()
    try:
        got = algebraic_guess(x, d=6, denom_bound=64, tol=1e-18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == QuadExt.parse("100+3/5*sqrt(6)")
    assert peak < 1 << 20


# -- verify_realization ----------------------------------------------------------


def test_octet_satisfies_tetrahedron_targets():
    rep = verify_realization(apollonian_system(), tetrahedron_target())
    assert rep.ok and rep.mismatches == []


def test_hexpyr_satisfies_its_gram_targets():
    spec = target_from_gram(hexpyr_expected_gram())
    assert spec.wall_count == 14
    assert len(spec.exact_pairs()) == 91
    rep = verify_realization(hexpyr_system(), spec)
    assert rep.ok and rep.mismatches == []


def test_perturbed_fixture_fails_verification():
    from packinglab.inversive import InversiveVector

    walls = list(apollonian_system().walls)
    bad = walls[1]
    walls[1] = InversiveVector(bad.cobend, bad.bend + q(1), bad.bz)
    rep = verify_realization(walls, tetrahedron_target())
    assert not rep.ok
    assert any("2" in m for m in rep.mismatches)


def test_free_pairs_must_be_separated():
    spec = TargetSpec(2, {(0, 1): DisjointFree()})
    from packinglab.inversive import sphere_from_center_radius

    tangent = [
        sphere_from_center_radius((q(0), q(0)), q(1)),
        sphere_from_center_radius((q(2), q(0)), q(1)),
    ]
    rep = verify_realization(tangent, spec)
    assert not rep.ok


# -- end to end ------------------------------------------------------------------


def test_pipeline_tetrahedron():
    spec = tetrahedron_target()
    out = realize(spec)
    exact = guess_walls(out, d=0, denom_bound=64, tol=1e-10)
    rep = verify_realization(exact, spec)
    assert rep.ok
    assert all(w.bend.is_rational() for w in exact)


def test_pipeline_cuboctahedron():
    spec = cuboctahedron_target()
    out = realize(spec)
    exact = guess_walls(out, d=6, denom_bound=64, tol=1e-10)
    rep = verify_realization(exact, spec)
    assert rep.ok
    assert any(w.bend.surd != 0 for w in exact)


def test_gram_targets_and_frame_independent_of_seed():
    # Gram targets carry no init hint: they start from the eigendecomposition
    # of the target Gram matrix
    for gram, d in ((gram_matrix(apollonian_system().walls), 0), (hexpyr_expected_gram(), 3)):
        spec = target_from_gram(gram)
        assert spec.init_hint is None
        exact = guess_walls(realize(spec), d=d, denom_bound=64, tol=1e-18)
        rep = verify_realization(exact, spec)
        assert rep.ok, rep.mismatches
    # the pinned frame fixes the gauge completely, whatever the starting point
    for spec, d in ((tetrahedron_target(), 0), (cuboctahedron_target(), 6)):
        first, *others = (
            guess_walls(realize(spec, seed=s), d=d, denom_bound=64, tol=1e-18) for s in range(4)
        )
        assert verify_realization(first, spec).ok
        assert all(walls == first for walls in others)


@pytest.mark.parametrize(
    "target, d", [(tetrahedron_target, 0), (cuboctahedron_target, 6)],
    ids=["tetrahedron", "cuboctahedron"],
)
def test_hintless_target_realizes_on_every_seed(target, d):
    spec = target()
    spec = TargetSpec(spec.wall_count, dict(spec.targets))
    assert spec.init_hint is None
    first, *others = (
        guess_walls(realize(spec, seed=s), d=d, denom_bound=64, tol=1e-18) for s in range(4)
    )
    rep = verify_realization(first, spec)
    assert rep.ok, rep.mismatches
    assert all(walls == first for walls in others)


def test_cluster_split_tetrahedron():
    assert cluster_split(tetrahedron_target()) == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_polyhedron_target_counts():
    spec = cuboctahedron_target()
    assert spec.wall_count == 26  # 12 vertices + 14 faces
    tangents = [v for _, _, v in spec.exact_pairs() if v == QuadExt(1)]
    assert len(tangents) == 24 + 24  # edges of the solid and of its dual
