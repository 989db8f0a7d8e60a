"""Numeric realization, exact snapping, and exact verification."""

import functools
import hashlib
import json
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import guess_grid_oracle as oracle
import mpf_polish_oracle
import verify_oracle
from packinglab import geometrize
from packinglab.arithmetic import gram_matrix
from packinglab.errors import PackingLabError, ParameterError
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
    FloatWallSystem,
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
from packinglab.inversive import InversiveVector
from fractions import Fraction
from math import gcd


def q(rat, surd=0, disc=0):
    return QuadExt(Fraction(rat), Fraction(surd), disc)


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


def test_infeasible_targets_fail_honestly():
    # five circles cannot be mutually tangent in the plane
    targets = {(i, j): Exact(q(1)) for i in range(5) for j in range(i + 1, 5)}
    spec = TargetSpec(5, targets)
    with pytest.raises(NoConvergence):
        realize(spec, max_iter=80)


def test_unpinnable_gauge_reported():
    # a single tangent pair admits no tangent triple to fix the frame
    spec = TargetSpec(2, {(0, 1): Exact(q(1))})
    with pytest.raises(GaugeDeficient):
        realize(spec)


def test_dimension_guard():
    spec = TargetSpec(2, {(0, 1): Exact(q(1))}, dim=3)
    with pytest.raises(GaugeDeficient):
        realize(spec)


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": -1}, {"seed": "5"}, {"seed": None}, {"seed": 2.5}, {"seed": True},
     {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": -1e-24},
     {"max_iter": 2.5}, {"max_iter": "5"}, {"max_iter": True}, {"max_iter": -3}],
    ids=["seed-negative", "seed-str", "seed-none", "seed-float", "seed-bool",
         "tol-nan", "tol-inf", "tol-zero", "tol-negative",
         "max-iter-float", "max-iter-str", "max-iter-bool", "max-iter-negative"],
)
def test_realize_bad_parameter_is_parameter_error(kwargs):
    with pytest.raises(ParameterError):
        realize(tetrahedron_target(), **kwargs)


def test_damping_is_monotone():
    from packinglab.geometrize import _FRAME, _P, _frame_map, _gauss_newton, _Grid, _to_int

    spec = tetrahedron_target()
    exact = spec.exact_pairs()
    grid = _Grid(np.array([(i, j) for i, j, _ in exact]), exact)
    rng = np.random.default_rng(5)
    x = np.asarray(spec.init_hint) + 1e-4 * rng.standard_normal((spec.wall_count, 4))
    x = x @ _frame_map(x, 0, 1, 2)
    x[:3] = _FRAME[:3]
    start = _to_int(np.ldexp(x, _P))
    norms = [_gauss_newton(start, grid, (0, 1, 2), k, 1e-80)[1] for k in range(1, 14)]
    for a, b in zip(norms, norms[1:]):
        assert b <= a


def _jacobian_by_loops(x, pairs):
    """The Jacobian of the residual written out entry by entry for Q."""
    k, width = x.shape
    jac = np.zeros((k + len(pairs), k * width))
    for i in range(k):
        jac[i, i * width + 0] = x[i, 1]
        jac[i, i * width + 1] = x[i, 0]
        jac[i, i * width + 2:i * width + width] = -2.0 * x[i, 2:]
    for r, (i, j) in enumerate(pairs, start=k):
        u, v = x[i], x[j]
        jac[r, i * width + 0] = 0.5 * v[1]
        jac[r, i * width + 1] = 0.5 * v[0]
        jac[r, i * width + 2:i * width + width] = -v[2:]
        jac[r, j * width + 0] = 0.5 * u[1]
        jac[r, j * width + 1] = 0.5 * u[0]
        jac[r, j * width + 2:j * width + width] = -u[2:]
    return jac


@pytest.mark.parametrize("target", [tetrahedron_target, cuboctahedron_target])
def test_jacobian_matches_loop_reference(target):
    from packinglab.geometrize import _jacobian_np

    spec = target()
    pairs = np.array([(i, j) for i, j, _ in spec.exact_pairs()], dtype=int).reshape(-1, 2)
    x = np.random.default_rng(3).standard_normal((spec.wall_count, 4))
    # multiplying by 0.5, 1 or -1 and adding zeros is exact, so the two agree bit for bit
    assert np.array_equal(_jacobian_np(x, pairs), _jacobian_by_loops(x, pairs))


@pytest.mark.parametrize(
    "target, frame", [(tetrahedron_target, (0, 1, 2)), (cuboctahedron_target, (0, 1, 4))],
    ids=["tetrahedron", "cuboctahedron"],
)
def test_frame_walls_are_exact(target, frame):
    # the first mutually tangent triple is set on the frame and held there:
    # the line y=0 and the unit circles resting on it at the origin and at (2,0)
    walls = realize(target()).walls
    assert [walls[i] for i in frame] == [[0, 0, 0, -1], [0, 1, 0, 1], [4, 1, 2, 1]]
    # every coordinate is the exact grid value X / 2**216
    assert all(type(c) is Fraction and (1 << 216) % c.denominator == 0 for row in walls for c in row)


def _cube_target():
    # vertex v is the corner (v & 1, v >> 1 & 1, v >> 2 & 1); no coordinates, so no hint
    faces = [[v for v in range(8) if (v >> axis) & 1 == side] for axis in range(3) for side in (0, 1)]
    return polyhedron_target(8, faces)


def _octahedron_target():
    # vertices +-e_x, +-e_y, +-e_z as 0-5; a face takes one of each pair
    return polyhedron_target(6, [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)])


_POLISH_TARGETS = {
    "tetrahedron": tetrahedron_target,
    "cuboctahedron": cuboctahedron_target,
    "cube": _cube_target,
    "octahedron": _octahedron_target,
}


@functools.lru_cache(maxsize=None)
def _both_polishes(name, seed):
    spec = _POLISH_TARGETS[name]()
    return realize(spec, seed=seed), mpf_polish_oracle.realize(spec, seed=seed)


_GUESS_CASES = [
    ("tetrahedron", 0), ("tetrahedron", 2), ("tetrahedron", 3), ("tetrahedron", 6),
    ("cuboctahedron", 6), ("cube", 2), ("octahedron", 2),
]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name, d", _GUESS_CASES)
def test_grid_polish_matches_mpf_polish_oracle(name, d, seed):
    got, want = _both_polishes(name, seed)
    assert got.iterations == want.iterations
    assert got.residual <= 1e-24 and want.residual <= 1e-24
    walls = guess_walls(got, d, 64, 1e-18)
    assert walls == guess_walls(want, d, 64, 1e-18)
    assert verify_realization(walls, _POLISH_TARGETS[name]()).ok


# the digests of the guessed walls, recorded while realize still ran a float64
# stage and put the frame on its converged walls: the same walls on every
# seed and at every d of _GUESS_CASES; the cube and the octahedron have no
# coordinates, so no hint
_RECORDED_WALLS = {
    ("tetrahedron", True): "f3d4c0182362d33e3abef1f8d6501dd6aabe7f13b919a866e6ce6af867413420",
    ("tetrahedron", False): "7870527d91b2014caf1316b985e3bddb1c21765bc6219adaab0710b12ef1820d",
    ("cuboctahedron", True): "857ffa1e571d48feb426a861814bb51ea7dfbbc095a5d121822a9fe10c550e23",
    ("cuboctahedron", False): "857ffa1e571d48feb426a861814bb51ea7dfbbc095a5d121822a9fe10c550e23",
    ("cube", False): "9c73241aa2d89a4b5a2193b4ebe9c9cb165bede6f74ed7769010fc3047f82dad",
    ("octahedron", False): "acf5b055ed682f478342ebb1e57305f041446480c17a181be762d5794f32745a",
}


@functools.lru_cache(maxsize=None)
def _realized_polish_target(name, hinted, seed):
    spec = _POLISH_TARGETS[name]()
    if not hinted:
        spec = TargetSpec(spec.wall_count, dict(spec.targets))
    return realize(spec, seed=seed)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "name, d, hinted",
    [(name, d, hinted) for name, d in _GUESS_CASES for hinted in (True, False)
     if (name, hinted) in _RECORDED_WALLS],
)
def test_guessed_walls_match_the_recorded_digests(name, d, hinted, seed):
    walls = guess_walls(_realized_polish_target(name, hinted, seed), d, 64, 1e-18)
    assert _walls_sha256(walls) == _RECORDED_WALLS[name, hinted]


def test_max_iter_bounds_the_whole_solve():
    spec = cuboctahedron_target()
    full = realize(spec).iterations
    for max_iter in range(full):
        with pytest.raises(NoConvergence) as info:
            realize(spec, max_iter=max_iter)
        assert info.value.iterations == max_iter
    assert realize(spec, max_iter=full).iterations == full


def test_start_with_equal_frame_walls_is_no_convergence():
    # rows of 1e20 keep the start's 1e-4 jitter under a rounding, so the three
    # frame walls stay equal and the frame map's solve is singular
    spec = tetrahedron_target()
    hint = [[1e20] * 4] * 3 + list(spec.init_hint[3:])
    with pytest.raises(NoConvergence) as info:
        realize(TargetSpec(spec.wall_count, dict(spec.targets), init_hint=hint))
    assert info.value.iterations == 0


def test_crawling_start_stops_at_the_stall_test():
    # frame rows of (1e20, 1e20, 0, 0) place the other walls far off: each
    # step takes a few percent off a residual near 1e17, and without the
    # stall test the loop would spend all 400 iterations
    spec = tetrahedron_target()
    hint = [[1e20, 1e20, 0.0, 0.0]] * 3 + list(spec.init_hint[3:])
    with pytest.raises(NoConvergence) as info:
        realize(TargetSpec(spec.wall_count, dict(spec.targets), init_hint=hint))
    assert geometrize._STALL < info.value.iterations < 40
    assert info.value.residual > 1e15


def test_frame_walls_without_a_real_orthogonal_circle_still_converge():
    from packinglab.geometrize import _Q, _frame_map, _frame_triple

    spec = cuboctahedron_target()
    hint = np.array(spec.init_hint)
    hint += np.random.default_rng(6).normal(0.0, 0.15, hint.shape)
    spec = TargetSpec(spec.wall_count, dict(spec.targets), init_hint=hint)
    start = hint + np.random.default_rng(0).normal(0.0, 1e-4, hint.shape)  # realize's at seed 0
    frame = _frame_triple(spec)
    n = np.linalg.svd(start[list(frame)] @ _Q)[2][-1]
    assert n @ _Q @ n > 0
    assert np.isfinite(_frame_map(start, *frame)).all()
    walls = guess_walls(realize(spec), 6, 64, 1e-18)
    assert verify_realization(walls, spec).ok


def _record_steps(monkeypatch):
    """Spy on the loop's steps, and count the lstsq fallbacks among them."""
    steps, fallbacks, step, lstsq = [], [], geometrize._step, np.linalg.lstsq

    def spy_step(jac, res):
        steps.append((jac, res, step(jac, res)))
        return steps[-1][-1]

    def spy_lstsq(*args, **kwargs):
        fallbacks.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(geometrize, "_step", spy_step)
    monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
    return steps, fallbacks, lstsq


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", [*_POLISH_TARGETS, "hexpyr-gram"])
def test_qr_step_is_the_lstsq_step(name, seed, monkeypatch):
    spec = (
        target_from_gram(hexpyr_expected_gram()) if name == "hexpyr-gram" else _POLISH_TARGETS[name]()
    )
    steps, fallbacks, lstsq = _record_steps(monkeypatch)
    realize(spec, seed=seed)
    assert not fallbacks
    for jac, res, got in steps:
        want = lstsq(jac, -res, rcond=None)[0]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "walls, tangent",
    [(4, [(0, 1), (0, 2), (1, 2), (0, 3)]), (4, [(0, 1), (0, 2), (1, 2)]),
     (5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 4)])],
    ids=["fourth-tangent-to-one", "fourth-free", "two-past-the-triangle"],
)
def test_flexible_target_takes_the_lstsq_fallback(walls, tangent, monkeypatch):
    # the last one's loop has more rows than columns, and a diagonal of R
    # that is tiny but not zero
    spec = TargetSpec(walls, {pair: Exact(q(1)) for pair in tangent})
    steps, fallbacks, lstsq = _record_steps(monkeypatch)
    got = realize(spec)
    assert len(fallbacks) == len(steps) == got.iterations > 0
    monkeypatch.setattr(geometrize, "_step", lambda jac, res: lstsq(jac, -res, rcond=None)[0])
    want = realize(spec)
    assert (got.iterations, got.residual) == (want.iterations, want.residual)
    assert got.walls == want.walls


def test_polish_converges_at_tol_1e_58():
    # the mpf polish oracle reaches 9.956824444577827e-60 here
    out = realize(tetrahedron_target(), tol=1e-58)
    assert out.residual <= 1e-58


def test_tol_under_the_grid_is_no_convergence():
    # the grid 2**-216 is about 1e-65: the residual stalls near it, under
    # the 3.3e-62 where the 60-digit mpf polish oracle stalls
    with pytest.raises(NoConvergence) as info:
        realize(tetrahedron_target(), tol=1e-80)
    assert 1e-80 < info.value.residual < 1e-63


@pytest.mark.parametrize("size", [1e200, 1e300, float("inf"), float("nan")])
def test_grid_step_past_the_float_range_is_never_taken(size, monkeypatch):
    # 1e200 fits the grid but its trial's rows pass a float; the others do
    # not fit the grid, and the loop ends before any trial
    from packinglab.geometrize import _P, _gauss_newton, _Grid, _to_int

    spec = tetrahedron_target()
    exact = spec.exact_pairs()
    grid = _Grid(np.array([(i, j) for i, j, _ in exact]), exact)
    x = _to_int(np.ldexp(np.array(spec.init_hint), _P))
    monkeypatch.setattr(geometrize, "_step", lambda jac, res: np.full(jac.shape[1], size))
    got, norm, iterations = _gauss_newton(x, grid, (0, 1, 2), 5, 1e-80)
    assert iterations == 1 and got is x
    assert norm == np.abs(grid.residual(x)).max() > 0


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


def test_guess_past_float_range_warns_nothing():
    # q*x overflows the float range in the rows q > 1; numpy must not warn
    x = mpmath.mpf("1e307")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert algebraic_guess(x, 0, 64, 1e-18) == q(int(x))


@pytest.mark.parametrize("d", [0, 3, 6])
@pytest.mark.parametrize(
    "x",
    [float("nan"), float("inf"), float("-inf"), mpmath.mpf("1e400"), mpmath.mpf("inf"),
     mpmath.mpf("nan"), 10**400, Fraction(10**400)],
    ids=["nan", "inf", "-inf", "mpf-past-float", "mpf-inf", "mpf-nan", "int-past-float",
         "Fraction-past-float"],
)
def test_guess_non_finite_value_has_no_candidate(x, d):
    with pytest.raises(NoCandidate):
        algebraic_guess(x, d=d, denom_bound=64, tol=1e-18)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-18])
def test_guess_bad_tol_is_parameter_error(tol):
    with pytest.raises(ParameterError):
        algebraic_guess(0.5, d=3, denom_bound=6, tol=tol)


@pytest.mark.parametrize("d", [-3, 4, 10**10, 10**10 + 1])
def test_guess_bad_d_is_parameter_error(d):
    # 10**10 + 1 is a non-square over exactnum.MAX_DISC: its sqrt QuadExt would not build
    with pytest.raises(ParameterError, match=f"^d .*{d}"):
        algebraic_guess(0.5, d=d, denom_bound=6, tol=1e-18)


def test_guess_zero_tol_asks_for_exact_match():
    assert algebraic_guess(0.5, d=3, denom_bound=6, tol=0.0) == q(Fraction(1, 2))
    with pytest.raises(NoCandidate):
        algebraic_guess(0.1, d=0, denom_bound=64, tol=0.0)  # the float 0.1 is not 1/10
    with pytest.raises(NoCandidate):
        algebraic_guess(1 / 3, d=3, denom_bound=6, tol=0.0)  # the float 1/3 is not 1/3 either


@pytest.mark.parametrize(
    "value",
    [np.float32(0.5), np.int64(1), mpmath.mpc(1, 0), "0.1"],
    ids=["float32", "int64", "mpc", "str"],
)
def test_guess_value_of_another_type_is_parameter_error(value):
    # a str is a binary float to float() but a decimal to Fraction(), and an
    # mpc has no _mpf_
    message = f"must be a float, an int, a Fraction or an mpf, not {type(value).__name__}$"
    with pytest.raises(ParameterError, match=message):
        algebraic_guess(value, d=0, denom_bound=64, tol=1e-12)


@pytest.mark.parametrize(
    "value, want",
    [(np.float64(0.5), q(Fraction(1, 2))), (3, q(3)), (mpmath.mpf(0.5), q(Fraction(1, 2))),
     (Fraction(1, 3), q(Fraction(1, 3)))],
    ids=["float64", "int", "mpf", "Fraction"],
)
def test_guess_reads_mpf_float_and_int(value, want):
    assert algebraic_guess(value, d=3, denom_bound=6, tol=0.0) == want


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


def _tolerance_edge():
    # 1 + sqrt(2) - tol at 60 digits: exactly, |x - (1 + sqrt(2))| is tol plus
    # about 1e-61, so no candidate fits, though a 60-digit check of the
    # multiple (2, 2, 2) accepts it
    with mpmath.workdps(60):
        return (1 + mpmath.sqrt(2)) - 1e-4, 2, 5, 1e-4


@settings(max_examples=300, deadline=None)
@given(guess_cases())
@example(_tolerance_edge())
@example((0.0, 5, 16, 0.01))  # the window wraps past 1 in every row
# 20000 rows span two blocks of 16384: the candidates 1/3 in the first and
# 5613/16838 in the second, and the one candidate 1/17000 in the second
@example((1 / 3 + 0.98e-5, 0, 20000, 1e-5))
@example((1 / 17000, 0, 20000, 1e-18))
# a table of 3 fractions runs every row of d > 0 in many segments
@pytest.mark.parametrize("chunk", [3, 1 << 14])
def test_guess_matches_grid_oracle(chunk, case):
    with mock.patch.object(geometrize, "_CHUNK", chunk):
        got = guess_outcome(algebraic_guess, *case)
    assert got == guess_outcome(oracle.algebraic_guess, *case)


def test_negative_zero_reads_as_zero():
    # the oracle reads -0.0 through mpmath, which has no negative zero, so
    # its Ambiguous message names 0.0
    case = (-0.0, 2, 16, 0.01)
    got = guess_outcome(algebraic_guess, *case)
    assert got == guess_outcome(oracle.algebraic_guess, *case)
    assert got[1].startswith("0.0 matches several exact values")


@pytest.mark.parametrize(
    "x, d", [(1e17, 0), (1e300, 0), (10**20 + 1, 0), (12345.678, 2), (12345.678, 6)]
)
@pytest.mark.parametrize("tol", [1e-18, 1e-2])
def test_guess_matches_grid_oracle_at_large_values(x, d, tol):
    # a passes 2**63 at 1e300 and 10**20 + 1; at 12345.678 a row of the grid
    # is wider than a block
    case = (x, d, 64, tol)
    assert guess_outcome(algebraic_guess, *case) == guess_outcome(oracle.algebraic_guess, *case)


def test_guess_too_wide_row_is_parameter_error():
    # the row at q = 64 would hold about 9e18 surd coefficients
    with pytest.raises(ParameterError, match="over the limit of 16777216"):
        algebraic_guess(1e17, d=2, denom_bound=64, tol=1e-18)


def test_guess_grid_memory_is_bounded():
    # at |x| near 100 with d = 6 a row of the grid is about 5,400 cells wide,
    # one segment of the fraction table
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


@pytest.mark.parametrize(
    "d, tol, error, limit_mb", [(2, 1e-2, Ambiguous, 4), (6, 1e-18, NoCandidate, 2)]
)
def test_guess_worst_case_memory_is_bounded(d, tol, error, limit_mb):
    # at q = 64 a row holds about 1.1M (d = 2) or 645k (d = 6) surd
    # coefficients; at d = 2 the float test keeps every b of the rows q >= 45,
    # but the first row is already Ambiguous
    def guess():
        with pytest.raises(error):
            algebraic_guess(12345.678, d=d, denom_bound=64, tol=tol)

    guess()
    tracemalloc.start()
    try:
        guess()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb << 20


def test_guess_large_denominator_bound_memory_is_bounded():
    # 2**20 rows of one value, d = 0: the rows go _CHUNK to a pass
    def guess():
        return algebraic_guess(0.5, d=0, denom_bound=1 << 20, tol=1e-18)

    guess()
    tracemalloc.start()
    try:
        got = guess()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == q(Fraction(1, 2))
    assert peak < 8 << 20


def test_guess_memory_is_bounded_at_large_values():
    # at q = 64 a row of 300000.1 at d = 6 holds about 15.7M surd
    # coefficients, 958 segments of the table of 16384 fractions
    def guess():
        with pytest.raises(NoCandidate):
            algebraic_guess(300000.1, d=6, denom_bound=64, tol=1e-18)

    guess()
    tracemalloc.start()
    try:
        guess()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_guess_matches_grid_oracle_across_segments():
    # with a table of 64 fractions every row of 0.5 at d = 2 runs in five or
    # six segments, and the rows go ten to a pass; 1/2 is found at q = 2 and
    # 295/112-169/112*sqrt(2) at q = 112
    case = (0.5, 2, 128, 2e-5)
    with mock.patch.object(geometrize, "_CHUNK", 64):
        got = guess_outcome(algebraic_guess, *case)
    assert got == guess_outcome(oracle.algebraic_guess, *case)
    assert got[2] == [QuadExt.parse("295/112-169/112*sqrt(2)"), q(Fraction(1, 2))]


def _exact_draws(count, seed):
    """(a, b, q, d) with gcd(a, b, q) == 1, 10**5 <= |a| <= 10**7, |b| <= 50
    and q <= 8: the float q*x - b*sqrt(d) of such a value can be off by more
    than 1e-9, the width of a float test on it at tol 1e-18."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        d, qq, b = int(rng.choice([2, 3, 5, 6, 7])), int(rng.integers(1, 9)), int(rng.integers(-50, 51))
        a = int(rng.choice([-1, 1])) * int(rng.integers(10**5, 10**7 + 1))
        if gcd(a, b, qq) == 1:
            draws.append((a, b, qq, d))
    return draws


@pytest.mark.parametrize(
    "x",
    [
        10**16 + 1, 2**53 + 1, 10**20 + 1, Fraction(10**20 + 1, 3), Fraction(2**60 + 1, 7),
        # under 2**52, but float(x) is not x: 7 * float(x) is a + 1/4, a - 1/8
        Fraction(2093336427414619, 7), Fraction(1021601337734564, 7),
    ],
)
@pytest.mark.parametrize("tol", [0, 1e-18])
def test_guess_recovers_exact_rationals_past_the_float_grid(x, tol):
    assert algebraic_guess(x, 0, 64, tol) == q(x)


def test_guess_recovers_exact_surds_near_the_row_guard():
    # every value is built exactly from its (a, b, q): no oracle decides;
    # a draw the row guard refuses is not counted
    counted, missed = 0, []
    for a, b, qq, d in _exact_draws(1000, 1):
        with mpmath.workdps(60):
            x = (a + b * mpmath.sqrt(d)) / qq
        try:
            got = algebraic_guess(x, d, 8, 1e-18)
        except ParameterError as exc:
            assert str(exc).endswith("over the limit of 16777216")
            continue
        except NoCandidate:
            got = None
        counted += 1
        if got != q(Fraction(a, qq), Fraction(b, qq), d):
            missed.append((a, b, qq, d))
    assert counted > 700 and missed == []


# -- guess_walls -----------------------------------------------------------------

_TARGETS = {"tetrahedron": (tetrahedron_target, 0), "cuboctahedron": (cuboctahedron_target, 6)}


@functools.lru_cache(maxsize=None)
def _realized(name, seed=0):
    return realize(_TARGETS[name][0](), seed=seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_guess_walls_matches_a_loop_of_the_grid_oracle(name, seed):
    system, d = _realized(name, seed), _TARGETS[name][1]
    loop = [
        InversiveVector.from_coords([oracle.algebraic_guess(v, d, 64, 1e-18) for v in row])
        for row in system.walls
    ]
    assert guess_walls(system, d, 64, 1e-18) == loop


_NAN = "nan has no exact match with denominator <= 64"
_INF = "inf has no exact match with denominator <= 64"


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize(
    "name, bad, denom_bound, tol, error, message",
    [
        ("tetrahedron", float("nan"), 64, 1e-18, NoCandidate, _NAN),
        ("cuboctahedron", float("nan"), 64, 1e-18, NoCandidate, _NAN),
        ("tetrahedron", float("inf"), 64, 1e-18, NoCandidate, _INF),
        ("cuboctahedron", float("-inf"), 64, 1e-18, NoCandidate, "-" + _INF),
        ("tetrahedron", mpmath.mpf("1e400"), 64, 1e-18, NoCandidate, _INF),
        (
            "cuboctahedron", 1e17, 64, 1e-18, ParameterError,
            "1e+17 needs grid rows of 5225578117937446912 cells at d = 6 and denominator"
            " bound 64, over the limit of 16777216",
        ),
        # 5000 * 3.9999 is 19999.4999...: its float rounds to 19999.5, but the
        # integer nearest it is 19999, so 19999/5000 comes before 20003/5001
        (
            "tetrahedron", 3.9999, 5001, 1e-3, Ambiguous,
            "3.9999 matches several exact values within tolerance: 19999/5000, 4",
        ),
    ],
    ids=["nan-d0", "nan-d6", "inf-d0", "-inf-d6", "mpf-past-float-d0", "row-guard-d6", "ambiguous-d0"],
)
def test_guess_walls_fails_where_the_per_value_loop_fails(
    name, bad, denom_bound, tol, error, message, position
):
    # one bad value in the second row, and a later one that a loop never
    # reaches; the outcomes are the ones a loop of algebraic_guess gave
    system, d = _realized(name), _TARGETS[name][1]
    walls = [list(row) for row in system.walls]
    walls[1][position] = bad
    walls[-1][-1] = float("nan")
    with pytest.raises(error) as info:
        guess_walls(FloatWallSystem(walls, system.residual, system.iterations), d, denom_bound, tol)
    assert type(info.value) is error and str(info.value) == message
    if error is Ambiguous:
        assert info.value.candidates == [QuadExt.parse("19999/5000"), q(4)]


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


@functools.lru_cache(maxsize=None)
def _guessed(name):
    return tuple(guess_walls(_realized(name), _TARGETS[name][1], 64, 1e-18))


@st.composite
def edited_systems(draw):
    """A guessed system and its target with one to three edits."""
    name = draw(st.sampled_from(sorted(_TARGETS)))
    walls, spec = list(_guessed(name)), _TARGETS[name][0]()
    targets, count = dict(spec.targets), spec.wall_count
    exact = sorted(p for p, t in targets.items() if isinstance(t, Exact))
    free = sorted(p for p, t in targets.items() if isinstance(t, DisjointFree))
    index = st.integers(0, count - 1)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["swap", "off quadric", "nudge", "tangent", "field", "count"]))
        if edit == "swap":
            i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
            walls[i], walls[j] = walls[j], walls[i]
        elif edit == "off quadric":
            i = draw(index)
            coords = list(walls[i].coords())
            k = draw(st.integers(0, len(coords) - 1))
            coords[k] += Fraction(draw(st.sampled_from([-1, 1])), draw(st.integers(1, 64)))
            walls[i] = InversiveVector.from_coords(coords)
        elif edit == "nudge":
            pair = draw(st.sampled_from(exact))
            step = Fraction(draw(st.sampled_from([-1, 1])), draw(st.integers(1, 64)))
            targets[pair] = Exact(targets[pair].value + step)
        elif edit == "tangent":
            # wall j becomes a copy of a wall tangent to wall i
            i, j = draw(st.sampled_from(free))
            touching = [k for k in range(count) if targets.get((min(i, k), max(i, k))) == Exact(q(1))]
            walls[j] = walls[draw(st.sampled_from(touching))]
        elif edit == "field":
            pair = draw(st.sampled_from(exact))
            disc = draw(st.sampled_from([2, 3, 5, 6, 7]))
            targets[pair] = Exact(QuadExt(targets[pair].value.rat, draw(st.integers(1, 3)), disc))
        else:  # the last edit: the indices above assume count walls
            if draw(st.booleans()):
                del walls[draw(index)]
            else:
                walls.append(walls[draw(index)])
            break
    return walls, TargetSpec(count, targets)


@settings(max_examples=150, deadline=None)
@given(edited_systems())
def test_verify_matches_quadext_oracle(case):
    walls, spec = case
    got, want = verify_realization(walls, spec), verify_oracle.verify_realization(walls, spec)
    assert (got.ok, got.mismatches) == (want.ok, want.mismatches)


def test_target_in_another_field_is_a_mismatch():
    walls = _guessed("cuboctahedron")
    spec = cuboctahedron_target()
    spec.targets[(0, 1)] = Exact(QuadExt.sqrt(2))
    rep = verify_realization(walls, spec)
    assert rep.mismatches == ["pair (1,2): 1 != 1*sqrt(2)"]


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
    # the frame fixes the gauge completely, whatever the starting point
    for spec, d in ((tetrahedron_target(), 0), (cuboctahedron_target(), 6)):
        first, *others = (
            guess_walls(realize(spec, seed=s), d=d, denom_bound=64, tol=1e-18) for s in range(4)
        )
        assert verify_realization(first, spec).ok
        assert all(walls == first for walls in others)


def _walls_sha256(walls):
    text = json.dumps([[str(c) for c in w.coords()] for w in walls])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "gram, d, digest",
    [
        (lambda: gram_matrix(apollonian_system().walls), 0,
         "7870527d91b2014caf1316b985e3bddb1c21765bc6219adaab0710b12ef1820d"),
        (hexpyr_expected_gram, 3,
         "e5b2b85a0ccc76140756212ba1b04a17ddb89642447fe69b4c5bd700acf63fa4"),
    ],
    ids=["apollonian", "hexpyr"],
)
@pytest.mark.parametrize("seed", range(4))
def test_gram_target_walls_do_not_move(gram, d, digest, seed):
    # digests of the guessed exact walls, recorded while realize still pinned
    # the frame with residual rows through a second float64 stage
    system = realize(target_from_gram(gram()), seed=seed)
    assert _walls_sha256(guess_walls(system, d=d, denom_bound=64, tol=1e-18)) == digest


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


@pytest.mark.parametrize(
    "targets, count",
    [({(0, 1): Exact(QuadExt(1)), (1, 2): Exact(QuadExt(1))}, 1),
     # a disjoint or orthogonal pair joins no component
     ({(0, 1): Exact(QuadExt(2)), (1, 2): DisjointFree(), (0, 2): Exact(QuadExt(0))}, 3)],
    ids=["one-component", "three-components"],
)
def test_cluster_split_needs_two_tangency_components(targets, count):
    with pytest.raises(PackingLabError) as exc:
        cluster_split(TargetSpec(3, targets))
    assert str(exc.value) == f"tangency graph has {count} components, expected 2; pass the cluster explicitly"


def test_polyhedron_target_counts():
    spec = cuboctahedron_target()
    assert spec.wall_count == 26  # 12 vertices + 14 faces
    tangents = [v for _, _, v in spec.exact_pairs() if v == QuadExt(1)]
    assert len(tangents) == 24 + 24  # edges of the solid and of its dual
