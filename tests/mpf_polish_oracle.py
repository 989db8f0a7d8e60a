"""realize on mpmath floats, as an oracle.

The Moebius map puts the first tangent triple of the start on the frame,
and one damped Gauss-Newton loop then runs on a numpy object array of
mpmath.mpf walls and mpf targets at 60 digits, the frame held fixed, each
step the float64 lstsq step.  The realize under test runs the same loop on
fixed-point ints instead; the walls of the two must guess to the same exact
walls, after the same number of iterations.
"""

from math import inf, isfinite

import mpmath
import numpy as np

from packinglab.errors import ParameterError
from packinglab.geometrize import (
    _FRAME,
    FloatWallSystem,
    GaugeDeficient,
    NoConvergence,
    _frame_map,
    _frame_triple,
    _initial_walls,
    _jacobian_np,
)

_REFINE_DPS = 60


def _residual_np(x, pairs, values):
    diag = x[:, 0] * x[:, 1] - (x[:, 2:] ** 2).sum(axis=1) + 1.0
    u, v = x[pairs[:, 0]], x[pairs[:, 1]]
    prod = 0.5 * (u[:, 0] * v[:, 1] + u[:, 1] * v[:, 0]) - (u[:, 2:] * v[:, 2:]).sum(axis=1)
    return np.concatenate([diag, prod - values])


def _gauss_newton(x, pairs, values, fixed, max_iter, tol):
    """Damped Gauss-Newton on x, an object array of mpf with mpf values;
    every step is the float64 least-squares step."""
    free = ~np.isin(np.arange(len(x)), fixed)
    columns = np.repeat(free, x.shape[1])
    res = _residual_np(x, pairs, values)
    norm = np.abs(res).max()
    iterations = 0
    for _ in range(max_iter):
        if norm <= tol or not isfinite(norm):
            break
        iterations += 1
        jac = _jacobian_np(x.astype(float), pairs)[:, columns]
        step = np.zeros(x.shape)
        step[free] = np.linalg.lstsq(jac, -res.astype(float), rcond=None)[0].reshape(-1, x.shape[1])
        alpha, improved = 1.0, False
        for _ in range(25):
            trial = x + alpha * step
            trial_res = _residual_np(trial, pairs, values)
            trial_norm = np.abs(trial_res).max()
            if trial_norm < norm:
                x, res, norm, improved = trial, trial_res, trial_norm, True
                break
            alpha *= 0.5
        if not improved:
            break
    return x, norm, iterations


def realize(spec, seed=0, tol=1e-24, max_iter=400):
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if not 0 < tol < inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if spec.dim != 2:
        raise GaugeDeficient("only planar targets are supported")
    exact = spec.exact_pairs()
    pairs = np.array([(i, j) for i, j, _ in exact], dtype=int).reshape(-1, 2)
    frame = _frame_triple(spec)
    rng = np.random.default_rng(seed)
    if spec.init_hint is not None:
        x = np.array(spec.init_hint) + rng.normal(0.0, 1e-4, (spec.wall_count, 4))
    else:
        x = _initial_walls(spec, rng)
    x = x @ _frame_map(x, *frame)
    x[list(frame)] = _FRAME[:3]
    with mpmath.workdps(_REFINE_DPS):
        fields = [(v.triple, v.disc) for _, _, v in exact]
        targets = np.array([(a + b * mpmath.sqrt(d)) / q for (a, b, q), d in fields], dtype=object)
        xm, norm, iterations = _gauss_newton(
            np.frompyfunc(mpmath.mpf, 1, 1)(x), pairs, targets, frame, max_iter, tol
        )
    if not norm <= tol:
        raise NoConvergence(iterations, float(norm))
    return FloatWallSystem(walls=xm.tolist(), residual=float(norm), iterations=iterations)
