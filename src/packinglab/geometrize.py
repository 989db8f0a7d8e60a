"""Numeric realization of product targets and recovery of exact coordinates.

The pipeline is: realize (start from the target's init hint, or else from an
eigendecomposition of its Gram matrix, then one damped Gauss-Newton loop run in
float64, one Moebius map that puts a tangent triple on the frame, whose three
walls are then set exactly and held fixed, and the same loop again on
extended-precision mpmath residuals for the other walls), algebraic_guess
(snap a value to (a + b*sqrt(d))/q with a bounded denominator: the b that a
float prefilter can keep in row q lie where frac(b*sqrt(d)) is near
frac(q*x), so two searchsorted calls into those fractions, sorted once per
segment of b, find them, and only reduced triples, gcd(a, b, q) == 1, reach
the exact check on ints; guess_walls runs one such pass over every value of
a system), and verify_realization (exact re-check of every target against
the guessed walls, on the int code of each wall).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, isfinite, isqrt
from typing import Sequence

import mpmath
import numpy as np
from mpmath.libmp import to_rational

from .coxeter import _PLACEHOLDER_SEPARATION
from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt, from_triple, quad_sign
from .inversive import (
    InversiveVector,
    _pair_field,
    _product_numerator,
    encode,
    field_disc,
    inversive_product,
    q_is_minus_one,
    q_matrix,
)

_REFINE_DPS = 60
_CHUNK = 1 << 14  # expected candidates in one numpy pass of algebraic_guess
_ROW_CELLS = 1 << 24  # widest row of surd coefficients b algebraic_guess takes on
# _FractionTable sorts frac(b*sqrt(d)) over segments of 1024 consecutive b,
# segment k starting at b = k*_SEGMENT - _SEGMENT_BASE, and keys a fraction
# by its first 36 bits
_SEGMENT_BITS = 10
_SEGMENT = 1 << _SEGMENT_BITS
_SEGMENT_BASE = _SEGMENT // 2
_FRAC_BITS = 36
_KEY_SEGMENT = _FRAC_BITS + _SEGMENT_BITS


class NoConvergence(PackingLabError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"no convergence after {iterations} iterations, residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


class GaugeDeficient(PackingLabError):
    pass


class Ambiguous(PackingLabError):
    def __init__(self, value: float, candidates: list[QuadExt]):
        shown = ", ".join(str(c) for c in candidates[:4])
        super().__init__(f"{value!r} matches several exact values within tolerance: {shown}")
        self.candidates = candidates


class NoCandidate(PackingLabError):
    pass


@dataclass(frozen=True)
class Exact:
    value: QuadExt


@dataclass(frozen=True)
class DisjointFree:
    """Pair required disjoint (product > 1) but with free separation."""


Target = Exact | DisjointFree


@dataclass
class TargetSpec:
    wall_count: int
    targets: dict[tuple[int, int], Target]
    dim: int = 2
    init_hint: tuple[tuple[float, ...], ...] | None = None  # starting walls for realize

    def __post_init__(self):
        if type(self.wall_count) is not int:
            raise ParameterError(f"wall_count must be an int, got {self.wall_count!r}")
        norm = {}
        for (i, j), t in self.targets.items():
            if type(i) is not int or type(j) is not int or not (
                0 <= i < self.wall_count and 0 <= j < self.wall_count and i != j
            ):
                raise ParameterError(f"bad target pair ({i},{j})")
            norm[(min(i, j), max(i, j))] = t
        self.targets = norm
        if self.init_hint is not None:
            hint = self.init_hint = tuple(tuple(float(v) for v in row) for row in self.init_hint)
            width = self.dim + 2
            if len(hint) != self.wall_count or any(
                len(row) != width or not all(map(isfinite, row)) for row in hint
            ):
                raise ValueError(f"init_hint needs {self.wall_count} rows of {width} finite floats")

    def exact_pairs(self) -> list[tuple[int, int, QuadExt]]:
        return sorted(
            (i, j, t.value) for (i, j), t in self.targets.items() if isinstance(t, Exact)
        )


@dataclass
class FloatWallSystem:
    """Realized walls in extended-precision floats, row per wall."""

    walls: list[list[mpmath.mpf]]
    residual: float
    iterations: int


def target_from_gram(gram) -> TargetSpec:
    """Every off-diagonal entry becomes an exact target; placeholders stay free."""
    k = gram.size
    targets: dict[tuple[int, int], Target] = {}
    for i in range(k):
        for j in range(i + 1, k):
            if gram.is_placeholder(i, j):
                targets[(i, j)] = DisjointFree()
            else:
                targets[(i, j)] = Exact(gram.entries[i][j])
    return TargetSpec(k, targets)


def _midsphere_walls(coords, faces) -> np.ndarray:
    """Approximate wall vectors for a polyhedron given by 3D vertex
    coordinates: rescale so edges touch the unit sphere, take vertex polar
    planes and face planes, and read the stereographic images of the circles
    they cut.  A plane p.x = c with |p| = 1 projects to the wall
    (-(p3+c), p3-c, -p1, -p2)/sqrt(1-c^2)."""
    pts = np.array(coords, dtype=float)
    face_sets = [frozenset(f) for f in faces]
    edge_d = []
    for u in range(len(pts)):
        for v in range(u + 1, len(pts)):
            if sum(1 for f in face_sets if u in f and v in f) == 2:
                a, d = pts[u], pts[u] - pts[v]
                t = np.clip((a @ d) / (d @ d), 0.0, 1.0)
                edge_d.append(np.linalg.norm(a - t * d))
    pts = pts / np.median(edge_d)
    planes = []
    for v in pts:
        nv = np.linalg.norm(v)
        planes.append((v / nv, 1.0 / nv))
    for f in faces:
        fp = pts[list(f)]
        centroid = fp.mean(axis=0)
        _, _, vt = np.linalg.svd(fp - centroid)
        n = vt[-1]
        c = float(n @ centroid)
        if c < 0:
            n, c = -n, -c
        planes.append((n, c))
    walls = []
    for p, c in planes:
        s = np.sqrt(max(1.0 - c * c, 1e-12))
        walls.append(np.array([-(p[2] + c), p[2] - c, -p[0], -p[1]]) / s)
    return np.vstack(walls)


def polyhedron_target(
    vertex_count: int,
    faces: Sequence[Sequence[int]],
    coords: Sequence[Sequence[float]] | None = None,
) -> TargetSpec:
    """Vertex walls then face walls: tangency along edges of the skeleton and
    of the dual skeleton, orthogonality at incidences, everything else a free
    disjoint pair.  With 3D vertex coordinates the midsphere construction
    seeds the numeric solver."""
    face_sets = [frozenset(f) for f in faces]
    k = vertex_count + len(face_sets)
    targets: dict[tuple[int, int], Target] = {}
    for u in range(vertex_count):
        for v in range(u + 1, vertex_count):
            shared = sum(1 for f in face_sets if u in f and v in f)
            targets[(u, v)] = Exact(QuadExt(1)) if shared == 2 else DisjointFree()
    for a in range(len(face_sets)):
        for b in range(a + 1, len(face_sets)):
            shared = len(face_sets[a] & face_sets[b])
            key = (vertex_count + a, vertex_count + b)
            targets[key] = Exact(QuadExt(1)) if shared == 2 else DisjointFree()
    for u in range(vertex_count):
        for a, f in enumerate(face_sets):
            key = (u, vertex_count + a)
            targets[key] = Exact(QuadExt(0)) if u in f else DisjointFree()
    hint = None
    if coords is not None:
        if len(coords) != vertex_count:
            raise ValueError("coords must give one 3D point per vertex")
        hint = tuple(map(tuple, _midsphere_walls(coords, faces)))
    return TargetSpec(k, targets, init_hint=hint)


def cluster_split(spec: TargetSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the walls into the two connected components of the tangency
    graph; the component containing wall 0 comes first."""
    comps = _tangency_components(spec)
    if len(comps) != 2:
        raise PackingLabError(
            f"tangency graph has {len(comps)} components, expected 2; pass the cluster explicitly"
        )
    first, second = comps if 0 in comps[0] else (comps[1], comps[0])
    return tuple(first), tuple(second)


# -- initial guess ---------------------------------------------------------


def _tangency_components(spec: TargetSpec) -> list[list[int]]:
    adj = {i: set() for i in range(spec.wall_count)}
    for i, j, value in spec.exact_pairs():
        if value == 1:
            adj[i].add(j)
            adj[j].add(i)
    seen, comps = set(), []
    for start in range(spec.wall_count):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _initial_walls(spec: TargetSpec, rng: np.random.Generator) -> np.ndarray:
    """Starting walls read off the target Gram matrix.

    The Gram matrix of planar walls has signature (1, 3) at most and fixes
    the walls up to isometry.  Free pairs are set to the placeholder
    separation, so the target's matrix is only near such a Gram.  The
    eigenvectors of its largest eigenvalue and of its three most negative
    ones, scaled by sqrt|lambda|, are coordinates for the form
    diag(1, -1, -1, -1) (a column stays zero when there are fewer than four
    walls), and _TO_Q carries that form onto Q.  A seeded jitter keeps
    starts from different seeds apart."""
    k = spec.wall_count
    gram = np.full((k, k), float(_PLACEHOLDER_SEPARATION))
    np.fill_diagonal(gram, -1.0)
    for i, j, value in spec.exact_pairs():
        gram[i, j] = gram[j, i] = float(value)
    lam, vec = np.linalg.eigh(gram)
    keep = [k - 1, *range(min(3, k - 1))]
    y = np.zeros((k, 4))
    y[:, :len(keep)] = vec[:, keep] * np.sqrt(np.abs(lam[keep]))
    return y @ _TO_Q + rng.normal(0.0, 1e-3, (k, 4))


# -- solver ----------------------------------------------------------------


def _residual_np(x: np.ndarray, pairs, values) -> np.ndarray:
    diag = x[:, 0] * x[:, 1] - (x[:, 2:] ** 2).sum(axis=1) + 1.0
    if not len(pairs):
        return diag
    u, v = x[pairs[:, 0]], x[pairs[:, 1]]
    prod = 0.5 * (u[:, 0] * v[:, 1] + u[:, 1] * v[:, 0]) - (u[:, 2:] * v[:, 2:]).sum(axis=1)
    return np.concatenate([diag, prod - values])


def _jacobian_np(x: np.ndarray, pairs) -> np.ndarray:
    """Jacobian of _residual_np at a float64 x: d Q(x_i) = 2 x_i Q, and
    d <x_i, x_j> = x_j Q at wall i and x_i Q at wall j."""
    k, width = x.shape
    xq = x @ _Q
    jac = np.zeros((k + len(pairs), k, width))
    jac[np.arange(k), np.arange(k)] = 2.0 * xq
    if len(pairs):
        rows = np.arange(k, k + len(pairs))
        jac[rows, pairs[:, 0]] = xq[pairs[:, 1]]
        jac[rows, pairs[:, 1]] = xq[pairs[:, 0]]
    return jac.reshape(len(jac), k * width)


def _gauss_newton(x, pairs, values, max_iter, fixed=(), floor=1e-13):
    """Damped Gauss-Newton on x, a float64 array or an object array of mpf
    with mpf values.  Steps are minimum-norm least-squares solutions of the
    float64 system over the walls not in fixed, whose rows are never
    changed; a step is halved until max |residual| decreases, so accepted
    steps decrease it monotonically.  A residual that is not finite stops
    the loop and is returned as it is."""
    free = ~np.isin(np.arange(len(x)), fixed)
    columns = np.repeat(free, x.shape[1])
    res = _residual_np(x, pairs, values)
    norm = np.abs(res).max()
    iterations = 0
    for _ in range(max_iter):
        if norm < floor or not isfinite(norm):
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


# the frame: the line y=0, the unit circle resting on it at the origin, the
# unit circle resting at (2,0), and the unit circle at (1,0), which is
# orthogonal to all three
_FRAME = np.array(
    [[0.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 1.0], [4.0, 1.0, 2.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
)
_Q = np.array(q_matrix(2), dtype=float)
# x = y @ _TO_Q has Q(x) = y0^2 - y1^2 - y2^2 - y3^2
_TO_Q = np.array([[1.0, 1.0, 0, 0], [1.0, -1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])


def _frame_map(x: np.ndarray, ia: int, ic: int, ib: int) -> np.ndarray:
    """The matrix M with x @ M putting walls ia, ic, ib near the first three
    rows of _FRAME (exactly, but for rounding).

    The three walls and the unit circle n orthogonal to them have the same
    Gram matrix as the rows of _FRAME, so the one solution of S M = _FRAME
    lies in O(Q).  The sign of n sets the sign of det M; det M > 0 makes the
    map a Moebius transformation rather than a reflection."""
    walls = x[[ia, ic, ib]]
    n = np.linalg.svd(walls @ _Q)[2][-1]
    src = np.vstack([walls, n / np.sqrt(-(n @ _Q @ n))])
    src[3] *= np.sign(np.linalg.det(src) * np.linalg.det(_FRAME))
    return np.linalg.solve(src, _FRAME)


def _frame_triple(spec: TargetSpec) -> tuple[int, int, int]:
    """The first mutually tangent triple, which becomes the frame.  A
    tangent pair alone leaves a parabolic gauge freedom sliding along the
    pair, so three walls are needed for rigidity."""
    tangent = {(i, j) for i, j, v in spec.exact_pairs() if v == 1}
    for (i, j) in sorted(tangent):
        for k in range(spec.wall_count):
            if k not in (i, j) and {(min(i, k), max(i, k)), (min(j, k), max(j, k))} <= tangent:
                return i, j, k
    raise GaugeDeficient("no mutually tangent triple available to fix the frame")


def realize(
    spec: TargetSpec,
    seed: int = 0,
    tol: float = 1e-24,
    max_iter: int = 400,
) -> FloatWallSystem:
    """Solve for wall coordinates meeting every exact target.

    The start is the spec's init hint, or else the eigendecomposition of the
    target Gram matrix (_initial_walls).  One damped Gauss-Newton loop with a
    minimum-norm least-squares step then runs in float64 and again on mpmath
    residuals; accepted steps decrease max |residual| monotonically, and the
    reported residual is that norm.  The Moebius gauge is fixed once, by the
    first mutually tangent triple: after the float64 solve, one linear solve
    finds the Moebius map (det > 0, never a reflection) taking the triple to
    the line y=0 and the unit circles resting on it at the origin and at
    (2,0).  Those three walls are then set to the frame exactly and held
    fixed while the mpmath polish solves for the other walls.  This is what
    makes the solved coordinates land on small algebraic numbers.  Which of
    two mirror-image configurations is reached depends on the start.  Free
    pairs are not constrained here; verify them after guessing exact
    coordinates.  A target value too large for a float is a ParameterError.
    """
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if not 0 < tol < inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if spec.dim != 2:
        raise GaugeDeficient("only planar targets are supported")
    exact = spec.exact_pairs()
    pairs = np.array([(i, j) for i, j, _ in exact], dtype=int).reshape(-1, 2)
    values = np.empty(len(exact))
    for r, (i, j, v) in enumerate(exact):
        try:
            values[r] = float(v)
        except OverflowError:
            raise ParameterError(f"target of pair ({i},{j}) is too large for a float") from None

    frame = _frame_triple(spec)
    rng = np.random.default_rng(seed)
    if spec.init_hint is not None:
        x = np.array(spec.init_hint) + rng.normal(0.0, 1e-4, (spec.wall_count, 4))
    else:
        x = _initial_walls(spec, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # a residual past float range ends the solve
        x, norm, iterations = _gauss_newton(x, pairs, values, max_iter)
    if not norm < 1e-10:
        raise NoConvergence(iterations, float(norm))
    x = x @ _frame_map(x, *frame)
    x[list(frame)] = _FRAME[:3]

    # extended-precision polish: the same loop on mpf walls and targets,
    # converging far past double precision
    with mpmath.workdps(_REFINE_DPS):
        fields = [(v.triple, v.disc) for _, _, v in exact]
        targets = np.array([(a + b * mpmath.sqrt(d)) / q for (a, b, q), d in fields], dtype=object)
        xm, norm, its = _gauss_newton(
            np.frompyfunc(mpmath.mpf, 1, 1)(x), pairs, targets, 20, fixed=frame, floor=tol
        )
    iterations += its
    if not norm <= tol:
        raise NoConvergence(iterations, float(norm))
    return FloatWallSystem(walls=xm.tolist(), residual=float(norm), iterations=iterations)


# -- exact recovery --------------------------------------------------------


def algebraic_guess(value, d: int, denom_bound: int, tol: float) -> QuadExt:
    """Snap a float to (a + b*sqrt(d))/q with q <= denom_bound.

    value is an mpf, a float (numpy float64 included) or an int; any other
    type is a ParameterError.  Raises Ambiguous when several distinct exact
    values fit within tol and NoCandidate when none does; a value that is
    not finite has no candidate.  d must be 0 or a non-square positive
    integer: a rational sqrt(d) would give one value several (a, b) keys.
    tol must be finite and >= 0, and tol == 0 asks for an exact match.  The
    acceptance test is exact: |q*x - a - b*sqrt(d)| <= q*tol is decided on
    ints (exactnum.quad_sign) for the exact value of x and of tol.

    The candidates are every q <= denom_bound and every |b| <= b_max(q),
    with b_max(q) just past |q*x| / sqrt(d) + denom_bound (b = 0 when
    d == 0), and a the integer nearest q*x - b*sqrt(d).  A float prefilter
    keeps a candidate when q*x - b*sqrt(d) lies within a slack of a; the
    kept ones are visited in order of q, then b, and only a reduced triple,
    gcd(a, b, q) == 1, reaches the exact test.  The prefilter does not
    visit every b: a kept b has frac(b*sqrt(d)) within the slack of
    frac(q*x), so two searchsorted calls into frac(b*sqrt(d)), sorted once
    per segment of b (_FractionTable), find the only b that can be kept,
    and the float test then decides them as it would on the whole row.  The
    walk is lazy in q: the table grows only as the rows reached need wider
    b, candidates come in bounded chunks, and the walk stops at the first
    Ambiguous.  When the widest row, q = denom_bound, would pass _ROW_CELLS
    values of b, or denom_bound itself does, the call raises ParameterError.
    guess_walls runs the same pass over every value of a system at once.
    """
    return _guess_values([value], d, denom_bound, tol)[0]


def guess_walls(
    system: FloatWallSystem, d: int, denom_bound: int, tol: float
) -> list[InversiveVector]:
    """algebraic_guess on every coordinate of a realized float system, in one
    pass that shares one fraction table; it returns or raises what a
    row-major loop of algebraic_guess would."""
    coords = iter(_guess_values([v for row in system.walls for v in row], d, denom_bound, tol))
    return [InversiveVector.from_coords([next(coords) for _ in row]) for row in system.walls]


def _read_value(value) -> tuple[float, int, int]:
    """A value to guess as its float and its exact ratio xn/xd, or (x, 0, 1)
    when the float x is not finite: an mpf, a float or an int."""
    if isinstance(value, mpmath.mpf):
        xm = value
    elif isinstance(value, (float, int)):
        xm = mpmath.mpf(value)
    else:
        raise ParameterError(
            f"a value to guess must be an mpf, a float or an int, not {type(value).__name__}"
        )
    xf = float(xm)
    if not isfinite(xf):
        return xf, 0, 1
    if xm is value:
        return xf, *to_rational(value._mpf_)
    return xf, *Fraction(value).as_integer_ratio()


def _b_max(xq, slack, sqrt_f: float, denom_bound: int):
    """The widest |b| of a row with q*x = xq: floats, exact below 2**53, far
    past the _ROW_CELLS guard."""
    return np.floor((np.abs(xq) + slack + 1.0) / sqrt_f) + 1 + denom_bound


def _guess_values(values, d: int, denom_bound: int, tol: float) -> list[QuadExt]:
    """algebraic_guess on each value in turn: the first value that fails
    raises, and the values after it are not walked."""
    if denom_bound < 1:
        raise ParameterError(f"denominator bound must be positive, got {denom_bound}")
    if denom_bound > _ROW_CELLS:
        raise ParameterError(f"denominator bound {denom_bound} is over the limit of {_ROW_CELLS}")
    if d < 0 or (d and isqrt(d) ** 2 == d):
        raise ParameterError(f"d must be 0 or a positive non-square, got {d}")
    if not 0 <= tol < inf:
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    with mpmath.workdps(_REFINE_DPS):
        sqrt_f = float(mpmath.sqrt(d))
        # a value's checks before the walk, in order; the first failure waits
        # until the values before it are walked
        xfs, ratios, failed = [], [], None
        for value in values:
            try:
                xf, xn, xd = _read_value(value)
                if not isfinite(xf):
                    raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
            except PackingLabError as exc:
                failed = exc
                break
            xfs.append(xf)
            ratios.append((xn, xd))
        # a q*x past the float range is inf or nan: its cap is over the guard,
        # and its row keeps no candidate
        with np.errstate(over="ignore", invalid="ignore"):
            # the row guard: the widest row of a value is its row q = denom_bound
            caps = np.zeros(len(xfs))
            if d:
                slack = denom_bound * tol * 1.125 + 1e-9
                caps = _b_max(np.array(xfs) * denom_bound, slack, sqrt_f, denom_bound)
            over = np.flatnonzero(2 * caps + 1 > _ROW_CELLS)
            if len(over):
                i = over[0]
                failed = ParameterError(
                    f"{xfs[i]!r} needs grid rows of {2 * caps[i] + 1:.0f} cells at d = {d} and"
                    f" denominator bound {denom_bound}, over the limit of {_ROW_CELLS}"
                )
                del xfs[i:], ratios[i:]
            found = _walk(xfs, ratios, int(caps[:len(xfs)].max(initial=0)), d, sqrt_f, denom_bound, tol)
        out = []
        for xf, hits in zip(xfs, found):
            if len(hits) > 1:
                raise Ambiguous(xf, sorted(hits, key=float))
            if not hits:
                raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
            out.append(hits[0])
        if failed is not None:
            raise failed
        return out


def _segment(b: int) -> int:
    """The segment of _FractionTable that holds b."""
    return (b + _SEGMENT_BASE) // _SEGMENT


class _FractionTable:
    """frac(b*sqrt(d)) for |b| <= cap, sorted within segments of _SEGMENT
    consecutive b, the segments in order.

    Segment k holds the b with (b + _SEGMENT_BASE) // _SEGMENT == k, so a
    row with |b| under _SEGMENT_BASE spans one segment.  Each b is one int64
    key, k*2**_KEY_SEGMENT + floor(frac*2**_FRAC_BITS)*_SEGMENT + (b - the
    first b of segment k), with |k| under 2**14 below the _ROW_CELLS guard,
    so one searchsorted finds the b of segment k whose fraction lies in a
    range.  The fraction is read off fl(b*sqrt_f), the product the
    prefilter subtracts from q*x: y - floor(y) is exact for a float y, but
    for a rounding of at most 2**-53 when y is a tiny negative number.  The
    table holds the segments lo..hi, and it grows, at least doubling on the
    side that needs it, only when asked for a segment outside them."""

    def __init__(self, sqrt_f: float, cap: int):
        self.sqrt_f, self.cap = sqrt_f, cap
        self.lo, self.hi = 0, -1
        self.keys = np.empty(0, dtype=np.int64)

    def cover(self, lo: int, hi: int) -> np.ndarray:
        """The keys, grown to hold segments lo..hi."""
        if self.lo <= lo and hi <= self.hi:
            return self.keys
        span = self.hi - self.lo + 1
        if span:
            lo = min(lo, self.lo - span) if lo < self.lo else self.lo
            hi = max(hi, self.hi + span) if hi > self.hi else self.hi
        lo, hi = max(lo, _segment(-self.cap)), min(hi, _segment(self.cap))
        if span:
            parts = [self._segments(lo, self.lo - 1), self.keys, self._segments(self.hi + 1, hi)]
            self.keys = np.concatenate(parts)
        else:
            self.keys = self._segments(lo, hi)
        self.lo, self.hi = lo, hi
        return self.keys

    def _segments(self, lo: int, hi: int) -> np.ndarray:
        """The sorted keys of segments lo..hi, built _CHUNK values of b at
        a time."""
        first = max(lo * _SEGMENT - _SEGMENT_BASE, -self.cap)
        stop = min(hi * _SEGMENT + _SEGMENT_BASE, self.cap + 1)
        keys = np.empty(max(stop - first, 0), dtype=np.int64)
        for at in range(first, stop, _CHUNK):
            b = np.arange(at, min(at + _CHUNK, stop))
            frac = b * self.sqrt_f
            frac -= np.floor(frac)
            frac *= 2.0**_FRAC_BITS
            key = keys[at - first:at - first + len(b)]
            np.minimum(frac, (1 << _FRAC_BITS) - 1, out=key, casting="unsafe")
            key <<= _SEGMENT_BITS
            b += _SEGMENT_BASE
            key += b & (_SEGMENT - 1)
            b //= _SEGMENT
            b *= 1 << _KEY_SEGMENT
            key += b
        keys.sort()
        return keys


def _walk(xfs, ratios, cap: int, d: int, sqrt_f: float, denom_bound: int, tol: float):
    """The candidates that pass the exact test, per value, in the order of q
    then b.  The rows (value, q) are walked value by value, and the walk ends
    when a value has two, so that every value before it is complete."""
    found: list[list[QuadExt]] = [[] for _ in xfs]
    if not xfs:
        return found
    xs = np.array(xfs)
    # x = xn/xd and tol = tn/td exactly; |q*x - a - b*sqrt(d)| <= q*tol times
    # xd*td is |r - sb*sqrt(d)| <= c for r = (q*xn - a*xd)*td, sb = b*xd*td
    # and c = q*tn*xd
    tn, td = Fraction(tol).as_integer_ratio()
    # (a + b*sqrt(d)) / q is (a + b*s*sqrt(f)) / q for square-free f
    root = QuadExt.sqrt(d) if d else QuadExt(0)
    s, f = root.triple[1], root.disc
    table = _FractionTable(sqrt_f, cap)
    top = 1 << _FRAC_BITS
    row_segments = _segment(cap) - _segment(-cap) + 1
    # expected cells in the next chunk: it starts small, so that a value
    # that is Ambiguous in its first rows costs little, and doubles
    budget = 64
    n_rows, r0 = len(xfs) * denom_bound, 0
    while r0 < n_rows:
        r1 = min(r0 + max(1, budget // row_segments), n_rows)
        value, q = np.divmod(np.arange(r0, r1), denom_bound)
        r0 = r1
        q += 1
        xq = xs[value] * q
        slack = q * tol * 1.125 + 1e-9
        b_max = _b_max(xq, slack, sqrt_f, denom_bound) if d else np.zeros(len(q))
        # the window on frac(b*sqrt(d)) about frac(q*x): the slack, widened
        # by eight times the rounding of the float q*x - b*sqrt(d) and of
        # the window's own ends, so that it holds every b the float test
        # keeps; as fraction keys it is width keys from first, mod top
        half = np.minimum(slack + 2.0**-50 * (np.abs(xq) + b_max * sqrt_f + 4), 0.5)
        center = np.where(half < 0.5, xq - np.floor(xq), 0.0)
        first = np.floor((center - half) * top)
        width = np.minimum(np.floor((center + half) * top) - first + 1, top).astype(np.int64)
        first = first.astype(np.int64) & (top - 1)
        # key ranges [first, end) and [0, end - top) within a segment; the
        # second is empty unless the window wraps past 1
        window = np.zeros((len(q), 4), dtype=np.int64)
        window[:, 0] = first
        window[:, 1] = np.minimum(first + width, top)
        window[:, 3] = first + width - top
        window *= _SEGMENT
        # one pair (row, segment) per segment of b a row spans, in order
        k_lo = np.floor((_SEGMENT_BASE - b_max) / _SEGMENT).astype(np.int64)
        n_seg = np.floor((b_max + _SEGMENT_BASE) / _SEGMENT).astype(np.int64) - k_lo + 1
        row = np.repeat(np.arange(len(q)), n_seg)
        seg = np.arange(len(row)) - np.repeat(np.cumsum(n_seg) - n_seg, n_seg) + k_lo[row]
        expected = np.cumsum(np.minimum(2 * half[row], 1.0) * min(_SEGMENT, 2 * cap + 1) + 1)
        start = 0
        while start < len(row):
            end = int(np.searchsorted(expected, budget + (expected[start - 1] if start else 0)))
            end = max(end, start + 1)
            budget = min(2 * budget, _CHUNK)
            cells = _chunk_candidates(
                table, row[start:end], seg[start:end], (q, xq, slack, b_max, window), sqrt_f
            )
            start = end
            if cells is None:
                continue
            at, a, b = cells
            for v, qq, a, b in zip(value[at].tolist(), q[at].tolist(), a.tolist(), b.tolist()):
                a = int(a)  # a Python int: it can pass 2**63
                # the test is unchanged when (a, b, q) is scaled, so a value's
                # reduced triple, its first occurrence, decides it
                if gcd(a, b, qq) != 1:
                    continue
                xn, xd = ratios[v]
                r, sb, c = (qq * xn - a * xd) * td, b * xd * td, qq * tn * xd
                if quad_sign(c - r, sb, d) >= 0 and quad_sign(c + r, -sb, d) >= 0:
                    hits = found[v]
                    hits.append(from_triple(a, b * s, qq, f))
                    if len(hits) > 1:
                        return found
    return found


def _chunk_candidates(table, row, seg, rows, sqrt_f):
    """The cells (row, a, b) that the float test keeps in the pairs (row,
    seg), in order of row then b, less those an int64 gcd shows are not
    reduced; None when the window finds no cell.  rows holds the block's q,
    q*x, slack, b_max and fraction window per row."""
    q, xq, slack, b_max, window = rows
    keys = table.cover(int(seg.min()), int(seg.max()))
    bounds = window[row]
    bounds += (seg * (1 << _KEY_SEGMENT))[:, None]
    at = np.searchsorted(keys, bounds).reshape(-1, 2)
    count = at[:, 1] - at[:, 0]
    np.maximum(count, 0, out=count)
    total = int(count.sum())
    if not total:
        return None
    index = np.arange(total) + np.repeat(at[:, 0] - (np.cumsum(count) - count), count)
    # the cells sorted by pair, then by b within the pair's segment
    cell = np.repeat(np.arange(len(count)) >> 1, count) << _SEGMENT_BITS
    cell |= keys[index] & (_SEGMENT - 1)
    cell.sort()
    pair = cell >> _SEGMENT_BITS
    b = (cell & (_SEGMENT - 1)) + (seg[pair] * _SEGMENT - _SEGMENT_BASE)
    r = row[pair]
    # the float test, as on the whole row
    approx = xq[r] - b * sqrt_f
    dev = np.round(approx)
    dev -= approx
    np.abs(dev, out=dev)
    keep = (dev <= slack[r]) & (np.abs(b) <= b_max[r])
    r, b = r[keep], b[keep]
    a = np.round(approx[keep])
    small = np.abs(a) < 2.0**62
    keep = ~small | (np.gcd(np.gcd(np.where(small, a, 0).astype(np.int64), b), q[r]) == 1)
    return r[keep], a[keep], b[keep]


@dataclass
class VerificationReport:
    ok: bool
    mismatches: list[str] = field(default_factory=list)


def verify_realization(walls, spec: TargetSpec) -> VerificationReport:
    """Exact check: unit diagonal, every exact target met, free pairs disjoint.

    Accepts a WallSystem or any sequence of exact wall vectors.  Each wall is
    encoded once (inversive.encode), and every check is decided on the ints:
    the product of two walls is a numerator over 2*den_u*den_v
    (inversive._product_numerator), compared with the target's triple, or
    signed against 1 by quad_sign for a free pair.  A QuadExt is built only
    to write a mismatch.  A target pair of walls of different dimensions or
    fields raises InvalidWall or DiscMismatch.
    """
    walls = list(getattr(walls, "walls", walls))
    if len(walls) != spec.wall_count:
        return VerificationReport(False, [f"expected {spec.wall_count} walls, got {len(walls)}"])
    mismatches = []
    codes = []
    for i, w in enumerate(walls):
        coords = w.coords()
        d = field_disc(coords)
        code = encode(coords)
        if not q_is_minus_one(code, d):
            mismatches.append(f"wall {i + 1}: Q(v) = {inversive_product(w, w)} != -1")
        codes.append((code, d))
    for (i, j), t in sorted(spec.targets.items()):
        (u, du), (v, dv) = codes[i], codes[j]
        d = _pair_field(u, du, v, dv)
        na, nb = _product_numerator(u, v, d)
        den = 2 * u[-1] * v[-1]
        if isinstance(t, Exact):
            ta, tb, tq = t.value.triple
            if na * tq != ta * den or nb * tq != tb * den or (tb and t.value.disc != d):
                prod = from_triple(na, nb, den, d)
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} != {t.value}")
        elif quad_sign(na - den, nb, d) <= 0:
            prod = from_triple(na, nb, den, d)
            mismatches.append(f"pair ({i + 1},{j + 1}): {prod} is not > 1")
    return VerificationReport(not mismatches, mismatches)
