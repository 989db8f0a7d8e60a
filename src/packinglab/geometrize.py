"""Numeric realization of product targets and recovery of exact coordinates.

The pipeline is: realize (start from the target's init hint, or else from an
eigendecomposition of its Gram matrix, one Moebius map that puts a tangent
triple of the start on the frame, whose three walls are then set exactly and
held fixed, and one damped Gauss-Newton loop for the other walls on exact
fixed-point ints, each coordinate an int over 2**216, each residual row an
exact int rounded once to a float), algebraic_guess
(snap a value to (a + b*sqrt(d))/q with a bounded denominator: a row
(value, q) finds the b with frac(b*sqrt(d)) in a window about frac(q*x),
the only float filter, segment by segment b0 + j, by searchsorted in one
sorted table of frac(j*sqrt(d)), j < _CHUNK, the window shifted by
frac(b0*sqrt(d)); only reduced triples, gcd(a, b, q) == 1, reach the exact
check on ints; guess_walls runs one such pass over every value of a
system), and verify_realization (exact re-check of every target against the
guessed walls, on the int code of each wall).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, isfinite, isqrt, nan, sqrt
from typing import Sequence

import numpy as np

from .coxeter import _PLACEHOLDER_SEPARATION
from .errors import PackingLabError, ParameterError
from .exactnum import MAX_DISC, QuadExt, _squarefree_split, from_triple, quad_sign
from .inversive import (
    InversiveVector,
    _product,
    inversive_product,
    q_matrix,
)

_P = 216  # realize's grid: a coordinate is an int X meaning X / 2**_P
_CHUNK = 1 << 14  # algebraic_guess's fraction table, and the segments and cells of one pass
_ROW_CELLS = 1 << 24  # widest row of surd coefficients b algebraic_guess takes on
_STALL = 5  # realize gives up once this many steps in a row have not halved the residual


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
    """Realized walls, row per wall: each coordinate a Fraction, exactly a
    value X / 2**216 of realize's grid."""

    walls: list[list[Fraction]]
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


def _jacobian_np(x: np.ndarray, pairs) -> np.ndarray:
    """Jacobian of the residual at float64 walls x, row per wall then row per
    target pair: d Q(x_i) = 2 x_i Q, and d <x_i, x_j> = x_j Q at wall i and
    x_i Q at wall j."""
    k, width = x.shape
    xq = x @ _Q
    jac = np.zeros((k + len(pairs), k, width))
    jac[np.arange(k), np.arange(k)] = 2.0 * xq
    if len(pairs):
        rows = np.arange(k, k + len(pairs))
        jac[rows, pairs[:, 0]] = xq[pairs[:, 1]]
        jac[rows, pairs[:, 1]] = xq[pairs[:, 0]]
    return jac.reshape(len(jac), k * width)


def _gauss_newton(X, grid, fixed, max_iter, tol):
    """Damped Gauss-Newton on the grid walls X (_Grid), the rows in
    fixed never changed.  Each step is the float64 least-squares step of
    _step over the other walls, at the walls read as floats; it enters the
    ints scaled by 2**_P and rounded toward zero, and is halved until max
    |residual| decreases, so accepted steps decrease it monotonically.  The
    loop stops once that norm is at most tol, or is not finite, or after
    max_iter steps; a step that is not finite on the grid, or that no
    halving makes decrease the norm, ends it where it is.  It also stops once
    the last _STALL steps together have not halved the norm: a start that
    converges falls far faster (at least 11-fold over any 5 steps, on
    1,000+ converging runs of the fixture targets from hinted, hint-less and
    noisy starts), while one placed far off crawls down by a few percent a
    step and would spend all of max_iter."""
    free = ~np.isin(np.arange(len(X)), fixed)
    columns = np.repeat(free, X.shape[1])
    res = grid.residual(X)
    norm = np.abs(res).max()
    norms = [norm]  # at the start, then after each step
    iterations = 0
    for _ in range(max_iter):
        stalled = len(norms) > _STALL and norms[-1 - _STALL] < 2 * norm
        if norm <= tol or not isfinite(norm) or stalled:
            break
        iterations += 1
        jac = _jacobian_np(np.ldexp(X.astype(float), -_P), grid.pairs)[:, columns]
        step = np.zeros(X.shape)
        step[free] = _step(jac, res).reshape(-1, X.shape[1])
        with np.errstate(over="ignore"):
            step = np.ldexp(step, _P)
        if not np.isfinite(step).all():
            break
        alpha, improved = 1.0, False
        for _ in range(25):
            trial = X + _to_int(alpha * step)
            trial_res = grid.residual(trial)
            trial_norm = np.abs(trial_res).max()
            if trial_norm < norm:
                X, res, norm, improved = trial, trial_res, trial_norm, True
                break
            alpha *= 0.5
        if not improved:
            break
        norms.append(norm)
    return X, norm, iterations


def _step(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    """The least-squares s of jac @ s = -res: R11 s = R12 for R = [[R11,
    R12], [0, *]], the QR of [jac, -res].  With the frame fixed, jac of a
    rigid target has full column rank and s is unique.  Fewer rows than
    columns, or min |diag R11| <= 1e-10 max |diag R11|, means null
    directions, a flexible target, and the step is lstsq's minimum-norm one."""
    m, n = jac.shape
    if m >= n:
        r = np.linalg.qr(np.column_stack([jac, -res]), mode="r")
        diag = np.abs(np.diag(r)[:n])
        if diag.min() > 1e-10 * diag.max():
            return np.linalg.solve(r[:n, :n], r[:n, n])
    return np.linalg.lstsq(jac, -res, rcond=None)[0]


_to_int = np.frompyfunc(int, 1, 1)


class _Grid:
    """The walls as fixed-point ints, realize's representation: an object
    array of ints X, each the coordinate X / 2**_P.

    Every residual row is an exact int at scale U = 2**(2P+1): for a wall,
    2*(X0*X1 - X2**2 - X3**2) + U, which is (Q(x) + 1)*U, and for a target
    pair, U0*V1 + U1*V0 - 2*(U2*V2 + U3*V3) - T, which is (<u, v> - t)*U
    but for T = floor(t*U), the target (a + b*sqrt(d))/q read with
    isqrt(d*U**2).  The rows become the float64 residual in one rounding
    each; walls with a row too large for a float have an infinite residual."""

    def __init__(self, pairs, exact):
        self.pairs = pairs
        self.unit = 1 << 2 * _P + 1
        targets = [v.triple + (v.disc,) for _, _, v in exact]
        self.targets = np.array(
            [(a * self.unit + b * isqrt(d * self.unit**2)) // q for a, b, q, d in targets],
            dtype=object,
        )

    def residual(self, X):
        diag = 2 * (X[:, 0] * X[:, 1] - X[:, 2] * X[:, 2] - X[:, 3] * X[:, 3]) + self.unit
        u, v = X[self.pairs[:, 0]], X[self.pairs[:, 1]]
        prod = u[:, 0] * v[:, 1] + u[:, 1] * v[:, 0] - 2 * (u[:, 2] * v[:, 2] + u[:, 3] * v[:, 3])
        try:
            rows = np.concatenate([diag, prod - self.targets]).astype(float)
        except OverflowError:
            return np.array([inf])
        return np.ldexp(rows, -2 * _P - 1)

    @staticmethod
    def walls(X):
        """The walls as Fractions, each coordinate the exact X / 2**_P."""
        return [[Fraction(c, 1 << _P) for c in row] for row in X.tolist()]


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
    """The matrix M with x @ M putting walls ia, ic, ib of a start on the
    first three rows of _FRAME, but for rounding.

    n is the null direction of the three walls, scaled to |Q(n)| = 1.  When
    the walls are a tangent triple, n is the unit circle orthogonal to them,
    the four have the Gram matrix of the rows of _FRAME, and the one solution
    of S M = _FRAME lies in O(Q).  For a start that is not yet one, Q(n) may
    be positive (no real circle is orthogonal to the three) and M is only
    linear.  The sign of n sets the sign of det M; det M > 0 makes the map a
    Moebius transformation rather than a reflection.  A singular S, or walls
    that are not finite, raise LinAlgError or give an M that is not finite."""
    walls = x[[ia, ic, ib]]
    n = np.linalg.svd(walls @ _Q)[2][-1]
    src = np.vstack([walls, n / np.sqrt(np.abs(n @ _Q @ n))])
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
    target Gram matrix (_initial_walls).  The Moebius gauge is fixed on the
    start, by the first mutually tangent triple: one linear solve
    (_frame_map) maps the triple near the line y=0 and the unit circles
    resting on it at the origin and at (2,0), and the three walls are then
    set to that frame exactly and held fixed.  This is what makes the solved
    coordinates land on small algebraic numbers; which of two mirror-image
    configurations is reached depends on the start.  A start the map cannot
    place (not finite, the triple's walls linearly dependent, or past the
    float range once on the grid) is NoConvergence after 0 iterations, its
    residual inf.

    One damped Gauss-Newton loop (_gauss_newton), at most max_iter steps,
    then solves for the other walls on the fixed-point grid 2**-216
    (_Grid): every coordinate an exact int over 2**216, every residual
    row an exact int rounded once to a float.  Each step is one float64 QR
    solve (_step); with the frame fixed, a rigid target's Jacobian has full
    column rank, and a flexible one takes lstsq's minimum-norm step.
    Accepted steps decrease max |residual| monotonically; the reported
    residual is that norm, over the target rows <x_i, x_j> - target and the
    rows Q(x_i) + 1, and the loop stops once it is at most tol, or as
    NoConvergence once _STALL steps in a row have not halved it.  The grid,
    finer than 60-digit floats, reaches about 1e-64 (3e-65 on the
    tetrahedron): a tol under that ends in NoConvergence.  The returned walls
    are Fractions, each the exact grid value.  Free pairs are not
    constrained here; verify them after guessing exact coordinates.  A
    target value too large for a float, like a seed or max_iter that is not
    a non-negative int, is a ParameterError.
    """
    if type(seed) is not int or seed < 0:
        raise ParameterError(f"seed must be a non-negative int, got {seed!r}")
    if type(max_iter) is not int or max_iter < 0:
        raise ParameterError(f"max_iter must be a non-negative int, got {max_iter!r}")
    if not 0 < tol < inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if spec.dim != 2:
        raise GaugeDeficient("only planar targets are supported")
    exact = spec.exact_pairs()
    for i, j, v in exact:
        try:
            float(v)
        except OverflowError:
            raise ParameterError(f"target of pair ({i},{j}) is too large for a float") from None

    frame = _frame_triple(spec)
    rng = np.random.default_rng(seed)
    if spec.init_hint is not None:
        x = np.array(spec.init_hint) + rng.normal(0.0, 1e-4, (spec.wall_count, 4))
    else:
        x = _initial_walls(spec, rng)
    # the start on the frame, scaled to the grid (exact for every |x| over
    # 2**(52-P)); one the frame map cannot place, or past the float range
    # once scaled, ends here
    with np.errstate(all="ignore"):
        try:
            x = x @ _frame_map(x, *frame)
        except np.linalg.LinAlgError:
            x[:] = nan
        x[list(frame)] = _FRAME[:3]
        x = np.ldexp(x, _P)
    if not np.isfinite(x).all():
        raise NoConvergence(0, inf)
    grid = _Grid(np.array([(i, j) for i, j, _ in exact], dtype=int).reshape(-1, 2), exact)
    X, norm, iterations = _gauss_newton(_to_int(x), grid, frame, max_iter, tol)
    if not norm <= tol:
        raise NoConvergence(iterations, float(norm))
    return FloatWallSystem(walls=grid.walls(X), residual=float(norm), iterations=iterations)


# -- exact recovery --------------------------------------------------------


def algebraic_guess(value, d: int, denom_bound: int, tol: float) -> QuadExt:
    """Snap a float to (a + b*sqrt(d))/q with q <= denom_bound.

    value is a float (numpy float64 included), an int, a Fraction or an
    mpf, read off its _mpf_ tuple; any other type is a ParameterError.
    Raises Ambiguous when several distinct exact values fit within tol and
    NoCandidate when none does; a value that is not finite, or past the
    float range, has none.  d must be 0 or a non-square positive integer: a
    rational sqrt(d) would give one value several (a, b) keys.
    tol must be finite and >= 0, and tol == 0 asks for an exact match.  The
    acceptance test is exact: |q*x - a - b*sqrt(d)| <= q*tol is decided on
    ints (exactnum.quad_sign) for the exact value of x and of tol.

    The candidates are every q <= denom_bound and every |b| <= b_max(q),
    with b_max(q) just past |q*x| / sqrt(d) + denom_bound (b = 0 when
    d == 0), and a the integer nearest q*x - b*sqrt(d), exact at d == 0.
    The only float filter keeps a b when frac(b*sqrt(d)) lies within a
    window about frac(q*x): a slack of 1.125*q*tol + 1e-9, widened by the
    float rounding.  The kept ones are visited in order of q, then b, and
    only a reduced triple, gcd(a, b, q) == 1, reaches the exact test.  One
    table, frac(j*sqrt(d)) for 0 <= j < size with
    size = min(_CHUNK, 2*b_max(denom_bound) + 1), is sorted once per call;
    a row's b run in segments b0 + j, and a segment's b are those whose j
    lies in the row's window shifted by frac(b0*sqrt(d)), found by
    searchsorted.  The segments go in runs of at most _CHUNK cells, so that
    memory stays bounded on wide windows; the walk stops at the first
    Ambiguous.  When the widest row, q = denom_bound, would pass _ROW_CELLS
    values of b, or denom_bound itself does, the call raises ParameterError.
    guess_walls runs the same pass over every value of a system at once.
    """
    return _guess_values([value], d, denom_bound, tol)[0]


def guess_walls(
    system: FloatWallSystem, d: int, denom_bound: int, tol: float
) -> list[InversiveVector]:
    """algebraic_guess on every coordinate of a realized float system, in one
    pass whose runs of cells cross values and share one fraction table; it
    returns or raises what a row-major loop of algebraic_guess would."""
    coords = iter(_guess_values([v for row in system.walls for v in row], d, denom_bound, tol))
    return [InversiveVector.from_coords([next(coords) for _ in row]) for row in system.walls]


def _read_value(value, denom_bound: int) -> tuple[float, int, int]:
    """A value to guess as its float, rounded to nearest, and its exact ratio
    xn/xd: a float, an int, a Fraction, or an mpf, whose _mpf_ (sign, man,
    exp, bc) is (-1)**sign * man * 2**exp; -0.0 reads as 0.0.  A value whose
    float is not finite, +-inf past the float range, has no candidate."""
    mpf = getattr(value, "_mpf_", None)
    if mpf is None and not isinstance(value, (float, int, Fraction)):
        name = type(value).__name__
        raise ParameterError(f"a value to guess must be a float, an int, a Fraction or an mpf, not {name}")
    try:
        xf = float(value) + 0.0
    except OverflowError:
        xf = inf if value > 0 else -inf
    if not isfinite(xf):
        raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
    if mpf is None:
        return xf, *value.as_integer_ratio()
    sign, man, exp, _ = mpf
    return xf, (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)


def _b_max(xq, slack, sqrt_f: float, denom_bound: int):
    """The widest |b| of a row with q*x = xq: floats, exact below 2**53, far
    past the _ROW_CELLS guard."""
    return np.floor((np.abs(xq) + slack + 1.0) / sqrt_f) + 1 + denom_bound


def check_discriminant(d: int) -> None:
    """Refuse a d that algebraic_guess cannot take: a negative or square d,
    or one over exactnum.MAX_DISC, whose square-free split would not run."""
    if d < 0 or (d and isqrt(d) ** 2 == d):
        raise ParameterError(f"d must be 0 or a positive non-square, got {d}")
    if d > MAX_DISC:
        raise ParameterError(f"d {d} is over the limit of {MAX_DISC}")


def check_denominator_bound(denom_bound: int) -> None:
    """Refuse a denominator bound algebraic_guess cannot take: one under 1,
    or over _ROW_CELLS, the widest row of the walk."""
    if denom_bound < 1:
        raise ParameterError(f"denominator bound must be positive, got {denom_bound}")
    if denom_bound > _ROW_CELLS:
        raise ParameterError(f"denominator bound {denom_bound} is over the limit of {_ROW_CELLS}")


def _guess_values(values, d: int, denom_bound: int, tol: float) -> list[QuadExt]:
    """algebraic_guess on each value in turn: the first value that fails
    raises, and the values after it are not walked."""
    check_denominator_bound(denom_bound)
    check_discriminant(d)
    if not 0 <= tol < inf:
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    sqrt_f = sqrt(d)
    # a value's checks before the walk, in order; the first failure waits
    # until the values before it are walked
    xfs, ratios, failed = [], [], None
    for value in values:
        try:
            xf, xn, xd = _read_value(value, denom_bound)
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
        cap = int(caps[:len(xfs)].max(initial=0))
        found = _walk(xfs, ratios, cap, d, denom_bound, tol)
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


def _walk(xfs, ratios, cap: int, d: int, denom_bound: int, tol: float):
    """The candidates that pass the exact test, per value, in the order of q
    then b.  The rows (value, q) are walked value by value, and the walk ends
    when a value has two, so that every value before it is complete."""
    found: list[list[QuadExt]] = [[] for _ in xfs]
    xs = np.array(xfs)
    # x = xn/xd and tol = tn/td exactly; |q*x - a - b*sqrt(d)| <= q*tol times
    # xd*td is |r - sb*sqrt(d)| <= c for r = (q*xn - a*xd)*td, sb = b*xd*td
    # and c = q*tn*xd
    tn, td = Fraction(tol).as_integer_ratio()
    # (a + b*sqrt(d)) / q is (a + b*s*sqrt(f)) / q, f square-free; b = 0 at d = 0
    s, f = _squarefree_split(d)
    sqrt_f = sqrt(d)
    # the table: frac(fl(j*sqrt(d))) for 0 <= j < size, sorted, and its j;
    # y - floor(y) is exact for a float y >= 0
    size = min(_CHUNK, 2 * cap + 1)
    table = np.arange(size) * sqrt_f
    table -= np.floor(table)
    table_j = np.argsort(table)
    table = table[table_j]
    # a row's b run in segments b0 + j, b0 = -b_max, -b_max + size, ...; the
    # rows go in passes of at most _CHUNK segments
    n_rows = len(xfs) * denom_bound
    step = max(_CHUNK // ((2 * cap + size) // size), 1)
    for r0 in range(0, n_rows, step):
        value, q = np.divmod(np.arange(r0, min(r0 + step, n_rows)), denom_bound)
        q += 1
        xq = xs[value] * q
        slack = q * tol * 1.125 + 1e-9
        b_max = _b_max(xq, slack, sqrt_f, denom_bound) if d else np.zeros(len(q))
        # the window on frac(b*sqrt(d)) about frac(q*x): the slack, widened
        # by sixteen times the rounding of the float q*x - b*sqrt(d), of the
        # segment's shift and of the window's own ends, so that it holds
        # every b that passes the exact test
        half = np.minimum(slack + 2.0**-49 * (np.abs(xq) + b_max * sqrt_f + 4), 0.5)
        b_max = b_max.astype(np.int64)
        n_seg = (2 * b_max + size) // size
        seg_row = np.repeat(np.arange(len(q)), n_seg)
        b0 = np.arange(len(seg_row)) * size - ((np.cumsum(n_seg) - n_seg) * size + b_max)[seg_row]
        # a segment's window about frac(q*x - b0*sqrt(d)) is [lo, hi) with
        # lo in [0, 1), or [0, 1) for the whole circle; the table's entry k
        # stands for table[k - size] + 1 at k >= size, so that a window that
        # wraps past 1 is one range of at most size entries, each j once
        h = half[seg_row]
        lo = xq[seg_row] - b0 * sqrt_f - h
        lo -= np.floor(lo)
        lo = np.where(h < 0.5, lo, 0.0)
        hi = lo + 2 * h
        wrap = hi >= 1.0
        at = np.searchsorted(table, np.stack([lo, hi - wrap], 1))
        at[:, 1] += size * wrap
        count = np.minimum(at[:, 1] - at[:, 0], size)
        for g0, g1 in _runs(count):
            # the cells (row, b) of segments g0 to g1, |b| <= b_max of the row,
            # in order of row then b
            first, n = at[g0:g1, 0], count[g0:g1]
            index = np.arange(n.sum()) + np.repeat(first - (np.cumsum(n) - n), n)
            seg = np.repeat(np.arange(g0, g1), n)
            row, b = seg_row[seg], b0[seg] + table_j[index % size]
            keep = b <= b_max[row]
            row, b = row[keep], b[keep]
            order = np.lexsort((b, row))
            row, b = row[order], b[order]
            # a, the integer nearest q*x - b*sqrt(d), is read off floats at
            # d > 0, where the row guard keeps it under 2**40, and exactly at
            # d = 0 (b = 0), where q*x can pass 2**52 or x be off its float.
            # An int64 gcd on the float a drops most triples that are not
            # reduced; at d = 0 only in a window under 1/4, which keeps
            # |q*x| < 2**47 and the float a the exact one
            a = np.round(xq[row] - b * sqrt_f)
            sure = (half[row] < 0.25) | bool(d)
            keep = ~sure | (np.gcd(np.gcd(np.where(sure, a, 0).astype(np.int64), b), q[row]) == 1)
            row, a, b = row[keep], a[keep], b[keep]
            for v, qq, a, b in zip(value[row].tolist(), q[row].tolist(), a.tolist(), b.tolist()):
                xn, xd = ratios[v]
                a = int(a) if d else (2 * qq * xn + xd) // (2 * xd)
                # the test is unchanged when (a, b, q) is scaled, so a value's
                # reduced triple, its first occurrence, decides it
                if gcd(a, b, qq) != 1:
                    continue
                r, sb, c = (qq * xn - a * xd) * td, b * xd * td, qq * tn * xd
                if quad_sign(c - r, sb, d) >= 0 and quad_sign(c + r, -sb, d) >= 0:
                    hits = found[v]
                    hits.append(from_triple(a, b * s, qq, f))
                    if len(hits) > 1:
                        return found
    return found


def _runs(cells):
    """Consecutive runs (start, stop) of segments whose cells sum to at most
    _CHUNK, or of one segment, which holds at most _CHUNK."""
    total = np.cumsum(cells)
    start = 0
    while start < len(cells):
        limit = total[start] - cells[start] + _CHUNK
        stop = max(int(np.searchsorted(total, limit, "right")), start + 1)
        yield start, stop
        start = stop


@dataclass
class VerificationReport:
    ok: bool
    mismatches: list[str] = field(default_factory=list)


def verify_realization(walls, spec: TargetSpec) -> VerificationReport:
    """Exact check: unit diagonal, every exact target met, free pairs disjoint.

    Accepts a WallSystem or any sequence of InversiveVectors.  Every check
    is decided on the walls' int codes as they hold them: the product of two
    walls is a numerator over 2*den_u*den_v (inversive._product),
    compared with the target's triple, or signed against 1 by quad_sign for
    a free pair.  A QuadExt is built only
    to write a mismatch.  A target pair of walls of different dimensions or
    fields raises InvalidWall or DiscMismatch.
    """
    walls = list(getattr(walls, "walls", walls))
    if len(walls) != spec.wall_count:
        return VerificationReport(False, [f"expected {spec.wall_count} walls, got {len(walls)}"])
    mismatches = [
        f"wall {i + 1}: Q(v) = {inversive_product(w, w)} != -1" for i, w in enumerate(walls) if not w.validate()
    ]
    for (i, j), t in sorted(spec.targets.items()):
        na, nb, den, d = _product(walls[i], walls[j])
        if isinstance(t, Exact):
            ta, tb, tq = t.value.triple
            if na * tq != ta * den or nb * tq != tb * den or (tb and t.value.disc != d):
                prod = from_triple(na, nb, den, d)
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} != {t.value}")
        elif quad_sign(na - den, nb, d) <= 0:
            prod = from_triple(na, nb, den, d)
            mismatches.append(f"pair ({i + 1},{j + 1}): {prod} is not > 1")
    return VerificationReport(not mismatches, mismatches)
