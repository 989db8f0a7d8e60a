"""Numeric realization of product targets and recovery of exact coordinates.

The pipeline is: realize (start from the target's init hint, or else from an
eigendecomposition of its Gram matrix, then one damped Gauss-Newton loop run in
float64, one Moebius map that puts a tangent triple on the frame, whose three
walls are then set exactly and held fixed, and the same loop again on
extended-precision mpmath residuals for the other walls), algebraic_guess
(per-value snap to (a + b*sqrt(d))/q with a bounded denominator: the (q, b)
grid is prefiltered in numpy one block of denominators at a time, and only
reduced triples, gcd(a, b, q) == 1, reach the exact check on ints), and
verify_realization (exact re-check of every target against the guessed walls).
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
from .exactnum import QuadExt, quad_sign
from .inversive import InversiveVector, inversive_product, q_matrix

_REFINE_DPS = 60
_GRID_CELLS = 1 << 14  # cells in one numpy pass of algebraic_guess
_ROW_CELLS = _GRID_CELLS << 10  # widest grid row algebraic_guess builds: 128 MB of floats


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

    Raises Ambiguous when several distinct exact values fit within tol and
    NoCandidate when none does; a value that is not finite has no candidate.
    d must be 0 or a non-square positive integer: a rational sqrt(d) would
    give one value several (a, b) keys.  tol must be finite and >= 0, and
    tol == 0 asks for an exact match.  The acceptance test is exact:
    |q*x - a - b*sqrt(d)| <= q*tol is decided on ints (exactnum.quad_sign)
    for the exact value of x (an mpf, float or int) and of tol.

    The grid is every q <= denom_bound and every |b| <= b_max(q), with
    b_max(q) just past |q*x| / sqrt(d) + denom_bound (b = 0 when d == 0).
    It is walked in blocks of consecutive q, each one numpy pass of about
    _GRID_CELLS cells that rounds q*x - b*sqrt(d) to the nearest a and keeps
    the cells within a float slack of it.  Survivors are visited in order of
    q, then b, and only a reduced triple, gcd(a, b, q) == 1, reaches the
    exact test.  The widest row, q = denom_bound, grows with |x|; when it
    would pass _ROW_CELLS cells, or denom_bound itself does, the call raises
    ParameterError rather than allocate it.
    """
    if denom_bound < 1:
        raise ParameterError(f"denominator bound must be positive, got {denom_bound}")
    if denom_bound > _ROW_CELLS:
        raise ParameterError(f"denominator bound {denom_bound} is over the limit of {_ROW_CELLS}")
    if d < 0 or (d and isqrt(d) ** 2 == d):
        raise ParameterError(f"d must be 0 or a positive non-square, got {d}")
    if not 0 <= tol < inf:
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    with mpmath.workdps(_REFINE_DPS):
        xm = mpmath.mpf(value) if not isinstance(value, mpmath.mpf) else value
        xf = float(xm)
        if not isfinite(xf):
            raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
        # x = xn/xd and tol = tn/td exactly (xm is value when value is an mpf);
        # |q*x - a - b*sqrt(d)| <= q*tol times xd*td is |r - s*sqrt(d)| <= c
        # for r = (q*xn - a*xd)*td, s = b*xd*td and c = q*tn*xd
        xn, xd = to_rational(xm._mpf_) if xm is value else Fraction(value).as_integer_ratio()
        tn, td = Fraction(tol).as_integer_ratio()
        sqrt_f = float(mpmath.sqrt(d))
        qs = np.arange(1, denom_bound + 1)
        xq = xf * qs
        slack = qs * tol * 1.125 + 1e-9
        if d:
            # floats, exact below 2**53, far past the _ROW_CELLS guard
            b_max = np.floor((np.abs(xq) + slack + 1.0) / sqrt_f) + 1 + denom_bound
        else:
            b_max = np.zeros(denom_bound)
        widest = 2 * b_max[-1] + 1
        if widest > _ROW_CELLS:
            raise ParameterError(
                f"{xf!r} needs grid rows of {widest:.0f} cells at d = {d} and denominator"
                f" bound {denom_bound}, over the limit of {_ROW_CELLS}"
            )
        rows = max(1, int(_GRID_CELLS // widest))
        found: list[QuadExt] = []
        for lo in range(0, denom_bound, rows):
            hi = min(lo + rows, denom_bound)
            top = int(b_max[hi - 1])
            bs = np.arange(-top, top + 1)
            approx = xq[lo:hi, None] - bs * sqrt_f
            dev = np.round(approx)
            dev -= approx
            np.abs(dev, out=dev)
            ii, jj = np.divmod(np.flatnonzero(dev <= slack[lo:hi, None]), bs.size)
            inside = np.abs(bs[jj]) <= b_max[lo + ii]
            ii, jj = ii[inside], jj[inside]
            rounded = np.round(approx[ii, jj]).tolist()
            for a, b, q in zip(rounded, bs[jj].tolist(), (ii + lo + 1).tolist()):
                a = int(a)  # a Python int: it can pass 2**63
                # the test is unchanged when (a, b, q) is scaled, so a value's
                # reduced triple, its first occurrence, decides it
                if gcd(a, b, q) != 1:
                    continue
                r, s, c = (q * xn - a * xd) * td, b * xd * td, q * tn * xd
                if quad_sign(c - r, s, d) >= 0 and quad_sign(c + r, -s, d) >= 0:
                    found.append(QuadExt(Fraction(a, q), Fraction(b, q), d if b else 0))
                    if len(found) > 1:
                        raise Ambiguous(xf, sorted(found, key=float))
        if not found:
            raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
        return found[0]


def guess_walls(
    system: FloatWallSystem, d: int, denom_bound: int, tol: float
) -> list[InversiveVector]:
    """Entrywise algebraic_guess over a realized float system."""
    out = []
    for row in system.walls:
        coords = [algebraic_guess(v, d, denom_bound, tol) for v in row]
        out.append(InversiveVector.from_coords(coords))
    return out


@dataclass
class VerificationReport:
    ok: bool
    mismatches: list[str] = field(default_factory=list)


def verify_realization(walls, spec: TargetSpec) -> VerificationReport:
    """Exact check: unit diagonal, every exact target met, free pairs disjoint.

    Accepts a WallSystem or any sequence of exact wall vectors.
    """
    walls = list(getattr(walls, "walls", walls))
    mismatches = []
    if len(walls) != spec.wall_count:
        return VerificationReport(False, [f"expected {spec.wall_count} walls, got {len(walls)}"])
    for i, w in enumerate(walls):
        if not w.validate():
            mismatches.append(f"wall {i + 1}: Q(v) = {inversive_product(w, w)} != -1")
    for (i, j), t in sorted(spec.targets.items()):
        prod = inversive_product(walls[i], walls[j])
        if isinstance(t, Exact):
            if prod != t.value:
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} != {t.value}")
        else:
            if not prod > 1:
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} is not > 1")
    return VerificationReport(not mismatches, mismatches)
