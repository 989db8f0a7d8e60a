"""Numeric realization of product targets and recovery of exact coordinates.

The pipeline is: realize (start from the target's init hint, or else from an
eigendecomposition of its Gram matrix, then one damped Gauss-Newton loop run in
float64 and again on extended-precision mpmath residuals), algebraic_guess
(per-value snap to (a + b*sqrt(d))/q with a bounded denominator: the (q, b)
grid is prefiltered in numpy one block of denominators at a time, and only
reduced triples, gcd(a, b, q) == 1, reach the mpmath check), and
verify_realization (exact re-check of every target against the guessed walls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, isfinite, isqrt
from typing import Sequence

import mpmath
import numpy as np

from .coxeter import _PLACEHOLDER_SEPARATION
from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt
from .inversive import InversiveVector, inversive_product, q_matrix

_REFINE_DPS = 60
_GRID_CELLS = 1 << 14  # cells in one numpy pass of algebraic_guess


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
        norm = {}
        for (i, j), t in self.targets.items():
            if not (0 <= i < self.wall_count and 0 <= j < self.wall_count) or i == j:
                raise ValueError(f"bad target pair ({i},{j})")
            norm[(min(i, j), max(i, j))] = t
        self.targets = norm
        if self.init_hint is not None:
            self.init_hint = tuple(tuple(float(v) for v in row) for row in self.init_hint)

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


def _residual_np(x: np.ndarray, pairs, values, pins=()) -> np.ndarray:
    diag = x[:, 0] * x[:, 1] - (x[:, 2:] ** 2).sum(axis=1) + 1.0
    parts = [diag]
    if len(pairs):
        ii = pairs[:, 0]
        jj = pairs[:, 1]
        u, v = x[ii], x[jj]
        prod = 0.5 * (u[:, 0] * v[:, 1] + u[:, 1] * v[:, 0]) - (u[:, 2:] * v[:, 2:]).sum(axis=1)
        parts.append(prod - values)
    if pins:
        parts.append(np.array([x[i, c] - t for i, c, t in pins]))
    return np.concatenate(parts)


def _jacobian_np(x: np.ndarray, pairs, pins=()) -> np.ndarray:
    k, width = x.shape
    rows = k + len(pairs) + len(pins)
    jac = np.zeros((rows, k * width))
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
    for r, (i, c, _) in enumerate(pins, start=k + len(pairs)):
        jac[r, i * width + c] = 1.0
    return jac


def _gauss_newton(x, pairs, values, pins, max_iter, floor=1e-13):
    """Damped Gauss-Newton on x, a float64 array or an object array of mpf
    with mpf values.  Steps are minimum-norm least-squares solutions of the
    float64 system; a step is halved until max |residual| decreases, so
    accepted steps decrease it monotonically."""
    res = _residual_np(x, pairs, values, pins)
    norm = np.abs(res).max()
    iterations = 0
    for _ in range(max_iter):
        if norm < floor:
            break
        iterations += 1
        jac = _jacobian_np(x.astype(float), pairs, pins)
        step = np.linalg.lstsq(jac, -res.astype(float), rcond=None)[0].reshape(x.shape)
        alpha, improved = 1.0, False
        for _ in range(25):
            trial = x + alpha * step
            trial_res = _residual_np(trial, pairs, values, pins)
            trial_norm = np.abs(trial_res).max()
            if trial_norm < norm:
                x, res, norm, improved = trial, trial_res, trial_norm, True
                break
            alpha *= 0.5
        if not improved:
            break
    return x, norm, iterations


_E_LINE = np.array([0.0, 0.0, 0.0, -1.0])
_E_CIRCLE = np.array([0.0, 1.0, 0.0, 1.0])
_E_THIRD = np.array([4.0, 1.0, 2.0, 1.0])  # unit circle resting at (2,0)
# the pinned walls plus the unit circle at (1,0), which is orthogonal to all three
_FRAME = np.vstack([_E_LINE, _E_CIRCLE, _E_THIRD, [0.0, 1.0, 1.0, 0.0]])
_Q = np.array(q_matrix(2), dtype=float)
# x = y @ _TO_Q has Q(x) = y0^2 - y1^2 - y2^2 - y3^2
_TO_Q = np.array([[1.0, 1.0, 0, 0], [1.0, -1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])


def _frame_map(x: np.ndarray, ia: int, ic: int, ib: int) -> np.ndarray:
    """The matrix M with x @ M putting walls ia, ic, ib on the pinned frame.

    The three walls and the unit circle n orthogonal to them have the same
    Gram matrix as the rows of _FRAME, so the one solution of S M = _FRAME
    lies in O(Q).  The sign of n sets the sign of det M; det M > 0 makes the
    map a Moebius transformation rather than a reflection."""
    walls = x[[ia, ic, ib]]
    n = np.linalg.svd(walls @ _Q)[2][-1]
    src = np.vstack([walls, n / np.sqrt(-(n @ _Q @ n))])
    src[3] *= np.sign(np.linalg.det(src) * np.linalg.det(_FRAME))
    return np.linalg.solve(src, _FRAME)


def _gauge_pins(spec: TargetSpec) -> tuple[int, int, int, list[tuple[int, int, float]]]:
    """First mutually tangent triple becomes the frame: the line y=0, the
    unit circle resting on it at the origin, and the unit circle resting at
    (2,0).  A tangent pair alone leaves a parabolic gauge freedom sliding
    along the pair, so three walls are needed for rigidity."""
    tangent: dict[tuple[int, int], bool] = {}
    for i, j, v in spec.exact_pairs():
        if v == 1:
            tangent[(i, j)] = True
    for (i, j) in sorted(tangent):
        for k in range(spec.wall_count):
            if k in (i, j):
                continue
            if tangent.get((min(i, k), max(i, k))) and tangent.get((min(j, k), max(j, k))):
                pins = [(i, c, float(t)) for c, t in enumerate(_E_LINE)]
                pins += [(j, c, float(t)) for c, t in enumerate(_E_CIRCLE)]
                pins += [(k, c, float(t)) for c, t in enumerate(_E_THIRD)]
                return i, j, k, pins
    raise GaugeDeficient("no mutually tangent triple available to pin the frame")


def realize(
    spec: TargetSpec,
    seed: int = 0,
    tol: float = 1e-24,
    max_iter: int = 400,
    init: Sequence[Sequence[float]] | None = None,
) -> FloatWallSystem:
    """Solve for wall coordinates meeting every exact target.

    The start is the spec's init hint, or else the eigendecomposition of the
    target Gram matrix (_initial_walls).  One damped Gauss-Newton loop with a
    minimum-norm least-squares step then runs in float64 and again on mpmath
    residuals; accepted steps decrease max |residual| monotonically, and the
    reported residual is that norm.  Without an explicit init the Moebius
    gauge is fixed by the first mutually tangent triple: after an unpinned
    solve, one linear solve finds the Moebius map (det > 0, never a
    reflection) taking the triple to the line y=0 and the unit circles
    resting on it at the origin and at (2,0), and the polish keeps those
    three walls pinned there.  This is what makes the solved coordinates land
    on small algebraic numbers.  Which of two mirror-image configurations is
    reached depends on the start.  An explicit init is polished in its own
    frame, unpinned.  Free pairs are not constrained here; verify them after
    guessing exact coordinates.
    """
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if not 0 < tol < inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if spec.dim != 2:
        raise GaugeDeficient("only planar targets are supported")
    exact = spec.exact_pairs()
    pairs = np.array([(i, j) for i, j, _ in exact], dtype=int).reshape(-1, 2)
    values = np.array([float(v) for _, _, v in exact])

    iterations = 0
    if init is not None:
        x = np.array(init, dtype=float)
        if x.shape != (spec.wall_count, spec.dim + 2):
            raise ValueError(f"init must be {spec.wall_count} x {spec.dim + 2}")
        pins: list[tuple[int, int, float]] = []
    else:
        ia, ic, ib, pins = _gauge_pins(spec)
        rng = np.random.default_rng(seed)
        if spec.init_hint is not None:
            x = np.array(spec.init_hint) + rng.normal(0.0, 1e-4, (spec.wall_count, 4))
        else:
            x = _initial_walls(spec, rng)
        x, norm, its = _gauss_newton(x, pairs, values, (), max_iter)
        iterations += its
        if norm >= 1e-10:
            raise NoConvergence(iterations, float(norm))
        x = x @ _frame_map(x, ia, ic, ib)
        drift = max(
            np.linalg.norm(x[ic] - _E_CIRCLE), np.linalg.norm(x[ib] - _E_THIRD)
        )
        if drift > 0.75:
            raise NoConvergence(iterations, float(drift))

    x, norm, its = _gauss_newton(x, pairs, values, pins, max_iter)
    iterations += its
    if norm >= 1e-10:
        raise NoConvergence(iterations, float(norm))

    # extended-precision polish: the same loop on mpf walls and targets,
    # converging far past double precision
    with mpmath.workdps(_REFINE_DPS):
        fields = [(v.triple, v.disc) for _, _, v in exact]
        targets = np.array([(a + b * mpmath.sqrt(d)) / q for (a, b, q), d in fields], dtype=object)
        xm, norm, its = _gauss_newton(
            np.frompyfunc(mpmath.mpf, 1, 1)(x), pairs, targets, pins, 20, floor=tol
        )
    iterations += its
    if norm > tol:
        raise NoConvergence(iterations, float(norm))
    return FloatWallSystem(walls=xm.tolist(), residual=float(norm), iterations=iterations)


# -- exact recovery --------------------------------------------------------


def algebraic_guess(value, d: int, denom_bound: int, tol: float) -> QuadExt:
    """Snap a float to (a + b*sqrt(d))/q with q <= denom_bound.

    Raises Ambiguous when several distinct exact values fit within tol and
    NoCandidate when none does; a value that is not finite has no candidate.
    d must be 0 or a non-square positive integer: a rational sqrt(d) would
    give one value several (a, b) keys.  tol must be finite and >= 0, and
    tol == 0 asks for an exact match.

    The grid is every q <= denom_bound and every |b| <= b_max(q), with
    b_max(q) just past |q*x| / sqrt(d) + denom_bound (b = 0 when d == 0).
    It is walked in blocks of consecutive q, each one numpy pass of about
    _GRID_CELLS cells that rounds q*x - b*sqrt(d) to the nearest a and keeps
    the cells within a float slack of it.  Survivors are visited in order of
    q, then b, and only a reduced triple, gcd(a, b, q) == 1, reaches the
    exact mpmath check at _REFINE_DPS digits.
    """
    if denom_bound < 1:
        raise ParameterError(f"denominator bound must be positive, got {denom_bound}")
    if d < 0 or (d and isqrt(d) ** 2 == d):
        raise ParameterError(f"d must be 0 or a positive non-square, got {d}")
    if not 0 <= tol < inf:
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    with mpmath.workdps(_REFINE_DPS):
        xm = mpmath.mpf(value) if not isinstance(value, mpmath.mpf) else value
        xf = float(xm)
        if not isfinite(xf):
            raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
        sqrt_d = mpmath.sqrt(d) if d else mpmath.mpf(0)
        sqrt_f = float(sqrt_d)
        qs = np.arange(1, denom_bound + 1)
        xq = xf * qs
        slack = qs * tol * 1.125 + 1e-9
        if d:
            # floats, exact below 2**53; a wider row could not be allocated
            b_max = np.floor((np.abs(xq) + slack + 1.0) / sqrt_f) + 1 + denom_bound
        else:
            b_max = np.zeros(denom_bound)
        rows = max(1, int(_GRID_CELLS // (2 * b_max[-1] + 1)))
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
                a = int(a)
                # (k*a, k*b, k*q) names the same value as (a, b, q); its error
                # and its bound both scale by k, and its slack is no looser per
                # unit of q, so when a multiple survives, its reduced triple
                # survived in an earlier row.  Checking reduced triples only
                # keeps every value's first occurrence, and distinct reduced
                # triples are distinct values.  The gcd is on Python ints: a
                # can pass 2**63.
                if gcd(a, b, q) == 1 and abs(xm * q - a - b * sqrt_d) <= q * tol:
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
            mismatches.append(f"wall {i + 1}: Q(v) = {w.q_norm()} != -1")
    for (i, j), t in sorted(spec.targets.items()):
        prod = inversive_product(walls[i], walls[j])
        if isinstance(t, Exact):
            if prod != t.value:
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} != {t.value}")
        else:
            if not prod > 1:
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} is not > 1")
    return VerificationReport(not mismatches, mismatches)
