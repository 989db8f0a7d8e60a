"""Independent checks for the outputs of packinglab.

Nothing here calls packinglab arithmetic.  Exact values are read off a
QuadExt through its normalised fields (rat, surd, disc), or parsed from the
canonical text form, and then handled as pairs of Fractions with this
module's own arithmetic in Q(sqrt(d)).  The gasket oracle is the repository's
brute-force Descartes enumeration in tests/descartes_oracle.py.
"""

from __future__ import annotations

import importlib.util
import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

# -- numbers a + b*sqrt(d) as (a, b, d) --------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"


def parse_exact(text: str) -> tuple[Fraction, Fraction, int]:
    """Parse the canonical literal forms "a", "b*sqrt(d)" and "a+b*sqrt(d)"."""
    m = re.fullmatch(rf"({_RAT})", text)
    if m:
        return Fraction(m.group(1)), Fraction(0), 0
    # a rational part is always followed by the sign of the surd part
    m = re.fullmatch(rf"(?:({_RAT})(?=[+-]))?({_RAT})\*sqrt\((\d+)\)", text)
    if not m:
        raise ValueError(f"unparseable exact literal {text!r}")
    return Fraction(m.group(1) or 0), Fraction(m.group(2)), int(m.group(3))


def exact(q) -> tuple[Fraction, Fraction, int]:
    """A packinglab QuadExt (or its text) as a plain (rat, surd, disc) triple."""
    if isinstance(q, str):
        return parse_exact(q)
    return Fraction(q.rat), Fraction(q.surd), int(q.disc)


def _disc(*xs) -> int:
    ds = {x[2] for x in xs if x[1]}
    if len(ds) > 1:
        raise ValueError(f"mixed fields {sorted(ds)}")
    return ds.pop() if ds else 0


def _make(a, b, d):
    return (a, b, d if b else 0)


def add(x, y):
    return _make(x[0] + y[0], x[1] + y[1], _disc(x, y))


def mul(x, y):
    d = _disc(x, y)
    return _make(x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def sign(x) -> int:
    a, b, d = x
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    t = a * a - b * b * d
    s = (t > 0) - (t < 0)
    return s if a > 0 else -s


def is_integer(x) -> bool:
    return x[1] == 0 and x[0].denominator == 1


ZERO = (Fraction(0), Fraction(0), 0)
ONE = (Fraction(1), Fraction(0), 0)
MINUS_ONE = (Fraction(-1), Fraction(0), 0)


def neg(x):
    return _make(-x[0], -x[1], x[2])


def same(x, y) -> bool:
    return sign(add(x, neg(y))) == 0


# -- walls as coordinate lists of triples -----------------------------------


def coords(vec) -> list:
    """cobend, bend, bz... of a packinglab InversiveVector as exact triples."""
    return [exact(vec.cobend), exact(vec.bend)] + [exact(c) for c in vec.bz]


def product(u, v):
    """Inversive product <u, v> = (u0 v1 + u1 v0)/2 - sum of spatial terms."""
    out = mul(add(mul(u[0], v[1]), mul(u[1], v[0])), (Fraction(1, 2), Fraction(0), 0))
    for a, b in zip(u[2:], v[2:]):
        out = add(out, neg(mul(a, b)))
    return out


def wall_problems(walls, targets) -> list[str]:
    """Exact check of walls against a target list [(i, j, value | 'free')]."""
    out = []
    for i, w in enumerate(walls):
        if not same(product(w, w), MINUS_ONE):
            out.append(f"wall {i + 1} is off the quadric")
    for i, j, value in targets:
        p = product(walls[i], walls[j])
        if value == "free":
            if sign(add(p, neg(ONE))) <= 0:
                out.append(f"free pair ({i + 1},{j + 1}) is not disjoint")
        elif not same(p, value):
            out.append(f"pair ({i + 1},{j + 1}) misses its target")
    return out


# -- the Apollonian gasket ----------------------------------------------------


@lru_cache(maxsize=None)
def descartes_module(root: Path):
    path = root / "tests" / "descartes_oracle.py"
    spec = importlib.util.spec_from_file_location("descartes_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def gasket_bends(root: Path, bound: int) -> tuple[Fraction, ...]:
    """Sorted bends of the (-1, 2, 2, 3) gasket up to the bound."""
    return tuple(descartes_module(root).gasket_bends(bound))


@lru_cache(maxsize=None)
def descartes_residues(start: tuple[int, ...], modulus: int) -> tuple[frozenset, int]:
    """Residues and orbit size of the ordered bend quadruple mod m under the
    Descartes moves a_i -> 2(a_j + a_k + a_l) - a_i."""
    first = tuple(b % modulus for b in start)
    seen = {first}
    queue = deque([first])
    while queue:
        quad = queue.popleft()
        total = sum(quad)
        for i in range(4):
            child = quad[:i] + ((2 * (total - quad[i]) - quad[i]) % modulus,) + quad[i + 1 :]
            if child not in seen:
                seen.add(child)
                queue.append(child)
    residues = frozenset(r for quad in seen for r in quad)
    return residues, len(seen)


def descartes_moves(start: tuple[int, ...]) -> set[tuple[int, ...]]:
    total = sum(start)
    return {
        start[:i] + (2 * (total - start[i]) - start[i],) + start[i + 1 :] for i in range(4)
    }


def missing(present: set, residues: frozenset, modulus: int, scan: int) -> list[int]:
    return [n for n in range(1, scan + 1) if n % modulus in residues and n not in present]


# -- decompositions -----------------------------------------------------------


def decompositions(entries) -> set[frozenset[int]]:
    """Every admissible cluster by brute force over all nonempty subsets.

    Inside the cluster every pair must be tangent or disjoint (entry >= 1);
    across the split no pair may meet at an angle (entry 0 or >= 1).
    """
    k = len(entries)
    at_least_one = [[sign(add(entries[i][j], neg(ONE))) >= 0 for j in range(k)] for i in range(k)]
    blocked = [
        any(j != i and not at_least_one[i][j] and sign(entries[i][j]) != 0 for j in range(k))
        for i in range(k)
    ]
    found = set()
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        if any(blocked[i] for i in members):
            continue
        if all(at_least_one[i][j] for i in members for j in members if i < j):
            found.add(frozenset(members))
    return found


def format_decomposition(cluster: frozenset[int], k: int) -> str:
    fmt = lambda xs: "{" + ",".join(str(i + 1) for i in sorted(xs)) + "}"
    return f"C={fmt(cluster)} C^={fmt(set(range(k)) - cluster)}"


# -- arithmeticity ---------------------------------------------------------------


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vinberg_text(entries, max_len: int) -> str | None:
    """Expected verdict text when it follows without a cycle scan.

    If 2G is an integer matrix every cyclic product is an integer, so the
    scan passes.  Otherwise, if some 2-cycle product (2 g_ij)^2 is not an
    integer, the first such pair in lexicographic order is the witness.
    Returns None when neither shortcut decides.
    """
    k = len(entries)
    two = (Fraction(2), Fraction(0), 0)
    doubled = [[mul(two, e) for e in row] for row in entries]
    if all(is_integer(x) for row in doubled for x in row):
        return f"PassesUpTo({max_len})"
    for i in range(k):
        for j in range(i + 1, k):
            p = mul(doubled[i][j], doubled[i][j])
            if sign(p) != 0 and not is_integer(p):
                if p[1]:
                    return None
                return f"NonArithmetic(cycle=({i + 1},{j + 1}), product={_fmt(p[0])})"
    return None


# -- rendering ------------------------------------------------------------------


def drawn_circles(bends_and_bz, half_width=1.6, size_px=640, min_radius_px=0.5) -> int:
    """Circles the default viewport draws: big enough and overlapping it."""
    scale = size_px / (2.0 * half_width)
    count = 0
    for bend, bz in bends_and_bz:
        if bend == 0:
            continue
        cx, cy = (float(c / bend) for c in bz)
        r_px = abs(float(1 / bend)) * scale
        if r_px < min_radius_px:
            continue
        x_px, y_px = (cx + half_width) * scale, (half_width - cy) * scale
        if x_px + r_px < 0 or x_px - r_px > size_px or y_px + r_px < 0 or y_px - r_px > size_px:
            continue
        count += 1
    return count
