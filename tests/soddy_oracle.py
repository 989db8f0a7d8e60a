"""Brute-force Soddy sphere packing, independent of the package under test.

A sphere is its inversive vector (cobend, bend, bend*x, bend*y, bend*z),
cobend = bend*|centre|^2 - radius, and every coordinate lies in Q(sqrt(3)):
each is kept as a pair (p, q) of Fractions meaning p + q*sqrt(3).  Swapping
one sphere of a mutually tangent quintuple for its mirror image is linear
in the whole vector (the Soddy-Gosset move in dimension 3): c_i is replaced
by sum_{j != i} c_j - c_i.  BFS over quintuples, pruning any child whose
bend exceeds the bound, enumerates every sphere of the packing up to that
bound, as tests/descartes_oracle.py does for the Apollonian gasket.
"""

from fractions import Fraction


def _pair(p, q=0):
    return (Fraction(p), Fraction(q))


def _sphere(center, radius):
    """The vector of the sphere about center (pairs) with radius r, rational."""
    bend = 1 / Fraction(radius)
    norm2 = _pair(0)
    for p, q in center:  # (p + q sqrt 3)^2 = p^2 + 3 q^2 + 2 p q sqrt 3
        norm2 = (norm2[0] + p * p + 3 * q * q, norm2[1] + 2 * p * q)
    cobend = (bend * norm2[0] - radius, bend * norm2[1])
    return (cobend, _pair(bend), *((bend * p, bend * q) for p, q in center))


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
# Soddy's root quintuple, bends (-1, 2, 2, 3, 3): the outer unit sphere, the
# radius-1/2 spheres at (+-1/2, 0, 0), the radius-1/3 spheres at
# (0, sqrt(3)/3, +-1/3)
ROOT = (
    _sphere((_pair(0), _pair(0), _pair(0)), -1),
    _sphere((_pair(_HALF), _pair(0), _pair(0)), _HALF),
    _sphere((_pair(-_HALF), _pair(0), _pair(0)), _HALF),
    _sphere((_pair(0), _pair(0, _THIRD), _pair(_THIRD)), _THIRD),
    _sphere((_pair(0), _pair(0, _THIRD), _pair(-_THIRD)), _THIRD),
)


def _at_most(x, bound):
    """p + q sqrt(3) <= bound, decided exactly."""
    p, q = x[0] - bound, x[1]
    if p <= 0 and q <= 0:
        return True
    if p >= 0 and q >= 0:
        return p == q == 0
    # opposite signs: compare p^2 with 3 q^2
    return (p * p >= 3 * q * q) if p < 0 else (p * p <= 3 * q * q)


def soddy_spheres(bound, root=ROOT):
    """All distinct sphere vectors of the packing with bend <= bound."""
    bound = Fraction(bound)
    spheres = set(root)
    seen = {frozenset(root)}
    queue = [root]
    while queue:
        quint = queue.pop()
        total = [
            (sum(v[k][0] for v in quint), sum(v[k][1] for v in quint)) for k in range(len(quint[0]))
        ]
        for i, old in enumerate(quint):
            new = tuple((t[0] - 2 * c[0], t[1] - 2 * c[1]) for t, c in zip(total, old))
            if not _at_most(new[1], bound):
                continue
            child = quint[:i] + (new,) + quint[i + 1:]
            key = frozenset(child)
            if key in seen:
                continue
            seen.add(key)
            spheres.add(new)
            queue.append(child)
    return spheres
