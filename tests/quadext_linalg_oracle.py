"""The QuadExt matrix code that the int kernels replaced, as an oracle.

Every entry is a QuadExt and every operation a QuadExt one: Gauss-Jordan
for the inverse, a sum of products per entry for the matrix products, and
the brute-force itertools scan of the cyclic products of 2*Gram.  The
kernels under test (linalg.IntMatrix, inversive on the int code, the
depth-first vinberg_test) must return equal values, raise the same class
with the same message, and print the same Vinberg verdict.
"""

from itertools import combinations, permutations

from packinglab.arithmetic import VinbergVerdict
from packinglab.coxeter import GramMatrix
from packinglab.errors import ParameterError
from packinglab.exactnum import ONE, ZERO
from packinglab.inversive import InvalidWall
from packinglab.linalg import SingularMatrix, identity, transpose

_HALF = ONE / 2


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
        for row in a
    )


def vec_mat(v, m):
    return tuple(
        sum((v[i] * m[i][j] for i in range(len(v))), ZERO)
        for j in range(len(m[0]))
    )


def inverse(m):
    """Gauss-Jordan over the exact field; raises SingularMatrix."""
    k = len(m)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(m, identity(k))]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


def inversive_product(u, v):
    if u.dim != v.dim:
        raise InvalidWall("mixed ambient dimensions")
    out = (u.cobend * v.bend + u.bend * v.cobend) * _HALF
    return out - sum((x * y for x, y in zip(u.bz, v.bz)), ZERO)


def reflection_matrix(wall):
    """The entries of I + 2 Q s^T s for a wall s with Q(s) = -1."""
    if not wall.validate():
        raise InvalidWall("wall does not satisfy Q(v) = -1")
    s = wall.coords()
    k = len(s)
    qs = [s[1] * _HALF, s[0] * _HALF] + [-x for x in s[2:]]
    ident = identity(k)
    return tuple(
        tuple(ident[i][j] + 2 * qs[i] * s[j] for j in range(k)) for i in range(k)
    )


def gram_matrix(walls):
    k = len(walls)
    rows = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = inversive_product(walls[i], walls[i])
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = inversive_product(walls[i], walls[j])
    return GramMatrix.from_rows(rows)


def vinberg_test(gram, max_len=8):
    """Cycles by length, then vertex set in lexicographic order, then the
    itertools.permutations order of the rest of the set."""
    if max_len < 2:
        raise ParameterError("max_len must be at least 2")
    k = gram.size
    doubled = [[x * 2 for x in row] for row in gram.entries]
    nonzero = [[bool(doubled[i][j]) for j in range(k)] for i in range(k)]

    def cycle_product(cycle):
        prod = ONE
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not nonzero[a][b]:
                return None
            prod = prod * doubled[a][b]
        return prod

    for length in range(2, max_len + 1):
        for subset in combinations(range(k), length):
            first, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # each undirected cycle once
                prod = cycle_product((first,) + perm)
                if prod is not None and not prod.is_rational_integer():
                    return VinbergVerdict(max_len, (first,) + perm, prod)
    return VinbergVerdict(max_len)
