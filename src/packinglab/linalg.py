"""Small dense matrices over Q(sqrt(d)).

At the API a matrix is nested tuples of QuadExt (identity and transpose
build them).  Every product and inverse computes on numerator-pair rows:
row i is (a_i0, b_i0, a_i1, b_i1, ...), entry (i, j) being
(a_ij + b_ij*sqrt(d)) / den over one denominator den and one field d, the
layout of a vector's int code (exactnum.encode) without its den.  Three
helpers carry every product:

- _pairs(m) puts the entries of a QuadExt matrix over the lcm of their
  denominators, reading their slots directly, and folds their field by
  field_disc.  Over the lcm the rows are already canonical.
- _product(x, y, d) is the one product loop, on the pair rows of two
  operands in the field d of both; at d == 0 it computes no surd numerator.
- _entries(rows, den, d) builds each entry's canonical QuadExt with one gcd.

mat_mul and vec_mat are _entries(_product(...)) on _pairs of their
arguments: a result that leaves as QuadExt needs no canonical form of the
whole matrix, so they take no whole-matrix gcd and make no IntMatrix.
IntMatrix is that canonical form, for the callers that keep a matrix,
invert one or compare forms (inversive.ReflectionMatrix,
arithmetic.bends_conjugate): its encode, @ and decode are the same helpers,
@ reducing its product by the gcd of all its numerators, and left_mul maps
a vector's code to its image's canonical code through _product, so a
reflection never leaves the code.  The inverse is a fraction-free (Bareiss)
Gauss-Jordan elimination over Z[sqrt(d)] on an IntMatrix, one update for
every row in every field (at d == 0 the surd parts stay 0), so no fraction
is formed before the last step.  Operands whose shapes do not fit raise
ParameterError naming the shapes before their product is formed.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import PackingLabError, ParameterError
from .exactnum import ONE, ZERO, QuadExt, _field, _raw, field_disc, reduce_code

Matrix = tuple[tuple[QuadExt, ...], ...]
Vector = tuple[QuadExt, ...]

_new = object.__new__


class SingularMatrix(PackingLabError):
    pass


def as_quad(x) -> QuadExt:
    return x if isinstance(x, QuadExt) else QuadExt(x)


def identity(k: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k)
    )


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def _pairs(m) -> tuple[list[list[int]], int, int]:
    """(rows, den, d) for a rectangular matrix m of QuadExt: its
    numerator-pair rows over den, the lcm of the entries' denominators, and
    the one field d of the entries.  ParameterError for rows of unequal
    length; DiscMismatch, as field_disc raises it, for two fields."""
    w = len(m[0]) if m else 0
    for i, row in enumerate(m):
        if len(row) != w:
            raise ParameterError(f"not a matrix: row {i} has {len(row)} entries, row 0 has {w}")
    flat = [x for row in m for x in row]
    den = lcm(*[x._q for x in flat])
    d = field_disc([x._d for x in flat])
    if d:
        return [[v for x in row for k in (den // x._q,) for v in (x._a * k, x._b * k)] for row in m], den, d
    rows = []
    for row in m:
        r = [0] * (2 * w)
        r[0::2] = [x._a * (den // x._q) for x in row]
        rows.append(r)
    return rows, den, 0


def _product(x, y, d: int) -> list[list[int]]:
    """The pair rows of x times y, over the product of their dens, for pair
    rows x and y in the field d of both; ParameterError when x's rows are
    not as long as y has pairs of rows."""
    n = len(x[0]) // 2 if x else len(y)
    if n != len(y):
        w = len(y[0]) // 2 if y else 0
        raise ParameterError(f"cannot multiply a {len(x)}x{n} matrix by a {len(y)}x{w} matrix")
    cols = list(zip(*y))
    ca = cols[0::2]
    out = []
    if not d:
        for row in x:
            z = [0] * len(cols)
            z[0::2] = [sum(map(mul, row[0::2], c)) for c in ca]
            out.append(z)
        return out
    # a*u + d*b*v and a*v + b*u, each one dot product of concatenations
    cu = [u + v for u, v in zip(ca, cols[1::2])]
    cv = [v + u for u, v in zip(ca, cols[1::2])]
    for row in x:
        ra, rb = row[0::2], row[1::2]
        rd, rs = [*ra, *[d * b for b in rb]], ra + rb
        z = [0] * len(cols)
        z[0::2] = [sum(map(mul, rd, c)) for c in cu]
        z[1::2] = [sum(map(mul, rs, c)) for c in cv]
        out.append(z)
    return out


def _entries(rows, den: int, d: int) -> Matrix:
    """The canonical QuadExt entries of pair rows over den > 0 in
    Q(sqrt(d)); an entry whose surd part is 0 is rational (disc 0)."""
    if not d:
        return tuple([
            tuple([_raw(a // g, 0, den // g, 0) for a in row[0::2] for g in (gcd(a, den),)])
            for row in rows
        ])
    return tuple([
        tuple([
            _raw(a // g, b // g, den // g, d if b else 0)
            for a, b in zip(row[0::2], row[1::2])
            for g in (gcd(a, b, den),)
        ])
        for row in rows
    ])


class IntMatrix:
    """Entry (i, j) is (rows[i][2j] + rows[i][2j+1]*sqrt(d)) / den.

    A row is an int code (exactnum.encode) without its den; den > 0 and
    gcd(den, every numerator) == 1, so the form is canonical for a given d.
    Two forms multiply only when their fields agree or one is rational
    (DiscMismatch otherwise).
    """

    __slots__ = ("rows", "den", "d")

    def __init__(self, rows, den: int, d: int):
        """The canonical form of the pair rows `rows` over den != 0."""
        w = len(rows[0]) if rows else 0
        if w % 2 or len(set(map(len, rows))) > 1:
            raise ParameterError(f"pair rows of {[len(row) for row in rows]} numerators are not a matrix")
        code = reduce_code(tuple(chain.from_iterable(rows)), den)
        self.rows = tuple([code[i * w : (i + 1) * w] for i in range(len(rows))])
        self.den = code[-1]
        self.d = d

    @classmethod
    def encode(cls, m) -> "IntMatrix":
        """The int form of a rectangular matrix of QuadExt in one field."""
        rows, den, d = _pairs(m)
        x = _new(cls)
        x.rows, x.den, x.d = tuple(map(tuple, rows)), den, d
        return x

    def decode(self) -> Matrix:
        return _entries(self.rows, self.den, self.d)

    def transpose(self) -> "IntMatrix":
        cols = range(0, len(self.rows[0]) if self.rows else 0, 2)
        return IntMatrix([[x for row in self.rows for x in row[j : j + 2]] for j in cols], self.den, self.d)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        d = _field(self.d, other.d)
        return IntMatrix(_product(self.rows, other.rows, d), self.den * other.den, d)

    def left_mul(self, code: tuple[int, ...], d: int) -> tuple[int, ...]:
        """The canonical code of the row vector with int code `code` times
        this matrix, for d the field of both (exactnum._field)."""
        return reduce_code(_product((code[:-1],), self.rows, d)[0], code[-1] * self.den)

    def inverse(self) -> "IntMatrix":
        """Fraction-free Gauss-Jordan on [N | I] for this matrix N / den;
        raises SingularMatrix("no pivot in column c") at the first column
        with no nonzero entry on or below the diagonal, and ParameterError
        for a matrix that is not square.

        After column c every row other than the pivot row is updated to
        (p_c * x - f * y) / p_{c-1}, p_c the pivot and p_{-1} = 1, in every
        field on (a, b) pairs.  The division is a product with conj(p_{c-1})
        over its norm, the conjugate taken into p_c and f once per row; it
        is exact in Z[sqrt(d)], as each entry is a minor of [N | I].  At the
        end the left block is p * I for the last pivot p, so the inverse is
        den * R / p = den * R * conj(p) / norm(p) for the right block R.
        """
        k, d = len(self.rows), self.d
        if k and len(self.rows[0]) != 2 * k:
            raise ParameterError(f"cannot invert a {k}x{len(self.rows[0]) // 2} matrix")
        ra = [list(row[0::2]) + [int(i == j) for j in range(k)] for i, row in enumerate(self.rows)]
        rb = [list(row[1::2]) + [0] * k for row in self.rows]
        pa, pb, norm = 1, 0, 1  # the previous pivot and its norm
        for c in range(k):
            piv = next((r for r in range(c, k) if ra[r][c] or rb[r][c]), None)
            if piv is None:
                raise SingularMatrix(f"no pivot in column {c}")
            ra[c], ra[piv], rb[c], rb[piv] = ra[piv], ra[c], rb[piv], rb[c]
            ka, kb = ra[c][c], rb[c][c]
            ya, yb = ra[c][c + 1 :], rb[c][c + 1 :]
            qa, qb = ka * pa - d * kb * pb, kb * pa - ka * pb
            for r in range(k):
                if r == c:
                    continue
                fa, fb = ra[r][c], rb[r][c]
                ga, gb = fa * pa - d * fb * pb, fb * pa - fa * pb
                xy = list(zip(ra[r][c + 1 :], rb[r][c + 1 :], ya, yb))
                ra[r][c + 1 :] = [(qa * x + d * (qb * y - gb * v) - ga * u) // norm for x, y, u, v in xy]
                rb[r][c + 1 :] = [(qa * y + qb * x - ga * v - gb * u) // norm for x, y, u, v in xy]
            pa, pb = ka, kb
            norm = pa * pa - d * pb * pb
        den = self.den
        rows = [
            [z for a, b in zip(xa[k:], xb[k:]) for z in ((a * pa - d * b * pb) * den, (b * pa - a * pb) * den)]
            for xa, xb in zip(ra, rb)
        ]
        return IntMatrix(rows, norm, d)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    x, xden, xd = _pairs(a)
    y, yden, yd = _pairs(b)
    d = _field(xd, yd)
    return _entries(_product(x, y, d), xden * yden, d)


def vec_mat(v: Vector, m: Matrix) -> Vector:
    return mat_mul((v,), m)[0]


def inverse(m: Matrix) -> Matrix:
    """The exact inverse; raises SingularMatrix, or ParameterError for a
    matrix that is not square."""
    return IntMatrix.encode(m).inverse().decode()
