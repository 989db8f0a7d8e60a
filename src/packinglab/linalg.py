"""Small dense matrices over Q(sqrt(d)).

At the API a matrix is nested tuples of QuadExt (identity and transpose
build them).  Every product and inverse computes on one int form,
IntMatrix: the rows' numerator pairs over one common denominator, plus the
field d, built and reduced by the same exactnum helpers as a vector's int
code.  IntMatrix.left_mul maps a vector's code to its image's canonical
code, so a reflection (ReflectionMatrix.apply) never leaves the code.
mat_mul, vec_mat and inverse encode their arguments, compute on ints and
decode to QuadExt once, at their return.  The inverse is a fraction-free
(Bareiss) Gauss-Jordan elimination over Z[sqrt(d)], so no fraction is
formed before the last step.
"""

from __future__ import annotations

from itertools import chain
from operator import mul

from .errors import PackingLabError
from .exactnum import ONE, ZERO, QuadExt, _field, decode, encode, field_disc, reduce_code

Matrix = tuple[tuple[QuadExt, ...], ...]
Vector = tuple[QuadExt, ...]


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


class IntMatrix:
    """Entry (i, j) is (rows[i][2j] + rows[i][2j+1]*sqrt(d)) / den.

    A row is an int code (exactnum.encode) without its den; den > 0 and
    gcd(den, every numerator) == 1, so the form is canonical for a given d.
    Two forms multiply only when their fields agree or one is rational
    (DiscMismatch otherwise).
    """

    __slots__ = ("rows", "den", "d")

    def __init__(self, rows, den: int, d: int):
        w = len(rows[0]) if rows else 0
        code = reduce_code(tuple(chain.from_iterable(rows)), den)
        self.rows = tuple([code[i * w : (i + 1) * w] for i in range(len(rows))])
        self.den = code[-1]
        self.d = d

    @classmethod
    def encode(cls, m) -> "IntMatrix":
        """The int form of a rectangular matrix of QuadExt in one field."""
        flat = [x for row in m for x in row]
        code = encode(flat)
        w = 2 * len(m[0]) if m else 0
        rows = [code[i * w : (i + 1) * w] for i in range(len(m))]
        return cls(rows, code[-1], field_disc(x.disc for x in flat))

    def decode(self) -> Matrix:
        return tuple([decode((*row, self.den), self.d) for row in self.rows])

    def transpose(self) -> "IntMatrix":
        cols = range(0, len(self.rows[0]), 2)
        return IntMatrix([[x for row in self.rows for x in row[j : j + 2]] for j in cols], self.den, self.d)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        d = _field(self.d, other.d)
        cols = list(zip(*other.rows))
        ca, cb = cols[0::2], cols[1::2]
        out = []
        for row in self.rows:
            ra, rb = row[0::2], row[1::2]
            z = [0] * len(cols)
            if d:
                z[0::2] = [sum(map(mul, ra, x)) + d * sum(map(mul, rb, y)) for x, y in zip(ca, cb)]
                z[1::2] = [sum(map(mul, ra, y)) + sum(map(mul, rb, x)) for x, y in zip(ca, cb)]
            else:
                z[0::2] = [sum(map(mul, ra, x)) for x in ca]
            out.append(z)
        return IntMatrix(out, self.den * other.den, d)

    def left_mul(self, code: tuple[int, ...], d: int) -> tuple[int, ...]:
        """The canonical code of the row vector with int code `code` times
        this matrix, for d the field of both (exactnum._field)."""
        va, vb = code[0:-1:2], code[1:-1:2]
        cols = list(zip(*self.rows))
        nums = []
        for x, y in zip(cols[0::2], cols[1::2]):
            a = sum(map(mul, va, x)) + d * sum(map(mul, vb, y))
            nums += (a, sum(map(mul, va, y)) + sum(map(mul, vb, x)))
        return reduce_code(nums, code[-1] * self.den)

    def inverse(self) -> "IntMatrix":
        """Fraction-free Gauss-Jordan on [N | I] for this matrix N / den;
        raises SingularMatrix("no pivot in column c") at the first column
        with no nonzero entry on or below the diagonal.

        After column c every row other than the pivot row is updated to
        (p_c * x - f * y) / p_{c-1}, p_c the pivot and p_{-1} = 1; the
        division is exact in Z[sqrt(d)], as each entry is a minor of [N | I].
        A row with f = 0 takes the short form p_c * x / p_{c-1}.  At the end
        the left block is p * I for the last pivot p, so the inverse is
        den * R / p = den * R * conj(p) / norm(p) for the right block R.
        """
        k, d = len(self.rows), self.d
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
            for r in range(k):
                if r == c:
                    continue
                fa, fb = ra[r][c], rb[r][c]
                xa, xb = ra[r][c + 1 :], rb[r][c + 1 :]
                if d:  # x / p = x * conj(p) / norm(p)
                    if fa or fb:
                        na = [ka * x + d * (kb * y - fb * v) - fa * u for x, y, u, v in zip(xa, xb, ya, yb)]
                        nb = [ka * y + kb * x - fa * v - fb * u for x, y, u, v in zip(xa, xb, ya, yb)]
                    else:
                        na = [ka * x + d * kb * y for x, y in zip(xa, xb)]
                        nb = [ka * y + kb * x for x, y in zip(xa, xb)]
                    ra[r][c + 1 :] = [(a * pa - d * b * pb) // norm for a, b in zip(na, nb)]
                    rb[r][c + 1 :] = [(b * pa - a * pb) // norm for a, b in zip(na, nb)]
                elif fa:
                    ra[r][c + 1 :] = [(ka * x - fa * u) // pa for x, u in zip(xa, ya)]
                else:
                    ra[r][c + 1 :] = [ka * x // pa for x in xa]
            pa, pb = ka, kb
            norm = pa * pa - d * pb * pb
        den = self.den
        rows = [
            [z for a, b in zip(xa[k:], xb[k:]) for z in ((a * pa - d * b * pb) * den, (b * pa - a * pb) * den)]
            for xa, xb in zip(ra, rb)
        ]
        return IntMatrix(rows, norm, d)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return (IntMatrix.encode(a) @ IntMatrix.encode(b)).decode()


def vec_mat(v: Vector, m: Matrix) -> Vector:
    m = IntMatrix.encode(m)
    d = field_disc([*(x.disc for x in v), m.d])
    return decode(m.left_mul(encode(v), d), d)


def inverse(m: Matrix) -> Matrix:
    """The exact inverse; raises SingularMatrix."""
    return IntMatrix.encode(m).inverse().decode()
