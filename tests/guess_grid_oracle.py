"""The grid guesser that the blocked algebraic_guess replaced, as an oracle.

One pass per denominator q, a numpy prefilter over the row's surd
coefficients, and an mpmath check and a pair of Fractions for every
survivor, multiples of an earlier triple included.  The guesser under test
walks the same grid in blocks of rows and checks reduced triples only; the
two must agree on the value, the exception class, the Ambiguous candidates
and every message.
"""

from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np

from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt
from packinglab.geometrize import _REFINE_DPS, Ambiguous, NoCandidate


def algebraic_guess(value, d: int, denom_bound: int, tol: float) -> QuadExt:
    """Snap a float to (a + b*sqrt(d))/q with q <= denom_bound.

    Raises Ambiguous when several distinct exact values fit within tol and
    NoCandidate when none does.  d must be 0 or a non-square positive integer:
    a rational sqrt(d) would give one value several (a, b) keys.
    """
    if denom_bound < 1:
        raise ParameterError(f"denominator bound must be positive, got {denom_bound}")
    if d < 0 or (d and isqrt(d) ** 2 == d):
        raise ParameterError(f"d must be 0 or a positive non-square, got {d}")
    with mpmath.workdps(_REFINE_DPS):
        xm = mpmath.mpf(value) if not isinstance(value, mpmath.mpf) else value
        xf = float(xm)
        sqrt_d = mpmath.sqrt(d) if d else mpmath.mpf(0)
        sqrt_f = float(sqrt_d)
        found: dict[tuple[Fraction, Fraction], QuadExt] = {}
        for q in range(1, denom_bound + 1):
            xq = xf * q
            slack = q * tol * 1.125 + 1e-9
            if d == 0:
                bs = np.array([0])
            else:
                b_max = int(np.floor((abs(xq) + slack + 1.0) / sqrt_f)) + 1 + denom_bound
                bs = np.arange(-b_max, b_max + 1)
            approx = xq - bs * sqrt_f
            a_round = np.round(approx)
            keep = np.abs(approx - a_round) <= slack
            for b, a in zip(bs[keep], a_round[keep]):
                a = int(a)
                b = int(b)
                err = abs(xm * q - a - b * sqrt_d)
                if err <= q * tol:
                    key = (Fraction(a, q), Fraction(b, q))
                    if key not in found:
                        found[key] = QuadExt(key[0], key[1], d if b else 0)
                        if len(found) > 1:
                            raise Ambiguous(xf, sorted(found.values(), key=float))
        if not found:
            raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
        return next(iter(found.values()))
