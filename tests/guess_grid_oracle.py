"""The grid guesser that the blocked algebraic_guess replaced, as an oracle.

One pass per denominator q, a numpy prefilter over the row's surd
coefficients, and for every survivor, multiples of an earlier triple
included, an exact check |q*x - a - b*sqrt(d)| <= q*tol in the Fraction
QuadExt of fraction_quadext_oracle and a pair of Fractions.  The guesser
under test walks the same grid in blocks of rows and checks reduced triples
only, on ints; the two must agree on the value, the exception class, the
Ambiguous candidates and every message.
"""

from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np
from fraction_quadext_oracle import QuadExt as FractionQuadExt

from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt
from packinglab.geometrize import Ambiguous, NoCandidate

_REFINE_DPS = 60


def _exact(value) -> Fraction:
    """The exact value of an mpf, a float, an int or a Fraction."""
    if isinstance(value, mpmath.mpf):
        sign, man, exp, _ = value._mpf_
        return (-1) ** sign * man * Fraction(2) ** exp
    return Fraction(value)


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
        # a Fraction's float is its own, rounded once
        xm = value if isinstance(value, (mpmath.mpf, Fraction)) else mpmath.mpf(value)
        xf = float(xm)
        x, bound = _exact(value), Fraction(tol)
        sqrt_f = float(mpmath.sqrt(d))
        found: dict[tuple[Fraction, Fraction], QuadExt] = {}
        for q in range(1, denom_bound + 1):
            xq = xf * q
            slack = q * tol * 1.125 + 1e-9
            if d == 0:
                b_max = 0
                bs = np.array([0])
            else:
                b_max = int(np.floor((abs(xq) + slack + 1.0) / sqrt_f)) + 1 + denom_bound
                bs = np.arange(-b_max, b_max + 1)
            approx = xq - bs * sqrt_f
            a_round = np.round(approx)
            # the slack widened by the float rounding of approx, as the
            # guesser's window is; at d = 0 a is the exact integer nearest
            # q*x, which the float round is not past 2**52 or where
            # float(x) is not x
            keep = np.abs(approx - a_round) <= slack + 2.0**-49 * (abs(xq) + b_max * sqrt_f + 4)
            for b, a in zip(bs[keep], a_round[keep]):
                a = int(a) if d else (2 * q * x.numerator + x.denominator) // (2 * x.denominator)
                b = int(b)
                if abs(FractionQuadExt(q * x - a, -b, d)) <= q * bound:
                    key = (Fraction(a, q), Fraction(b, q))
                    if key not in found:
                        found[key] = QuadExt(key[0], key[1], d if b else 0)
                        if len(found) > 1:
                            raise Ambiguous(xf, sorted(found.values(), key=float))
        if not found:
            raise NoCandidate(f"{xf!r} has no exact match with denominator <= {denom_bound}")
        return next(iter(found.values()))
