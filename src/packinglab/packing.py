"""A packing: a bounded orbit of spheres, held on the int code.

The orbit closure (orbit.py) returns its kept spheres as one array of int
codes (InversiveVector.code), sorted by (bend,) + coords: int64 when every
entry fits, dtype=object otherwise, with the word lengths and parent
generators beside it.  certify_integral, Packing.bends_list, serialize and
render read the array; QuadExt values are built only for what they hand
back (the witnesses, the bends), and Packing.spheres wraps each row in a
SphereRecord on each read.  The array is read-only and nothing is kept
beside it, so the codes are the one source of every answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .exactnum import QuadExt, dtype_under, field_disc, from_triple, int_array, max_abs, quad_sign_array
from .inversive import InversiveVector, decode_rows

_MAX_WITNESSES = 10  # non-integral spheres certify_integral reports


@dataclass(frozen=True, slots=True)
class SphereRecord:
    vector: InversiveVector
    word_length: int
    parent_generator: int | None  # index into WallSystem.walls, None for seeds


class Packing:
    """A bounded orbit of spheres, held on the int code.

    codes has one row per kept sphere: its int code (InversiveVector.code) in
    Q(sqrt(d)), int64 when every entry fits and dtype=object otherwise, and
    d is 0 when every coordinate is rational.  word_lengths and parents are
    the rows' word lengths and parent generators (None for a seed).

    Packing(spheres, ...) builds one from SphereRecords, in their order;
    Packing.from_codes takes the rows, as the orbit closure and the packing
    loader do.  Either way every field that dumps writes verbatim is
    checked.  spheres wraps the rows in a tuple of SphereRecords on each
    read; the other methods read the codes and decode only what they
    return.
    """

    def __init__(
        self,
        spheres,
        saturated: bool,
        bend_bound: QuadExt,
        max_word: int,
        generator_idx,
        dim: int,
        boundary_walls: int = 0,
    ):
        spheres = tuple(spheres)
        vectors = [rec.vector for rec in spheres]
        if len({len(v.code) for v in vectors}) > 1:
            raise ParameterError("spheres must all have one dimension")
        self._init(
            int_array([v.code for v in vectors]), field_disc(v.d for v in vectors),
            [rec.word_length for rec in spheres], [rec.parent_generator for rec in spheres],
            saturated, bend_bound, max_word, generator_idx, dim, boundary_walls,
        )

    @classmethod
    def from_codes(cls, codes, d, word_lengths, parents, saturated, bend_bound, max_word,
                   generator_idx, dim, boundary_walls=0) -> "Packing":
        packing = cls.__new__(cls)
        packing._init(codes, d, word_lengths, parents, saturated, bend_bound, max_word,
                      generator_idx, dim, boundary_walls)
        return packing

    def _init(self, codes, d, word_lengths, parents, saturated, bend_bound, max_word,
              generator_idx, dim, boundary_walls):
        # dumps writes these ints and bools as they are, so each must be one
        for name, value in (("max_word", max_word), ("dim", dim), ("boundary_walls", boundary_walls)):
            if type(value) is not int:
                raise ParameterError(f"{name} must be an int, got {value!r}")
        if type(saturated) is not bool:
            raise ParameterError(f"saturated must be true or false, got {saturated!r}")
        generator_idx = tuple(generator_idx)
        for g in generator_idx:
            if type(g) is not int:
                raise ParameterError(f"generators must be ints, got {g!r}")
        generators = set(generator_idx)
        word_lengths, parents = tuple(word_lengths), tuple(parents)
        for i, (n, g) in enumerate(zip(word_lengths, parents), start=1):
            if type(n) is not int or n < 0:
                raise ParameterError(f"sphere {i}: word_length must be an int >= 0, got {n!r}")
            if g is not None and not (type(g) is int and g in generators):
                raise ParameterError(
                    f"sphere {i}: parent_generator must be null or one of the generators, got {g!r}"
                )
        if not len(codes):
            codes = np.zeros((0, 2 * dim + 5), dtype=np.int64)
        elif codes.shape[1] != 2 * dim + 5:
            raise ParameterError(f"spheres must have dim + 2 = {dim + 2} coordinates")
        codes.flags.writeable = False
        self.codes = codes
        self.d = d if codes[:, 1:-1:2].any() else 0
        self.word_lengths = word_lengths
        self.parents = parents
        self.saturated = saturated
        self.bend_bound = bend_bound
        self.max_word = max_word
        self.generator_idx = generator_idx
        self.dim = dim
        self.boundary_walls = boundary_walls

    @property
    def spheres(self) -> tuple[SphereRecord, ...]:
        """The kept spheres, built from the codes on each read: hold the
        tuple rather than read it again, or take one sphere with record."""
        vectors = decode_rows(self.codes, self.d)
        return tuple(map(SphereRecord, vectors, self.word_lengths, self.parents))

    def record(self, i: int) -> SphereRecord:
        """Sphere i, built from its code alone."""
        vector = InversiveVector.from_code(self.codes[i].tolist(), self.d)
        return SphereRecord(vector, self.word_lengths[i], self.parents[i])

    def vectors(self) -> list[InversiveVector]:
        return [rec.vector for rec in self.spheres]

    def bends_list(self) -> list[QuadExt]:
        """Sorted multiset of bends, one entry per retained sphere.

        The bend column is read in its stored order, one QuadExt per run of
        equal entries, and sorted only if the exact check of adjacent rows
        finds it out of order; the orbit closure stores its spheres in bend
        order.
        """
        c, d = self.codes, self.d
        if not len(c):
            return []
        col = c[:, [2, 3, -1]]
        starts = np.flatnonzero(np.r_[True, (col[1:] != col[:-1]).any(axis=1)])
        values = np.array([from_triple(a, b, q, d) for a, b, q in col[starts].tolist()], dtype=object)
        bends = np.repeat(values, np.diff(np.r_[starts, len(col)])).tolist()
        if not (_steps(c, (2,), d) >= 0).all():
            bends.sort()
        return bends

    def __eq__(self, other):
        if not isinstance(other, Packing):
            return NotImplemented
        fields = ("d", "word_lengths", "parents", "saturated", "bend_bound", "max_word",
                  "generator_idx", "dim", "boundary_walls")
        same = all(getattr(self, f) == getattr(other, f) for f in fields)
        return same and np.array_equal(self.codes, other.codes)

    __hash__ = None


def _steps(codes: np.ndarray, cols: Sequence[int], d: int) -> np.ndarray:
    """For each adjacent pair of rows x, y, the sign of y - x in the
    lexicographic order of the values at numerator columns cols (a value
    reads (code[c] + code[c + 1] sqrt(d)) / den), decided exactly.

    The differences y_c den(x) - x_c den(y) are at most 2 M^2 for entries up
    to M, and quad_sign_array squares them when d > 0; int64 rows over that
    bound are compared on Python ints.
    """
    m = max_abs(codes)
    codes = codes.astype(dtype_under(4 * (1 + d) * m**4 if d else 2 * m * m), copy=False)
    x, y = codes[:-1], codes[1:]
    xd, yd = x[:, -1], y[:, -1]
    out = np.zeros(len(x), dtype=np.int8)
    for c in reversed(cols):  # the first column with a nonzero sign decides
        s = quad_sign_array(y[:, c] * xd - x[:, c] * yd, y[:, c + 1] * xd - x[:, c + 1] * yd, d)
        out = np.where(s != 0, s, out)
    return out


@dataclass
class IntegralityReport:
    integral: bool
    witnesses: list[SphereRecord] = field(default_factory=list)


def certify_integral(packing: Packing) -> IntegralityReport:
    """Whether every bend is a rational integer, with the first few that are
    not.  A bend (a + b sqrt(d)) / den is one iff b = 0 and den divides a,
    read off the code; only the witnesses are decoded."""
    c = packing.codes
    bad = np.flatnonzero((c[:, 3] != 0) | (c[:, 2] % c[:, -1] != 0))[:_MAX_WITNESSES]
    witnesses = [packing.record(i) for i in bad.tolist()]
    return IntegralityReport(integral=not witnesses, witnesses=witnesses)
