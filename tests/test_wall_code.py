"""A wall held as its int code: InversiveVector is (code, d).

The code of a vector must be what exactnum.encode makes of its coordinates,
its d their field, and every vector the kernel hands back (a reflection, an
image under a reflection matrix, a negation, a packing row) must hold a
canonical code: gcd 1 over all entries and den > 0, so that equality and
the hash of the code are those of the value.  Every consumer of a Gram
matrix refuses an asymmetric one.
"""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packinglab import serialize
from packinglab.arithmetic import dual_form, vinberg_test
from packinglab.coxeter import GramMatrix, diagram_from_gram
from packinglab.errors import ParameterError
from packinglab.exactnum import DiscMismatch, QuadExt, encode, field_disc
from packinglab.fixtures import apollonian_system, hexpyr_expected_gram
from packinglab.inversive import InvalidWall, InversiveVector, reflection_matrix, sphere_from_center_radius
from packinglab.orbit import WallSystem, generate_packing
from packinglab.packing import Packing, SphereRecord
from packinglab.structure import Decomposition, check_decomposition, enumerate_decompositions

FIELDS = [0, 2, 3, 5]


def values(d: int, zeros: bool = True):
    ratio = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    surd = st.just(0) if not d else st.one_of(st.just(0), ratio)
    out = st.builds(lambda a, b: QuadExt(a, b, d), ratio, surd)
    return st.one_of(st.just(QuadExt(0)), out) if zeros else out.filter(bool)


@st.composite
def cases(draw):
    """A field, a dimension 1-3, a wall of that field, and a vector of it
    that is a wall or any vector off the quadric."""
    d = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))

    def wall():
        center = draw(st.lists(values(d), min_size=dim, max_size=dim))
        return sphere_from_center_radius(center, draw(values(d, zeros=False)))

    s = wall()
    if draw(st.booleans()):
        return s, wall()
    return s, InversiveVector.from_coords(draw(st.lists(values(d), min_size=dim + 2, max_size=dim + 2)))


def assert_canonical(v: InversiveVector):
    assert v.code[-1] > 0 and gcd(*v.code) == 1
    assert all(type(x) is int for x in v.code)
    assert v.d == field_disc(x.disc for x in v.coords())


@settings(max_examples=150, deadline=None)
@given(cases())
def test_a_vector_is_its_code(case):
    for v in case:
        coords = v.coords()
        again = InversiveVector.from_coords(coords)
        assert again == v and hash(again) == hash(v)
        assert v.code == encode(coords) and v.d == field_disc(x.disc for x in coords)
        assert (v.cobend, v.bend, *v.bz) == coords and v.dim == len(coords) - 2
        assert InversiveVector.from_code(v.code, v.d) == v


@settings(max_examples=150, deadline=None)
@given(cases())
def test_kernel_results_hold_canonical_codes(case):
    s, v = case
    m = reflection_matrix(s)
    for got in (v.reflect(s), m.apply(v), -v, s.reflect(s), m.apply(s)):
        assert_canonical(got)
    assert v.reflect(s) == m.apply(v)
    assert (-v).coords() == tuple(-x for x in v.coords())


def test_a_reflection_matrix_refuses_another_dimension():
    m = reflection_matrix(sphere_from_center_radius((0, 0), 1))
    with pytest.raises(InvalidWall, match="^mixed ambient dimensions$"):
        m.apply(sphere_from_center_radius((1, 2, 3), 2))


def test_a_rational_code_of_a_surd_field_has_d_zero():
    v = InversiveVector.from_code((0, 0, 0, 0, 1, 0, 0, 0, 1), 3)
    assert v.d == 0 and v == InversiveVector(0, 0, (1, 0))


def test_coordinates_in_two_fields_raise_when_built():
    with pytest.raises(DiscMismatch, match=r"^sqrt\(2\) vs sqrt\(3\)$"):
        InversiveVector(QuadExt.sqrt(2), 0, (QuadExt.sqrt(3), 0))


def test_an_assignment_raises():
    v = InversiveVector(0, 0, (1, 0))
    for name in ("code", "d", "bend"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)


def _scaled_gasket(lam):
    """The Apollonian system under z -> lam*z."""
    lam, system = QuadExt(lam), apollonian_system()
    walls = [InversiveVector(w.cobend * lam, w.bend / lam, w.bz) for w in system.walls]
    return WallSystem(walls, system.cluster_idx, system.cocluster_idx)


@pytest.mark.parametrize(
    "lam, bound, dtype",
    [(1, 60, np.int64), (Fraction(1, 10**12), 60 * 10**12, object)],
    ids=["int64", "object"],
)
def test_a_record_holds_its_row(lam, bound, dtype):
    p = generate_packing(_scaled_gasket(lam), QuadExt(bound), max_word=600)
    assert p.codes.dtype == dtype
    for i in range(len(p.codes)):
        vector = p.record(i).vector
        assert vector.code == tuple(p.codes[i]) and vector.d == p.d
        assert_canonical(vector)
    assert [r.vector for r in p.spheres] == [p.record(i).vector for i in range(len(p.codes))]


def test_a_rational_row_of_a_surd_packing_has_d_zero():
    walls = _scaled_gasket(QuadExt.sqrt(2)).walls  # the last wall, a plane, is rational
    p = Packing([SphereRecord(w, 0, None) for w in walls], True, QuadExt(10), 0, (), 2)
    for q in (p, serialize.loads(serialize.dumps(p))):
        assert q.d == 2
        v = q.record(len(walls) - 1).vector
        assert v.d == 0 and not any(v.code[1:-1:2])
        assert v == InversiveVector.from_coords(v.coords()) == walls[-1]
        assert [r.vector for r in q.spheres] == list(walls)


# -- one symmetry check for every consumer of a Gram matrix ----------------------


def _asymmetric_hexpyr():
    entries = [list(row) for row in hexpyr_expected_gram().entries]
    entries[5][2] = QuadExt(100)
    return GramMatrix(tuple(map(tuple, entries)))


def test_diagram_refuses_an_asymmetric_gram():
    with pytest.raises(ParameterError, match=r"^the Gram matrix is asymmetric at \(2,5\)$"):
        diagram_from_gram(_asymmetric_hexpyr())


def test_decompositions_refuse_an_asymmetric_gram():
    gram = _asymmetric_hexpyr()
    with pytest.raises(ParameterError, match=r"^the Gram matrix is asymmetric at \(2,5\)$"):
        enumerate_decompositions(gram)
    split = Decomposition(frozenset({0}), frozenset(range(1, gram.size)))
    with pytest.raises(ParameterError, match=r"^the Gram matrix is asymmetric at \(2,5\)$"):
        check_decomposition(gram, split)


def test_dual_form_refuses_an_asymmetric_gram():
    entries = [list(row[:4]) for row in hexpyr_expected_gram().entries[:4]]
    dual_form(GramMatrix(tuple(map(tuple, entries))))  # invertible
    entries[3][1] = QuadExt(100)
    with pytest.raises(ParameterError, match=r"^the Gram matrix is asymmetric at \(1,3\)$"):
        dual_form(GramMatrix(tuple(map(tuple, entries))))


def test_a_gram_document_row_is_checked_by_the_same_rule():
    entries = [list(row) for row in hexpyr_expected_gram().entries]
    entries[5][2] = QuadExt(100)
    with pytest.raises(ValueError, match=r"^the Gram matrix is asymmetric at \(2,5\)$"):
        GramMatrix.from_rows(entries)


def test_every_gram_consumer_refuses_a_ragged_matrix():
    one, neg = QuadExt(1), QuadExt(-1)
    ragged = GramMatrix(((neg, one), (one,)))
    for consume in (diagram_from_gram, vinberg_test, dual_form, enumerate_decompositions):
        with pytest.raises(ParameterError, match="^matrix must be square$"):
            consume(ragged)
