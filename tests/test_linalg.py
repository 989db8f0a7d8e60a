"""The int matrix kernels against their QuadExt oracle.

linalg (IntMatrix products and the Bareiss inverse), the inversive products
and reflections on the int code, arithmetic.gram_matrix and
vinberg_test must give what tests/quadext_linalg_oracle.py gives: equal
values, the same exception class and message, the same printed verdict.
"""

from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadext_linalg_oracle as oracle
from packinglab import arithmetic
from packinglab.arithmetic import _cycles, bends_conjugate, dual_form, gram_matrix, vinberg_test
from packinglab.coxeter import GramMatrix
from packinglab.errors import ParameterError
from packinglab.exactnum import DiscMismatch, QuadExt
from packinglab.fixtures import apollonian_system, hexpyr_expected_gram, hexpyr_system
from packinglab.inversive import (
    InvalidWall,
    InversiveVector,
    ReflectionMatrix,
    inversive_product,
    reflection_matrix,
    sphere_from_center_radius,
)
from packinglab.linalg import IntMatrix, SingularMatrix, identity, inverse, mat_mul, vec_mat
from soddy import soddy_gram

FIELDS = [0, 2, 3, 5]


def outcome(fn, *args):
    """fn's value, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle raises what the kernel must
        return type(exc), str(exc)


def values(d: int, zeros: bool = True):
    """Small values of Q(sqrt(d)), often rational, often zero."""
    ratio = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    surd = st.just(0) if not d else st.one_of(st.just(0), ratio)
    out = st.builds(lambda a, b: QuadExt(a, b, d), ratio, surd)
    return st.one_of(st.just(QuadExt(0)), out) if zeros else out.filter(bool)


def surd_value(d: int):
    return st.builds(lambda a, b: QuadExt(a, b, d), st.integers(-5, 5), st.integers(1, 5))


def matrices(d: int, rows: int, cols: int, zeros: bool = True):
    row = st.lists(values(d, zeros), min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


@st.composite
def products(draw):
    d = draw(st.sampled_from(FIELDS))
    k, m, n = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(matrices(d, k, m)), draw(matrices(d, m, n))


@settings(max_examples=150, deadline=None)
@given(products())
def test_mat_mul_and_vec_mat_match_oracle(case):
    a, b = case
    assert mat_mul(a, b) == oracle.mat_mul(a, b)
    assert vec_mat(a[0], b) == oracle.vec_mat(a[0], b)


@st.composite
def squares(draw):
    """A square matrix in one field; often singular, with column c set to
    zero or to a combination of the columns before it."""
    d = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 5))
    m = [list(row) for row in draw(matrices(d, k, k, zeros=draw(st.booleans())))]
    if draw(st.booleans()):
        c = draw(st.integers(0, k - 1))
        coef = draw(st.lists(values(d), min_size=c, max_size=c))
        for row in m:
            row[c] = sum((f * row[j] for j, f in enumerate(coef)), QuadExt(0))
    return tuple(map(tuple, m))


@settings(max_examples=200, deadline=None)
@given(squares())
def test_inverse_matches_oracle(m):
    assert outcome(inverse, m) == outcome(oracle.inverse, m)


def test_singular_matrix_names_its_column():
    m = ((QuadExt(1), QuadExt(2), QuadExt(3)),
         (QuadExt(2), QuadExt(4), QuadExt(5)),
         (QuadExt(0), QuadExt(0), QuadExt(1)))
    with pytest.raises(SingularMatrix, match="^no pivot in column 1$"):
        inverse(m)
    assert outcome(oracle.inverse, m) == (SingularMatrix, "no pivot in column 1")


@st.composite
def two_field_products(draw):
    """a over Q(sqrt(d1)) and b over Q(sqrt(d2)), each with a surd first
    entry, so the oracle's first product meets both fields."""
    d1, d2 = draw(st.lists(st.sampled_from(FIELDS[1:]), min_size=2, max_size=2, unique=True))
    k = draw(st.integers(1, 4))
    a = [list(row) for row in draw(matrices(d1, k, k))]
    b = [list(row) for row in draw(matrices(d2, k, k))]
    a[0][0], b[0][0] = draw(surd_value(d1)), draw(surd_value(d2))
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@settings(max_examples=50, deadline=None)
@given(two_field_products())
def test_two_fields_raise_as_the_oracle(case):
    a, b = case
    got = outcome(mat_mul, a, b)
    assert got[0] is DiscMismatch
    assert got == outcome(oracle.mat_mul, a, b)
    assert outcome(vec_mat, a[0], b) == outcome(oracle.vec_mat, a[0], b)


def test_int_form_is_canonical():
    half = QuadExt(Fraction(1, 2))
    m = IntMatrix.encode(((half, QuadExt(0)), (QuadExt(0), half)))
    assert (m.rows, m.den, m.d) == (((1, 0, 0, 0), (0, 0, 1, 0)), 2, 0)
    square = m @ m
    assert (square.rows, square.den) == (((1, 0, 0, 0), (0, 0, 1, 0)), 4)
    twice = IntMatrix([[2, 0], [4, 0]], -6, 0)
    assert (twice.rows, twice.den) == (((-1, 0), (-2, 0)), 3)


@st.composite
def mixed_products(draw):
    """One operand rational and the other over Q(sqrt(d)) with a surd first
    entry, in either order: the product's field is d, not the field of
    either operand alone."""
    d = draw(st.sampled_from(FIELDS[1:]))
    k, m, n = (draw(st.integers(1, 4)) for _ in range(3))
    fields = (0, d) if draw(st.booleans()) else (d, 0)
    a = [list(row) for row in draw(matrices(fields[0], k, m))]
    b = [list(row) for row in draw(matrices(fields[1], m, n))]
    surd = a if fields[0] else b
    surd[0][0] = draw(surd_value(d))
    return tuple(map(tuple, a)), tuple(map(tuple, b)), d


@settings(max_examples=150, deadline=None)
@given(mixed_products())
def test_rational_times_surd_matches_oracle_in_both_orders(case):
    a, b, d = case
    want = oracle.mat_mul(a, b)
    got = {
        "mat_mul": mat_mul(a, b),
        "IntMatrix @": (IntMatrix.encode(a) @ IntMatrix.encode(b)).decode(),
        "vec_mat": (vec_mat(a[0], b),),
    }
    for name, m in got.items():
        assert m == want[: len(m)], name
        for row, want_row in zip(m, want):
            for x, y in zip(row, want_row):
                assert (x.triple, x.disc) == (y.triple, y.disc), name
                assert x.disc == (d if x.triple[1] else 0), name


def test_mat_mul_refuses_shapes_that_do_not_fit():
    with pytest.raises(ParameterError, match=r"^cannot multiply a 1x2 matrix by a 1x1 matrix$"):
        mat_mul(((QuadExt(1), QuadExt(2)),), ((QuadExt(3),),))


def test_vec_mat_refuses_a_vector_longer_than_the_matrix():
    v = (QuadExt(1), QuadExt(2), QuadExt(3))
    with pytest.raises(ParameterError, match=r"^cannot multiply a 1x3 matrix by a 2x2 matrix$"):
        vec_mat(v, identity(2))


def test_inverse_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ParameterError, match=r"^cannot invert a 1x2 matrix$"):
        inverse(((QuadExt(1), QuadExt(2)),))


def test_int_matrix_refuses_ragged_pair_rows():
    with pytest.raises(ParameterError, match=r"^pair rows of \[4, 2\] numerators are not a matrix$"):
        IntMatrix([[1, 0, 2, 0], [3, 0]], 1, 0)
    with pytest.raises(ParameterError, match=r"^not a matrix: row 1 has 1 entries, row 0 has 2$"):
        mat_mul(((QuadExt(1), QuadExt(2)), (QuadExt(3),)), identity(2))


def test_reflection_matrix_refuses_a_matrix_of_another_dimension():
    with pytest.raises(ParameterError, match=r"^a reflection in dimension 2 needs a 4x4 matrix, not 2x2$"):
        ReflectionMatrix(identity(2), 2)


def test_matrices_with_no_rows_stay_valid():
    assert mat_mul((), ()) == () and mat_mul((), identity(2)) == ()
    assert mat_mul(((),), ()) == ((),)
    assert vec_mat((), ()) == () and inverse(()) == ()
    empty = IntMatrix.encode(())
    assert (empty @ empty).decode() == empty.transpose().decode() == ()


# -- walls ------------------------------------------------------------------------


@st.composite
def walls(draw, d=None, dim=None):
    """A wall of Q(sqrt(d)): a sphere about a center with a radius in the field."""
    d = draw(st.sampled_from(FIELDS)) if d is None else d
    dim = draw(st.integers(1, 3)) if dim is None else dim
    center = draw(st.lists(values(d), min_size=dim, max_size=dim))
    radius = draw(values(d, zeros=False))
    return sphere_from_center_radius(center, radius)


@st.composite
def vectors(draw, d, dim, surd=False):
    """Any vector of Q(sqrt(d)), not on the quadric; with surd, every
    coordinate has a surd part."""
    value = surd_value(d) if surd else values(d)
    return InversiveVector.from_coords(draw(st.lists(value, min_size=dim + 2, max_size=dim + 2)))


@st.composite
def wall_pairs(draw):
    d = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))
    return draw(walls(d, dim)), draw(st.one_of(walls(d, dim), vectors(d, dim)))


@settings(max_examples=100, deadline=None)
@given(wall_pairs())
def test_products_and_reflections_match_oracle(case):
    u, s = case
    assert inversive_product(u, s) == oracle.inversive_product(u, s)
    image = oracle.vec_mat(s.coords(), oracle.reflection_matrix(u))
    assert s.reflect(u).coords() == image
    m = reflection_matrix(u)
    assert m.entries == oracle.reflection_matrix(u)
    assert m.apply(s).coords() == image


@settings(max_examples=50, deadline=None)
@given(wall_pairs())
def test_reflection_entries_are_decoded_once_on_first_read(case):
    u, s = case
    m = reflection_matrix(u)
    with mock.patch.object(IntMatrix, "decode", autospec=True, side_effect=IntMatrix.decode) as decode:
        image = m.apply(s)
        assert m.preserves_form() and decode.call_count == 0
        assert m.entries == oracle.reflection_matrix(u)
        assert m.entries is m.entries and decode.call_count == 1
    assert image.coords() == oracle.vec_mat(s.coords(), m.entries)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_products_of_two_fields_or_dimensions_raise_as_the_oracle(data):
    d1, d2 = data.draw(st.lists(st.sampled_from(FIELDS[1:]), min_size=2, max_size=2, unique=True))
    dim = data.draw(st.integers(1, 3))
    u = data.draw(vectors(d1, dim, surd=True))
    v = data.draw(vectors(d2, data.draw(st.sampled_from([dim, dim + 1])), surd=True))
    got = outcome(inversive_product, u, v)
    assert got[0] in (DiscMismatch, InvalidWall)
    assert got == outcome(oracle.inversive_product, u, v)
    assert outcome(gram_matrix, [u, v]) == outcome(oracle.gram_matrix, [u, v])


def test_off_quadric_wall_has_no_reflection():
    v = InversiveVector(QuadExt(1), QuadExt(1), (QuadExt(0), QuadExt(0)))
    assert outcome(reflection_matrix, v) == outcome(oracle.reflection_matrix, v)
    assert outcome(reflection_matrix, v)[0] is InvalidWall


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gram_matrix_matches_oracle(data):
    d = data.draw(st.sampled_from(FIELDS))
    dim = data.draw(st.integers(1, 3))
    ws = data.draw(st.lists(walls(d, dim), min_size=1, max_size=6))
    assert gram_matrix(ws) == oracle.gram_matrix(ws)


@pytest.mark.parametrize("system", [apollonian_system, hexpyr_system])
def test_fixture_grams_and_conjugates_match_oracle(system):
    sysm = system()
    ws = list(sysm.walls)
    assert gram_matrix(ws) == oracle.gram_matrix(ws)
    cluster = [ws[i] for i in sorted(sysm.cluster_idx)][: len(ws[0].coords())]
    v = tuple(w.coords() for w in cluster)
    for i in sorted(sysm.cocluster_idx):
        r = oracle.reflection_matrix(ws[i])
        want = oracle.mat_mul(oracle.mat_mul(v, r), oracle.inverse(v))
        assert bends_conjugate(reflection_matrix(ws[i]), cluster) == want


def test_dual_form_matches_oracle_inverse():
    gram = hexpyr_expected_gram()
    sub = tuple(row[:4] for row in gram.entries[:4])
    assert outcome(lambda: dual_form(GramMatrix(sub)).entries) == outcome(oracle.inverse, sub)


# -- the Vinberg scan ----------------------------------------------------------------


def doubled_values(d: int):
    """Gram entries whose doubles are mostly in Z or Z*sqrt(d), so that the
    2-cycles often pass and longer cycles decide."""
    integral = st.integers(-3, 3).map(lambda n: QuadExt(Fraction(n, 2)))
    pure = st.integers(-3, 3).map(lambda n: QuadExt(0, Fraction(n, 2), d)) if d else integral
    other = values(d, zeros=False)
    return st.one_of(st.just(QuadExt(0)), st.just(QuadExt(0)), integral, pure, other)


@st.composite
def grams(draw):
    """A Gram of at most 8 walls and a max_len.  Sparse ones have few short
    cycles.  A planted one holds a cycle through up to 8 walls with one surd
    edge, whose product is not rational, and chords whose doubles are in
    Z or Z*sqrt(d), so its first violation is often long."""
    d = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 8))
    planted = bool(d) and k > 1 and draw(st.booleans())
    density = draw(st.integers(0, 4))
    pool = integral_only(d) if planted or draw(st.booleans()) else doubled_values(d)
    rows = [[QuadExt(-1)] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        nonzero = draw(st.integers(0, 4)) < density
        rows[i][j] = rows[j][i] = draw(pool) if nonzero else QuadExt(0)
    if not planted:
        return GramMatrix.from_rows(rows), draw(st.integers(2, 8))
    cycle = draw(st.permutations(range(k)))[: draw(st.integers(2, k))]
    for n, (i, j) in enumerate(zip(cycle, cycle[1:] + cycle[:1])):
        x = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), 2)
        rows[i][j] = rows[j][i] = QuadExt(0, x, d) if n == 0 else QuadExt(x)
    return GramMatrix.from_rows(rows), draw(st.integers(len(cycle), 8))


def integral_only(d: int):
    """Doubles in Z or Z*sqrt(d) only: the scan runs to its longest cycles."""
    half = st.integers(-2, 2).map(lambda n: Fraction(n, 2))
    pure = half.map(lambda x: QuadExt(0, x, d)) if d else half.map(QuadExt)
    return st.one_of(st.just(QuadExt(0)), half.map(QuadExt), pure)


@settings(max_examples=200, deadline=None)
@given(grams())
def test_vinberg_scan_matches_oracle(case):
    gram, max_len = case
    assert str(vinberg_test(gram, max_len)) == str(oracle.vinberg_test(gram, max_len))


@pytest.mark.parametrize("length", range(4, 9))
def test_long_planted_cycle_is_the_witness(length):
    cycle = (0, 2, 4, 6, 7, 5, 3, 1)[:length]
    rows = [[QuadExt(-1)] * 8 for _ in range(8)]
    for i, j in combinations(range(8), 2):
        rows[i][j] = rows[j][i] = QuadExt(0)
    for n, (i, j) in enumerate(zip(cycle, cycle[1:] + cycle[:1])):
        rows[i][j] = rows[j][i] = QuadExt.sqrt(3) / 2 if n == 0 else QuadExt(1)
    gram = GramMatrix.from_rows(rows)
    got = str(vinberg_test(gram))
    assert got == str(oracle.vinberg_test(gram))
    assert got.startswith("NonArithmetic(cycle=(1,") and got.count(",") == length


def test_cycles_follow_the_permutations_order():
    """The docstring's order: (0,1,3,2) comes before (0,1,2,4)."""
    edges = [[(2, 0, 1)] * 6 for _ in range(6)]
    got = [c for subset in combinations(range(6), 4) for c, _ in _cycles(edges, 0, subset)]
    want = [
        (subset[0],) + perm
        for subset in combinations(range(6), 4)
        for perm in permutations(subset[1:])
        if perm[0] < perm[-1]
    ]
    assert got == want
    assert got.index((0, 1, 3, 2)) < got.index((0, 1, 2, 4))


def test_cycles_skip_zero_edges():
    edges = [[(1, 0, 1)] * 4 for _ in range(4)]
    edges[1][2] = edges[2][1] = None
    assert list(_cycles(edges, 0, (0, 1, 2, 3))) == [((0, 1, 3, 2), (1, 0, 1))]
    edges[2][0] = edges[0][2] = None  # the closing edge of (0,1,3,2)
    assert list(_cycles(edges, 0, (0, 1, 2, 3))) == []


def test_vinberg_witness_on_hexpyr():
    verdict = vinberg_test(hexpyr_expected_gram())
    assert str(verdict) == "NonArithmetic(cycle=(1,14), product=16/3)"


@pytest.mark.parametrize("max_len", [8.0, 2.5, "3", True, None])
def test_vinberg_max_len_must_be_an_int(max_len):
    with pytest.raises(ParameterError, match=f"max_len must be an int, not {type(max_len).__name__}$"):
        vinberg_test(hexpyr_expected_gram(), max_len)


def test_vinberg_refuses_two_fields_before_the_scan():
    rows = [[QuadExt(-1)] * 3 for _ in range(3)]
    rows[0][1] = rows[1][0] = QuadExt.sqrt(2)
    rows[1][2] = rows[2][1] = QuadExt.sqrt(3)
    rows[0][2] = rows[2][0] = QuadExt(0)
    with pytest.raises(DiscMismatch, match=r"sqrt\(2\) vs sqrt\(3\)"):
        vinberg_test(GramMatrix.from_rows(rows), 2)


def test_vinberg_refuses_an_asymmetric_gram():
    entries = [list(row) for row in hexpyr_expected_gram().entries]
    entries[9][4] = QuadExt(100)
    entries[5][2] = QuadExt(100)
    with pytest.raises(ParameterError, match=r"^the Gram matrix is asymmetric at \(2,5\)$"):
        vinberg_test(GramMatrix(tuple(map(tuple, entries))))


# -- the decision: 2-cycles, then the shortest cycle with an odd surd count ----------

HALVES = [Fraction(n, 2) for n in (-3, -2, -1, 1, 2, 3)]


def balanced_rows(draw, d: int, k: int):
    """Gram rows whose surd edges form a cut: each wall gets a side, and a
    nonzero edge is in Z*sqrt(d)/2 exactly when it joins the two sides, in
    Z/2 otherwise.  Every cycle crosses the cut an even number of times, so
    every cyclic product of 2G is an integer."""
    side = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    density = draw(st.integers(1, 4))
    rows = [[QuadExt(-1)] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        x = draw(st.sampled_from(HALVES)) if draw(st.integers(0, 4)) < density else 0
        rows[i][j] = rows[j][i] = QuadExt(0, x, d) if side[i] != side[j] else QuadExt(x)
    return rows


@st.composite
def balanced_grams(draw):
    d = draw(st.sampled_from([2, 3, 5, 6, 7]))
    rows = balanced_rows(draw, d, draw(st.integers(1, 12)))
    return GramMatrix.from_rows(rows), draw(st.integers(2, 12))


@settings(max_examples=100, deadline=None)
@given(balanced_grams())
def test_balanced_surd_cut_passes_at_every_length(case):
    gram, max_len = case
    assert str(vinberg_test(gram, max_len)) == f"PassesUpTo({max_len})"
    if gram.size <= 8:
        assert str(vinberg_test(gram, 5)) == str(oracle.vinberg_test(gram, 5))


@st.composite
def long_odd_grams(draw):
    """A balanced Gram on k walls with a cycle of `length` hung on wall 0
    through new walls k, k+1, ..., whose number of surd edges is odd.  The
    new walls lie on no other cycle, so that cycle is the shortest one that
    fails, and max_len stays below its length."""
    d = draw(st.sampled_from([2, 3, 5, 6, 7]))
    k, length = draw(st.integers(1, 6)), draw(st.integers(3, 9))
    rows = balanced_rows(draw, d, k)
    n = k + length - 1
    rows = [row + [QuadExt(0)] * (n - k) for row in rows]
    rows += [[QuadExt(0)] * n for _ in range(n - k)]
    for i in range(k, n):
        rows[i][i] = QuadExt(-1)
    surd = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    surd[-1] ^= sum(surd) % 2 == 0  # an odd count
    cycle = [0] + list(range(k, n))
    for (i, j), s in zip(zip(cycle, cycle[1:] + cycle[:1]), surd):
        x = draw(st.sampled_from(HALVES))
        rows[i][j] = rows[j][i] = QuadExt(0, x, d) if s else QuadExt(x)
    return GramMatrix.from_rows(rows), length, draw(st.integers(2, length - 1))


@settings(max_examples=100, deadline=None)
@given(long_odd_grams())
def test_odd_surd_cycle_longer_than_max_len_passes(case):
    gram, length, max_len = case
    assert str(vinberg_test(gram, max_len)) == f"PassesUpTo({max_len})"
    verdict = vinberg_test(gram, length)
    assert len(verdict.witness_cycle) == length and verdict.product.surd


def complete_balanced_gram(k: int, flip=()):
    """Every pair of k walls joined; an edge is 1/2*sqrt(2) across the sides
    i % 3 == 0 and i % 3 != 0 and 1/2 within a side, with the pairs in flip
    changed over."""
    rows = [[QuadExt(-1)] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        surd = ((i % 3 == 0) != (j % 3 == 0)) ^ ((i, j) in flip)
        rows[i][j] = rows[j][i] = QuadExt.sqrt(2) / 2 if surd else QuadExt(Fraction(1, 2))
    return GramMatrix.from_rows(rows)


def test_balanced_gram_on_16_walls_walks_only_pairs(monkeypatch):
    walked = []
    cycles = arithmetic._cycles
    monkeypatch.setattr(
        arithmetic, "_cycles", lambda edges, d, subset: walked.append(len(subset)) or cycles(edges, d, subset)
    )
    assert str(vinberg_test(complete_balanced_gram(16), 8)) == "PassesUpTo(8)"
    assert walked == [2] * 120


def test_odd_triangle_on_16_walls_is_the_oracle_witness():
    gram = complete_balanced_gram(16, flip={(4, 9)})
    got = str(vinberg_test(gram, 3))
    assert got == str(oracle.vinberg_test(gram, 3)) == "NonArithmetic(cycle=(1,5,10), product=1*sqrt(2))"
    assert str(vinberg_test(gram, 8)) == got


def test_soddy_gram_passes_by_its_surd_cut():
    gram = soddy_gram()
    assert {str(2 * x) for row in gram.entries for x in row} == {"-2", "0", "1", "2", "2*sqrt(3)"}
    assert str(vinberg_test(gram, 8)) == "PassesUpTo(8)"
    assert str(vinberg_test(gram, 5)) == str(oracle.vinberg_test(gram, 5)) == "PassesUpTo(5)"
