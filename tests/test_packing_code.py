"""A packing held on the int code, against the QuadExt views of its spheres.

Every consumer of a packing (certify_integral, bends_list, dumps, loads,
render_svg) reads the code array; each must agree with the same question
asked of the decoded spheres, on the int64 path and on the dtype=object path
that codes too large for int64 take.  A packing built from SphereRecords
must hold the same codes as the one the orbit closure built.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import render_oracle
from packinglab import packing, serialize
from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt
from packinglab.fixtures import apollonian_system, hexpyr_system
from packinglab.inversive import InversiveVector, q_is_minus_one
from packinglab.orbit import WallSystem, generate_packing, generate_superpacking
from packinglab.packing import Packing, SphereRecord, certify_integral
from packinglab.render import Viewport, render_svg
from packinglab.serialize import FormatError

from serialize_oracle import oracle_dumps

_BIG = Fraction(1, 10**12)  # a scale that pushes the codes past int64


def scaled(system, lam):
    """The system under z -> lam*z: cobend * lam, bend / lam, bz unchanged."""
    lam = QuadExt(lam)
    walls = [InversiveVector(w.cobend * lam, w.bend / lam, w.bz) for w in system.walls]
    return WallSystem(walls, system.cluster_idx, system.cocluster_idx)


def _build(system, lam, bound, word, superpacking=False):
    make = generate_superpacking if superpacking else generate_packing
    return make(scaled(system(), lam), QuadExt(bound) / QuadExt(lam), max_word=word)


def _sqrt2_gasket():
    """The Apollonian system grown by sqrt(2): its bends are surds."""
    return scaled(apollonian_system(), QuadExt.sqrt(2))


_CASES = {
    "apollonian": (apollonian_system, 60, 600, False),
    "apollonian-sqrt2": (_sqrt2_gasket, 40, 600, False),
    "hexpyr-packing": (hexpyr_system, 40, 400, False),
    "hexpyr-super": (hexpyr_system, 30, 3, True),
}


def _oracle_certify(packing):
    bad = [r for r in packing.spheres if not r.vector.bend.is_rational_integer()]
    return not bad, bad[:10]


@pytest.mark.parametrize("lam, dtype", [(1, np.int64), (_BIG, object)], ids=["int64", "object"])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_consumers_match_the_quadext_views(name, lam, dtype):
    system, bound, word, superpacking = _CASES[name]
    p = _build(system, lam, bound, word, superpacking)
    assert p.codes.dtype == dtype
    report = certify_integral(p)
    assert (report.integral, report.witnesses) == _oracle_certify(p)
    assert p.bends_list() == sorted(r.vector.bend for r in p.spheres)
    text = serialize.dumps(p)
    assert text == oracle_dumps(p)
    again = serialize.loads(text)
    assert again.codes.dtype == dtype and np.array_equal(again.codes, p.codes)
    assert again.spheres == p.spheres
    # the same picture at the packing's own scale, and a moved crop of it
    w = float(lam)
    for vp in (Viewport(half_width=1.6 * w), Viewport((0.3 * w, -0.2 * w), 0.7 * w, 500, 1.5)):
        assert render_svg(p, vp, labels=True) == render_oracle.render_svg(p, vp, labels=True)


@pytest.mark.parametrize("lam", [1, Fraction(1, 3), _BIG], ids=["int64", "fractional", "object"])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_records_give_the_kernels_codes(name, lam):
    system, bound, word, superpacking = _CASES[name]
    p = _build(system, lam, bound, word, superpacking)
    q = Packing(p.spheres, p.saturated, p.bend_bound, p.max_word, p.generator_idx, p.dim,
                p.boundary_walls)
    assert q.codes.dtype == p.codes.dtype and np.array_equal(q.codes, p.codes)
    assert (q.d, q.word_lengths, q.parents) == (p.d, p.word_lengths, p.parents)
    assert q == p
    assert serialize.dumps(q) == serialize.dumps(p)


def test_field_of_rational_spheres_is_zero():
    # a surd bound puts the closure in Q(sqrt(3)), but every kept sphere is rational
    p = generate_packing(apollonian_system(), QuadExt.parse("20+5*sqrt(3)"), max_word=400)
    assert p.d == 0 and not p.codes[:, 1::2][:, :-1].any()


def test_bends_list_sorts_spheres_out_of_bend_order():
    p = generate_packing(hexpyr_system(), QuadExt(40), max_word=400)
    q = Packing(p.spheres[::-1], p.saturated, p.bend_bound, p.max_word, p.generator_idx, p.dim)
    assert q.bends_list() == p.bends_list() == sorted(r.vector.bend for r in p.spheres)


def test_spheres_is_a_read_only_view_of_the_codes():
    p = generate_packing(apollonian_system(), QuadExt(10), max_word=64)
    last = p.record(-1)
    assert p.spheres == p.spheres and p.spheres[-1] == last
    # an edit of either would leave dumps, render and certify reading one
    # thing and record() another
    with pytest.raises(TypeError):
        p.spheres[-1] = SphereRecord(p.spheres[0].vector, 0, None)
    with pytest.raises(ValueError):
        p.codes[-1, 2] += 1
    built = Packing(p.spheres, p.saturated, p.bend_bound, p.max_word, p.generator_idx, p.dim)
    assert isinstance(built.spheres, tuple) and not built.codes.flags.writeable
    assert [built.record(i) for i in range(len(built.codes))] == list(p.spheres)


def test_records_of_two_dimensions_are_refused():
    p = generate_packing(apollonian_system(), QuadExt(3), max_word=64)
    plane3 = InversiveVector(0, 0, (0, 0, 1))
    with pytest.raises(ParameterError, match="one dimension"):
        Packing([*p.spheres, SphereRecord(plane3, 1, None)], True, QuadExt(3), 64, (), 2)
    with pytest.raises(ParameterError, match="dim \\+ 2 = 5 coordinates"):
        Packing(p.spheres, True, QuadExt(3), 64, p.generator_idx, 3)


def test_q_check_on_int64_columns_falls_back_past_its_bound():
    # den = 2**32: in int64, -2 den^2 = -2**65 wraps to 0, the numerator of
    # Q(v) for the zero vector, so a wrapping check would accept it
    codes = np.array([[0] * 8 + [2**32], [0, 0, 0, 0, 3, 0, 4, 0, 5]], dtype=np.int64)
    assert q_is_minus_one(codes.T, 0).tolist() == [False, True]


def test_exact_order_on_int64_rows_falls_back_past_its_bound():
    # bends 1/2**33 and 2**31: in int64, 2**31 * 2**33 - 1 * 1 wraps to -1
    codes = np.array([[0, 0, 1, 0, 0, 0, 0, 0, 2**33], [0, 0, 2**31, 0, 0, 0, 0, 0, 1]], dtype=np.int64)
    assert packing._steps(codes, (2,), 0).tolist() == [1]
    assert packing._steps(codes[::-1], (2,), 0).tolist() == [-1]


def test_loader_names_an_off_quadric_sphere_on_the_object_path():
    p = _build(apollonian_system, _BIG, 60, 600)
    doc = json.loads(serialize.dumps(p))
    doc["spheres"][6]["cobend"] = "0"
    with pytest.raises(FormatError, match=r"^sphere 7: Q\(v\) = .* != -1$"):
        serialize.loads(json.dumps(doc))


def test_loader_refuses_spheres_in_two_fields():
    # sphere 4 is the first in Q(sqrt(3)); sphere 5 becomes a plane in Q(sqrt(2))
    doc = json.loads(serialize.dumps(generate_packing(hexpyr_system(), QuadExt(20), max_word=400)))
    doc["spheres"][4].update(cobend="0", bend="0", bz=["1/2*sqrt(2)", "1/2*sqrt(2)"])
    with pytest.raises(FormatError, match=r"^sphere 5: DiscMismatch: sqrt\(2\) vs sqrt\(3\)$"):
        serialize.loads(json.dumps(doc))
    # two fields in one vector are named in coordinate order, before the document's field
    doc["spheres"][0].update(cobend="0", bend="0", bz=["1/2*sqrt(2)", "1/2*sqrt(6)"])
    with pytest.raises(FormatError, match=r"^sphere 1: DiscMismatch: sqrt\(2\) vs sqrt\(6\)$"):
        serialize.loads(json.dumps(doc))
