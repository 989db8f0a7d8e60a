"""SVG rendering: determinism, filtering, labels."""

from fractions import Fraction

import pytest

import render_oracle
from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt, max_abs
from packinglab.fixtures import apollonian_system, hexpyr_system
from packinglab.inversive import plane_from_normal_offset, sphere_from_center_radius
from packinglab.orbit import Packing, SphereRecord, WallSystem, generate_packing, generate_superpacking
from packinglab.render import UnsupportedDimension, Viewport, render_svg

GASKET15 = generate_packing(apollonian_system(), QuadExt(15), max_word=64)


def test_empty_packing_is_valid_svg():
    empty = Packing(spheres=[], saturated=True, bend_bound=QuadExt(0), max_word=0,
                    generator_idx=(), dim=2)
    out = render_svg(empty)
    assert out.startswith('<?xml version="1.0"')
    assert out.endswith("</svg>\n")
    assert "<circle" not in out


def test_gasket_labels_show_exact_bends():
    out = render_svg(GASKET15, labels=True)
    for bend in ("-1", "2", "3", "6", "11", "14", "15"):
        assert f">{bend}</text>" in out


def test_byte_determinism():
    vp = Viewport(center=(0.1, -0.2), half_width=1.1, size_px=480)
    a = render_svg(GASKET15, vp, labels=True)
    b = render_svg(GASKET15, vp, labels=True)
    regenerated = generate_packing(apollonian_system(), QuadExt(15), max_word=64)
    c = render_svg(regenerated, vp, labels=True)
    assert a == b == c


def test_circle_count_matches_independent_filter():
    vp = Viewport(center=(0.4, 0.3), half_width=0.5, size_px=400, min_radius_px=2.0)
    out = render_svg(GASKET15, vp)
    scale = vp.size_px / (2.0 * vp.half_width)

    expected = 0
    for vec in GASKET15.vectors():
        if vec.is_plane():
            continue
        r_px = abs(float(vec.radius())) * scale
        if r_px < vp.min_radius_px:
            continue
        cx, cy = (float(c) for c in vec.center())
        x = (cx - vp.center[0] + vp.half_width) * scale
        y = (vp.center[1] + vp.half_width - cy) * scale
        if x + r_px < 0 or x - r_px > vp.size_px or y + r_px < 0 or y - r_px > vp.size_px:
            continue
        expected += 1

    assert out.count("<circle") == expected
    assert expected > 0


def test_min_radius_filters_small_circles():
    everything = render_svg(GASKET15, Viewport(min_radius_px=0.01))
    only_big = render_svg(GASKET15, Viewport(min_radius_px=150.0))
    assert only_big.count("<circle") < everything.count("<circle")
    assert only_big.count("<circle") >= 1  # the outer circle survives


def test_huge_min_radius_draws_nothing():
    assert render_svg(GASKET15, Viewport(min_radius_px=1e6)).count("<circle") == 0


def test_planes_render_as_clipped_lines():
    unit = sphere_from_center_radius((QuadExt(0), QuadExt(1)), QuadExt(1))
    axis = plane_from_normal_offset((QuadExt(0), QuadExt(1)), QuadExt(0))
    sysm = WallSystem(walls=(axis, unit), cluster_idx=(0, 1), cocluster_idx=())
    p = generate_packing(sysm, QuadExt(1), max_word=0)
    out = render_svg(p)
    assert out.count("<line") == 1
    assert out.count("<circle") == 1


def test_offscreen_line_is_dropped():
    far = plane_from_normal_offset((QuadExt(0), QuadExt(1)), QuadExt(50))
    sysm = WallSystem(walls=(far,), cluster_idx=(0,), cocluster_idx=())
    p = generate_packing(sysm, QuadExt(1), max_word=0)
    assert "<line" not in render_svg(p)


def test_non_planar_packing_rejected():
    p = Packing(spheres=[], saturated=True, bend_bound=QuadExt(0), max_word=0,
                generator_idx=(), dim=3)
    with pytest.raises(UnsupportedDimension):
        render_svg(p)


def _strip_system():
    """The Apollonian system inverted in the unit circle about (1, 0), the
    tangency point of two cluster circles: those two become parallel lines."""
    sysm = apollonian_system()
    inv = sphere_from_center_radius((1, 0), 1)
    return WallSystem([w.reflect(inv) for w in sysm.walls], sysm.cluster_idx, sysm.cocluster_idx)


_ORACLE_PACKINGS = {
    **{f"apollonian-{b}": (lambda b=b: generate_packing(apollonian_system(), QuadExt(b), max_word=600))
       for b in (1, 15, 100, 500)},
    "hexpyr-packing": lambda: generate_packing(hexpyr_system(), QuadExt(60), max_word=400),
    "hexpyr-super": lambda: generate_superpacking(hexpyr_system(), QuadExt(30), max_word=3),
    "strip-with-planes": lambda: generate_packing(_strip_system(), QuadExt(40), max_word=20),
}
_ORACLE_VIEWPORTS = [
    Viewport(),
    Viewport(center=(0.3, -0.2), half_width=0.7, size_px=500, min_radius_px=1.5),
    Viewport(center=(1.0, 0.5), half_width=3.0, size_px=320, min_radius_px=0.0),
]


@pytest.mark.parametrize("name", sorted(_ORACLE_PACKINGS))
def test_render_matches_the_float_oracle(name):
    p = _ORACLE_PACKINGS[name]()
    for vp in _ORACLE_VIEWPORTS:
        for labels in (False, True):
            assert render_svg(p, vp, labels=labels) == render_oracle.render_svg(p, vp, labels=labels)
    if name == "strip-with-planes":
        assert "<line" in render_svg(p, _ORACLE_VIEWPORTS[2])


def _shifted(packing, dx):
    """The packing's circles moved by dx along x, rebuilt from records."""
    records = []
    for rec in packing.spheres:
        (x, y), radius = rec.vector.center(), rec.vector.radius()
        moved = sphere_from_center_radius((x + dx, y), radius)
        records.append(SphereRecord(moved, rec.word_length, rec.parent_generator))
    return Packing(records, packing.saturated, packing.bend_bound, packing.max_word,
                   packing.generator_idx, packing.dim)


@pytest.mark.parametrize("dx", [Fraction(1, 3**12), Fraction(1, 3**40)],
                         ids=["int64-codes", "object-codes"])
def test_codes_past_2_53_match_the_float_oracle(dx):
    # a shift by 1/3^k puts 3^(2k) in every code's den, so the products pass
    # 2**53 and the columns run on Python ints, whether the codes are stored
    # as int64 (k = 12) or, past 2**63, as Python ints (k = 40)
    p = _shifted(_ORACLE_PACKINGS["apollonian-100"](), dx)
    assert max_abs(p.codes) ** 2 >= 2**53
    assert p.codes.dtype == (object if max_abs(p.codes) >= 2**63 else "int64")
    for vp in _ORACLE_VIEWPORTS:
        for labels in (False, True):
            assert render_svg(p, vp, labels=labels) == render_oracle.render_svg(p, vp, labels=labels)


def test_minus_zero_prints_as_zero_like_the_oracle():
    # the circle of radius 1/2 about (1/2, 0) has its centre a hair left of
    # the viewport's left edge, at -3.2e-7 px: "-0.000000", written 0.000000
    vp = Viewport(center=(1.5 + 1e-9, 0.0), half_width=1.0, size_px=320)
    scale = vp.size_px / (2.0 * vp.half_width)
    assert f"{(0.5 - vp.center[0] + vp.half_width) * scale:.6f}" == "-0.000000"
    out = render_svg(GASKET15, vp, labels=True)
    assert out == render_oracle.render_svg(GASKET15, vp, labels=True)
    assert '<circle cx="0.000000" cy="160.000000"' in out
    assert "-0.000000" not in out


@pytest.mark.parametrize("width", [-1.0, -1e-9])
def test_negative_stroke_width_is_refused(width):
    with pytest.raises(ParameterError, match="stroke_width must not be negative"):
        render_svg(GASKET15, stroke_width=width)


_HUGE = 10**400


@pytest.mark.parametrize(
    "viewport, stroke_width",
    [
        (Viewport(size_px=_HUGE), 1.0),
        (Viewport(half_width=_HUGE), 1.0),
        (Viewport(center=(0.0, -_HUGE)), 1.0),
        (Viewport(min_radius_px=_HUGE), 1.0),
        (Viewport(), _HUGE),
    ],
    ids=["size_px", "half_width", "center", "min_radius_px", "stroke_width"],
)
def test_value_past_float_range_is_refused(viewport, stroke_width):
    with pytest.raises(ParameterError, match="must be in the float range"):
        render_svg(GASKET15, viewport, stroke_width=stroke_width)


@pytest.mark.parametrize(
    "viewport",
    [Viewport(half_width=1e-320), Viewport(half_width=1e308), Viewport(center=(1e308, 0.0))],
    ids=["scale", "half_width", "center"],
)
def test_viewport_past_float_range_in_pixels_is_refused(viewport):
    # its pixel scale or its extent overflows: a circle or a plane would be
    # drawn at nan or inf
    strip = _ORACLE_PACKINGS["strip-with-planes"]()
    with pytest.raises(ParameterError, match="pixel scale and extent must be finite"):
        render_svg(strip, viewport)


def test_zero_stroke_width_is_drawn():
    assert 'stroke-width="0.000000"' in render_svg(GASKET15, stroke_width=0.0)
