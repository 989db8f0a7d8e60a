"""Deterministic SVG output for planar packings.

Coordinates are emitted with six decimals in sphere order, so identical
packings always produce byte-identical documents.

render_svg reads the packing's int codes and builds no QuadExt.  A circle's
centre bz_j / bend and radius 1 / bend are exact ratios of code entries,
(p + q sqrt(d)) (a - b sqrt(d)) / (a^2 - d b^2) for bz_j = p + q sqrt(d) and
bend = a + b sqrt(d) over the code's den, and each goes to float through
exactnum.triple_float, the conversion QuadExt.__float__ makes; as that
float depends only on the value, the SVG is the one the QuadExt centre and
radius give (tests/render_oracle.py).  A label is exactnum.triple_str of
the bend, the text str(QuadExt) gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

from .errors import PackingLabError, ParameterError
from .exactnum import triple_float, triple_str
from .packing import Packing


class UnsupportedDimension(PackingLabError):
    pass


@dataclass(frozen=True)
class Viewport:
    center: tuple[float, float] = (0.0, 0.0)
    half_width: float = 1.6
    size_px: int = 640
    min_radius_px: float = 0.5


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _clip_segment(p, q, size):
    # Liang-Barsky against the [0,size]^2 box
    t0, t1 = 0.0, 1.0
    dx, dy = q[0] - p[0], q[1] - p[1]
    for d, bound in ((-dx, p[0]), (dx, size - p[0]), (-dy, p[1]), (dy, size - p[1])):
        if d == 0.0:
            if bound < 0.0:
                return None
            continue
        t = bound / d
        if d < 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
    if t0 >= t1:
        return None
    return (
        (p[0] + t0 * dx, p[1] + t0 * dy),
        (p[0] + t1 * dx, p[1] + t1 * dy),
    )


def render_svg(
    packing: Packing,
    viewport: Viewport | None = None,
    labels: bool = False,
    stroke_width: float = 1.0,
) -> str:
    if packing.dim != 2:
        raise UnsupportedDimension(f"can only draw planar packings, got dim {packing.dim}")
    vp = viewport or Viewport()
    if not (0 < vp.half_width < inf and 0 < vp.size_px < inf):
        raise ParameterError(f"half_width and size_px must be positive and finite: {vp}")
    if not all(map(isfinite, (*vp.center, vp.min_radius_px, stroke_width))):
        raise ParameterError(
            f"center, min_radius_px and stroke_width must be finite: {vp}, {stroke_width=}"
        )
    size = float(vp.size_px)
    scale = size / (2.0 * vp.half_width)
    cx0, cy0 = vp.center

    def to_px(x: float, y: float) -> tuple[float, float]:
        return ((x - cx0 + vp.half_width) * scale, (cy0 + vp.half_width - y) * scale)

    shapes: list[str] = []
    texts: list[str] = []
    d = packing.d
    for row in packing.codes.tolist():
        den, (ca, cb, ba, bb), bz = row[-1], row[:4], row[4:-1]
        if not (ba or bb):  # a plane
            nx, ny = (triple_float(a, b, den, d) for a, b in zip(bz[0::2], bz[1::2]))
            offset = triple_float(ca, cb, den, d) / 2.0
            px, py = offset * nx, offset * ny
            reach = 4.0 * (vp.half_width + abs(px) + abs(py) + abs(cx0) + abs(cy0)) + 4.0
            a = to_px(px - reach * -ny, py - reach * nx)
            b = to_px(px + reach * -ny, py + reach * nx)
            clipped = _clip_segment(a, b, size)
            if clipped:
                (x1, y1), (x2, y2) = clipped
                shapes.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
                )
            continue
        # bz_j / bend = (p + q sqrt(d)) (ba - bb sqrt(d)) / (ba^2 - d bb^2) and
        # 1 / bend = den (ba - bb sqrt(d)) / (ba^2 - d bb^2), as exact ratios
        norm = ba * ba - d * bb * bb
        center = [
            triple_float(p * ba - d * q * bb, q * ba - p * bb, norm, d) for p, q in zip(bz[0::2], bz[1::2])
        ]
        r_px = abs(triple_float(den * ba, -den * bb, norm, d)) * scale
        if r_px < vp.min_radius_px:
            continue
        x_px, y_px = to_px(center[0], center[1])
        if x_px + r_px < 0 or x_px - r_px > size or y_px + r_px < 0 or y_px - r_px > size:
            continue
        shapes.append(f'<circle cx="{_fmt(x_px)}" cy="{_fmt(y_px)}" r="{_fmt(r_px)}"/>')
        if labels:
            label = triple_str(ba, bb, den, d)
            fs = max(4.0, min(0.9 * r_px, 1.8 * r_px / max(1, len(label))))
            texts.append(
                f'<text x="{_fmt(x_px)}" y="{_fmt(y_px)}" font-size="{_fmt(fs)}" '
                f'text-anchor="middle" dominant-baseline="central">{label}</text>'
            )

    px_str = _fmt(float(vp.size_px))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{vp.size_px}" height="{vp.size_px}" '
        f'viewBox="0 0 {px_str} {px_str}">',
        f'<rect width="{px_str}" height="{px_str}" fill="#ffffff"/>',
        f'<g fill="none" stroke="#1a1a1a" stroke-width="{_fmt(stroke_width)}">',
        *shapes,
        "</g>",
    ]
    if texts:
        lines.append('<g fill="#1a1a1a" font-family="monospace">')
        lines.extend(texts)
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
