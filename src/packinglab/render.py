"""Deterministic SVG output for planar packings.

Coordinates are emitted with six decimals in sphere order, so identical
packings always produce byte-identical documents.

render_svg reads the packing's int codes and builds no QuadExt.  A circle's
centre bz_j / bend and radius 1 / bend are exact ratios of code entries,
(p + q sqrt(d)) (a - b sqrt(d)) / (a^2 - d b^2) for bz_j = p + q sqrt(d) and
bend = a + b sqrt(d) over the code's den.  The circles are computed column
by column for the whole packing at once: the ratios, the pixel coordinates,
the cull by min_radius_px and the viewport, and the label font sizes.  Each
ratio goes to float as exactnum.triple_float converts it (the conversion
QuadExt.__float__ makes), a / q plus (b / q) sqrt(d) where b != 0, each an
int true division.  The columns run in int64 when (1 + d) M^2 < 2**53 for M
the largest |code entry|, so every product is exact and converts to float
exactly and numpy's int64 division rounds as Python's does; otherwise the
same expressions run on Python ints in dtype=object arrays.  As the float
depends only on the value, the SVG is the one the QuadExt centre and radius
give (tests/render_oracle.py).  A kept circle is one % format, its x and y
text shared with its label; a label is exactnum.triple_str of the bend, the
text str(QuadExt) gives, made once per distinct bend.  Planes are drawn row
by row as clipped lines and merged back in sphere order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, sqrt

import numpy as np

from .errors import PackingLabError, ParameterError
from .exactnum import max_abs, triple_float, triple_str
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
    try:
        half_width, size, min_radius_px, stroke_width, cx0, cy0 = map(
            float, (vp.half_width, vp.size_px, vp.min_radius_px, stroke_width, *vp.center)
        )
    except OverflowError:
        raise ParameterError(
            "half_width, size_px, center, min_radius_px and stroke_width must be in the float range"
        ) from None
    if not (0 < half_width < inf and 0 < size < inf):
        raise ParameterError(f"half_width and size_px must be positive and finite: {vp}")
    if not all(map(isfinite, (cx0, cy0, min_radius_px, stroke_width))):
        raise ParameterError(
            f"center, min_radius_px and stroke_width must be finite: {vp}, {stroke_width=}"
        )
    if stroke_width < 0:
        raise ParameterError(f"stroke_width must not be negative, got {stroke_width}")
    scale = size / (2.0 * half_width)
    if not (isfinite(scale) and isfinite(4.0 * (half_width + abs(cx0) + abs(cy0)) + 4.0)):
        raise ParameterError(f"the viewport's pixel scale and extent must be finite: {vp}")

    def to_px(x, y):
        return ((x - cx0 + half_width) * scale, (cy0 + half_width - y) * scale)

    codes, d = packing.codes, packing.d
    plane = (codes[:, 2] == 0) & (codes[:, 3] == 0)
    plane_lines = {}
    for i, row in zip(np.flatnonzero(plane).tolist(), codes[plane].tolist()):
        den, (ca, cb), bz = row[-1], row[:2], row[4:-1]
        nx, ny = (triple_float(a, b, den, d) for a, b in zip(bz[0::2], bz[1::2]))
        offset = triple_float(ca, cb, den, d) / 2.0
        px, py = offset * nx, offset * ny
        reach = 4.0 * (half_width + abs(px) + abs(py) + abs(cx0) + abs(cy0)) + 4.0
        a = to_px(px - reach * -ny, py - reach * nx)
        b = to_px(px + reach * -ny, py + reach * nx)
        clipped = _clip_segment(a, b, size)
        if clipped:
            (x1, y1), (x2, y2) = clipped
            plane_lines[i] = (
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
            )

    # the circles, column by column: bz_j / bend = (p + q sqrt(d)) (ba - bb
    # sqrt(d)) / norm and 1 / bend = den (ba - bb sqrt(d)) / norm for norm =
    # ba^2 - d bb^2, every product at most (1 + d) M^2 for M the largest
    # |entry|; under 2**53 each is exact in int64 and as a float
    rows = np.flatnonzero(~plane)
    c = codes[rows]
    if (1 + d) * max_abs(codes) ** 2 >= 2**53:
        c = c.astype(object)
    ba, bb, den = c[:, 2], c[:, 3], c[:, -1]
    norm = ba * ba - d * bb * bb
    center = [
        _ratios(p * ba - d * q * bb, q * ba - p * bb, norm, d)
        for p, q in zip(c[:, 4:-1:2].T, c[:, 5:-1:2].T)
    ]
    r = np.abs(_ratios(den * ba, -den * bb, norm, d)) * scale
    x, y = to_px(*center)
    keep = ~(r < min_radius_px) & ~((x + r < 0) | (x - r > size) | (y + r < 0) | (y - r > size))
    rows, x, y, r = rows[keep], x[keep], y[keep], r[keep]
    # as _fmt writes them: every |v| <= 5e-7 (the double just under 5e-7)
    # prints as 0.000000 or -0.000000, and is written 0.000000
    xs, ys = (["%.6f" % v for v in np.where(np.abs(v) <= 5e-7, 0.0, v).tolist()] for v in (x, y))
    shapes = ['<circle cx="%s" cy="%s" r="%.6f"/>' % t for t in zip(xs, ys, r.tolist())]
    if plane_lines:  # back in sphere order
        at = dict(zip(rows.tolist(), shapes)) | plane_lines
        shapes = [at[i] for i in sorted(at)]
    texts = []
    if labels:
        keys = list(map(tuple, c[keep][:, [2, 3, -1]].tolist()))
        text = {k: triple_str(*k, d) for k in set(keys)}
        label = [text[k] for k in keys]
        fs = np.maximum(4.0, np.minimum(0.9 * r, 1.8 * r / np.array([len(t) for t in label])))
        texts = [
            '<text x="%s" y="%s" font-size="%.6f" text-anchor="middle" '
            'dominant-baseline="central">%s</text>' % t
            for t in zip(xs, ys, fs.tolist(), label)
        ]

    px_str = _fmt(size)
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


def _ratios(a, b, q, d):
    """exactnum.triple_float on columns: a / q, plus (b / q) sqrt(d) where
    b != 0, each an int true division (int64 or Python ints), correctly
    rounded."""
    out = np.asarray(a / q, dtype=float)
    surd = b != 0
    if surd.any():
        out[surd] += np.asarray(b[surd] / q[surd], dtype=float) * sqrt(d)
    return out
