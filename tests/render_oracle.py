"""SVG output as packinglab first drew it, as an oracle.

This is the drawing loop `render.render_svg` used before it read the int
code: every sphere is an InversiveVector, its centre and radius are the
QuadExt values `InversiveVector.center()` and `radius()`, and each is drawn
through `float()`.  The writer under test computes the same ratios on the
code's ints; the two must give the same text, byte for byte.  The viewport
checks and the shared formatting and clipping helpers are not under test.
"""

from packinglab.render import Viewport, _clip_segment, _fmt


def render_svg(packing, viewport=None, labels=False, stroke_width=1.0):
    vp = viewport or Viewport()
    size = float(vp.size_px)
    scale = size / (2.0 * vp.half_width)
    cx0, cy0 = vp.center

    def to_px(x, y):
        return ((x - cx0 + vp.half_width) * scale, (cy0 + vp.half_width - y) * scale)

    shapes, texts = [], []
    for vec in packing.vectors():
        if vec.is_plane():
            nx, ny = (float(c) for c in vec.bz)
            offset = float(vec.cobend) / 2.0
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
        center = [float(c) for c in vec.center()]
        r_px = abs(float(vec.radius())) * scale
        if r_px < vp.min_radius_px:
            continue
        x_px, y_px = to_px(center[0], center[1])
        if x_px + r_px < 0 or x_px - r_px > size or y_px + r_px < 0 or y_px - r_px > size:
            continue
        shapes.append(f'<circle cx="{_fmt(x_px)}" cy="{_fmt(y_px)}" r="{_fmt(r_px)}"/>')
        if labels:
            label = str(vec.bend)
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
