"""Deterministic SVG rendering of semantic maps.

No raster dependencies: scatter points colored by means, contour
overlays per probability level, optional NULL-count heat layer. Element
order is fixed and coordinates print with three decimals so identical
inputs yield identical bytes.
"""

from __future__ import annotations

import numpy as np

from .align import NULL_MARKER

__all__ = ["render_map"]

# color-blind-safe cycle (Okabe-Ito), NULL always grey
PALETTE = (
    "#0072b2", "#d55e00", "#009e73", "#cc79a7",
    "#e69f00", "#56b4e9", "#f0e442", "#000000",
)
NULL_COLOR = "#999999"

WIDTH = 720
HEIGHT = 560
MARGIN = 40


def _scale(points: np.ndarray):
    x0, y0 = points.min(axis=0)
    x1, y1 = points.max(axis=0)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0

    def to_px(p) -> np.ndarray:
        """Pixel coordinates of each row of an (m, 2) array of map coordinates."""
        p = np.asarray(p, dtype=float)
        x = MARGIN + (p[:, 0] - x0) / spanx * (WIDTH - 2 * MARGIN)
        # svg y grows downward
        y = HEIGHT - MARGIN - (p[:, 1] - y0) / spany * (HEIGHT - 2 * MARGIN)
        return np.column_stack([x, y])

    return to_px


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape, without importing it: that module pulls in
    # urllib.request, tens of ms and several MB in every process
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_map(points, column, contours_by_means=None, heat=None,
               title: str = "", comment: str = "") -> str:
    """Build the SVG document for one doculect's map.

    ``column`` is the doculect's (codes, sorted labels), as
    ``ParallelUsageMatrix.coded`` gives it, with NULL named by
    ``NULL_MARKER``; the legend lists its labels in order.
    ``contours_by_means`` maps a means label to {level: [polygons]};
    ``heat`` (per-point counts) switches the scatter to a warm/cold fill
    by count.
    """
    pts = np.asarray(points, dtype=float)
    to_px = _scale(pts)
    codes, means_order = column
    color_of = {}
    ci = 0
    for m in means_order:
        if m == NULL_MARKER:
            color_of[m] = NULL_COLOR
        else:
            color_of[m] = PALETTE[ci % len(PALETTE)]
            ci += 1

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
    ]
    if comment:
        out.append(f"<!-- {comment} -->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{MARGIN}" y="24" font-family="sans-serif" '
            f'font-size="16">{_escape(title)}</text>'
        )

    if heat is not None:
        top = max(max(heat), 1)
        for (x, y), h in zip(to_px(pts).tolist(), heat):
            # warm red for many NULLs, cold blue for few
            frac = h / top
            r = int(40 + 215 * frac)
            b = int(255 - 215 * frac)
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" '
                f'fill="rgb({r},60,{b})"/>'
            )
    else:
        fills = [color_of[m] for m in means_order]
        for (x, y), code in zip(to_px(pts).tolist(), codes.tolist()):
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" '
                f'fill="{fills[code]}" fill-opacity="0.75"/>'
            )

    if contours_by_means:
        for m in sorted(contours_by_means):
            color = color_of.get(m, NULL_COLOR if m == NULL_MARKER else PALETTE[0])
            level_map = contours_by_means[m]
            for level in sorted(level_map, reverse=True):
                for poly in level_map[level]:
                    px = to_px(poly)
                    coords = " ".join(["%.3f,%.3f"] * len(px)) % tuple(px.ravel().tolist())
                    out.append(
                        f'<polygon points="{coords}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5" '
                        f'stroke-opacity="{_fmt(0.4 + 0.2 * level)}">'
                        f'<title>{_escape(m)} @ {level:g}</title></polygon>'
                    )

    # legend
    ly = MARGIN
    for m in means_order:
        out.append(
            f'<rect x="{WIDTH - 150}" y="{ly}" width="12" height="12" '
            f'fill="{color_of[m]}"/>'
        )
        out.append(
            f'<text x="{WIDTH - 132}" y="{ly + 11}" font-family="sans-serif" '
            f'font-size="12">{_escape(m)}</text>'
        )
        ly += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"
