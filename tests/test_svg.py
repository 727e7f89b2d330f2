import xml.etree.ElementTree as ET

import numpy as np
import pytest

from semmap.align import NULL_MARKER
from semmap.pivot import code_labels
from semmap.surfaces import DEFAULT_LEVELS, KrigSurface, contour
from semmap.svg import HEIGHT, MARGIN, NULL_COLOR, PALETTE, WIDTH, render_map


# The per-vertex renderer the array version replaced: every point is mapped
# to pixels and formatted on its own.

def render_map_oracle(points, labels, contours_by_means=None, heat=None,
                      title="", comment=""):
    pts = np.asarray(points, dtype=float)
    labels = ["NULL" if lab is None else lab for lab in labels]
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0

    def to_px(p):
        x = MARGIN + (p[0] - x0) / spanx * (WIDTH - 2 * MARGIN)
        y = HEIGHT - MARGIN - (p[1] - y0) / spany * (HEIGHT - 2 * MARGIN)
        return x, y

    def fmt(v):
        return f"{v:.3f}"

    means_order = sorted(set(labels))
    color_of = {}
    ci = 0
    for m in means_order:
        if m == "NULL":
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
        out.append(f'<text x="{MARGIN}" y="24" font-family="sans-serif" '
                   f'font-size="16">{title}</text>')
    if heat is not None:
        top = max(max(heat), 1)
        for p, h in zip(pts, heat):
            x, y = to_px(p)
            frac = h / top
            r = int(40 + 215 * frac)
            b = int(255 - 215 * frac)
            out.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="3.0" '
                       f'fill="rgb({r},60,{b})"/>')
    else:
        for p, lab in zip(pts, labels):
            x, y = to_px(p)
            out.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="3.0" '
                       f'fill="{color_of[lab]}" fill-opacity="0.75"/>')
    if contours_by_means:
        for m in sorted(contours_by_means):
            color = color_of.get(m, NULL_COLOR if m == "NULL" else PALETTE[0])
            level_map = contours_by_means[m]
            for level in sorted(level_map, reverse=True):
                for poly in level_map[level]:
                    coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in (to_px(p) for p in poly))
                    out.append(f'<polygon points="{coords}" fill="none" '
                               f'stroke="{color}" stroke-width="1.5" '
                               f'stroke-opacity="{fmt(0.4 + 0.2 * level)}">'
                               f'<title>{m} @ {level:g}</title></polygon>')
    ly = MARGIN
    for m in means_order:
        out.append(f'<rect x="{WIDTH - 150}" y="{ly}" width="12" height="12" '
                   f'fill="{color_of[m]}"/>')
        out.append(f'<text x="{WIDTH - 132}" y="{ly + 11}" font-family="sans-serif" '
                   f'font-size="12">{m}</text>')
        ly += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"


def unit_points():
    # x spans exactly 1 and y exactly 2, so a pixel is 40 + 640 x and
    # 520 - 240 y; the vertices below land near a rounding step at the
    # third decimal, and some lie left of or below every point
    rng = np.random.default_rng(41)
    pts = rng.uniform(0.0, 1.0, size=(40, 2)) * [1.0, 2.0] - [0.0, 1.0]
    pts[:2] = [[0.0, -1.0], [1.0, 1.0]]
    return pts


def rounding_polygon(k):
    steps = np.arange(k, k + 6)
    x = (steps + np.array([0.0005, 0.0015, -0.0005, 0.00049, 0.00051, 0.0025])) / 640.0
    y = (steps + np.array([0.0015, 0.0005, -0.0025, 0.00051, 0.00049, 0.0005])) / 240.0 - 1.0
    return np.column_stack([x, y])


def map_contours():
    xs = np.linspace(-0.2, 1.2, 30)
    ys = np.linspace(-1.3, 1.3, 30)
    gx, gy = np.meshgrid(xs, ys)
    surf = KrigSurface(xs, ys, np.exp(-((gx - 0.5) ** 2 + gy ** 2) * 4), DEFAULT_LEVELS)
    return {
        "kai": {level: contour(surf, level) for level in DEFAULT_LEVELS},
        # negative pixels, and a means not among the labels
        "ote": {0.29: [rounding_polygon(-80), rounding_polygon(3)], 0.35: []},
        # a NULL means with no polygons at any level
        "NULL": {level: [] for level in DEFAULT_LEVELS},
        "hote": {0.32: [np.array([[-0.0, -0.0], [0.25, -1.0], [0.5, -0.0]])]},
    }


@pytest.mark.parametrize("with_contours", [False, True])
def test_render_map_matches_per_vertex_oracle(with_contours):
    pts = unit_points()
    labels = [("kai", "hote", NULL_MARKER, "ote")[i % 4] for i in range(len(pts))]
    contours = map_contours() if with_contours else None
    kwargs = dict(title="deu (Germanic)", comment="run abc seed=13")
    assert (render_map(pts, code_labels(labels), contours, **kwargs)
            == render_map_oracle(pts, labels, contours, **kwargs))


def test_heat_map_matches_per_vertex_oracle():
    pts = unit_points()
    heat = [(7 * i) % 11 for i in range(len(pts))]
    labels = [NULL_MARKER] * len(pts)
    assert (render_map(pts, code_labels(labels), heat=heat, title="nulls")
            == render_map_oracle(pts, labels, heat=heat, title="nulls"))


def test_degenerate_extent_matches_per_vertex_oracle():
    # every point on one vertical line: the x extent falls back to 1
    pts = np.column_stack([np.full(6, -3.0), np.linspace(-1.0, 1.0, 6)])
    labels = ["a", "b"] * 3
    contours = {"a": {0.29: [np.array([[-3.0005, 0.0], [-2.9995, 0.5], [-3.0, -0.0]])]}}
    assert render_map(pts, code_labels(labels), contours) == render_map_oracle(pts, labels, contours)


def test_markup_in_title_and_labels_is_escaped():
    # normalize keeps "<", ">" and inner "&" in tokens, and family names may hold "&"
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    labels = ["x&y", "<c>", NULL_MARKER, "x&y"]
    contours = {"<c>": {0.29: [np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])]}}
    root = ET.fromstring(render_map(pts, code_labels(labels), contours, title="A & B"))
    ns = "{http://www.w3.org/2000/svg}"
    texts = [t.text for t in root.iter(f"{ns}text")]
    assert texts == ["A & B", "<c>", NULL_MARKER, "x&y"]
    assert [t.text for t in root.iter(f"{ns}title")] == ["<c> @ 0.29"]
