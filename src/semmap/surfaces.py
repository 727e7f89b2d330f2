"""Kriging probability surfaces over the embedded map and their contours.

Each surface interpolates the indicator of one linguistic means for one
doculect by ordinary kriging with an exponential covariance, on a square
lattice over the map's bounding box padded by 5%. sigma^2 scales out of
the kriging system, so every surface over the same points shares one
system: ``fit_surfaces`` solves it once, in dual form, against all the
indicators, and each node's value is its covariances to the points times
the solved coefficients, with no per-node weights. Contours at fixed
probability levels become closed polygons used for containment tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tsv
from .align import NULL_MARKER

__all__ = [
    "SurfaceError",
    "KrigSurface",
    "fit_surface",
    "fit_surfaces",
    "contour",
    "contains",
    "null_heat",
    "DEFAULT_LEVELS",
]

DEFAULT_LEVELS = (0.35, 0.32, 0.29)
PAD_FRACTION = 0.05
# diagonal jitters, as multiples of sigma^2, tried until a kriging solve
# comes out finite
_JITTERS = (0.0, 1e-8, 1e-6)
# locations per block of the location-point covariance; bounds its
# (locations, points, 2) temporaries whatever the grid size
_NODE_CHUNK = 1024
# polygon edges per block of the batched containment test; bounds its
# (points, edges) temporaries whatever the polygon size
_EDGE_CHUNK = 128


class SurfaceError(ValueError):
    pass


@dataclass
class KrigSurface:
    means_label: str
    xs: np.ndarray
    ys: np.ndarray
    prob: np.ndarray              # shape (len(ys), len(xs)), clamped to [0, 1]
    levels: tuple[float, ...]
    contours: dict[float, list[np.ndarray]] = field(default_factory=dict)

    def grid_to_tsv(self, header: str | None = None) -> str:
        xs = [f"{x:.6f}" for x in self.xs.tolist()]
        lines = [tsv.format_rows([("x", "y", "prob")], header)]
        for y, probs in zip(self.ys.tolist(), self.prob.tolist()):
            fy = f"{y:.6f}"
            lines += [f"{fx}\t{fy}\t{p:.6f}\n" for fx, p in zip(xs, probs)]
        return "".join(lines)

    def contours_to_tsv(self, header: str | None = None) -> str:
        lines = [tsv.format_rows([("level", "polygon", "x", "y")], header)]
        for level in self.levels:
            for pi, poly in enumerate(self.contours.get(level, [])):
                head = f"{level:g}\t{pi}"
                lines += [f"{head}\t{x:.6f}\t{y:.6f}\n" for x, y in poly.tolist()]
        return "".join(lines)


def fit_surface(points, labels, target_means: str, grid: int = 200,
                levels: tuple[float, ...] = DEFAULT_LEVELS,
                rho: float | None = None, nugget_frac: float = 0.05) -> KrigSurface:
    """Ordinary kriging of the indicator for one means: ``fit_surfaces`` of one column.

    The indicator is 1 where a point's label equals ``target_means`` and
    0 elsewhere (NULL is the label ``NULL_MARKER``, which may be targeted
    like any other means). The covariance is
    sigma^2 * exp(-h / rho) with a nugget of ``nugget_frac * sigma^2``;
    rho defaults to the median pairwise distance between the labeled
    points. Predictions are clamped to [0, 1].
    """
    surfs = fit_surfaces(points, {"": labels}, grid, levels, rho, nugget_frac)[""]
    if target_means not in surfs:
        raise SurfaceError(f"target means {target_means!r} never occurs")
    return surfs[target_means]


def fit_surfaces(points, columns, grid: int = 200,
                 levels: tuple[float, ...] = DEFAULT_LEVELS,
                 rho: float | None = None,
                 nugget_frac: float = 0.05) -> dict[str, dict[str, KrigSurface]]:
    """One surface per means attested in each column, over one kriging system.

    ``columns`` maps a key (a doculect's iso) to one label per point.
    The system is solved once, against the indicators of every column's
    means in sorted order; returns ``{key: {means: surface}}``. Too few
    or coincident points, labels that do not cover every point, or a
    system no jitter makes solvable raise ``SurfaceError`` for the whole
    call.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise SurfaceError("points must be an (n, 2) array")
    n = pts.shape[0]
    if n < 5:
        raise SurfaceError(f"need at least 5 labeled points, got {n}")
    if any(len(col) != n for col in columns.values()):
        raise SurfaceError(f"labels must cover every point, one label for each of {n}")
    fields = [(key, m) for key, col in columns.items() for m in sorted(set(col))]
    z = np.array([[1.0 if lab == m else 0.0 for lab in columns[key]]
                  for key, m in fields]).reshape(len(fields), n)
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0
    xs = np.linspace(x0 - PAD_FRACTION * spanx, x1 + PAD_FRACTION * spanx, grid)
    ys = np.linspace(y0 - PAD_FRACTION * spany, y1 + PAD_FRACTION * spany, grid)
    gx, gy = np.meshgrid(xs, ys)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    probs = _krige(pts, z, nodes, rho, nugget_frac)
    np.clip(probs, 0.0, 1.0, out=probs)
    surfs: dict[str, dict[str, KrigSurface]] = {key: {} for key in columns}
    for (key, m), prob in zip(fields, probs):
        surf = KrigSurface(means_label=m, xs=xs, ys=ys, prob=prob.reshape(len(ys), len(xs)),
                           levels=tuple(levels))
        for level in levels:
            surf.contours[level] = contour(surf, level)
        surfs[key][m] = surf
    return surfs


def _krige(pts: np.ndarray, z: np.ndarray, nodes: np.ndarray, rho: float | None,
           nugget_frac: float) -> np.ndarray:
    """Ordinary-kriging predictions of the fields ``z`` at ``nodes``, in dual form.

    ``z`` holds one field per row over the ``n`` points. The (n+1)-square
    system of exponential covariances plus the Lagrange row, with
    sigma^2 = 1 (it scales out), is solved once against every field,
    adding the diagonal jitters in ``_JITTERS`` in turn until the
    solution is finite. A node's value of a field is the node's
    covariances to the points times the field's coefficients, plus its
    Lagrange coefficient (the dual form, Cressie 1993), for
    ``_NODE_CHUNK`` nodes at a time. Returns (len(z), len(nodes)) values.
    """
    n = pts.shape[0]
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if rho is None:
        rho = float(np.median(dists[np.triu_indices(n, k=1)]))
        if rho <= 0.0:
            raise SurfaceError("degenerate configuration: the points coincide")
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.exp(-dists / rho) + nugget_frac * np.eye(n)
    a[n, :n] = 1.0
    a[:n, n] = 1.0
    rhs = np.zeros((n + 1, z.shape[0]))
    rhs[:n] = z.T

    for jitter in _JITTERS:
        aj = a.copy()
        aj[:n, :n] += jitter * np.eye(n)
        try:
            coef = np.linalg.solve(aj, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(coef)):
            break
    else:
        raise SurfaceError("degenerate configuration: no jitter makes the kriging system solvable")

    out = np.empty((z.shape[0], nodes.shape[0]))
    for lo in range(0, nodes.shape[0], _NODE_CHUNK):
        block = nodes[lo:lo + _NODE_CHUNK]
        d = np.sqrt(((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        out[:, lo:lo + _NODE_CHUNK] = coef[:n].T @ np.exp(-d.T / rho) + coef[n][:, None]
    return out


# ---------------------------------------------------------------------------
# marching squares


# segment edge pairs per case code and per whether the cell centre is
# inside, which only the saddle cases 5 and 10 depend on; oriented with the
# inside region on the left, (-1, -1) where a cell has no second segment;
# corners: 0 bottom-left, 1 bottom-right, 2 top-right, 3 top-left;
# edges: 0 bottom, 1 right, 2 top, 3 left
def _edge_pairs() -> np.ndarray:
    single = {
        1: (3, 0), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2), 7: (3, 2),
        8: (2, 3), 9: (2, 0), 11: (2, 1), 12: (1, 3), 13: (1, 0), 14: (0, 3),
    }
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for code, pair in single.items():
        table[code, :, 0] = pair
    table[5] = [[(3, 0), (1, 2)], [(3, 2), (1, 0)]]
    table[10] = [[(0, 1), (2, 3)], [(0, 3), (2, 1)]]
    return table


_EDGE_PAIRS = _edge_pairs()
# column and row offsets of corners 0-3 from a cell's bottom-left node
_CORNER_DX = np.array([0, 1, 1, 0])
_CORNER_DY = np.array([0, 0, 1, 1])


def contour(surface: KrigSurface, level: float) -> list[np.ndarray]:
    """Closed iso-polygons of the probability field at one level.

    Marching squares runs over the grid extended by one below-level ring,
    so every iso-line closes; segments that leave the map are clamped to
    the bounding box, which closes boundary-clipped regions along the
    boundary. Vertices on the level are treated as inside. Polygons
    follow the order of their first segment, cells being visited in
    row-major order.
    """
    if not 0.0 < level < 1.0:
        raise SurfaceError("level must be in (0, 1)")
    starts, ends, edges = _segments(surface, level)
    chains, _ = _assemble(starts, ends, edges)
    lo = (surface.xs[0], surface.ys[0])
    hi = (surface.xs[-1], surface.ys[-1])
    starts, ends = np.clip(starts, lo, hi), np.clip(ends, lo, hi)
    polys = []
    for chain in chains:
        # the first segment's start, then the end of every segment but the
        # last, which returns to that start
        poly = _dedupe(np.concatenate([starts[chain[:1]], ends[chain[:-1]]]))
        if poly.shape[0] >= 3:
            polys.append(poly)
    return polys


def _segments(surface: KrigSurface,
              level: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level's iso-segments: start points, end points and lattice edges.

    Starts and ends are (m, 2) arrays; row i of the (m, 2) int array of
    edges names the lattice edges segment i starts and ends on.
    Case codes, edge crossings and segments are computed for all cells at
    once; segments come in row-major cell order, the two of a saddle cell
    in table order.
    """
    xs, ys, prob = surface.xs, surface.ys, surface.prob
    gx = np.concatenate([[2 * xs[0] - xs[1]], xs, [2 * xs[-1] - xs[-2]]])
    gy = np.concatenate([[2 * ys[0] - ys[1]], ys, [2 * ys[-1] - ys[-2]]])
    vals = np.full((len(gy), len(gx)), level - 1.0)
    vals[1:-1, 1:-1] = prob

    inside = vals >= level
    code = (inside[:-1, :-1] + 2 * inside[:-1, 1:]
            + 4 * inside[1:, 1:] + 8 * inside[1:, :-1])
    iy, ix = np.nonzero((code != 0) & (code != 15))
    centre_in = (vals[iy, ix] + vals[iy, ix + 1] + vals[iy + 1, ix + 1]
                 + vals[iy + 1, ix]) / 4.0 >= level
    pairs = _EDGE_PAIRS[code[iy, ix], centre_in.astype(np.intp)]
    cell, k = np.nonzero(pairs[:, :, 0] >= 0)
    m = cell.shape[0]
    # the cell edge of every segment's start, then of every segment's end;
    # edge e runs from corner a = e to corner b = e + 1, across the level
    e = pairs[cell, k].T.ravel()
    cell = np.concatenate([cell, cell])
    ax, ay = ix[cell] + _CORNER_DX[e], iy[cell] + _CORNER_DY[e]
    bx, by = ix[cell] + _CORNER_DX[(e + 1) % 4], iy[cell] + _CORNER_DY[(e + 1) % 4]
    va = vals[ay, ax]
    t = (level - va) / (vals[by, bx] - va)
    pts = np.column_stack([gx[ax] + t * (gx[bx] - gx[ax]), gy[ay] + t * (gy[by] - gy[ay])])
    # a lattice edge is named by its lower node and whether it is vertical
    a, b = ay * len(gx) + ax, by * len(gx) + bx
    edges = 2 * np.minimum(a, b) + (ax == bx)
    return pts[:m], pts[m:], edges.reshape(2, m).T


def _assemble(starts: np.ndarray, ends: np.ndarray,
              edges: np.ndarray) -> tuple[list[list[int]], int]:
    """Segment-index chains that close, and the number of chains that do not.

    Two points meet when they lie on the same lattice edge (``edges``, as
    from ``_segments``), or when both coordinates round, half to even, to
    the same multiple of span * 1e-9, span being the largest absolute
    coordinate (at least 1). Each unused segment in turn starts a chain,
    which takes the first unused segment starting where it ends until it
    returns to its start. A chain no segment continues is open and dropped
    (the padded ring makes that impossible); closed chains of fewer than
    three segments are dropped too.
    """
    m = starts.shape[0]
    if m == 0:
        return [], 0
    scale = max(float(np.abs(starts).max()), float(np.abs(ends).max()), 1.0) * 1e-9
    # |coordinate / scale| is at most ~1e9 < 2**31, so both keys pack into one int64
    keys = np.rint(np.concatenate([starts, ends]) / scale).astype(np.int64)
    packed = keys[:, 0] * (1 << 32) + keys[:, 1]
    # the two cells sharing a lattice edge interpolate its crossing from
    # opposite corners, and the last bit they differ in can round to another
    # key; every point on an edge takes the key of the edge's first point
    _, first, copy = np.unique(edges.T.ravel(), return_index=True, return_inverse=True)
    nodes, node = np.unique(packed[first][copy], return_inverse=True)
    # segments grouped by start node, in segment order within a node
    order = np.argsort(node[:m], kind="stable")
    bounds = np.searchsorted(node[:m][order], np.arange(len(nodes) + 1))
    src, dst, order = node[:m].tolist(), node[m:].tolist(), order.tolist()
    # per node, the position in ``order`` before which every segment is used
    head, stop = bounds[:-1].tolist(), bounds[1:].tolist()
    used = [False] * m
    chains, n_open = [], 0
    for i in range(m):
        if used[i]:
            continue
        used[i] = True
        chain = [i]
        at = dst[i]
        while at != src[i]:
            h = head[at]
            while h < stop[at] and used[order[h]]:
                h += 1
            head[at] = h
            if h == stop[at]:
                break
            j = order[h]
            used[j] = True
            chain.append(j)
            at = dst[j]
        if at != src[i]:
            n_open += 1
        elif len(chain) >= 3:
            chains.append(chain)
    return chains, n_open


def _dedupe(arr: np.ndarray) -> np.ndarray:
    """The polygon without repeated vertices.

    A vertex is dropped when both its coordinates lie within span * 1e-12
    of the last vertex kept (span: the largest absolute coordinate, at
    least 1), and trailing vertices within that of the first are dropped.
    """
    span = max(float(np.abs(arr).max()), 1.0)
    tol = span * 1e-12
    step = np.abs(np.diff(arr, axis=0)) > tol
    keep = np.concatenate([[True], step[:, 0] | step[:, 1]])
    kept = np.flatnonzero(keep).tolist()
    if len(kept) < len(arr):
        # comparing with the predecessor is comparing with the last kept
        # vertex unless a run of dropped vertices drifts; then take the loop
        last = np.maximum.accumulate(np.where(keep, np.arange(len(arr)), 0))
        drift = np.abs(arr[1:] - arr[last[:-1]]) > tol
        if not np.array_equal(keep[1:], drift[:, 0] | drift[:, 1]):
            kept = [0]
            for i in range(1, len(arr)):
                if (np.abs(arr[i] - arr[kept[-1]]) > tol).any():
                    kept.append(i)
    while len(kept) > 1 and (np.abs(arr[kept[-1]] - arr[kept[0]]) <= tol).all():
        kept.pop()
    return arr[kept]


def contains(polygons: list[np.ndarray], point):
    """Even-odd containment over a polygon set; boundary counts as inside.

    ``point`` is one (x, y) pair, answered with a bool, or an (m, 2)
    array, answered with an (m,) bool array. A point lies on the
    boundary when its squared distance to some edge is within
    (span * 1e-9)^2, span being the largest absolute coordinate of the
    set (at least 1). Edges are tested in blocks of ``_EDGE_CHUNK``.
    """
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if not polygons:
        return False if single else np.zeros(pts.shape[0], dtype=bool)
    span = max(max(float(np.abs(p).max()) for p in polygons), 1.0)
    eps = span * 1e-9
    polys = [np.asarray(p, dtype=float) for p in polygons]
    starts = np.concatenate(polys)
    ends = np.concatenate([np.roll(p, -1, axis=0) for p in polys])
    px, py = pts[:, 0:1], pts[:, 1:2]
    on_edge = np.zeros(pts.shape[0], dtype=bool)
    crossings = np.zeros(pts.shape[0], dtype=np.int64)
    for lo in range(0, starts.shape[0], _EDGE_CHUNK):
        x1, y1 = starts[lo:lo + _EDGE_CHUNK].T
        x2, y2 = ends[lo:lo + _EDGE_CHUNK].T
        dx, dy = x2 - x1, y2 - y1
        seg2 = dx * dx + dy * dy
        # zero-length edges and edges parallel to the ray divide by zero;
        # np.where and the crossing mask discard those entries
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(((px - x1) * dx + (py - y1) * dy) / seg2, 0.0, 1.0)
            x_at = x1 + (py - y1) * dx / dy
        cx = np.where(seg2 > 0, x1 + t * dx, x1)
        cy = np.where(seg2 > 0, y1 + t * dy, y1)
        on_edge |= ((px - cx) ** 2 + (py - cy) ** 2 <= eps * eps).any(axis=1)
        crossings += (((y1 > py) != (y2 > py)) & (x_at > px)).sum(axis=1)
    inside = on_edge | (crossings % 2 == 1)
    return bool(inside[0]) if single else inside


def null_heat(matrix) -> list[int]:
    """Per usage point, how many doculects realize it with NULL."""
    return [row.count(NULL_MARKER) for row in matrix.cells]
