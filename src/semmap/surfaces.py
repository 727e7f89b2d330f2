"""Kriging probability surfaces over the embedded map and their contours.

Each surface interpolates the indicator of one linguistic means for one
doculect by ordinary kriging with an exponential covariance, on a square
lattice over the map's bounding box padded by 5%. Contours at fixed
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
    "polygon_area",
    "null_heat",
    "DEFAULT_LEVELS",
]

DEFAULT_LEVELS = (0.35, 0.32, 0.29)
PAD_FRACTION = 0.05
# diagonal jitters, as multiples of sigma^2, tried until a kriging solve
# comes out finite
_JITTERS = (0.0, 1e-8, 1e-6)
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
    params: dict = field(default_factory=dict)

    def region_mask(self, level: float) -> np.ndarray:
        return self.prob >= level

    def verify_nesting(self) -> bool:
        """Grid-node check that higher-level regions nest inside lower ones."""
        lv = sorted(self.levels, reverse=True)
        for hi, lo in zip(lv, lv[1:]):
            if np.any(self.region_mask(hi) & ~self.region_mask(lo)):
                return False
        return True

    def grid_to_tsv(self, header: str | None = None) -> str:
        xs = [f"{x:.6f}" for x in self.xs.tolist()]
        rows = [("x", "y", "prob")]
        for y, probs in zip(self.ys.tolist(), self.prob.tolist()):
            fy = f"{y:.6f}"
            rows.extend((fx, fy, f"{p:.6f}") for fx, p in zip(xs, probs))
        return tsv.format_rows(rows, header)

    def contours_to_tsv(self, header: str | None = None) -> str:
        rows = [("level", "polygon", "x", "y")]
        for level in self.levels:
            for pi, poly in enumerate(self.contours.get(level, [])):
                rows.extend((f"{level:g}", pi, f"{x:.6f}", f"{y:.6f}")
                            for x, y in poly.tolist())
        return tsv.format_rows(rows, header)


def _grid_axes(points: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray]:
    x0, y0 = points.min(axis=0)
    x1, y1 = points.max(axis=0)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0
    xs = np.linspace(x0 - PAD_FRACTION * spanx, x1 + PAD_FRACTION * spanx, grid)
    ys = np.linspace(y0 - PAD_FRACTION * spany, y1 + PAD_FRACTION * spany, grid)
    return xs, ys


def fit_surface(points, labels, target_means: str, grid: int = 200,
                levels: tuple[float, ...] = DEFAULT_LEVELS,
                rho: float | None = None, nugget_frac: float = 0.05,
                with_contours: bool = True) -> KrigSurface:
    """Ordinary kriging of the indicator for one means.

    The indicator is 1 where a point's label equals ``target_means`` and
    0 elsewhere (NULL labels are the string "NULL" and may be targeted
    like any other means). The covariance is sigma^2 * exp(-h / rho)
    with a nugget of ``nugget_frac * sigma^2``; rho defaults to the
    median pairwise distance between the labeled points. Predictions are
    clamped to [0, 1].
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise SurfaceError("points must be an (n, 2) array")
    n = pts.shape[0]
    if n < 5:
        raise SurfaceError("need at least 5 labeled points")
    labels = list(labels)
    if len(labels) != n:
        raise SurfaceError("labels must cover every point")
    z = np.array([1.0 if lab == target_means else 0.0 for lab in labels])
    if z.sum() < 1:
        raise SurfaceError(f"target means {target_means!r} never occurs")

    xs, ys = _grid_axes(pts, grid)
    gx, gy = np.meshgrid(xs, ys)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    pred, params = _krige(pts, z, nodes, rho, nugget_frac)
    prob = np.clip(pred.reshape(len(ys), len(xs)), 0.0, 1.0)
    surf = KrigSurface(
        means_label=target_means, xs=xs, ys=ys, prob=prob,
        levels=tuple(levels),
        params={"covariance": "exponential", **params, "grid": grid},
    )
    if with_contours:
        for level in levels:
            surf.contours[level] = contour(surf, level)
    return surf


def fit_surfaces(points, labels, grid: int = 200,
                 levels: tuple[float, ...] = DEFAULT_LEVELS,
                 rho: float | None = None,
                 nugget_frac: float = 0.05) -> dict[str, KrigSurface]:
    """One surface per means attested in ``labels``, keyed by means.

    ``None`` labels are the means NULL. Means are fitted in sorted order;
    one whose surface cannot be fitted (``SurfaceError``) is left out.
    """
    labels = [lab if lab is not None else NULL_MARKER for lab in labels]
    out: dict[str, KrigSurface] = {}
    for means in sorted(set(labels)):
        try:
            out[means] = fit_surface(points, labels, means, grid=grid, levels=levels,
                                     rho=rho, nugget_frac=nugget_frac)
        except SurfaceError:
            continue
    return out


def predict_at(points, labels, target_means: str, where,
               rho: float | None = None, nugget_frac: float = 0.05) -> np.ndarray:
    """Kriging prediction at arbitrary locations (shares fit_surface math)."""
    pts = np.asarray(points, dtype=float)
    z = np.array([1.0 if lab == target_means else 0.0 for lab in labels])
    where = np.atleast_2d(np.asarray(where, dtype=float))
    pred, _ = _krige(pts, z, where, rho, nugget_frac)
    return np.clip(pred, 0.0, 1.0)


def _krige(pts: np.ndarray, z: np.ndarray, where: np.ndarray,
           rho: float | None, nugget_frac: float) -> tuple[np.ndarray, dict]:
    """Ordinary-kriging prediction of the field ``z`` at ``where``.

    Solves the (n+1)-square system of exponential covariances plus the
    Lagrange row for every location, adding the diagonal jitters in
    ``_JITTERS`` (multiples of sigma^2) in turn until the solution is
    finite. Returns the unclamped prediction and the kriging parameters.
    """
    n = pts.shape[0]
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if rho is None:
        iu = np.triu_indices(n, k=1)
        rho = float(np.median(dists[iu]))
        if rho <= 0.0:
            raise SurfaceError("degenerate configuration")
    sigma2 = float(z.var())
    if sigma2 < 1e-12:
        # constant indicator field; kriging weights are scale-invariant
        sigma2 = 1.0
    nugget = nugget_frac * sigma2

    cov = sigma2 * np.exp(-dists / rho)
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = cov + nugget * np.eye(n)
    a[n, :n] = 1.0
    a[:n, n] = 1.0

    node_d = np.sqrt(((where[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    b = np.empty((n + 1, where.shape[0]))
    b[:n] = sigma2 * np.exp(-node_d.T / rho)
    b[n] = 1.0

    for jitter in _JITTERS:
        try:
            aj = a.copy()
            aj[:n, :n] += jitter * sigma2 * np.eye(n)
            sol = np.linalg.solve(aj, b)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            return z @ sol[:n], {"rho": rho, "nugget": nugget, "sigma2": sigma2}
    raise SurfaceError("degenerate configuration")


# ---------------------------------------------------------------------------
# marching squares


# segment edge pairs per case code, oriented with the inside region on the
# left; corners: 0 bottom-left, 1 bottom-right, 2 top-right, 3 top-left;
# edges: 0 bottom, 1 right, 2 top, 3 left
_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}
# saddle cases, indexed by whether the cell centre is inside
_SADDLES = {
    5: ([(3, 0), (1, 2)], [(3, 2), (1, 0)]),
    10: ([(0, 1), (2, 3)], [(0, 3), (2, 1)]),
}


def contour(surface: KrigSurface, level: float) -> list[np.ndarray]:
    """Closed iso-polygons of the probability field at one level.

    Marching squares runs over the grid extended by one below-level ring,
    so every iso-line closes; segments that leave the map are clamped to
    the bounding box, which closes boundary-clipped regions along the
    boundary. Vertices on the level are treated as inside. Case codes and
    edge crossings are computed for all cells at once; cells are visited
    in row-major order.
    """
    if not 0.0 < level < 1.0:
        raise SurfaceError("level must be in (0, 1)")
    xs, ys, prob = surface.xs, surface.ys, surface.prob
    gx = np.concatenate([[2 * xs[0] - xs[1]], xs, [2 * xs[-1] - xs[-2]]])
    gy = np.concatenate([[2 * ys[0] - ys[1]], ys, [2 * ys[-1] - ys[-2]]])
    vals = np.full((len(gy), len(gx)), level - 1.0)
    vals[1:-1, 1:-1] = prob

    inside = vals >= level
    code = (inside[:-1, :-1] + 2 * inside[:-1, 1:]
            + 4 * inside[1:, 1:] + 8 * inside[1:, :-1])
    iy, ix = np.nonzero((code != 0) & (code != 15))
    # per active cell, corner coordinates and values in corner order
    cx = np.column_stack([gx[ix], gx[ix + 1], gx[ix + 1], gx[ix]])
    cy = np.column_stack([gy[iy], gy[iy], gy[iy + 1], gy[iy + 1]])
    v = np.column_stack([vals[iy, ix], vals[iy, ix + 1],
                         vals[iy + 1, ix + 1], vals[iy + 1, ix]])
    # edge e runs from corner e to corner e + 1; edges the iso-line does
    # not cross may divide by zero and are never read
    nx, ny, nv = (np.roll(a, -1, axis=1) for a in (cx, cy, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - v) / (nv - v)
        ex = cx + t * (nx - cx)
        ey = cy + t * (ny - cy)
    centre_in = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) / 4.0 >= level

    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for b, c_in, sx, sy in zip(code[iy, ix].tolist(), centre_in.tolist(),
                               ex.tolist(), ey.tolist()):
        pairs = _SADDLES[b][c_in] if b in _SADDLES else _SEGMENTS[b]
        for e1, e2 in pairs:
            segments.append(((sx[e1], sy[e1]), (sx[e2], sy[e2])))

    polys = _assemble(segments)
    x0, x1 = xs[0], xs[-1]
    y0, y1 = ys[0], ys[-1]
    clipped = []
    for poly in polys:
        arr = np.array(poly)
        arr[:, 0] = np.clip(arr[:, 0], x0, x1)
        arr[:, 1] = np.clip(arr[:, 1], y0, y1)
        arr = _dedupe(arr)
        if arr.shape[0] >= 3:
            clipped.append(arr)
    return clipped


def _key(p, scale):
    return (round(p[0] / scale), round(p[1] / scale))


def _assemble(segments) -> list[list[tuple[float, float]]]:
    if not segments:
        return []
    span = max(
        max(abs(p[0]) for s in segments for p in s),
        max(abs(p[1]) for s in segments for p in s),
        1.0,
    )
    scale = span * 1e-9
    start_of: dict = {}
    for seg in segments:
        start_of.setdefault(_key(seg[0], scale), []).append(seg)
    used = [False] * len(segments)
    index = {id(seg): i for i, seg in enumerate(segments)}
    polys = []
    for i, seg in enumerate(segments):
        if used[i]:
            continue
        chain = [seg[0], seg[1]]
        used[i] = True
        guard = 0
        while _key(chain[-1], scale) != _key(chain[0], scale):
            nxts = start_of.get(_key(chain[-1], scale), [])
            nxt = None
            for cand in nxts:
                if not used[index[id(cand)]]:
                    nxt = cand
                    break
            if nxt is None:
                break  # open chain; drop (cannot happen with the padded ring)
            used[index[id(nxt)]] = True
            chain.append(nxt[1])
            guard += 1
            if guard > len(segments) + 1:
                break
        if _key(chain[-1], scale) == _key(chain[0], scale) and len(chain) > 3:
            polys.append(chain[:-1])
    return polys


def _dedupe(arr: np.ndarray) -> np.ndarray:
    keep = [0]
    span = max(float(np.abs(arr).max()), 1.0)
    tol = span * 1e-12
    for i in range(1, arr.shape[0]):
        if abs(arr[i, 0] - arr[keep[-1], 0]) > tol or abs(arr[i, 1] - arr[keep[-1], 1]) > tol:
            keep.append(i)
    while len(keep) > 1 and (
        abs(arr[keep[-1], 0] - arr[keep[0], 0]) <= tol
        and abs(arr[keep[-1], 1] - arr[keep[0], 1]) <= tol
    ):
        keep.pop()
    return arr[keep]


def polygon_area(poly: np.ndarray) -> float:
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


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
    return [sum(1 for cell in row if cell is None) for row in matrix.cells]
