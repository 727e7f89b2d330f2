"""Kriging probability surfaces over the embedded map and their contours.

Each surface interpolates the indicator of one linguistic means for one
doculect by ordinary kriging with an exponential covariance, on a square
lattice over the map's bounding box padded by 5%. sigma^2 scales out of
the kriging system, so every surface over the same points shares one
system: ``fit_surfaces`` solves it once, in dual form, against all the
indicators, and each node's value is its covariances to the points times
the solved coefficients, with no per-node weights. Contours at fixed
probability levels become closed polygons used for containment tests;
``fit_surfaces`` draws them for a batch of (surface, level) fields at
once. Each iso-segment starts and ends on a lattice edge, and a segment
is followed by the one segment starting on the edge it ends on, so every
chain of every field is a cycle of one permutation; each crossed edge's
vertex is computed once, and shared by the two segments that meet there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tsv
from .align import NULL_MARKER, code_labels

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
# locations per block of the location-point covariance; bounds its two
# (locations, points) arrays whatever the grid size
_NODE_CHUNK = 1024
# polygon edges per block of the batched containment test; bounds its
# (points, edges) temporaries whatever the polygon size
_EDGE_CHUNK = 128
# padded lattice cells per batch of contoured (surface, level) fields;
# bounds the batch's temporaries whatever the number of surfaces (a larger
# field is a batch of its own)
_CONTOUR_CELLS = 16384


class SurfaceError(ValueError):
    pass


@dataclass
class KrigSurface:
    xs: np.ndarray
    ys: np.ndarray
    prob: np.ndarray              # shape (len(ys), len(xs)), clamped to [0, 1]
    levels: tuple[float, ...]
    contours: dict[float, list[np.ndarray]] = field(default_factory=dict)

    def grid_to_tsv(self) -> str:
        xs = [f"{x:.6f}" for x in self.xs.tolist()]
        lines = [tsv.format_rows([("x", "y", "prob")])]
        for y, probs in zip(self.ys.tolist(), self.prob.tolist()):
            # one template per row: every x, then the row's y and its value
            tail = f"\t{y:.6f}\t%.6f\n"
            lines.append((tail.join(xs) + tail) % tuple(probs))
        return "".join(lines)

    def contours_to_tsv(self) -> str:
        lines = [tsv.format_rows([("level", "polygon", "x", "y")])]
        for level in self.levels:
            for pi, poly in enumerate(self.contours.get(level, [])):
                row = f"{level:g}\t{pi}\t%.6f\t%.6f\n"
                lines.append((row * len(poly)) % tuple(poly.ravel().tolist()))
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
    surfs = fit_surfaces(points, {"": code_labels(labels)}, grid, levels, rho,
                         nugget_frac)[""]
    if target_means not in surfs:
        raise SurfaceError(f"target means {target_means!r} never occurs")
    return surfs[target_means]


def fit_surfaces(points, columns, grid: int = 200,
                 levels: tuple[float, ...] = DEFAULT_LEVELS,
                 rho: float | None = None,
                 nugget_frac: float = 0.05) -> dict[str, dict[str, KrigSurface]]:
    """One surface per means attested in each column, over one kriging system.

    ``columns`` maps a key (a doculect's iso) to a coded column, one code
    per point and its sorted labels, as ``align.code_labels`` or
    ``ParallelUsageMatrix.coded`` give it. The system is solved once,
    against the indicators of every column's means in label order;
    returns ``{key: {means: surface}}``. Too few or coincident points,
    codes that do not cover every point, or a system no jitter makes
    solvable raise ``SurfaceError`` for the whole call.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise SurfaceError("points must be an (n, 2) array")
    n = pts.shape[0]
    if n < 5:
        raise SurfaceError(f"need at least 5 labeled points, got {n}")
    if any(len(codes) != n for codes, _ in columns.values()):
        raise SurfaceError(f"labels must cover every point, one label for each of {n}")
    fields = [(key, m) for key, (_, labels) in columns.items() for m in labels]
    z = np.empty((len(fields), n))
    row = 0
    for codes, labels in columns.values():
        # the column's indicators, one row per label
        z[row:row + len(labels)] = np.arange(len(labels))[:, None] == codes
        row += len(labels)
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0
    xs = np.linspace(x0 - PAD_FRACTION * spanx, x1 + PAD_FRACTION * spanx, grid)
    ys = np.linspace(y0 - PAD_FRACTION * spany, y1 + PAD_FRACTION * spany, grid)
    gx, gy = np.meshgrid(xs, ys)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    probs = _krige(pts, z, nodes, rho, nugget_frac).reshape(len(fields), len(ys), len(xs))
    np.clip(probs, 0.0, 1.0, out=probs)
    levels = tuple(levels)
    surfs: dict[str, dict[str, KrigSurface]] = {key: {} for key in columns}
    for (key, m), prob, polys in zip(fields, probs, _contours(xs, ys, probs, levels)):
        surfs[key][m] = KrigSurface(xs=xs, ys=ys, prob=prob, levels=levels,
                                    contours=dict(zip(levels, polys)))
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
    ``_NODE_CHUNK`` nodes at a time: each block's covariances are built
    in place in one reused buffer, and their products are written straight
    into the output. Returns (len(z), len(nodes)) values.
    """
    n = pts.shape[0]
    # the system is built in place: distances, then covariances, in its
    # top-left block
    a = np.empty((n + 1, n + 1))
    cov = _sq_dists(pts, pts, out=a[:n, :n])
    np.sqrt(cov, out=cov)
    if rho is None:
        rho = _median(cov[~np.tri(n, dtype=bool)])
        if rho <= 0.0:
            raise SurfaceError("degenerate configuration: the points coincide")
    _exp_cov(cov, rho)
    a[n, :n] = 1.0
    a[:n, n] = 1.0
    a[n, n] = 0.0
    diag = np.arange(n)
    nugget = a[diag, diag] + nugget_frac
    rhs = np.zeros((n + 1, z.shape[0]))
    rhs[:n] = z.T

    for jitter in _JITTERS:
        a[diag, diag] = nugget + jitter
        try:
            coef = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(coef)):
            break
    else:
        raise SurfaceError("degenerate configuration: no jitter makes the kriging system solvable")
    # only the coefficients outlive the solve; free the system before the blocks
    del a, cov, rhs

    out = np.empty((z.shape[0], nodes.shape[0]))
    buf = np.empty((min(_NODE_CHUNK, nodes.shape[0]), n))
    for lo in range(0, nodes.shape[0], _NODE_CHUNK):
        block = nodes[lo:lo + _NODE_CHUNK]
        c = _sq_dists(block, pts, out=buf[:len(block)])
        _exp_cov(np.sqrt(c, out=c), rho)
        values = out[:, lo:lo + _NODE_CHUNK]
        np.matmul(coef[:n].T, c.T, out=values)
        values += coef[n][:, None]
    return out


def _sq_dists(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of two point sets.

    Returns (len(p), len(q)) values, written to ``out`` when given. Each
    column's differences are one outer subtraction, squared and added in
    place, so the work takes two (len(p), len(q)) arrays and never a
    (len(p), len(q), columns) one. For points in the plane the values
    equal ``((p[:, None] - q[None]) ** 2).sum(axis=2)`` bit for bit: a
    sum of two terms adds the same two squares in the same order. Further
    columns are added left to right.
    """
    d = np.subtract.outer(p[:, 0], q[:, 0], out=out)
    d *= d
    dj = None
    for j in range(1, p.shape[1]):
        dj = np.subtract.outer(p[:, j], q[:, j], out=dj)
        dj *= dj
        d += dj
    return d


def _exp_cov(d: np.ndarray, rho: float) -> np.ndarray:
    """The exponential covariances exp(-d / rho) of the distances ``d``, in place."""
    d /= -rho
    return np.exp(d, out=d)


def _median(values: np.ndarray) -> float:
    """The median of a non-empty 1-d array, as ``np.median`` gives it.

    ``np.median`` imports ``numpy.ma`` on first use, 12-16 ms per process.
    """
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


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
    boundary. Lattice nodes on the level are treated as inside: they lie
    on the polygons' boundary, which ``contains`` counts as inside, and a
    polygon may run out to such a node and back along a zero-area spike.
    Polygons follow the order of their first segment, cells being
    visited in row-major order.
    """
    return _contours(surface.xs, surface.ys, surface.prob[None], (level,))[0][0]


def _contours(xs: np.ndarray, ys: np.ndarray, probs: np.ndarray,
              levels: tuple[float, ...]) -> list[list[list[np.ndarray]]]:
    """``contour`` of every field of a stack at every level.

    ``probs`` holds fields over the lattice ``xs`` by ``ys``, shape
    (fields, len(ys), len(xs)); returns per field one polygon list per
    level. The (field, level) pairs are contoured field-major, as many
    at a time as fit in ``_CONTOUR_CELLS`` padded cells (at least one);
    each batch's segments are chained by their lattice edges alone.
    """
    for level in levels:
        if not 0.0 < level < 1.0:
            raise SurfaceError("level must be in (0, 1)")
    lv = np.array(levels, dtype=float)
    pairs = len(probs) * len(lv)
    per = max(1, _CONTOUR_CELLS // ((len(xs) + 2) * (len(ys) + 2)))
    lo, hi = (xs[0], ys[0]), (xs[-1], ys[-1])
    polys: list[list[np.ndarray]] = []
    for first in range(0, pairs, per):
        which = np.arange(first, min(first + per, pairs))
        pts, edges, stack = _segments(xs, ys, probs[which // len(lv)], lv[which % len(lv)])
        seq, lens = _chains(edges, stack)
        polys += _polygons(np.clip(pts, lo, hi), seq, lens, stack, len(which))
    return [polys[i * len(lv):(i + 1) * len(lv)] for i in range(len(probs))]


def _segments(xs: np.ndarray, ys: np.ndarray, probs: np.ndarray,
              levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iso-segments of a stack of fields, each at its own level.

    ``probs`` is (stacks, len(ys), len(xs)) and ``levels`` (stacks,).
    Returns, for m segments, the (m, 2) crossings each segment starts at,
    the (2m,) lattice edges they start on (row i for segment i) and end
    on (row m + i), and the (m,) stack of each segment. A segment ends
    on the edge its successor starts on, so every crossing is
    interpolated once, from its edge's node on or above the level
    (marching cubes shares each crossed edge's vertex between cells the
    same way; Lorensen & Cline 1987). Case codes, edge crossings and
    segments are computed for all stacks at once; segments come in stack
    order, then row-major cell order, the two of a saddle cell in table
    order. Each stack's lattice edges are numbered apart from every other
    stack's.
    """
    gx = np.concatenate([[2 * xs[0] - xs[1]], xs, [2 * xs[-1] - xs[-2]]])
    gy = np.concatenate([[2 * ys[0] - ys[1]], ys, [2 * ys[-1] - ys[-2]]])
    w, cells = len(gx), len(gx) * len(gy)
    vals = np.empty((len(levels), len(gy), w))
    vals[:] = (levels - 1.0)[:, None, None]
    vals[:, 1:-1, 1:-1] = probs

    bits = (vals >= levels[:, None, None]).view(np.uint8)
    code = (bits[:, :-1, :-1] | bits[:, :-1, 1:] << 1
            | bits[:, 1:, 1:] << 2 | bits[:, 1:, :-1] << 3)
    ib, iy, ix = np.nonzero((code != 0) & (code != 15))
    flat = vals.ravel()
    # every active cell's bottom-left node, as an index into ``flat``
    base = ib * cells + iy * w + ix
    centre_in = (flat[base] + flat[base + 1] + flat[base + w + 1]
                 + flat[base + w]) / 4.0 >= levels[ib]
    pairs = _EDGE_PAIRS[code[ib, iy, ix], centre_in.astype(np.intp)]
    cell, k = np.nonzero(pairs[:, :, 0] >= 0)
    stack = ib[cell]
    # the cell edge of every segment's start, then of every segment's end;
    # edge e runs from corner e to corner e + 1, across the level
    e = pairs[cell, k].T.ravel()
    at = base[np.concatenate([cell, cell])]
    f = (e + 1) % 4
    # both corners as indices into ``flat``
    a = at + _CORNER_DY[e] * w + _CORNER_DX[e]
    b = at + _CORNER_DY[f] * w + _CORNER_DX[f]
    # a lattice edge is named by its lower node and whether it is vertical
    edges = 2 * np.minimum(a, b) + (np.abs(a - b) == w)
    # each segment's point is the crossing on its start edge, measured from
    # the edge's node on or above the level: the same floats whichever cell
    # the edge is reached from, and an on-level node's own coordinates
    a, b = a[:len(stack)], b[:len(stack)]
    up = flat[a] >= levels[stack]
    a, b = np.where(up, a, b), np.where(up, b, a)
    va = flat[a]
    t = (levels[stack] - va) / (flat[b] - va)
    (ay, ax), (by, bx) = np.divmod(a % cells, w), np.divmod(b % cells, w)
    pts = np.column_stack([gx[ax] + t * (gx[bx] - gx[ax]), gy[ay] + t * (gy[by] - gy[ay])])
    return pts, edges, stack


def _chains(edges: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every closed segment chain of a stack of fields.

    Takes ``_segments``' lattice edges and stacks. Segments meet where one
    ends on the lattice edge another starts on: with the padded
    below-level ring, every crossed lattice edge starts exactly one
    segment and ends exactly one, even where a lattice value lies on the
    level, so "next segment" is a permutation and the chains are its
    cycles. Pointer jumping labels each cycle by its smallest segment and
    counts every segment's steps to it, which rank the segments along the
    cycle (Wyllie 1979). A cycle encloses at least one lattice node, so it
    has at least four segments.

    Returns the segments of every chain, chain after chain in order of
    their first segment, and the chain lengths.
    """
    m = len(stack)
    ids = np.arange(m)
    # lattice edges are numbered apart per stack, below 2 * stacks * cells
    follows = np.zeros(int(edges.max(initial=0)) + 1, dtype=np.intp)
    follows[edges[:m]] = ids
    nxt = follows[edges[m:]]
    # after round r, ``label`` is the smallest segment among the 2**r from
    # each segment on, ``ahead`` the steps to it, and ``jump`` the segment
    # 2**r on; once a round changes no label, every window holds its
    # cycle's smallest segment
    label, ahead, jump, step = ids, np.zeros(m, dtype=np.intp), nxt, 1
    while True:
        later = label[jump]
        nearer = later < label
        if not nearer.any():
            break
        label = np.where(nearer, later, label)
        ahead = np.where(nearer, step + ahead[jump], ahead)
        jump, step = jump[jump], 2 * step
    size = np.bincount(label, minlength=m)
    # the position along the cycle from its smallest segment
    rank = (size[label] - ahead) % size[label]

    heads = np.flatnonzero(label == ids)
    lens = size[heads]
    # every chain's offset in ``seq``, at its first segment
    at = np.zeros(m, dtype=np.intp)
    at[heads] = np.cumsum(lens) - lens
    seq = np.empty(m, dtype=np.intp)
    seq[at[label] + rank] = ids
    return seq, lens


def _polygons(pts: np.ndarray, seq: np.ndarray, lens: np.ndarray, stack: np.ndarray,
              n_stacks: int) -> list[list[np.ndarray]]:
    """Per stack, the polygons of ``_chains``' chains over the (clamped) ``pts``.

    A chain's polygon is the start crossing of each of its segments, in
    chain order; ``_dedupe`` drops its repeated vertices. Every chain keeps
    its polygon, even one that de-duplication leaves with one or two.
    """
    polys: list[list[np.ndarray]] = [[] for _ in range(n_stacks)]
    if not len(seq):
        return polys
    first = np.cumsum(lens) - lens
    verts = pts[seq]
    keep = _dedupe(verts, lens)
    ends = np.cumsum(np.add.reduceat(keep.astype(np.intp), first)).tolist()
    verts = verts[keep]
    for s, lo, hi in zip(stack[seq[first]].tolist(), [0] + ends, ends):
        polys[s].append(verts[lo:hi])
    return polys


def _dedupe(verts: np.ndarray, lens) -> np.ndarray:
    """Which vertices the polygons keep once repeated vertices are dropped.

    ``verts`` holds the polygons one after another, ``lens`` their vertex
    counts. A vertex is dropped when it equals the one before it, and a
    polygon's last kept vertex when it equals the polygon's first. Contour
    vertices coincide only exactly (at a lattice node on the level, or
    where the bounding-box clamp moves several onto one point), so no
    tolerance is applied; two vertices ~1e-15 apart, around a node within
    ~1e-12 of the level, both stay, though they print alike. Returns a
    bool mask.
    """
    lens = np.asarray(lens, dtype=np.intp)
    first = np.cumsum(lens) - lens
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = (verts[1:] != verts[:-1]).any(axis=1)
    keep[first] = True
    # each polygon's last kept vertex starts the run of its last vertex;
    # it closes the polygon when it equals the first
    tail = np.maximum.accumulate(np.where(keep, np.arange(len(verts)), 0))[first + lens - 1]
    closes = (tail > first) & (verts[tail] == verts[first]).all(axis=1)
    keep[tail[closes]] = False
    return keep


def contains(polygons: list[np.ndarray], points: np.ndarray) -> np.ndarray:
    """Even-odd containment over a polygon set; boundary counts as inside.

    ``points`` is an (m, 2) array, answered with an (m,) bool array. A
    point lies on the boundary when its squared distance to some edge is
    within (span * 1e-9)^2, span being the largest absolute coordinate of
    the set (at least 1). Edges are tested in blocks of ``_EDGE_CHUNK``.
    """
    pts = np.asarray(points, dtype=float)
    if not polygons:
        return np.zeros(pts.shape[0], dtype=bool)
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
    return on_edge | (crossings % 2 == 1)


def null_heat(matrix) -> list[int]:
    """Per usage point, how many doculects realize it with NULL."""
    null = matrix.codes_of(dict.fromkeys(matrix.columns, NULL_MARKER))
    return np.count_nonzero(matrix.codes == null, axis=1).tolist()
