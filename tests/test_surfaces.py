import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semmap
from semmap.align import NULL_MARKER
from semmap.pivot import ParallelUsageMatrix, code_labels
from semmap.surfaces import (
    DEFAULT_LEVELS,
    KrigSurface,
    SurfaceError,
    _CONTOUR_CELLS,
    _EDGE_CHUNK,
    _NODE_CHUNK,
    _chains,
    _contours,
    _dedupe,
    _exp_cov,
    _krige,
    _JITTERS,
    _median,
    _segments,
    _sq_dists,
    contains,
    contour,
    fit_surface,
    fit_surfaces,
    null_heat,
)
from semmap.tsv import format_rows


def coded(columns):
    """String label columns coded as ``fit_surfaces`` takes them."""
    return {key: code_labels(labels) for key, labels in columns.items()}


def bump_surface(grid=200, box=3.0):
    xs = np.linspace(-box, box, grid)
    ys = np.linspace(-box, box, grid)
    gx, gy = np.meshgrid(xs, ys)
    prob = np.exp(-(gx ** 2 + gy ** 2))
    return KrigSurface(xs=xs, ys=ys, prob=prob, levels=DEFAULT_LEVELS)


def constant_surface(value, grid=40):
    xs = np.linspace(0.0, 1.0, grid)
    ys = np.linspace(0.0, 1.0, grid)
    prob = np.full((grid, grid), value)
    return KrigSurface(xs=xs, ys=ys, prob=prob, levels=DEFAULT_LEVELS)


def polygon_area(poly):
    """Shoelace area of one closed polygon."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def kriging_weights(pts, where, nugget_frac):
    """Ordinary-kriging weights of the ``n`` points for each location in ``where``.

    The primal form the dual solve replaced: the (n+1)-square system is
    solved against every location's covariances, with the same jitter
    ladder, and the (n, len(where)) weights are returned; the prediction
    of a field ``z`` is ``z @ weights``.
    """
    n = pts.shape[0]
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    rho = float(np.median(dists[np.triu_indices(n, k=1)]))
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.exp(-dists / rho) + nugget_frac * np.eye(n)
    a[n, :n] = 1.0
    a[:n, n] = 1.0
    b = np.ones((n + 1, where.shape[0]))
    d = np.sqrt(((where[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    b[:n] = np.exp(-d.T / rho)
    for jitter in (0.0, 1e-8, 1e-6):
        try:
            sol = np.linalg.solve(a + jitter * np.diag([1.0] * n + [0.0]), b)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            return sol[:n]
    raise AssertionError("no jitter makes the reference system solvable")


def predict(pts, labels, target, where, nugget_frac=0.05):
    """Clamped kriging prediction of one indicator field at ``where``."""
    z = np.array([1.0 if lab == target else 0.0 for lab in labels])
    weights = kriging_weights(np.asarray(pts, dtype=float),
                              np.atleast_2d(np.asarray(where, dtype=float)),
                              nugget_frac)
    return np.clip(z @ weights, 0.0, 1.0)


# fit_surface -------------------------------------------------------------------

def test_constant_label_field_is_one_everywhere():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 2))
    surf = fit_surface(pts, ["kai"] * 40, "kai", grid=30)
    pred = predict(pts, ["kai"] * 40, "kai", pts)
    assert np.all(pred >= 0.999)
    assert np.all(surf.prob >= 0.999)


def test_missing_target_means_errors():
    pts = np.random.default_rng(1).normal(size=(10, 2))
    with pytest.raises(SurfaceError):
        fit_surface(pts, ["a"] * 10, "b", grid=10)


def test_too_few_points_errors():
    with pytest.raises(SurfaceError):
        fit_surface(np.zeros((4, 2)), ["a"] * 4, "a", grid=10)


def test_half_plane_split():
    rng = np.random.default_rng(7)
    n = 200
    x = np.concatenate([rng.uniform(-3.0, -0.2, n // 2), rng.uniform(0.2, 3.0, n // 2)])
    y = rng.uniform(-1.0, 1.0, n)
    pts = np.column_stack([x, y])
    labels = ["west" if xi < 0 else "east" for xi in x]
    probe = np.array([[-2.0, 0.0], [2.0, 0.0]])
    pred = predict(pts, labels, "west", probe)
    assert pred[0] > 0.9
    assert pred[1] < 0.1
    # nearest-neighbour indicator oracle agrees on a dense probe line
    line = np.column_stack([np.linspace(-2.5, 2.5, 41), np.zeros(41)])
    pred_line = predict(pts, labels, "west", line)
    for p, lx in zip(pred_line, line[:, 0]):
        if abs(lx) < 0.3:
            continue  # transition band
        nn = pts[np.argmin(((pts - [lx, 0.0]) ** 2).sum(axis=1))]
        want = 1.0 if nn[0] < 0 else 0.0
        assert abs(p - want) < 0.45


def test_exact_interpolation_with_zero_nugget():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(30, 2))
    labels = ["a" if i % 3 else "b" for i in range(30)]
    z = np.array([1.0 if lab == "a" else 0.0 for lab in labels])
    pred = predict(pts, labels, "a", pts, nugget_frac=0.0)
    assert np.abs(pred - z).max() < 1e-6


def test_constant_field_is_one_at_every_node():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(50, 2))
    nodes = rng.uniform(-3.0, 3.0, size=(2 * _NODE_CHUNK + 300, 2))
    pred = _krige(pts, np.ones((1, 50)), nodes, None, 0.05)
    assert pred.shape == (1, nodes.shape[0])
    assert np.abs(pred - 1.0).max() < 1e-9


def test_node_alone_gets_its_value_in_a_multi_block_call():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(50, 2))
    z = (rng.uniform(size=(3, 50)) < 0.4).astype(float)
    m = 2 * _NODE_CHUNK + 300
    nodes = rng.uniform(-3.0, 3.0, size=(m, 2))
    pred = _krige(pts, z, nodes, None, 0.05)
    # a node in any block of the covariance gets the values it gets alone
    for k in (0, _NODE_CHUNK - 1, _NODE_CHUNK, m - 1):
        alone = _krige(pts, z, nodes[k:k + 1], None, 0.05)
        assert np.abs(pred[:, k] - alone[:, 0]).max() < 1e-12


def test_surface_probabilities_clamped_and_nested():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(60, 2))
    labels = ["a" if p[0] < 0 else "b" for p in pts]
    surf = fit_surface(pts, labels, "a", grid=60)
    assert surf.prob.min() >= 0.0 and surf.prob.max() <= 1.0
    # on every grid node, a higher level's region lies inside a lower one's
    lv = sorted(surf.levels, reverse=True)
    for hi, lo in zip(lv, lv[1:]):
        assert not np.any((surf.prob >= hi) & (surf.prob < lo))


def test_deterministic_fit():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(50, 2))
    labels = ["a" if p[1] > 0 else "b" for p in pts]
    s1 = fit_surface(pts, labels, "a", grid=40)
    s2 = fit_surface(pts, labels, "a", grid=40)
    assert np.array_equal(s1.prob, s2.prob)


# the distance kernel and the node blocks --------------------------------------

def test_sq_dists_and_covariances_equal_the_broadcast_forms():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    magnitude = st.floats(1e-300, 1e150)
    coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), magnitude,
                      magnitude.map(lambda x: -x))

    @st.composite
    def cases(draw):
        columns = draw(st.integers(1, 3))
        # both sets come from one small pool, so duplicates are common
        pool = draw(st.lists(st.tuples(*[coord] * columns), min_size=1, max_size=6))
        p = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        q = draw(st.lists(st.one_of(st.sampled_from(pool), st.tuples(*[coord] * columns)),
                          min_size=1, max_size=12))
        rho = draw(st.floats(1e-3, 1e3))
        return np.array(p), np.array(q), rho

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(cases())
    def same(case):
        p, q, rho = case
        want = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
        got = _sq_dists(p, q)
        assert np.array_equal(got, want)
        # into a strided block of a larger array, as the kriging system is
        buf = np.full((len(p) + 1, len(q) + 1), np.nan)
        assert np.array_equal(_sq_dists(p, q, out=buf[:-1, :-1]), want)
        assert np.isnan(buf[-1]).all() and np.isnan(buf[:, -1]).all()
        assert np.array_equal(np.sqrt(got, out=got), np.sqrt(want))
        assert np.array_equal(_exp_cov(got, rho), np.exp(-np.sqrt(want) / rho))

    same()


def krige_broadcast(pts, z, nodes, rho, nugget_frac):
    """``_krige`` with the (m, n, 2) difference arrays the kernel replaced."""
    n = pts.shape[0]
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if rho is None:
        rho = _median(dists[np.triu_indices(n, k=1)])
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
    out = np.empty((z.shape[0], nodes.shape[0]))
    for lo in range(0, nodes.shape[0], _NODE_CHUNK):
        block = nodes[lo:lo + _NODE_CHUNK]
        d = np.sqrt(((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        out[:, lo:lo + _NODE_CHUNK] = coef[:n].T @ np.exp(-d.T / rho) + coef[n][:, None]
    return out


@pytest.mark.parametrize("rho, nugget_frac, repeats", [
    (None, 0.05, 0), (0.8, 0.05, 0), (None, 0.0, 5), (2.5, 0.0, 0)])
def test_krige_equals_the_broadcast_form(rho, nugget_frac, repeats):
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(60, 2))
    # repeated points and no nugget make the system singular: a jitter
    pts[:repeats] = pts[-1]
    z = (rng.uniform(size=(4, 60)) < 0.4).astype(float)
    nodes = rng.uniform(-3.0, 3.0, size=(2 * _NODE_CHUNK + 300, 2))
    assert np.array_equal(_krige(pts, z, nodes, rho, nugget_frac),
                          krige_broadcast(pts, z, nodes, rho, nugget_frac))


def test_krige_holds_two_node_blocks_at_most():
    import tracemalloc

    rng = np.random.default_rng(9)
    n = 400
    pts = rng.normal(size=(n, 2))
    z = (rng.uniform(size=(2, n)) < 0.5).astype(float)
    nodes = rng.uniform(-3.0, 3.0, size=(2 * _NODE_CHUNK, 2))
    _krige(pts, z, nodes, None, 0.05)   # LAPACK's first call allocates once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _krige(pts, z, nodes, None, 0.05)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # beyond the output and the system phase's two (n+1)-square arrays,
    # a block's distances and covariances fit in 2 (_NODE_CHUNK, n) arrays;
    # (_NODE_CHUNK, n, 2) differences and their squares would need 4
    system = 2 * (n + 1) ** 2 * 8
    assert peak - out.nbytes - system < 2.5 * _NODE_CHUNK * n * 8


# fit_surfaces ------------------------------------------------------------------

def test_fit_surfaces_equals_one_off_fits():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(60, 2))
    columns = {
        "xx": ["a" if p[0] < 0 else "b" for p in pts],
        "yy": ["c" if p[1] < 0 else NULL_MARKER for p in pts],
    }
    surfs = fit_surfaces(pts, coded(columns), grid=30)
    assert {k: sorted(v) for k, v in surfs.items()} == {"xx": ["a", "b"], "yy": [NULL_MARKER, "c"]}
    for key, labels in columns.items():
        for means, surf in surfs[key].items():
            one = fit_surface(pts, labels, means, grid=30)
            assert np.array_equal(surf.prob, one.prob)
            assert surf.contours.keys() == one.contours.keys()
            for level in surf.levels:
                assert len(surf.contours[level]) == len(one.contours[level])
                for p, q in zip(surf.contours[level], one.contours[level]):
                    assert np.array_equal(p, q)


def test_fit_surfaces_agrees_with_primal_weights():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(80, 2))
    columns = {
        "xx": [["a", "b", "c"][i % 3] for i in range(80)],
        "yy": ["d" if p[0] + p[1] < 0 else NULL_MARKER for p in pts],
    }
    grid = 60
    assert grid * grid > 3 * _NODE_CHUNK
    surfs = fit_surfaces(pts, coded(columns), grid=grid)
    xx = surfs["xx"]["a"]
    gx, gy = np.meshgrid(xx.xs, xx.ys)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    n_surfaces = 0
    for key, labels in columns.items():
        for means, surf in surfs[key].items():
            want = predict(pts, labels, means, nodes)
            assert np.abs(surf.prob.ravel() - want).max() < 1e-10, (key, means)
            n_surfaces += 1
    assert n_surfaces == 5


@pytest.mark.parametrize("points, labels", [
    (np.random.default_rng(9).normal(size=(4, 2)), ["a"] * 4),
    (np.ones((6, 2)), ["a", "b"] * 3),
    (np.random.default_rng(9).normal(size=(8, 2)), ["a"] * 7),
])
def test_fit_surfaces_raises_once_for_the_whole_call(points, labels):
    good = ["a", "b"] * (len(points) // 2)
    with pytest.raises(SurfaceError):
        fit_surfaces(points, coded({"ok": good, "bad": labels}), grid=10)


def test_second_jitter_rung_gives_finite_surfaces(monkeypatch):
    # five points each given twice: with no nugget the covariance block has
    # equal rows, so the unjittered solve is singular
    base = np.random.default_rng(10).normal(size=(5, 2))
    pts = np.concatenate([base, base])
    outcomes = []
    solve = np.linalg.solve

    def spy(a, b):
        try:
            out = solve(a, b)
        except np.linalg.LinAlgError:
            outcomes.append("singular")
            raise
        outcomes.append("solved")
        return out

    monkeypatch.setattr(np.linalg, "solve", spy)
    surfs = fit_surfaces(pts, coded({"x": ["a", "b", "a", "b", "b"] * 2}), grid=20,
                         nugget_frac=0.0)
    assert outcomes == ["singular", "solved"]
    for surf in surfs["x"].values():
        assert np.all(np.isfinite(surf.prob))
        assert surf.prob.min() >= 0.0 and surf.prob.max() <= 1.0


# contour -----------------------------------------------------------------------

def test_contour_constant_one_covers_grid_box():
    surf = constant_surface(1.0)
    polys = contour(surf, 0.29)
    assert len(polys) == 1
    want = (surf.xs[-1] - surf.xs[0]) * (surf.ys[-1] - surf.ys[0])
    assert polygon_area(polys[0]) == pytest.approx(want, rel=1e-6)


def test_contour_constant_zero_empty():
    assert contour(constant_surface(0.0), 0.29) == []


def test_contour_bump_area_matches_cell_count_oracle():
    surf = bump_surface()
    level = 0.29
    polys = contour(surf, level)
    assert len(polys) == 1
    cell = (surf.xs[1] - surf.xs[0]) * (surf.ys[1] - surf.ys[0])
    oracle = float((surf.prob >= level).sum()) * cell
    assert polygon_area(polys[0]) == pytest.approx(oracle, rel=0.05)
    # and the analytic disc area, for good measure
    import math
    assert polygon_area(polys[0]) == pytest.approx(math.pi * -math.log(level), rel=0.05)


def test_contour_polygons_closed_and_inside_box():
    surf = bump_surface(grid=80)
    for level in DEFAULT_LEVELS:
        for poly in contour(surf, level):
            assert poly[:, 0].min() >= surf.xs[0] - 1e-9
            assert poly[:, 0].max() <= surf.xs[-1] + 1e-9
            assert poly[:, 1].min() >= surf.ys[0] - 1e-9
            assert poly[:, 1].max() <= surf.ys[-1] + 1e-9


def multisaddle_surface():
    # random bump mixture with many saddles
    rng = np.random.default_rng(17)
    xs = np.linspace(0, 1, 90)
    ys = np.linspace(0, 1, 90)
    gx, gy = np.meshgrid(xs, ys)
    prob = np.zeros_like(gx)
    for _ in range(12):
        cx, cy = rng.uniform(0.1, 0.9, 2)
        prob += rng.uniform(0.2, 0.5) * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / 0.02)
    return KrigSurface(xs, ys, np.clip(prob, 0, 1), DEFAULT_LEVELS)


def two_islands_surface():
    xs = np.linspace(-4, 4, 120)
    ys = np.linspace(-2, 2, 120)
    gx, gy = np.meshgrid(xs, ys)
    prob = np.exp(-((gx - 2) ** 2 + gy ** 2)) + np.exp(-((gx + 2) ** 2 + gy ** 2))
    return KrigSurface(xs, ys, np.clip(prob, 0, 1), DEFAULT_LEVELS)


def test_contour_area_conserved_on_noisy_multisaddle_field():
    # every iso-line must close, so the polygon areas (outer minus holes,
    # via even-odd counting on cell centers) match the above-level cell
    # count
    surf = multisaddle_surface()
    xs, ys, prob = surf.xs, surf.ys, surf.prob
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    cx, cy = np.meshgrid((xs[:-1] + xs[1:]) / 2, (ys[:-1] + ys[1:]) / 2)
    centres = np.column_stack([cx.ravel(), cy.ravel()])
    for level in (0.29, 0.5, 0.7):
        polys = contour(surf, level)
        covered = int(contains(polys, centres).sum())
        want = float((prob >= level).sum()) * cell
        assert covered * cell == pytest.approx(want, rel=0.08), level


def test_contour_nodes_inside_iff_on_or_above_the_level():
    # the drawn-field raster property: the polygons contain a lattice node
    # exactly when its value is on or above the level
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(stack_cases(hyp.strategies, 2, 16))
    def check(case):
        xs, ys, probs, levels = field_stack(*case)
        gx, gy = np.meshgrid(xs, ys)
        nodes = np.column_stack([gx.ravel(), gy.ravel()])
        for prob, polys in zip(probs, _contours(xs, ys, probs, levels)):
            for level, p in zip(levels, polys):
                got = contains(p, nodes)
                assert np.array_equal(got, prob.ravel() >= level), (case, level)

    check()


def test_contour_two_islands():
    polys = contour(two_islands_surface(), 0.5)
    assert len(polys) == 2


# contains ----------------------------------------------------------------------

UNIT_SQUARE = [np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])]


def test_contains_unit_square_inside():
    assert contains(UNIT_SQUARE, np.array([[0.5, 0.5]])).tolist() == [True]


def test_contains_unit_square_outside():
    assert contains(UNIT_SQUARE, np.array([[2.0, 2.0]])).tolist() == [False]


def test_contains_boundary_counts_inside():
    assert contains(UNIT_SQUARE, np.array([[0.0, 0.5], [1.0, 1.0]])).tolist() == [True, True]


def test_contains_agrees_with_rasterized_oracle():
    # polygons come from a 200-node grid; the oracle is the same field
    # rasterized in the fine-grid limit, i.e. evaluated at the points
    surf = bump_surface(grid=200)
    level = 0.32
    polys = contour(surf, level)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(1000, 2))
    want = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2)) >= level
    agree = int((contains(polys, pts) == want).sum())
    assert agree / 1000 >= 0.999


def test_contains_empty_set():
    assert contains([], np.array([[0.0, 0.0]])).tolist() == [False]


def test_contains_batch_is_bool_array():
    pts = np.array([[0.5, 0.5], [2.0, 2.0], [0.0, 0.5]])
    got = contains(UNIT_SQUARE, pts)
    assert got.shape == (3,) and got.dtype == bool
    assert got.tolist() == [True, False, True]
    assert contains([], pts).tolist() == [False, False, False]


# scalar reference oracles ------------------------------------------------------
# The per-edge containment loop, and the per-cell marching-squares loop with
# its chain assembly by lattice edge and exact compare-to-last-kept
# de-duplication, that the batched versions replaced. The marching-squares
# loop interpolates each crossing from its lattice edge's node on or above
# the level, so both ends of a lattice edge's segments get one point. Both
# compute the same floats in the same order, so results must agree exactly.

def contains_oracle(polygons, point) -> bool:
    px, py = float(point[0]), float(point[1])
    if not polygons:
        return False
    span = max(max(float(np.abs(p).max()) for p in polygons), 1.0)
    eps = span * 1e-9
    crossings = 0
    for poly in polygons:
        n = poly.shape[0]
        for i in range(n):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % n]
            dx, dy = x2 - x1, y2 - y1
            seg2 = dx * dx + dy * dy
            if seg2 > 0:
                t = ((px - x1) * dx + (py - y1) * dy) / seg2
                t = min(1.0, max(0.0, t))
                cx, cy = x1 + t * dx, y1 + t * dy
            else:
                cx, cy = x1, y1
            if (px - cx) ** 2 + (py - cy) ** 2 <= eps * eps:
                return True
            if (y1 > py) != (y2 > py):
                x_at = x1 + (py - y1) * dx / dy
                if x_at > px:
                    crossings += 1
    return crossings % 2 == 1


def contour_oracle(surface, level):
    def interp(p1, p2, v1, v2):
        t = (level - v1) / (v2 - v1)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))

    xs, ys, prob = surface.xs, surface.ys, surface.prob
    gx = np.concatenate([[2 * xs[0] - xs[1]], xs, [2 * xs[-1] - xs[-2]]])
    gy = np.concatenate([[2 * ys[0] - ys[1]], ys, [2 * ys[-1] - ys[-2]]])
    vals = np.full((len(gy), len(gx)), level - 1.0)
    vals[1:-1, 1:-1] = prob
    table = {
        1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
        6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
        11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    }
    segments = []
    edges = []  # per segment, the lattice edges (node pairs) its ends lie on
    inside = vals >= level
    for iy in range(len(gy) - 1):
        for ix in range(len(gx) - 1):
            nodes = [(iy, ix), (iy, ix + 1), (iy + 1, ix + 1), (iy + 1, ix)]
            c = [(gx[jx], gy[jy]) for jy, jx in nodes]
            v = [
                vals[iy, ix], vals[iy, ix + 1],
                vals[iy + 1, ix + 1], vals[iy + 1, ix],
            ]
            b = (
                (1 if inside[iy, ix] else 0)
                | (2 if inside[iy, ix + 1] else 0)
                | (4 if inside[iy + 1, ix + 1] else 0)
                | (8 if inside[iy + 1, ix] else 0)
            )
            if b in (0, 15):
                continue
            if b == 5:
                center = sum(v) / 4.0
                pairs = [(3, 2), (1, 0)] if center >= level else [(3, 0), (1, 2)]
            elif b == 10:
                center = sum(v) / 4.0
                pairs = [(0, 3), (2, 1)] if center >= level else [(0, 1), (2, 3)]
            else:
                pairs = table[b]
            for e1, e2 in pairs:
                ends, on = [], []
                for edge in (e1, e2):
                    i1, i2 = [(0, 1), (1, 2), (2, 3), (3, 0)][edge]
                    if v[i1] < level:
                        i1, i2 = i2, i1
                    ends.append(interp(c[i1], c[i2], v[i1], v[i2]))
                    on.append(frozenset((nodes[i1], nodes[i2])))
                segments.append(tuple(ends))
                edges.append(tuple(on))
    clipped = []
    for poly in assemble_oracle(segments, edges):
        arr = np.array(poly)
        arr[:, 0] = np.clip(arr[:, 0], xs[0], xs[-1])
        arr[:, 1] = np.clip(arr[:, 1], ys[0], ys[-1])
        clipped.append(dedupe_oracle(arr))
    return clipped


def assemble_oracle(segments, edges):
    # a chain goes on with the one segment that starts on the lattice edge
    # its last segment ends on, until it is back on its first edge
    start_on = {on[0]: i for i, on in enumerate(edges)}
    used = [False] * len(segments)
    polys = []
    for i, seg in enumerate(segments):
        if used[i]:
            continue
        chain = [seg[0], seg[1]]
        used[i] = True
        last = edges[i][1]
        while last != edges[i][0]:
            nxt = start_on[last]
            assert not used[nxt]
            used[nxt] = True
            chain.append(segments[nxt][1])
            last = edges[nxt][1]
        polys.append(chain[:-1])
    return polys


def dedupe_oracle(arr):
    keep = [0]
    for i in range(1, arr.shape[0]):
        if arr[i, 0] != arr[keep[-1], 0] or arr[i, 1] != arr[keep[-1], 1]:
            keep.append(i)
    while len(keep) > 1 and (
        arr[keep[-1], 0] == arr[keep[0], 0] and arr[keep[-1], 1] == arr[keep[0], 1]
    ):
        keep.pop()
    return arr[keep]


def grid_surface(prob):
    prob = np.asarray(prob, dtype=float)
    xs = np.linspace(0.0, 1.0, prob.shape[1])
    ys = np.linspace(0.0, 1.0, prob.shape[0])
    return KrigSurface(xs, ys, prob, DEFAULT_LEVELS)


def on_level_surface():
    # corner values exactly on the level give zero-length crossings
    rng = np.random.default_rng(23)
    return grid_surface(rng.choice([0.25, 0.5, 0.75], size=(24, 24)))


SADDLES = {
    # prob[0] is the bottom row: case 5 has corners 0 and 2 inside,
    # case 10 corners 1 and 3; level 0.5
    "case5-centre-inside": ([[0.9, 0.2], [0.2, 0.9]], 1),
    "case5-centre-outside": ([[0.6, 0.1], [0.1, 0.6]], 2),
    "case10-centre-inside": ([[0.2, 0.9], [0.9, 0.2]], 1),
    "case10-centre-outside": ([[0.1, 0.6], [0.6, 0.1]], 2),
}


def assert_same_polygons(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("name", sorted(SADDLES))
def test_contour_saddles_match_scalar_oracle(name):
    prob, n_polys = SADDLES[name]
    surf = grid_surface(prob)
    got = contour(surf, 0.5)
    assert len(got) == n_polys
    assert_same_polygons(got, contour_oracle(surf, 0.5))


def test_contour_keeps_on_level_node_inside():
    # the node at (1, 0) is on the level and only reached by the boundary
    # running along the bottom row; it stays on the polygon's boundary
    surf = grid_surface([[0.75, 0.5, 0.5], [0.25] * 3, [0.25] * 3])
    polys = contour(surf, 0.5)
    assert contains(polys, np.array([[1.0, 0.0], [0.5, 0.0]])).tolist() == [True, True]
    assert_same_polygons(polys, contour_oracle(surf, 0.5))


@pytest.mark.parametrize("ridge", [1, 2])
def test_contour_keeps_on_level_maximum_inside(ridge):
    # an isolated maximum exactly on the level, or a ridge of two such
    # nodes: every crossing falls on those nodes, so the polygon keeps
    # one or two vertices, and it contains them
    prob = np.full((5, 5), 0.1)
    prob[2, 2:2 + ridge] = 0.5
    surf = grid_surface(prob)
    polys = contour(surf, 0.5)
    nodes = np.array([[0.5, 0.5], [0.75, 0.5]])[:ridge]
    assert [len(p) for p in polys] == [ridge]
    assert contains(polys, nodes).all()
    assert_same_polygons(polys, contour_oracle(surf, 0.5))


@pytest.mark.parametrize("level", [0.29, 0.5])
@pytest.mark.parametrize("above", ["next-float", "1e-13"])
def test_contour_keeps_isolated_maximum_just_above_the_level(level, above):
    # the centre node alone is above the level, by one float or by 1e-13;
    # its four crossings lie within 1e-13 of it, yet they are distinct, so
    # its polygon stays and contains it
    prob = np.full((5, 5), 0.1)
    prob[2, 2] = np.nextafter(level, 1.0) if above == "next-float" else level + 1e-13
    surf = grid_surface(prob)
    polys = contour(surf, level)
    assert len(polys) == 1
    assert contains(polys, np.array([[0.5, 0.5]])).tolist() == [True]
    assert_same_polygons(polys, contour_oracle(surf, level))


@pytest.mark.parametrize("field, levels", [
    (multisaddle_surface, (0.29, 0.5, 0.7)),
    (two_islands_surface, (0.5,)),
    (on_level_surface, (0.5, 0.25, 0.75)),
    (lambda: bump_surface(grid=60), DEFAULT_LEVELS),
])
def test_contour_matches_scalar_oracle(field, levels):
    surf = field()
    for level in levels:
        want = contour_oracle(surf, level)
        assert want, level
        assert_same_polygons(contour(surf, level), want)


def random_field(rng, kind, scale, offset):
    """A small field over a lattice of extent ``scale`` placed at ``offset``:
    uniform values, values snapped to 0.1, or values on 0.2/0.5/0.8 only."""
    ny, nx = (int(v) for v in rng.integers(2, 24, size=2))
    u = rng.uniform(0.0, 1.0, size=(ny, nx))
    prob = {
        "uniform": u,
        "snapped": np.round(u * 10) / 10,
        "on-level": rng.choice([0.2, 0.5, 0.8], size=(ny, nx)),
    }[kind]
    xs = offset + scale * np.linspace(0.0, 1.0, nx)
    ys = offset / 3 + scale * np.linspace(-0.4, 0.3, ny)
    return KrigSurface(xs, ys, prob, DEFAULT_LEVELS)


# levels hit exactly by the snapped and on-level values, and one between them
CLOSURE_LEVELS = (0.5, 0.3, 0.29)
CLOSURE_FIELDS = [
    (kind, scale, offset)
    for kind in ("uniform", "snapped", "on-level")
    for scale in (1e-3, 1.0, 1e3, 1e6)
    for offset in (0.0, -2.5 * scale, 40.0 * scale)
]


def test_every_contour_chain_closes():
    # 432 fields, each one stack of its three levels; quantized ones put
    # lattice values on the level, where crossings of several lattice
    # edges coincide at one node
    rng = np.random.default_rng(29)
    levels = np.array(CLOSURE_LEVELS)
    for _ in range(12):
        for kind, scale, offset in CLOSURE_FIELDS:
            surf = random_field(rng, kind, scale, offset)
            pts, edges, stack = _segments(surf.xs, surf.ys, np.stack([surf.prob] * 3), levels)
            seq, lens = _chains(edges, stack)
            # the chains hold every segment exactly once, each chain at
            # least four, and no chain leaves its stack
            assert sorted(seq.tolist()) == list(range(len(stack))), (kind, scale, offset)
            assert (lens >= 4).all()
            heads = seq[np.cumsum(lens) - lens]
            assert np.array_equal(stack[seq], np.repeat(stack[heads], lens))


@pytest.mark.parametrize("kind, scale, offset", CLOSURE_FIELDS)
def test_contour_matches_scalar_oracle_on_random_fields(kind, scale, offset):
    rng = np.random.default_rng(31)
    for _ in range(2):
        surf = random_field(rng, kind, scale, offset)
        for level in CLOSURE_LEVELS:
            assert_same_polygons(contour(surf, level), contour_oracle(surf, level))


# batched contours ---------------------------------------------------------------

STACK_KINDS = ("uniform", "snapped", "on-level", "bump")


def field_stack(seed, kinds, ny, nx, scale, levels):
    """Fields of the kinds named over one ``ny`` by ``nx`` lattice of extent
    ``scale``: uniform values, values snapped to 0.1, values on
    0.2/0.5/0.8 only (lattice values exactly on a level), or a bump."""
    rng = np.random.default_rng(seed)
    xs = scale * (np.linspace(0.0, 1.0, nx) - rng.uniform(0.0, 2.0))
    ys = scale * np.linspace(-0.4, 0.3, ny)
    gx, gy = np.meshgrid(np.linspace(-1.0, 1.0, nx), np.linspace(-1.0, 1.0, ny))
    probs = []
    for kind in kinds:
        u = rng.uniform(0.0, 1.0, size=(ny, nx))
        probs.append({
            "uniform": u,
            "snapped": np.round(u * 10) / 10,
            "on-level": rng.choice([0.2, 0.5, 0.8], size=(ny, nx)),
            "bump": np.exp(-((gx - u[0, 0] + 0.5) ** 2 + gy ** 2) * 4.0),
        }[kind])
    return xs, ys, np.array(probs), tuple(levels)


def assert_batch_matches_oracle(xs, ys, probs, levels):
    got = _contours(xs, ys, probs, levels)
    assert len(got) == len(probs)
    for prob, polys in zip(probs, got):
        surf = KrigSurface(xs, ys, prob, levels)
        assert len(polys) == len(levels)
        for level, p in zip(levels, polys):
            assert_same_polygons(p, contour_oracle(surf, level))


def stack_cases(st, min_side, max_side):
    return st.tuples(
        st.integers(0, 2 ** 32 - 1),
        st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=6),
        st.integers(min_side, max_side),
        st.integers(min_side, max_side),
        st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
        st.lists(st.sampled_from([0.5, 0.3, 0.29, 0.2, 0.8, 0.35]), min_size=1, max_size=3),
    )


def test_batched_contours_match_scalar_oracle_per_field():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(stack_cases(hyp.strategies, 2, 16))
    @hyp.example((29, ["uniform", "on-level", "snapped"], 24, 24, 1.0, list(CLOSURE_LEVELS)))
    @hyp.example((31, ["on-level", "bump"], 2, 23, 1e6, [0.5, 0.2]))
    def check(case):
        assert_batch_matches_oracle(*field_stack(*case))

    check()


def test_batched_contours_spanning_several_batches_match_scalar_oracle():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @hyp.given(stack_cases(hyp.strategies, 30, 44))
    @hyp.example((23, ["bump", "uniform", "on-level", "snapped", "bump"], 40, 40, 1.0,
                  list(DEFAULT_LEVELS)))
    def check(case):
        seed, kinds, ny, nx, scale, levels = case
        cells = (ny + 2) * (nx + 2)
        # enough fields for the (field, level) pairs to fill two batches
        per = _CONTOUR_CELLS // cells
        kinds = (kinds * (2 * per + 1))[:max(len(kinds), per // len(levels) + 1)]
        assert len(kinds) * len(levels) > per
        assert_batch_matches_oracle(*field_stack(seed, kinds, ny, nx, scale, levels))

    check()


def test_fit_surfaces_contours_equal_one_contour_call_per_level():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(60, 2))
    columns = {"xx": [["a", "b", "c"][i % 3] for i in range(60)],
               "yy": ["d" if p[0] < 0.3 else NULL_MARKER for p in pts]}
    surfs = fit_surfaces(pts, coded(columns), grid=50)
    assert 5 * len(DEFAULT_LEVELS) * 52 * 52 > _CONTOUR_CELLS
    for key in columns:
        for surf in surfs[key].values():
            assert list(surf.contours) == list(DEFAULT_LEVELS)
            for level in DEFAULT_LEVELS:
                assert_same_polygons(surf.contours[level], contour(surf, level))


# median ------------------------------------------------------------------------

def test_median_equals_numpy_median():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @hyp.example([0.1, 0.2, 0.7])
    @hyp.example([0.1, 0.2, 0.7, 0.3])
    @hyp.example([1.0 / 3.0, 2.0 / 3.0])
    def check(values):
        a = np.array(values)
        assert _median(a) == float(np.median(a))

    check()
    rng = np.random.default_rng(2)
    for n in (45, 46, 4950, 4951):
        a = rng.uniform(0.0, 7.0, size=n)
        assert _median(a) == float(np.median(a))


def test_fit_surfaces_and_k_selection_leave_numpy_ma_unimported():
    # np.median and np.unique without indices import numpy.ma on first
    # use, 12-16 ms in every process
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from semmap.mixture import select_k\n"
        "from semmap.pivot import code_labels\n"
        "from semmap.surfaces import fit_surfaces\n"
        "pts = np.random.default_rng(0).normal(size=(40, 2))\n"
        "labels = code_labels(['a' if p[0] < 0 else 'b' for p in pts])\n"
        "fit_surfaces(pts, {'x': labels}, grid=30)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by fit_surfaces'\n"
        "select_k(pts, (2, 3), seed=0)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by select_k'\n"
    )
    src = str(Path(semmap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    assert proc.returncode == 0, proc.stderr


DEDUPE_CASES = {
    "distinct": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    # -0.0 equals 0.0, so the last two vertices repeat the first
    "closing-vertex-equals-first": np.array(
        [[-1.0, -0.0], [0.5, -1.0], [0.5, 0.5], [-1.0, 0.0], [-1.0, 0.0]]),
    "closing-vertex-next-to-first": np.array(
        [[-1.0, 0.0], [0.5, -1.0], [0.5, 0.5], [-1.0, np.nextafter(0.0, 1.0)]]),
    "all-duplicate": np.full((5, 2), 0.25),
    "all-near-duplicate": np.array([[3.0, 3.0], [3.0 + 4e-12, 3.0], [3.0, 3.0 - 4e-12]]),
}


def dedupe(arr):
    """``_dedupe`` of one polygon, as the vertices it keeps."""
    return arr[_dedupe(arr, [len(arr)])]


def dedupe_all(polys):
    """``_dedupe`` of polygons in one call, as each polygon's kept vertices."""
    lens = [len(p) for p in polys]
    keep = _dedupe(np.concatenate(polys), lens)
    bounds = np.cumsum(lens)[:-1]
    return [p[k] for p, k in zip(polys, np.split(keep, bounds))]


@pytest.mark.parametrize("name", sorted(DEDUPE_CASES))
def test_dedupe_matches_loop(name):
    arr = DEDUPE_CASES[name]
    got = dedupe(arr)
    assert got.dtype == arr.dtype
    assert np.array_equal(got, dedupe_oracle(arr))


def test_dedupe_of_many_polygons_matches_loop_per_polygon():
    # each polygon's closing vertices are compared with its own first
    # vertex, not with a neighbour's
    polys = [DEDUPE_CASES[name] * scale
             for scale in (1.0, 1e-6, 1e6) for name in sorted(DEDUPE_CASES)]
    for got, arr in zip(dedupe_all(polys), polys):
        assert np.array_equal(got, dedupe_oracle(arr))


def test_dedupe_matches_loop_on_random_repeated_runs():
    rng = np.random.default_rng(37)
    polys = []
    for _ in range(300):
        n = int(rng.integers(1, 30))
        base = rng.uniform(-3.0, 3.0, size=(n, 2))
        base[rng.uniform(size=base.shape) < 0.3] = 0.0
        # repeat vertices into runs, some closing on the first vertex, and
        # give a random sign to every zero, so -0.0 meets 0.0
        arr = np.repeat(base, rng.integers(1, 4, size=n), axis=0)
        if rng.uniform() < 0.3:
            arr = np.concatenate([arr, np.repeat(arr[:1], rng.integers(1, 3), axis=0)])
        zero = arr == 0.0
        arr[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
        assert np.array_equal(dedupe(arr), dedupe_oracle(arr))
        polys.append(arr)
    for got, arr in zip(dedupe_all(polys), polys):
        assert np.array_equal(got, dedupe_oracle(arr))


def probe_points(polys, rng, n_random=60):
    """Random points plus vertices, edge midpoints, points along edges
    (horizontal ones included) and points level with a vertex."""
    verts = np.concatenate(polys)
    ends = np.concatenate([np.roll(p, -1, axis=0) for p in polys])
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    pick = rng.choice(len(verts), size=min(len(verts), 30), replace=False)
    t = rng.uniform(0, 1, size=(len(pick), 1))
    level_y = np.column_stack([rng.uniform(lo[0], hi[0], len(pick)), verts[pick, 1]])
    return np.concatenate([
        rng.uniform(lo - 0.1, hi + 0.1, size=(n_random, 2)),
        verts[pick],
        (verts[pick] + ends[pick]) / 2,
        verts[pick] + t * (ends[pick] - verts[pick]),
        level_y,
    ])


def star_polygon(rng, n, centre, quantum=None):
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    radii = rng.uniform(0.3, 1.0, n)
    poly = np.column_stack([centre[0] + radii * np.cos(angles),
                            centre[1] + radii * np.sin(angles)])
    if quantum:
        # snapped vertices: horizontal edges, shared ys, repeated vertices
        poly = np.round(poly / quantum) * quantum
    return poly


@pytest.mark.parametrize("seed", range(3))
def test_batched_contains_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    sets = [
        contour(multisaddle_surface(), (0.29, 0.5, 0.7)[seed]),
        contour(on_level_surface(), 0.5),
        # many edges in one polygon, spanning several edge blocks
        [star_polygon(rng, 300, (0.0, 0.0))],
        [star_polygon(rng, 40, (0.0, 0.0), quantum=0.25),
         star_polygon(rng, 40, (1.5, 0.5), quantum=0.25)],
        # nested rectangles: a hole under even-odd counting
        [np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]]),
         np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0], [1.0, 2.0]])],
    ]
    for polys in sets:
        pts = probe_points(polys, rng)
        want = [contains_oracle(polys, p) for p in pts]
        assert contains(polys, pts).tolist() == want


def test_batched_contains_property_matches_scalar_oracle():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    star = st.tuples(
        # within one edge block, or spanning two
        st.one_of(st.integers(3, _EDGE_CHUNK), st.integers(_EDGE_CHUNK + 1, 2 * _EDGE_CHUNK)),
        st.sampled_from([None, 0.25, 0.05]),
        st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    )
    point = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))

    # the contour sets cost most of the oracle's time, so only some drawn
    # cases take them
    @hyp.settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(0, 2 ** 32 - 1), st.booleans(),
               st.lists(st.lists(star, min_size=1, max_size=2), min_size=1, max_size=2),
               st.lists(point, max_size=20))
    def check(seed, contoured, star_sets, extra):
        rng = np.random.default_rng(seed)
        sets = [contour(multisaddle_surface(), (0.29, 0.5, 0.7)[seed % 3]),
                contour(on_level_surface(), 0.5)] if contoured else []
        sets += [[star_polygon(rng, n, centre, quantum) for n, quantum, centre in stars]
                 for stars in star_sets]
        # nested rectangles: a hole under even-odd counting
        sets.append([np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]]),
                     np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0], [1.0, 2.0]])])
        for polys in sets:
            pts = np.concatenate([probe_points(polys, rng), np.reshape(extra, (-1, 2))])
            want = [contains_oracle(polys, p) for p in pts]
            assert contains(polys, pts).tolist() == want

    check()


# null heat ---------------------------------------------------------------------

def test_null_heat_counts():
    m = ParallelUsageMatrix.from_rows(
        row_ids=["r1", "r2"],
        columns=[f"L{i}" for i in range(10)],
        rows=[[NULL_MARKER] * 10, ["w"] * 10],
    )
    assert null_heat(m) == [10, 0]


def test_null_heat_equals_brute_force_on_random_matrix():
    import random

    rng = random.Random(5)
    cells = [[rng.choice(["x", NULL_MARKER]) for _ in range(7)] for _ in range(40)]
    m = ParallelUsageMatrix.from_rows(
        row_ids=[f"r{i}" for i in range(40)],
        columns=[f"L{j}" for j in range(7)],
        rows=cells,
    )
    got = null_heat(m)
    assert got == [sum(1 for c in row if c == NULL_MARKER) for row in cells]


# text formatting ---------------------------------------------------------------
# The tuple-through-``format_rows`` writers the per-row f-strings replaced.

def grid_to_tsv_oracle(surf):
    xs = [f"{x:.6f}" for x in surf.xs.tolist()]
    rows = [("x", "y", "prob")]
    for y, probs in zip(surf.ys.tolist(), surf.prob.tolist()):
        fy = f"{y:.6f}"
        rows.extend((fx, fy, f"{p:.6f}") for fx, p in zip(xs, probs))
    return format_rows(rows)


def contours_to_tsv_oracle(surf):
    rows = [("level", "polygon", "x", "y")]
    for level in surf.levels:
        for pi, poly in enumerate(surf.contours.get(level, [])):
            rows.extend((f"{level:g}", pi, f"{x:.6f}", f"{y:.6f}")
                        for x, y in poly.tolist())
    return format_rows(rows)


def formatting_surfaces():
    # negative and signed-zero coordinates, and values on either side of a
    # rounding step at the sixth decimal
    xs = np.array([-2.5, -1e-7, -0.0, 0.0, 4.9999995e-7, 1.2345675])
    ys = np.array([-0.0000005, -0.0, 0.1234565, 3.0])
    prob = np.array([[0.0, -0.0, 1.0, 0.5, 0.0000005, 0.0000015],
                     [0.1234565, 0.9999995, 0.3333333, 2.5e-7, 1e-300, 0.7]] * 2)
    polys = [np.array([[-0.0, 0.0], [-1.5e-7, 2.0000005], [3.1234565, -4.4999995]]),
             np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1e-9, -0.0]])]
    full = KrigSurface(xs, ys, prob, DEFAULT_LEVELS,
                       contours={0.35: polys[:1], 0.32: [], 0.29: polys})
    # no polygons at any level, and a level missing from the contour map
    empty = KrigSurface(xs, ys, prob[::-1], DEFAULT_LEVELS, contours={0.35: []})
    grown = bump_surface(grid=37)
    for level in grown.levels:
        grown.contours[level] = contour(grown, level)
    return [full, empty, grown]


def test_tsv_writers_match_format_rows_oracle():
    for surf in formatting_surfaces():
        assert surf.grid_to_tsv() == grid_to_tsv_oracle(surf)
        assert surf.contours_to_tsv() == contours_to_tsv_oracle(surf)
