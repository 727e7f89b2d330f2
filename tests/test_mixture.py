import numpy as np
import pytest

from semmap.balltree import BallTree
from semmap.mixture import (
    MixtureError,
    core_points,
    fit_gmm,
    kmeans_init,
    select_k,
    silhouette_score,
)


def three_blobs(n_per=200, seed=0, spread=0.35):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    pts = np.vstack([
        rng.normal(c, spread, size=(n_per, 2)) for c in centers
    ])
    labels = np.repeat(np.arange(3), n_per)
    perm = rng.permutation(len(pts))
    return pts[perm], labels[perm], centers


def brute_knn(points, q, k):
    d = np.sqrt(((points - q) ** 2).sum(axis=1))
    order = sorted(range(len(points)), key=lambda i: (d[i], i))[:k]
    return [(float(d[i]), i) for i in order]


# exact kNN -----------------------------------------------------------------------

def test_balltree_equals_linear_scan():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, size=(1000, 2))
    tree = BallTree(pts)
    queries = rng.uniform(-5, 5, size=(100, 2))
    for q in queries:
        got = tree.query(q, 30)
        want = brute_knn(pts, q, 30)
        assert got == want


def test_balltree_with_duplicate_points_breaks_ties_by_index():
    pts = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
    tree = BallTree(pts)
    got = tree.query((0.0, 0.0), 7)
    assert [i for _, i in got] == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("k", [1, 7, 30, 50])
def test_balltree_various_k(k):
    rng = np.random.default_rng(k)
    pts = rng.normal(size=(300, 2))
    tree = BallTree(pts)
    for q in rng.normal(size=(20, 2)):
        assert [i for _, i in tree.query(q, k)] == [i for _, i in brute_knn(pts, q, k)]


def test_balltree_k_bounds():
    tree = BallTree(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        tree.query((0, 0), 6)
    with pytest.raises(ValueError):
        tree.query((0, 0), 0)


# kmeans -------------------------------------------------------------------------

def test_kmeans_single_cluster_is_mean():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 2))
    centers = kmeans_init(pts, 1, seed=0)
    assert np.allclose(centers[0], pts.mean(axis=0), atol=1e-9)


def test_kmeans_recovers_blob_centers():
    pts, _, centers = three_blobs(seed=5)
    got = kmeans_init(pts, 3, seed=1)
    for c in centers:
        nearest = got[np.argmin(((got - c) ** 2).sum(axis=1))]
        assert np.sqrt(((nearest - c) ** 2).sum()) < 0.35


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(8, 2))
    centers = kmeans_init(pts, 8, seed=0)
    got = {tuple(np.round(c, 9)) for c in centers}
    want = {tuple(np.round(p, 9)) for p in pts}
    assert got == want


def test_kmeans_bounds():
    with pytest.raises(MixtureError):
        kmeans_init(np.zeros((3, 2)), 0)
    with pytest.raises(MixtureError):
        kmeans_init(np.zeros((3, 2)), 4)


# gmm ----------------------------------------------------------------------------

def test_gmm_single_component_matches_sample_moments():
    rng = np.random.default_rng(4)
    pts = rng.normal([1.0, -2.0], 1.3, size=(400, 2))
    model = fit_gmm(pts, 1, seed=0)
    assert np.allclose(model.means[0], pts.mean(axis=0), rtol=0.05, atol=0.05)
    want_cov = np.cov(pts.T, bias=True)
    assert np.allclose(model.covariances[0], want_cov, rtol=0.05, atol=0.05)


def test_gmm_loglik_non_decreasing():
    pts, _, _ = three_blobs(n_per=100, seed=6)
    model = fit_gmm(pts, 3, seed=2)
    for prev, cur in zip(model.loglik, model.loglik[1:]):
        assert cur >= prev - 1e-9


def test_gmm_purity_on_planted_blobs():
    pts, truth, _ = three_blobs(seed=7)
    model = fit_gmm(pts, 3, seed=3)
    # best label permutation
    from itertools import permutations

    best = 0
    for perm in permutations(range(3)):
        mapped = np.array([perm[a] for a in model.assignments])
        best = max(best, (mapped == truth).mean())
    assert best >= 0.98


def test_gmm_seed_determinism_bit_identical():
    pts, _, _ = three_blobs(n_per=80, seed=8)
    m1 = fit_gmm(pts, 3, seed=9)
    m2 = fit_gmm(pts, 3, seed=9)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(m1.covariances, m2.covariances)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.loglik == m2.loglik


def test_gmm_weights_and_responsibilities_normalized():
    pts, _, _ = three_blobs(n_per=60, seed=10)
    model = fit_gmm(pts, 3, seed=1)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(model.responsibilities.sum(axis=1), 1.0, atol=1e-9)
    evs = np.linalg.eigvalsh(model.covariances)
    assert evs.min() >= 1e-6 * 0.99


def test_gmm_needs_enough_points():
    with pytest.raises(MixtureError):
        fit_gmm(np.zeros((5, 2)), 2)


# select_k -----------------------------------------------------------------------

def test_select_k_finds_three_blobs_across_seeds():
    hits = 0
    for seed in range(20):
        pts, _, _ = three_blobs(n_per=200, seed=100 + seed)
        report = select_k(pts, range(2, 9), seed=seed)
        hits += report.chosen_k == 3
    assert hits >= 19


def test_select_k_agreement_flags_on_clean_blobs():
    pts, _, _ = three_blobs(n_per=150, seed=77)
    report = select_k(pts, range(2, 6), seed=1)
    assert report.chosen_k == 3
    assert report.aic_agrees and report.silhouette_agrees


def test_select_k_keeps_the_chosen_fit():
    pts, _, _ = three_blobs(n_per=60, seed=5)
    report = select_k(pts, [2, 3, 4], seed=3)
    refit = fit_gmm(pts, report.chosen_k, seed=3)
    assert report.model.k == report.chosen_k
    assert report.model.loglik == refit.loglik
    assert np.array_equal(report.model.assignments, refit.assignments)
    assert np.array_equal(report.model.covariances, refit.covariances)


def test_select_k_identical_points_all_fail():
    pts = np.ones((30, 2))
    with pytest.raises(MixtureError) as err:
        select_k(pts, [2, 3], seed=0)
    report = getattr(err.value, "report", None)
    assert report is not None
    assert all(row["failed"] for row in report.rows)
    assert report.model is None


def test_select_k_range_validation():
    pts = np.random.default_rng(0).normal(size=(30, 2))
    with pytest.raises(MixtureError):
        select_k(pts, [11], seed=0)  # > n/3


@pytest.mark.parametrize("shape", [(30, 3), (30,)])
def test_points_off_the_plane_are_rejected(shape):
    pts = np.random.default_rng(0).normal(size=shape)
    with pytest.raises(MixtureError, match=r"\(n, 2\)"):
        fit_gmm(pts, 3, seed=0)
    with pytest.raises(MixtureError, match=r"\(n, 2\)"):
        select_k(pts, [2, 3], seed=0)


def test_silhouette_sane_on_blobs():
    pts, truth, _ = three_blobs(n_per=50, seed=12)
    good = silhouette_score(pts, truth)
    rng = np.random.default_rng(0)
    bad = silhouette_score(pts, rng.integers(0, 3, len(pts)))
    assert good > 0.7 > bad


# core points --------------------------------------------------------------------

def test_core_points_isolated_cluster_is_itself():
    far = np.array([[100.0 + i * 0.01, 100.0] for i in range(10)])
    near = np.random.default_rng(1).normal(size=(50, 2))
    pts = np.vstack([near, far])
    assignments = np.array([0] * 50 + [1] * 10)
    cs = core_points(pts, assignments, 1, k=10)
    assert sorted(cs.member_ids) == list(range(50, 60))


def test_core_points_k1_nearest_observation():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.0]])
    cs = core_points(pts, np.array([0, 0, 0]), 0, k=1)
    # centroid (0.4667, 0) is closest to the third point
    assert cs.member_ids == [2]


def test_core_points_balltree_equals_linear_scan():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-4, 4, size=(1000, 2))
    assignments = (pts[:, 0] > 0).astype(int)
    cs = core_points(pts, assignments, 1, k=30)
    centroid = pts[assignments == 1].mean(axis=0)
    want = [i for _, i in brute_knn(pts, centroid, 30)]
    assert cs.member_ids == want


def test_core_points_centroid_is_cluster_mean():
    pts, truth, _ = three_blobs(n_per=40, seed=14)
    cs = core_points(pts, truth, 2, k=5)
    assert np.allclose(cs.centroid, pts[truth == 2].mean(axis=0), atol=1e-12)


def test_core_points_errors():
    pts = np.zeros((5, 2))
    with pytest.raises(MixtureError):
        core_points(pts, np.zeros(5, dtype=int), 0, k=6)
    with pytest.raises(MixtureError):
        core_points(pts, np.zeros(5, dtype=int), 3, k=2)
