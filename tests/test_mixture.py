import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semmap.balltree import BallTree
from semmap.mixture import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    MixtureError,
    _Pcg64,
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


@pytest.mark.parametrize("query", [(0.0,), (0.0, 0.0, 0.0), ((0.0, 0.0),)])
def test_balltree_query_of_another_shape_is_rejected(query):
    with pytest.raises(ValueError, match="2 coordinates"):
        BallTree(np.zeros((5, 2))).query(query, 1)


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


# the seeding stream ------------------------------------------------------------

# bounds that reach the stream's every branch: 1 draws nothing, 2**31 + 1
# rejects about half its draws, 2**32 returns the raw 32-bit word
STREAM_BOUNDS = (1, 2, 3, 7, 300, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32)


def test_stream_equals_default_rng():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    draw = st.one_of(st.just(None), st.sampled_from(STREAM_BOUNDS), st.integers(1, 2**32))

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(0, 2**300 - 1), st.lists(draw, min_size=1, max_size=60))
    @hyp.example(0, [None, 2**31 + 1, None, 2**32, 5])
    @hyp.example(29, [2**31 + 1] * 8 + [None])
    @hyp.example(2**32, [1, None, 2**32, 2**32, None, 3])
    @hyp.example(2**128, [7, None, 7, 7, None])
    @hyp.example(2**200 + 7, [None, None, 2**31 + 1, 300])
    def same(seed, draws):
        want = np.random.default_rng(seed)
        got = _Pcg64(seed)
        for n in draws:
            if n is None:
                assert got.random() == want.random()
            else:
                assert got.integers(n) == int(want.integers(n))

    same()


def kmeans_init_with_default_rng(points, k, seed):
    """kmeans_init as it stood with ``np.random.default_rng`` seeding it."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[int(rng.integers(n))]
    closest = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            used = set()
            for c in centers[:j]:
                match = np.flatnonzero((pts == c).all(axis=1))
                used.update(int(m) for m in match[:1])
            pick = next((i for i in range(n) if i not in used), 0)
        else:
            r = rng.random() * total
            pick = min(int(np.searchsorted(np.cumsum(closest), r)), n - 1)
        centers[j] = pts[pick]
        closest = np.minimum(closest, ((pts - centers[j]) ** 2).sum(axis=1))
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            sel = labels == j
            if sel.any():
                new_centers[j] = pts[sel].mean(axis=0)
        move = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if move < KMEANS_TOL:
            break
    return centers


def test_kmeans_init_equals_default_rng_seeding():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def cases(draw):
        coord = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-50, 50, allow_nan=False, allow_infinity=False))
        # points come from a small pool, so coincident points are common
        pool = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
        pts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        k = draw(st.integers(1, len(pts)))
        seed = draw(st.one_of(st.integers(0, 2**16), st.integers(0, 2**200)))
        return np.array(pts), k, seed

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(cases())
    def same(case):
        pts, k, seed = case
        assert np.array_equal(kmeans_init(pts, k, seed=seed),
                              kmeans_init_with_default_rng(pts, k, seed))

    same()


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), "7", None, [1, 2]])
def test_bad_seed_is_a_mixture_error_naming_it(seed):
    pts, _, _ = three_blobs(n_per=20, seed=3)
    for call in (lambda: kmeans_init(pts, 3, seed=seed),
                 lambda: fit_gmm(pts, 3, seed=seed),
                 lambda: select_k(pts, [2, 3], seed=seed)):
        with pytest.raises(MixtureError, match="seed") as err:
            call()
        assert repr(seed) in str(err.value)


def test_numpy_integer_and_multi_word_seeds_seed_as_their_value():
    pts, _, _ = three_blobs(n_per=20, seed=3)
    for seed in (np.int64(5), np.uint8(5), 2**70 + 5, 2**32):
        got = kmeans_init(pts, 3, seed=seed)
        assert np.array_equal(got, kmeans_init(pts, 3, seed=int(seed)))
        assert np.array_equal(got, kmeans_init_with_default_rng(pts, 3, int(seed)))


def test_kmeans_init_beyond_the_stream_range_is_a_mixture_error():
    # 2**32 + 1 points as a broadcast view, which holds two floats; the
    # child caps its address space, so code that materialized the points
    # would fail there instead of exhausting the machine's memory
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from semmap.mixture import MixtureError, kmeans_init\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "try:\n"
        "    kmeans_init(np.broadcast_to(np.zeros(2), (2**32 + 1, 2)), 1)\n"
        "except MixtureError as exc:\n"
        "    print(exc)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "2**32" in proc.stdout


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


def test_select_k_of_one_k_keeps_the_fit_bit_for_bit():
    # a run with one K fits it through select_k, which must not change it
    pts, _, _ = three_blobs(n_per=30, seed=12)
    report = select_k(pts, [3], seed=29)
    model = fit_gmm(pts, 3, seed=29)
    assert [(row["k"], row["failed"]) for row in report.rows] == [(3, False)]
    assert report.chosen_k == 3
    for name in ("weights", "means", "covariances", "responsibilities", "assignments"):
        assert np.array_equal(getattr(report.model, name), getattr(model, name)), name
    assert (report.model.loglik, report.model.converged) == (model.loglik, model.converged)


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


def test_select_k_repeated_candidate_is_rejected():
    pts = np.random.default_rng(0).normal(size=(30, 2))
    with pytest.raises(MixtureError, match="must differ"):
        select_k(pts, [3, 3, 2], seed=0)


def test_select_k_fails_the_ks_two_coincident_sites_cannot_fill():
    # two sites of six coincident points each: K = 2 fits them, while a
    # third or fourth component is left with no hard-assigned point
    pts = np.repeat([[0.0, 0.0], [5.0, 5.0]], 6, axis=0)
    report = select_k(pts, [2, 3, 4], seed=0)
    assert [(row["k"], row["failed"]) for row in report.rows] == [
        (2, False), (3, True), (4, True)]
    assert report.chosen_k == 2
    # one K that leaves a cluster empty fails as every K of several would
    with pytest.raises(MixtureError, match="every candidate K failed"):
        select_k(pts, [3], seed=0)


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
    assert sorted(cs.members) == list(range(50, 60))


def test_core_points_k1_nearest_observation():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.0]])
    cs = core_points(pts, np.array([0, 0, 0]), 0, k=1)
    # centroid (0.4667, 0) is closest to the third point
    assert cs.members == [2]


def test_core_points_balltree_equals_linear_scan():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-4, 4, size=(1000, 2))
    assignments = (pts[:, 0] > 0).astype(int)
    cs = core_points(pts, assignments, 1, k=30)
    centroid = pts[assignments == 1].mean(axis=0)
    want = [i for _, i in brute_knn(pts, centroid, 30)]
    assert cs.members == want


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
