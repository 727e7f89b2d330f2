"""Gaussian mixture modelling of the two-dimensional embedded map.

Full-covariance EM with k-means initialization, model-size selection by
AIC/BIC/silhouette, and per-cluster core-point extraction (centroid plus
its k nearest observations found by one exact sorted scan). The k-means++
seeding draws from ``_Pcg64``, a pure-Python copy of the stream
``np.random.default_rng`` gives, so no run imports ``numpy.random``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tsv
from .balltree import BallTree
from .surfaces import _sq_dists

__all__ = [
    "MixtureError",
    "GmmModel",
    "CorePointSet",
    "SelectionReport",
    "kmeans_init",
    "k_bounds",
    "fit_gmm",
    "select_k",
    "silhouette_score",
    "core_points",
]

COV_FLOOR = 1e-6      # added to the covariance diagonals at every M step
KMEANS_TOL = 1e-6     # Lloyd iterations stop once no center moves this far
KMEANS_MAX_ITER = 100
EM_TOL = 1e-7         # EM stops once the log-likelihood changes less
EM_MAX_ITER = 500


class MixtureError(ValueError):
    pass


@dataclass
class GmmModel:
    k: int
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    responsibilities: np.ndarray
    assignments: np.ndarray
    loglik: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def final_loglik(self) -> float:
        return self.loglik[-1]

    def n_parameters(self) -> int:
        # weights (k-1) + means (2k) + symmetric 2x2 covariances (3k)
        return (self.k - 1) + 2 * self.k + 3 * self.k


@dataclass
class CorePointSet:
    cluster: int
    centroid: np.ndarray
    members: list[int]        # point indices, nearest first


def _check_seed(seed) -> int:
    """``seed`` as an int, or a MixtureError naming it unless it is a non-negative integer."""
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return int(seed)
    raise MixtureError(f"seed must be a non-negative integer, got {seed!r}")


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class _Pcg64:
    """The ``integers(n)`` and ``random()`` draws of ``np.random.default_rng(seed)``.

    A bit-exact copy, so a run never imports ``numpy.random``: SeedSequence
    mixes the seed's 32-bit words into a pool of four and hashes the pool
    into the 128-bit PCG64 state and increment (O'Neill 2014); each step
    outputs the XSL-RR word of the new state. ``integers`` takes 32-bit
    half words, low half first, the high half kept for the next call
    whatever is drawn between, and bounds them by Lemire's rejection
    method (Lemire 2019); ``random`` takes the top 53 bits of a word.
    """

    def __init__(self, seed: int):
        words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))
        const = 0x8B51F9DD
        halves = []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _MASK32
            value = value * const & _MASK32
            halves.append(value ^ value >> 16)
        # four little-endian 64-bit words: state high, low, increment high, low
        w = [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4)]
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        self.state = 0
        self._step()
        self.state = (self.state + (w[0] << 64 | w[1])) & _MASK128
        self._step()
        self.half: int | None = None

    def _step(self) -> None:
        self.state = (self.state * 0x2360ED051FC65DA44385DF649FCCF645 + self.inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        x = (self.state >> 64 ^ self.state) & _MASK64
        r = self.state >> 122
        return (x >> r | x << (64 - r)) & _MASK64

    def _next32(self) -> int:
        if self.half is not None:
            word, self.half = self.half, None
            return word
        word = self._next64()
        self.half = word >> 32
        return word & _MASK32

    def integers(self, n: int) -> int:
        """A draw from [0, n), for 1 <= n <= 2**32; n = 1 draws nothing."""
        if n > 1 << 32:
            raise MixtureError(f"k-means++ seeding draws from at most 2**32 points, got {n}")
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._next32()
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def random(self) -> float:
        """A double in [0, 1) on the 2**-53 lattice."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)


def kmeans_init(points, k: int, seed: int = 0) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations to KMEANS_TOL movement.

    The seeding draws what ``np.random.default_rng(seed)`` would; ``seed``
    is a non-negative integer.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if k < 1 or k > n:
        raise MixtureError(f"k must be in [1, {n}], got {k}")
    rng = _Pcg64(_check_seed(seed))

    centers = np.empty((k, pts.shape[1]))
    first = rng.integers(n)
    centers[0] = pts[first]
    closest = _sq_dists(pts, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # every remaining point coincides with a chosen center;
            # fall back to the lowest index not yet used
            used: set[int] = set()
            for c in centers[:j]:
                match = np.flatnonzero((pts == c).all(axis=1))
                used.update(int(m) for m in match[:1])
            pick = next((i for i in range(n) if i not in used), 0)
            centers[j] = pts[pick]
        else:
            r = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(closest), r))
            pick = min(pick, n - 1)
            centers[j] = pts[pick]
        closest = np.minimum(closest, _sq_dists(pts, centers[j:j + 1])[:, 0])

    for _ in range(KMEANS_MAX_ITER):
        labels = np.argmin(_sq_dists(pts, centers), axis=1)
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


def _plane(points) -> np.ndarray:
    """``points`` as an (n, 2) float array, the only shape the mixture models."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MixtureError(f"points must form an (n, 2) array, got shape {pts.shape}")
    return pts


def _log_gauss_all(pts: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """log N(x | mean_k, cov_k) for every point and component at once.

    The 2x2 covariances are inverted in closed form, which beats batched
    LAPACK on stacks of small matrices.
    """
    a, b, c = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    det = a * c - b * b
    if np.any(det <= 0) or np.any(a <= 0):
        raise np.linalg.LinAlgError("covariance not positive definite")
    dx = pts[:, 0][:, None] - means[:, 0][None, :]
    dy = pts[:, 1][:, None] - means[:, 1][None, :]
    maha = (c * dx * dx - 2 * b * dx * dy + a * dy * dy) / det
    return -0.5 * (2 * math.log(2 * math.pi) + np.log(det)[None, :] + maha)


def k_bounds(n: int) -> tuple[int, int]:
    """The least and greatest K a mixture of ``n`` points may have: [2, n // 3].

    K = 1 has no silhouette to check the BIC choice against, and a fit
    needs 3K points.
    """
    return 2, n // 3


def fit_gmm(points, k: int, seed: int = 0) -> GmmModel:
    """Full-covariance EM from a k-means initialization of (n, 2) points.

    COV_FLOOR keeps components from collapsing onto duplicated points;
    EM stops after EM_MAX_ITER steps or a change below EM_TOL. Hard
    assignments take the argmax responsibility, lowest cluster id first
    on ties.
    """
    pts = _plane(points)
    n = pts.shape[0]
    if 3 * k > n:
        raise MixtureError(f"need at least 3k points, got n={n} k={k}")

    centers = kmeans_init(pts, k, seed=seed)
    labels = np.argmin(_sq_dists(pts, centers), axis=1)
    weights = np.empty(k)
    means = centers.copy()
    covs = np.empty((k, 2, 2))
    overall = np.cov(pts.T) + COV_FLOOR * np.eye(2)
    for j in range(k):
        sel = labels == j
        weights[j] = max(sel.sum(), 1) / n
        if sel.sum() >= 2:
            covs[j] = np.cov(pts[sel].T) + COV_FLOOR * np.eye(2)
        else:
            covs[j] = overall.copy()
    weights /= weights.sum()

    trace: list[float] = []
    resp = np.zeros((n, k))
    converged = False
    for _ in range(EM_MAX_ITER):
        try:
            log_prob = np.log(weights)[None, :] + _log_gauss_all(pts, means, covs)
        except np.linalg.LinAlgError as exc:
            raise MixtureError("numerical failure") from exc
        mx = log_prob.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(log_prob - mx).sum(axis=1))
        ll = float(lse.sum())
        if not math.isfinite(ll):
            raise MixtureError("numerical failure")
        resp = np.exp(log_prob - lse[:, None])
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < EM_TOL:
            converged = True
            break
        nk = resp.sum(axis=0) + 1e-300
        weights = nk / n
        means = (resp.T @ pts) / nk[:, None]
        dx = pts[:, 0][:, None] - means[:, 0][None, :]
        dy = pts[:, 1][:, None] - means[:, 1][None, :]
        covs = np.empty((k, 2, 2))
        covs[:, 0, 0] = (resp * dx * dx).sum(axis=0) / nk + COV_FLOOR
        covs[:, 0, 1] = covs[:, 1, 0] = (resp * dx * dy).sum(axis=0) / nk
        covs[:, 1, 1] = (resp * dy * dy).sum(axis=0) / nk + COV_FLOOR

    assignments = np.argmax(resp, axis=1)
    return GmmModel(
        k=k, weights=weights, means=means, covariances=covs,
        responsibilities=resp, assignments=assignments,
        loglik=trace, converged=converged,
    )


def silhouette_score(points, labels) -> float:
    """Mean silhouette over all points with Euclidean distance.

    Points in singleton clusters score 0.
    """
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    n = pts.shape[0]
    uniq, own_col = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise MixtureError("silhouette needs at least two clusters")
    dm = _sq_dists(pts, pts)
    np.sqrt(dm, out=dm)
    onehot = (labels[:, None] == uniq[None, :]).astype(float)
    counts = onehot.sum(axis=0)
    sums = dm @ onehot                                   # (n, n_clusters)
    own_count = counts[own_col]
    scores = np.zeros(n)
    multi = own_count > 1
    a = np.zeros(n)
    a[multi] = sums[np.arange(n), own_col][multi] / (own_count[multi] - 1)
    means = sums / counts[None, :]
    means[np.arange(n), own_col] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    ok = multi & (denom > 0)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(scores.mean())


@dataclass
class SelectionReport:
    rows: list[dict]
    chosen_k: int
    aic_agrees: bool
    silhouette_agrees: bool
    model: GmmModel | None   # the chosen K's fit; None when every K failed

    def to_tsv(self) -> str:
        return tsv.format_rows(
            [("k", "loglik", "aic", "bic", "silhouette", "failed", "chosen")]
            + [(row["k"], f"{row['loglik']:.6f}", f"{row['aic']:.6f}",
                f"{row['bic']:.6f}", f"{row['silhouette']:.6f}",
                int(row["failed"]), int(row["k"] == self.chosen_k))
               for row in self.rows])


def select_k(points, candidates, seed: int = 0) -> SelectionReport:
    """Fit every candidate K (the candidates must differ) and pick the BIC argmin.

    AIC = 2p - 2L and BIC = p ln(n) - 2L with p = (K-1) + 2K + 3K.
    The report keeps the chosen fit and flags whether the AIC argmin and
    the silhouette argmax agree with the BIC choice. Degenerate fits
    (numerical failure or an empty hard cluster) are excluded; if every
    candidate fails, a MixtureError carrying the report is raised.
    """
    pts = _plane(points)
    n = pts.shape[0]
    # a bad seed fails every fit alike: report it, not K failures
    _check_seed(seed)
    candidates = list(candidates)
    if not candidates:
        raise MixtureError("no candidate component counts")
    least, most = k_bounds(n)
    for k in candidates:
        if not least <= k <= most:
            raise MixtureError(f"candidate K={k} outside [{least}, {most}]")
    if len(set(candidates)) != len(candidates):
        raise MixtureError(f"candidate Ks must differ, got {candidates}")
    rows: list[dict] = []
    models: dict[int, GmmModel] = {}
    for k in candidates:
        row = {"k": k, "loglik": math.nan, "aic": math.inf, "bic": math.inf,
               "silhouette": math.nan, "failed": True}
        try:
            model = fit_gmm(pts, k, seed=seed)
            if np.bincount(model.assignments, minlength=k).all():
                p = model.n_parameters()
                ll = model.final_loglik
                row.update(
                    loglik=ll,
                    aic=2 * p - 2 * ll,
                    bic=p * math.log(n) - 2 * ll,
                    silhouette=silhouette_score(pts, model.assignments),
                    failed=False,
                )
                models[k] = model
        except MixtureError:
            pass
        rows.append(row)
    ok = [r for r in rows if not r["failed"]]
    if not ok:
        err = MixtureError("degenerate: every candidate K failed")
        err.report = SelectionReport(rows=rows, chosen_k=-1, aic_agrees=False,
                                     silhouette_agrees=False, model=None)
        raise err
    chosen = min(ok, key=lambda r: (r["bic"], r["k"]))["k"]
    aic_best = min(ok, key=lambda r: (r["aic"], r["k"]))["k"]
    sil_best = max(ok, key=lambda r: (r["silhouette"], -r["k"]))["k"]
    return SelectionReport(
        rows=rows, chosen_k=chosen,
        aic_agrees=aic_best == chosen,
        silhouette_agrees=sil_best == chosen, model=models[chosen],
    )


def core_points(points, assignments, cluster: int, k: int = 30) -> CorePointSet:
    """Centroid of a cluster plus the indices of its k nearest points overall.

    The centroid is the arithmetic mean of the cluster's hard-assigned
    points; neighbours are searched over all points and distance ties
    break on the point index.
    """
    pts = np.asarray(points, dtype=float)
    assignments = np.asarray(assignments)
    n = pts.shape[0]
    if k > n:
        raise MixtureError(f"k={k} exceeds point count {n}")
    sel = assignments == cluster
    if not sel.any():
        raise MixtureError(f"cluster {cluster} is empty")
    centroid = pts[sel].mean(axis=0)
    hits = BallTree(pts).query(centroid, k)
    return CorePointSet(cluster=int(cluster), centroid=centroid,
                        members=[i for _, i in hits])
