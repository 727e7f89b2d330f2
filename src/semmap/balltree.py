"""Exact k-nearest-neighbour search by one sorted scan.

A query measures the distance to every point and sorts on (distance,
row index), so downstream core-point extraction is fully deterministic
even with duplicated coordinates. At the sizes a run queries (a few
queries over at most a few thousand usage points) one vectorized scan
is faster than building a ball tree. The module and class keep their
ball-tree names because the benchmark's ``balltree.query`` span wraps
``BallTree.query`` by name.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BallTree"]


class BallTree:
    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty 2-d array")
        self.points = pts

    def query(self, point, k: int) -> list[tuple[float, int]]:
        """The k nearest points, sorted by (distance, index)."""
        n = self.points.shape[0]
        if k < 1 or k > n:
            raise ValueError(f"k must be in [1, {n}]")
        q = np.asarray(point, dtype=float)
        d = np.sqrt(((self.points - q) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(n), d))[:k]
        return [(float(d[i]), int(i)) for i in order]
