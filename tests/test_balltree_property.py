"""Property test: exact kNN equals the (distance, index) sort on random point sets."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semmap.balltree import BallTree  # noqa: E402

# small integers make distinct points tie on distance; arbitrary floats do not
COORD = st.one_of(st.integers(-3, 3).map(float),
                  st.floats(-10, 10, allow_nan=False, allow_infinity=False))


@st.composite
def point_sets(draw):
    dim = draw(st.integers(1, 3))
    vector = st.tuples(*[COORD] * dim)
    # points are drawn from a small pool, so duplicated coordinates are common
    pool = draw(st.lists(vector, min_size=1, max_size=6))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
    query = draw(st.one_of(st.sampled_from(pool), vector))
    return np.array(points, dtype=float), np.array(query, dtype=float)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_query_equals_sort_oracle_for_every_k(case):
    points, query = case
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    oracle = sorted((float(d[i]), i) for i in range(len(points)))
    tree = BallTree(points)
    for k in range(1, len(points) + 1):
        assert tree.query(query, k) == oracle[:k]
