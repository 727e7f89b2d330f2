"""The consumers of the coded usage matrix against string-label oracles.

Each oracle is the string version the coded consumer replaced: it reads
the labels row by row or column by column and compares strings.
"""

import numpy as np
import pytest

import semmap.surfaces as surfaces_module
from semmap.align import NULL_MARKER
from semmap.pivot import ParallelUsageMatrix
from semmap.surfaces import fit_surfaces, null_heat
from semmap.typology import MeansScore, TypologyError, prototypicality, score_means

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

FORMS = ["a", "b", "null", "ü", "когда", NULL_MARKER]
SETTINGS = hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)


def score_means_oracle(assignments, labels, cluster):
    assignments = np.asarray(assignments)
    if len(labels) != assignments.shape[0]:
        raise TypologyError("labels must cover every embedded point")
    inside = assignments == cluster
    if not inside.any():
        raise TypologyError(f"cluster {cluster} is empty")
    cluster_size = int(inside.sum())
    attested = sorted({lab for lab, inc in zip(labels, inside) if inc})
    scores = []
    for m in attested:
        is_m = np.array([lab == m for lab in labels])
        tp = int((is_m & inside).sum())
        fp = int((is_m & ~inside).sum())
        fn = cluster_size - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(MeansScore(m, int(cluster), tp, fp, fn, precision, recall, f1))
    best = min(scores, key=lambda s: (-s.f1, s.means))
    return scores, best


def prototypicality_oracle(cluster, best_per_doculect, row_ids, columns, cells, assignments):
    scores = []
    col_of = {iso: j for j, iso in enumerate(columns)}
    for i, rid in enumerate(row_ids):
        if assignments[i] != cluster:
            continue
        s = 0
        for iso, best in best_per_doculect.items():
            if cells[i][col_of[iso]] == best:
                s += 1
        scores.append((rid, s))
    scores.sort(key=lambda t: (-t[1], t[0]))
    return scores


def null_heat_oracle(cells):
    return [row.count(NULL_MARKER) for row in cells]


def indicators_oracle(columns, n):
    fields = [(key, m) for key, col in columns.items() for m in sorted(set(col))]
    z = np.array([[1.0 if lab == m else 0.0 for lab in columns[key]]
                  for key, m in fields]).reshape(len(fields), n)
    return fields, z


@st.composite
def usage(draw, min_rows=1):
    """A string usage matrix, its coded form, cluster assignments and a cluster."""
    n, d = draw(st.integers(min_rows, 20)), draw(st.integers(0, 5))
    alphabet = draw(st.lists(st.sampled_from(FORMS), min_size=1, max_size=len(FORMS),
                             unique=True))
    cells = draw(st.lists(st.lists(st.sampled_from(alphabet), min_size=d, max_size=d),
                          min_size=n, max_size=n))
    row_ids = [f"r{i:02d}" for i in draw(st.permutations(range(n)))]
    columns = [f"L{j}" for j in range(d)]
    assignments = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    cluster = draw(st.integers(0, 2))
    return cells, ParallelUsageMatrix.from_rows(row_ids, columns, cells), assignments, cluster


def test_score_means_equals_string_oracle():
    @SETTINGS
    @hyp.given(usage())
    def check(drawn):
        cells, m, assignments, cluster = drawn
        for j, iso in enumerate(m.columns):
            labels = [row[j] for row in cells]
            try:
                want = score_means_oracle(assignments, labels, cluster)
            except TypologyError:
                with pytest.raises(TypologyError):
                    score_means(assignments, m.coded(iso), cluster)
                continue
            assert score_means(assignments, m.coded(iso), cluster) == want

    check()


def test_prototypicality_equals_string_oracle():
    @SETTINGS
    @hyp.given(usage(), st.data())
    def check(drawn, data):
        cells, m, assignments, cluster = drawn
        named = data.draw(st.lists(st.sampled_from(m.columns), unique=True)
                          if m.columns else st.just([]))
        best = {iso: data.draw(st.sampled_from(FORMS)) for iso in named}
        want = prototypicality_oracle(cluster, best, m.row_ids, m.columns, cells, assignments)
        assert prototypicality(cluster, best, m, assignments) == want

    check()


def test_null_heat_equals_string_oracle():
    @SETTINGS
    @hyp.given(usage())
    def check(drawn):
        cells, m, _, _ = drawn
        assert null_heat(m) == null_heat_oracle(cells)

    check()


def test_fit_surfaces_indicators_equal_string_oracle(monkeypatch):
    seen = []

    def spy(pts, z, nodes, rho, nugget_frac):
        seen.append(z.copy())
        return np.zeros((z.shape[0], nodes.shape[0]))

    monkeypatch.setattr(surfaces_module, "_krige", spy)
    points = np.random.default_rng(3).normal(size=(20, 2))

    @SETTINGS
    @hyp.given(usage(min_rows=5))
    def check(drawn):
        cells, m, _, _ = drawn
        columns = {iso: [row[j] for row in cells] for j, iso in enumerate(m.columns)}
        fields, z = indicators_oracle(columns, m.n_rows)
        seen.clear()
        surfs = fit_surfaces(points[:m.n_rows], {iso: m.coded(iso) for iso in m.columns},
                             grid=3)
        assert [(key, means) for key, by in surfs.items() for means in by] == fields
        assert np.array_equal(seen[0], z)

    check()
