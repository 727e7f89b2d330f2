import random

import numpy as np
import pytest

from semmap.align import PivotParallel
from semmap.pivot import (
    ParallelUsageMatrix,
    PivotError,
    add_dimension,
    build_matrix,
    classical_mds,
    hamming,
)


def fixture_matrix():
    """Two usage points across six doculects; rows differ in three cells."""
    return ParallelUsageMatrix(
        row_ids=["MAT:1:1#0", "MAT:1:2#0"],
        columns=["eng", "mri", "por", "fin", "kaz", "kor"],
        cells=[
            ["when", "no", "quando", "kun", "qasan", "ttaee"],
            ["when", "ka", "quando", "jolloin", "keiin", "ttaee"],
        ],
    )


def random_matrix(n=50, m=20, seed=4, forms=("a", "b", "c", None)):
    rng = random.Random(seed)
    return ParallelUsageMatrix(
        row_ids=[f"r{i}" for i in range(n)],
        columns=[f"L{j}" for j in range(m)],
        cells=[[rng.choice(forms) for _ in range(m)] for _ in range(n)],
    )


def naive_hamming(matrix):
    n = matrix.n_rows
    out = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(
                1 for a, b in zip(matrix.cells[i], matrix.cells[j]) if a != b
            )
    return out


# build_matrix -----------------------------------------------------------------

def test_build_matrix_from_parallels():
    par = {
        "deu": [PivotParallel("v1", 0, "als"), PivotParallel("v2", 1, None)],
        "fin": [PivotParallel("v1", 0, "kun")],
    }
    occ = [("v1", 0), ("v2", 1)]
    m = build_matrix(par, occ)
    assert m.columns == ["deu", "fin"]
    assert m.cells == [["als", "kun"], [None, None]]


def test_build_matrix_full_null_column():
    par = {"deu": [PivotParallel("v1", 0, "als")], "xxx": []}
    m = build_matrix(par, [("v1", 0)])
    assert m.column("xxx") == [None]


def test_build_matrix_duplicate_rows_error():
    with pytest.raises(PivotError):
        build_matrix({"deu": []}, [("v1", 0), ("v1", 0)])


def test_matrix_tsv_roundtrip(tmp_path):
    m = random_matrix(n=12, m=5)
    p = tmp_path / "m.tsv"
    p.write_text(m.to_tsv(header="x"), encoding="utf-8")
    again = ParallelUsageMatrix.from_tsv(p)
    assert again.row_ids == m.row_ids
    assert again.columns == m.columns
    assert again.cells == m.cells


def test_shared_verse_rows_noted():
    m = ParallelUsageMatrix(
        row_ids=["v1#0", "v1#3", "v2#0"], columns=["x"],
        cells=[["a"], ["b"], ["c"]],
    )
    assert m.shared_verse_rows() == ["v1#0", "v1#3"]


# hamming ----------------------------------------------------------------------

def test_hamming_paper_sample_rows_distance_three():
    d = hamming(fixture_matrix())
    assert d.get(0, 1) == 3


def test_hamming_identical_rows():
    m = ParallelUsageMatrix(
        row_ids=["a", "b"], columns=["x", "y"],
        cells=[["w", None], ["w", None]],
    )
    assert hamming(m).get(0, 1) == 0


def test_hamming_equals_naive_recount():
    m = random_matrix()
    got = hamming(m).dense()
    assert np.array_equal(got, naive_hamming(m))


def test_hamming_column_permutation_invariant():
    m = random_matrix(n=20, m=8, seed=9)
    perm = [3, 1, 7, 0, 2, 6, 4, 5]
    mp = ParallelUsageMatrix(
        row_ids=list(m.row_ids),
        columns=[m.columns[j] for j in perm],
        cells=[[row[j] for j in perm] for row in m.cells],
    )
    assert np.array_equal(hamming(m).dense(), hamming(mp).dense())


def test_distance_matrix_invariants():
    d = hamming(random_matrix(n=30, m=10, seed=5))
    dense = d.dense()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0)
    assert dense.max() <= 10
    # metric: triangle inequality
    n = d.n
    for i in range(n):
        for j in range(n):
            for k in range(0, n, 7):
                assert dense[i, j] <= dense[i, k] + dense[k, j]


# classical mds -----------------------------------------------------------------

def test_mds_unit_square_reproduces_distances():
    s = 2 ** 0.5
    dm = np.array([
        [0, 1, s, 1],
        [1, 0, 1, s],
        [s, 1, 0, 1],
        [1, s, 1, 0],
    ])
    emb = classical_mds(dm, 2)
    got = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
    assert np.allclose(got, dm, atol=1e-9)


def test_mds_all_zero_distances():
    emb = classical_mds(np.zeros((4, 4)), 2)
    assert np.allclose(emb.coords, 0.0)
    assert emb.truncated


def test_mds_planted_2d_configuration():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(100, 2))
    dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = classical_mds(dm, 5)
    got = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
    assert np.abs(got - dm).max() < 1e-6
    # only two meaningful eigenvalues
    assert np.all(np.abs(emb.eigenvalues[2:]) < 1e-8 * emb.eigenvalues[0])


def test_mds_centered_and_sign_fixed():
    m = random_matrix(n=25, m=12, seed=13)
    emb = classical_mds(hamming(m), 2, row_ids=m.row_ids)
    assert np.abs(emb.coords.sum(axis=0)).max() < 1e-6
    for j in range(2):
        col = emb.coords[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_mds_k_bounds():
    with pytest.raises(PivotError):
        classical_mds(np.zeros((4, 4)), 4)
    with pytest.raises(PivotError):
        classical_mds(np.zeros((4, 4)), 0)


def test_mds_hamming_embedding_reproducible():
    m = random_matrix(n=30, m=15, seed=3)
    d = hamming(m)
    e1 = classical_mds(d, 2, row_ids=m.row_ids)
    e2 = classical_mds(d, 2, row_ids=m.row_ids)
    assert np.array_equal(e1.coords, e2.coords)
    assert e2.to_tsv() == e1.to_tsv()


# add_dimension -----------------------------------------------------------------

def test_add_dimension_planted_3d():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(60, 3))
    dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = add_dimension(dm)
    got = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
    assert np.abs(got - dm).max() < 1e-6


def test_add_dimension_degenerate_planar_input():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(40, 2))
    dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = add_dimension(dm)
    assert np.abs(emb.coords[:, 2]).max() < 1e-6
    assert np.abs(emb.plane_distance).max() < 1e-6


def test_add_dimension_first_two_axes_match_2d_exactly():
    m = random_matrix(n=40, m=10, seed=30)
    d = hamming(m)
    e2 = classical_mds(d, 2)
    e3 = add_dimension(d)
    assert np.array_equal(e2.coords, e3.coords[:, :2])
