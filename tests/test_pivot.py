import random

import numpy as np
import pytest

from semmap.align import NULL_MARKER, PivotParallel
from semmap.pivot import (
    EmbeddedMap,
    ParallelUsageMatrix,
    PivotError,
    build_matrix,
    classical_mds,
    code_labels,
    code_parallels,
    hamming,
)
from semmap.tsv import format_rows


def fixture_matrix():
    """Two usage points across six doculects; rows differ in three cells."""
    return ParallelUsageMatrix.from_rows(
        row_ids=["MAT:1:1#0", "MAT:1:2#0"],
        columns=["eng", "mri", "por", "fin", "kaz", "kor"],
        rows=[
            ["when", "no", "quando", "kun", "qasan", "ttaee"],
            ["when", "ka", "quando", "jolloin", "keiin", "ttaee"],
        ],
    )


def random_matrix(n=50, m=20, seed=4, forms=("a", "b", "c", NULL_MARKER)):
    rng = random.Random(seed)
    return ParallelUsageMatrix.from_rows(
        row_ids=[f"r{i}" for i in range(n)],
        columns=[f"L{j}" for j in range(m)],
        rows=[[rng.choice(forms) for _ in range(m)] for _ in range(n)],
    )


def matrices(st):
    """Hypothesis strategy: small usage matrices over a small alphabet.

    The alphabet holds NULL_MARKER and "null", a form that differs from it
    only in case.
    """
    forms = st.sampled_from(["a", "b", "null", "ü", NULL_MARKER])

    @st.composite
    def matrix(draw):
        n, m = draw(st.integers(1, 12)), draw(st.integers(0, 6))
        return ParallelUsageMatrix.from_rows(
            row_ids=[f"r{i}" for i in range(n)],
            columns=[f"L{j}" for j in range(m)],
            rows=draw(st.lists(st.lists(forms, min_size=m, max_size=m),
                                min_size=n, max_size=n)),
        )

    return matrix()


def naive_hamming(matrix):
    n = matrix.n_rows
    cells = matrix.rows()
    out = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(
                1 for a, b in zip(cells[i], cells[j]) if a != b
            )
    return out


# build_matrix -----------------------------------------------------------------

def test_build_matrix_from_parallels():
    par = {
        "deu": [PivotParallel("v1", 0, "als"), PivotParallel("v2", 1, None)],
        "fin": [PivotParallel("v1", 0, "kun"), PivotParallel("v2", 1, None)],
    }
    occ = [("v1", 0), ("v2", 1)]
    m = build_matrix({iso: code_parallels(rows) for iso, rows in par.items()}, occ)
    assert m.columns == ["deu", "fin"]
    assert m.rows() == [["als", "kun"], [NULL_MARKER, NULL_MARKER]]


def test_build_matrix_full_null_column():
    par = {"deu": [PivotParallel("v1", 0, "als")], "xxx": [PivotParallel("v1", 0, None)]}
    occ = [("v1", 0)]
    m = build_matrix({iso: code_parallels(rows) for iso, rows in par.items()}, occ)
    codes, labels = m.coded("xxx")
    assert [labels[c] for c in codes] == [NULL_MARKER]


def test_build_matrix_duplicate_rows_error():
    occ = [("v1", 0), ("v1", 0)]
    with pytest.raises(PivotError):
        build_matrix({"deu": code_parallels([PivotParallel(v, i, None) for v, i in occ])}, occ)


def stored_matrices(st):
    """Hypothesis strategy: usage matrices of any text a matrix file can hold.

    Labels and column names are free text without tabs or line breaks,
    NULL and non-ASCII forms included; row ids, which open a line, do not
    start with ``#`` either (a ``#`` line is a comment).
    """
    # lone surrogates are not text UTF-8 can encode
    text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                   max_size=6)
    forms = st.one_of(st.just(NULL_MARKER), st.sampled_from(["wenn", "когда", "ketika"]),
                      text)
    ids = text.filter(lambda t: t and not t.startswith("#"))

    @st.composite
    def matrix(draw):
        n, m = draw(st.integers(0, 8)), draw(st.integers(0, 5))
        row_ids = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
        columns = draw(st.lists(text, min_size=m, max_size=m, unique=True))
        rows = draw(st.lists(st.lists(forms, min_size=m, max_size=m), min_size=n, max_size=n))
        return ParallelUsageMatrix.from_rows(row_ids, columns, rows)

    return matrix()


def test_matrix_tsv_roundtrip(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    p = tmp_path / "m.tsv"

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(stored_matrices(hyp.strategies))
    @hyp.example(random_matrix(n=12, m=5))
    @hyp.example(fixture_matrix())
    def roundtrip(m):
        text = format_rows((), "semmap config=x") + m.to_tsv()
        p.write_text(text, encoding="utf-8")
        again = ParallelUsageMatrix.from_tsv(p)
        assert again.row_ids == m.row_ids
        assert again.columns == m.columns
        assert np.array_equal(again.codes, m.codes) and again.codes.dtype == np.int32
        assert again.labels == m.labels
        assert again.rows() == m.rows()
        assert format_rows((), "semmap config=x") + again.to_tsv() == text

    roundtrip()


def test_code_labels_follows_sorted_set_order():
    codes, labels = code_labels(["b", NULL_MARKER, "ä", "b", "a"])
    assert labels == sorted({"b", NULL_MARKER, "ä", "a"})
    assert [labels[c] for c in codes] == ["b", NULL_MARKER, "ä", "b", "a"]
    assert codes.dtype == np.int32


def test_matrix_file_without_header_row_is_rejected(tmp_path):
    p = tmp_path / "matrix.tsv"
    p.write_text("# semmap config=x\nMAT:1:1#0\twhen\tals\nMAT:1:2#0\twhen\tNULL\n",
                 encoding="utf-8")
    with pytest.raises(PivotError, match=str(p)):
        ParallelUsageMatrix.from_tsv(p)


def test_matrix_file_with_repeated_column_is_rejected(tmp_path):
    p = tmp_path / "matrix.tsv"
    p.write_text("row_id\taaa\taaa\nMAT:1:1#0\tx\ty\n", encoding="utf-8")
    with pytest.raises(PivotError, match=str(p)):
        ParallelUsageMatrix.from_tsv(p)


def test_matrix_rejects_codes_that_do_not_index_their_labels():
    with pytest.raises(PivotError):
        ParallelUsageMatrix(["r0", "r1"], ["L0"], np.array([[0], [2]]), [["a", "b"]])
    with pytest.raises(PivotError):
        ParallelUsageMatrix(["r0", "r1"], ["L0"], np.array([[1], [0]]), [["b", "a"]])
    with pytest.raises(PivotError):
        ParallelUsageMatrix(["r0", "r1"], ["L0"], np.array([[0], [0]]), [["a", "b"]])


# hamming ----------------------------------------------------------------------

def test_hamming_paper_sample_rows_distance_three():
    d = hamming(fixture_matrix())
    assert d[0, 1] == 3


def test_hamming_identical_rows():
    m = ParallelUsageMatrix.from_rows(
        row_ids=["a", "b"], columns=["x", "y"],
        rows=[["w", NULL_MARKER], ["w", NULL_MARKER]],
    )
    assert hamming(m)[0, 1] == 0


def test_hamming_equals_naive_recount():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(matrices(hyp.strategies))
    @hyp.example(random_matrix())
    def recount(m):
        assert np.array_equal(hamming(m), naive_hamming(m))

    recount()


def test_hamming_column_permutation_invariant():
    m = random_matrix(n=20, m=8, seed=9)
    perm = [3, 1, 7, 0, 2, 6, 4, 5]
    mp = ParallelUsageMatrix.from_rows(
        row_ids=list(m.row_ids),
        columns=[m.columns[j] for j in perm],
        rows=[[row[j] for j in perm] for row in m.rows()],
    )
    assert np.array_equal(hamming(m), hamming(mp))


def test_distance_matrix_invariants():
    dense = hamming(random_matrix(n=30, m=10, seed=5))
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0)
    assert dense.max() <= 10
    # metric: triangle inequality
    n = dense.shape[0]
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


def test_mds_hamming_embedding_reproducible(tmp_path):
    m = random_matrix(n=30, m=15, seed=3)
    d = hamming(m)
    e1 = classical_mds(d, 2, row_ids=m.row_ids)
    e2 = classical_mds(d, 2, row_ids=m.row_ids)
    assert np.array_equal(e1.coords, e2.coords)
    assert e2.to_tsv() == e1.to_tsv()
    # the stored coordinates read back exactly
    path = tmp_path / "embedding.tsv"
    path.write_text(format_rows((), "x") + e1.to_tsv(), encoding="utf-8")
    back = EmbeddedMap.from_tsv(path)
    assert back.row_ids == e1.row_ids and np.array_equal(back.coords, e1.coords)


# three axes --------------------------------------------------------------------

def test_three_axes_planted_3d():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(60, 3))
    dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = classical_mds(dm, 3)
    got = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
    assert np.abs(got - dm).max() < 1e-6


def test_three_axes_degenerate_planar_input():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(40, 2))
    dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = classical_mds(dm, 3)
    assert np.abs(emb.coords[:, 2]).max() < 1e-6


def test_three_axes_first_two_match_2d_exactly():
    m = random_matrix(n=40, m=10, seed=30)
    d = hamming(m)
    e2 = classical_mds(d, 2)
    e3 = classical_mds(d, 3)
    assert np.array_equal(e2.coords, e3.coords[:, :2])


# coincident points and the centring-matrix oracle ------------------------------

def test_mds_coincident_points_share_one_coordinate_pair():
    # 300 usage points over 40 distinct rows: every repeat of a row sits
    # exactly where its first occurrence does, so ties among coincident
    # points break on the index alone
    rng = np.random.default_rng(28)
    distinct = rng.integers(0, 4, size=(40, 30))
    picks = np.concatenate([np.arange(40), rng.integers(0, 40, size=260)])
    rng.shuffle(picks)
    forms = np.array(["a", "b", "c", NULL_MARKER])
    m = ParallelUsageMatrix.from_rows([f"r{i}" for i in range(300)],
                                      [f"L{j}" for j in range(30)],
                                      forms[distinct[picks]].tolist())
    coords = classical_mds(hamming(m), 2).coords
    first = {}
    for i, p in enumerate(picks):
        first.setdefault(p, i)
    assert np.array_equal(coords, coords[[first[p] for p in picks]])


def test_mds_rejects_a_nonzero_diagonal():
    with pytest.raises(PivotError, match="zero diagonal"):
        classical_mds(np.ones((4, 4)), 2)


def centring_matrix_mds(d, k):
    """The former ``classical_mds``: B = -1/2 J D^2 J with J = I - 11'/n.

    Returns (coords, eigenvalues, truncated).
    """
    dm = np.asarray(d, dtype=float)
    n = dm.shape[0]
    sq = dm * dm
    j_center = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j_center @ sq @ j_center
    b = (b + b.T) / 2.0
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals = evals[order][:k]
    evecs = evecs[:, order][:, :k]
    coords = np.zeros((n, k))
    truncated = False
    tol = max(1e-12, 1e-12 * abs(evals[0]) if evals.size else 0.0)
    for j in range(k):
        if evals[j] > tol:
            coords[:, j] = evecs[:, j] * np.sqrt(evals[j])
        else:
            truncated = True
    return coords, evals, truncated


def test_mds_equals_the_centring_matrix_form():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    forms = st.sampled_from(["a", "b", "c", NULL_MARKER])

    @st.composite
    def cases(draw):
        # few distinct rows over few columns: duplicates and rank-deficient B
        m = draw(st.integers(1, 6))
        distinct = draw(st.lists(st.lists(forms, min_size=m, max_size=m),
                                 min_size=1, max_size=10))
        k = draw(st.sampled_from([2, 3]))
        picks = draw(st.lists(st.integers(0, len(distinct) - 1),
                              min_size=k + 2, max_size=40))
        return ParallelUsageMatrix.from_rows(
            [f"r{i}" for i in range(len(picks))], [f"L{j}" for j in range(m)],
            [distinct[p] for p in picks]), k

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(cases())
    @hyp.example((random_matrix(n=40, m=10, seed=30), 2))
    @hyp.example((random_matrix(n=30, m=2, seed=31), 3))
    @hyp.example((random_matrix(n=6, m=3, seed=32, forms=("a",)), 2))
    def agree(case):
        m, k = case
        d = hamming(m)
        emb = classical_mds(d, k)
        coords, evals, truncated = centring_matrix_mds(d, k)
        scale = max(1.0, abs(evals[0]))
        assert np.abs(emb.eigenvalues - evals).max() <= 1e-9 * scale
        assert emb.truncated == truncated
        # the top-k subspace is defined where the k-th eigenvalue stands apart
        if evals[k - 1] > centring_matrix_mds(d, k + 1)[1][k] * (1 + 1e-6):
            gram = emb.coords @ emb.coords.T
            assert np.abs(gram - coords @ coords.T).max() <= 1e-9 * scale
        dropped = emb.eigenvalues <= max(1e-12, 1e-12 * abs(emb.eigenvalues[0]))
        assert dropped.any() == emb.truncated
        assert not np.signbit(emb.coords[:, dropped]).any()

    agree()
