"""Usage-point matrix for the pivot token, Hamming distances, classical MDS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tsv
from .align import NULL_MARKER, PivotParallel

__all__ = [
    "PivotError",
    "ParallelUsageMatrix",
    "EmbeddedMap",
    "build_matrix",
    "hamming",
    "classical_mds",
]


class PivotError(ValueError):
    pass


def row_id(verse_id: str, pivot_index: int) -> str:
    return f"{verse_id}#{pivot_index}"


@dataclass
class ParallelUsageMatrix:
    """Rows are pivot-token occurrences, columns doculects, cells forms.

    ``NULL_MARKER`` cells mark NULL alignments. Every row has a cell for
    every column.
    """
    row_ids: list[str]
    columns: list[str]
    cells: list[list[str]]

    def __post_init__(self):
        if len(set(self.row_ids)) != len(self.row_ids):
            raise PivotError("duplicate row ids in usage matrix")
        for rid, row in zip(self.row_ids, self.cells):
            if len(row) != len(self.columns):
                raise PivotError(f"row {rid} has {len(row)} cells, want {len(self.columns)}")

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def column(self, iso: str) -> list[str]:
        if iso not in self.columns:
            raise PivotError(f"doculect {iso!r} is not a column of the usage matrix")
        j = self.columns.index(iso)
        return [row[j] for row in self.cells]

    def to_tsv(self, header: str | None = None) -> str:
        return tsv.format_rows(
            [["row_id", *self.columns]]
            + [[rid, *row] for rid, row in zip(self.row_ids, self.cells)],
            header,
        )

    @classmethod
    def from_tsv(cls, path) -> "ParallelUsageMatrix":
        rows = tsv.read_rows(path, rest=str)
        if not rows:
            raise PivotError(f"{path}: empty matrix file")
        return cls(row_ids=[r[0] for r in rows[1:]], columns=rows[0][1:],
                   cells=[r[1:] for r in rows[1:]])


def build_matrix(parallels_by_doculect: dict[str, list[PivotParallel]],
                 pivot_occurrences: list[tuple[str, int]]) -> ParallelUsageMatrix:
    """Assemble the usage matrix; a ``None`` form or an occurrence missing
    from a dump becomes ``NULL_MARKER``, the NULL label from here on."""
    rids = [row_id(v, i) for v, i in pivot_occurrences]
    if len(set(rids)) != len(rids):
        raise PivotError("duplicate row ids in pivot occurrence list")
    columns = sorted(parallels_by_doculect.keys())
    lookup = {
        iso: {(p.verse_id, p.pivot_index): NULL_MARKER if p.form is None else p.form
              for p in rows}
        for iso, rows in parallels_by_doculect.items()
    }
    cells = [
        [lookup[iso].get(occ, NULL_MARKER) for iso in columns]
        for occ in pivot_occurrences
    ]
    return ParallelUsageMatrix(row_ids=rids, columns=columns, cells=cells)


def hamming(matrix: ParallelUsageMatrix) -> np.ndarray:
    """Pairwise count of differing cells between usage-matrix rows.

    Returns the symmetric (n, n) ``uint16`` matrix; Hamming distances are
    bounded by the column count, so 16-bit cells suffice. NULL is an
    ordinary value: NULL vs NULL is equal, NULL vs form is different.
    Rows are compared through per-column integer codes, one row strip at
    a time; strips are independent, so any block schedule over them
    yields bit-identical results.
    """
    n = matrix.n_rows
    if n == 0:
        raise PivotError("empty usage matrix")
    # column by column: one string array of the whole matrix is ~100 MB at ~1,400 doculects
    codes = np.empty((n, len(matrix.columns)), dtype=np.int32)
    for j, iso in enumerate(matrix.columns):
        codes[:, j] = np.unique(matrix.column(iso), return_inverse=True)[1]
    out = np.zeros((n, n), dtype=np.uint16)
    for i in range(n - 1):
        diff = (codes[i + 1:] != codes[i]).sum(axis=1)
        out[i, i + 1:] = diff
        out[i + 1:, i] = diff
    return out


@dataclass
class EmbeddedMap:
    """Low-dimensional coordinates from classical scaling.

    ``eigenvalues`` holds the top-k values in non-increasing order as
    computed (possibly non-positive); non-positive eigenpairs contribute
    zero coordinates and raise ``truncated``.
    """
    coords: np.ndarray
    eigenvalues: np.ndarray
    row_ids: list[str]
    truncated: bool = False

    def to_tsv(self, header: str | None = None) -> str:
        # shortest round-trip text: `map` redraws from the exact floats `run` drew from
        return tsv.format_rows(
            ([rid, *row] for rid, row in zip(self.row_ids, self.coords.tolist())), header)

    @classmethod
    def from_tsv(cls, path) -> "EmbeddedMap":
        rows = tsv.read_rows(path, str, rest=float)
        if not rows:
            raise PivotError(f"{path}: empty embedding file")
        coords = np.asarray([r[1:] for r in rows], dtype=float)
        # the maps are drawn over the first two coordinates
        if coords.shape[1] < 2:
            raise PivotError(f"{path}: need at least two coordinate columns, "
                             f"got {coords.shape[1]}")
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        if bad.size:
            raise PivotError(f"{path}: row {rows[bad[0]][0]!r} has a non-finite coordinate")
        return cls(coords=coords, eigenvalues=np.zeros(coords.shape[1]),
                   row_ids=[r[0] for r in rows])


def _fix_signs(coords: np.ndarray) -> np.ndarray:
    # MDS is unique up to per-axis sign; make the entry with the largest
    # magnitude on each axis positive so re-runs are identical.
    for j in range(coords.shape[1]):
        col = coords[:, j]
        if col.shape[0] == 0:
            continue
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            coords[:, j] = -col
    return coords


def classical_mds(d: np.ndarray, k: int,
                  row_ids: list[str] | None = None) -> EmbeddedMap:
    """Torgerson scaling: double-center squared distances, eigendecompose.

    Coordinates are the top-k eigenvectors scaled by the square root of
    their eigenvalues. Eigenpairs with non-positive eigenvalues inside
    the top k yield zero coordinates and set the truncated flag.
    """
    dm = np.asarray(d, dtype=float)
    n = dm.shape[0]
    if dm.shape != (n, n):
        raise PivotError("distance matrix must be square")
    if not (1 <= k <= n - 1):
        raise PivotError(f"k must be in [1, n-1], got {k} for n={n}")
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
    coords = _fix_signs(coords)
    rids = row_ids if row_ids is not None else [str(i) for i in range(n)]
    return EmbeddedMap(coords=coords, eigenvalues=evals, row_ids=rids,
                       truncated=truncated)
