"""Usage-point matrix for the pivot token, Hamming distances, classical MDS.

The usage matrix is held coded: one (n, D) ``int32`` array whose cell
(i, j) indexes the sorted distinct labels of column j. ``code_labels``
(from ``align``, re-exported here) is the one place string labels become
codes, for the alignment's bitexts, ``build_matrix``,
``ParallelUsageMatrix.from_rows``/``from_tsv`` and ``surfaces``; codes
follow ``sorted(set(labels))``, so every consumer that reads them (Hamming
distances, surface indicators, means scores, NULL counts) sees the label
order string comparison would give. ``NULL_MARKER`` is a label like any
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tsv
from .align import NULL_MARKER, PivotParallel, code_labels

__all__ = [
    "PivotError",
    "ParallelUsageMatrix",
    "EmbeddedMap",
    "code_labels",
    "code_parallels",
    "build_matrix",
    "hamming",
    "classical_mds",
]


class PivotError(ValueError):
    pass


def row_id(verse_id: str, pivot_index: int) -> str:
    return f"{verse_id}#{pivot_index}"


def code_parallels(parallels: list[PivotParallel]) -> tuple[np.ndarray, list[str]]:
    """One doculect's column, coded: the forms of its rows, which
    ``align_pair`` gives one per usage point in row order. A ``None``
    form becomes ``NULL_MARKER``, the NULL label from here on.
    """
    return code_labels([NULL_MARKER if p.form is None else p.form for p in parallels])


@dataclass
class ParallelUsageMatrix:
    """Rows are pivot-token occurrences, columns doculects, cells forms.

    ``codes[i, j]`` indexes ``labels[j]``, the sorted distinct forms of
    column j, each used by some row; ``NULL_MARKER`` marks NULL
    alignments.
    """
    row_ids: list[str]
    columns: list[str]
    codes: np.ndarray             # (len(row_ids), len(columns)) int32
    labels: list[list[str]]

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int32)
        if len(set(self.row_ids)) != len(self.row_ids):
            raise PivotError("duplicate row ids in usage matrix")
        if len(set(self.columns)) != len(self.columns):
            raise PivotError("duplicate doculect columns in usage matrix")
        if self.codes.shape != (len(self.row_ids), len(self.columns)) \
                or len(self.labels) != len(self.columns):
            raise PivotError(f"codes of shape {self.codes.shape} and {len(self.labels)} label "
                             f"lists for {len(self.row_ids)} rows and {len(self.columns)} columns")
        if self.codes.size and self.codes.min() < 0:
            raise PivotError("negative code in usage matrix")
        for iso, col, labs in zip(self.columns, self.codes.T, self.labels):
            used = np.bincount(col, minlength=len(labs))
            if len(used) != len(labs) or not used.all() or labs != sorted(set(labs)):
                raise PivotError(f"column {iso!r}: codes must index its sorted distinct "
                                 "labels, each of them used")

    @classmethod
    def from_rows(cls, row_ids: list[str], columns: list[str], rows) -> "ParallelUsageMatrix":
        """The matrix of string labels given row by row, one per column."""
        rows = list(rows)
        if len(rows) != len(row_ids):
            raise PivotError(f"{len(rows)} rows for {len(row_ids)} row ids")
        for rid, row in zip(row_ids, rows):
            if len(row) != len(columns):
                raise PivotError(f"row {rid} has {len(row)} cells, want {len(columns)}")
        return _stack(row_ids, columns, [code_labels(col) for col in
                                         list(zip(*rows)) or [()] * len(columns)])

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def _index(self, iso: str) -> int:
        if iso not in self.columns:
            raise PivotError(f"doculect {iso!r} is not a column of the usage matrix")
        return self.columns.index(iso)

    def coded(self, iso: str) -> tuple[np.ndarray, list[str]]:
        """A doculect's column as (codes, sorted labels), as ``code_labels`` gives it."""
        j = self._index(iso)
        return self.codes[:, j], self.labels[j]

    def rows(self) -> list[list[str]]:
        """The labels, row by row."""
        cells = np.empty(self.codes.shape, dtype=object)
        for j, labels in enumerate(self.labels):
            cells[:, j] = np.array(labels, dtype=object)[self.codes[:, j]]
        return cells.tolist()

    def codes_of(self, wanted: dict[str, str]) -> np.ndarray:
        """Per column, the code of the label ``wanted`` gives for its doculect.

        -1, which no cell holds, where ``wanted`` names no label for the
        column or one the column never uses.
        """
        out = np.full(len(self.columns), -1, dtype=np.int32)
        for iso, label in wanted.items():
            j = self._index(iso)
            if label in self.labels[j]:
                out[j] = self.labels[j].index(label)
        return out

    def to_tsv(self) -> str:
        return tsv.format_rows(
            [["row_id", *self.columns]]
            + [[rid, *row] for rid, row in zip(self.row_ids, self.rows())])

    @classmethod
    def from_tsv(cls, path) -> "ParallelUsageMatrix":
        rows = tsv.read_rows(path, rest=str)
        if not rows:
            raise PivotError(f"{path}: empty matrix file")
        if rows[0][0] != "row_id":
            raise PivotError(f"{path}: the first row must name the columns, "
                             f"row_id and one per doculect; it starts with {rows[0][0]!r}")
        try:
            return cls.from_rows([r[0] for r in rows[1:]], rows[0][1:],
                                 [r[1:] for r in rows[1:]])
        except PivotError as exc:
            raise PivotError(f"{path}: {exc}") from exc


def _stack(row_ids: list[str], columns: list[str],
           coded: list[tuple[np.ndarray, list[str]]]) -> ParallelUsageMatrix:
    codes = np.empty((len(row_ids), len(columns)), dtype=np.int32)
    for j, (col, _) in enumerate(coded):
        codes[:, j] = col
    return ParallelUsageMatrix(row_ids=row_ids, columns=columns, codes=codes,
                               labels=[labels for _, labels in coded])


def build_matrix(columns: dict[str, tuple[np.ndarray, list[str]]],
                 pivot_occurrences: list[tuple[str, int]]) -> ParallelUsageMatrix:
    """Assemble the usage matrix from each doculect's coded column
    (``code_parallels``), one row per usage point, doculects sorted."""
    isos = sorted(columns)
    return _stack([row_id(v, i) for v, i in pivot_occurrences], isos,
                  [columns[iso] for iso in isos])


def hamming(matrix: ParallelUsageMatrix) -> np.ndarray:
    """Pairwise count of differing cells between usage-matrix rows.

    Returns the symmetric (n, n) ``uint16`` matrix; Hamming distances are
    bounded by the column count, so 16-bit cells suffice. NULL is an
    ordinary value: NULL vs NULL is equal, NULL vs form is different.
    Rows are compared through the matrix codes, one row strip at a time;
    strips are independent, so any block schedule over them yields
    bit-identical results.
    """
    n = matrix.n_rows
    if n == 0:
        raise PivotError("empty usage matrix")
    codes = matrix.codes
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

    def to_tsv(self) -> str:
        # shortest round-trip text: `map` redraws from the exact floats `run` drew from
        return tsv.format_rows(
            [rid, *row] for rid, row in zip(self.row_ids, self.coords.tolist()))

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


def classical_mds(d: np.ndarray, k: int,
                  row_ids: list[str] | None = None) -> EmbeddedMap:
    """Torgerson scaling: double-center squared distances, eigendecompose.

    B = -1/2 (D^2 - (r_i + r_j) + mean(r)), with r the row means of D^2,
    is built elementwise; it is exactly symmetric for a symmetric ``d``.
    Coordinates are the top-k eigenvectors of B scaled by the square root
    of their eigenvalues. Eigenpairs with non-positive eigenvalues inside
    the top k yield zero coordinates and set the truncated flag. A point
    at distance 0 from an earlier point takes that point's coordinates,
    so coincident points coincide exactly; then each axis is signed so
    that its entry of largest magnitude is positive.
    """
    dm = np.asarray(d)
    n = dm.shape[0]
    if dm.shape != (n, n):
        raise PivotError("distance matrix must be square")
    if not (1 <= k <= n - 1):
        raise PivotError(f"k must be in [1, n-1], got {k} for n={n}")
    zero = dm == 0
    if not zero.diagonal().all():
        raise PivotError("distance matrix must have a zero diagonal")
    b = np.square(dm, dtype=float)
    r = b.mean(axis=1)
    b -= np.add.outer(r, r)
    b += r.mean()
    b *= -0.5
    evals, evecs = np.linalg.eigh(b)
    # eigh sorts ascending: the top k are the last k, reversed
    evals, evecs = evals[:-k - 1:-1], evecs[:, :-k - 1:-1]
    keep = evals > max(1e-12, 1e-12 * abs(evals[0]))
    coords = evecs * np.sqrt(evals.clip(min=0.0))
    coords[:, ~keep] = 0.0      # evecs * sqrt(0) would write -0.0 where evecs < 0
    # each point takes the coordinates of the first point at distance 0 from it
    coords = coords[zero.argmax(axis=1)]
    # MDS is unique up to per-axis sign; make the entry with the largest
    # magnitude on each axis positive so re-runs are identical.
    top = coords[np.abs(coords).argmax(axis=0), np.arange(k)]
    coords *= np.where(top < 0, -1.0, 1.0)
    rids = row_ids if row_ids is not None else [str(i) for i in range(n)]
    return EmbeddedMap(coords=coords, eigenvalues=evals, row_ids=rids,
                       truncated=not keep.all())
