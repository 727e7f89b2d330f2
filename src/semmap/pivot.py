"""Usage-point matrix for the pivot token, Hamming distances, classical MDS."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tsv
from .align import NULL_MARKER, PivotParallel

__all__ = [
    "PivotError",
    "ParallelUsageMatrix",
    "DistanceMatrix",
    "EmbeddedMap",
    "build_matrix",
    "hamming",
    "classical_mds",
    "add_dimension",
]


class PivotError(ValueError):
    pass


def row_id(verse_id: str, pivot_index: int) -> str:
    return f"{verse_id}#{pivot_index}"


@dataclass
class ParallelUsageMatrix:
    """Rows are pivot-token occurrences, columns doculects, cells forms.

    ``None`` cells mark NULL alignments. Every row has a cell for every
    column.
    """
    row_ids: list[str]
    columns: list[str]
    cells: list[list[str | None]]

    def __post_init__(self):
        if len(set(self.row_ids)) != len(self.row_ids):
            raise PivotError("duplicate row ids in usage matrix")
        for rid, row in zip(self.row_ids, self.cells):
            if len(row) != len(self.columns):
                raise PivotError(f"row {rid} has {len(row)} cells, want {len(self.columns)}")

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def column(self, iso: str) -> list[str | None]:
        if iso not in self.columns:
            raise PivotError(f"doculect {iso!r} is not a column of the usage matrix")
        j = self.columns.index(iso)
        return [row[j] for row in self.cells]

    def shared_verse_rows(self) -> list[str]:
        """Row ids whose verse carries more than one pivot occurrence."""
        seen: dict[str, int] = {}
        for rid in self.row_ids:
            verse = rid.rsplit("#", 1)[0]
            seen[verse] = seen.get(verse, 0) + 1
        return [rid for rid in self.row_ids if seen[rid.rsplit("#", 1)[0]] > 1]

    def to_tsv(self, header: str | None = None) -> str:
        return tsv.format_rows(
            [["row_id", *self.columns]]
            + [[rid, *(c if c is not None else NULL_MARKER for c in row)]
               for rid, row in zip(self.row_ids, self.cells)],
            header,
        )

    @classmethod
    def from_tsv(cls, path) -> "ParallelUsageMatrix":
        rows = tsv.read_rows(path, rest=str)
        if not rows:
            raise PivotError(f"{path}: empty matrix file")
        return cls(row_ids=[r[0] for r in rows[1:]], columns=rows[0][1:],
                   cells=[[None if c == NULL_MARKER else c for c in r[1:]]
                          for r in rows[1:]])


def build_matrix(parallels_by_doculect: dict[str, list[PivotParallel]],
                 pivot_occurrences: list[tuple[str, int]]) -> ParallelUsageMatrix:
    """Assemble the usage matrix; occurrences missing from a dump are NULL."""
    rids = [row_id(v, i) for v, i in pivot_occurrences]
    if len(set(rids)) != len(rids):
        raise PivotError("duplicate row ids in pivot occurrence list")
    columns = sorted(parallels_by_doculect.keys())
    lookup = {
        iso: {(p.verse_id, p.pivot_index): p.form for p in rows}
        for iso, rows in parallels_by_doculect.items()
    }
    cells = [
        [lookup[iso].get(occ) for iso in columns]
        for occ in pivot_occurrences
    ]
    return ParallelUsageMatrix(row_ids=rids, columns=columns, cells=cells)


@dataclass
class DistanceMatrix:
    """Symmetric integer distances, stored as a packed upper triangle.

    Hamming distances are bounded by the column count, so 16-bit cells
    suffice; full-scale runs have n^2/2 cells and the packing halves the
    dominant memory cost.
    """
    n: int
    packed: np.ndarray

    def __post_init__(self):
        want = self.n * (self.n - 1) // 2
        if self.packed.shape != (want,):
            raise PivotError(f"packed triangle has {self.packed.shape}, want ({want},)")

    def _offset(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * (2 * self.n - i - 1) // 2 + (j - i - 1)

    def get(self, i: int, j: int) -> int:
        if i == j:
            return 0
        return int(self.packed[self._offset(i, j)])

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.int64)
        iu = np.triu_indices(self.n, k=1)
        out[iu] = self.packed
        out[(iu[1], iu[0])] = self.packed
        return out


def hamming(matrix: ParallelUsageMatrix) -> DistanceMatrix:
    """Pairwise count of differing cells between usage-matrix rows.

    NULL is an ordinary value: NULL vs NULL is equal, NULL vs form is
    different. Rows are compared through per-column integer codes, one
    row strip at a time; strips are independent, so any block schedule
    over them yields bit-identical results.
    """
    n = matrix.n_rows
    if n == 0:
        raise PivotError("empty usage matrix")
    m = len(matrix.columns)
    codes = np.empty((n, m), dtype=np.int32)
    for j in range(m):
        seen: dict = {}
        for i, row in enumerate(matrix.cells):
            v = row[j]
            if v not in seen:
                seen[v] = len(seen)
            codes[i, j] = seen[v]
    packed = np.empty(n * (n - 1) // 2, dtype=np.uint16)
    pos = 0
    for i in range(n - 1):
        diff = (codes[i + 1:] != codes[i]).sum(axis=1)
        packed[pos:pos + (n - i - 1)] = diff.astype(np.uint16)
        pos += n - i - 1
    return DistanceMatrix(n=n, packed=packed)


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
    plane_distance: np.ndarray | None = None

    def to_tsv(self, header: str | None = None) -> str:
        return tsv.format_rows(
            ([rid, *(f"{v:.9f}" for v in row)] for rid, row in zip(self.row_ids, self.coords)),
            header,
        )

    @classmethod
    def from_tsv(cls, path) -> "EmbeddedMap":
        rows = tsv.read_rows(path, str, rest=float)
        if not rows:
            raise PivotError(f"{path}: empty embedding file")
        coords = np.asarray([r[1:] for r in rows], dtype=float)
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


def classical_mds(d: DistanceMatrix | np.ndarray, k: int,
                  row_ids: list[str] | None = None) -> EmbeddedMap:
    """Torgerson scaling: double-center squared distances, eigendecompose.

    Coordinates are the top-k eigenvectors scaled by the square root of
    their eigenvalues. Eigenpairs with non-positive eigenvalues inside
    the top k yield zero coordinates and set the truncated flag.
    """
    dm = d.dense().astype(float) if isinstance(d, DistanceMatrix) else np.asarray(d, dtype=float)
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


def add_dimension(d: DistanceMatrix | np.ndarray,
                  row_ids: list[str] | None = None) -> EmbeddedMap:
    """Three-dimensional variant sharing the 2D eigendecomposition.

    The first two axes coincide exactly with ``classical_mds(d, 2)``; the
    third is the next eigenpair. ``plane_distance`` carries each point's
    distance from the xy-plane for heat coloring.
    """
    emb = classical_mds(d, 3, row_ids=row_ids)
    emb.plane_distance = np.abs(emb.coords[:, 2])
    return emb
