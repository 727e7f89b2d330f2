"""End-to-end orchestration: corpus to classification, with artifacts.

Every stage writes TSV intermediates (plus one SVG map per doculect)
under the output directory; a manifest lists each artifact with its
content hash. Runs are byte-identical for identical configs: all
randomness comes from ``gmm_seed`` (EM alignment starts from a uniform
table), floats print with fixed formats and nothing records a timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from urllib.parse import quote

from . import align as al
from . import corpus as cp
from . import mixture as mx
from . import pivot as pv
from . import surfaces as sf
from . import svg as svgmod
from . import tsv
from . import typology as ty

__all__ = ["PipelineConfig", "ConfigError", "check_grid_levels", "run"]

GROUPS = ty.GROUPS
# config fields stored as JSON lists and held as tuples
_LIST_FIELDS = ("pivot_tokens", "levels", "gmm_ks")


class ConfigError(ValueError):
    pass


def check_grid_levels(grid, levels) -> None:
    """Reject a kriging grid or contour levels no surface can be drawn with."""
    if not isinstance(grid, numbers.Integral) or grid < 2:
        raise ConfigError(f"grid must be an integer of at least 2, got {grid!r}")
    for level in levels:
        if not isinstance(level, numbers.Real) or not 0.0 < level < 1.0:
            raise ConfigError(f"contour levels must lie in (0, 1), got {level!r}")


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _check_integer(name: str, value, least: int = 1) -> None:
    if not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass
class PipelineConfig:
    corpus_dir: str
    metadata: str | None
    out_dir: str
    pivot_iso: str = "eng"
    pivot_tokens: tuple[str, ...] = ("when",)
    iterations: int = 5
    min_count: int = 3
    grid: int = 200
    levels: tuple[float, ...] = sf.DEFAULT_LEVELS
    nugget_frac: float = 0.05
    rho: float | None = None
    dictionary_level: float = 0.29
    gmm_ks: tuple[int, ...] = (6,)
    gmm_seed: int = 29
    core_k: int = 30
    alpha: float = 0.01
    cluster_groups: dict = field(default_factory=lambda: {"TL": 3, "ML": 2, "BL": 4})
    group_anchors: dict = field(default_factory=dict)
    dump_grids: bool = True

    def validate(self) -> None:
        for name in ("corpus_dir", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a path, got {getattr(self, name)!r}")
        if not Path(self.corpus_dir).is_dir():
            raise ConfigError(f"corpus dir not found: {self.corpus_dir}")
        if not isinstance(self.metadata, (str, type(None))):
            raise ConfigError(f"metadata must be a path or null, got {self.metadata!r}")
        if self.metadata and not Path(self.metadata).is_file():
            raise ConfigError(f"metadata file not found: {self.metadata}")
        # exp(-h / rho) is a covariance only for rho > 0, and a negative
        # nugget can make the kriging system indefinite
        if self.rho is not None and not (_finite(self.rho) and self.rho > 0):
            raise ConfigError(f"rho must be a finite number above 0, got {self.rho!r}")
        if not (_finite(self.nugget_frac) and self.nugget_frac >= 0):
            raise ConfigError(f"nugget_frac must be a finite number of at least 0, "
                              f"got {self.nugget_frac!r}")
        check_grid_levels(self.grid, self.levels)
        if list(self.levels) != sorted(self.levels, reverse=True):
            raise ConfigError("levels must be sorted descending")
        if self.dictionary_level not in self.levels:
            raise ConfigError("dictionary_level must be one of the contour levels")
        if not self.pivot_tokens:
            raise ConfigError("need at least one pivot token")
        for name in ("iterations", "min_count", "core_k"):
            _check_integer(name, getattr(self, name))
        if not self.gmm_ks:
            raise ConfigError("gmm_ks must name at least one K")
        for k in self.gmm_ks:
            _check_integer("every K in gmm_ks", k)
        # numpy seeds its generators with non-negative integers only
        _check_integer("gmm_seed", self.gmm_seed, least=0)
        if not (_finite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be a finite number in (0, 1), got {self.alpha!r}")
        if not isinstance(self.dump_grids, bool):
            raise ConfigError(f"dump_grids must be true or false, got {self.dump_grids!r}")
        for name in ("cluster_groups", "group_anchors"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object, got {getattr(self, name)!r}")
        if self.group_anchors and set(self.group_anchors) != set(GROUPS):
            raise ConfigError(f"group_anchors must cover {GROUPS}")
        if not self.group_anchors:
            if set(self.cluster_groups) != set(GROUPS):
                raise ConfigError(f"cluster_groups must cover {GROUPS}")
            top = max(self.gmm_ks)
            for g, c in self.cluster_groups.items():
                if isinstance(c, bool) or not isinstance(c, numbers.Integral) or not 0 <= c < top:
                    raise ConfigError(
                        f"cluster_groups[{g!r}] must be a cluster in [0, {top}), got {c!r}")

    def to_json(self) -> str:
        d = asdict(self)
        for key in _LIST_FIELDS:
            d[key] = list(d[key])
        return json.dumps(d, sort_keys=True, ensure_ascii=False, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ConfigError("a config must be a JSON object")
        for key in _LIST_FIELDS:
            if key in d:
                if not isinstance(d[key], list):
                    raise ConfigError(f"{key} must be a JSON list, got {d[key]!r}")
                d[key] = tuple(d[key])
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def config_hash(self) -> str:
        # identifies the analytic configuration; where the artifacts land
        # is not part of it, so runs into different directories hash alike
        d = json.loads(self.to_json())
        d.pop("out_dir", None)
        blob = json.dumps(d, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _safe_name(label: str) -> str:
    return quote(label, safe="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_")


def _threads() -> int:
    text = os.environ.get("SEMMAP_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"SEMMAP_THREADS must be an integer of at least 1, got {text!r}")
    return threads


class _Artifacts:
    """Writes a run's artifacts and keeps the sha256 of each for the manifest."""

    def __init__(self, root: Path, header: str):
        self.root = root
        self.header = header
        self.digests: list[tuple[Path, str]] = []

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        data = text.encode("utf-8")
        _atomic_write(path, data)
        self.digests.append((path, hashlib.sha256(data).hexdigest()))

    def manifest(self) -> str:
        return tsv.format_rows(
            ((digest, path.relative_to(self.root)) for path, digest in sorted(self.digests)),
            self.header,
        )


def run(config: PipelineConfig) -> Path:
    """Execute the whole pipeline; returns the manifest path."""
    config.validate()
    threads = _threads()
    out = Path(config.out_dir)
    header = f"semmap config={config.config_hash()}"
    art = _Artifacts(out, header)

    # corpus ------------------------------------------------------------
    manifest = cp.load_corpus(config.corpus_dir, config.metadata, config.pivot_iso)
    pivot = manifest.pivot
    pivot_tokens = {
        vid: cp.normalize(text) for vid, text in sorted(pivot.verses.items())
    }
    pivot_types = set(config.pivot_tokens)
    occurrences = [
        (vid, i)
        for vid, toks in pivot_tokens.items()
        for i, tok in enumerate(toks)
        if tok in pivot_types
    ]
    if not occurrences:
        raise cp.CorpusError(
            f"pivot tokens {sorted(pivot_types)} never occur in {config.pivot_iso}")
    # the usage-matrix rows are the occurrences, so anchors are checked here
    row_ids = {pv.row_id(vid, i) for vid, i in occurrences}
    for anchor in config.group_anchors.values():
        if anchor not in row_ids:
            raise ConfigError(f"group anchor {anchor!r} is not a row id")
    if config.core_k > len(occurrences):
        raise ConfigError(f"core_k={config.core_k} exceeds the {len(occurrences)} "
                          f"occurrences of the pivot tokens")
    # nothing lands in out_dir until the corpus has loaded, holds the pivot,
    # names every anchor and has core_k occurrences
    art.write("config.json", config.to_json())
    all_target_verses = set()
    targets = sorted(iso for iso in manifest.doculects if iso != config.pivot_iso)
    for iso in targets:
        all_target_verses.update(manifest.doculects[iso].verses)
    dropped_verses = len(all_target_verses - set(pivot.verses))

    rows = [("iso", "name", "family", "macroarea", "year", "coverage")]
    for iso, doc in sorted(manifest.doculects.items()):
        year = doc.year if doc.year is not None else "_"
        rows.append((iso, doc.name, doc.family, doc.macroarea, year, doc.coverage))
    rows.append(("# dropped_nonpivot_verses", dropped_verses))
    art.write("corpus.tsv", tsv.format_rows(rows, header))

    # alignment ----------------------------------------------------------
    def align_one(iso: str):
        doc = manifest.doculects[iso]
        target_tokens = {vid: cp.normalize(t) for vid, t in sorted(doc.verses.items())}
        return al.align_pair(
            pivot_tokens, target_tokens, pivot_types,
            iterations=config.iterations, min_count=config.min_count,
        )

    parallels: dict[str, list[al.PivotParallel]] = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for iso, rows in zip(targets, pool.map(align_one, targets)):
            parallels[iso] = rows
    # the pivot realizes each occurrence with the pivot token itself
    parallels[config.pivot_iso] = [
        al.PivotParallel(vid, i, pivot_tokens[vid][i]) for vid, i in occurrences
    ]
    for iso in sorted(parallels):
        art.write(f"alignments/{iso}.tsv", al.dump_parallels(parallels[iso], header))

    # usage matrix, distances, embedding ---------------------------------
    matrix = pv.build_matrix(parallels, occurrences)
    art.write("matrix.tsv", matrix.to_tsv(header))
    dist = pv.hamming(matrix)
    emb = pv.classical_mds(dist, 2, row_ids=matrix.row_ids)
    art.write("embedding.tsv", emb.to_tsv(header))
    points = emb.coords

    heat = sf.null_heat(matrix)
    art.write("heat.tsv", tsv.format_rows(
        [("row_id", "null_count"), *zip(matrix.row_ids, heat)], header))
    art.write("svg/heat.svg", svgmod.render_map(
        points, [None] * len(heat), heat=heat,
        title="null-construction concentration", comment=header,
    ))

    # mixture -------------------------------------------------------------
    if len(config.gmm_ks) > 1:
        report = mx.select_k(points, config.gmm_ks, seed=config.gmm_seed)
        art.write("gmm_selection.tsv", report.to_tsv(header))
        model = report.model
    else:
        model = mx.fit_gmm(points, config.gmm_ks[0], seed=config.gmm_seed)

    rows = [("cluster", "weight", "mean_x", "mean_y", "cov_xx", "cov_xy", "cov_yy")]
    for j in range(model.k):
        c = model.covariances[j]
        rows.append((j, *(f"{v:.9f}" for v in (
            model.weights[j], model.means[j, 0], model.means[j, 1],
            c[0, 0], c[0, 1], c[1, 1]))))
    art.write("gmm_model.tsv", tsv.format_rows(rows, header))
    art.write("gmm_assignments.tsv", tsv.format_rows(
        [("row_id", "cluster"),
         *((rid, int(a)) for rid, a in zip(matrix.row_ids, model.assignments))], header))

    # cluster -> group mapping
    row_index = {rid: i for i, rid in enumerate(matrix.row_ids)}
    if config.group_anchors:
        cluster_of_group = {g: int(model.assignments[row_index[anchor]])
                            for g, anchor in config.group_anchors.items()}
    else:
        cluster_of_group = {g: int(c) for g, c in config.cluster_groups.items()}
    for g, c in cluster_of_group.items():
        if not (model.assignments == c).any():
            raise mx.MixtureError(f"group {g}: cluster {c} is empty")

    cores = {
        g: mx.core_points(points, model.assignments, cluster_of_group[g],
                          k=config.core_k, row_ids=matrix.row_ids)
        for g in GROUPS
    }
    rows = [("group", "cluster", "centroid_x", "centroid_y", "member_row_ids")]
    for g in GROUPS:
        cs = cores[g]
        rows.append((g, cs.cluster, f"{cs.centroid[0]:.9f}", f"{cs.centroid[1]:.9f}",
                     ",".join(str(m) for m in cs.member_ids)))
    art.write("core_points.tsv", tsv.format_rows(rows, header))

    # per-doculect surfaces, dictionaries, classification -----------------
    columns = {iso: matrix.column(iso) for iso in sorted(matrix.columns)}
    surf_by_iso = sf.fit_surfaces(points, columns, grid=config.grid,
                                  levels=config.levels, rho=config.rho,
                                  nugget_frac=config.nugget_frac)

    classification = [("iso", "pattern", "subpattern", "null_flags", "dictionary")]
    dict_rows = [("iso", "dictionary")]
    score_rows = [("iso", "cluster", "means", "tp", "fp", "fn",
                   "precision", "recall", "f1", "best")]
    best_by_cluster: dict[int, dict[str, str]] = {}
    for iso, labels in columns.items():
        surfs = surf_by_iso[iso]
        for m in sorted(surfs):
            name = _safe_name(m)
            if config.dump_grids:
                art.write(f"surfaces/{iso}_{name}.grid.tsv", surfs[m].grid_to_tsv(header))
            art.write(f"surfaces/{iso}_{name}.contours.tsv", surfs[m].contours_to_tsv(header))

        areas = {m: s.contours.get(config.dictionary_level, [])
                 for m, s in surfs.items()}
        core_ids = {g: cores[g].member_ids for g in GROUPS}
        adict = ty.build_dictionary(core_ids, areas, points, row_index,
                                    alpha=config.alpha)
        assignment = ty.classify_pattern(adict)
        djson = json.dumps(adict.groups, sort_keys=True, ensure_ascii=False)
        dict_rows.append((iso, djson))
        classification.append((iso, assignment.pattern, assignment.subpattern or "_",
                               ",".join(assignment.null_flags) or "_", djson))

        for g in GROUPS:
            cl = cluster_of_group[g]
            scores, best = ty.score_means(model.assignments, labels, cl)
            for s in scores:
                score_rows.append((iso, cl, s.means, s.tp, s.fp, s.fn,
                                   f"{s.precision:.6f}", f"{s.recall:.6f}", f"{s.f1:.6f}",
                                   int(s.means == best.means)))
            best_by_cluster.setdefault(cl, {})[iso] = best.means

        svg_text = svgmod.render_map(
            points, labels, {m: s.contours for m, s in surfs.items()},
            title=f"{iso} ({manifest.doculects[iso].family})",
            comment=header,
        )
        art.write(f"svg/{iso}.svg", svg_text)

    art.write("dictionaries.tsv", tsv.format_rows(dict_rows, header))
    art.write("classification.tsv", tsv.format_rows(classification, header))
    art.write("scores.tsv", tsv.format_rows(score_rows, header))

    proto_rows = [("cluster", "rank", "row_id", "score")]
    for g in GROUPS:
        cl = cluster_of_group[g]
        ranking = ty.prototypicality(cl, best_by_cluster.get(cl, {}), matrix,
                                     model.assignments)
        for rank, (rid, score) in enumerate(ranking, 1):
            proto_rows.append((cl, rank, rid, score))
    art.write("prototypicality.tsv", tsv.format_rows(proto_rows, header))

    manifest_path = out / "manifest.tsv"
    _atomic_write(manifest_path, art.manifest().encode("utf-8"))
    return manifest_path
