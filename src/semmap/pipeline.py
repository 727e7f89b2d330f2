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

__all__ = ["PipelineConfig", "ConfigError", "read_config", "check_grid_levels", "check_kriging",
           "run"]

GROUPS = ty.GROUPS
# config fields stored as JSON lists and held as tuples
_LIST_FIELDS = ("pivot_tokens", "levels", "gmm_ks")


class ConfigError(ValueError):
    pass


def _check_distinct(name: str, values) -> None:
    # a repeated level would draw, and store, each of its polygons twice; a
    # repeated K fits, and stores, one mixture twice; a repeated pivot token
    # gives the same analysis under another config hash
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} must differ, got {list(values)!r}")


def check_grid_levels(grid, levels) -> None:
    """Reject a kriging grid or contour levels no surface can be drawn with."""
    if not isinstance(grid, numbers.Integral) or grid < 2:
        raise ConfigError(f"grid must be an integer of at least 2, got {grid!r}")
    for level in levels:
        if not isinstance(level, numbers.Real) or not 0.0 < level < 1.0:
            raise ConfigError(f"contour levels must lie in (0, 1), got {level!r}")
    _check_distinct("contour levels", levels)


# JSON true and false load as bool, a subclass of int: no number knob takes them
def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_kriging(rho, nugget_frac) -> None:
    """Reject a covariance range or nugget that gives no valid kriging system."""
    # exp(-h / rho) is a covariance only for rho > 0, and a negative
    # nugget can make the kriging system indefinite
    if rho is not None and not (_finite(rho) and rho > 0):
        raise ConfigError(f"rho must be a finite number above 0, got {rho!r}")
    if not (_finite(nugget_frac) and nugget_frac >= 0):
        raise ConfigError(f"nugget_frac must be a finite number of at least 0, "
                          f"got {nugget_frac!r}")


def _check_integer(name: str, value, least: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")


def _check_own_clusters(name: str, cluster_of_group: dict) -> None:
    """Each core-point group needs a cluster of its own: groups sharing
    one get identical areas in every doculect."""
    group_of: dict[int, str] = {}
    for g, c in cluster_of_group.items():
        if c in group_of:
            raise ConfigError(f"{name}: groups {group_of[c]} and {g} share cluster {c}")
        group_of[c] = g


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
    dump_grids: bool = False

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
        check_kriging(self.rho, self.nugget_frac)
        check_grid_levels(self.grid, self.levels)
        if list(self.levels) != sorted(self.levels, reverse=True):
            raise ConfigError("levels must be sorted descending")
        if self.dictionary_level not in self.levels:
            raise ConfigError("dictionary_level must be one of the contour levels")
        if not (isinstance(self.pivot_iso, str) and self.pivot_iso):
            raise ConfigError(f"pivot_iso must be a non-empty string, got {self.pivot_iso!r}")
        if not self.pivot_tokens:
            raise ConfigError("pivot_tokens must name at least one token")
        for token in self.pivot_tokens:
            if not isinstance(token, str):
                raise ConfigError(f"pivot_tokens must be strings, got {token!r}")
            # pivot verses are matched token by token after normalization
            normal = cp.normalize(token)
            if normal != [token]:
                raise ConfigError(f"pivot_tokens: {token!r} normalizes to {normal!r}; "
                                  "give the normalized form")
        _check_distinct("pivot_tokens", self.pivot_tokens)
        for name in ("iterations", "min_count", "core_k"):
            _check_integer(name, getattr(self, name))
        if not self.gmm_ks:
            raise ConfigError("gmm_ks must name at least one K")
        # the least K does not depend on the number of points
        least, _ = mx.k_bounds(0)
        for k in self.gmm_ks:
            _check_integer("every K in gmm_ks", k, least)
        _check_distinct("gmm_ks", self.gmm_ks)
        if max(self.gmm_ks) < len(GROUPS):
            raise ConfigError(f"gmm_ks must name a K of at least 3, one cluster per group, "
                              f"got {list(self.gmm_ks)}")
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
        for g, anchor in self.group_anchors.items():
            if not isinstance(anchor, str):
                raise ConfigError(f"group_anchors[{g!r}] must be a row id string, got {anchor!r}")
        if not self.group_anchors:
            if set(self.cluster_groups) != set(GROUPS):
                raise ConfigError(f"cluster_groups must cover {GROUPS}")
            top = max(self.gmm_ks)
            for g, c in self.cluster_groups.items():
                _check_integer(f"cluster_groups[{g!r}]", c, least=0)
                if c >= top:
                    raise ConfigError(
                        f"cluster_groups[{g!r}] must be a cluster in [0, {top}), got {c!r}")
            _check_own_clusters("cluster_groups", self.cluster_groups)

    def to_json(self) -> str:
        # json writes the tuple fields as lists
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        try:
            d = json.loads(text, object_pairs_hook=tsv.unique_keys)
        except ValueError as exc:   # malformed JSON or a key given twice
            raise ConfigError(str(exc)) from exc
        if not isinstance(d, dict):
            raise ConfigError("the config is not a JSON object")
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


def read_config(path) -> PipelineConfig:
    """The config stored at ``path``, UTF-8 JSON read by ``from_json``; a
    byte-order mark opening it is dropped.

    A file that cannot be read, is not UTF-8 or holds no config raises
    ``ConfigError`` naming it.
    """
    try:
        return PipelineConfig.from_json(Path(path).read_bytes().decode("utf-8-sig"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the config ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# a file name holds at most 255 bytes; the longest one a surface gets is
# its contours file's while it is written, <stem>.contours.tsv.tmp
_NAME_MAX = 255
_STEM_MAX = _NAME_MAX - len(".contours.tsv.tmp")


def _surface_stem(iso: str, label: str) -> str:
    """``<iso>_<label>``, the means label percent-quoted, naming one surface's files.

    A stem over ``_STEM_MAX`` bytes is cut to the longest prefix that
    fits with ``~`` and a 16-digit digest of the label appended.
    """
    # quote leaves ASCII letters, digits and "_.-~" as they are
    stem = f"{iso}_{quote(label, safe='')}"
    data = stem.encode("utf-8")
    if len(data) <= _STEM_MAX:
        return stem
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    return data[:_STEM_MAX - 1 - len(digest)].decode("utf-8", "ignore") + "~" + digest


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
    """Writes and hashes a run's artifacts; each ``.tsv`` starts with the run header."""

    def __init__(self, root: Path, config: PipelineConfig):
        self.root = root
        self.header = f"semmap config={config.config_hash()}"
        self.digests: list[tuple[Path, str]] = []

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        if path.suffix == ".tsv":
            text = tsv.format_rows((), self.header) + text
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
    art = _Artifacts(out, config)

    # corpus ------------------------------------------------------------
    manifest = cp.load_corpus(config.corpus_dir, config.metadata, config.pivot_iso)
    for iso, doc in sorted(manifest.doculects.items()):
        # alignments/<iso>.tsv and svg/<iso>.svg are written through <name>.tmp
        if len(f"{iso}.tsv.tmp".encode("utf-8")) > _NAME_MAX:
            raise cp.CorpusError(
                f"{Path(config.corpus_dir) / doc.stem}.txt: its iso code makes the file name "
                f"{iso}.tsv.tmp longer than {_NAME_MAX} bytes")
    pivot = manifest.pivot
    pivot_tokens = {
        vid: cp.normalize(text) for vid, text in sorted(pivot.verses.items())
    }
    pivot_types = set(config.pivot_tokens)
    occurrences = al.usage_points(pivot_tokens, pivot_types)
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
    least, most = mx.k_bounds(len(occurrences))
    if not all(least <= k <= most for k in config.gmm_ks):
        raise ConfigError(f"gmm_ks={list(config.gmm_ks)} must lie in [{least}, {most}] for "
                          f"the {len(occurrences)} occurrences of the pivot tokens")
    all_target_verses = set()
    targets = sorted(iso for iso in manifest.doculects if iso != config.pivot_iso)
    for iso in targets:
        verses = manifest.doculects[iso].verses
        if pivot.verses.keys().isdisjoint(verses):
            raise cp.CorpusError(f"{iso} shares no verse with the pivot {config.pivot_iso}")
        all_target_verses.update(verses)
    # nothing lands in out_dir until the corpus has loaded, holds the pivot,
    # gives every doculect file names that fit, names every anchor, has
    # core_k occurrences and enough for every K, and shares verses with
    # every target
    art.write("config.json", config.to_json())
    dropped_verses = len(all_target_verses - set(pivot.verses))

    rows = [("iso", "name", "family", "macroarea", "year", "coverage")]
    for iso, doc in sorted(manifest.doculects.items()):
        year = doc.year if doc.year is not None else "_"
        rows.append((iso, doc.name, doc.family, doc.macroarea, year, doc.coverage))
    rows.append(("# dropped_nonpivot_verses", dropped_verses))
    art.write("corpus.tsv", tsv.format_rows(rows))

    # alignment ----------------------------------------------------------
    def align_one(iso: str):
        # align_pair reads only the verses the pivot has too
        target_tokens = {vid: cp.normalize(t) for vid, t in manifest.doculects[iso].verses.items()
                         if vid in pivot_tokens}
        return al.align_pair(
            pivot_tokens, target_tokens, occurrences,
            iterations=config.iterations, min_count=config.min_count,
        )

    # each doculect's column is coded, and its alignment written, as it
    # returns; no alignment outlives its column
    coded: dict[str, tuple] = {}

    def keep(iso: str, parallels: list[al.PivotParallel]) -> None:
        art.write(f"alignments/{iso}.tsv", al.dump_parallels(parallels))
        coded[iso] = pv.code_parallels(parallels)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for iso, parallels in zip(targets, pool.map(align_one, targets)):
            keep(iso, parallels)
    # the pivot realizes each occurrence with the pivot token itself
    keep(config.pivot_iso,
         [al.PivotParallel(vid, i, pivot_tokens[vid][i]) for vid, i in occurrences])

    # usage matrix, distances, embedding ---------------------------------
    matrix = pv.build_matrix(coded, occurrences)
    art.write("matrix.tsv", matrix.to_tsv())
    dist = pv.hamming(matrix)
    emb = pv.classical_mds(dist, 2, row_ids=matrix.row_ids)
    art.write("embedding.tsv", emb.to_tsv())
    points = emb.coords

    heat = sf.null_heat(matrix)
    art.write("heat.tsv", tsv.format_rows([("row_id", "null_count"), *zip(matrix.row_ids, heat)]))
    art.write("svg/heat.svg", svgmod.render_map(
        points, al.code_labels([al.NULL_MARKER] * len(heat)), heat=heat,
        title="null-construction concentration", comment=art.header,
    ))

    # mixture -------------------------------------------------------------
    report = mx.select_k(points, config.gmm_ks, seed=config.gmm_seed)
    art.write("gmm_selection.tsv", report.to_tsv())
    model = report.model

    rows = [("cluster", "weight", "mean_x", "mean_y", "cov_xx", "cov_xy", "cov_yy")]
    for j in range(model.k):
        c = model.covariances[j]
        rows.append((j, *(f"{v:.9f}" for v in (
            model.weights[j], model.means[j, 0], model.means[j, 1],
            c[0, 0], c[0, 1], c[1, 1]))))
    art.write("gmm_model.tsv", tsv.format_rows(rows))
    art.write("gmm_assignments.tsv", tsv.format_rows(
        [("row_id", "cluster"),
         *((rid, int(a)) for rid, a in zip(matrix.row_ids, model.assignments))]))

    # cluster -> group mapping
    if config.group_anchors:
        cluster_of_group = {g: int(model.assignments[matrix.row_ids.index(anchor)])
                            for g, anchor in config.group_anchors.items()}
        _check_own_clusters("group_anchors", cluster_of_group)
    else:
        cluster_of_group = {g: int(c) for g, c in config.cluster_groups.items()}
    for g, c in cluster_of_group.items():
        if not (model.assignments == c).any():
            raise mx.MixtureError(f"group {g}: cluster {c} is empty")

    cores = {
        g: mx.core_points(points, model.assignments, cluster_of_group[g], k=config.core_k)
        for g in GROUPS
    }
    rows = [("group", "cluster", "centroid_x", "centroid_y", "member_row_ids")]
    for g in GROUPS:
        cs = cores[g]
        rows.append((g, cs.cluster, f"{cs.centroid[0]:.9f}", f"{cs.centroid[1]:.9f}",
                     ",".join(matrix.row_ids[i] for i in cs.members)))
    art.write("core_points.tsv", tsv.format_rows(rows))
    core_coords = {g: points[cores[g].members] for g in GROUPS}

    # per-doculect surfaces, dictionaries, classification -----------------
    columns = {iso: matrix.coded(iso) for iso in matrix.columns}
    surf_by_iso = sf.fit_surfaces(points, columns, grid=config.grid,
                                  levels=config.levels, rho=config.rho,
                                  nugget_frac=config.nugget_frac)

    dictionaries = []
    score_rows = [("iso", "cluster", "means", "tp", "fp", "fn",
                   "precision", "recall", "f1", "best")]
    best_by_cluster: dict[int, dict[str, str]] = {}
    for iso, column in columns.items():
        surfs = surf_by_iso[iso]
        for m in sorted(surfs):
            stem = _surface_stem(iso, m)
            if config.dump_grids:
                art.write(f"surfaces/{stem}.grid.tsv", surfs[m].grid_to_tsv())
            art.write(f"surfaces/{stem}.contours.tsv", surfs[m].contours_to_tsv())

        areas = {m: s.contours.get(config.dictionary_level, [])
                 for m, s in surfs.items()}
        dictionaries.append((iso, ty.build_dictionary(core_coords, areas, alpha=config.alpha)))

        for g in GROUPS:
            cl = cluster_of_group[g]
            scores, best = ty.score_means(model.assignments, column, cl)
            for s in scores:
                score_rows.append((iso, cl, s.means, s.tp, s.fp, s.fn,
                                   f"{s.precision:.6f}", f"{s.recall:.6f}", f"{s.f1:.6f}",
                                   int(s.means == best.means)))
            best_by_cluster.setdefault(cl, {})[iso] = best.means

        svg_text = svgmod.render_map(
            points, column, {m: s.contours for m, s in surfs.items()},
            title=f"{iso} ({manifest.doculects[iso].family})",
            comment=art.header,
        )
        art.write(f"svg/{iso}.svg", svg_text)

    art.write("dictionaries.tsv", tsv.format_rows(
        [("iso", "dictionary"), *((iso, adict.to_json()) for iso, adict in dictionaries)]))
    art.write("classification.tsv", ty.classification_to_tsv(dictionaries))
    art.write("scores.tsv", tsv.format_rows(score_rows))

    proto_rows = [("cluster", "rank", "row_id", "score")]
    for g in GROUPS:
        cl = cluster_of_group[g]
        ranking = ty.prototypicality(cl, best_by_cluster.get(cl, {}), matrix,
                                     model.assignments)
        for rank, (rid, score) in enumerate(ranking, 1):
            proto_rows.append((cl, rank, rid, score))
    art.write("prototypicality.tsv", tsv.format_rows(proto_rows))

    manifest_path = out / "manifest.tsv"
    _atomic_write(manifest_path, art.manifest().encode("utf-8"))
    return manifest_path
