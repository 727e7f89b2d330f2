"""Command-line interface.

``semmap run`` executes the whole pipeline from a JSON config (flags
override individual fields); the subcommands run single stages over
stored intermediates. Exit codes: 0 ok, 2 config error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import align as al
from . import corpstats as cs
from . import mixture as mx
from . import pivot as pv
from . import surfaces as sf
from . import svg as svgmod
from . import treebank as tb
from . import tsv
from . import typology as ty
from .corpus import CorpusError
from .pipeline import ConfigError, PipelineConfig, check_grid_levels, run
from .treebank import TreebankError
from .typology import TypologyError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# scalar PipelineConfig fields mirrored as --kebab-case run flags
_RUN_SCALARS = {
    "corpus_dir": str, "metadata": str, "out_dir": str, "pivot_iso": str,
    "iterations": int, "min_count": int, "seed": int, "mds_dims": int,
    "covariance": str, "grid": int, "nugget_frac": float, "rho": float,
    "dictionary_level": float, "gmm_seed": int, "core_k": int, "alpha": float,
    "edit_rules": str,
}


def _split(text: str, typ) -> tuple:
    """A comma-separated flag value as a tuple of ``typ``."""
    try:
        return tuple(typ(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad list {text!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write a command's output to ``out`` and print its name, or write it to stdout."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(out)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    if args.config:
        config = PipelineConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    else:
        if not (args.corpus_dir and args.out_dir):
            raise ConfigError("either --config or --corpus-dir/--out-dir are required")
        config = PipelineConfig(
            corpus_dir=args.corpus_dir, metadata=args.metadata,
            out_dir=args.out_dir,
        )
    for name in _RUN_SCALARS:
        val = getattr(args, name, None)
        if val is not None:
            setattr(config, name, val)
    if args.pivot_tokens:
        config.pivot_tokens = _split(args.pivot_tokens, str)
    if args.levels:
        config.levels = _split(args.levels, float)
    if args.gmm_ks:
        config.gmm_ks = _split(args.gmm_ks, int)
    if args.treebank_paths:
        config.treebank_paths = _split(args.treebank_paths, str)
    if args.cluster_groups:
        config.cluster_groups = json.loads(args.cluster_groups)
    if args.group_anchors:
        config.group_anchors = json.loads(args.group_anchors)
    if args.no_dump_grids:
        config.dump_grids = False
    manifest = run(config)
    print(manifest)
    return EXIT_OK


def _cmd_align_eval(args) -> int:
    parallels = al.load_parallels(args.alignment)
    # gold rows have the alignment dump's format
    gold = {(p.verse_id, p.pivot_index): p.form for p in al.load_parallels(args.gold)}
    acc = al.evaluate_alignment(parallels, gold)
    print(f"accuracy\t{acc:.4f}\t({len(gold)} gold items)")
    return EXIT_OK


def _require(path: str, stage: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{path} not found; run `semmap {stage}` first")
    return p


def _cmd_map(args) -> int:
    levels = _split(args.levels, float)
    check_grid_levels(args.grid, levels)
    emb = pv.EmbeddedMap.from_tsv(_require(args.embedding, "run"))
    matrix = pv.ParallelUsageMatrix.from_tsv(_require(args.matrix, "run"))
    if emb.row_ids != matrix.row_ids:
        raise pv.PivotError(
            f"the row ids of {args.embedding} ({len(emb.row_ids)} rows) differ from "
            f"those of {args.matrix} ({len(matrix.row_ids)} rows); "
            "use the embedding and matrix of one `semmap run`")
    points = emb.coords[:, :2]
    labels = matrix.column(args.iso)
    surfs = sf.fit_surfaces(points, labels, grid=args.grid, levels=levels)
    svg_text = svgmod.render_map(points, labels, {m: s.contours for m, s in surfs.items()},
                                 title=args.iso)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    _emit(svg_text, args.out)
    return EXIT_OK


def _dictionary(cell: str) -> tuple[str, ty.AreaDictionary]:
    """A stored dictionary cell: its JSON text and the dictionary it encodes."""
    groups = json.loads(cell)
    if not isinstance(groups, dict):
        raise ValueError(f"dictionary {cell!r} is not a JSON object")
    return cell, ty.AreaDictionary(groups={g: list(v) for g, v in groups.items()})


def _cmd_classify(args) -> int:
    rows = [("iso", "pattern", "subpattern", "null_flags", "dictionary")]
    for iso, (djson, adict) in tsv.read_rows(_require(args.dictionaries, "run"),
                                             str, _dictionary, header=("iso", "dictionary")):
        res = ty.classify_pattern(adict)
        rows.append((iso, res.pattern, res.subpattern or "_",
                     ",".join(res.null_flags) or "_", djson))
    _emit(tsv.format_rows(rows), args.out)
    return EXIT_OK


def _cmd_treebank_extract(args) -> int:
    sentences = tb.parse_treebank(Path(args.treebank))
    _emit(tb.constructions_to_tsv(tb.extract_all(sentences)), args.out)
    return EXIT_OK


def _cmd_stats_report(args) -> int:
    table = tsv.read_rows(_require(args.constructions, "treebank-extract"), rest=str)
    if table and not {"sentence_id", "kind", "trigger_ids", "position"} <= set(table[0]):
        raise tsv.TsvError(f"{args.constructions}: the columns sentence_id, kind, "
                           "trigger_ids and position are required")
    rows = [dict(zip(table[0], r)) for r in table[1:]]
    lemmas = {(sid, tid): lemma for sid, tid, lemma in
              tsv.read_rows(_require(args.lemmas, "treebank-extract"), str, str, str)}

    def lemma_of(row) -> str | None:
        trigger = row["trigger_ids"].split(",")[0]
        return lemmas.get((row["sentence_id"], trigger))

    subsets: dict[str, list[str]] = {}
    for row in rows:
        lemma = lemma_of(row)
        if lemma is None:
            continue
        for key in (row["kind"], f"{row['kind']}:{row['position']}"):
            subsets.setdefault(key, []).append(lemma)
    if args.normalize_lemmas:
        # report both raw and orthographically merged variants
        for key in list(subsets):
            subsets[f"{key}:N"] = [cs.normalize_lemma(l) for l in subsets[key]]
    out_rows = [("subset", "n", "mattr", "ten_mfl", "notes")]
    for key in sorted(subsets):
        series = subsets[key]
        m = cs.mattr(series, window=args.window)
        t = cs.ten_mfl(series)
        notes = []
        if m.fallback:
            notes.append("mattr-fallback-ttr")
        if t.boundary_tie:
            notes.append("10mfl-boundary-tie")
        out_rows.append((key, len(series), f"{m.value:.6f}", f"{t.value:.6f}",
                         ",".join(notes) or "_"))
    _emit(tsv.format_rows(out_rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="semmap")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", help="JSON pipeline config")
    for name, typ in _RUN_SCALARS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=name)
    p.add_argument("--pivot-tokens", help="comma-separated pivot tokens")
    p.add_argument("--levels", help="comma-separated contour levels, descending")
    p.add_argument("--gmm-ks", help="comma-separated candidate component counts")
    p.add_argument("--treebank-paths", help="comma-separated treebank files")
    p.add_argument("--cluster-groups", help="JSON map of group to cluster id")
    p.add_argument("--group-anchors", help="JSON map of group to usage-point row id")
    p.add_argument("--no-dump-grids", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("align-eval", help="score an alignment dump against gold")
    p.add_argument("--alignment", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(fn=_cmd_align_eval)

    p = sub.add_parser("map", help="render one doculect's kriging map as SVG")
    p.add_argument("--embedding", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--iso", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--levels", default="0.35,0.32,0.29")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("classify", help="classify stored area dictionaries")
    p.add_argument("--dictionaries", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("treebank-extract", help="extract constructions from a treebank")
    p.add_argument("--treebank", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_treebank_extract)

    p = sub.add_parser("stats-report", help="lexical-variation report per subset")
    p.add_argument("--constructions", required=True)
    p.add_argument("--lemmas", required=True,
                   help="TSV sentence_id<TAB>token_id<TAB>lemma")
    p.add_argument("--window", type=int, default=40)
    p.add_argument("--normalize-lemmas", action="store_true",
                   help="also report metrics over orthographically merged lemmas")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_stats_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, TreebankError, TypologyError, al.AlignError,
            pv.PivotError, tsv.TsvError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (sf.SurfaceError, mx.MixtureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
