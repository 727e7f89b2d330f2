"""Command-line interface.

``semmap run`` executes the whole pipeline from a JSON config; its flags
say only where data lives and override the config's paths. The
subcommands run single stages over stored intermediates. Exit codes:
0 ok, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
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
from .pipeline import (ConfigError, PipelineConfig, check_grid_levels, check_kriging,
                       read_config, run)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _levels(text: str) -> tuple[float, ...]:
    """A comma-separated ``--levels`` value."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --levels {text!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write a command's output to ``out`` and print its name, or write it to stdout."""
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
        print(out)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    # every analysis setting comes from the config file, or is PipelineConfig's default
    if args.config:
        config = read_config(args.config)
    elif args.corpus_dir and args.out_dir:
        config = PipelineConfig(args.corpus_dir, None, args.out_dir)
    else:
        raise ConfigError("either --config or --corpus-dir/--out-dir are required")
    for name in ("corpus_dir", "metadata", "out_dir"):
        if getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
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


def _map_settings(args) -> dict:
    """Grid, levels, rho and nugget_frac for ``map``.

    They come from the config.json beside ``--embedding`` (the run's),
    read by ``run``'s rules, or are PipelineConfig's defaults where there
    is none; ``--grid`` and ``--levels`` override.
    """
    path = Path(args.embedding).with_name("config.json")
    if path.is_file():
        config = read_config(path)
    else:
        # map reads no corpus and writes no run, so the paths stay empty
        config = PipelineConfig("", None, "")
    grid = config.grid if args.grid is None else args.grid
    levels = config.levels if args.levels is None else _levels(args.levels)
    check_grid_levels(grid, levels)
    check_kriging(config.rho, config.nugget_frac)
    return {"grid": grid, "levels": levels, "rho": config.rho,
            "nugget_frac": config.nugget_frac}


def _cmd_map(args) -> int:
    settings = _map_settings(args)
    emb = pv.EmbeddedMap.from_tsv(_require(args.embedding, "run"))
    matrix = pv.ParallelUsageMatrix.from_tsv(_require(args.matrix, "run"))
    if emb.row_ids != matrix.row_ids:
        raise pv.PivotError(
            f"the row ids of {args.embedding} ({len(emb.row_ids)} rows) differ from "
            f"those of {args.matrix} ({len(matrix.row_ids)} rows); "
            "use the embedding and matrix of one `semmap run`")
    points = emb.coords[:, :2]
    surfs = sf.fit_surfaces(points, {args.iso: matrix.coded(args.iso)}, **settings)[args.iso]
    svg_text = svgmod.render_map(points, matrix.coded(args.iso),
                                 {m: s.contours for m, s in surfs.items()}, title=args.iso)
    _emit(svg_text, args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    rows = tsv.read_rows(_require(args.dictionaries, "run"), str, ty.AreaDictionary.from_json,
                         header=("iso", "dictionary"))
    _emit(ty.classification_to_tsv(rows), args.out)
    return EXIT_OK


def _cmd_treebank_extract(args) -> int:
    sentences = tb.parse_treebank(Path(args.treebank))
    _emit(tb.constructions_to_tsv(tb.extract_all(sentences)), args.out)
    return EXIT_OK


def _cmd_stats_report(args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be at least 1, got {args.window}")
    table = tsv.read_rows(_require(args.constructions, "treebank-extract"), rest=str)
    if table and not {"sentence_id", "kind", "trigger_ids", "position"} <= set(table[0]):
        raise tsv.TsvError(f"{args.constructions}: the columns sentence_id, kind, "
                           "trigger_ids and position are required")
    rows = [dict(zip(table[0], r)) for r in table[1:]]
    lemmas = {(sid, tid): lemma for sid, tid, lemma in
              tsv.read_rows(_require(args.lemmas, "treebank-extract"), str, str, str, key=2)}

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
    p.add_argument("--config", help="JSON pipeline config: every analysis setting")
    p.add_argument("--corpus-dir", help="corpus directory (overrides the config's)")
    p.add_argument("--metadata", help="metadata TSV (overrides the config's)")
    p.add_argument("--out-dir", help="output directory (overrides the config's)")
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
    p.add_argument("--grid", type=int,
                   help="kriging grid size (default: the run's, beside --embedding, else 200)")
    p.add_argument("--levels", help="comma-separated contour levels (default: the run's, "
                   f"beside --embedding, else {','.join(map(str, sf.DEFAULT_LEVELS))})")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, tb.TreebankError, ty.TypologyError, al.AlignError,
            pv.PivotError, tsv.TsvError, cs.CorpStatsError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (sf.SurfaceError, mx.MixtureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
