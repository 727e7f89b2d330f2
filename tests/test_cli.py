import argparse
import json
import re

import numpy as np
import pytest

from fixture_treebank import FIXTURE
from synth import build_corpus

from semmap.cli import build_parser, main
from semmap.pipeline import PipelineConfig, _surface_stem
from semmap.surfaces import contains, fit_surface


def write_config(path, **fields) -> str:
    """Write the run config ``fields`` as JSON to ``path``; return the path as a string."""
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_run_without_inputs_is_config_error(capsys):
    assert main(["run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_with_missing_corpus_dir_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "corpus_dir": str(tmp_path / "nope"), "metadata": None,
        "out_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_bad_json_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{broken", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_run_unreadable_config_is_config_error_before_work(tmp_path, capsys, name):
    cfg = tmp_path / name
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err and "Traceback" not in err
    assert not out.exists()


def test_run_takes_only_the_path_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["run"]._actions for s in a.option_strings}
    assert options - {"-h", "--help"} == {"--config", "--corpus-dir", "--metadata", "--out-dir"}


@pytest.mark.parametrize("flags", [
    {"grid": 1}, {"grid": 0}, {"levels": [1.5, 0.29]}, {"levels": [0.35, 0.35, 0.29]},
])
def test_run_bad_grid_or_levels_is_config_error_before_work(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out),
                       dictionary_level=0.29, **flags)
    code = main(["run", "--config", cfg])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--grid", "1"], ["--levels", "0.35,1.0"], ["--levels", "x"],
                                   ["--levels", "0.35,0.35,0.29"]])
def test_map_bad_grid_or_levels_is_config_error(tmp_path, capsys, flags):
    code = main(["map", "--embedding", str(tmp_path / "e.tsv"),
                 "--matrix", str(tmp_path / "m.tsv"),
                 "--iso", "x", "--out", str(tmp_path / "o.svg"), *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_empty_mapped_cluster_is_numerical_failure(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    config = PipelineConfig(
        corpus_dir=str(corpus), metadata=str(corpus / "meta.tsv"),
        out_dir=str(tmp_path / "out"), gmm_ks=(3, 8), grid=40,
        core_k=5, cluster_groups={"TL": 7, "ML": 1, "BL": 2},
    )
    cfg = tmp_path / "c.json"
    cfg.write_text(config.to_json(), encoding="utf-8")
    # cluster 7 exists at K = 8, but K = 8 fails on 30 points and K = 3 is chosen
    assert main(["run", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "cluster 7 is empty" in err


def test_align_eval(tmp_path, capsys):
    dump = tmp_path / "al.tsv"
    dump.write_text("v1\t0\tkai\nv2\t0\tNULL\nv3\t1\tkai\n", encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text("v1\t0\tkai\nv2\t0\tNULL\nv3\t1\tNULL\n", encoding="utf-8")
    assert main(["align-eval", "--alignment", str(dump), "--gold", str(gold)]) == 0
    out = capsys.readouterr().out
    assert "0.6667" in out


def test_align_eval_gold_occurrence_without_alignment_row_is_data_error(tmp_path, capsys):
    dump = tmp_path / "al.tsv"
    dump.write_text("MAT:1:1\t0\tkai\n", encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text("MAT:9:9\t0\tNULL\n", encoding="utf-8")
    assert main(["align-eval", "--alignment", str(dump), "--gold", str(gold)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and "('MAT:9:9', 0)" in captured.err


def test_align_eval_missing_file_is_data_error(tmp_path, capsys):
    assert main(["align-eval", "--alignment", str(tmp_path / "x.tsv"),
                 "--gold", str(tmp_path / "g.tsv")]) == 3


def test_classify_stored_dictionaries(tmp_path, capsys):
    # a Doyayo-shaped dictionary classifies as pattern C
    dicts = tmp_path / "dicts.tsv"
    dicts.write_text(
        "iso\tdictionary\n"
        'dow\t{"TL": ["go"], "ML": ["yo"], "BL": ["yo"]}\n'
        'kar\t{"TL": ["ahut"], "ML": ["ahut"], "BL": ["NULL"]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "cls.tsv"
    assert main(["classify", "--dictionaries", str(dicts), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert rows["dow"][1] == "C"
    assert rows["kar"][1] == "B"
    assert rows["kar"][3] == "BL"


def test_classify_dictionary_that_is_no_object_is_data_error(tmp_path, capsys):
    dicts = tmp_path / "d.tsv"
    dicts.write_text("iso\tdictionary\ndow\t[1, 2]\n", encoding="utf-8")
    out = tmp_path / "cls.tsv"
    assert main(["classify", "--dictionaries", str(dicts), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert "d.tsv:2: dictionary '[1, 2]' is not a JSON object" in err
    assert not out.exists()


def test_classify_writes_every_spelling_of_a_dictionary_in_one_form(tmp_path):
    # key order, a repeated label and a group left out do not change the dictionary
    dicts = tmp_path / "d.tsv"
    dicts.write_text(
        "iso\tdictionary\n"
        'aa\t{"TL": ["go"], "ML": ["yo"], "BL": ["yo"]}\n'
        'bb\t{"BL": ["yo", "yo"], "ML": ["yo"], "TL": ["go"]}\n'
        'cc\t{"TL": ["x", "NULL"]}\n'
        'dd\t{"BL": [], "ML": [], "TL": ["NULL", "x", "x"]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "cls.tsv"
    assert main(["classify", "--dictionaries", str(dicts), "--out", str(out)]) == 0
    rows = [ln.split("\t") for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[0] for r in rows] == ["aa", "bb", "cc", "dd"]
    assert rows[0][1:] == rows[1][1:] and rows[2][1:] == rows[3][1:]
    assert rows[0][4] == '{"BL": ["yo"], "ML": ["yo"], "TL": ["go"]}'
    assert rows[2][4] == '{"BL": [], "ML": [], "TL": ["NULL", "x"]}'


def test_treebank_extract(tmp_path, capsys):
    tb = tmp_path / "fix.tsv"
    tb.write_text(FIXTURE, encoding="utf-8")
    out = tmp_path / "cons.tsv"
    assert main(["treebank-extract", "--treebank", str(tb), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "absolute" in text and "conjunct" in text and "jegda" in text
    kinds = [ln.split("\t")[1] for ln in text.splitlines()[1:]]
    assert kinds.count("absolute") == 4


def test_treebank_extract_to_stdout_leaves_neighbour_file(tmp_path, capsys):
    tb = tmp_path / "fix.tsv"
    tb.write_text(FIXTURE, encoding="utf-8")
    neighbour = tmp_path / "fix.constructions.tsv"
    neighbour.write_text("keep me\n", encoding="utf-8")
    assert main(["treebank-extract", "--treebank", str(tb)]) == 0
    stdout = capsys.readouterr().out
    assert neighbour.read_text(encoding="utf-8") == "keep me\n"
    out = tmp_path / "cons.tsv"
    assert main(["treebank-extract", "--treebank", str(tb), "--out", str(out)]) == 0
    assert stdout == out.read_text(encoding="utf-8")
    assert stdout.startswith("sentence_id\tkind\t")


def test_stats_report(tmp_path, capsys):
    tb = tmp_path / "fix.tsv"
    tb.write_text(FIXTURE, encoding="utf-8")
    cons = tmp_path / "cons.tsv"
    assert main(["treebank-extract", "--treebank", str(tb), "--out", str(cons)]) == 0
    lemmas = tmp_path / "lemmas.tsv"
    lines = []
    import semmap.treebank as tbmod

    for sent in tbmod.parse_treebank(FIXTURE):
        for tid in sent.order:
            lines.append(f"{sent.id}\t{tid}\t{sent.tokens[tid].lemma}")
    lemmas.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "report.tsv"
    assert main(["stats-report", "--constructions", str(cons),
                 "--lemmas", str(lemmas), "--window", "4", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("subset\tn\tmattr\tten_mfl\tnotes")
    assert "conjunct\t" in text and "absolute\t" in text
    out2 = tmp_path / "report_n.tsv"
    assert main(["stats-report", "--constructions", str(cons),
                 "--lemmas", str(lemmas), "--window", "4",
                 "--normalize-lemmas", "--out", str(out2)]) == 0
    assert "conjunct:N\t" in out2.read_text(encoding="utf-8")


def test_treebank_extract_rejects_a_token_numbered_zero(tmp_path, capsys):
    tb = tmp_path / "zero.tsv"
    tb.write_text("# sent_id = z1\n0\tjegda\tjegda\tG\t_\t1\taux\t_\t_\t_\n"
                  "1\tvide\tvideti\tV\t_\t0\tpred\t_\t_\t_\n", encoding="utf-8")
    assert main(["treebank-extract", "--treebank", str(tb)]) == 3
    assert "sentence z1: token id 0 is not a positive integer" in capsys.readouterr().err


def test_out_into_a_new_directory(tmp_path, capsys):
    tb = tmp_path / "fix.tsv"
    tb.write_text(FIXTURE, encoding="utf-8")
    dicts = tmp_path / "dicts.tsv"
    dicts.write_text('iso\tdictionary\naa\t{"TL": ["x"], "ML": ["y"], "BL": ["z"]}\n',
                     encoding="utf-8")
    cons, lemmas = tmp_path / "cons.tsv", tmp_path / "lemmas.tsv"
    cons.write_text(CONSTRUCTIONS, encoding="utf-8")
    lemmas.write_text("S1\t3\tgo\n", encoding="utf-8")
    for argv in (["treebank-extract", "--treebank", str(tb)],
                 ["classify", "--dictionaries", str(dicts)],
                 ["stats-report", "--constructions", str(cons), "--lemmas", str(lemmas)]):
        out = tmp_path / argv[0] / "new" / "out.tsv"
        assert main(argv + ["--out", str(out)]) == 0, argv[0]
        assert capsys.readouterr().out == f"{out}\n"
        assert out.read_text(encoding="utf-8"), argv[0]


def test_stats_report_skips_unlemmatized_triggers_and_notes_a_boundary_tie(tmp_path, capsys):
    # eleven constructions whose triggers have eleven distinct lemmas, so
    # the 11th ties the 10th; a twelfth trigger has no lemma row
    cons = tmp_path / "cons.tsv"
    cons.write_text("sentence_id\tkind\ttrigger_ids\tposition\n" + "".join(
        f"s{i}\tconjunct\t{i},99\tpre\n" for i in range(12)), encoding="utf-8")
    lemmas = tmp_path / "lemmas.tsv"
    lemmas.write_text("".join(f"s{i}\t{i}\tlemma{i:02d}\n" for i in range(11)),
                      encoding="utf-8")
    assert main(["stats-report", "--constructions", str(cons),
                 "--lemmas", str(lemmas), "--window", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "subset\tn\tmattr\tten_mfl\tnotes",
        "conjunct\t11\t1.000000\t0.909091\t10mfl-boundary-tie",
        "conjunct:pre\t11\t1.000000\t0.909091\t10mfl-boundary-tie",
    ]


def null_diluted_fixture(tmp_path):
    """Three labeled blobs in a field of scattered NULL observations.

    The NULL lacing keeps the interpolated probability between blobs
    below every contour level, as NULL-heavy regions do on the real
    maps, so the three 0.29 areas come out bounded and disjoint.
    """
    rng = np.random.default_rng(5)
    centers = [(-4.0, 6.0), (-4.0, 0.0), (-4.0, -6.0)]
    points, labels = [], []
    for c, lab in zip(centers, ["u", "v", "w"]):
        for _ in range(50):
            points.append(rng.normal(c, 0.5, 2))
            labels.append(lab)
    for _ in range(250):
        points.append(rng.uniform(-8, 8, 2))
        labels.append(None)
    points = np.array(points)
    emb = tmp_path / "embedding.tsv"
    with open(emb, "w", encoding="utf-8") as fh:
        for i, p in enumerate(points):
            fh.write(f"r{i:03d}\t{p[0]:.9f}\t{p[1]:.9f}\n")
    mat = tmp_path / "matrix.tsv"
    with open(mat, "w", encoding="utf-8") as fh:
        fh.write("row_id\txyz\n")
        for i, lab in enumerate(labels):
            fh.write(f"r{i:03d}\t{lab if lab is not None else 'NULL'}\n")
    return points, labels, emb, mat


def test_map_subcommand_three_disjoint_families(tmp_path, capsys):
    points, labels, emb, mat = null_diluted_fixture(tmp_path)
    out = tmp_path / "map.svg"
    assert main(["map", "--embedding", str(emb), "--matrix", str(mat),
                 "--iso", "xyz", "--out", str(out), "--grid", "120"]) == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.startswith("<?xml") and "<polygon" in svg
    # structural check: the three lexified 0.29 areas are pairwise disjoint
    norm = [lab if lab is not None else "NULL" for lab in labels]
    areas = {}
    for m in ["u", "v", "w"]:
        surf = fit_surface(points, norm, m, grid=120, levels=(0.29,))
        areas[m] = surf.contours[0.29]
        assert areas[m]
    names = list(areas)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for poly in areas[b]:
                assert not contains(areas[a], poly[:: max(1, len(poly) // 25)]).any(), (a, b)


def polygons_of(svg: str) -> list[str]:
    """The points of every contour polygon of an SVG map, in document order."""
    return [line.split('"')[1] for line in svg.splitlines() if line.startswith("<polygon")]


def test_map_draws_what_run_drew(tmp_path, capsys):
    cases = {
        # non-default kriging settings, grid and levels, which map reads
        # from the config.json beside the embedding
        "run_settings": (11, dict(grid=40, levels=(0.4, 0.29), dictionary_level=0.29,
                                  rho=0.05, nugget_frac=0.2)),
        # pixel coordinates on a rounding boundary, which map redraws only
        # from the embedding's exact coordinates
        "exact_embedding": (4, dict(grid=60, rho=0.05)),
    }
    for name, (seed, settings) in cases.items():
        corpus = tmp_path / name / "corpus"
        _, anchors, _ = build_corpus(corpus, n_verses=90, seed=seed)
        out = tmp_path / name / "out"
        config = PipelineConfig(
            corpus_dir=str(corpus), metadata=str(corpus / "meta.tsv"), out_dir=str(out),
            gmm_ks=(3,), core_k=10, group_anchors=anchors, dump_grids=False, **settings,
        )
        cfg = tmp_path / name / "config.json"
        cfg.write_text(config.to_json(), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 0
        isos = sorted(p.stem for p in (out / "svg").glob("*.svg") if p.stem != "heat")
        assert len(isos) == 18
        drawn = 0
        for iso in isos:
            svg = tmp_path / name / f"{iso}.svg"
            assert main(["map", "--embedding", str(out / "embedding.tsv"), "--matrix",
                         str(out / "matrix.tsv"), "--iso", iso, "--out", str(svg)]) == 0
            want = polygons_of((out / "svg" / f"{iso}.svg").read_text(encoding="utf-8"))
            assert polygons_of(svg.read_text(encoding="utf-8")) == want, (name, iso)
            drawn += len(want)
        assert drawn > 0
    # flags still override the run's grid and levels
    svg = tmp_path / "flags.svg"
    assert main(["map", "--embedding", str(out / "embedding.tsv"),
                 "--matrix", str(out / "matrix.tsv"), "--iso", isos[0], "--out", str(svg),
                 "--grid", "30", "--levels", "0.5"]) == 0
    assert "@ 0.5<" in svg.read_text(encoding="utf-8")


@pytest.mark.parametrize("stored, reason", [
    ("[1, 2]", "is not a JSON object"),
    ({"rho": -1.0}, "rho must be"),
    ({"nugget_frac": "x"}, "nugget_frac must be"),
    ({"levels": 0.29}, "must be a JSON list"),
    ({"grid": 1}, "grid must be"),
], ids=["not_object", "negative_rho", "string_nugget", "scalar_levels", "grid_one"])
def test_map_bad_run_config_is_config_error(tmp_path, capsys, stored, reason):
    _, _, emb, mat = null_diluted_fixture(tmp_path)
    if isinstance(stored, dict):
        # a complete run config with one bad value
        stored = json.dumps({**json.loads(PipelineConfig("corpus", None, "out").to_json()),
                             **stored})
    (tmp_path / "config.json").write_text(stored, encoding="utf-8")
    out = tmp_path / "map.svg"
    assert main(["map", "--embedding", str(emb), "--matrix", str(mat),
                 "--iso", "xyz", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and reason in err and "Traceback" not in err
    assert not out.exists()


def test_map_missing_intermediate_instructs(tmp_path, capsys):
    code = main(["map", "--embedding", str(tmp_path / "e.tsv"),
                 "--matrix", str(tmp_path / "m.tsv"),
                 "--iso", "x", "--out", str(tmp_path / "o.svg")])
    assert code == 3
    assert "run" in capsys.readouterr().err


def test_classify_rerun_is_identical(tmp_path):
    dicts = tmp_path / "dicts.tsv"
    dicts.write_text(
        "iso\tdictionary\n"
        'aa\t{"TL": ["x", "y"], "ML": ["y"], "BL": ["z"]}\n'
        'bb\t{"TL": [], "ML": ["v"], "BL": ["v"]}\n',
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
    assert main(["classify", "--dictionaries", str(dicts), "--out", str(out1)]) == 0
    assert main(["classify", "--dictionaries", str(dicts), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threaded_run_matches_single_thread(tmp_path, monkeypatch):
    for filler, threads in [(0, "4"), (60, "2")]:
        corpus = tmp_path / f"corpus{filler}"
        build_corpus(corpus, n_verses=90, seed=11)
        # pivot-free verses, which EM trains on and linking skips
        for path in sorted(corpus.glob("*.txt")):
            prefix = "" if path.stem == "eng" else path.stem
            with open(path, "a", encoding="utf-8") as fh:
                for i in range(filler):
                    fh.write(f"MAT:2:{i}\t{prefix}w{i % 40:02d} {prefix}w{(7 * i) % 40:02d}\n")
        results = {}
        for name in ("1", threads):
            monkeypatch.setenv("SEMMAP_THREADS", name)
            out = tmp_path / f"out{filler}-{name}"
            config = PipelineConfig(
                corpus_dir=str(corpus), metadata=str(corpus / "meta.tsv"),
                out_dir=str(out), gmm_ks=(3,), grid=60, core_k=10,
                cluster_groups={"TL": 0, "ML": 1, "BL": 2}, dump_grids=False,
            )
            cfg = tmp_path / f"{filler}-{name}.json"
            cfg.write_text(config.to_json(), encoding="utf-8")
            assert main(["run", "--config", str(cfg)]) == 0
            results[name] = {
                ln.split("\t")[1]: ln.split("\t")[0]
                for ln in (out / "manifest.tsv").read_text().splitlines()
                if "\t" in ln and not ln.endswith("config.json")
            }
        assert results["1"] == results[threads], filler


def test_run_bounds_surface_file_names_of_long_means_labels(tmp_path, capsys):
    # 45 syllabics, 3 bytes each in UTF-8, percent-quote to 405 bytes
    long_form = "ᐊᐃᑉᐸᐅᑎᒋᐊᕐᕕᖕᒥᑦᑐᖅ" * 3
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=90, seed=7)
    aaa = corpus / "aaa.txt"
    aaa.write_text(aaa.read_text(encoding="utf-8").replace("akog", long_form), encoding="utf-8")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out), gmm_ks=[3],
                       grid=20, core_k=10, group_anchors=anchors, dump_grids=True)
    code = main(["run", "--config", cfg])
    assert code == 0, capsys.readouterr().err
    paths = [ln.split("\t")[1] for ln in (out / "manifest.tsv").read_text(
        encoding="utf-8").splitlines() if not ln.startswith("#")]
    assert all(len(part.encode("utf-8")) <= 255 for path in paths for part in path.split("/"))
    stem = _surface_stem("aaa", long_form)
    assert f"surfaces/{stem}.grid.tsv" in paths and f"surfaces/{stem}.contours.tsv" in paths
    # a name that fits is the quoted label as before
    assert "surfaces/bbb_NULL.contours.tsv" in paths


def test_long_means_labels_sharing_a_prefix_get_distinct_file_names():
    a, b = "\u1403" * 100 + "a", "\u1403" * 100 + "b"
    stems = {_surface_stem("aaa", a), _surface_stem("aaa", b)}
    assert len(stems) == 2
    for stem in stems:
        assert len((stem + ".contours.tsv.tmp").encode("utf-8")) == 255 and "~" in stem
    assert _surface_stem("aaa", "y\u00f6") == "aaa_y%C3%B6"


def test_run_target_verse_without_tokens_aligns_to_null(tmp_path, capsys):
    # a punctuation-only target verse opposite a pivot verse whose extra
    # type occurs nowhere else: that type co-occurs with no target token
    corpus = tmp_path / "corpus"
    _, anchors, positions = build_corpus(corpus, n_verses=30, seed=3)
    eng = corpus / "eng.txt"
    eng.write_text(eng.read_text(encoding="utf-8").replace(
        "MAT:1:0\t", "MAT:1:0\tzzonly ", 1), encoding="utf-8")
    aaa = corpus / "aaa.txt"
    lines = aaa.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("MAT:1:0\t")
    aaa.write_text("MAT:1:0\t\u2014\n" + "".join(lines[1:]), encoding="utf-8")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out), gmm_ks=[3],
                       grid=20, core_k=5, group_anchors=anchors)
    code = main(["run", "--config", cfg])
    assert code == 0, capsys.readouterr().err
    rows = (out / "alignments" / "aaa.tsv").read_text(encoding="utf-8").splitlines()
    assert f"MAT:1:0\t{positions['MAT:1:0'] + 1}\tNULL" in rows


def test_grid_dumps_only_when_the_config_asks(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=30, seed=3)
    fields = dict(corpus_dir=str(corpus), metadata=str(corpus / "meta.tsv"), gmm_ks=[3],
                  grid=20, core_k=5, group_anchors=anchors)
    for name, dump in [("default", {}), ("dump", {"dump_grids": True})]:
        out = tmp_path / name
        cfg = write_config(tmp_path / f"{name}.json", out_dir=str(out), **fields, **dump)
        assert main(["run", "--config", cfg]) == 0, capsys.readouterr().err
        surfaces = {kind: sorted(p.name.removesuffix(f".{kind}.tsv")
                                 for p in (out / "surfaces").glob(f"*.{kind}.tsv"))
                    for kind in ("grid", "contours")}
        assert surfaces["contours"]
        # one grid per surface, beside its contours, only with "dump_grids": true
        assert surfaces["grid"] == (surfaces["contours"] if dump else []), name


@pytest.mark.parametrize("field, value", [
    ("levels", 0.29), ("gmm_ks", 3), ("pivot_tokens", "when"),
])
def test_run_config_scalar_for_list_is_config_error(tmp_path, capsys, field, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "corpus_dir": str(tmp_path), "metadata": None,
        "out_dir": str(tmp_path / "out"), field: value,
    }), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{field} must be a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("gmm_ks", []), ("gmm_ks", [3, 0]), ("iterations", 0), ("min_count", 0), ("core_k", 0),
    ("rho", -1.0), ("rho", 0.0), ("rho", float("nan")), ("nugget_frac", -0.1),
    # keys older configs carried
    ("seed", 13), ("mds_dims", 2), ("covariance", "exponential"),
    ("treebank_paths", []), ("edit_rules", None),
    ("alpha", "0.01"), ("alpha", -1), ("alpha", 1.0), ("alpha", float("inf")),
    ("gmm_seed", "x"), ("gmm_seed", 2.5), ("gmm_seed", -1),
    ("dump_grids", "false"), ("dump_grids", 0), ("metadata", 5),
    ("cluster_groups", {"TL": "x", "ML": 2, "BL": 4}),
    ("cluster_groups", {"TL": 99, "ML": 2, "BL": 4}),
    ("cluster_groups", {"TL": -1, "ML": 2, "BL": 4}),
    ("cluster_groups", {"TL": True, "ML": 2, "BL": 4}),
    ("cluster_groups", ["TL", "ML", "BL"]), ("group_anchors", ["TL", "ML", "BL"]),
    ("corpus_dir", 5), ("out_dir", 5),
    # more core points than the 30 pivot occurrences
    ("core_k", 1000),
    ("gmm_ks", ["x"]), ("gmm_ks", [3, 4.5]),
    # K = 1 has no silhouette, and more than a third of the 30 pivot
    # occurrences is too many for any K
    ("gmm_ks", [1, 3]), ("gmm_ks", [3, 11]), ("gmm_ks", [11]),
    ("pivot_iso", ["eng"]), ("pivot_tokens", [["when"]]),
    ("group_anchors", {"TL": ["x"], "ML": "a", "BL": "b"}),
    # pivot tokens are matched after normalization, which lowercases and
    # strips punctuation at token edges
    ("pivot_tokens", ["When"]), ("pivot_tokens", [1]),
    ("pivot_iso", 5), ("pivot_tokens", ["when,"]),
    ("metadata", "no-such-meta.tsv"), ("dictionary_level", 0.3), ("pivot_tokens", []),
    ("cluster_groups", {"TL": 0, "ML": 1}),
    ("gmm_ks", [3, 3]), ("pivot_tokens", ["when", "when"]),
])
def test_run_config_out_of_range_is_config_error_before_work(tmp_path, capsys, field, value):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    cfg = tmp_path / "c.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({
        "corpus_dir": str(corpus), "metadata": str(corpus / "meta.tsv"),
        "out_dir": str(out), field: value,
    }), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("rho", True), ("nugget_frac", True), ("core_k", True), ("iterations", True),
    ("min_count", True), ("gmm_seed", True), ("gmm_seed", False), ("gmm_ks", [3, True]),
])
def test_run_config_boolean_for_number_is_config_error_before_work(tmp_path, capsys,
                                                                   field, value):
    # JSON true and false are no numbers, though Python's bool is an int
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    cfg = tmp_path / "c.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({
        "corpus_dir": str(corpus), "metadata": str(corpus / "meta.tsv"),
        "out_dir": str(out), "gmm_ks": [3], "grid": 20, "core_k": 5,
        "cluster_groups": {"TL": 0, "ML": 1, "BL": 2}, field: value,
    }), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not out.exists()


def test_run_pivot_token_absent_from_pivot_is_data_error_before_work(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out),
                       pivot_tokens=["xyzzy"])
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "never occur in eng" in err and "Traceback" not in err
    assert not out.exists()


def test_run_group_anchor_naming_no_row_is_config_error_before_work(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out), gmm_ks=[3],
                       grid=20, core_k=5, group_anchors={**anchors, "TL": "MAT:9:99#0"})
    code = main(["run", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'MAT:9:99#0' is not a row id" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("ks", [[1], [2]])
def test_run_with_fewer_ks_than_groups_is_config_error_before_work(tmp_path, capsys, ks):
    # anchors name their clusters only once the mixture is fitted, but no K
    # below 3 can give the three groups a cluster each
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out), gmm_ks=ks,
                       grid=20, core_k=5, group_anchors=anchors)
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "gmm_ks" in err and "Traceback" not in err
    assert not out.exists()


def test_run_groups_sharing_a_cluster_is_config_error_before_work(tmp_path, capsys):
    # TL and ML would get identical areas in every doculect
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out), gmm_ks=[3],
                       grid=20, core_k=5, cluster_groups={"TL": 0, "ML": 0, "BL": 1})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: cluster_groups: groups TL and ML share cluster 0" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_group_anchors_in_one_cluster_is_config_error_before_core_points(tmp_path,
                                                                             capsys):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out), gmm_ks=[3],
                       grid=20, core_k=5, group_anchors={**anchors, "ML": anchors["TL"]})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert re.search(r"config error: group_anchors: groups TL and ML share cluster \d", err)
    assert "Traceback" not in err
    # the clusters are known only once the mixture is fitted
    assert (out / "gmm_assignments.tsv").exists()
    assert not (out / "core_points.tsv").exists()


def test_run_target_sharing_no_verse_with_pivot_is_data_error_before_work(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=30, seed=3)
    (corpus / "zzz.txt").write_text("LUK:9:1\tzzword\n", encoding="utf-8")
    with open(corpus / "meta.tsv", "a", encoding="utf-8") as meta:
        meta.write("zzz\tSynthetic zzz\tPlanted\tNowhere\t2000\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", corpus_dir=str(corpus),
                       metadata=str(corpus / "meta.tsv"), out_dir=str(out), gmm_ks=[3],
                       grid=20, core_k=5, group_anchors=anchors)
    code = main(["run", "--config", cfg])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and "zzz" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["two", "0", "-1"])
def test_run_bad_thread_count_is_config_error_before_work(tmp_path, capsys, monkeypatch,
                                                          threads):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    monkeypatch.setenv("SEMMAP_THREADS", threads)
    assert main(["run", "--corpus-dir", str(corpus), "--metadata", str(corpus / "meta.tsv"),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "SEMMAP_THREADS" in err and "Traceback" not in err
    assert not out.exists()


def test_map_unknown_iso_is_data_error(tmp_path, capsys):
    _, _, emb, mat = null_diluted_fixture(tmp_path)
    out = tmp_path / "map.svg"
    assert main(["map", "--embedding", str(emb), "--matrix", str(mat),
                 "--iso", "zzz", "--out", str(out), "--grid", "20"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "'zzz'" in err
    assert not out.exists()


def test_map_embedding_of_other_rows_is_data_error(tmp_path, capsys):
    _, _, emb, mat = null_diluted_fixture(tmp_path)
    lines = emb.read_text(encoding="utf-8").splitlines(keepends=True)
    emb.write_text("".join(lines[:20]), encoding="utf-8")
    out = tmp_path / "map.svg"
    assert main(["map", "--embedding", str(emb), "--matrix", str(mat),
                 "--iso", "xyz", "--out", str(out), "--grid", "20"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "row ids" in err and "(20 rows)" in err
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [
    ("".join(f"r{i}\t{0.1 * i}\n" for i in range(6)), "at least two coordinate columns"),
    ("".join(f"r{i}\t{0.1 * i}\t{'nan' if i == 4 else 1.0 - 0.1 * i}\n" for i in range(6)),
     "row 'r4' has a non-finite coordinate"),
    ("", "empty embedding file"),
], ids=["one_column", "nan_coordinate", "empty"])
def test_map_bad_embedding_is_data_error(tmp_path, capsys, text, reason):
    emb = tmp_path / "embedding.tsv"
    emb.write_text(text, encoding="utf-8")
    mat = tmp_path / "matrix.tsv"
    mat.write_text("row_id\txyz\n" + "".join(f"r{i}\t{'uv'[i % 2]}\n" for i in range(6)),
                   encoding="utf-8")
    out = tmp_path / "map.svg"
    assert main(["map", "--embedding", str(emb), "--matrix", str(mat),
                 "--iso", "xyz", "--out", str(out), "--grid", "20"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and reason in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [
    ("".join(f"r{i}\t{'uv'[i % 2]}\n" for i in range(6)), "the first row must name"),
    ("row_id\txyz\txyz\n" + "".join(f"r{i}\t{'uv'[i % 2]}\tu\n" for i in range(6)),
     "duplicate doculect columns"),
    ("", "empty matrix file"),
], ids=["no_header_row", "repeated_column", "empty"])
def test_map_malformed_matrix_is_data_error(tmp_path, capsys, text, reason):
    emb = tmp_path / "embedding.tsv"
    emb.write_text("".join(f"r{i}\t{0.1 * i}\t{(0.3 * i) % 1.0}\n" for i in range(6)),
                   encoding="utf-8")
    mat = tmp_path / "matrix.tsv"
    mat.write_text(text, encoding="utf-8")
    out = tmp_path / "map.svg"
    assert main(["map", "--embedding", str(emb), "--matrix", str(mat),
                 "--iso", "xyz", "--out", str(out), "--grid", "20"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(mat) in err and reason in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("coords, reason", [
    ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], "at least 5"),
    ([(0.5, 0.5)] * 6, "coincide"),
], ids=["four_rows", "coincident_rows"])
def test_map_without_a_kriging_system_is_numerical_failure(tmp_path, capsys, coords, reason):
    emb = tmp_path / "embedding.tsv"
    emb.write_text("".join(f"r{i}\t{x}\t{y}\n" for i, (x, y) in enumerate(coords)),
                   encoding="utf-8")
    mat = tmp_path / "matrix.tsv"
    mat.write_text("row_id\txyz\n" + "".join(f"r{i}\t{'uv'[i % 2]}\n" for i in range(len(coords))),
                   encoding="utf-8")
    out = tmp_path / "map.svg"
    assert main(["map", "--embedding", str(emb), "--matrix", str(mat),
                 "--iso", "xyz", "--out", str(out), "--grid", "20"]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and reason in err and "Traceback" not in err
    assert not out.exists()

CONSTRUCTIONS = "sentence_id\tkind\ttrigger_ids\tposition\nS1\tconjunct\t3\tpre\n"

# stored files whose rows are malformed, the command reading them, and
# where the error must point; "@name" stands for the file's path
MALFORMED = {
    "gold_two_fields": (
        {"al.tsv": "v1\t0\tkai\n", "gold.tsv": "# gold\nv1\t0\n"},
        ["align-eval", "--alignment", "@al.tsv", "--gold", "@gold.tsv"], "gold.tsv:2"),
    "pivot_index_not_integer": (
        {"al.tsv": "v1\t0\tkai\nv2\tone\tkai\n", "gold.tsv": "v1\t0\tkai\n"},
        ["align-eval", "--alignment", "@al.tsv", "--gold", "@gold.tsv"], "al.tsv:2"),
    "dictionary_bad_json": (
        {"d.tsv": 'iso\tdictionary\naa\t{"TL": ["x"]\n'},
        ["classify", "--dictionaries", "@d.tsv"], "d.tsv:2"),
    "dictionary_one_field": (
        {"d.tsv": 'iso\tdictionary\naa\t{"TL": ["x"]}\nbb\n'},
        ["classify", "--dictionaries", "@d.tsv"], "d.tsv:3"),
    "dictionary_string_for_list": (
        {"d.tsv": 'iso\tdictionary\naa\t{"TL": "kogda", "ML": ["kogda"], "BL": ["kogda"]}\n'},
        ["classify", "--dictionaries", "@d.tsv"], "d.tsv:2"),
    "dictionary_unknown_group": (
        {"d.tsv": 'iso\tdictionary\naa\t{"TL": ["x"]}\nbb\t{"TL": ["x"], "BX": ["x"]}\n'},
        ["classify", "--dictionaries", "@d.tsv"], "d.tsv:3"),
    "dictionary_label_not_string": (
        {"d.tsv": 'iso\tdictionary\naa\t{"TL": ["x"], "ML": [1], "BL": ["x"]}\n'},
        ["classify", "--dictionaries", "@d.tsv"], "d.tsv:2"),
    "embedding_not_float": (
        {"e.tsv": "r0\t1.0\t2.0\nr1\t1.5\tx\n", "m.tsv": "row_id\txyz\nr0\ta\nr1\tb\n"},
        ["map", "--embedding", "@e.tsv", "--matrix", "@m.tsv", "--iso", "xyz",
         "--out", "@o.svg"], "e.tsv:2"),
    "lemmas_two_fields": (
        {"c.tsv": CONSTRUCTIONS, "l.tsv": "S1\t3\tgo\nS1\t4\n"},
        ["stats-report", "--constructions", "@c.tsv", "--lemmas", "@l.tsv"], "l.tsv:2"),
    "constructions_without_trigger_ids": (
        {"c.tsv": "sentence_id\tkind\nS1\tconjunct\n", "l.tsv": "S1\t3\tgo\n"},
        ["stats-report", "--constructions", "@c.tsv", "--lemmas", "@l.tsv"], "c.tsv"),
}


# keyed stored files that give one key twice, the command reading them, and
# the line and key the error must name; "@name" stands for the file's path
GIVEN_TWICE = {
    "gold_occurrence": (
        {"al.tsv": "MAT:1:1\t0\tkai\n", "gold.tsv": "MAT:1:1\t0\tkai\nMAT:1:1\t0\tNULL\n"},
        ["align-eval", "--alignment", "@al.tsv", "--gold", "@gold.tsv"],
        "gold.tsv:2", "('MAT:1:1', 0)"),
    "alignment_occurrence": (
        {"al.tsv": "v1\t0\tkai\nv2\t1\tgo\nv1\t0\tNULL\n", "gold.tsv": "v1\t0\tkai\n"},
        ["align-eval", "--alignment", "@al.tsv", "--gold", "@gold.tsv"],
        "al.tsv:3", "('v1', 0)"),
    "lemma_token": (
        {"c.tsv": CONSTRUCTIONS, "l.tsv": "s1\t3\tgo\ns1\t4\tsee\ns1\t3\tcome\n"},
        ["stats-report", "--constructions", "@c.tsv", "--lemmas", "@l.tsv"],
        "l.tsv:3", "('s1', '3')"),
    "dictionary_group": (
        {"d.tsv": 'iso\tdictionary\n'
                  'aa\t{"TL": ["go"], "TL": ["yo"], "ML": ["yo"], "BL": ["yo"]}\n'},
        ["classify", "--dictionaries", "@d.tsv"], "d.tsv:2", "'TL'"),
}


@pytest.mark.parametrize("files, argv, where, key", GIVEN_TWICE.values(),
                         ids=GIVEN_TWICE.keys())
def test_stored_key_given_twice_is_data_error(tmp_path, capsys, files, argv, where, key):
    for fname, text in files.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert f"{tmp_path / where}: the key {key} is given twice" in err


@pytest.mark.parametrize("files, argv, where", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_stored_file_is_data_error(tmp_path, capsys, files, argv, where):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{where}: " in err
    assert "Traceback" not in err


# (file name, bytes, the message fragment naming where the input is bad)
BAD_TREEBANKS = {
    "two_cycle": ("cyc.tsv", "# sent_id = c1\n1\tw\tw\tV\t_\t0\tpred\t_\t_\t_\n"
                  "2\ti\ti\tC\t_\t3\taux\t_\t_\t_\n3\ti\ti\tC\t_\t2\taux\t_\t_\t_\n",
                  "sentence c1: the head chain of token 2 "),
    "self_head": ("self.tsv", "# sent_id = c2\n1\tw\tw\tV\t_\t1\tpred\t_\t_\t_\n",
                  "sentence c2: the head chain of token 1 "),
    "slash_without_target": (
        "x.xml", '<source><sentence id="x1"><token id="1" form="w" part-of-speech="V">'
        '<slash relation="xsub"/></token></sentence></source>', "sentence x1: bad token '1': "),
    "slash_target_not_integer": (
        "x.xml", '<source><sentence id="x2"><token id="1" form="w" part-of-speech="V">'
        '<slash target-id="one" relation="xsub"/></token></sentence></source>',
        "sentence x2: bad token '1': "),
    "not_utf8": ("latin.tsv", b"1\tcaf\xe9\tcaf\xe9\tN\t_\t0\tpred\t_\t_\t_\n",
                 "latin.tsv: not UTF-8 text"),
    "bad_morph_feature": ("morph.tsv", "1\tw\tw\tV\tcase\t0\tpred\t_\t_\t_\n",
                          "line 1: bad morph feature 'case'"),
    "bad_slash": ("slash.tsv", "1\tw\tw\tV\t_\t0\tpred\t2\t_\t_\n", "line 1: bad slash '2'"),
    "duplicate_token_ids": ("dup.tsv", "# sent_id = d1\n1\tw\tw\tV\t_\t0\tpred\t_\t_\t_\n"
                            "1\tv\tv\tV\t_\t0\tpred\t_\t_\t_\n",
                            "sentence d1: duplicate token ids"),
    "nine_columns": ("nine.tsv", "1\tw\tw\tV\t_\t0\tpred\t_\t_\n",
                     "line 1: expected 10 columns, got 9"),
    "malformed_xml": ("bad.xml", '<source><sentence id="m1"></source>',
                      "malformed XML: mismatched tag"),
}


@pytest.mark.parametrize("name, content, where", BAD_TREEBANKS.values(),
                         ids=BAD_TREEBANKS.keys())
def test_treebank_extract_bad_input_is_data_error(tmp_path, capsys, name, content, where):
    tb = tmp_path / name
    if isinstance(content, bytes):
        tb.write_bytes(content)
    else:
        tb.write_text(content, encoding="utf-8")
    assert main(["treebank-extract", "--treebank", str(tb)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and where in err and f"{tb}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["fra.txt", "meta.tsv"])
def test_run_non_utf8_corpus_file_is_data_error(tmp_path, capsys, name):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    if name == "meta.tsv":
        with open(corpus / name, "ab") as fh:
            fh.write(b"fra\tfran\xe7ais\tIndo-European\tEurasia\t1910\n")
    else:
        (corpus / name).write_bytes(b"MAT:1:1\tla caf\xe9\n")
    out = tmp_path / "out"
    code = main(["run", "--corpus-dir", str(corpus), "--metadata", str(corpus / "meta.tsv"),
                 "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{name}: not UTF-8 text" in err
    # nothing is written before the corpus has loaded
    assert not out.exists()


@pytest.mark.parametrize("data, reason", [
    (b'{"corpus_dir": ".", "metadata": null, "out_dir": "o\xff"}', "not UTF-8 text"),
    (b'{"corpus_dir": ".", "metadata": null, "out_dir": "o", "grid": 7, "grid": 40}',
     "the key 'grid' is given twice"),
], ids=["not_utf8", "key_given_twice"])
@pytest.mark.parametrize("command", ["run", "map"])
def test_unreadable_stored_config_is_config_error(tmp_path, capsys, command, data, reason):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(path), "--out-dir", str(out)]
    else:
        # map reads the config beside --embedding before any input
        argv = ["map", "--embedding", str(tmp_path / "embedding.tsv"), "--matrix",
                str(tmp_path / "matrix.tsv"), "--iso", "aaa", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: {reason}") and "Traceback" not in err
    assert not out.exists()


def test_run_iso_too_long_for_a_file_name_is_data_error_before_work(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    # a legal 252-byte corpus file name, but alignments/<iso>.tsv.tmp takes 256
    long_name = corpus / f"{'q' * 248}.txt"
    (corpus / "aaa.txt").rename(long_name)
    out = tmp_path / "out"
    code = main(["run", "--corpus-dir", str(corpus), "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {long_name}: ") and "longer than 255 bytes" in err
    assert not out.exists()


@pytest.mark.parametrize("name, line", [
    ("fra.txt", "MAT:1:1 la fin"),
    ("meta.tsv", "fra\tfrançais\tIndo-European"),
    ("meta.tsv", "fra\tfrançais\tIndo-European\tEurasia\t1910s"),
    (None, None),
    ("meta.tsv", "eng\tEnglish\tIndo-European\tEurasia\t1950"),
], ids=["verse_without_tab", "three_column_metadata", "year_not_integer", "no_txt_file",
        "metadata_key_given_twice"])
def test_run_malformed_corpus_is_data_error(tmp_path, capsys, name, line):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    if name is None:
        for path in corpus.glob("*.txt"):
            path.unlink()
        where = f"no .txt corpus files under {corpus}"
    else:
        with open(corpus / name, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        # the appended row is the file's last line
        ln = len((corpus / name).read_text(encoding="utf-8").splitlines())
        where = f"{corpus / name}:{ln}: "
    out = tmp_path / "out"
    code = main(["run", "--corpus-dir", str(corpus), "--metadata", str(corpus / "meta.tsv"),
                 "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and where in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # a config that cannot be read is a config error; run reads data from
    # the corpus files, one of them here a directory
    ["run", "--corpus-dir", "{d}", "--out-dir", "{d}/out"],
    ["map", "--embedding", "{d}", "--matrix", "{d}", "--iso", "eng", "--out", "{d}/m.svg"],
    ["treebank-extract", "--treebank", "{d}"],
    ["align-eval", "--alignment", "{d}", "--gold", "{d}"],
    ["classify", "--dictionaries", "{d}"],
    ["stats-report", "--constructions", "{d}", "--lemmas", "{d}"],
], ids=lambda argv: argv[0])
def test_directory_given_as_input_file_is_data_error(tmp_path, capsys, argv):
    d = tmp_path / "dir"
    (d / "eng.txt").mkdir(parents=True)
    assert main([a.format(d=d) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(d) in err
    assert "Traceback" not in err


def test_stats_report_bad_window_is_config_error_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.tsv")
    for window in ("0", "-3"):
        assert main(["stats-report", "--constructions", missing, "--lemmas", missing,
                     "--window", window]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--window" in err


def test_stats_report_metric_error_is_data_error(tmp_path, capsys, monkeypatch):
    import semmap.corpstats as cs

    def fail(series, window):
        raise cs.CorpStatsError("empty lemma series")

    monkeypatch.setattr(cs, "mattr", fail)
    cons = tmp_path / "c.tsv"
    cons.write_text(CONSTRUCTIONS, encoding="utf-8")
    lemmas = tmp_path / "l.tsv"
    lemmas.write_text("S1\t3\tgo\n", encoding="utf-8")
    assert main(["stats-report", "--constructions", str(cons), "--lemmas", str(lemmas)]) == 3
    err = capsys.readouterr().err
    assert err == "data error: empty lemma series\n"
