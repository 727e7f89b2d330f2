import json

import numpy as np
import pytest

from fixture_treebank import FIXTURE
from synth import build_corpus

from semmap.cli import main
from semmap.pipeline import PipelineConfig
from semmap.surfaces import contains, fit_surface


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


@pytest.mark.parametrize("flags", [
    ["--grid", "1"], ["--grid", "0"], ["--levels", "1.5,0.29"],
])
def test_run_bad_grid_or_levels_is_config_error_before_work(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus"
    build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    code = main(["run", "--corpus-dir", str(corpus), "--metadata", str(corpus / "meta.tsv"),
                 "--out-dir", str(out), "--dictionary-level", "0.29", *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--grid", "1"], ["--levels", "0.35,1.0"], ["--levels", "x"]])
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
                for vertex in poly[:: max(1, len(poly) // 25)]:
                    assert not contains(areas[a], vertex), (a, b)


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
    code = main(["run", "--corpus-dir", str(corpus), "--metadata", str(corpus / "meta.tsv"),
                 "--out-dir", str(out), "--gmm-ks", "3", "--grid", "20", "--core-k", "5",
                 "--group-anchors", json.dumps(anchors), "--no-dump-grids"])
    assert code == 0, capsys.readouterr().err
    rows = (out / "alignments" / "aaa.tsv").read_text(encoding="utf-8").splitlines()
    assert f"MAT:1:0\t{positions['MAT:1:0'] + 1}\tNULL" in rows


@pytest.mark.parametrize("flags", [["--gmm-ks", "x"], ["--gmm-ks", "3,4.5"]])
def test_run_unparsable_list_flag_is_config_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    code = main(["run", "--corpus-dir", str(tmp_path), "--out-dir", str(out), *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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


def test_run_group_anchor_naming_no_row_is_config_error_before_work(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=30, seed=3)
    out = tmp_path / "out"
    code = main(["run", "--corpus-dir", str(corpus), "--metadata", str(corpus / "meta.tsv"),
                 "--out-dir", str(out), "--gmm-ks", "3", "--grid", "20", "--core-k", "5",
                 "--group-anchors", json.dumps({**anchors, "TL": "MAT:9:99#0"})])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'MAT:9:99#0' is not a row id" in err
    assert "Traceback" not in err
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
], ids=["one_column", "nan_coordinate"])
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
    assert err.startswith("data error: ") and where in err
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
