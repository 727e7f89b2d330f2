import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from synth import (
    EXPECTED_NULL_FLAGS,
    EXPECTED_PATTERNS,
    EXPECTED_SUBPATTERNS,
    GROUP_OF_VERSE,
    SCHEMES,
    all_schemes,
    build_corpus,
    verse_group,
)

from semmap import align as al
from semmap.align import NULL_MARKER
from semmap.cli import main
from semmap.pipeline import ConfigError, PipelineConfig
from semmap.pivot import EmbeddedMap, ParallelUsageMatrix
from semmap.surfaces import contains


def read_tsv(path):
    rows = []
    header = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if header is None:
            header = parts
            continue
        rows.append(dict(zip(header, parts)))
    return rows


def test_manifest_lists_artifacts_with_correct_hashes(synth_run):
    out = synth_run["out"]
    lines = [
        ln for ln in synth_run["manifest"].read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert len(lines) > 20
    for ln in lines:
        digest, rel = ln.split("\t")
        data = (out / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, rel


def test_every_artifact_carries_config_hash_header(synth_run):
    out = synth_run["out"]
    config_hash = synth_run["config"].config_hash()
    want = f"# semmap config={config_hash}"
    manifest = synth_run["manifest"].read_text(encoding="utf-8").splitlines()
    assert manifest[0] == want
    rels = [ln.split("\t")[1] for ln in manifest[1:]]
    assert {Path(rel).suffix for rel in rels} == {".tsv", ".svg", ".json"}
    for rel in rels:
        text = (out / rel).read_text(encoding="utf-8")
        if rel.endswith(".tsv"):
            lines = text.splitlines()
            assert lines[0] == want and lines.count(want) == 1, rel
        elif rel.endswith(".svg"):
            assert config_hash in text, rel
        else:
            assert rel == "config.json" and "# semmap" not in text, rel


def test_one_svg_per_doculect_plus_heat(synth_run):
    svgs = sorted(p.name for p in (synth_run["out"] / "svg").glob("*.svg"))
    want = sorted([f"{iso}.svg" for iso in list(all_schemes()) + ["eng"]] + ["heat.svg"])
    assert svgs == want


def test_synthetic_corpus_takes_the_148_doculect_shape(tmp_path):
    # the eight planted schemes, 100 backbone and 40 noise doculects
    build_corpus(tmp_path, n_verses=60, seed=3, n_backbone=100, n_noise=40)
    files = {p.name for p in tmp_path.glob("*.txt")}
    assert len(files) == 149 and "eng.txt" in files
    assert len((tmp_path / "meta.tsv").read_text(encoding="utf-8").splitlines()) == 149
    for iso in EXPECTED_PATTERNS:
        realized = {g: set() for g in GROUP_OF_VERSE}
        lines = (tmp_path / f"{iso}.txt").read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            # content words translate to the doculect's w-prefixed forms
            means = [w for w in line.split("\t")[1].split() if not w.startswith(f"{iso}w")]
            assert len(means) <= 1, line
            realized[verse_group(i, 60)].update(means or [None])
        assert realized == {g: set(SCHEMES[iso][g]) for g in GROUP_OF_VERSE}, iso


def test_every_svg_is_well_formed_xml(synth_run):
    ns = "{http://www.w3.org/2000/svg}"
    n_points = len(EmbeddedMap.from_tsv(synth_run["out"] / "embedding.tsv").row_ids)
    paths = sorted((synth_run["out"] / "svg").glob("*.svg"))
    assert paths
    for path in paths:
        root = ET.fromstring(path.read_bytes())
        assert root.tag == f"{ns}svg", path.name
        assert len(root.findall(f"{ns}circle")) == n_points, path.name
        title = root.find(f"{ns}text").text
        if path.stem == "heat":
            assert title == "null-construction concentration"
        else:
            assert title.startswith(f"{path.stem} ("), path.name


def test_classification_recovers_planted_patterns(synth_run):
    rows = {r["iso"]: r for r in read_tsv(synth_run["out"] / "classification.tsv")}
    for iso, want in EXPECTED_PATTERNS.items():
        assert rows[iso]["pattern"] == want, iso
    for iso, want in EXPECTED_SUBPATTERNS.items():
        assert rows[iso]["subpattern"] == want, iso
    for iso, flags in EXPECTED_NULL_FLAGS.items():
        assert rows[iso]["null_flags"] == ",".join(flags), iso
    assert rows["eng"]["pattern"] == "A"


def test_classify_of_stored_dictionaries_equals_the_run_table(synth_run, tmp_path):
    out = tmp_path / "classification.tsv"
    assert main(["classify", "--dictionaries", str(synth_run["out"] / "dictionaries.tsv"),
                 "--out", str(out)]) == 0
    stored = (synth_run["out"] / "classification.tsv").read_text(encoding="utf-8")
    # the run's table behind its `# semmap config=` header line
    assert stored.split("\n", 1)[1] == out.read_text(encoding="utf-8")


def test_matrix_and_embedding_parse_back(synth_run):
    m = ParallelUsageMatrix.from_tsv(synth_run["out"] / "matrix.tsv")
    e = EmbeddedMap.from_tsv(synth_run["out"] / "embedding.tsv")
    assert m.row_ids == e.row_ids
    assert m.n_rows == 300
    assert e.coords.shape == (300, 2)
    assert "eng" in m.columns


def test_heat_layer_counts_nulls(synth_run):
    m = ParallelUsageMatrix.from_tsv(synth_run["out"] / "matrix.tsv")
    heat = {r["row_id"]: int(r["null_count"]) for r in read_tsv(synth_run["out"] / "heat.tsv")}
    for rid, row in zip(m.row_ids, m.rows()):
        assert heat[rid] == sum(1 for c in row if c == NULL_MARKER)
    # the NULL-realizing scheme makes BL rows strictly warmer on average
    bl = [heat[rid] for rid in m.row_ids if 200 <= int(rid.split(":")[2].split("#")[0])]
    tl = [heat[rid] for rid in m.row_ids if int(rid.split(":")[2].split("#")[0]) < 100]
    assert sum(bl) / len(bl) > sum(tl) / len(tl)


def test_scores_best_means_for_planted_d_doculect(synth_run):
    rows = read_tsv(synth_run["out"] / "scores.tsv")
    core = {r["group"]: r for r in read_tsv(synth_run["out"] / "core_points.tsv")}
    tl_cluster = core["TL"]["cluster"]
    best = [r for r in rows
            if r["iso"] == "ddd" and r["cluster"] == tl_cluster and r["best"] == "1"]
    assert len(best) == 1
    assert best[0]["means"] == "dtl"
    assert float(best[0]["f1"]) > 0.9


def test_prototypicality_ranked(synth_run):
    rows = read_tsv(synth_run["out"] / "prototypicality.tsv")
    assert rows
    by_cluster = {}
    for r in rows:
        by_cluster.setdefault(r["cluster"], []).append((int(r["rank"]), int(r["score"])))
    for ranking in by_cluster.values():
        scores = [s for _, s in sorted(ranking)]
        assert scores == sorted(scores, reverse=True)
        assert max(s for _, s in ranking) > 10  # planted agreement is strong


def test_dropped_verse_count_reported(synth_run):
    text = (synth_run["out"] / "corpus.tsv").read_text(encoding="utf-8")
    assert "# dropped_nonpivot_verses\t0" in text


def test_pattern_d_areas_contain_exactly_their_own_cores(synth_run):
    # topological check: each of the three areas holds its own group's
    # core points and none of the other groups'
    out = synth_run["out"]
    emb = EmbeddedMap.from_tsv(out / "embedding.tsv")
    coords = {rid: emb.coords[i] for i, rid in enumerate(emb.row_ids)}
    cores = {r["group"]: r["member_row_ids"].split(",")
             for r in read_tsv(out / "core_points.tsv")}
    areas = {}
    for means in ["dtl", "dml", "dbl"]:
        rows = read_tsv(out / "surfaces" / f"ddd_{means}.contours.tsv")
        polys = {}
        for r in rows:
            if float(r["level"]) != 0.29:
                continue
            polys.setdefault(int(r["polygon"]), []).append((float(r["x"]), float(r["y"])))
        areas[means] = [np.array(p) for p in polys.values()]
        assert areas[means], means
    own = {"dtl": "TL", "dml": "ML", "dbl": "BL"}
    for means, group in own.items():
        for g, ids in cores.items():
            inside = int(contains(areas[means], np.array([coords[rid] for rid in ids])).sum())
            if g == group:
                assert inside == len(ids), (means, g)
            else:
                assert inside == 0, (means, g)


def test_config_roundtrip_and_hash_stability(synth_run):
    config = synth_run["config"]
    again = PipelineConfig.from_json(config.to_json())
    assert again == config
    assert again.config_hash() == config.config_hash()


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="corpus dir"):
        PipelineConfig(corpus_dir=str(tmp_path / "nope"), metadata=None,
                       out_dir=str(tmp_path)).validate()
    cfg = PipelineConfig(corpus_dir=str(tmp_path), metadata=None,
                         out_dir=str(tmp_path), levels=(0.29, 0.35, 0.32))
    with pytest.raises(ConfigError, match="descending"):
        cfg.validate()
    cfg3 = PipelineConfig(corpus_dir=str(tmp_path), metadata=None,
                          out_dir=str(tmp_path),
                          group_anchors={"TL": "x"})
    with pytest.raises(ConfigError, match="group_anchors"):
        cfg3.validate()


def test_readme_config_example_validates(tmp_path):
    # the README's config block, with its paths pointed at files that exist
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    fields = json.loads(blocks[0])
    meta = tmp_path / "meta.tsv"
    meta.write_text("", encoding="utf-8")
    fields.update(corpus_dir=str(tmp_path), metadata=str(meta), out_dir=str(tmp_path / "out"))
    PipelineConfig.from_json(json.dumps(fields)).validate()


def test_benchmark_hooks_find_every_function_they_wrap():
    # perfbench/spans.py replaces semmap functions by name; renaming or
    # deleting one of them must fail here too, not only in the harness
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_run_never_imports_numpy_random(tmp_path):
    # the k-means++ seeding draws from mixture's own copy of the
    # default_rng stream; importing numpy.random costs every run ~2 MB of
    # resident memory and ~12 ms
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=60, seed=7)
    config = {"corpus_dir": str(corpus), "metadata": str(corpus / "meta.tsv"),
              "out_dir": str(tmp_path / "out"), "pivot_iso": "eng",
              "pivot_tokens": ["when"], "gmm_ks": [2, 3], "grid": 12, "core_k": 30,
              "group_anchors": anchors}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; from pathlib import Path; from semmap import pipeline; "
            "pipeline.run(pipeline.PipelineConfig.from_json(Path(sys.argv[1]).read_text())); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.tsv").exists()
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_benchmark_trace_reaches_alignment():
    # a wrapped alignment function that the pipeline no longer calls
    # would leave its span empty: the trace must still time it
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "longcorpus",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in ("align.train_em_s", "align.argmax_links_s", "align.verse_pairs"):
        assert result["metrics"][name]["value"] > 0, name


def small_run(corpus, anchors, out, bom=""):
    """Run the 90-verse synthetic corpus in ``corpus`` into ``out`` through
    the CLI, from a config written beside ``out`` behind ``bom``. Returns
    the manifest text."""
    config = PipelineConfig(
        corpus_dir=str(corpus), metadata=str(corpus / "meta.tsv"), out_dir=str(out),
        gmm_ks=(3,), grid=40, core_k=10, group_anchors=anchors, dump_grids=False)
    config_path = out.with_name(out.name + ".json")
    config_path.write_text(bom + config.to_json(), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    return (out / "manifest.tsv").read_text(encoding="utf-8")


def test_run_finds_the_usage_points_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=90, seed=7)
    calls = []
    found = al.usage_points

    def spy(*args):
        calls.append(args)
        return found(*args)

    monkeypatch.setattr(al, "usage_points", spy)
    small_run(corpus, anchors, tmp_path / "out")
    assert len(list(corpus.glob("*.txt"))) == 18 and len(calls) == 1


def test_verses_outside_the_pivot_change_no_alignment(tmp_path):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=90, seed=7)
    plain, extra = tmp_path / "plain", tmp_path / "extra"
    small_run(corpus, anchors, plain)
    for path in sorted(corpus.glob("*.txt")):
        if path.stem != "eng":
            with open(path, "a", encoding="utf-8") as fh:
                for i in range(30):
                    fh.write(f"MAT:2:{i}\t{path.stem}w{i % 40:02d} {path.stem}x{i}\n")
    small_run(corpus, anchors, extra)
    assert "# dropped_nonpivot_verses\t30" in (extra / "corpus.tsv").read_text(encoding="utf-8")
    names = [f"alignments/{p.name}" for p in (plain / "alignments").iterdir()]
    assert len(names) == 18
    for rel in names + ["matrix.tsv", "embedding.tsv", "classification.tsv"]:
        assert (plain / rel).read_bytes() == (extra / rel).read_bytes(), rel


@pytest.mark.parametrize("marked", ["ddd.txt", "meta.tsv", "config.json"])
def test_a_file_with_a_byte_order_mark_runs_as_without_one(tmp_path, marked):
    corpus = tmp_path / "corpus"
    _, anchors, _ = build_corpus(corpus, n_verses=90, seed=7)
    out = tmp_path / "out"
    plain = small_run(corpus, anchors, out)
    # a UTF-8 byte-order mark before a target's first verse id, the
    # pivot's metadata row or the config
    if marked != "config.json":
        path = corpus / marked
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    bom = "\ufeff" if marked == "config.json" else ""
    assert small_run(corpus, anchors, out, bom=bom) == plain
    alignment = (out / "alignments" / "ddd.tsv").read_text(encoding="utf-8").splitlines()
    assert alignment[1] == "MAT:1:0\t0\tdtl"
    rows = {r["iso"]: r for r in read_tsv(out / "corpus.tsv")}
    assert (rows["eng"]["name"], rows["eng"]["year"]) == ("English", "1900")
