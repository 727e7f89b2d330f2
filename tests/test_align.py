import random

import pytest

from semmap.align import (
    AlignError,
    PivotParallel,
    align_pair,
    argmax_links,
    dump_parallels,
    evaluate_alignment,
    extract_parallels,
    load_parallels,
    reassign_nulls,
    symmetrize,
    train_em,
)


def planted_bitext(n_pairs=500, vocab=20, seed=3):
    """Sentence pairs generated from a bijective word dictionary."""
    rng = random.Random(seed)
    src_vocab = [f"s{i}" for i in range(vocab)]
    mapping = {s: f"t{i}" for i, s in enumerate(src_vocab)}
    bitext = []
    for _ in range(n_pairs):
        words = rng.sample(src_vocab, rng.randint(3, 8))
        bitext.append((list(words), [mapping[w] for w in words]))
    return bitext, mapping


def test_single_pair_forces_probability_one():
    model = train_em([(["a"], ["x"])], iterations=1)
    assert model.prob("a", "x") == pytest.approx(1.0)


def test_two_pair_example_hand_run():
    # two EM iterations worked through by hand give argmax a->x, b->y
    model = train_em([(["a", "b"], ["x", "y"]), (["a"], ["x"])], iterations=2)
    assert model.prob("a", "x") > model.prob("a", "y")
    assert model.prob("b", "y") > model.prob("b", "x")
    assert model.prob("a", "x") == pytest.approx(1.6 / (1.6 + 1.0 / 3.0), rel=1e-9)


def test_em_recovers_planted_dictionary():
    bitext, mapping = planted_bitext()
    model = train_em(bitext, iterations=5)
    hits = 0
    for s, t in mapping.items():
        best = max((f for (src, f) in model.t if src == s),
                   key=lambda f: model.prob(s, f))
        hits += best == t
    assert hits >= 19


def test_em_loglik_never_decreases():
    bitext, _ = planted_bitext(n_pairs=80, seed=11)
    model = train_em(bitext, iterations=8)
    for prev, cur in zip(model.loglik, model.loglik[1:]):
        assert cur >= prev - 1e-9


def test_em_normalization_per_source():
    bitext, _ = planted_bitext(n_pairs=50, seed=5)
    model = train_em(bitext, iterations=3)
    sums = {}
    for (s, _f), p in model.t.items():
        assert 0.0 <= p <= 1.0 + 1e-12
        sums[s] = sums.get(s, 0.0) + p
    for s, total in sums.items():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_em_empty_bitext_errors():
    with pytest.raises(AlignError):
        train_em([], iterations=3)


# symmetrize -------------------------------------------------------------------

def test_symmetrize_intersection():
    fwd = {"v1": {(0, 0), (1, 2)}}
    rev = {"v1": {(0, 0)}}
    table = symmetrize(fwd, rev)
    assert table.links["v1"] == {(0, 0)}


def test_symmetrize_identity():
    fwd = {"v1": {(0, 0), (1, 1)}}
    table = symmetrize(fwd, dict(fwd))
    assert table.links["v1"] == {(0, 0), (1, 1)}


def test_symmetrize_result_is_subset_and_one_to_one():
    bitext, _ = planted_bitext(n_pairs=60, seed=9)
    pairs = {f"v{i}": pair for i, pair in enumerate(bitext)}
    fwd_model = train_em(bitext, iterations=4)
    rev_model = train_em([(t, s) for s, t in bitext], iterations=4)
    fwd = argmax_links(fwd_model, pairs, "fwd")
    rev = argmax_links(rev_model, pairs, "rev")
    table = symmetrize(fwd, rev)
    for vid, links in table.links.items():
        assert links <= fwd[vid] and links <= rev[vid]
        pivots = [i for i, _ in links]
        targets = [j for _, j in links]
        assert len(pivots) == len(set(pivots))
        assert len(targets) == len(set(targets))


def test_symmetrize_asymmetric_verses_error():
    with pytest.raises(AlignError, match="asymmetric"):
        symmetrize({"v1": set()}, {"v2": set()})


def test_planted_links_survive_symmetrization():
    bitext, mapping = planted_bitext(n_pairs=300, seed=21)
    pairs = {f"v{i}": pair for i, pair in enumerate(bitext)}
    fwd_model = train_em(bitext, iterations=5)
    rev_model = train_em([(t, s) for s, t in bitext], iterations=5)
    table = symmetrize(argmax_links(fwd_model, pairs, "fwd"),
                       argmax_links(rev_model, pairs, "rev"))
    total = hits = 0
    for vid, (src, tgt) in pairs.items():
        linked = dict(table.links[vid])
        for i, s in enumerate(src):
            total += 1
            j = linked.get(i)
            if j is not None and tgt[j] == mapping[s]:
                hits += 1
    assert hits / total >= 0.95


# reassign_nulls ----------------------------------------------------------------

def test_reassign_drops_rare_types():
    rows = [PivotParallel("v1", 0, "rare"), PivotParallel("v2", 0, "rare")]
    out = reassign_nulls(rows, min_count=3)
    assert all(p.form is None for p in out)


def test_reassign_keeps_frequent_types():
    rows = [PivotParallel(f"v{i}", 0, "kai") for i in range(50)]
    assert reassign_nulls(rows, min_count=3) == rows


def test_reassign_matches_brute_force_and_idempotent():
    rng = random.Random(2)
    forms = ["a", "b", "c", "d", None]
    rows = [PivotParallel(f"v{i}", 0, rng.choice(forms)) for i in range(200)]
    out = reassign_nulls(rows, min_count=30)
    counts = {}
    for p in rows:
        if p.form is not None:
            counts[p.form] = counts.get(p.form, 0) + 1
    for before, after in zip(rows, out):
        want = before.form if before.form is not None and counts[before.form] >= 30 else None
        assert after.form == want
    assert reassign_nulls(out, min_count=30) == out


def test_reassign_invalid_min_count():
    with pytest.raises(AlignError):
        reassign_nulls([], min_count=0)


# evaluate ---------------------------------------------------------------------

def test_evaluate_counts_matches():
    rows = [PivotParallel(f"v{i}", 0, "x") for i in range(9)]
    rows.append(PivotParallel("v9", 0, "y"))
    gold = {(f"v{i}", 0): "x" for i in range(10)}
    assert evaluate_alignment(rows, gold) == pytest.approx(0.9)


def test_evaluate_all_null():
    rows = [PivotParallel(f"v{i}", 0, None) for i in range(5)]
    gold = {(f"v{i}", 0): None for i in range(5)}
    assert evaluate_alignment(rows, gold) == 1.0


def test_evaluate_empty_sample_errors():
    with pytest.raises(AlignError):
        evaluate_alignment([], {})


# full pair run -----------------------------------------------------------------

def make_verse_corpus(n=200, seed=17, null_rate=0.0):
    """Pivot verses with one 'when' plus content; targets via a dictionary."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(30)]
    mapping = {w: f"z{w}" for w in vocab}
    pivot, target, gold = {}, {}, {}
    for i in range(n):
        vid = f"MAT:1:{i}"
        content = rng.sample(vocab, 6)
        pos = rng.randint(0, 6)
        toks = content[:pos] + ["when"] + content[pos:]
        pivot[vid] = toks
        translated = [mapping[w] for w in content]
        if rng.random() < null_rate:
            gold[(vid, pos)] = None
            target[vid] = translated
        else:
            gold[(vid, pos)] = "kogda"
            target[vid] = translated[:3] + ["kogda"] + translated[3:]
    return pivot, target, gold


def test_align_pair_planted_accuracy():
    pivot, target, gold = make_verse_corpus(null_rate=0.3)
    rows = align_pair(pivot, target, {"when"}, iterations=5, min_count=3)
    assert evaluate_alignment(rows, gold) >= 0.95


def test_parallels_roundtrip(tmp_path):
    pivot, target, _ = make_verse_corpus(n=40, null_rate=0.5)
    rows = align_pair(pivot, target, {"when"})
    path = tmp_path / "dump.tsv"
    path.write_text(dump_parallels(rows, header="test"), encoding="utf-8")
    assert load_parallels(path) == rows


def test_extract_parallels_covers_all_occurrences():
    pivot = {"v1": ["when", "he", "when"], "v2": ["x"]}
    target = {"v1": ["a", "b"], "v2": ["y"]}
    table = symmetrize({"v1": {(0, 0)}, "v2": set()},
                       {"v1": {(0, 0)}, "v2": set()})
    rows = extract_parallels(table, pivot, target, {"when"})
    assert rows == [PivotParallel("v1", 0, "a"), PivotParallel("v1", 2, None)]
