import math
import random
from collections import Counter, defaultdict
from itertools import accumulate

import pytest

from semmap.align import (
    NULL_MARKER,
    AlignError,
    PivotParallel,
    align_pair,
    argmax_links,
    code_labels,
    dump_parallels,
    evaluate_alignment,
    load_parallels,
    train_em,
    usage_points,
    _Side,
)
from semmap.corpus import load_corpus, normalize
from semmap.pivot import code_parallels
from semmap.tsv import format_rows
from synth import build_corpus


# dict-based oracles ---------------------------------------------------------
# The scalar EM and argmax that ``train_em`` and ``argmax_links`` replace,
# kept as the reference: same arithmetic in the same order, so tables and
# links must come out exactly equal. The oracle EM skips verses with an
# empty side when it builds the co-occurrences, as the E-step does. The
# oracle ``align_pair`` builds both directions' per-verse link sets,
# intersects them, reads every pivot occurrence off the intersection and
# makes a form linked fewer than ``min_count`` times NULL.

def model_table(model):
    """A model's table as {(source_type, target_type): probability}."""
    width = len(model.target_types)
    return {(model.source_types[k // width], model.target_types[k % width]): p
            for k, p in zip(model.pairs.tolist(), model.probs.tolist())}


def coded(pairs):
    """The source and the target side of (source tokens, target tokens)
    pairs, each coded once."""
    pairs = list(pairs)
    return _Side.encode([src for src, _ in pairs]), _Side.encode([tgt for _, tgt in pairs])


def train_em_oracle(bitext, iterations=5):
    cooc = defaultdict(set)
    for src, tgt in bitext:
        if not src or not tgt:
            continue
        for s in set(src):
            cooc[s].update(tgt)
    t = {}
    for s, targets in cooc.items():
        u = 1.0 / len(targets)
        for f in targets:
            t[(s, f)] = u
    loglik = []
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        ll = 0.0
        for src, tgt in bitext:
            if not src or not tgt:
                continue
            inv_len = 1.0 / len(src)
            for f in tgt:
                z = 0.0
                for s in src:
                    z += t.get((s, f), 0.0)
                if z <= 0.0:
                    continue
                ll += math.log(z * inv_len)
                for s in src:
                    p = t.get((s, f), 0.0)
                    if p > 0.0:
                        w = p / z
                        counts[(s, f)] += w
                        totals[s] += w
        for (s, f), cnt in counts.items():
            t[(s, f)] = cnt / totals[s]
        loglik.append(ll)
    return t, loglik


def best_index_oracle(t, source, targets):
    best_j, best_p, best_form = None, 0.0, None
    for j, f in enumerate(targets):
        p = t.get((source, f), 0.0)
        if p <= 0.0:
            continue
        if best_j is None or p > best_p or (p == best_p and f < best_form):
            best_j, best_p, best_form = j, p, f
    return best_j


def token_links_oracle(t, pairs, tokens):
    """``best_index_oracle`` for the source tokens at the indices ``tokens``
    of the concatenated source sides of ``pairs``, each as an index into
    the concatenated target sides, or -1."""
    where = [(v, i) for v, (src, _) in enumerate(pairs) for i in range(len(src))]
    target_start = list(accumulate((len(tgt) for _, tgt in pairs), initial=0))
    out = []
    for k in tokens:
        v, i = where[k]
        j = best_index_oracle(t, pairs[v][0][i], pairs[v][1])
        out.append(-1 if j is None else target_start[v] + j)
    return out


def argmax_links_oracle(t, verse_pairs, direction):
    out = {}
    for vid, (pivot_toks, target_toks) in verse_pairs.items():
        links = set()
        if direction == "fwd":
            for i, s in enumerate(pivot_toks):
                j = best_index_oracle(t, s, target_toks)
                if j is not None:
                    links.add((i, j))
        else:
            for j, f in enumerate(target_toks):
                i = best_index_oracle(t, f, pivot_toks)
                if i is not None:
                    links.add((i, j))
        out[vid] = links
    return out


def symmetrize_oracle(fwd, rev):
    return {vid: fwd[vid] & rev[vid] for vid in fwd}


def extract_parallels_oracle(table, pivot_verses, target_verses, pivot_types):
    rows = []
    for vid in sorted(table):
        linked = dict(table[vid])
        for i, tok in enumerate(pivot_verses[vid]):
            if tok in pivot_types:
                j = linked.get(i)
                rows.append(PivotParallel(vid, i, None if j is None else target_verses[vid][j]))
    return rows


def align_pair_oracle(pivot_verses, target_verses, pivot_types, iterations=5, min_count=3):
    common = sorted(set(pivot_verses) & set(target_verses))
    pairs = {v: (pivot_verses[v], target_verses[v]) for v in common}
    fwd_t, _ = train_em_oracle(list(pairs.values()), iterations)
    rev_t, _ = train_em_oracle([(t, s) for s, t in pairs.values()], iterations)
    table = symmetrize_oracle(argmax_links_oracle(fwd_t, pairs, "fwd"),
                              argmax_links_oracle(rev_t, pairs, "rev"))
    rows = extract_parallels_oracle(table, pivot_verses, target_verses, pivot_types)
    for vid in sorted(set(pivot_verses) - set(common)):
        rows += [PivotParallel(vid, i, None)
                 for i, tok in enumerate(pivot_verses[vid]) if tok in pivot_types]
    rows.sort(key=lambda p: (p.verse_id, p.pivot_index))
    counts = Counter(p.form for p in rows if p.form is not None)
    return [p if p.form is None or counts[p.form] >= min_count
            else PivotParallel(p.verse_id, p.pivot_index, None) for p in rows]


def random_bitext(seed, n_verses=40, vocab=6, max_len=6):
    """Verse pairs over small vocabularies: repeated tokens in a verse,
    empty and one-token sides, and many equal probabilities."""
    rng = random.Random(seed)
    src_vocab = [f"s{k}" for k in range(vocab)]
    tgt_vocab = [f"t{k}" for k in range(vocab)]
    pairs = {}
    for i in range(n_verses):
        src = [rng.choice(src_vocab) for _ in range(rng.randint(0, max_len))]
        tgt = [rng.choice(tgt_vocab) for _ in range(rng.randint(0, max_len))]
        pairs[f"v{i:03d}"] = (src, tgt)
    return pairs


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
    t = model_table(train_em(*coded([(["a"], ["x"])]), iterations=1))
    assert t[("a", "x")] == pytest.approx(1.0)


def test_two_pair_example_hand_run():
    # two EM iterations worked through by hand give argmax a->x, b->y
    t = model_table(train_em(*coded([(["a", "b"], ["x", "y"]), (["a"], ["x"])]), iterations=2))
    assert t[("a", "x")] > t[("a", "y")]
    assert t[("b", "y")] > t[("b", "x")]
    assert t[("a", "x")] == pytest.approx(1.6 / (1.6 + 1.0 / 3.0), rel=1e-9)


def test_em_recovers_planted_dictionary():
    bitext, mapping = planted_bitext()
    table = model_table(train_em(*coded(bitext), iterations=5))
    hits = 0
    for s, t in mapping.items():
        best = max((f for (src, f) in table if src == s),
                   key=lambda f: table[(s, f)])
        hits += best == t
    assert hits >= 19


def test_em_loglik_never_decreases():
    bitext, _ = planted_bitext(n_pairs=80, seed=11)
    model = train_em(*coded(bitext), iterations=8)
    for prev, cur in zip(model.loglik, model.loglik[1:]):
        assert cur >= prev - 1e-9


def test_em_normalization_per_source():
    bitext, _ = planted_bitext(n_pairs=50, seed=5)
    model = train_em(*coded(bitext), iterations=3)
    sums = {}
    for (s, _f), p in model_table(model).items():
        assert 0.0 <= p <= 1.0 + 1e-12
        sums[s] = sums.get(s, 0.0) + p
    for s, total in sums.items():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_em_empty_bitext_errors():
    with pytest.raises(AlignError):
        train_em(*coded([]), iterations=3)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("vocab", [6, 20])
def test_em_matches_dict_oracle(seed, vocab):
    # with 20 types per side, source types co-occur with different
    # numbers of target types
    bitext = list(random_bitext(seed, vocab=vocab).values())
    model = train_em(*coded(bitext), iterations=6)
    t, loglik = train_em_oracle(bitext, iterations=6)
    assert model_table(model) == t
    assert model.loglik == pytest.approx(loglik, rel=1e-12)


def test_em_type_seen_only_opposite_empty_verses():
    # "z" co-occurs with no target token: it gets no table entry instead
    # of a division by zero in the uniform initialization
    bitext = [(["a", "z"], []), (["a"], ["x"]), ([], ["y"])]
    model = train_em(*coded(bitext), iterations=2)
    assert model_table(model) == train_em_oracle(bitext, iterations=2)[0] == {("a", "x"): 1.0}
    assert model_table(model).get(("z", "x"), 0.0) == 0.0


def test_em_all_sides_empty():
    model = train_em(*coded([(["a"], []), ([], ["x"])]), iterations=2)
    assert model_table(model) == {} and model.loglik == [0.0, 0.0]


def test_em_after_probabilities_underflow_matches_dict_oracle():
    # after 270 iterations some probabilities have underflowed to 0, so
    # the later E-steps see cells of p = 0, which weigh 0
    bitext, _ = planted_bitext(n_pairs=40, seed=3)
    assert (train_em(*coded(bitext), iterations=270).probs == 0.0).any()
    model = train_em(*coded(bitext), iterations=300)
    t, loglik = train_em_oracle(bitext, iterations=300)
    assert model_table(model) == t
    assert model.loglik == pytest.approx(loglik, rel=1e-12)


# argmax links -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("vocab", [6, 20])
@pytest.mark.parametrize("direction", ["fwd", "rev"])
def test_argmax_links_match_dict_oracle(seed, vocab, direction):
    pairs = list(random_bitext(seed, vocab=vocab).values())
    source, target = coded(pairs)
    if direction == "rev":
        pairs = [(t, s) for s, t in pairs]
        source, target = target, source
    model = train_em(source, target, iterations=3)
    t = train_em_oracle(pairs, iterations=3)[0]
    # every token; every third token plus the first two of a verse; that
    # subset backwards with a token repeated
    start = sum(len(src) for src, _ in pairs[:next(
        v for v, (src, tgt) in enumerate(pairs) if len(src) >= 2 and tgt)])
    subset = sorted(set(range(0, len(source.codes), 3)) | {start, start + 1})
    for tokens in (range(len(source.codes)), subset, subset[::-1] + subset[:1]):
        got = argmax_links(model, source, target, list(tokens))
        assert got.tolist() == token_links_oracle(t, pairs, tokens)


def test_argmax_tie_smaller_form_wins():
    # "y" and "x" always co-occur with "a", so p(x|a) == p(y|a) exactly
    pairs = [(["a"], ["y", "x"]), (["a", "b"], ["x", "y", "c"])]
    source, target = coded(pairs)
    model = train_em(source, target, iterations=4)
    t = model_table(model)
    assert t[("a", "x")] == t[("a", "y")]
    links = argmax_links(model, source, target, [0, 1, 2]).tolist()
    # "x" at index 1 of the first verse, "x" at index 0 of the second
    assert links[:2] == [1, 2]
    assert links == token_links_oracle(t, pairs, [0, 1, 2])


def test_argmax_tie_same_form_lower_index_wins():
    pairs = [(["a", "b"], ["x", "y", "x"]), (["x", "x"], ["a"])]
    source, target = coded(pairs)
    fwd = train_em(source, target, iterations=3)
    rev = train_em(target, source, iterations=3)
    fwd_links = argmax_links(fwd, source, target, [0, 1, 2, 3]).tolist()
    rev_links = argmax_links(rev, target, source, [0, 1, 2, 3]).tolist()
    # forward, "a" takes the first "x"; back, the second verse's "a" takes
    # the first "x" of its verse
    assert fwd_links[0] == 0 and rev_links[3] == 2
    assert fwd_links == token_links_oracle(model_table(fwd), pairs, [0, 1, 2, 3])
    assert rev_links == token_links_oracle(model_table(rev), [(t, s) for s, t in pairs], [0, 1, 2, 3])


def test_align_pair_matches_oracle_on_synthetic_corpus(tmp_path):
    build_corpus(tmp_path, n_verses=90, seed=7)
    manifest = load_corpus(tmp_path, tmp_path / "meta.tsv", "eng")
    pivot = {vid: normalize(text) for vid, text in sorted(manifest.pivot.verses.items())}
    for iso, doc in sorted(manifest.doculects.items()):
        if iso == "eng":
            continue
        target = {vid: normalize(text) for vid, text in sorted(doc.verses.items())}
        assert align_pair(pivot, target, usage_points(pivot, {"when"})) == \
            align_pair_oracle(pivot, target, {"when"}), iso


def filler_pair(seed, n_verses=120):
    """A pivot/target pair where about a third of the verses hold "when"
    and the rest are pivot-free filler, with empty sides, and a tenth of
    the verses on the pivot side only and a tenth on the target side only."""
    rng = random.Random(seed)
    src_vocab = [f"s{k}" for k in range(8)]
    tgt_vocab = [f"t{k}" for k in range(8)]
    pivot, target = {}, {}
    for i in range(n_verses):
        src = [rng.choice(src_vocab) for _ in range(rng.randint(0, 5))]
        tgt = [rng.choice(tgt_vocab) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.3:
            src.insert(rng.randint(0, len(src)), "when")
            tgt.insert(rng.randint(0, len(tgt)), "kogda")
        side = rng.random()
        if side >= 0.1:
            pivot[f"v{i:03d}"] = src
        if side < 0.1 or side >= 0.2:
            target[f"v{i:03d}"] = tgt
    return pivot, target


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("min_count", [1, 3])
def test_align_pair_matches_oracle_with_filler_and_one_sided_verses(seed, min_count):
    pivot, target = filler_pair(seed)
    shared = set(pivot) & set(target)
    assert any("when" not in pivot[v] for v in shared)
    assert any(not pivot[v] or not target[v] for v in shared)
    assert any("when" in toks for v, toks in pivot.items() if v not in target)
    assert set(target) - set(pivot)
    assert align_pair(pivot, target, usage_points(pivot, {"when"}), min_count=min_count) == \
        align_pair_oracle(pivot, target, {"when"}, min_count=min_count)


def test_align_pair_without_pivot_in_shared_verses():
    pivot = {"v1": ["a", "b"], "v2": ["b"], "v3": ["when", "a"]}
    target = {"v1": ["x", "y"], "v2": ["y"], "v4": ["z"]}
    want = [PivotParallel("v3", 0, None)]
    assert align_pair(pivot, target, usage_points(pivot, {"when"}), min_count=1) == want
    assert align_pair_oracle(pivot, target, {"when"}, min_count=1) == want


@pytest.mark.parametrize("seed", range(4))
def test_align_pair_two_pivot_types_sharing_a_forward_best_match_oracle(seed):
    pairs = random_bitext(seed, vocab=4)
    pivot = {v: src for v, (src, _) in pairs.items()}
    target = {v: tgt for v, (_, tgt) in pairs.items()}
    types = {"s0", "s1"}
    fwd = argmax_links_oracle(train_em_oracle(list(pairs.values()))[0], pairs, "fwd")
    # some verse has two occurrences whose forward best is one target token
    assert any(len(js) > len(set(js)) for js in (
        [j for i, j in fwd[v] if pivot[v][i] in types] for v in pairs))
    assert align_pair(pivot, target, usage_points(pivot, types), min_count=1) == \
        align_pair_oracle(pivot, target, types, min_count=1)


def test_align_pair_links_only_the_occurrence_the_reverse_model_points_back_to():
    # both pivot occurrences of v1 take "kogda" forward, the one target
    # token there; the reverse model points "kogda" back at "when"
    pivot = {"v1": ["as", "when"], "v2": ["when"], "v3": ["when", "b"], "v4": ["as"]}
    target = {"v1": ["kogda"], "v2": ["kogda"], "v3": ["kogda", "y"], "v4": ["kak"]}
    rows = align_pair(pivot, target, usage_points(pivot, {"when", "as"}), min_count=1)
    assert rows == align_pair_oracle(pivot, target, {"when", "as"}, min_count=1)
    assert rows[:2] == [PivotParallel("v1", 0, None), PivotParallel("v1", 1, "kogda")]


def every_type_as_pivot(bitext, iterations):
    """align_pair over a bitext with every source type as a pivot type."""
    pivot = {f"v{i:04d}": src for i, (src, _) in enumerate(bitext)}
    target = {f"v{i:04d}": tgt for i, (_, tgt) in enumerate(bitext)}
    types = {tok for src, _ in bitext for tok in src}
    rows = align_pair(pivot, target, usage_points(pivot, types), iterations=iterations,
                      min_count=1)
    return pivot, target, rows


def test_align_pair_links_are_one_to_one_per_verse():
    bitext, _ = planted_bitext(n_pairs=60, seed=9)
    _, target, rows = every_type_as_pivot(bitext, iterations=4)
    assert len(rows) == sum(len(src) for src, _ in bitext)
    linked = defaultdict(list)
    for p in rows:
        if p.form is not None:
            linked[p.verse_id].append(p.form)
    assert linked
    # a planted verse holds each target form once, so a form stands for
    # one target token
    for vid, forms in linked.items():
        assert len(forms) == len(set(forms))
        assert set(forms) <= set(target[vid])


def test_planted_links_survive_symmetrization():
    bitext, mapping = planted_bitext(n_pairs=300, seed=21)
    pivot, _, rows = every_type_as_pivot(bitext, iterations=5)
    hits = sum(p.form == mapping[pivot[p.verse_id][p.pivot_index]] for p in rows)
    assert len(rows) == sum(len(src) for src, _ in bitext)
    assert hits / len(rows) >= 0.95


def test_align_pair_invalid_min_count():
    with pytest.raises(AlignError, match="min_count"):
        align_pair({"v1": ["when"]}, {"v1": ["x"]}, [("v1", 0)], min_count=0)


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
    rows = align_pair(pivot, target, usage_points(pivot, {"when"}), iterations=5, min_count=3)
    assert evaluate_alignment(rows, gold) >= 0.95


def test_parallels_roundtrip(tmp_path):
    pivot, target, _ = make_verse_corpus(n=40, null_rate=0.5)
    rows = align_pair(pivot, target, usage_points(pivot, {"when"}))
    path = tmp_path / "dump.tsv"
    path.write_text(format_rows((), "test") + dump_parallels(rows), encoding="utf-8")
    assert load_parallels(path) == rows


def test_align_pair_covers_all_occurrences():
    pivot = {"v1": ["when", "he", "when"], "v2": ["x"]}
    target = {"v1": ["a", "b"], "v2": ["y"]}
    rows = align_pair(pivot, target, usage_points(pivot, {"when"}), min_count=1)
    assert [(p.verse_id, p.pivot_index) for p in rows] == [("v1", 0), ("v1", 2)]
    assert rows == align_pair_oracle(pivot, target, {"when"}, min_count=1)


def code_parallels_by_key(parallels, pivot_occurrences):
    """The two-argument ``code_parallels`` that keyed the rows by
    (verse id, token index): an occurrence without a row was NULL."""
    form = {(p.verse_id, p.pivot_index): p.form for p in parallels}
    return code_labels([NULL_MARKER if (f := form.get(occ)) is None else f
                        for occ in pivot_occurrences])


def test_align_pair_rows_are_the_usage_points_in_order():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def pairs(draw):
        types = set(draw(st.lists(st.sampled_from(["when", "as"]), min_size=1, max_size=2,
                                  unique=True)))
        pivot, target = {}, {}
        for v in range(draw(st.integers(1, 8))):
            # "as" is filler where it is no pivot type
            toks = draw(st.lists(st.sampled_from(["a", "b", "as"]), max_size=4))
            for _ in range(draw(st.integers(0, 3))):
                toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(sorted(types))))
            pivot[f"v{v}"] = toks
            if draw(st.booleans()):
                target[f"v{v}"] = draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=4))
        if draw(st.booleans()):
            target["w0"] = ["x"]
        hyp.assume(set(pivot) & set(target))
        return pivot, target, types, draw(st.integers(1, 3))

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(pairs())
    def check(case):
        pivot, target, types, min_count = case
        rows = align_pair(pivot, target, usage_points(pivot, types), min_count=min_count)
        points = usage_points(pivot, types)
        assert [(p.verse_id, p.pivot_index) for p in rows] == points
        assert rows == align_pair_oracle(pivot, target, types, min_count=min_count)
        codes, labels = code_parallels(rows)
        want_codes, want_labels = code_parallels_by_key(rows, points)
        assert codes.tolist() == want_codes.tolist() and labels == want_labels

    check()
