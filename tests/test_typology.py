import random
from itertools import permutations, product

import numpy as np
import pytest

from semmap.align import NULL_MARKER
from semmap.typology import (
    GROUPS,
    SUBPATTERN_TEMPLATES,
    AreaDictionary,
    TypologyError,
    _canon,
    area_counts,
    build_dictionary,
    classify_pattern,
    prototypicality,
    prune_dictionary,
    score_means,
)
from semmap.pivot import ParallelUsageMatrix, code_labels
from semmap.stats import fisher_exact


def rect(x0, y0, x1, y1):
    return [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)]


def line_of_points(y, n=30, x0=0.0, dx=1.0):
    return np.array([[x0 + i * dx, y] for i in range(n)])


def make_setup(areas, tl_y=0.0, ml_y=10.0, bl_y=20.0):
    """Three 30-point core groups on horizontal lines plus area polygons."""
    pts = np.vstack([
        line_of_points(tl_y), line_of_points(ml_y), line_of_points(bl_y),
    ])
    core_sets = {"TL": pts[0:30], "ML": pts[30:60], "BL": pts[60:90]}
    return core_sets, areas


# build_dictionary ----------------------------------------------------------------

def test_dictionary_single_area_per_group():
    # one word covers TL, another covers both ML and BL
    areas = {
        "go": rect(-1, -1, 30, 1),
        "yo": rect(-1, 9, 30, 21),
    }
    core_sets, areas = make_setup(areas)
    d = build_dictionary(core_sets, areas)
    assert d.groups == {"TL": ["go"], "ML": ["yo"], "BL": ["yo"]}


def test_dictionary_unique_plus_shared_non_significant():
    # TL covered by a unique area (26/30) and a shared one (21/30):
    # Fisher two-sided p = 0.21 > 0.01, so both stay
    areas = {
        "obec": rect(-0.5, -1, 25.5, 1),
        "buc": rect(8.5, -1, 30.5, 11),
        "NULL": rect(-1, 19, 30, 21),
    }
    core_sets, areas = make_setup(areas)
    assert area_counts(core_sets, areas)["TL"] == {"obec": 26, "buc": 21}
    d = build_dictionary(core_sets, areas)
    assert d.groups["TL"] == ["buc", "obec"]
    assert d.groups["ML"] == ["buc"]
    assert d.groups["BL"] == ["NULL"]


def test_dictionary_unique_plus_shared_significantly_fewer_drops():
    # shared area holds 5/30 against the unique 28/30: dropped
    areas = {
        "main": rect(-0.5, -1, 27.5, 1),
        "weak": rect(24.5, -1, 30.5, 11),
    }
    core_sets, areas = make_setup(areas)
    assert area_counts(core_sets, areas)["TL"] == {"main": 28, "weak": 5}
    d = build_dictionary(core_sets, areas)
    assert d.groups["TL"] == ["main"]


def test_dictionary_no_unique_fisher_richer_wins():
    # neither area unique to ML; 30/30 vs 8/30 is significant at 0.01
    areas = {
        "ken": rect(-1, -1, 30, 11),
        "ka": rect(-1, 9.5, 7.5, 21),
    }
    core_sets, areas = make_setup(areas)
    assert area_counts(core_sets, areas)["ML"] == {"ken": 30, "ka": 8}
    d = build_dictionary(core_sets, areas)
    assert d.groups == {"TL": ["ken"], "ML": ["ken"], "BL": ["ka"]}


def test_dictionary_no_unique_non_significant_keeps_both():
    areas = {
        "ken": rect(-1, -1, 30, 11),
        "ka": rect(-1, 9.5, 26.5, 21),   # 27/30 in ML
    }
    core_sets, areas = make_setup(areas)
    assert area_counts(core_sets, areas)["ML"] == {"ken": 30, "ka": 27}
    d = build_dictionary(core_sets, areas)
    assert d.groups["ML"] == ["ka", "ken"]


def test_dictionary_null_dropped_when_lexical_area_present():
    # every group sits in both the word area and a NULL area
    areas = {
        "bong": rect(-1, -1, 30, 21),
        "NULL": rect(-1, -1, 30, 21),
    }
    core_sets, areas = make_setup(areas)
    d = build_dictionary(core_sets, areas)
    assert d.groups == {"TL": ["bong"], "ML": ["bong"], "BL": ["bong"]}


def test_dictionary_null_kept_when_sole():
    areas = {
        "ahut": rect(-1, -1, 30, 11),
        "NULL": rect(-1, 19, 30, 21),
    }
    core_sets, areas = make_setup(areas)
    d = build_dictionary(core_sets, areas)
    assert d.groups == {"TL": ["ahut"], "ML": ["ahut"], "BL": ["NULL"]}


def test_dictionary_empty_group_allowed():
    areas = {"w": rect(-1, -1, 30, 11)}
    core_sets, areas = make_setup(areas)
    d = build_dictionary(core_sets, areas)
    assert d.groups["BL"] == []


def test_dictionary_leaves_out_a_label_without_polygons():
    areas = {"w": rect(-1, -1, 30, 21), "gone": []}
    core_sets, areas = make_setup(areas)
    assert all("gone" not in c for c in area_counts(core_sets, areas).values())
    d = build_dictionary(core_sets, areas)
    assert d.groups == {"TL": ["w"], "ML": ["w"], "BL": ["w"]}


def test_dictionary_unequal_core_sets_error():
    areas = {"w": rect(-1, -1, 30, 21)}
    core_sets, areas = make_setup(areas)
    core_sets["TL"] = core_sets["TL"][:10]
    with pytest.raises(TypologyError):
        build_dictionary(core_sets, areas)


def two_branch_prune(counts, k, alpha):
    """The pruning rule in its two-branch form, the oracle of
    ``prune_dictionary``: with unique areas, keep them and every shared
    area that holds more points than the best of them or does not differ
    from it at alpha; with none, keep the richest area (the greater label
    on a tie) and every area that does not differ from it."""
    containing = {}
    for g, cmap in counts.items():
        for m in cmap:
            containing.setdefault(m, set()).add(g)

    def proportion_p(c1, c2):
        return fisher_exact(c1, k - c1, c2, k - c2, tails="two").p_value

    result = {}
    for g in GROUPS:
        cmap = counts.get(g, {})
        lexical = {m: c for m, c in cmap.items() if m != NULL_MARKER}
        if not lexical:
            result[g] = [NULL_MARKER] if NULL_MARKER in cmap else []
            continue
        unique = {m: c for m, c in lexical.items() if containing[m] == {g}}
        if unique:
            kept = list(unique)
            ref = max(unique.values())
            for m in sorted(set(lexical) - set(unique)):
                if lexical[m] > ref or proportion_p(lexical[m], ref) >= alpha:
                    kept.append(m)
        else:
            ref_label = max(lexical, key=lambda m: (lexical[m], m))
            ref = lexical[ref_label]
            kept = [ref_label]
            for m in sorted(lexical):
                if m != ref_label and proportion_p(ref, lexical[m]) >= alpha:
                    kept.append(m)
        result[g] = sorted(kept)
    return result


def test_prune_dictionary_equals_the_two_branch_rule():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    labels = st.sampled_from([NULL_MARKER, "a", "b", "c", "d", "e"])

    @st.composite
    def tables(draw):
        k = draw(st.integers(5, 60))
        # counts drawn from a few values too, so ties at the maximum are common
        count = st.sampled_from([k, k - 1, k // 2, 1]) | st.integers(1, k)
        groups = st.sampled_from(GROUPS)
        counts = draw(st.dictionaries(groups, st.dictionaries(labels, count, max_size=6)))
        return counts, k, draw(st.sampled_from([0.01, 0.05, 0.5]))

    @hyp.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hyp.given(tables())
    def same(table):
        counts, k, alpha = table
        assert prune_dictionary(counts, k, alpha).groups == two_branch_prune(counts, k, alpha)

    same()


def test_dictionary_json_round_trip():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    labels = st.sampled_from([NULL_MARKER, "kogda", "когда", "ä", 'q"']) | st.text(max_size=6)
    # groups may be missing and labels repeat
    groups = st.dictionaries(st.sampled_from(GROUPS), st.lists(labels, max_size=5))

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(groups)
    def round_trip(groups):
        d = AreaDictionary(groups=groups)
        cell = d.to_json()
        # the cell is one TSV field
        assert "\t" not in cell and "\n" not in cell and "\r" not in cell
        assert AreaDictionary.from_json(cell) == d

    round_trip()


# classify_pattern ----------------------------------------------------------------

def adict(tl, ml, bl):
    return AreaDictionary(groups={"TL": list(tl), "ML": list(ml), "BL": list(bl)})


@pytest.mark.parametrize("tl,ml,bl,want", [
    (["w"], ["w"], ["w"], "A"),
    (["w"], ["w"], ["v"], "B"),
    (["w"], ["v"], ["v"], "C"),
    (["w"], ["v"], ["u"], "D"),
    (["w"], ["v"], ["w"], "E"),
])
def test_basic_patterns(tl, ml, bl, want):
    res = classify_pattern(adict(tl, ml, bl))
    assert res.pattern == want
    assert res.subpattern is None


def test_doyayo_pattern_c():
    res = classify_pattern(adict(["go"], ["yo"], ["yo"]))
    assert res.pattern == "C"
    assert res.null_flags == []


def test_hills_karbi_pattern_b_with_null_bl():
    res = classify_pattern(adict(["ahut"], ["ahut"], ["NULL"]))
    assert res.pattern == "B"
    assert res.null_flags == ["BL"]


def test_null_counts_as_ordinary_means_for_equality():
    res = classify_pattern(adict(["NULL"], ["NULL"], ["NULL"]))
    assert res.pattern == "A"
    assert res.null_flags == ["TL", "ML", "BL"]


def test_subpattern_dxx_bl_shares_ml_means():
    # template X Y ZY: BL carries ML's means plus its own
    res = classify_pattern(adict(["a"], ["b"], ["c", "b"]))
    assert res.subpattern == "DxX"
    assert res.pattern == "D"


@pytest.mark.parametrize("tl,ml,bl,label", [
    (["x", "y"], ["y"], ["x"], "BxE"),
    (["x"], ["x", "y"], ["y"], "BxC"),
    (["x"], ["y"], ["x", "y"], "CxE"),
    (["x", "w"], ["y"], ["z"], "D2a"),
    (["x"], ["y", "w"], ["z"], "D2b"),
    (["x"], ["y"], ["z", "w"], "D2c"),
    (["x", "z"], ["y"], ["y"], "C3"),
    (["x"], ["y", "z"], ["x"], "E3"),
    (["x"], ["x"], ["y", "z"], "B3"),
    (["x", "y"], ["x"], ["x"], "CxA"),
    (["x"], ["x", "y"], ["x"], "ExA"),
    (["x"], ["x"], ["x", "y"], "BxA"),
    (["x"], ["x", "y"], ["x", "y"], "AxC"),
    (["x", "y"], ["x"], ["x", "y"], "AxE"),
    (["x", "y"], ["x", "y"], ["x"], "AxB"),
    (["x", "y", "z"], ["x"], ["x"], "AxC3"),
    (["x"], ["x", "y", "z"], ["x"], "AxE3"),
    (["x"], ["x"], ["x", "y", "z"], "AxB3"),
    (["x", "y", "z"], ["x"], ["y"], "D-Other"),
    (["x"], ["x", "y", "z"], ["y"], "D-Other"),
    (["x"], ["y"], ["x", "y", "z"], "D-Other"),
    (["x", "y"], ["x", "y"], ["x", "y"], "A2"),
])
def test_subpattern_table(tl, ml, bl, label):
    res = classify_pattern(adict(tl, ml, bl))
    assert res.subpattern == label
    assert res.pattern == label[0]


@pytest.mark.parametrize("tl,ml,bl,label", [
    ([], ["x"], ["x"], "A?C"),
    ([], ["x"], ["y"], "B?D?E"),
    (["x"], [], ["x"], "A?E"),
    (["x"], [], ["y"], "B?C?D"),
    (["x"], ["x"], [], "A?B"),
    (["x"], ["y"], [], "C?D?E"),
])
def test_empty_group_templates(tl, ml, bl, label):
    res = classify_pattern(adict(tl, ml, bl))
    assert res.pattern == "unclassified-no-area"
    assert res.subpattern == label


def test_empty_group_without_template():
    res = classify_pattern(adict([], ["x", "y"], ["z"]))
    assert res.pattern == "unclassified-no-area"
    assert res.subpattern is None


def test_unmatched_multi_template_is_other():
    res = classify_pattern(adict(["x", "y"], ["x", "y"], ["z"]))
    assert res.pattern == "unclassified-other"


def test_five_means_have_no_canonical_form_and_are_other():
    # no template has more than four distinct means, so five match none
    res = classify_pattern(adict(["a", "b"], ["c", "d"], ["e"]))
    assert res.pattern == "unclassified-other"
    assert res.subpattern is None


def test_relabeling_never_changes_pattern():
    rng = random.Random(9)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        groups = [
            [rng.choice(vocab) for _ in range(rng.randint(0, 2))]
            for _ in range(3)
        ]
        base = classify_pattern(adict(*groups))
        perm = dict(zip(vocab, rng.sample(vocab, len(vocab))))
        renamed = [[perm[w] for w in g] for g in groups]
        res = classify_pattern(adict(*renamed))
        assert (res.pattern, res.subpattern) == (base.pattern, base.subpattern)


def permutation_canon(slots):
    """The key ``_canon`` replaced: per-slot sorted letters under the
    lexicographically smallest bijection of the items onto A, B, C, ...;
    None beyond four items."""
    items = sorted({it for slot in slots for it in slot})
    if len(items) > 4:
        return None
    best = None
    for perm in permutations("ABCD"[:len(items)]):
        mapping = dict(zip(items, perm))
        cand = tuple(tuple(sorted(mapping[it] for it in slot)) for slot in slots)
        if best is None or cand < best:
            best = cand
    return best


def test_signature_key_agrees_with_permutation_search():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    means = ["a", "b", "c", "d", "e", NULL_MARKER]
    # up to six means, NULL among them, each group any subset of them
    structure = st.lists(st.sets(st.sampled_from(means)), min_size=3, max_size=3)
    templates = [(permutation_canon(tuple(frozenset() if t == "?" else frozenset(t)
                                          for t in slots)), label)
                 for slots, label in SUBPATTERN_TEMPLATES]

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(structure, structure, st.permutations(means))
    def check(first, second, relabel):
        slots = tuple(frozenset(g) for g in first)
        key = permutation_canon(slots)
        label = next((lab for k, lab in templates if key is not None and k == key), None)
        res = classify_pattern(adict(*first))
        if not all(slots):
            assert (res.pattern, res.subpattern) == ("unclassified-no-area", label)
        elif label is None:
            assert (res.pattern, res.subpattern) == ("unclassified-other", None)
        else:
            assert (res.pattern, res.subpattern) == (label[0], label if len(label) > 1 else None)
        rename = dict(zip(means, relabel))
        assert _canon(tuple(frozenset(rename[m] for m in g) for g in slots)) == _canon(slots)
        other = tuple(frozenset(g) for g in second)
        # the oracle has a key for at most four means
        if key is not None and permutation_canon(other) is not None:
            assert (_canon(slots) == _canon(other)) == (key == permutation_canon(other))

    check()


def test_signature_key_partitions_like_permutation_search():
    # every structure over four means, grouped by each key: same classes
    subsets = [frozenset(m for i, m in enumerate("abcd") if bits >> i & 1) for bits in range(16)]
    by_new, by_old = {}, {}
    for slots in product(subsets, repeat=3):
        by_new.setdefault(_canon(slots), set()).add(slots)
        by_old.setdefault(permutation_canon(slots), set()).add(slots)
    assert set(map(frozenset, by_new.values())) == set(map(frozenset, by_old.values()))


def test_template_table_is_unambiguous():
    seen = {}
    for slots, label in SUBPATTERN_TEMPLATES:
        key = _canon(tuple(frozenset() if s == "?" else frozenset(s) for s in slots))
        assert seen.setdefault(key, label) == label


# score_means ---------------------------------------------------------------------

def test_score_perfect_means():
    assignments = np.array([0] * 10 + [1] * 30)
    labels = ["kai"] * 10 + ["other"] * 30
    scores, best = score_means(assignments, code_labels(labels), 0)
    kai = next(s for s in scores if s.means == "kai")
    assert (kai.precision, kai.recall, kai.f1) == (1.0, 1.0, 1.0)
    assert best.means == "kai"


def test_score_whole_map_means():
    # one means everywhere, cluster is 10% of the points
    assignments = np.array([0] * 10 + [1] * 90)
    labels = ["when"] * 100
    scores, best = score_means(assignments, code_labels(labels), 0)
    assert best.means == "when"
    assert best.recall == 1.0
    assert best.precision == pytest.approx(0.1)


def test_score_matches_brute_force_recount():
    rng = random.Random(3)
    assignments = np.array([rng.randint(0, 2) for _ in range(200)])
    labels = [rng.choice(["a", "b", "c", NULL_MARKER]) for _ in range(200)]
    scores, _ = score_means(assignments, code_labels(labels), 1)
    for s in scores:
        tp = sum(1 for lab, a in zip(labels, assignments) if lab == s.means and a == 1)
        fp = sum(1 for lab, a in zip(labels, assignments) if lab == s.means and a != 1)
        fn = sum(1 for lab, a in zip(labels, assignments) if lab != s.means and a == 1)
        assert (s.tp, s.fp, s.fn) == (tp, fp, fn)
        assert s.precision == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)
        assert s.recall == pytest.approx(tp / (tp + fn) if tp + fn else 0.0)


def test_score_empty_cluster_errors():
    with pytest.raises(TypologyError):
        score_means(np.zeros(5, dtype=int), code_labels(["a"] * 5), 3)


def test_score_best_tie_lexicographic():
    assignments = np.array([0, 0, 1, 1])
    labels = ["b", "a", "x", "y"]
    _, best = score_means(assignments, code_labels(labels), 0)
    assert best.means == "a"


# prototypicality -------------------------------------------------------------------

def proto_matrix():
    return ParallelUsageMatrix.from_rows(
        row_ids=["r0", "r1", "r2"],
        columns=["d1", "d2", "d3"],
        rows=[
            ["wenn", "jegda", "quando"],
            ["wenn", "jegda", "mentre"],
            [NULL_MARKER, NULL_MARKER, NULL_MARKER],
        ],
    )


def test_prototypicality_full_agreement_scores_three():
    best = {"d1": "wenn", "d2": "jegda", "d3": "quando"}
    ranking = prototypicality(0, best, proto_matrix(), np.array([0, 0, 0]))
    assert ranking[0] == ("r0", 3)
    assert ("r1", 2) in ranking


def test_prototypicality_all_null_scores_zero():
    best = {"d1": "wenn", "d2": "jegda", "d3": "quando"}
    ranking = prototypicality(0, best, proto_matrix(), np.array([0, 0, 0]))
    assert ranking[-1] == ("r2", 0)


def test_prototypicality_matches_brute_force():
    rng = random.Random(11)
    forms = ["u", "v", NULL_MARKER]
    cells = [[rng.choice(forms) for _ in range(5)] for _ in range(40)]
    matrix = ParallelUsageMatrix.from_rows(
        row_ids=[f"r{i:02d}" for i in range(40)],
        columns=[f"d{j}" for j in range(5)],
        rows=cells,
    )
    assignments = np.array([rng.randint(0, 1) for _ in range(40)])
    best = {f"d{j}": rng.choice(["u", "v", NULL_MARKER]) for j in range(5)}
    ranking = prototypicality(1, best, matrix, assignments)
    got = dict(ranking)
    for i, rid in enumerate(matrix.row_ids):
        if assignments[i] != 1:
            assert rid not in got
            continue
        want = sum(
            1 for j in range(5)
            if cells[i][j] == best[f"d{j}"]
        )
        assert got[rid] == want
    # ranking is by descending score then row id
    for (r1, s1), (r2, s2) in zip(ranking, ranking[1:]):
        assert (-s1, r1) <= (-s2, r2)
