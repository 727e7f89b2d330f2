import random

import pytest

from semmap.corpstats import (
    CorpStatsError,
    ReferentRecord,
    TopicCandidate,
    TopicWeights,
    anaphoric_distance,
    mattr,
    normalize_lemma,
    pickup_rate,
    score_sentence,
    ten_mfl,
    topic_score,
)


# mattr ------------------------------------------------------------------------

def test_mattr_identical_lemmas():
    res = mattr(["xoditi"] * 100, window=40)
    assert res.value == pytest.approx(1 / 40)
    assert not res.fallback


def test_mattr_all_distinct():
    res = mattr([f"l{i}" for i in range(100)], window=40)
    assert res.value == pytest.approx(1.0)


def test_mattr_matches_naive_sliding_window():
    rng = random.Random(1)
    series = [rng.choice("abcdefg") for _ in range(120)]
    w = 15
    res = mattr(series, window=w)
    windows = [series[i:i + w] for i in range(len(series) - w + 1)]
    want = sum(len(set(win)) / w for win in windows) / len(windows)
    assert res.value == pytest.approx(want, abs=1e-12)


def test_mattr_short_series_falls_back_to_ttr():
    res = mattr(["a", "b", "a"], window=40)
    assert res.fallback
    assert res.value == pytest.approx(2 / 3)


def test_mattr_bounds_and_monotonicity():
    rng = random.Random(2)
    series = [rng.choice("ab") for _ in range(80)]
    w = 10
    base = mattr(series, window=w).value
    assert 1 / w <= base <= 1.0
    # replacing a duplicate with a fresh type never lowers the score
    dup_at = next(i for i in range(1, 80) if series[i] in series[:i])
    richer = series[:dup_at] + ["zz"] + series[dup_at + 1:]
    assert mattr(richer, window=w).value >= base


def test_mattr_empty_errors():
    with pytest.raises(CorpStatsError):
        mattr([], window=10)


# ten_mfl ----------------------------------------------------------------------

def test_ten_mfl_few_types_is_one():
    series = ["a", "b", "c"] * 5
    assert ten_mfl(series).value == 1.0


def test_ten_mfl_uniform_twenty_lemmas():
    series = [f"l{i:02d}" for i in range(20) for _ in range(5)]
    res = ten_mfl(series)
    assert res.value == pytest.approx(0.5)
    assert res.boundary_tie


def test_ten_mfl_matches_brute_force():
    rng = random.Random(3)
    series = [f"l{rng.randint(0, 25):02d}" for _ in range(300)]
    res = ten_mfl(series)
    from collections import Counter

    counts = Counter(series)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert res.value == pytest.approx(sum(c for _, c in ranked) / 300)


def test_ten_mfl_order_invariant():
    rng = random.Random(4)
    series = [rng.choice("abcdefghijklmn") for _ in range(100)]
    shuffled = series[:]
    rng.shuffle(shuffled)
    assert ten_mfl(series).value == ten_mfl(shuffled).value


# anaphoric distance --------------------------------------------------------------

def test_distance_adjacent_tokens():
    assert anaphoric_distance([10], (0, 3), (0, 4)) == 0


def test_distance_fifteen_back():
    # antecedent 15 tokens before the anaphor leaves 14 strictly between
    assert anaphoric_distance([20], (0, 2), (0, 17)) == 14


def test_distance_across_sentences_hand_count():
    # sentences of 5 and 4 tokens; antecedent (0,3), anaphor (1,1):
    # tokens strictly between are (0,4) and (1,0)
    assert anaphoric_distance([5, 4], (0, 3), (1, 1)) == 2


def test_distance_no_antecedent():
    assert anaphoric_distance([5], None, (0, 1)) is None


def test_distance_position_validation():
    with pytest.raises(CorpStatsError):
        anaphoric_distance([5], (0, 9), (0, 1))


# pickup rate ---------------------------------------------------------------------

def rec(mentions):
    return ReferentRecord("r1", mentions)


def test_pickup_no_prior_mentions():
    assert pickup_rate(rec([(5, 0)]), at_sentence=5, window=5) == 0


def test_pickup_three_in_previous_sentence():
    r = rec([(4, 0), (4, 3), (4, 7), (5, 1)])
    assert pickup_rate(r, at_sentence=5, window=1) == 3


def test_pickup_excludes_current_sentence():
    r = rec([(5, 0), (5, 2)])
    assert pickup_rate(r, at_sentence=5, window=30) == 0


def test_pickup_matches_brute_force_scan():
    rng = random.Random(5)
    mentions = sorted({(rng.randint(0, 80), rng.randint(0, 9)) for _ in range(60)})
    r = rec(mentions)
    for window in (1, 5, 30, 60):
        got = pickup_rate(r, at_sentence=50, window=window)
        want = sum(1 for s, _ in mentions if 50 - window <= s < 50)
        assert got == want


def test_mentions_must_increase():
    with pytest.raises(CorpStatsError):
        ReferentRecord("r", [(3, 1), (2, 0)])


# topic score ----------------------------------------------------------------------

def test_topic_score_full_house_is_92():
    # old + null + sub + human + first + top saliency + antecedent bonus
    cand = TopicCandidate(givenness="old", animacy="human", realization="null",
                          relation="sub", saliency=4, antecedent_outranks=True)
    assert topic_score(cand) == 15 + 30 + 10 + 10 + 15 + 10 + 2 == 92


def test_topic_score_low_candidate_is_2():
    first = TopicCandidate(givenness="old", animacy="human", realization="null",
                           relation="sub", saliency=9)
    cand = TopicCandidate(givenness="new", animacy="time",
                          realization="common-noun", relation="obl", saliency=0)
    assert topic_score(cand, [first, cand]) == 2


def test_topic_score_identical_candidates_differ_by_word_order_only():
    a = TopicCandidate(givenness="old", animacy="human",
                       realization="personal-pronoun", relation="sub", saliency=3)
    b = TopicCandidate(givenness="old", animacy="human",
                       realization="personal-pronoun", relation="sub", saliency=3)
    sa, sb = score_sentence([a, b])
    assert sa - sb == 15


def test_topic_score_null_exception_non_spec():
    cand = TopicCandidate(givenness="non-spec", animacy="human",
                          realization="null", relation="sub")
    with_null = topic_score(cand)
    same_overt = topic_score(TopicCandidate(
        givenness="non-spec", animacy="human", realization="common-noun",
        relation="sub"))
    assert with_null == same_overt  # the +30 was withheld


def test_topic_score_wider_exception_reading_config():
    weights = TopicWeights(null_exceptions=frozenset({"non-spec", "kind", "new"}))
    cand = TopicCandidate(givenness="new", animacy="human", realization="null",
                          relation="sub")
    assert topic_score(cand, weights=weights) == topic_score(cand) - 30


def test_topic_score_each_bonus_removable():
    cand = TopicCandidate(givenness="old", animacy="human", realization="null",
                          relation="sub", saliency=1, antecedent_outranks=True)
    base = topic_score(cand)
    default = TopicWeights()
    for zeroed, delta in [
        (dict(saliency_bonus=0), 10),
        (dict(word_order_bonus=0), 15),
        (dict(null_realization=0, personal_pronoun=0, human_proper_noun=0), 30),
        (dict(relation=dict.fromkeys(default.relation, 0)), 10),
        (dict(animacy=dict.fromkeys(default.animacy, 0)), 10),
        (dict(antecedent_bonus=0), 2),
    ]:
        weights = TopicWeights(**zeroed)
        assert topic_score(cand, weights=weights) == base - delta


def test_topic_score_proper_noun_needs_human():
    human = TopicCandidate(givenness="new", animacy="human",
                           realization="proper-noun", relation="obl")
    place = TopicCandidate(givenness="new", animacy="place",
                           realization="proper-noun", relation="obl")
    assert topic_score(human) - topic_score(place) == 5 + 10  # +5 noun, +10 animacy


def test_topic_score_missing_labels_listed():
    cand = TopicCandidate(givenness="old", animacy="", realization="",
                          relation="sub")
    with pytest.raises(CorpStatsError, match="animacy, realization"):
        topic_score(cand)


def test_saliency_bonus_shared_on_ties():
    a = TopicCandidate(givenness="new", animacy="time",
                       realization="common-noun", relation="adv", saliency=7)
    b = TopicCandidate(givenness="new", animacy="time",
                       realization="common-noun", relation="adv", saliency=7)
    sa, sb = score_sentence([a, b])
    assert sa == 1 + 10 + 15 and sb == 1 + 10


# lemma normalization ---------------------------------------------------------------

def test_normalize_lemma_rules():
    assert normalize_lemma("jegda") == "egda"
    assert normalize_lemma("věra") == "vera"
    assert normalize_lemma("tyi") == "tъ"
    assert normalize_lemma("dobrii") == "dobrь"
