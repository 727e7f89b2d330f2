"""Lexical-variation and information-structure metrics over constructions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "CorpStatsError",
    "MattrResult",
    "TenMflResult",
    "ReferentRecord",
    "TopicCandidate",
    "TopicWeights",
    "mattr",
    "ten_mfl",
    "anaphoric_distance",
    "pickup_rate",
    "topic_score",
    "score_sentence",
    "normalize_lemma",
]


class CorpStatsError(ValueError):
    pass


@dataclass
class MattrResult:
    value: float
    window: int
    fallback: bool = False  # series shorter than the window: plain TTR


def mattr(series: list[str], window: int = 40) -> MattrResult:
    """Moving-average type-token ratio over an occurrence series.

    Subsequent occurrences of a construction are treated as adjacent
    tokens; the score is the mean TTR over every contiguous window. A
    series shorter than the window falls back to its plain TTR, flagged.
    """
    if not series:
        raise CorpStatsError("empty lemma series")
    if window < 1:
        raise CorpStatsError("window must be >= 1")
    n = len(series)
    if n < window:
        return MattrResult(len(set(series)) / n, window, fallback=True)
    # sum integer type counts and divide once: the mean over windows of a
    # fixed width is exact this way (61 windows of one type give 1/40, not
    # an accumulation of rounding)
    total = sum(len(set(series[i:i + window])) for i in range(n - window + 1))
    return MattrResult(total / (window * (n - window + 1)), window)


@dataclass
class TenMflResult:
    value: float
    top: list[str]
    boundary_tie: bool  # a lemma outside the top 10 ties the 10th


def ten_mfl(series: list[str]) -> TenMflResult:
    """Share of occurrences covered by the ten most frequent lemmas.

    Frequency ties at the boundary break lexicographically; the result
    flags when that policy decided membership.
    """
    if not series:
        raise CorpStatsError("empty lemma series")
    counts = Counter(series)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    top = ranked[:10]
    boundary_tie = len(ranked) > 10 and ranked[10][1] == top[-1][1]
    covered = sum(c for _, c in top)
    return TenMflResult(covered / len(series), [lemma for lemma, _ in top],
                        boundary_tie)


@dataclass
class ReferentRecord:
    """A discourse referent with its mention history and annotation labels."""
    referent_id: str
    mentions: list[tuple[int, int]]            # (sentence index, token index)
    givenness: str | None = None               # old|new|acc-inf|acc-gen|acc-sit|non-spec|kind
    animacy: str | None = None
    realization: str | None = None             # null|personal-pronoun|proper-noun|common-noun|other
    relation: str | None = None                # sub|obj|obl|comp|adv
    antecedent: tuple[int, int] | None = None

    def __post_init__(self):
        for a, b in zip(self.mentions, self.mentions[1:]):
            if b <= a:
                raise CorpStatsError(
                    f"referent {self.referent_id}: mention positions not increasing")


def anaphoric_distance(sentence_lengths: list[int],
                       antecedent: tuple[int, int] | None,
                       anaphor: tuple[int, int]) -> int | None:
    """Tokens strictly between an antecedent and its anaphor.

    Positions are (sentence index, token index); None when there is no
    antecedent link.
    """
    if antecedent is None:
        return None
    offsets = [0]
    for ln in sentence_lengths:
        offsets.append(offsets[-1] + ln)

    def flat(pos):
        s, t = pos
        if not 0 <= s < len(sentence_lengths) or not 0 <= t < sentence_lengths[s]:
            raise CorpStatsError(f"position {pos} outside the document")
        return offsets[s] + t

    return abs(flat(anaphor) - flat(antecedent)) - 1


def pickup_rate(record: ReferentRecord, at_sentence: int, window: int) -> int:
    """Mentions of the referent in the preceding ``window`` sentences.

    The current sentence is excluded; the windows used throughout the
    analysis are 1, 5, 30 and 60 but any positive value is accepted.
    """
    if window < 1:
        raise CorpStatsError("window must be >= 1")
    lo = at_sentence - window
    return sum(1 for s, _ in record.mentions if lo <= s < at_sentence)


# Additive topicworthiness weights. The null-subject bonus skips
# candidates whose givenness is listed in ``null_exceptions``; the
# published description groups that exception ambiguously, so the set is
# configurable (widen to {"non-spec", "kind", "new"} for the other
# reading). A bonus set to 0 (a table, every entry 0) is switched off.
@dataclass
class TopicWeights:
    givenness: dict[str, int] = field(default_factory=lambda: {
        "old": 15, "new": 0, "acc-inf": 10, "acc-gen": 5, "acc-sit": 13,
    })
    saliency_bonus: int = 10
    word_order_bonus: int = 15
    null_realization: int = 30
    null_exceptions: frozenset[str] = frozenset({"non-spec"})
    personal_pronoun: int = 5
    human_proper_noun: int = 5
    relation: dict[str, int] = field(default_factory=lambda: {
        "sub": 10, "obj": 5, "obl": 2, "comp": 1, "adv": 1,
    })
    animacy: dict[str, int] = field(default_factory=lambda: {
        "human": 10, "org": 5, "animal": 3, "concrete": 3,
        "time": 0, "place": 0, "nonconc": 0, "veh": 0,
    })
    antecedent_bonus: int = 2


DEFAULT_WEIGHTS = TopicWeights()


@dataclass
class TopicCandidate:
    givenness: str
    animacy: str
    realization: str
    relation: str
    saliency: int = 0                 # mentions in the 30 preceding sentences
    antecedent_outranks: bool = False


def topic_score(candidate: TopicCandidate,
                sentence_candidates: list[TopicCandidate] | None = None,
                weights: TopicWeights = DEFAULT_WEIGHTS) -> int:
    """Topicworthiness of one nominal relative to its sentence.

    The word-order bonus goes to the linearly first candidate only; the
    saliency bonus to every candidate tied for the highest 30-sentence
    pick-up count. With no sentence context the candidate is scored
    alone and receives both.
    """
    missing = [
        name for name in ("givenness", "animacy", "realization", "relation")
        if getattr(candidate, name) in (None, "")
    ]
    if missing:
        raise CorpStatsError(f"candidate missing labels: {', '.join(missing)}")
    ctx = sentence_candidates or [candidate]
    pos = next((i for i, c in enumerate(ctx) if c is candidate), None)
    if pos is None:
        raise CorpStatsError("candidate not among the sentence candidates")

    score = weights.givenness.get(candidate.givenness, 0)

    if candidate.saliency == max(c.saliency for c in ctx):
        score += weights.saliency_bonus
    if pos == 0:
        score += weights.word_order_bonus
    if candidate.realization == "null":
        if candidate.givenness not in weights.null_exceptions:
            score += weights.null_realization
    elif candidate.realization == "personal-pronoun":
        score += weights.personal_pronoun
    elif candidate.realization == "proper-noun" and candidate.animacy == "human":
        score += weights.human_proper_noun
    score += weights.relation.get(candidate.relation, 0)
    score += weights.animacy.get(candidate.animacy, 0)
    if candidate.antecedent_outranks:
        score += weights.antecedent_bonus
    return score


def score_sentence(candidates: list[TopicCandidate],
                   weights: TopicWeights = DEFAULT_WEIGHTS) -> list[int]:
    return [topic_score(c, candidates, weights) for c in candidates]


# Orthographic merges for mixed Church Slavonic / East Slavic lemma
# comparisons: je > e, nasals to ja/ju, jat to e, y-variants merged,
# word-final ii/yi to weak jers, Tort metathesis variants united.
LEMMA_REWRITES: tuple[tuple[str, str], ...] = (
    ("je", "e"),
    ("ę", "ja"),
    ("ję", "ja"),
    ("ǫ", "ju"),
    ("jǫ", "ju"),
    ("ě", "e"),
    ("ы", "y"),
)


def normalize_lemma(lemma: str) -> str:
    out = lemma
    for old, new in LEMMA_REWRITES:
        out = out.replace(old, new)
    if out.endswith("ii"):
        out = out[:-2] + "ь"
    elif out.endswith("yi"):
        out = out[:-2] + "ъ"
    return out
