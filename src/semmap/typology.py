"""Coexpression-pattern classification and per-cluster means scoring.

Maps each doculect's Kriging areas onto the three core-point groups
(TL/ML/BL), prunes the area dictionary with Fisher-backed heuristics,
classifies the result into the basic patterns A-E or a subpattern
template, and scores means by precision/recall/F1 plus usage points by
prototypicality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tsv
from .align import NULL_MARKER
from .stats import fisher_exact
from .surfaces import contains

__all__ = [
    "TypologyError",
    "GROUPS",
    "AreaDictionary",
    "PatternAssignment",
    "MeansScore",
    "build_dictionary",
    "classify_pattern",
    "classification_to_tsv",
    "score_means",
    "prototypicality",
]

GROUPS = ("TL", "ML", "BL")


class TypologyError(ValueError):
    pass


@dataclass
class AreaDictionary:
    """Meaningful means labels per core-point group, deduplicated."""
    groups: dict[str, list[str]]
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        for g in GROUPS:
            self.groups.setdefault(g, [])
            self.groups[g] = sorted(set(self.groups[g]))

    def to_json(self) -> str:
        """The stored cell: every group, keys sorted, labels sorted and unique."""
        return json.dumps(self.groups, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, cell: str) -> "AreaDictionary":
        """The dictionary of a cell mapping groups to lists of labels; a group left out has none."""
        groups = json.loads(cell, object_pairs_hook=tsv.unique_keys)
        if not isinstance(groups, dict):
            raise TypologyError(f"dictionary {cell!r} is not a JSON object")
        for g, labels in groups.items():
            if g not in GROUPS:
                raise TypologyError(f"dictionary {cell!r}: {g!r} is not one of {GROUPS}")
            if not isinstance(labels, list) or not all(isinstance(m, str) for m in labels):
                raise TypologyError(f"dictionary {cell!r}: {g} is not a list of strings")
        return cls(groups=groups)


@dataclass
class PatternAssignment:
    pattern: str
    subpattern: str | None
    null_flags: list[str]


@dataclass
class MeansScore:
    means: str
    cluster: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def build_dictionary(core_sets: dict[str, np.ndarray], areas: dict[str, list],
                     alpha: float = 0.01) -> AreaDictionary:
    """Map core-point groups to the Kriging areas that matter.

    ``core_sets`` maps each group to its core points' (k, 2) coordinates,
    ``areas`` maps means labels (including the NULL marker) to polygon
    sets at the dictionary probability level.

    Pruning heuristics, applied per group in order: (a) an area unique to
    the group is always kept, and an area shared with other groups
    survives next to it only when a two-sided Fisher test on the
    in-area counts is non-significant at alpha or the shared area holds
    significantly more core points; (b) with no unique area, the
    richest area is kept and others survive only a non-significant
    Fisher test against it; (c) a NULL area counts only when it is the
    sole area containing the group.
    """
    if not core_sets:
        raise TypologyError("no core-point groups given")
    sizes = {g: len(core_sets[g]) for g in core_sets}
    if len(set(sizes.values())) > 1:
        raise TypologyError(f"core sets differ in size: {sizes}")
    k = next(iter(sizes.values()))

    counts: dict[str, dict[str, int]] = {g: {} for g in core_sets}
    # every group's core points in one stack, one containment test per area
    stacked = np.concatenate(list(core_sets.values()))
    for label in sorted(areas):
        polys = areas[label]
        if not polys:
            continue
        per_group = contains(polys, stacked).reshape(len(core_sets), k).sum(axis=1)
        for g, c in zip(core_sets, per_group.tolist()):
            if c > 0:
                counts[g][label] = c

    containing_groups: dict[str, set[str]] = {}
    for g, cmap in counts.items():
        for label in cmap:
            containing_groups.setdefault(label, set()).add(g)

    def proportion_p(c1: int, c2: int) -> float:
        return fisher_exact(c1, k - c1, c2, k - c2, tails="two").p_value

    result: dict[str, list[str]] = {}
    for g in GROUPS:
        cmap = counts.get(g, {})
        lexical = {m: c for m, c in cmap.items() if m != NULL_MARKER}
        if not lexical:
            result[g] = [NULL_MARKER] if NULL_MARKER in cmap else []
            continue
        unique = {m: c for m, c in lexical.items() if containing_groups[m] == {g}}
        kept: list[str] = []
        if unique:
            kept.extend(unique)
            ref = max(unique.values())
            for m in sorted(set(lexical) - set(unique)):
                c = lexical[m]
                # keep a shared competitor unless it holds significantly
                # fewer core points than the best unique area
                if c > ref or proportion_p(c, ref) >= alpha:
                    kept.append(m)
        else:
            ref_label = max(lexical, key=lambda m: (lexical[m], m))
            ref = lexical[ref_label]
            kept.append(ref_label)
            for m in sorted(lexical):
                if m == ref_label:
                    continue
                if proportion_p(ref, lexical[m]) >= alpha:
                    kept.append(m)
        result[g] = kept
    return AreaDictionary(groups=result, counts=counts)


# Pattern templates, basic patterns first: each template fixes, per group
# slot (TL, ML, BL), a set of letters; repeated letters across slots mean
# colexification and "?" marks a group with no area at all. Matching is
# up to a bijective relabeling of the letters, so the concrete means
# labels never matter.
SUBPATTERN_TEMPLATES: list[tuple[tuple[str, str, str], str]] = [
    # the basic patterns: one means per group
    (("X", "X", "X"), "A"),    # TL=ML=BL
    (("X", "X", "Y"), "B"),    # (TL=ML) != BL
    (("X", "Y", "Y"), "C"),    # TL != (ML=BL)
    (("X", "Y", "Z"), "D"),
    (("X", "Y", "X"), "E"),    # (TL=BL) != ML
    (("XY", "Y", "X"), "BxE"),
    (("X", "XY", "Y"), "BxC"),
    (("X", "Y", "XY"), "CxE"),
    (("XW", "Y", "Z"), "D2a"),
    (("X", "YW", "Z"), "D2b"),
    (("X", "Y", "ZW"), "D2c"),
    (("XZ", "Y", "Y"), "C3"),
    (("X", "YZ", "X"), "E3"),
    (("X", "X", "YZ"), "B3"),
    (("XY", "X", "X"), "CxA"),
    (("X", "XY", "X"), "ExA"),
    (("X", "X", "XY"), "BxA"),
    (("X", "YX", "Z"), "DxX"),
    (("X", "Y", "ZX"), "DxX"),
    (("XY", "Y", "Z"), "DxX"),
    (("X", "Y", "ZY"), "DxX"),
    (("XZ", "Y", "Z"), "DxX"),
    (("X", "XY", "XY"), "AxC"),
    (("XY", "X", "XY"), "AxE"),
    (("XY", "XY", "X"), "AxB"),
    (("XYZ", "X", "X"), "AxC3"),
    (("X", "XYZ", "X"), "AxE3"),
    (("X", "X", "XYZ"), "AxB3"),
    (("XYZ", "X", "Y"), "D-Other"),
    (("X", "XYZ", "Y"), "D-Other"),
    (("X", "Y", "XYZ"), "D-Other"),
    (("XY", "XY", "XY"), "A2"),
    (("?", "X", "X"), "A?C"),
    (("?", "X", "Y"), "B?D?E"),
    (("X", "?", "X"), "A?E"),
    (("X", "?", "Y"), "B?C?D"),
    (("X", "X", "?"), "A?B"),
    (("X", "Y", "?"), "C?D?E"),
]


def _canon(slots: tuple[frozenset, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a group->set structure under item relabeling.

    Each item is named by its membership signature, the tuple of slot
    indices holding it; the sorted signatures are the key. A relabeling
    keeps every signature, and two structures with the same signatures
    map onto each other by pairing items of equal signature.
    """
    items = {it for slot in slots for it in slot}
    return tuple(sorted(tuple(i for i, slot in enumerate(slots) if it in slot)
                        for it in items))


def _template_lookup() -> dict:
    table = {}
    for slots, label in SUBPATTERN_TEMPLATES:
        parsed = tuple(
            frozenset() if s == "?" else frozenset(s) for s in slots
        )
        key = _canon(parsed)
        prev = table.get(key)
        if prev is not None and prev != label:
            raise AssertionError(f"ambiguous subpattern templates: {prev} vs {label}")
        table[key] = label
    return table


_TEMPLATES_CANON = _template_lookup()


def classify_pattern(adict: AreaDictionary) -> PatternAssignment:
    """Total, deterministic classification of an area dictionary.

    Every dictionary is matched, up to relabeling, against the template
    table (NULL is a means like any other). The label's leading letter is
    the main pattern; a label longer than one letter is also the
    subpattern, so single-means dictionaries get a basic pattern A-E and
    no subpattern. Dictionaries with an empty group are never assigned a
    main pattern: they classify as unclassified-no-area, with the
    matching ?-template recorded when one exists. Anything else that
    fails to match is unclassified-other.
    """
    sets = tuple(frozenset(adict.groups.get(g, [])) for g in GROUPS)
    null_flags = [g for g, s in zip(GROUPS, sets) if NULL_MARKER in s]
    label = _TEMPLATES_CANON.get(_canon(sets))
    if any(len(s) == 0 for s in sets):
        return PatternAssignment("unclassified-no-area", label, null_flags)
    if label is None:
        return PatternAssignment("unclassified-other", None, null_flags)
    return PatternAssignment(label[0], label if len(label) > 1 else None, null_flags)


def classification_to_tsv(dictionaries) -> str:
    """The table of (iso, AreaDictionary) pairs; "_" marks no subpattern or no NULL flag."""
    rows = [("iso", "pattern", "subpattern", "null_flags", "dictionary")]
    for iso, adict in dictionaries:
        res = classify_pattern(adict)
        rows.append((iso, res.pattern, res.subpattern or "_",
                     ",".join(res.null_flags) or "_", adict.to_json()))
    return tsv.format_rows(rows)


def score_means(assignments, column, cluster: int) -> tuple[list[MeansScore], MeansScore]:
    """Precision/recall/F1 of every means attested inside a cluster.

    For one doculect, whose ``column`` is coded as (codes, sorted labels)
    (``ParallelUsageMatrix.coded``): tp counts the means' usage points
    inside the cluster, fp its points outside, fn the other means' points
    inside. Returns all scores in label order plus the best one (max F1,
    lexicographic means label on ties). NULL is the label
    ``NULL_MARKER``, scored like any other means.
    """
    codes, labels = column
    assignments = np.asarray(assignments)
    if len(codes) != assignments.shape[0]:
        raise TypologyError("labels must cover every embedded point")
    inside = assignments == cluster
    if not inside.any():
        raise TypologyError(f"cluster {cluster} is empty")
    cluster_size = int(inside.sum())
    # per means: its points, and its points inside the cluster
    total = np.bincount(codes, minlength=len(labels))
    inner = np.bincount(codes[inside], minlength=len(labels))
    scores: list[MeansScore] = []
    for m in np.flatnonzero(inner).tolist():
        tp = int(inner[m])
        fp = int(total[m]) - tp
        fn = cluster_size - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(MeansScore(labels[m], int(cluster), tp, fp, fn, precision, recall, f1))
    best = min(scores, key=lambda s: (-s.f1, s.means))
    return scores, best


def prototypicality(cluster: int, best_per_doculect: dict[str, str],
                    matrix, assignments) -> list[tuple[str, int]]:
    """Score usage points by how many doculects use their cluster-best means.

    Returns (row_id, score) pairs ranked by descending score, row id
    breaking ties.
    """
    rows = np.flatnonzero(np.asarray(assignments) == cluster)
    hits = np.count_nonzero(matrix.codes[rows] == matrix.codes_of(best_per_doculect), axis=1)
    scores = [(matrix.row_ids[i], s) for i, s in zip(rows.tolist(), hits.tolist())]
    scores.sort(key=lambda t: (-t[1], t[0]))
    return scores
