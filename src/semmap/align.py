"""Bidirectional lexical translation models and one-to-one alignment.

A position-independent lexical model (estimated by EM from uniform
initialization) is trained in both directions for each pivot/target
pair; argmax links are intersected into a one-to-one table and pivot
tokens without a surviving link become NULL. Rare aligned types can be
reassigned to NULL corpus-wide.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from . import tsv

__all__ = [
    "AlignError",
    "TranslationModel",
    "AlignmentTable",
    "PivotParallel",
    "train_em",
    "argmax_links",
    "symmetrize",
    "extract_parallels",
    "reassign_nulls",
    "evaluate_alignment",
    "align_pair",
    "dump_parallels",
    "load_parallels",
]

NULL_MARKER = "NULL"


class AlignError(ValueError):
    pass


@dataclass
class TranslationModel:
    """Lexical table t[(source_type, target_type)] -> probability.

    Distributions are normalized per source type. ``loglik`` records the
    bitext log-likelihood after each EM iteration.
    """
    t: dict
    direction: str
    iterations: int
    loglik: list[float] = field(default_factory=list)

    def prob(self, source: str, target: str) -> float:
        return self.t.get((source, target), 0.0)


@dataclass
class AlignmentTable:
    """Per-verse one-to-one links (pivot_index, target_index)."""
    links: dict[str, set[tuple[int, int]]]

    def verse_ids(self):
        return self.links.keys()


@dataclass(frozen=True)
class PivotParallel:
    verse_id: str
    pivot_index: int
    form: str | None


def train_em(bitext: list[tuple[list[str], list[str]]],
             iterations: int = 5) -> TranslationModel:
    """Estimate the lexical table by EM over sentence pairs.

    ``bitext`` pairs source-token with target-token sequences. Uniform
    initialization makes the procedure fully deterministic.
    """
    if not bitext:
        raise AlignError("empty bitext")
    if iterations < 1:
        raise AlignError("iterations must be >= 1")

    # uniform over target types co-occurring with each source type
    cooc: dict[str, set[str]] = defaultdict(set)
    for src, tgt in bitext:
        for s in set(src):
            cooc[s].update(tgt)
    t: dict = {}
    for s, targets in cooc.items():
        u = 1.0 / len(targets)
        for f in targets:
            t[(s, f)] = u

    loglik_trace: list[float] = []
    for _ in range(iterations):
        counts: dict = defaultdict(float)
        totals: dict = defaultdict(float)
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
        if loglik_trace:
            # EM guarantee, checked each iteration; tolerance 1e-9 taken
            # relative to the likelihood magnitude so corpus size does not
            # turn float noise into spurious failures
            tol = 1e-9 * max(1.0, abs(loglik_trace[-1]))
            if ll < loglik_trace[-1] - tol:
                raise AlignError(
                    f"EM log-likelihood decreased: {loglik_trace[-1]} -> {ll}")
        loglik_trace.append(ll)
    return TranslationModel(t=t, direction="src->tgt", iterations=iterations,
                            loglik=loglik_trace)


def _best_index(model: TranslationModel, source: str, targets: list[str]) -> int | None:
    best_j, best_p, best_form = None, 0.0, None
    for j, f in enumerate(targets):
        p = model.prob(source, f)
        if p <= 0.0:
            continue
        # ties broken by lexicographically smaller target form, then index
        if best_j is None or p > best_p or (p == best_p and f < best_form):
            best_j, best_p, best_form = j, p, f
    return best_j


def argmax_links(model: TranslationModel, verse_pairs: dict[str, tuple[list[str], list[str]]],
                 direction: str) -> dict[str, set[tuple[int, int]]]:
    """Per-verse argmax links, always expressed as (pivot_index, target_index).

    direction 'fwd' assigns each pivot token its best target token under a
    pivot->target model; 'rev' assigns each target token its best pivot
    token under a target->pivot model.
    """
    if direction not in ("fwd", "rev"):
        raise AlignError("direction must be 'fwd' or 'rev'")
    out: dict[str, set[tuple[int, int]]] = {}
    for vid, (pivot_toks, target_toks) in verse_pairs.items():
        links: set[tuple[int, int]] = set()
        if direction == "fwd":
            for i, s in enumerate(pivot_toks):
                j = _best_index(model, s, target_toks)
                if j is not None:
                    links.add((i, j))
        else:
            for j, f in enumerate(target_toks):
                i = _best_index(model, f, pivot_toks)
                if i is not None:
                    links.add((i, j))
        out[vid] = links
    return out


def symmetrize(fwd: dict[str, set[tuple[int, int]]],
               rev: dict[str, set[tuple[int, int]]]) -> AlignmentTable:
    """Intersect forward and reverse argmax links; one-to-one by construction."""
    if set(fwd.keys()) != set(rev.keys()):
        missing = set(fwd.keys()) ^ set(rev.keys())
        raise AlignError(f"asymmetric input: verses {sorted(missing)[:5]} ...")
    links = {vid: fwd[vid] & rev[vid] for vid in fwd}
    return AlignmentTable(links=links)


def extract_parallels(table: AlignmentTable,
                      pivot_tokens: dict[str, list[str]],
                      target_tokens: dict[str, list[str]],
                      pivot_types: set[str]) -> list[PivotParallel]:
    """Resolve each pivot-type occurrence to its aligned form or NULL.

    One row per occurrence of any type in ``pivot_types`` within the
    verses covered by the table, ordered by verse id then token index.
    """
    rows: list[PivotParallel] = []
    for vid in sorted(table.links.keys()):
        toks = pivot_tokens.get(vid, [])
        tgt = target_tokens.get(vid, [])
        linked = dict(table.links[vid])
        for i, tok in enumerate(toks):
            if tok not in pivot_types:
                continue
            j = linked.get(i)
            form = tgt[j] if j is not None and j < len(tgt) else None
            rows.append(PivotParallel(vid, i, form))
    return rows


def reassign_nulls(parallels: list[PivotParallel], min_count: int = 3) -> list[PivotParallel]:
    """NULL out aligned types occurring fewer than min_count times corpus-wide.

    Low-frequency parallels are overwhelmingly misalignments (auxiliaries
    glued to participles and the like). Idempotent for a fixed threshold.
    """
    if min_count < 1:
        raise AlignError("min_count must be >= 1")
    counts = Counter(p.form for p in parallels if p.form is not None)
    return [
        p if p.form is None or counts[p.form] >= min_count
        else PivotParallel(p.verse_id, p.pivot_index, None)
        for p in parallels
    ]


def evaluate_alignment(parallels: list[PivotParallel],
                       gold: dict[tuple[str, int], str | None]) -> float:
    """Accuracy against a gold sample: identical form, or both NULL."""
    if not gold:
        raise AlignError("empty evaluation sample")
    by_key = {(p.verse_id, p.pivot_index): p.form for p in parallels}
    hits = 0
    for key, expected in gold.items():
        got = by_key.get(key)
        if got == expected:
            hits += 1
    return hits / len(gold)


def align_pair(pivot_verses: dict[str, list[str]],
               target_verses: dict[str, list[str]],
               pivot_types: set[str],
               iterations: int = 5,
               min_count: int = 3) -> list[PivotParallel]:
    """Full per-pair run: train both directions, symmetrize, extract, clean.

    Only verses present on both sides are used; pivot occurrences in
    verses missing from the target side are reported as NULL rows so the
    usage matrix keeps a cell for every row.
    """
    common = sorted(set(pivot_verses) & set(target_verses))
    if not common:
        raise AlignError("no shared verses between pivot and target")
    fwd_bitext = [(pivot_verses[v], target_verses[v]) for v in common]
    rev_bitext = [(target_verses[v], pivot_verses[v]) for v in common]
    fwd_model = train_em(fwd_bitext, iterations=iterations)
    rev_model = train_em(rev_bitext, iterations=iterations)
    pairs = {v: (pivot_verses[v], target_verses[v]) for v in common}
    fwd = argmax_links(fwd_model, pairs, "fwd")
    rev = argmax_links(rev_model, pairs, "rev")
    table = symmetrize(fwd, rev)
    parallels = extract_parallels(table, pivot_verses, target_verses, pivot_types)
    covered = set(common)
    for vid in sorted(set(pivot_verses) - covered):
        for i, tok in enumerate(pivot_verses[vid]):
            if tok in pivot_types:
                parallels.append(PivotParallel(vid, i, None))
    parallels.sort(key=lambda p: (p.verse_id, p.pivot_index))
    return reassign_nulls(parallels, min_count=min_count)


def dump_parallels(parallels: list[PivotParallel], header: str | None = None) -> str:
    return tsv.format_rows(
        ((p.verse_id, p.pivot_index, p.form if p.form is not None else NULL_MARKER)
         for p in parallels),
        header,
    )


def load_parallels(path) -> list[PivotParallel]:
    return [PivotParallel(vid, idx, None if form == NULL_MARKER else form)
            for vid, idx, form in tsv.read_rows(path, str, int, str)]
