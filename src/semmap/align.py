"""Bidirectional lexical translation models and one-to-one alignment.

A position-independent lexical model (IBM Model 1, estimated by EM from
uniform initialization) is trained in both directions for each
pivot/target pair over every shared verse. Argmax links are built only
over the verses that hold a pivot occurrence, the only links a row can
use; they are intersected into a one-to-one table and pivot tokens
without a surviving link become NULL. Rare aligned types can be
reassigned to NULL corpus-wide.

Each pair's verses are coded once as integer arrays (``Bitext``). EM
and the argmax work on the flattened (verse, token, token) cells with
``np.bincount`` and ``reduceat``, adding in the order a per-verse loop
would, so tables and links do not depend on the batching. One E-step
serves all cells: a probability that underflowed to 0 just weighs 0.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tsv

__all__ = [
    "AlignError",
    "Bitext",
    "TranslationModel",
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


class _Side(NamedTuple):
    """One side of a bitext: its sorted types, every verse's tokens coded
    and concatenated in verse order, and each verse's token count and
    first token."""
    types: list[str]
    codes: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray

    @classmethod
    def encode(cls, verses: list[list[str]]) -> "_Side":
        types = sorted({tok for toks in verses for tok in toks})
        index = {form: k for k, form in enumerate(types)}
        codes = np.array([index[tok] for toks in verses for tok in toks], dtype=np.int32)
        lengths = np.array([len(toks) for toks in verses], dtype=np.int32)
        return cls(types, codes, lengths, _starts(lengths))

    def rows(self, verses: np.ndarray) -> "_Side":
        """The verses at the ascending indices ``verses``, with the same
        ``types``, so every code and its form order are kept."""
        lengths = self.lengths[verses]
        starts = _starts(lengths)
        take = np.repeat(self.starts[verses] - starts, lengths) + np.arange(lengths.sum())
        return _Side(self.types, self.codes[take], lengths, starts)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Each verse's first token in the concatenation of verses of ``lengths``."""
    starts = np.zeros(len(lengths), dtype=np.int32)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


@dataclass(frozen=True, eq=False)
class Bitext:
    """Verse pairs with the types of each side coded as ints.

    ``ids`` names the verses. Codes index each side's sorted types, so
    comparing two codes compares their forms as ``str <`` does.
    """
    ids: list
    source: _Side
    target: _Side

    @classmethod
    def of(cls, verse_pairs) -> "Bitext":
        """Code a sequence of (source tokens, target tokens), whose ids
        are its positions, or a mapping from verse id to such a pair; a
        ``Bitext`` is returned as it is."""
        if isinstance(verse_pairs, Bitext):
            return verse_pairs
        if isinstance(verse_pairs, Mapping):
            ids, pairs = list(verse_pairs), list(verse_pairs.values())
        else:
            pairs = list(verse_pairs)
            ids = list(range(len(pairs)))
        return cls(ids, _Side.encode([p[0] for p in pairs]),
                   _Side.encode([p[1] for p in pairs]))

    def swapped(self) -> "Bitext":
        """The same verses with source and target exchanged (no recoding)."""
        return Bitext(self.ids, self.target, self.source)

    def rows(self, verses) -> "Bitext":
        """The verses at the ascending indices ``verses`` (no recoding)."""
        verses = np.asarray(verses, dtype=np.int64)
        return Bitext([self.ids[k] for k in verses.tolist()],
                      self.source.rows(verses), self.target.rows(verses))


def _cells(outer: _Side, inner: _Side):
    """Every (outer token, inner token) pair of a verse, verse by verse.

    Returns the outer and the inner token index (into ``codes``) of each
    cell, the outer position varying slowest within a verse, and per
    outer token its number of cells and its first cell. A verse with an
    empty side has no cells.
    """
    run = np.repeat(inner.lengths, outer.lengths)
    outer_idx = np.repeat(np.arange(len(outer.codes), dtype=np.int32), run)
    first = np.zeros(len(run), dtype=np.int64)
    np.cumsum(run[:-1], out=first[1:])
    shift = np.repeat(np.repeat(inner.starts, outer.lengths) - first, run)
    inner_idx = (np.arange(len(outer_idx), dtype=np.int64) + shift).astype(np.int32)
    return outer_idx, inner_idx, run, first


@dataclass(eq=False)
class TranslationModel:
    """Lexical table of p(target type | source type) over co-occurring pairs.

    ``pairs`` holds the sorted keys ``source_code * len(target_types) +
    target_code`` and ``probs`` their probabilities; distributions are
    normalized per source type. ``loglik`` records the bitext
    log-likelihood after each EM iteration.
    """
    source_types: list[str]
    target_types: list[str]
    pairs: np.ndarray
    probs: np.ndarray
    iterations: int
    loglik: list[float]

    @functools.cached_property
    def t(self) -> dict:
        """The table as {(source_type, target_type): probability}."""
        width = len(self.target_types)
        return {(self.source_types[k // width], self.target_types[k % width]): p
                for k, p in zip(self.pairs.tolist(), self.probs.tolist())}

    def prob(self, source: str, target: str) -> float:
        return self.t.get((source, target), 0.0)


@dataclass(frozen=True)
class PivotParallel:
    verse_id: str
    pivot_index: int
    form: str | None


def train_em(bitext, iterations: int = 5) -> TranslationModel:
    """Estimate the lexical table by EM (IBM Model 1) over sentence pairs.

    ``bitext`` is a ``Bitext`` or a sequence of (source tokens, target
    tokens). Uniform initialization makes the procedure fully
    deterministic. Every sum runs over the cells of each verse in one
    order (target position outer, source position inner) through
    ``np.bincount``, which adds its weights in array order, so the table
    does not depend on how the cells are batched.
    """
    bitext = Bitext.of(bitext)
    if not bitext.ids:
        raise AlignError("empty bitext")
    if iterations < 1:
        raise AlignError("iterations must be >= 1")
    src, tgt = bitext.source, bitext.target
    width = len(tgt.types)
    tgt_idx, src_idx, run, _ = _cells(tgt, src)
    s = src.codes[src_idx]
    keys, pair = np.unique(s.astype(np.int64) * width + tgt.codes[tgt_idx],
                           return_inverse=True)
    pair = pair.astype(np.int32)
    pair_src = keys // width
    # uniform over target types co-occurring with each source type
    t = 1.0 / np.bincount(pair_src, minlength=len(src.types))[pair_src]
    inv_len = np.repeat(1.0 / np.maximum(src.lengths, 1), tgt.lengths)

    loglik_trace: list[float] = []
    for _ in range(iterations):
        p = t[pair]
        z = np.bincount(tgt_idx, weights=p, minlength=len(tgt.codes))
        zc = np.repeat(z, run)   # z[tgt_idx], as a target token's cells are contiguous
        # zc > 0, as a target token's heaviest cell keeps t >= 1 / (its verse's
        # source tokens * all target tokens). Adding a 0 weight leaves a sum
        # as it was, a key with no p > 0 has t = 0 already, and totals > 0
        w = p / zc
        counts = np.bincount(pair, weights=w, minlength=len(keys))
        totals = np.bincount(s, weights=w, minlength=len(src.types))
        t = counts / totals[pair_src]
        seen = z > 0.0
        ll = float(np.sum(np.log(z[seen] * inv_len[seen])))
        if loglik_trace:
            # EM guarantee, checked each iteration; tolerance 1e-9 taken
            # relative to the likelihood magnitude so corpus size does not
            # turn float noise into spurious failures
            tol = 1e-9 * max(1.0, abs(loglik_trace[-1]))
            if ll < loglik_trace[-1] - tol:
                raise AlignError(
                    f"EM log-likelihood decreased: {loglik_trace[-1]} -> {ll}")
        loglik_trace.append(ll)
    return TranslationModel(src.types, tgt.types, keys, t, iterations, loglik_trace)


def _recode(types: list[str], model_types: list[str]) -> np.ndarray:
    """Each of ``types`` as its code in ``model_types``, -1 when absent."""
    index = {form: k for k, form in enumerate(model_types)}
    return np.array([index.get(form, -1) for form in types], dtype=np.int32)


def argmax_links(model: TranslationModel, verse_pairs,
                 direction: str) -> dict[str, set[tuple[int, int]]]:
    """Per-verse argmax links, always expressed as (pivot_index, target_index).

    ``verse_pairs`` is a ``Bitext`` or a mapping from verse id to (pivot
    tokens, target tokens). Direction 'fwd' assigns each pivot token its
    best target token under a pivot->target model; 'rev' assigns each
    target token its best pivot token under a target->pivot model. The
    best token has the highest probability, then the lexicographically
    smaller form, then the lower index; a token whose every probability
    is 0 gets no link.
    """
    if direction not in ("fwd", "rev"):
        raise AlignError("direction must be 'fwd' or 'rev'")
    bitext = Bitext.of(verse_pairs)
    src, tgt = bitext.source, bitext.target
    if direction == "rev":
        src, tgt = tgt, src
    src_idx, tgt_idx, run, first = _cells(src, tgt)
    s = _recode(src.types, model.source_types)[src.codes[src_idx]]
    f = _recode(tgt.types, model.target_types)[tgt.codes[tgt_idx]]
    keys = s.astype(np.int64) * len(model.target_types) + f
    at = np.searchsorted(model.pairs, keys)
    # p(f | s) per cell: 0 unless both forms are in the model and the
    # pair is in its table
    known = (s >= 0) & (f >= 0) & (at < len(model.pairs))
    known[known] = model.pairs[at[known]] == keys[known]
    p = np.zeros(len(keys))
    p[known] = model.probs[at[known]]
    # a source token's cells are contiguous; keep the highest p, then the
    # smaller form (codes follow the form order), then the lower index
    tokens = np.flatnonzero(run)
    best = np.maximum.reduceat(p, first[tokens])
    tie = p == np.repeat(best, run[tokens])
    rank = np.where(tie, f * np.int64(len(tgt.codes)) + tgt_idx, np.iinfo(np.int64).max)
    rank = np.minimum.reduceat(rank, first[tokens])
    linked = best > 0.0
    src_idx, tgt_idx = tokens[linked], rank[linked] % len(tgt.codes)
    verse = np.repeat(np.arange(len(bitext.ids), dtype=np.int32), src.lengths)[src_idx]
    i = (src_idx - src.starts[verse]).tolist()
    j = (tgt_idx - tgt.starts[verse]).tolist()
    links = zip(i, j) if direction == "fwd" else zip(j, i)
    out: dict = {vid: set() for vid in bitext.ids}
    for v, link in zip(verse.tolist(), links):
        out[bitext.ids[v]].add(link)
    return out


def symmetrize(fwd: dict[str, set[tuple[int, int]]],
               rev: dict[str, set[tuple[int, int]]]) -> dict[str, set[tuple[int, int]]]:
    """Intersect forward and reverse argmax links; one-to-one by construction.

    Returns per-verse links (pivot_index, target_index).
    """
    if set(fwd.keys()) != set(rev.keys()):
        missing = set(fwd.keys()) ^ set(rev.keys())
        raise AlignError(f"asymmetric input: verses {sorted(missing)[:5]} ...")
    return {vid: fwd[vid] & rev[vid] for vid in fwd}


def extract_parallels(table: dict[str, set[tuple[int, int]]],
                      pivot_tokens: dict[str, list[str]],
                      target_tokens: dict[str, list[str]],
                      pivot_types: set[str]) -> list[PivotParallel]:
    """Resolve each pivot-type occurrence to its aligned form or NULL.

    One row per occurrence of any type in ``pivot_types`` within the
    verses covered by the ``symmetrize`` links, ordered by verse id then
    token index.
    """
    rows: list[PivotParallel] = []
    for vid in sorted(table):
        toks = pivot_tokens.get(vid, [])
        tgt = target_tokens.get(vid, [])
        linked = dict(table[vid])
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

    Only verses present on both sides are used. Both models train on
    every shared verse; links are built only over the shared verses that
    hold a pivot occurrence, since no other link reaches a row. Pivot
    occurrences in verses missing from the target side are reported as
    NULL rows so the usage matrix keeps a cell for every row.
    """
    common = sorted(set(pivot_verses) & set(target_verses))
    if not common:
        raise AlignError("no shared verses between pivot and target")
    # both sides are coded once and serve both directions
    bitext = Bitext.of({v: (pivot_verses[v], target_verses[v]) for v in common})
    fwd_model = train_em(bitext, iterations=iterations)
    rev_model = train_em(bitext.swapped(), iterations=iterations)
    held = bitext.rows([k for k, v in enumerate(common)
                        if not pivot_types.isdisjoint(pivot_verses[v])])
    fwd = argmax_links(fwd_model, held, "fwd")
    rev = argmax_links(rev_model, held, "rev")
    # a pivot verse the target lacks has no links, so its rows are NULL
    table = dict.fromkeys(set(pivot_verses) - set(target_verses), frozenset())
    table.update(symmetrize(fwd, rev))
    parallels = extract_parallels(table, pivot_verses, target_verses, pivot_types)
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
