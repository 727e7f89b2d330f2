"""Bidirectional lexical translation models and one-to-one alignment.

A position-independent lexical model (IBM Model 1, estimated by EM from
uniform initialization) is trained in both directions for each
pivot/target pair over every shared verse. Each pivot occurrence then
gets one mutual-best check: the forward model's best target token for
it, kept only when the reverse model's best pivot token for that target
token is the occurrence itself. This is the intersection of the two
argmax alignments, which is one-to-one, read where the usage matrix
reads it; an occurrence without a link becomes NULL, and so does one
linked to a target type linked fewer than ``min_count`` times.

Each pair's verses are coded once as integer arrays, one ``_Side`` per
language, and the two sides serve both directions. EM
and the argmax work on the flattened (verse, token, token) cells with
``np.bincount`` and ``reduceat``, adding in the order a per-verse loop
would, so tables and links do not depend on the batching. One E-step
serves all cells: a probability that underflowed to 0 just weighs 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tsv

__all__ = [
    "AlignError",
    "code_labels",
    "TranslationModel",
    "PivotParallel",
    "train_em",
    "argmax_links",
    "evaluate_alignment",
    "usage_points",
    "align_pair",
    "dump_parallels",
    "load_parallels",
]

NULL_MARKER = "NULL"


class AlignError(ValueError):
    pass


def code_labels(labels) -> tuple[np.ndarray, list[str]]:
    """One column of labels as ``int32`` codes into its sorted distinct labels.

    Returns (codes, labels): ``labels`` is ``sorted(set(labels))`` and
    ``codes[i]`` the index of the i-th label in it.
    """
    names = sorted(set(labels))
    index = {name: code for code, name in enumerate(names)}
    return np.array([index[label] for label in labels], dtype=np.int32), names


class _Side(NamedTuple):
    """One side of a bitext: its sorted types, every verse's tokens coded
    and concatenated in verse order, and each verse's token count and
    first token.

    Codes index the sorted types, so comparing two codes compares their
    forms as ``str <`` does.
    """
    types: list[str]
    codes: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray

    @classmethod
    def encode(cls, verses: list[list[str]]) -> "_Side":
        codes, types = code_labels([tok for toks in verses for tok in toks])
        lengths = np.array([len(toks) for toks in verses], dtype=np.int32)
        starts = np.zeros(len(lengths), dtype=np.int32)
        np.cumsum(lengths[:-1], out=starts[1:])
        return cls(types, codes, lengths, starts)


def _cells(outer: _Side, inner: _Side, tokens: np.ndarray):
    """Every (outer token, inner token) pair of a verse, for the outer
    tokens at the indices ``tokens`` (into ``codes``), in their order.

    Returns the outer and the inner token index of each cell, the outer
    token varying slowest and the inner one in verse order, and per
    entry of ``tokens`` its number of cells and its first cell. A token
    whose verse has an empty inner side has no cells.
    """
    verse = np.repeat(np.arange(len(outer.lengths), dtype=np.int32), outer.lengths)[tokens]
    run = inner.lengths[verse]
    outer_idx = np.repeat(tokens, run)
    first = np.zeros(len(run), dtype=np.int64)
    np.cumsum(run[:-1], out=first[1:])
    shift = np.repeat(inner.starts[verse] - first, run)
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
    loglik: list[float]


@dataclass(frozen=True)
class PivotParallel:
    verse_id: str
    pivot_index: int
    form: str | None


def train_em(src: _Side, tgt: _Side, iterations: int = 5) -> TranslationModel:
    """Estimate the lexical table by EM (IBM Model 1) over sentence pairs.

    ``src`` and ``tgt`` are the two coded sides, verse ``i`` of one
    paired with verse ``i`` of the other. Uniform initialization makes
    the procedure fully deterministic. Every sum runs over the cells of
    each verse in one order (target position outer, source position
    inner) through ``np.bincount``, which adds its weights in array
    order, so the table does not depend on how the cells are batched.
    """
    if len(src.lengths) == 0:
        raise AlignError("empty bitext")
    if iterations < 1:
        raise AlignError("iterations must be >= 1")
    width = len(tgt.types)
    # each target token's first cell is not needed here; not holding it keeps
    # 8 bytes a token out of the EM loop's peak memory
    tgt_idx, src_idx, run = _cells(tgt, src, np.arange(len(tgt.codes), dtype=np.int32))[:3]
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
    return TranslationModel(src.types, tgt.types, keys, t, loglik_trace)


def argmax_links(model: TranslationModel, source: _Side, target: _Side,
                 tokens) -> np.ndarray:
    """Each of the source tokens ``tokens`` linked to its best target token.

    ``source`` and ``target`` are the sides of the bitext ``model`` was
    trained on, and ``tokens`` indexes ``source.codes`` (in any order,
    repeats allowed). Returns, per entry of ``tokens``, the index into
    ``target.codes`` of the token of its verse with the highest
    probability, then the lexicographically smaller form, then the lower
    index; -1 when every probability is 0 or the target verse is empty.
    """
    tokens = np.asarray(tokens, dtype=np.int32)
    src_idx, tgt_idx, run, first = _cells(source, target, tokens)
    f = target.codes[tgt_idx]
    # every cell's pair co-occurs in a training verse, so it is in the table
    keys = source.codes[src_idx].astype(np.int64) * len(target.types) + f
    p = model.probs[np.searchsorted(model.pairs, keys)]
    # a token's cells are contiguous; keep the highest p, then the
    # smaller form (codes follow the form order), then the lower index
    has = np.flatnonzero(run)
    best = np.maximum.reduceat(p, first[has])
    tie = p == np.repeat(best, run[has])
    rank = np.where(tie, f * np.int64(len(target.codes)) + tgt_idx, np.iinfo(np.int64).max)
    rank = np.minimum.reduceat(rank, first[has])
    linked = best > 0.0
    links = np.full(len(tokens), -1, dtype=np.int64)
    links[has[linked]] = rank[linked] % len(target.codes)
    return links


def evaluate_alignment(parallels: list[PivotParallel],
                       gold: dict[tuple[str, int], str | None]) -> float:
    """Accuracy against a gold sample: identical form, or both NULL.

    A gold occurrence the alignment has no row for raises ``AlignError``
    naming it.
    """
    if not gold:
        raise AlignError("empty evaluation sample")
    by_key = {(p.verse_id, p.pivot_index): p.form for p in parallels}
    hits = 0
    for key, expected in gold.items():
        if key not in by_key:
            raise AlignError(f"the gold occurrence {key} has no row in the alignment")
        hits += by_key[key] == expected
    return hits / len(gold)


def usage_points(pivot_verses: dict[str, list[str]],
                 pivot_types: set[str]) -> list[tuple[str, int]]:
    """(verse id, token index) of each pivot-type token, by verse id then
    index: the rows of every alignment and of the usage matrix."""
    return [(vid, i) for vid in sorted(pivot_verses)
            for i, tok in enumerate(pivot_verses[vid]) if tok in pivot_types]


def align_pair(pivot_verses: dict[str, list[str]],
               target_verses: dict[str, list[str]],
               points: list[tuple[str, int]],
               iterations: int = 5,
               min_count: int = 3) -> list[PivotParallel]:
    """Full per-pair run: train both directions, link each usage point, clean.

    ``points`` are the pivot's usage points, as ``usage_points`` finds
    them in ``pivot_verses``. Both models train on every verse present on
    both sides. A usage point in such a verse takes the forward model's
    best target token, kept only when the reverse model's best pivot
    token for it is the usage point again; a usage point in a verse the
    target lacks is NULL, and so is one linked to a target type that
    fewer than ``min_count`` usage points link to. Returns one row per
    usage point, in order.
    """
    if min_count < 1:
        raise AlignError("min_count must be >= 1")
    common = sorted(set(pivot_verses) & set(target_verses))
    if not common:
        raise AlignError("no shared verses between pivot and target")
    # both sides are coded once and serve both directions
    src = _Side.encode([pivot_verses[v] for v in common])
    tgt = _Side.encode([target_verses[v] for v in common])
    fwd_model = train_em(src, tgt, iterations)
    rev_model = train_em(tgt, src, iterations)
    start = dict(zip(common, src.starts.tolist()))
    # the usage points of the shared verses: their rows and their tokens in src.codes
    rows, tokens = np.array([(r, start[vid] + i) for r, (vid, i) in enumerate(points)
                             if vid in start], dtype=np.int64).reshape(-1, 2).T
    best = argmax_links(fwd_model, src, tgt, tokens)
    hit = np.flatnonzero(best >= 0)
    mutual = hit[argmax_links(rev_model, tgt, src, best[hit]) == tokens[hit]]
    linked = tgt.codes[best[mutual]]
    # a rare link is mostly a misalignment; codes and forms are one to one,
    # so each type's links are counted on its code
    kept = np.bincount(linked, minlength=len(tgt.types))[linked] >= min_count
    code = np.full(len(points), -1)
    code[rows[mutual[kept]]] = linked[kept]
    return [PivotParallel(vid, i, tgt.types[c] if c >= 0 else None)
            for (vid, i), c in zip(points, code.tolist())]


def dump_parallels(parallels: list[PivotParallel]) -> str:
    return tsv.format_rows(
        (p.verse_id, p.pivot_index, p.form if p.form is not None else NULL_MARKER)
        for p in parallels)


def load_parallels(path) -> list[PivotParallel]:
    return [PivotParallel(vid, idx, None if form == NULL_MARKER else form)
            for vid, idx, form in tsv.read_rows(path, str, int, str, key=2)]
