"""Synthetic verse-parallel corpus with planted coexpression schemes.

Three semantic groups of verses (TL/ML/BL) are realized by each planted
doculect according to its scheme: one word per group, shared words
across groups, a NULL group (no counterpart token at all), or two
randomly alternating words in one group for the multi-means subpattern
cases. Six extra pattern-D "backbone" doculects sharpen the Hamming
geometry so the embedding separates the groups cleanly, and three
"noise" doculects pick freely between two words everywhere, giving each
group internal spread the way the real 1400-language corpus does at
scale. Content words translate through a per-doculect bijective
dictionary, so expectation-maximization alignment has a recoverable
ground truth.
"""

from __future__ import annotations

import random
import re
from itertools import accumulate
from pathlib import Path

GROUP_OF_VERSE = ("TL", "ML", "BL")

# planted schemes; None marks a NULL realization
SCHEMES: dict[str, dict[str, list]] = {
    "aaa": {"TL": ["akog"], "ML": ["akog"], "BL": ["akog"]},
    "bbb": {"TL": ["balt"], "ML": ["balt"], "BL": [None]},
    "ccc": {"TL": ["cyn"], "ML": ["cud"], "BL": ["cud"]},
    "ddd": {"TL": ["dtl"], "ML": ["dml"], "BL": ["dbl"]},
    "eee": {"TL": ["ered"], "ML": ["emil"], "BL": ["ered"]},
    "fff": {"TL": ["fa", "fb"], "ML": ["fb"], "BL": ["fc"]},
    "ggg": {"TL": ["ga"], "ML": ["ga", "gb"], "BL": ["gb"]},
    "hhh": {"TL": ["ha"], "ML": ["hb"], "BL": ["ha", "hb"]},
}

EXPECTED_PATTERNS = {
    "aaa": "A", "bbb": "B", "ccc": "C", "ddd": "D",
    "eee": "E", "fff": "D", "ggg": "B", "hhh": "C",
}
EXPECTED_SUBPATTERNS = {"fff": "DxX", "ggg": "BxC", "hhh": "CxE"}
EXPECTED_NULL_FLAGS = {"bbb": ["BL"]}

N_BACKBONE = 6
N_NOISE = 3


def all_schemes(n_backbone: int = N_BACKBONE,
                n_noise: int = N_NOISE) -> dict[str, dict[str, list]]:
    out = dict(SCHEMES)
    for i in range(1, n_backbone + 1):
        iso = f"k{i:02d}"
        out[iso] = {g: [f"{iso}{g.lower()}"] for g in GROUP_OF_VERSE}
    for i in range(1, n_noise + 1):
        iso = f"n{i:02d}"
        pair = [f"{iso}u", f"{iso}v"]
        out[iso] = {g: pair for g in GROUP_OF_VERSE}
    return out


def verse_group(index: int, n_verses: int) -> str:
    return GROUP_OF_VERSE[index * 3 // n_verses]


def build_corpus(out_dir: str | Path, n_verses: int = 300, seed: int = 7,
                 content_vocab: int = 40, content_len: int = 6,
                 n_backbone: int = N_BACKBONE, n_noise: int = N_NOISE):
    """Write the corpus directory and metadata; return planted knowledge.

    The corpus holds the planted schemes plus ``n_backbone`` backbone and
    ``n_noise`` noise doculects. Returns (expected_patterns, anchors,
    pivot_positions) where anchors maps each group to a usage-matrix row
    id deep inside that group.
    """
    assert n_verses % 3 == 0
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    vocab = [f"w{i:02d}" for i in range(content_vocab)]

    verses = []
    pivot_lines = []
    pivot_positions: dict[str, int] = {}
    for i in range(n_verses):
        vid = f"MAT:1:{i}"
        content = rng.sample(vocab, content_len)
        pos = rng.randint(0, content_len)
        toks = content[:pos] + ["when"] + content[pos:]
        pivot_positions[vid] = pos
        verses.append((vid, i, content))
        pivot_lines.append(f"{vid}\t{' '.join(toks)}")
    (out_dir / "eng.txt").write_text("\n".join(pivot_lines) + "\n", encoding="utf-8")

    schemes = all_schemes(n_backbone, n_noise)
    meta_lines = ["eng\tEnglish\tIndo-European\tEurasia\t1900"]
    for iso, scheme in sorted(schemes.items()):
        lines = []
        for vid, i, content in verses:
            group = verse_group(i, n_verses)
            means = scheme[group]
            word = rng.choice(means) if len(means) > 1 else means[0]
            translated = [f"{iso}{w}" for w in content]
            if word is not None:
                slot = rng.randint(0, len(translated))
                translated = translated[:slot] + [word] + translated[slot:]
            lines.append(f"{vid}\t{' '.join(translated)}")
        (out_dir / f"{iso}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        meta_lines.append(f"{iso}\tSynthetic {iso}\tPlanted\tNowhere\t2000")
    (out_dir / "meta.tsv").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")

    third = n_verses // 3
    anchor_verses = {
        "TL": third // 2, "ML": third + third // 2, "BL": 2 * third + third // 2,
    }
    anchors = {
        g: f"MAT:1:{v}#{pivot_positions[f'MAT:1:{v}']}"
        for g, v in anchor_verses.items()
    }
    return EXPECTED_PATTERNS, anchors, pivot_positions


def planted_words(corpus_dir: str | Path) -> dict[str, dict[str, str | None]]:
    """Each planted doculect's realized word per verse id, read back from
    the files ``build_corpus`` wrote: the one token of a verse that is not
    a translated ``<iso>wNN`` content word, or None when the verse has no
    such token. The pivot file ``eng.txt`` is left out."""
    out: dict[str, dict[str, str | None]] = {}
    for path in sorted(Path(corpus_dir).glob("*.txt")):
        if path.stem == "eng":
            continue
        content = re.compile(re.escape(path.stem) + r"w\d+")
        words = out[path.stem] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            vid, text = line.split("\t")
            extra = [t for t in text.split() if not content.fullmatch(t)]
            if len(extra) > 1:
                raise ValueError(f"{path.name} {vid}: more than one planted word: {extra}")
            words[vid] = extra[0] if extra else None
    return out


def zipf_pair(n_verses: int = 1000, seed: int = 0, n_types: int = 3000,
              verse_len: tuple[int, int] = (8, 20), pivot_share: float = 0.4,
              drop_share: float = 0.15, stray_share: float = 0.1):
    """A pivot/target verse pair that is harder to align than ``build_corpus``'s.

    Filler words follow a Zipf law (rank r drawn with weight 1/r) over
    ``n_types`` types per side; the target translates each filler word
    through a bijection of the ranks and shuffles the verse. ``when``
    occurs once in a ``pivot_share`` of the verses, and its counterpart
    is "kogda" (weight 0.7) or "jegda" (0.3), except in a ``drop_share``
    of those verses, which drop it. "kogda" also occurs in a
    ``stray_share`` of the verses without ``when``. Returns (pivot verses,
    target verses, planted), the sides as token lists by verse id, and
    planted the counterpart of each ``when`` by verse id, None where it
    was dropped.
    """
    rng = random.Random(seed)
    ranks = range(n_types)
    zipf = list(accumulate(1.0 / (r + 1) for r in ranks))
    translation = list(ranks)
    rng.shuffle(translation)
    pivot: dict[str, list[str]] = {}
    target: dict[str, list[str]] = {}
    planted: dict[str, str | None] = {}
    for i in range(n_verses):
        vid = f"V:{i:05d}"
        filler = rng.choices(ranks, cum_weights=zipf, k=rng.randint(*verse_len))
        src = [f"p{r}" for r in filler]
        tgt = [f"t{translation[r]}" for r in filler]
        rng.shuffle(tgt)
        if rng.random() < pivot_share:
            src.insert(rng.randint(0, len(src)), "when")
            word = None
            if rng.random() >= drop_share:
                word = "kogda" if rng.random() < 0.7 else "jegda"
            planted[vid] = word
        else:
            word = "kogda" if rng.random() < stray_share else None
        if word is not None:
            tgt.insert(rng.randint(0, len(tgt)), word)
        pivot[vid], target[vid] = src, tgt
    return pivot, target, planted
