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
