"""Loading, selection and normalization of verse-aligned parallel texts.

A corpus directory holds one file per translation, named
``<iso>[-variant].txt``, with one verse per line as
``BOOK:CHAPTER:VERSE<TAB>text``. Language metadata arrives as a TSV with
columns ``iso  name  family  macroarea  year``; a row whose first column
is a file's stem (``deu-1912``) describes that file ahead of its iso's row.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from . import tsv

__all__ = [
    "Doculect",
    "CorpusManifest",
    "CorpusError",
    "normalize",
    "select_translation",
    "load_doculect_file",
    "load_metadata",
    "load_corpus",
]


class CorpusError(ValueError):
    pass


@dataclass
class Doculect:
    iso: str
    name: str
    family: str = "unknown"
    macroarea: str = "unknown"
    year: int | None = None
    verses: dict[str, str] = field(default_factory=dict)
    stem: str = ""   # the file name without .txt, which tells variants apart

    def __post_init__(self):
        if not self.iso:
            raise CorpusError("doculect iso code must be non-empty")

    @property
    def coverage(self) -> int:
        return len(self.verses)


@dataclass
class CorpusManifest:
    doculects: dict[str, Doculect]
    pivot_iso: str

    def __post_init__(self):
        if self.pivot_iso not in self.doculects:
            raise CorpusError(f"pivot doculect {self.pivot_iso!r} not in corpus")

    @property
    def pivot(self) -> Doculect:
        return self.doculects[self.pivot_iso]


def normalize(text: str) -> list[str]:
    """Tokenize a verse: lowercase, split on whitespace, strip punctuation.

    Only Unicode-P characters at token edges are removed; interior
    punctuation (apostrophes, glottal marks, hyphens) is lexical in many
    doculects and is kept. Tokens consisting solely of punctuation vanish.
    """
    out = []
    for raw in text.lower().split():
        if raw.isalnum():
            # no letter or digit is Unicode-P, so there is nothing to strip
            out.append(raw)
            continue
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            out.append(raw[start:end])
    return out


# Versions whose verse coverage differs by less than this many verses
# count as equal-coverage, in which case the most recent wins.
COVERAGE_TIE_GAP = 2000


def select_translation(candidates: list[Doculect]) -> Doculect:
    """Pick one translation among several sharing an iso code.

    Widest verse coverage wins; candidates within COVERAGE_TIE_GAP verses
    of the best are treated as equal coverage and the most recent of them
    is picked. An unknown year sorts oldest; remaining ties go to the
    greater coverage, then name, then file stem. For candidates with
    distinct stems the result is independent of the input order.
    """
    if not candidates:
        raise CorpusError("no translations")
    best_cov = max(c.coverage for c in candidates)
    pool = [c for c in candidates if best_cov - c.coverage < COVERAGE_TIE_GAP]
    # total order so that permuting the input can never change the winner
    def key(c: Doculect):
        year = c.year if c.year is not None else -1
        return (year, c.coverage, c.name, c.stem)
    return max(pool, key=key)


def load_doculect_file(path: str | Path, metadata: dict[str, dict] | None = None) -> Doculect:
    """The translation in ``path``, its iso the file stem up to the first
    ``-``, described by the ``metadata`` row of its stem, else of its iso."""
    path = Path(path)
    stem = path.stem
    iso = stem.split("-", 1)[0]
    metadata = metadata or {}
    meta = metadata.get(stem, metadata.get(iso, {}))
    verses: dict[str, str] = {}
    for ln, line in tsv.data_lines(path):
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise CorpusError(f"{path}:{ln}: expected 'verse-id<TAB>text'")
        vid, text = parts
        if vid in verses:
            raise CorpusError(f"{path}:{ln}: duplicate verse id {vid}")
        verses[vid] = text
    return Doculect(
        iso=iso,
        name=meta.get("name", stem),
        family=meta.get("family", "unknown"),
        macroarea=meta.get("macroarea", "unknown"),
        year=meta.get("year"),
        verses=verses,
        stem=stem,
    )


def load_metadata(path: str | Path) -> dict[str, dict]:
    """Read the iso/name/family/macroarea/year TSV into a dict keyed by its first column.

    That column is an iso code, or the stem of one corpus file, once each.
    """
    meta: dict[str, dict] = {}
    for ln, line in tsv.data_lines(path):
        parts = line.split("\t")
        if len(parts) < 4:
            raise CorpusError(f"{path}:{ln}: expected at least 4 columns")
        iso, name, family, macroarea = parts[:4]
        if iso in meta:
            raise CorpusError(f"{path}:{ln}: the key {iso!r} is given twice")
        year: int | None = None
        if len(parts) > 4 and parts[4].strip():
            try:
                year = int(parts[4])
            except ValueError as exc:
                raise CorpusError(f"{path}:{ln}: bad year {parts[4]!r}") from exc
        meta[iso] = {
            "name": name,
            "family": family or "unknown",
            "macroarea": macroarea or "unknown",
            "year": year,
        }
    return meta


def load_corpus(corpus_dir: str | Path, metadata_path: str | Path | None,
                pivot_iso: str) -> CorpusManifest:
    """Load every translation, then keep one per iso code.

    Variants may share an iso; ``select_translation`` decides which
    survives. Each file takes the metadata row of its stem, else that of
    its iso. The pivot must be present after selection.
    """
    corpus_dir = Path(corpus_dir)
    meta = load_metadata(metadata_path) if metadata_path else {}
    by_iso: dict[str, list[Doculect]] = {}
    for path in sorted(corpus_dir.glob("*.txt")):
        doc = load_doculect_file(path, meta)
        by_iso.setdefault(doc.iso, []).append(doc)
    if not by_iso:
        raise CorpusError(f"no .txt corpus files under {corpus_dir}")
    selected = {iso: select_translation(docs) for iso, docs in by_iso.items()}
    return CorpusManifest(doculects=selected, pivot_iso=pivot_iso)
