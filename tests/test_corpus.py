import itertools
import sys
import unicodedata

import pytest

from semmap.align import NULL_MARKER
from semmap.corpus import (
    CorpusError,
    Doculect,
    load_corpus,
    load_doculect_file,
    normalize,
    select_translation,
)


def doc(iso="xxx", cov=0, year=None, name=None):
    verses = {f"MAT:1:{i}": "w" for i in range(cov)}
    return Doculect(iso=iso, name=name or f"{iso}-{cov}-{year}", year=year,
                    verses=verses)


# normalize ------------------------------------------------------------------

def test_normalize_english_sentence():
    got = normalize("When he saw Thecla, he kissed her.")
    assert got == ["when", "he", "saw", "thecla", "he", "kissed", "her"]


def test_normalize_keeps_interior_apostrophes():
    # hand-tokenized: trailing bang stripped, glottal marks kept
    assert normalize("I tse'faei'ccuyi!") == ["i", "tse'faei'ccuyi"]


def test_normalize_empty():
    assert normalize("") == []


def test_normalize_pure_punctuation_token_vanishes():
    assert normalize("a -- b") == ["a", "b"]


def test_normalize_idempotent():
    for text in ["When he saw Thecla, he kissed her.", "I tse'faei'ccuyi!",
                 "«quoted» text – here…"]:
        once = normalize(text)
        again = normalize(" ".join(once))
        assert once == again


def normalize_oracle(text):
    """``normalize`` without its fast path: every token scans its edges."""
    out = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            out.append(raw[start:end])
    return out


def test_no_punctuation_code_point_is_alphanumeric():
    # the fast path in normalize keeps an isalnum() token whole
    assert [c for c in range(sys.maxunicode + 1)
            if unicodedata.category(chr(c)).startswith("P") and chr(c).isalnum()] == []


@pytest.mark.parametrize("text", [
    "(when) «he» ¿saw? ‹her›…",            # leading and trailing punctuation
    "tse'faei'ccuyi ja-ja don’t",          # interior punctuation only
    "-- … !? «» '",                        # punctuation-only tokens
    "Ἐγένετο ΔΕ ὅτε ἐτέλεσεν; Когда ДЕНЬ",  # non-ASCII letters, cased
    "e\u0301te \u0301a a\u0301 ৫০ Ⅻ ½",      # combining marks, other digits
    "",
])
def test_normalize_matches_edge_scan(text):
    assert normalize(text) == normalize_oracle(text)


def test_no_token_equals_the_null_marker():
    # the usage matrix holds NULL as NULL_MARKER among the forms; lowercasing
    # keeps every token apart from it
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    words = st.one_of(st.text(), st.sampled_from(["NULL", "Null", "«NULL»", "ＮＵＬＬ"]))

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(st.lists(words).map(" ".join))
    @hyp.example(NULL_MARKER)
    def check(text):
        assert NULL_MARKER not in normalize(text)

    check()


# select_translation -----------------------------------------------------------

def test_select_wide_coverage_wins():
    a, b = doc(cov=7000, year=1990), doc(cov=4000, year=2010)
    assert select_translation([a, b]) is a


def test_select_near_tie_newest_wins():
    a, b = doc(cov=7000, year=1990), doc(cov=6500, year=2010)
    assert select_translation([a, b]) is b


def test_select_singleton():
    a = doc(cov=5000, year=2000)
    assert select_translation([a]) is a


def test_select_unknown_year_loses():
    a, b = doc(cov=7000, year=None), doc(cov=6500, year=1850)
    assert select_translation([a, b]) is b


def test_select_empty_errors():
    with pytest.raises(CorpusError, match="no translations"):
        select_translation([])


def test_select_order_invariant():
    docs = [doc(cov=7000, year=1990), doc(cov=6500, year=2010),
            doc(cov=6200, year=2005), doc(cov=3000, year=2020)]
    winners = {select_translation(list(p)).name for p in itertools.permutations(docs)}
    assert len(winners) == 1


def test_select_equal_name_year_and_coverage_breaks_tie_on_stem():
    a = Doculect(iso="deu", name="German", year=1912, verses={"MAT:1:1": "w"}, stem="deu-a")
    b = Doculect(iso="deu", name="German", year=1912, verses={"MAT:1:1": "w"}, stem="deu-b")
    assert select_translation([a, b]) is select_translation([b, a]) is b


# loading ----------------------------------------------------------------------

def test_load_corpus_selects_one_per_iso(tmp_path):
    (tmp_path / "eng.txt").write_text("MAT:1:1\tWhen he came.\nMAT:1:2\tHe left.\n",
                                      encoding="utf-8")
    (tmp_path / "deu.txt").write_text("MAT:1:1\tAls er kam.\n", encoding="utf-8")
    (tmp_path / "deu-old.txt").write_text(
        "MAT:1:1\tAls er kam.\nMAT:1:2\tEr ging.\nMAT:1:3\tx\n", encoding="utf-8")
    meta = tmp_path / "meta.tsv"
    meta.write_text("eng\tEnglish\tIndo-European\tEurasia\t1900\n"
                    "deu\tGerman\tIndo-European\tEurasia\t1912\n", encoding="utf-8")
    manifest = load_corpus(tmp_path, meta, pivot_iso="eng")
    assert set(manifest.doculects) == {"eng", "deu"}
    # both deu variants are within the coverage gap; same year, wider wins
    assert manifest.doculects["deu"].coverage == 3
    assert manifest.pivot.iso == "eng"
    assert manifest.doculects["eng"].family == "Indo-European"


@pytest.mark.parametrize("newer", ["deu-a", "deu-b"])
def test_load_corpus_metadata_row_of_a_file_stem_picks_recency(tmp_path, newer):
    (tmp_path / "eng.txt").write_text("MAT:1:1\tWhen he came.\n", encoding="utf-8")
    for stem in ("deu-a", "deu-b"):
        (tmp_path / f"{stem}.txt").write_text("MAT:1:1\tAls er kam.\n", encoding="utf-8")
    meta = tmp_path / "meta.tsv"
    meta.write_text("deu\tGerman\tIndo-European\tEurasia\t1912\n"
                    f"{newer}\tGerman {newer}\tIndo-European\tEurasia\t2001\n",
                    encoding="utf-8")
    deu = load_corpus(tmp_path, meta, pivot_iso="eng").doculects["deu"]
    # equal coverage: the file whose own row names the later year wins
    assert (deu.stem, deu.name, deu.year) == (newer, f"German {newer}", 2001)


def test_load_doculect_rejects_duplicate_verse(tmp_path):
    p = tmp_path / "xxx.txt"
    p.write_text("MAT:1:1\ta\nMAT:1:1\tb\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="duplicate verse"):
        load_doculect_file(p)


def test_doculect_file_round_trips(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # Drawn verses hold only what a corpus file can carry. It cannot carry:
    # a tab in a verse id, as the first tab ends the id; a line break (\n or
    # \r) in an id or a text; an id starting with "#", whose line reads as
    # a comment; an id starting with U+FEFF, which on the first line reads
    # as a UTF-8 byte-order mark; a repeated verse id, which is an error. A
    # text may hold tabs.
    vid = st.text(st.characters(exclude_characters="\t\n\r"), max_size=8).filter(
        lambda v: not v.startswith(("#", "\ufeff")))
    text = st.text(st.characters(exclude_characters="\n\r"), max_size=20)
    path = tmp_path / "xyz.txt"

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.lists(st.tuples(vid, text), max_size=12, unique_by=lambda v: v[0]))
    @hyp.example([("", ""), ("MAT:1:1", "a\tb "), (" #", "#"), ("\x85", "\u2028\x0c")])
    def roundtrip(verses):
        path.write_text("".join(f"{v}\t{t}\n" for v, t in verses), encoding="utf-8")
        assert list(load_doculect_file(path).verses.items()) == verses

    roundtrip()


def test_load_corpus_missing_pivot_errors(tmp_path):
    (tmp_path / "deu.txt").write_text("MAT:1:1\tx\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="pivot"):
        load_corpus(tmp_path, None, pivot_iso="eng")


def test_doculect_requires_iso():
    with pytest.raises(CorpusError):
        Doculect(iso="", name="nameless")
