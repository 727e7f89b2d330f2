"""Dependency-treebank parsing and construction extraction.

Two input dialects are supported: a PROIEL-style XML document and a
10-column row format. Extraction finds conjunct participles (relation
``xadv``), dative absolutes (dative participles under ``adv``) and
finite temporal clauses headed by the subjunction lemma *jegda*, resolves
their matrix clauses and subjects, and can rewrite plain verse text with
alignment placeholders for annotated re-mapping.

Column format, tab-separated, one token per line, sentences separated by
blank lines, ``# sent_id = <id>`` comments::

    id  form  lemma  pos  morph  head  relation  slashes  empty  misc

``morph`` is ``key=value|key=value`` or ``_``; ``slashes`` is
``target:label[,target:label]`` or ``_``; ``empty`` is ``empty`` or ``_``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from . import tsv

__all__ = [
    "TreebankError",
    "TbToken",
    "Sentence",
    "Construction",
    "EditRules",
    "parse_treebank",
    "emit_columns",
    "extract_conjuncts",
    "extract_absolutes",
    "extract_jegda",
    "extract_all",
    "inject_annotations",
    "strip_placeholders",
]

# forms that may precede a construction that still counts as sentence-initial
PARTICLES = ("že", "bo", "li", "i")
JEGDA_LEMMAS = ("jegda", "egda")
# absolutes of this lemma are stock temporal expressions, kept without a subject
BE_LEMMA = "byti"


class TreebankError(ValueError):
    pass


@dataclass
class TbToken:
    id: int
    form: str
    lemma: str
    pos: str
    morph: dict[str, str] = field(default_factory=dict)
    head: int = 0
    relation: str = ""
    slashes: list[tuple[int, str]] = field(default_factory=list)
    empty: bool = False

    @property
    def is_verb(self) -> bool:
        return self.pos.upper().startswith("V") or self.empty

    @property
    def is_conjunction(self) -> bool:
        return self.pos.upper().startswith("C")

    @property
    def is_subjunction(self) -> bool:
        return self.pos.upper().startswith("G")

    @property
    def is_punct(self) -> bool:
        return self.pos.upper() in ("PU", "PUNCT")

    @property
    def is_participle(self) -> bool:
        return self.morph.get("mood") == "ptcp"

    @property
    def is_resultative(self) -> bool:
        return self.morph.get("resultative") in ("yes", "true", "1")

    @property
    def case(self) -> str | None:
        return self.morph.get("case")

    @property
    def aspect(self) -> str:
        asp = self.morph.get("aspect")
        return asp if asp in ("pfv", "ipfv") else "unknown"


@dataclass
class Sentence:
    id: str
    tokens: dict[int, TbToken]
    order: list[int]

    def head_of(self, tok: TbToken) -> TbToken | None:
        if tok.head == 0:
            return None
        return self.tokens[tok.head]

    def children(self, tid: int) -> list[TbToken]:
        return [self.tokens[i] for i in self.order if self.tokens[i].head == tid]

    def subtree_ids(self, tid: int) -> set[int]:
        out = {tid}
        frontier = [tid]
        while frontier:
            nxt = []
            for t in frontier:
                for ch in self.children(t):
                    if ch.id not in out:
                        out.add(ch.id)
                        nxt.append(ch.id)
            frontier = nxt
        return out

    def validate(self) -> None:
        """Reject dangling heads and slashes, head cycles and empty nodes with forms."""
        for tok in self.tokens.values():
            if tok.head != 0 and tok.head not in self.tokens:
                raise TreebankError(
                    f"sentence {self.id}: token {tok.id} has dangling head {tok.head}")
            for target, _ in tok.slashes:
                if target not in self.tokens:
                    raise TreebankError(
                        f"sentence {self.id}: token {tok.id} has dangling slash {target}")
            if tok.empty and tok.form:
                raise TreebankError(
                    f"sentence {self.id}: empty node {tok.id} carries a form")
        for tok in self.tokens.values():
            # an acyclic chain reaches a root token within len(tokens) hops
            cur = tok
            for _ in self.tokens:
                if cur.head == 0:
                    break
                cur = self.tokens[cur.head]
            else:
                raise TreebankError(
                    f"sentence {self.id}: the head chain of token {tok.id} "
                    "runs into a cycle and never reaches the root")


@dataclass
class Construction:
    kind: str                      # conjunct | absolute | jegda
    sentence_id: str
    trigger_ids: list[int]
    matrix_id: int | None
    position: str                  # pre | post | NA
    sentence_initial: bool
    subject: str                   # overt | null | impersonal
    subject_id: int | None
    subject_position: str | None   # SV | VS
    aspect: str
    flags: set[str] = field(default_factory=set)


def _parse_morph(cell: str) -> dict[str, str]:
    if cell in ("_", ""):
        return {}
    out = {}
    for part in cell.split("|"):
        if "=" not in part:
            raise TreebankError(f"bad morph feature {part!r}")
        k, v = part.split("=", 1)
        out[k] = v
    return out


def _parse_slashes(cell: str) -> list[tuple[int, str]]:
    if cell in ("_", ""):
        return []
    out = []
    for part in cell.split(","):
        if ":" not in part:
            raise TreebankError(f"bad slash {part!r}")
        target, label = part.split(":", 1)
        out.append((int(target), label.lower()))
    return out


def _sentence(sid: str, tokens: list[TbToken]) -> Sentence:
    sent = Sentence(id=sid, tokens={t.id: t for t in tokens}, order=[t.id for t in tokens])
    if len(sent.tokens) != len(tokens):
        raise TreebankError(f"sentence {sid}: duplicate token ids")
    sent.validate()
    return sent


def _parse_columns(text: str) -> list[Sentence]:
    sentences: list[Sentence] = []
    cur: list[TbToken] = []
    sent_id = None
    auto_id = 0

    def flush():
        nonlocal cur, sent_id, auto_id
        if cur:
            auto_id += 1
            sentences.append(_sentence(sent_id if sent_id is not None else str(auto_id), cur))
        cur, sent_id = [], None

    # rows end at "\n" (or "\r\n") only: str.splitlines would also split a
    # field at characters such as U+0085 or U+2028
    for ln, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq and key.strip() == "sent_id":
                sent_id = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise TreebankError(f"line {ln}: expected 10 columns, got {len(cols)}")
        try:
            tok = TbToken(
                id=int(cols[0]),
                form="" if cols[1] == "_" else cols[1],
                lemma="" if cols[2] == "_" else cols[2],
                pos=cols[3],
                morph=_parse_morph(cols[4]),
                head=int(cols[5]),
                relation="" if cols[6] == "_" else cols[6].lower(),
                slashes=_parse_slashes(cols[7]),
                empty=cols[8] == "empty",
            )
        except (ValueError, TreebankError) as exc:
            raise TreebankError(f"line {ln}: {exc}") from exc
        cur.append(tok)
    flush()
    return sentences


def _parse_xml(text: str) -> list[Sentence]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise TreebankError(f"malformed XML: {exc}") from exc
    sentences: list[Sentence] = []
    for snode in root.iter("sentence"):
        sid = snode.get("id", str(len(sentences) + 1))
        toks: list[TbToken] = []
        for tnode in snode.iter("token"):
            morph = {}
            for key in ("case", "mood", "aspect", "tense", "number", "gender",
                        "degree", "resultative"):
                val = tnode.get(key)
                if val:
                    morph[key] = val
            try:
                toks.append(TbToken(
                    id=int(tnode.get("id")),
                    form=tnode.get("form", "") or "",
                    lemma=tnode.get("lemma", "") or "",
                    pos=tnode.get("part-of-speech", "") or "",
                    morph=morph,
                    head=int(tnode.get("head-id", "0") or 0),
                    relation=(tnode.get("relation", "") or "").lower(),
                    slashes=[(int(sl.get("target-id")), sl.get("relation", "").lower())
                             for sl in tnode.findall("slash")],
                    empty=tnode.get("empty-token-sort") is not None,
                ))
            except (TypeError, ValueError) as exc:
                raise TreebankError(
                    f"sentence {sid}: bad token {tnode.get('id')!r}: {exc}") from exc
        sentences.append(_sentence(sid, toks))
    return sentences


def parse_treebank(source: str | Path) -> list[Sentence]:
    """Parse a treebank document: a ``Path`` is read as a file (UTF-8,
    a byte-order mark dropped), and its errors name the file; a ``str``
    is the document text.
    """
    if not isinstance(source, Path):
        return _parse_text(source)
    try:
        return _parse_text(source.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise TreebankError(f"{source}: not UTF-8 text ({exc.reason})") from exc
    except TreebankError as exc:
        raise TreebankError(f"{source}: {exc}") from exc


def _parse_text(text: str) -> list[Sentence]:
    if text.lstrip().startswith("<"):
        return _parse_xml(text)
    return _parse_columns(text)


def emit_columns(sentences: list[Sentence]) -> str:
    """Serialize to the 10-column dialect (round-trips with the parser)."""
    lines: list[str] = []
    for sent in sentences:
        lines.append(f"# sent_id = {sent.id}")
        for tid in sent.order:
            t = sent.tokens[tid]
            morph = "|".join(f"{k}={v}" for k, v in sorted(t.morph.items())) or "_"
            slashes = ",".join(f"{tg}:{lb}" for tg, lb in t.slashes) or "_"
            lines.append("\t".join([
                str(t.id), t.form or "_", t.lemma or "_", t.pos, morph,
                str(t.head), t.relation or "_", slashes,
                "empty" if t.empty else "_", "_",
            ]))
        lines.append("")
    return "\n".join(lines)


def _matrix(sent: Sentence, head: TbToken | None) -> tuple[TbToken | None, set[str]]:
    """The matrix verb reached from ``head``, conjunctions skipped, and its flags.

    An empty-node matrix marks the construction non-canonical (the
    annotation uses elliptical nodes for participles coordinated with a
    finite clause).
    """
    while head is not None and head.is_conjunction:
        head = sent.head_of(head)
    if head is None or not head.is_verb:
        return None, set()
    return head, {"non-canonical"} if head.empty else set()


def _construction(kind: str, sent: Sentence, trigger_ids: list[int],
                  matrix: TbToken | None, subject: str, subject_id: int | None,
                  ids: set[int], aspect: str, flags: set[str]) -> Construction:
    """One construction row, the one place its derived columns are computed.

    ``position`` places ``trigger_ids[0]`` against the matrix and
    ``subject_position`` the subject against ``trigger_ids[-1]`` (the
    participle, or the clause verb of a jegda-clause). The construction
    is sentence-initial when only empty nodes, punctuation and particles
    have an id below ``min(ids)``, wherever the file lists them.
    """
    leftmost = min(ids)
    initial = all(tok.empty or tok.is_punct or tok.form.lower() in PARTICLES
                  for tok in (sent.tokens[tid] for tid in sent.order if tid < leftmost))
    return Construction(
        kind=kind,
        sentence_id=sent.id,
        trigger_ids=trigger_ids,
        matrix_id=matrix.id if matrix is not None else None,
        position="NA" if matrix is None else ("pre" if trigger_ids[0] < matrix.id else "post"),
        sentence_initial=initial,
        subject=subject,
        subject_id=subject_id,
        subject_position=(
            None if subject_id is None else ("SV" if subject_id < trigger_ids[-1] else "VS")),
        aspect=aspect,
        flags=flags,
    )


def _first_conjunct(sent: Sentence, tok: TbToken) -> TbToken:
    # coordinated subjects: take the linearly first nominal conjunct
    if tok.is_conjunction:
        kids = [c for c in sent.children(tok.id) if not c.is_punct and not c.is_conjunction]
        if kids:
            return min(kids, key=lambda t: t.id)
    return tok


def extract_conjuncts(sent: Sentence) -> list[Construction]:
    """Conjunct participles: non-resultative participles bearing xadv.

    The shared subject is resolved through the xsub slash: a slash onto a
    verb means a null subject, a slash onto an overt argument an overt
    one. Only the leftmost pre-matrix conjunct of each matrix verb counts
    as heading its overt subject; later conjuncts carry a shared-subject
    flag.
    """
    cands = [
        (t, *_matrix(sent, sent.head_of(t)))
        for t in (sent.tokens[tid] for tid in sent.order)
        if t.relation == "xadv" and t.is_participle and not t.is_resultative
    ]
    # the smallest pre-matrix trigger id per matrix (``order`` may be unsorted)
    leftmost_pre: dict[int, int] = {}
    for t, matrix, _ in cands:
        if matrix is not None and t.id < leftmost_pre.get(matrix.id, matrix.id):
            leftmost_pre[matrix.id] = t.id
    out: list[Construction] = []
    for t, matrix, flags in cands:
        subject_id = None
        ids = sent.subtree_ids(t.id)
        xsubs = [target for target, label in t.slashes if label == "xsub"]
        if xsubs and not sent.tokens[xsubs[0]].is_verb:
            subject_id = xsubs[0]
            if matrix is not None and leftmost_pre.get(matrix.id) == t.id:
                ids.add(subject_id)
            else:
                flags.add("shared-subject")
        out.append(_construction("conjunct", sent, [t.id], matrix,
                                 "null" if subject_id is None else "overt",
                                 subject_id, ids, t.aspect, flags))
    return out


def extract_absolutes(sent: Sentence) -> list[Construction]:
    """Dative absolutes: non-resultative dative participles bearing adv.

    Post-matrix null-subject candidates are dropped unless the lemma is
    *byti*: a manual pass showed those are nearly all nominalized
    participles, while *byti* absolutes are stock temporal expressions.
    An augmenting subjunction head is recorded; empty-node heads flag the
    construction non-canonical.
    """
    out: list[Construction] = []
    for tid in sent.order:
        t = sent.tokens[tid]
        if (t.relation != "adv" or not t.is_participle or t.is_resultative
                or t.case != "d"):
            continue
        head = sent.head_of(t)
        augmented = head is not None and head.is_subjunction
        matrix, flags = _matrix(sent, sent.head_of(head) if augmented else head)
        if augmented:
            flags.add("augmented")

        subject_id = None
        dative_subs = [c for c in sent.children(t.id)
                       if c.relation == "sub" and (c.case == "d" or c.is_conjunction)]
        if dative_subs:
            if len(dative_subs) > 1 or dative_subs[0].is_conjunction:
                flags.add("coordinated-subject")
            subject_id = _first_conjunct(sent, dative_subs[0]).id
        if subject_id is not None:
            subject = "overt"
        elif t.lemma == BE_LEMMA:
            subject = "impersonal"
        elif matrix is not None and matrix.id < t.id:
            continue  # post-matrix without a subject: nominalized-participle noise
        else:
            subject = "null"
        out.append(_construction("absolute", sent, [t.id], matrix, subject, subject_id,
                                 sent.subtree_ids(t.id), t.aspect, flags))
    return out


def extract_jegda(sent: Sentence,
                  aspect_overrides: dict[str, str] | None = None) -> list[Construction]:
    """Finite temporal clauses introduced by the subjunction *jegda*.

    The clause verb is the node dominating the subjunction; clauses
    bearing atr or apos are explicit relatives and are skipped. The
    matrix is the node immediately dominating the clause verb, with
    conjunction nodes skipped to their head. Finite verbs without an
    aspect feature stay "unknown" unless ``aspect_overrides`` maps
    their lemma to one (aspect of nonpast finite forms is annotated by
    hand, not derivable from morphology).
    """
    out: list[Construction] = []
    for tid in sent.order:
        t = sent.tokens[tid]
        if t.lemma not in JEGDA_LEMMAS:
            continue
        verb = sent.head_of(t)
        if verb is None or not verb.is_verb or verb.relation in ("atr", "apos"):
            continue
        matrix, flags = _matrix(sent, sent.head_of(verb))

        subject_id = None
        subs = [c for c in sent.children(verb.id) if c.relation == "sub"]
        if subs:
            if subs[0].is_conjunction:
                flags.add("coordinated-subject")
            subject_id = _first_conjunct(sent, subs[0]).id

        aspect = verb.aspect
        if aspect == "unknown" and aspect_overrides:
            aspect = aspect_overrides.get(verb.lemma, "unknown")
        out.append(_construction("jegda", sent, [t.id, verb.id], matrix,
                                 "null" if subject_id is None else "overt", subject_id,
                                 sent.subtree_ids(verb.id) | {t.id}, aspect, flags))
    return out


def extract_all(sentences: list[Sentence],
                aspect_overrides: dict[str, str] | None = None) -> list[Construction]:
    """All three constructions, ordered by sentence then trigger id."""
    out: list[Construction] = []
    for sent in sentences:
        out.extend(extract_conjuncts(sent))
        out.extend(extract_absolutes(sent))
        out.extend(extract_jegda(sent, aspect_overrides=aspect_overrides))
    out.sort(key=lambda c: (c.sentence_id, c.trigger_ids[0], c.kind))
    return out


def constructions_to_tsv(constructions: list[Construction]) -> str:
    """The construction table as TSV text."""
    return tsv.format_rows(
        [("sentence_id", "kind", "trigger_ids", "matrix_id", "position",
          "sentence_initial", "subject", "subject_id", "subject_position",
          "aspect", "flags")]
        + [(c.sentence_id, c.kind,
            ",".join(str(i) for i in c.trigger_ids),
            c.matrix_id if c.matrix_id is not None else "NONE",
            c.position,
            "1" if c.sentence_initial else "0",
            c.subject,
            c.subject_id if c.subject_id is not None else "_",
            c.subject_position or "_",
            c.aspect,
            ",".join(sorted(c.flags)) or "_")
           for c in constructions])


@dataclass
class EditRules:
    """Text-edit configuration for annotated re-mapping.

    Rewrites normalize lemma spellings, stopwords vanish, placeholders go
    in front of construction triggers, and suffix rules insert a
    same/different-subject marker before any token carrying a listed
    ending.
    """
    rewrites: dict[str, str] = field(default_factory=dict)
    stopwords: set[str] = field(default_factory=lambda: {"že", "i"})
    conjunct_placeholder: str = "xadv"
    absolute_placeholder: str = "absoluteadv"
    suffix_rules: list[tuple[str, str]] = field(default_factory=list)

    def placeholders(self) -> set[str]:
        out = {self.conjunct_placeholder, self.absolute_placeholder}
        out.update(marker for _, marker in self.suffix_rules)
        return out


def inject_annotations(text: str, rules: EditRules,
                       conjunct_positions: list[int] = (),
                       absolute_positions: list[int] = ()) -> str:
    """Rewrite a verse for re-alignment.

    Applies, in order: lemma rewrites, stopword deletion, placeholder
    insertion before each construction trigger (positions index the
    whitespace tokens of the incoming text), then suffix-rule markers.
    Overlapping edits (same token claimed twice, or a placeholder on a
    deleted token) raise.
    """
    tokens = text.split()
    conj = set(conjunct_positions)
    abso = set(absolute_positions)
    if conj & abso:
        raise TreebankError(f"overlapping edits at positions {sorted(conj & abso)}")
    for pos in sorted(conj | abso):
        if not 0 <= pos < len(tokens):
            raise TreebankError(f"placeholder position {pos} out of range")
        if tokens[pos] in rules.stopwords or rules.rewrites.get(tokens[pos]) in rules.stopwords:
            raise TreebankError(f"placeholder position {pos} targets a deleted token")

    out: list[str] = []
    for i, tok in enumerate(tokens):
        tok = rules.rewrites.get(tok, tok)
        if tok in rules.stopwords:
            continue
        if i in conj:
            out.append(rules.conjunct_placeholder)
        elif i in abso:
            out.append(rules.absolute_placeholder)
        for suffix, marker in rules.suffix_rules:
            if tok.endswith(suffix):
                out.append(marker)
                break
        out.append(tok)
    return " ".join(out)


def strip_placeholders(text: str, rules: EditRules) -> str:
    markers = rules.placeholders()
    return " ".join(tok for tok in text.split() if tok not in markers)
