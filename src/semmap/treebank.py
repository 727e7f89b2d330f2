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

DEFAULT_PARTICLES = ("že", "bo", "li", "i")
JEGDA_LEMMAS = ("jegda", "egda")


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

    def token(self, tid: int) -> TbToken:
        return self.tokens[tid]

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


def _parse_columns(text: str) -> list[Sentence]:
    sentences: list[Sentence] = []
    cur: list[TbToken] = []
    sent_id = None
    auto_id = 0

    def flush():
        nonlocal cur, sent_id, auto_id
        if cur:
            auto_id += 1
            sid = sent_id if sent_id is not None else str(auto_id)
            sent = Sentence(id=sid, tokens={t.id: t for t in cur},
                            order=[t.id for t in cur])
            if len(sent.tokens) != len(cur):
                raise TreebankError(f"sentence {sid}: duplicate token ids")
            sent.validate()
            sentences.append(sent)
        cur, sent_id = [], None

    for ln, line in enumerate(text.splitlines(), 1):
        line = line.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            if "sent_id" in line and "=" in line:
                sent_id = line.split("=", 1)[1].strip()
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
                relation=cols[6].lower(),
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
            slashes = [
                (int(sl.get("target-id")), sl.get("relation", "").lower())
                for sl in tnode.findall("slash")
            ]
            empty = tnode.get("empty-token-sort") is not None
            try:
                toks.append(TbToken(
                    id=int(tnode.get("id")),
                    form=tnode.get("form", "") or "",
                    lemma=tnode.get("lemma", "") or "",
                    pos=tnode.get("part-of-speech", "") or "",
                    morph=morph,
                    head=int(tnode.get("head-id", "0") or 0),
                    relation=(tnode.get("relation", "") or "").lower(),
                    slashes=slashes,
                    empty=empty,
                ))
            except (TypeError, ValueError) as exc:
                raise TreebankError(f"sentence {sid}: bad token: {exc}") from exc
        sent = Sentence(id=sid, tokens={t.id: t for t in toks},
                        order=[t.id for t in toks])
        if len(sent.tokens) != len(toks):
            raise TreebankError(f"sentence {sid}: duplicate token ids")
        sent.validate()
        sentences.append(sent)
    return sentences


def parse_treebank(source: str | Path) -> list[Sentence]:
    """Parse a treebank document from a path or a literal string."""
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and Path(source).exists()
    ):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = str(source)
    stripped = text.lstrip()
    if stripped.startswith("<"):
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


def _climb_conjunctions(sent: Sentence, tok: TbToken | None) -> TbToken | None:
    while tok is not None and tok.is_conjunction:
        tok = sent.head_of(tok)
    return tok


def _resolve_matrix(sent: Sentence, trigger: TbToken) -> tuple[TbToken | None, set[str]]:
    """Matrix = verb reached through the head chain, conjunctions skipped.

    An empty-node matrix marks the construction non-canonical (the
    annotation uses elliptical nodes for participles coordinated with a
    finite clause).
    """
    flags: set[str] = set()
    head = sent.head_of(trigger)
    head = _climb_conjunctions(sent, head)
    if head is None:
        return None, flags
    if head.empty:
        flags.add("non-canonical")
        return head, flags
    if head.is_verb:
        return head, flags
    return None, flags


def _position(trigger: TbToken, matrix: TbToken | None) -> str:
    if matrix is None:
        return "NA"
    return "pre" if trigger.id < matrix.id else "post"


def _sentence_initial(sent: Sentence, construction_ids: set[int],
                      particles: tuple[str, ...]) -> bool:
    leftmost = min(construction_ids)
    for tid in sent.order:
        if tid >= leftmost:
            break
        tok = sent.tokens[tid]
        if tok.empty or tok.is_punct:
            continue
        if tok.form.lower() in particles:
            continue
        return False
    return True


def _first_conjunct(sent: Sentence, tok: TbToken) -> TbToken:
    # coordinated subjects: take the linearly first nominal conjunct
    if tok.is_conjunction:
        kids = [c for c in sent.children(tok.id) if not c.is_punct and not c.is_conjunction]
        if kids:
            return min(kids, key=lambda t: t.id)
    return tok


def extract_conjuncts(sent: Sentence,
                      particles: tuple[str, ...] = DEFAULT_PARTICLES) -> list[Construction]:
    """Conjunct participles: non-resultative participles bearing xadv.

    The shared subject is resolved through the xsub slash: a slash onto a
    verb means a null subject, a slash onto an overt argument an overt
    one. Only the leftmost pre-matrix conjunct of each matrix verb counts
    as heading its overt subject; later conjuncts carry a shared-subject
    flag.
    """
    cands = [
        sent.tokens[tid] for tid in sent.order
        if sent.tokens[tid].relation == "xadv"
        and sent.tokens[tid].is_participle
        and not sent.tokens[tid].is_resultative
    ]
    out: list[Construction] = []
    leftmost_pre: dict[int, int] = {}
    resolved: dict[int, tuple[TbToken | None, set[str]]] = {}
    for t in cands:
        matrix, flags = _resolve_matrix(sent, t)
        resolved[t.id] = (matrix, flags)
        if matrix is not None and t.id < matrix.id:
            cur = leftmost_pre.get(matrix.id)
            if cur is None or t.id < cur:
                leftmost_pre[matrix.id] = t.id
    for t in cands:
        matrix, flags = resolved[t.id]
        flags = set(flags)
        subject = "null"
        subject_id = None
        xsubs = [target for target, label in t.slashes if label == "xsub"]
        if xsubs:
            target = sent.tokens[xsubs[0]]
            if target.is_verb or target.empty:
                subject = "null"
            else:
                subject = "overt"
                subject_id = target.id
                heads_it = (
                    matrix is not None
                    and leftmost_pre.get(matrix.id) == t.id
                )
                if not heads_it:
                    flags.add("shared-subject")
        position = _position(t, matrix)
        ids = sent.subtree_ids(t.id)
        if subject_id is not None and "shared-subject" not in flags:
            ids = ids | {subject_id}
        out.append(Construction(
            kind="conjunct",
            sentence_id=sent.id,
            trigger_ids=[t.id],
            matrix_id=matrix.id if matrix is not None else None,
            position=position,
            sentence_initial=_sentence_initial(sent, ids, particles),
            subject=subject,
            subject_id=subject_id,
            subject_position=(
                ("SV" if subject_id < t.id else "VS") if subject_id is not None else None
            ),
            aspect=t.aspect,
            flags=flags,
        ))
    return out


def extract_absolutes(sent: Sentence,
                      particles: tuple[str, ...] = DEFAULT_PARTICLES,
                      be_lemma: str = "byti") -> list[Construction]:
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
        flags: set[str] = set()
        head = sent.head_of(t)
        if head is not None and head.is_subjunction:
            flags.add("augmented")
            head = sent.head_of(head)
        head = _climb_conjunctions(sent, head)
        matrix: TbToken | None = None
        if head is not None:
            if head.empty:
                flags.add("non-canonical")
                matrix = head
            elif head.is_verb:
                matrix = head

        subject_id = None
        sub_children = [c for c in sent.children(t.id) if c.relation == "sub"]
        dative_subs = [c for c in sub_children if c.case == "d" or c.is_conjunction]
        if dative_subs:
            first = _first_conjunct(sent, dative_subs[0])
            if len(dative_subs) > 1 or dative_subs[0].is_conjunction:
                flags.add("coordinated-subject")
            subject_id = first.id

        position = _position(t, matrix)
        if subject_id is None:
            subject = "impersonal" if t.lemma == be_lemma else "null"
        else:
            subject = "overt"
        if (position == "post" and subject_id is None and t.lemma != be_lemma):
            continue  # nominalized-participle noise
        ids = sent.subtree_ids(t.id)
        out.append(Construction(
            kind="absolute",
            sentence_id=sent.id,
            trigger_ids=[t.id],
            matrix_id=matrix.id if matrix is not None else None,
            position=position,
            sentence_initial=_sentence_initial(sent, ids, particles),
            subject=subject,
            subject_id=subject_id,
            subject_position=(
                ("SV" if subject_id < t.id else "VS") if subject_id is not None else None
            ),
            aspect=t.aspect,
            flags=flags,
        ))
    return out


def extract_jegda(sent: Sentence,
                  particles: tuple[str, ...] = DEFAULT_PARTICLES,
                  lemmas: tuple[str, ...] = JEGDA_LEMMAS,
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
        if t.lemma not in lemmas:
            continue
        verb = sent.head_of(t)
        if verb is None or not verb.is_verb:
            continue
        if verb.relation in ("atr", "apos"):
            continue
        head = _climb_conjunctions(sent, sent.head_of(verb))
        matrix: TbToken | None = None
        flags: set[str] = set()
        if head is not None:
            if head.empty:
                flags.add("non-canonical")
                matrix = head
            elif head.is_verb:
                matrix = head

        subject_id = None
        subs = [c for c in sent.children(verb.id) if c.relation == "sub"]
        if subs:
            first = _first_conjunct(sent, subs[0])
            if subs[0].is_conjunction:
                flags.add("coordinated-subject")
            subject_id = first.id

        aspect = verb.aspect
        if aspect == "unknown" and aspect_overrides:
            aspect = aspect_overrides.get(verb.lemma, "unknown")
        position = "NA" if matrix is None else ("pre" if t.id < matrix.id else "post")
        ids = sent.subtree_ids(verb.id) | {t.id}
        out.append(Construction(
            kind="jegda",
            sentence_id=sent.id,
            trigger_ids=[t.id, verb.id],
            matrix_id=matrix.id if matrix is not None else None,
            position=position,
            sentence_initial=_sentence_initial(sent, ids, particles),
            subject="overt" if subject_id is not None else "null",
            subject_id=subject_id,
            subject_position=(
                ("SV" if subject_id < verb.id else "VS") if subject_id is not None else None
            ),
            aspect=aspect,
            flags=flags,
        ))
    return out


def extract_all(sentences: list[Sentence],
                particles: tuple[str, ...] = DEFAULT_PARTICLES,
                aspect_overrides: dict[str, str] | None = None) -> list[Construction]:
    """All three constructions, ordered by sentence then trigger id."""
    out: list[Construction] = []
    for sent in sentences:
        out.extend(extract_conjuncts(sent, particles=particles))
        out.extend(extract_absolutes(sent, particles=particles))
        out.extend(extract_jegda(sent, particles=particles,
                                 aspect_overrides=aspect_overrides))
    out.sort(key=lambda c: (c.sentence_id, c.trigger_ids[0], c.kind))
    return out


def constructions_to_tsv(constructions: list[Construction], path,
                         header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_constructions(constructions, fh, header=header)


def write_constructions(constructions: list[Construction], fh,
                        header: str | None = None) -> None:
    """Write the construction table to an open text stream."""
    if header:
        fh.write(f"# {header}\n")
    fh.write("sentence_id\tkind\ttrigger_ids\tmatrix_id\tposition\t"
             "sentence_initial\tsubject\tsubject_id\tsubject_position\t"
             "aspect\tflags\n")
    for c in constructions:
        fh.write("\t".join([
            c.sentence_id, c.kind,
            ",".join(str(i) for i in c.trigger_ids),
            str(c.matrix_id) if c.matrix_id is not None else "NONE",
            c.position,
            "1" if c.sentence_initial else "0",
            c.subject,
            str(c.subject_id) if c.subject_id is not None else "_",
            c.subject_position or "_",
            c.aspect,
            ",".join(sorted(c.flags)) or "_",
        ]) + "\n")


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

    @classmethod
    def from_file(cls, path) -> "EditRules":
        rules = cls(stopwords=set())
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                kind = parts[0]
                if kind == "rewrite" and len(parts) == 3:
                    rules.rewrites[parts[1]] = parts[2]
                elif kind == "stopword" and len(parts) == 2:
                    rules.stopwords.add(parts[1])
                elif kind == "placeholder" and len(parts) == 3:
                    if parts[1] == "conjunct":
                        rules.conjunct_placeholder = parts[2]
                    elif parts[1] == "absolute":
                        rules.absolute_placeholder = parts[2]
                    else:
                        raise TreebankError(f"line {ln}: unknown placeholder kind")
                elif kind == "suffix" and len(parts) == 3:
                    rules.suffix_rules.append((parts[1], parts[2]))
                else:
                    raise TreebankError(f"line {ln}: bad edit rule {line!r}")
        return rules


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
