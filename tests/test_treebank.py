import random

import pytest

from fixture_treebank import EXPECTED, FIXTURE
from semmap.treebank import (
    Construction,
    EditRules,
    Sentence,
    TbToken,
    TreebankError,
    constructions_to_tsv,
    emit_columns,
    extract_absolutes,
    extract_all,
    extract_conjuncts,
    extract_jegda,
    inject_annotations,
    parse_treebank,
    strip_placeholders,
)


@pytest.fixture(scope="module")
def sentences():
    return parse_treebank(FIXTURE)


# parsing --------------------------------------------------------------------

def test_parse_fixture(sentences):
    assert len(sentences) == 12
    assert sentences[0].id == "s01"
    assert sentences[0].tokens[1].is_participle


def test_roundtrip_columns(sentences):
    again = parse_treebank(emit_columns(sentences))
    assert len(again) == len(sentences)
    for s1, s2 in zip(sentences, again):
        assert s1.id == s2.id
        assert s1.order == s2.order
        for tid in s1.order:
            assert s1.tokens[tid] == s2.tokens[tid]


def test_roundtrip_columns_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # Drawn sentences hold only what the column format can carry. It
    # cannot carry: a tab or a line break in any field; a form, lemma or
    # relation "_", which reads as empty; "|" in a morph key or value, or
    # "=" in a morph key; "," in a slash label; an upper-case relation or
    # slash label, since both are read lower-cased; a sentence id with
    # surrounding whitespace, since it is read stripped; a sentence with
    # no tokens, which leaves no row.
    field = st.text(st.characters(exclude_characters="\t\n\r"), max_size=5)
    lexical = field.filter(lambda v: v != "_")
    relation = lexical.filter(lambda v: v == v.lower())
    morph_value = field.filter(lambda v: "|" not in v)
    morph = st.dictionaries(morph_value.filter(lambda v: "=" not in v), morph_value,
                            max_size=3)
    slash_label = field.filter(lambda v: v == v.lower() and "," not in v)
    sentence_id = field.filter(lambda v: v == v.strip())

    @st.composite
    def sentence(draw):
        ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True))
        tokens = []
        for i, tid in enumerate(ids):
            empty = draw(st.booleans())
            tokens.append(TbToken(
                id=tid, form="" if empty else draw(lexical), lemma=draw(lexical),
                pos=draw(field), morph=draw(morph),
                # a head among the tokens drawn before keeps the tree acyclic
                head=draw(st.sampled_from([0, *ids[:i]])), relation=draw(relation),
                slashes=draw(st.lists(st.tuples(st.sampled_from(ids), slash_label),
                                      max_size=2)),
                empty=empty))
        order = draw(st.permutations(ids))
        by_id = {t.id: t for t in tokens}
        return Sentence(id=draw(sentence_id), tokens={tid: by_id[tid] for tid in order},
                        order=order)

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(st.lists(sentence(), max_size=3))
    def check(sentences):
        again = parse_treebank(emit_columns(sentences))
        assert len(again) == len(sentences)
        for s1, s2 in zip(sentences, again):
            assert (s1.id, s1.order) == (s2.id, s2.order)
            for tid in s1.order:
                assert s1.tokens[tid] == s2.tokens[tid]

    check()


XML_SENTENCE = """
<source><sentence id="x1">
  <token id="1" form="prisedu" lemma="prijti" part-of-speech="V"
         mood="ptcp" aspect="pfv" head-id="3" relation="xadv">
    <slash target-id="2" relation="xsub"/>
  </token>
  <token id="2" form="isu" lemma="isusu" part-of-speech="N" case="n"
         head-id="3" relation="sub"/>
  <token id="3" form="vide" lemma="videti" part-of-speech="V" aspect="pfv"
         head-id="0" relation="pred"/>
</sentence></source>
"""


def test_parse_xml_dialect():
    sents = parse_treebank(XML_SENTENCE)
    assert len(sents) == 1
    cons = extract_conjuncts(sents[0])
    assert len(cons) == 1
    assert cons[0].subject == "overt" and cons[0].subject_id == 2
    assert cons[0].matrix_id == 3


@pytest.mark.parametrize("text", [FIXTURE, XML_SENTENCE], ids=["columns", "xml"])
def test_treebank_file_with_a_byte_order_mark_reads_as_without_one(tmp_path, text):
    plain, marked = tmp_path / "plain.conllu", tmp_path / "marked.conllu"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    want = constructions_to_tsv(extract_all(parse_treebank(plain)))
    assert constructions_to_tsv(extract_all(parse_treebank(marked))) == want
    assert want.count("\n") > 1


def test_dangling_head_rejected():
    bad = "# sent_id = b1\n1\tw\tw\tV\t_\t9\tpred\t_\t_\t_\n"
    with pytest.raises(TreebankError, match="dangling head"):
        parse_treebank(bad)


def test_dangling_slash_rejected():
    bad = "# sent_id = b1\n1\tw\tw\tV\t_\t0\tpred\t7:xsub\t_\t_\n"
    with pytest.raises(TreebankError, match="dangling slash"):
        parse_treebank(bad)


def test_empty_node_with_form_rejected():
    bad = "# sent_id = b1\n1\tw\tw\tV\t_\t0\tpred\t_\tempty\t_\n"
    with pytest.raises(TreebankError, match="empty node"):
        parse_treebank(bad)


@pytest.mark.parametrize("heads, token", [
    ((0, 1, 4, 5, 3), 3),  # 3 -> 4 -> 5 -> 3
    ((0, 1, 1, 4, 4), 4),  # 4 heads itself; 5 hangs from it
    ((2, 1), 1),           # no root at all
])
def test_head_cycle_rejected(heads, token):
    rows = [f"{i}\tw\tw\tV\t_\t{h}\tpred\t_\t_\t_" for i, h in enumerate(heads, 1)]
    with pytest.raises(TreebankError, match=f"sentence cy: the head chain of token {token} "):
        parse_treebank("# sent_id = cy\n" + "\n".join(rows) + "\n")


def jegda_clause(first_id: int, dialect: str) -> str:
    """A *jegda*-clause whose first token is numbered ``first_id``."""
    rows = [(first_id, "jegda", "jegda", "G", 3, "aux"), (2, "pride", "prijti", "V", 3, "adv"),
            (3, "vide", "videti", "V", 0, "pred"), (4, "isu", "isusu", "N", 3, "sub")]
    if dialect == "columns":
        return "# sent_id = z1\n" + "".join(
            f"{i}\t{f}\t{lem}\t{pos}\t_\t{h}\t{rel}\t_\t_\t_\n" for i, f, lem, pos, h, rel in rows)
    return '<source><sentence id="z1">' + "".join(
        f'<token id="{i}" form="{f}" lemma="{lem}" part-of-speech="{pos}" '
        f'head-id="{h}" relation="{rel}"/>' for i, f, lem, pos, h, rel in rows) + "</sentence></source>"


@pytest.mark.parametrize("dialect", ["columns", "xml"])
@pytest.mark.parametrize("first_id", [0, -1])
def test_token_id_below_one_rejected(first_id, dialect):
    # head 0 marks the root: a token numbered 0 would be every root-level
    # token's parent
    assert len(parse_treebank(jegda_clause(1, dialect))[0].tokens) == 4
    with pytest.raises(TreebankError, match=f"sentence z1: token id {first_id} is not a positive"):
        parse_treebank(jegda_clause(first_id, dialect))


def test_two_token_minimal_tree():
    text = "1\tvide\tvideti\tV\t_\t0\tpred\t_\t_\t_\n2\tisu\tisusu\tN\tcase=n\t1\tsub\t_\t_\t_\n"
    sents = parse_treebank(text)
    assert len(sents) == 1
    assert sents[0].tokens[2].head == 1


ROW = "1\tvide\tvideti\tV\t_\t0\tpred\t_\t_\t_\n"


@pytest.mark.parametrize("comments, want", [
    # only a comment whose key is exactly sent_id names the sentence
    (["# sent_id = s1", "# text = no sent_id here = none"], "s1"),
    (["# text = see sent_id = x"], "1"),
    (["# sent_id=s9"], "s9"),
    (["#sent_id =  s2 "], "s2"),
    (["# sent_ids = s3"], "1"),
])
def test_sentence_id_comes_from_the_sent_id_key_only(comments, want):
    (sent,) = parse_treebank("\n".join(comments) + "\n" + ROW)
    assert sent.id == want


# extraction against the fixture ------------------------------------------------

def test_fixture_constructions_exact(sentences):
    got = extract_all(sentences)
    rows = [
        (c.sentence_id, c.kind, c.trigger_ids[0], c.matrix_id, c.position,
         c.subject, c.subject_position, c.aspect)
        for c in got
    ]
    want = [(s, k, t, m, p, subj, sp, asp)
            for s, k, t, m, p, subj, sp, asp, _flags in EXPECTED]
    assert rows == want
    for c, (*_, flags) in zip(got, EXPECTED):
        assert flags <= c.flags


def test_excluded_sentences_produce_nothing(sentences):
    s07 = next(s for s in sentences if s.id == "s07")
    s11 = next(s for s in sentences if s.id == "s11")
    assert extract_absolutes(s07) == []
    assert extract_jegda(s11) == []


def test_resultative_participles_skipped():
    text = ("# sent_id = r1\n"
            "1\tprislu\tprijti\tV\tmood=ptcp|aspect=pfv|resultative=yes\t2\txadv\t2:xsub\t_\t_\n"
            "2\tjestu\tbyti\tV\t_\t0\tpred\t_\t_\t_\n")
    sents = parse_treebank(text)
    assert extract_conjuncts(sents[0]) == []


def test_sentence_initial_flags(sentences):
    s03 = next(s for s in sentences if s.id == "s03")
    cons = extract_conjuncts(s03)
    assert cons[0].sentence_initial  # "i" counts as a particle
    s01 = next(s for s in sentences if s.id == "s01")
    assert extract_conjuncts(s01)[0].sentence_initial


def test_sentence_initial_follows_id_order_not_file_order():
    # the lexical noun 1 precedes the participle 2 but is listed last
    text = ("# sent_id = sh1\n"
            "2\tprislu\tprijti\tV\tmood=ptcp|aspect=pfv\t3\txadv\t_\t_\t_\n"
            "3\tjestu\tbyti\tV\t_\t0\tpred\t_\t_\t_\n"
            "1\tIsusu\tisusu\tN\tcase=n\t3\tsub\t_\t_\t_\n")
    sent = parse_treebank(text)[0]
    assert sent.order == [2, 3, 1]
    cons = extract_conjuncts(sent)
    assert [c.trigger_ids for c in cons] == [[2]]
    assert not cons[0].sentence_initial


def test_non_leftmost_overt_conjunct_flagged_shared():
    # two pre-matrix conjuncts whose xsub slashes point at the same
    # overt argument: only the leftmost heads it
    text = ("# sent_id = sh1\n"
            "1\tvostavu\tvostati\tV\tmood=ptcp|aspect=pfv\t2\txadv\t4:xsub\t_\t_\n"
            "2\ti\ti\tC\t_\t5\txadv\t_\t_\t_\n"
            "3\tprisedu\tprijti\tV\tmood=ptcp|aspect=pfv\t2\txadv\t4:xsub\t_\t_\n"
            "4\tisu\tisusu\tN\tcase=n\t5\tsub\t_\t_\t_\n"
            "5\tvide\tvideti\tV\taspect=pfv\t0\tpred\t_\t_\t_\n")
    sents = parse_treebank(text)
    cons = extract_conjuncts(sents[0])
    assert [c.trigger_ids[0] for c in cons] == [1, 3]
    assert "shared-subject" not in cons[0].flags
    assert "shared-subject" in cons[1].flags
    assert cons[0].subject == cons[1].subject == "overt"


def test_augmented_absolute_flag():
    # participle hangs under the subjunction, the subjunction under the
    # matrix verb
    text = ("# sent_id = a1\n"
            "1\tjako\tjako\tG\t_\t4\taux\t_\t_\t_\n"
            "2\temu\ti\tP\tcase=d\t3\tsub\t_\t_\t_\n"
            "3\tglagoljustju\tglagolati\tV\tmood=ptcp|aspect=ipfv|case=d\t1\tadv\t_\t_\t_\n"
            "4\tpride\tpriti\tV\taspect=pfv\t0\tpred\t_\t_\t_\n")
    sents = parse_treebank(text)
    cons = extract_absolutes(sents[0])
    assert len(cons) == 1
    assert "augmented" in cons[0].flags
    assert cons[0].matrix_id == 4


def test_coordinated_absolute_subject_takes_first_conjunct():
    text = ("# sent_id = c1\n"
            "1\tidustema\titi\tV\tmood=ptcp|aspect=ipfv|case=d\t6\tadv\t_\t_\t_\n"
            "2\ti\ti\tC\t_\t1\tsub\t_\t_\t_\n"
            "3\tpetru\tpetru\tN\tcase=d\t2\tsub\t_\t_\t_\n"
            "4\ti\ti\tC\t_\t2\taux\t_\t_\t_\n"
            "5\tioanu\tioanu\tN\tcase=d\t2\tsub\t_\t_\t_\n"
            "6\tvide\tvideti\tV\taspect=pfv\t0\tpred\t_\t_\t_\n")
    sents = parse_treebank(text)
    cons = extract_absolutes(sents[0])
    assert len(cons) == 1
    assert cons[0].subject_id == 3
    assert "coordinated-subject" in cons[0].flags


def test_extraction_deterministic(sentences):
    a = extract_all(sentences)
    b = extract_all(list(reversed(sentences)))
    assert a == b


def test_jegda_aspect_override_lexicon():
    # a finite verb without an aspect feature stays unknown unless the
    # override lexicon supplies one
    text = ("# sent_id = o1\n"
            "1\tjegda\tjegda\tG\t_\t2\taux\t_\t_\t_\n"
            "2\tpridetu\tpriti\tV\t_\t3\tadv\t_\t_\t_\n"
            "3\tuzritu\tuzreti\tV\t_\t0\tpred\t_\t_\t_\n")
    sents = parse_treebank(text)
    assert extract_jegda(sents[0])[0].aspect == "unknown"
    got = extract_jegda(sents[0], aspect_overrides={"priti": "pfv"})
    assert got[0].aspect == "pfv"
    via_all = extract_all(sents, aspect_overrides={"priti": "pfv"})
    assert via_all[0].aspect == "pfv"


# inject_annotations -------------------------------------------------------------

def test_inject_stopword_and_placeholder():
    rules = EditRules(stopwords={"že", "i"})
    got = inject_annotations("i prišedъ cělova ją", rules, conjunct_positions=[1])
    assert got == "xadv prišedъ cělova ją"


def test_inject_identity_without_rules():
    rules = EditRules(stopwords=set())
    text = "ne viděvъ nikogože"
    assert inject_annotations(text, rules) == text


def test_inject_absolute_placeholder_and_rewrite():
    rules = EditRules(rewrites={"egda": "jegda"}, stopwords={"že"})
    got = inject_annotations("egda že pridetъ pozdě byvъšu", rules,
                             absolute_positions=[4])
    assert got == "jegda pridetъ pozdě absoluteadv byvъšu"


def test_inject_suffix_rules_switch_reference():
    rules = EditRules(stopwords=set(),
                      suffix_rules=[("cu", "DS"), ("ca", "SS")])
    got = inject_annotations("aixi me'u'axüacu me'u'axüaca", rules)
    assert got == "aixi DS me'u'axüacu SS me'u'axüaca"


def test_inject_strip_roundtrip():
    rules = EditRules(rewrites={"egda": "jegda"}, stopwords={"že", "i"},
                      suffix_rules=[("cu", "DS")])
    text = "i egda videvъcu že pride xoditi"
    injected = inject_annotations(text, rules, conjunct_positions=[4])
    stripped = strip_placeholders(injected, rules)
    # placeholder stripping recovers the stopword-free rewritten text
    want_tokens = []
    for tok in text.split():
        tok = rules.rewrites.get(tok, tok)
        if tok not in rules.stopwords:
            want_tokens.append(tok)
    assert stripped == " ".join(want_tokens)


def test_inject_overlap_errors():
    rules = EditRules(stopwords={"i"})
    with pytest.raises(TreebankError, match="overlap"):
        inject_annotations("a b", rules, conjunct_positions=[1],
                           absolute_positions=[1])
    with pytest.raises(TreebankError, match="deleted token"):
        inject_annotations("i pride", rules, conjunct_positions=[0])
    with pytest.raises(TreebankError, match="out of range"):
        inject_annotations("a", rules, conjunct_positions=[5])


# oracle: the per-extractor construction code that extract_all replaced ---------

ORACLE_PARTICLES = ("že", "bo", "li", "i")


def oracle_climb_conjunctions(sent, tok):
    while tok is not None and tok.is_conjunction:
        tok = sent.head_of(tok)
    return tok


def oracle_resolve_matrix(sent, trigger):
    flags = set()
    head = oracle_climb_conjunctions(sent, sent.head_of(trigger))
    if head is None:
        return None, flags
    if head.empty:
        flags.add("non-canonical")
        return head, flags
    if head.is_verb:
        return head, flags
    return None, flags


def oracle_position(trigger, matrix):
    if matrix is None:
        return "NA"
    return "pre" if trigger.id < matrix.id else "post"


def oracle_sentence_initial(sent, construction_ids):
    leftmost = min(construction_ids)
    for tid in sorted(sent.order):
        if tid >= leftmost:
            break
        tok = sent.tokens[tid]
        if tok.empty or tok.is_punct:
            continue
        if tok.form.lower() in ORACLE_PARTICLES:
            continue
        return False
    return True


def oracle_first_conjunct(sent, tok):
    if tok.is_conjunction:
        kids = [c for c in sent.children(tok.id) if not c.is_punct and not c.is_conjunction]
        if kids:
            return min(kids, key=lambda t: t.id)
    return tok


def oracle_conjuncts(sent):
    cands = [
        sent.tokens[tid] for tid in sent.order
        if sent.tokens[tid].relation == "xadv"
        and sent.tokens[tid].is_participle
        and not sent.tokens[tid].is_resultative
    ]
    out = []
    leftmost_pre = {}
    resolved = {}
    for t in cands:
        matrix, flags = oracle_resolve_matrix(sent, t)
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
                if not (matrix is not None and leftmost_pre.get(matrix.id) == t.id):
                    flags.add("shared-subject")
        ids = sent.subtree_ids(t.id)
        if subject_id is not None and "shared-subject" not in flags:
            ids = ids | {subject_id}
        out.append(Construction(
            kind="conjunct", sentence_id=sent.id, trigger_ids=[t.id],
            matrix_id=matrix.id if matrix is not None else None,
            position=oracle_position(t, matrix),
            sentence_initial=oracle_sentence_initial(sent, ids),
            subject=subject, subject_id=subject_id,
            subject_position=(
                ("SV" if subject_id < t.id else "VS") if subject_id is not None else None),
            aspect=t.aspect, flags=flags,
        ))
    return out


def oracle_absolutes(sent):
    out = []
    for tid in sent.order:
        t = sent.tokens[tid]
        if (t.relation != "adv" or not t.is_participle or t.is_resultative
                or t.case != "d"):
            continue
        flags = set()
        head = sent.head_of(t)
        if head is not None and head.is_subjunction:
            flags.add("augmented")
            head = sent.head_of(head)
        head = oracle_climb_conjunctions(sent, head)
        matrix = None
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
            first = oracle_first_conjunct(sent, dative_subs[0])
            if len(dative_subs) > 1 or dative_subs[0].is_conjunction:
                flags.add("coordinated-subject")
            subject_id = first.id
        position = oracle_position(t, matrix)
        if subject_id is None:
            subject = "impersonal" if t.lemma == "byti" else "null"
        else:
            subject = "overt"
        if position == "post" and subject_id is None and t.lemma != "byti":
            continue
        out.append(Construction(
            kind="absolute", sentence_id=sent.id, trigger_ids=[t.id],
            matrix_id=matrix.id if matrix is not None else None,
            position=position,
            sentence_initial=oracle_sentence_initial(sent, sent.subtree_ids(t.id)),
            subject=subject, subject_id=subject_id,
            subject_position=(
                ("SV" if subject_id < t.id else "VS") if subject_id is not None else None),
            aspect=t.aspect, flags=flags,
        ))
    return out


def oracle_jegda(sent, aspect_overrides=None):
    out = []
    for tid in sent.order:
        t = sent.tokens[tid]
        if t.lemma not in ("jegda", "egda"):
            continue
        verb = sent.head_of(t)
        if verb is None or not verb.is_verb:
            continue
        if verb.relation in ("atr", "apos"):
            continue
        head = oracle_climb_conjunctions(sent, sent.head_of(verb))
        matrix = None
        flags = set()
        if head is not None:
            if head.empty:
                flags.add("non-canonical")
                matrix = head
            elif head.is_verb:
                matrix = head
        subject_id = None
        subs = [c for c in sent.children(verb.id) if c.relation == "sub"]
        if subs:
            first = oracle_first_conjunct(sent, subs[0])
            if subs[0].is_conjunction:
                flags.add("coordinated-subject")
            subject_id = first.id
        aspect = verb.aspect
        if aspect == "unknown" and aspect_overrides:
            aspect = aspect_overrides.get(verb.lemma, "unknown")
        position = "NA" if matrix is None else ("pre" if t.id < matrix.id else "post")
        out.append(Construction(
            kind="jegda", sentence_id=sent.id, trigger_ids=[t.id, verb.id],
            matrix_id=matrix.id if matrix is not None else None,
            position=position,
            sentence_initial=oracle_sentence_initial(
                sent, sent.subtree_ids(verb.id) | {t.id}),
            subject="overt" if subject_id is not None else "null",
            subject_id=subject_id,
            subject_position=(
                ("SV" if subject_id < verb.id else "VS") if subject_id is not None else None),
            aspect=aspect, flags=flags,
        ))
    return out


def extract_all_oracle(sentences, aspect_overrides=None):
    out = []
    for sent in sentences:
        out.extend(oracle_conjuncts(sent))
        out.extend(oracle_absolutes(sent))
        out.extend(oracle_jegda(sent, aspect_overrides))
    out.sort(key=lambda c: (c.sentence_id, c.trigger_ids[0], c.kind))
    return out


# sentence kind: its part-of-speech pool, relation pool and preferred head
# parts of speech; conjunct sentences also prefer the root verb as a head
SENTENCE_KINDS = {
    "plain": ("V V V N N C C G PT PU P D".split(),
              "xadv xadv adv adv sub sub aux pred obj atr apos".split(), ("V", "C", "G")),
    "conjunct": ("V V V C N".split(), "xadv xadv sub".split(), ("C",)),
    "absolute": ("V V N N C".split(), "adv adv sub sub".split(), ("V", "C")),
}


def random_treebank(n_sentences: int, seed: int) -> str:
    """Seeded random acyclic trees in the column dialect.

    Token ids are a random subset of 1..2n, and about a third of the
    sentences list them out of id order. Each head is a token earlier in
    a random ranking, so every chain reaches the root. The draws are
    skewed toward what the extractors look for: xadv and dative adv
    participles, conjunction chains, empty nodes, jako and jegda
    subjunctions, sub dependents, and xsub slashes onto verbs, nouns and
    empty nodes. A quarter of the sentences coordinate several
    participles under one root verb with slashes onto its nouns, where
    only the leftmost pre-matrix conjunct heads the subject; another
    quarter hang dative participles with several sub dependents under
    one.
    """
    rng = random.Random(seed)
    lines = []
    for s in range(n_sentences):
        n = rng.randint(2, 12)
        ids = sorted(rng.sample(range(1, 2 * n + 1), n))
        rank = ids[:]
        rng.shuffle(rank)
        mode = rng.choice(["plain", "plain", "conjunct", "absolute"])
        pos_pool, rel_pool, heads = SENTENCE_KINDS[mode]
        rows = {}
        for k, tid in enumerate(rank):
            empty = k > 0 and rng.random() < 0.08
            pos = "V" if empty or k == 0 and mode != "plain" else rng.choice(pos_pool)
            earlier = rank[:k]
            clausal = [h for h in earlier if rows[h][3] in heads]
            if mode == "conjunct":
                clausal = rank[:1] + clausal
            if k == 0 or rng.random() < 0.1:
                head = 0
            else:
                head = rng.choice(clausal if clausal and rng.random() < 0.8 else earlier)
            if pos == "G":
                lemma = rng.choice(["jegda", "egda", "jako", "jegda"])
            elif pos == "V":
                lemma = rng.choice(["byti", "priti", "videti", "prijti"])
            else:
                lemma = rng.choice(["isusu", "i", "ze", "domu", "_"])
            form = "_" if empty else rng.choice(["i", "že", "bo", "li", "vide", "Isu", "I"])
            morph = []
            if pos == "V" and rng.random() < 0.6:
                morph.append("mood=ptcp")
            if rng.random() < 0.6:
                morph.append("aspect=" + rng.choice(["pfv", "ipfv", "x"]))
            if rng.random() < 0.6:
                morph.append("case=" + rng.choice(["d", "d", "n", "a"]))
            if rng.random() < 0.1:
                morph.append("resultative=" + rng.choice(["yes", "1", "no"]))
            relation = "pred" if head == 0 and mode != "plain" else rng.choice(rel_pool)
            rows[tid] = [str(tid), form, lemma, pos, "|".join(sorted(morph)) or "_",
                         str(head), relation, "_", "empty" if empty else "_", "_"]
        nouns = [tid for tid in ids if rows[tid][3] == "N"]
        for tid in ids:
            if mode == "conjunct" and nouns and rng.random() < 0.7:
                rows[tid][7] = f"{rng.choice(nouns)}:xsub"
            elif rng.random() < 0.35:
                targets = rng.sample(ids, rng.randint(1, 2))
                labels = [rng.choice(["xsub", "xsub", "xobj"]) for _ in targets]
                rows[tid][7] = ",".join(f"{t}:{lb}" for t, lb in zip(targets, labels))
        order = ids[:]
        if rng.random() < 0.3:
            rng.shuffle(order)
        lines.append(f"# sent_id = r{s:04d}")
        lines.extend("\t".join(rows[tid]) for tid in order)
        lines.append("")
    return "\n".join(lines)


OVERRIDES = {"priti": "pfv", "videti": "ipfv"}


@pytest.mark.parametrize("overrides", [None, OVERRIDES], ids=["plain", "overrides"])
def test_extract_all_matches_oracle_on_fixture_and_xml(sentences, overrides):
    for sents in (sentences, parse_treebank(XML_SENTENCE)):
        assert (constructions_to_tsv(extract_all(sents, aspect_overrides=overrides))
                == constructions_to_tsv(extract_all_oracle(sents, overrides)))


@pytest.mark.parametrize("overrides", [None, OVERRIDES], ids=["plain", "overrides"])
def test_extract_all_matches_oracle_on_random_trees(overrides):
    sents = parse_treebank(random_treebank(2000, seed=9))
    assert sum(s.order != sorted(s.order) for s in sents) > 400
    want = extract_all_oracle(sents, overrides)
    # the draws reach every kind, position and flag the extractors set
    assert {c.kind for c in want} == {"conjunct", "absolute", "jegda"}
    assert {c.position for c in want} == {"pre", "post", "NA"}
    assert {c.subject for c in want} == {"overt", "null", "impersonal"}
    assert set().union(*(c.flags for c in want)) == {
        "non-canonical", "augmented", "shared-subject", "coordinated-subject"}
    assert {c.sentence_initial for c in want} == {True, False}
    assert constructions_to_tsv(extract_all(sents, aspect_overrides=overrides)) \
        == constructions_to_tsv(want)
