"""Entity vocabulary: merging, ranking, specials, file round trips."""

import hashlib
import json
import re
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlm.corpus import SPECIAL_WORDS, AnnotatedDocument
from entlm.encoder import EncoderConfig
from entlm.errors import ContractError
from entlm.pretrain import _vocabs_from_header
from entlm.vocab import (
    HEAD_ENTITY_ID,
    MASK_ENTITY_ID,
    PAD_ENTITY_ID,
    SPECIAL_ENTITIES,
    TAIL_ENTITY_ID,
    EntityVocab,
    InterLanguageLinks,
    MentionStats,
    build_entity_vocab,
    EntityEntry,
    collect_mention_stats,
)
from entlm.synth import make_bilingual_corpus


def doc(lang, tokens, anns, title="page"):
    return AnnotatedDocument(language=lang, title=title, tokens=tokens,
                             annotations=anns, sentence_breaks=None).validate()


@pytest.fixture
def links():
    il = InterLanguageLinks()
    for lang, title in [("en", "Tokyo"), ("ja", "東京"), ("de", "Tokio")]:
        il.add(lang, title, "tokyo")
    for lang, title in [("en", "Japan"), ("ja", "日本")]:
        il.add(lang, title, "japan")
    return il


@pytest.fixture
def corpus_docs():
    return [
        doc("en", ["Tokyo", "is", "in", "Japan"], [(0, 1, "Tokyo"), (3, 4, "Japan")]),
        doc("ja", ["東京", "は", "日本"], [(0, 1, "東京"), (2, 3, "日本")]),
        doc("de", ["Tokio", "liegt", "hier"], [(0, 1, "Tokio")]),
    ]


def test_special_ids_are_fixed():
    assert (PAD_ENTITY_ID, MASK_ENTITY_ID, HEAD_ENTITY_ID, TAIL_ENTITY_ID) == (0, 1, 2, 3)
    assert len(SPECIAL_ENTITIES) == 4


def test_build_filters_by_language_spread(corpus_docs, links):
    ev = build_entity_vocab(corpus_docs, links, min_languages=3)
    # only tokyo appears in >= 3 languages
    assert len(ev) == len(SPECIAL_ENTITIES) + 1
    assert ev.resolve("en", "Tokyo") == ev.resolve("ja", "東京") == ev.resolve("de", "Tokio")
    assert ev.resolve("en", "Japan") is None


def test_build_two_language_threshold(corpus_docs, links):
    ev = build_entity_vocab(corpus_docs, links, min_languages=2)
    assert len(ev) == len(SPECIAL_ENTITIES) + 2
    assert ev.resolve("ja", "日本") is not None


def test_ranking_by_count_then_key(links):
    docs = [
        doc("en", ["Tokyo", "Japan", "Japan"], [(0, 1, "Tokyo"), (1, 2, "Japan"), (2, 3, "Japan")]),
        doc("ja", ["東京", "日本"], [(0, 1, "東京"), (1, 2, "日本")]),
    ]
    ev = build_entity_vocab(docs, links, min_languages=2)
    # japan has 3 links, tokyo 2 -> japan gets the lower id
    assert ev.resolve_key("japan") < ev.resolve_key("tokyo")

    tie_docs = [
        doc("en", ["Tokyo", "Japan"], [(0, 1, "Tokyo"), (1, 2, "Japan")]),
        doc("ja", ["東京", "日本"], [(0, 1, "東京"), (1, 2, "日本")]),
    ]
    ev = build_entity_vocab(tie_docs, links, min_languages=2)
    assert ev.resolve_key("japan") < ev.resolve_key("tokyo")  # lexicographic tie-break


def test_top_k_truncation(corpus_docs, links):
    ev = build_entity_vocab(corpus_docs, links, min_languages=2, top_k=1)
    assert len(ev) == len(SPECIAL_ENTITIES) + 1


def test_corpus_order_invariance(corpus_docs, links):
    a = build_entity_vocab(corpus_docs, links, min_languages=2)
    b = build_entity_vocab(list(reversed(corpus_docs)), links, min_languages=2)
    assert [e.canonical_key for e in a.entries] == [e.canonical_key for e in b.entries]


def test_unaligned_title_gets_language_scoped_key(links):
    assert links.canonical_key("en", "Unlinked_Page") == "en:Unlinked_Page"


def test_vocab_file_round_trip(tmp_path, corpus_docs, links):
    ev = build_entity_vocab(corpus_docs, links, min_languages=2)
    path = str(tmp_path / "entities.jsonl")
    ev.save(path)
    loaded = EntityVocab.load(path)
    assert len(loaded) == len(ev)
    for i, e in enumerate(ev.entries):
        assert loaded.entries[i].canonical_key == e.canonical_key
        assert loaded.entries[i].link_count == e.link_count
        assert loaded.entries[i].titles == e.titles
    # one JSON row per line, the rows a checkpoint's vocab.entities holds
    with open(path, encoding="utf-8") as f:
        assert [json.loads(line) for line in f] == json.loads(json.dumps(ev.rows()))


def test_vocab_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not a vocab file\n")
    with pytest.raises(ContractError):
        EntityVocab.load(str(path))


# Bad entity rows, each refused by the vocab file reader (`EntityVocab.load`)
# and by the checkpoint header reader (`pretrain._vocabs_from_header`):
# (rows, the line the file reader names, the header field the checkpoint
# reader names, the words both refusals hold).  The specials' rows fill
# lines 1-4, so entity 4 is on line 5 and entity 5 on line 6.
_SPECIAL_ROWS = [[key, 0, []] for key in SPECIAL_ENTITIES]
_SHAPE = "an entity row must be [key, link_count, [[lang, title], ...]]"

_CONTRADICTING_ROWS = [
    pytest.param([*_SPECIAL_ROWS, ["k", 3, [["en", "A"]]], ["k", 2, [["de", "B"]]]], 6, "vocab.entities",
                 "entity 5: key 'k' is entity 4's", id="repeated-key"),
    pytest.param([*_SPECIAL_ROWS, ["k", 3, [["en", "A"]]], ["j", 2, [["de", "B"], ["en", "A"]]]], 6,
                 "vocab.entities", "entity 5: title en:A is entity 4's", id="repeated-title"),
    pytest.param([*_SPECIAL_ROWS, ["k", 3, [["en", "A"], ["en", "A"]]]], 5, "vocab.entities[4]",
                 "an entity row lists a title twice", id="title-twice-in-a-row"),
    pytest.param([*_SPECIAL_ROWS, ["k", 3]], 5, "vocab.entities[4]", _SHAPE, id="count-without-titles"),
    pytest.param([*_SPECIAL_ROWS, {"key": "k"}], 5, "vocab.entities[4]", _SHAPE, id="not-a-list"),
    pytest.param([*_SPECIAL_ROWS, [7, 3, []]], 5, "vocab.entities[4]", _SHAPE, id="key-not-a-string"),
    pytest.param([*_SPECIAL_ROWS, ["k", "3", []]], 5, "vocab.entities[4]", _SHAPE, id="count-a-string"),
    pytest.param([*_SPECIAL_ROWS, ["k", 3.0, []]], 5, "vocab.entities[4]", _SHAPE, id="count-a-float"),
    pytest.param([*_SPECIAL_ROWS, ["k", True, []]], 5, "vocab.entities[4]", _SHAPE, id="count-a-bool"),
    pytest.param([*_SPECIAL_ROWS, ["k", 3, "en:A"]], 5, "vocab.entities[4]", _SHAPE, id="titles-a-string"),
    pytest.param([*_SPECIAL_ROWS, ["k", 3, [["en"]]]], 5, "vocab.entities[4]", _SHAPE, id="title-one-field"),
    pytest.param([*_SPECIAL_ROWS, ["k", 3, [["en", 1]]]], 5, "vocab.entities[4]", _SHAPE, id="title-not-a-string"),
]

# with no specials, mask_id 1 would name a real entity, which mask_batch would use as [MASK]
_MISPLACED_SPECIALS = [
    pytest.param([["tokyo", 3, [["en", "Tokyo"]]], ["kyoto", 2, [["en", "Kyoto"]]]], 1, "vocab.entities",
                 "entity 0 must be the special [PAD], not 'tokyo'", id="no-specials"),
    pytest.param([_SPECIAL_ROWS[0], ["[HEAD]", 0, []], *_SPECIAL_ROWS[2:]], 2, "vocab.entities",
                 "entity 1 must be the special [MASK], not '[HEAD]'", id="specials-reordered"),
    pytest.param(_SPECIAL_ROWS[:3], 1, "vocab.entities",
                 "3 entities, but ids 0-3 must be the specials [PAD] [MASK] [HEAD] [TAIL]", id="three-specials"),
]


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")


def _refusal(load, path):
    with pytest.raises(ContractError) as info:
        load(str(path))
    return str(info.value)


@pytest.mark.parametrize("rows, line, field, what", _CONTRADICTING_ROWS)
def test_vocab_load_rejects_a_row_that_contradicts_the_file(tmp_path, rows, line, field, what):
    path = tmp_path / "entities.jsonl"
    _write_rows(path, rows)
    err = _refusal(EntityVocab.load, path)
    assert err == f"{path}:{line}: {what}"


@pytest.mark.parametrize("rows, line, field, what", [
    *_MISPLACED_SPECIALS,
    # a file in the tab-separated layout vocab files had before they held JSON rows
    pytest.param("entlm-entity-vocab\tv1\n", 1, None, "JSONDecodeError: Expecting value at column 1",
                 id="header-only"),
])
def test_vocab_load_rejects_a_file_without_the_specials_at_ids_0_to_3(tmp_path, rows, line, field, what):
    path = tmp_path / "entities.jsonl"
    if isinstance(rows, str):
        path.write_text(rows, encoding="utf-8")
    else:
        _write_rows(path, rows)
    assert _refusal(EntityVocab.load, path) == f"{path}:{line}: {what}"


@pytest.mark.parametrize("rows, line, field, what", _CONTRADICTING_ROWS + _MISPLACED_SPECIALS)
def test_checkpoint_vocab_rejects_the_rows_a_vocab_file_may_not_hold(rows, line, field, what):
    config = EncoderConfig(word_vocab_size=len(SPECIAL_WORDS), entity_vocab_size=len(rows))
    vocab = {"words": list(SPECIAL_WORDS), "entities": rows}
    err = _refusal(lambda path: _vocabs_from_header(path, vocab, config), "ckpt.bin")
    assert err.startswith(f"ckpt.bin: header field '{field}' ") and what in err, err


def test_vocab_without_the_specials_is_refused_before_writing(tmp_path):
    path = tmp_path / "entities.jsonl"
    for keys in (["tokyo", "kyoto"], [*SPECIAL_ENTITIES[1:], SPECIAL_ENTITIES[0]]):
        with pytest.raises(ContractError, match=re.escape("entity 0 must be the special [PAD]")):
            EntityVocab([EntityEntry(canonical_key=k) for k in keys])
    with pytest.raises(ContractError, match=re.escape("3 entities, but ids 0-3 must be the specials [PAD] [MASK]")):
        EntityVocab([EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES[:3]]).save(str(path))
    assert not path.exists()


def test_vocab_refuses_entries_that_share_a_key_or_title():
    specials = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    with pytest.raises(ContractError, match="key 'k'"):
        EntityVocab([*specials, EntityEntry(canonical_key="k"), EntityEntry(canonical_key="k")])
    with pytest.raises(ContractError, match="title en:A"):
        EntityVocab([*specials, EntityEntry(canonical_key="k", titles={("en", "A")}),
                     EntityEntry(canonical_key="j", titles={("en", "A")})])


def test_links_tsv_round_trip(tmp_path, links):
    # the links file is JSON lines now; the name is kept from its tab-separated days
    path = str(tmp_path / "links.jsonl")
    links.save(path)
    loaded = InterLanguageLinks.load(path)
    assert loaded.canonical_key("ja", "東京") == "tokyo"
    assert loaded.titles_for_key("tokyo") == links.titles_for_key("tokyo")


def test_link_probability():
    stats = MentionStats()
    stats.add("en", "Tokyo", hyperlink=5, total=100)
    assert stats.link_probability("en", "Tokyo") == pytest.approx(0.05)
    assert stats.link_probability("en", "unseen") is None


def test_collect_mention_stats_counts_unlinked_occurrences():
    d = doc("en", ["Tokyo", "loves", "Tokyo", "Tower"], [(0, 1, "Tokyo")])
    stats = collect_mention_stats([d])
    # surface "Tokyo" occurs twice, hyperlinked once
    assert stats.link_probability("en", "Tokyo") == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# the link index answers as a scan of the table does


def _scan_titles(links, key):
    return {(lang, title) for (lang, title), k in links._map.items() if k == key}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["en", "de", "ja"]), st.sampled_from(["A", "B", "C", "D"]),
                          st.sampled_from(["k1", "k2", "k3"])), max_size=30))
def test_titles_for_key_matches_a_scan_after_rejected_remaps(adds):
    links = InterLanguageLinks()
    for lang, title, key in adds:
        try:
            links.add(lang, title, key)
        except ContractError:
            assert links.canonical_key(lang, title) != key  # a remap, rejected
    for key in ("k1", "k2", "k3", "absent"):
        assert links.titles_for_key(key) == _scan_titles(links, key)
    got = links.titles_for_key("k1")
    got.add(("xx", "not in the table"))
    assert ("xx", "not in the table") not in links.titles_for_key("k1")  # a new set per call


# ---------------------------------------------------------------------------
# mention statistics equal a brute-force rescan of every page per surface


def _count_surface_occurrences(tokens, surface_tokens):
    n, k = len(tokens), len(surface_tokens)
    return sum(1 for i in range(n - k + 1) if tokens[i : i + k] == surface_tokens)


def _reference_mention_stats(docs):
    """Every page rescanned once per anchor surface of its language."""
    surfaces = defaultdict(set)
    hyperlink_counts = defaultdict(int)
    for d in docs:
        for start, end, _target in d.annotations:
            surf = tuple(d.tokens[start:end])
            surfaces[d.language].add(surf)
            hyperlink_counts[(d.language, surf)] += 1
    stats = MentionStats()
    totals = defaultdict(int)
    for d in docs:
        for surf in surfaces[d.language]:
            totals[(d.language, surf)] += _count_surface_occurrences(d.tokens, list(surf))
    for (lang, surf), total in totals.items():
        stats.add(lang, " ".join(surf), hyperlink=hyperlink_counts[(lang, surf)], total=total)
    return stats


def _assert_same_stats(docs):
    got, want = collect_mention_stats(docs), _reference_mention_stats(docs)
    assert list(got.counts.items()) == list(want.counts.items())  # insertion order too
    return got


def test_mention_stats_count_overlapping_matches():
    stats = _assert_same_stats([doc("en", ["a", "a", "a"], [(0, 2, "A")])])
    assert stats.counts[("en", "a a")] == [1, 2]


def test_mention_stats_surfaces_of_several_lengths():
    docs = [
        doc("en", ["New", "York", "is", "in", "New", "York", "State"], [(0, 2, "NYC"), (4, 7, "NYS")]),
        doc("en", ["York", "New", "York", "York"], [(0, 1, "York")]),
    ]
    stats = _assert_same_stats(docs)
    assert stats.counts[("en", "New York")] == [1, 3]
    assert stats.counts[("en", "New York State")] == [1, 1]
    assert stats.counts[("en", "York")] == [1, 5]


def test_mention_stats_pages_in_a_language_without_surfaces():
    docs = [
        doc("fr", ["Tokyo", "Tokyo"], []),
        doc("en", ["Tokyo", "x"], []),
        doc("de", ["Tokio"], [(0, 1, "Tokio")]),
        doc("en", ["Tokyo", "x"], [(0, 1, "Tokyo")]),
        doc("fr", ["Paris"], []),
    ]
    stats = _assert_same_stats(docs)
    # languages come in the order of their first page, not of their first link
    assert list(stats.counts.items()) == [(("en", "Tokyo"), [1, 2]), (("de", "Tokio"), [1, 1])]


def test_mention_stats_tuples_that_join_to_one_string_add_up():
    docs = [doc("en", ["a b", "c", "a", "b c"], [(0, 2, "X"), (2, 4, "Y")])]
    stats = _assert_same_stats(docs)
    assert stats.counts == {("en", "a b c"): [2, 2]}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["en", "de"]),
                          st.lists(st.sampled_from(["a", "b", "a b"]), min_size=1, max_size=8),
                          st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)), max_size=3)),
                min_size=1, max_size=5))
def test_mention_stats_match_the_rescan(pages):
    docs = []
    for lang, tokens, spans in pages:
        anns, taken = [], set()
        for start, length in spans:
            cover = set(range(start, min(start + length, len(tokens))))
            if start < len(tokens) and not cover & taken:
                taken |= cover
                anns.append((start, max(cover) + 1, "T"))
        docs.append(doc(lang, tokens, anns))
    _assert_same_stats(docs)


def _wide_link_pages():
    """The pretrain-wide benchmark corpus and its first 150 pages per language."""
    docs, links = make_bilingual_corpus(n_entities=2000, n_sequences=4000, seed=3)
    pages = []
    for lang in sorted({d.language for d in docs}):
        pages.extend([d for d in docs if d.language == lang][:150])
    return docs, links, pages


def test_wide_mention_stats_and_vocab_are_unchanged(tmp_path):
    docs, links, pages = _wide_link_pages()
    _assert_same_stats(pages)
    path = str(tmp_path / "entities.jsonl")
    build_entity_vocab(docs, links, min_languages=2).save(path)
    with open(path, "rb") as f:  # the rows of the vocabulary the full-scan build wrote
        assert hashlib.sha256(f.read()).hexdigest() == (
            "8db10ebc680f25a4a433d4e5b1047301210379fd00f1f47fc8c50ef5691c7a33")


# ---------------------------------------------------------------------------
# a vocab or link table that saves loads back equal; a vocab whose text UTF-8
# cannot encode raises before a file is written

_FIELD_TEXT = st.one_of(st.text(alphabet="aB #東", max_size=4),
                        st.text(alphabet="aB #:;\t\r\n東\x85", max_size=4))
# a lone surrogate does not encode as UTF-8
_VOCAB_TEXT = st.one_of(_FIELD_TEXT, st.text(alphabet="a:;\n\ud800", max_size=3))


def _encodes(entries):
    texts = [text for e in entries for text in (e.canonical_key, *(x for pair in e.titles for x in pair))]
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_VOCAB_TEXT, st.integers(0, 99), st.sets(st.tuples(_VOCAB_TEXT, _VOCAB_TEXT), max_size=3)),
                max_size=5))
def test_vocab_save_load_round_trip(tmp_path_factory, raw):
    # a vocab file holds the specials at ids 0-3; no generated key has a '['
    entries = [*(EntityEntry(canonical_key=name) for name in SPECIAL_ENTITIES),
               *(EntityEntry(canonical_key=key, link_count=count, titles=titles) for key, count, titles in raw)]
    titles = [pair for e in entries for pair in e.titles]
    if len({e.canonical_key for e in entries}) < len(entries) or len(set(titles)) < len(titles):
        with pytest.raises(ContractError, match="entity"):
            EntityVocab(entries)
        return
    ev = EntityVocab(entries)
    path = tmp_path_factory.mktemp("vocab") / "entities.jsonl"
    if not _encodes(entries):
        with pytest.raises(ContractError, match="UTF-8"):
            ev.save(str(path))
        assert not path.exists()
        return
    ev.save(str(path))
    loaded = EntityVocab.load(str(path))
    assert loaded.rows() == ev.rows()
    for e in entries:
        assert loaded.resolve_key(e.canonical_key) == ev.resolve_key(e.canonical_key)
        for lang, title in e.titles:
            assert loaded.resolve(lang, title) == ev.resolve(lang, title)


# any text UTF-8 can encode, tabs, line breaks and a leading '#' among it
_LINK_TEXT = st.one_of(st.text(alphabet="aB #:\t\r\n東\x85\u2028", max_size=4),
                       st.text(st.characters(codec="utf-8"), max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LINK_TEXT, _LINK_TEXT, _LINK_TEXT), max_size=6))
@example([("#en", "New\tYork\n", "nyc"), ("en", "#comment", "k"), (" ", "\r\n", "\t"), ("", "", "")])
def test_links_save_load_round_trip(tmp_path_factory, adds):
    links = InterLanguageLinks()
    for lang, title, key in adds:
        try:
            links.add(lang, title, key)
        except ContractError:
            pass
    path = tmp_path_factory.mktemp("links") / "links.jsonl"
    links.save(str(path))
    loaded = InterLanguageLinks.load(str(path))
    assert loaded._map == links._map
    for key in set(links._map.values()):
        assert loaded.titles_for_key(key) == links.titles_for_key(key)


@pytest.mark.parametrize("text, line, what", [
    ('["en", "A", "k"]\n["en", "B"]\n', 2, "a link row must be [language, title, canonical_key]"),
    ('["en", "A", 3]\n', 1, "a link row must be [language, title, canonical_key]"),
    ('{"en": "A"}\n', 1, "a link row must be [language, title, canonical_key]"),
    ('["en", "A", "k"]\n\n["en", "A", "j"]\n', 3, "('en', 'A') already mapped to 'k', cannot remap to 'j'"),
], ids=["two-fields", "key-not-a-string", "not-a-list", "remap"])
def test_links_load_refuses_a_row_naming_its_line(tmp_path, text, line, what):
    path = tmp_path / "links.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ContractError, match="^" + re.escape(f"{path}:{line}: {what}") + "$"):
        InterLanguageLinks.load(str(path))


@pytest.mark.parametrize("lang,title", [("en", "New York; City"), ("en", "New\tYork"), ("en", "New York\n"),
                                        ("en:us", "New York"), ("en;us", "New York")])
def test_title_with_a_separator_round_trips(tmp_path, lang, title):
    ev = EntityVocab([*(EntityEntry(canonical_key=name) for name in SPECIAL_ENTITIES),
                      EntityEntry(canonical_key="nyc", titles={(lang, title)})])
    path = tmp_path / "entities.jsonl"
    ev.save(str(path))
    loaded = EntityVocab.load(str(path))
    assert loaded.entries[4].titles == {(lang, title)} and loaded.resolve(lang, title) == 4
