"""Entity vocabulary: merging, ranking, specials, file round trips."""

import hashlib
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlm.corpus import AnnotatedDocument
from entlm.errors import ContractError
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
    path = str(tmp_path / "entities.tsv")
    ev.save(path)
    loaded = EntityVocab.load(path)
    assert len(loaded) == len(ev)
    for i, e in enumerate(ev.entries):
        assert loaded.entries[i].canonical_key == e.canonical_key
        assert loaded.entries[i].link_count == e.link_count
        assert loaded.entries[i].titles == e.titles


def test_vocab_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a vocab file\n")
    with pytest.raises(ContractError):
        EntityVocab.load(str(path))


# the specials' rows fill lines 2-5, so entity 4 is on line 6 and entity 5 on line 7
_SPECIAL_ROWS = [f"{i}\t{key}\t0\t0\t" for i, key in enumerate(SPECIAL_ENTITIES)]


@pytest.mark.parametrize("rows, line, what", [
    (["4\tk\t1\t3\ten:A", "5\tk\t1\t2\tde:B"], 7, "entity 5: key 'k' is entity 4's"),
    (["4\tk\t1\t3\ten:A", "5\tj\t2\t2\tde:B;en:A"], 7, "entity 5: title en:A is entity 4's"),
    (["4\tk\t1\t3\ten:A;en:A"], 6, "entity 4 lists a title twice"),
    (["4\tk\t7\t0\t"], 6, "entity 4 has a language count of 7, but its titles are in 0 languages"),
    (["4\tk\t1\t3\ten:A;de:A"], 6, "entity 4 has a language count of 1, but its titles are in 2 languages"),
], ids=["repeated-key", "repeated-title", "title-twice-in-a-row", "count-without-titles", "count-below-titles"])
def test_vocab_load_rejects_a_row_that_contradicts_the_file(tmp_path, rows, line, what):
    path = tmp_path / "entities.tsv"
    path.write_text("\n".join(["entlm-entity-vocab\tv1", *_SPECIAL_ROWS, *rows]) + "\n", encoding="utf-8")
    with pytest.raises(ContractError) as info:
        EntityVocab.load(str(path))
    assert str(info.value) == f"{path}:{line}: {what}"


def test_vocab_refuses_entries_that_share_a_key_or_title():
    with pytest.raises(ContractError, match="key 'k'"):
        EntityVocab([EntityEntry(canonical_key="k"), EntityEntry(canonical_key="k")])
    with pytest.raises(ContractError, match="title en:A"):
        EntityVocab([EntityEntry(canonical_key="k", titles={("en", "A")}),
                     EntityEntry(canonical_key="j", titles={("en", "A")})])


def test_links_tsv_round_trip(tmp_path, links):
    path = str(tmp_path / "links.tsv")
    links.save_tsv(path)
    loaded = InterLanguageLinks.load_tsv(path)
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
    path = str(tmp_path / "entities.tsv")
    build_entity_vocab(docs, links, min_languages=2).save(path)
    with open(path, "rb") as f:  # the file the full-scan build wrote
        assert hashlib.sha256(f.read()).hexdigest() == (
            "3c54540b6dc383f0cdd2dbac85bf34351032be2151abd4fc60efc630fadc0d0a")


# ---------------------------------------------------------------------------
# a vocab or link table that saves loads back equal; one that would not read
# back raises before a file is written

_FIELD_TEXT = st.one_of(st.text(alphabet="aB #東", max_size=4),
                        st.text(alphabet="aB #:;\t\r\n東\x85", max_size=4))


def _vocab_fits(entries):
    def clean(text, forbidden):
        return not any(c in text for c in "\t\r\n" + forbidden)

    return all(clean(e.canonical_key, "") and all(clean(lang, ":;") and clean(title, ";") for lang, title in e.titles)
               for e in entries)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FIELD_TEXT, st.integers(0, 99), st.sets(st.tuples(_FIELD_TEXT, _FIELD_TEXT), max_size=3)),
                max_size=5))
def test_vocab_save_load_round_trip(tmp_path_factory, raw):
    entries = [EntityEntry(canonical_key=key, link_count=count, titles=titles) for key, count, titles in raw]
    titles = [pair for e in entries for pair in e.titles]
    if len({e.canonical_key for e in entries}) < len(entries) or len(set(titles)) < len(titles):
        with pytest.raises(ContractError, match="entity"):
            EntityVocab(entries)
        return
    ev = EntityVocab(entries)
    path = tmp_path_factory.mktemp("vocab") / "entities.tsv"
    if not _vocab_fits(entries):
        with pytest.raises(ContractError, match="entity"):
            ev.save(str(path))
        assert not path.exists()
        return
    ev.save(str(path))
    loaded = EntityVocab.load(str(path))
    assert [(e.canonical_key, e.link_count, e.titles) for e in loaded.entries] == \
        [(e.canonical_key, e.link_count, e.titles) for e in ev.entries]
    for e in entries:
        assert loaded.resolve_key(e.canonical_key) == ev.resolve_key(e.canonical_key)
        for lang, title in e.titles:
            assert loaded.resolve(lang, title) == ev.resolve(lang, title)


def _links_fit(links):
    return all(not any(c in text for c in "\t\r\n" for text in (lang, title, key))
               and not lang.startswith("#") and (lang + title + key).strip()
               for (lang, title), key in links._map.items())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT), max_size=6))
def test_links_save_load_round_trip(tmp_path_factory, adds):
    links = InterLanguageLinks()
    for lang, title, key in adds:
        try:
            links.add(lang, title, key)
        except ContractError:
            pass
    path = tmp_path_factory.mktemp("links") / "links.tsv"
    if not _links_fit(links):
        with pytest.raises(ContractError, match="link"):
            links.save_tsv(str(path))
        assert not path.exists()
        return
    links.save_tsv(str(path))
    loaded = InterLanguageLinks.load_tsv(str(path))
    assert loaded._map == links._map
    for key in set(links._map.values()):
        assert loaded.titles_for_key(key) == links.titles_for_key(key)


@pytest.mark.parametrize("lang,title", [("en", "New York; City"), ("en", "New\tYork"), ("en", "New York\n"),
                                        ("en:us", "New York"), ("en;us", "New York")])
def test_title_with_a_separator_is_refused_before_writing(tmp_path, lang, title):
    ev = EntityVocab([*(EntityEntry(canonical_key=name) for name in SPECIAL_ENTITIES),
                      EntityEntry(canonical_key="nyc", titles={(lang, title)})])
    path = tmp_path / "entities.tsv"
    with pytest.raises(ContractError, match=f"'nyc'.*{re.escape(repr(title))}"):
        ev.save(str(path))
    assert not path.exists()


def test_title_that_does_not_encode_is_refused_before_writing(tmp_path):
    links = InterLanguageLinks([("en", "half \ud800 pair", "k")])
    path = tmp_path / "links.tsv"
    with pytest.raises(ContractError, match="UTF-8"):
        links.save_tsv(str(path))
    assert not path.exists()
