"""Mention-map entity detection and cross-language map translation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlm.corpus import AnnotatedDocument
from entlm.linker import (
    MentionMap,
    _dedupe_ambiguous,
    build_mention_map,
    detect_entities,
    translate_mention_map,
)
from entlm.synth import make_bilingual_corpus
from entlm.vocab import InterLanguageLinks, MentionStats, build_entity_vocab


def doc(lang, tokens, anns, title="page"):
    return AnnotatedDocument(language=lang, title=title, tokens=tokens,
                             annotations=anns, sentence_breaks=None).validate()


@pytest.fixture
def bilingual():
    links = InterLanguageLinks()
    links.add("en", "Tokyo", "tokyo")
    links.add("ja", "東京", "tokyo")
    links.add("en", "Tokyo_Tower", "tokyo_tower")
    links.add("ja", "東京タワー", "tokyo_tower")
    en_docs = [
        doc("en", ["Tokyo", "Tower", "stands", "in", "Tokyo"],
            [(0, 2, "Tokyo_Tower"), (4, 5, "Tokyo")]),
    ]
    ja_docs = [
        doc("ja", ["東京", "に", "東京", "タワー"],
            [(0, 1, "東京"), (2, 4, "東京タワー")]),
    ]
    ev = build_entity_vocab(en_docs + ja_docs, links, min_languages=2)
    return links, ev, en_docs, ja_docs


def test_build_mention_map(bilingual):
    links, ev, en_docs, _ = bilingual
    mm = build_mention_map(en_docs, ev)
    assert mm.get(["Tokyo"]) == ev.resolve("en", "Tokyo")
    assert mm.get(["Tokyo", "Tower"]) == ev.resolve("en", "Tokyo_Tower")
    assert mm.max_surface_len == 2


def test_ambiguous_surfaces_dropped():
    mm_pairs = [(("Apple",), 5), (("Apple",), 6), (("Banana",), 7)]
    from entlm.linker import _dedupe_ambiguous
    kept = _dedupe_ambiguous(mm_pairs)
    assert kept == {("Banana",): 7}


def test_longest_match_wins(bilingual):
    _, ev, en_docs, _ = bilingual
    mm = build_mention_map(en_docs, ev)
    anns = detect_entities(["Tokyo", "Tower", "and", "Tokyo"], mm)
    assert anns == [(0, 2, ev.resolve("en", "Tokyo_Tower")),
                    (3, 4, ev.resolve("en", "Tokyo"))]


def test_matches_do_not_overlap(bilingual):
    _, ev, en_docs, _ = bilingual
    mm = build_mention_map(en_docs, ev)
    anns = detect_entities(["Tokyo", "Tokyo", "Tower"], mm)
    # the first "Tokyo" consumes position 0; the longest match follows
    assert anns == [(0, 1, ev.resolve("en", "Tokyo")),
                    (1, 3, ev.resolve("en", "Tokyo_Tower"))]


def test_link_probability_threshold(bilingual):
    _, ev, en_docs, _ = bilingual
    mm = build_mention_map(en_docs, ev)
    stats = MentionStats()
    stats.add("en", "Tokyo", hyperlink=1, total=250)       # 0.4% < 1%
    stats.add("en", "Tokyo Tower", hyperlink=5, total=10)  # 50%
    anns = detect_entities(["Tokyo", "Tower", "and", "Tokyo"], mm, stats=stats, language="en")
    assert anns == [(0, 2, ev.resolve("en", "Tokyo_Tower"))]


def test_unseen_surface_is_filtered_when_stats_given(bilingual):
    _, ev, en_docs, _ = bilingual
    mm = build_mention_map(en_docs, ev)
    anns = detect_entities(["Tokyo"], mm, stats=MentionStats(), language="en")
    assert anns == []


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_threshold_monotonicity(p1, p2):
    lo, hi = sorted([p1, p2])
    mm = MentionMap({("a",): 4, ("a", "b"): 5, ("c",): 6})
    stats = MentionStats()
    stats.add("en", "a", hyperlink=3, total=10)
    stats.add("en", "a b", hyperlink=6, total=10)
    stats.add("en", "c", hyperlink=1, total=10)
    tokens = ["a", "b", "c", "a", "x", "c"]
    got_lo = detect_entities(tokens, mm, stats=stats, language="en", min_link_prob=lo)
    got_hi = detect_entities(tokens, mm, stats=stats, language="en", min_link_prob=hi)
    assert set(got_hi) <= set(got_lo)


def test_translate_tokyo_alignment(bilingual):
    links, ev, en_docs, ja_docs = bilingual
    mm_en = build_mention_map(en_docs, ev)
    mm_ja = translate_mention_map(mm_en, ev, links, "ja", ja_docs)
    assert mm_ja.get(["東京"]) == ev.resolve("en", "Tokyo")
    assert mm_ja.get(["東京", "タワー"]) == ev.resolve("en", "Tokyo_Tower")
    assert mm_ja.get(["Tokyo"]) is None


def test_translate_omits_entities_without_target_article():
    links = InterLanguageLinks()
    links.add("en", "OnlyEnglish", "only_en")
    en_docs = [doc("en", ["OnlyEnglish"], [(0, 1, "OnlyEnglish")])]
    ev = build_entity_vocab(en_docs, links, min_languages=1)
    mm_en = build_mention_map(en_docs, ev)
    assert len(mm_en.entries) == 1
    mm_ja = translate_mention_map(mm_en, ev, links, "ja", [])
    assert len(mm_ja.entries) == 0


def _translate_by_scan(source_map, vocab, links, target_language, target_docs):
    """Every target-language annotation tested against every entity's titles."""
    target_titles = {}
    for eid in set(source_map.entries.values()):
        titles = {t for lang, t in vocab.entries[eid].titles if lang == target_language}
        key = vocab.entries[eid].canonical_key
        titles |= {t for lang, t in links.titles_for_key(key) if lang == target_language}
        if titles:
            target_titles[eid] = titles
    pairs = []
    for d in target_docs:
        if d.language != target_language:
            continue
        for start, end, target_title in d.annotations:
            for eid, titles in target_titles.items():
                if target_title in titles:
                    pairs.append((tuple(d.tokens[start:end]), eid))
    return MentionMap(_dedupe_ambiguous(pairs))


def _assert_translation_matches_scan(mm, ev, links, lang, docs):
    got = translate_mention_map(mm, ev, links, lang, docs)
    want = _translate_by_scan(mm, ev, links, lang, docs)
    assert list(got.entries.items()) == list(want.entries.items())
    return got


def test_translate_matches_the_scan_on_the_ja_fixture(bilingual):
    links, ev, en_docs, ja_docs = bilingual
    got = _assert_translation_matches_scan(build_mention_map(en_docs, ev), ev, links, "ja", ja_docs + en_docs)
    assert len(got.entries) == 2


def test_translate_matches_the_scan_on_a_synthetic_corpus():
    docs, links = make_bilingual_corpus(n_entities=40, n_sequences=400, seed=1)
    ev = build_entity_vocab(docs, links, min_languages=2)
    en_map = build_mention_map([d for d in docs if d.language == "en"], ev)
    got = _assert_translation_matches_scan(en_map, ev, links, "de", docs)
    assert got.get(["ent0_de"]) == ev.resolve("de", "Ent0_de")
    # a table where Ent0_de also names ent1: two entities claim its surface, which drops
    other = InterLanguageLinks([("de", "Ent0_de", "ent1")])
    got = _assert_translation_matches_scan(en_map, ev, other, "de", docs)
    assert got.get(["ent0_de"]) is None
    assert got.get(["ent1_de"]) == ev.resolve("de", "Ent1_de")
