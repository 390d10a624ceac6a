"""Corpus pipeline: splitting, language sampling, masking statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entlm.corpus as corpus
from entlm.corpus import (
    IGNORE_LABEL,
    AnnotatedDocument,
    SequenceSampler,
    WordVocab,
    build_word_vocab,
    encode_corpus,
    encode_document,
    language_distribution,
    load_corpus,
    mask_batch,
    save_corpus,
    split_sequences,
)
from entlm.encoder import EncodedSequence
from entlm.errors import ContractError
from entlm.seeding import substream
from entlm.synth import make_bilingual_corpus


def doc(tokens, anns=(), breaks=None, lang="en"):
    return AnnotatedDocument(language=lang, title="t", tokens=list(tokens),
                             annotations=list(anns), sentence_breaks=breaks).validate()


def test_document_rejects_overlapping_annotations():
    with pytest.raises(ContractError):
        doc("a b c d".split(), [(0, 2, "X"), (1, 3, "Y")])


def test_corpus_file_round_trip(tmp_path):
    docs, _ = make_bilingual_corpus(n_entities=5, n_sequences=10, seed=1)
    path = str(tmp_path / "corpus.jsonl")
    save_corpus(docs, path)
    loaded = load_corpus(path)
    assert len(loaded) == len(docs)
    assert loaded[0].tokens == docs[0].tokens
    assert loaded[0].annotations == [tuple(a) for a in docs[0].annotations]
    assert loaded[0].language == docs[0].language


def test_word_vocab_rank():
    d = doc("b a a c b a".split())
    wv = build_word_vocab([d])
    # specials first, then by count desc, ties lexicographic
    assert wv.encode(["a"])[0] < wv.encode(["b"])[0] < wv.encode(["c"])[0]
    assert wv.encode(["zzz"])[0] == wv.unk_id


def test_split_packs_whole_sentences():
    d = doc("a b c . d e . f g h .".split(), breaks=[4, 7, 11])
    parts = split_sequences(d, max_words=7)
    # greedy: sentences 1+2 fill the 7-token budget exactly; sentence 3 starts fresh
    assert [p.tokens for p in parts] == [["a", "b", "c", ".", "d", "e", "."], ["f", "g", "h", "."]]


def test_split_hard_splits_long_sentence():
    d = doc([f"w{i}" for i in range(10)], breaks=[10])
    parts = split_sequences(d, max_words=4)
    assert [len(p.tokens) for p in parts] == [4, 4, 2]


def test_split_drops_annotations_crossing_cuts():
    d = doc([f"w{i}" for i in range(10)], anns=[(0, 2, "A"), (3, 5, "B")], breaks=[10])
    parts = split_sequences(d, max_words=4)
    assert parts[0].annotations == [(0, 2, "A")]  # (3,5) crosses the first cut
    assert parts[1].annotations == []


def test_split_punctuation_fallback():
    d = doc("a b . c d .".split())
    parts = split_sequences(d, max_words=3)
    assert [p.tokens for p in parts] == [["a", "b", "."], ["c", "d", "."]]


def test_eq1_language_distribution_oracle():
    dist = language_distribution({"hi": 1000, "lo": 100}, 0.7)
    assert dist["hi"] == pytest.approx(0.8337, abs=5e-5)
    assert dist["lo"] == pytest.approx(0.1663, abs=5e-5)
    assert dist["hi"] + dist["lo"] == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 10**7), min_size=1, max_size=6),
    st.floats(0.01, 1.0),
)
def test_eq1_matches_direct_evaluation(counts, alpha):
    dist = language_distribution({f"l{i}": n for i, n in enumerate(counts)}, alpha)
    w = np.array([float(n) ** alpha for n in counts])
    direct = w / w.sum()
    got = np.array([dist[f"l{i}"] for i in range(len(counts))])
    assert np.max(np.abs(got - direct)) < 1e-12


def test_alpha_one_is_proportional():
    dist = language_distribution({"a": 300, "b": 100}, 1.0)
    assert dist["a"] == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("counts, alpha", [({"a": 3}, 0.0), ({"a": 3}, 1.5), ({}, 0.7), ({"a": 3, "b": 0}, 0.7)])
def test_language_distribution_rejects_bad_input(counts, alpha):
    with pytest.raises(ContractError):
        language_distribution(counts, alpha)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_sampler_rejects_alpha_outside_unit_interval(alpha, monkeypatch):
    monkeypatch.setattr(corpus, "LANGUAGE_ALPHA", alpha)
    with pytest.raises(ContractError, match="alpha"):
        SequenceSampler({"en": [EncodedSequence(word_ids=[1])]})


def test_encode_document_caps_and_skips():
    d = doc("x y z".split(), anns=[(0, 1, "Known"), (1, 2, "Unknown")])

    class FakeVocab:
        def resolve(self, lang, title):
            return 5 if title == "Known" else None

    wv = build_word_vocab([d])
    seq = encode_document(d, wv, FakeVocab())
    assert seq.entity_ids == [5]
    assert seq.entity_positions == [[0]]


def test_encode_corpus_groups_by_language_and_counts_drops():
    class FakeVocab:
        def resolve(self, lang, title):
            return 5 if title == "Known" else None

    docs = [doc("a b . c d .".split(), anns=[(0, 1, "Known"), (1, 2, "Unknown"), (2, 4, "Known")]),
            doc("e f .".split(), anns=[(0, 1, "Known"), (1, 2, "Known")], lang="de")]
    by_lang, dropped = encode_corpus(docs, build_word_vocab(docs), FakeVocab(), max_words=3, entity_cap=1)
    assert [[s.entity_ids for s in by_lang[l]] for l in ("en", "de")] == [[[5], []], [[5]]]
    # "Unknown", the second "de" entity past the cap, and the span (2, 4)
    # that split_sequences drops at the sentence cut after token 3
    assert dropped == 3


def test_masking_statistics():
    rng = substream(0, "mask-stats")
    wv = WordVocab([f"w{i}" for i in range(100)])
    n_tokens = 120_000
    seq = EncodedSequence(
        word_ids=rng.integers(3, len(wv), size=n_tokens).tolist(),
        entity_ids=rng.integers(4, 30, size=20_000).tolist(),
        entity_positions=[[i % n_tokens] for i in range(20_000)],
    )
    mb = mask_batch(seq, rng, wv, entity_mask_id=1)

    selected = [i for i, l in enumerate(mb.word_labels) if l != IGNORE_LABEL]
    frac = len(selected) / n_tokens
    assert abs(frac - 0.15) < 0.005

    to_mask = sum(1 for i in selected if mb.sequence.word_ids[i] == wv.mask_id)
    kept = sum(1 for i in selected if mb.sequence.word_ids[i] == seq.word_ids[i])
    randomized = len(selected) - to_mask - kept
    assert abs(to_mask / len(selected) - 0.80) < 0.015
    assert abs(kept / len(selected) - 0.10) < 0.015
    assert abs(randomized / len(selected) - 0.10) < 0.015

    ent_selected = [j for j, l in enumerate(mb.entity_labels) if l != IGNORE_LABEL]
    assert abs(len(ent_selected) / 20_000 - 0.15) < 0.005
    assert all(mb.sequence.entity_ids[j] == 1 for j in ent_selected)
    # unselected entities untouched
    for j in range(20_000):
        if j not in set(ent_selected):
            assert mb.sequence.entity_ids[j] == seq.entity_ids[j]
            break


def test_masking_never_touches_padding(monkeypatch):
    monkeypatch.setattr(corpus, "WORD_MASK_P", 1.0)
    wv = WordVocab(["a", "b"])
    seq = EncodedSequence(word_ids=[wv.pad_id] * 200)
    mb = mask_batch(seq, substream(1, "pad"), wv, entity_mask_id=1)
    assert mb.sequence.word_ids == seq.word_ids
    assert all(l == IGNORE_LABEL for l in mb.word_labels)


def test_masking_labels_hold_original_ids(monkeypatch):
    for name, p in (("WORD_MASK_P", 1.0), ("WORD_RANDOM_P", 0.0), ("WORD_KEEP_P", 0.0)):
        monkeypatch.setattr(corpus, name, p)
    wv = WordVocab([f"w{i}" for i in range(20)])
    ids = list(range(3, 23))
    seq = EncodedSequence(word_ids=ids)
    mb = mask_batch(seq, substream(2, "lab"), wv, entity_mask_id=1)
    assert mb.word_labels == ids
    assert all(w == wv.mask_id for w in mb.sequence.word_ids)


def test_masking_random_ids_avoid_specials(monkeypatch):
    for name, p in (("WORD_MASK_P", 1.0), ("WORD_RANDOM_P", 1.0), ("WORD_KEEP_P", 0.0)):
        monkeypatch.setattr(corpus, name, p)
    wv = WordVocab([f"w{i}" for i in range(50)])
    seq = EncodedSequence(word_ids=list(range(3, 53)) * 40)
    mb = mask_batch(seq, substream(3, "rand"), wv, entity_mask_id=1)
    assert min(mb.sequence.word_ids) >= 3


def test_sampler_respects_distribution():
    rng = substream(4, "sampler-fixture")
    seqs = {
        "big": [EncodedSequence(word_ids=[1]) for _ in range(1000)],
        "small": [EncodedSequence(word_ids=[2]) for _ in range(100)],
    }
    sampler = SequenceSampler(seqs, seed=9)
    draws = [sampler.draw() for _ in range(5000)]
    frac_big = sum(1 for s in draws if s.word_ids == [1]) / len(draws)
    # expected 0.8337; 3 sigma ~ 0.016
    assert abs(frac_big - 0.8337) < 0.02
    assert rng is not sampler.rng


def test_sampler_is_deterministic():
    seqs = {"en": [EncodedSequence(word_ids=[i]) for i in range(50)]}
    a, b = SequenceSampler(seqs, seed=5), SequenceSampler(seqs, seed=5)
    assert [a.draw().word_ids for _ in range(20)] == [b.draw().word_ids for _ in range(20)]


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("sizes", [(7,), (40, 3), (25, 1, 60)])
def test_sampler_draws_match_generator_choice(sizes, alpha, monkeypatch):
    # reference: `Generator.choice(n, p=p)` for the language, then a uniform
    # index into its pool, on the same substream
    langs = [f"l{i}" for i in range(len(sizes))]
    seqs = {l: [EncodedSequence(word_ids=[i, j]) for j in range(n)]
            for i, (l, n) in enumerate(zip(langs, sizes))}
    dist = language_distribution(dict(zip(langs, sizes)), alpha)
    p = np.array([dist[l] for l in langs])
    monkeypatch.setattr(corpus, "LANGUAGE_ALPHA", alpha)
    sampler = SequenceSampler(seqs, seed=11)
    ref_rng = substream(11, "corpus-sampler")
    for _ in range(10_000):
        li = int(ref_rng.choice(len(langs), p=p))
        pool = seqs[langs[li]]
        assert sampler.draw() is pool[int(ref_rng.integers(len(pool)))]
    assert sampler.rng.bit_generator.state == ref_rng.bit_generator.state
