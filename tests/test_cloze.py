"""Typed cloze prompts: multi-token scoring, entity fallback, FP analysis."""

import json
from dataclasses import replace

import numpy as np
import pytest

import entlm.cloze as cloze_mod
from entlm.align import feature_dump
from entlm.cloze import (
    ClozeModel,
    TypedQuery,
    _build_cloze_input,
    evaluate,
    fp_analysis,
    load_queries,
    resolve_candidate_entity,
    score_query,
    top1_fp_ratio,
)
from entlm.corpus import WordVocab
from entlm.encoder import EncodedSequence, EncoderConfig, draw_params, encode, encode_batch, init_params, pack_batch
from entlm.errors import CapacityError, ContractError
from entlm.pretrain import head_specs
from entlm.seeding import substream
from entlm.tensor import log_softmax_np
from entlm.vocab import EntityEntry, EntityVocab, SPECIAL_ENTITIES


def _cloze_model(extra_entities=0):
    words = ["the", "capital", "of", "japan", "is", "tokyo", "kyoto",
             "big", "city", "a", "b"]
    wv = WordVocab(words)
    entries = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    entries.append(EntityEntry(canonical_key="tokyo", titles={("en", "tokyo")}))
    entries.append(EntityEntry(canonical_key="japan", titles={("en", "japan"), ("de", "japan_de")}))
    entries.extend(EntityEntry(canonical_key=f"x{i}") for i in range(extra_entities))
    ev = EntityVocab(entries)
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                        ffn_size=32, max_positions=24, dropout=0.0).validate()
    rng = substream(0, "cloze-params")
    params = init_params(cfg, rng)
    params.update(draw_params(head_specs(cfg), rng))
    return ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev)


@pytest.fixture(scope="module")
def cloze_setup():
    return _cloze_model()


def q(template="[X] is the capital of [Y]", sub="tokyo", cands=None, gold=0, lang="en", sub_entity=None):
    cands = cands or [("japan", None), ("kyoto", None)]
    return TypedQuery(language=lang, template=template, sub_surface=sub,
                      candidates=cands, gold_index=gold, sub_entity=sub_entity).validate()


def score_one(m, query, candidate, mode):
    """(score, used_entity) of `score_query` on a one-candidate copy of the query."""
    scores, used = score_query(m, replace(query, candidates=[candidate], gold_index=0), mode)
    return scores[0], used[0]


def test_template_must_have_one_x_and_one_y():
    with pytest.raises(ContractError):
        q(template="[X] and [X] like [Y]")
    with pytest.raises(ContractError):
        q(template="[X] likes nothing")
    with pytest.raises(ContractError):
        q(gold=7)


@pytest.mark.parametrize("fields", [
    dict(sub=""), dict(sub=" "), dict(sub=["tokyo"]), dict(lang=None), dict(sub_entity=3),
    dict(cands=[("japan", None), ("", None)]), dict(cands=[(5, None)]), dict(cands=[("japan", ["tokyo"])]),
], ids=["sub-empty", "sub-blank", "sub-list", "lang-null", "sub-entity-int", "candidate-empty",
        "candidate-int", "candidate-entity-list"])
def test_query_refuses_malformed_fields(fields):
    with pytest.raises(ContractError):
        q(**fields)


def test_build_input_places_masks_and_subject(cloze_setup):
    m = cloze_setup
    seq, y_pos, ent_index = _build_cloze_input(m, q(), k=2)
    toks = "[X] is the capital of [Y]".split()
    # subject "tokyo" fills [X]; two [MASK]s at [Y]
    assert len(seq.word_ids) == len(toks) + 1  # one extra mask token
    assert y_pos == [5, 6]
    assert all(seq.word_ids[p] == m.word_vocab.mask_id for p in y_pos)
    assert seq.word_ids[0] == m.word_vocab.encode(["tokyo"])[0]
    assert ent_index is None


def test_build_input_attaches_entities(cloze_setup):
    m = cloze_setup
    sub_eid = m.entity_vocab.resolve("en", "tokyo")
    seq, y_pos, ent_index = _build_cloze_input(
        m, q(), k=1, subject_entity_id=sub_eid, y_entity_id=m.entity_vocab.mask_id)
    assert seq.entity_ids == [sub_eid, m.entity_vocab.mask_id]
    assert seq.entity_positions == [[0], y_pos]
    assert ent_index == 1


def test_multi_token_mean_is_exact_average(monkeypatch, cloze_setup):
    m = cloze_setup
    query = q(cands=[("big city", None)])
    cand_ids = m.word_vocab.encode(["big", "city"])

    def fake_logprobs(model, vectors):
        assert len(vectors) == 2  # only the two [Y] mask rows, in order
        lp = np.full((len(vectors), len(model.word_vocab)), -9.0)
        lp[0, cand_ids[0]] = -1.0
        lp[1, cand_ids[1]] = -3.0
        return lp

    monkeypatch.setattr(cloze_mod, "_mlm_logprobs", fake_logprobs)
    assert score_one(m, query, ("big city", None), "word")[0] == -2.0


def test_word_score_matches_direct_computation(cloze_setup):
    m = cloze_setup
    query = q(cands=[("big city", None)])
    got, _ = score_one(m, query, ("big city", None), "word")
    seq, y_pos, _ = _build_cloze_input(m, query, k=2)
    out = encode(m.params, m.encoder_config, seq)
    logits = out.word_vectors @ m.params["mlm_head.w"].data + m.params["mlm_head.b"].data
    lp = log_softmax_np(logits, axis=-1)
    ids = m.word_vocab.encode(["big", "city"])
    expected = (lp[y_pos[0], ids[0]] + lp[y_pos[1], ids[1]]) / 2.0
    assert got == pytest.approx(expected, abs=1e-14)


def test_entity_fallback_equals_word_score_exactly(cloze_setup):
    m = cloze_setup
    query = q(cands=[("kyoto", None)])  # not in the entity vocab
    word_score, _ = score_one(m, query, ("kyoto", None), "word")
    ent_score, used = score_one(m, query, ("kyoto", None), "entity-y")
    assert not used
    assert ent_score == word_score  # identical floats, not approximately


def test_entity_mode_uses_mep_head(cloze_setup):
    m = cloze_setup
    score, used = score_one(m, q(), ("japan", None), "entity-y")
    assert used
    assert np.isfinite(score)


def test_entity_xy_differs_when_subject_resolves(cloze_setup):
    m = cloze_setup
    y_score, _ = score_one(m, q(), ("japan", None), "entity-y")
    xy_score, used = score_one(m, q(), ("japan", None), "entity-xy")
    assert used
    assert xy_score != y_score  # the subject's entity token changes the forward


MIXED_CANDIDATES = [
    ("japan", None),  # one word, in the entity vocab
    ("big city", None),  # two words, out of the entity vocab: word fallback
    ("kyoto", None),  # one word, out of the entity vocab
    ("big city", "japan"),  # two words, explicit entity key
]


def _mep_score_per_sequence(m, query, candidate, mode):
    """Entity score from a batch-1 `encode` of the candidate's own sequence."""
    eid = resolve_candidate_entity(m.entity_vocab, query.language, *candidate)
    sub_eid = (resolve_candidate_entity(m.entity_vocab, query.language, query.sub_surface)
               if mode == "entity-xy" else None)
    seq, _, ent_index = _build_cloze_input(m, query, len(candidate[0].split()),
                                           subject_entity_id=sub_eid,
                                           y_entity_id=m.entity_vocab.mask_id)
    out = encode(m.params, m.encoder_config, seq)
    logits = out.entity_vectors[ent_index] @ m.params["mep_head.w"].data + m.params["mep_head.b"].data
    return log_softmax_np(logits)[eid]


@pytest.mark.parametrize("mode", ["word", "entity-y", "entity-xy"])
def test_score_query_equals_one_candidate_calls(cloze_setup, mode):
    m = cloze_setup
    query = q(cands=MIXED_CANDIDATES)
    scores, used = score_query(m, query, mode)
    for cand, score, u in zip(MIXED_CANDIDATES, scores, used):
        single, single_used = score_one(m, query, cand, mode)
        assert u == single_used
        assert abs(score - single) <= 1e-10
        if u:
            assert abs(single - _mep_score_per_sequence(m, query, cand, mode)) <= 1e-12
    expected_used = [False] * 4 if mode == "word" else [True, False, False, True]
    assert used == expected_used


def _counting_encode_batch(monkeypatch):
    """Patch `encoder.encode_batch` to record each call's packed batch; returns the record list."""
    import entlm.encoder as encoder_mod

    calls = []
    real = encoder_mod.encode_batch

    def counting(params, config, batch, **kwargs):
        calls.append(batch)
        return real(params, config, batch, **kwargs)

    monkeypatch.setattr(encoder_mod, "encode_batch", counting)
    return calls


def test_score_query_runs_one_encoder_pass(cloze_setup, monkeypatch):
    calls = _counting_encode_batch(monkeypatch)
    for mode in ("word", "entity-y", "entity-xy"):
        score_query(cloze_setup, q(cands=MIXED_CANDIDATES), mode)
    # word mode: k = 1 and k = 2; each entity mode: (entity, 1), (word, 2), (word, 1), (entity, 2)
    assert [batch["word_ids"].shape[0] for batch in calls] == [2, 4, 4]


# one- and two-word surfaces; "japan", "tokyo" and the explicit keys resolve to entities, the rest fall back
THIRTY_CANDIDATES = (
    [(s, None) for s in ("japan", "tokyo", "kyoto", "big", "city", "a", "b",
                         "big city", "a b", "tokyo japan", "kyoto city")] * 2
    + [("big city", "japan"), ("a b", "tokyo"), ("kyoto", "tokyo"), ("b", "japan"),
       ("city", "nope"), ("city a", None), ("japan", "tokyo"), ("tokyo kyoto", "japan")]
)


def _reference_scores(m, query, mode):
    """(scores, used) with one batch row per candidate: every candidate's own
    sequence packed into one batch, each word-scored token and each
    entity-scored candidate projected as one head row."""
    sub_eid = (resolve_candidate_entity(m.entity_vocab, query.language, query.sub_surface, query.sub_entity)
               if mode == "entity-xy" else None)
    seqs, targets = [], []
    for surface, explicit in query.candidates:
        tokens = surface.split()
        eid = resolve_candidate_entity(m.entity_vocab, query.language, surface, explicit) if mode != "word" else None
        if eid is None:
            seq, y_pos, _ = _build_cloze_input(m, query, len(tokens))
            targets.append((y_pos, None, m.word_vocab.encode(tokens)))
        else:
            seq, y_pos, ent_index = _build_cloze_input(m, query, len(tokens), subject_entity_id=sub_eid,
                                                       y_entity_id=m.entity_vocab.mask_id)
            targets.append((y_pos, ent_index, eid))
        seqs.append(seq)
    out = encode_batch(m.params, m.encoder_config, pack_batch(seqs))
    scores = [0.0] * len(seqs)
    word = [(b, y_pos, ids) for b, (y_pos, ent_index, ids) in enumerate(targets) if ent_index is None]
    if word:
        rows = np.concatenate([np.full(len(y_pos), b) for b, y_pos, _ in word])
        cols = np.concatenate([y_pos for _, y_pos, _ in word])
        lp = log_softmax_np(out.word_vectors[rows, cols] @ m.params["mlm_head.w"].data
                            + m.params["mlm_head.b"].data, axis=-1)
        lo = 0
        for b, _, ids in word:
            scores[b] = float(np.mean(lp[np.arange(lo, lo + len(ids)), ids]))
            lo += len(ids)
    ent = [(b, ent_index, eid) for b, (_, ent_index, eid) in enumerate(targets) if ent_index is not None]
    if ent:
        vectors = out.entity_vectors[[b for b, _, _ in ent], [i for _, i, _ in ent]]
        lp = log_softmax_np(vectors @ m.params["mep_head.w"].data + m.params["mep_head.b"].data, axis=-1)
        for row, (b, _, eid) in enumerate(ent):
            scores[b] = float(lp[row, eid])
    return scores, [t[1] is not None for t in targets]


SHARED_ROW_QUERIES = {
    "mixed": dict(cands=MIXED_CANDIDATES),
    "thirty": dict(cands=THIRTY_CANDIDATES, gold=5),
    "thirty-unresolved-subject": dict(cands=THIRTY_CANDIDATES, sub="big city", sub_entity="nope"),
    # in the entity modes all three share one row, but the MEP head still projects three
    "one-key": dict(cands=[("japan", None), ("tokyo", None), ("kyoto", "japan")]),
}


@pytest.mark.parametrize("mode", ["word", "entity-y", "entity-xy"])
@pytest.mark.parametrize("name", list(SHARED_ROW_QUERIES))
# with 10 more entities, a head GEMM over one row per distinct input, not per candidate, rounds differently
@pytest.mark.parametrize("extra_entities", [0, 10])
def test_shared_rows_score_as_one_row_per_candidate(cloze_setup, monkeypatch, mode, name, extra_entities):
    m = _cloze_model(extra_entities) if extra_entities else cloze_setup
    query = q(**SHARED_ROW_QUERIES[name])
    want_scores, want_used = _reference_scores(m, query, mode)
    calls = _counting_encode_batch(monkeypatch)
    scores, used = score_query(m, query, mode)
    assert scores == want_scores  # identical floats, not approximately
    assert used == want_used
    # one row per distinct input key, no two rows alike
    (batch,) = calls
    keys = {(u, len(surface.split())) for (surface, _), u in zip(query.candidates, want_used)}
    assert batch["word_ids"].shape[0] == len(keys)
    rows = {(w.tobytes(), e.tobytes()) for w, e in zip(batch["word_ids"], batch["entity_ids"])}
    assert len(rows) == len(keys)


def test_score_query_validates_every_sequence(cloze_setup):
    # a 30-word candidate exceeds max_positions (24) even though the others fit
    long = " ".join(["big"] * 30)
    with pytest.raises(CapacityError):
        score_query(cloze_setup, q(cands=[("japan", None), (long, None)]), "entity-y")


@pytest.mark.parametrize("entry", ["encode", "encode_batch", "score_query-word", "score_query-entity-y",
                                   "score_query-entity-xy", "feature_dump"])
def test_every_entry_point_raises_the_same_length_error(cloze_setup, entry):
    # encode_batch is the one place a length is checked, so each path reports it alike
    m, cfg = cloze_setup, cloze_setup.encoder_config
    n = 35  # "tokyo is the capital of" and the 30 masks of a 30-word candidate
    long_seq = EncodedSequence(word_ids=[1] * n, entity_ids=[1], entity_positions=[[0, 1]])
    short = EncodedSequence(word_ids=[1, 2])
    run = {
        "encode": lambda: encode(m.params, cfg, long_seq),
        "encode_batch": lambda: encode_batch(m.params, cfg, pack_batch([short, long_seq])),
        "feature_dump": lambda: feature_dump(m, [("s", "en", {"word_ids": [1, 2], "span": (0, 1)}),
                                                 ("l", "en", {"word_ids": [1] * n, "span": (0, 1)})], "span-mean"),
    }
    if entry.startswith("score_query"):
        query = q(cands=[("japan", None), (" ".join(["big"] * 30), None)])
        run[entry] = lambda: score_query(m, query, entry.split("-", 1)[1])
    with pytest.raises(CapacityError, match=f"^sequence of {n} words exceeds max_positions {cfg.max_positions}$"):
        run[entry]()


def test_resolve_candidate_entity_explicit_and_fallback(cloze_setup):
    ev = cloze_setup.entity_vocab
    assert resolve_candidate_entity(ev, "en", "anything", explicit="japan") == ev.resolve_key("japan")
    assert resolve_candidate_entity(ev, "de", "japan_de") == ev.resolve_key("japan")
    # unknown language falls back to an English title match
    assert resolve_candidate_entity(ev, "fr", "tokyo") == ev.resolve_key("tokyo")
    assert resolve_candidate_entity(ev, "en", "nope") is None


def test_score_query_rejects_unknown_mode(cloze_setup):
    with pytest.raises(ContractError):
        score_query(cloze_setup, q(), "word-entity")


def test_evaluate_reports_per_language(cloze_setup):
    queries = [q(lang="en"), q(lang="de"), q(lang="de")]
    rep = evaluate(cloze_setup, queries, mode="word")
    assert set(rep["per_language"]) == {"en", "de"}
    assert len(rep["records"]) == 3
    accs = [rep["per_language"][l] for l in ("en", "de")]
    assert rep["accuracy"] == pytest.approx((accs[0] * 1 + accs[1] * 2) / 3)
    for r in rep["records"]:
        assert r["predicted_surface"] in ("japan", "kyoto")
        assert r["correct"] == (r["predicted_index"] == r["gold_index"])


def test_evaluate_counts_word_fallbacks(cloze_setup):
    # per query: "japan" resolves to an entity, "kyoto" falls back to words
    queries = [q(lang="en"), q(lang="de"), q(cands=MIXED_CANDIDATES)]
    for mode, fallbacks in (("word", 0), ("entity-y", 4), ("entity-xy", 4)):
        rep = evaluate(cloze_setup, queries, mode=mode)
        assert rep["candidates_scored"] == 8
        assert rep["word_fallbacks"] == fallbacks


def test_evaluate_counts_entity_xy_subject_fallbacks(cloze_setup):
    # "tokyo" resolves to an entity; "kyoto" does not, so entity-xy scores it without a subject token
    queries = [q(sub="tokyo"), q(sub="kyoto"), q(sub="tokyo")]
    for mode, subject_fallbacks in (("word", 0), ("entity-y", 0), ("entity-xy", 1)):
        assert evaluate(cloze_setup, queries, mode=mode)["subject_fallbacks"] == subject_fallbacks


def test_top1_fp_ratio_table_oracle():
    surfaces = ["america"] * 355 + [f"other{i % 5}" for i in range(515)]
    assert len(surfaces) == 870
    res = top1_fp_ratio(surfaces)
    assert res["surface"] == "america"
    assert res["count"] == 355 and res["total"] == 870
    assert res["ratio"] == pytest.approx(355 / 870)
    assert round(res["ratio"], 2) == 0.41


def test_top1_fp_ratio_tie_break_and_empty():
    assert top1_fp_ratio([]) is None
    res = top1_fp_ratio(["b", "a"])
    assert res["surface"] == "a" and res["ratio"] == 0.5


def test_fp_analysis_groups_by_template_and_language():
    records = [
        {"correct": False, "template": "t1", "lang": "en", "predicted_surface": "x"},
        {"correct": False, "template": "t1", "lang": "en", "predicted_surface": "x"},
        {"correct": True, "template": "t1", "lang": "en", "predicted_surface": "y"},
        {"correct": False, "template": "t2", "lang": "de", "predicted_surface": "z"},
    ]
    rep = fp_analysis(records)
    assert rep["en|t1"]["surface"] == "x" and rep["en|t1"]["count"] == 2
    assert rep["de|t2"]["total"] == 1


def test_load_queries(tmp_path):
    rec = {"lang": "en", "template": "[X] borders [Y]", "sub_surface": "a",
           "sub_entity": "a_key",
           "candidates": [{"surface": "b"}, {"surface": "c", "entity": "c_key"}],
           "gold_index": 1}
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    (query,) = load_queries(str(path))
    assert query.candidates == [("b", None), ("c", "c_key")]
    assert query.sub_entity == "a_key"
    assert query.gold_index == 1
