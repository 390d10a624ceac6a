"""Typed cloze prompts: multi-token scoring, entity fallback, FP analysis."""

import json
from dataclasses import replace

import numpy as np
import pytest

import entlm.cloze as cloze_mod
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
from entlm.encoder import EncoderConfig, draw_params, encode, init_params
from entlm.errors import CapacityError, ContractError
from entlm.pretrain import head_specs
from entlm.seeding import substream
from entlm.tensor import log_softmax_np
from entlm.vocab import EntityEntry, EntityVocab, SPECIAL_ENTITIES


@pytest.fixture(scope="module")
def cloze_setup():
    words = ["the", "capital", "of", "japan", "is", "tokyo", "kyoto",
             "big", "city", "a", "b"]
    wv = WordVocab(words)
    entries = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    entries.append(EntityEntry(canonical_key="tokyo", titles={("en", "tokyo")}))
    entries.append(EntityEntry(canonical_key="japan", titles={("en", "japan"), ("de", "japan_de")}))
    ev = EntityVocab(entries)
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                        ffn_size=32, max_positions=24, dropout=0.0).validate()
    rng = substream(0, "cloze-params")
    params = init_params(cfg, rng)
    params.update(draw_params(head_specs(cfg), rng))
    return ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev)


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


def test_score_query_runs_one_encoder_pass(cloze_setup, monkeypatch):
    import entlm.encoder as encoder_mod

    calls = []
    real = encoder_mod.encode_batch

    def counting(params, config, batch, **kwargs):
        calls.append(batch["word_ids"].shape[0])
        return real(params, config, batch, **kwargs)

    monkeypatch.setattr(encoder_mod, "encode_batch", counting)
    for mode in ("word", "entity-y", "entity-xy"):
        score_query(cloze_setup, q(cands=MIXED_CANDIDATES), mode)
    assert calls == [4, 4, 4]


def test_score_query_validates_every_sequence(cloze_setup):
    # a 30-word candidate exceeds max_positions (24) even though the others fit
    long = " ".join(["big"] * 30)
    with pytest.raises(CapacityError):
        score_query(cloze_setup, q(cands=[("japan", None), (long, None)]), "entity-y")


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
