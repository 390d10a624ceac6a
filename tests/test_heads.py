"""Task heads: QA spans and metrics, RE variants, span NER, finetuning."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_re_data
from entlm.corpus import WordVocab
from entlm.encoder import EncodedSequence, EncoderConfig, encode_batch, init_params, pack_batch
from entlm.errors import ContractError
import entlm.heads as heads_mod
from entlm.heads import (
    FINETUNE_WARMUP_FRAC,
    MAX_ANSWER_LEN,
    NER_MAX_SPAN_LEN,
    NERInstance,
    QAInstance,
    REInstance,
    FinetuneConfig,
    _best_span,
    _qa_batch_loss,
    _qa_logits,
    _qa_sequence,
    bio_to_spans,
    enumerate_spans,
    finetune,
    finetune_lr_at,
    load_ner_data,
    load_qa_data,
    load_re_data,
    make_ner_model,
    make_qa_model,
    make_re_model,
    ner_predict,
    ner_span_logits,
    ner_span_f1,
    qa_metrics,
    qa_predict,
    re_classify,
    re_macro_f1,
    token_f1,
    usable_examples,
)
from entlm.seeding import substream
from entlm.vocab import EntityEntry, EntityVocab, SPECIAL_ENTITIES


@pytest.fixture(scope="module")
def task_setup():
    words = ["the", "capital", "of", "japan", "is", "tokyo", "what", "?",
             "a", "b", "c", "d", "e", "works", "for", "born", "in", "x", "y", "z"]
    wv = WordVocab(words)
    entries = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    entries.append(EntityEntry(canonical_key="tokyo", titles={("en", "Tokyo")}))
    entries.append(EntityEntry(canonical_key="japan", titles={("en", "Japan")}))
    ev = EntityVocab(entries)
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                        ffn_size=32, max_positions=32, dropout=0.0).validate()
    params = init_params(cfg, substream(0, "task-params"))
    return cfg, params, wv, ev


# ---------------------------------------------------------------------------
# data formats


def test_load_qa_squad_shape(tmp_path):
    import json
    payload = {"data": [{"paragraphs": [{
        "context": "Tokyo is the capital of Japan",
        "qas": [{"id": "q1", "question": "What is the capital ?",
                 "answers": [{"text": "Tokyo", "answer_start": 0}]}],
    }]}]}
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(payload))
    insts = load_qa_data(str(path))
    assert len(insts) == 1
    assert insts[0].gold_spans == [(0, 1)]
    assert insts[0].answers == ["Tokyo"]


def test_load_qa_char_offsets_multiword(tmp_path):
    import json
    rec = {"id": "q", "question": "where ?", "lang": "de",
           "context": "the Tokyo Tower stands",
           "answers": [{"text": "Tokyo Tower", "answer_start": 4}]}
    path = tmp_path / "qa.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    inst = load_qa_data(str(path))[0]
    assert inst.gold_spans == [(1, 3)]
    assert inst.q_lang == inst.c_lang == "de"


def test_load_qa_json_lines_of_three_records(tmp_path):
    import json
    recs = [{"id": f"q{i}", "question": "where ?", "context": f"the Tokyo Tower stands {i}",
             "answers": [{"text": "Tokyo Tower", "answer_start": 4}]} for i in range(3)]
    path = tmp_path / "qa.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    insts = load_qa_data(str(path))
    assert [i.qid for i in insts] == ["q0", "q1", "q2"]
    assert all(i.gold_spans == [(1, 3)] for i in insts)


def test_load_qa_refuses_a_repeated_question_id(tmp_path):
    import json
    rec = {"question": "where ?", "context": "the Tokyo Tower stands",
           "answers": [{"text": "Tokyo Tower", "answer_start": 4}]}
    path = tmp_path / "qa.jsonl"
    # a record without an id takes its index as its id
    for ids, line in ((["1", None, "1"], 2), ([None, "1", "1"], 3), (["q", "1", "1"], 3)):
        path.write_text("".join(json.dumps(rec if qid is None else {**rec, "id": qid}) + "\n" for qid in ids))
        with pytest.raises(ContractError, match=rf"qa.jsonl:{line}: question id '1' is used by an earlier question"):
            load_qa_data(str(path))
    path.write_text("".join(json.dumps(r) + "\n" for r in (rec, {**rec, "id": "q"}, rec)))
    assert [i.qid for i in load_qa_data(str(path))] == ["0", "q", "2"]


@pytest.mark.parametrize("field,value,named", [
    ("context_entities", [[0, 2, "ent1"]], "context_entities row [0, 2, 'ent1'] is not"),
    ("context_entities", [[0, 2, 5.5]], "context_entities row [0, 2, 5.5] is not"),  # would train as entity 5
    ("context_entities", [[0, 2, True]], "context_entities row [0, 2, True] is not"),  # would be entity 1, [MASK]
    ("question_entities", [[1.0, 2, 4]], "question_entities row [1.0, 2, 4] is not"),
    ("question_entities", [[0, 1]], "question_entities row [0, 1] is not"),
    ("context_entities", "0 2 4", "context_entities '0 2 4' is not a list"),
])
def test_load_qa_refuses_an_entity_row_that_is_not_three_ints(tmp_path, field, value, named):
    import json
    rec = {"question": "where ?", "context": "the Tokyo Tower stands",
           "answers": [{"text": "Tokyo Tower", "answer_start": 4}], "context_entities": [[1, 3, 4]]}
    path = tmp_path / "qa.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in (rec, {**rec, field: value}, rec)))
    with pytest.raises(ContractError, match="^" + re.escape(f"{path}:2: {named}")):
        load_qa_data(str(path))
    path.write_text(json.dumps(rec) + "\n")
    assert load_qa_data(str(path))[0].context_entities == [(1, 3, 4)]


@pytest.mark.parametrize("context", ["", "  \t "])
def test_load_qa_refuses_an_empty_context_naming_its_line(tmp_path, context):
    import json
    rec = {"question": "where ?", "context": "the Tokyo Tower stands",
           "answers": [{"text": "Tokyo Tower", "answer_start": 4}]}
    path = tmp_path / "qa.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in (rec, {**rec, "context": context, "answers": []}, rec)))
    with pytest.raises(ContractError, match="^" + re.escape(f"{path}:2: empty context") + "$"):
        load_qa_data(str(path))


@pytest.mark.parametrize("entities", [
    {"question_entities": [(0, 3, 5)]},  # past the 2-token question
    {"context_entities": [(3, 5, 5)]},  # past the 4-token context
    {"context_entities": [(2, 2, 5)]},  # empty
    {"context_entities": [(-1, 1, 5)]},
])
def test_qa_instance_rejects_entities_outside_their_text(entities):
    inst = QAInstance(qid="q", question_tokens=["who", "?"], context_tokens="the capital is tokyo".split(),
                      answers=["tokyo"], gold_spans=[(3, 4)], **entities)
    with pytest.raises(ContractError):
        inst.validate()


def test_re_data_round_trip(tmp_path):
    insts = [REInstance(tokens="a works for b".split(), head_span=(0, 1),
                        tail_span=(3, 4), label="employer")]
    path = str(tmp_path / "re.tsv")
    save_re_data(insts, path)
    assert load_re_data(path) == insts


def test_re_instance_rejects_overlap():
    with pytest.raises(ContractError):
        REInstance(tokens=list("abcd"), head_span=(0, 2), tail_span=(1, 3), label="r").validate()


def test_bio_round_trip():
    tags = ["B-PER", "I-PER", "O", "B-LOC", "B-LOC", "O"]
    spans = bio_to_spans(tags)
    assert spans == [(0, 2, "PER"), (3, 4, "LOC"), (4, 5, "LOC")]


def test_load_ner_conll(tmp_path):
    path = tmp_path / "ner.txt"
    path.write_text("a B-PER\nb I-PER\nc O\n\nd B-LOC\n")
    insts = load_ner_data(str(path))
    assert len(insts) == 2
    assert insts[0].gold_spans == [(0, 2, "PER")]
    assert insts[1].gold_spans == [(0, 1, "LOC")]


# ---------------------------------------------------------------------------
# QA


def test_token_f1_oracle():
    assert token_f1("New York", "New York City") == pytest.approx(0.8)
    assert token_f1("exact", "exact") == 1.0
    assert token_f1("a", "b") == 0.0
    assert token_f1("", "") == 1.0
    assert token_f1("", "x") == 0.0


def test_best_span_tie_breaks_earliest_then_shortest():
    zeros = np.zeros(5)
    score, s, e = _best_span(zeros, zeros)
    assert (s, e) == (0, 0)


def test_best_span_respects_max_len():
    n = MAX_ANSWER_LEN + 10
    start = np.zeros(n)
    end = np.zeros(n)
    start[0] = 10.0
    end[n - 1] = 10.0  # unreachable from start 0 under the length cap
    end[MAX_ANSWER_LEN - 1] = 5.0
    score, s, e = _best_span(start, end)
    assert (s, e) == (0, MAX_ANSWER_LEN - 1)
    assert e - s + 1 <= MAX_ANSWER_LEN


def _best_span_loop(start_logits, end_logits, max_len=MAX_ANSWER_LEN):
    """Reference: scan spans by start, then end, keeping the first maximum."""
    n = len(start_logits)
    best = None
    for s in range(n):
        for e in range(s, min(n, s + max_len)):
            score = start_logits[s] + end_logits[e]
            if best is None or score > best[0]:
                best = (score, s, e)
    return best


def test_best_span_matches_reference_loop_with_ties():
    rng = substream(0, "best-span-ties")
    for max_len in (1, 4, MAX_ANSWER_LEN):
        for n in range(1, 2 * MAX_ANSWER_LEN + 1):
            # small integer logits: many spans share the maximum score
            start = rng.integers(-2, 3, size=n).astype(np.float64)
            end = rng.integers(-2, 3, size=n).astype(np.float64)
            got = _best_span(start, end, max_len)
            want = _best_span_loop(start, end, max_len)
            assert (float(got[0]), int(got[1]), int(got[2])) == (float(want[0]), want[1], want[2])


def test_qa_predict_shapes(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev)
    inst = QAInstance(qid="1", question_tokens="what is the capital ?".split(),
                      context_tokens="the capital of japan is tokyo".split(),
                      answers=["tokyo"]).validate()
    pred = qa_predict(model, inst)
    s, e = pred["span"]
    assert 0 <= s < e <= len(inst.context_tokens)
    assert pred["text"] == " ".join(inst.context_tokens[s:e])


def test_qa_predict_long_context_uses_windows(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev)
    ctx = ("a b c d e " * 12).split()  # 60 tokens > 32 max positions
    inst = QAInstance(qid="2", question_tokens=["what", "?"],
                      context_tokens=ctx, answers=["a"]).validate()
    pred = qa_predict(model, inst)
    s, e = pred["span"]
    assert 0 <= s < e <= len(ctx)


def test_qa_predict_entity_variant_runs(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev, use_entities=True)
    inst = QAInstance(qid="3", question_tokens=["what", "?"],
                      context_tokens="tokyo is the capital".split(), answers=["tokyo"],
                      context_entities=[(0, 1, ev.resolve("en", "Tokyo"))]).validate()
    pred = qa_predict(model, inst)
    assert "span" in pred


@pytest.mark.parametrize("use_entities", [False, True])
def test_qa_predict_matches_per_window_passes(task_setup, monkeypatch, use_entities):
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev, use_entities=use_entities)
    ctx = ("the capital of japan is tokyo a b c d " * 17).split()  # 170 tokens in windows of 30
    japan = ev.resolve("en", "Japan")
    inst = QAInstance(qid="w", question_tokens=["what", "?"], context_tokens=ctx, answers=["tokyo"],
                      question_entities=[(0, 1, japan)],
                      context_entities=[(s, s + 1, japan) for s in range(3, 170, 10)]).validate()
    calls = _counting_encode(monkeypatch)
    pred = qa_predict(model, inst)
    assert len(calls) == 1
    best = None
    for lo in (0, 30, 60, 90, 120, 140):
        seq, off = _qa_sequence(model, inst, lo, lo + 30)
        data = _qa_logits(model, [seq]).data[0, off : off + 30]
        score, s, e = _best_span(data[:, 0], data[:, 1])
        if best is None or score > best[0]:
            best = (score, lo + s, lo + e + 1)
    assert pred["span"] == best[1:]
    assert abs(pred["score"] - best[0]) <= 1e-10


@pytest.mark.parametrize("q_len, n_ctx", [(4, 100), (4, 28), (4, 29), (2, 170), (30, 7), (1, 400)])
def test_qa_predict_windows_cover_every_context_token(task_setup, monkeypatch, q_len, n_ctx):
    # max_positions 32: a window holds 32 - q_len context tokens, fewer than QA_WINDOW_STRIDE
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev)
    inst = QAInstance(qid="c", question_tokens=["what"] * q_len, context_tokens=["a"] * n_ctx,
                      answers=["a"]).validate()
    bounds = []
    monkeypatch.setattr(heads_mod, "_qa_sequence",
                        lambda model, inst, lo, hi, real=heads_mod._qa_sequence: bounds.append((lo, hi))
                        or real(model, inst, lo, hi))
    qa_predict(model, inst)
    win = cfg.max_positions - q_len
    assert all(hi - lo == min(win, n_ctx) for lo, hi in bounds)
    assert set().union(*(range(lo, hi) for lo, hi in bounds)) == set(range(n_ctx))


def test_qa_predict_is_unchanged_by_interleaved_calls_of_another_shape(task_setup):
    # eval attention shares one score workspace across calls and models
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev, use_entities=True)
    ctx = ("the capital of japan is tokyo a b c d " * 5).split()[:45]  # windows at 0 and 15
    japan = ev.resolve("en", "Japan")
    inst = QAInstance(qid="i", question_tokens=["what", "?"], context_tokens=ctx, answers=["tokyo"],
                      question_entities=[(0, 1, japan)],
                      context_entities=[(s, s + 1, japan) for s in range(3, 45, 10)]).validate()
    alone = qa_predict(model, inst)
    other_cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev), hidden_size=24,
                              entity_emb_size=8, layers=2, heads=3, ffn_size=32, max_positions=64,
                              dropout=0.0).validate()
    other = make_qa_model(other_cfg, init_params(other_cfg, substream(1, "task-params")), wv, ev)
    for _ in range(2):
        qa_predict(other, inst)
        again = qa_predict(model, inst)
        assert again["span"] == alone["span"] and again["score"] == alone["score"]


def test_qa_predict_rejects_empty_context(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev)
    inst = QAInstance(qid="4", question_tokens=["what"], context_tokens=[], answers=[])
    with pytest.raises(ContractError):
        qa_predict(model, inst)


def test_qa_metrics_gxlt_is_off_diagonal_mean():
    golds = {
        "1": ("en", "en", ["x"]),
        "2": ("en", "de", ["x"]),
        "3": ("de", "en", ["x"]),
    }
    preds = {"1": "x", "2": "x", "3": "y"}
    rep = qa_metrics(preds, golds)
    assert rep["pairs"]["en|en"]["f1"] == 1.0
    assert rep["g_xlt_f1"] == pytest.approx(0.5)
    assert rep["g_xlt_em"] == pytest.approx(0.5)
    assert rep["xlt_f1"] == pytest.approx(1.0)


def test_qa_metrics_empty_golds_rejected():
    with pytest.raises(ContractError):
        qa_metrics({}, {})


# ---------------------------------------------------------------------------
# relation extraction


def test_re_entity_variant_initializes_from_mask_row(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_re_model(cfg, params, wv, ev, labels=["r1", "r2"], variant="entity-mask")
    emb = model.params["entity_emb"].data
    assert emb[ev.head_id].tobytes() == emb[ev.mask_id].tobytes()
    assert emb[ev.tail_id].tobytes() == emb[ev.mask_id].tobytes()
    # the original parameter set is untouched
    assert params["entity_emb"].data[ev.head_id].tobytes() != emb[ev.head_id].tobytes() or \
        params["entity_emb"].data[ev.head_id].tobytes() == emb[ev.mask_id].tobytes()


def test_re_word_variant_extends_vocab(task_setup):
    cfg, params, wv, ev = task_setup
    tokens = list(wv.id_to_token)
    model = make_re_model(cfg, params, wv, ev, labels=["r"], variant="word-markers")
    assert "<ent>" in model.word_vocab.token_to_id and "<ent2>" in model.word_vocab.token_to_id
    assert model.encoder_config.word_vocab_size == len(model.word_vocab)
    assert model.params["word_emb"].shape[0] == len(model.word_vocab)
    assert model.params["word_emb"].shape[0] == params["word_emb"].shape[0] + 2
    # the caller's vocab is left as it was
    assert wv.id_to_token == tokens and "<ent>" not in wv.token_to_id


@pytest.mark.parametrize("variant", ["word-markers", "entity-mask"])
def test_re_classify_returns_label(task_setup, variant):
    cfg, params, wv, ev = task_setup
    wv2 = WordVocab(list(wv.token_to_id)[3:])
    model = make_re_model(cfg, params, wv2, ev, labels=["r1", "r2"], variant=variant)
    inst = REInstance(tokens="a works for b".split(), head_span=(0, 1),
                      tail_span=(3, 4), label="r1").validate()
    assert re_classify(model, inst) in ("r1", "r2")


def test_re_macro_f1_oracle():
    golds = ["a", "a", "b", "b"]
    preds = ["a", "b", "b", "b"]
    # a: tp=1 fp=0 fn=1 -> 2/3; b: tp=2 fp=1 fn=0 -> 4/5
    assert re_macro_f1(golds, preds, ["a", "b"]) == pytest.approx((2 / 3 + 4 / 5) / 2)


def re_toy_fixture():
    insts = []
    for i in range(12):
        insts.append(REInstance(tokens="a works for b".split(), head_span=(0, 1),
                                tail_span=(3, 4), label="employer"))
        insts.append(REInstance(tokens="a born in b".split(), head_span=(0, 1),
                                tail_span=(3, 4), label="birthplace"))
    return insts


@pytest.mark.parametrize("variant", ["word-markers", "entity-mask"])
def test_re_toy_fixture_trains_to_100(task_setup, variant):
    cfg, params, wv, ev = task_setup
    wv2 = WordVocab(list(wv.token_to_id)[3:])
    fresh = {n: type(p)(p.data.copy(), requires_grad=True, name=n) for n, p in params.items()}
    model = make_re_model(cfg, fresh, wv2, ev, labels=["birthplace", "employer"], variant=variant)
    insts = re_toy_fixture()
    cfg_ft = FinetuneConfig(lr=1e-2, epochs=5, batch_size=4, seed=1)
    model = finetune(model, insts, dev_insts=insts, cfg=cfg_ft)
    acc = sum(re_classify(model, i) == i.label for i in insts) / len(insts)
    assert acc == 1.0


# ---------------------------------------------------------------------------
# NER


def test_span_count_oracle():
    assert len(enumerate_spans(20)) == 200


def test_span_count_matches_enumeration():
    for n in range(1, 65):
        assert len(enumerate_spans(n)) == sum(n - length + 1 for length in range(1, min(NER_MAX_SPAN_LEN, n) + 1))


def test_enumerate_spans_ordering_and_bounds():
    spans = enumerate_spans(5, max_span_len=3)
    assert spans[0] == (0, 1)
    assert all(1 <= e - s <= 3 and 0 <= s < e <= 5 for s, e in spans)
    assert spans == sorted(spans, key=lambda se: (se[0], se[1]))


@pytest.mark.parametrize("variant", ["word-endpoints", "entity-mask"])
def test_ner_predict_spans_never_overlap(task_setup, variant):
    cfg, params, wv, ev = task_setup
    rng = substream(7, "ner-overlap")
    model = make_ner_model(cfg, params, wv, ev, ["PER", "LOC"], variant=variant,
                           max_span_len=4)
    vocab_words = list(wv.token_to_id)
    for trial in range(12):
        model.params["ner_head.w"].data = rng.normal(size=model.params["ner_head.w"].shape)
        model.params["ner_head.b"].data = rng.normal(size=model.params["ner_head.b"].shape)
        tokens = [vocab_words[int(rng.integers(3, len(vocab_words)))]
                  for _ in range(int(rng.integers(3, 12)))]
        pred = ner_predict(model, NERInstance(tokens=tokens))
        for i, (s1, e1, _) in enumerate(pred):
            for s2, e2, _ in pred[i + 1:]:
                assert e1 <= s2 or e2 <= s1
        assert pred == sorted(pred)


def _counting_encode(monkeypatch):
    calls = []
    real = heads_mod.encode_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(heads_mod, "encode_batch", counting)
    return calls


def _ner_logits_per_row(model, tokens, spans, per_row):
    """Entity-mask span logits with one batch-1 encoder pass per row of per_row spans."""
    out = []
    for lo in range(0, len(spans), per_row):
        part = spans[lo : lo + per_row]
        seq = EncodedSequence(word_ids=model.word_vocab.encode(tokens),
                              entity_ids=[model.entity_vocab.mask_id] * len(part),
                              entity_positions=[list(range(s, e)) for s, e in part])
        ent = encode_batch(model.params, model.encoder_config, pack_batch([seq])).entity_vectors[0]
        out.append(ent @ model.params["ner_head.w"].data + model.params["ner_head.b"].data)
    return np.concatenate(out)


def test_ner_entity_variant_rows_cover_all_spans(task_setup, monkeypatch):
    cfg, params, wv, ev = task_setup
    model = make_ner_model(cfg, params, wv, ev, ["PER"], variant="entity-mask", max_span_len=3)
    tokens = "a b c d e works for japan".split()
    monkeypatch.setattr(heads_mod, "NER_SPANS_PER_ROW", 4)
    calls = _counting_encode(monkeypatch)
    spans, logits = ner_span_logits(model, NERInstance(tokens=tokens))
    assert len(calls) == 1
    assert spans == enumerate_spans(8, 3)
    assert logits.shape == (len(spans), len(model.labels))  # 21 spans in 6 rows, the last one short
    assert np.max(np.abs(logits.data - _ner_logits_per_row(model, tokens, spans, 4))) <= 1e-10


def test_ner_entity_logits_match_per_row_passes(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_ner_model(cfg, params, wv, ev, ["PER", "LOC"], variant="entity-mask")
    tokens = "the capital of japan is tokyo a b c d e x".split()  # 78 spans: two batch rows
    spans, logits = ner_span_logits(model, NERInstance(tokens=tokens))
    assert spans == enumerate_spans(len(tokens))
    want = _ner_logits_per_row(model, tokens, spans, heads_mod.NER_SPANS_PER_ROW)
    assert np.max(np.abs(logits.data - want)) <= 1e-10


def test_ner_span_f1_oracle():
    golds = [[(0, 2, "PER"), (3, 4, "LOC")]]
    preds = [[(0, 2, "PER"), (5, 6, "LOC")]]
    # tp=1 fp=1 fn=1 -> 0.5
    assert ner_span_f1(golds, preds) == pytest.approx(0.5)
    assert ner_span_f1([[]], [[]]) == 0.0


@pytest.mark.parametrize("span", [0, -1])
def test_make_ner_model_refuses_max_span_len_below_1(task_setup, span):
    cfg, params, wv, ev = task_setup
    with pytest.raises(ContractError, match=f"^max_span_len {span} must be an int of at least 1$"):
        make_ner_model(cfg, params, wv, ev, ["PER"], max_span_len=span)


def test_ner_labels_are_o_plus_sorted_types(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_ner_model(cfg, params, wv, ev, ["PER", "LOC", "O"])
    assert model.labels == ["O", "LOC", "PER"]


# ---------------------------------------------------------------------------
# finetuning schedule


def test_finetune_warmup_is_six_percent_ceil():
    cfg = FinetuneConfig(lr=2e-5)
    total = 100
    warmup = math.ceil(0.06 * total)
    assert finetune_lr_at(warmup - 1, total, cfg) < cfg.lr
    assert finetune_lr_at(warmup, total, cfg) == pytest.approx(cfg.lr)
    assert finetune_lr_at(total - 1, total, cfg) == pytest.approx(cfg.lr / (total - warmup))
    assert finetune_lr_at(0, total, cfg) == 0.0


@pytest.mark.parametrize("field, value", [
    ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf), ("epochs", 0), ("epochs", -1), ("batch_size", 0),
])
def test_finetune_config_rejects_invalid_settings(field, value):
    with pytest.raises(ContractError, match=field):
        FinetuneConfig(**{field: value}).validate()


def test_finetune_validates_its_config(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_re_model(cfg, params, wv, ev, labels=["birthplace", "employer"], variant="entity-mask")
    before = model.params
    with pytest.raises(ContractError, match="batch_size"):
        finetune(model, re_toy_fixture(), cfg=FinetuneConfig(batch_size=0))
    assert model.params is before
    FinetuneConfig(lr=0.0, epochs=1, batch_size=1).validate()


def test_finetune_defaults_match_recipe():
    cfg = FinetuneConfig()
    assert (cfg.lr, cfg.epochs, cfg.batch_size, cfg.seed) == (2e-5, None, 8, 0)
    assert FINETUNE_WARMUP_FRAC == 0.06


def test_finetune_qa_runs_and_keeps_best(task_setup):
    cfg, params, wv, ev = task_setup
    fresh = {n: type(p)(p.data.copy(), requires_grad=True, name=n) for n, p in params.items()}
    model = make_qa_model(cfg, fresh, wv, ev)
    insts = [QAInstance(qid=str(i), question_tokens="what is ?".split(),
                        context_tokens="the capital is tokyo".split(),
                        answers=["tokyo"], gold_spans=[(3, 4)]).validate()
             for i in range(4)]
    model = finetune(model, insts, insts, FinetuneConfig(lr=1e-3, epochs=2, batch_size=2))
    pred = qa_predict(model, insts[0])
    assert isinstance(pred["text"], str)


def test_qa_loss_skips_late_answer_before_encoding(task_setup, monkeypatch):
    cfg, params, wv, ev = task_setup
    model = make_qa_model(cfg, params, wv, ev)
    q = ["what", "?"]
    # 40-token context, 30-token first window: the gold span lies past it
    late = QAInstance(qid="late", question_tokens=q, context_tokens=("a b c d e " * 8).split(),
                      answers=["e"], gold_spans=[(39, 40)]).validate()
    usable = QAInstance(qid="ok", question_tokens=q, context_tokens="the capital is tokyo".split(),
                        answers=["tokyo"], gold_spans=[(3, 4)]).validate()
    calls = _counting_encode(monkeypatch)
    both = _qa_batch_loss(model, [late, usable])
    assert len(calls) == 1
    assert both.data == _qa_batch_loss(model, [usable]).data
    with pytest.raises(ContractError):
        _qa_batch_loss(model, [late])
    assert len(calls) == 2


def test_qa_loss_is_the_mean_of_per_example_losses(task_setup):
    cfg, params, wv, ev = task_setup
    tokyo = ev.resolve("en", "Tokyo")
    ctx = "the capital of japan is tokyo".split()
    insts = [QAInstance(qid=str(i), question_tokens=q.split(), context_tokens=ctx[: 4 + i],
                        answers=["x"], gold_spans=[(i, i + 2)],
                        context_entities=[(5, 6, tokyo)] if i == 2 else []).validate()  # only i=2 reaches "tokyo"
             for i, q in enumerate(["what ?", "what is the capital ?", "is it tokyo ?"])]
    for use_entities in (False, True):
        model = make_qa_model(cfg, params, wv, ev, use_entities=use_entities)
        batched = _qa_batch_loss(model, insts).data
        single = sum(_qa_batch_loss(model, [i]).data for i in insts) / len(insts)
        assert abs(batched - single) <= 1e-10


def _task_fixture(task_setup, task):
    """A model of each task on the shared params, with a small training set."""
    cfg, params, wv, ev = task_setup
    if task == "qa":
        model = make_qa_model(cfg, params, wv, ev)
        insts = [QAInstance(qid=str(i), question_tokens="what is ?".split(),
                            context_tokens="the capital is tokyo".split(),
                            answers=["tokyo"], gold_spans=[(3, 4)]).validate() for i in range(4)]
    elif task == "re":
        model = make_re_model(cfg, params, wv, ev, labels=["birthplace", "employer"], variant="word-markers")
        insts = re_toy_fixture()[:4]
    else:
        model = make_ner_model(cfg, params, wv, ev, ["PER"], variant="entity-mask", max_span_len=3)
        insts = [NERInstance(tokens="a works for b".split(), gold_spans=[(0, 1, "PER")]).validate()] * 4
    return model, insts


@pytest.mark.parametrize("task", ["qa", "re", "ner"])
def test_finetune_leaves_callers_params_untouched(task_setup, task):
    cfg, params, wv, ev = task_setup
    before = {n: p.data.tobytes() for n, p in params.items()}
    vocab_before = list(wv.id_to_token)
    model, insts = _task_fixture(task_setup, task)
    model = finetune(model, insts, insts, FinetuneConfig(lr=1e-2, epochs=1, batch_size=2))
    assert {n: p.data.tobytes() for n, p in params.items()} == before
    assert wv.id_to_token == vocab_before
    assert model.params["layer0.attn.wq"].data.tobytes() != before["layer0.attn.wq"]


def test_finetune_qa_drops_late_answers_once(task_setup, monkeypatch):
    cfg, params, wv, ev = task_setup
    model, ok = _task_fixture(task_setup, "qa")
    late = QAInstance(qid="late", question_tokens=["what", "?"], context_tokens=("a b c d e " * 8).split(),
                      answers=["e"], gold_spans=[(39, 40)]).validate()
    train = ok[:3] + [late]
    assert usable_examples(model, train) == ok[:3]
    calls = _counting_encode(monkeypatch)
    # at batch size 1 the late example alone once made a batch without a usable span
    finetune(model, train, cfg=FinetuneConfig(lr=1e-3, epochs=2, batch_size=1))
    assert len(calls) == 6  # two epochs of the three usable examples
    with pytest.raises(ContractError):
        finetune(model, [late])


def test_finetune_ner_runs(task_setup):
    cfg, params, wv, ev = task_setup
    fresh = {n: type(p)(p.data.copy(), requires_grad=True, name=n) for n, p in params.items()}
    model = make_ner_model(cfg, fresh, wv, ev, ["PER"], max_span_len=3)
    insts = [NERInstance(tokens="a works for b".split(), gold_spans=[(0, 1, "PER")]).validate()
             for _ in range(4)]
    model = finetune(model, insts, insts, FinetuneConfig(lr=1e-3, epochs=1, batch_size=2))
    pred = ner_predict(model, insts[0])
    assert all(0 <= s < e <= 4 for s, e, _ in pred)


def test_finetune_counts_gold_spans_longer_than_max_span_len(task_setup):
    cfg, params, wv, ev = task_setup
    model = make_ner_model(cfg, params, wv, ev, ["PER"], max_span_len=2)
    insts = [NERInstance(tokens="a works for b".split(), gold_spans=[(0, 3, "PER"), (3, 4, "PER")]).validate()]
    assert (0, 3) not in ner_span_logits(model, insts[0])[0]  # no candidate covers it
    model = finetune(model, insts * 2, cfg=FinetuneConfig(lr=1e-3, epochs=1, batch_size=2))
    assert (model.skipped_examples, model.skipped_gold_spans) == (0, 2)
    for task in ("qa", "re"):
        model, insts = _task_fixture(task_setup, task)
        model = finetune(model, insts, cfg=FinetuneConfig(lr=1e-3, epochs=1, batch_size=2))
        assert (model.skipped_examples, model.skipped_gold_spans) == (0, 0)
