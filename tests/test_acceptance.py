"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success so `pytest -v -s` doubles as
a checklist.
"""

import os
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

import entlm.cloze as cloze_mod
import entlm.tensor as T
from conftest import random_sequence, reference_word_forward
from entlm.align import SpanEmbedding, cwr_mrr, knn_graph, modularity_of_partition, span_embed
from entlm.cli import EXIT_OK, main
from entlm.cloze import ClozeModel, TypedQuery, score_candidate_entity, score_candidate_words, top1_fp_ratio
from entlm.corpus import (
    IGNORE_LABEL,
    AnnotatedDocument,
    LanguageSamplingSpec,
    WordVocab,
    build_word_vocab,
    encode_document,
    language_distribution,
    mask_batch,
    save_corpus,
    split_sequences,
)
from entlm.encoder import EncodedSequence, EncoderConfig, encode, encode_batch, init_params, pack_batch
from entlm.heads import (
    FinetuneConfig,
    NERInstance,
    REInstance,
    enumerate_spans,
    finetune,
    make_ner_model,
    make_re_model,
    ner_predict,
    re_classify,
    save_re_data,
    span_candidate_count,
)
from entlm.linker import build_mention_map, detect_entities, translate_mention_map
from entlm.pretrain import TrainConfig, init_head_params, init_model, lr_at, stage_of, train
from entlm.seeding import substream
from entlm.synth import make_bilingual_corpus
from entlm.vocab import (
    SPECIAL_ENTITIES,
    EntityEntry,
    EntityVocab,
    InterLanguageLinks,
    MentionStats,
    build_entity_vocab,
)


def ok(n, msg):
    print(f"\n[criterion {n:02d}] PASS — {msg}")


# ---------------------------------------------------------------------------
# 1. smoothed language sampling


def test_criterion_01_language_sampling():
    rng = substream(0, "acceptance-eq1")
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        counts = rng.integers(1, 10**7, size=k).astype(float)
        alpha = float(rng.uniform(0.05, 1.0))
        spec = LanguageSamplingSpec({f"l{i}": int(c) for i, c in enumerate(counts)}, alpha=alpha)
        dist = language_distribution(spec)
        w = counts**alpha
        direct = w / w.sum()
        got = np.array([dist[f"l{i}"] for i in range(k)])
        assert np.max(np.abs(got - direct)) < 1e-12
    dist = language_distribution(LanguageSamplingSpec({"hi": 1000, "lo": 100}, alpha=0.7))
    assert dist["hi"] == pytest.approx(0.8337, abs=5e-5)
    assert dist["lo"] == pytest.approx(0.1663, abs=5e-5)
    ok(1, "exponent-smoothed sampling matches direct evaluation within 1e-12 "
          "over 1000 random cases; [1000,100] @ 0.7 -> [0.8337, 0.1663]")


# ---------------------------------------------------------------------------
# 2. gradient correctness on the full tiny encoder


def test_criterion_02_full_encoder_gradients(tiny_config, tiny_params):
    rng = substream(1, "acceptance-grad")
    seq = random_sequence(rng, tiny_config, n_words=7, n_entities=2)
    packed = pack_batch([seq])
    word_labels = np.where(rng.random(7) < 0.5, rng.integers(0, 50, size=7), -100)
    entity_labels = np.array([4, -100])
    heads = init_head_params(tiny_config, substream(2, "acceptance-heads"))
    params = dict(tiny_params, **heads)

    def loss():
        out = encode_batch(params, tiny_config, packed)
        w = T.reshape(out.word_tensor, (-1, tiny_config.hidden_size))
        e = T.reshape(out.entity_tensor, (-1, tiny_config.hidden_size))
        l1 = T.cross_entropy_logits(T.matmul(w, params["mlm_head.w"]) + params["mlm_head.b"], word_labels)
        l2 = T.cross_entropy_logits(T.matmul(e, params["mep_head.w"]) + params["mep_head.b"], entity_labels)
        return l1 + l2

    err = T.grad_check(loss, params, eps=1e-5, rng=np.random.default_rng(0))
    assert err < 1e-4, f"max relative error {err}"
    ok(2, f"finite differences on 2-layer/32-hidden/2-head encoder with both "
          f"prediction heads: max relative error {err:.2e} < 1e-4")


# ---------------------------------------------------------------------------
# 3. equivariances


def test_criterion_03_equivariance_and_word_only():
    rng = substream(3, "acceptance-equivariance")
    checked = 0
    for trial in range(100):
        cfg = EncoderConfig(
            word_vocab_size=int(rng.integers(10, 40)),
            entity_vocab_size=int(rng.integers(5, 15)),
            hidden_size=8 * int(rng.integers(1, 4)),
            entity_emb_size=4,
            layers=int(rng.integers(1, 3)),
            heads=2,
            ffn_size=16,
            max_positions=16,
            dropout=0.0,
            entity_position_mode="sum" if trial % 2 else "mean",
        ).validate()
        params = init_params(cfg, substream(trial, "acceptance-eq-params"))
        n = int(rng.integers(2, 5))
        seq = random_sequence(rng, cfg, n_entities=n)
        perm = rng.permutation(n)
        permuted = EncodedSequence(
            word_ids=seq.word_ids,
            entity_ids=[seq.entity_ids[i] for i in perm],
            entity_positions=[seq.entity_positions[i] for i in perm],
        )
        a = encode(params, cfg, seq)
        b = encode(params, cfg, permuted)
        assert np.max(np.abs(a.word_vectors - b.word_vectors)) < 1e-10
        assert np.max(np.abs(a.entity_vectors[perm] - b.entity_vectors)) < 1e-10

        bare = EncodedSequence(word_ids=seq.word_ids)
        got = encode(params, cfg, bare).word_vectors
        ref = reference_word_forward(params, cfg, seq.word_ids)
        assert np.max(np.abs(got - ref)) < 1e-10
        checked += 1
    assert checked == 100
    ok(3, "entity-permutation equivariance and zero-entity word-only equivalence "
          "hold within 1e-10 on 100 random configurations")


# ---------------------------------------------------------------------------
# 4. masking statistics


def test_criterion_04_masking_statistics():
    rng = substream(4, "acceptance-masking")
    wv = WordVocab([f"w{i}" for i in range(200)])
    n_words, n_entities = 100_000, 40_000
    seq = EncodedSequence(
        word_ids=rng.integers(3, len(wv), size=n_words).tolist(),
        entity_ids=rng.integers(4, 50, size=n_entities).tolist(),
        entity_positions=[[i % n_words] for i in range(n_entities)],
    )
    mb = mask_batch(seq, rng, wv, entity_mask_id=1)
    sel = [i for i, l in enumerate(mb.word_labels) if l != IGNORE_LABEL]
    assert abs(len(sel) / n_words - 0.15) < 0.005
    masked = sum(1 for i in sel if mb.sequence.word_ids[i] == wv.mask_id)
    kept = sum(1 for i in sel if mb.sequence.word_ids[i] == seq.word_ids[i])
    rand = len(sel) - masked - kept
    assert abs(masked / len(sel) - 0.80) < 0.015
    assert abs(rand / len(sel) - 0.10) < 0.015
    assert abs(kept / len(sel) - 0.10) < 0.015
    esel = [j for j, l in enumerate(mb.entity_labels) if l != IGNORE_LABEL]
    assert abs(len(esel) / n_entities - 0.15) < 0.005
    assert all(mb.sequence.entity_ids[j] == 1 for j in esel)
    ok(4, f"over 1e5 words: {len(sel)/n_words:.4f} selected (15% ± 0.5%), "
          f"replace/random/keep split within ±1.5%; entities 15% ± 0.5%, always to entity-[MASK]")


# ---------------------------------------------------------------------------
# 5. two-stage schedule


def test_criterion_05_two_stage_schedule():
    cfg = TrainConfig(total_steps=1_000_000, stage1_steps=500_000)
    probes = [0, 1, 1250, 2499, 2500, 2501, 100_000, 250_000, 499_999,
              500_000, 500_001, 501_250, 502_499, 502_500, 502_501,
              600_000, 750_000, 900_000, 999_998, 999_999]
    assert len(probes) == 20
    for step in probes:
        if step < 500_000:
            local, peak = step, cfg.stage1_peak_lr
        else:
            local, peak = step - 500_000, cfg.peak_lr
        if local < 2500:
            expected = peak * local / 2500
        else:
            expected = peak * (500_000 - local) / 497_500
        assert lr_at(step, cfg) == expected, step
    # scheduler reset at the stage boundary
    assert lr_at(499_999, cfg) > 0 and lr_at(500_000, cfg) == 0.0
    assert stage_of(499_999, cfg) == 1 and stage_of(500_000, cfg) == 2

    # frozen parameters bit-identical across stage 1
    docs, links = make_bilingual_corpus(n_entities=6, n_sequences=40, seed=6)
    ev = build_entity_vocab(docs, links, min_languages=2)
    wv = build_word_vocab(docs)
    by_lang = {}
    for d in docs:
        for sd in split_sequences(d, 16):
            by_lang.setdefault(d.language, []).append(encode_document(sd, wv, ev))
    enc_cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                            hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                            ffn_size=32, max_positions=16, dropout=0.0).validate()
    tcfg = TrainConfig(total_steps=4, stage1_steps=4, batch_size=4, warmup_steps=2, seed=7)
    before = {n: p.data.copy() for n, p in init_model(enc_cfg, seed=tcfg.seed).items()}
    result = train(enc_cfg, tcfg, by_lang, wv, ev)
    for name, arr in before.items():
        if not any(pat in name for pat in tcfg.stage1_trainable_patterns):
            assert result.params[name].data.tobytes() == arr.tobytes(), name
    ok(5, "lr matches the per-stage closed form at 20 probe steps exactly, resets "
          "at the stage boundary, and stage-1 frozen parameters stay bit-identical")


# ---------------------------------------------------------------------------
# 6. end-to-end toy pretraining


@pytest.fixture(scope="module")
def toy_pretrained():
    docs, links = make_bilingual_corpus(n_entities=30, n_sequences=500, seed=3)
    ev = build_entity_vocab(docs, links, min_languages=2)
    wv = build_word_vocab(docs)
    seqs = {}
    for d in docs:
        for sd in split_sequences(d, 16):
            seqs.setdefault(d.language, []).append(encode_document(sd, wv, ev))
    train_pool = {l: v[:-20] for l, v in seqs.items()}
    held = [(l, s) for l, v in seqs.items() for s in v[-20:]]
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=32, entity_emb_size=16, layers=2, heads=2,
                        ffn_size=64, max_positions=16, dropout=0.0).validate()
    tcfg = TrainConfig(total_steps=2000, stage1_steps=0, batch_size=8,
                       peak_lr=1e-3, warmup_steps=100, seed=7, log_interval=500)
    result = train(cfg, tcfg, train_pool, wv, ev)
    return cfg, result.params, wv, ev, seqs, held


def test_criterion_06_toy_pretraining(toy_pretrained):
    cfg, params, wv, ev, seqs, held = toy_pretrained
    n_entities = 30
    correct = 0
    for _lang, s in held:
        masked = replace(s, entity_ids=[ev.mask_id] * len(s.entity_ids))
        out = encode(params, cfg, masked)
        logits = out.entity_vectors[0] @ params["mep_head.w"].data + params["mep_head.b"].data
        correct += int(np.argmax(logits)) == s.entity_ids[0]
    acc = correct / len(held)
    chance = 1.0 / n_entities
    assert acc >= 5 * chance, f"held-out MEP accuracy {acc:.3f} < 5x chance {5*chance:.3f}"

    def mention_vec(s):
        out = encode(params, cfg, s)
        pos = s.entity_positions[0]
        return span_embed(out.word_vectors, (pos[0], pos[-1] + 1))

    pool_by_ent = {}
    for s in seqs["de"][:80]:
        eid = s.entity_ids[0]
        if eid not in pool_by_ent:
            pool_by_ent[eid] = SpanEmbedding(uid=f"de{eid}", language="de", text="",
                                             vector=mention_vec(s))
    queries, gold, seen = [], {}, set()
    for s in seqs["en"][:100]:
        eid = s.entity_ids[0]
        if eid in seen or eid not in pool_by_ent:
            continue
        seen.add(eid)
        queries.append(SpanEmbedding(uid=f"en{eid}", language="en", text="",
                                     vector=mention_vec(s)))
        gold[f"en{eid}"] = f"de{eid}"
    pool = list(pool_by_ent.values())
    mrr = cwr_mrr(queries, pool, gold)
    baseline = sum(1.0 / r for r in range(1, len(pool) + 1)) / len(pool)
    assert mrr >= baseline + 0.2, f"MRR {mrr:.3f} vs random baseline {baseline:.3f}"
    ok(6, f"2-language toy corpus: held-out MEP top-1 {acc:.3f} (chance {chance:.3f}), "
          f"cross-lingual mention MRR {mrr:.3f} vs random {baseline:.3f}")


# ---------------------------------------------------------------------------
# 7. NER enumeration and decoding


def test_criterion_07_ner_enumeration_and_decode():
    for n in range(1, 65):
        assert span_candidate_count(n) == len(enumerate_spans(n))
    assert span_candidate_count(20) == 200

    wv = WordVocab([f"w{i}" for i in range(30)])
    ev = EntityVocab([EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES])
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                        ffn_size=32, max_positions=16, dropout=0.0).validate()
    params = init_params(cfg, substream(8, "acceptance-ner"))
    rng = substream(9, "acceptance-ner-fixtures")
    words = list(wv.token_to_id)
    model = make_ner_model(cfg, params, wv, ev, ["PER", "LOC"], max_span_len=4)
    for trial in range(1000):
        model.params["ner_head.w"].data = rng.normal(size=model.params["ner_head.w"].shape)
        model.params["ner_head.b"].data = rng.normal(size=model.params["ner_head.b"].shape)
        tokens = [words[int(rng.integers(3, len(words)))]
                  for _ in range(int(rng.integers(2, 13)))]
        pred = ner_predict(model, NERInstance(tokens=tokens))
        for i, (s1, e1, _) in enumerate(pred):
            for s2, e2, _ in pred[i + 1:]:
                assert e1 <= s2 or e2 <= s1, f"overlap in trial {trial}: {pred}"
    ok(7, "span-count formula verified exhaustively for n=1..64 (n=20 -> 200); "
          "greedy decode produced no overlapping spans across 1000 random fixtures")


# ---------------------------------------------------------------------------
# 8. RE entity variant


def test_criterion_08_re_entity_variant():
    wv = WordVocab(["a", "b", "works", "for", "born", "in"])
    ev = EntityVocab([EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES])
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                        ffn_size=32, max_positions=16, dropout=0.0).validate()
    params = init_params(cfg, substream(10, "acceptance-re"))
    model = make_re_model(cfg, params, wv, ev, labels=["birthplace", "employer"],
                          variant="entity-mask")
    emb = model.params["entity_emb"].data
    assert emb[ev.head_id].tobytes() == emb[ev.mask_id].tobytes()
    assert emb[ev.tail_id].tobytes() == emb[ev.mask_id].tobytes()

    insts = []
    for _ in range(12):
        insts.append(REInstance(tokens="a works for b".split(), head_span=(0, 1),
                                tail_span=(3, 4), label="employer"))
        insts.append(REInstance(tokens="a born in b".split(), head_span=(0, 1),
                                tail_span=(3, 4), label="birthplace"))
    model = finetune(model, insts, dev_insts=insts,
                        cfg=FinetuneConfig(lr=1e-2, epochs=5, batch_size=4, seed=1))
    acc = sum(re_classify(model, i) == i.label for i in insts) / len(insts)
    assert acc == 1.0
    ok(8, "[HEAD]/[TAIL] rows equal the entity-[MASK] row bit-exactly at init; "
          "2-relation toy fixture reaches 100% training accuracy within 5 epochs")


# ---------------------------------------------------------------------------
# 9. cloze scoring


def test_criterion_09_cloze_scoring(monkeypatch):
    wv = WordVocab(["the", "capital", "of", "is", "tokyo", "kyoto", "big", "city"])
    entries = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    entries.append(EntityEntry(canonical_key="tokyo", titles={("en", "tokyo")}))
    ev = EntityVocab(entries)
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                        ffn_size=32, max_positions=24, dropout=0.0).validate()
    rng = substream(11, "acceptance-cloze")
    params = init_params(cfg, rng)
    params.update(init_head_params(cfg, rng))
    model = ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev)
    query = TypedQuery(language="en", template="[X] is the capital of [Y]",
                       sub_surface="tokyo", candidates=[("big city", None)],
                       gold_index=0).validate()

    cand_ids = wv.encode(["big", "city"])

    def fixed_logprobs(m, vectors):
        assert len(vectors) == 2  # the [Y] mask rows, in order
        lp = np.full((len(vectors), len(m.word_vocab)), -7.0)
        lp[0, cand_ids[0]] = -1.0
        lp[1, cand_ids[1]] = -3.0
        return lp

    monkeypatch.setattr(cloze_mod, "_mlm_logprobs", fixed_logprobs)
    assert score_candidate_words(model, query, "big city") == -2.0
    monkeypatch.undo()

    # out-of-vocab candidate: entity mode falls back to the word score exactly
    word = score_candidate_words(model, query, "kyoto")
    ent, used = score_candidate_entity(model, query, ("kyoto", None))
    assert not used and ent == word

    res = top1_fp_ratio(["america"] * 355 + [f"o{i}" for i in range(515)])
    assert res["count"] == 355 and res["total"] == 870
    assert res["ratio"] == pytest.approx(355 / 870) and round(res["ratio"], 2) == 0.41
    ok(9, "multi-token mean reproduces the hand-computed -2.0 case exactly; "
          "out-of-vocab fallback equals word scoring bit-for-bit; 355/870 -> 0.41")


# ---------------------------------------------------------------------------
# 10. modularity oracles


def test_criterion_10_modularity():
    separated = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    assert modularity_of_partition(separated, ["en"] * 3 + ["de"] * 3) == pytest.approx(0.5, abs=1e-12)
    bipartite = {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert modularity_of_partition(bipartite, ["en", "en", "de", "de"]) == pytest.approx(-0.5, abs=1e-12)

    rng = substream(12, "acceptance-modularity")
    for graph_seed in range(3):
        vecs = substream(graph_seed, "acceptance-graph").normal(size=(100, 8))
        edges = knn_graph(vecs, k=3)
        for _ in range(10):
            labels = list(rng.choice(["en", "de"], size=100))
            assert abs(modularity_of_partition(edges, labels)) < 0.1
    ok(10, "hand-computed Q=0.5 and Q=-0.5 within 1e-12; random-label shuffles "
           "stay inside |Q| < 0.1 on three fixed k-NN graphs")


# ---------------------------------------------------------------------------
# 11. entity linking


def test_criterion_11_entity_linking():
    links = InterLanguageLinks()
    links.add("en", "Tokyo", "tokyo")
    links.add("ja", "東京", "tokyo")
    links.add("en", "Tokyo_Tower", "tokyo_tower")
    links.add("ja", "東京タワー", "tokyo_tower")
    en_docs = [AnnotatedDocument(
        language="en", title="p", tokens=["Tokyo", "Tower", "stands", "in", "Tokyo"],
        annotations=[(0, 2, "Tokyo_Tower"), (4, 5, "Tokyo")], sentence_breaks=None).validate()]
    ja_docs = [AnnotatedDocument(
        language="ja", title="q", tokens=["東京", "に", "東京", "タワー"],
        annotations=[(0, 1, "東京"), (2, 4, "東京タワー")], sentence_breaks=None).validate()]
    ev = build_entity_vocab(en_docs + ja_docs, links, min_languages=2)
    mm = build_mention_map(en_docs, ev)

    # longest match wins
    anns = detect_entities(["Tokyo", "Tower", "and", "Tokyo"], mm)
    assert anns == [(0, 2, ev.resolve("en", "Tokyo_Tower")), (3, 4, ev.resolve("en", "Tokyo"))]

    # ambiguity drop
    from entlm.linker import _dedupe_ambiguous
    assert _dedupe_ambiguous([(("X",), 4), (("X",), 5)]) == {}

    # 1% link-probability threshold
    stats = MentionStats()
    stats.add("en", "Tokyo", hyperlink=1, total=250)       # 0.4%
    stats.add("en", "Tokyo Tower", hyperlink=1, total=50)  # 2%
    filtered = detect_entities(["Tokyo", "Tower", "and", "Tokyo"], mm, stats=stats, language="en")
    assert filtered == [(0, 2, ev.resolve("en", "Tokyo_Tower"))]

    # Tokyo/東京 alignment through inter-language links
    mm_ja = translate_mention_map(mm, ev, links, "ja", ja_docs)
    assert mm_ja.get(["東京"]) == ev.resolve("en", "Tokyo")
    assert mm_ja.get(["東京", "タワー"]) == ev.resolve("en", "Tokyo_Tower")
    ok(11, "longest-match, ambiguity-drop, and 1% threshold verified on the page "
           "fixture; mention map translates to the Tokyo/東京 alignment")


# ---------------------------------------------------------------------------
# 12. determinism of CLI reruns


def test_criterion_12_cli_rerun_determinism(tmp_path):
    docs, links = make_bilingual_corpus(n_entities=6, n_sequences=40, seed=13)
    corpus_path = str(tmp_path / "corpus.jsonl")
    save_corpus(docs, corpus_path)
    links.save_tsv(str(tmp_path / "links.tsv"))
    vocab_path = str(tmp_path / "entities.tsv")
    assert main(["build-vocab", "--corpus", corpus_path, "--links", str(tmp_path / "links.tsv"),
                 "--out", vocab_path, "--min-languages", "2"]) == EXIT_OK

    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as f:
        f.write(f"""
[model]
hidden_size = 16
entity_emb_size = 8
layers = 1
heads = 2
ffn_size = 32
max_positions = 16
dropout = 0.0

[train]
total_steps = 6
stage1_steps = 2
batch_size = 2
warmup_steps = 2
seed = 31

[data]
corpus = {corpus_path}
entity_vocab = {vocab_path}
max_words = 16
""")
    out1 = str(tmp_path / "run1")
    assert main(["pretrain", "--config", cfg_path, "--out", out1]) == EXIT_OK
    out2 = str(tmp_path / "run2")
    assert main(["rerun", os.path.join(out1, "manifest.json"), "--out", out2]) == EXIT_OK
    ck1 = Path(out1, "checkpoint-final.bin").read_bytes()
    ck2 = Path(out2, "checkpoint-final.bin").read_bytes()
    assert ck1 == ck2

    re_path = str(tmp_path / "re.tsv")
    insts = []
    for _ in range(4):
        insts.append(REInstance(tokens="t0a_en ent0_en t0b_en t0c_en".split(),
                                head_span=(1, 2), tail_span=(3, 4), label="r1"))
        insts.append(REInstance(tokens="t1a_en ent1_en t1b_en t1c_en".split(),
                                head_span=(1, 2), tail_span=(3, 4), label="r2"))
    save_re_data(insts, re_path)
    ft1 = str(tmp_path / "ft1")
    assert main(["finetune", "re", "--checkpoint", os.path.join(out1, "checkpoint-final.bin"),
                 "--train", re_path, "--out", ft1,
                 "--word-vocab", os.path.join(out1, "word_vocab.txt"),
                 "--entity-vocab", vocab_path, "--epochs", "2"]) == EXIT_OK
    ft2 = str(tmp_path / "ft2")
    assert main(["rerun", os.path.join(ft1, "manifest.json"), "--out", ft2]) == EXIT_OK
    f1 = Path(ft1, "checkpoint-finetuned.bin").read_bytes()
    f2 = Path(ft2, "checkpoint-finetuned.bin").read_bytes()
    assert f1 == f2
    ok(12, "pretrain and finetune reruns from their manifests reproduce "
           "checkpoints bit-identically")
