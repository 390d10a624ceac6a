"""Cross-lingual alignment: CWR MRR, k-NN modularity, embedding files."""

import json

import numpy as np
import pytest

from entlm.align import (
    SpanEmbedding,
    cwr_mrr,
    feature_dump,
    knn_graph,
    load_embeddings,
    load_span_items,
    modularity,
    modularity_of_partition,
    save_embeddings,
    span_embed,
)
from entlm.errors import CapacityError, ContractError
from entlm.seeding import substream


def se(uid, lang, vec):
    return SpanEmbedding(uid=uid, language=lang, text=uid, vector=np.asarray(vec, dtype=float))


# ---------------------------------------------------------------------------
# span embedding


def test_span_embed_is_mean():
    wv = np.arange(12.0).reshape(4, 3)
    assert np.allclose(span_embed(wv, (1, 3)), wv[1:3].mean(axis=0))
    with pytest.raises(ContractError):
        span_embed(wv, (2, 2))
    with pytest.raises(ContractError):
        span_embed(wv, (0, 5))


# ---------------------------------------------------------------------------
# CWR MRR


def test_mrr_perfect_and_rank_two():
    pool = [se("p0", "de", [1, 0]), se("p1", "de", [0, 1])]
    qs = [se("q0", "en", [1, 0.1]), se("q1", "en", [0.1, 1])]
    assert cwr_mrr(qs, pool, {"q0": "p0", "q1": "p1"}) == 1.0
    assert cwr_mrr(qs, pool, {"q0": "p1", "q1": "p0"}) == 0.5


def test_mrr_tie_breaks_toward_lower_pool_index():
    pool = [se("p0", "de", [1, 0]), se("p1", "de", [1, 0])]  # identical
    qs = [se("q0", "en", [1, 0])]
    assert cwr_mrr(qs, pool, {"q0": "p0"}) == 1.0
    assert cwr_mrr(qs, pool, {"q0": "p1"}) == 0.5


def test_mrr_rotation_and_scale_invariance():
    rng = substream(0, "mrr-invariance")
    qv = rng.normal(size=(5, 4))
    pv = rng.normal(size=(7, 4))
    qs = [se(f"q{i}", "en", v) for i, v in enumerate(qv)]
    pool = [se(f"p{i}", "de", v) for i, v in enumerate(pv)]
    gold = {f"q{i}": f"p{i}" for i in range(5)}
    base = cwr_mrr(qs, pool, gold)

    a = rng.normal(size=(4, 4))
    rot, _ = np.linalg.qr(a)  # orthogonal
    qs_r = [se(f"q{i}", "en", v @ rot) for i, v in enumerate(qv)]
    pool_r = [se(f"p{i}", "de", v @ rot) for i, v in enumerate(pv)]
    assert cwr_mrr(qs_r, pool_r, gold) == pytest.approx(base, abs=1e-12)

    pool_s = [se(f"p{i}", "de", v * (1 + i)) for i, v in enumerate(pv)]
    assert cwr_mrr(qs, pool_s, gold) == pytest.approx(base, abs=1e-12)


def test_mrr_contract_errors():
    good = [se("q0", "en", [1, 0])]
    pool = [se("p0", "de", [0, 1])]
    with pytest.raises(ContractError):
        cwr_mrr([], pool, {})
    with pytest.raises(ContractError):
        cwr_mrr(good, pool, {})  # missing gold
    with pytest.raises(ContractError):
        cwr_mrr([se("q0", "en", [0, 0])], pool, {"q0": "p0"})  # zero norm
    with pytest.raises(ContractError):
        cwr_mrr(good, pool, {"q0": "p9"})  # gold names an item missing from the pool
    with pytest.raises(ContractError, match="query vectors have 2 dimensions, but pool vectors 3"):
        cwr_mrr(good, [se("p0", "de", [0, 1, 0])], {"q0": "p0"})


# ---------------------------------------------------------------------------
# k-NN graph and modularity


def test_knn_graph_symmetrized_union():
    # a's nearest is b; c's nearest is b; b's nearest is a
    vecs = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    edges = knn_graph(vecs, k=1)
    assert (0, 1) in edges and (1, 2) in edges
    assert all(u < v for u, v in edges)
    with pytest.raises(ContractError):
        knn_graph(vecs, k=0)
    # each of the 3 vectors has 2 others, so k 3 has no graph to name
    assert len(knn_graph(vecs, k=2)) == 3
    with pytest.raises(ContractError, match=r"k 3 must be in \[1, 2\] for n = 3 vectors"):
        knn_graph(vecs, k=3)


def test_modularity_separated_oracle():
    edges = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    labels = ["en"] * 3 + ["de"] * 3
    assert modularity_of_partition(edges, labels) == pytest.approx(0.5, abs=1e-12)


def test_modularity_bipartite_oracle():
    edges = {(0, 2), (0, 3), (1, 2), (1, 3)}
    labels = ["en", "en", "de", "de"]
    assert modularity_of_partition(edges, labels) == pytest.approx(-0.5, abs=1e-12)


def test_modularity_from_embeddings_separated():
    embs = []
    for i in range(4):
        embs.append(se(f"e{i}", "en", [1.0, 0.001 * i]))
        embs.append(se(f"d{i}", "de", [0.001 * i, 1.0]))
    q = modularity(embs, k=2)
    assert q == pytest.approx(0.5, abs=1e-12)


def test_modularity_from_embeddings_interleaved():
    # twin points across languages: every 1-NN edge crosses languages
    rng = substream(1, "twins")
    embs = []
    for i in range(6):
        v = rng.normal(size=3)
        embs.append(se(f"e{i}", "en", v))
        embs.append(se(f"d{i}", "de", v + 1e-9))
    q = modularity(embs, k=1)
    assert q == pytest.approx(-0.5, abs=1e-9)


def test_modularity_single_language_is_undefined():
    embs = [se("a", "en", [1, 0]), se("b", "en", [0, 1])]
    assert modularity(embs, k=1) is None


def test_modularity_random_shuffles_near_zero():
    rng = substream(2, "shuffle")
    vecs = rng.normal(size=(100, 8))
    edges = knn_graph(vecs, k=3)
    for _ in range(20):
        labels = list(rng.choice(["en", "de"], size=100))
        assert abs(modularity_of_partition(edges, labels)) < 0.1


def test_modularity_no_edges_rejected():
    with pytest.raises(ContractError):
        modularity_of_partition(set(), ["en", "de"])


# ---------------------------------------------------------------------------
# files and feature dumping


def test_embedding_file_round_trip(tmp_path):
    embs = [se("a", "en", [1.5, -2.0]), se("b", "ja", [0.25, 3.0])]
    path = str(tmp_path / "emb.jsonl")
    save_embeddings(embs, path)
    loaded = load_embeddings(path)
    assert [(e.uid, e.language, e.text) for e in loaded] == [("a", "en", "a"), ("b", "ja", "b")]
    assert np.array_equal(loaded[0].vector, embs[0].vector)


def test_embedding_file_of_unequal_vectors_is_refused(tmp_path):
    path = str(tmp_path / "emb.jsonl")
    save_embeddings([se("a", "en", [1.0, 2.0]), se("b", "de", [1.0, 2.0]), se("c", "de", [1.0, 2.0, 3.0])], path)
    with pytest.raises(ContractError, match=r"emb.jsonl:3: vector has 3 elements, but 2 are expected"):
        load_embeddings(path)
    with pytest.raises(ContractError, match=r"emb.jsonl:1: vector has 2 elements, but 3 are expected"):
        load_embeddings(path, dim=3)
    with open(path, "w") as f:
        f.write('{"id": "a", "lang": "en", "text": "a", "vector": [[1.0, 2.0]]}\n')
    with pytest.raises(ContractError, match=r"emb.jsonl:1: embedding for a is not a flat list of finite numbers"):
        load_embeddings(path)


SPAN_ITEM = {"id": "s0", "lang": "en", "tokens": ["a", "b", "c"], "span": [1, 3], "entities": [["[MASK]", 0, 2]]}


def _write_span_items(tmp_path, *records):
    path = tmp_path / "spans.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_span_items_load(task_model, tmp_path):
    model, _ = task_model
    path = _write_span_items(tmp_path, SPAN_ITEM, {**SPAN_ITEM, "id": "s1", "entities": []})
    (uid, lang, item), (uid1, _, item1) = load_span_items(path, model.word_vocab, model.entity_vocab)
    assert (uid, lang, uid1) == ("s0", "en", "s1")
    assert item["word_ids"] == model.word_vocab.encode(["a", "b", "c"]) and item["span"] == (1, 3)
    assert item["text"] == "b c" and item["entity_positions"] == [[0, 1]] and item1["entity_ids"] == []


@pytest.mark.parametrize("field,value,named", [
    ("tokens", "abc", "tokens"),  # not five one-character tokens
    ("tokens", ["a", 2, "c"], "tokens"),
    ("id", 7, "id"),
    ("lang", 7, "lang"),
    ("span", [True, 2], "span"),
    ("span", [0.5, 2], "span"),  # not a raw slice TypeError
    ("span", [1, 2, 3], "span"),
    ("entities", "[MASK]", "entities"),
    ("entities", [["[MASK]", 0]], "entity row"),
    ("entities", [["[MASK]", 0, 1, 2]], "entity row"),
    ("entities", [[7, 0, 1]], "entity row"),
    ("entities", [["[MASK]", False, 1]], "entity span"),
    ("entities", [["[MASK]", 0, 1.0]], "entity span"),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_span_item_of_a_wrong_type_is_refused_naming_line_and_field(task_model, tmp_path, field, value, named):
    model, _ = task_model
    path = _write_span_items(tmp_path, SPAN_ITEM, {**SPAN_ITEM, field: value})
    with pytest.raises(ContractError) as e:
        load_span_items(path, model.word_vocab, model.entity_vocab)
    assert str(e.value).startswith(f"{path}:2: {named} ")


def test_feature_dump_span_mean(task_model):
    model, seq_item = task_model
    records = feature_dump(model, [("u1", "en", seq_item)], "span-mean")
    from entlm.encoder import EncodedSequence, encode
    out = encode(model.params, model.encoder_config,
                 EncodedSequence(word_ids=seq_item["word_ids"]))
    expected = span_embed(out.word_vectors, seq_item["span"])
    assert np.allclose(records[0].vector, expected, atol=1e-12)
    assert records[0].language == "en"


def test_feature_dump_re_variants(task_model, tmp_path):
    model, _ = task_model
    from entlm.heads import REInstance
    inst = REInstance(tokens=["a", "b", "c", "d"], head_span=(0, 1), tail_span=(2, 3), label="r")
    for spec in ("re-word", "re-entity"):
        path = str(tmp_path / f"{spec}.jsonl")
        records = feature_dump(model, [("u", "en", inst)], spec, out_path=path)
        assert records[0].vector.shape == (2 * model.encoder_config.hidden_size,)
        assert len(load_embeddings(path)) == 1
    with pytest.raises(ContractError):
        feature_dump(model, [], "nope")


def test_feature_dump_checks_a_group_before_its_length(task_model):
    # pack_batch validates every item of a group, then encode_batch checks the length:
    # a later item's bad mention is reported before an earlier item's excess length
    model, _ = task_model
    n = model.encoder_config.max_positions + 1
    too_long = ("a", "en", {"word_ids": [1] * n, "span": (0, 1)})
    bad_mention = ("b", "en", {"word_ids": [1, 2], "span": (0, 1), "entity_ids": [1], "entity_positions": [[5]]})
    with pytest.raises(ContractError, match=r"^entity position out of range \[0, 2\)$"):
        feature_dump(model, [too_long, bad_mention], "span-mean")
    with pytest.raises(CapacityError, match=f"^sequence of {n} words exceeds max_positions {n - 1}$"):
        feature_dump(model, [too_long, bad_mention[:2] + ({"word_ids": [1, 2], "span": (0, 1)},)], "span-mean")


def test_re_word_dump_leaves_the_model_vocab_alone(task_model):
    model, seq_item = task_model
    from entlm.heads import REInstance
    n_words = len(model.word_vocab)
    inst = REInstance(tokens=["a", "b", "c", "d"], head_span=(0, 1), tail_span=(2, 3), label="r")
    feature_dump(model, [("u", "en", inst)], "re-word")
    assert len(model.word_vocab) == n_words == model.encoder_config.word_vocab_size
    # "<ent>" now encodes to [UNK], inside the encoder's vocab, instead of raising VocabError
    item = {"word_ids": model.word_vocab.encode(["a", "<ent>", "b"]), "span": (0, 2)}
    (record,) = feature_dump(model, [("v", "en", item)], "span-mean")
    assert np.all(np.isfinite(record.vector))


def _dump_items(model, spec, n):
    """n items of varied length; span-mean items alternate with and without entities."""
    from entlm.heads import REInstance

    rng = substream(7, "dump-items")
    words = ["a", "b", "c", "d", "e"]
    items = []
    for i in range(n):
        toks = [words[int(j)] for j in rng.integers(0, len(words), size=int(rng.integers(4, 10)))]
        if spec == "span-mean":
            item = {"word_ids": model.word_vocab.encode(toks), "span": (1, 3), "text": str(i)}
            if i % 2:
                item["entity_ids"] = [model.entity_vocab.mask_id]
                item["entity_positions"] = [[0, 1]]
        else:
            item = REInstance(tokens=toks, head_span=(0, 1), tail_span=(2, 4), label="r")
        items.append((f"u{i}", "en" if i % 3 else "de", item))
    return items


@pytest.mark.parametrize("spec", ["span-mean", "re-word", "re-entity"])
def test_feature_dump_groups_equal_one_item_calls(task_model, spec, monkeypatch):
    import entlm.align as align_mod
    import entlm.encoder as encoder_mod
    import entlm.heads as heads_mod

    model, _ = task_model
    n = 2 * align_mod.FEATURE_DUMP_GROUP + 3
    items = _dump_items(model, spec, n)
    calls = []
    for owner in (encoder_mod, heads_mod):
        real = owner.encode_batch
        monkeypatch.setattr(owner, "encode_batch",
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    records = feature_dump(model, items, spec)
    assert len(calls) == 3  # two full groups and a remainder
    assert [(r.uid, r.language) for r in records] == [(uid, lang) for uid, lang, _ in items]
    for rec, item in zip(records, items):
        (single,) = feature_dump(model, [item], spec)
        assert single.text == rec.text
        assert np.max(np.abs(rec.vector - single.vector)) <= 1e-10


@pytest.fixture
def task_model():
    from entlm.cloze import ClozeModel
    from entlm.corpus import WordVocab
    from entlm.encoder import EncoderConfig, init_params
    from entlm.vocab import EntityEntry, EntityVocab, SPECIAL_ENTITIES

    wv = WordVocab(["a", "b", "c", "d", "e"])
    ev = EntityVocab([EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES])
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                        hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                        ffn_size=32, max_positions=16, dropout=0.0).validate()
    params = init_params(cfg, substream(3, "dump-params"))
    model = ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev)
    item = {"word_ids": wv.encode(["a", "b", "c", "d"]), "span": (1, 3), "text": "b c"}
    return model, item
