"""Encoder: embedding composition, equivariances, reference-forward oracle."""

from dataclasses import replace

import numpy as np
import pytest

import entlm.tensor as T
from conftest import random_sequence, reference_word_forward
from entlm.encoder import (
    EncodedSequence,
    EncoderConfig,
    draw_params,
    embed_input,
    encode,
    encode_batch,
    init_params,
    pack_batch,
)
from entlm.errors import CapacityError, ConfigError, ContractError, ShapeError, VocabError
from entlm.seeding import substream


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(10, 10, hidden_size=30, heads=4).validate()
    with pytest.raises(ConfigError):
        EncoderConfig(10, 10, hidden_size=32, heads=2, entity_emb_size=64).validate()
    with pytest.raises(ConfigError):
        EncoderConfig(10, 10, hidden_size=32, heads=2, entity_position_mode="max").validate()
    for rate in (-0.1, 1.0):  # encode_batch hands the rate to T.dropout whenever it trains
        with pytest.raises(ConfigError):
            EncoderConfig(10, 10, hidden_size=32, heads=2, dropout=rate).validate()
    # heads=0 would divide by zero, and layers=-1 would build a model with no layers
    for key, size in (("hidden_size", 0), ("entity_emb_size", 0), ("layers", -1), ("layers", 0),
                      ("heads", 0), ("heads", -2), ("ffn_size", 0)):
        with pytest.raises(ConfigError, match=key):
            replace(EncoderConfig(10, 10, hidden_size=32, heads=2), **{key: size}).validate()


def test_config_round_trip(tiny_config):
    assert EncoderConfig.from_dict(tiny_config.to_dict()) == tiny_config


def test_sequence_validation(tiny_config):
    with pytest.raises(ContractError):
        EncodedSequence(word_ids=[1, 2], entity_ids=[3], entity_positions=[[]]).validate()
    with pytest.raises(ContractError):
        EncodedSequence(word_ids=[1, 2], entity_ids=[3], entity_positions=[[5]]).validate()
    with pytest.raises(CapacityError):
        EncodedSequence(word_ids=[0] * 100).validate(tiny_config)


def embed_words(params, config, word_ids):
    """The input layer of a word-only batch."""
    return embed_input(params, config, {"word_ids": word_ids})


def embed_entities(params, config, entity_ids, entity_positions, position_mask):
    """The entity tokens' rows of the input layer, after a batch of 4-word sequences."""
    word_ids = np.zeros((len(entity_ids), 4), dtype=np.int64)
    batch = {"word_ids": word_ids, "entity_ids": entity_ids, "entity_pos": entity_positions,
             "entity_pos_mask": position_mask}
    return embed_input(params, config, batch)[:, 4:]


def test_embed_words_rejects_out_of_vocab(tiny_params, tiny_config):
    with pytest.raises(VocabError):
        embed_words(tiny_params, tiny_config, np.array([[0, 99]]))


def test_embed_words_rejects_more_words_than_positions(tiny_params, tiny_config):
    # encode_batch refuses this length with CapacityError; a direct call meets the pos_emb lookup's range check
    too_long = [0] * (tiny_config.max_positions + 1)
    with pytest.raises(ShapeError, match="id out of range"):
        embed_words(tiny_params, tiny_config, np.array([too_long]))
    with pytest.raises(CapacityError):
        encode_batch(tiny_params, tiny_config, pack_batch([EncodedSequence(word_ids=too_long)]))


def test_embed_words_is_sum_of_lookups(tiny_params, tiny_config):
    ids = np.array([[3, 1, 4]])
    out = embed_words(tiny_params, tiny_config, ids).data
    expected = (tiny_params["word_emb"].data[ids[0]]
                + tiny_params["pos_emb"].data[:3]
                + tiny_params["type_emb"].data[0])
    assert np.allclose(out[0], expected, atol=1e-12)


# one entity (id 2) over mention positions 1..3, in the packed (B, n, P) form
ENTITY_IDS = np.array([[2]])
ENTITY_POS = np.array([[[1, 2, 3]]])
ENTITY_POS_MASK = np.ones((1, 1, 3))


def test_embed_entities_sum_mode(tiny_params, tiny_config):
    out = embed_entities(tiny_params, tiny_config, ENTITY_IDS, ENTITY_POS, ENTITY_POS_MASK).data[0]
    proj = (tiny_params["entity_emb"].data[2] @ tiny_params["entity_proj_w"].data
            + tiny_params["entity_proj_b"].data)
    expected = (proj + tiny_params["entity_type_emb"].data[1]
                + tiny_params["pos_emb"].data[1:4].sum(axis=0))
    assert np.allclose(out[0], expected, atol=1e-12)


def test_embed_entities_mean_mode(tiny_params, tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, entity_position_mode="mean")
    s = embed_entities(tiny_params, tiny_config, ENTITY_IDS, ENTITY_POS, ENTITY_POS_MASK).data[0]
    m = embed_entities(tiny_params, cfg, ENTITY_IDS, ENTITY_POS, ENTITY_POS_MASK).data[0]
    pos_sum = tiny_params["pos_emb"].data[1:4].sum(axis=0)
    assert np.allclose(m[0], s[0] - pos_sum + pos_sum / 3.0, atol=1e-12)


def test_embed_entities_rejects_empty_mention(tiny_params, tiny_config):
    with pytest.raises(ContractError):
        embed_entities(tiny_params, tiny_config, np.array([[1]]), np.zeros((1, 1, 1), dtype=np.int64),
                       np.zeros((1, 1, 1)))


def test_word_only_matches_reference_forward(tiny_params, tiny_config):
    rng = substream(11, "ref-forward")
    for _ in range(10):
        seq = random_sequence(rng, tiny_config, n_entities=0)
        out = encode(tiny_params, tiny_config, seq)
        ref = reference_word_forward(tiny_params, tiny_config, seq.word_ids)
        assert np.max(np.abs(out.word_vectors - ref)) < 1e-10


def test_no_entities_equals_word_only(tiny_params, tiny_config):
    rng = substream(12, "word-only")
    seq = random_sequence(rng, tiny_config, n_words=9, n_entities=0)
    a = encode(tiny_params, tiny_config, seq).word_vectors
    packed = pack_batch([seq])
    packed.pop("entity_ids"), packed.pop("entity_mask")
    packed.pop("entity_pos"), packed.pop("entity_pos_mask")
    b = encode_batch(tiny_params, tiny_config, packed).word_vectors[0]
    assert np.max(np.abs(a - b)) < 1e-10


def test_entity_permutation_equivariance(tiny_params, tiny_config):
    rng = substream(13, "perm")
    for _ in range(20):
        seq = random_sequence(rng, tiny_config, n_entities=3)
        perm = rng.permutation(3)
        permuted = EncodedSequence(
            word_ids=seq.word_ids,
            entity_ids=[seq.entity_ids[i] for i in perm],
            entity_positions=[seq.entity_positions[i] for i in perm],
        )
        a = encode(tiny_params, tiny_config, seq)
        b = encode(tiny_params, tiny_config, permuted)
        assert np.max(np.abs(a.word_vectors - b.word_vectors)) < 1e-10
        assert np.max(np.abs(a.entity_vectors[perm] - b.entity_vectors)) < 1e-10


def test_padding_does_not_change_live_outputs(tiny_params, tiny_config):
    rng = substream(14, "padding")
    s1 = random_sequence(rng, tiny_config, n_words=6, n_entities=1)
    s2 = random_sequence(rng, tiny_config, n_words=11, n_entities=2)
    alone = encode(tiny_params, tiny_config, s1)
    packed = encode_batch(tiny_params, tiny_config, pack_batch([s1, s2]))
    assert np.max(np.abs(packed.word_vectors[0, :6] - alone.word_vectors)) < 1e-10
    assert np.max(np.abs(packed.entity_vectors[0, :1] - alone.entity_vectors)) < 1e-10


def test_train_mode_needs_rng_for_dropout(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, dropout=0.1)
    params = init_params(cfg, substream(0, "dropcfg"))
    seq = EncodedSequence(word_ids=[1, 2, 3])
    with pytest.raises(ContractError):
        encode_batch(params, cfg, pack_batch([seq]), train=True)


def test_dropout_is_deterministic_given_stream(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, dropout=0.1)
    params = init_params(cfg, substream(0, "dropcfg"))
    seq = EncodedSequence(word_ids=[1, 2, 3, 4])
    a = encode_batch(params, cfg, pack_batch([seq]), rng=substream(5, "d"), train=True)
    b = encode_batch(params, cfg, pack_batch([seq]), rng=substream(5, "d"), train=True)
    assert np.array_equal(a.word_vectors, b.word_vectors)


def _encoder_grad_check_error(params, config, seq):
    packed = pack_batch([seq])
    labels = np.array([1, -100, 3, -100, 2, -100])

    def loss():
        out = encode_batch(params, config, packed)
        flat = T.reshape(out.word_tensor, (-1, config.hidden_size))
        logits = T.matmul(flat, T.transpose(params["word_emb"], (1, 0)))
        ent = T.reduce_sum(T.mul(out.entity_tensor, out.entity_tensor))
        return T.cross_entropy_logits(logits, labels) + T.scale(ent, 0.01)

    return T.grad_check(loss, params, eps=1e-5, rng=np.random.default_rng(0), samples_per_param=2)


def test_full_encoder_grad_check(tiny_params, tiny_config):
    seq = random_sequence(substream(15, "gradcheck"), tiny_config, n_words=6, n_entities=2)
    assert _encoder_grad_check_error(tiny_params, tiny_config, seq) < 1e-4


def test_full_encoder_grad_check_mean_positions(tiny_config):
    from dataclasses import replace

    cfg = replace(tiny_config, entity_position_mode="mean").validate()
    params = init_params(cfg, substream(0, "test-params"))
    # mentions of one, two and three words, so the mean divides by each count
    seq = EncodedSequence(word_ids=[3, 7, 1, 9, 4, 2], entity_ids=[1, 5, 2],
                          entity_positions=[[0], [2, 3], [3, 4, 5]])
    assert _encoder_grad_check_error(params, cfg, seq) < 1e-4


def _inner_nodes(root):
    """Graph nodes (tensors with parents) reachable from `root`."""
    seen, stack, count = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        count += bool(t._parents)
        stack.extend(t._parents)
    return count


def test_toy_step_graph_node_count(tiny_config):
    from entlm.corpus import IGNORE_LABEL, MaskedBatch
    from entlm.pretrain import init_model, pretrain_step_loss

    params = init_model(tiny_config, seed=0)
    rng = substream(4, "node-count")
    batches = []
    for _ in range(4):
        seq = random_sequence(rng, tiny_config, n_words=8, n_entities=2)
        word_labels = [IGNORE_LABEL] * 8
        word_labels[1] = seq.word_ids[1]
        batches.append(MaskedBatch(sequence=seq, word_labels=word_labels,
                                   entity_labels=[seq.entity_ids[0], IGNORE_LABEL]))
    total, _, _ = pretrain_step_loss(params, tiny_config, batches)
    # the input node and its layer norm, 4 per layer (the attention and FFN
    # blocks, 2 residual layer norms), 2 output slices, 1 per head loss, the sum
    assert _inner_nodes(total) == 15, _inner_nodes(total)


@pytest.mark.parametrize("dropout,nodes", [(0.0, 15), (0.1, 16)])
def test_step_makes_one_node_per_sublayer_and_head(tiny_config, monkeypatch, dropout, nodes):
    # every node a step builds is counted, not only those the loss reaches;
    # with dropout the embedding dropout adds one, the sublayers' is inside them
    from entlm.corpus import IGNORE_LABEL, MaskedBatch
    from entlm.pretrain import init_model, pretrain_step_loss

    cfg = replace(tiny_config, dropout=dropout).validate()
    params = init_model(cfg, seed=0)
    rng = substream(7, "node-count")
    batches = []
    for _ in range(4):
        seq = random_sequence(rng, cfg, n_words=8, n_entities=2)
        word_labels = [IGNORE_LABEL] * 8
        word_labels[1] = seq.word_ids[1]
        batches.append(MaskedBatch(sequence=seq, word_labels=word_labels,
                                   entity_labels=[seq.entity_ids[0], IGNORE_LABEL]))
    made = []
    real_make = T._make
    monkeypatch.setattr(T, "_make", lambda *args: made.append(real_make(*args)) or made[-1])
    pretrain_step_loss(params, cfg, batches, rng=substream(7, "dropout"))
    ops = [out._op for out in made if out._parents]
    assert len(ops) == nodes, ops
    assert ops.count("attention_block") == ops.count("ffn_block") == cfg.layers
    assert ops.count("gathered_cross_entropy") == 2


def test_eval_entry_points_hold_no_graph(monkeypatch):
    from entlm import align, cloze, heads
    from entlm.corpus import WordVocab
    from entlm.pretrain import head_specs
    from entlm.vocab import SPECIAL_ENTITIES, EntityEntry, EntityVocab

    wv = WordVocab(["the", "capital", "of", "japan", "is", "tokyo", "kyoto", "what", "?"])
    entries = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    entries.append(EntityEntry(canonical_key="japan", titles={("en", "japan")}))
    ev = EntityVocab(entries)
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev), hidden_size=16,
                        entity_emb_size=8, layers=1, heads=2, ffn_size=32, max_positions=32,
                        dropout=0.0).validate()
    rng = substream(0, "no-graph")
    params = init_params(cfg, rng)
    params.update(draw_params(head_specs(cfg), rng))
    toks = "tokyo is the capital of japan".split()
    re_inst = heads.REInstance(tokens=toks, head_span=(0, 1), tail_span=(5, 6), label="r")
    ner_inst = heads.NERInstance(tokens=toks)
    qa_inst = heads.QAInstance(qid="q", question_tokens="what is the capital ?".split(),
                               context_tokens=toks, answers=["tokyo"])
    query = cloze.TypedQuery(language="en", template="[X] is the capital of [Y]", sub_surface="tokyo",
                             candidates=[("japan", None), ("kyoto", None)], gold_index=0).validate()
    cloze_model = cloze.ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev)
    calls = [
        lambda: heads.re_classify(heads.make_re_model(cfg, params, wv, ev, ["r", "s"],
                                                      variant="entity-mask"), re_inst),
        lambda: heads.ner_predict(heads.make_ner_model(cfg, params, wv, ev, ["LOC"]), ner_inst),
        lambda: heads.qa_predict(heads.make_qa_model(cfg, params, wv, ev), qa_inst),
        lambda: cloze.score_query(cloze_model, query, "entity-y"),
        lambda: align.feature_dump(cloze_model, [("u", "en", {"word_ids": wv.encode(toks), "span": (0, 1)})],
                                   "span-mean"),
        lambda: align.feature_dump(cloze_model, [("v", "en", re_inst)], "re-entity"),
    ]
    made = []
    real_make = T._make
    monkeypatch.setattr(T, "_make", lambda *args: made.append(real_make(*args)) or made[-1])
    for call in calls:
        made.clear()
        call()
        assert made and not any(out._parents for out in made)
