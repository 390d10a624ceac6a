"""Encoder: embedding composition, equivariances, reference-forward oracle."""

import contextlib
import hashlib
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import entlm.encoder as E
import entlm.tensor as T
from conftest import grad_check, input_embedding, random_sequence, reference_word_forward
from entlm.encoder import (
    EncodedSequence,
    EncoderConfig,
    draw_params,
    embed_input,
    encode,
    encode_batch,
    pack_batch,
    param_specs,
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


def test_sequence_validation():
    with pytest.raises(ContractError):
        EncodedSequence(word_ids=[1, 2], entity_ids=[3], entity_positions=[[]]).validate()
    with pytest.raises(ContractError):
        EncodedSequence(word_ids=[1, 2], entity_ids=[3], entity_positions=[[5]]).validate()
    # the length is encode_batch's to check, not the sequence's
    long_seq = EncodedSequence(word_ids=[0] * 100)
    assert long_seq.validate() is long_seq


def test_sequence_with_no_words_is_refused(tiny_params, tiny_config):
    with pytest.raises(ContractError, match="sequence with no words"):
        EncodedSequence(word_ids=[]).validate()
    with pytest.raises(ContractError, match="sequence with no words"):
        encode_batch(tiny_params, tiny_config, pack_batch([EncodedSequence(word_ids=[])]))


def test_batch_with_no_words_is_refused_but_an_empty_batch_encodes(tiny_params, tiny_config):
    # a hand-built batch of one row and no word columns: numpy's attention max would fail on it
    batch = {"word_ids": np.zeros((1, 0), dtype=np.int64), "word_mask": np.zeros((1, 0))}
    with pytest.raises(ContractError, match="batch of 1 sequences with no words"):
        encode_batch(tiny_params, tiny_config, batch)
    out = encode_batch(tiny_params, tiny_config, pack_batch([]))
    assert out.word_vectors.shape == (0, 1, tiny_config.hidden_size)
    assert out.entity_vectors.shape == (0, 0, tiny_config.hidden_size)


def test_pack_batch_checks_mentions_against_their_own_sequence(tiny_params, tiny_config):
    # position 5 is inside max_positions but past the sequence's 3 words
    bad = EncodedSequence(word_ids=[1, 2, 3], entity_ids=[1], entity_positions=[[5]])
    longer = EncodedSequence(word_ids=[1, 2, 3, 4, 5, 6])
    for seqs in ([bad], [longer, bad]):
        with pytest.raises(ContractError, match=re.escape("entity position out of range [0, 3)")):
            pack_batch(seqs)
    with pytest.raises(ContractError, match="length mismatch"):
        pack_batch([EncodedSequence(word_ids=[1, 2], entity_ids=[1, 2], entity_positions=[[0]])])
    with pytest.raises(ContractError, match="empty mention position set"):
        pack_batch([EncodedSequence(word_ids=[1, 2], entity_ids=[1], entity_positions=[[]])])


def _pack_by_slices(seqs):
    """pack_batch as a slice write per sequence and per entity: the reference its rows must equal."""
    B = len(seqs)
    M = max((s.num_words for s in seqs), default=1)
    N = max((s.num_entities for s in seqs), default=0)
    P = max((max((len(p) for p in s.entity_positions), default=1) for s in seqs), default=1)
    out = {"word_ids": np.zeros((B, M), dtype=np.int64), "word_mask": np.zeros((B, M)),
           "entity_ids": np.zeros((B, N), dtype=np.int64), "entity_mask": np.zeros((B, N)),
           "entity_pos": np.zeros((B, N, P), dtype=np.int64), "entity_pos_mask": np.zeros((B, N, P))}
    for b, s in enumerate(seqs):
        m, n = s.num_words, s.num_entities
        out["word_ids"][b, :m] = s.word_ids
        out["word_mask"][b, :m] = 1.0
        if n:
            out["entity_ids"][b, :n] = s.entity_ids
            out["entity_mask"][b, :n] = 1.0
        for j, pos in enumerate(s.entity_positions):
            out["entity_pos"][b, j, : len(pos)] = pos
            out["entity_pos_mask"][b, j, : len(pos)] = 1.0
    out["entity_pos_mask"][:, :, 0] = 1.0
    return out


PACK_CASES = {
    "empty batch": [],
    "no entities": [EncodedSequence(word_ids=[4, 5, 6]), EncodedSequence(word_ids=[7])],
    "one word": [EncodedSequence(word_ids=[3])],
    "ragged": [EncodedSequence(word_ids=[1, 2, 3, 4, 5], entity_ids=[7, 8, 9],
                               entity_positions=[[0], [1, 2, 3], [4, 3]]),
               EncodedSequence(word_ids=[6, 2], entity_ids=[5], entity_positions=[[1, 0]]),
               EncodedSequence(word_ids=[9, 9, 9])],
    "array ids": [EncodedSequence(word_ids=np.array([2, 3, 4]), entity_ids=np.array([1, 6]),
                                  entity_positions=[[np.int64(0), 1], [2]])],
}


@pytest.mark.parametrize("case", list(PACK_CASES))
def test_pack_batch_equals_slice_writes_byte_for_byte(case):
    seqs = PACK_CASES[case]
    packed, ref = pack_batch(seqs), _pack_by_slices(seqs)
    assert list(packed) == list(ref)
    for key in ref:
        assert packed[key].dtype == ref[key].dtype and packed[key].shape == ref[key].shape, key
        assert packed[key].tobytes() == ref[key].tobytes(), key


def test_pack_batch_takes_numpy_mention_positions():
    # a mention's positions may be an ndarray: whether it is empty is its length, not its truth value
    as_lists = EncodedSequence(word_ids=[1, 2, 3], entity_ids=[1, 2], entity_positions=[[0], [1, 2]])
    as_arrays = EncodedSequence(word_ids=[1, 2, 3], entity_ids=[1, 2],
                                entity_positions=[np.array([0]), np.array([1, 2])])
    packed, ref = pack_batch([as_arrays]), pack_batch([as_lists])
    for key in ref:
        assert packed[key].dtype == ref[key].dtype and packed[key].shape == ref[key].shape, key
        assert packed[key].tobytes() == ref[key].tobytes(), key
    with pytest.raises(ContractError, match="^entity with empty mention position set$"):
        pack_batch([EncodedSequence(word_ids=[1, 2], entity_ids=[1], entity_positions=[np.array([], dtype=np.int64)])])
    for bad in ([1, 2], [-1, 0]):
        with pytest.raises(ContractError, match=r"^entity position out of range \[0, 2\)$"):
            pack_batch([EncodedSequence(word_ids=[1, 2], entity_ids=[1], entity_positions=[np.array(bad)])])


def test_pack_batch_raises_the_first_invalid_sequence_and_validates_only_then(monkeypatch):
    # the packed arrays are checked first; `validate` runs, in sequence order, only when a check fails
    out_of_range = EncodedSequence(word_ids=[1, 2], entity_ids=[1, 2], entity_positions=[[2], []])
    no_words = EncodedSequence(word_ids=[])
    empty = EncodedSequence(word_ids=[1, 2], entity_ids=[1], entity_positions=[[]])
    for seqs, message in (([out_of_range, no_words], r"entity position out of range \[0, 2\)"),
                          ([no_words, out_of_range], "sequence with no words"),
                          ([empty, out_of_range], "entity with empty mention position set")):
        with pytest.raises(ContractError, match=f"^{message}$"):
            pack_batch(seqs)
    validated = []
    real = EncodedSequence.validate
    monkeypatch.setattr(EncodedSequence, "validate", lambda self: validated.append(self) or real(self))
    for seqs in PACK_CASES.values():
        pack_batch(seqs)
    assert validated == []
    with pytest.raises(ContractError, match="sequence with no words"):
        pack_batch([PACK_CASES["one word"][0], no_words])
    assert validated == [PACK_CASES["one word"][0], no_words]


def test_encode_checks_length_after_mentions(tiny_params, tiny_config):
    # `encode` refuses as `pack_batch` then `encode_batch` do: mentions first, then length
    too_long = [1] * (tiny_config.max_positions + 1)
    with pytest.raises(ContractError, match="entity position out of range"):
        encode(tiny_params, tiny_config, EncodedSequence(word_ids=too_long, entity_ids=[1], entity_positions=[[99]]))
    with pytest.raises(CapacityError, match=f"sequence of {len(too_long)} words exceeds max_positions"):
        encode(tiny_params, tiny_config, EncodedSequence(word_ids=too_long))


@pytest.mark.parametrize("case", ["word-id", "entity-id", "empty-mention"])
def test_encode_batch_and_input_embedding_refuse_the_same_bad_ids(tiny_params, tiny_config, case):
    # through encode_batch each bad input meets embed_input's check; given to the
    # kernel directly, the same ids meet its ShapeError range checks
    V, E = tiny_config.word_vocab_size, tiny_config.entity_vocab_size
    seq = EncodedSequence(word_ids=[1, V if case == "word-id" else 2, 3], entity_ids=[E if case == "entity-id" else 1],
                          entity_positions=[[0, 1]])
    batch = pack_batch([seq])
    if case == "empty-mention":
        batch["entity_pos_mask"][0, 0] = 0.0
    error, message = {"word-id": (VocabError, f"word id out of range for vocab of {V}"),
                      "entity-id": (VocabError, f"entity id out of range for vocab of {E}"),
                      "empty-mention": (ContractError, "entity with empty mention position set")}[case]
    with pytest.raises(error, match=f"^{message}$"):
        encode_batch(tiny_params, tiny_config, batch)
    if case == "empty-mention":
        return  # the kernel takes any weights; an all-zero row is embed_input's to refuse
    tables = [tiny_params[name] for name in ("word_emb", "pos_emb", "type_emb", "entity_emb", "entity_proj_w",
                                             "entity_proj_b", "entity_type_emb")]
    what = "word" if case == "word-id" else "entity"
    rows = V if case == "word-id" else E
    with pytest.raises(ShapeError, match=f"^input_embedding: {what} id out of range for table with {rows} rows$"):
        input_embedding(tables, batch["word_ids"], (0, 1), batch["entity_ids"], batch["entity_pos"],
                        batch["entity_pos_mask"])


def test_input_embedding_table_check_holds_under_encode_batch(tiny_params, tiny_config):
    # a word id inside the config's vocab but past a smaller word table: embed_input's
    # VocabError check passes, and the kernel's ShapeError check still runs
    params = dict(tiny_params, word_emb=T.parameter(tiny_params["word_emb"].data[:10], name="word_emb"))
    with pytest.raises(ShapeError, match="input_embedding: word id out of range for table with 10 rows"):
        encode_batch(params, tiny_config, pack_batch([EncodedSequence(word_ids=[1, 12])]))


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
    params = draw_params(param_specs(cfg), substream(0, "dropcfg"))
    seq = EncodedSequence(word_ids=[1, 2, 3])
    with pytest.raises(ContractError):
        encode_batch(params, cfg, pack_batch([seq]), train=True)


def test_dropout_is_deterministic_given_stream(tiny_config):
    from dataclasses import replace
    cfg = replace(tiny_config, dropout=0.1)
    params = draw_params(param_specs(cfg), substream(0, "dropcfg"))
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

    return grad_check(loss, params, eps=1e-5, rng=np.random.default_rng(0), samples_per_param=2)


def test_full_encoder_grad_check(tiny_params, tiny_config):
    seq = random_sequence(substream(15, "gradcheck"), tiny_config, n_words=6, n_entities=2)
    assert _encoder_grad_check_error(tiny_params, tiny_config, seq) < 1e-4


def test_full_encoder_grad_check_mean_positions(tiny_config):
    from dataclasses import replace

    cfg = replace(tiny_config, entity_position_mode="mean").validate()
    params = draw_params(param_specs(cfg), substream(0, "test-params"))
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
    params = draw_params(param_specs(cfg) + head_specs(cfg), rng)
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


# -- forward-only batches split over two threads


class RecordingWorker:
    """The shared worker, keeping every future it hands out; each task waits
    `delay` seconds first, so that it is still running when the caller's
    half ends."""

    def __init__(self, delay=0.0):
        self.pool, self.futures, self.delay = T._worker(), [], delay

    def submit(self, fn, *args):
        def task():
            time.sleep(self.delay)
            return fn(*args)

        self.futures.append(self.pool.submit(task))
        return self.futures[-1]


class RaisingWorker:
    def submit(self, *args):
        raise RuntimeError("the worker was handed a half")


def _split_cases(config):
    """Batches whose rows differ in width: two QA-like windows of 24 words
    with 3 and 1 entities, two NER entity-mask rows holding 8 and 7 of the
    15 spans of a 6-word sentence, 3 rows of 20, 13 and 7 words, and two
    word-only rows of 9 and 5 words."""
    rng = np.random.default_rng(50)
    spans = [(s, e) for s in range(6) for e in range(s + 1, min(s + 3, 6) + 1)]
    sentence = rng.integers(0, config.word_vocab_size, 6).tolist()
    ner = [EncodedSequence(word_ids=sentence, entity_ids=[1] * len(row),
                           entity_positions=[list(range(s, e)) for s, e in row]) for row in (spans[:8], spans[8:])]
    return {
        "qa windows": [random_sequence(rng, config, n_words=24, n_entities=n) for n in (3, 1)],
        "ner rows": ner,
        "three rows": [random_sequence(rng, config, n_words=m) for m in (20, 13, 7)],
        "word rows": [random_sequence(rng, config, n_words=m, n_entities=0) for m in (9, 5)],
    }


@pytest.fixture
def split_everything(monkeypatch):
    """Two usable CPUs, and a batch of two or more rows splits at any width."""
    monkeypatch.setattr(E, "PARALLEL_MIN_POSITIONS", 1)
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("case", ["qa windows", "ner rows", "three rows", "word rows"])
def test_split_forward_equals_the_one_thread_pass_bit_for_bit(monkeypatch, split_everything, tiny_params,
                                                               tiny_config, case):
    # and both forward-only passes, which run on arrays, equal the recording pass, which builds nodes
    batch = pack_batch(_split_cases(tiny_config)[case])
    worker = RecordingWorker()
    monkeypatch.setattr(T, "_worker", lambda: worker)
    buffers = {}  # thread id -> the score buffers its half wrote
    real_buffer = T._score_buffer

    def score_buffer(shape):
        buffers.setdefault(threading.get_ident(), []).append(real_buffer(shape))
        return buffers[threading.get_ident()][-1]

    monkeypatch.setattr(T, "_score_buffer", score_buffer)
    outs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        with T.no_grad():
            outs[cpus] = encode_batch(tiny_params, tiny_config, batch)
        assert len(worker.futures) == cpus - 1  # one split, on two CPUs only
    for key in ("word_vectors", "entity_vectors"):
        one, two = getattr(outs[1], key), getattr(outs[2], key)
        assert one.shape == two.shape and one.tobytes() == two.tobytes(), key
    (caller, *_), (other,) = buffers[threading.get_ident()], buffers.keys() - {threading.get_ident()}
    assert not any(np.shares_memory(caller, b) for b in buffers[other])
    recorded = encode_batch(tiny_params, tiny_config, batch)
    assert recorded.word_tensor._parents and len(worker.futures) == 1
    for key in ("word_vectors", "entity_vectors"):
        one, rec = getattr(outs[1], key), getattr(recorded, key)
        assert one.shape == rec.shape and one.tobytes() == rec.tobytes(), key
        assert one.flags.c_contiguous and rec.flags.c_contiguous, key


@pytest.mark.parametrize("name", ["word_emb", "emb_ln_bias", "layer0.attn.wk", "layer0.attn.ob", "layer1.attn_ln.gain",
                                  "layer1.ffn.w1", "layer1.ffn.b2", "layer1.ffn_ln.bias"])
def test_a_forward_only_pass_refuses_a_misshaped_parameter_by_name_before_any_arithmetic(monkeypatch, tiny_params,
                                                                                        tiny_config, name):
    params = dict(tiny_params)
    shape = params[name].shape
    params[name] = T.parameter(np.zeros(shape[:-1] + (shape[-1] + 1,)))
    batch = pack_batch(_split_cases(tiny_config)["qa windows"])
    with pytest.raises(ShapeError):  # a recording pass refuses it too, in the op that reads it
        encode_batch(params, tiny_config, batch)

    def arithmetic(*args, **kwargs):
        raise AssertionError("arithmetic ran before the shape check")

    for fn in ("input_embedding", "_layer_norm", "_attention", "_ffn"):
        monkeypatch.setattr(T, fn, arithmetic)
    with T.no_grad(), pytest.raises(ShapeError, match=f"parameter {re.escape(name)} has shape"):
        encode_batch(params, tiny_config, batch)


def test_a_forward_only_pass_refuses_heads_that_do_not_divide_the_width(tiny_params, tiny_config):
    batch = pack_batch(_split_cases(tiny_config)["word rows"])
    with T.no_grad(), pytest.raises(ShapeError, match="not divisible by 3 heads"):
        encode_batch(tiny_params, replace(tiny_config, heads=3), batch)


def test_nothing_splits_on_one_cpu_with_grad_with_dropout_or_below_the_width(monkeypatch, split_everything,
                                                                             tiny_params, tiny_config):
    monkeypatch.setattr(T, "_worker", RaisingWorker)
    seqs = _split_cases(tiny_config)["three rows"]
    batch, dropout = pack_batch(seqs), replace(tiny_config, dropout=0.1)
    width = batch["word_ids"].shape[1] + batch["entity_ids"].shape[1]
    for cpus, no_grad, config, rows, min_positions in ((1, True, tiny_config, seqs, 1),
                                                       (2, False, tiny_config, seqs, 1),
                                                       (2, True, dropout, seqs, 1),
                                                       (2, True, tiny_config, seqs[:1], 1),
                                                       (2, True, tiny_config, seqs, width + 1)):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(E, "PARALLEL_MIN_POSITIONS", min_positions)
        with T.no_grad() if no_grad else contextlib.nullcontext():
            encode_batch(tiny_params, config, pack_batch(rows), rng=np.random.default_rng(0),
                         train=config is dropout)
    monkeypatch.setattr(E, "PARALLEL_MIN_POSITIONS", width)  # now it splits
    with T.no_grad(), pytest.raises(RuntimeError, match="worker was handed"):
        encode_batch(tiny_params, tiny_config, batch)


@pytest.mark.parametrize("half", ["caller", "worker"])
def test_an_error_in_either_half_propagates_once_the_worker_is_done(monkeypatch, split_everything, tiny_params,
                                                                    tiny_config, half):
    worker = RecordingWorker(delay=0.05)
    monkeypatch.setattr(T, "_worker", lambda: worker)
    caller, real_ffn = threading.get_ident(), T._ffn

    def ffn(*args, **kwargs):
        if (threading.get_ident() == caller) == (half == "caller"):
            raise RuntimeError(f"the {half}'s half failed")
        return real_ffn(*args, **kwargs)

    monkeypatch.setattr(T, "_ffn", ffn)
    batch = pack_batch(_split_cases(tiny_config)["qa windows"])
    with T.no_grad(), pytest.raises(RuntimeError, match=f"the {half}'s half failed"):
        encode_batch(tiny_params, tiny_config, batch)
    assert len(worker.futures) == 1 and worker.futures[0].done()


def test_the_worker_half_runs_under_the_callers_errstate(monkeypatch, split_everything, tiny_params, tiny_config):
    over = {}  # thread id -> np.geterr()["over"] inside its half
    real_ffn = T._ffn

    def ffn(*args, **kwargs):
        over[threading.get_ident()] = np.geterr()["over"]
        return real_ffn(*args, **kwargs)

    monkeypatch.setattr(T, "_ffn", ffn)
    batch = pack_batch(_split_cases(tiny_config)["ner rows"])
    with T.no_grad(), np.errstate(over="raise"):
        encode_batch(tiny_params, tiny_config, batch)
    assert len(over) == 2 and set(over.values()) == {"raise"}


def test_eval_forward_pin_holds_when_every_batch_of_two_rows_may_split(monkeypatch):
    # on two CPUs each forward-only batch of two or more rows splits; on one, none does
    from test_forward_pin import PINNED_FORWARD_DIGEST, _outputs

    monkeypatch.setattr(E, "PARALLEL_MIN_POSITIONS", 1)
    floats = _outputs()
    assert hashlib.sha256(" ".join(float(x).hex() for x in floats).encode()).hexdigest() == PINNED_FORWARD_DIGEST
