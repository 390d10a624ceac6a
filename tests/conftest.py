"""Shared fixtures: a tiny encoder, random sequences, an independent
plain-numpy reference forward used as an oracle for the word-only path, a
writer of RE data files and a digest of parameter tensors."""

import hashlib
import math

import numpy as np
import pytest

import entlm.tensor as T
from entlm.encoder import EncoderConfig, EncodedSequence, init_params
from entlm.seeding import substream


@pytest.fixture
def tiny_config():
    return EncoderConfig(
        word_vocab_size=50,
        entity_vocab_size=10,
        hidden_size=32,
        entity_emb_size=16,
        layers=2,
        heads=2,
        ffn_size=64,
        max_positions=32,
        dropout=0.0,
    ).validate()


@pytest.fixture
def tiny_params(tiny_config):
    return init_params(tiny_config, substream(0, "test-params"))


def random_sequence(rng, config, n_words=None, n_entities=None):
    m = int(rng.integers(3, config.max_positions)) if n_words is None else n_words
    n = int(rng.integers(0, 4)) if n_entities is None else n_entities
    word_ids = rng.integers(0, config.word_vocab_size, size=m).tolist()
    entity_ids, entity_positions = [], []
    for _ in range(n):
        entity_ids.append(int(rng.integers(0, config.entity_vocab_size)))
        s = int(rng.integers(0, m))
        e = min(m, s + int(rng.integers(1, 4)))
        entity_positions.append(list(range(s, e)))
    return EncodedSequence(word_ids=word_ids, entity_ids=entity_ids,
                           entity_positions=entity_positions).validate(config)


# ---------------------------------------------------------------------------
# independent reference forward (words only), written directly in numpy


def _ref_ln(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + bias


def _ref_gelu(x):
    erf = np.vectorize(math.erf)
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _ref_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_word_forward(params, config, word_ids):
    """Plain-numpy forward over word tokens alone; returns (m, hidden)."""
    P = {k: np.asarray(v.data, dtype=np.float64) for k, v in params.items()}
    ids = np.asarray(word_ids)
    m = ids.shape[0]
    H, nh = config.hidden_size, config.heads
    dh = H // nh
    x = P["word_emb"][ids] + P["pos_emb"][:m] + P["type_emb"][0]
    x = _ref_ln(x, P["emb_ln_gain"], P["emb_ln_bias"], T.LAYER_NORM_EPS)
    for l in range(config.layers):
        pre = f"layer{l}."
        q = (x @ P[pre + "attn.wq"] + P[pre + "attn.qb"]).reshape(m, nh, dh).transpose(1, 0, 2)
        k = (x @ P[pre + "attn.wk"] + P[pre + "attn.kb"]).reshape(m, nh, dh).transpose(1, 0, 2)
        v = (x @ P[pre + "attn.wv"] + P[pre + "attn.vb"]).reshape(m, nh, dh).transpose(1, 0, 2)
        probs = _ref_softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dh))
        ctx = (probs @ v).transpose(1, 0, 2).reshape(m, H)
        a = ctx @ P[pre + "attn.wo"] + P[pre + "attn.ob"]
        x = _ref_ln(x + a, P[pre + "attn_ln.gain"], P[pre + "attn_ln.bias"], T.LAYER_NORM_EPS)
        f = _ref_gelu(x @ P[pre + "ffn.w1"] + P[pre + "ffn.b1"]) @ P[pre + "ffn.w2"] + P[pre + "ffn.b2"]
        x = _ref_ln(x + f, P[pre + "ffn_ln.gain"], P[pre + "ffn_ln.bias"], T.LAYER_NORM_EPS)
    return x


def save_re_data(insts, path):
    """Write REInstances in the TSV layout `heads.load_re_data` reads."""
    with open(path, "w", encoding="utf-8") as f:
        for inst in insts:
            f.write("\t".join([
                inst.label, " ".join(inst.tokens),
                f"{inst.head_span[0]} {inst.head_span[1]}",
                f"{inst.tail_span[0]} {inst.tail_span[1]}",
            ]) + "\n")


def tensor_digest(params):
    """sha256 over each tensor's name and little-endian float64 bytes, in sorted-name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data, dtype="<f8").tobytes())
    return h.hexdigest()
