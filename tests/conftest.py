"""Shared fixtures: a tiny encoder, random sequences, an independent
plain-numpy reference forward used as an oracle for the word-only path, a
finite-difference gradient checker, `T.input_embedding` for callers that
have not read their id ranges, a writer of RE data files and a digest of
parameter tensors."""

import hashlib
import math

import numpy as np
import pytest

import entlm.tensor as T
from entlm.encoder import EncoderConfig, EncodedSequence, draw_params, param_specs
from entlm.errors import ContractError
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
    return draw_params(param_specs(tiny_config), substream(0, "test-params"))


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
                           entity_positions=entity_positions).validate()


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


def grad_check(build_loss, params, eps=1e-5, rng=None, samples_per_param=8):
    """Max relative error between analytic gradients and central differences.

    `build_loss()` must rebuild the graph from the live values in `params`
    (a dict name -> Tensor) and return the scalar loss.  For each parameter
    up to `samples_per_param` coordinates are probed, preferring the
    largest-magnitude analytic gradients: central differences cannot
    resolve coordinates whose true gradient sits near the float64 noise
    floor, and a wrong gradient formula shows up in the dominant
    coordinates anyway.  A parameter whose analytic gradient is all zero
    gets random probes instead, which catches missing-gradient bugs.
    """
    if eps <= 0:
        raise ContractError(f"grad_check: eps must be positive, got {eps}")
    rng = rng or np.random.default_rng(0)
    T.zero_grads(params)
    loss = build_loss()
    if not np.isfinite(loss.data):
        raise ContractError("grad_check: non-finite loss at base point")
    T.backward(loss)

    worst = 0.0
    for name, p in params.items():
        if not p.requires_grad:
            continue
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= samples_per_param:
            coords = range(n)
        elif np.any(analytic != 0):
            coords = np.argsort(-np.abs(analytic).reshape(-1))[:samples_per_param]
        else:
            coords = rng.choice(n, size=samples_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            up = float(build_loss().data)
            flat[c] = orig - eps
            dn = float(build_loss().data)
            flat[c] = orig
            if not (np.isfinite(up) and np.isfinite(dn)):
                raise ContractError(f"grad_check: non-finite loss probing {name}[{c}]")
            numeric = (up - dn) / (2.0 * eps)
            a = analytic.reshape(-1)[c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst


def input_embedding(tables, word_ids, types, entity_ids=None, positions=None, weights=None, mean=False):
    """`T.input_embedding` with the id ranges read here by `T._id_range`."""
    word_ids = np.asarray(word_ids)
    if entity_ids is None:
        return T.input_embedding(tables, word_ids, T._id_range(word_ids), types)
    entity_ids = np.asarray(entity_ids)
    return T.input_embedding(tables, word_ids, T._id_range(word_ids), types, entity_ids, T._id_range(entity_ids),
                             positions, weights, mean)


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
