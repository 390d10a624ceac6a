"""Autodiff core: kernel oracles, backward-pass finite-difference checks."""

import gc
import itertools
import math
import re
import zlib
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import entlm.tensor as T
from conftest import grad_check, input_embedding
from entlm.errors import ContractError, ShapeError


ATTENTION_WEIGHTS = ("wq", "qb", "wk", "kb", "wv", "vb", "wo", "ob")


def p(arr):
    return T.parameter(np.asarray(arr, dtype=np.float64))


# ---------------------------------------------------------------------------
# forward oracles


def test_softmax_uniform():
    out = T.softmax(p([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_shift_invariance():
    x = np.array([1.0, 2.0, 3.0])
    a = T.softmax(p(x)).data
    b = T.softmax(p(x + 100.0)).data
    assert np.allclose(a, b, atol=1e-12)


def test_cross_entropy_ln2():
    # uniform two-way logits, either label -> ln 2
    loss = T.cross_entropy_logits(p([[0.0, 0.0]]), np.array([0]))
    assert loss.data == pytest.approx(math.log(2.0), abs=1e-15)


def test_cross_entropy_all_ignored_is_zero():
    logits = p([[1.0, 2.0], [3.0, 4.0]])
    loss = T.cross_entropy_logits(logits, np.array([-100, -100]))
    assert loss.data == 0.0
    T.backward(loss)
    assert np.all(logits.grad == 0.0)


def test_layer_norm_constant_rows_are_zero():
    x = p(np.full((3, 8), 7.0))
    out = T.layer_norm(x, p(np.ones(8)), p(np.zeros(8)))
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_gelu_known_values():
    out = T.gelu(p([0.0, 1.0, -1.0]))
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(phi1, abs=1e-12)
    assert out.data[2] == pytest.approx(-(1.0 - phi1), abs=1e-12)


def test_matmul_matches_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 6))
    assert np.allclose(T.matmul(p(a), p(b)).data, a @ b, atol=1e-12)


def test_embedding_gathers_rows():
    table = p(np.arange(12.0).reshape(4, 3))
    out = T.embedding(table, np.array([2, 0, 2]))
    assert np.array_equal(out.data, table.data[[2, 0, 2]])


def test_dropout_zero_p_is_identity():
    x = p(np.arange(6.0))
    out = T.dropout(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(1)
    x = p(np.ones(20000))
    out = T.dropout(x, 0.25, rng)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1.0 / 0.75, atol=1e-12)
    assert out.data.mean() == pytest.approx(1.0, abs=0.02)


def test_log_softmax_np_normalizes():
    lp = T.log_softmax_np(np.array([1.0, 2.0, 3.0]))
    assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
def test_softmax_rows_sum_to_one(x):
    out = T.softmax(T.constant(x)).data
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# backward correctness


def test_backward_requires_scalar():
    x = p([1.0, 2.0])
    with pytest.raises(ContractError):
        T.backward(x + x)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        T.matmul(p(np.ones((2, 3))), p(np.ones((2, 3))))


def test_add_broadcast_gradient():
    a = p(np.zeros((4, 3)))
    b = p(np.zeros(3))
    loss = T.reduce_sum(a + b)
    T.backward(loss)
    assert np.array_equal(a.grad, np.ones((4, 3)))
    assert np.array_equal(b.grad, np.full(3, 4.0))


def test_getitem_scatter_accumulates():
    x = p(np.zeros((3, 2)))
    idx = (np.array([1, 1, 0]), np.array([0, 0, 1]))
    loss = T.reduce_sum(T.getitem(x, idx))
    T.backward(loss)
    expected = np.zeros((3, 2))
    np.add.at(expected, idx, 1.0)
    assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("idx", [
    (slice(None), slice(0, 2), slice(None)),  # encode_batch's word/entity split
    (slice(None), slice(2, None), slice(None)),
    (0, slice(None), 1),
    np.array([0, 2, 3]),  # np.flatnonzero output, as the head gather passes
    np.array([], dtype=np.int64),
    np.array([True, False, True, True]),
    (slice(None), np.array([1, 2])),
    np.array([2, 0, 2]),  # repeats: accumulates
    np.array([-1, 3]),  # strictly increasing, yet both name row 3
])
def test_getitem_gradient_matches_add_at(idx):
    rng = np.random.default_rng(4)
    x = p(rng.normal(size=(4, 3, 2)))
    out = T.getitem(x, idx)
    g = rng.normal(size=out.shape)
    T.backward(T.reduce_sum(T.mul(out, T.constant(g))))
    expected = np.zeros_like(x.data)
    np.add.at(expected, idx, g)
    assert np.array_equal(x.grad, expected)


def test_matmul_rank3_weight_gradient_matches_batched():
    rng = np.random.default_rng(5)
    a = p(rng.normal(size=(3, 4, 5)))
    b = p(rng.normal(size=(5, 6)))
    g = rng.normal(size=(3, 4, 6))
    T.backward(T.reduce_sum(T.mul(T.matmul(a, b), T.constant(g))))
    batched = np.matmul(np.swapaxes(a.data, -1, -2), g).sum(axis=0)
    assert np.max(np.abs(b.grad - batched)) <= 1e-12
    assert np.max(np.abs(a.grad - np.matmul(g, b.data.T))) <= 1e-12

    weight = T.constant(g)
    params = {"a": a, "b": b}
    assert grad_check(lambda: T.reduce_sum(T.mul(T.gelu(T.matmul(a, b)), weight)), params,
                        rng=np.random.default_rng(6)) < 1e-6


def test_grad_check_dot_product():
    rng = np.random.default_rng(0)
    params = {"a": p(rng.normal(size=7)), "b": p(rng.normal(size=7))}

    def loss():
        return T.reduce_sum(T.mul(params["a"], params["b"]))

    assert grad_check(loss, params, rng=np.random.default_rng(1)) < 1e-10


def _grad_cases(rng):
    """Public op name -> (build_loss, params): a small loss through that op
    for `grad_check`, which rebuilds it at every probe.  A case with dropout
    seeds a fresh stream per call, so every probe draws the same mask."""
    def t(*shape):
        return p(rng.normal(size=shape))

    a, b, c, d = t(3, 4), t(4, 3), t(4), t(3)
    weight = T.constant(rng.normal(size=(3, 4)))

    def weighted(out):
        return T.reduce_sum(T.mul(out, weight))

    def input_embedding_case():
        # b is the entity table, a every other table; two words, one entity over positions 0, 2, 2
        out = input_embedding((a, a, a, b, a, p(np.ones(4)), a), np.array([[1, 0]]), (2, 1), np.array([[3]]),
                              np.array([[[0, 2, 2]]]), np.array([[[1.0, 0.5, 1.0]]]), mean=True)
        return weighted(out)

    attn = {"x": t(1, 3, 4), **{n: t(4, 4) if n[0] == "w" else t(4) for n in ATTENTION_WEIGHTS}}
    attn_weight = T.constant(rng.normal(size=(1, 3, 4)))

    def attention_block():
        # one head and no padded key (test_grad_check_attention_padded_keys masks keys); softmax
        # ignores a shift shared by every key, so kb's true gradient is 0 and it is not probed
        out = T.attention_block(attn["x"], [attn[n] for n in ATTENTION_WEIGHTS], np.zeros((1, 1, 1, 3)), 1)
        return T.reduce_sum(T.mul(out, attn_weight))

    ffn = {"x": t(2, 3, 4), "w1": t(4, 6), "b1": t(6), "w2": t(6, 4), "b2": t(4)}
    ffn_weight = T.constant(rng.normal(size=(2, 3, 4)))

    def ffn_block():
        return T.reduce_sum(T.mul(T.ffn_block(*ffn.values(), p=0.2, rng=np.random.default_rng(3)), ffn_weight))

    logits = t(4, 5)
    ab, ac = {"a": a, "b": b}, {"a": a, "c": c}
    return {
        "add": (lambda: weighted(T.add(a, c)), ac),
        "sub": (lambda: weighted(T.sub(c, a)), ac),
        "mul": (lambda: weighted(T.mul(a, c)), ac),
        "scale": (lambda: T.scale(T.reduce_sum(T.mul(a, a)), 1 / a.data.size), {"a": a}),
        "matmul": (lambda: T.reduce_sum(T.matmul(a, b)), ab),
        "linear": (lambda: T.reduce_sum(T.gelu(T.linear(c, b, d))), {"b": b, "c": c, "d": d}),
        "attention_block": (attention_block, {n: v for n, v in attn.items() if n != "kb"}),
        "ffn_block": (ffn_block, ffn),
        "embedding": (lambda: T.reduce_sum(T.embedding(a, np.array([0, 2, 2]))), ab),
        "input_embedding": (input_embedding_case, ab),
        "layer_norm": (lambda: weighted(T.layer_norm(a, p(np.ones(4)), p(np.zeros(4)))), ab),
        "residual_layer_norm": (lambda: weighted(T.residual_layer_norm(T.transpose(b, (1, 0)), a, p(np.ones(4)),
                                                                       p(np.zeros(4)))), ab),
        "gelu": (lambda: T.reduce_sum(T.gelu(a)), ab),
        "softmax": (lambda: T.reduce_sum(T.mul(T.softmax(a), T.constant(np.arange(12.0).reshape(3, 4)))), ab),
        "dropout": (lambda: weighted(T.dropout(a, 0.3, np.random.default_rng(5))), {"a": a}),
        "concat": (lambda: T.reduce_sum(T.concat([a, T.transpose(b, (1, 0))], axis=0)), ab),
        "reduce_sum": (lambda: T.reduce_sum(T.mul(T.reduce_sum(a, axis=0), c)), ac),
        "reshape": (lambda: T.reduce_sum(T.mul(T.reshape(a, (4, 3)), b)), ab),
        "transpose": (lambda: T.reduce_sum(T.mul(T.transpose(a, (1, 0)), b)), ab),
        "getitem": (lambda: weighted(T.getitem(a, np.array([2, 0, 2]))), {"a": a}),
        "cross_entropy_logits": (lambda: T.cross_entropy_logits(logits, np.array([0, 3, -100, 2])),
                                 {"logits": logits}),
        "gathered_cross_entropy": (lambda: T.gathered_cross_entropy(T.reshape(a, (1, 3, 4)), np.array([1, -100, 2]),
                                                                    b, d), {"a": a, "b": b, "d": d}),
    }


@pytest.mark.parametrize("kernel", list(_grad_cases(np.random.default_rng(0))))
def test_grad_check_per_kernel(kernel):
    loss, params = _grad_cases(np.random.default_rng(zlib.crc32(kernel.encode())))[kernel]
    assert grad_check(loss, params, rng=np.random.default_rng(0)) < 1e-6


def test_grad_check_refuses_a_non_positive_eps_and_a_non_finite_loss():
    a = p([1.0, 2.0])
    for eps in (0.0, -1e-5):
        with pytest.raises(ContractError, match="^grad_check: eps must be positive"):
            grad_check(lambda: T.reduce_sum(a), {"a": a}, eps=eps)
    with np.errstate(over="ignore"), pytest.raises(ContractError, match="^grad_check: non-finite loss at base point$"):
        grad_check(lambda: T.reduce_sum(T.scale(a, 1e308)), {"a": a})
    # finite at the base point, not at a + eps: a[0] probes at the edge of the float range
    edge = p([np.finfo(np.float64).max, 1.0])
    with np.errstate(over="ignore"), \
            pytest.raises(ContractError, match=r"^grad_check: non-finite loss probing a\[0\]$"):
        grad_check(lambda: T.reduce_sum(edge), {"a": edge}, eps=1e300)


def test_zero_grads_clears():
    a = p(np.ones(3))
    T.backward(T.reduce_sum(a))
    assert a.grad is not None
    T.zero_grads({"a": a})
    assert a.grad is None or np.all(a.grad == 0)


def test_backward_rejects_nonfinite_gradient():
    a = p([1e308, 1e308])
    with np.errstate(over="ignore"), pytest.raises(ContractError):
        T.backward(T.reduce_sum(T.mul(a, a)))
    # NaN, +inf and -inf reaching an inner node or a leaf parameter: the
    # error names the first node that receives the bad gradient
    for bad in (np.nan, np.inf, -np.inf):
        for at_leaf in (True, False):
            w = T.parameter(np.array([1.0, 2.0]), name="w")
            x = w if at_leaf else T.scale(w, 3.0)
            loss = T.reduce_sum(T.mul(x, T.constant([1.0, bad])))
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ContractError, match=re.escape(f"at node {x!r}")):
                T.backward(loss)
            assert w.grad is None
        # and an inner step of a fused node, named with the node
        params, out, loss = _attention_loss(bad)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ContractError, match=re.escape(f"at node {out!r}, into its attention core")):
            T.backward(loss)
        assert all(params[n].grad is None for n in ("x",) + ATTENTION_WEIGHTS)


# ---------------------------------------------------------------------------
# fused ops: linear, the attention and FFN sublayers and the gathered head
# loss, against the op chains they replace


def _linear_chain(x, w, b):
    return T.matmul(x, w) + b


def _attention_core_chain(q, k, v, bias, heads, p=0.0, rng=None):
    B, S, H = q.shape
    dh = H // heads

    def split(t):
        return T.transpose(T.reshape(t, (B, S, heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    probs = T.softmax(scores + T.constant(bias), axis=-1)
    if p > 0:
        probs = T.dropout(probs, p, rng)
    ctx = T.matmul(probs, vh)
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (B, S, H))


def _attention_block_chain(x, weights, bias, heads, p=0.0, rng=None):
    """The attention sublayer as the chain of single nodes `attention_block` replaced."""
    wq, qb, wk, kb, wv, vb, wo, ob = weights
    q, k, v = T.linear(x, wq, qb), T.linear(x, wk, kb), T.linear(x, wv, vb)
    ctx = _attention_core_chain(q, k, v, bias, heads, p=p, rng=rng)
    return T.dropout(T.linear(ctx, wo, ob), p, rng)


def _ffn_block_chain(x, w1, b1, w2, b2, p=0.0, rng=None):
    return T.dropout(T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2), p, rng)


def _gathered_chain(x, labels, w, b, ignore_index=-100):
    labels = np.asarray(labels).reshape(-1)
    rows = np.flatnonzero(labels != ignore_index)
    logits = T.linear(T.getitem(T.reshape(x, (-1, x.shape[-1])), rows), w, b)
    return T.cross_entropy_logits(logits, labels[rows], ignore_index=ignore_index)


def _padded_bias(B=2, S=5, pad=2):
    mask = np.ones((B, S))
    mask[1, S - pad:] = 0.0
    return np.where(mask[:, None, None, :] > 0, 0.0, -1e30)


def _forward_and_grads(fn, params, weight):
    T.zero_grads(params)
    out = fn()
    T.backward(T.reduce_sum(T.mul(out, T.constant(weight))))
    return out.data, {n: p.grad for n, p in params.items()}


def _assert_fused_equals_chain(fused, chain, params, weight):
    """Forward and every gradient equal bit for bit; a residual reads x too,
    as in the encoder, so x's parts are summed with another node's."""
    def with_residual(build):
        def run():
            x = T.scale(params["x"], 1.0)
            return T.residual_layer_norm(x, build(x), params["gain"], params["bias"])
        return run

    got = _forward_and_grads(with_residual(fused), params, weight)
    want = _forward_and_grads(with_residual(chain), params, weight)
    np.testing.assert_array_equal(got[0], want[0])
    for name in params:
        assert got[1][name] is not None, name
        np.testing.assert_array_equal(got[1][name], want[1][name], err_msg=name)
    with T.no_grad():
        np.testing.assert_array_equal(with_residual(fused)().data, want[0])


def _block_params(rng, B=2, S=5, H=6):
    params = {"x": p(rng.normal(size=(B, S, H))), "gain": p(rng.normal(size=H)), "bias": p(rng.normal(size=H))}
    for name in ATTENTION_WEIGHTS:
        params[name] = p(rng.normal(size=(H, H) if name[0] == "w" else H))
    return params


def _attention_weights(params):
    return [params[name] for name in ATTENTION_WEIGHTS]


@pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5)])
def test_linear_matches_matmul_add_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    params = {"x": p(rng.normal(size=shape)), "w": p(rng.normal(size=(5, 6))), "b": p(rng.normal(size=6))}
    weight = rng.normal(size=shape[:-1] + (6,))
    fused = _forward_and_grads(lambda: T.linear(params["x"], params["w"], params["b"]), params, weight)
    chain = _forward_and_grads(lambda: _linear_chain(params["x"], params["w"], params["b"]), params, weight)
    assert np.array_equal(fused[0], chain[0])
    for name in params:
        assert np.array_equal(fused[1][name], chain[1][name]), name


@pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5)])
def test_grad_check_linear(shape):
    rng = np.random.default_rng(12)
    params = {"x": p(rng.normal(size=shape)), "w": p(rng.normal(size=(5, 3))), "b": p(rng.normal(size=3))}
    weight = T.constant(rng.normal(size=shape[:-1] + (3,)))

    def loss():
        return T.reduce_sum(T.mul(T.gelu(T.linear(params["x"], params["w"], params["b"])), weight))

    assert grad_check(loss, params, rng=np.random.default_rng(0)) < 1e-6


def test_linear_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        T.linear(p(np.ones((2, 3))), p(np.ones((4, 5))), p(np.zeros(5)))
    with pytest.raises(ShapeError):
        T.linear(p(np.ones((2, 3))), p(np.ones((3, 5))), p(np.zeros(4)))


@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_attention_matches_op_chain_bit_for_bit(rate):
    # head size 3: the 1/sqrt(dh) scale is inexact, so a reordered product shows
    rng = np.random.default_rng(13)
    params = _block_params(rng)
    bias = _padded_bias()
    weight = rng.normal(size=(2, 5, 6))

    def build(block):
        return lambda x: block(x, _attention_weights(params), bias, 2, p=rate, rng=np.random.default_rng(5))

    _assert_fused_equals_chain(build(T.attention_block), build(_attention_block_chain), params, weight)
    node = T.attention_block(params["x"], _attention_weights(params), bias, 2)
    assert node._op == "attention_block"
    assert node._parents == (params["x"], params["wq"], params["qb"], params["x"], params["wk"], params["kb"],
                             params["x"], params["wv"], params["vb"], params["wo"], params["ob"])


@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_ffn_block_matches_op_chain_bit_for_bit(rate):
    rng = np.random.default_rng(37)
    params = {"x": p(rng.normal(size=(2, 5, 6))), "gain": p(rng.normal(size=6)), "bias": p(rng.normal(size=6)),
              "w1": p(rng.normal(size=(6, 8))), "b1": p(rng.normal(size=8)),
              "w2": p(rng.normal(size=(8, 6))), "b2": p(rng.normal(size=6))}
    weight = rng.normal(size=(2, 5, 6))

    def build(block):
        return lambda x: block(x, *(params[n] for n in ("w1", "b1", "w2", "b2")), p=rate,
                               rng=np.random.default_rng(6))

    _assert_fused_equals_chain(build(T.ffn_block), build(_ffn_block_chain), params, weight)


@pytest.mark.parametrize("live", [3, 0])
def test_gathered_cross_entropy_matches_op_chain_bit_for_bit(live):
    rng = np.random.default_rng(38)
    labels = np.full((2, 4), -100)
    labels.reshape(-1)[[1, 4, 6][:live]] = [2, 0, 6][:live]
    params = {"x": p(rng.normal(size=(2, 4, 5))), "w": p(rng.normal(size=(5, 7))), "b": p(rng.normal(size=7))}
    runs = []
    for loss in (T.gathered_cross_entropy, _gathered_chain):
        T.zero_grads(params)
        out = loss(T.scale(params["x"], 1.0), labels, params["w"], params["b"])
        T.backward(T.scale(out, 3.0))
        with T.no_grad():
            forward = loss(params["x"], labels, params["w"], params["b"]).data
        np.testing.assert_array_equal(forward, out.data)
        runs.append((out.data, *(params[n].grad for n in params)))
    for got, want in zip(*runs):
        assert got is not None
        np.testing.assert_array_equal(got, want)
    if not live:
        assert runs[0][0] == 0.0 and not any(np.any(g) for g in runs[0][1:])


def test_gathered_cross_entropy_rejects_bad_input():
    x, w, b = p(np.ones((2, 3, 4))), p(np.ones((4, 5))), p(np.zeros(5))
    with pytest.raises(ShapeError, match="label out of range for 5 classes"):
        T.gathered_cross_entropy(x, np.array([[0, 5, -100]] * 2), w, b)
    with pytest.raises(ShapeError):
        T.gathered_cross_entropy(x, np.zeros(5, dtype=np.int64), w, b)  # one label per row
    with pytest.raises(ShapeError):
        T.gathered_cross_entropy(x, np.zeros(6, dtype=np.int64), p(np.ones((3, 5))), b)
    with pytest.raises(ShapeError):
        T.gathered_cross_entropy(x, np.zeros(6, dtype=np.int64), w, p(np.zeros(4)))


def test_ffn_block_rejects_bad_input():
    x, w1, b1, w2, b2 = p(np.ones((2, 3, 4))), p(np.ones((4, 6))), p(np.zeros(6)), p(np.ones((6, 4))), p(np.zeros(4))
    with pytest.raises(ShapeError):
        T.ffn_block(x, w2, b1, w2, b2)
    with pytest.raises(ShapeError):
        T.ffn_block(x, w1, b2, w2, b2)
    with pytest.raises(ShapeError):
        T.ffn_block(x, w1, b1, w1, b2)
    with pytest.raises(ContractError):
        T.ffn_block(x, w1, b1, w2, b2, p=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ContractError):
        T.ffn_block(x, w1, b1, w2, b2, p=0.1)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_grad_check_attention_padded_keys(rate):
    rng = np.random.default_rng(14)
    params = _block_params(rng, H=8)
    weights = _attention_weights(params)
    # softmax ignores a shift shared by every key, so kb's true gradient is 0
    # and a finite difference of it is all noise
    checked = {n: t for n, t in params.items() if n not in ("gain", "bias", "kb")}
    bias = _padded_bias()
    weight = rng.normal(size=(2, 5, 8))
    weight[1, 3:] = 0.0  # the padded rows' own outputs do not count

    def loss():
        # a fresh stream per call draws the same dropout masks at every probe
        out = T.attention_block(params["x"], weights, bias, 2, p=rate, rng=np.random.default_rng(9))
        return T.reduce_sum(T.mul(out, T.constant(weight)))

    assert grad_check(loss, checked, rng=np.random.default_rng(0)) < 1e-6
    # keys under the mask get no gradient through k and v
    assert np.all(params["x"].grad[1, 3:] == 0.0)


def test_attention_rejects_bad_input():
    x = p(np.ones((1, 3, 4)))
    weights = [p(np.ones((4, 4)) if i % 2 == 0 else np.zeros(4)) for i in range(8)]
    bad = list(weights)
    bad[4] = p(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        T.attention_block(x, bad, np.zeros((1, 1, 1, 3)), 2)
    with pytest.raises(ShapeError):
        T.attention_block(x, weights[:6], np.zeros((1, 1, 1, 3)), 2)
    with pytest.raises(ShapeError):
        T.attention_block(p(np.ones((3, 4))), weights, np.zeros((1, 1, 1, 3)), 2)
    with pytest.raises(ShapeError):
        T.attention_block(x, weights, np.zeros((1, 1, 1, 3)), 3)
    with pytest.raises(ContractError):
        T.attention_block(x, weights, np.zeros((1, 1, 1, 3)), 2, p=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ContractError):
        T.attention_block(x, weights, np.zeros((1, 1, 1, 3)), 2, p=0.1)
    for heads in (0, -2):
        with pytest.raises(ShapeError, match="heads"):
            T.attention_block(x, weights, np.zeros((1, 1, 1, 3)), heads)
    # a bias must broadcast to exactly (B, heads, S, S): not wider, not clashing
    for shape in ((1, 1, 1, 4), (2, 1, 1, 3), (1, 2, 3, 3, 3)):
        with pytest.raises(ShapeError, match=re.escape(f"{shape} does not broadcast to scores (1, 2, 3, 3)")):
            T.attention_block(x, weights, np.zeros(shape), 2)
        with T.no_grad(), pytest.raises(ShapeError):
            T.attention_block(x, weights, np.zeros(shape), 2)


@pytest.mark.parametrize("B,heads,S", [(1, 2, 3), (2, 1, 3), (0, 2, 1)])
def test_attention_bias_check_accepts_what_numpy_broadcasts(B, heads, S):
    # every bias of rank 0-5 with dims in {0, 1, 2, 3}: accepted exactly when
    # numpy broadcasts it to the score shape without widening it
    x = p(np.ones((B, S, 4)))
    weights = [p(np.ones((4, 4)) if i % 2 == 0 else np.zeros(4)) for i in range(8)]
    score_shape = (B, heads, S, S)
    shapes = [shape for rank in range(6) for shape in itertools.product((0, 1, 2, 3), repeat=rank)]
    with T.no_grad():
        for shape in shapes:
            try:
                fits = np.broadcast_shapes(shape, score_shape) == score_shape
            except ValueError:
                fits = False
            if fits:
                assert T.attention_block(x, weights, np.zeros(shape), heads).shape == (B, S, 4)
            else:
                with pytest.raises(ShapeError, match=re.escape(
                        f"attention_block: bias shape {shape} does not broadcast to scores {score_shape}")):
                    T.attention_block(x, weights, np.zeros(shape), heads)


def _overflow_raises_naming(out, step):
    assert np.isfinite(out.data).all()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ContractError, match=re.escape(f"at node {out!r}, into its {step}")):
        T.backward(T.reduce_sum(T.mul(out, T.constant(np.ones(out.shape)))))


def test_attention_block_gradient_overflow_raises():
    # v is zero, so the huge output projection's forward stays finite, while
    # its input gradient g @ wo.T (a sum over 40 columns) overflows
    params = _block_params(np.random.default_rng(40), H=40)
    for name in ("wv", "vb"):
        params[name].data[:] = 0.0
    params["wo"].data[:] = 1e307
    _overflow_raises_naming(T.attention_block(params["x"], _attention_weights(params), _padded_bias(), 2),
                            "attention core")
    assert params["wo"].grad is None and params["x"].grad is None


def test_ffn_block_gradient_overflow_raises():
    # a zero first linear makes gelu's output zero, so the huge second
    # linear's forward stays finite while g @ w2.T (a sum over 40 columns)
    # overflows
    rng = np.random.default_rng(41)
    x, w1, b1 = p(rng.normal(size=(2, 3, 4))), p(np.zeros((4, 6))), p(np.zeros(6))
    w2, b2 = p(np.full((6, 40), 1e307)), p(rng.normal(size=40))
    _overflow_raises_naming(T.ffn_block(x, w1, b1, w2, b2), "gelu")
    assert w2.grad is None and x.grad is None


def test_gathered_cross_entropy_gradient_overflow_raises():
    # zero rows keep the logits at the bias; scaled by 100, the logits'
    # gradient against a decoder of +-1e308 overflows in the rows' gradient
    x, b = p(np.zeros((1, 2, 3))), p(np.zeros(4))
    w = p(np.full((3, 4), 1e308))
    w.data[:, 1] = -1e308
    out = T.gathered_cross_entropy(x, np.array([[1, -100]]), w, b)
    assert np.isfinite(out.data)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ContractError, match=re.escape(f"at node {out!r}, into its row gather")):
        T.backward(T.scale(out, 100.0))
    assert w.grad is None and x.grad is None


def test_finite_helper_decides_by_the_exact_test_when_the_dot_overflows():
    assert T._finite(np.zeros((0, 3))) and T._finite(np.ones(())) and T._finite(np.float64(-2.0))
    huge = np.array([[1e200, -1e200], [0.0, 3.0]])
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.vdot(huge, huge))
    assert T._finite(huge) and T._finite(np.array([1.7e308, -1.7e308]))
    for bad in (np.nan, np.inf, -np.inf):
        assert not T._finite(np.array([[1.0, 2.0], [bad, 0.0]]))
        assert not T._finite(np.array([1e200, bad]))


def _attention_loss(wo_fill):
    # wo holds `wo_fill`, so the attention core's gradient g @ wo.T holds it
    # too while the node's own incoming gradient is all ones
    params = _block_params(np.random.default_rng(42), H=4)
    params["wo"].data[:] = 0.0
    params["wo"].data[0, :] = wo_fill
    out = T.attention_block(params["x"], _attention_weights(params), _padded_bias(), 2)
    return params, out, T.reduce_sum(T.mul(out, T.constant(np.ones(out.shape))))


def test_huge_finite_gradient_passes_each_check_site():
    # squares of 1e200 overflow the one-dot test; the exact test lets them pass
    params, out, loss = _attention_loss(1e200)
    T.backward(loss)
    assert np.abs(params["x"].grad).max() > 1e154
    assert all(np.isfinite(params[n].grad).all() for n in ("x",) + ATTENTION_WEIGHTS)
    for at_leaf in (False, True):
        w = T.parameter(np.array([1.0, 2.0]), name="w")
        x = w if at_leaf else T.scale(w, 3.0)
        T.backward(T.reduce_sum(T.mul(x, T.constant([1e200, -1.0]))))
        assert w.grad.tolist() == ([1e200, -1.0] if at_leaf else [3e200, -3.0])


def test_leaf_whose_summed_gradient_overflows_raises_and_keeps_its_gradient():
    # the new part 1e308 is finite, but added to the held 1.7e308 it is not
    W = T.parameter(np.zeros((1, 2)), name="W")
    W.grad = np.array([[1.7e308, 0.0]])
    with np.errstate(over="ignore"), \
            pytest.raises(ContractError, match=re.escape(f"backward: non-finite gradient at node {W!r}")):
        T.backward(T.scale(T.getitem(W, (0, 0)), 1e308))
    assert W.grad.tolist() == [[1.7e308, 0.0]]


def _scatter_by_add_at(table, ids, g):
    gt = np.zeros_like(table.data)
    np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
    return gt


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
    assert a.dtype == b.dtype and a.shape == b.shape


def test_scatter_rows_equals_add_at_into_zeros():
    rng = np.random.default_rng(43)
    table = p(np.ones((5, 3)))
    cases = {
        "duplicate ids": np.array([[1, 3, 1], [1, 0, 4]]),
        "empty ids": np.zeros((2, 0), dtype=np.int64),
        "one row": np.array([2]),
    }
    for ids in cases.values():
        g = rng.normal(size=ids.shape + (3,))
        _assert_same_bits(T._scatter_rows(table, ids, g), _scatter_by_add_at(table, ids, g))
    # -0.0 parts: row 0 gets only -0.0 (0.0 + -0.0 is 0.0), row 1 gets -0.0 then
    # a value, row 2 a value then -0.0, and row 3 a value and its negation
    ids = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    g = np.array([[-0.0] * 3, [-0.0] * 3, [-0.0] * 3, [-1.5] * 3, [2.5] * 3, [-0.0] * 3,
                  [1e-300] * 3, [-1e-300] * 3])
    _assert_same_bits(T._scatter_rows(table, ids, g), _scatter_by_add_at(table, ids, g))
    # random tables with many duplicates, some parts -0.0: each element sees the same additions
    for _ in range(200):
        V, H = rng.integers(1, 6), rng.integers(1, 5)
        table = p(np.zeros((V, H)))
        ids = rng.integers(0, V, size=tuple(rng.integers(0, 4, size=rng.integers(1, 4))))
        g = rng.normal(size=ids.shape + (H,)) * 10.0 ** rng.integers(-300, 300, size=ids.shape + (H,))
        g[rng.random(g.shape) < 0.3] = -0.0
        _assert_same_bits(T._scatter_rows(table, ids, g), _scatter_by_add_at(table, ids, g))


def test_scatter_rows_of_mention_positions_with_zero_weight_padding():
    # input_embedding's mention-position part: (B, N, P) positions whose padding
    # slots sit at position 0 with weight 0, so negative gradients give them -0.0 parts
    table = p(np.zeros((9, 4)))
    g = np.random.default_rng(44).normal(size=(2, 3, 4))
    grows = np.expand_dims(g, -2) * INPUT_WEIGHTS[..., None]
    assert np.signbit(grows[INPUT_WEIGHTS == 0.0]).any()
    _assert_same_bits(T._scatter_rows(table, INPUT_POSITIONS, grows),
                      _scatter_by_add_at(table, INPUT_POSITIONS, grows))


# ---------------------------------------------------------------------------
# no_grad


def test_no_grad_records_no_graph():
    w = p(np.ones((3, 2)))
    with T.no_grad():
        out = T.linear(p(np.ones((4, 3))), w, p(np.zeros(2)))
    assert out._parents == () and out._backward is None and not out.requires_grad
    assert T.linear(p(np.ones((4, 3))), w, p(np.zeros(2)))._parents


def test_no_grad_nests_and_restores_after_an_exception():
    a = p(np.ones(3))

    @T.no_grad()
    def failing():
        raise ValueError("boom")

    with T.no_grad():
        with T.no_grad():
            assert T.mul(a, a)._parents == ()
        assert T.mul(a, a)._parents == ()  # the outer block is still active
    assert T.mul(a, a)._parents
    with pytest.raises(ValueError):
        with T.no_grad():
            raise ValueError("boom")
    assert T.mul(a, a)._parents
    with pytest.raises(ValueError):
        failing()
    assert T.mul(a, a)._parents


def test_backward_fills_grads_after_no_grad():
    a = p(np.array([1.0, 2.0]))
    with T.no_grad():
        T.reduce_sum(T.mul(a, a))
    T.backward(T.reduce_sum(T.mul(a, a)))
    assert np.array_equal(a.grad, [2.0, 4.0])


# ---------------------------------------------------------------------------
# node contract and the backward engine


def reference_backward(loss):
    """The id()-keyed engine `T.backward` replaced, kept as an oracle."""
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for q in node._parents:
            if id(q) not in seen:
                stack.append((q, False))
    grads = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise ContractError(f"backward: non-finite gradient at node {node!r}")
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for q, qg in zip(node._parents, node._backward(g)):
            if qg is None:
                continue
            grads[id(q)] = grads[id(q)] + qg if id(q) in grads else qg


def test_backward_equals_reference_engine_on_a_pretrain_step(tiny_config):
    from dataclasses import replace

    from conftest import random_sequence
    from entlm.corpus import IGNORE_LABEL, MaskedBatch
    from entlm.pretrain import init_model, pretrain_step_loss
    from entlm.seeding import substream

    cfg = replace(tiny_config, dropout=0.1).validate()
    params = init_model(cfg, seed=0)
    rng = substream(5, "engine")
    batches = []
    for _ in range(4):
        seq = random_sequence(rng, cfg, n_words=10, n_entities=2)
        word_labels = [IGNORE_LABEL] * 10
        word_labels[2], word_labels[7] = seq.word_ids[2], seq.word_ids[7]
        batches.append(MaskedBatch(sequence=seq, word_labels=word_labels,
                                   entity_labels=[seq.entity_ids[0], IGNORE_LABEL]))
    total, _, _ = pretrain_step_loss(params, cfg, batches, rng=substream(5, "engine-dropout"))

    # several nodes feed more than one child (q/k/v share x, the residuals reuse it)
    children = {}
    stack, seen = [total], set()
    while stack:
        t = stack.pop()
        for q in t._parents:
            children[id(q)] = children.get(id(q), 0) + 1
            if id(q) not in seen:
                seen.add(id(q))
                stack.append(q)
    assert sum(n > 1 for n in children.values()) >= 4

    reference_backward(total)
    expected = {n: t.grad.tobytes() for n, t in params.items() if t.grad is not None}
    T.zero_grads(params)
    T.backward(total)
    assert {n: t.grad.tobytes() for n, t in params.items() if t.grad is not None} == expected
    assert len(expected) == len(params)


def test_grad_ready_hook_fires_each_leaf_once_with_its_final_gradient(tiny_config):
    from conftest import random_sequence
    from entlm.corpus import IGNORE_LABEL, MaskedBatch
    from entlm.pretrain import init_model, pretrain_step_loss
    from entlm.seeding import substream

    params = init_model(tiny_config, seed=0)
    rng = substream(6, "hook")
    batches = []
    for _ in range(3):
        seq = random_sequence(rng, tiny_config, n_words=8, n_entities=2)
        word_labels = [IGNORE_LABEL] * 8
        word_labels[1] = seq.word_ids[1]
        batches.append(MaskedBatch(sequence=seq, word_labels=word_labels,
                                   entity_labels=[seq.entity_ids[1], IGNORE_LABEL]))
    total, _, _ = pretrain_step_loss(params, tiny_config, batches)
    reference_backward(total)
    expected = {n: t.grad.tobytes() for n, t in params.items()}
    names = {t: n for n, t in params.items()}
    fired = []

    def hook(leaf):
        fired.append((names[leaf], leaf.grad.tobytes()))

    T.zero_grads(params)
    with T.on_grad_ready(hook):
        T.backward(total)
    assert T._grad_ready_hook is None
    # once per parameter, each with the gradient backward leaves in .grad
    assert sorted(n for n, _ in fired) == sorted(params)
    assert dict(fired) == expected == {n: t.grad.tobytes() for n, t in params.items()}
    # the decoder weights, read only by the loss heads, come before the
    # embedding tables the encoder reads first
    order = [n for n, _ in fired]
    assert max(order.index("mlm_head.w"), order.index("mep_head.w")) < min(
        order.index("word_emb"), order.index("entity_emb"), order.index("pos_emb"))


def test_grad_ready_hook_waits_for_every_consumer_of_a_leaf():
    # pos is read by an embedding and a matmul
    pos, other = p(np.arange(12.0).reshape(4, 3)), p(np.ones(3))
    a = T.embedding(pos, np.array([[0, 1, 2]]))
    b = T.matmul(T.constant([[0.0, 1.0, 0.0, 0.5]]), pos)
    events = []
    for name, node in (("embedding", a), ("matmul", b)):
        run = node._backward
        node._backward = lambda g, run=run, name=name: events.append(name) or run(g)
    loss = T.reduce_sum(T.mul(T.add(T.reduce_sum(a, axis=1), b), other))
    reference_backward(loss)
    want = pos.grad.tobytes()
    T.zero_grads([pos, other])
    with T.on_grad_ready(lambda leaf: events.append(("pos" if leaf is pos else "other", leaf.grad.tobytes()))):
        T.backward(loss)
    fired = [e for e in events if isinstance(e, tuple)]
    assert sorted(n for n, _ in fired) == ["other", "pos"]
    assert events.index(("pos", want)) > max(events.index("embedding"), events.index("matmul"))
    assert pos.grad.tobytes() == want


def test_grad_ready_hook_skips_a_leaf_without_a_gradient():
    a, b, unused = p([1.0, 2.0]), p([3.0, 4.0]), p([5.0])
    # a node whose closure gives b nothing, as a constant input would get
    node = T._make(a.data + b.data, (a, b), lambda g: (g, None), "custom")
    fired = []
    with T.on_grad_ready(fired.append):
        T.backward(T.reduce_sum(node))
    assert fired == [a] and b.grad is None and unused.grad is None


@pytest.mark.parametrize("with_hook", [False, True])
def test_leaf_read_by_a_node_without_a_gradient_is_still_finished(with_hook):
    w = p([1.0, 2.0])
    live = T.mul(w, w)
    dead = T.scale(w, 3.0)  # reached from the loss, but its consumer gives it no gradient
    # the walk reaches `dead` after `live`, so its edge into w is the last one counted
    node = T._make(live.data + dead.data, (live, dead), lambda g: (g, None), "custom")
    loss = T.reduce_sum(node)
    reference_backward(loss)
    want = w.grad.tobytes()
    w.grad = None
    fired = []
    if with_hook:
        with T.on_grad_ready(fired.append):
            T.backward(loss)
        assert fired == [w]
    else:
        T.backward(loss)
    assert w.grad.tobytes() == want and np.array_equal(w.grad, [2.0, 4.0])


def test_grad_ready_hook_is_removed_when_backward_raises():
    w = T.parameter(np.array([1.0, 2.0]), name="w")
    loss = T.reduce_sum(T.mul(w, T.constant([1.0, np.nan])))
    fired = []
    with np.errstate(invalid="ignore"), pytest.raises(ContractError, match=re.escape(f"at node {w!r}")):
        with T.on_grad_ready(fired.append):
            T.backward(loss)
    assert T._grad_ready_hook is None and fired == [] and w.grad is None
    T.backward(T.reduce_sum(T.mul(w, w)))
    assert fired == [] and np.array_equal(w.grad, [2.0, 4.0])


def test_node_data_is_a_float64_array():
    a, b = p(np.arange(6.0).reshape(2, 3)), p(np.ones(3))
    outs = [
        T.add(a, b), T.matmul(a, p(np.ones((3, 2)))), T.reduce_sum(a, axis=1),
        T.reduce_sum(a), T.scale(T.reduce_sum(a), 1 / a.data.size), a[0, 1],
        T.cross_entropy_logits(a, np.array([0, 2])),
        T.cross_entropy_logits(a, np.array([-100, -100])),
    ]
    for out in outs:
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64, out
    assert outs[3].data.shape == () and outs[6].data.shape == () and outs[7].data.shape == ()
    for data in (3, [1, 2], np.array([True, False]), np.float32(0.5), np.arange(3)):
        t = T.Tensor(data)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))


def test_node_records_parents_only_when_one_needs_a_gradient():
    c, w = T.constant([1.0, 2.0]), p([3.0, 4.0])
    out = T.mul(c, c)
    assert out._parents == () and out._backward is None
    assert T.scale(out, 2.0)._parents == ()
    mixed = T.mul(c, w)
    assert mixed._parents == (c, w) and mixed._backward is not None
    assert T.scale(mixed, 2.0)._parents == (mixed,)  # an inner node passes it on
    with T.no_grad():
        assert T.mul(c, w)._parents == () and T.mul(c, w)._backward is None
    for out in (out, mixed):
        assert out.grad is None and not out.requires_grad and out.name is None


# ---------------------------------------------------------------------------
# in-place kernels: the expression chains they replaced, kept as numpy oracles


def reference_linear(x, w, b, g):
    out = np.matmul(x, w) + b
    if g is None:
        return out, ()
    gx = np.matmul(g, w.T)
    gw = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[-1])
    gb = g if g.ndim == 1 else g.sum(axis=tuple(range(g.ndim - 1)))
    return out, (gx, gw, gb)


def reference_attention_block(x, weights, bias, heads, g, p=0.0, rng=None):
    wq, qb, wk, kb, wv, vb, wo, ob = weights
    B, S, H = x.shape
    dh = H // heads
    c = float(1.0 / np.sqrt(dh))

    def split(t):
        return np.transpose(t.reshape((B, S, heads, dh)), (0, 2, 1, 3))

    def merge(gh):
        return np.transpose(gh, (0, 2, 1, 3)).reshape((B, S, H))

    qh, kh, vh = (split(reference_linear(x, w, b, None)[0]) for w, b in ((wq, qb), (wk, kb), (wv, vb)))
    kt = np.transpose(kh, (0, 1, 3, 2))
    scores = np.matmul(qh, kt) * c + bias
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    probs = e / e.sum(axis=-1, keepdims=True)
    mask = None
    dropped = probs
    if p > 0.0:
        mask = (rng.random(probs.shape) >= p) / (1.0 - p)
        dropped = probs * mask
    ctx = merge(np.matmul(dropped, vh))
    out_mask = (rng.random((B, S, H)) >= p) / (1.0 - p) if p > 0.0 else None
    go = g if out_mask is None else g * out_mask
    out, (gctx, gwo, gob) = reference_linear(ctx, wo, ob, go)
    if out_mask is not None:
        out = out * out_mask
    gctx = np.transpose(gctx.reshape((B, S, heads, dh)), (0, 2, 1, 3))
    gprobs = np.matmul(gctx, np.swapaxes(vh, -1, -2))
    gvh = np.matmul(np.swapaxes(dropped, -1, -2), gctx)
    if mask is not None:
        gprobs = gprobs * mask
    dot = (gprobs * probs).sum(axis=-1, keepdims=True)
    gs = probs * (gprobs - dot) * c
    gqh = np.matmul(gs, np.swapaxes(kt, -1, -2))
    gkt = np.matmul(np.swapaxes(qh, -1, -2), gs)
    grads = []
    for gh, w, b in ((gqh, wq, qb), (np.transpose(gkt, (0, 1, 3, 2)), wk, kb), (gvh, wv, vb)):
        grads += reference_linear(x, w, b, merge(gh))[1]
    return out, (*grads, gwo, gob)


def reference_layer_norm(x, gain, bias, g, eps=T.LAYER_NORM_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain + bias
    n = x.shape[-1]
    gy = g * gain
    gxhat_sum = gy.sum(axis=-1, keepdims=True)
    gxhat_dot = (gy * xhat).sum(axis=-1, keepdims=True)
    gx = inv * (gy - gxhat_sum / n - xhat * gxhat_dot / n)
    return out, (gx, (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0))


def reference_gelu(x, g):
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return x * cdf, (g * (cdf + x * pdf),)


def reference_log_softmax(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def _node_and_grads(out, rng):
    """Forward data of `out` and its backward closure's gradients for a random g."""
    g = rng.normal(size=out.shape)
    return out.data, out._backward(g), g


def _assert_same(fused, reference):
    np.testing.assert_array_equal(fused[0], reference[0])
    assert len(fused[1]) == len(reference[1])
    for a, b in zip(fused[1], reference[1]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rate", [0.0, 0.25])
def test_attention_in_place_equals_reference_bit_for_bit(rate):
    rng = np.random.default_rng(21)
    params = _block_params(rng)
    weights = _attention_weights(params)
    bias = _padded_bias()
    out = T.attention_block(params["x"], weights, bias, 2, p=rate, rng=np.random.default_rng(8))
    data, grads, g = _node_and_grads(out, rng)
    ref = reference_attention_block(params["x"].data, [w.data for w in weights], bias, 2, g, p=rate,
                                    rng=np.random.default_rng(8))
    _assert_same((data, grads), ref)


@pytest.mark.parametrize("shape", [(7,), (4, 7), (2, 3, 7)])
def test_linear_in_place_equals_reference_bit_for_bit(shape):
    rng = np.random.default_rng(22)
    x, w, b = p(rng.normal(size=shape)), p(rng.normal(size=(7, 5))), p(rng.normal(size=5))
    data, grads, g = _node_and_grads(T.linear(x, w, b), rng)
    _assert_same((data, grads), reference_linear(x.data, w.data, b.data, g))


def test_layer_norm_in_place_equals_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    x, gain, bias = p(rng.normal(size=(2, 3, 7)) * 3.0 + 1.0), p(rng.normal(size=7)), p(rng.normal(size=7))
    data, grads, g = _node_and_grads(T.layer_norm(x, gain, bias), rng)
    _assert_same((data, grads), reference_layer_norm(x.data, gain.data, bias.data, g))


@pytest.mark.parametrize("shape", [(), (3, 4, 5)])
def test_gelu_in_place_equals_reference_bit_for_bit(shape):
    rng = np.random.default_rng(24)
    x = p(rng.normal(size=shape) * 3.0)
    data, grads, g = _node_and_grads(T.gelu(x), rng)
    _assert_same((data, grads), reference_gelu(x.data, g))


@pytest.mark.parametrize("axis", [-1, 0])
def test_log_softmax_np_in_place_equals_reference_bit_for_bit(axis):
    x = np.random.default_rng(25).normal(size=(4, 9)) * 10.0
    np.testing.assert_array_equal(T.log_softmax_np(x, axis=axis), reference_log_softmax(x, axis=axis))


def _span_chain(table, ids, weights):
    rows = T.embedding(table, ids)
    masked = T.mul(rows, T.constant(weights[..., None]))
    return T.reduce_sum(masked, axis=masked.ndim - 2)


def _input_chain(tables, word_ids, types, entity_ids=None, positions=None, weights=None, mean=False):
    """The input layer as the chain of single nodes `input_embedding` replaced."""
    word_emb, pos_emb, type_emb = tables[:3]
    M = word_ids.shape[-1]
    words = (T.embedding(word_emb, word_ids)
             + T.embedding(pos_emb, np.broadcast_to(np.arange(M), word_ids.shape))
             + T.embedding(type_emb, np.full(word_ids.shape, types[0])))
    if entity_ids is None:
        return words
    entity_emb, proj_w, proj_b, entity_type_emb = tables[3:]
    proj = T.linear(T.embedding(entity_emb, entity_ids), proj_w, proj_b)
    typ = T.embedding(entity_type_emb, np.full(entity_ids.shape, types[1]))
    pos_term = _span_chain(pos_emb, positions, weights)
    if mean:
        pos_term = T.mul(pos_term, T.constant(1.0 / weights.sum(axis=-1, keepdims=True)))
    return T.concat([words, proj + typ + pos_term], axis=1)


def _input_tables(rng, V=7, P=9, E=3, H=4, types=3):
    names = ("word_emb", "pos_emb", "type_emb", "entity_emb", "proj_w", "proj_b", "entity_type_emb")
    shapes = ((V, H), (P, H), (types, H), (V, E), (E, H), (H,), (types, H))
    return {n: p(rng.normal(size=s)) for n, s in zip(names, shapes)}


# two sequences of five words; three entity slots each: a one-word mention, a
# three-word mention with a repeated position, and a padded slot (as pack_batch
# pads: one dummy position with weight 1); one weight of 0.5
INPUT_WORDS = np.array([[1, 4, 4, 0, 6], [2, 2, 5, 3, 1]])
INPUT_ENTITIES = np.array([[3, 0, 0], [6, 3, 0]])
INPUT_POSITIONS = np.array([[[2, 0, 0], [0, 1, 1], [0, 0, 0]], [[4, 0, 0], [1, 2, 3], [0, 0, 0]]])
INPUT_WEIGHTS = np.array([[[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
                          [[1.0, 0.0, 0.0], [1.0, 0.5, 1.0], [1.0, 0.0, 0.0]]])


@pytest.mark.parametrize("batch", ["words", "sum", "mean"])
def test_input_embedding_equals_unfused_chain_bit_for_bit(batch):
    rng = np.random.default_rng(26)
    params = _input_tables(rng)
    entity = () if batch == "words" else (INPUT_ENTITIES, INPUT_POSITIONS, INPUT_WEIGHTS)
    if not entity:
        params = dict(list(params.items())[:3])
    tables, types = list(params.values()), (2, 0)
    width = 5 + (3 if entity else 0)
    weight = rng.normal(size=(2, width, 4))
    mean = batch == "mean"
    fused = _forward_and_grads(lambda: input_embedding(tables, INPUT_WORDS, types, *entity, mean=mean),
                               params, weight)
    chain = _forward_and_grads(lambda: _input_chain(tables, INPUT_WORDS, types, *entity, mean=mean),
                               params, weight)
    np.testing.assert_array_equal(fused[0], chain[0])
    for name in params:
        assert fused[1][name] is not None, name
        np.testing.assert_array_equal(fused[1][name], chain[1][name], err_msg=name)
    node = input_embedding(tables, INPUT_WORDS, types, *entity, mean=mean)
    assert node._op == "input_embedding"
    assert node._parents == tuple(tables) + ((params["pos_emb"],) if entity else ())


def test_input_embedding_two_calls_add_pos_emb_parts_in_chain_order():
    # a loss over two encoder passes, as NER's chunks give: pos_emb collects
    # four parts, and floating-point addition is not associative
    rng = np.random.default_rng(36)
    params = _input_tables(rng)
    tables, entity = list(params.values()), (INPUT_ENTITIES, INPUT_POSITIONS, INPUT_WEIGHTS)
    weights = [T.constant(rng.normal(size=(2, 8, 4))) for _ in range(2)]

    def loss(build):
        outs = [build(tables, INPUT_WORDS[:, ::step], (0, 1), *entity) for step in (1, -1)]
        return T.add(*(T.reduce_sum(T.mul(out, w)) for out, w in zip(outs, weights)))

    T.backward(loss(input_embedding))
    fused, params["pos_emb"].grad = params["pos_emb"].grad, None
    T.backward(loss(_input_chain))
    np.testing.assert_array_equal(fused, params["pos_emb"].grad)


def test_input_embedding_rejects_bad_input():
    tables = list(_input_tables(np.random.default_rng(0)).values())
    entity = (INPUT_ENTITIES, INPUT_POSITIONS, INPUT_WEIGHTS)
    with pytest.raises(ShapeError, match="word id out of range"):
        input_embedding(tables[:3], np.array([[0, 7]]), (0, 1))
    with pytest.raises(ShapeError, match="position id out of range"):
        input_embedding(tables[:3], np.zeros((1, 10), dtype=np.int64), (0, 1))
    with pytest.raises(ShapeError, match="mention position id out of range"):
        input_embedding(tables, INPUT_WORDS, (0, 1), INPUT_ENTITIES, INPUT_POSITIONS + 7, INPUT_WEIGHTS)
    with pytest.raises(ShapeError, match="entity id out of range"):
        input_embedding(tables, INPUT_WORDS, (0, 1), INPUT_ENTITIES + 5, INPUT_POSITIONS, INPUT_WEIGHTS)
    with pytest.raises(ShapeError):
        input_embedding(tables, INPUT_WORDS, (0, 1), INPUT_ENTITIES, INPUT_POSITIONS, INPUT_WEIGHTS[..., :2])
    with pytest.raises(ShapeError):
        input_embedding(tables[:3], INPUT_WORDS, (0, 1), *entity)  # no entity tables
    with pytest.raises(ShapeError):
        input_embedding(tables, INPUT_WORDS, (0, 1))  # entity tables, no entity ids
    with pytest.raises(ShapeError):
        input_embedding(tables[:3], INPUT_WORDS[0], (0, 1))  # no batch axis


def test_input_embedding_refuses_out_of_range_type_rows():
    # the word-type row is checked against type_emb; with entities, the
    # entity-type row against entity_type_emb too
    tables = list(_input_tables(np.random.default_rng(0), types=2).values())
    msg = "^input_embedding: type id out of range for table with 2 rows$"
    for types in ((2, 1), (0, 2), (-1, 1)):
        with pytest.raises(ShapeError, match=msg):
            input_embedding(tables[:3], INPUT_WORDS, types)
    one_row = p(tables[6].data[:1])
    with pytest.raises(ShapeError, match="^input_embedding: type id out of range for table with 1 rows$"):
        input_embedding(tables[:6] + [one_row], INPUT_WORDS, (0, 1), INPUT_ENTITIES, INPUT_POSITIONS,
                        INPUT_WEIGHTS)
    input_embedding(tables[:3], INPUT_WORDS, (1, 0))  # both rows in range


def test_input_embedding_gradient_overflow_raises():
    # with a huge projection, the entity lookup's gradient (g @ proj_w.T, a sum
    # over 40 columns) overflows inside the node while its forward stays finite
    params = _input_tables(np.random.default_rng(1), E=2, H=40)
    params["entity_emb"].data[:] = 0.5
    params["proj_w"].data[:] = 1e307
    tables = list(params.values())
    out = input_embedding(tables, INPUT_WORDS, (0, 1), INPUT_ENTITIES, INPUT_POSITIONS, INPUT_WEIGHTS)
    assert np.isfinite(out.data).all()
    with np.errstate(over="ignore"), \
            pytest.raises(ContractError, match=re.escape(f"at node {params['entity_emb']!r}")):
        T.backward(T.reduce_sum(T.mul(out, T.constant(np.ones(out.shape)))))


def test_residual_layer_norm_equals_layer_norm_of_add_bit_for_bit():
    rng = np.random.default_rng(29)
    params = {"x": p(rng.normal(size=(2, 3, 7)) * 3.0 + 1.0), "a": p(rng.normal(size=(2, 3, 7))),
              "gain": p(rng.normal(size=7)), "bias": p(rng.normal(size=7))}
    weight = rng.normal(size=(2, 3, 7))
    args = list(params.values())
    fused = _forward_and_grads(lambda: T.residual_layer_norm(*args), params, weight)
    chain = _forward_and_grads(lambda: T.layer_norm(T.add(args[0], args[1]), *args[2:]), params, weight)
    np.testing.assert_array_equal(fused[0], chain[0])
    for name in params:
        np.testing.assert_array_equal(fused[1][name], chain[1][name], err_msg=name)
    with T.no_grad():
        np.testing.assert_array_equal(T.residual_layer_norm(*args).data, chain[0])
    with pytest.raises(ShapeError):
        T.residual_layer_norm(args[0], p(np.ones((2, 1, 7))), *args[2:])


def test_layer_norm_means_equal_np_mean_bit_for_bit():
    # layer_norm takes its two means as an add-reduce divided in place by the
    # width: np.mean's arithmetic without its Python wrapper
    rng = np.random.default_rng(35)
    for _ in range(300):
        lead = tuple(rng.integers(1, 5, size=rng.integers(0, 3)))
        x = rng.normal(size=lead + (int(rng.integers(1, 300)),)) * 10.0 ** rng.integers(-3, 4)
        x = x + rng.normal() * 10.0 ** rng.integers(-3, 4)
        gain, bias = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
        want, _ = reference_layer_norm(x, gain, bias, np.zeros_like(x))
        np.testing.assert_array_equal(T.layer_norm(p(x), p(gain), p(bias)).data, want)


# ---------------------------------------------------------------------------
# forward-only array functions: attention's score workspace, gelu and layer_norm in place


@pytest.fixture
def empty_workspace(monkeypatch):
    monkeypatch.setattr(T._attention_workspace, "scores", np.empty(0))


def _attention_inputs(rng, B, S, H=6):
    """(x, weights, bias) of an attention block over B sequences of S tokens."""
    mask = np.ones((B, S))
    mask[-1, S // 2:] = 0.0
    bias = np.where(mask[:, None, None, :] > 0, 0.0, -1e30)
    weights = [p(rng.normal(size=(H, H) if i % 2 == 0 else H)) for i in range(8)]
    return p(rng.normal(size=(B, S, H))), weights, bias


def _forward_attention(x, weights, bias, heads, **kwargs):
    """`T._attention`'s forward-only output for `attention_block`'s Tensor arguments."""
    return T._attention(x.data, [w.data for w in weights], bias, heads, **kwargs)[0]


def test_recording_attention_leaves_the_workspace_untouched(empty_workspace):
    rng = np.random.default_rng(30)
    _forward_attention(*_attention_inputs(rng, 2, 4), 2)
    workspace = T._attention_workspace.scores
    assert workspace.size == 2 * 2 * 4 * 4
    before = workspace.copy()
    for B, S in ((2, 4), (3, 9)):  # one shape that fits the workspace, one larger
        out = T.attention_block(*_attention_inputs(rng, B, S), 2)
        assert out._backward is not None
        assert not np.shares_memory(out.data, workspace)
        with T.no_grad():  # the op allocates its scores also when it records nothing
            out = T.attention_block(*_attention_inputs(rng, B, S), 2)
        assert not np.shares_memory(out.data, workspace)
    assert T._attention_workspace.scores is workspace
    np.testing.assert_array_equal(workspace, before)


@pytest.mark.parametrize("rate", [0.0, 0.25])
def test_no_grad_attention_outputs_are_independent(empty_workspace, rate):
    rng = np.random.default_rng(31)
    first = _forward_attention(*_attention_inputs(rng, 2, 5), 2, p=rate, rng=np.random.default_rng(1))
    kept = first.copy()
    second = _forward_attention(*_attention_inputs(rng, 2, 5), 2, p=rate, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(first, kept)
    assert not np.array_equal(first, second)
    for out in (first, second):
        assert not np.shares_memory(out, T._attention_workspace.scores)


def test_no_grad_attention_equals_recording_across_shapes(empty_workspace):
    rng = np.random.default_rng(32)
    calls = [_attention_inputs(rng, B, S) for B, S in ((2, 4), (3, 9), (2, 3))]  # small, large, small
    want = [T.attention_block(*inputs, 2).data for inputs in calls]
    got = [_forward_attention(*inputs, 2) for inputs in calls]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert T._attention_workspace.scores.size == 3 * 2 * 9 * 9  # the largest score size seen


def test_threads_never_share_a_score_buffer(empty_workspace):
    shape = (2, 2, 4, 4)
    here = T._score_buffer(shape)
    with futures.ThreadPoolExecutor(1) as pool:
        there, again = pool.submit(lambda: (T._score_buffer(shape), T._score_buffer(shape))).result()
    assert not np.shares_memory(here, there)
    # each thread keeps its own workspace from one call to the next
    assert np.shares_memory(there, again) and np.shares_memory(here, T._score_buffer(shape))


def test_no_grad_attention_above_the_cap_allocates_its_own_scores(empty_workspace):
    rng = np.random.default_rng(33)
    _forward_attention(*_attention_inputs(rng, 2, 4), 2)
    workspace = T._attention_workspace.scores
    # one head over S keys: S * S scores, just above the cap
    S = math.isqrt(T.ATTENTION_WORKSPACE_CAP) + 1
    inputs = _attention_inputs(rng, 1, S, H=2)
    want = T.attention_block(*inputs, 1).data
    got = _forward_attention(*inputs, 1)
    np.testing.assert_array_equal(got, want)
    assert T._attention_workspace.scores is workspace and workspace.size == 2 * 2 * 4 * 4
    assert T.ATTENTION_WORKSPACE_CAP * workspace.itemsize <= 8 << 20


@pytest.mark.parametrize("shape", [(), (3, 4, 5)])
def test_no_grad_gelu_and_layer_norm_equal_recording_and_leave_inputs_alone(shape):
    rng = np.random.default_rng(34)
    x = p(rng.normal(size=shape) * 3.0 + 1.0)
    gain, bias = p(rng.normal(size=shape[-1:])), p(rng.normal(size=shape[-1:]))
    a = p(rng.normal(size=shape))
    before = [x.data.copy(), a.data.copy()]
    recorded = [T.gelu(x).data] + ([T.layer_norm(x, gain, bias).data, T.residual_layer_norm(x, a, gain, bias).data]
                                   if shape else [])
    outs = [T._gelu(x.data)[0]] + ([T._layer_norm(x.data, None, gain.data, bias.data)[0],
                                    T._layer_norm(x.data, a.data, gain.data, bias.data)[0]] if shape else [])
    for got, want in zip(outs, recorded):
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, x.data) and not np.shares_memory(got, a.data)
    np.testing.assert_array_equal(x.data, before[0])
    np.testing.assert_array_equal(a.data, before[1])


# ---------------------------------------------------------------------------
# kernels never write into their inputs


def _op_cases(rng):
    """(name, build(inputs) -> node, input Tensors, raw arrays the op reads)."""
    def t(*shape):
        return p(rng.normal(size=shape))

    ids = np.array([[0, 2, 2], [3, 1, 0]])
    positions = np.array([[[0, 2], [1, 1]], [[3, 0], [2, 0]]])
    weights = np.array([[[1.0, 1.0], [1.0, 0.5]], [[1.0, 0.0], [1.0, 0.0]]])
    bias = _padded_bias(B=2, S=4, pad=1)
    labels = np.array([1, -100, 3])
    rows = np.array([2, 0, 2])
    return [
        ("add", T.add, [t(3, 4), t(4)], []),
        ("sub", T.sub, [t(3, 4), t(3, 1)], []),
        ("mul", T.mul, [t(3, 4), t(3, 4)], []),
        ("scale", lambda a: T.scale(a, 1.5), [t(3, 4)], []),
        ("matmul", T.matmul, [t(2, 3, 4), t(4, 5)], []),
        ("linear", T.linear, [t(2, 3, 4), t(4, 5), t(5)], []),
        ("attention_block",
         lambda x, *weights: T.attention_block(x, weights, bias, 2, p=0.2, rng=np.random.default_rng(1)),
         [t(2, 4, 6)] + [t(6, 6) if i % 2 == 0 else t(6) for i in range(8)], [bias]),
        ("ffn_block", lambda *args: T.ffn_block(*args, p=0.2, rng=np.random.default_rng(3)),
         [t(2, 3, 4), t(4, 5), t(5), t(5, 4), t(4)], []),
        ("embedding", lambda a: T.embedding(a, ids), [t(4, 3)], [ids]),
        ("input_embedding",
         lambda *tables: input_embedding(tables, ids, (0, 1), ids[:, :2], positions, weights, mean=True),
         [t(4, 3), t(4, 3), t(2, 3), t(4, 2), t(2, 3), t(3), t(2, 3)], [ids, positions, weights]),
        ("layer_norm", T.layer_norm, [t(3, 4), t(4), t(4)], []),
        ("residual_layer_norm", T.residual_layer_norm, [t(3, 4), t(3, 4), t(4), t(4)], []),
        ("gelu", T.gelu, [t(3, 4)], []),
        ("softmax", T.softmax, [t(3, 4)], []),
        ("dropout", lambda a: T.dropout(a, 0.3, np.random.default_rng(2)), [t(3, 4)], []),
        ("concat", lambda a, b: T.concat([a, b], axis=1), [t(3, 4), t(3, 2)], []),
        ("reduce_sum", lambda a: T.reduce_sum(a, axis=0), [t(3, 4)], []),
        ("reshape", lambda a: T.reshape(a, (4, 3)), [t(3, 4)], []),
        ("transpose", lambda a: T.transpose(a, (1, 0)), [t(3, 4)], []),
        ("getitem", lambda a: T.getitem(a, rows), [t(3, 4)], [rows]),
        ("cross_entropy_logits", lambda a: T.cross_entropy_logits(a, labels), [t(3, 5)], [labels]),
        ("gathered_cross_entropy", lambda x, w, b: T.gathered_cross_entropy(x, labels, w, b),
         [t(1, 3, 4), t(4, 5), t(5)], [labels]),
    ]


@pytest.mark.parametrize("case", range(22))
def test_kernel_never_writes_into_its_inputs(case):
    rng = np.random.default_rng(27)
    name, build, inputs, raw = _op_cases(rng)[case]
    before = [a.data.copy() for a in inputs] + [r.copy() for r in raw]
    out = build(*inputs)
    # nor into the gradient its backward closure receives: backward may hand a
    # leaf's .grad, which can be that very array, to another thread meanwhile
    g = rng.normal(size=out.shape)
    g_before = g.copy()
    out._backward(g)
    np.testing.assert_array_equal(g, g_before, err_msg=f"{name} wrote into its incoming gradient")
    T.backward(out if out.ndim == 0 else T.reduce_sum(T.mul(out, T.constant(rng.normal(size=out.shape)))))
    after = [a.data for a in inputs] + raw
    for i, (b, a) in enumerate(zip(before, after)):
        np.testing.assert_array_equal(a, b, err_msg=f"{name} wrote into input {i}")
    assert all(a.grad is not None for a in inputs), name


@pytest.mark.parametrize("case", range(22))
def test_kernel_graph_is_freed_without_the_cycle_collector(case):
    # a closure that held its own node would keep every step's graph alive
    # until the cyclic collector ran
    name, build, inputs, _ = _op_cases(np.random.default_rng(27))[case]
    gc.collect()
    gc.disable()
    try:
        out = build(*inputs)
        T.backward(out if out.ndim == 0 else T.reduce_sum(out))
        del out
        assert gc.collect() == 0, name
    finally:
        gc.enable()


def _public_ops():
    """Every public function of entlm.tensor that builds a graph node."""
    ops = {n for n, f in vars(T).items() if callable(f) and getattr(f, "__module__", None) == T.__name__
           and not n.startswith("_") and not isinstance(f, type)}
    return ops - {"parameter", "constant", "backward", "zero_grads", "log_softmax_np"}


def test_every_kernel_is_covered_by_the_no_write_test():
    assert {name for name, *_ in _op_cases(np.random.default_rng(0))} == _public_ops()


def test_every_kernel_is_covered_by_the_gradient_check():
    assert set(_grad_cases(np.random.default_rng(0))) == _public_ops()


def test_log_softmax_np_never_writes_into_its_input():
    x = np.random.default_rng(28).normal(size=(3, 5))
    before = x.copy()
    T.log_softmax_np(x)
    np.testing.assert_array_equal(x, before)
