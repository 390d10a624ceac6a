"""Autodiff core: kernel oracles, backward-pass finite-difference checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import entlm.tensor as T
from entlm.errors import ContractError, ShapeError


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
    assert T.grad_check(lambda: T.reduce_sum(T.mul(T.gelu(T.matmul(a, b)), weight)), params,
                        rng=np.random.default_rng(6)) < 1e-6


def test_grad_check_dot_product():
    rng = np.random.default_rng(0)
    params = {"a": p(rng.normal(size=7)), "b": p(rng.normal(size=7))}

    def loss():
        return T.reduce_sum(T.mul(params["a"], params["b"]))

    assert T.grad_check(loss, params, rng=np.random.default_rng(1)) < 1e-10


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(2)
    params = {"logits": p(rng.normal(size=(4, 5)))}
    labels = np.array([0, 3, -100, 2])

    def loss():
        return T.cross_entropy_logits(params["logits"], labels)

    assert T.grad_check(loss, params, rng=np.random.default_rng(3)) < 1e-6


@pytest.mark.parametrize("kernel", ["layer_norm", "gelu", "softmax", "matmul",
                                    "concat", "transpose", "embedding", "mean"])
def test_grad_check_per_kernel(kernel):
    rng = np.random.default_rng(hash(kernel) % 2**32)
    a = p(rng.normal(size=(3, 4)))
    b = p(rng.normal(size=(4, 3)))
    params = {"a": a, "b": b}
    weight = T.constant(rng.normal(size=(3, 4)))

    def loss():
        if kernel == "layer_norm":
            return T.reduce_sum(T.mul(T.layer_norm(a, p(np.ones(4)), p(np.zeros(4))), weight))
        if kernel == "gelu":
            return T.reduce_sum(T.gelu(a))
        if kernel == "softmax":
            return T.reduce_sum(T.mul(T.softmax(a), T.constant(np.arange(12.0).reshape(3, 4))))
        if kernel == "matmul":
            return T.reduce_sum(T.matmul(a, b))
        if kernel == "concat":
            return T.reduce_sum(T.concat([a, T.transpose(b, (1, 0))], axis=0))
        if kernel == "transpose":
            return T.reduce_sum(T.mul(T.transpose(a, (1, 0)), b))
        if kernel == "embedding":
            return T.reduce_sum(T.embedding(a, np.array([0, 2, 2])))
        return T.reduce_mean(T.mul(a, a))

    assert T.grad_check(loss, params, rng=np.random.default_rng(0)) < 1e-6


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


# ---------------------------------------------------------------------------
# fused ops: linear and the attention core, against the op chains they replace


def _linear_chain(x, w, b):
    return T.matmul(x, w) + b


def _attention_chain(q, k, v, bias, heads, p=0.0, rng=None):
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


def _padded_bias(B=2, S=5, pad=2):
    mask = np.ones((B, S))
    mask[1, S - pad:] = 0.0
    return np.where(mask[:, None, None, :] > 0, 0.0, -1e30)


def _forward_and_grads(fn, params, weight):
    T.zero_grads(params)
    out = fn()
    T.backward(T.reduce_sum(T.mul(out, T.constant(weight))))
    return out.data, {n: p.grad for n, p in params.items()}


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

    assert T.grad_check(loss, params, rng=np.random.default_rng(0)) < 1e-6


def test_linear_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        T.linear(p(np.ones((2, 3))), p(np.ones((4, 5))), p(np.zeros(5)))
    with pytest.raises(ShapeError):
        T.linear(p(np.ones((2, 3))), p(np.ones((3, 5))), p(np.zeros(4)))


@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_attention_matches_op_chain_bit_for_bit(rate):
    # head size 3: the 1/sqrt(dh) scale is inexact, so a reordered product shows
    rng = np.random.default_rng(13)
    params = {n: p(rng.normal(size=(2, 5, 6))) for n in "qkv"}
    bias = _padded_bias()
    weight = rng.normal(size=(2, 5, 6))

    def fused():
        return T.attention(params["q"], params["k"], params["v"], bias, 2, p=rate,
                           rng=np.random.default_rng(5))

    def chain():
        return _attention_chain(params["q"], params["k"], params["v"], bias, 2, p=rate,
                                rng=np.random.default_rng(5))

    a, b = _forward_and_grads(fused, params, weight), _forward_and_grads(chain, params, weight)
    assert np.array_equal(a[0], b[0])
    for name in params:
        assert np.array_equal(a[1][name], b[1][name]), name


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_grad_check_attention_padded_keys(rate):
    rng = np.random.default_rng(14)
    params = {n: p(rng.normal(size=(2, 5, 8))) for n in "qkv"}
    bias = _padded_bias()
    weight = T.constant(rng.normal(size=(2, 5, 8)))

    def loss():
        # a fresh stream per call draws the same dropout mask at every probe
        out = T.attention(params["q"], params["k"], params["v"], bias, 2, p=rate,
                          rng=np.random.default_rng(9))
        return T.reduce_sum(T.mul(out, weight))

    assert T.grad_check(loss, params, rng=np.random.default_rng(0)) < 1e-6
    # keys under the mask get no gradient
    assert np.all(params["k"].grad[1, 3:] == 0.0) and np.all(params["v"].grad[1, 3:] == 0.0)


def test_attention_rejects_bad_input():
    x = p(np.ones((1, 3, 4)))
    with pytest.raises(ShapeError):
        T.attention(x, x, p(np.ones((1, 2, 4))), np.zeros((1, 1, 1, 3)), 2)
    with pytest.raises(ShapeError):
        T.attention(x, x, x, np.zeros((1, 1, 1, 3)), 3)
    with pytest.raises(ContractError):
        T.attention(x, x, x, np.zeros((1, 1, 1, 3)), 2, p=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ContractError):
        T.attention(x, x, x, np.zeros((1, 1, 1, 3)), 2, p=0.1)


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
    total, _, _ = pretrain_step_loss(params, cfg, batches, entity_pad_id=0,
                                     rng=substream(5, "engine-dropout"))

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


def test_node_data_is_a_float64_array():
    a, b = p(np.arange(6.0).reshape(2, 3)), p(np.ones(3))
    outs = [
        T.add(a, b), T.matmul(a, p(np.ones((3, 2)))), T.reduce_sum(a, axis=1),
        T.reduce_sum(a), T.reduce_mean(a), a[0, 1],
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
