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
                                    "concat", "transpose", "embedding", "mean", "span_sum"])
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
        if kernel == "span_sum":
            out = T.span_sum(a, np.array([[0, 2, 2], [1, 0, 2]]), np.array([[1.0, 0.5, 1.0], [2.0, 0.0, 1.0]]))
            return T.reduce_sum(T.mul(out, T.constant(weight.data[:2])))
        return T.scale(T.reduce_sum(T.mul(a, a)), 1 / a.data.size)

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
    for heads in (0, -2):
        with pytest.raises(ShapeError, match="heads"):
            T.attention(x, x, x, np.zeros((1, 1, 1, 3)), heads)
    # a bias must broadcast to exactly (B, heads, S, S): not wider, not clashing
    for shape in ((1, 1, 1, 4), (2, 1, 1, 3), (1, 2, 3, 3, 3)):
        with pytest.raises(ShapeError, match=re.escape(f"{shape} does not broadcast to scores (1, 2, 3, 3)")):
            T.attention(x, x, x, np.zeros(shape), 2)
        with T.no_grad(), pytest.raises(ShapeError):
            T.attention(x, x, x, np.zeros(shape), 2)


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
    gx = np.matmul(g, w.T)
    gw = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[-1])
    gb = g if g.ndim == 1 else g.sum(axis=tuple(range(g.ndim - 1)))
    return out, (gx, gw, gb)


def reference_attention(q, k, v, bias, heads, g, p=0.0, rng=None):
    B, S, H = q.shape
    dh = H // heads
    c = float(1.0 / np.sqrt(dh))

    def split(t):
        return np.transpose(t.reshape((B, S, heads, dh)), (0, 2, 1, 3))

    def merge(gh):
        return np.transpose(gh, (0, 2, 1, 3)).reshape((B, S, H))

    qh, kh, vh = split(q), split(k), split(v)
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
    out = merge(np.matmul(dropped, vh))
    gctx = np.transpose(g.reshape((B, S, heads, dh)), (0, 2, 1, 3))
    gprobs = np.matmul(gctx, np.swapaxes(vh, -1, -2))
    gvh = np.matmul(np.swapaxes(dropped, -1, -2), gctx)
    if mask is not None:
        gprobs = gprobs * mask
    dot = (gprobs * probs).sum(axis=-1, keepdims=True)
    gs = probs * (gprobs - dot) * c
    gqh = np.matmul(gs, np.swapaxes(kt, -1, -2))
    gkt = np.matmul(np.swapaxes(qh, -1, -2), gs)
    return out, (merge(gqh), merge(np.transpose(gkt, (0, 1, 3, 2))), merge(gvh))


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
    q, k, v = (p(rng.normal(size=(2, 5, 6))) for _ in range(3))
    bias = _padded_bias()
    out = T.attention(q, k, v, bias, 2, p=rate, rng=np.random.default_rng(8))
    data, grads, g = _node_and_grads(out, rng)
    ref = reference_attention(q.data, k.data, v.data, bias, 2, g, p=rate, rng=np.random.default_rng(8))
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


def test_span_sum_equals_embedding_mul_sum_chain_bit_for_bit():
    rng = np.random.default_rng(26)
    table = p(rng.normal(size=(6, 4)))
    # repeated ids within and across spans, and zero weights on padded slots
    ids = np.array([[[2, 2, 0], [5, 1, 2]], [[3, 0, 0], [1, 4, 1]]])
    weights = np.array([[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [[1.0, 0.0, 0.0], [0.5, 0.0, 2.0]]])
    g = rng.normal(size=(2, 2, 4))
    fused = T.span_sum(table, ids, weights)
    chain = _span_chain(table, ids, weights)
    np.testing.assert_array_equal(fused.data, chain.data)
    T.backward(T.reduce_sum(T.mul(fused, T.constant(g))))
    fused_grad, table.grad = table.grad, None
    T.backward(T.reduce_sum(T.mul(chain, T.constant(g))))
    np.testing.assert_array_equal(fused_grad, table.grad)
    assert fused._op == "span_sum" and fused._parents == (table,)


def test_span_sum_rejects_bad_input():
    table = p(np.ones((4, 3)))
    with pytest.raises(ShapeError):
        T.span_sum(table, np.array([[0, 1]]), np.ones((1, 3)))
    with pytest.raises(ShapeError):
        T.span_sum(table, np.array([[0, 4]]), np.ones((1, 2)))
    with pytest.raises(ShapeError):
        T.span_sum(table, np.array(1), np.array(1.0))  # no axis to sum over


# ---------------------------------------------------------------------------
# no-grad calls: attention's score workspace, gelu and layer_norm in place


@pytest.fixture
def empty_workspace(monkeypatch):
    monkeypatch.setattr(T, "_attention_workspace", np.empty(0))


def _attention_inputs(rng, B, S, H=6):
    mask = np.ones((B, S))
    mask[-1, S // 2:] = 0.0
    bias = np.where(mask[:, None, None, :] > 0, 0.0, -1e30)
    return [p(rng.normal(size=(B, S, H))) for _ in range(3)] + [bias]


def test_recording_attention_leaves_the_workspace_untouched(empty_workspace):
    rng = np.random.default_rng(30)
    with T.no_grad():
        T.attention(*_attention_inputs(rng, 2, 4), 2)
    workspace = T._attention_workspace
    before = workspace.copy()
    for B, S in ((2, 4), (3, 9)):  # one shape that fits the workspace, one larger
        out = T.attention(*_attention_inputs(rng, B, S), 2)
        assert out._backward is not None
        assert not np.shares_memory(out.data, workspace)
    assert T._attention_workspace is workspace
    np.testing.assert_array_equal(workspace, before)


@pytest.mark.parametrize("rate", [0.0, 0.25])
def test_no_grad_attention_outputs_are_independent(empty_workspace, rate):
    rng = np.random.default_rng(31)
    with T.no_grad():
        first = T.attention(*_attention_inputs(rng, 2, 5), 2, p=rate, rng=np.random.default_rng(1))
        kept = first.data.copy()
        second = T.attention(*_attention_inputs(rng, 2, 5), 2, p=rate, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(first.data, kept)
    assert not np.array_equal(first.data, second.data)
    for out in (first, second):
        assert not np.shares_memory(out.data, T._attention_workspace)


def test_no_grad_attention_equals_recording_across_shapes(empty_workspace):
    rng = np.random.default_rng(32)
    calls = [_attention_inputs(rng, B, S) for B, S in ((2, 4), (3, 9), (2, 3))]  # small, large, small
    want = [T.attention(*inputs, 2).data for inputs in calls]
    with T.no_grad():
        got = [T.attention(*inputs, 2).data for inputs in calls]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert T._attention_workspace.size == 3 * 2 * 9 * 9  # the largest score size seen


def test_no_grad_attention_above_the_cap_allocates_its_own_scores(empty_workspace):
    rng = np.random.default_rng(33)
    with T.no_grad():
        T.attention(*_attention_inputs(rng, 2, 4), 2)
    workspace = T._attention_workspace
    # one head over S keys: S * S scores, just above the cap
    S = math.isqrt(T.ATTENTION_WORKSPACE_CAP) + 1
    inputs = _attention_inputs(rng, 1, S, H=2)
    want = T.attention(*inputs, 1).data
    with T.no_grad():
        got = T.attention(*inputs, 1).data
    np.testing.assert_array_equal(got, want)
    assert T._attention_workspace is workspace and workspace.size == 2 * 2 * 4 * 4
    assert T.ATTENTION_WORKSPACE_CAP * workspace.itemsize <= 8 << 20


@pytest.mark.parametrize("shape", [(), (3, 4, 5)])
def test_no_grad_gelu_and_layer_norm_equal_recording_and_leave_inputs_alone(shape):
    rng = np.random.default_rng(34)
    x = p(rng.normal(size=shape) * 3.0 + 1.0)
    gain, bias = p(rng.normal(size=shape[-1:])), p(rng.normal(size=shape[-1:]))
    before = x.data.copy()
    recorded = [T.gelu(x).data] + ([T.layer_norm(x, gain, bias).data] if shape else [])
    with T.no_grad():
        outs = [T.gelu(x).data] + ([T.layer_norm(x, gain, bias).data] if shape else [])
    for got, want in zip(outs, recorded):
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, x.data)
    np.testing.assert_array_equal(x.data, before)


# ---------------------------------------------------------------------------
# kernels never write into their inputs


def _op_cases(rng):
    """(name, build(inputs) -> node, input Tensors, raw arrays the op reads)."""
    def t(*shape):
        return p(rng.normal(size=shape))

    ids = np.array([[0, 2, 2], [3, 1, 0]])
    weights = np.array([[1.0, 1.0, 0.0], [1.0, 0.5, 1.0]])
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
        ("attention", lambda q, k, v: T.attention(q, k, v, bias, 2, p=0.2, rng=np.random.default_rng(1)),
         [t(2, 4, 6), t(2, 4, 6), t(2, 4, 6)], [bias]),
        ("embedding", lambda a: T.embedding(a, ids), [t(4, 3)], [ids]),
        ("span_sum", lambda a: T.span_sum(a, ids, weights), [t(4, 3)], [ids, weights]),
        ("layer_norm", T.layer_norm, [t(3, 4), t(4), t(4)], []),
        ("gelu", T.gelu, [t(3, 4)], []),
        ("softmax", T.softmax, [t(3, 4)], []),
        ("dropout", lambda a: T.dropout(a, 0.3, np.random.default_rng(2)), [t(3, 4)], []),
        ("concat", lambda a, b: T.concat([a, b], axis=1), [t(3, 4), t(3, 2)], []),
        ("reduce_sum", lambda a: T.reduce_sum(a, axis=0), [t(3, 4)], []),
        ("reshape", lambda a: T.reshape(a, (4, 3)), [t(3, 4)], []),
        ("transpose", lambda a: T.transpose(a, (1, 0)), [t(3, 4)], []),
        ("getitem", lambda a: T.getitem(a, rows), [t(3, 4)], [rows]),
        ("cross_entropy_logits", lambda a: T.cross_entropy_logits(a, labels), [t(3, 5)], [labels]),
    ]


@pytest.mark.parametrize("case", range(19))
def test_kernel_never_writes_into_its_inputs(case):
    rng = np.random.default_rng(27)
    name, build, inputs, raw = _op_cases(rng)[case]
    before = [a.data.copy() for a in inputs] + [r.copy() for r in raw]
    out = build(*inputs)
    T.backward(out if out.ndim == 0 else T.reduce_sum(T.mul(out, T.constant(rng.normal(size=out.shape)))))
    after = [a.data for a in inputs] + raw
    for i, (b, a) in enumerate(zip(before, after)):
        np.testing.assert_array_equal(a, b, err_msg=f"{name} wrote into input {i}")
    assert all(a.grad is not None for a in inputs), name


def test_every_kernel_is_covered_by_the_no_write_test():
    names = {name for name, *_ in _op_cases(np.random.default_rng(0))}
    kernels = {n for n, f in vars(T).items() if callable(f) and getattr(f, "__module__", None) == T.__name__
               and not n.startswith("_") and not isinstance(f, type)}
    kernels -= {"parameter", "constant", "backward", "zero_grads", "grad_check", "log_softmax_np"}
    assert kernels == names


def test_log_softmax_np_never_writes_into_its_input():
    x = np.random.default_rng(28).normal(size=(3, 5))
    before = x.copy()
    T.log_softmax_np(x)
    np.testing.assert_array_equal(x, before)
