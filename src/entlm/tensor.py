"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Plain row-major numpy kernels, float64 by default.  A Tensor records the op
that produced it and closures that push gradients to its parents; backward()
walks the implicit graph once in reverse topological order.  Six fused ops
cut the encoder's node count: `linear` (x @ w + b), `input_embedding` (the
encoder's whole input layer: word, position and type lookups, then entity
lookups with their projection, type row and mention-position sums, joined
along the sequence axis), `attention_block` (an attention sublayer: the q,
k and v projections, the scaled, masked softmax attention core over all
heads with its dropout, the output projection and its dropout),
`ffn_block` (linear, GELU, linear, dropout), `residual_layer_norm`
(layer_norm(x + a)) and `gathered_cross_entropy` (a pretraining head: the
labelled rows gathered, projected onto the decoder and scored by
cross-entropy).  Each does the same numpy arithmetic, in the same order,
draws its dropout masks in the same order, and adds a parent's gradient
parts in the same order as the chain of single ops it replaces, so results
are bit-identical to that chain; the arithmetic it shares with a single op
(`linear`'s, `gelu`'s, `cross_entropy_logits`') is written once, in private
helpers.  A fused backward checks each gradient it computes for an inner
step, as backward() checks the gradient into every node of a chain, and
names the fused node when one is not finite.
Kernels compute their intermediates in place in buffers they allocated
themselves.  Each encoder sublayer's forward arithmetic is written once,
as an unchecked function on plain arrays: `_attention`, `_ffn` and
`_layer_norm` (with or without a residual).  `attention_block`, `ffn_block`,
`layer_norm` and `residual_layer_norm` check their inputs, call it with
`keep=True`, and add the node and its backward closure; a forward-only
pass (`encoder.encode_batch` under `no_grad()` without dropout) calls it
directly, with no node and no per-op check.  Only such a call, with `keep`
false, reuses buffers, since no backward closure will read them: the scores
go into a workspace of the calling thread's own, grown to the largest score
size seen but never past ATTENTION_WORKSPACE_CAP elements, and GELU and
LayerNorm write their output over their own intermediates.  So an eval
forward pass does not fault in a fresh score buffer per call, and two
threads running it at once (`encoder.encode_batch`'s two halves) never
share one.  The ops, recording or inside `no_grad()`, allocate every
buffer and never touch the workspace.

The module also owns the process's one worker thread (`_worker`), which
`pretrain.AdamW` and `encoder.encode_batch` share, and `_usable_cpus`,
which both read before handing it work.  Either caller waits for what it
handed off before it returns.

At toy sizes a train step's time goes mostly to per-node bookkeeping, so it
is kept lean: `_make` fills a node's slots directly instead of going through
`Tensor.__init__`, and backward() keys its visited set and gradient map by
the nodes themselves (they hash by identity).  Every gradient backward
keeps, a requires-grad leaf's summed gradient included, is checked for
finiteness by `_finite`: one `np.vdot(g, g)`, with the elementwise
`np.isfinite` only when that sum of squares is not finite.  A lookup
table's gradient (`embedding`, `input_embedding`) is one `np.bincount`
over flat element indices, bit-identical to `np.add.at` into zeros.
Backward closures reduce with `np.add.reduce`, not `ndarray.sum`'s
wrapper.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent import futures

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float64
LAYER_NORM_EPS = 1e-5


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    Treat instances as immutable after construction.  A kernel never writes
    into its inputs; it may overwrite only arrays it allocated itself that no
    backward closure reads afterwards, so a forward pass builds no throwaway
    full-size temporaries.  No op writes the attention workspace, and no
    output ever aliases it.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None
        self._op = ""

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return _describe(self.data.shape, self._op, self.name)

    # operator sugar; all arithmetic routes through the module-level kernels
    def __add__(self, other):
        return add(self, _wrap(other))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _describe(shape, op, name=None):
    """A tensor's repr from its parts, so a backward closure can name its own
    node without holding it (a node that its closure holds is a reference
    cycle: its graph would outlive the step until the cyclic collector runs)."""
    tag = f" name={name}" if name else ""
    return f"Tensor(shape={shape}, op={op!r}{tag})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name=None):
    return Tensor(np.array(data, dtype=DEFAULT_DTYPE), requires_grad=True, name=name)


def constant(data):
    return Tensor(data)


_pool = None  # the process's one worker thread; made on first use


def _worker():
    """The one-thread executor `pretrain.AdamW` and `encoder.encode_batch`
    share.  Each submits only when `_usable_cpus()` is at least 2, and waits
    for what it submitted before it returns."""
    global _pool
    if _pool is None:
        _pool = futures.ThreadPoolExecutor(1, thread_name_prefix="entlm-worker")
    return _pool


def _forget_worker():
    # a forked child inherits the pool but not its thread, so work handed to
    # it would never run; the child makes its own worker on first use
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_grad_enabled = True


class no_grad:
    """Context manager, or decorator as `@no_grad()`: ops inside record no
    parents and no backward closure.  Restores the previous state on exit.
    The state is shared by every thread: the worker's half of a split
    `encoder.encode_batch` runs under its caller's `no_grad`."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


_grad_ready_hook = None


class on_grad_ready:
    """Context manager: inside it, `backward` calls `hook(leaf)` once per
    requires-grad leaf, as soon as that leaf's gradient is final and stored
    in `leaf.grad`.  Restores the previous hook on exit, also when backward
    raises.  Like `no_grad` it is module state shared by the whole process,
    so only one thread may run backward while a hook is installed."""

    def __init__(self, hook):
        self.hook = hook

    def __enter__(self):
        global _grad_ready_hook
        self._prev = _grad_ready_hook
        _grad_ready_hook = self.hook
        return self

    def __exit__(self, *exc):
        global _grad_ready_hook
        _grad_ready_hook = self._prev


_F64 = np.dtype(DEFAULT_DTYPE)


def _make(data, parents, backward, op):
    """A kernel's output node, built without `Tensor.__init__`: a float64
    ndarray is taken as is, anything else (a numpy scalar) is converted.
    It records parents and closure only when some parent needs a gradient."""
    t = object.__new__(Tensor)
    t.data = data if type(data) is np.ndarray and data.dtype is _F64 else np.asarray(data, dtype=DEFAULT_DTYPE)
    t.grad = None
    t.requires_grad = False
    t.name = None
    t._op = op
    if _grad_enabled:
        for p in parents:
            if p.requires_grad or p._parents:
                t._parents = parents
                t._backward = backward
                return t
    t._parents = ()
    t._backward = None
    return t


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad


def _check_broadcast(a, b, kernel):
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{kernel}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b):
    _check_broadcast(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out_data, (a, b), backward, "add")


def sub(a, b):
    _check_broadcast(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return _make(out_data, (a, b), backward, "sub")


def mul(a, b):
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out_data, (a, b), backward, "mul")


def scale(a, c):
    c = float(c)

    def backward(g):
        return (g * c,)

    return _make(a.data * c, (a,), backward, "scale")


def matmul(a, b):
    if a.ndim < 1 or b.ndim < 2:
        raise ShapeError(f"matmul: ranks {a.ndim} and {b.ndim} unsupported")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul: inner axes disagree, lhs axis -1 has {a.shape[-1]}, rhs axis -2 has {b.shape[-2]}"
        )
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.ndim == 2:
            # a shared weight: fold every leading axis of a into one 2-D GEMM
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, b.shape[-1])
        else:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(out_data, (a, b), backward, "matmul")


def _affine(x, w, b):
    """x @ w + b on arrays: `linear`'s forward arithmetic, shared by the fused blocks."""
    out = np.matmul(x, w)
    out += b
    return out


def _affine_grads(x, w, g):
    """`linear`'s backward on arrays: the gradients of x @ w + b for g."""
    gx = np.matmul(g, w.T)
    # a shared weight: fold every leading axis of x into one 2-D GEMM
    gw = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[-1])
    # the bias sums g over every leading axis: `_unbroadcast`'s g.sum without its wrappers
    gb = np.add.reduce(g, axis=tuple(range(g.ndim - 1))) if g.ndim > 1 else g
    return gx, gw, gb


def _finite(g):
    """True when every element of the gradient g is finite.  One dot decides
    most calls: a NaN or an infinity makes the sum of squares non-finite, so
    a finite sum proves g finite.  A sum that is not finite (a NaN, an
    infinity, or finite elements whose squares pass 1.8e308, |g| > ~1e154)
    leaves the verdict to the exact elementwise test."""
    return math.isfinite(np.vdot(g, g)) or bool(np.isfinite(g).all())


def _check_inner(g, shape, op, step):
    """g, the gradient a fused node (an `op` output shaped `shape`) computed
    for one of its inner steps; raise ContractError naming the node and the
    step unless it is finite, as backward() checks the gradient into every
    node of a chain."""
    if not _finite(g):
        raise ContractError(f"backward: non-finite gradient at node {_describe(shape, op)}, into its {step}")
    return g


def _dropout_mask(shape, p, rng):
    """An inverted-dropout mask: 0 with probability p, else 1 / (1 - p)."""
    return (rng.random(shape) >= p) / (1.0 - p)


def _check_rate(p, rng, op):
    if not 0.0 <= p < 1.0:
        raise ContractError(f"{op}: dropout rate {p} outside [0, 1)")
    if p > 0.0 and rng is None:
        raise ContractError(f"{op}: dropout needs an rng")


def linear(x, w, b):
    """x @ w + b as one node; w is (in, out) and b is (out,)."""
    if x.ndim < 1 or w.ndim != 2 or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: input {x.shape}, weight {w.shape} and bias {b.shape} do not fit")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input axis -1 has {x.shape[-1]}, weight axis 0 has {w.shape[0]}")

    def backward(g):
        gx, gw, gb = _affine_grads(x.data, w.data, g)
        return _unbroadcast(gx, x.shape), gw, gb

    return _make(_affine(x.data, w.data, b.data), (x, w, b), backward, "linear")


# A forward-only `_attention` writes its (B, heads, S, S) scores into a flat
# float64 workspace that grows to the largest such size seen, up to this many
# elements (8 MiB); a larger call allocates its own buffer, as a recording
# call always does.  A fresh score buffer of a QA item's size (0.5-0.74 MB)
# goes back to the system when freed, so each call faults its pages in
# again; the workspace is faulted in once.  Each thread has its own
# (`scores`, an attribute of a thread-local object), so the two halves of a
# split `encoder.encode_batch` never write one buffer; a thread that has
# run no forward pass holds none.
ATTENTION_WORKSPACE_CAP = 1 << 20


class _Workspace(threading.local):
    scores = np.empty(0, dtype=DEFAULT_DTYPE)  # every thread's starting value; grown per thread


_attention_workspace = _Workspace()


def _score_buffer(shape):
    """A view of the calling thread's workspace shaped `shape`, grown to fit;
    None above the cap."""
    n = shape[0] * shape[1] * shape[2] * shape[3]
    if n > ATTENTION_WORKSPACE_CAP:
        return None
    ws = _attention_workspace
    scores = ws.scores
    if scores.size < n:
        scores = ws.scores = np.empty(n, dtype=DEFAULT_DTYPE)
    return scores[:n].reshape(shape)


def _attention(x, weights, bias, heads, p=0.0, rng=None, keep=False):
    """An attention sublayer's forward arithmetic on arrays, unchecked (see
    `attention_block`): x is (B, S, H) and `weights` the eight weight arrays.
    Returns the (B, S, H) output and what the backward reads: (qh, kt, vh,
    probs, mask, dropped, ctx, out_mask).  Unless `keep`, the scores and
    probabilities go into the calling thread's workspace (`_score_buffer`),
    which the next forward-only call overwrites."""
    wq, qb, wk, kb, wv, vb, wo, ob = weights
    B, S, H = x.shape
    dh = H // heads
    heads_shape = (B, S, heads, dh)
    # ndarray methods, not numpy's Python-level wrappers: the same views and
    # reductions (max and sum are maximum.reduce and add.reduce) for less dispatch
    qh = _affine(x, wq, qb).reshape(heads_shape).transpose(0, 2, 1, 3)
    kh = _affine(x, wk, kb).reshape(heads_shape).transpose(0, 2, 1, 3)
    vh = _affine(x, wv, vb).reshape(heads_shape).transpose(0, 2, 1, 3)
    kt = kh.transpose(0, 1, 3, 2)
    # scores, their shifted exponentials and the probabilities share one buffer
    probs = np.matmul(qh, kt, out=None if keep else _score_buffer((B, heads, S, S)))
    probs *= 1.0 / math.sqrt(dh)  # the correctly rounded double np.sqrt gives too
    probs += bias
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    mask = None
    dropped = probs
    if p > 0.0:
        mask = _dropout_mask(probs.shape, p, rng)
        dropped = probs * mask
    ctx = np.matmul(dropped, vh).transpose(0, 2, 1, 3).reshape((B, S, H))
    out = _affine(ctx, wo, ob)
    out_mask = None
    if p > 0.0:
        out_mask = _dropout_mask(out.shape, p, rng)
        out *= out_mask
    return out, (qh, kt, vh, probs, mask, dropped, ctx, out_mask)


def attention_block(x, weights, bias, heads, p=0.0, rng=None):
    """An encoder layer's attention sublayer as one node.

    x is (B, S, H); `weights` is (wq, qb, wk, kb, wv, vb, wo, ob), each
    w (H, H) and each b (H,); `bias` is an additive score mask broadcastable
    to (B, heads, S, S).  Projects q, k and v with `linear`'s arithmetic,
    splits the heads, applies softmax(q k^T / sqrt(dh) + bias), inverted
    dropout at rate p on the probabilities, multiplies by v, merges the
    heads, projects the result through wo and ob and applies dropout at rate
    p again; both masks are drawn from `rng`, in that order.  The numpy
    calls (`_attention`'s) are those of the `linear`, attention-core and
    `dropout` chain this node replaces, in order, so results are
    bit-identical to it.  x is a parent three times, once per projection:
    `backward` adds the q, then the k, then the v part into what x has
    collected, as the chain did.

    Checked here, each by ShapeError: eight weights, x of rank 3, the
    weights' shapes, heads >= 1 and dividing H, and a bias that numpy
    broadcasts to exactly (B, heads, S, S); then ContractError for a
    dropout rate outside [0, 1) or a positive rate without an rng.
    """
    if len(weights) != 8:
        raise ShapeError(f"attention_block: expected 8 weights (wq, qb, wk, kb, wv, vb, wo, ob), got {len(weights)}")
    wq, qb, wk, kb, wv, vb, wo, ob = weights
    if x.ndim != 3:
        raise ShapeError(f"attention_block: input must be (B, S, H), got {x.shape}")
    B, S, H = x.shape
    if [t.shape for t in weights] != [(H, H), (H,)] * 4:
        raise ShapeError(f"attention_block: weights {[w.shape for w in weights]} do not fit width {H}")
    if heads < 1:
        raise ShapeError(f"attention_block: heads must be >= 1, got {heads}")
    if H % heads:
        raise ShapeError(f"attention_block: hidden size {H} not divisible by {heads} heads")
    score_shape = (B, heads, S, S)
    # numpy broadcasts the bias to exactly score_shape when it has at most
    # four axes and each, aligned from the right, is 1 or the score's own
    bias_shape = np.shape(bias)
    k = len(bias_shape)
    if k > 4 or any(d != 1 and d != n for d, n in zip(bias_shape, score_shape[4 - k:])):
        raise ShapeError(f"attention_block: bias shape {bias_shape} does not broadcast to scores {score_shape}")
    _check_rate(p, rng, "attention_block")
    out_data, (qh, kt, vh, probs, mask, dropped, ctx, out_mask) = _attention(
        x.data, [t.data for t in weights], bias, heads, p, rng, keep=True)
    out_shape = out_data.shape
    dh = H // heads
    c = 1.0 / math.sqrt(dh)

    def split(t):
        return t.reshape((B, S, heads, dh)).transpose(0, 2, 1, 3)

    def merge(th):
        return th.transpose(0, 2, 1, 3).reshape((B, S, H))

    def backward(g):
        if out_mask is not None:
            g = _check_inner(g * out_mask, out_shape, "attention_block", "output projection")
        gctx, gwo, gob = _affine_grads(ctx, wo.data, g)
        gctx = split(_check_inner(gctx, out_shape, "attention_block", "attention core"))
        gprobs = np.matmul(gctx, vh.swapaxes(-1, -2))
        gvh = np.matmul(dropped.swapaxes(-1, -2), gctx)
        if mask is not None:
            gprobs = gprobs * mask
        dot = np.add.reduce(gprobs * probs, axis=-1, keepdims=True)
        gs = probs * (gprobs - dot) * c
        gqh = np.matmul(gs, kt.swapaxes(-1, -2))
        gkt = np.matmul(qh.swapaxes(-1, -2), gs)
        grads = []
        for name, gh, w, b in (("q", gqh, wq, qb), ("k", gkt.transpose(0, 1, 3, 2), wk, kb),
                               ("v", gvh, wv, vb)):
            gh = _check_inner(merge(gh), out_shape, "attention_block", name + " projection")
            grads += _affine_grads(x.data, w.data, gh)
        return (*grads, gwo, gob)

    return _make(out_data, (x, wq, qb, x, wk, kb, x, wv, vb, wo, ob), backward, "attention_block")


def _scatter_rows(table, ids, g):
    """A row gather's table gradient: g's rows added, in order, at `ids` into
    zeros.  One `np.bincount` over the flat element indices id * H + column,
    weighted by g: bincount starts every element at 0.0 and adds its weights
    in input order, as `np.add.at` into zeros adds the rows, so each element
    sees the same additions and the sums are bit-identical to it."""
    V, H = table.shape
    if not ids.size:
        return np.zeros_like(table.data)  # bincount of no weights gives integer zeros
    flat = np.multiply(ids.reshape(-1, 1), H, dtype=np.intp) + np.arange(H)
    return np.bincount(flat.reshape(-1), weights=g.reshape(-1), minlength=V * H).reshape(V, H)


def _id_range(ids):
    """(min, max) of the integer array ids, or None when it is empty: the
    two reductions every range check of ids reads."""
    return (np.minimum.reduce(ids, axis=None), np.maximum.reduce(ids, axis=None)) if ids.size else None


def _check_range(id_range, table, what):
    """ShapeError unless every id in `id_range` (see `_id_range`) is a row of table."""
    if id_range is not None and (id_range[0] < 0 or id_range[1] >= table.shape[0]):
        raise ShapeError(f"{what} id out of range for table with {table.shape[0]} rows")


def _check_ids(ids, table, what):
    _check_range(_id_range(ids), table, what)


def embedding(table, ids):
    """Row gather: table is (V, H), ids any integer shape; output ids.shape + (H,)."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be rank 2, got shape {table.shape}")
    _check_ids(ids, table, "embedding:")
    out_data = table.data[ids]

    def backward(g):
        return (_scatter_rows(table, ids, g),)

    return _make(out_data, (table,), backward, "embedding")


def input_embedding(tables, word_ids, word_range, types, entity_ids=None, entity_range=None, positions=None,
                    weights=None, mean=False):
    """The encoder's input layer as one node.

    `tables` is (word_emb, pos_emb, type_emb), followed by (entity_emb,
    proj_w, proj_b, entity_type_emb) when `entity_ids` is given; `types` is
    the (word, entity) row of the two type tables.  Word j of the (B, M)
    `word_ids` embeds as word_emb[id] + pos_emb[j] + type_emb[types[0]].
    The (B, N) entity tokens follow along axis 1, each as entity_emb[id] @
    proj_w + proj_b + entity_type_emb[types[1]] + its position term: the sum
    over p of weights[..., p] * pos_emb[positions[..., p]], times one over
    the weight sum when `mean`; positions and weights are (B, N, P).  The
    output is (B, M + N, H).  Forward and backward repeat the numpy calls
    of the `embedding`, `add`, `linear`, `mul` and `concat` chain this node
    replaces, in order, so results are bit-identical to it.  With entities,
    pos_emb is a parent twice, last for its mention-position part: so
    `backward` adds the word part and then that part into what pos_emb has
    collected from other nodes, as it added the chain's two lookups.

    word_ids and entity_ids are ndarrays whose `_id_range` the caller has
    read: word_range and entity_range (`encoder.embed_input` reads them for
    its own VocabError checks, so no id array is reduced twice).  Every
    check raises ShapeError, in this order: word ids not rank 2 or the
    first three tables not rank 2 of one width; a word id, a position (M >
    pos_emb rows) or a type row out of its table's range; entity tables
    without entity ids or the reverse; entity inputs whose shapes do not
    fit; an entity id, a mention position or a type row out of its table's
    range.
    """
    word_emb, pos_emb, type_emb = tables[:3]
    H = word_emb.shape[-1]
    if word_ids.ndim != 2 or any(t.ndim != 2 or t.shape[1] != H for t in tables[:3]):
        raise ShapeError(f"input_embedding: word ids {word_ids.shape} need rank 2 and the word, position "
                         f"and type tables {[t.shape for t in tables[:3]]} rank 2 with one width")
    B, M = word_ids.shape
    _check_range(word_range, word_emb, "input_embedding: word")
    if M > pos_emb.shape[0]:  # positions 0..M-1
        raise ShapeError(f"input_embedding: position id out of range for table with {pos_emb.shape[0]} rows")
    type_range = (min(types), max(types)) if len(types) else None
    _check_range(type_range, type_emb, "input_embedding: type")
    words = word_emb.data[word_ids]
    words += pos_emb.data[:M]
    words += type_emb.data[types[0]]
    parents = tuple(tables)
    if entity_ids is None:
        if len(tables) != 3:
            raise ShapeError("input_embedding: entity tables given without entity ids")
        out_data = words
    else:
        positions = np.asarray(positions)
        weights = np.asarray(weights, dtype=DEFAULT_DTYPE)
        if len(tables) != 7:
            raise ShapeError("input_embedding: entity ids need the four entity tables")
        entity_emb, proj_w, proj_b, entity_type_emb = tables[3:]
        E = entity_emb.shape[-1]
        if (entity_ids.ndim != 2 or entity_ids.shape[0] != B or positions.ndim != 3
                or positions.shape[:2] != entity_ids.shape or weights.shape != positions.shape
                or entity_emb.ndim != 2 or proj_w.shape != (E, H) or proj_b.shape != (H,)
                or entity_type_emb.ndim != 2 or entity_type_emb.shape[1] != H):
            raise ShapeError(f"input_embedding: entity ids {entity_ids.shape}, positions {positions.shape}, "
                             f"weights {weights.shape} and entity tables {[t.shape for t in tables[3:]]} "
                             f"do not fit {B} sequences of width {H}")
        _check_range(entity_range, entity_emb, "input_embedding: entity")
        _check_ids(positions, pos_emb, "input_embedding: mention position")
        _check_range(type_range, entity_type_emb, "input_embedding: type")
        tok = entity_emb.data[entity_ids]
        ents = np.matmul(tok, proj_w.data)
        ents += proj_b.data
        ents += entity_type_emb.data[types[1]]
        rows = pos_emb.data[positions]  # an integer array index copies
        rows *= weights[..., None]
        span = rows.sum(axis=-2)
        if mean:
            inv_counts = 1.0 / weights.sum(axis=-1, keepdims=True)
            span *= inv_counts
        ents += span
        out_data = np.concatenate([words, ents], axis=1)
        parents += (pos_emb,)

    def backward(g):
        gw = g
        if entity_ids is not None:
            gw, ge = (np.ascontiguousarray(part) for part in np.split(g, [M], axis=1))
        grads = [_scatter_rows(word_emb, word_ids, gw),
                 _scatter_rows(pos_emb, np.broadcast_to(np.arange(M), word_ids.shape), gw),
                 _scatter_rows(type_emb, np.full(word_ids.shape, types[0]), gw)]
        if entity_ids is None:
            return tuple(grads)
        gx = np.matmul(ge, proj_w.data.T)
        gproj_w = tok.reshape(-1, E).T @ ge.reshape(-1, H)
        gspan = ge * inv_counts if mean else ge
        grows = np.expand_dims(gspan, -2) * weights[..., None]
        return (*grads, _scatter_rows(entity_emb, entity_ids, gx), gproj_w, _unbroadcast(ge, proj_b.shape),
                _scatter_rows(entity_type_emb, np.full(entity_ids.shape, types[1]), ge),
                _scatter_rows(pos_emb, positions, grows))

    return _make(out_data, parents, backward, "input_embedding")


def layer_norm(x, gain, bias, eps=LAYER_NORM_EPS):
    """Normalize over the last axis, then scale and shift."""
    return _layer_norm_node(x, None, gain, bias, eps, "layer_norm")


def residual_layer_norm(x, a, gain, bias, eps=LAYER_NORM_EPS):
    """layer_norm(add(x, a)) as one node, for a residual branch `a` shaped like x."""
    if a.shape != x.shape:
        raise ShapeError(f"residual_layer_norm: residual {a.shape} does not match input {x.shape}")
    return _layer_norm_node(x, a, gain, bias, eps, "residual_layer_norm")


def _layer_norm(x, a, gain, bias, eps=LAYER_NORM_EPS, keep=False):
    """layer_norm of the array x, or of x + a when a residual `a` is given,
    on arrays, unchecked.  Returns the output and what the backward reads,
    xhat and inv; x and a are never written.  The means are np.mean's own
    arithmetic (an add-reduce, divided in place by the width) without its
    Python wrapper.  Unless `keep`, the output overwrites xhat."""
    n = x.shape[-1]
    s = x if a is None else x + a
    mu = np.add.reduce(s, axis=-1, keepdims=True)
    mu /= n
    # scaled in place below, once the variance is read; a residual sum is this call's own
    xhat = np.subtract(s, mu, out=None if a is None else s)
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = np.multiply(xhat, gain, out=None if keep else xhat)
    out += bias
    return out, xhat, inv


def _layer_norm_node(x, a, gain, bias, eps, op):
    """The node of `_layer_norm` of x, or of x + a when a residual `a` is given."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"{op}: gain/bias must match last axis {n}, got {gain.shape} and {bias.shape}")
    out_data, xhat, inv = _layer_norm(x.data, None if a is None else a.data, gain.data, bias.data, eps, keep=True)

    def backward(g):
        gy = g * gain.data
        gxhat_sum = np.add.reduce(gy, axis=-1, keepdims=True)
        gxhat_dot = np.add.reduce(gy * xhat, axis=-1, keepdims=True)
        gx = inv * (gy - gxhat_sum / n - xhat * gxhat_dot / n)
        ggain = np.add.reduce((g * xhat).reshape(-1, n), axis=0)
        gbias = np.add.reduce(g.reshape(-1, n), axis=0)
        return (gx, ggain, gbias) if a is None else (gx, gx, ggain, gbias)

    return _make(out_data, (x, gain, bias) if a is None else (x, a, gain, bias), backward, op)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu(x, keep=False):
    """GELU of the array x, x * Phi(x), and the cdf Phi(x) its gradient reads.
    Unless `keep`, the output overwrites the cdf."""
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))  # an array even for rank 0
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, out=None if keep else cdf), cdf


def _gelu_grad(x, cdf, g):
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


def gelu(x):
    """GELU as one node.  The encoder computes GELU inside `ffn_block`; this
    op stays public for tests and for perfbench's patcher, which wraps it by
    name."""
    out_data, cdf = _gelu(x.data, keep=True)

    def backward(g):
        return (_gelu_grad(x.data, cdf, g),)

    return _make(out_data, (x,), backward, "gelu")


def _ffn(x, w1, b1, w2, b2, p=0.0, rng=None, keep=False):
    """A feed-forward sublayer's forward arithmetic on arrays, unchecked (see
    `ffn_block`).  Returns the output and what the backward reads: (pre, h,
    cdf, mask).  Unless `keep`, GELU's output overwrites its cdf."""
    pre = _affine(x, w1, b1)
    h, cdf = _gelu(pre, keep)
    out = _affine(h, w2, b2)
    mask = None
    if p > 0.0:
        mask = _dropout_mask(out.shape, p, rng)
        out *= mask
    return out, (pre, h, cdf, mask)


def ffn_block(x, w1, b1, w2, b2, p=0.0, rng=None):
    """An encoder layer's feed-forward sublayer, dropout(linear(gelu(linear(x,
    w1, b1)), w2, b2), p), as one node; w1 is (H, F) and w2 (F, H2).  The
    numpy calls (`_ffn`'s) are those of the `linear`, `gelu`, `linear`,
    `dropout` chain it replaces, in order, so results are bit-identical to
    it."""
    if x.ndim < 1 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0] \
            or b1.shape != (w1.shape[1],) or w2.shape[0] != w1.shape[1] or b2.shape != (w2.shape[1],):
        raise ShapeError(f"ffn_block: input {x.shape} and weights {w1.shape}, {b1.shape}, {w2.shape}, "
                         f"{b2.shape} do not fit")
    _check_rate(p, rng, "ffn_block")
    out_data, (pre, h, cdf, mask) = _ffn(x.data, w1.data, b1.data, w2.data, b2.data, p, rng, keep=True)

    def backward(g):
        if mask is not None:
            g = _check_inner(g * mask, g.shape, "ffn_block", "second linear")
        gh, gw2, gb2 = _affine_grads(h, w2.data, g)
        gh = _check_inner(gh, g.shape, "ffn_block", "gelu")
        gpre = _check_inner(_gelu_grad(pre, cdf, gh), g.shape, "ffn_block", "first linear")
        gx, gw1, gb1 = _affine_grads(x.data, w1.data, gpre)
        return gx, gw1, gb1, gw2, gb2

    return _make(out_data, (x, w1, b1, w2, b2), backward, "ffn_block")


def softmax(x, axis=-1):
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = np.add.reduce(g * p, axis=axis, keepdims=True)
        return (p * (g - dot),)

    return _make(p, (x,), backward, "softmax")


def dropout(x, p, rng):
    """Inverted dropout with an explicit RNG handle; p == 0 is the identity."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout: rate {p} outside [0, 1)")
    if p == 0.0:
        return x
    mask = _dropout_mask(x.shape, p, rng)
    out_data = x.data * mask

    def backward(g):
        return (g * mask,)

    return _make(out_data, (x,), backward, "dropout")


def concat(tensors, axis=0):
    if not tensors:
        raise ShapeError("concat: empty input list")
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        s = list(t.shape)
        s[axis] = base[axis]
        if s != base:
            raise ShapeError(f"concat: shape {t.shape} incompatible with {tensors[0].shape} on axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(out_data, tuple(tensors), backward, "concat")


def reduce_sum(x, axis=None):
    out_data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.full_like(x.data, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _make(out_data, (x,), backward, "sum")


def reshape(x, shape):
    out_data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(out_data, (x,), backward, "reshape")


def transpose(x, axes):
    inv = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inv),)

    return _make(np.transpose(x.data, axes), (x,), backward, "transpose")


def _index_is_unique(idx):
    """True when `x[idx]` cannot select one element twice.

    Integers, slices, Ellipsis, None and a boolean mask never repeat; an
    integer array is accepted when it is the only array in the index, 1-D,
    non-negative and strictly increasing (as `np.flatnonzero` returns).
    """
    parts = idx if isinstance(idx, tuple) else (idx,)
    arrays = [np.asarray(i) for i in parts
              if not (i is None or i is Ellipsis or isinstance(i, (slice, int, np.integer)))]
    if not arrays:
        return True
    if len(arrays) > 1:
        return False
    a = arrays[0]
    if a.dtype == bool:
        return True
    return (a.ndim == 1 and a.dtype.kind in "iu"
            and (a.size == 0 or (a[0] >= 0 and bool(np.all(a[1:] > a[:-1])))))


def getitem(x, idx):
    out_data = x.data[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        if _index_is_unique(idx):
            gx[idx] = g
        else:
            np.add.at(gx, idx, g)
        return (gx,)

    return _make(np.array(out_data, copy=True), (x,), backward, "getitem")


def _log_sum_exp(logits):
    """(N, 1) log-sum-exp of each row of the (N, V) array `logits`."""
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return np.log(np.exp(z).sum(axis=1, keepdims=True)) + m


def _mean_nll(logits, lse, rows, targets):
    """Mean negative log-likelihood of class targets[i] at row rows[i]."""
    nll = lse[rows, 0] - logits[rows, targets]
    return np.float64(nll.sum() / rows.size)


def _mean_nll_grad(logits, lse, rows, targets, g):
    """`_mean_nll`'s gradient with respect to logits, times g."""
    p = np.exp(logits - lse)
    gl = np.zeros_like(logits)
    gl[rows] = p[rows]
    gl[rows, targets] -= 1.0
    return gl * (g / rows.size)


def cross_entropy_logits(logits, labels, ignore_index=-100):
    """Mean cross-entropy over rows whose label != ignore_index.

    logits: (N, V); labels: (N,) integer.  Rows with the ignore label
    contribute nothing.  With zero live rows the loss is exactly 0 and the
    gradient is zero everywhere; callers that average across batches should
    count the live labels first.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} need rank 2 with labels shaped ({logits.shape[0]},), "
            f"got labels {labels.shape}"
        )
    live = labels != ignore_index
    n_live = int(live.sum())
    if n_live and (labels[live].min() < 0 or labels[live].max() >= logits.shape[1]):
        raise ShapeError(f"cross_entropy: label out of range for {logits.shape[1]} classes")

    lse = _log_sum_exp(logits.data)
    if n_live == 0:
        out_data = np.float64(0.0)

        def backward(g):
            return (np.zeros_like(logits.data),)

        return _make(out_data, (logits,), backward, "cross_entropy")

    rows = np.nonzero(live)[0]
    targets = labels[rows]

    def backward(g):
        return (_mean_nll_grad(logits.data, lse, rows, targets, g),)

    return _make(_mean_nll(logits.data, lse, rows, targets), (logits,), backward, "cross_entropy")


def gathered_cross_entropy(x, labels, w, b, ignore_index=-100):
    """A pretraining head's loss as one node: the mean cross-entropy of
    linear(row, w, b) over the rows of x, viewed as (-1, H), whose label
    != ignore_index; `labels` holds one label per row.

    Only the labelled rows are gathered and projected onto the (H, V)
    decoder, as BERT's `gather_indexes` does: ignored rows add nothing to
    the loss or its gradient, so their products are never formed.  With no
    labelled row the loss is exactly 0 and every gradient is zero.  The
    numpy calls are those of the `reshape`, `getitem`, `linear`,
    `cross_entropy_logits` chain it replaces, in order, so results are
    bit-identical to it.
    """
    labels = np.asarray(labels).reshape(-1)
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],) \
            or labels.size * x.shape[-1] != x.data.size:
        raise ShapeError(f"gathered_cross_entropy: input {x.shape}, labels {labels.shape}, weight {w.shape} "
                         f"and bias {b.shape} do not fit")
    flat = x.data.reshape((-1, x.shape[-1]))
    rows = np.flatnonzero(labels != ignore_index)
    n = rows.size
    if n == 0:
        def backward(g):
            return np.zeros_like(x.data), np.zeros_like(w.data), np.zeros_like(b.data)

        return _make(np.float64(0.0), (x, w, b), backward, "gathered_cross_entropy")
    targets = labels[rows]
    if targets.min() < 0 or targets.max() >= w.shape[1]:
        raise ShapeError(f"gathered_cross_entropy: label out of range for {w.shape[1]} classes")
    gathered = flat[rows]  # an integer array index copies
    logits = _affine(gathered, w.data, b.data)
    lse = _log_sum_exp(logits)
    live = np.arange(n)  # the rows of logits, every one labelled

    def backward(g):
        gl = _check_inner(_mean_nll_grad(logits, lse, live, targets, g), (), "gathered_cross_entropy", "decoder")
        grows, gw, gb = _affine_grads(gathered, w.data, gl)
        # the scattered copy holds grows' values and zeros, so checking grows covers it
        gflat = np.zeros_like(flat)
        gflat[rows] = _check_inner(grows, (), "gathered_cross_entropy", "row gather")
        return gflat.reshape(x.shape), gw, gb

    return _make(_mean_nll(logits, lse, live, targets), (x, w, b), backward, "gathered_cross_entropy")


def log_softmax_np(x, axis=-1):
    """Forward-only log-softmax on a plain array (used by scoring paths)."""
    x = np.asarray(x, dtype=DEFAULT_DTYPE)
    m = x.max(axis=axis, keepdims=True)
    z = x - m
    z -= np.log(np.exp(z).sum(axis=axis, keepdims=True))
    return z


def _finish_leaf(leaf, g, hook):
    """Store a leaf's final gradient `g` (None: it got none), added to any
    gradient it already holds, and call `hook`.  The sum is what is checked,
    so a finite part that pushes a held gradient past the float64 range
    raises too, and leaves `leaf.grad` as it was."""
    if g is None:
        return
    total = g if leaf.grad is None else leaf.grad + g
    if not _finite(total):
        raise ContractError(f"backward: non-finite gradient at node {leaf!r}")
    leaf.grad = total
    if hook is not None:
        hook(leaf)


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Visits each interior node exactly once in reverse topological order.
    Leaves are not in that order: the walk that orders the nodes counts the
    edges into each requires-grad leaf, and the leaf is finished as soon as
    the last of them has delivered (a node that gets no gradient delivers
    nothing, but its edges count).  So inside `on_grad_ready(hook)` a
    decoder weight read only by the loss head is handed to `hook` within the
    first nodes of the walk.  Parts are summed in delivery order, and no
    closure writes into a gradient it received, so a hook may hand `.grad`
    to another thread while the walk goes on.  Constants' gradients are dropped.

    A non-finite gradient raises ContractError naming the node it reached:
    an inner node, or the requires-grad leaf whose summed gradient it is
    (summed with any gradient the leaf already held); `_finite` checks each.
    A fused node's inner steps are not nodes.  `attention_block`,
    `ffn_block` and `gathered_cross_entropy` check the gradient of each
    inner step themselves and name the fused node and the step; an overflow
    inside `input_embedding` names the table parameter (entity_emb, say)
    whose gradient overflowed, where the unfused chain named an inner lookup.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    hook = _grad_ready_hook
    seed = np.ones((), dtype=DEFAULT_DTYPE)
    if not loss._parents:
        if loss.requires_grad:
            _finish_leaf(loss, seed, hook)
        return
    topo = []  # interior nodes only
    waiting = {}  # requires-grad leaf -> edges still to deliver into it
    seen = set()  # nodes hash by identity
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._parents:
                if p not in seen:
                    stack.append((p, False))
            elif p.requires_grad:
                waiting[p] = waiting.get(p, 0) + 1

    grads = {loss: seed}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:
            parent_grads = (None,) * len(node._parents)
        elif not _finite(g):
            raise ContractError(f"backward: non-finite gradient at node {node!r}")
        else:
            parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if p._parents:
                if pg is not None:
                    grads[p] = grads[p] + pg if p in grads else pg
            elif p.requires_grad:
                if pg is not None:
                    grads[p] = grads[p] + pg if p in grads else pg
                waiting[p] -= 1
                if not waiting[p]:
                    _finish_leaf(p, grads.pop(p, None), hook)


def zero_grads(params):
    for p in params.values() if isinstance(params, dict) else params:
        p.grad = None
