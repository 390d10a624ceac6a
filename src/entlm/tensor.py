"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Plain row-major numpy kernels, float64 by default.  A Tensor records the op
that produced it and closures that push gradients to its parents; backward()
walks the implicit graph once in reverse topological order.  Three fused ops
cut the encoder's node count: `linear` (x @ w + b), `attention` (the scaled,
masked softmax attention core over all heads) and `span_sum` (weighted sums
of gathered rows, for entity mention positions), each doing the same numpy
arithmetic, in the same order, as the chain of single ops it replaces.
Kernels compute their intermediates in place in buffers they allocated
themselves.  Inside `no_grad()` ops record no graph, for forward-only
passes, and no backward closure will read a kernel's buffers: there
`attention` writes its scores into one module-level workspace, grown to the
largest score size seen but never past ATTENTION_WORKSPACE_CAP elements,
and `gelu` and `layer_norm` write their output over their own
intermediates.  So an eval forward pass does not fault in a fresh score
buffer per call.  Recording calls (training) allocate every buffer as
before and never touch the workspace.

At toy sizes a train step's time goes mostly to per-node bookkeeping, so it
is kept lean: `_make` fills a node's slots directly instead of going through
`Tensor.__init__`, and backward() keys its visited set and gradient map by
the nodes themselves (they hash by identity).  Every node's incoming
gradient, leaves included, is checked for finiteness.
"""

from __future__ import annotations

import functools

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
    full-size temporaries.  Under `no_grad()` `attention` may also write its
    scores into the shared workspace; no output ever aliases it.
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

    def item(self):
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, op={self._op!r}{tag})"

    # operator sugar; all arithmetic routes through the module-level kernels
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("div: tensor/tensor division is not a provided kernel")
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name=None):
    return Tensor(np.array(data, dtype=DEFAULT_DTYPE), requires_grad=True, name=name)


def constant(data):
    return Tensor(data)


_grad_enabled = True


class no_grad:
    """Context manager, or decorator as `@no_grad()`: ops inside record no
    parents and no backward closure.  Restores the previous state on exit."""

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
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a, b, kernel):
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


def linear(x, w, b):
    """x @ w + b as one node; w is (in, out) and b is (out,)."""
    if x.ndim < 1 or w.ndim != 2 or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: input {x.shape}, weight {w.shape} and bias {b.shape} do not fit")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input axis -1 has {x.shape[-1]}, weight axis 0 has {w.shape[0]}")
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def backward(g):
        gx = np.matmul(g, w.data.T)
        # a shared weight: fold every leading axis of x into one 2-D GEMM
        gw = x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[-1])
        return _unbroadcast(gx, x.shape), gw, _unbroadcast(g, b.shape)

    return _make(out_data, (x, w, b), backward, "linear")


# Under no_grad, attention's (B, heads, S, S) scores go into one flat float64
# workspace that grows to the largest such size seen, up to this many
# elements (8 MiB); a larger call allocates its own buffer, as a recording
# call always does.  A fresh score buffer of a QA item's size (0.5-0.74 MB)
# goes back to the system when freed, so each call faults its pages in
# again; the workspace is faulted in once.  Like `_grad_enabled` it is shared
# by the whole process, so forward passes must not run in parallel threads.
ATTENTION_WORKSPACE_CAP = 1 << 20

_attention_workspace = np.empty(0, dtype=DEFAULT_DTYPE)


def _score_buffer(shape):
    """A view of the workspace shaped `shape`, grown to fit; None above the cap."""
    global _attention_workspace
    n = shape[0] * shape[1] * shape[2] * shape[3]
    if n > ATTENTION_WORKSPACE_CAP:
        return None
    if _attention_workspace.size < n:
        _attention_workspace = np.empty(n, dtype=DEFAULT_DTYPE)
    return _attention_workspace[:n].reshape(shape)


def attention(q, k, v, bias, heads, p=0.0, rng=None):
    """Multi-head scaled dot-product attention core as one node.

    q, k, v are (B, S, H) projections; `bias` is an additive score mask
    broadcastable to (B, heads, S, S).  Splits the heads, applies
    softmax(q k^T / sqrt(dh) + bias), inverted dropout at rate p on the
    probabilities (drawn from `rng`), multiplies by v and merges the heads.
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention: q, k, v must share one (B, S, H) shape, "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    B, S, H = q.shape
    if heads < 1:
        raise ShapeError(f"attention: heads must be >= 1, got {heads}")
    if H % heads:
        raise ShapeError(f"attention: hidden size {H} not divisible by {heads} heads")
    score_shape = (B, heads, S, S)
    try:
        fits = np.broadcast_shapes(np.shape(bias), score_shape) == score_shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"attention: bias shape {np.shape(bias)} does not broadcast to scores {score_shape}")
    if not 0.0 <= p < 1.0:
        raise ContractError(f"attention: dropout rate {p} outside [0, 1)")
    if p > 0.0 and rng is None:
        raise ContractError("attention: dropout needs an rng")
    dh = H // heads
    c = float(1.0 / np.sqrt(dh))

    def split(t):
        return np.transpose(t.reshape((B, S, heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    kt = np.transpose(kh, (0, 1, 3, 2))
    # scores, their shifted exponentials and the probabilities share one buffer
    probs = np.matmul(qh, kt, out=None if _grad_enabled else _score_buffer(score_shape))
    probs *= c
    probs += bias
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    mask = None
    dropped = probs
    if p > 0.0:
        mask = (rng.random(probs.shape) >= p) / (1.0 - p)
        dropped = probs * mask
    ctx = np.matmul(dropped, vh)
    out_data = np.transpose(ctx, (0, 2, 1, 3)).reshape((B, S, H))

    def merge(gh):
        return np.transpose(gh, (0, 2, 1, 3)).reshape((B, S, H))

    def backward(g):
        gctx = np.transpose(g.reshape((B, S, heads, dh)), (0, 2, 1, 3))
        gprobs = np.matmul(gctx, np.swapaxes(vh, -1, -2))
        gvh = np.matmul(np.swapaxes(dropped, -1, -2), gctx)
        if mask is not None:
            gprobs = gprobs * mask
        dot = (gprobs * probs).sum(axis=-1, keepdims=True)
        gs = probs * (gprobs - dot) * c
        gqh = np.matmul(gs, np.swapaxes(kt, -1, -2))
        gkt = np.matmul(np.swapaxes(qh, -1, -2), gs)
        return merge(gqh), merge(np.transpose(gkt, (0, 1, 3, 2))), merge(gvh)

    return _make(out_data, (q, k, v), backward, "attention")


def embedding(table, ids):
    """Row gather: table is (V, H), ids any integer shape; output ids.shape + (H,)."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be rank 2, got shape {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding: id out of range for table with {table.shape[0]} rows")
    out_data = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _make(out_data, (table,), backward, "embedding")


def span_sum(table, ids, weights):
    """Weighted row sums: out[..., :] = sum_p weights[..., p] * table[ids[..., p]].

    table is (V, H); ids and weights share one shape whose last axis is
    summed away, so the output is ids.shape[:-1] + (H,).  The same gather,
    multiply and axis-sum as `embedding` -> `mul` by a constant -> `reduce_sum`,
    as one node with no gradient for the weights.
    """
    ids = np.asarray(ids)
    weights = np.asarray(weights, dtype=DEFAULT_DTYPE)
    if table.ndim != 2 or ids.ndim < 1 or weights.shape != ids.shape:
        raise ShapeError(f"span_sum: table {table.shape}, ids {ids.shape} and weights {weights.shape} "
                         f"need a rank-2 table and ids and weights of one shape of rank >= 1")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"span_sum: id out of range for table with {table.shape[0]} rows")
    rows = table.data[ids]  # an integer array index copies
    rows *= weights[..., None]
    out_data = rows.sum(axis=-2)

    def backward(g):
        grows = np.expand_dims(g, -2) * weights[..., None]
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), grows.reshape(-1, table.shape[1]))
        return (gt,)

    return _make(out_data, (table,), backward, "span_sum")


def layer_norm(x, gain, bias, eps=LAYER_NORM_EPS):
    """Normalize over the last axis, then scale and shift."""
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm: gain/bias must match last axis {x.shape[-1]}, got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu  # scaled in place below, once the variance is read
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    # without a backward closure to read xhat, the output overwrites it
    out_data = np.multiply(xhat, gain.data, out=None if _grad_enabled else xhat)
    out_data += bias.data

    def backward(g):
        n = x.shape[-1]
        gy = g * gain.data
        gxhat_sum = gy.sum(axis=-1, keepdims=True)
        gxhat_dot = (gy * xhat).sum(axis=-1, keepdims=True)
        gx = inv * (gy - gxhat_sum / n - xhat * gxhat_dot / n)
        ggain = (g * xhat).reshape(-1, n).sum(axis=0)
        gbias = g.reshape(-1, n).sum(axis=0)
        return gx, ggain, gbias

    return _make(out_data, (x, gain, bias), backward, "layer_norm")


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x):
    cdf = np.multiply(x.data, _INV_SQRT2, out=np.empty_like(x.data))  # an array even for rank 0
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    # without a backward closure to read cdf, the output overwrites it
    out_data = np.multiply(x.data, cdf, out=None if _grad_enabled else cdf)

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (cdf + x.data * pdf),)

    return _make(out_data, (x,), backward, "gelu")


def softmax(x, axis=-1):
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - dot),)

    return _make(p, (x,), backward, "softmax")


def dropout(x, p, rng):
    """Inverted dropout with an explicit RNG handle; p == 0 is the identity."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout: rate {p} outside [0, 1)")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
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
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
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
    unique = _index_is_unique(idx)

    def backward(g):
        gx = np.zeros_like(x.data)
        if unique:
            gx[idx] = g
        else:
            np.add.at(gx, idx, g)
        return (gx,)

    return _make(np.array(out_data, copy=True), (x,), backward, "getitem")


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

    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True)) + m
    if n_live == 0:
        out_data = np.float64(0.0)

        def backward(g):
            return (np.zeros_like(logits.data),)

        return _make(out_data, (logits,), backward, "cross_entropy")

    rows = np.nonzero(live)[0]
    nll = lse[rows, 0] - logits.data[rows, labels[rows]]
    out_data = np.float64(nll.sum() / n_live)

    def backward(g):
        p = np.exp(logits.data - lse)
        gl = np.zeros_like(logits.data)
        gl[rows] = p[rows]
        gl[rows, labels[rows]] -= 1.0
        return (gl * (g / n_live),)

    return _make(out_data, (logits,), backward, "cross_entropy")


def log_softmax_np(x, axis=-1):
    """Forward-only log-softmax on a plain array (used by scoring paths)."""
    x = np.asarray(x, dtype=DEFAULT_DTYPE)
    m = x.max(axis=axis, keepdims=True)
    z = x - m
    z -= np.log(np.exp(z).sum(axis=axis, keepdims=True))
    return z


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Visits each graph node exactly once in reverse topological order.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo = []
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
            if p not in seen:
                stack.append((p, False))

    grads = {loss: np.ones((), dtype=DEFAULT_DTYPE)}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise ContractError(f"backward: non-finite gradient at node {node!r}")
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            if p in grads:
                grads[p] = grads[p] + pg
            else:
                grads[p] = pg


def zero_grads(params):
    for p in params.values() if isinstance(params, dict) else params:
        p.grad = None


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
    zero_grads(params)
    loss = build_loss()
    if not np.isfinite(loss.data):
        raise ContractError("grad_check: non-finite loss at base point")
    backward(loss)

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
            up = build_loss().item()
            flat[c] = orig - eps
            dn = build_loss().item()
            flat[c] = orig
            if not (np.isfinite(up) and np.isfinite(dn)):
                raise ContractError(f"grad_check: non-finite loss probing {name}[{c}]")
            numeric = (up - dn) / (2.0 * eps)
            a = analytic.reshape(-1)[c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst
