"""Joint MLM + masked-entity-prediction training with a two-stage schedule.

Stage 1 updates only the newly initialized entity-side parameters; stage 2
updates everything.  The warmup/linear-decay learning-rate schedule restarts
at the stage boundary.  A checkpoint is a versioned binary container: a JSON
header whose `shapes` maps each parameter name to its shape, then each
parameter's little-endian float64 bytes in sorted-name order.  It holds the
parameters, the encoder config, the step, a meta object and the word and
entity vocabularies: what evaluation and fine-tuning read.  It stores no
optimizer or RNG state, so training does not resume from one.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import json
import math
import os
import struct
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import IGNORE_LABEL, SPECIAL_WORDS, SequenceSampler, WordVocab, mask_batch
from .encoder import EncoderConfig, check_params, draw_params, encode_batch, pack_batch, param_specs
from .errors import ConfigError, ContractError, EntlmError
from .files import loads
from .seeding import substream
from .vocab import EntityEntry, EntityVocab

CHECKPOINT_MAGIC = b"ENTLM-CKPT v1\n"
# layout of the header and its encoder_config; bump it when either changes
CHECKPOINT_VERSION = 4

# name patterns of the parameters stage 1 updates; everything else is frozen
STAGE1_TRAINABLE = ("entity_emb", "entity_proj", "entity_type_emb", "mep_head")

# elements per AdamW block.  Each block's slices of p, g, m and v and three
# scratch buffers (two for intermediates, one that gathers a gradient block
# spanning several parameters; 7 x 512 KiB) stay in cache across the 15
# passes the update makes over them.  An AdamW holds two scratch sets, one
# for the calling thread and one for the worker (2 x 3 x 512 KiB).  Smaller
# blocks pay more per-call overhead; on a 2 MiB-L2 Xeon, 16Ki-64Ki elements
# measured alike and 4Ki was 30% slower.  A block is what either thread takes
# from AdamW's queue at a time, and ADAMW_BLOCK is also the smallest
# parameter `AdamW.overlap` queues during backward.  The worker thread
# (`T._worker`, which forward-only `encoder.encode_batch` calls also use)
# then trades the interpreter lock with backward's Python: on the wide
# benchmark (2-vCPU Xeon) backward took ~1.4 ms a step longer and
# `AdamW.step` ~2 ms less, and a step ~1.3 ms less end to end.
ADAMW_BLOCK = 65536

# the paper's AdamW settings, which pretraining and fine-tuning both use
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-6
ADAMW_WEIGHT_DECAY = 0.01

@dataclass
class TrainConfig:
    """The settings a pretraining run chooses.  The paper's fixed values are
    constants where they are used: AdamW's (ADAMW_*), the masking rates and
    language alpha in `corpus`, and the stage-1 parameters (STAGE1_TRAINABLE)."""

    total_steps: int
    stage1_steps: int = 0
    batch_size: int = 8
    peak_lr: float = 1e-4
    stage1_peak_lr: float = 5e-4
    warmup_steps: int = 2500
    seed: int = 0
    checkpoint_interval: int = 0  # 0: final checkpoint only
    log_interval: int = 50

    def validate(self):
        if not 0 <= self.stage1_steps <= self.total_steps:
            raise ContractError("need 0 <= stage1_steps <= total_steps")
        if self.batch_size < 1:
            raise ContractError(f"batch_size {self.batch_size} must be >= 1")
        for key in ("warmup_steps", "log_interval", "checkpoint_interval", "peak_lr", "stage1_peak_lr"):
            if not 0 <= getattr(self, key) < math.inf:  # NaN fails too
                raise ContractError(f"{key} {getattr(self, key)} must be finite and >= 0")
        return self

    def to_dict(self):
        return dict(self.__dict__)


def head_specs(config: EncoderConfig) -> list:
    """(name, shape, init) of the MLM and MEP heads, in `init_model`'s draw order."""
    H, V, E = config.hidden_size, config.word_vocab_size, config.entity_vocab_size
    return [("mlm_head.w", (H, V), "normal"), ("mlm_head.b", (V,), "zeros"),
            ("mep_head.w", (H, E), "normal"), ("mep_head.b", (E,), "zeros")]


def init_model(config: EncoderConfig, seed=0):
    """The encoder's parameters and then the MLM and MEP heads, drawn from one stream."""
    config.validate()
    return draw_params(param_specs(config) + head_specs(config), substream(seed, "init"))


def _head_loss(vectors, labels, w, b):
    """Mean cross-entropy over labeled positions, one `T.gathered_cross_entropy`
    node that projects only the labeled rows; (loss tensor, live count)."""
    labels = np.asarray(labels).reshape(-1)
    loss = T.gathered_cross_entropy(vectors, labels, w, b, ignore_index=IGNORE_LABEL)
    return loss, int(np.count_nonzero(labels != IGNORE_LABEL))


def mep_loss(entity_vectors, entity_labels, params):
    """Cross-entropy of the MEP classifier at entity-[MASK] positions.

    Returns (loss, skipped): with no labeled positions the loss is 0 and
    skipped is True so batch averaging can leave it out.
    """
    loss, n_live = _head_loss(entity_vectors, entity_labels, params["mep_head.w"], params["mep_head.b"])
    return loss, n_live == 0


def mlm_loss(word_vectors, word_labels, params):
    loss, n_live = _head_loss(word_vectors, word_labels, params["mlm_head.w"], params["mlm_head.b"])
    return loss, n_live == 0


def stage_of(step, config: TrainConfig):
    return 1 if step < config.stage1_steps else 2


def lr_at(step, config: TrainConfig):
    """Per-stage linear warmup then linear decay to zero; restarts per stage."""
    config.validate()
    if not 0 <= step < config.total_steps:
        raise ContractError(f"step {step} outside [0, {config.total_steps})")
    if step < config.stage1_steps:
        start, length, peak = 0, config.stage1_steps, config.stage1_peak_lr
    else:
        start, length, peak = config.stage1_steps, config.total_steps - config.stage1_steps, config.peak_lr
    return warmup_linear_decay(step - start, length, min(config.warmup_steps, length), peak)


def warmup_linear_decay(step, length, warmup, peak):
    """Linear warmup from 0 to `peak` over `warmup` steps, then linear decay
    to zero at `length`; shared by pretraining and fine-tuning."""
    if warmup > 0 and step < warmup:
        return peak * step / warmup
    if length == warmup:
        return peak
    return peak * (length - step) / (length - warmup)


class AdamW:
    """AdamW with decoupled weight decay and the paper's ADAMW_* settings, over a named parameter dict.

    The optimizer keeps the parameter values and the two moment estimates
    in three contiguous float64 stores, laid out in `params` order.
    Construction copies each `p.data` into the store and rebinds `p.data`
    to a view of it, so hold the Tensor rather than an array taken before
    `AdamW(params)`.  `step` writes those views in place: a caller that
    wants a snapshot of a parameter must take `p.data.copy()`.  A parameter
    whose `data` was reassigned since (by the caller, or by another AdamW
    over the same Tensor) is copied back into the store before its update.
    A gradient whose shape differs from its parameter's raises ContractError.

    Frozen parameters are neither updated nor have their moment estimates
    advanced; `m[name]` and `v[name]` are views that exist from a
    parameter's first step.  Each run of adjacent parameters with equal
    step counts is cut into blocks of ADAMW_BLOCK elements, which go into
    one queue that `step` drains on the calling thread.  When a step queues
    at least two blocks' worth and the process may use two CPUs, the
    process's one worker thread (`T._worker`) drains the queue too, and
    `step` returns once the worker's last block is done.  Each block runs
    the same element-wise operations on either thread, so no bit of the
    result depends on which thread took it.  `overlap` queues the large parameters
    during backward.
    """

    def __init__(self, params):
        self.params = params
        self.m = {}
        self.v = {}
        self.t = {}
        self._span = {}
        n = 0
        for name, p in params.items():
            self._span[name] = (n, n + p.data.size)
            n += p.data.size
        self._p, self._m, self._v = np.empty(n), np.zeros(n), np.zeros(n)
        self._views = {}
        for name, p in params.items():
            self._bind(name, p)
        self._scratch = tuple((np.empty(ADAMW_BLOCK), np.empty(ADAMW_BLOCK), np.empty(ADAMW_BLOCK))
                              for _ in range(2))
        self._queue = collections.deque()  # (block, lr) items the caller and the worker both pop
        self._tasks = []  # the worker's drains of the queue since the last `step`
        self._handed = set()  # names `overlap` queued, which the following `step` skips

    def _bind(self, name, p):
        """Copy p.data into its slice of the store and rebind p.data to it."""
        lo, hi = self._span[name]
        if p.data.size != hi - lo:
            raise ContractError(f"AdamW: parameter {name} has {p.data.size} elements, "
                                f"its store slot {hi - lo}")
        view = self._p[lo:hi].reshape(p.data.shape)
        view[...] = p.data
        p.data = self._views[name] = view

    def _advance(self, name, p):
        """Advance `name`'s step count and return its run [lo, hi, t, [(lo, hi, flat grad)]]."""
        if p.data is not self._views[name]:
            self._bind(name, p)
        lo, hi = self._span[name]
        t = self.t.get(name, 0) + 1
        self.t[name] = t
        if name not in self.m:
            self.m[name] = self._m[lo:hi].reshape(p.data.shape)
            self.v[name] = self._v[lo:hi].reshape(p.data.shape)
        # a parameter without a gradient steps on zeros
        g = np.ravel(p.grad) if p.grad is not None else np.broadcast_to(0.0, (hi - lo,))
        return [lo, hi, t, [(lo, hi, g)]]

    @contextlib.contextmanager
    def overlap(self, lr, trainable=None):
        """Around `T.backward`: queue each large parameter as soon as its
        gradient is final, and start the worker on the queue while backward
        goes on.

        A parameter qualifies when it would step in `step(lr, trainable)`
        and holds at least ADAMW_BLOCK elements; once backward has finished
        its gradient (of its shape), its step count advances and its blocks
        join the queue.  The following `step`, with the same `lr` and
        `trainable`, queues every other parameter and drains the queue
        beside the worker, so it never waits on a whole parameter.  A worker
        that finds the queue empty just as a block arrives leaves it to
        `step`.  With no qualifying parameter, or one usable CPU, nothing is
        armed.  If the body raises, the hook is removed, and the caller
        drains the queue and waits for the worker before the exception
        propagates: the parameters handed off by then have stepped, and
        nothing else has.  So `step`'s check of every gradient shape before
        any update covers only what was not handed off.  One `T.backward`
        per `overlap`.
        """
        ready = {p: name for name, p in self.params.items()
                 if p.data.size >= ADAMW_BLOCK and p.requires_grad and (trainable is None or name in trainable)}
        if not ready or T._usable_cpus() < 2:
            yield
            return

        def hand_off(p):
            name = ready.pop(p, None)
            if name is None or p.grad.shape != p.data.shape:  # a wrong shape raises in `step`
                return
            self._queue.extend((block, lr) for block in self._blocks([self._advance(name, p)]))
            self._handed.add(name)
            self._wake_worker()

        try:
            with T.on_grad_ready(hand_off):
                yield
        except BaseException:
            with contextlib.suppress(Exception):  # the body's exception is the one to report
                self._finish()
            raise

    def step(self, lr, trainable=None):
        try:
            stepping = []  # checked first, so a bad gradient leaves all state as it was
            for name, p in self.params.items():
                if name in self._handed or not p.requires_grad or (trainable is not None and name not in trainable):
                    continue
                if p.grad is not None and p.grad.shape != p.data.shape:
                    raise ContractError(f"AdamW: parameter {name} has shape {p.data.shape}, "
                                        f"its gradient {p.grad.shape}")
                stepping.append((name, p))
            runs = []  # [lo, hi, t, [(lo, hi, flat grad), ...]] per run of equal t
            for name, p in stepping:
                run = self._advance(name, p)
                if runs and runs[-1][1] == run[0] and runs[-1][2] == run[2]:
                    runs[-1][1] = run[1]
                    runs[-1][3] += run[3]
                else:
                    runs.append(run)
            blocks = self._blocks(runs)
            self._queue.extend((block, lr) for block in blocks)
            # without hand-offs the queue held nothing before these blocks
            if self._handed or (sum(bhi - blo for blo, bhi, _, _ in blocks) >= 2 * ADAMW_BLOCK
                                and T._usable_cpus() >= 2):
                self._wake_worker()
        finally:
            self._finish()

    @staticmethod
    def _blocks(runs):
        """Cut runs into ADAMW_BLOCK blocks (blo, bhi, gradient pieces, t)."""
        blocks = []
        for lo, hi, t, grads in runs:
            k = 0  # first parameter of the run not yet fully consumed
            for blo in range(lo, hi, ADAMW_BLOCK):
                bhi = min(blo + ADAMW_BLOCK, hi)
                pieces = []
                while k < len(grads) and grads[k][0] < bhi:
                    start, end, g = grads[k]
                    pieces.append(g[max(start, blo) - start : min(end, bhi) - start])
                    if end > bhi:
                        break  # this parameter continues into the next block
                    k += 1
                blocks.append((blo, bhi, pieces, t))
        return blocks

    def _wake_worker(self):
        """Start the worker on the queue unless it is draining it already."""
        if not self._tasks or self._tasks[-1].done():
            # the worker runs in the caller's context, so np.errstate applies there too
            self._tasks.append(T._worker().submit(contextvars.copy_context().run, self._drain,
                                                  self._scratch[1]))

    def _drain(self, scratch):
        """Pop and update blocks until the queue is empty."""
        while True:
            try:
                block, lr = self._queue.popleft()
            except IndexError:
                return
            self._update(block, scratch, lr)

    def _finish(self):
        """Drain the queue on the calling thread, then wait for the worker's
        last block; an error either thread met propagates."""
        tasks, self._tasks, self._handed = self._tasks, [], set()
        try:
            self._drain(self._scratch[0])
        finally:
            futures.wait(tasks)  # never return while the worker still writes the store
            self._queue.clear()  # the blocks an error left behind
            for task in tasks:
                task.result()

    def _update(self, block, scratch, lr):
        """p -= lr * (mhat / (sqrt(vhat) + eps) + wd * p) on one block.

        A block inside one parameter reads its gradient in place; a block
        across several gathers their pieces into `scratch`.  Every operation
        runs in the order of that formula, so the result is bit-identical to
        evaluating it per parameter with full-size temporaries.  Nothing
        but numpy runs here, so AdamW's drain on the worker thread enters
        no other entlm function.
        """
        b1, b2 = ADAMW_BETA1, ADAMW_BETA2
        blo, bhi, pieces, t = block
        c1, c2 = 1 - b1**t, 1 - b2**t
        s1, s2, gather = (s[: bhi - blo] for s in scratch)
        gb = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, out=gather)
        pb, mb, vb = self._p[blo:bhi], self._m[blo:bhi], self._v[blo:bhi]
        # m = b1 * m + (1 - b1) * g
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, 1 - b1, out=s1)
        np.add(mb, s1, out=mb)
        # v = b2 * v + (1 - b2) * (g * g)
        np.multiply(vb, b2, out=vb)
        np.multiply(gb, gb, out=s1)
        np.multiply(s1, 1 - b2, out=s1)
        np.add(vb, s1, out=vb)
        # mhat / (sqrt(vhat) + eps) + wd * p
        np.divide(mb, c1, out=s1)
        np.divide(vb, c2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAMW_EPS, out=s2)
        np.divide(s1, s2, out=s1)
        np.multiply(pb, ADAMW_WEIGHT_DECAY, out=s2)
        np.add(s1, s2, out=s1)
        # p = p - lr * (...)
        np.multiply(s1, lr, out=s1)
        np.subtract(pb, s1, out=pb)


def select_trainable(params, patterns):
    """Names of parameters matched by any substring pattern."""
    return {name for name in params if any(pat in name for pat in patterns)}


# ---------------------------------------------------------------------------
# checkpoint container


def save_checkpoint(path, encoder_config: EncoderConfig, params, step=0, meta=None, *,
                    word_vocab=None, entity_vocab=None):
    """Write the parameters, the encoder config, `step`, `meta` and, when
    given, the two vocabularies the ids mean: the word tokens in id order and
    the entity vocabulary's `rows()`, as its vocab file holds them."""
    if (word_vocab is None) != (entity_vocab is None):
        raise ContractError("save_checkpoint takes both vocabularies or neither")
    arrays = {name: np.ascontiguousarray(params[name].data, dtype="<f8") for name in sorted(params)}
    header = {
        "version": CHECKPOINT_VERSION,
        "encoder_config": encoder_config.to_dict(),
        "step": int(step),
        "meta": meta or {},
        "shapes": {name: list(arr.shape) for name, arr in arrays.items()},
        "vocab": None if word_vocab is None else {"words": list(word_vocab.id_to_token),
                                                   "entities": entity_vocab.rows()},
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for arr in arrays.values():
            f.write(arr)
    os.replace(tmp, path)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_header_layout(path, header):
    """Raise ContractError unless the header has the fields `load_checkpoint` reads."""

    def require(ok, field, want):
        if not ok:
            raise ContractError(f"{path}: header field {field!r} must be {want}")

    require(isinstance(header, dict), "header", "a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ContractError(f"{path}: checkpoint version {header.get('version')!r}, "
                            f"but this entlm reads only version {CHECKPOINT_VERSION}")
    shapes = header.get("shapes")
    require(isinstance(shapes, dict), "shapes", "an object")
    for name, shape in shapes.items():
        require(isinstance(shape, list) and all(_is_int(d) and d >= 0 for d in shape),
                f"shapes.{name}", "a list of non-negative integers")
    require(_is_int(header.get("step")), "step", "an integer")
    require(isinstance(header.get("meta", {}), dict), "meta", "an object")
    vocab = header.get("vocab", ())  # null means saved without vocabularies; missing is malformed
    require(vocab is None or isinstance(vocab, dict), "vocab", "null or an object")


def _vocabs_from_header(path, vocab, config: EncoderConfig):
    """(WordVocab, EntityVocab) of the header's `vocab` field with ids in their
    stored order, or (None, None) when it is null.  Raises ContractError,
    naming the field, unless it matches the encoder config's sizes."""
    if vocab is None:
        return None, None

    def require(ok, field, problem):
        if not ok:
            raise ContractError(f"{path}: header field {field!r} {problem}")

    words, rows = vocab.get("words"), vocab.get("entities")
    require(isinstance(words, list) and all(isinstance(w, str) for w in words), "vocab.words",
            "must be a list of strings")
    require(words[: len(SPECIAL_WORDS)] == list(SPECIAL_WORDS), "vocab.words",
            f"must start with {' '.join(SPECIAL_WORDS)}")
    require(len(set(words)) == len(words), "vocab.words", "repeats a token")
    require(len(words) == config.word_vocab_size, "vocab.words",
            f"holds {len(words)} tokens, but encoder_config gives word_vocab_size {config.word_vocab_size}")
    require(isinstance(rows, list), "vocab.entities", "must be a list")
    require(len(rows) == config.entity_vocab_size, "vocab.entities",
            f"holds {len(rows)} entities, but encoder_config gives entity_vocab_size {config.entity_vocab_size}")
    entries = []
    for i, row in enumerate(rows):
        try:
            entries.append(EntityEntry.from_row(row))
        except ContractError as e:
            raise ContractError(f"{path}: header field 'vocab.entities[{i}]' is malformed ({e})") from None
    try:  # a special missing or out of place, or a key or title two entities hold
        entity_vocab = EntityVocab(entries)
        entity_vocab.require_specials()
    except ContractError as e:
        raise ContractError(f"{path}: header field 'vocab.entities' is malformed ({e})") from None
    return WordVocab(words[len(SPECIAL_WORDS) :]), entity_vocab


@dataclass
class Checkpoint:
    encoder_config: EncoderConfig
    params: dict
    step: int
    meta: dict = field(default_factory=dict)
    word_vocab: WordVocab | None = None  # None when the checkpoint was saved without vocabularies
    entity_vocab: EntityVocab | None = None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a damaged or truncated file raises ContractError."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ContractError(f"{path}: not a checkpoint file")
        raw_len = f.read(8)
        if len(raw_len) != 8:
            raise ContractError(f"{path}: truncated before the header length")
        (hlen,) = struct.unpack("<Q", raw_len)
        # checked against the file size first, so a corrupt length allocates nothing
        if hlen > os.fstat(f.fileno()).st_size - f.tell():
            raise ContractError(f"{path}: header of {hlen} bytes runs past the end of the file")
        try:
            header = loads(f.read(hlen).decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError, JSONDecodeError and a lone surrogate
            raise ContractError(f"{path}: header is not JSON ({e})") from None
        _check_header_layout(path, header)
        shapes = header["shapes"]
        # checked before anything is read: the payload is exactly the tensors the shapes give
        size, want = os.fstat(f.fileno()).st_size - f.tell(), 8 * sum(map(math.prod, shapes.values()))
        if size != want:
            raise ContractError(f"{path}: payload holds {size} bytes, but the header's shapes give {want}")
        params = {}
        for name in sorted(shapes):
            try:  # a zero-size shape passes the size check with any other dimension
                arr = np.empty(shapes[name], dtype="<f8")
            except ValueError:
                raise ContractError(f"{path}: header field 'shapes.{name}' must be a shape numpy can hold") from None
            f.readinto(arr)
            params[name] = T.parameter(arr, name=name)
    try:
        encoder_config = EncoderConfig.from_dict(header.get("encoder_config"))
    except (TypeError, ConfigError) as e:  # not an object, or a missing, unknown, mistyped or inconsistent field
        raise ContractError(f"{path}: header field 'encoder_config' is malformed ({e})") from None
    # the encoder only: the heads a checkpoint holds depend on who wrote it, so their readers check them
    check_params(params, param_specs(encoder_config), path)
    word_vocab, entity_vocab = _vocabs_from_header(path, header["vocab"], encoder_config)
    return Checkpoint(
        encoder_config=encoder_config,
        params=params,
        step=header["step"],
        meta=header.get("meta", {}),
        word_vocab=word_vocab,
        entity_vocab=entity_vocab,
    )


# ---------------------------------------------------------------------------
# training loop


class TrainingAborted(EntlmError):
    """Training stopped on a non-finite loss.  `last_checkpoint` names the
    last intermediate checkpoint written, or is None: a parameter snapshot
    that `finetune`, `cloze-eval`, `dump-features` and `inspect-checkpoint`
    read."""

    def __init__(self, message, last_checkpoint=None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


@dataclass
class TrainResult:
    params: dict
    step: int
    log: list  # (step, stage, lr, mlm, mep) tuples
    final_checkpoint: str | None = None


def _batch_labels(batches, M, N):
    wl = np.full((len(batches), M), IGNORE_LABEL, dtype=np.int64)
    el = np.full((len(batches), max(N, 0)), IGNORE_LABEL, dtype=np.int64)
    for b, mb in enumerate(batches):
        wl[b, : len(mb.word_labels)] = mb.word_labels
        if mb.entity_labels:
            el[b, : len(mb.entity_labels)] = mb.entity_labels
    return wl, el


def pretrain_step_loss(params, encoder_config, batches, rng=None):
    """Training-mode forward pass for a list of MaskedBatch; returns (loss, mlm, mep)."""
    packed = pack_batch([mb.sequence for mb in batches])
    out = encode_batch(params, encoder_config, packed, rng=rng, train=True)
    M = packed["word_ids"].shape[1]
    N = packed["entity_ids"].shape[1]
    wl, el = _batch_labels(batches, M, N)
    l_mlm, _ = mlm_loss(out.word_tensor, wl, params)
    if N:
        l_mep, _ = mep_loss(out.entity_tensor, el, params)
        total = l_mlm + l_mep
    else:
        l_mep = T.constant(0.0)
        total = l_mlm
    return total, l_mlm, l_mep


def train(encoder_config: EncoderConfig, config: TrainConfig, sequences_by_language,
          word_vocab, entity_vocab, params=None, out_dir=None, log_file=None):
    """Run the two-stage pretraining loop on already-encoded sequences.

    sequences_by_language: {lang: [EncodedSequence, ...]}, drawn through
    `SequenceSampler` and masked by `mask_batch`.  Deterministic for a fixed
    (config, corpus): every random draw comes from named sub-streams of
    config.seed and runs on the calling thread.  AdamW's blocks may be
    updated by the calling thread and AdamW's worker draining one queue, and
    with two usable CPUs each parameter of at least ADAMW_BLOCK elements is
    queued, and the worker starts on it, as soon as backward has finished its
    gradient (`AdamW.overlap`); neither changes a bit of the result.  If
    backward raises (a non-finite gradient), the run aborts, and the
    parameters queued by then have already stepped in the caller's `params`
    when the error reaches it; no other parameter has.
    With `out_dir`, every checkpoint also holds `word_vocab` and `entity_vocab`.
    """
    config.validate()
    sampler = SequenceSampler(sequences_by_language, seed=config.seed)
    if out_dir:  # only once the corpus gives sequences, so a refused run writes nothing
        os.makedirs(out_dir, exist_ok=True)
    if params is None:
        params = init_model(encoder_config, seed=config.seed)
    optimizer = AdamW(params)
    stage1_trainable = select_trainable(params, STAGE1_TRAINABLE)

    seq_ids = {}
    for lang in sorted(sequences_by_language):
        for i, seq in enumerate(sequences_by_language[lang]):
            seq_ids[id(seq)] = len(seq_ids)

    dropout_rng = substream(config.seed, "dropout")

    log = []
    last_ckpt = None
    log_fh = open(log_file, "w", encoding="utf-8") if log_file else None
    try:
        for step in range(config.total_steps):
            batches = []
            for _ in range(config.batch_size):
                seq = sampler.draw()
                mrng = substream(config.seed, "masking", seq_ids[id(seq)], step)
                batches.append(mask_batch(seq, mrng, word_vocab, entity_vocab.mask_id))
            total, l_mlm, l_mep = pretrain_step_loss(params, encoder_config, batches, rng=dropout_rng)
            if not np.isfinite(total.data):
                raise TrainingAborted(f"non-finite loss at step {step}", last_checkpoint=last_ckpt)
            lr = lr_at(step, config)
            stage = stage_of(step, config)
            trainable = stage1_trainable if stage == 1 else None
            T.zero_grads(params)
            with optimizer.overlap(lr, trainable):
                T.backward(total)
            optimizer.step(lr, trainable=trainable)

            if config.log_interval and (step % config.log_interval == 0 or step == config.total_steps - 1):
                row = (step, stage, lr, float(l_mlm.data), float(l_mep.data))
                log.append(row)
                if log_fh:
                    log_fh.write("\t".join(str(x) for x in row) + "\n")
            if out_dir and config.checkpoint_interval and (step + 1) % config.checkpoint_interval == 0:
                last_ckpt = os.path.join(out_dir, f"checkpoint-{step + 1}.bin")
                save_checkpoint(last_ckpt, encoder_config, params, step=step + 1,
                                meta={"train_config": config.to_dict()},
                                word_vocab=word_vocab, entity_vocab=entity_vocab)
    finally:
        if log_fh:
            log_fh.close()

    final = None
    if out_dir:
        final = os.path.join(out_dir, "checkpoint-final.bin")
        save_checkpoint(final, encoder_config, params, step=config.total_steps,
                        meta={"train_config": config.to_dict()},
                        word_vocab=word_vocab, entity_vocab=entity_vocab)
    return TrainResult(params=params, step=config.total_steps, log=log, final_checkpoint=final)

