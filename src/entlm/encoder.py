"""Bidirectional transformer over a joint word + entity token sequence.

Entity tokens carry no sequence position of their own: each one is tied to
its mention span through position embeddings summed (or averaged, behind a
config flag) over the mention's word positions.  Words and entities then go
through ordinary full self-attention together.

Small batches spend their time on per-node bookkeeping, so the graph is kept
short: the whole input layer (word, position and type lookups, the entity
lookup, projection, type row and mention-position term, and the join of
the two token kinds) is one `T.input_embedding` node, each layer's
attention sublayer (q/k/v projections, attention, output projection and
their dropouts) one `T.attention_block` and its feed-forward sublayer one
`T.ffn_block`, each residual add lives inside the `T.residual_layer_norm`
after it, and the attention score mask is built once per `encode_batch` and
read by every layer.  So a layer is four nodes.

A forward-only batch (under `no_grad`, without dropout) of two or more rows
at least PARALLEL_MIN_POSITIONS tokens wide runs its layer stack on two CPUs
when the process may use two: the calling thread takes the front half of the
rows and `T._worker` the back half.  Every kernel treats the rows of a batch
apart (numpy runs one GEMM per row, and each reduction runs along a row), so
the result is bit-identical to one thread's.  Training never splits.
"""

from __future__ import annotations

import contextvars
import functools
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import CapacityError, ConfigError, ContractError, VocabError

WORD_TYPE_ID = 0
ENTITY_TYPE_ID = 1
TYPE_ROWS = 2  # rows of type_emb and entity_type_emb, one per token type

NEG_INF = -1e30

# the narrowest padded row (words + entities) a forward-only batch splits at.
# Each half of a split makes ~300 small numpy calls that trade the interpreter
# lock, so narrow rows lose.  Probe-eval's encoder (H=64, 2 layers, 2 heads,
# FFN 128) on 2-row batches of words, median ms per call unsplit -> split over
# 1000 calls each in alternating blocks of 25, on a 2-vCPU Xeon with one BLAS
# thread: 64 positions 1.60 -> 2.29, 80 1.93 -> 2.41, 96 2.43 -> 2.64,
# 112 2.86 -> 2.78, 128 3.96 -> 3.01, 144 4.60 -> 3.35, 160 5.15 -> 3.47.
PARALLEL_MIN_POSITIONS = 112

# a layer's parameters in the order `encode_batch` reads them: `T.attention_block`'s
# eight weights, the attention LayerNorm, `T.ffn_block`'s four weights, the FFN LayerNorm
_LAYER_PARAMS = (*("attn." + name for name in ("wq", "qb", "wk", "kb", "wv", "vb", "wo", "ob")),
                 "attn_ln.gain", "attn_ln.bias", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ffn_ln.gain", "ffn_ln.bias")


@functools.cache
def _layer_names(l):
    """Layer l's `_LAYER_PARAMS` names, built once rather than on every forward pass."""
    return tuple(f"layer{l}." + name for name in _LAYER_PARAMS)


@dataclass
class EncoderConfig:
    word_vocab_size: int
    entity_vocab_size: int
    hidden_size: int = 768
    entity_emb_size: int = 256
    layers: int = 12
    heads: int = 12
    ffn_size: int = 3072
    max_positions: int = 512
    dropout: float = 0.1
    entity_position_mode: str = "sum"  # "sum" or "mean"

    def validate(self):
        for key in ("hidden_size", "entity_emb_size", "layers", "heads", "ffn_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} {getattr(self, key)} must be >= 1")
        if self.hidden_size % self.heads != 0:
            raise ConfigError(f"hidden_size {self.hidden_size} not divisible by heads {self.heads}")
        if self.entity_emb_size > self.hidden_size:
            raise ConfigError("entity_emb_size must be <= hidden_size")
        if self.max_positions < 1:
            raise ConfigError("max_positions must be >= 1")
        if self.entity_position_mode not in ("sum", "mean"):
            raise ConfigError(f"unknown entity_position_mode {self.entity_position_mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        return self

    def to_dict(self):
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d):
        return cls(**d).validate()


@dataclass
class EncodedSequence:
    """Word ids plus entity ids with their mention position sets."""

    word_ids: list
    entity_ids: list = field(default_factory=list)
    entity_positions: list = field(default_factory=list)  # per entity: ordered word positions

    def validate(self):
        """ContractError unless entity_ids and entity_positions pair up, each
        entity's mention positions are non-empty and inside the sequence's
        words, and the sequence has a word.  `pack_batch` holds every sequence
        it packs to these checks, and runs this method to raise the first
        failure; the length is `encode_batch`'s to check."""
        m = len(self.word_ids)
        if len(self.entity_ids) != len(self.entity_positions):
            raise ContractError("entity_ids and entity_positions length mismatch")
        for pos in self.entity_positions:
            if len(pos) == 0:  # not `not pos`: an ndarray of positions has no single truth value
                raise ContractError("entity with empty mention position set")
            if min(pos) < 0 or max(pos) >= m:
                raise ContractError(f"entity position out of range [0, {m})")
        if not m:
            raise ContractError("sequence with no words")
        return self

    @property
    def num_words(self):
        return len(self.word_ids)

    @property
    def num_entities(self):
        return len(self.entity_ids)


@dataclass
class ContextualOutput:
    word_vectors: np.ndarray  # (m, hidden) or (B, m, hidden)
    entity_vectors: np.ndarray  # (n, hidden) or (B, n, hidden)
    word_tensor: "T.Tensor | None" = None
    entity_tensor: "T.Tensor | None" = None


def param_specs(config: EncoderConfig) -> list:
    """(name, shape, init) of every encoder parameter, in draw order."""
    H, E, F = config.hidden_size, config.entity_emb_size, config.ffn_size
    specs = [
        ("word_emb", (config.word_vocab_size, H), "normal"),
        ("pos_emb", (config.max_positions, H), "normal"),
        ("type_emb", (TYPE_ROWS, H), "normal"),
        ("entity_emb", (config.entity_vocab_size, E), "normal"),
        ("entity_proj_w", (E, H), "normal"),
        ("entity_proj_b", (H,), "zeros"),
        ("entity_type_emb", (TYPE_ROWS, H), "normal"),
        ("emb_ln_gain", (H,), "ones"),
        ("emb_ln_bias", (H,), "zeros"),
    ]
    for l in range(config.layers):
        pre = f"layer{l}."
        for nm in ("wq", "wk", "wv", "wo"):
            specs.append((pre + "attn." + nm, (H, H), "normal"))
            specs.append((pre + "attn." + nm[1] + "b", (H,), "zeros"))
        specs += [
            (pre + "attn_ln.gain", (H,), "ones"),
            (pre + "attn_ln.bias", (H,), "zeros"),
            (pre + "ffn.w1", (H, F), "normal"),
            (pre + "ffn.b1", (F,), "zeros"),
            (pre + "ffn.w2", (F, H), "normal"),
            (pre + "ffn.b2", (H,), "zeros"),
            (pre + "ffn_ln.gain", (H,), "ones"),
            (pre + "ffn_ln.bias", (H,), "zeros"),
        ]
    return specs


def draw_params(rows, rng) -> dict:
    """A parameter per (name, shape, init) row, drawn in row order.  init is
    "normal" (N(0, 0.02) draws from rng), "zeros" or "ones"."""
    draw = {"normal": lambda shape: rng.normal(0.0, 0.02, size=shape), "zeros": np.zeros, "ones": np.ones}
    return {name: T.parameter(draw[init](shape), name=name) for name, shape, init in rows}


def check_params(params, rows, where):
    """Raise ContractError, naming `where` and the parameter, unless `params`
    holds each (name, shape, init) row's name with the row's shape."""
    for name, shape, _ in rows:
        if name not in params:
            raise ContractError(f"{where}: parameter {name} is missing")
        if params[name].shape != shape:
            raise ContractError(f"{where}: parameter {name} has shape {list(params[name].shape)}, "
                                f"but {list(shape)} is expected")


def embed_input(params, config, batch):
    """The input layer, as one `T.input_embedding` node: per word, the sum of
    its token, position (0..m-1) and word-type embeddings; per entity, its
    projected id embedding plus the entity-type row plus the sum of the
    word-position embeddings over its mention ("mean" mode divides that sum
    by the position count).  Entity tokens follow the words along axis 1.

    `batch` is `pack_batch`'s dict: word_ids (B, m) and, when entity_ids
    (B, n) has n > 0 columns, the padded index array entity_pos (B, n, P)
    and its entity_pos_mask (B, n, P).  `encode_batch` checks that m is at
    most max_positions.

    Checked here, in order: VocabError for a word id outside [0,
    word_vocab_size) or an entity id outside [0, entity_vocab_size), then
    ContractError for an entity whose mask row sums to 0.  The node comes
    from `T.input_embedding`, given the id ranges read here: its ShapeError
    checks run on them, so no id array is reduced twice.
    """
    word_ids = np.asarray(batch["word_ids"])
    word_range = T._id_range(word_ids)
    if word_range is not None and (word_range[0] < 0 or word_range[1] >= config.word_vocab_size):
        raise VocabError(f"word id out of range for vocab of {config.word_vocab_size}")
    tables = [params["word_emb"], params["pos_emb"], params["type_emb"]]
    types = (WORD_TYPE_ID, ENTITY_TYPE_ID)
    entity_ids = np.asarray(batch["entity_ids"]) if "entity_ids" in batch else None
    if entity_ids is None or not entity_ids.shape[1]:
        return T.input_embedding(tables, word_ids, word_range, types)
    entity_range = T._id_range(entity_ids)
    if entity_range is not None and (entity_range[0] < 0 or entity_range[1] >= config.entity_vocab_size):
        raise VocabError(f"entity id out of range for vocab of {config.entity_vocab_size}")
    position_mask = np.asarray(batch["entity_pos_mask"], dtype=np.float64)
    if not (np.add.reduce(position_mask, axis=-1) > 0).all():
        raise ContractError("entity with empty mention position set")
    tables += [params["entity_emb"], params["entity_proj_w"], params["entity_proj_b"], params["entity_type_emb"]]
    return T.input_embedding(tables, word_ids, word_range, types, entity_ids, entity_range, batch["entity_pos"],
                             position_mask, mean=config.entity_position_mode == "mean")


def encode_batch(params, config, batch, rng=None, train=False):
    """Run a padded batch through the encoder.

    `batch` is a dict with word_ids (B, M), word_mask (B, M), entity_ids
    (B, N), entity_mask (B, N), entity_pos (B, N, P), entity_pos_mask
    (B, N, P).  N may be 0, and so may B.  Returns ContextualOutput with
    graph tensors attached for training use.

    Checked here: CapacityError when M, the longest sequence's word count,
    exceeds max_positions (no other function checks a length), ContractError
    when B >= 1 sequences hold no word (M == 0), and ContractError for a
    training-mode call with dropout but no rng; `embed_input` checks the ids
    and mention masks, and each fused kernel the shapes it is given.

    Under `no_grad` and without dropout, a batch of B >= 2 rows of at least
    PARALLEL_MIN_POSITIONS tokens (M + N) runs its layers on two threads
    when the process may use two CPUs (`_split_layer_stack`); the input
    layer and the score mask are built once, before the split.  The output
    is bit-identical to the one-thread pass.
    """
    p = config.dropout if train else 0.0
    if p > 0 and rng is None:
        raise ContractError("training-mode encode with dropout needs an rng")
    word_ids = np.asarray(batch["word_ids"])
    word_mask = np.asarray(batch["word_mask"], dtype=np.float64)
    B, M = word_ids.shape
    if M > config.max_positions:
        raise CapacityError(f"sequence of {M} words exceeds max_positions {config.max_positions}")
    if B and not M:
        raise ContractError(f"batch of {B} sequences with no words")

    x = embed_input(params, config, batch)
    n_ent = x.shape[1] - M
    if n_ent:
        attn_mask = np.concatenate([word_mask, np.asarray(batch["entity_mask"], dtype=np.float64)], axis=1)
    else:
        attn_mask = word_mask
    # one additive score mask, read by every layer
    bias = np.where(attn_mask[:, None, None, :] > 0, 0.0, NEG_INF)

    x = T.layer_norm(x, params["emb_ln_gain"], params["emb_ln_bias"])
    x = T.dropout(x, p, rng)
    if (B >= 2 and p == 0 and not T._grad_enabled and x.shape[1] >= PARALLEL_MIN_POSITIONS
            and T._usable_cpus() >= 2):
        x = _split_layer_stack(params, config, x, bias)
    else:
        x = _layer_stack(params, config, x, bias, p, rng)

    wt = x[:, :M, :]
    et = x[:, M:, :] if n_ent else T.constant(np.zeros((B, 0, config.hidden_size)))
    return ContextualOutput(word_vectors=wt.data, entity_vectors=et.data, word_tensor=wt, entity_tensor=et)


def _layer_stack(params, config, x, bias, p, rng):
    """x through every encoder layer, each reading the additive score mask `bias`."""
    for l in range(config.layers):
        w = [params[name] for name in _layer_names(l)]
        a = T.attention_block(x, w[:8], bias, config.heads, p=p, rng=rng)
        x = T.residual_layer_norm(x, a, w[8], w[9])
        f = T.ffn_block(x, *w[10:14], p=p, rng=rng)
        x = T.residual_layer_norm(x, f, w[14], w[15])
    return x


def _split_layer_stack(params, config, x, bias):
    """`_layer_stack` of a forward-only x without dropout: the calling thread
    runs the front half of the rows (the larger, for an odd count) and
    `T._worker` the back half, in the caller's context so that its
    np.errstate holds there too; the halves are joined along the rows.  An
    error in either half propagates, and only once the worker's half has
    ended."""
    h = (x.shape[0] + 1) // 2
    back = T._worker().submit(contextvars.copy_context().run, _layer_stack, params, config,
                              T.constant(x.data[h:]), bias[h:], 0.0, None)
    try:
        front = _layer_stack(params, config, T.constant(x.data[:h]), bias[:h], 0.0, None)
    finally:
        futures.wait((back,))
    return T.constant(np.concatenate((front.data, back.result().data)))


def pack_batch(seqs):
    """Pad a list of EncodedSequence into the array dict encode_batch expects.

    Every sequence must pass `EncodedSequence.validate`, and the first that
    does not raises its ContractError: a sequence with no words, or with an
    entity whose mention positions are empty or outside that sequence's own
    words (in a batch, such a position could name another row's padding).
    Only the entity and position-set counts are compared before packing.
    Then every packed mention position is compared with its row's word
    count in one numpy call (an empty mention set is packed as position
    -1, which fails it), and `validate` runs on every sequence, to raise,
    only when that check or the word counts fail.  (Its Python min and max
    cost ~0.5 us a mention, and an NER entity-mask batch has 120.)

    Padding slots hold id 0, the [PAD] word and the [PAD] entity.  The
    padded rows go into two Python lists, ids and positions in one and the
    masks in the other, and each list is converted by one `np.fromiter`
    call; the six arrays are views of the two.  (A slice write per entity
    costs ~1 us.)"""
    if any(len(s.entity_ids) != len(s.entity_positions) for s in seqs):
        _validate(seqs)  # the packed layout needs these counts to agree
    B = len(seqs)
    counts = [s.num_words for s in seqs]
    M = max(counts, default=1)
    N = max((s.num_entities for s in seqs), default=0)
    # 1 also when every mention set is empty, which the checks after packing refuse
    P = max(1, max((len(p) for s in seqs for p in s.entity_positions), default=1))
    width = max(M, N, P)
    zeros, fzeros, ones = [0] * width, [0.0] * width, [1.0] * width
    # the padding and the mask of a position row that holds k positions, by k;
    # an empty row's padding starts with -1, which the check after packing refuses
    pos_pads = [[-1] + zeros[:P - 1]] + [zeros[:P - k] for k in range(1, P + 1)]
    pos_masks = [ones[:k] + fzeros[:P - k] for k in range(P + 1)]
    ids, masks = [], []  # word rows, then entity rows, then position rows
    for s in seqs:
        m = s.num_words
        ids.extend(s.word_ids)  # not +=: an ndarray would take it as a broadcast add
        ids += zeros[:M - m]
        masks += ones[:m]
        masks += fzeros[:M - m]
    for s in seqs:
        n = s.num_entities
        ids.extend(s.entity_ids)
        ids += zeros[:N - n]
        masks += ones[:n]
        masks += fzeros[:N - n]
    for s in seqs:
        for pos in s.entity_positions:
            ids.extend(pos)  # not += either: an ndarray of positions would broadcast
            ids += pos_pads[len(pos)]
            masks += pos_masks[len(pos)]
        # padded entities keep one dummy position so the position-set invariant holds
        ids += zeros[:P] * (N - s.num_entities)
        masks += pos_masks[1] * (N - s.num_entities)
    ids = np.fromiter(ids, np.int64, len(ids))
    masks = np.fromiter(masks, np.float64, len(masks))
    a, b = B * M, B * (M + N)
    pos = ids[b:].reshape(B, N, P)
    # a padding slot's position 0 is in range once every row has a word, and
    # as unsigned a negative position compares above any word count
    bounds = np.array(counts, np.uint64)[:, None, None]
    if not all(counts) or np.count_nonzero(pos.view(np.uint64) >= bounds):
        _validate(seqs)
    return {
        "word_ids": ids[:a].reshape(B, M),
        "word_mask": masks[:a].reshape(B, M),
        "entity_ids": ids[a:b].reshape(B, N),
        "entity_mask": masks[a:b].reshape(B, N),
        "entity_pos": pos,
        "entity_pos_mask": masks[b:].reshape(B, N, P),
    }


def _validate(seqs):
    """`EncodedSequence.validate` each sequence in order, so that the first
    invalid one raises its own ContractError."""
    for s in seqs:
        s.validate()


def encode(params, config, seq: EncodedSequence, rng=None, train=False) -> ContextualOutput:
    """Single-sequence convenience wrapper around encode_batch, so its
    checks are theirs, in their order: `pack_batch` validates the sequence,
    then `encode_batch` checks its length against max_positions."""
    packed = pack_batch([seq])
    out = encode_batch(params, config, packed, rng=rng, train=train)
    m, n = seq.num_words, seq.num_entities
    return ContextualOutput(
        word_vectors=out.word_vectors[0, :m],
        entity_vectors=out.entity_vectors[0, :n],
        word_tensor=out.word_tensor,
        entity_tensor=out.entity_tensor,
    )
