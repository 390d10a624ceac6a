"""Bidirectional transformer over a joint word + entity token sequence.

Entity tokens carry no sequence position of their own: each one is tied to
its mention span through position embeddings summed (or averaged, behind a
config flag) over the mention's word positions.  Words and entities then go
through ordinary full self-attention together.

Small batches spend their time on per-node bookkeeping, so the graph is kept
short: the whole input layer (word, position and type lookups, the entity
lookup, projection, type row and mention-position term, and the join of
the two token kinds) is one `T.input_embedding` node, each residual add
lives inside the `T.residual_layer_norm` after it, and the attention score
mask is built once per `encode_batch` and read by every layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import CapacityError, ConfigError, ContractError, VocabError

WORD_TYPE_ID = 0
ENTITY_TYPE_ID = 1
TYPE_ROWS = 2  # rows of type_emb and entity_type_emb, one per token type

NEG_INF = -1e30


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

    def validate(self, config: EncoderConfig | None = None):
        m = len(self.word_ids)
        if len(self.entity_ids) != len(self.entity_positions):
            raise ContractError("entity_ids and entity_positions length mismatch")
        for pos in self.entity_positions:
            if not pos:
                raise ContractError("entity with empty mention position set")
            if min(pos) < 0 or max(pos) >= m:
                raise ContractError(f"entity position out of range [0, {m})")
        if config is not None and m > config.max_positions:
            raise CapacityError(f"sequence of {m} words exceeds max_positions {config.max_positions}")
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
    """(name, shape, init) of every encoder parameter, in `init_params`' draw order."""
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


def init_params(config: EncoderConfig, rng) -> dict:
    """Fresh encoder parameter dict keyed by stable names."""
    return draw_params(param_specs(config.validate()), rng)


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
    """
    word_ids = np.asarray(batch["word_ids"])
    if word_ids.size and (word_ids.min() < 0 or word_ids.max() >= config.word_vocab_size):
        raise VocabError(f"word id out of range for vocab of {config.word_vocab_size}")
    tables = [params["word_emb"], params["pos_emb"], params["type_emb"]]
    types = (WORD_TYPE_ID, ENTITY_TYPE_ID)
    entity_ids = np.asarray(batch.get("entity_ids", np.zeros((len(word_ids), 0), dtype=np.int64)))
    if not entity_ids.shape[1]:
        return T.input_embedding(tables, word_ids, types)
    if entity_ids.min() < 0 or entity_ids.max() >= config.entity_vocab_size:
        raise VocabError(f"entity id out of range for vocab of {config.entity_vocab_size}")
    position_mask = np.asarray(batch["entity_pos_mask"], dtype=np.float64)
    if not np.all(position_mask.sum(axis=-1) > 0):
        raise ContractError("entity with empty mention position set")
    tables += [params["entity_emb"], params["entity_proj_w"], params["entity_proj_b"], params["entity_type_emb"]]
    return T.input_embedding(tables, word_ids, types, entity_ids, batch["entity_pos"], position_mask,
                             mean=config.entity_position_mode == "mean")


def _attention(params, config, x, bias, layer, p, rng):
    pre = f"layer{layer}.attn."
    q = T.linear(x, params[pre + "wq"], params[pre + "qb"])
    k = T.linear(x, params[pre + "wk"], params[pre + "kb"])
    v = T.linear(x, params[pre + "wv"], params[pre + "vb"])
    ctx = T.attention(q, k, v, bias, config.heads, p=p, rng=rng)
    return T.linear(ctx, params[pre + "wo"], params[pre + "ob"])


def _ffn(params, config, x, layer):
    pre = f"layer{layer}.ffn."
    h = T.gelu(T.linear(x, params[pre + "w1"], params[pre + "b1"]))
    return T.linear(h, params[pre + "w2"], params[pre + "b2"])


def encode_batch(params, config, batch, rng=None, train=False):
    """Run a padded batch through the encoder.

    `batch` is a dict with word_ids (B, M), word_mask (B, M), entity_ids
    (B, N), entity_mask (B, N), entity_pos (B, N, P), entity_pos_mask
    (B, N, P).  N may be 0.  Returns ContextualOutput with graph tensors
    attached for training use.
    """
    p = config.dropout if train else 0.0
    if p > 0 and rng is None:
        raise ContractError("training-mode encode with dropout needs an rng")
    word_ids = np.asarray(batch["word_ids"])
    word_mask = np.asarray(batch["word_mask"], dtype=np.float64)
    B, M = word_ids.shape
    if M > config.max_positions:
        raise CapacityError(f"{M} words exceed max_positions {config.max_positions}")

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

    for l in range(config.layers):
        a = T.dropout(_attention(params, config, x, bias, l, p, rng), p, rng)
        x = T.residual_layer_norm(x, a, params[f"layer{l}.attn_ln.gain"], params[f"layer{l}.attn_ln.bias"])
        f = T.dropout(_ffn(params, config, x, l), p, rng)
        x = T.residual_layer_norm(x, f, params[f"layer{l}.ffn_ln.gain"], params[f"layer{l}.ffn_ln.bias"])

    wt = x[:, :M, :]
    et = x[:, M:, :] if n_ent else T.constant(np.zeros((B, 0, config.hidden_size)))
    return ContextualOutput(word_vectors=wt.data, entity_vectors=et.data, word_tensor=wt, entity_tensor=et)


def pack_batch(seqs):
    """Pad a list of EncodedSequence into the array dict encode_batch expects.

    Padding slots hold id 0, the [PAD] word and the [PAD] entity."""
    B = len(seqs)
    M = max((s.num_words for s in seqs), default=1)
    N = max((s.num_entities for s in seqs), default=0)
    P = max((max((len(p) for p in s.entity_positions), default=1) for s in seqs), default=1)
    word_ids = np.zeros((B, M), dtype=np.int64)
    word_mask = np.zeros((B, M))
    entity_ids = np.zeros((B, N), dtype=np.int64)
    entity_mask = np.zeros((B, N))
    entity_pos = np.zeros((B, N, P), dtype=np.int64)
    entity_pos_mask = np.zeros((B, N, P))
    # padded entities keep one dummy position so the position-set invariant holds
    entity_pos_mask[:, :, 0] = 1.0
    for b, s in enumerate(seqs):
        m = s.num_words
        word_ids[b, :m] = s.word_ids
        word_mask[b, :m] = 1.0
        for j, (eid, pos) in enumerate(zip(s.entity_ids, s.entity_positions)):
            entity_ids[b, j] = eid
            entity_mask[b, j] = 1.0
            entity_pos[b, j, : len(pos)] = pos
            entity_pos_mask[b, j, :] = 0.0
            entity_pos_mask[b, j, : len(pos)] = 1.0
    return {
        "word_ids": word_ids,
        "word_mask": word_mask,
        "entity_ids": entity_ids,
        "entity_mask": entity_mask,
        "entity_pos": entity_pos,
        "entity_pos_mask": entity_pos_mask,
    }


def encode(params, config, seq: EncodedSequence, rng=None, train=False) -> ContextualOutput:
    """Single-sequence convenience wrapper around encode_batch."""
    seq.validate(config)
    out = encode_batch(params, config, pack_batch([seq]), rng=rng, train=train)
    m, n = seq.num_words, seq.num_entities
    return ContextualOutput(
        word_vectors=out.word_vectors[0, :m],
        entity_vectors=out.entity_vectors[0, :n],
        word_tensor=out.word_tensor,
        entity_tensor=out.entity_tensor,
    )
