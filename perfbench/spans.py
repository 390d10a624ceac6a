"""Span tracer for the traced run.

The tracer wraps public entlm functions as module attributes, only while a
traced phase runs, and restores them afterwards; `src/` is never edited.  A
span is [name, start, end, parent span index, op id], kept in memory and
written out when the run ends.  Op ids are the index of the timed op (train
step or eval item); -1 marks time outside any timed op (model init, the first
forward of a repeat, the tail of a repeat), and -2-i marks set-up repetition i.
Counters are taken at the same wrappers, only inside timed ops.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

from entlm import align, cloze, corpus, encoder, heads, linker, pretrain, vocab
from entlm import tensor as T

IGNORE_LABEL = corpus.IGNORE_LABEL

# tensor ops that each add one graph node (reduce_mean is scale(reduce_sum))
GRAPH_OPS = ("add", "sub", "mul", "scale", "matmul", "embedding", "layer_norm", "gelu",
             "softmax", "dropout", "concat", "reduce_sum", "reshape", "transpose", "getitem",
             "cross_entropy_logits")

# AdamW traffic per updated element: read param, grad, m, v; write param, m, v
ADAMW_ARRAYS_TOUCHED = 7

RUNTIME_LAYERS = ("tensor", "encoder", "corpus", "pretrain", "heads", "cloze", "align")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()  # committed counts of closed timed ops
        self._pending = Counter()  # counts of the open op
        self._op_first_span = 0
        self.op_id = -1
        self.kind = ""  # kind of the current eval item ("re", "ner", ...)
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None, span=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                rec = [name, time.perf_counter(), 0.0,
                       tracer._stack[-1] if tracer._stack else -1, tracer.op_id]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    tracer._stack.pop()
            else:
                out = fn(*args, **kwargs)
            if after is not None and tracer.op_id >= 0:
                after(tracer._pending, tracer.kind, args, kwargs, out)
            return out

        return wrapper

    def patch(self, owner, attr, name, after=None, span=True):
        orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, orig, after=after, span=span))
        self._patches.append((owner, attr, orig))

    def marker(self, clock):
        """clock.mark as a 'bench.probe' span that closes the open op and opens the next."""
        traced = self.wrap("bench.probe", clock.mark)

        def mark():
            self._commit()
            traced()
            self.op_id = len(clock.raw_ms)
            self._op_first_span = len(self.spans)

        return mark

    def close(self, clock):
        clock.close()
        self._commit()

    def gap(self, clock):
        """Drop the open op: its spans move to op id -1 and its counts are discarded."""
        clock.gap()
        for rec in self.spans[self._op_first_span:]:
            if rec[4] == self.op_id:
                rec[4] = -1
        self._pending.clear()
        self.op_id = -1

    def _commit(self):
        self.counts.update(self._pending)
        self._pending.clear()
        self.op_id = -1

    # -- installing --------------------------------------------------------

    def install(self, count_graph):
        """Wrap every driven public function; `restore()` undoes it.

        count_graph wraps every tensor op to count graph nodes and matmul
        flops; it is left out of forward-only runs, which report no per-step
        tensor metrics, to keep their tracing overhead low."""
        p = self.patch
        for op in GRAPH_OPS if count_graph else ():
            p(T, op, "tensor." + op, span=False,
              after=_count_matmul if op == "matmul" else _count_node)
        p(T, "backward", "tensor.backward")
        for owner in (encoder, pretrain, heads):
            p(owner, "pack_batch", "encoder.pack_batch", after=_count_pad)
            p(owner, "encode_batch", "encoder.encode_batch", after=_count_encode)
        for owner in (encoder, cloze):
            p(owner, "encode", "encoder.encode")
        for owner in (corpus, pretrain):
            p(owner, "mask_batch", "corpus.mask_batch")
        for fn in ("encode_document", "split_sequences", "build_word_vocab"):
            p(corpus, fn, "corpus." + fn)
        p(pretrain, "train", "pretrain.train")
        p(pretrain, "init_model", "pretrain.init_model")
        p(pretrain, "pretrain_step_loss", "pretrain.step_loss", after=_count_step_loss)
        p(pretrain, "mlm_loss", "pretrain.mlm_loss", after=_count_mlm)
        p(pretrain, "mep_loss", "pretrain.mep_loss", after=_count_mep)
        p(pretrain.AdamW, "step", "pretrain.adamw", after=_count_adamw)
        p(pretrain, "save_checkpoint", "pretrain.save_checkpoint")
        p(pretrain, "load_checkpoint", "pretrain.load_checkpoint")
        for fn in ("re_classify", "ner_predict", "qa_predict", "make_re_model", "make_ner_model",
                   "make_qa_model"):
            p(heads, fn, "heads." + fn)
        p(cloze, "score_query", "cloze.score_query", after=_count_fallback)
        for fn in ("feature_dump", "cwr_mrr", "modularity"):
            p(align, fn, "align." + fn)
        p(vocab, "build_entity_vocab", "vocab.build_entity_vocab")
        p(vocab, "collect_mention_stats", "vocab.collect_mention_stats")
        p(linker, "build_mention_map", "linker.build_mention_map")
        p(linker, "detect_entities", "linker.detect_entities")

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": ["name", "start", "end", "parent", "op_id"]}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


# -- counters ----------------------------------------------------------------


def _count_node(counts, kind, args, kwargs, out):
    if not any(out is a for a in args):  # dropout at rate 0 returns its input
        counts["graph_nodes"] += 1


def _count_matmul(counts, kind, args, kwargs, out):
    counts["graph_nodes"] += 1
    counts["matmul_calls"] += 1
    counts["matmul_fwd_flop"] += 2 * int(np.prod(out.shape)) * args[0].shape[-1]


def _count_pad(counts, kind, args, kwargs, out):
    wm, em = out["word_mask"], out["entity_mask"]
    counts["pack_slots"] += wm.size + em.size
    counts["pack_real"] += int(wm.sum() + em.sum())


def _count_encode(counts, kind, args, kwargs, out):
    counts["encode_batch_calls"] += 1
    counts["encode_batch_calls@" + kind] += 1


def _count_step_loss(counts, kind, args, kwargs, out):
    counts["step_loss_calls"] += 1


def _count_mlm(counts, kind, args, kwargs, out):
    labels = np.asarray(args[1])
    counts["mlm_rows"] += labels.size
    counts["mlm_live"] += int((labels != IGNORE_LABEL).sum())


def _count_mep(counts, kind, args, kwargs, out):
    counts["mep_calls"] += 1
    counts["mep_skipped"] += int(bool(out[1]))


def _count_adamw(counts, kind, args, kwargs, out):
    opt = args[0]
    trainable = args[2] if len(args) > 2 else kwargs.get("trainable")
    n = sum(p.data.size for name, p in opt.params.items()
            if p.requires_grad and (trainable is None or name in trainable))
    counts["adamw_bytes"] += ADAMW_ARRAYS_TOUCHED * 8 * n


def _count_fallback(counts, kind, args, kwargs, out):
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    if mode != "word":
        _scores, used = out
        counts["cloze_entity_candidates"] += len(used)
        counts["cloze_fallback"] += sum(1 for u in used if not u)


# -- per-layer metrics ---------------------------------------------------------


def _ratio(a, b):
    return a / b if b else 0.0


def _overlap_ms(a, b, lo, hi, scale):
    """Speed-normalised ms of [a, b] that falls inside the op windows."""
    i = int(np.searchsorted(hi, a, side="right"))
    total = 0.0
    while i < lo.size and lo[i] < b:
        total += (min(b, hi[i]) - max(a, lo[i])) * scale[i]
        i += 1
    return total * 1000.0


def _attribute(spans, windows, op_scale):
    """Inclusive and self ms of every span, counting only time inside timed ops.

    A span's self time is its interval minus its children's; both are cut to
    the op windows, so a span that covers many ops (a whole train() call) is
    split among them and the probes between ops are never counted.
    """
    lo = np.array([w[0] for w in windows])
    hi = np.array([w[1] for w in windows])
    scale = np.asarray(op_scale)
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        children[rec[3]].append(i)
    incl = np.zeros(len(spans))
    selft = np.zeros(len(spans))
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        incl[i] = _overlap_ms(start, end, lo, hi, scale)
        cur, own = start, 0.0
        for c in children[i]:
            own += _overlap_ms(cur, spans[c][1], lo, hi, scale)
            cur = spans[c][2]
        selft[i] = own + _overlap_ms(cur, end, lo, hi, scale)
    return incl, selft


def layer_metrics(tracer, windows, op_scale, setup_scales, kinds, pretraining):
    """Per-layer metrics from the spans and counters of one traced phase.

    windows[i] and op_scale[i] are the interval and probe speed factor of
    timed op i, setup_scales[i] that of set-up repetition i, kinds[i] the kind
    of op i.  All times are speed-normalised like the end-to-end ones.
    """
    spans = tracer.spans
    incl, self_ms = _attribute(spans, windows, op_scale)
    run_mean_scale = float(np.mean(op_scale)) if len(op_scale) else 1.0

    total = defaultdict(float)
    selft = defaultdict(float)
    per_setup = defaultdict(lambda: defaultdict(float))
    all_calls = defaultdict(list)
    timed_calls = Counter()
    for i, (name, start, end, _parent, op) in enumerate(spans):
        total[name] += incl[i]
        selft[name] += self_ms[i]
        ms = (end - start) * 1000.0
        if op <= -2:
            per_setup[name][op] += ms * setup_scales[-2 - op]
            all_calls[name].append(ms * setup_scales[-2 - op])
        else:
            all_calls[name].append(ms * (op_scale[op] if op >= 0 else run_mean_scale))
        if op >= 0:
            timed_calls[name] += 1

    n_ops = len(op_scale)
    item_count = Counter(kinds)
    steps = n_ops if pretraining else 0
    items = 0 if pretraining else n_ops
    c = tracer.counts

    def per_step(x):
        return _ratio(x, steps)

    def per_item(x):
        return _ratio(x, items)

    def setup_ms(name):
        vals = list(per_setup[name].values())
        return float(np.median(vals)) if vals else 0.0

    def mean_call(name):
        vals = all_calls[name]
        return float(np.mean(vals)) if vals else 0.0

    m = {
        "corpus.mask_batch.ms_per_step": per_step(total["corpus.mask_batch"]),
        "pretrain.loop_self.ms_per_step": per_step(selft["pretrain.train"]),
        "corpus.mlm_label_ratio": _ratio(c["mlm_live"], c["mlm_rows"]),
        "corpus.mep_skipped_ratio": _ratio(
            c["step_loss_calls"] - (c["mep_calls"] - c["mep_skipped"]), c["step_loss_calls"]),
        "encoder.pack_batch.ms_per_step": per_step(total["encoder.pack_batch"]),
        "encoder.encode_batch.ms_per_step": per_step(total["encoder.encode_batch"]),
        "encoder.encode_batch.calls_per_item": per_item(c["encode_batch_calls"]),
        "encoder.pad_ratio": 1.0 - _ratio(c["pack_real"], c["pack_slots"]) if c["pack_slots"] else 0.0,
        "encoder.encode_batch.ms_per_item": per_item(total["encoder.encode_batch"]),
        "tensor.backward.ms_per_step": per_step(total["tensor.backward"]),
        "tensor.graph_nodes_per_step": per_step(c["graph_nodes"]),
        "tensor.matmul.calls_per_step": per_step(c["matmul_calls"]),
        # forward product plus the two backward products of every training matmul
        "tensor.matmul.gflop_per_step": per_step(3 * c["matmul_fwd_flop"]) / 1e9,
        "pretrain.heads_loss.ms_per_step": per_step(total["pretrain.mlm_loss"] + total["pretrain.mep_loss"]),
        "pretrain.adamw.ms_per_step": per_step(total["pretrain.adamw"]),
        "pretrain.adamw.bytes_per_step": per_step(c["adamw_bytes"]),
        "pretrain.save_checkpoint.ms": mean_call("pretrain.save_checkpoint"),
        "pretrain.load_checkpoint.ms": mean_call("pretrain.load_checkpoint"),
        "heads.re.ms_per_item": _ratio(total["heads.re_classify"], item_count["re"]),
        "heads.ner.ms_per_item": _ratio(total["heads.ner_predict"], item_count["ner"]),
        "heads.ner.encode_calls_per_item": _ratio(c["encode_batch_calls@ner"], item_count["ner"]),
        "heads.qa.ms_per_item": _ratio(total["heads.qa_predict"], item_count["qa"]),
        "heads.qa.windows_per_item": _ratio(c["encode_batch_calls@qa"], item_count["qa"]),
        "heads.qa_predict.self_ms_per_item": _ratio(selft["heads.qa_predict"], item_count["qa"]),
        "cloze.ms_per_query": _ratio(total["cloze.score_query"], item_count["cloze"]),
        "cloze.encode_calls_per_query": _ratio(c["encode_batch_calls@cloze"], item_count["cloze"]),
        "cloze.word_fallback_ratio": _ratio(c["cloze_fallback"], c["cloze_entity_candidates"]),
        "align.feature_dump.ms_per_item": _ratio(total["align.feature_dump"],
                                                 timed_calls["align.feature_dump"]),
        "align.cwr_mrr.ms": mean_call("align.cwr_mrr"),
        "align.modularity.ms": mean_call("align.modularity"),
        "vocab.build_entity_vocab.ms": setup_ms("vocab.build_entity_vocab"),
        "linker.detect_entities.ms": setup_ms("linker.detect_entities"),
        "corpus.encode_document.ms": setup_ms("corpus.encode_document"),
    }
    layer_self = defaultdict(float)
    for name, v in selft.items():
        layer_self[name.split(".")[0]] += v  # "bench" (the probe) never overlaps an op
    for layer in RUNTIME_LAYERS:
        m[f"{layer}.self_ms_per_op"] = _ratio(layer_self[layer], n_ops)
    return m

