"""Downstream heads: extractive QA, relation classification, span NER.

Each task comes in a word-baseline variant and an entity-augmented variant.
QA appends detected entity tokens as extra input features; RE and NER reuse
the entity-[MASK] machinery ([HEAD]/[TAIL] tokens for RE, one [MASK] entity
per candidate span for NER) and classify the contextualized entity vectors.
"""

from __future__ import annotations

import copy
import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import (NEG_INF, EncodedSequence, EncoderConfig, check_params, draw_params, encode_batch, pack_batch,
                      param_specs)
from .errors import ConfigError, ContractError
from .files import read_json, read_lines
from .pretrain import AdamW, warmup_linear_decay
from .seeding import substream

MAX_ANSWER_LEN = 30
QA_WINDOW_STRIDE = 128
NER_MAX_SPAN_LEN = 16
NER_NON_ENTITY = "O"
RE_HEAD_MARKER = "<ent>"
RE_TAIL_MARKER = "<ent2>"

# entity-mask NER: candidate spans per batch row of the sentence's one encoder pass
NER_SPANS_PER_ROW = 64

# each task's head variants, the word baseline first
VARIANTS = {"qa": ("word", "entity"), "re": ("word-markers", "entity-mask"),
            "ner": ("word-endpoints", "entity-mask")}


def head_specs(task, variant, hidden_size, labels=None):
    """(name, shape, init) of a task head for one of VARIANTS[task], weight
    then bias.  The weight is QA (H, 2), RE (2H, labels), NER (2H, labels)
    over word endpoints and (H, labels) over an entity-[MASK]."""
    if task == "qa":
        n_in, n_out = hidden_size, 2
    else:
        pair = task == "re" or variant == "word-endpoints"
        n_in, n_out = (2 if pair else 1) * hidden_size, len(labels)
    return [(f"{task}_head.w", (n_in, n_out), "normal"), (f"{task}_head.b", (n_out,), "zeros")]


# ---------------------------------------------------------------------------
# instances and file formats


@dataclass
class QAInstance:
    qid: str
    question_tokens: list
    context_tokens: list
    answers: list  # gold answer strings
    gold_spans: list = field(default_factory=list)  # (start, end) token spans in context
    question_entities: list = field(default_factory=list)  # (start, end, entity_id)
    context_entities: list = field(default_factory=list)
    q_lang: str = "en"
    c_lang: str = "en"

    def validate(self):
        n = len(self.context_tokens)
        if not n:
            raise ContractError("empty context")
        for s, e in self.gold_spans:
            if not (0 <= s < e <= n):
                raise ContractError(f"gold span ({s}, {e}) outside context of {n} tokens")
        for what, entities, size in (("question", self.question_entities, len(self.question_tokens)),
                                     ("context", self.context_entities, n)):
            for s, e, _eid in entities:
                if not (0 <= s < e <= size):
                    raise ContractError(f"{what} entity ({s}, {e}) outside {what} of {size} tokens")
        return self


@dataclass
class REInstance:
    tokens: list
    head_span: tuple  # (start, end) exclusive
    tail_span: tuple
    label: str

    def validate(self):
        n = len(self.tokens)
        for s, e in (self.head_span, self.tail_span):
            if not (0 <= s < e <= n):
                raise ContractError(f"span ({s}, {e}) outside sentence of {n} tokens")
        (hs, he), (ts, te) = self.head_span, self.tail_span
        if hs < te and ts < he:
            raise ContractError("head and tail spans overlap")
        return self


@dataclass
class NERInstance:
    tokens: list
    gold_spans: list = field(default_factory=list)  # (start, end, type)

    def validate(self):
        n = len(self.tokens)
        if not n:
            raise ContractError("empty sentence")
        for s, e, _t in self.gold_spans:
            if not (0 <= s < e <= n):
                raise ContractError(f"span ({s}, {e}) outside sentence of {n} tokens")
        return self


def _tokenize_with_offsets(text):
    """text.split() and the character offset of each token."""
    words = list(re.finditer(r"\S+", text))
    return [w.group() for w in words], [w.start() for w in words]


def _char_span_to_tokens(starts, tokens, answer_start, answer_text):
    """(start, end) of the tokens overlapping the answer's characters, or None."""
    end_char = answer_start + len(answer_text)
    hits = [ti for ti, st in enumerate(starts) if st + len(tokens[ti]) > answer_start and st < end_char]
    return (hits[0], hits[-1] + 1) if hits else None


def _qa_records(payload):
    """The questions of one JSON value: a SQuAD-shaped object's, else the value itself."""
    if "data" not in payload:
        return [payload]
    return [{"context": para["context"], **qa}
            for article in payload["data"] for para in article["paragraphs"] for qa in para["qas"]]


def _entity_rows(record, field):
    """A question's `field` rows as (start, end, entity id) tuples; ContractError,
    naming the field, unless it is a list of lists of three ints (bools refused)."""
    rows = record.get(field, [])
    if not isinstance(rows, list):
        raise ContractError(f"{field} {rows!r} is not a list")
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3 and all(type(v) is int for v in row)):
            raise ContractError(f"{field} row {row!r} is not [start, end, entity id] of three integers")
    return [tuple(row) for row in rows]


def load_qa_data(path):
    """Read QA instances from SQuAD-shaped JSON (one object whose `data` lists
    articles of paragraphs of questions) or else from JSON lines.  A question
    without an `id` takes its index; no two questions may share an id, and
    each entity row is three integers."""
    insts = []
    qids = set()

    def add(payload):
        for r in _qa_records(payload):
            qid = str(r.get("id", len(insts)))
            if qid in qids:
                raise ContractError(f"question id {qid!r} is used by an earlier question")
            qids.add(qid)
            ctx_tokens, starts = _tokenize_with_offsets(r["context"])
            answers = r.get("answers", [])
            spans = [_char_span_to_tokens(starts, ctx_tokens, a["answer_start"], a["text"]) for a in answers]
            insts.append(
                QAInstance(
                    qid=qid,
                    question_tokens=r["question"].split(),
                    context_tokens=ctx_tokens,
                    answers=[a["text"] for a in answers],
                    gold_spans=[span for span in spans if span],
                    question_entities=_entity_rows(r, "question_entities"),
                    context_entities=_entity_rows(r, "context_entities"),
                    q_lang=r.get("q_lang", r.get("lang", "en")),
                    c_lang=r.get("c_lang", r.get("lang", "en")),
                ).validate()
            )

    read_json(path, add, lines=True)
    return insts


def _re_instance(line):
    label, toks, head, tail = line.split("\t")
    hs, he = (int(x) for x in head.split())
    ts, te = (int(x) for x in tail.split())
    return REInstance(tokens=toks.split(), head_span=(hs, he), tail_span=(ts, te), label=label).validate()


def load_re_data(path):
    """One example per line: label TAB tokens TAB head_start head_end TAB tail_start tail_end."""
    return read_lines(path, _re_instance)


def bio_to_spans(tags):
    spans = []
    start, typ = None, None
    for i, tag in enumerate(tags + ["O"]):
        if tag.startswith("B-") or tag == "O" or (tag.startswith("I-") and tag[2:] != typ):
            if start is not None:
                spans.append((start, i, typ))
                start, typ = None, None
        if tag.startswith("B-"):
            start, typ = i, tag[2:]
        elif tag.startswith("I-") and start is None:
            start, typ = i, tag[2:]  # tolerate I- openings
    return spans


def _ner_line(line):
    token, *_, tag = line.split()
    if tag != NER_NON_ENTITY and tag[:2] not in ("B-", "I-"):
        raise ContractError(f"tag {tag!r} is not O, B-<type> or I-<type>")
    return token, tag


def load_ner_data(path):
    """CoNLL-style token-per-line with BIO tags; blank lines separate sentences."""
    return [NERInstance(tokens=[t for t, _ in rows], gold_spans=bio_to_spans([g for _, g in rows])).validate()
            for rows in read_lines(path, _ner_line, paragraphs=True)]


# ---------------------------------------------------------------------------
# shared model bundle


@dataclass
class TaskModel:
    """Encoder weights plus one task head."""

    task: str  # "qa", "re" or "ner"
    encoder_config: EncoderConfig
    params: dict  # encoder parameters + task head parameters, nothing else
    word_vocab: object
    entity_vocab: object
    labels: list | None = None  # RE/NER label set
    variant: str = "word"  # task-specific variant tag
    max_span_len: int = NER_MAX_SPAN_LEN  # NER candidate span cap
    skipped_examples: int = 0  # finetune's count of unusable training examples
    skipped_gold_spans: int = 0  # finetune's count of NER gold spans longer than max_span_len


def _encoder_params(config, params):
    """The encoder's entries of `params`: a task model holds them and its own head only."""
    return {name: params[name] for name, _, _ in param_specs(config)}


def _one_of(choices):
    return (lambda x: x in list(choices)), f"one of {json.dumps(list(choices))}"


def _int_from(low):
    return (lambda x: type(x) is int and x >= low), f"an int of at least {low}"


def _labels(task):
    if task == "qa":
        return (lambda x: x is None), "null"
    start = [NER_NON_ENTITY] if task == "ner" else []  # NER's first label is the non-entity one
    must = "a non-empty list of distinct strings" + (f' starting with "{NER_NON_ENTITY}"' if start else "")
    return (lambda x: isinstance(x, list) and x != [] and all(isinstance(y, str) for y in x)
            and len(set(x)) == len(x) and x[: len(start)] == start), must


# the meta `finetune` saves with a task head, as (field, rule) rows in the order they are
# checked: rule(task) gives a test of the field's value and what the value must be
META_FIELDS = (
    ("task", lambda task: _one_of(TASK_LOADERS)),
    ("variant", lambda task: _one_of(VARIANTS[task])),
    ("labels", _labels),
    ("max_span_len", lambda task: _int_from(1)),
    ("skipped_examples", lambda task: _int_from(0)),
    ("skipped_gold_spans", lambda task: _int_from(0)),
)


def check_max_span_len(n):
    """ContractError unless `n` passes the max_span_len row of META_FIELDS."""
    test, rule = dict(META_FIELDS)["max_span_len"](None)
    if not test(n):
        raise ContractError(f"max_span_len {n!r} must be {rule}")


def checkpoint_meta(model: TaskModel):
    """The meta `finetune` saves: each META_FIELDS row's attribute of `model`."""
    return {name: getattr(model, name) for name, _ in META_FIELDS}


def task_model_from_checkpoint(ckpt, path):
    """The TaskModel of a finetuned checkpoint loaded from `path`.  ConfigError
    if its meta has no `task` (a pretrained checkpoint's); else ContractError
    naming `path` unless the meta passes each META_FIELDS rule and the head
    parameters fit `head_specs`."""
    meta = ckpt.meta
    if "task" not in meta:
        raise ConfigError(f"{path}: checkpoint holds no task head; finetune it before eval")
    for name, rule in META_FIELDS:
        test, must = rule(meta["task"])
        if name not in meta or not test(meta[name]):
            value = json.dumps(meta[name], ensure_ascii=False) if name in meta else "missing"
            raise ContractError(f"{path}: meta field {name} is {value}, but must be {must}")
    model = TaskModel(encoder_config=ckpt.encoder_config, params=ckpt.params, word_vocab=ckpt.word_vocab,
                      entity_vocab=ckpt.entity_vocab, **{name: meta[name] for name, _ in META_FIELDS})
    check_params(ckpt.params, head_specs(model.task, model.variant, model.encoder_config.hidden_size, model.labels),
                 path)
    return model


# ---------------------------------------------------------------------------
# extractive QA


def make_qa_model(encoder_config, params, word_vocab, entity_vocab, use_entities=False, seed=0):
    p = _encoder_params(encoder_config, params)
    p.update(draw_params(head_specs("qa", None, encoder_config.hidden_size), substream(seed, "qa-head")))
    return TaskModel(task="qa", encoder_config=encoder_config, params=p, word_vocab=word_vocab,
                     entity_vocab=entity_vocab, variant="entity" if use_entities else "word")


def _qa_sequence(model: TaskModel, inst: QAInstance, ctx_lo, ctx_hi):
    """Build the joint sequence for one context window; returns (seq, ctx_offset).

    The entity variant adds the question's and the window's entities."""
    q = inst.question_tokens
    ctx = inst.context_tokens[ctx_lo:ctx_hi]
    word_ids = model.word_vocab.encode(q) + model.word_vocab.encode(ctx)
    off = len(q)
    entity_ids, entity_positions = [], []
    if model.variant == "entity":
        for s, e, eid in inst.question_entities:
            entity_ids.append(eid)
            entity_positions.append(list(range(s, e)))
        for s, e, eid in inst.context_entities:
            if s >= ctx_lo and e <= ctx_hi:
                entity_ids.append(eid)
                entity_positions.append(list(range(s - ctx_lo + off, e - ctx_lo + off)))
    return EncodedSequence(word_ids=word_ids, entity_ids=entity_ids,
                           entity_positions=entity_positions), off


def _qa_logits(model: TaskModel, seqs):
    """(B, M, 2) start/end logits over the word rows of one batched pass."""
    out = encode_batch(model.params, model.encoder_config, pack_batch(seqs))
    return T.linear(out.word_tensor, model.params["qa_head.w"], model.params["qa_head.b"])


def _first_window_end(model: TaskModel, inst: QAInstance):
    """End of the first context window, the only one the QA loss reads."""
    return min(len(inst.context_tokens), model.encoder_config.max_positions - len(inst.question_tokens))


def _best_span(start_logits, end_logits, max_len=MAX_ANSWER_LEN):
    """Argmax of start+end over valid spans; first hit wins on ties, and
    candidates are ordered by start then length (earliest, then shortest)."""
    n = len(start_logits)
    width = min(max_len, n)
    ends = np.arange(n)[:, None] + np.arange(width)  # (start, end - start) grid
    scores = np.where(ends < n, start_logits[:, None] + end_logits[np.minimum(ends, n - 1)], -np.inf)
    s, length = divmod(int(np.argmax(scores)), width)  # row-major: first maximum in (start, end) order
    return scores[s, length], s, s + length  # (score, start, end_inclusive)


@T.no_grad()
def qa_predict(model: TaskModel, inst: QAInstance):
    """Predicted answer span and score, with sliding windows on long contexts."""
    inst.validate()
    max_pos = model.encoder_config.max_positions
    q_len = len(inst.question_tokens)
    win = max_pos - q_len
    if win < 1:
        raise ContractError("question alone exceeds max_positions")

    n_ctx = len(inst.context_tokens)
    # a window shorter than the stride steps by its own length, so no token goes unread
    windows = list(range(0, max(n_ctx - win, 0) + 1, min(QA_WINDOW_STRIDE, win)))
    if windows[-1] + win < n_ctx:
        windows.append(n_ctx - win)

    bounds = [(lo, min(lo + win, n_ctx)) for lo in windows]
    logits = _qa_logits(model, [_qa_sequence(model, inst, lo, hi)[0]
                                for lo, hi in bounds]).data  # (windows, M, 2)
    best = None
    for (lo, hi), data in zip(bounds, logits):
        score, s, e = _best_span(data[q_len : q_len + hi - lo, 0], data[q_len : q_len + hi - lo, 1])
        if best is None or score > best[0]:
            best = (score, lo + s, lo + e)
    score, s, e = best
    return {"span": (s, e + 1), "text": " ".join(inst.context_tokens[s : e + 1]), "score": float(score)}


def token_f1(pred_text, gold_text):
    pred = pred_text.split()
    gold = gold_text.split()
    if not pred or not gold:
        return float(pred == gold)
    overlap = sum((Counter(pred) & Counter(gold)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


def qa_metrics(predictions, golds):
    """F1/EM per (question language, context language) pair plus G-XLT average.

    predictions: {qid: text}; golds: {qid: (q_lang, c_lang, [gold texts])}.
    """
    if not golds:
        raise ContractError("empty gold set")
    cells = defaultdict(lambda: {"f1": 0.0, "em": 0.0, "n": 0})
    for qid, (q_lang, c_lang, gold_texts) in golds.items():
        pred = predictions.get(qid, "")
        f1 = max((token_f1(pred, g) for g in gold_texts), default=0.0)
        em = max((float(pred == g) for g in gold_texts), default=0.0)
        cell = cells[(q_lang, c_lang)]
        cell["f1"] += f1
        cell["em"] += em
        cell["n"] += 1
    table = {}
    for (ql, cl), c in cells.items():
        table[f"{ql}|{cl}"] = {"f1": c["f1"] / c["n"], "em": c["em"] / c["n"], "n": c["n"]}
    off_diag = [v for k, v in table.items() if k.split("|")[0] != k.split("|")[1]]
    report = {"pairs": table}
    if off_diag:
        report["g_xlt_f1"] = sum(v["f1"] for v in off_diag) / len(off_diag)
        report["g_xlt_em"] = sum(v["em"] for v in off_diag) / len(off_diag)
    diag = [v for k, v in table.items() if k.split("|")[0] == k.split("|")[1]]
    if diag:
        report["xlt_f1"] = sum(v["f1"] for v in diag) / len(diag)
    return report


# ---------------------------------------------------------------------------
# relation extraction


def make_re_model(encoder_config, params, word_vocab, entity_vocab, labels, variant="word-markers", seed=0):
    """RE classifier over concatenated head/tail features.

    word-markers: adds <ent>/<ent2> to a copy of the word vocab and rows for
    them to the word embedding (random init).  entity-mask: [HEAD]/[TAIL]
    entity rows are reset to a bit-exact copy of the entity-[MASK] row.
    """
    if variant not in VARIANTS["re"]:
        raise ContractError(f"unknown RE variant {variant!r}")
    rng = substream(seed, "re-head")
    p = _encoder_params(encoder_config, params)
    cfg = encoder_config
    if variant == "word-markers":
        word_vocab = copy.deepcopy(word_vocab)
        for marker in (RE_HEAD_MARKER, RE_TAIL_MARKER):
            mid = word_vocab.add(marker)
            if mid >= p["word_emb"].shape[0]:
                row = rng.normal(0.0, 0.02, size=(1, cfg.hidden_size))
                p["word_emb"] = T.parameter(np.concatenate([p["word_emb"].data, row]), name="word_emb")
        cfg = EncoderConfig.from_dict({**cfg.to_dict(), "word_vocab_size": len(word_vocab)})
    else:
        emb = p["entity_emb"].data.copy()
        emb[entity_vocab.head_id] = emb[entity_vocab.mask_id]
        emb[entity_vocab.tail_id] = emb[entity_vocab.mask_id]
        p["entity_emb"] = T.parameter(emb, name="entity_emb")
    p.update(draw_params(head_specs("re", variant, cfg.hidden_size, labels), rng))
    return TaskModel(task="re", encoder_config=cfg, params=p, word_vocab=word_vocab,
                     entity_vocab=entity_vocab, labels=list(labels), variant=variant)


def _re_sequence(model: TaskModel, inst: REInstance):
    """Build the input sequence; returns (seq, head position, tail position):
    word positions of the markers for word-markers, else entity indices."""
    inst.validate()
    if model.variant == "word-markers":
        hm = model.word_vocab.token_to_id[RE_HEAD_MARKER]
        tm = model.word_vocab.token_to_id[RE_TAIL_MARKER]
        inserts = sorted([
            (inst.head_span[0], hm, "head_open"),
            (inst.head_span[1], hm, None),
            (inst.tail_span[0], tm, "tail_open"),
            (inst.tail_span[1], tm, None),
        ])
        ids = model.word_vocab.encode(inst.tokens)
        out = []
        locs = {}
        prev = 0
        for pos, mid, tag in inserts:
            out.extend(ids[prev:pos])
            if tag:
                locs[tag] = len(out)
            out.append(mid)
            prev = pos
        out.extend(ids[prev:])
        seq = EncodedSequence(word_ids=out)
        return seq, locs["head_open"], locs["tail_open"]
    seq = EncodedSequence(
        word_ids=model.word_vocab.encode(inst.tokens),
        entity_ids=[model.entity_vocab.head_id, model.entity_vocab.tail_id],
        entity_positions=[list(range(*inst.head_span)), list(range(*inst.tail_span))],
    )
    return seq, 0, 1


def _re_features(model, insts):
    """Batched forward; returns the (B, 2*hidden) concatenated feature tensor."""
    built = [_re_sequence(model, inst) for inst in insts]
    out = encode_batch(model.params, model.encoder_config, pack_batch([b[0] for b in built]))
    src = out.word_tensor if model.variant == "word-markers" else out.entity_tensor
    rows = np.arange(len(insts))
    return T.concat([T.getitem(src, (rows, np.array([b[which] for b in built]))) for which in (1, 2)], axis=1)


def re_logits(model: TaskModel, insts):
    f = _re_features(model, insts)
    return T.linear(f, model.params["re_head.w"], model.params["re_head.b"])


@T.no_grad()
def re_classify(model: TaskModel, inst: REInstance):
    logits = re_logits(model, [inst]).data[0]
    return model.labels[int(np.argmax(logits))]


def re_macro_f1(golds, preds, labels):
    """Macro average of per-relation F1."""
    scores = []
    for lab in labels:
        tp = sum(1 for g, p in zip(golds, preds) if g == lab and p == lab)
        fp = sum(1 for g, p in zip(golds, preds) if g != lab and p == lab)
        fn = sum(1 for g, p in zip(golds, preds) if g == lab and p != lab)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# span-enumeration NER


def enumerate_spans(n, max_span_len=NER_MAX_SPAN_LEN):
    """All (start, end) spans with 1 <= end-start <= max_span_len, ordered by
    start then length."""
    return [(s, e) for s in range(n) for e in range(s + 1, min(s + max_span_len, n) + 1)]


def make_ner_model(encoder_config, params, word_vocab, entity_vocab, types,
                   variant="word-endpoints", max_span_len=NER_MAX_SPAN_LEN, seed=0):
    if variant not in VARIANTS["ner"]:
        raise ContractError(f"unknown NER variant {variant!r}")
    check_max_span_len(max_span_len)
    p = _encoder_params(encoder_config, params)
    labels = [NER_NON_ENTITY] + sorted(t for t in types if t != NER_NON_ENTITY)
    p.update(draw_params(head_specs("ner", variant, encoder_config.hidden_size, labels),
                         substream(seed, "ner-head")))
    return TaskModel(task="ner", encoder_config=encoder_config, params=p, word_vocab=word_vocab,
                     entity_vocab=entity_vocab, labels=labels, variant=variant, max_span_len=max_span_len)


def ner_span_logits(model: TaskModel, inst: NERInstance):
    """(spans, (len(spans), labels) logits) over all candidate spans, from one encoder pass.

    word-endpoints reads each span's first and last word vectors.
    entity-mask gives each span an entity-[MASK] token over its words,
    NER_SPANS_PER_ROW of them per batch row, and reads their vectors.
    """
    inst.validate()
    spans = enumerate_spans(len(inst.tokens), model.max_span_len)
    word_ids = model.word_vocab.encode(inst.tokens)
    if model.variant == "word-endpoints":
        seq = EncodedSequence(word_ids=word_ids)
        wv = encode_batch(model.params, model.encoder_config, pack_batch([seq])).word_tensor
        rows = np.zeros(len(spans), dtype=np.int64)
        starts = np.array([s for s, _ in spans])
        ends = np.array([e - 1 for _, e in spans])
        f = T.concat([T.getitem(wv, (rows, starts)), T.getitem(wv, (rows, ends))], axis=1)
    else:
        rows = [spans[lo : lo + NER_SPANS_PER_ROW] for lo in range(0, len(spans), NER_SPANS_PER_ROW)]
        seqs = [EncodedSequence(word_ids=word_ids, entity_ids=[model.entity_vocab.mask_id] * len(part),
                                entity_positions=[list(range(s, e)) for s, e in part]) for part in rows]
        out = encode_batch(model.params, model.encoder_config, pack_batch(seqs))
        idx = np.arange(len(spans))
        f = T.getitem(out.entity_tensor, (idx // NER_SPANS_PER_ROW, idx % NER_SPANS_PER_ROW))
    return spans, T.linear(f, model.params["ner_head.w"], model.params["ner_head.b"])


@T.no_grad()
def ner_predict(model: TaskModel, inst: NERInstance):
    """Greedy non-overlapping decode of the highest-scoring typed spans."""
    spans, logits = ner_span_logits(model, inst)
    logits = logits.data
    preds = np.argmax(logits, axis=1)
    scored = [
        (logits[i, preds[i]], spans[i], model.labels[preds[i]])
        for i in range(len(spans))
        if model.labels[preds[i]] != NER_NON_ENTITY
    ]
    scored.sort(key=lambda x: (-x[0], x[1]))
    taken = []
    for score, (s, e), typ in scored:
        if all(e <= ts or s >= te for ts, te, _ in taken):
            taken.append((s, e, typ))
    return sorted(taken)


def ner_span_f1(golds, preds):
    """Micro F1 over exact (start, end, type) matches, summed across instances."""
    tp = fp = fn = 0
    for g, p in zip(golds, preds):
        gset, pset = set(g), set(p)
        tp += len(gset & pset)
        fp += len(pset - gset)
        fn += len(gset - pset)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


# ---------------------------------------------------------------------------
# evaluation and fine-tuning


TASK_LOADERS = {"qa": load_qa_data, "re": load_re_data, "ner": load_ner_data}


def evaluate(model: TaskModel, insts):
    """The task's report over labelled examples, as `entlm eval` writes it.

    QA: `qa_metrics` of the `qa_predict` answers.  RE: macro F1 and accuracy
    of `re_classify`.  NER: micro span F1 of `ner_predict`.
    """
    if not insts:
        raise ContractError(f"empty {model.task} eval set")
    if model.task == "qa":
        preds = {i.qid: qa_predict(model, i)["text"] for i in insts}
        return qa_metrics(preds, {i.qid: (i.q_lang, i.c_lang, i.answers) for i in insts})
    if model.task == "re":
        preds = [re_classify(model, i) for i in insts]
        golds = [i.label for i in insts]
        return {"macro_f1": re_macro_f1(golds, preds, model.labels),
                "accuracy": sum(g == p for g, p in zip(golds, preds)) / len(golds), "n": len(golds)}
    preds = [ner_predict(model, i) for i in insts]
    return {"span_f1": ner_span_f1([i.gold_spans for i in insts], preds), "n": len(insts)}


def _dev_score(task, report):
    """Dev selection score: QA F1 averaged over language pairs, RE macro F1, NER span F1."""
    if task == "qa":
        f1s = [v["f1"] for v in report["pairs"].values()]
        return sum(f1s) / len(f1s)
    return report["macro_f1" if task == "re" else "span_f1"]


# fine-tuning epochs when FinetuneConfig.epochs is unset
DEFAULT_EPOCHS = {"qa": 2, "re": 5, "ner": 5}

# share of fine-tuning steps spent in linear warmup
FINETUNE_WARMUP_FRAC = 0.06


@dataclass
class FinetuneConfig:
    """The settings of the `finetune` command's flags; AdamW runs on the
    paper's `pretrain.ADAMW_*` constants and the warmup on FINETUNE_WARMUP_FRAC."""

    lr: float = 2e-5
    epochs: int | None = None  # None: the task's DEFAULT_EPOCHS
    batch_size: int = 8
    seed: int = 0

    def validate(self):
        if self.epochs is not None and self.epochs < 1:
            raise ContractError(f"epochs {self.epochs} must be >= 1")
        if self.batch_size < 1:
            raise ContractError(f"batch_size {self.batch_size} must be >= 1")
        if not 0 <= self.lr < math.inf:  # NaN fails too
            raise ContractError(f"lr {self.lr} must be finite and >= 0")
        return self


def finetune_lr_at(step, total_steps, cfg: FinetuneConfig):
    """Linear warmup over the first 6% of steps, then linear decay to zero."""
    return warmup_linear_decay(step, total_steps, math.ceil(FINETUNE_WARMUP_FRAC * total_steps), cfg.lr)


def _re_batch_loss(model, batch):
    logits = re_logits(model, batch)
    labels = np.array([model.labels.index(inst.label) for inst in batch])
    return T.cross_entropy_logits(logits, labels)


def _ner_batch_loss(model, batch):
    """Mean over sentences of each sentence's mean cross-entropy over all its candidate spans."""
    losses = []
    for inst in batch:
        spans, logits = ner_span_logits(model, inst)
        gold = {(s, e): t for s, e, t in inst.gold_spans}
        labels = np.array([model.labels.index(gold.get(sp, NER_NON_ENTITY)) for sp in spans])
        losses.append(T.cross_entropy_logits(logits, labels))
    return T.scale(sum(losses[1:], losses[0]), 1.0 / len(losses))


def _qa_batch_loss(model, batch):
    """Mean of the start and the end cross-entropy over the first windows of
    the batch's usable examples, encoded in one pass."""
    batch = usable_examples(model, batch)
    if not batch:
        raise ContractError("QA batch without any usable gold span")
    ends = [_first_window_end(model, inst) for inst in batch]
    built = [_qa_sequence(model, inst, 0, hi) for inst, hi in zip(batch, ends)]
    logits = _qa_logits(model, [seq for seq, _ in built])
    valid = np.full(logits.shape[:2], NEG_INF)
    for b, ((_, off), hi) in enumerate(zip(built, ends)):
        valid[b, off : off + hi] = 0.0
    gold = np.array([(off + inst.gold_spans[0][0], off + inst.gold_spans[0][1] - 1)
                     for inst, (_, off) in zip(batch, built)])
    start = T.cross_entropy_logits(logits[:, :, 0] + T.constant(valid), gold[:, 0])
    end = T.cross_entropy_logits(logits[:, :, 1] + T.constant(valid), gold[:, 1])
    return T.scale(start + end, 0.5)


_BATCH_LOSS = {"qa": _qa_batch_loss, "re": _re_batch_loss, "ner": _ner_batch_loss}


def usable_examples(model: TaskModel, insts):
    """The training examples the task's loss reads.  A QA example needs its
    first gold span inside the first context window; RE and NER use all."""
    if model.task != "qa":
        return list(insts)
    return [i for i in insts if i.gold_spans and i.gold_spans[0][1] <= _first_window_end(model, i)]


def finetune(model: TaskModel, train_insts, dev_insts=None, cfg: FinetuneConfig | None = None):
    """AdamW over every parameter on the warmup/decay schedule; returns the model.

    The model first gets parameter Tensors of its own, so the ones it was
    built from keep their values.  Unusable training examples
    (`usable_examples`) are dropped once, before batching, and counted in
    `model.skipped_examples`.  The NER gold spans longer than `max_span_len`,
    which no candidate covers, so the loss trains their words as O, are
    counted in `model.skipped_gold_spans`.  With dev
    examples, the parameters of the epoch with the best `evaluate` score
    are kept (a later epoch wins a tie).
    """
    cfg = (cfg or FinetuneConfig()).validate()
    insts = usable_examples(model, train_insts)
    if not insts:
        raise ContractError(f"no usable {model.task} training examples")
    long_spans = 0 if model.task != "ner" else sum(e - s > model.max_span_len
                                                   for i in insts for s, e, _ in i.gold_spans)
    model.skipped_examples, model.skipped_gold_spans = len(train_insts) - len(insts), long_spans
    epochs = cfg.epochs or DEFAULT_EPOCHS[model.task]
    model.params = {n: T.Tensor(p.data, requires_grad=p.requires_grad, name=n)
                    for n, p in model.params.items()}
    rng = substream(cfg.seed, "finetune")
    optimizer = AdamW(model.params)
    total_steps = epochs * math.ceil(len(insts) / cfg.batch_size)
    step = 0
    best = None
    for _epoch in range(epochs):
        order = rng.permutation(len(insts))
        for lo in range(0, len(insts), cfg.batch_size):
            loss = _BATCH_LOSS[model.task](model, [insts[i] for i in order[lo : lo + cfg.batch_size]])
            T.zero_grads(model.params)
            T.backward(loss)
            optimizer.step(finetune_lr_at(step, total_steps, cfg))
            step += 1
        if dev_insts:
            score = _dev_score(model.task, evaluate(model, dev_insts))
            if best is None or score >= best[0]:
                best = (score, {n: p.data.copy() for n, p in model.params.items()})
    if best is not None:
        for n, p in model.params.items():
            p.data = best[1][n]
    return model
