"""The three workloads: set-up, the timed closed loop, and canonical outputs.

Each workload has one caller in a closed loop: the next train step or eval
item starts when the last one ends.  Every public entlm function is called
through its module attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from entlm import align, cloze, corpus, encoder, heads, linker, pretrain, vocab
from entlm import tensor as T

from . import inputs

MAX_WORDS = 16  # sequence length cap of both pretrain workloads
LINK_PAGES_PER_LANGUAGE = 150  # pages feeding mention stats and the mention map


def link_pages(docs):
    """The first LINK_PAGES_PER_LANGUAGE documents of each language."""
    pages = []
    for lang in sorted({d.language for d in docs}):
        pages.extend([d for d in docs if d.language == lang][:LINK_PAGES_PER_LANGUAGE])
    return pages


def params_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one measured phase produced, for the gates and the metrics."""

    outputs: list = field(default_factory=list)  # canonical output per repeat/pass
    digests: list = field(default_factory=list)  # final-parameter digest per repeat
    kinds: list = field(default_factory=list)  # kind of each timed op
    op_tokens: list = field(default_factory=list)  # real input tokens of each timed op
    peak_rss_mb: list = field(default_factory=list)  # process high-water mark after each repeat/pass
    attempted: int = 0
    errors: list = field(default_factory=list)  # (what, message)

    def note_rss(self):
        self.peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# pretraining


@dataclass
class PretrainSpec:
    hidden: int
    ffn: int
    dropout: float
    steps: int
    stage1: int
    smoke_steps: int
    smoke_stage1: int
    link: bool  # run the build-vocab -> link-entities path in set-up
    checkpoint: bool  # end every repeat with save_checkpoint
    memory_bound: bool  # probe with a cache stream (see timing.Probe)


TOY = PretrainSpec(hidden=32, ffn=64, dropout=0.0, steps=250, stage1=50,
                   smoke_steps=20, smoke_stage1=4, link=False, checkpoint=False,
                   memory_bound=False)
WIDE = PretrainSpec(hidden=128, ffn=256, dropout=0.1, steps=100, stage1=0,
                    smoke_steps=6, smoke_stage1=0, link=True, checkpoint=True,
                    memory_bound=True)


class PretrainWorkload:
    pretraining = True

    def __init__(self, spec, variant, smoke, workdir):
        self.spec = spec
        self.variant = variant
        self.smoke = smoke
        self.workdir = workdir
        if spec is TOY:
            self.docs, self.links = inputs.toy_corpus(variant)
        else:
            self.docs, self.links = inputs.wide_corpus()
        self.train_config = pretrain.TrainConfig(
            total_steps=spec.smoke_steps if smoke else spec.steps,
            stage1_steps=spec.smoke_stage1 if smoke else spec.stage1,
            batch_size=8, peak_lr=1e-3, stage1_peak_lr=5e-3, warmup_steps=10,
            seed=1000 * (1 + (spec is WIDE)) + variant, log_interval=1).validate()
        self.memory_bound = spec.memory_bound
        self.state = None
        self.notes = {}

    def setup(self):
        """build-vocab (-> link-entities) -> encoded training pool and configs."""
        spec, docs = self.spec, self.docs
        ev = vocab.build_entity_vocab(docs, self.links, min_languages=2)
        linked = None
        if spec.link:
            pages = link_pages(docs)
            stats = vocab.collect_mention_stats(pages)
            mention_map = linker.build_mention_map(pages, ev)
            linked = [linker.detect_entities(d.tokens, mention_map, stats=stats, language=d.language)
                      for d in docs]
        wv = corpus.build_word_vocab(docs)
        pool = {}
        for d in docs:
            for sd in corpus.split_sequences(d, max_words=MAX_WORDS):
                pool.setdefault(d.language, []).append(corpus.encode_document(sd, wv, ev))
        cfg = encoder.EncoderConfig(
            word_vocab_size=len(wv), entity_vocab_size=len(ev), hidden_size=spec.hidden,
            entity_emb_size=spec.hidden // 2, layers=2, heads=2, ffn_size=spec.ffn,
            max_positions=MAX_WORDS, dropout=spec.dropout).validate()
        self.state = dict(ev=ev, wv=wv, pool=pool, cfg=cfg, linked=linked)
        return self.state

    def check_setup(self):
        """Set-up gates; returns a list of failure messages."""
        s, errors = self.state, []
        self.notes.update(V=len(s["wv"]), E=len(s["ev"]))
        if self.spec is WIDE and (len(s["wv"]), len(s["ev"])) != (2596, 1759):
            errors.append(f"wide vocab sizes V={len(s['wv'])} E={len(s['ev'])}, expected 2596/1759")
        # tokens_per_op() is exact only when every pool sequence has one length
        lengths = {q.num_words + q.num_entities for seqs in s["pool"].values() for q in seqs}
        if len(lengths) != 1:
            errors.append(f"pool sequences differ in length: {sorted(lengths)}")
        if s["linked"] is not None:
            ev, found = s["ev"], 0
            for d, anns in zip(self.docs, s["linked"]):
                gold = {(a, b, ev.resolve(d.language, t)) for a, b, t in d.annotations}
                found += len(anns)
                errors.extend(f"{d.title}: linked {a} not a gold mention" for a in anns if a not in gold)
            if not found:
                errors.append("linker found no mention")
        return errors

    def kept_ratio(self):
        """Link-probability filter: kept matches over token-boundary matches."""
        if self.state["linked"] is None:
            return 0.0
        mention_map = linker.build_mention_map(link_pages(self.docs), self.state["ev"])
        raw = sum(len(linker.detect_entities(d.tokens, mention_map)) for d in self.docs)
        kept = sum(len(a) for a in self.state["linked"])
        return kept / raw if raw else 0.0

    def tokens_per_op(self):
        """Real word+entity tokens a train step sees: batch size x sequence length."""
        seqs = [q for seqs in self.state["pool"].values() for q in seqs]
        per_seq = sum(q.num_words + q.num_entities for q in seqs) / len(seqs)
        return self.train_config.batch_size * per_seq

    def measure(self, ctl, seconds, min_repeats, outcome):
        """Repeat identical train() runs until `seconds` pass; every backward
        call marks a step boundary."""
        s, tc = self.state, self.train_config
        out_dir = self.workdir if self.spec.checkpoint else None
        orig_backward = T.backward

        def backward(loss):
            ctl.mark()
            return orig_backward(loss)

        T.backward = backward
        t0 = time.perf_counter()
        try:
            while True:
                r0 = time.perf_counter()
                outcome.attempted += tc.total_steps
                try:
                    result = pretrain.train(s["cfg"], tc, s["pool"], s["wv"], s["ev"], out_dir=out_dir)
                except Exception as exc:  # a failed repeat counts all its steps as failed
                    ctl.gap()
                    outcome.errors.append(("repeat", repr(exc)))
                    outcome.outputs.append(None)
                    outcome.digests.append(None)
                else:
                    ctl.gap()
                    outcome.outputs.append([[row[3], row[4]] for row in result.log])
                    digest = params_digest(result.params)
                    if out_dir and digest != params_digest(
                            pretrain.load_checkpoint(result.final_checkpoint).params):
                        outcome.errors.append(("checkpoint", "final checkpoint differs from the params"))
                        digest = None
                    outcome.digests.append(digest)
                outcome.note_rss()
                now = time.perf_counter()
                done = len(outcome.outputs)
                if done >= min_repeats and now - t0 + (now - r0) > seconds:
                    break
        finally:
            T.backward = orig_backward

    def label_ops(self, outcome, n_ops):
        outcome.kinds = ["step"] * n_ops
        outcome.op_tokens = [self.tokens_per_op()] * n_ops

    def reference_key(self):
        return "smoke" if self.smoke else "full"


# ---------------------------------------------------------------------------
# probe eval


class ProbeWorkload:
    pretraining = False
    memory_bound = False

    def __init__(self, variant, workdir):
        self.variant = variant
        self.workdir = workdir
        self.docs, self.links = inputs.probe_corpus(variant)
        self.state = None
        self.items = None
        self.notes = {}

    def setup(self):
        """Vocabularies, fixed-seed weights through a checkpoint round trip, task models."""
        docs = self.docs
        ev = vocab.build_entity_vocab(docs, self.links, min_languages=2)
        wv = corpus.build_word_vocab(docs)
        cfg = encoder.EncoderConfig(
            word_vocab_size=len(wv), entity_vocab_size=len(ev), hidden_size=64, entity_emb_size=32,
            layers=2, heads=2, ffn_size=128, max_positions=128, dropout=0.0).validate()
        path = os.path.join(self.workdir, "probe.bin")
        pretrain.save_checkpoint(path, cfg, pretrain.init_model(cfg, seed=3000 + self.variant))
        ckpt = pretrain.load_checkpoint(path)
        cfg, params = ckpt.encoder_config, ckpt.params
        v = self.variant
        models = {
            # word-markers adds marker tokens to the vocab it is given: use a copy
            "re-word": heads.make_re_model(cfg, params, corpus.WordVocab(wv.id_to_token), ev,
                                           inputs.RE_LABELS, variant="word-markers", seed=v),
            "re-entity": heads.make_re_model(cfg, params, wv, ev, inputs.RE_LABELS,
                                             variant="entity-mask", seed=v),
            "ner-word": heads.make_ner_model(cfg, params, wv, ev, inputs.NER_TYPES,
                                             variant="word-endpoints", seed=v),
            "ner-entity": heads.make_ner_model(cfg, params, wv, ev, inputs.NER_TYPES,
                                               variant="entity-mask", seed=v),
            "qa-word": heads.make_qa_model(cfg, params, wv, ev, use_entities=False, seed=v),
            "qa-entity": heads.make_qa_model(cfg, params, wv, ev, use_entities=True, seed=v),
            "cloze": cloze.ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev),
        }
        self.state = dict(ev=ev, wv=wv, cfg=cfg, models=models)
        return self.state

    def check_setup(self):
        s, errors = self.state, []
        if len(s["wv"]) != s["cfg"].word_vocab_size:
            errors.append("make_re_model changed the shared word vocab")
        if len(s["models"]["re-word"].word_vocab) != len(s["wv"]) + 2:
            errors.append("the word-markers vocab lacks its two markers")
        return errors

    def kept_ratio(self):
        return 0.0

    def build_items(self):
        """One pass of the fixed item mix: (kind, tokens, callable)."""
        s = self.state
        m, wv = s["models"], s["wv"]
        data = inputs.make_probe_inputs(self.docs, s["ev"], self.variant)
        span_set = [(uid, lang, {"word_ids": wv.encode(toks), "text": toks[inputs.NAME_OFFSET],
                                 "span": (inputs.NAME_OFFSET, inputs.NAME_OFFSET + 1)})
                    for uid, lang, toks in data.span_docs]
        first_lang = sorted({lang for _, lang, _ in span_set})[0]
        ctx = {}
        items = []
        for inst in data.re:
            for key in ("re-word", "re-entity"):
                items.append(("re", len(inst.tokens),
                              lambda inst=inst, key=key: heads.re_classify(m[key], inst)))
        for inst in data.ner:
            for key in ("ner-word", "ner-entity"):
                items.append(("ner", len(inst.tokens),
                              lambda inst=inst, key=key: [list(x) for x in heads.ner_predict(m[key], inst)]))
        for inst in data.qa:
            for key in ("qa-word", "qa-entity"):
                items.append(("qa", len(inst.question_tokens) + len(inst.context_tokens),
                              lambda inst=inst, key=key: _canon_qa(heads.qa_predict(m[key], inst))))
        for q in data.cloze:
            for mode in cloze.MODES:
                items.append(("cloze", len(q.template.split()),
                              lambda q=q, mode=mode: _canon_cloze(cloze.score_query(m["cloze"], q, mode))))

        def dump_spans():
            ctx["spans"] = align.feature_dump(m["cloze"], span_set, "span-mean")
            return _canon_vectors(ctx["spans"])

        def dump_re():
            return _canon_vectors(align.feature_dump(m["cloze"], data.re_feature, "re-entity"))

        def mrr():
            queries = [e for e in ctx["spans"] if e.language == first_lang]
            pool = [e for e in ctx["spans"] if e.language != first_lang]
            return align.cwr_mrr(queries, pool, data.cwr_gold)

        items.append(("align", sum(len(t) for _, _, t in data.span_docs), dump_spans))
        items.append(("align", sum(len(i.tokens) for _, _, i in data.re_feature), dump_re))
        items.append(("align", 0, mrr))
        items.append(("align", 0, lambda: align.modularity(ctx["spans"], k=3)))
        self.items = items
        return items

    def measure(self, ctl, seconds, min_repeats, outcome):
        """Passes over the item mix until `seconds` pass; a probe precedes every item."""
        items = self.items
        t0 = time.perf_counter()
        passes = 0
        while passes < min_repeats or time.perf_counter() - t0 < seconds:
            results = []
            for kind, tokens, fn in items:
                ctl.mark()
                ctl.set_kind(kind)
                outcome.kinds.append(kind)
                outcome.op_tokens.append(tokens)
                outcome.attempted += 1
                try:
                    results.append(fn())
                except Exception as exc:  # the item counts as failed
                    results.append(None)
                    outcome.errors.append((kind, repr(exc)))
            outcome.outputs.append(results)
            outcome.note_rss()
            passes += 1
        ctl.close()

    def label_ops(self, outcome, n_ops):
        if len(outcome.kinds) != n_ops:
            raise RuntimeError(f"{len(outcome.kinds)} items for {n_ops} timed ops")

    def reference_key(self):
        return "full"


def _canon_qa(pred):
    return [pred["span"][0], pred["span"][1], pred["score"]]


def _canon_cloze(result):
    scores, used = result
    return [list(scores), [bool(u) for u in used]]


def _canon_vectors(records):
    return [[r.uid, float(np.sum(r.vector)), float(np.sum(r.vector * r.vector))] for r in records]


def make(name, variant, smoke, workdir):
    if name == "pretrain-toy":
        return PretrainWorkload(TOY, variant, smoke, workdir)
    if name == "pretrain-wide":
        return PretrainWorkload(WIDE, variant, smoke, workdir)
    if name == "probe-eval":
        return ProbeWorkload(variant, workdir)  # item passes are the same in smoke runs
    raise KeyError(name)


WORKLOADS = ("pretrain-toy", "pretrain-wide", "probe-eval")
