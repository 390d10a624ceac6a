#!/usr/bin/env python3
"""End-to-end toy pretraining experiment on the synthetic bilingual corpus.

Trains a small entity-aware encoder for a few thousand steps, then reports:
  * held-out masked-entity prediction top-1 accuracy (vs. chance), and
  * cross-lingual mention-retrieval MRR, English queries against a German
    pool of mention span embeddings (vs. the analytic random baseline).

Prints one line per result, then the report as one JSON line with the keys
steps, seed, entities, mep_top1, mep_chance, mention_mrr and mrr_baseline.
`run()` returns that report.  Runs in well under a minute on a laptop CPU.
"""

import argparse
import json
import time
from dataclasses import replace

import numpy as np

from entlm.align import cwr_mrr, feature_dump
from entlm.cloze import ClozeModel, mep_logprobs
from entlm.corpus import build_word_vocab, encode_corpus
from entlm.encoder import EncoderConfig, encode_batch, pack_batch
from entlm.pretrain import TrainConfig, train
from entlm.synth import make_bilingual_corpus
from entlm.tensor import no_grad
from entlm.vocab import build_entity_vocab


def _mention_item(lang, seq):
    """A span-mean `feature_dump` item over the sequence's first mention,
    with the sequence's entity tokens in the input."""
    pos = seq.entity_positions[0]
    return (f"{lang}{seq.entity_ids[0]}", lang,
            {"word_ids": seq.word_ids, "entity_ids": seq.entity_ids,
             "entity_positions": seq.entity_positions, "span": (pos[0], pos[-1] + 1)})


def run(entities=30, sequences=500, steps=2000, stage1_steps=0, hidden=32, layers=2,
        peak_lr=1e-3, seed=7):
    """Pretrain on the toy corpus and return the report dict."""
    docs, links = make_bilingual_corpus(n_entities=entities, n_sequences=sequences, seed=3)
    ev = build_entity_vocab(docs, links, min_languages=2)
    wv = build_word_vocab(docs)
    cfg = EncoderConfig(
        word_vocab_size=len(wv), entity_vocab_size=len(ev),
        hidden_size=hidden, entity_emb_size=hidden // 2,
        layers=layers, heads=2, ffn_size=2 * hidden,
        max_positions=16, dropout=0.0).validate()
    seqs, _ = encode_corpus(docs, wv, ev, max_words=cfg.max_positions)
    train_pool = {lang: v[:-20] for lang, v in seqs.items()}
    held = [s for v in seqs.values() for s in v[-20:]]
    tcfg = TrainConfig(
        total_steps=steps, stage1_steps=stage1_steps, batch_size=8,
        peak_lr=peak_lr, warmup_steps=100, seed=seed, log_interval=200)
    params = train(cfg, tcfg, train_pool, wv, ev).params
    model = ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev)

    # masked-entity prediction of each held-out sequence's first entity
    masked = [replace(s, entity_ids=[ev.mask_id] * s.num_entities) for s in held]
    with no_grad():
        out = encode_batch(params, cfg, pack_batch(masked))
    predicted = np.argmax(mep_logprobs(model, out.entity_vectors[:, 0]), axis=1)
    mep_top1 = float(np.mean(predicted == [s.entity_ids[0] for s in held]))

    # cross-lingual mention retrieval: en queries vs. a de pool, one mention per entity
    pool_items = {}
    for s in seqs["de"][:80]:
        pool_items.setdefault(s.entity_ids[0], _mention_item("de", s))
    query_items = {}
    for s in seqs["en"][:100]:
        if s.entity_ids[0] in pool_items:
            query_items.setdefault(s.entity_ids[0], _mention_item("en", s))
    pool = feature_dump(model, pool_items.values(), "span-mean")
    queries = feature_dump(model, query_items.values(), "span-mean")
    mrr = cwr_mrr(queries, pool, {f"en{eid}": f"de{eid}" for eid in query_items})
    baseline = sum(1.0 / r for r in range(1, len(pool) + 1)) / len(pool)
    return {"steps": steps, "seed": seed, "entities": entities, "mep_top1": mep_top1,
            "mep_chance": 1.0 / entities, "mention_mrr": mrr, "mrr_baseline": baseline}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--entities", type=int, default=30)
    ap.add_argument("--sequences", type=int, default=500)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--stage1-steps", type=int, default=0)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--layers", type=int, default=2)
    ap.add_argument("--peak-lr", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    t0 = time.time()
    report = run(**vars(args))
    print(f"trained {args.steps} steps and evaluated in {time.time() - t0:.1f}s")
    print(f"held-out entity-prediction top-1: {report['mep_top1']:.3f} "
          f"(chance {report['mep_chance']:.3f})")
    print(f"cross-lingual mention MRR: {report['mention_mrr']:.3f} "
          f"(random baseline {report['mrr_baseline']:.3f})")
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
