#!/usr/bin/env python3
"""Emit a synthetic bilingual toy corpus (JSONL) plus inter-language links (JSONL).

The corpus pairs English and German documents built from shared templates so
that every entity has aligned mentions in both languages. Useful as input for
`entlm build-vocab` / `entlm pretrain` smoke runs.
"""

import argparse
import os

from entlm.corpus import save_corpus
from entlm.synth import make_bilingual_corpus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--entities", type=int, default=30)
    ap.add_argument("--sequences", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    docs, links = make_bilingual_corpus(
        n_entities=args.entities, n_sequences=args.sequences, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    corpus_path = os.path.join(args.out_dir, "corpus.jsonl")
    links_path = os.path.join(args.out_dir, "links.jsonl")
    save_corpus(docs, corpus_path)
    links.save(links_path)
    print(f"wrote {len(docs)} documents to {corpus_path}")
    print(f"wrote inter-language links to {links_path}")


if __name__ == "__main__":
    main()
