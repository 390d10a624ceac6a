"""Seeded input generators.

Every input comes from an `entlm.synth` bilingual corpus, whose sentences
read `t{k}a_{lang} ent{i}_{lang} t{k}b_{lang} t{k}c_{lang} .` with a hyperlink
over the name word.  Task data (RE, NER, QA, cloze, alignment spans) is cut
from those sentences, so the program only ever sees generated inputs.  The
same (variant) always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entlm import synth
from entlm.cloze import TypedQuery
from entlm.heads import NERInstance, QAInstance, REInstance

SENT_LEN = 5  # tokens per synth sentence; the name word sits at offset 1
NAME_OFFSET = 1

RE_LABELS = ["diff", "same"]
NER_TYPES = ["LOC", "PER"]


def toy_corpus(variant):
    return synth.make_bilingual_corpus(n_entities=30, n_sequences=500, seed=variant)


def wide_corpus():
    # fixed so the head sizes stay V=2596, E=1759 on every seed
    return synth.make_bilingual_corpus(n_entities=2000, n_sequences=4000, seed=3)


def probe_corpus(variant):
    return synth.make_bilingual_corpus(n_entities=40, n_sequences=400, seed=100 + variant)


def _entity_of(doc):
    """(entity index, title) of a synth sentence's single annotation."""
    _s, _e, title = doc.annotations[0]
    return int(title.split("_")[0][3:]), title


@dataclass
class ProbeInputs:
    re: list  # REInstance
    ner: list  # NERInstance
    qa: list  # QAInstance
    cloze: list  # TypedQuery
    span_docs: list  # (uid, lang, tokens) with the name word at NAME_OFFSET
    re_feature: list  # (uid, lang, REInstance)
    cwr_gold: dict  # first-language uid -> second-language uid


def make_probe_inputs(docs, entity_vocab, variant, n_re=4, n_ner=4, n_qa=4, n_cloze=6,
                      n_align=6, qa_sentences=30, ner_sentences=3):
    """Fixed-size item lists for the probe-eval workload.

    The counts put as many items below the cloze queries in cost (RE, NER
    word-endpoints, cwr_mrr, modularity: 14) as above them (NER entity-mask,
    QA, feature dumps: 14), so the median item time falls inside the cloze
    cluster rather than on the edge between two clusters, where it would jump.

    RE sentences join two sentences of one language, with the names as head
    and tail.  NER sentences join `ner_sentences` sentences, so the
    entity-mask variant needs more than one 64-span chunk.  QA contexts join
    `qa_sentences` sentences, longer than one 128-position window.  Cloze
    queries carry three in-vocab title candidates and one two-word
    out-of-vocab candidate, so the word fallback runs on more than one mask.
    Alignment spans are name mentions of the same entities in both languages.
    """
    rng = np.random.default_rng(variant)
    by_lang = {}
    for d in docs:
        by_lang.setdefault(d.language, []).append(d)
    langs = sorted(by_lang)

    def pick(lang, k):
        pool = by_lang[lang]
        return [pool[int(i)] for i in rng.choice(len(pool), size=k, replace=False)]

    re_items = []
    for j in range(n_re):
        a, b = pick(langs[j % len(langs)], 2)
        tokens = a.tokens + b.tokens
        label = "same" if a.tokens[0] == b.tokens[0] else "diff"
        re_items.append(REInstance(tokens=tokens, head_span=(NAME_OFFSET, NAME_OFFSET + 1),
                                   tail_span=(SENT_LEN + NAME_OFFSET, SENT_LEN + NAME_OFFSET + 1),
                                   label=label).validate())

    ner_items = []
    for j in range(n_ner):
        sents = pick(langs[j % len(langs)], ner_sentences)
        tokens, gold = [], []
        for d in sents:
            i, _ = _entity_of(d)
            off = len(tokens)
            gold.append((off + NAME_OFFSET, off + NAME_OFFSET + 1, NER_TYPES[i % 2]))
            tokens.extend(d.tokens)
        ner_items.append(NERInstance(tokens=tokens, gold_spans=gold).validate())

    qa_items = []
    for j in range(n_qa):
        lang = langs[j % len(langs)]
        sents = pick(lang, qa_sentences)
        answer = sents[int(rng.integers(qa_sentences))]
        _, atitle = _entity_of(answer)
        name = answer.tokens[NAME_OFFSET]
        ctx, ctx_entities = [], []
        gold = None
        for d in sents:
            off = len(ctx)
            eid = entity_vocab.resolve(lang, _entity_of(d)[1])
            if eid is not None:
                ctx_entities.append((off + NAME_OFFSET, off + NAME_OFFSET + 1, eid))
            if d is answer:
                gold = (off + NAME_OFFSET, off + NAME_OFFSET + 1)
            ctx.extend(d.tokens)
        question = ["where", "is", name, "?"]
        q_eid = entity_vocab.resolve(lang, atitle)
        qa_items.append(QAInstance(
            qid=f"q{j}", question_tokens=question, context_tokens=ctx, answers=[name],
            gold_spans=[gold], question_entities=[(2, 3, q_eid)] if q_eid is not None else [],
            context_entities=ctx_entities, q_lang=lang, c_lang=lang).validate())

    cloze_items = []
    for j in range(n_cloze):
        lang = langs[j % len(langs)]
        (d,) = pick(lang, 1)
        i, title = _entity_of(d)
        k = d.tokens[0].split("_")[0][1:-1]
        others = [int(x) for x in rng.choice(40, size=3, replace=False) if int(x) != i][:2]
        candidates = [(title, None)] + [(synth.entity_title(o, lang), None) for o in others]
        # outside the vocab and two words long: the word fallback scores two masks
        candidates.append((f"{synth.entity_title(9000 + j, lang)} t{k}c_{lang}", None))
        template = f"t{k}a_{lang} [X] t{k}b_{lang} [Y] ."
        cloze_items.append(TypedQuery(language=lang, template=template,
                                      sub_surface=d.tokens[NAME_OFFSET], sub_entity=title,
                                      candidates=candidates, gold_index=0).validate())

    # alignment: the same entities mentioned in every language
    first = {}
    for lang in langs:
        for d in by_lang[lang]:
            first.setdefault(_entity_of(d)[0], {}).setdefault(lang, d)
    shared = sorted(i for i, per in first.items() if len(per) == len(langs))
    chosen = [shared[int(x)] for x in sorted(rng.choice(len(shared), size=n_align, replace=False))]
    span_docs, re_feature, gold = [], [], {}
    for i in chosen:
        for lang in langs:
            d = first[i][lang]
            uid = f"{lang}{i}"
            span_docs.append((uid, lang, d.tokens))
            partner = first[chosen[(chosen.index(i) + 1) % len(chosen)]][lang]
            re_feature.append((uid, lang, REInstance(
                tokens=d.tokens + partner.tokens, head_span=(NAME_OFFSET, NAME_OFFSET + 1),
                tail_span=(SENT_LEN + NAME_OFFSET, SENT_LEN + NAME_OFFSET + 1), label="_").validate()))
        gold[f"{langs[0]}{i}"] = f"{langs[1]}{i}"
    return ProbeInputs(re=re_items, ner=ner_items, qa=qa_items, cloze=cloze_items,
                       span_docs=span_docs, re_feature=re_feature, cwr_gold=gold)
