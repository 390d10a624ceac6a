"""The eval forward pass, pinned bit for bit.

A fixed-seed model scores cloze queries in every mode and runs each task
head's forward once per variant; the sha256 of every output float, written
as float.hex(), is pinned.  A change that moves any output by one ulp fails
here, where the benchmark's reference gate allows rtol 1e-8.
"""

import hashlib

import numpy as np

import entlm.tensor as T
from entlm import heads
from entlm.cloze import MODES, ClozeModel, TypedQuery, score_query
from entlm.corpus import WordVocab
from entlm.encoder import EncoderConfig, draw_params, param_specs
from entlm.pretrain import head_specs
from entlm.seeding import substream
from entlm.vocab import SPECIAL_ENTITIES, EntityEntry, EntityVocab
from test_cloze import MIXED_CANDIDATES

PINNED_FORWARD_DIGEST = "d03bb3db8fe5f3d3f3888b768e46dad73660625a62db988d957528659e258896"


def _model():
    wv = WordVocab(["the", "capital", "of", "japan", "is", "tokyo", "kyoto", "big", "city", "what", "?",
                    "works", "for", "in", "a", "b"])
    entries = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    entries.append(EntityEntry(canonical_key="tokyo", titles={("en", "tokyo")}))
    entries.append(EntityEntry(canonical_key="japan", titles={("en", "japan")}))
    ev = EntityVocab(entries)
    cfg = EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev), hidden_size=32, entity_emb_size=16,
                        layers=2, heads=2, ffn_size=64, max_positions=24, dropout=0.0).validate()
    rng = substream(41, "forward-pin")
    params = draw_params(param_specs(cfg) + head_specs(cfg), rng)
    return cfg, params, wv, ev


def _outputs():
    """Every float of the pinned forward passes, in a fixed order."""
    cfg, params, wv, ev = _model()
    cloze_model = ClozeModel(encoder_config=cfg, params=params, word_vocab=wv, entity_vocab=ev)
    query = TypedQuery(language="en", template="[X] is the capital of [Y]", sub_surface="tokyo",
                       candidates=MIXED_CANDIDATES, gold_index=0).validate()
    floats = []
    for mode in MODES:
        floats += score_query(cloze_model, query, mode)[0]
    toks = "tokyo is the capital of japan".split()
    re_inst = heads.REInstance(tokens=toks, head_span=(0, 1), tail_span=(5, 6), label="r").validate()
    ner_inst = heads.NERInstance(tokens=toks).validate()
    qa_inst = heads.QAInstance(qid="q", question_tokens="what is the capital of japan ?".split(),
                               context_tokens="tokyo is a big city in japan".split(), answers=["tokyo"],
                               context_entities=[(0, 1, ev.resolve("en", "tokyo"))]).validate()
    with T.no_grad():
        for variant in heads.VARIANTS["re"]:
            model = heads.make_re_model(cfg, params, wv, ev, ["r", "s", "t"], variant=variant, seed=1)
            floats += heads.re_logits(model, [re_inst]).data[0].tolist()
        for variant in heads.VARIANTS["ner"]:
            model = heads.make_ner_model(cfg, params, wv, ev, ["LOC", "ORG"], variant=variant, seed=2)
            floats += heads.ner_span_logits(model, ner_inst)[1].data.reshape(-1).tolist()
        for use_entities in (False, True):
            model = heads.make_qa_model(cfg, params, wv, ev, use_entities=use_entities, seed=3)
            pred = heads.qa_predict(model, qa_inst)
            floats += [float(pred["score"]), float(pred["span"][0]), float(pred["span"][1])]
    return floats


def test_eval_forward_outputs_are_pinned_bit_for_bit():
    floats = _outputs()
    assert all(np.isfinite(floats))
    digest = hashlib.sha256(" ".join(float(x).hex() for x in floats).encode()).hexdigest()
    assert digest == PINNED_FORWARD_DIGEST, (len(floats), digest)
