"""Typed cloze-prompt evaluation.

A query is a template with [X] and [Y] slots, a subject filling [X], and a
fixed candidate answer set for [Y].  Word mode scores a candidate as the
mean MLM log-probability of its tokens over that many word-[MASK] slots.
Entity modes instead read the MEP classifier through an entity-[MASK] token
tied to the [Y] positions, falling back to word scoring for candidates
outside the entity vocabulary.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import encoder
from .encoder import EncodedSequence, encode  # noqa: F401  (perfbench's tracer wraps cloze.encode)
from .errors import ContractError
from .files import read_json_lines
from .tensor import log_softmax_np, no_grad

MODES = ("word", "entity-y", "entity-xy")


@dataclass
class TypedQuery:
    language: str
    template: str  # contains [X] and [Y] exactly once each (as whitespace tokens)
    sub_surface: str
    candidates: list  # list of (surface, explicit entity key or None)
    gold_index: int
    sub_entity: str | None = None

    def validate(self):
        toks = self.template.split()
        if toks.count("[X]") != 1 or toks.count("[Y]") != 1:
            raise ContractError("template must contain exactly one [X] and one [Y]")
        if not self.candidates:
            raise ContractError("query needs at least one candidate")
        if not isinstance(self.gold_index, int) or not 0 <= self.gold_index < len(self.candidates):
            raise ContractError("gold_index out of range")
        return self


def _query(d):
    return TypedQuery(
        language=d["lang"],
        template=d["template"],
        sub_surface=d["sub_surface"],
        sub_entity=d.get("sub_entity"),
        candidates=[(c["surface"], c.get("entity")) for c in d["candidates"]],
        gold_index=d["gold_index"],
    ).validate()


def load_queries(path):
    return read_json_lines(path, _query)


@dataclass
class ClozeModel:
    encoder_config: object
    params: dict  # encoder parameters, and the heads of `pretrain.head_specs` for scoring
    word_vocab: object
    entity_vocab: object


def resolve_candidate_entity(vocab, language, surface, explicit=None):
    """Entity id via explicit key, else exact title match in the query's
    language with an English fallback."""
    if explicit is not None:
        eid = vocab.resolve_key(explicit)
        if eid is None:
            eid = vocab.resolve(language, explicit)
        if eid is not None:
            return eid
    eid = vocab.resolve(language, surface)
    if eid is None and language != "en":
        eid = vocab.resolve("en", surface)
    return eid


def _build_cloze_input(model, query: TypedQuery, k, subject_entity_id=None, y_entity_id=None):
    """Sequence with [X] filled and k word masks at [Y]; optional entity tokens."""
    query.validate()
    toks = query.template.split()
    xi = toks.index("[X]")
    yi = toks.index("[Y]")
    sub_tokens = query.sub_surface.split()

    words = []
    x_positions = []
    y_positions = []
    for i, t in enumerate(toks):
        if i == xi:
            x_positions = list(range(len(words), len(words) + len(sub_tokens)))
            words.extend(sub_tokens)
        elif i == yi:
            y_positions = list(range(len(words), len(words) + k))
            words.extend(["[MASK]"] * k)
        else:
            words.append(t)
    word_ids = model.word_vocab.encode(words)

    entity_ids, entity_positions = [], []
    if subject_entity_id is not None and x_positions:
        entity_ids.append(subject_entity_id)
        entity_positions.append(x_positions)
    ent_index = None
    if y_entity_id is not None:
        ent_index = len(entity_ids)
        entity_ids.append(y_entity_id)
        entity_positions.append(y_positions)
    seq = EncodedSequence(word_ids=word_ids, entity_ids=entity_ids, entity_positions=entity_positions)
    return seq, y_positions, ent_index


def _mlm_logprobs(model, vectors):
    """MLM log-probabilities (rows, V) for contextual word vectors (rows, H)."""
    logits = vectors @ model.params["mlm_head.w"].data + model.params["mlm_head.b"].data
    return log_softmax_np(logits, axis=-1)


def mep_logprobs(model, vectors):
    """MEP log-probabilities (rows, E) for contextual entity vectors (rows, H)."""
    logits = vectors @ model.params["mep_head.w"].data + model.params["mep_head.b"].data
    return log_softmax_np(logits, axis=-1)


def _candidate_input(model, query, candidate, mode):
    """(seq, y_positions, ent_index, target) for one candidate.

    Word scoring (word mode, or an entity mode's out-of-vocabulary fallback)
    has ent_index None and the candidate's word ids as target; entity
    scoring has the candidate's entity id as target.
    """
    surface, explicit = candidate
    if mode != "word":
        eid = resolve_candidate_entity(model.entity_vocab, query.language, surface, explicit)
        if eid is not None:
            sub_eid = None
            if mode == "entity-xy":
                sub_eid = resolve_candidate_entity(
                    model.entity_vocab, query.language, query.sub_surface, query.sub_entity)
            k = max(1, len(surface.split()))
            seq, y_pos, ent_index = _build_cloze_input(
                model, query, k, subject_entity_id=sub_eid, y_entity_id=model.entity_vocab.mask_id)
            return seq, y_pos, ent_index, eid
    cand_tokens = surface.split()
    if not cand_tokens:
        raise ContractError("candidate tokenizes to zero tokens")
    seq, y_pos, _ = _build_cloze_input(model, query, len(cand_tokens))
    return seq, y_pos, None, model.word_vocab.encode(cand_tokens)


@no_grad()
def score_query(model, query, mode):
    """(scores, used_entity) over the query's candidates, in one encoder pass.

    A word-scored candidate gets the mean MLM log-probability of its tokens
    at its [Y] masks; an entity-scored one the MEP log-probability of its
    entity at the entity-[MASK] token.
    """
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")
    built = [_candidate_input(model, query, c, mode) for c in query.candidates]
    seqs = [seq.validate(model.encoder_config) for seq, _, _, _ in built]
    out = encoder.encode_batch(model.params, model.encoder_config, encoder.pack_batch(seqs))

    scores = [0.0] * len(built)
    word = [(b, y_pos, ids) for b, (_, y_pos, ent_index, ids) in enumerate(built) if ent_index is None]
    if word:
        rows = np.concatenate([np.full(len(y_pos), b) for b, y_pos, _ in word])
        cols = np.concatenate([y_pos for _, y_pos, _ in word])
        logprobs = _mlm_logprobs(model, out.word_vectors[rows, cols])
        lo = 0
        for b, _, ids in word:
            scores[b] = float(np.mean(logprobs[np.arange(lo, lo + len(ids)), ids]))
            lo += len(ids)
    ent = [(b, ent_index, eid) for b, (_, _, ent_index, eid) in enumerate(built) if ent_index is not None]
    if ent:
        logprobs = mep_logprobs(model, out.entity_vectors[[b for b, _, _ in ent], [i for _, i, _ in ent]])
        for row, (b, _, eid) in enumerate(ent):
            scores[b] = float(logprobs[row, eid])
    return scores, [ent_index is not None for _, _, ent_index, _ in built]


def evaluate(model: ClozeModel, queries, mode="word"):
    """Top-1 accuracy per language and overall; records every prediction.

    Also counts the candidates scored and, in entity modes, those outside
    the entity vocabulary that fell back to word scoring.
    """
    if not queries:
        raise ContractError("empty cloze query set")
    per_lang = defaultdict(lambda: [0, 0])
    records = []
    scored = fallbacks = 0
    for qi, q in enumerate(queries):
        scores, used = score_query(model, q, mode)
        scored += len(used)
        if mode != "word":
            fallbacks += used.count(False)
        pred = int(np.argmax(scores))  # ties: lowest candidate index
        correct = pred == q.gold_index
        per_lang[q.language][0] += int(correct)
        per_lang[q.language][1] += 1
        records.append({
            "query_index": qi,
            "lang": q.language,
            "template": q.template,
            "predicted_index": pred,
            "predicted_surface": q.candidates[pred][0],
            "gold_index": q.gold_index,
            "gold_surface": q.candidates[q.gold_index][0],
            "correct": correct,
            "used_entity": used[pred],
        })
    return {
        "mode": mode,
        "accuracy": sum(c for c, _ in per_lang.values()) / len(queries),
        "per_language": {l: c / n for l, (c, n) in sorted(per_lang.items())},
        "candidates_scored": scored,
        "word_fallbacks": fallbacks,
        "records": records,
    }


def top1_fp_ratio(false_prediction_surfaces):
    """Share of the most common false-positive prediction among all false
    predictions; None with zero false predictions (undefined)."""
    total = len(false_prediction_surfaces)
    if total == 0:
        return None
    counts = Counter(false_prediction_surfaces)
    # tie-break on equal counts: lexicographically smallest surface
    best_count = max(counts.values())
    surface = min(s for s, c in counts.items() if c == best_count)
    return {"surface": surface, "ratio": counts[surface] / total,
            "count": counts[surface], "total": total}


def fp_analysis(records):
    """Per (template, language) top-1 false-positive analysis from evaluate records."""
    grouped = defaultdict(list)
    for r in records:
        if not r["correct"]:
            grouped[(r["template"], r["lang"])].append(r["predicted_surface"])
    return {
        f"{lang}|{template}": top1_fp_ratio(surfaces)
        for (template, lang), surfaces in sorted(grouped.items())
    }
