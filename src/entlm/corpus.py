"""Corpus ingestion, sequence generation, language-balanced sampling, masking.

Corpus files are JSON lines, one document per line:
  {"lang": ..., "title": ..., "tokens": [...], "sentence_breaks": [...],
   "annotations": [[start, end, title], ...]}
Fixtures use whitespace tokens; the tokenizer is pluggable upstream of this
file, everything here works on token lists.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .encoder import EncodedSequence
from .errors import ContractError
from .files import read_json_lines, read_lines
from .seeding import substream

IGNORE_LABEL = -100

# word vocabulary specials
PAD_WORD = "[PAD]"
UNK_WORD = "[UNK]"
MASK_WORD = "[MASK]"
SPECIAL_WORDS = (PAD_WORD, UNK_WORD, MASK_WORD)

SENTENCE_END_PUNCT = (".", "!", "?", "。", "！", "？")

DEFAULT_MAX_WORDS = 512
DEFAULT_ENTITY_CAP = 32


@dataclass
class AnnotatedDocument:
    language: str
    title: str
    tokens: list
    annotations: list = field(default_factory=list)  # (start, end, target title)
    sentence_breaks: list | None = None  # token indices where a sentence ends (exclusive)

    def validate(self):
        n = len(self.tokens)
        spans = sorted((s, e) for s, e, _ in self.annotations)
        for s, e in spans:
            if not (0 <= s < e <= n):
                raise ContractError(f"annotation span ({s}, {e}) out of bounds for {n} tokens")
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ContractError(f"overlapping annotations ({s1},{e1}) and ({s2},{e2})")
        return self


def _document(d):
    return AnnotatedDocument(
        language=d["lang"],
        title=d["title"],
        tokens=list(d["tokens"]),
        annotations=[tuple(a) for a in d.get("annotations", [])],
        sentence_breaks=d.get("sentence_breaks"),
    ).validate()


def load_corpus(path):
    return read_json_lines(path, _document)


def save_corpus(docs, path):
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(
                json.dumps(
                    {
                        "lang": doc.language,
                        "title": doc.title,
                        "tokens": doc.tokens,
                        "sentence_breaks": doc.sentence_breaks,
                        "annotations": [list(a) for a in doc.annotations],
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


class WordVocab:
    """Token -> id with [PAD]=0, [UNK]=1, [MASK]=2."""

    def __init__(self, tokens):
        self.id_to_token = list(SPECIAL_WORDS) + [t for t in tokens if t not in SPECIAL_WORDS]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    @property
    def pad_id(self):
        return 0

    @property
    def unk_id(self):
        return 1

    @property
    def mask_id(self):
        return 2

    def encode(self, tokens):
        return [self.token_to_id.get(t, self.unk_id) for t in tokens]

    def add(self, token):
        """Add a token (e.g. a finetune-time marker); returns its id."""
        if token not in self.token_to_id:
            self.token_to_id[token] = len(self.id_to_token)
            self.id_to_token.append(token)
        return self.token_to_id[token]

    def save(self, path):
        """One token per line; raises ContractError, before writing, on a
        token that `load` would not read back (blank or holding a line break)."""
        for i, t in enumerate(self.id_to_token):
            if not t.strip() or "\n" in t or "\r" in t:
                raise ContractError(f"word vocab token {i} ({t!r}) would not survive a save and load")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path):
        toks = read_lines(path, str)
        if toks[: len(SPECIAL_WORDS)] != list(SPECIAL_WORDS):
            raise ContractError(f"{path}:1: word vocab file does not start with the reserved specials")
        v = cls([])
        v.id_to_token = toks
        v.token_to_id = {t: i for i, t in enumerate(toks)}
        return v


def build_word_vocab(docs, min_count=1, max_size=None):
    counts = Counter(t for doc in docs for t in doc.tokens)
    ranked = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    if max_size is not None:
        ranked = ranked[: max(0, max_size - len(SPECIAL_WORDS))]
    return WordVocab(ranked)


def _sentence_bounds(doc: AnnotatedDocument):
    """Sentence (start, end) pairs from markers, else terminal-punctuation fallback."""
    n = len(doc.tokens)
    if doc.sentence_breaks:
        breaks = sorted(set(b for b in doc.sentence_breaks if 0 < b <= n))
    else:
        breaks = [i + 1 for i, t in enumerate(doc.tokens) if t in SENTENCE_END_PUNCT]
    if not breaks or breaks[-1] != n:
        breaks = breaks + [n]
    bounds = []
    prev = 0
    for b in breaks:
        if b > prev:
            bounds.append((prev, b))
            prev = b
    return bounds


def split_sequences(doc: AnnotatedDocument, max_words=DEFAULT_MAX_WORDS):
    """Greedy packing of whole sentences into sequences of <= max_words tokens.

    A single sentence longer than max_words is hard-split.  Annotations are
    re-indexed into their sequence; any annotation crossing a cut is dropped.
    Returns a list of AnnotatedDocument slices.
    """
    if max_words < 1:
        raise ContractError("max_words must be >= 1")
    doc.validate()
    # chunk boundaries in token space
    chunks = []  # (start, end)
    cur_start, cur_len = 0, 0
    for s, e in _sentence_bounds(doc):
        sent_len = e - s
        if sent_len > max_words:
            if cur_len:
                chunks.append((cur_start, s))
            for h in range(s, e, max_words):
                chunks.append((h, min(h + max_words, e)))
            cur_start, cur_len = e, 0
            continue
        if cur_len + sent_len > max_words:
            chunks.append((cur_start, s))
            cur_start, cur_len = s, 0
        cur_len += sent_len
    if cur_len:
        chunks.append((cur_start, len(doc.tokens)))

    out = []
    for cs, ce in chunks:
        anns = [
            (s - cs, e - cs, t)
            for s, e, t in doc.annotations
            if s >= cs and e <= ce  # spans crossing a cut are dropped
        ]
        out.append(
            AnnotatedDocument(
                language=doc.language,
                title=doc.title,
                tokens=doc.tokens[cs:ce],
                annotations=anns,
                sentence_breaks=None,
            )
        )
    return out


@dataclass
class LanguageSamplingSpec:
    counts: dict  # language -> n_i > 0
    alpha: float = 0.7

    def validate(self):
        if not self.counts:
            raise ContractError("no languages in sampling spec")
        if any(n <= 0 for n in self.counts.values()):
            raise ContractError("all per-language counts must be positive")
        if not 0 < self.alpha <= 1:
            raise ContractError(f"alpha {self.alpha} outside (0, 1]")
        return self


def language_distribution(spec: LanguageSamplingSpec):
    """Smoothed multinomial p_i = n_i^alpha / sum_k n_k^alpha."""
    spec.validate()
    langs = sorted(spec.counts)
    w = np.array([float(spec.counts[l]) ** spec.alpha for l in langs])
    p = w / w.sum()
    return dict(zip(langs, p))


def encode_document(seq_doc: AnnotatedDocument, word_vocab: WordVocab, entity_vocab,
                    entity_cap=DEFAULT_ENTITY_CAP) -> EncodedSequence:
    """Turn a split sequence into model input ids.

    Annotations whose target title does not resolve in the entity vocab are
    skipped; at most entity_cap entities are kept, by first occurrence.
    """
    word_ids = word_vocab.encode(seq_doc.tokens)
    entity_ids, entity_positions = [], []
    for s, e, title in sorted(seq_doc.annotations):
        if len(entity_ids) >= entity_cap:
            break
        eid = entity_vocab.resolve(seq_doc.language, title)
        if eid is None:
            continue
        entity_ids.append(eid)
        entity_positions.append(list(range(s, e)))
    return EncodedSequence(word_ids=word_ids, entity_ids=entity_ids, entity_positions=entity_positions)


@dataclass
class MaskedBatch:
    sequence: EncodedSequence  # with masks applied
    word_labels: list  # original id at selected positions, IGNORE_LABEL elsewhere
    entity_labels: list


def mask_batch(seq: EncodedSequence, rng, word_vocab: WordVocab, entity_mask_id,
               word_p=0.15, word_random_p=0.10, word_keep_p=0.10, entity_p=0.15) -> MaskedBatch:
    """Apply MLM and masked-entity-prediction corruption to one sequence.

    Each word is independently selected with word_p; of the selected, 10%
    get a uniform random vocab id and 10% stay unchanged, the rest become
    word-[MASK].  Entities are selected with entity_p and always replaced by
    the entity-[MASK] id.  Padding words are never selected.
    """
    for p in (word_p, word_random_p, word_keep_p, entity_p):
        if not 0.0 <= p <= 1.0:
            raise ContractError(f"probability {p} outside [0, 1]")
    if word_random_p + word_keep_p > 1.0:
        raise ContractError("word_random_p + word_keep_p must be <= 1")

    m = seq.num_words
    new_word_ids = list(seq.word_ids)
    word_labels = [IGNORE_LABEL] * m
    for i in range(m):
        if seq.word_ids[i] == word_vocab.pad_id:
            continue
        if rng.random() >= word_p:
            continue
        word_labels[i] = seq.word_ids[i]
        r = rng.random()
        if r < word_random_p:
            new_word_ids[i] = int(rng.integers(len(SPECIAL_WORDS), len(word_vocab)))
        elif r < word_random_p + word_keep_p:
            pass  # keep the original token
        else:
            new_word_ids[i] = word_vocab.mask_id

    n = seq.num_entities
    new_entity_ids = list(seq.entity_ids)
    entity_labels = [IGNORE_LABEL] * n
    for j in range(n):
        if rng.random() < entity_p:
            entity_labels[j] = seq.entity_ids[j]
            new_entity_ids[j] = entity_mask_id

    masked_seq = replace(seq, word_ids=new_word_ids, entity_ids=new_entity_ids)
    return MaskedBatch(sequence=masked_seq, word_labels=word_labels, entity_labels=entity_labels)


class SequenceSampler:
    """Language-balanced sequence sampling: draw a language by p_i, then a
    sequence uniformly within it.  One language draw per sequence."""

    def __init__(self, sequences_by_language, alpha=0.7, seed=0):
        self.langs = sorted(l for l, seqs in sequences_by_language.items() if seqs)
        if not self.langs:
            raise ContractError("no non-empty languages to sample from")
        self.pools = {l: sequences_by_language[l] for l in self.langs}
        spec = LanguageSamplingSpec({l: len(self.pools[l]) for l in self.langs}, alpha=alpha)
        dist = language_distribution(spec)
        p = np.array([dist[l] for l in self.langs])
        # the CDF `Generator.choice(n, p=p)` builds on every call, built once
        self._cdf = p.cumsum()
        self._cdf /= self._cdf[-1]
        self.rng = substream(seed, "corpus-sampler")

    def draw(self):
        # the draw `choice(n, p=p)` makes: the same index from the same one double
        li = int(self._cdf.searchsorted(self.rng.random(), side="right"))
        pool = self.pools[self.langs[li]]
        return pool[int(self.rng.integers(len(pool)))]

    def draw_batch(self, size):
        return [self.draw() for _ in range(size)]
