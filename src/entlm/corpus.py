"""Corpus ingestion, sequence generation, language-balanced sampling, masking.

Corpus files are JSON lines, one document per line:
  {"lang": ..., "title": ..., "tokens": [...], "sentence_breaks": [...],
   "annotations": [[start, end, title], ...]}
Fixtures use whitespace tokens; the tokenizer is pluggable upstream of this
file, everything here works on token lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .encoder import EncodedSequence
from .errors import ContractError
from .files import read_json_lines, write_json_lines
from .seeding import substream

IGNORE_LABEL = -100

# word vocabulary specials
PAD_WORD = "[PAD]"
UNK_WORD = "[UNK]"
MASK_WORD = "[MASK]"
SPECIAL_WORDS = (PAD_WORD, UNK_WORD, MASK_WORD)

SENTENCE_END_PUNCT = (".", "!", "?", "。", "！", "？")

DEFAULT_ENTITY_CAP = 32

# the paper's masking rates (`mask_batch`) and language smoothing exponent (`SequenceSampler`)
WORD_MASK_P = 0.15
WORD_RANDOM_P = 0.10
WORD_KEEP_P = 0.10
ENTITY_MASK_P = 0.15
LANGUAGE_ALPHA = 0.7


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
    write_json_lines(path, [{"lang": doc.language, "title": doc.title, "tokens": doc.tokens,
                             "sentence_breaks": doc.sentence_breaks,
                             "annotations": [list(a) for a in doc.annotations]} for doc in docs])


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
        get, unk = self.token_to_id.get, self.unk_id  # read once per call, not once per token
        return [get(t, unk) for t in tokens]

    def add(self, token):
        """Add a token (e.g. a finetune-time marker); returns its id."""
        if token not in self.token_to_id:
            self.token_to_id[token] = len(self.id_to_token)
            self.id_to_token.append(token)
        return self.token_to_id[token]


def build_word_vocab(docs, min_count=1):
    counts = Counter(t for doc in docs for t in doc.tokens)
    return WordVocab(sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t)))


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


def split_sequences(doc: AnnotatedDocument, max_words):
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


def language_distribution(counts, alpha):
    """Smoothed multinomial p_i = n_i^alpha / sum_k n_k^alpha over
    {language: n_i > 0}, with alpha in (0, 1]."""
    if not counts:
        raise ContractError("no languages to sample from")
    if any(n <= 0 for n in counts.values()):
        raise ContractError("all per-language counts must be positive")
    if not 0 < alpha <= 1:
        raise ContractError(f"alpha {alpha} outside (0, 1]")
    langs = sorted(counts)
    w = np.array([float(counts[l]) ** alpha for l in langs])
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


def encode_corpus(docs, word_vocab: WordVocab, entity_vocab, max_words, entity_cap=DEFAULT_ENTITY_CAP):
    """(sequences_by_language, dropped_annotations): every document split by
    `split_sequences` and encoded by `encode_document`, in corpus order.

    dropped_annotations counts each document's annotations that none of its
    sequences carries: a span across a sequence cut, an unresolved title, or
    one past entity_cap.
    """
    sequences_by_language, dropped = {}, 0
    for doc in docs:
        kept = 0
        for seq_doc in split_sequences(doc, max_words=max_words):
            seq = encode_document(seq_doc, word_vocab, entity_vocab, entity_cap=entity_cap)
            kept += seq.num_entities
            sequences_by_language.setdefault(doc.language, []).append(seq)
        dropped += len(doc.annotations) - kept
    return sequences_by_language, dropped


@dataclass
class MaskedBatch:
    sequence: EncodedSequence  # with masks applied
    word_labels: list  # original id at selected positions, IGNORE_LABEL elsewhere
    entity_labels: list


def mask_batch(seq: EncodedSequence, rng, word_vocab: WordVocab, entity_mask_id) -> MaskedBatch:
    """Apply MLM and masked-entity-prediction corruption to one sequence.

    Each word is independently selected with WORD_MASK_P; of the selected,
    WORD_RANDOM_P get a uniform random vocab id and WORD_KEEP_P stay
    unchanged, the rest become word-[MASK].  Entities are selected with
    ENTITY_MASK_P and always replaced by the entity-[MASK] id.  Padding
    words are never selected.
    """
    m = seq.num_words
    new_word_ids = list(seq.word_ids)
    word_labels = [IGNORE_LABEL] * m
    for i in range(m):
        if seq.word_ids[i] == word_vocab.pad_id:
            continue
        if rng.random() >= WORD_MASK_P:
            continue
        word_labels[i] = seq.word_ids[i]
        r = rng.random()
        if r < WORD_RANDOM_P:
            new_word_ids[i] = int(rng.integers(len(SPECIAL_WORDS), len(word_vocab)))
        elif r < WORD_RANDOM_P + WORD_KEEP_P:
            pass  # keep the original token
        else:
            new_word_ids[i] = word_vocab.mask_id

    n = seq.num_entities
    new_entity_ids = list(seq.entity_ids)
    entity_labels = [IGNORE_LABEL] * n
    for j in range(n):
        if rng.random() < ENTITY_MASK_P:
            entity_labels[j] = seq.entity_ids[j]
            new_entity_ids[j] = entity_mask_id

    masked_seq = replace(seq, word_ids=new_word_ids, entity_ids=new_entity_ids)
    return MaskedBatch(sequence=masked_seq, word_labels=word_labels, entity_labels=entity_labels)


class SequenceSampler:
    """Language-balanced sequence sampling: draw a language by p_i, then a
    sequence uniformly within it.  One language draw per sequence, with
    alpha LANGUAGE_ALPHA."""

    def __init__(self, sequences_by_language, seed=0):
        self.langs = sorted(l for l, seqs in sequences_by_language.items() if seqs)
        if not self.langs:
            raise ContractError("no non-empty languages to sample from")
        self.pools = {l: sequences_by_language[l] for l in self.langs}
        dist = language_distribution({l: len(self.pools[l]) for l in self.langs}, LANGUAGE_ALPHA)
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
