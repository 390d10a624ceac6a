"""Cross-lingual alignment diagnostics.

Contextualized word retrieval (CWR) ranks target-language span embeddings
by cosine similarity to a query span and reports mean reciprocal rank.
Modularity measures how strongly a cosine k-NN graph of embeddings clusters
by language: communities are the language labels themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .files import read_json, read_json_lines, write_json_lines
from .tensor import no_grad


@dataclass
class SpanEmbedding:
    uid: str
    language: str
    text: str
    vector: np.ndarray

    def validate(self):
        v = np.asarray(self.vector, dtype=np.float64)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ContractError(f"embedding for {self.uid} is not a flat list of finite numbers")
        return self


def span_embed(word_vectors, span):
    """Arithmetic mean of contextual word vectors over [start, end)."""
    s, e = span
    if not (0 <= s < e <= word_vectors.shape[0]):
        raise ContractError(f"span ({s}, {e}) out of bounds for {word_vectors.shape[0]} vectors")
    return word_vectors[s:e].mean(axis=0)


def _unit_rows(mat, what):
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0):
        raise ContractError(f"zero-norm vector in {what}")
    return mat / norms[:, None]


def cwr_mrr(queries, pool, gold):
    """Mean reciprocal rank of the gold pool item under cosine ranking.

    queries/pool: lists of SpanEmbedding; gold: {query uid -> pool uid}.
    Ties in similarity break toward the lower pool index.
    """
    if not queries or not pool:
        raise ContractError("empty query or pool set")
    pool_index = {p.uid: i for i, p in enumerate(pool)}
    q_mat = _unit_rows(np.stack([np.asarray(q.vector, dtype=np.float64) for q in queries]), "queries")
    p_mat = _unit_rows(np.stack([np.asarray(p.vector, dtype=np.float64) for p in pool]), "pool")
    if q_mat.shape[1] != p_mat.shape[1]:
        raise ContractError(f"query vectors have {q_mat.shape[1]} dimensions, but pool vectors {p_mat.shape[1]}")
    sims = q_mat @ p_mat.T
    rr = []
    for qi, q in enumerate(queries):
        if q.uid not in gold:
            raise ContractError(f"query {q.uid} has no gold mapping")
        if gold[q.uid] not in pool_index:
            raise ContractError(f"gold pool id {gold[q.uid]!r} of query {q.uid} is not in the pool")
        gi = pool_index[gold[q.uid]]
        row = sims[qi]
        # rank = 1 + number of strictly better + earlier-index ties
        better = np.sum(row > row[gi])
        ties_before = np.sum((row[:gi] == row[gi]))
        rr.append(1.0 / (1 + better + ties_before))
    return float(np.mean(rr))


def knn_graph(vectors, k):
    """Undirected edge set: (u, v) iff u in kNN(v) or v in kNN(u), cosine
    metric, no self-loops.  Each vector has n - 1 others, so k must be in [1, n - 1]."""
    n = vectors.shape[0]
    if not 1 <= k < n:
        raise ContractError(f"k {k} must be in [1, {n - 1}] for n = {n} vectors")
    unit = _unit_rows(np.asarray(vectors, dtype=np.float64), "knn input")
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    edges = set()
    for i in range(n):
        # stable tie-break: sort by (-sim, index)
        order = np.lexsort((np.arange(n), -sims[i]))[:k]
        for j in order:
            edges.add((min(i, int(j)), max(i, int(j))))
    return edges


def modularity(embeddings, k=3):
    """Newman modularity of the language partition on the cosine k-NN graph.

    Q = sum_c (e_cc - a_c^2), with e_cc the fraction of edges inside
    community c and a_c the fraction of edge endpoints in c.
    """
    langs = [e.language for e in embeddings]
    if len(set(langs)) < 2:
        return None  # undefined with a single language
    vectors = np.stack([np.asarray(e.vector, dtype=np.float64) for e in embeddings])
    edges = knn_graph(vectors, k)
    return modularity_of_partition(edges, langs)


def modularity_of_partition(edges, labels):
    if not edges:
        raise ContractError("graph has no edges")
    m = len(edges)
    communities = sorted(set(labels))
    e_cc = {c: 0 for c in communities}
    ends = {c: 0 for c in communities}
    for u, v in edges:
        if labels[u] == labels[v]:
            e_cc[labels[u]] += 1
        ends[labels[u]] += 1
        ends[labels[v]] += 1
    return float(sum(e_cc[c] / m - (ends[c] / (2 * m)) ** 2 for c in communities))


# ---------------------------------------------------------------------------
# embedding files (JSON lines: {id, lang, text, vector})


def save_embeddings(embeddings, path):
    write_json_lines(path, [{"id": e.uid, "lang": e.language, "text": e.text,
                             "vector": [float(x) for x in np.asarray(e.vector, dtype=np.float64)]}
                            for e in embeddings])


def load_embeddings(path, dim=None):
    """The SpanEmbeddings of a JSON-lines file.  Every vector has `dim`
    elements when it is given, else as many as the first."""

    def parse(d):
        nonlocal dim
        e = SpanEmbedding(uid=d["id"], language=d["lang"], text=d["text"],
                          vector=np.array(d["vector"], dtype=np.float64)).validate()
        dim = e.vector.size if dim is None else dim
        if e.vector.size != dim:
            raise ContractError(f"vector has {e.vector.size} elements, but {dim} are expected")
        return e

    return read_json_lines(path, parse)


def load_gold(path, pool):
    """A CWR gold file: one JSON object mapping query uids to uids in `pool`."""
    pool_uids = {p.uid for p in pool}

    def parse(gold):
        if not isinstance(gold, dict) or not set(gold.values()) <= pool_uids:
            raise ContractError("gold must be a JSON object mapping query ids to ids in the pool")
        return gold

    return read_json(path, parse)


# ---------------------------------------------------------------------------
# feature dumping (models used as-is, before any fine-tuning)


FEATURE_SPECS = ("span-mean", "re-word", "re-entity")

# items encoded per encode_batch call; bounds memory on large dumps
FEATURE_DUMP_GROUP = 16


def _bounds(value, n, what):
    """(start, end) of a two-item list of ints (not bools) with 0 <= start < end <= n."""
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
        raise ContractError(f"{what} {value!r} is not a list of two integers")
    s, e = value
    if not 0 <= s < e <= n:
        raise ContractError(f"{what} ({s}, {e}) out of bounds for {n} tokens")
    return s, e


def load_span_items(path, word_vocab, entity_vocab):
    """span-mean `feature_dump` items from JSON lines {id, lang, tokens, span}
    with optional `entities` [[key, start, end], ...]: each an entity token
    over tokens [start, end), its key a canonical key or a title in `lang`.
    `id`, `lang` and each key are strings, `tokens` a list of strings, and
    every bound an integer (a bool is refused)."""

    def item(d):
        for field in ("id", "lang"):
            if not isinstance(d[field], str):
                raise ContractError(f"{field} {d[field]!r} is not a string")
        tokens, lang = d["tokens"], d["lang"]
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ContractError(f"tokens {tokens!r} is not a list of strings")
        n = len(tokens)
        s, e = _bounds(d["span"], n, "span")
        entities = d.get("entities", [])
        if not isinstance(entities, list):
            raise ContractError(f"entities {entities!r} is not a list")
        entity_ids, entity_positions = [], []
        for row in entities:
            if not (isinstance(row, list) and len(row) == 3 and isinstance(row[0], str)):
                raise ContractError(f"entity row {row!r} is not [key, start, end] with a string key")
            key = row[0]
            es, ee = _bounds(row[1:], n, "entity span")
            eid = entity_vocab.resolve_key(key)
            if eid is None:
                eid = entity_vocab.resolve(lang, key)
            if eid is None:
                raise ContractError(f"entity {key!r} is neither a key nor a {lang} title in the vocab")
            entity_ids.append(eid)
            entity_positions.append(list(range(es, ee)))
        return d["id"], lang, {"word_ids": word_vocab.encode(tokens), "span": (s, e),
                               "entity_ids": entity_ids, "entity_positions": entity_positions,
                               "text": " ".join(tokens[s:e])}

    return read_json_lines(path, item)


@no_grad()
def feature_dump(model, dataset, feature_spec, out_path=None):
    """Write SpanEmbedding records for downstream metric ops.

    span-mean: dataset items are (uid, lang, EncodedSequence-buildable dict
    with word_ids and a span); re-word / re-entity: items are (uid, lang,
    REInstance) and the feature is the concatenated head+tail vector of the
    requested RE variant.  Consecutive items are encoded together, in
    groups of FEATURE_DUMP_GROUP; records keep the input order.
    """
    from .encoder import EncodedSequence, encode_batch, pack_batch
    from .heads import _re_features, make_re_model

    if feature_spec not in FEATURE_SPECS:
        raise ContractError(f"unknown feature spec {feature_spec!r}")

    if feature_spec != "span-mean":
        variant = "word-markers" if feature_spec == "re-word" else "entity-mask"
        re_model = make_re_model(model.encoder_config, model.params, model.word_vocab,
                                 model.entity_vocab, labels=["_dummy"], variant=variant)
    dataset = list(dataset)
    records = []
    for lo in range(0, len(dataset), FEATURE_DUMP_GROUP):
        group = dataset[lo : lo + FEATURE_DUMP_GROUP]
        if feature_spec == "span-mean":
            seqs = [EncodedSequence(word_ids=item["word_ids"], entity_ids=item.get("entity_ids", []),
                                    entity_positions=item.get("entity_positions", []))
                    for _uid, _lang, item in group]
            out = encode_batch(model.params, model.encoder_config, pack_batch(seqs))
            for b, ((uid, lang, item), seq) in enumerate(zip(group, seqs)):
                vec = span_embed(out.word_vectors[b, : seq.num_words], item["span"])
                records.append(SpanEmbedding(uid=uid, language=lang,
                                             text=item.get("text", ""), vector=vec).validate())
        else:
            f = _re_features(re_model, [inst for _uid, _lang, inst in group])
            for (uid, lang, inst), vec in zip(group, f.data):
                records.append(SpanEmbedding(uid=uid, language=lang,
                                             text=" ".join(inst.tokens), vector=vec).validate())
    if out_path:
        save_embeddings(records, out_path)
    return records
