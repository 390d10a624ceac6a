"""Heuristic entity detection via page-scoped mention maps.

Mention surfaces are exact token sequences.  Detection is a longest-match-
first, left-to-right, non-overlapping scan over token boundaries; matches
whose surface has a link probability below the threshold are then dropped.
Surfaces that refer to more than one entity on the source page are removed
up front.
"""

from __future__ import annotations

from collections import defaultdict

from .vocab import EntityVocab, InterLanguageLinks, MentionStats

DEFAULT_MIN_LINK_PROB = 0.01


class MentionMap:
    """surface token-tuple -> entity id, scoped to one source page."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})  # tuple(tokens) -> entity id
        self._max_len = max((len(s) for s in self.entries), default=0)

    def get(self, surface):
        return self.entries.get(tuple(surface))

    @property
    def max_surface_len(self):
        return self._max_len


def _dedupe_ambiguous(pairs):
    """Drop surfaces mapping to more than one entity; returns surface->id."""
    targets = defaultdict(set)
    for surface, eid in pairs:
        targets[surface].add(eid)
    return {s: next(iter(ids)) for s, ids in targets.items() if len(ids) == 1}


def build_mention_map(page_docs, vocab: EntityVocab) -> MentionMap:
    """Mention map from the hyperlinks of one source page's documents.

    Annotation targets that do not resolve against the vocab are skipped;
    surfaces with conflicting targets are removed.
    """
    pairs = []
    for doc in page_docs:
        for start, end, target_title in doc.annotations:
            eid = vocab.resolve(doc.language, target_title)
            if eid is None:
                continue
            pairs.append((tuple(doc.tokens[start:end]), eid))
    return MentionMap(_dedupe_ambiguous(pairs))


def detect_entities(tokens, mention_map: MentionMap, stats: MentionStats | None = None,
                    language=None, min_link_prob=DEFAULT_MIN_LINK_PROB):
    """Annotate token-boundary matches of the map's surfaces.

    Longest match wins at each position, scanning left to right, so the
    overlap structure is independent of the probability threshold; the
    threshold then only removes matches (monotone in min_link_prob).
    Returns a list of (start, end, entity_id).  Pass stats=None to skip the
    link-probability filter.
    """
    matches = []
    i = 0
    n = len(tokens)
    while i < n:
        found = None
        for length in range(min(mention_map.max_surface_len, n - i), 0, -1):
            eid = mention_map.get(tokens[i : i + length])
            if eid is not None:
                found = (i, i + length, eid)
                break
        if found:
            matches.append(found)
            i = found[1]
        else:
            i += 1

    if stats is None:
        return matches
    kept = []
    for start, end, eid in matches:
        p = stats.link_probability(language, " ".join(tokens[start:end]))
        if p is not None and p >= min_link_prob:
            kept.append((start, end, eid))
    return kept


def translate_mention_map(source_map: MentionMap, vocab: EntityVocab,
                          links: InterLanguageLinks, target_language, target_docs) -> MentionMap:
    """Carry a source page's mention map into another language.

    For each entity: find its target-language article via the merged vocab
    (built on the inter-language links), then collect the anchor strings
    used for that article in the target-language corpus.  Entities with no
    target-language article are omitted; the ambiguity rule is re-applied.
    """
    entity_ids = set(source_map.entries.values())
    target_titles = {}
    for eid in entity_ids:
        titles = {t for lang, t in vocab.entries[eid].titles if lang == target_language}
        key = vocab.entries[eid].canonical_key
        titles |= {t for lang, t in links.titles_for_key(key) if lang == target_language}
        if titles:
            target_titles[eid] = titles

    title_to_ids = defaultdict(list)  # ids in target_titles order, as pairs keeps them
    for eid, titles in target_titles.items():
        for title in titles:
            title_to_ids[title].append(eid)

    pairs = []
    for doc in target_docs:
        if doc.language != target_language:
            continue
        for start, end, target_title in doc.annotations:
            for eid in title_to_ids.get(target_title, ()):
                pairs.append((tuple(doc.tokens[start:end]), eid))
    return MentionMap(_dedupe_ambiguous(pairs))
