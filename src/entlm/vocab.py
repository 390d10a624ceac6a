"""Cross-lingually merged entity vocabulary and mention statistics.

Wikipedia-style articles in different languages that share an entry in the
inter-language link table are one entity.  The vocabulary keeps the most
frequent entities (by hyperlink count) seen in at least `min_languages`
languages, with reserved special entries at the lowest ids.

Both preprocessing steps are linear in their input: the link table keeps an
inverted key -> titles index, so building the vocabulary costs one pass over
the annotations plus one over the links, and mention statistics slide once
over each page per distinct surface length.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .errors import ContractError
from .files import read_json_lines, write_json_lines

PAD_ENTITY = "[PAD]"
MASK_ENTITY = "[MASK]"
HEAD_ENTITY = "[HEAD]"
TAIL_ENTITY = "[TAIL]"
SPECIAL_ENTITIES = (PAD_ENTITY, MASK_ENTITY, HEAD_ENTITY, TAIL_ENTITY)

PAD_ENTITY_ID = 0
MASK_ENTITY_ID = 1
HEAD_ENTITY_ID = 2
TAIL_ENTITY_ID = 3


class InterLanguageLinks:
    """(language, title) -> canonical entity key; each pair maps to one key.

    An inverted index key -> {(language, title)} answers `titles_for_key`
    without scanning the table.
    """

    def __init__(self, entries=()):
        self._map = {}
        self._titles = defaultdict(set)  # key -> {(lang, title)}
        for lang, title, key in entries:
            self.add(lang, title, key)

    def add(self, lang, title, key):
        existing = self._map.get((lang, title))
        if existing is not None and existing != key:
            raise ContractError(f"({lang!r}, {title!r}) already mapped to {existing!r}, cannot remap to {key!r}")
        self._map[(lang, title)] = key
        self._titles[key].add((lang, title))

    def canonical_key(self, lang, title):
        """Canonical key for a page; unaligned pages get a per-language key."""
        return self._map.get((lang, title), f"{lang}:{title}")

    def titles_for_key(self, key):
        """A new set of the (language, title) pairs mapped to `key`."""
        return set(self._titles.get(key, ()))

    def save(self, path):
        """Write the table: sorted JSON lines of [language, title, canonical_key]."""
        write_json_lines(path, [[lang, title, key] for (lang, title), key in sorted(self._map.items())])

    @classmethod
    def load(cls, path):
        """Read a links file.  A row that is not three strings, or that remaps
        a (language, title) an earlier row maps, raises ContractError naming
        its line."""
        links = cls()

        def row(r):
            if not (isinstance(r, list) and len(r) == 3 and all(isinstance(x, str) for x in r)):
                raise ContractError("a link row must be [language, title, canonical_key]")
            links.add(*r)

        read_json_lines(path, row)
        return links


@dataclass
class EntityEntry:
    canonical_key: str
    link_count: int = 0
    titles: set = field(default_factory=set)  # set of (lang, title)

    def row(self):
        """[key, link_count, [[lang, title], ...]] with the titles sorted: one
        line of a vocab file, and one item of a checkpoint's `vocab.entities`."""
        return [self.canonical_key, self.link_count, sorted(self.titles)]

    @classmethod
    def from_row(cls, row):
        """The entry a JSON `row()` holds; ContractError unless it has that
        shape (strings and an int) and lists each title once.  Both the vocab
        file reader and the checkpoint header reader check rows here."""
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[0], str) and type(row[1]) is int
                and isinstance(row[2], list)
                and all(isinstance(t, list) and len(t) == 2 and isinstance(t[0], str) and isinstance(t[1], str)
                        for t in row[2])):
            raise ContractError("an entity row must be [key, link_count, [[lang, title], ...]]")
        titles = {tuple(t) for t in row[2]}
        if len(titles) != len(row[2]):
            raise ContractError("an entity row lists a title twice")
        return cls(canonical_key=row[0], link_count=row[1], titles=titles)


class EntityVocab:
    """Dense-id entity vocabulary.  Ids 0-3 are the specials [PAD] [MASK]
    [HEAD] [TAIL], and no two entries share a canonical key or a
    (language, title) pair."""

    def __init__(self, entries):
        self.entries = []  # index == id; specials included
        self.key_to_id = {}
        self.title_to_id = {}
        for e in entries:
            self._append(e)

    def _append(self, e):
        """Give `e` the next id.  A special out of place, or a key or title
        another entry holds, raises ContractError naming the id."""
        i = len(self.entries)
        if i < len(SPECIAL_ENTITIES) and e.canonical_key != SPECIAL_ENTITIES[i]:
            raise ContractError(f"entity {i} must be the special {SPECIAL_ENTITIES[i]}, not {e.canonical_key!r}")
        if e.canonical_key in self.key_to_id:
            raise ContractError(f"entity {i}: key {e.canonical_key!r} is entity "
                                f"{self.key_to_id[e.canonical_key]}'s")
        taken = e.titles & self.title_to_id.keys()
        if taken:
            lang, title = min(taken)
            raise ContractError(f"entity {i}: title {lang}:{title} is entity "
                                f"{self.title_to_id[(lang, title)]}'s")
        self.key_to_id[e.canonical_key] = i
        for pair in e.titles:
            self.title_to_id[pair] = i
        self.entries.append(e)

    def rows(self):
        """One `EntityEntry.row()` per id."""
        return [e.row() for e in self.entries]

    def require_specials(self):
        """ContractError unless the vocabulary holds all four specials."""
        if len(self.entries) < len(SPECIAL_ENTITIES):
            raise ContractError(f"{len(self.entries)} entities, but ids 0-{len(SPECIAL_ENTITIES) - 1} "
                                f"must be the specials {' '.join(SPECIAL_ENTITIES)}")

    def __len__(self):
        return len(self.entries)

    @property
    def mask_id(self):
        return MASK_ENTITY_ID

    @property
    def head_id(self):
        return HEAD_ENTITY_ID

    @property
    def tail_id(self):
        return TAIL_ENTITY_ID

    def resolve(self, language, title):
        """Entity id for a per-language title, or None if unknown."""
        return self.title_to_id.get((language, title))

    def resolve_key(self, canonical_key):
        return self.key_to_id.get(canonical_key)

    def save(self, path):
        """Write the vocab file: JSON lines of `rows()`, one entity per line in
        id order.  A vocabulary without all four specials raises ContractError
        before the file is opened."""
        self.require_specials()
        write_json_lines(path, self.rows())

    @classmethod
    def load(cls, path):
        """Read a vocab file.  A row that `EntityEntry.from_row` or `_append`
        refuses raises ContractError naming its line; a file of fewer than
        the four specials names line 1."""
        vocab = cls([])
        read_json_lines(path, lambda row: vocab._append(EntityEntry.from_row(row)))
        try:
            vocab.require_specials()
        except ContractError as e:
            raise ContractError(f"{path}:1: {e}") from None
        return vocab


def _special_entries():
    return [EntityEntry(canonical_key=name) for name in SPECIAL_ENTITIES]


def check_build_limits(min_languages, top_k):
    """ContractError unless both limits of `build_entity_vocab` are at least 1."""
    for name, value in (("min_languages", min_languages), ("top_k", top_k)):
        if value < 1:
            raise ContractError(f"{name} {value} must be >= 1")


def build_entity_vocab(docs, links: InterLanguageLinks, min_languages=3, top_k=1_200_000):
    """Merge hyperlink counts across languages and keep the frequent entities.

    Ranking happens after the >= min_languages filter; ties on hyperlink
    count break lexicographically on the canonical key so builds are
    deterministic regardless of corpus order.  The links' inverted index
    makes this linear in annotations plus links.
    """
    check_build_limits(min_languages, top_k)
    counts = defaultdict(int)
    titles = defaultdict(set)
    for doc in docs:
        for start, end, target_title in doc.annotations:
            key = links.canonical_key(doc.language, target_title)
            counts[key] += 1
            titles[key].add((doc.language, target_title))
    # a language counts toward the spread if the entity has a title there,
    # whether observed as a link target or recorded in the link table
    for key in counts:
        titles[key] |= links.titles_for_key(key)

    kept = [key for key in counts if len({lang for lang, _ in titles[key]}) >= min_languages]
    kept.sort(key=lambda k: (-counts[k], k))
    kept = kept[:top_k]

    entries = _special_entries()
    for key in kept:
        entries.append(EntityEntry(canonical_key=key, link_count=counts[key], titles=set(titles[key])))
    return EntityVocab(entries)


class MentionStats:
    """Per (language, surface) hyperlink and total occurrence counts."""

    def __init__(self):
        self.counts = {}  # (lang, surface) -> [hyperlink_count, total_count]

    def add(self, language, surface, hyperlink=0, total=0):
        c = self.counts.setdefault((language, surface), [0, 0])
        c[0] += hyperlink
        c[1] += total
        if c[0] > c[1]:
            raise ContractError(f"hyperlink count exceeds total count for {surface!r} in {language}")

    def link_probability(self, language, surface):
        """Hyperlink count / total count, or None for an unseen surface."""
        c = self.counts.get((language, surface))
        if c is None or c[1] == 0:
            return None
        return c[0] / c[1]


def collect_mention_stats(docs):
    """Count hyperlink vs total occurrences of every anchor surface, per language.

    Surfaces are exact token sequences; total counts are over matches on
    token boundaries in the same language's documents, overlapping matches
    included.  Each page is scanned once per distinct surface length in its
    language, so the cost is linear in tokens times lengths.
    """
    surfaces = defaultdict(set)  # lang -> set of surface token tuples
    hyperlink_counts = defaultdict(int)
    for doc in docs:
        for start, end, _target in doc.annotations:
            surf = tuple(doc.tokens[start:end])
            surfaces[doc.language].add(surf)
            hyperlink_counts[(doc.language, surf)] += 1

    lengths = {lang: {len(s) for s in surfs} for lang, surfs in surfaces.items()}
    totals = defaultdict(int)
    for doc in docs:
        surfs, tokens = surfaces.get(doc.language), doc.tokens
        for k in lengths.get(doc.language, ()):
            for i in range(len(tokens) - k + 1):
                window = tuple(tokens[i : i + k])
                if window in surfs:
                    totals[(doc.language, window)] += 1

    # one add per (language, surface tuple), languages in order of their
    # first document: surfaces whose joined strings collide add up
    stats = MentionStats()
    for lang in dict.fromkeys(doc.language for doc in docs):
        for surf in surfaces.get(lang, ()):
            stats.add(lang, " ".join(surf), hyperlink=hyperlink_counts[(lang, surf)], total=totals[(lang, surf)])
    return stats
