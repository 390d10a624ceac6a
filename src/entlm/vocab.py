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
from .files import read_lines

PAD_ENTITY = "[PAD]"
MASK_ENTITY = "[MASK]"
HEAD_ENTITY = "[HEAD]"
TAIL_ENTITY = "[TAIL]"
SPECIAL_ENTITIES = (PAD_ENTITY, MASK_ENTITY, HEAD_ENTITY, TAIL_ENTITY)

PAD_ENTITY_ID = 0
MASK_ENTITY_ID = 1
HEAD_ENTITY_ID = 2
TAIL_ENTITY_ID = 3

VOCAB_FILE_HEADER = "entlm-entity-vocab\tv1"
LINKS_FILE_COLUMNS = ("language", "title", "canonical_key")
_LINE_CHARS = "\t\r\n"  # no field of a vocab or links file may hold these


def _check_field(text, forbidden, what):
    """ContractError unless `text` holds none of `forbidden` and encodes as UTF-8."""
    bad = next((c for c in forbidden if c in text), None)
    if bad is not None:
        raise ContractError(f"{what} holds {bad!r}, which its file format cannot store")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ContractError(f"{what} does not encode as UTF-8") from None


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
            raise ContractError(f"({lang}, {title}) already mapped to {existing}, cannot remap to {key}")
        self._map[(lang, title)] = key
        self._titles[key].add((lang, title))

    def canonical_key(self, lang, title):
        """Canonical key for a page; unaligned pages get a per-language key."""
        return self._map.get((lang, title), f"{lang}:{title}")

    def titles_for_key(self, key):
        """A new set of the (language, title) pairs mapped to `key`."""
        return set(self._titles.get(key, ()))

    def __len__(self):
        return len(self._map)

    @classmethod
    def load_tsv(cls, path):
        links = cls()

        def row(line):
            if not line.startswith("#"):
                lang, title, key = line.split("\t")
                links.add(lang, title, key)

        read_lines(path, row)
        return links

    def save_tsv(self, path):
        """Write the table; a row that would not read back raises ContractError
        before the file is opened."""
        for (lang, title), key in self._map.items():
            what = f"link ({lang!r}, {title!r}) -> {key!r}"
            for text in (lang, title, key):
                _check_field(text, _LINE_CHARS, what)
            if lang.startswith("#"):
                raise ContractError(f"{what}: a language starting with '#' reads as a comment")
            if not (lang + title + key).strip():
                raise ContractError(f"{what}: a row of whitespace only reads as a blank line")
        with open(path, "w", encoding="utf-8") as f:
            f.write("#" + "\t".join(LINKS_FILE_COLUMNS) + "\n")
            for (lang, title), key in sorted(self._map.items()):
                f.write(f"{lang}\t{title}\t{key}\n")


@dataclass
class EntityEntry:
    canonical_key: str
    link_count: int = 0
    titles: set = field(default_factory=set)  # set of (lang, title)

    @property
    def languages(self):
        return {lang for lang, _ in self.titles}


class EntityVocab:
    """Dense-id entity vocabulary with specials at the lowest ids.  No two
    entries share a canonical key or a (language, title) pair."""

    def __init__(self, entries):
        self.entries = []  # index == id; specials included
        self.key_to_id = {}
        self.title_to_id = {}
        for e in entries:
            self._append(e)

    def _append(self, e):
        """Give `e` the next id; a key or title another entry holds raises ContractError."""
        i = len(self.entries)
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

    def __len__(self):
        return len(self.entries)

    @property
    def pad_id(self):
        return PAD_ENTITY_ID

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

    def titles_in_language(self, entity_id, language):
        return sorted(t for lang, t in self.entries[entity_id].titles if lang == language)

    def save(self, path):
        """Write the vocab file; a key or title that would not read back
        raises ContractError before the file is opened."""
        for e in self.entries:
            key = e.canonical_key
            _check_field(key, _LINE_CHARS, f"entity key {key!r}")
            for lang, title in e.titles:
                _check_field(lang, _LINE_CHARS + ":;", f"entity {key!r}: language {lang!r} of title {title!r}")
                _check_field(title, _LINE_CHARS + ";", f"entity {key!r}: title {title!r}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(VOCAB_FILE_HEADER + "\n")
            for i, e in enumerate(self.entries):
                pairs = ";".join(f"{lang}:{title}" for lang, title in sorted(e.titles))
                f.write(f"{i}\t{e.canonical_key}\t{len(e.languages)}\t{e.link_count}\t{pairs}\n")

    @classmethod
    def load(cls, path):
        """Read a vocab file.  A bad header, ids not dense from 0, a key or
        title an earlier row holds (or a title repeated within its row) and a
        language count other than the titles' raise ContractError naming the
        line."""
        vocab, header = cls([]), []

        def row(line):
            if not header:
                if line != VOCAB_FILE_HEADER:
                    raise ContractError(f"unrecognized vocab file header: {line!r}")
                header.append(line)
                return
            idx, key, nlang, count, pairs = line.split("\t")
            if int(idx) != len(vocab):
                raise ContractError("vocab file ids are not dense from 0")
            titles = [pair.partition(":")[::2] for pair in pairs.split(";")] if pairs else []
            if len(set(titles)) != len(titles):
                raise ContractError(f"entity {idx} lists a title twice")
            e = EntityEntry(canonical_key=key, link_count=int(count), titles=set(titles))
            if int(nlang) != len(e.languages):
                raise ContractError(f"entity {idx} has a language count of {nlang}, "
                                    f"but its titles are in {len(e.languages)} languages")
            vocab._append(e)

        read_lines(path, row)
        if not header:
            raise ContractError(f"{path}:1: empty vocab file")
        return vocab


def _special_entries():
    return [EntityEntry(canonical_key=name) for name in SPECIAL_ENTITIES]


def build_entity_vocab(docs, links: InterLanguageLinks, min_languages=3, top_k=1_200_000):
    """Merge hyperlink counts across languages and keep the frequent entities.

    Ranking happens after the >= min_languages filter; ties on hyperlink
    count break lexicographically on the canonical key so builds are
    deterministic regardless of corpus order.  The links' inverted index
    makes this linear in annotations plus links.
    """
    if min_languages < 1:
        raise ContractError("min_languages must be >= 1")
    if top_k < 1:
        raise ContractError("top_k must be >= 1")
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
