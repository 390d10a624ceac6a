"""Data files: the shared reader's line numbers, every reader under truncated
or bit-flipped input, and every writer under text UTF-8 cannot encode."""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_re_data
from entlm import align, cli, cloze, corpus, files, heads
from entlm.errors import ContractError, EntlmError
from entlm.synth import make_bilingual_corpus
from entlm.vocab import SPECIAL_ENTITIES, EntityEntry, EntityVocab, InterLanguageLinks, build_entity_vocab

# ---------------------------------------------------------------------------
# the shared reader


def test_read_lines_numbers_lines_and_skips_blank_ones(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\n\n  \nb\n")
    assert files.read_lines(str(path), str.upper) == ["A", "B"]
    path.write_bytes(b"1\n\n2\nx\n")
    with pytest.raises(ContractError, match=rf"^{re.escape(str(path))}:4: ValueError"):
        files.read_lines(str(path), int)


def test_read_lines_names_the_line_of_invalid_utf8(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"ok\n\xc3\xa9\nbad \xff byte\n")
    with pytest.raises(ContractError, match=r":3: UnicodeDecodeError"):
        files.read_lines(str(path), str)


def test_read_lines_paragraphs(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("\na\nb\n\n\nc\n \n")
    assert files.read_lines(str(path), str, paragraphs=True) == [["a", "b"], ["c"]]


def test_read_json_names_the_line_of_a_syntax_or_decode_error(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{\n  "a": 1,\n  "b": ]\n}\n')
    with pytest.raises(ContractError, match=r":3: JSONDecodeError"):
        files.read_json(str(path), dict)
    path.write_bytes(b'{\n  "a": "\xff"\n}\n')
    with pytest.raises(ContractError, match=r":2: UnicodeDecodeError"):
        files.read_json(str(path), dict)
    path.write_text("[1, 2]\n")
    with pytest.raises(ContractError, match=r":1: KeyError"):
        files.read_json(str(path), lambda d: {}[d[0]])


def test_read_json_with_lines_reads_json_lines(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"a": 1}\n{"a": 2}\n')
    assert files.read_json(str(path), lambda r: r["a"], lines=True) == [1, 2]
    path.write_text('{"a": 1}\n{"b": 2}\n')
    with pytest.raises(ContractError, match=r":2: KeyError"):
        files.read_json(str(path), lambda r: r["a"], lines=True)
    path.write_text('{"a": [1,\n 2]}\n')  # one document over two lines
    assert files.read_json(str(path), lambda r: r["a"], lines=True) == [1, 2]


# a high or low surrogate alone, a pair in the wrong order, one in an object key, an upper-case escape
@pytest.mark.parametrize("text", ['"x\\ud800"', '"\\udc00y"', '"\\ude00\\ud83d"', '{"\\udbff": 1}',
                                  '["ok", "\\uD800"]'])
def test_json_readers_refuse_a_lone_surrogate(tmp_path, text):
    path = tmp_path / "f.json"
    path.write_text('"fine"\n' + text + "\n")
    with pytest.raises(ContractError, match=r":2: a string holds a lone surrogate"):
        files.read_json_lines(str(path), str)
    path.write_text(text + "\n")
    with pytest.raises(ContractError, match=r":1: a string holds a lone surrogate"):
        files.read_json(str(path), str)
    path.write_text("[\n" + text + "\n]\n")  # one document over three lines is not read as JSON lines
    with pytest.raises(ContractError, match=r":1: a string holds a lone surrogate"):
        files.read_json(str(path), str, lines=True)


def test_json_readers_keep_escaped_pairs_and_bmp_text(tmp_path):
    path = tmp_path / "f.json"
    # an escaped pair, escaped BMP text, a literal backslash before "ud800", and raw UTF-8
    path.write_text('["\\ud83d\\ude00", "\\u00fc", "\\\\ud800", "東京"]\n', encoding="utf-8")
    want = ["\U0001f600", "\u00fc", "\\ud800", "東京"]
    assert files.read_json(str(path), list) == want
    assert files.read_json_lines(str(path), list) == [want]


# ---------------------------------------------------------------------------
# every writer encodes its rows before it opens the file

HALF_PAIR = "half \ud800 pair"  # a lone surrogate, which UTF-8 cannot encode


def _link_entities(path, monkeypatch):
    """link-entities on documents whose second title holds HALF_PAIR."""
    docs, links = make_bilingual_corpus(n_entities=3, n_sequences=4, seed=2)
    docs[1] = dataclasses.replace(docs[1], title=HALF_PAIR)
    vocab = path.with_name("entities.jsonl")
    build_entity_vocab(docs, links, min_languages=2).save(vocab)
    monkeypatch.setattr(corpus, "load_corpus", lambda _path: docs)
    cli.cmd_link_entities(argparse.Namespace(pages="pages.jsonl", text="text.jsonl", vocab=str(vocab),
                                             out=str(path), min_link_prob=0.0))


# (writer, line of the row holding HALF_PAIR)
WRITERS = {
    "corpus": (lambda path, _: corpus.save_corpus(
        [corpus.AnnotatedDocument("en", title, ["a"], []) for title in ("ok", HALF_PAIR)], path), 2),
    "embeddings": (lambda path, _: align.save_embeddings(
        [align.SpanEmbedding(f"s{i}", "en", text, np.ones(2)) for i, text in enumerate(("ok", HALF_PAIR))], path), 2),
    "entity-vocab": (lambda path, _: EntityVocab(
        [*(EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES),
         EntityEntry(canonical_key="k", titles={("en", HALF_PAIR)})]).save(path), 5),
    "links": (lambda path, _: InterLanguageLinks([("en", HALF_PAIR, "k"), ("en", "a", "k")]).save(path), 2),
    "link-entities": (_link_entities, 2),
    # indented, one key a line: "b" is on line 3
    "json-document": (lambda path, _: files.write_json(path, {"a": "ok", "b": HALF_PAIR}), 3),
}


@pytest.mark.parametrize("kind", WRITERS)
def test_every_writer_refuses_a_surrogate_and_writes_no_file(tmp_path, monkeypatch, kind):
    write, line = WRITERS[kind]
    path = tmp_path / "out.jsonl"
    with pytest.raises(ContractError, match="^" + re.escape(
            f"{path}:{line}: a string holds the surrogate '\\ud800', which UTF-8 cannot encode") + "$"):
        write(path, monkeypatch)
    assert not path.exists()


# ---------------------------------------------------------------------------
# every reader, fuzzed: it returns or raises an EntlmError naming path:line


def _write_fixtures(d):
    """One small valid file per reader; returns {kind: (path, reader)}."""
    docs, links = make_bilingual_corpus(n_entities=3, n_sequences=4, seed=2)
    corpus.save_corpus(docs, d / "corpus.jsonl")
    wv = corpus.build_word_vocab(docs)
    links.save(d / "links.jsonl")
    ev = build_entity_vocab(docs, links, min_languages=2)
    ev.save(d / "entities.jsonl")
    (d / "queries.jsonl").write_text(json.dumps({
        "lang": "en", "template": "[X] t0b_en [Y] .", "sub_surface": "ent0_en", "sub_entity": "ent0",
        "candidates": [{"surface": "ent0_en"}, {"surface": "ent1_en", "entity": "ent1"}],
        "gold_index": 1}) + "\n")
    pool = [align.SpanEmbedding(f"p{i}", "de", f"t{i}", np.array([0.5, -1.0 + i])) for i in range(2)]
    align.save_embeddings(pool, d / "emb.jsonl")
    (d / "gold.json").write_text(json.dumps({"q0": "p0", "q1": "p1"}))
    record = {"id": "q1", "question": "where is it ?", "context": "the Tokyo Tower stands",
              "answers": [{"text": "Tokyo Tower", "answer_start": 4}],
              "question_entities": [[2, 3, 4]], "context_entities": [[1, 3, 4]]}
    (d / "qa.jsonl").write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "q2"}) + "\n")
    (d / "squad.json").write_text(json.dumps({"data": [{"paragraphs": [
        {"context": record["context"], "qas": [{k: v for k, v in record.items() if k != "context"}]}]}]},
        indent=1))
    save_re_data([heads.REInstance(tokens="a works for b".split(), head_span=(0, 1),
                                   tail_span=(3, 4), label="employer")] * 2, d / "re.tsv")
    (d / "ner.txt").write_text("a B-PER\nb I-PER\nc O\n\nd B-LOC\n")
    (d / "spans.jsonl").write_text("".join(json.dumps({
        "id": i, "lang": "en", "tokens": ["t0a_en", "ent0_en", "t0b_en"], "span": [1, 2 + i],
        "entities": [["ent0", 1, 2], ["Ent0_en", 0, 3]]}) + "\n"
        for i in range(2)))
    (d / "manifest.json").write_text(json.dumps({"argv": [
        "analyze", "cwr", "--queries", "q.jsonl", "--pool", "p.jsonl", "--gold", "gold.json", "--out", "mrr.json"]}))
    return {
        "corpus": (d / "corpus.jsonl", corpus.load_corpus),
        "links": (d / "links.jsonl", InterLanguageLinks.load),
        "entity-vocab": (d / "entities.jsonl", EntityVocab.load),
        "queries": (d / "queries.jsonl", cloze.load_queries),
        "embeddings": (d / "emb.jsonl", align.load_embeddings),
        "gold": (d / "gold.json", lambda p: align.load_gold(p, pool)),
        "qa-jsonl": (d / "qa.jsonl", heads.load_qa_data),
        "qa-squad": (d / "squad.json", heads.load_qa_data),
        "re": (d / "re.tsv", heads.load_re_data),
        "ner": (d / "ner.txt", heads.load_ner_data),
        "spans": (d / "spans.jsonl", lambda p: align.load_span_items(p, wv, ev)),
        "manifest": (d / "manifest.json", lambda p: files.read_json(p, cli._replay_args)),
    }


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    return _write_fixtures(tmp_path_factory.mktemp("files"))


KINDS = ["corpus", "links", "entity-vocab", "queries", "embeddings", "gold",
         "qa-jsonl", "qa-squad", "re", "ner", "spans", "manifest"]


def test_every_fixture_is_valid(fixtures):
    assert sorted(fixtures) == sorted(KINDS)
    for path, reader in fixtures.values():
        assert reader(str(path))


@pytest.mark.parametrize("kind", ["entity-vocab", "gold", "manifest"])
def test_empty_vocab_gold_or_manifest_file_is_malformed(fixtures, kind, tmp_path):
    path, reader = fixtures[kind]
    empty = tmp_path / path.name
    empty.write_bytes(b"")
    with pytest.raises(ContractError, match=rf"^{re.escape(str(empty))}:1: "):
        reader(str(empty))


def _load_damaged(fixtures, kind, damage):
    path, reader = fixtures[kind]
    bad = path.with_name("damaged-" + path.name)
    bad.write_bytes(damage(path.read_bytes()))
    try:
        reader(str(bad))
    except EntlmError as e:
        assert re.match(rf"{re.escape(str(bad))}:\d+: ", str(e)), str(e)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(cut=st.floats(0.0, 1.0))
def test_truncated_file_loads_or_raises_typed_error(fixtures, kind, cut):
    _load_damaged(fixtures, kind, lambda raw: raw[: int(cut * len(raw))])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_flipped_bytes_load_or_raise_typed_error(fixtures, kind, flips):
    def damage(raw):
        out = bytearray(raw)
        for where, mask in flips:  # a mask with the high bit set can make invalid UTF-8
            out[int(where * len(out))] ^= mask
        return bytes(out)

    _load_damaged(fixtures, kind, damage)
