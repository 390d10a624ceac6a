"""Command-line surface: manifests, reruns, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entlm.pretrain as pretrain_mod
from conftest import save_re_data, tensor_digest
from entlm.align import SpanEmbedding, feature_dump, load_embeddings, save_embeddings
from entlm.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main
from entlm.cloze import ClozeModel
from entlm.corpus import AnnotatedDocument, save_corpus
from entlm.encoder import param_specs
from entlm.heads import META_FIELDS, REInstance, task_model_from_checkpoint
from entlm.pretrain import load_checkpoint
from entlm.synth import make_bilingual_corpus
from entlm.vocab import SPECIAL_ENTITIES, EntityEntry, EntityVocab

CONFIG_TEXT = """
[model]
hidden_size = 16
entity_emb_size = 8
layers = 1
heads = 2
ffn_size = 32
max_positions = 16
dropout = 0.0

[train]
total_steps = 6
stage1_steps = 2
batch_size = 2
warmup_steps = 2
seed = 21
log_interval = 2

[data]
corpus = {corpus}
entity_vocab = {vocab}
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    docs, links = make_bilingual_corpus(n_entities=6, n_sequences=40, seed=5)
    corpus_path = str(ws / "corpus.jsonl")
    links_path = str(ws / "links.jsonl")
    save_corpus(docs, corpus_path)
    links.save(links_path)
    vocab_path = str(ws / "entities.jsonl")
    rc = main(["build-vocab", "--corpus", corpus_path, "--links", links_path,
               "--out", vocab_path, "--min-languages", "2"])
    assert rc == EXIT_OK
    cfg_path = str(ws / "run.cfg")
    with open(cfg_path, "w") as f:
        f.write(CONFIG_TEXT.format(corpus=corpus_path, vocab=vocab_path))
    return {"ws": ws, "corpus": corpus_path, "links": links_path,
            "vocab": vocab_path, "config": cfg_path}


def test_build_vocab_writes_manifest(workspace):
    manifest = json.loads(Path(workspace["vocab"] + ".manifest.json").read_text())
    assert manifest["argv"] == ["build-vocab", "--corpus", workspace["corpus"], "--links", workspace["links"],
                                "--out", workspace["vocab"], "--min-languages", "2"]
    assert not {"command", "options"} & manifest.keys()
    assert workspace["corpus"] in manifest["input_digests"]
    assert len(manifest["input_digests"][workspace["corpus"]]) == 64  # sha256 hex
    assert "entlm" in manifest["versions"]


def test_link_entities_annotates(workspace):
    out = str(workspace["ws"] / "linked.jsonl")
    rc = main(["link-entities", "--pages", workspace["corpus"],
               "--text", workspace["corpus"], "--vocab", workspace["vocab"],
               "--out", out, "--min-link-prob", "0.0"])
    assert rc == EXIT_OK
    rows = [json.loads(l) for l in Path(out).read_text().splitlines()]
    assert rows and any(r["annotations"] for r in rows)
    for r in rows:
        for s, e, eid in r["annotations"]:
            assert 0 <= s < e and eid >= 4  # real entities, not specials


# the README walkthrough's build-vocab and link-entities steps on the default
# toy corpus write these files, byte for byte
PINNED_OUTPUT_DIGESTS = {
    "entities.jsonl": "9edbe2fed2a583d35b3e24d7c89a9d08a24b95db8b4bd97566eadc294c3e949f",
    "linked.jsonl": "1d2ba35868786a5851b7bd98958d2df81e01063ab0a8a434fe2157b86b96078a",
}


def test_walkthrough_vocab_and_links_are_pinned(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_toy_corpus.py"
    subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path)], check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    corpus_path, vocab_path = str(tmp_path / "corpus.jsonl"), str(tmp_path / "entities.jsonl")
    assert main(["build-vocab", "--corpus", corpus_path, "--links", str(tmp_path / "links.jsonl"),
                 "--out", vocab_path, "--min-languages", "2"]) == EXIT_OK
    assert main(["link-entities", "--pages", corpus_path, "--text", corpus_path, "--vocab", vocab_path,
                 "--out", str(tmp_path / "linked.jsonl"), "--min-link-prob", "0.01"]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_OUTPUT_DIGESTS}
    assert digests == PINNED_OUTPUT_DIGESTS


def test_build_vocab_refuses_a_title_it_cannot_store(tmp_path, capsys):
    corpus_path, links_path = tmp_path / "corpus.jsonl", tmp_path / "links.jsonl"
    # a lone surrogate, which JSON can escape but UTF-8 cannot encode: the corpus reader refuses it
    corpus_path.write_text(json.dumps({"lang": "en", "title": "p", "tokens": ["New", "York"],
                                       "annotations": [[0, 2, "New York \ud800"]]}) + "\n")
    links_path.write_text("")
    out = tmp_path / "entities.jsonl"
    rc = main(["build-vocab", "--corpus", str(corpus_path), "--links", str(links_path), "--out", str(out),
               "--min-languages", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err.startswith(f"error: {corpus_path}:1: a string holds a lone surrogate"), err
    assert "Traceback" not in err
    assert not out.exists() and not Path(str(out) + ".manifest.json").exists()


# every title a vocab file holds reads back as it was built, separators and all
SEPARATOR_TITLES = [("en", "New York; City"), ("en", "Tab\tTitle"), ("en", "Two\nLines"),
                    ("en:us", "Color: Red"), ("ja", "東京")]


def test_titles_with_separators_survive_build_vocab_link_entities_and_pretrain(tmp_path):
    docs = [AnnotatedDocument(language=lang, title=f"page{i}", tokens=["w", f"m{i}", "x", "."],
                              annotations=[(1, 2, title)])
            for _ in range(3) for i, (lang, title) in enumerate(SEPARATOR_TITLES)]
    corpus_path, links_path, vocab_path = tmp_path / "corpus.jsonl", tmp_path / "links.jsonl", tmp_path / "e.jsonl"
    save_corpus(docs, str(corpus_path))
    links_path.write_text("")
    assert main(["build-vocab", "--corpus", str(corpus_path), "--links", str(links_path), "--out", str(vocab_path),
                 "--min-languages", "1"]) == EXIT_OK
    ev = EntityVocab.load(str(vocab_path))
    assert sorted(pair for e in ev.entries for pair in e.titles) == sorted(SEPARATOR_TITLES)
    for lang, title in SEPARATOR_TITLES:
        assert ev.entries[ev.resolve(lang, title)].canonical_key == f"{lang}:{title}"

    linked = tmp_path / "linked.jsonl"
    assert main(["link-entities", "--pages", str(corpus_path), "--text", str(corpus_path), "--vocab", str(vocab_path),
                 "--out", str(linked), "--min-link-prob", "0.0"]) == EXIT_OK
    rows = [json.loads(line) for line in linked.read_text(encoding="utf-8").splitlines()]
    assert [r["annotations"] for r in rows] == [[[1, 2, ev.resolve(d.language, d.annotations[0][2])]] for d in docs]

    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEXT.format(corpus=corpus_path, vocab=vocab_path), encoding="utf-8")
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert load_checkpoint(str(tmp_path / "run" / "checkpoint-final.bin")).entity_vocab.rows() == ev.rows()


@pytest.fixture(scope="module")
def pretrained(workspace):
    out = str(workspace["ws"] / "pretrain")
    rc = main(["pretrain", "--config", workspace["config"], "--out", out])
    assert rc == EXIT_OK
    return out


def test_pretrain_outputs(pretrained):
    assert os.path.exists(os.path.join(pretrained, "checkpoint-final.bin"))
    assert not os.path.exists(os.path.join(pretrained, "word_vocab.txt"))  # the checkpoint holds the vocabularies
    log = Path(pretrained, "train_log.tsv").read_text().strip().splitlines()
    assert len(log) >= 3
    manifest = json.loads(Path(pretrained, "manifest.json").read_text())
    assert manifest["argv"][0] == "pretrain"
    assert manifest["seed"] == 21


def test_pretrain_rerun_is_bit_identical(workspace, pretrained):
    out2 = str(workspace["ws"] / "pretrain-rerun")
    rc = main(["rerun", os.path.join(pretrained, "manifest.json"), "--out", out2])
    assert rc == EXIT_OK
    a = Path(pretrained, "checkpoint-final.bin").read_bytes()
    b = Path(out2, "checkpoint-final.bin").read_bytes()
    assert a == b


def test_rerun_of_a_changed_or_missing_input_exits_1_and_writes_nothing(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(Path(workspace["corpus"]).read_bytes())
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.format(corpus=corpus, vocab=workspace["vocab"]))
    out = tmp_path / "pretrain"
    assert main(["pretrain", "--config", str(config), "--out", str(out)]) == EXIT_OK
    with open(corpus, "a") as f:
        f.write(Path(workspace["corpus"]).read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    for what in ("changed", "missing"):
        again = tmp_path / f"pretrain-{what}"
        rc = main(["rerun", str(out / "manifest.json"), "--out", str(again)])
        err = capsys.readouterr().err
        assert rc == EXIT_FAILURE
        assert f"input {corpus} " in err and what in err and "Traceback" not in err
        assert not again.exists()
        corpus.unlink(missing_ok=True)


def test_pretrain_seed_flag_changes_result(workspace, pretrained):
    out2 = str(workspace["ws"] / "pretrain-seed")
    rc = main(["pretrain", "--config", workspace["config"], "--out", out2, "--seed", "99"])
    assert rc == EXIT_OK
    a = Path(pretrained, "checkpoint-final.bin").read_bytes()
    b = Path(out2, "checkpoint-final.bin").read_bytes()
    assert a != b


def test_pretrain_counts_dropped_annotations(workspace, capsys):
    ws = workspace["ws"]
    entries = [EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES]
    entries += [EntityEntry(canonical_key="tokyo", titles={("en", "Tokyo")}),
                EntityEntry(canonical_key="japan", titles={("en", "Japan")})]
    EntityVocab(entries).save(str(ws / "drop-entities.jsonl"))
    docs = [
        # Japan is past entity_cap = 1
        AnnotatedDocument("en", "a", "tokyo is in japan .".split(), [(0, 1, "Tokyo"), (3, 4, "Japan")]),
        # Osaka does not resolve
        AnnotatedDocument("en", "b", "osaka is big .".split(), [(0, 1, "Osaka")]),
        AnnotatedDocument("en", "c", "japan is big .".split(), [(0, 1, "Japan")]),
    ]
    save_corpus(docs, str(ws / "drop-corpus.jsonl"))
    cfg = ws / "drop.cfg"
    cfg.write_text(CONFIG_TEXT.format(corpus=ws / "drop-corpus.jsonl", vocab=ws / "drop-entities.jsonl")
                   + "entity_cap = 1\n")
    rc = main(["pretrain", "--config", str(cfg), "--out", str(ws / "drop-out")])
    assert rc == EXIT_OK
    assert "pretrained 6 steps, dropped 2 annotations" in capsys.readouterr().out
    assert json.loads((ws / "drop-out" / "manifest.json").read_text())["dropped_annotations"] == 2


def test_pretrain_splits_documents_at_max_positions(workspace, monkeypatch):
    # 30-word documents of six 5-word sentences, for a 16-row position table
    docs = []
    for d in range(4):
        tokens, annotations = [], []
        for j in range(6 * d, 6 * d + 6):
            toks, _k, i = _sentence(j)
            annotations.append((len(tokens) + 1, len(tokens) + 2, f"Ent{i}_en"))
            tokens += toks
        docs.append(AnnotatedDocument("en", f"long{d}", tokens, annotations))
    ws = workspace["ws"]
    save_corpus(docs, str(ws / "long-corpus.jsonl"))
    cfg = ws / "long.cfg"
    cfg.write_text(CONFIG_TEXT.format(corpus=ws / "long-corpus.jsonl", vocab=workspace["vocab"]))
    trained = []
    train = pretrain_mod.train

    def recording_train(encoder_config, train_config, sequences_by_language, *args, **kwargs):
        trained.extend(s for seqs in sequences_by_language.values() for s in seqs)
        return train(encoder_config, train_config, sequences_by_language, *args, **kwargs)

    monkeypatch.setattr(pretrain_mod, "train", recording_train)
    assert main(["pretrain", "--config", str(cfg), "--out", str(ws / "long-out")]) == EXIT_OK
    # three whole sentences per sequence, and no word lost
    assert [s.num_words for s in trained] == [15] * 8
    assert sum(s.num_entities for s in trained) == 24


def test_pretrain_set_override(workspace):
    out = str(workspace["ws"] / "pretrain-set")
    rc = main(["pretrain", "--config", workspace["config"], "--out", out,
               "--set", "train.total_steps=3", "--set", "train.stage1_steps=0"])
    assert rc == EXIT_OK
    from entlm.pretrain import load_checkpoint
    assert load_checkpoint(os.path.join(out, "checkpoint-final.bin")).step == 3


def test_rerun_setting_a_fixed_optimizer_value_exits_3_and_writes_nothing(workspace, pretrained, tmp_path, capsys):
    # AdamW's betas are constants, not train.* keys, so a manifest that sets one does not replay
    manifest = json.loads(Path(pretrained, "manifest.json").read_text())
    manifest["argv"] += ["--set", "train.beta1=0.9"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "again"
    capsys.readouterr()
    rc = main(["rerun", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "unknown config keys: train.beta1" in err
    assert not out.exists()


def test_pretrain_on_an_empty_corpus_exits_1_and_writes_nothing(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(CONFIG_TEXT.format(corpus=empty, vocab=workspace["vocab"]))
    out = tmp_path / "out"
    rc = main(["pretrain", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err == "error: no non-empty languages to sample from\n"
    assert not out.exists()


@pytest.mark.parametrize("source, line, edit", [
    ("corpus", 3, lambda doc: doc["tokens"].__setitem__(0, "x\ud800")),
    ("vocab", 6, lambda row: row[2][0].__setitem__(1, "M\ud800")),
], ids=["corpus-token", "vocab-title"])
def test_pretrain_refuses_a_lone_surrogate_before_writing(workspace, tmp_path, capsys, source, line, edit):
    # json.dumps writes the lone surrogate as the escape \ud800, which a UTF-8 checkpoint cannot hold
    bad = tmp_path / f"bad-{source}.jsonl"
    bad.write_bytes(_record_edit(line, edit)(Path(workspace[source]).read_bytes()))
    paths = {"corpus": workspace["corpus"], "vocab": workspace["vocab"], source: bad}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEXT.format(corpus=paths["corpus"], vocab=paths["vocab"]))
    out = tmp_path / "out"
    rc = main(["pretrain", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err.startswith(f"error: {bad}:{line}: a string holds a lone surrogate"), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("drop", ["train.total_steps", "data.corpus", "data.entity_vocab"])
def test_config_without_a_required_key_exits_3_and_writes_nothing(workspace, tmp_path, capsys, drop):
    section, key = drop.split(".")
    lines, current = [], None
    for line in Path(workspace["config"]).read_text().splitlines():
        current = line.strip("[]") if line.startswith("[") else current
        if not (current == section and line.startswith(f"{key} =")):
            lines.append(line)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = main(["pretrain", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err == "config error: config must set data.corpus, data.entity_vocab and train.total_steps\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, missing", [
    (["cwr", "--pool", "p.jsonl", "--gold", "g.json"], "--queries"),
    (["cwr", "--queries", "q.jsonl"], "--pool, --gold"),
    (["cwr"], "--queries, --pool, --gold"),
    (["modularity", "--queries", "q.jsonl"], "--embeddings"),
])
def test_analyze_without_its_inputs_exits_3_and_writes_nothing(tmp_path, capsys, argv, missing):
    out = tmp_path / "out.json"
    rc = main(["analyze", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err == f"config error: analyze {argv[0]} needs {missing}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k", ["0", "-1"])
def test_analyze_k_below_1_exits_3_before_reading_a_file(tmp_path, capsys, k):
    out = tmp_path / "mod.json"
    rc = main(["analyze", "modularity", "--embeddings", str(tmp_path / "missing.jsonl"), "--k", k,
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err == f"config error: analyze: k {k} must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


def test_analyze_k_of_at_least_the_embedding_count_exits_1_and_writes_nothing(tmp_path, capsys):
    # 40 embeddings, as in the README walkthrough: each has 39 neighbours at most
    emb = tmp_path / "emb.jsonl"
    rng = np.random.default_rng(0)
    save_embeddings([SpanEmbedding(f"s{i}", "en" if i < 20 else "de", "t", rng.normal(size=4))
                     for i in range(40)], str(emb))
    out = tmp_path / "mod.json"
    rc = main(["analyze", "modularity", "--embeddings", str(emb), "--k", "100", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err == "error: k 100 must be in [1, 39] for n = 40 vectors\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.jsonl"]


def test_config_file_that_is_not_utf8_exits_3_naming_the_line(workspace, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(Path(workspace["config"]).read_bytes() + b"# caf\xe9 au lait\n")
    line = cfg.read_bytes().count(b"\n")
    out = tmp_path / "out"
    rc = main(["pretrain", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith(f"config error: {cfg}:{line}: UnicodeDecodeError")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def finetuned(workspace, pretrained):
    re_path = str(workspace["ws"] / "re_train.tsv")
    insts = []
    for _ in range(6):
        insts.append(REInstance(tokens="t0a_en ent0_en t0b_en t0c_en".split(),
                                head_span=(1, 2), tail_span=(3, 4), label="r1"))
        insts.append(REInstance(tokens="t1a_en ent1_en t1b_en t1c_en".split(),
                                head_span=(1, 2), tail_span=(3, 4), label="r2"))
    save_re_data(insts, re_path)
    out = str(workspace["ws"] / "finetune")
    rc = main(["finetune", "re",
               "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--train", re_path, "--dev", re_path, "--out", out,
               "--variant", "entity", "--epochs", "2", "--lr", "0.005"])
    assert rc == EXIT_OK
    return {"out": out, "re": re_path}


def test_finetune_outputs(finetuned):
    ckpt = os.path.join(finetuned["out"], "checkpoint-finetuned.bin")
    assert os.path.exists(ckpt)
    from entlm.pretrain import load_checkpoint
    meta = load_checkpoint(ckpt).meta
    assert meta["task"] == "re"
    assert meta["variant"] == "entity-mask"
    assert sorted(meta["labels"]) == ["r1", "r2"]


def test_finetune_rerun_is_bit_identical(workspace, finetuned):
    out2 = str(workspace["ws"] / "finetune-rerun")
    rc = main(["rerun", os.path.join(finetuned["out"], "manifest.json"), "--out", out2])
    assert rc == EXIT_OK
    a = Path(finetuned["out"], "checkpoint-finetuned.bin").read_bytes()
    b = Path(out2, "checkpoint-finetuned.bin").read_bytes()
    assert a == b


def test_eval_reports_metrics(workspace, finetuned):
    out = str(workspace["ws"] / "re_eval.json")
    rc = main(["eval", "re",
               "--checkpoint", os.path.join(finetuned["out"], "checkpoint-finetuned.bin"),
               "--data", finetuned["re"], "--out", out])
    assert rc == EXIT_OK
    report = json.loads(Path(out).read_text())
    assert 0.0 <= report["macro_f1"] <= 1.0
    assert report["n"] == 12


def test_eval_task_mismatch_is_config_error(workspace, pretrained, finetuned, capsys):
    rc = main(["eval", "qa",
               "--checkpoint", os.path.join(finetuned["out"], "checkpoint-finetuned.bin"),
               "--data", finetuned["re"], "--out", str(workspace["ws"] / "x.json")])
    assert rc == EXIT_CONFIG
    # a pretrain checkpoint carries no task head
    ckpt = os.path.join(pretrained, "checkpoint-final.bin")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", ckpt, "--data", finetuned["re"], "--out", str(workspace["ws"] / "x.json")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {ckpt}: checkpoint holds no task head; finetune it before eval\n"
    assert not (workspace["ws"] / "x.json").exists()


def test_cloze_eval_runs(workspace, pretrained):
    queries = str(workspace["ws"] / "queries.jsonl")
    with open(queries, "w") as f:
        f.write(json.dumps({
            "lang": "en", "template": "[X] t0b_en [Y] .", "sub_surface": "t0a_en",
            "candidates": [{"surface": "ent0_en"}, {"surface": "ent1_en"}],
            "gold_index": 0}) + "\n")
    out = str(workspace["ws"] / "cloze.json")
    rc = main(["cloze-eval", "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--queries", queries, "--mode", "entity-y", "--out", out])
    assert rc == EXIT_OK
    report = json.loads(Path(out).read_text())
    assert report["mode"] == "entity-y"
    assert report["records"][0]["used_entity"] in (True, False)


def test_cloze_eval_and_eval_on_an_empty_file_exit_1_and_write_nothing(workspace, pretrained, finetuned, tmp_path,
                                                                      capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    out = tmp_path / "report.json"
    for argv, message in (
            (["cloze-eval", "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"), "--queries"],
             "empty cloze query set"),
            (["eval", "re", "--checkpoint", os.path.join(finetuned["out"], "checkpoint-finetuned.bin"), "--data"],
             "empty re eval set")):
        rc = main([*argv, str(empty), "--out", str(out)])
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_dump_features_and_analyze(workspace, pretrained):
    data = str(workspace["ws"] / "spans.jsonl")
    with open(data, "w") as f:
        for i, lang in enumerate(["en", "en", "de", "de"]):
            f.write(json.dumps({
                "id": f"s{i}", "lang": lang,
                "tokens": [f"t0a_{lang}", f"ent{i % 2}_{lang}", f"t0b_{lang}"],
                "span": [1, 2]}) + "\n")
    emb = str(workspace["ws"] / "emb.jsonl")
    rc = main(["dump-features", "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--data", data, "--feature-spec", "span-mean", "--out", emb])
    assert rc == EXIT_OK

    out = str(workspace["ws"] / "mod.json")
    rc = main(["analyze", "modularity", "--embeddings", emb, "--k", "1", "--out", out])
    assert rc == EXIT_OK
    report = json.loads(Path(out).read_text())
    assert report["n"] == 4 and -1.0 <= report["modularity"] <= 1.0

    gold = str(workspace["ws"] / "gold.json")
    with open(gold, "w") as f:
        json.dump({"s0": "s2", "s1": "s3"}, f)
    qf = str(workspace["ws"] / "q.jsonl")
    pf = str(workspace["ws"] / "p.jsonl")
    lines = Path(emb).read_text().splitlines()
    Path(qf).write_text("\n".join(lines[:2]) + "\n")
    Path(pf).write_text("\n".join(lines[2:]) + "\n")
    out = str(workspace["ws"] / "cwr.json")
    rc = main(["analyze", "cwr", "--queries", qf, "--pool", pf, "--gold", gold, "--out", out])
    assert rc == EXIT_OK
    assert 0.0 < json.loads(Path(out).read_text())["mrr"] <= 1.0


def test_inspect_checkpoint(capsys, pretrained):
    rc = main(["inspect-checkpoint", "--checkpoint",
               os.path.join(pretrained, "checkpoint-final.bin")])
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["step"] == 6
    assert "word_emb" in summary["tensors"]
    config = summary["encoder_config"]
    assert summary["vocab_sizes"] == {"words": config["word_vocab_size"], "entities": config["entity_vocab_size"]}


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["pretrain"])  # missing required options
    assert exc.value.code == 2


def test_bad_config_key_exits_3(workspace):
    out = str(workspace["ws"] / "bad")
    rc = main(["pretrain", "--config", workspace["config"], "--out", out,
               "--set", "train.not_a_field=1"])
    assert rc == EXIT_CONFIG


# alpha, the masking rates, beta1 and adam_eps are constants now, not train.*
# keys, and pretraining cuts sequences at model.max_positions, the type tables
# have a fixed two rows and LayerNorm one epsilon: setting one of these is
# refused as an unknown key, before anything is written
@pytest.mark.parametrize("override", ["train.alpha=1.5", "train.alpha=0", "train.word_mask_p=2",
                                      "train.word_random_p=0.95", "train.entity_mask_p=-0.1",
                                      "model.dropout=-0.1", "train.batch_size=0", "train.batch_size=-2",
                                      "train.peak_lr=-1.0", "train.beta1=1.5", "train.adam_eps=0.0",
                                      "train.log_interval=-1", "train.checkpoint_interval=-1",
                                      "model.heads=0", "model.heads=-2", "model.layers=-1",
                                      "model.ffn_size=0", "model.hidden_size=0", "model.entity_emb_size=0",
                                      "data.max_words=16", "model.type_count=2", "model.layer_norm_eps=1e-5"])
def test_bad_train_value_exits_3_before_writing(workspace, override):
    out = workspace["ws"] / "bad-train"
    rc = main(["pretrain", "--config", workspace["config"], "--out", str(out), "--set", override])
    assert rc == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--batch-size", "0"], ["--lr", "-1.0"], ["--epochs", "0"]])
def test_bad_finetune_value_exits_3_before_writing(workspace, pretrained, finetuned, flag):
    out = workspace["ws"] / "bad-finetune"
    rc = main(["finetune", "re",
               "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--train", finetuned["re"], "--out", str(out), *flag])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_corrupt_checkpoint_exits_1(workspace, pretrained, capsys):
    from entlm.pretrain import CHECKPOINT_MAGIC
    good = Path(pretrained, "checkpoint-final.bin").read_bytes()
    header_start = len(CHECKPOINT_MAGIC) + 8
    header_len = int.from_bytes(good[len(CHECKPOINT_MAGIC):header_start], "little")
    payload_start = header_start + header_len
    bad = str(workspace["ws"] / "bad.bin")
    for content in (b"junk",
                    good[: len(CHECKPOINT_MAGIC) + 4],  # inside the header length
                    good[: header_start + header_len // 2],  # mid-header
                    good[:header_start] + b"\xff" * header_len + good[payload_start:],  # header not JSON
                    good[: (payload_start + len(good)) // 2]):  # mid-payload
        Path(bad).write_bytes(content)
        rc = main(["inspect-checkpoint", "--checkpoint", bad])
        assert rc == EXIT_FAILURE, len(content)

    # headers that are valid JSON but lack the layout the loader reads
    header = json.loads(good[header_start:payload_start])

    def edited(edit):
        h = json.loads(json.dumps(header))
        edit(h)
        return h

    for bad_header in ([], {},
                       edited(lambda h: h.pop("encoder_config")),
                       edited(lambda h: h.pop("step")),
                       edited(lambda h: h["encoder_config"].update(not_a_field=1)),
                       edited(lambda h: h["encoder_config"].update(heads=3))):
        raw = json.dumps(bad_header).encode("utf-8")
        Path(bad).write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(8, "little") + raw
                              + good[payload_start:])
        rc = main(["inspect-checkpoint", "--checkpoint", bad])
        assert rc == EXIT_FAILURE, bad_header

    # a vocab field that is not the vocabularies its encoder_config sizes; the error names the field
    words, rows = header["vocab"]["words"], header["vocab"]["entities"]
    for field, bad_header in (
            ("vocab", edited(lambda h: h.update(vocab=[]))),
            ("vocab", edited(lambda h: h.pop("vocab"))),
            ("vocab.words", edited(lambda h: h["vocab"].update(words=" ".join(words)))),  # not a list
            ("vocab.words", edited(lambda h: h["vocab"]["words"].__setitem__(5, 5))),  # not a string
            ("vocab.words", edited(lambda h: h["vocab"]["words"].__setitem__(5, words[4]))),  # repeated
            ("vocab.words", edited(lambda h: h["vocab"].update(words=[words[1], words[0], *words[2:]]))),
            ("vocab.words", edited(lambda h: h["vocab"]["words"].append("new-token"))),  # one too many
            ("vocab.entities", edited(lambda h: h["vocab"]["entities"].pop())),  # one too few
            ("vocab.entities", edited(lambda h: h["vocab"].update(entities={}))),
            ("vocab.entities[4]", edited(lambda h: h["vocab"]["entities"][4].pop())),
            ("vocab.entities[4]", edited(lambda h: h["vocab"]["entities"][4].__setitem__(1, "7"))),
            ("vocab.entities[4]", edited(lambda h: h["vocab"]["entities"][4][2].append(["en"]))),
            ("vocab.entities[4]", edited(lambda h: h["vocab"]["entities"][4][2].append(rows[4][2][0]))),
            ("vocab.entities", edited(lambda h: h["vocab"]["entities"][5].__setitem__(0, rows[4][0]))),
            ("vocab.entities", edited(lambda h: h["vocab"]["entities"][5].__setitem__(2, rows[4][2]))),
            # the specials reordered: mask_id 1 would name [PAD]
            ("vocab.entities", edited(lambda h: h["vocab"].update(entities=[rows[1], rows[0], *rows[2:]])))):
        raw = json.dumps(bad_header).encode("utf-8")
        Path(bad).write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(8, "little") + raw
                              + good[payload_start:])
        capsys.readouterr()
        rc = main(["inspect-checkpoint", "--checkpoint", bad])
        err = capsys.readouterr().err
        assert rc == EXIT_FAILURE, bad_header
        assert err.startswith(f"error: {bad}: header field '{field}' "), err
        assert "Traceback" not in err


def _checkpoint_with_header(run_dir, dest, edit, name="checkpoint-final.bin"):
    """Write run_dir's checkpoint `name` to dest with edit(header) applied.  The
    payload keeps the bytes of each tensor that the edited `shapes` still names,
    or of every tensor when the edit removes `shapes`."""
    from entlm.pretrain import CHECKPOINT_MAGIC
    good = Path(run_dir, name).read_bytes()
    header_start = len(CHECKPOINT_MAGIC) + 8
    offset = header_start + int.from_bytes(good[len(CHECKPOINT_MAGIC):header_start], "little")
    header = json.loads(good[header_start:offset])
    tensors = {}
    for tensor, shape in sorted(header["shapes"].items()):
        end = offset + 8 * math.prod(shape)
        tensors[tensor], offset = good[offset:end], end
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    payload = b"".join(tensors[tensor] for tensor in sorted(header.get("shapes", tensors)))
    dest.write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(8, "little") + raw + payload)
    return dest


@pytest.mark.parametrize("key, size", [("heads", 0), ("layers", -1)])
def test_checkpoint_with_a_size_below_1_exits_1_naming_the_field(workspace, pretrained, capsys, key, size):
    bad = _checkpoint_with_header(pretrained, workspace["ws"] / f"bad-{key}.bin",
                                  lambda h: h["encoder_config"].update({key: size}))
    capsys.readouterr()
    rc = main(["inspect-checkpoint", "--checkpoint", str(bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err.startswith("error: ") and f"{key} {size} must be >= 1" in err
    assert "Traceback" not in err


def _drop_parameter(header, name):
    del header["shapes"][name]


def _transpose_parameter(header, name):
    header["shapes"][name].reverse()  # same byte count, so only the shape check sees it


def _as_v3(header):
    """The version 3 layout: a per-tensor index and a list of its names."""
    offset, index = 0, {}
    for name, shape in sorted(header.pop("shapes").items()):
        index[name] = {"shape": shape, "dtype": "<f8", "offset": offset, "nbytes": 8 * math.prod(shape)}
        offset += index[name]["nbytes"]
    header.update(version=3, index=index, param_names=sorted(index))


# a checkpoint of an older header layout, or whose encoder parameters do not
# match its encoder_config, is refused at load time by every command
@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(version=1), ("checkpoint version 1", "reads only version 4")),
    # version 2 had no vocab field
    (lambda h: (h.update(version=2), h.pop("vocab")), ("checkpoint version 2", "reads only version 4")),
    (_as_v3, ("checkpoint version 3", "reads only version 4")),
    (lambda h: _drop_parameter(h, "layer0.ffn.w1"), ("parameter layer0.ffn.w1 is missing",)),
    (lambda h: _transpose_parameter(h, "layer0.ffn.w1"),
     ("parameter layer0.ffn.w1 has shape [32, 16], but [16, 32] is expected",)),
], ids=["version-1", "version-2", "version-3", "missing-parameter", "wrong-shape"])
def test_checkpoint_that_does_not_match_its_layout_exits_1(workspace, pretrained, tmp_path, capsys,
                                                           edit, message):
    bad = str(_checkpoint_with_header(pretrained, tmp_path / "bad.bin", edit))
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"lang": "en", "template": "[X] t0b_en [Y] .", "sub_surface": "t0a_en",
                                   "candidates": [{"surface": "ent0_en"}], "gold_index": 0}) + "\n")
    for argv in (["inspect-checkpoint", "--checkpoint", bad],
                 ["cloze-eval", "--checkpoint", bad, "--queries", str(queries), "--mode", "entity-y",
                  "--out", str(tmp_path / "cloze.json")]):
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_FAILURE, argv[0]
        assert err.startswith(f"error: {bad}: ") and all(m in err for m in message), err
        assert "Traceback" not in err
    assert not (tmp_path / "cloze.json").exists()


# a shapes table that is malformed, or does not give the payload's size, is refused before any tensor is read
@pytest.mark.parametrize("edit_header, edit_payload, message", [
    (lambda h: h.pop("shapes"), None, "header field 'shapes' must be an object"),
    (lambda h: h.update(shapes=[]), None, "header field 'shapes' must be an object"),
    (lambda h: h["shapes"].update(pos_emb=7), None,
     "header field 'shapes.pos_emb' must be a list of non-negative integers"),
    (lambda h: h["shapes"].update(pos_emb=[16, -32]), None,
     "header field 'shapes.pos_emb' must be a list of non-negative integers"),
    (lambda h: h["shapes"].update(pos_emb=[16, "32"]), None,
     "header field 'shapes.pos_emb' must be a list of non-negative integers"),
    (lambda h: h["shapes"].update(pos_emb=[16, 32.0]), None,
     "header field 'shapes.pos_emb' must be a list of non-negative integers"),
    (lambda h: h["shapes"].update(zero=[0, 2**62]), None,
     "header field 'shapes.zero' must be a shape numpy can hold"),
    (None, lambda payload, last: payload[:-last], "payload holds {n} bytes, but the header's shapes give {want}"),
    (None, lambda payload, last: payload + b"\0", "payload holds {n} bytes, but the header's shapes give {want}"),
    (None, lambda payload, last: payload[:-1], "payload holds {n} bytes, but the header's shapes give {want}"),
    # a tensor the header does not name, such as an optimizer moment, is not skipped
    (lambda h: h.update(optimizer={"t": 4}), lambda payload, last: payload + payload[-last:],
     "payload holds {n} bytes, but the header's shapes give {want}"),
], ids=["missing", "not-an-object", "entry-not-a-list", "negative-size", "string-size", "float-size",
        "zero-size-too-big", "one-tensor-short", "one-byte-too-long", "one-byte-short", "extra-tensor"])
def test_checkpoint_whose_shapes_do_not_give_its_payload_exits_1(pretrained, tmp_path, capsys, edit_header,
                                                                edit_payload, message):
    from entlm.pretrain import CHECKPOINT_MAGIC
    good = Path(pretrained, "checkpoint-final.bin").read_bytes()
    header_start = len(CHECKPOINT_MAGIC) + 8
    payload_start = header_start + int.from_bytes(good[len(CHECKPOINT_MAGIC):header_start], "little")
    header, payload = json.loads(good[header_start:payload_start]), good[payload_start:]
    want = 8 * sum(math.prod(shape) for shape in header["shapes"].values())
    assert len(payload) == want
    last = 8 * math.prod(header["shapes"][max(header["shapes"])])  # the payload's last tensor
    if edit_header:
        edit_header(header)
    if edit_payload:
        payload = edit_payload(payload, last)
    raw = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(8, "little") + raw + payload)
    capsys.readouterr()
    rc = main(["inspect-checkpoint", "--checkpoint", str(bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err == f"error: {bad}: {message.format(n=len(payload), want=want)}\n", err


def test_model_commands_refuse_a_checkpoint_without_vocabularies(workspace, pretrained, finetuned, tmp_path,
                                                                 capsys):
    # save_checkpoint without vocabularies writes vocab: null; it loads, but no command reads ids through it
    bare = str(_checkpoint_with_header(pretrained, tmp_path / "bare.bin", lambda h: h.update(vocab=None)))
    bare_ft = str(_checkpoint_with_header(finetuned["out"], tmp_path / "bare-ft.bin", lambda h: h.update(vocab=None),
                                          "checkpoint-finetuned.bin"))
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"lang": "en", "template": "[X] t0b_en [Y] .", "sub_surface": "t0a_en",
                                   "candidates": [{"surface": "ent0_en"}], "gold_index": 0}) + "\n")
    spans = tmp_path / "spans.jsonl"
    spans.write_text(json.dumps({"id": "s0", "lang": "en", "tokens": ["t0a_en", "ent0_en"], "span": [1, 2]}) + "\n")
    out = tmp_path / "out"
    for ckpt, argv in ((bare, ["finetune", "re", "--train", finetuned["re"], "--out", str(out)]),
                       (bare_ft, ["eval", "re", "--data", finetuned["re"], "--out", str(out)]),
                       (bare, ["cloze-eval", "--queries", str(queries), "--out", str(out)]),
                       (bare, ["dump-features", "--data", str(spans), "--feature-spec", "span-mean",
                               "--out", str(out)])):
        capsys.readouterr()
        rc = main([*argv, "--checkpoint", ckpt])
        err = capsys.readouterr().err
        assert rc == EXIT_FAILURE, argv[0]
        assert err.startswith(f"error: {ckpt}: checkpoint holds no vocabularies"), err
        assert "Traceback" not in err
        assert not out.exists()
    assert main(["inspect-checkpoint", "--checkpoint", bare]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["vocab_sizes"] is None


# a finetuned checkpoint whose head parameters do not fit its meta is refused
@pytest.mark.parametrize("edit, message", [
    (lambda h: _drop_parameter(h, "re_head.w"), "{bad}: parameter re_head.w is missing"),
    (lambda h: _drop_parameter(h, "re_head.b"), "{bad}: parameter re_head.b is missing"),
    (lambda h: h["meta"].pop("variant"),
     '{bad}: meta field variant is missing, but must be one of ["word-markers", "entity-mask"]'),
    (lambda h: h["meta"].update(variant="word-endpoints"),
     '{bad}: meta field variant is "word-endpoints", but must be one of ["word-markers", "entity-mask"]'),
    (lambda h: h["meta"].pop("labels"), "{bad}: meta field labels is missing, but must be a non-empty list"),
    (lambda h: h["meta"].update(labels=["r1"]),
     "{bad}: parameter re_head.w has shape [32, 2], but [32, 1] is expected"),
], ids=["dropped-head", "dropped-head-bias", "dropped-variant", "other-task-variant", "dropped-labels",
        "labels-do-not-fit"])
def test_finetuned_checkpoint_whose_head_does_not_fit_its_meta_exits_1(finetuned, tmp_path, capsys, edit, message):
    bad = _checkpoint_with_header(finetuned["out"], tmp_path / "bad.bin", edit, "checkpoint-finetuned.bin")
    out = tmp_path / "report.json"
    rc = main(["eval", "re", "--checkpoint", str(bad), "--data", finetuned["re"], "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err.startswith(f"error: {message.format(bad=bad)}"), err
    assert "Traceback" not in err
    assert not out.exists()


# cloze-eval reads the MLM and MEP heads, so it refuses a checkpoint whose heads do not fit its
# encoder config, and a finetuned one, which holds none; dump-features reads no head and takes both
@pytest.mark.parametrize("source, edit, message", [
    ("pretrained", lambda h: _transpose_parameter(h, "mlm_head.w"),
     "parameter mlm_head.w has shape [46, 16], but [16, 46] is expected"),
    ("pretrained", lambda h: _drop_parameter(h, "mep_head.w"), "parameter mep_head.w is missing"),
    ("finetuned", None, "parameter mlm_head.w is missing"),
], ids=["transposed-mlm-head", "missing-mep-head", "finetuned"])
def test_cloze_eval_refuses_a_checkpoint_without_fitting_mlm_and_mep_heads(workspace, pretrained, finetuned,
                                                                          tmp_path, capsys, source, edit, message):
    if source == "pretrained":
        ckpt = str(_checkpoint_with_header(pretrained, tmp_path / "bad.bin", edit))
    else:
        ckpt = os.path.join(finetuned["out"], "checkpoint-finetuned.bin")
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"lang": "en", "template": "[X] t0b_en [Y] .", "sub_surface": "t0a_en",
                                   "candidates": [{"surface": "ent0_en"}], "gold_index": 0}) + "\n")
    out = tmp_path / "cloze.json"
    capsys.readouterr()
    rc = main(["cloze-eval", "--checkpoint", ckpt, "--queries", str(queries), "--mode", "entity-y",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err == f"error: {ckpt}: {message}\n", err
    assert not out.exists()
    spans = tmp_path / "spans.jsonl"
    spans.write_text(json.dumps({"id": "s0", "lang": "en", "tokens": ["t0a_en", "ent0_en"], "span": [1, 2]}) + "\n")
    assert main(["dump-features", "--checkpoint", ckpt, "--data", str(spans), "--feature-spec", "span-mean",
                 "--out", str(tmp_path / "emb.jsonl")]) == EXIT_OK


# ---------------------------------------------------------------------------
# finetune / eval round trips for every task and variant


def _sentence(j):
    k, i = j % 5, j % 6
    return [f"t{k}a_en", f"ent{i}_en", f"t{k}b_en", f"t{k}c_en", "."], k, i


def _qa_record(ev, ids, ask, qid):
    """A question on sentence ids[ask] of a context joining the sentences ids."""
    context, ents, answer = [], [], None
    for n, j in enumerate(ids):
        toks, k, i = _sentence(j)
        ents.append([len(context) + 1, len(context) + 2, ev.resolve("en", f"Ent{i}_en")])
        if n == ask:
            question = [toks[0], toks[2], "?"]
            answer = {"text": toks[1], "answer_start": len(" ".join(context + toks[:1])) + 1}
        context.extend(toks)
    return {"id": qid, "question": " ".join(question), "context": " ".join(context),
            "answers": [answer], "lang": "en", "context_entities": ents}


@pytest.fixture(scope="module")
def task_files(workspace):
    ev = EntityVocab.load(workspace["vocab"])
    ws = workspace["ws"]
    ner_train = ws / "ner_train.txt"
    with open(ner_train, "w") as f:
        for j in range(12):
            toks, _k, i = _sentence(j)
            for t, tok in enumerate(toks):
                f.write(f"{tok} {('B-PER' if i % 2 else 'B-LOC') if t == 1 else 'O'}\n")
            f.write("\n")
    # every train answer lies in the first window (16 positions, 3-word questions)
    train = [_qa_record(ev, [j, j + 1], j % 2, f"q{j}") for j in range(6)]
    # two 20-word contexts take two windows each
    long = [_qa_record(ev, [j, j + 1, j + 2, j + 3], 3 - j, f"long{j}") for j in range(2)]
    qa_train, qa_eval = ws / "qa_train.json", ws / "qa_eval.json"
    for path, records in ((qa_train, train), (qa_eval, train + long)):
        paragraphs = [{"context": r["context"], "qas": [r]} for r in records]
        path.write_text(json.dumps({"data": [{"paragraphs": paragraphs}]}))
    return {"ner": (str(ner_train), str(ner_train)), "qa": (str(qa_train), str(qa_eval))}


TRAIN_OPTIONS = {"qa": ["--epochs", "3", "--lr", "0.01"], "ner": ["--epochs", "10", "--lr", "0.03"],
                 "re": ["--epochs", "5", "--lr", "0.01"]}


@pytest.fixture(scope="module")
def round_trip(workspace, pretrained, task_files, finetuned):
    """round_trip(task, variant, *flags): finetune the pretrained checkpoint on the task's
    training file (also its dev file), eval the result on the task's eval file, and return
    (finetune output dir, eval report).  Each run is made once, by the first test that asks."""
    files = {**task_files, "re": (finetuned["re"], finetuned["re"])}
    runs = {}

    def run(task, variant, *flags):
        key = (task, variant, *flags)
        if key not in runs:
            train, data = files[task]
            out = str(workspace["ws"] / "-".join(("ft",) + key).replace("--", ""))
            rc = main(["finetune", task, "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
                       "--train", train, "--dev", train, "--out", out, "--batch-size", "2",
                       *TRAIN_OPTIONS[task], "--variant", variant, *flags])
            assert rc == EXIT_OK
            report = out + "-eval.json"
            rc = main(["eval", task, "--checkpoint", os.path.join(out, "checkpoint-finetuned.bin"),
                       "--data", data, "--out", report])
            assert rc == EXIT_OK
            runs[key] = out, json.loads(Path(report).read_text())
        return runs[key]

    return run


# reports of this fixture, recorded before fine-tuning and eval shared one code path
QA_REPORT = {"pairs": {"en|en": {"em": 0.75, "f1": 0.75, "n": 8}}, "xlt_f1": 0.75}
PINNED_REPORTS = {
    ("qa", "word"): QA_REPORT,
    ("qa", "entity"): QA_REPORT,
    ("ner", "word"): {"n": 12, "span_f1": 1.0},
    ("ner", "entity"): {"n": 12, "span_f1": 0.5},
    ("ner", "len2"): {"n": 12, "span_f1": 1.0},
}


# eval of a word-markers RE fine-tune of this fixture; recorded when eval still read
# the finetune's word-vocab file
RE_WORD_MARKERS_REPORT = {"accuracy": 1.0, "macro_f1": 1.0, "n": 12}


@pytest.mark.parametrize("task,variant", [("qa", "word"), ("qa", "entity"),
                                          ("ner", "word"), ("ner", "entity")])
def test_finetune_eval_round_trip(round_trip, task, variant):
    out, report = round_trip(task, variant)
    meta = load_checkpoint(os.path.join(out, "checkpoint-finetuned.bin")).meta
    assert meta["task"] == task
    assert report == PINNED_REPORTS[task, variant]


def test_word_markers_re_checkpoint_carries_its_markers(pretrained, round_trip):
    out, report = round_trip("re", "word")
    base = load_checkpoint(os.path.join(pretrained, "checkpoint-final.bin"))
    ckpt = load_checkpoint(os.path.join(out, "checkpoint-finetuned.bin"))
    assert ckpt.word_vocab.id_to_token == base.word_vocab.id_to_token + ["<ent>", "<ent2>"]
    assert len(ckpt.word_vocab) == ckpt.encoder_config.word_vocab_size == ckpt.params["word_emb"].shape[0]
    assert report == RE_WORD_MARKERS_REPORT


def test_ner_max_span_len_survives_checkpoint(round_trip):
    out, report = round_trip("ner", "word", "--max-span-len", "2")
    path = os.path.join(out, "checkpoint-finetuned.bin")
    assert load_checkpoint(path).meta["max_span_len"] == 2
    model = task_model_from_checkpoint(load_checkpoint(path), path)
    assert model.max_span_len == 2
    assert report == PINNED_REPORTS["ner", "len2"]


# each meta field of a finetuned NER checkpoint is refused, naming the file, unless it passes its rule
NER_LABELS_RULE = 'a non-empty list of distinct strings starting with "O"'


@pytest.mark.parametrize("field, value, message", [
    ("max_span_len", "x", '"x", but must be an int of at least 1'),
    ("max_span_len", None, "null, but must be an int of at least 1"),
    ("max_span_len", 1.5, "1.5, but must be an int of at least 1"),
    ("max_span_len", 0, "0, but must be an int of at least 1"),
    ("max_span_len", -1, "-1, but must be an int of at least 1"),
    ("max_span_len", True, "true, but must be an int of at least 1"),
    ("task", ["ner"], '["ner"], but must be one of ["qa", "re", "ner"]'),
    ("labels", ["O", "PER", "PER"], f'["O", "PER", "PER"], but must be {NER_LABELS_RULE}'),
    ("labels", ["LOC", "MISC", "PER"], f'["LOC", "MISC", "PER"], but must be {NER_LABELS_RULE}'),
    ("skipped_gold_spans", -1, "-1, but must be an int of at least 0"),
], ids=["span-string", "span-null", "span-float", "span-zero", "span-negative", "span-bool", "task-list",
        "labels-repeated", "labels-without-O", "skipped-negative"])
def test_finetuned_meta_field_that_breaks_its_rule_exits_1(round_trip, task_files, tmp_path, capsys, field, value,
                                                           message):
    out, _ = round_trip("ner", "word")
    bad = _checkpoint_with_header(out, tmp_path / "bad.bin", lambda h: h["meta"].update({field: value}),
                                  "checkpoint-finetuned.bin")
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(bad), "--data", task_files["ner"][1], "--out", str(report)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err == f"error: {bad}: meta field {field} is {message}\n", err
    assert not report.exists() and not Path(str(report) + ".manifest.json").exists()


# what each kind of damage makes of a meta field's value; "drop" removes the field instead
META_DAMAGE = {"null": lambda v: None, "string": lambda v: "x", "float": lambda v: 1.5, "zero": lambda v: 0,
               "negative": lambda v: -1, "huge": lambda v: 2**70, "list": lambda v: [v],
               "repeat": lambda v: v + v[:1] if isinstance(v, list) else [v, v]}


# 6 fields x 9 kinds: 60 derandomized examples reach all 54 pairs
@settings(max_examples=60, deadline=None, derandomize=True)
@given(field=st.sampled_from([name for name, _ in META_FIELDS]), kind=st.sampled_from(["drop", *META_DAMAGE]))
def test_eval_of_a_damaged_meta_exits_cleanly_and_names_the_file(round_trip, task_files, field, kind):
    out, _ = round_trip("ner", "word")
    dest = Path(out + "-damaged")
    dest.mkdir(exist_ok=True)

    def damage(header):
        value = header["meta"].pop(field)
        if kind != "drop":
            header["meta"][field] = META_DAMAGE[kind](value)

    bad = _checkpoint_with_header(out, dest / "bad.bin", damage, "checkpoint-finetuned.bin")
    report = dest / "report.json"
    for stale in (report, Path(str(report) + ".manifest.json")):
        stale.unlink(missing_ok=True)
    with redirect_stderr(StringIO()) as err:
        rc = main(["eval", "--checkpoint", str(bad), "--data", task_files["ner"][1], "--out", str(report)])
    assert rc in (EXIT_OK, EXIT_FAILURE, EXIT_CONFIG)
    if rc != EXIT_OK:
        assert err.getvalue().split(": ", 1)[1].startswith(f"{bad}: "), err.getvalue()
        assert not report.exists() and not Path(str(report) + ".manifest.json").exists()


@pytest.mark.parametrize("span", ["0", "-2"])
def test_finetune_max_span_len_below_1_exits_3_before_reading_a_file(tmp_path, capsys, span):
    out = tmp_path / "out"
    rc = main(["finetune", "ner", "--checkpoint", str(tmp_path / "missing.bin"), "--train",
               str(tmp_path / "missing.txt"), "--out", str(out), "--max-span-len", span])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err == f"config error: finetune: max_span_len {span} must be an int of at least 1\n", err
    assert not out.exists()


def _missing_inputs_argv(command, tmp_path):
    """`command` with every input a missing file, so a run that reads one fails with exit 1."""
    missing = {name: str(tmp_path / f"missing-{name}") for name in ("ckpt", "data", "corpus", "links", "vocab")}
    if command == "pretrain":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT.format(corpus=missing["corpus"], vocab=missing["vocab"]))
        return ["pretrain", "--config", str(cfg)]
    return {"finetune": ["finetune", "re", "--checkpoint", missing["ckpt"], "--train", missing["data"]],
            "build-vocab": ["build-vocab", "--corpus", missing["corpus"], "--links", missing["links"]],
            "link-entities": ["link-entities", "--pages", missing["corpus"], "--text", missing["corpus"],
                              "--vocab", missing["vocab"]]}[command]


# a flag or setting that breaks its rule exits 3 before its command reads an input file
BAD_FLAGS = [
    ("finetune", ["--lr", "nan"], "finetune: lr nan must be finite and >= 0"),
    ("finetune", ["--lr", "inf"], "finetune: lr inf must be finite and >= 0"),
    ("pretrain", ["--set", "train.peak_lr=nan"], "train: peak_lr nan must be finite and >= 0"),
    ("pretrain", ["--set", "train.peak_lr=inf"], "train: peak_lr inf must be finite and >= 0"),
    ("pretrain", ["--set", "train.stage1_peak_lr=nan"], "train: stage1_peak_lr nan must be finite and >= 0"),
    ("pretrain", ["--set", "train.stage1_peak_lr=-inf"], "train: stage1_peak_lr -inf must be finite and >= 0"),
    ("build-vocab", ["--top-k", "0"], "build-vocab: top_k 0 must be >= 1"),
    ("build-vocab", ["--min-languages", "0"], "build-vocab: min_languages 0 must be >= 1"),
    ("link-entities", ["--min-link-prob", "nan"], "link-entities: min_link_prob nan must be in [0, 1]"),
    ("link-entities", ["--min-link-prob", "-0.1"], "link-entities: min_link_prob -0.1 must be in [0, 1]"),
    ("link-entities", ["--min-link-prob", "1.5"], "link-entities: min_link_prob 1.5 must be in [0, 1]"),
]


@pytest.mark.parametrize("command, flag, message", BAD_FLAGS, ids=[f"{c} {' '.join(f)}" for c, f, _ in BAD_FLAGS])
def test_bad_flag_exits_3_before_reading_a_file(tmp_path, capsys, command, flag, message):
    out = tmp_path / "out"
    rc = main([*_missing_inputs_argv(command, tmp_path), "--out", str(out), *flag])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG, err
    assert err == f"config error: {message}\n"
    assert not out.exists()


# each finetuned checkpoint's tensor_digest, recorded when task models still carried the MLM and MEP
# heads (over the tensors named below, the heads left out): dropping the heads changed no other bit.
# float64 on x86-64 OpenBLAS; a BLAS that sums in another order changes these digests
PINNED_FINETUNED_DIGESTS = {
    ("qa", "word"): "c103818b730d4fb76bca48e81995abe19b5bf776478b38c0e6b592402b86dfff",
    ("qa", "entity"): "d2afb61d8e5d802c62a0cb3407ab7fa413fa2c4ae84dd9de94d2810f31e0b52d",
    ("re", "word"): "085257d8ff797e6c0f0cd5d49dc3db93cc4a741647c539a24dae1f7c571e7b07",
    ("re", "entity"): "b7e41dba36f15c6ac92f58df6b0532abf06b2a2cb14a70720b91977d1c00386a",
    ("ner", "word"): "b2ce02e36b9211ab1cd7d269c307d9989f1c8622a34ac063fe84a9181383c514",
    ("ner", "entity"): "ba480e39203cc459ab2ac7351176adee1bc99b0688c7ed6c12bba86cd9610632",
}


@pytest.mark.parametrize("task, variant", list(PINNED_FINETUNED_DIGESTS))
def test_finetuned_checkpoint_holds_the_encoder_and_its_head(round_trip, task, variant):
    out, _ = round_trip(task, variant)
    ckpt = load_checkpoint(os.path.join(out, "checkpoint-finetuned.bin"))
    assert set(ckpt.params) == {name for name, _, _ in param_specs(ckpt.encoder_config)} | {
        f"{task}_head.w", f"{task}_head.b"}
    assert tensor_digest(ckpt.params) == PINNED_FINETUNED_DIGESTS[task, variant]


def test_finetune_qa_counts_skipped_examples(workspace, pretrained, task_files, capsys):
    ev = EntityVocab.load(workspace["vocab"])
    records = [_qa_record(ev, [j, j + 1], 0, f"q{j}") for j in range(3)]
    records.append(_qa_record(ev, [3, 4, 5, 6], 3, "late"))  # answer at word 16, past the first window
    train = workspace["ws"] / "qa_late.json"
    train.write_text(json.dumps({"data": [{"paragraphs": [{"context": r["context"], "qas": [r]}
                                                          for r in records]}]}))
    out = str(workspace["ws"] / "ft-qa-late")
    rc = main(["finetune", "qa", "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--train", str(train), "--out", out, "--batch-size", "1"])
    assert rc == EXIT_OK
    assert "on 3 examples, skipped 1 unusable" in capsys.readouterr().out
    assert load_checkpoint(os.path.join(out, "checkpoint-finetuned.bin")).meta["skipped_examples"] == 1


# ---------------------------------------------------------------------------
# malformed input files: exit 1 with path:line, never a traceback


def _line_edit(lineno, edit):
    """Damage: apply edit(text) to one line, keeping its line ending."""
    def damage(raw):
        lines = raw.decode("utf-8").splitlines(keepends=True)
        lines[lineno - 1] = edit(lines[lineno - 1].rstrip("\n")) + "\n"
        return "".join(lines).encode("utf-8")
    return damage


def _record_edit(lineno, edit):
    """Damage: apply edit(record) to the JSON record on one line."""
    def edit_line(line):
        record = json.loads(line)
        edit(record)
        return json.dumps(record)
    return _line_edit(lineno, edit_line)


def _cut_in_line(lineno):
    """Damage: end the file half-way through one line."""
    def damage(raw):
        lines = raw.splitlines(keepends=True)
        return b"".join(lines[: lineno - 1]) + lines[lineno - 1][: len(lines[lineno - 1]) // 2]
    return damage


def _drop_line(lineno):
    """Damage: delete one line."""
    def damage(raw):
        lines = raw.splitlines(keepends=True)
        return b"".join(lines[: lineno - 1] + lines[lineno:])
    return damage


def _as_v1_tsv(raw):
    """Damage: the same vocabulary in the tab-separated layout entity-vocab
    files had before they held JSON rows."""
    rows = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
    lines = [f"{i}\t{key}\t{len({lang for lang, _ in titles})}\t{count}\t"
             + ";".join(f"{lang}:{title}" for lang, title in titles) for i, (key, count, titles) in enumerate(rows)]
    return "".join(line + "\n" for line in ["entlm-entity-vocab\tv1", *lines]).encode("utf-8")


def _document_edit(edit):
    """Damage: apply edit(document) to a whole-file JSON document."""
    def damage(raw):
        doc = json.loads(raw)
        edit(doc)
        return json.dumps(doc).encode("utf-8")
    return damage


def _pretrain_argv(p, bad):
    cfg = Path(bad).with_suffix(".cfg")
    cfg.write_text(CONFIG_TEXT.format(corpus=bad, vocab=p["vocab"]))
    return ["pretrain", "--config", str(cfg), "--out", p["out"]]


def _finetune_argv(task, bad_flag="--train"):
    def argv(p, bad):
        inputs = {"--train": p["re"], bad_flag: bad}
        return ["finetune", task, "--checkpoint", p["ckpt"], "--variant", "entity", "--out", p["out"],
                *(x for flag_path in inputs.items() for x in flag_path)]
    return argv


def test_dump_features_encodes_span_item_entities(workspace, pretrained):
    ckpt = load_checkpoint(os.path.join(pretrained, "checkpoint-final.bin"))
    wv, ev = ckpt.word_vocab, ckpt.entity_vocab
    model = ClozeModel(encoder_config=ckpt.encoder_config, params=ckpt.params, word_vocab=wv, entity_vocab=ev)
    tokens = {lang: [f"t0a_{lang}", f"ent1_{lang}", f"t0b_{lang}", "."] for lang in ("en", "de")}
    data = workspace["ws"] / "spans-entities.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in [
        {"id": "s0", "lang": "en", "tokens": tokens["en"], "span": [1, 2], "entities": [["ent1", 1, 2]]},
        {"id": "s1", "lang": "de", "tokens": tokens["de"], "span": [0, 2], "entities": [["Ent1_de", 1, 3]]},
        {"id": "s2", "lang": "en", "tokens": tokens["en"], "span": [1, 2]}]))
    emb = str(workspace["ws"] / "emb-entities.jsonl")
    rc = main(["dump-features", "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--data", str(data), "--feature-spec", "span-mean", "--out", emb])
    assert rc == EXIT_OK

    eid = ev.resolve_key("ent1")
    by_hand = [
        ("s0", "en", {"word_ids": wv.encode(tokens["en"]), "entity_ids": [eid], "entity_positions": [[1]],
                      "span": (1, 2), "text": "ent1_en"}),
        ("s1", "de", {"word_ids": wv.encode(tokens["de"]), "entity_ids": [eid], "entity_positions": [[1, 2]],
                      "span": (0, 2), "text": "t0a_de ent1_de"}),
        ("s2", "en", {"word_ids": wv.encode(tokens["en"]), "span": (1, 2), "text": "ent1_en"})]
    got = load_embeddings(emb)
    want = feature_dump(model, by_hand, "span-mean")
    assert [(e.uid, e.language, e.text) for e in got] == [(e.uid, e.language, e.text) for e in want]
    for g, w in zip(got, want):
        assert g.vector.tobytes() == w.vector.tobytes()
    assert not np.array_equal(got[0].vector, got[2].vector)  # the entity token reaches the encoder


def test_dump_features_refuses_a_span_item_longer_than_max_positions(workspace, pretrained, capsys):
    # pack_batch accepts the item, and encode_batch refuses its length before anything is written
    data = workspace["ws"] / "spans-long.jsonl"
    data.write_text(json.dumps({"id": "s0", "lang": "en", "tokens": ["t0a_en"] * 20, "span": [0, 2]}) + "\n")
    emb = workspace["ws"] / "emb-long.jsonl"
    rc = main(["dump-features", "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--data", str(data), "--feature-spec", "span-mean", "--out", str(emb)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err == "error: sequence of 20 words exceeds max_positions 16\n"
    assert not emb.exists() and not Path(str(emb) + ".manifest.json").exists()


def _model_argv(command, data_flag, *extra):
    return lambda p, bad: [command, "--checkpoint", p["ckpt"], data_flag, bad, "--out", p["out"], *extra]


def _drop(key):
    return lambda record: record.pop(key)


# (case, source file, damage, argv(paths, damaged file), line the error names)
MALFORMED = [
    ("build-vocab/corpus-missing-key", "corpus", _record_edit(3, _drop("title")),
     lambda p, bad: ["build-vocab", "--corpus", bad, "--links", p["links"], "--out", p["out"]], 3),
    ("build-vocab/corpus-cut-off", "corpus", _cut_in_line(5),
     lambda p, bad: ["build-vocab", "--corpus", bad, "--links", p["links"], "--out", p["out"]], 5),
    ("build-vocab/corpus-invalid-utf8", "corpus", lambda raw: raw.replace(b"page_en_1", b"page_\xff_1"),
     lambda p, bad: ["build-vocab", "--corpus", bad, "--links", p["links"], "--out", p["out"]], 2),
    ("build-vocab/links-two-columns", "links", _record_edit(2, lambda row: row.pop()),
     lambda p, bad: ["build-vocab", "--corpus", p["corpus"], "--links", bad, "--out", p["out"]], 2),
    # without the row of id 3, [TAIL], the next row takes its id
    ("link-entities/vocab-ids-not-dense", "vocab", _drop_line(4),
     lambda p, bad: ["link-entities", "--pages", p["corpus"], "--text", p["corpus"], "--vocab", bad,
                     "--out", p["out"]], 4),
    ("link-entities/vocab-v1-tsv", "vocab", _as_v1_tsv,
     lambda p, bad: ["link-entities", "--pages", p["corpus"], "--text", p["corpus"], "--vocab", bad,
                     "--out", p["out"]], 1),
    ("link-entities/text-annotation-out-of-bounds", "corpus",
     _record_edit(2, lambda r: r.update(annotations=[[0, 99, "Ent0_en"]])),
     lambda p, bad: ["link-entities", "--pages", p["corpus"], "--text", bad, "--vocab", p["vocab"],
                     "--out", p["out"]], 2),
    ("pretrain/corpus-overlapping-annotations", "corpus",
     _record_edit(1, lambda r: r.update(annotations=[[0, 2, "Ent0_en"], [1, 3, "Ent1_en"]])), _pretrain_argv, 1),
    ("pretrain/entity-vocab-header", "vocab", _line_edit(1, lambda line: "entities"),
     lambda p, bad: _pretrain_argv({**p, "vocab": bad}, p["corpus"]), 1),
    ("finetune/re-span-not-int", "re", _line_edit(2, lambda line: line.replace("\t3 4", "\t3 x")),
     _finetune_argv("re"), 2),
    ("finetune/ner-one-column", "ner", _line_edit(3, lambda line: line.split()[0]), _finetune_argv("ner"), 3),
    ("finetune/ner-bad-tag", "ner", _line_edit(2, lambda line: line.split()[0] + " X-PER"),
     _finetune_argv("ner"), 2),
    ("finetune/qa-jsonl-missing-question", "qa_jsonl", _record_edit(2, _drop("question")),
     _finetune_argv("qa"), 2),
    ("finetune/qa-question-entity-outside-question", "qa_jsonl",
     _record_edit(3, lambda r: r.update(question="who ?", question_entities=[[0, 3, 5]])),
     _finetune_argv("qa"), 3),
    ("finetune/qa-jsonl-empty-context", "qa_jsonl",
     _record_edit(2, lambda r: r.update(context="", answers=[], context_entities=[])), _finetune_argv("qa"), 2),
    # with no id the second record takes its index, 1, which the third gives too
    ("finetune/qa-jsonl-repeated-id", "qa_jsonl",
     lambda raw: _record_edit(3, lambda r: r.update(id="1"))(_record_edit(2, _drop("id"))(raw)),
     _finetune_argv("qa"), 3),
    # each of these used to train silently or die with a raw traceback
    ("finetune/qa-entity-id-a-string", "qa_jsonl",
     _record_edit(2, lambda r: r["context_entities"][0].__setitem__(2, "ent1")), _finetune_argv("qa"), 2),
    ("finetune/qa-entity-id-a-float", "qa_jsonl",
     _record_edit(2, lambda r: r["context_entities"][0].__setitem__(2, 5.5)), _finetune_argv("qa"), 2),
    ("finetune/qa-entity-id-a-bool", "qa_jsonl",
     _record_edit(3, lambda r: r["context_entities"][0].__setitem__(2, True)), _finetune_argv("qa"), 3),
    ("finetune/qa-entity-bound-a-float", "qa_jsonl",
     _record_edit(2, lambda r: r["context_entities"][0].__setitem__(0, 1.0)), _finetune_argv("qa"), 2),
    ("finetune/qa-squad-missing-paragraphs", "qa_squad", _document_edit(lambda d: d["data"][0].pop("paragraphs")),
     _finetune_argv("qa"), 1),
    ("eval/re-three-columns", "re", _line_edit(1, lambda line: line.rsplit("\t", 1)[0]),
     lambda p, bad: ["eval", "re", "--checkpoint", p["ft_ckpt"], "--data", bad, "--out", p["out"]], 1),
    ("cloze-eval/gold-index-out-of-range", "queries", _record_edit(2, lambda r: r.update(gold_index=2)),
     _model_argv("cloze-eval", "--queries"), 2),
    # a bool is an int to Python, so `true` would read as index 1
    ("cloze-eval/gold-index-bool", "queries", _record_edit(2, lambda r: r.update(gold_index=True)),
     _model_argv("cloze-eval", "--queries"), 2),
    ("cloze-eval/candidate-surface-not-a-string", "queries",
     _record_edit(2, lambda r: r["candidates"][1].update(surface=5)), _model_argv("cloze-eval", "--queries"), 2),
    ("cloze-eval/candidate-surface-blank", "queries",
     _record_edit(1, lambda r: r["candidates"][0].update(surface=" ")), _model_argv("cloze-eval", "--queries"), 1),
    ("cloze-eval/candidate-entity-not-a-string", "queries",
     _record_edit(2, lambda r: r["candidates"][0].update(entity=["ent0"])), _model_argv("cloze-eval", "--queries"), 2),
    ("cloze-eval/candidate-not-an-object", "queries",
     _record_edit(2, lambda r: r["candidates"].__setitem__(0, "ent0_en")), _model_argv("cloze-eval", "--queries"), 2),
    ("cloze-eval/sub-surface-list", "queries", _record_edit(1, lambda r: r.update(sub_surface=["a"])),
     _model_argv("cloze-eval", "--queries"), 1),
    # entity-xy would score the query without its subject's entity token, and say nothing
    ("cloze-eval/sub-surface-empty", "queries", _record_edit(2, lambda r: r.update(sub_surface="")),
     _model_argv("cloze-eval", "--queries", "--mode", "entity-xy"), 2),
    ("cloze-eval/sub-entity-not-a-string", "queries", _record_edit(2, lambda r: r.update(sub_entity=7)),
     _model_argv("cloze-eval", "--queries", "--mode", "entity-xy"), 2),
    ("dump-features/span-out-of-bounds", "spans", _record_edit(2, lambda r: r.update(span=[1, 9])),
     _model_argv("dump-features", "--data", "--feature-spec", "span-mean"), 2),
    ("dump-features/span-entity-unknown", "spans", _record_edit(2, lambda r: r.update(entities=[["Ent0_de", 1, 2]])),
     _model_argv("dump-features", "--data", "--feature-spec", "span-mean"), 2),
    ("dump-features/span-entity-out-of-bounds", "spans", _record_edit(3, lambda r: r.update(entities=[["ent2", 1, 3]])),
     _model_argv("dump-features", "--data", "--feature-spec", "span-mean"), 3),
    # a string would be encoded as one token per character
    ("dump-features/span-tokens-a-string", "spans", _record_edit(2, lambda r: r.update(tokens="hello")),
     _model_argv("dump-features", "--data", "--feature-spec", "span-mean"), 2),
    ("dump-features/span-bound-a-float", "spans", _record_edit(3, lambda r: r.update(span=[0.0, 1])),
     _model_argv("dump-features", "--data", "--feature-spec", "span-mean"), 3),
    ("dump-features/spans-cut-off", "spans", _cut_in_line(3),
     _model_argv("dump-features", "--data", "--feature-spec", "span-mean"), 3),
    ("dump-features/re-span-overlap", "re", _line_edit(3, lambda line: line.replace("\t3 4", "\t1 2")),
     _model_argv("dump-features", "--data", "--feature-spec", "re-entity"), 3),
    ("analyze/embeddings-cut-off", "emb", _cut_in_line(4),
     lambda p, bad: ["analyze", "modularity", "--embeddings", bad, "--out", p["out"]], 4),
    ("analyze/embeddings-non-finite", "emb", _record_edit(1, lambda r: r["vector"].__setitem__(0, float("nan"))),
     lambda p, bad: ["analyze", "modularity", "--embeddings", bad, "--out", p["out"]], 1),
    ("analyze/embeddings-ragged", "emb", _record_edit(3, lambda r: r["vector"].append(1.0)),
     lambda p, bad: ["analyze", "modularity", "--embeddings", bad, "--out", p["out"]], 3),
    # the queries have 3 dimensions
    ("analyze/cwr-pool-dimension", "emb", _record_edit(1, lambda r: r["vector"].append(1.0)),
     lambda p, bad: ["analyze", "cwr", "--queries", p["emb"], "--pool", bad, "--gold", p["gold"],
                     "--out", p["out"]], 1),
    ("analyze/gold-unknown-pool-id", "gold", _document_edit(lambda d: d.update(s0="s9")),
     lambda p, bad: ["analyze", "cwr", "--queries", p["emb"], "--pool", p["emb"], "--gold", bad,
                     "--out", p["out"]], 1),
    ("analyze/gold-not-an-object", "gold", lambda raw: b'["s0", "s2"]',
     lambda p, bad: ["analyze", "cwr", "--queries", p["emb"], "--pool", p["emb"], "--gold", bad,
                     "--out", p["out"]], 1),
    ("rerun/unknown-command", "manifest", _document_edit(lambda d: d["argv"].__setitem__(0, "pretrian")),
     lambda p, bad: ["rerun", bad, "--out", p["out"]], 1),
    ("rerun/missing-argv", "manifest", _document_edit(_drop("argv")),
     lambda p, bad: ["rerun", bad, "--out", p["out"]], 1),
    ("rerun/manifest-cut-off", "manifest", _cut_in_line(6), lambda p, bad: ["rerun", bad, "--out", p["out"]], 6),
]


@pytest.fixture(scope="module")
def input_files(workspace, pretrained, finetuned, task_files):
    ws = workspace["ws"]
    ev = EntityVocab.load(workspace["vocab"])
    qa_jsonl = ws / "qa_train.jsonl"
    qa_jsonl.write_text("".join(json.dumps(_qa_record(ev, [j, j + 1], 0, f"q{j}")) + "\n" for j in range(3)))
    queries = ws / "queries-2.jsonl"
    queries.write_text("".join(json.dumps({
        "lang": "en", "template": f"[X] t{k}b_en [Y] .", "sub_surface": f"t{k}a_en",
        "candidates": [{"surface": "ent0_en"}, {"surface": "ent1_en"}], "gold_index": k % 2}) + "\n"
        for k in range(2)))
    spans = ws / "spans-3.jsonl"
    spans.write_text("".join(json.dumps({"id": f"s{i}", "lang": lang, "tokens": [f"t0a_{lang}", f"ent{i}_{lang}"],
                                         "span": [1, 2]}) + "\n" for i, lang in enumerate(["en", "en", "de"])))
    emb = ws / "emb-4.jsonl"
    save_embeddings([SpanEmbedding(f"s{i}", "en" if i < 2 else "de", "t", np.arange(1.0, 4.0) + i)
                     for i in range(4)], str(emb))
    gold = ws / "gold-2.json"
    gold.write_text(json.dumps({"s0": "s2", "s1": "s3"}))
    return {
        "corpus": workspace["corpus"], "links": workspace["links"], "vocab": workspace["vocab"],
        "ckpt": os.path.join(pretrained, "checkpoint-final.bin"),
        "manifest": os.path.join(pretrained, "manifest.json"),
        "ft_ckpt": os.path.join(finetuned["out"], "checkpoint-finetuned.bin"),
        "re": finetuned["re"], "ner": task_files["ner"][0], "qa_squad": task_files["qa"][0],
        "qa_jsonl": str(qa_jsonl), "queries": str(queries), "spans": str(spans), "emb": str(emb),
        "gold": str(gold), "out": str(ws / "malformed-out"),
    }


@pytest.mark.parametrize("case,source,damage,argv,line", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_1_naming_path_and_line(input_files, capsys, case, source, damage, argv, line):
    src = Path(input_files[source])
    bad = src.with_name("malformed-" + case.replace("/", "-") + src.suffix)
    bad.write_bytes(damage(src.read_bytes()))
    rc = main(argv(input_files, str(bad)))
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE, err
    assert f"{bad}:{line}: " in err
    assert "Traceback" not in err


def test_installed_entry_point_reports_malformed_input(input_files, tmp_path):
    bad = tmp_path / "corpus.jsonl"
    bad.write_bytes(_record_edit(2, _drop("lang"))(Path(input_files["corpus"]).read_bytes()))
    proc = subprocess.run([sys.executable, "-m", "entlm.cli", "build-vocab", "--corpus", str(bad),
                           "--links", input_files["links"], "--out", str(tmp_path / "v.tsv")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == EXIT_FAILURE
    assert f"{bad}:2: KeyError: 'lang'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_finetune_reports_gold_spans_longer_than_max_span_len(workspace, pretrained, finetuned, capsys):
    ner = workspace["ws"] / "ner_long.txt"
    ner.write_text("a B-PER\nb I-PER\nc I-PER\nd O\n\na B-LOC\nb O\n")
    out = str(workspace["ws"] / "ft-ner-long")
    rc = main(["finetune", "ner", "--checkpoint", os.path.join(pretrained, "checkpoint-final.bin"),
               "--train", str(ner), "--out", out, "--max-span-len", "2", "--epochs", "1"])
    assert rc == EXIT_OK
    assert "skipped 0 unusable and 1 gold spans longer than max_span_len" in capsys.readouterr().out
    assert load_checkpoint(os.path.join(out, "checkpoint-finetuned.bin")).meta["skipped_gold_spans"] == 1
    meta = load_checkpoint(os.path.join(finetuned["out"], "checkpoint-finetuned.bin")).meta
    assert (meta["skipped_examples"], meta["skipped_gold_spans"]) == (0, 0)


@pytest.mark.parametrize("what", ["missing", "directory"])
def test_unreadable_input_path_exits_1(tmp_path, capsys, what):
    path = tmp_path / "nope.jsonl" if what == "missing" else tmp_path
    rc = main(["analyze", "modularity", "--embeddings", str(path), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_rerun_names_options_the_manifest_lacks(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"argv": ["analyze", "modularity"]}))
    rc = main(["rerun", str(manifest)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert f"{manifest}:1: argv does not parse: " in err
    assert "the following arguments are required: --out" in err


@pytest.fixture
def modularity_run(tmp_path):
    """An `analyze modularity` run: its embeddings, report and manifest paths."""
    emb = tmp_path / "emb.jsonl"
    save_embeddings([SpanEmbedding(f"s{i}", "en" if i < 2 else "de", "t", np.arange(1.0, 4.0) + i)
                     for i in range(4)], str(emb))
    report = tmp_path / "mod.json"
    assert main(["analyze", "modularity", "--embeddings", str(emb), "--k", "2", "--out", str(report)]) == EXIT_OK
    return emb, report, Path(str(report) + ".manifest.json")


def _argv_edit(edit):
    return lambda manifest: manifest.update(argv=edit(manifest["argv"]))


# (case, edit of the manifest's JSON object)
DAMAGED_MANIFESTS = [
    ("k-not-an-int", _argv_edit(lambda argv: [*argv, "--k", "x"])),
    ("k-a-float", _argv_edit(lambda argv: [*argv, "--k", "1.5"])),
    ("metric-bogus", _argv_edit(lambda argv: [argv[0], "bogus", *argv[2:]])),
    ("required-out-dropped", _argv_edit(lambda argv: argv[:-2])),  # argv ends with --out <report>
    ("argv-empty", _argv_edit(lambda argv: [])),
    ("argv-a-string", _argv_edit(" ".join)),
    ("argv-holds-an-int", _argv_edit(lambda argv: [*argv, "--k", 2])),
    ("argv-starts-with-rerun", _argv_edit(lambda argv: ["rerun", "manifest.json"])),
    ("argv-asks-for-help", _argv_edit(lambda argv: [argv[0], "--help"])),
    ("no-argv", lambda manifest: manifest.pop("argv")),
]


@pytest.mark.parametrize("case,damage", DAMAGED_MANIFESTS, ids=[c[0] for c in DAMAGED_MANIFESTS])
def test_rerun_of_a_damaged_manifest_exits_1_and_writes_nothing(modularity_run, tmp_path, capsys, case, damage):
    _emb, report, manifest_path = modularity_run
    manifest = json.loads(manifest_path.read_text())
    damage(manifest)
    bad = tmp_path / "damaged.json"
    bad.write_text(json.dumps(manifest))
    report.unlink()
    manifest_path.unlink()
    capsys.readouterr()
    rc = main(["rerun", str(bad)])  # without --out, a replay would write the report and its manifest again
    out, err = capsys.readouterr()
    assert rc == EXIT_FAILURE, err
    assert err.startswith(f"error: {bad}:1: "), err
    assert "Traceback" not in err and out == ""
    assert not report.exists() and not manifest_path.exists()


def test_rerun_of_a_rerun_reproduces_the_report(modularity_run, tmp_path):
    _emb, report, manifest_path = modularity_run
    again, third = tmp_path / "again.json", tmp_path / "third.json"
    assert main(["rerun", str(manifest_path), "--out", str(again)]) == EXIT_OK
    replayed = json.loads(Path(str(again) + ".manifest.json").read_text())
    assert replayed["argv"] == json.loads(manifest_path.read_text())["argv"] + ["--out", str(again)]
    assert main(["rerun", str(again) + ".manifest.json", "--out", str(third)]) == EXIT_OK
    assert report.read_bytes() == again.read_bytes() == third.read_bytes()


def test_an_argument_utf8_cannot_encode_exits_3_before_reading_a_file(tmp_path, capsys):
    # Linux decodes an argv byte that is not UTF-8 to a lone surrogate, as here \xff to \udcff
    out = tmp_path / "mod\udcff.json"
    rc = main(["analyze", "modularity", "--embeddings", str(tmp_path / "missing.jsonl"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith(f"config error: argument {str(out)!r} does not encode as UTF-8"), err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
