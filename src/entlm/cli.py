"""Command-line surface tying the modules into reproducible runs.

Every command that writes an output also writes a manifest (its command
line, seed, versions, input digests) next to it; `inspect-checkpoint`,
which only prints, writes none.  `entlm rerun <manifest>` checks that every
recorded input is unchanged, then replays the command line, which writes
the replayed command's output and manifest and in deterministic mode
reproduces outputs bit-exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import typing

import numpy as np

from . import __version__
from . import align, cloze, corpus, files, heads, linker, pretrain, vocab as vocab_mod
from .config import parse_config_file, parse_overrides, resolve, section
from .encoder import EncoderConfig, check_params
from .errors import ConfigError, ContractError, EntlmError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(args, *named, seed=None, **counts):
    """The manifest of the run `args` describes, next to its output: <out>/manifest.json for a
    directory, else <out>.manifest.json.  It digests each given input flag build_parser declares
    (`inputs`; analyze's by metric) and the paths `named`; counts are top-level fields."""
    flags = args.inputs[args.metric] if isinstance(args.inputs, dict) else args.inputs
    paths = [getattr(args, flag) for flag in flags] + list(named)
    manifest = {
        "argv": args.argv,
        "seed": seed,
        "versions": {"entlm": __version__, "python": sys.version.split()[0], "numpy": np.__version__},
        "input_digests": {p: _digest(p) for p in paths if p},
        **counts,
    }
    is_dir = os.path.isdir(args.out)
    files.write_json(os.path.join(args.out, "manifest.json") if is_dir else args.out + ".manifest.json", manifest)


@contextlib.contextmanager
def _flag_errors(command):
    """A ContractError raised inside becomes ConfigError("<command>: ..."):
    a bad flag or setting exits 3, checked before any input file is read."""
    try:
        yield
    except ContractError as e:
        raise ConfigError(f"{command}: {e}") from None


# ---------------------------------------------------------------------------
# build-vocab


def cmd_build_vocab(args):
    with _flag_errors("build-vocab"):
        vocab_mod.check_build_limits(args.min_languages, args.top_k)
    docs = corpus.load_corpus(args.corpus)
    links = vocab_mod.InterLanguageLinks.load(args.links)
    ev = vocab_mod.build_entity_vocab(docs, links, min_languages=args.min_languages, top_k=args.top_k)
    ev.save(args.out)
    write_manifest(args)
    print(f"wrote {len(ev)} entities ({len(vocab_mod.SPECIAL_ENTITIES)} specials) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# link-entities


def cmd_link_entities(args):
    if not 0 <= args.min_link_prob <= 1:  # NaN fails too
        raise ConfigError(f"link-entities: min_link_prob {args.min_link_prob} must be in [0, 1]")
    page_docs = corpus.load_corpus(args.pages)
    ev = vocab_mod.EntityVocab.load(args.vocab)
    stats = vocab_mod.collect_mention_stats(page_docs)
    mention_map = linker.build_mention_map(page_docs, ev)
    text_docs = corpus.load_corpus(args.text)
    rows = []
    for doc in text_docs:
        anns = linker.detect_entities(doc.tokens, mention_map, stats=stats,
                                      language=doc.language, min_link_prob=args.min_link_prob)
        rows.append({"lang": doc.language, "title": doc.title, "annotations": [list(a) for a in anns]})
    files.write_json_lines(args.out, rows)
    write_manifest(args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pretrain


# the vocabulary sizes come from the data, not the config file
_MODEL_FIELD_TYPES = {k: t for k, t in typing.get_type_hints(EncoderConfig).items()
                      if k not in ("word_vocab_size", "entity_vocab_size")}

_TRAIN_FIELD_TYPES = typing.get_type_hints(pretrain.TrainConfig)

_DATA_FIELD_TYPES = {"corpus": str, "entity_vocab": str, "entity_cap": int, "word_min_count": int}


def _pretrain_config(args):
    schema = {f"model.{k}": t for k, t in _MODEL_FIELD_TYPES.items()}
    schema.update({f"train.{k}": t for k, t in _TRAIN_FIELD_TYPES.items()})
    schema.update({f"data.{k}": t for k, t in _DATA_FIELD_TYPES.items()})
    file_values = parse_config_file(args.config)
    values = resolve(schema, file_values, parse_overrides(args.set))
    if args.seed is not None:
        values["train.seed"] = args.seed
    return values


def cmd_pretrain(args):
    values = _pretrain_config(args)
    data, train = section(values, "data"), section(values, "train")
    if "corpus" not in data or "entity_vocab" not in data or "total_steps" not in train:
        raise ConfigError("config must set data.corpus, data.entity_vocab and train.total_steps")
    with _flag_errors("train"):
        train_config = pretrain.TrainConfig(**train).validate()

    docs = corpus.load_corpus(data["corpus"])
    entity_vocab = vocab_mod.EntityVocab.load(data["entity_vocab"])
    word_vocab = corpus.build_word_vocab(docs, min_count=data.get("word_min_count", 1))
    encoder_config = EncoderConfig(
        word_vocab_size=len(word_vocab),
        entity_vocab_size=len(entity_vocab),
        **section(values, "model"),
    ).validate()

    # sequences are cut to the length the position table covers
    sequences_by_language, dropped = corpus.encode_corpus(
        docs, word_vocab, entity_vocab, max_words=encoder_config.max_positions,
        entity_cap=data.get("entity_cap", corpus.DEFAULT_ENTITY_CAP))

    result = pretrain.train(
        encoder_config, train_config, sequences_by_language, word_vocab, entity_vocab,
        out_dir=args.out, log_file=os.path.join(args.out, "train_log.tsv"),
    )
    write_manifest(args, data["corpus"], data["entity_vocab"], seed=train_config.seed, dropped_annotations=dropped)
    print(f"pretrained {result.step} steps, dropped {dropped} annotations "
          f"(across a sequence cut, unresolved title or past entity_cap) -> {result.final_checkpoint}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune / eval


def _model_checkpoint(path):
    """The checkpoint at `path`, which must hold the vocabularies its ids mean."""
    ckpt = pretrain.load_checkpoint(path)
    if ckpt.word_vocab is None:
        raise ContractError(f"{path}: checkpoint holds no vocabularies (its header field 'vocab' is null)")
    return ckpt


def cmd_finetune(args):
    with _flag_errors("finetune"):
        cfg = heads.FinetuneConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch_size,
                                   seed=args.seed).validate()
        heads.check_max_span_len(args.max_span_len)
    ckpt = _model_checkpoint(args.checkpoint)
    load = heads.TASK_LOADERS[args.task]
    train_insts = load(args.train)
    dev = load(args.dev) if args.dev is not None else None  # an empty path is a path, and fails to open
    parts = (ckpt.encoder_config, ckpt.params, ckpt.word_vocab, ckpt.entity_vocab)
    variant = heads.VARIANTS[args.task][args.variant == "entity"]
    if args.task == "qa":
        model = heads.make_qa_model(*parts, use_entities=variant == "entity", seed=cfg.seed)
    elif args.task == "re":
        model = heads.make_re_model(*parts, sorted({i.label for i in train_insts}), variant=variant, seed=cfg.seed)
    else:
        model = heads.make_ner_model(*parts, sorted({t for i in train_insts for _, _, t in i.gold_spans}),
                                     variant=variant, max_span_len=args.max_span_len, seed=cfg.seed)
    model = heads.finetune(model, train_insts, dev, cfg)

    os.makedirs(args.out, exist_ok=True)
    out_ckpt = os.path.join(args.out, "checkpoint-finetuned.bin")
    # the word vocab with the RE markers, if the variant added them
    pretrain.save_checkpoint(out_ckpt, model.encoder_config, model.params, step=0, meta=heads.checkpoint_meta(model),
                             word_vocab=model.word_vocab, entity_vocab=model.entity_vocab)
    write_manifest(args, seed=cfg.seed)
    print(f"finetuned {args.task} ({model.variant}) on {len(train_insts) - model.skipped_examples} examples, "
          f"skipped {model.skipped_examples} unusable and {model.skipped_gold_spans} gold spans longer than "
          f"max_span_len -> {out_ckpt}")
    return EXIT_OK


def cmd_eval(args):
    model = heads.task_model_from_checkpoint(_model_checkpoint(args.checkpoint), args.checkpoint)
    if args.task and args.task != model.task:
        raise ConfigError(f"checkpoint holds a {model.task} head, not {args.task}")
    report = heads.evaluate(model, heads.TASK_LOADERS[model.task](args.data))
    files.write_json(args.out, report)
    write_manifest(args)
    print(json.dumps(report, sort_keys=True)[:2000])
    return EXIT_OK


# ---------------------------------------------------------------------------
# cloze-eval


def _cloze_model(path):
    ckpt = _model_checkpoint(path)
    return cloze.ClozeModel(encoder_config=ckpt.encoder_config, params=ckpt.params,
                            word_vocab=ckpt.word_vocab, entity_vocab=ckpt.entity_vocab)


def cmd_cloze_eval(args):
    model = _cloze_model(args.checkpoint)
    # a finetuned checkpoint holds no MLM or MEP head; dump-features reads none, so it takes one
    check_params(model.params, pretrain.head_specs(model.encoder_config), args.checkpoint)
    queries = cloze.load_queries(args.queries)
    report = cloze.evaluate(model, queries, mode=args.mode)
    report["fp_analysis"] = cloze.fp_analysis(report["records"])
    files.write_json(args.out, report)
    write_manifest(args)
    print(f"accuracy[{args.mode}] = {report['accuracy']:.4f}  "
          f"word fallbacks {report['word_fallbacks']}/{report['candidates_scored']} candidates  "
          f"subject fallbacks {report['subject_fallbacks']}/{len(queries)} queries")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dump-features / analyze


def cmd_dump_features(args):
    model = _cloze_model(args.checkpoint)
    if args.feature_spec in ("re-word", "re-entity"):
        insts = heads.load_re_data(args.data)
        dataset = [(f"{args.lang}-{i}", args.lang, inst) for i, inst in enumerate(insts)]
    else:
        dataset = align.load_span_items(args.data, model.word_vocab, model.entity_vocab)
    align.feature_dump(model, dataset, args.feature_spec, out_path=args.out)
    write_manifest(args)
    return EXIT_OK


_ANALYZE_INPUTS = {"cwr": ("queries", "pool", "gold"), "modularity": ("embeddings",)}


def cmd_analyze(args):
    names = _ANALYZE_INPUTS[args.metric]
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(f"analyze {args.metric} needs {', '.join(missing)}")
    with _flag_errors("analyze"):
        if args.k < 1:
            raise ContractError(f"k {args.k} must be >= 1")
    if args.metric == "cwr":
        queries = align.load_embeddings(args.queries)
        pool = align.load_embeddings(args.pool, dim=queries[0].vector.size if queries else None)
        gold = align.load_gold(args.gold, pool)
        report = {"mrr": align.cwr_mrr(queries, pool, gold),
                  "n_queries": len(queries), "n_pool": len(pool)}
    else:
        emb = align.load_embeddings(args.embeddings)
        report = {"modularity": align.modularity(emb, k=args.k), "k": args.k, "n": len(emb)}
    files.write_json(args.out, report)
    write_manifest(args)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect-checkpoint / rerun


def cmd_inspect_checkpoint(args):
    ckpt = pretrain.load_checkpoint(args.checkpoint)
    vocab_sizes = None if ckpt.word_vocab is None else {"words": len(ckpt.word_vocab),
                                                        "entities": len(ckpt.entity_vocab)}
    summary = {
        "step": ckpt.step,
        "encoder_config": ckpt.encoder_config.to_dict(),
        "meta": ckpt.meta,
        "vocab_sizes": vocab_sizes,
        "tensors": {n: list(p.shape) for n, p in sorted(ckpt.params.items())},
        "n_parameters": int(sum(p.data.size for p in ckpt.params.values())),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _parse(argv):
    """build_parser().parse_args(argv), with `argv` kept on the result; a command line that
    does not parse raises ContractError (argparse exits on a missing required argument even
    with exit_on_error=False, so its exit is caught)."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stderr(printed), contextlib.redirect_stdout(printed):
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        why = printed.getvalue().strip().splitlines()[-1] if e.code else "it asks for help"
        raise ContractError(f"argv does not parse: {why}") from None
    args.argv = argv
    return args


def _replay_args(manifest, out=None):
    """The parsed `argv` of a run manifest, with `--out out` appended if given; every
    command but `rerun` replays.  Each input in the manifest's `input_digests` must
    still exist with the recorded sha256, so a replay never runs on changed inputs."""
    argv = manifest["argv"]
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)) or argv[0] == "rerun":
        raise ContractError(f"argv {json.dumps(argv, ensure_ascii=False)} must be a non-empty list of strings "
                            "whose first is not rerun")
    args = _parse(argv + ["--out", out] if out else argv)
    for path, digest in manifest.get("input_digests", {}).items():
        if not os.path.isfile(path):
            raise ContractError(f"input {path} is missing")
        if _digest(path) != digest:
            raise ContractError(f"input {path} has changed since the run (its sha256 differs)")
    return args


def cmd_rerun(args):
    replayed = files.read_json(args.manifest, lambda manifest: _replay_args(manifest, args.out))
    return replayed.func(replayed)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    p = argparse.ArgumentParser(prog="entlm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    bv = sub.add_parser("build-vocab", help="build the merged entity vocabulary")
    bv.add_argument("--corpus", required=True)
    bv.add_argument("--links", required=True)
    bv.add_argument("--out", required=True)
    bv.add_argument("--min-languages", type=int, default=3)
    bv.add_argument("--top-k", type=int, default=1_200_000)
    bv.set_defaults(func=cmd_build_vocab, inputs=("corpus", "links"))

    le = sub.add_parser("link-entities", help="heuristic entity detection over documents")
    le.add_argument("--pages", required=True, help="annotated source pages (mention map + stats)")
    le.add_argument("--text", required=True, help="documents to annotate")
    le.add_argument("--vocab", required=True)
    le.add_argument("--out", required=True)
    le.add_argument("--min-link-prob", type=float, default=linker.DEFAULT_MIN_LINK_PROB)
    le.set_defaults(func=cmd_link_entities, inputs=("pages", "text", "vocab"))

    pt = sub.add_parser("pretrain", help="two-stage MLM+MEP pretraining")
    pt.add_argument("--config", required=True)
    pt.add_argument("--set", action="append", default=[], help="override: key=value")
    pt.add_argument("--out", required=True)
    pt.add_argument("--seed", type=int, default=None)
    pt.set_defaults(func=cmd_pretrain, inputs=("config",))  # and the corpus and entity vocab it names

    ft = sub.add_parser("finetune", help="finetune a task head")
    ft.add_argument("task", choices=list(heads.TASK_LOADERS))
    ft.add_argument("--checkpoint", required=True)
    ft.add_argument("--train", required=True)
    ft.add_argument("--dev", default=None)
    ft.add_argument("--out", required=True)
    ft.add_argument("--variant", choices=["word", "entity"], default="word")
    ft.add_argument("--epochs", type=int, default=heads.FinetuneConfig.epochs)
    ft.add_argument("--batch-size", type=int, default=heads.FinetuneConfig.batch_size)
    ft.add_argument("--lr", type=float, default=heads.FinetuneConfig.lr)
    ft.add_argument("--max-span-len", type=int, default=heads.NER_MAX_SPAN_LEN)
    ft.add_argument("--seed", type=int, default=heads.FinetuneConfig.seed)
    ft.set_defaults(func=cmd_finetune, inputs=("checkpoint", "train", "dev"))

    ev = sub.add_parser("eval", help="evaluate a finetuned checkpoint")
    ev.add_argument("task", choices=list(heads.TASK_LOADERS), nargs="?", default=None)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval, inputs=("checkpoint", "data"))

    cz = sub.add_parser("cloze-eval", help="typed cloze-prompt evaluation")
    cz.add_argument("--checkpoint", required=True)
    cz.add_argument("--queries", required=True)
    cz.add_argument("--mode", choices=list(cloze.MODES), default="word")
    cz.add_argument("--out", required=True)
    cz.set_defaults(func=cmd_cloze_eval, inputs=("checkpoint", "queries"))

    df = sub.add_parser("dump-features", help="write span/RE feature embeddings")
    df.add_argument("--checkpoint", required=True)
    df.add_argument("--data", required=True)
    df.add_argument("--feature-spec", choices=list(align.FEATURE_SPECS), required=True)
    df.add_argument("--lang", default="en")
    df.add_argument("--out", required=True)
    df.set_defaults(func=cmd_dump_features, inputs=("checkpoint", "data"))

    an = sub.add_parser("analyze", help="alignment diagnostics on embedding files")
    an.add_argument("metric", choices=list(_ANALYZE_INPUTS))
    an.add_argument("--queries")
    an.add_argument("--pool")
    an.add_argument("--gold")
    an.add_argument("--embeddings")
    an.add_argument("--k", type=int, default=3)
    an.add_argument("--out", required=True)
    an.set_defaults(func=cmd_analyze, inputs=_ANALYZE_INPUTS)

    ic = sub.add_parser("inspect-checkpoint", help="summarize a checkpoint file")
    ic.add_argument("--checkpoint", required=True)
    ic.set_defaults(func=cmd_inspect_checkpoint)

    rr = sub.add_parser("rerun", help="replay a run from its manifest")
    rr.add_argument("manifest")
    rr.add_argument("--out", default=None)
    rr.set_defaults(func=cmd_rerun)

    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        for arg in argv:  # the manifest records the command line in UTF-8
            try:
                arg.encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"argument {arg!r} does not encode as UTF-8") from None
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (EntlmError, OSError) as e:  # OSError: a missing, unreadable or misplaced path
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
