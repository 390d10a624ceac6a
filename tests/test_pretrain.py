"""Pretraining: schedule oracles, optimizer behavior, checkpoints, loop."""

import inspect
import json
import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import entlm.corpus as corpus
import entlm.pretrain as pretrain
import entlm.tensor as T
from entlm.corpus import SequenceSampler, WordVocab, build_word_vocab, encode_corpus, mask_batch
from entlm.encoder import EncoderConfig
from entlm.errors import ContractError, EntlmError
from entlm.heads import FINETUNE_WARMUP_FRAC
from entlm.pretrain import (
    ADAMW_BLOCK,
    CHECKPOINT_MAGIC,
    STAGE1_TRAINABLE,
    AdamW,
    TrainConfig,
    TrainingAborted,
    init_model,
    load_checkpoint,
    lr_at,
    mep_loss,
    mlm_loss,
    save_checkpoint,
    select_trainable,
    stage_of,
    train,
)
from conftest import tensor_digest
from entlm.synth import make_bilingual_corpus
from entlm.vocab import SPECIAL_ENTITIES, EntityEntry, EntityVocab, build_entity_vocab


def _toy_config(wv, ev):
    return EncoderConfig(word_vocab_size=len(wv), entity_vocab_size=len(ev),
                         hidden_size=16, entity_emb_size=8, layers=1, heads=2,
                         ffn_size=32, max_positions=16, dropout=0.0).validate()


@pytest.fixture(scope="module")
def toy_data():
    docs, links = make_bilingual_corpus(n_entities=8, n_sequences=60, seed=2)
    ev = build_entity_vocab(docs, links, min_languages=2)
    wv = build_word_vocab(docs)
    by_lang, _ = encode_corpus(docs, wv, ev, max_words=_toy_config(wv, ev).max_positions)
    return by_lang, wv, ev


@pytest.fixture
def toy_encoder_config(toy_data):
    _, wv, ev = toy_data
    return _toy_config(wv, ev)


# ---------------------------------------------------------------------------
# learning-rate schedule


def paper_schedule_config(**kw):
    base = dict(total_steps=1_000_000, stage1_steps=500_000, warmup_steps=2500,
                peak_lr=1e-4, stage1_peak_lr=5e-4)
    base.update(kw)
    return TrainConfig(**base)


def test_lr_warmup_midpoint():
    cfg = paper_schedule_config()
    assert lr_at(1250, cfg) == pytest.approx(2.5e-4, abs=1e-18)


def test_lr_closed_form_probes():
    cfg = paper_schedule_config()
    for step in [0, 1, 777, 2499, 2500, 100_000, 499_999,
                 500_000, 500_001, 502_499, 502_500, 700_000, 999_999,
                 1250, 250_000, 375_000, 501_250, 625_000, 750_000, 875_000]:
        if step < 500_000:
            local, peak, length = step, 5e-4, 500_000
        else:
            local, peak, length = step - 500_000, 1e-4, 500_000
        if local < 2500:
            expected = peak * local / 2500
        else:
            expected = peak * (length - local) / (length - 2500)
        assert lr_at(step, cfg) == pytest.approx(expected, rel=0, abs=0), step


def test_lr_resets_at_stage_boundary():
    cfg = paper_schedule_config()
    assert stage_of(499_999, cfg) == 1
    assert stage_of(500_000, cfg) == 2
    assert lr_at(500_000, cfg) == 0.0  # warmup restarts from zero
    assert lr_at(499_999, cfg) > 0.0
    assert lr_at(502_500, cfg) == pytest.approx(1e-4)


def test_lr_decays_to_zero_at_end():
    cfg = paper_schedule_config()
    assert lr_at(999_999, cfg) == pytest.approx(1e-4 / 497_500, rel=1e-12)
    with pytest.raises(ContractError):
        lr_at(1_000_000, cfg)


def test_lr_single_stage():
    cfg = TrainConfig(total_steps=100, stage1_steps=0, warmup_steps=10, peak_lr=1e-3)
    assert lr_at(5, cfg) == pytest.approx(5e-4)
    assert lr_at(10, cfg) == pytest.approx(1e-3)
    assert lr_at(55, cfg) == pytest.approx(1e-3 * 45 / 90)


# init_model's draw at the tiny config, recorded before the encoder and the heads were drawn
# through one spec table; NumPy's generators give these bits on every platform
INIT_MODEL_DIGEST = "07d5f86057b102eed9df67988552820150a3f37d5848989ff1985ee3c1f24955"


def test_init_model_draw_is_pinned(tiny_config):
    params = init_model(tiny_config, seed=0)
    assert list(params)[-4:] == [name for name, _, _ in pretrain.head_specs(tiny_config)]
    assert tensor_digest(params) == INIT_MODEL_DIGEST


def test_paper_defaults():
    cfg = TrainConfig(total_steps=10, stage1_steps=0)
    assert cfg.warmup_steps == 2500
    assert cfg.stage1_peak_lr == pytest.approx(5e-4)
    assert cfg.peak_lr == pytest.approx(1e-4)
    # the fixed settings are constants where they are used: no caller can set them
    assert (pretrain.ADAMW_BETA1, pretrain.ADAMW_BETA2, pretrain.ADAMW_EPS,
            pretrain.ADAMW_WEIGHT_DECAY) == (0.9, 0.999, 1e-6, 0.01)
    assert (corpus.WORD_MASK_P, corpus.WORD_RANDOM_P, corpus.WORD_KEEP_P,
            corpus.ENTITY_MASK_P) == (0.15, 0.10, 0.10, 0.15)
    assert corpus.LANGUAGE_ALPHA == 0.7
    for fn in (AdamW, mask_batch, SequenceSampler):
        assert not {"beta1", "beta2", "eps", "weight_decay", "word_p", "word_random_p", "word_keep_p", "entity_p",
                    "alpha"} & inspect.signature(fn).parameters.keys(), fn
    assert STAGE1_TRAINABLE == ("entity_emb", "entity_proj", "entity_type_emb", "mep_head")
    assert FINETUNE_WARMUP_FRAC == 0.06


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_decoupled_weight_decay():
    p = T.parameter(np.array([2.0]))
    p.grad = np.array([0.0])
    opt = AdamW({"w": p})
    opt.step(lr=0.1)
    # zero gradient: the update is pure decay, value shrinks by (1 - lr*wd)
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01), abs=1e-15)


def test_adamw_first_step_is_signed_lr(monkeypatch):
    monkeypatch.setattr(pretrain, "ADAMW_EPS", 0.0)
    monkeypatch.setattr(pretrain, "ADAMW_WEIGHT_DECAY", 0.0)
    p = T.parameter(np.array([0.0]))
    p.grad = np.array([3.0])
    opt = AdamW({"w": p})
    opt.step(lr=0.01)
    # bias-corrected first step: mhat/sqrt(vhat) = g/|g|
    assert p.data[0] == pytest.approx(-0.01, rel=1e-12)


def test_adamw_skips_non_trainable():
    a = T.parameter(np.array([1.0]))
    b = T.parameter(np.array([1.0]))
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    opt = AdamW({"a": a, "b": b})
    opt.step(lr=0.1, trainable={"a"})
    assert a.data[0] != 1.0
    assert b.data[0] == 1.0
    assert "b" not in opt.m


class ReferenceAdamW:
    """The out-of-place formula AdamW must reproduce bit for bit."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-6, weight_decay=0.01):
        self.params, self.beta1, self.beta2, self.eps = params, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m, self.v, self.t = {}, {}, {}

    def step(self, lr, trainable=None):
        for name, p in self.params.items():
            if trainable is not None and name not in trainable:
                continue
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            t = self.t[name] = self.t.get(name, 0) + 1
            m = self.m.get(name, np.zeros_like(p.data))
            v = self.v.get(name, np.zeros_like(p.data))
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * (g * g)
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - self.beta1**t)
            vhat = v / (1 - self.beta2**t)
            p.data = p.data - lr * (mhat / (np.sqrt(vhat) + self.eps) + self.weight_decay * p.data)


def assert_matches_reference(opt, oracle, ours, ref):
    assert opt.t == oracle.t
    for n in ours:
        assert ours[n].data.tobytes() == ref[n].data.tobytes(), n
        if n in oracle.m:
            assert opt.m[n].tobytes() == oracle.m[n].tobytes(), n
            assert opt.v[n].tobytes() == oracle.v[n].tobytes(), n
        else:
            assert n not in opt.m, n


def random_grad(rng, shape):
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 2)


def test_adamw_bit_identical_to_out_of_place_formula():
    rng = np.random.default_rng(7)
    # "big" and "huge" put block boundaries inside and between parameters;
    # "frozen" sits between stage-1 parameters, so after the stage switch
    # it splits the store into runs with different step counts
    shapes = {"head": (5,), "big": (ADAMW_BLOCK + 1234,), "mat": (37, 5), "frozen": (9,),
              "no_grad": (6,), "huge": (2 * ADAMW_BLOCK + 7,), "scalar": ()}
    init = {n: rng.normal(size=s) for n, s in shapes.items()}
    ours = {n: T.parameter(a) for n, a in init.items()}
    ref = {n: T.parameter(a) for n, a in init.items()}
    opt, oracle = AdamW(ours), ReferenceAdamW(ref)
    # two stage-1 steps on part of the set, then stage 2, where the
    # per-parameter step counts differ
    stage1 = {"head", "big", "mat", "no_grad", "huge"}
    schedule = [(stage1, 5e-3), (stage1, 4e-3), (None, 1e-3), (None, 2e-4)]
    for trainable, lr in schedule:
        for n, s in shapes.items():
            grad = None if n == "no_grad" else random_grad(rng, s)
            ours[n].grad = ref[n].grad = grad
        opt.step(lr, trainable=trainable)
        oracle.step(lr, trainable=trainable)
        assert_matches_reference(opt, oracle, ours, ref)
    assert opt.t == {"head": 4, "big": 4, "mat": 4, "no_grad": 4, "huge": 4,
                     "frozen": 2, "scalar": 2}


def test_adamw_reassigned_parameter_steps_from_its_new_values():
    rng = np.random.default_rng(3)
    shapes = {"a": (4, 3), "b": (ADAMW_BLOCK + 5,), "c": (7,)}
    init = {n: rng.normal(size=s) for n, s in shapes.items()}
    ours = {n: T.parameter(a) for n, a in init.items()}
    ref = {n: T.parameter(a) for n, a in init.items()}
    opt, oracle = AdamW(ours), ReferenceAdamW(ref)
    for step in range(4):
        if step == 2:
            # a restore such as the fine-tuning loop's best-weights copy
            for n in ("a", "b"):
                new = rng.normal(size=shapes[n])
                ours[n].data, ref[n].data = new.copy(), new.copy()
        for n, s in shapes.items():
            ours[n].grad = ref[n].grad = random_grad(rng, s)
        opt.step(1e-2)
        oracle.step(1e-2)
        assert_matches_reference(opt, oracle, ours, ref)


def test_adamw_instances_sharing_a_tensor_step_in_turn():
    # task models share the encoder's Tensors with the pretrained dict
    rng = np.random.default_rng(5)
    init = {n: rng.normal(size=(6, 2)) for n in ("shared", "h1", "h2")}
    ours = {n: T.parameter(a) for n, a in init.items()}
    ref = {n: T.parameter(a) for n, a in init.items()}
    pairs = []
    for head in ("h1", "h2"):
        names = ("shared", head)
        pairs.append((AdamW({n: ours[n] for n in names}), ReferenceAdamW({n: ref[n] for n in names}),
                      names))
    for _ in range(3):
        for opt, oracle, names in pairs:
            for n in names:
                ours[n].grad = ref[n].grad = random_grad(rng, (6, 2))
            opt.step(1e-2)
            oracle.step(1e-2)
            assert_matches_reference(opt, oracle, {n: ours[n] for n in names},
                                     {n: ref[n] for n in names})


def test_adamw_leaves_parameters_without_requires_grad_alone():
    p = T.parameter(np.arange(4.0))
    c = T.Tensor(np.arange(3.0) + 0.5)
    before = c.data.tobytes()
    for t in (p, c):
        t.grad = np.ones_like(t.data)
    opt = AdamW({"p": p, "c": c})
    opt.step(lr=0.1)
    opt.step(lr=0.1)
    assert c.data.tobytes() == before
    assert "c" not in opt.m and "c" not in opt.t
    assert np.all(p.data < np.arange(4.0))


def test_adamw_updates_parameter_arrays_in_place():
    # a transposed view and a read-only array are moved into the store all the same
    q = T.parameter(np.ones((2, 3)))
    q.data = q.data.T
    r = T.parameter(np.ones(2))
    r.data.flags.writeable = False
    params = {"p": T.parameter(np.ones(3)), "q": q, "r": r}
    opt = AdamW(params)
    arrays = {n: t.data for n, t in params.items()}
    for _ in range(2):
        for t in params.values():
            t.grad = np.ones_like(t.data)
        opt.step(lr=0.1)
    for n, t in params.items():
        assert t.data is arrays[n]
        assert np.all(t.data < 1.0)
    assert q.data.shape == (3, 2)


def test_adamw_rejects_a_gradient_of_another_shape():
    for shape, grad_shape in (((3,), (5,)), ((2, 3), (3, 2))):
        p = T.parameter(np.ones(shape))
        ok = T.parameter(np.ones(4))
        opt = AdamW({"ok": ok, "w": p})
        ok.grad, p.grad = np.ones(4), np.ones(grad_shape)
        with pytest.raises(ContractError, match="parameter w "):
            opt.step(lr=0.1)
        # nothing stepped, not even the parameter before it
        assert opt.t == {} and np.all(ok.data == 1.0) and np.all(p.data == 1.0)


class RaisingWorker:
    def submit(self, *args):
        raise RuntimeError("the worker was asked to update")


def test_adamw_keeps_a_store_under_two_blocks_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(pretrain, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pretrain, "_adamw_worker", RaisingWorker)
    rng = np.random.default_rng(9)
    for sizes, reaches_worker in (((ADAMW_BLOCK, ADAMW_BLOCK - 1), False), ((ADAMW_BLOCK, ADAMW_BLOCK), True)):
        params = {f"p{i}": T.parameter(rng.normal(size=n)) for i, n in enumerate(sizes)}
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt = AdamW(params)
        if reaches_worker:
            with pytest.raises(RuntimeError, match="worker"):
                opt.step(lr=1e-3)
        else:
            opt.step(lr=1e-3)


def test_adamw_worker_half_raises_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(pretrain, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pretrain, "ADAMW_EPS", 0.0)
    monkeypatch.setattr(pretrain, "ADAMW_WEIGHT_DECAY", 0.0)
    p = T.parameter(np.zeros(2 * ADAMW_BLOCK))
    # eps 0 and a zero gradient make 0 / 0 in the second block only, the worker's
    p.grad = np.concatenate([np.ones(ADAMW_BLOCK), np.zeros(ADAMW_BLOCK)])
    opt = AdamW({"w": p})
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        opt.step(lr=1e-3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_adamw_steps_in_a_child_forked_after_a_split_step(monkeypatch):
    monkeypatch.setattr(pretrain, "_usable_cpus", lambda: 2)

    def split_step():
        p = T.parameter(np.ones(2 * ADAMW_BLOCK))
        p.grad = np.ones(2 * ADAMW_BLOCK)
        AdamW({"w": p}).step(lr=1e-3)

    split_step()  # the worker thread now exists
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a multi-threaded process
        pid = os.fork()
    if pid == 0:
        split_step()
        os._exit(0)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_select_trainable_substring_match(toy_encoder_config):
    params = init_model(toy_encoder_config, seed=0)
    picked = select_trainable(params, ("entity_emb", "entity_proj", "entity_type_emb", "mep_head"))
    assert picked == {"entity_emb", "entity_proj_w", "entity_proj_b", "entity_type_emb",
                      "mep_head.w", "mep_head.b"}


# ---------------------------------------------------------------------------
# losses


def test_mlm_loss_skips_without_labels(toy_encoder_config):
    params = init_model(toy_encoder_config, seed=0)
    for loss_fn, head in ((mlm_loss, "mlm_head"), (mep_loss, "mep_head")):
        vecs = T.parameter(np.ones((2, 3, toy_encoder_config.hidden_size)))
        loss, skipped = loss_fn(vecs, np.full((2, 3), -100), params)
        assert skipped and loss.data == 0.0
        T.backward(loss)
        # the head and the encoder vectors get gradients that are exact zeros
        for grad in (params[head + ".w"].grad, params[head + ".b"].grad, vecs.grad):
            assert grad is not None and not np.any(grad)


def test_mlm_loss_uniform_logits(toy_encoder_config):
    params = init_model(toy_encoder_config, seed=0)
    params["mlm_head.w"].data[:] = 0.0
    params["mlm_head.b"].data[:] = 0.0
    vecs = T.constant(np.zeros((1, 3, toy_encoder_config.hidden_size)))
    loss, skipped = mlm_loss(vecs, np.array([[1, -100, 2]]), params)
    assert not skipped
    assert loss.data == pytest.approx(np.log(toy_encoder_config.word_vocab_size), rel=1e-12)


def full_projection_loss(vectors, labels, w, b):
    """Project every row, then let the ignore label mask the loss."""
    flat = T.reshape(vectors, (-1, vectors.shape[-1]))
    return T.cross_entropy_logits(T.matmul(flat, w) + b, np.asarray(labels).reshape(-1))


@pytest.mark.parametrize("loss_fn,head", [(mlm_loss, "mlm_head"), (mep_loss, "mep_head")])
def test_gathered_head_loss_matches_full_projection(toy_encoder_config, loss_fn, head):
    rng = np.random.default_rng(8)
    params = init_model(toy_encoder_config, seed=0)
    V = params[head + ".b"].shape[0]
    labels = rng.integers(0, V, size=(3, 5))
    labels[rng.random(labels.shape) < 0.7] = -100
    labels[0, 0] = 1
    vec_data = rng.normal(size=(3, 5, toy_encoder_config.hidden_size))

    runs = []
    for fn in (lambda v, p: loss_fn(v, labels, p)[0],
               lambda v, p: full_projection_loss(v, labels, p[head + ".w"], p[head + ".b"])):
        vecs = T.parameter(vec_data)
        T.zero_grads(params)
        loss = fn(vecs, params)
        T.backward(loss)
        runs.append((loss.data, vecs.grad, params[head + ".w"].grad, params[head + ".b"].grad))
    for got, want in zip(*runs):
        assert np.max(np.abs(got - want)) <= 1e-12



# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_identical(tmp_path, toy_encoder_config):
    params = init_model(toy_encoder_config, seed=3)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, toy_encoder_config, params, step=17, meta={"note": "t"})
    ckpt = load_checkpoint(path)
    assert ckpt.step == 17
    assert ckpt.encoder_config == toy_encoder_config
    assert ckpt.meta == {"note": "t"}
    assert set(ckpt.params) == set(params)
    for name, p in params.items():
        assert ckpt.params[name].data.tobytes() == p.data.tobytes()

    # saving the loaded state reproduces the file byte for byte
    path2 = str(tmp_path / "ckpt2.bin")
    save_checkpoint(path2, ckpt.encoder_config, ckpt.params, step=17, meta={"note": "t"})
    assert (tmp_path / "ckpt.bin").read_bytes() == (tmp_path / "ckpt2.bin").read_bytes()


def _entries(vocab):
    return [(e.canonical_key, e.link_count, e.titles) for e in vocab.entries]


def test_checkpoint_round_trip_gives_back_its_vocabularies(tmp_path):
    wv = WordVocab(["zeta", "alpha", "東京", "mid"])  # ids in first-seen order, not sorted
    ev = EntityVocab([EntityEntry(canonical_key=k) for k in SPECIAL_ENTITIES] + [
        EntityEntry("tokyo", 7, {("ja", "東京"), ("en", "Tokyo"), ("de", "Tokio")}),
        EntityEntry("kyoto", 0, {("en", "Kyoto")}),
        EntityEntry("nara", 3, set())])
    cfg = _toy_config(wv, ev)
    params = init_model(cfg, seed=3)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), cfg, params, word_vocab=wv, entity_vocab=ev)
    ckpt = load_checkpoint(str(path))
    assert ckpt.word_vocab.id_to_token == ["[PAD]", "[UNK]", "[MASK]", "zeta", "alpha", "東京", "mid"]
    assert ckpt.word_vocab.token_to_id == wv.token_to_id
    assert _entries(ckpt.entity_vocab) == _entries(ev)
    assert ckpt.entity_vocab.resolve("ja", "東京") == ckpt.entity_vocab.resolve_key("tokyo") == 4
    # titles are stored sorted, so the header does not depend on set order
    header, _ = _header_and_payload(path.read_bytes())
    assert header["vocab"]["entities"][4] == ["tokyo", 7, [["de", "Tokio"], ["en", "Tokyo"], ["ja", "東京"]]]
    again = tmp_path / "again.bin"
    save_checkpoint(str(again), ckpt.encoder_config, ckpt.params,
                    word_vocab=ckpt.word_vocab, entity_vocab=ckpt.entity_vocab)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_takes_both_vocabularies_or_neither(tmp_path, toy_data, toy_encoder_config):
    _, wv, ev = toy_data
    params = init_model(toy_encoder_config, seed=3)
    path = tmp_path / "ckpt.bin"
    for vocabs in ({"word_vocab": wv}, {"entity_vocab": ev}):
        with pytest.raises(ContractError, match="both vocabularies or neither"):
            save_checkpoint(str(path), toy_encoder_config, params, **vocabs)
        assert not path.exists()
    save_checkpoint(str(path), toy_encoder_config, params)
    assert _header_and_payload(path.read_bytes())[0]["vocab"] is None
    ckpt = load_checkpoint(str(path))
    assert ckpt.word_vocab is None and ckpt.entity_vocab is None


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"something else entirely")
    with pytest.raises(ContractError):
        load_checkpoint(str(path))


def test_checkpoint_header_with_a_lone_surrogate_is_refused(tmp_path, toy_encoder_config):
    params = init_model(toy_encoder_config, seed=3)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), toy_encoder_config, params, meta={"note": "\u00fc \U0001f600"})
    header, payload = _header_and_payload(path.read_bytes())
    for note, valid in (("\u00fc \U0001f600", True), ("x\ud800", False)):
        header["meta"]["note"] = note
        raw = json.dumps(header).encode("ascii")  # escapes the note as \u00fc \ud83d\ude00, or \ud800
        path.write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(8, "little") + raw + payload)
        if valid:
            assert load_checkpoint(str(path)).meta["note"] == note
        else:
            with pytest.raises(ContractError, match="header is not JSON .a string holds a lone surrogate"):
                load_checkpoint(str(path))


def _header_and_payload(raw):
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(raw[len(CHECKPOINT_MAGIC):start], "little")
    return json.loads(raw[start:end]), raw[end:]


def test_checkpoint_with_optimizer_and_rng_fields_still_loads(tmp_path, toy_encoder_config):
    """Header keys the loader does not read are ignored, but a payload tensor
    that `shapes` does not name, such as an AdamW moment, is refused."""
    params = init_model(toy_encoder_config, seed=3)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), toy_encoder_config, params, step=4)
    header, payload = _header_and_payload(path.read_bytes())
    name = min(header["shapes"])
    header["optimizer"] = {"t": {name: 4}}
    header["rng_state"] = {"sampler": {"state": 1}, "dropout": {"state": 2}}
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(8, "little") + raw + payload)
    ckpt = load_checkpoint(str(path))
    assert ckpt.step == 4
    assert sorted(ckpt.params) == sorted(params)
    for n, p in params.items():
        assert ckpt.params[n].data.tobytes() == p.data.tobytes()

    moment = np.full(params[name].data.shape, 0.25)
    path.write_bytes(CHECKPOINT_MAGIC + len(raw).to_bytes(8, "little") + raw
                     + payload + moment.astype("<f8").tobytes())
    with pytest.raises(ContractError, match=f"payload holds {len(payload) + moment.nbytes} bytes, "
                                            f"but the header's shapes give {len(payload)}"):
        load_checkpoint(str(path))


def test_intermediate_checkpoints_hold_parameters_only(tmp_path, toy_data, toy_encoder_config):
    cfg = TrainConfig(total_steps=4, batch_size=2, warmup_steps=1, seed=5, checkpoint_interval=2)
    by_lang, wv, ev = toy_data
    result = train(toy_encoder_config, cfg, by_lang, wv, ev, out_dir=str(tmp_path))
    for step in (2, 4):
        header, payload = _header_and_payload((tmp_path / f"checkpoint-{step}.bin").read_bytes())
        assert header["step"] == step
        assert "optimizer" not in header and "rng_state" not in header
        assert header["shapes"] == {n: list(p.shape) for n, p in result.params.items()}
        assert len(payload) == 8 * sum(p.data.size for p in result.params.values())
        if step == 4:  # the payload is each tensor's float64 bytes in name order, and nothing else
            assert payload == b"".join(result.params[n].data.astype("<f8").tobytes() for n in sorted(header["shapes"]))
    last = load_checkpoint(str(tmp_path / "checkpoint-4.bin"))
    for n, p in result.params.items():
        assert last.params[n].data.tobytes() == p.data.tobytes()
    assert last.word_vocab.id_to_token == wv.id_to_token and _entries(last.entity_vocab) == _entries(ev)


# ---------------------------------------------------------------------------
# training loop


def run_toy(toy_data, cfg, encoder_config, out_dir=None):
    by_lang, wv, ev = toy_data
    return train(encoder_config, cfg, by_lang, wv, ev, out_dir=out_dir)


def test_training_is_deterministic(toy_data, toy_encoder_config):
    cfg = TrainConfig(total_steps=5, stage1_steps=2, batch_size=4, warmup_steps=2,
                      seed=11, log_interval=1)
    a = run_toy(toy_data, cfg, toy_encoder_config)
    b = run_toy(toy_data, cfg, toy_encoder_config)
    assert a.log == b.log
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_training_split_over_two_threads_is_bit_identical(monkeypatch, toy_data, toy_encoder_config):
    # 256-element blocks cut the toy store into many blocks, some gathered
    # across parameters, and over the stage switch into runs of unequal t;
    # the parameters of 256 elements or more are queued during backward
    # from stage 2 on (stage 1 trains none that large)
    cfg = TrainConfig(total_steps=4, stage1_steps=2, batch_size=4, warmup_steps=1,
                      seed=17, log_interval=1)
    store = sum(p.data.size for p in init_model(toy_encoder_config, seed=cfg.seed).values())
    cpus = 2
    monkeypatch.setattr(pretrain, "_usable_cpus", lambda: cpus)
    elements = {}  # thread id -> elements it updated
    early = []  # (step index, elements) the worker updated before that step's `step` was entered
    steps = [0]  # `step` calls so far
    in_step = threading.Event()
    caller = threading.get_ident()
    real_update, real_step = AdamW._update, AdamW.step

    def update(self, block, scratch, lr):
        tid = threading.get_ident()
        n = block[1] - block[0]
        elements[tid] = elements.get(tid, 0) + n
        if tid != caller and not in_step.is_set():
            early.append((steps[0], n))
        real_update(self, block, scratch, lr)

    def step(self, lr, trainable=None):
        in_step.set()
        try:
            real_step(self, lr, trainable=trainable)
        finally:
            in_step.clear()
            steps[0] += 1

    monkeypatch.setattr(AdamW, "_update", update)
    monkeypatch.setattr(AdamW, "step", step)
    runs, seen = {}, {}
    switch = sys.getswitchinterval()
    for block, cpus in ((256, 2), (256, 1), (store, 2)):
        monkeypatch.setattr(pretrain, "ADAMW_BLOCK", block)
        elements.clear()
        early.clear()
        steps[0] = 0
        sys.setswitchinterval(1e-6)  # hand the GIL back and forth as often as possible
        try:
            runs[block, cpus] = run_toy(toy_data, cfg, toy_encoder_config)
        finally:
            sys.setswitchinterval(switch)
        seen[block, cpus] = dict(elements)
        if (block, cpus) == (256, 2):
            overlapped = list(early)
        else:
            assert not early
    # split and overlapped: the caller and the worker both updated, the worker
    # partly during backward; one CPU or one block: the caller alone
    assert len(seen[256, 2]) == 2 and all(seen[256, 2].values())
    assert overlapped
    assert list(seen[256, 1]) == list(seen[store, 2]) == [caller]
    assert sum(seen[256, 2].values()) == sum(seen[256, 1].values()) == sum(seen[store, 2].values())
    # the frozen stage-1 parameters are never queued during backward: the
    # worker starts early only in the backward of a stage-2 step (index 2 or 3)
    assert {i for i, _ in overlapped} <= {2, 3}
    inline = runs[store, 2]
    for key in ((256, 2), (256, 1)):
        assert runs[key].log == inline.log, key
        for name in inline.params:
            assert runs[key].params[name].data.tobytes() == inline.params[name].data.tobytes(), (key, name)


class SlowWorker:
    """The shared worker, each task delayed so that it is still running when
    the caller goes on; keeps every future it hands out and sets `started`
    once a task has begun."""

    def __init__(self, worker):
        self.worker, self.futures, self.started = worker, [], threading.Event()

    def submit(self, fn, *args):
        def slow():
            self.started.set()
            time.sleep(0.05)
            return fn(*args)

        self.futures.append(self.worker.submit(slow))
        return self.futures[-1]


def test_overlapped_step_whose_backward_raises_drains_the_worker(monkeypatch):
    monkeypatch.setattr(pretrain, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pretrain, "ADAMW_BLOCK", 8)
    worker = SlowWorker(pretrain._adamw_worker())
    monkeypatch.setattr(pretrain, "_adamw_worker", lambda: worker)
    rng = np.random.default_rng(4)
    init = {"w": rng.normal(size=(4, 8)), "u": rng.normal(size=16)}
    g1, g2 = {n: rng.normal(size=a.shape) for n, a in init.items()}, {n: rng.normal(size=a.shape)
                                                                       for n, a in init.items()}

    def run(overlapped):
        params = {n: T.parameter(a) for n, a in init.items()}
        opt = AdamW(params)
        w, u = params["w"], params["u"]
        if overlapped:
            # w's gradient is final before u's branch meets the NaN
            bad = T.constant(np.where(np.arange(16) == 3, np.nan, 1.0))
            loss = T.add(T.reduce_sum(T.mul(w, T.constant(g1["w"]))),
                         T.reduce_sum(T.mul(T.scale(u, 1.0), bad)))
            with np.errstate(invalid="ignore"), pytest.raises(ContractError, match="non-finite"):
                with opt.overlap(1e-2):
                    T.backward(loss)
            # w was handed off, and the worker is done before the error arrives
            assert worker.futures and all(f.done() for f in worker.futures)
            assert T._grad_ready_hook is None
        else:
            w.grad, u.grad = g1["w"], None
            opt.step(1e-2, trainable={"w"})
        after_first = {n: p.data.copy() for n, p in params.items()}
        for n, p in params.items():
            p.grad = g2[n]
        opt.step(1e-3)
        return after_first, {n: p.data.tobytes() for n, p in params.items()}, dict(opt.t)

    (first, final, t), (ref_first, ref_final, ref_t) = run(True), run(False)
    # w, handed off before backward raised, has stepped; u has not
    assert np.array_equal(first["w"], ref_first["w"]) and not np.array_equal(first["w"], init["w"])
    assert np.array_equal(first["u"], init["u"])
    # the following plain step steps both, from there, as it would have
    assert final == ref_final and t == ref_t == {"w": 2, "u": 1}


def test_step_takes_blocks_of_a_parameter_the_worker_has_started(monkeypatch):
    # w (4 blocks of 8) is handed off during backward; the worker's task has
    # begun but is still asleep when `step` starts, so the caller does not
    # wait on the whole parameter: it takes w's blocks from the queue itself
    monkeypatch.setattr(pretrain, "ADAMW_BLOCK", 8)
    worker = SlowWorker(pretrain._adamw_worker())
    monkeypatch.setattr(pretrain, "_adamw_worker", lambda: worker)
    rng = np.random.default_rng(6)
    init = {"w": rng.normal(size=(4, 8)), "u": rng.normal(size=5)}
    gw, gu = rng.normal(size=(4, 8)), rng.normal(size=5)
    caller = threading.get_ident()
    on_caller = []  # (blo, bhi) of the blocks the calling thread updated
    real_update = AdamW._update

    def update(self, block, scratch, lr):
        if threading.get_ident() == caller:
            on_caller.append(block[:2])
        real_update(self, block, scratch, lr)

    monkeypatch.setattr(AdamW, "_update", update)

    def run(cpus):
        monkeypatch.setattr(pretrain, "_usable_cpus", lambda: cpus)
        params = {n: T.parameter(a) for n, a in init.items()}
        w, u = params["w"], params["u"]
        opt = AdamW(params)
        loss = T.add(T.reduce_sum(T.mul(w, T.constant(gw))), T.reduce_sum(T.mul(u, T.constant(gu))))
        on_caller.clear()
        worker.started.clear()
        with opt.overlap(1e-2):
            T.backward(loss)
        if cpus == 2:
            assert worker.started.wait(5) and not worker.futures[-1].done()
        opt.step(1e-2)
        return {n: p.data.tobytes() for n, p in params.items()}, dict(opt.t), list(on_caller)

    (two, t2, caller_two), (one, t1, caller_one) = run(2), run(1)
    assert any(blo < 32 for blo, _ in caller_two)  # w spans store elements [0, 32)
    assert len(caller_one) == 5  # one CPU: w's 4 blocks and u's 1, all on the caller
    assert two == one and t2 == t1 == {"w": 1, "u": 1}


def test_overlap_arms_nothing_on_one_cpu_or_without_a_block_sized_parameter(monkeypatch):
    # the RaisingWorker would raise out of backward if a parameter were handed to it
    monkeypatch.setattr(pretrain, "_adamw_worker", RaisingWorker)
    for cpus, size in ((1, 2 * ADAMW_BLOCK), (2, ADAMW_BLOCK - 1)):
        monkeypatch.setattr(pretrain, "_usable_cpus", lambda: cpus)
        w = T.parameter(np.ones(size))
        opt = AdamW({"w": w})
        with opt.overlap(1e-3):
            assert T._grad_ready_hook is None
            T.backward(T.reduce_sum(T.mul(w, w)))
        assert opt.t == {} and np.all(w.data == 1.0)


def test_stage1_freezes_encoder_parameters(toy_data, toy_encoder_config):
    cfg = TrainConfig(total_steps=3, stage1_steps=3, batch_size=4, warmup_steps=1, seed=12)
    init = init_model(toy_encoder_config, seed=cfg.seed)
    before = {n: p.data.copy() for n, p in init.items()}
    result = run_toy(toy_data, cfg, toy_encoder_config)
    frozen = {n for n in before if not any(pat in n for pat in STAGE1_TRAINABLE)}
    assert frozen  # sanity: the selector leaves something frozen
    moved = 0
    for n in before:
        same = result.params[n].data.tobytes() == before[n].tobytes()
        if n in frozen:
            assert same, f"frozen parameter {n} changed during stage 1"
        elif not same:
            moved += 1
    assert moved > 0  # entity-side parameters did train


def test_stage2_updates_all_parameters(toy_data, toy_encoder_config):
    cfg = TrainConfig(total_steps=3, stage1_steps=0, batch_size=4, warmup_steps=1, seed=13)
    init = init_model(toy_encoder_config, seed=cfg.seed)
    before = {n: p.data.copy() for n, p in init.items()}
    result = run_toy(toy_data, cfg, toy_encoder_config)
    changed = [n for n in before
               if result.params[n].data.tobytes() != before[n].tobytes()]
    assert "word_emb" in changed
    assert any(n.startswith("layer0.attn") for n in changed)


def test_train_writes_log_and_checkpoint(tmp_path, toy_data, toy_encoder_config):
    cfg = TrainConfig(total_steps=4, stage1_steps=0, batch_size=2, warmup_steps=1,
                      seed=14, log_interval=2, checkpoint_interval=2)
    by_lang, wv, ev = toy_data
    result = train(toy_encoder_config, cfg, by_lang, wv, ev,
                   out_dir=str(tmp_path), log_file=str(tmp_path / "log.tsv"))
    assert (tmp_path / "checkpoint-2.bin").exists()
    assert (tmp_path / "checkpoint-final.bin").exists()
    lines = (tmp_path / "log.tsv").read_text().strip().splitlines()
    assert len(lines) == len(result.log)
    step, stage, lr, mlm, mep = lines[0].split("\t")
    assert int(step) == 0 and int(stage) == 2
    ckpt = load_checkpoint(result.final_checkpoint)
    assert ckpt.step == 4
    for name in result.params:
        assert np.array_equal(ckpt.params[name].data, result.params[name].data)


def test_train_samples_through_sequence_sampler(monkeypatch, toy_data, toy_encoder_config):
    cfg = TrainConfig(total_steps=3, stage1_steps=1, batch_size=4, warmup_steps=1, seed=15)
    by_lang, wv, ev = toy_data
    seen = []
    real_mask_batch = pretrain.mask_batch

    def recording_mask_batch(seq, *args, **kwargs):
        seen.append(seq)
        return real_mask_batch(seq, *args, **kwargs)

    monkeypatch.setattr(pretrain, "mask_batch", recording_mask_batch)
    train(toy_encoder_config, cfg, by_lang, wv, ev)
    sampler = SequenceSampler(by_lang, seed=cfg.seed)
    expected = [sampler.draw() for _ in range(cfg.total_steps * cfg.batch_size)]
    assert len(seen) == len(expected)
    assert all(a is b for a, b in zip(seen, expected))


def test_train_rejects_an_empty_corpus(toy_data, toy_encoder_config):
    by_lang, wv, ev = toy_data
    cfg = TrainConfig(total_steps=1, batch_size=2, warmup_steps=0)
    with pytest.raises(ContractError):
        train(toy_encoder_config, cfg, {lang: [] for lang in by_lang}, wv, ev)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -2), ("log_interval", -1), ("checkpoint_interval", -1),
    ("peak_lr", -1.0), ("stage1_peak_lr", -1e-3), ("warmup_steps", -1),
    ("peak_lr", math.nan), ("peak_lr", math.inf), ("stage1_peak_lr", math.nan), ("stage1_peak_lr", math.inf),
])
def test_train_config_rejects_invalid_settings(toy_data, toy_encoder_config, field, value):
    by_lang, wv, ev = toy_data
    cfg = TrainConfig(**{"total_steps": 1, "batch_size": 2, "warmup_steps": 0, field: value})
    with pytest.raises(ContractError, match=field):
        cfg.validate()
    with pytest.raises(ContractError, match=field):
        train(toy_encoder_config, cfg, by_lang, wv, ev)


def test_train_config_accepts_boundary_settings():
    TrainConfig(total_steps=1, batch_size=1, log_interval=0, checkpoint_interval=0, peak_lr=0.0,
                stage1_peak_lr=0.0, warmup_steps=0).validate()


def test_non_finite_loss_aborts_with_typed_error(monkeypatch, tmp_path, toy_data, toy_encoder_config):
    cfg = TrainConfig(total_steps=4, batch_size=2, warmup_steps=1, seed=16, checkpoint_interval=1)
    by_lang, wv, ev = toy_data
    params = init_model(toy_encoder_config, seed=cfg.seed)
    real_save = pretrain.save_checkpoint

    def save_then_poison(*args, **kwargs):
        real_save(*args, **kwargs)
        params["word_emb"].data[:] = np.nan  # the step after the first checkpoint diverges

    monkeypatch.setattr(pretrain, "save_checkpoint", save_then_poison)
    with pytest.raises(TrainingAborted) as info:
        train(toy_encoder_config, cfg, by_lang, wv, ev, params=params, out_dir=str(tmp_path))
    assert isinstance(info.value, EntlmError)
    assert info.value.last_checkpoint == str(tmp_path / "checkpoint-1.bin")
    assert load_checkpoint(info.value.last_checkpoint).step == 1
