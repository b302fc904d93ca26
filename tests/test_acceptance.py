"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from hitkit import data as D
from hitkit import metrics as M
from hitkit import tensor as T
from hitkit.attention import FameConfig, FameLayer, fame_forward, msa_forward, opa_forward
from hitkit.cli import main as cli_main
from hitkit.encoders import EncoderLayer
from hitkit.checkpoint import load_checkpoint, save_checkpoint
from hitkit.pretrain import mask_tokens, transfer_load, zsl_build_pairs
from hitkit.train import (
    TrainConfig,
    build_classifier,
    build_mlm,
    build_seq2seq,
    build_tagger,
    build_zsl,
    seed_streams,
    train,
)

from hitkit import synth as toydata
from helpers import check_gradients
from oracles import layer_arrays, msa_oracle, opa_oracle


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n{label}: FAIL")
                raise
            print(f"\n{label}: PASS")
        return wrapper
    return deco


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def encode_items(records, vocab, max_len=12, max_word_len=10):
    return [D.encode_example(t, vocab, target=l, max_len=max_len, max_word_len=max_word_len)
            for t, l in records]


def a5_config(seed=0, **kw):
    base = dict(d_model=32, n_heads=4, l_c=1, l_w=1, dropout=0.2, epochs=300,
                batch_size=32, max_len=12, max_word_len=10, seed=seed)
    base.update(kw)
    return TrainConfig(**base)


def train_classifier_to_target(records, vocab, cfg, init_from=None):
    model = build_classifier(cfg, vocab.word_size, vocab.char_size, 2,
                             seed_streams(cfg.seed)["init"])
    if init_from is not None:
        transfer_load(model, load_checkpoint(init_from), "finetune")
    items = encode_items(records, vocab)

    def accuracy(m):
        return np.mean(m.predict_probs(items).argmax(axis=1) == [ex.target for ex in items])

    reached = {"epoch": None}

    def hook(m, epoch, stats):
        if accuracy(m) == 1.0:
            reached["epoch"] = epoch
            return True
        return False

    train(model, items, items, cfg, epoch_hook=hook)
    return model, items, reached["epoch"], accuracy(model)


@pytest.fixture(scope="module")
def a5_run():
    records = toydata.classification_records(32, seed=0)
    vocab = D.build_vocab([t for t, _ in records])
    start = time.monotonic()
    model, items, epoch, accuracy = train_classifier_to_target(records, vocab, a5_config())
    elapsed = time.monotonic() - start
    return {"model": model, "vocab": vocab, "items": items, "epoch": epoch,
            "accuracy": accuracy, "elapsed": elapsed}


@criterion("A1 gradient integrity")
def test_a1_gradient_integrity():
    start = time.monotonic()

    x = T.Tensor(rand((3, 4), 1), requires_grad=True)
    y = T.Tensor(rand((3, 4), 2), requires_grad=True)
    w = T.Tensor(rand((4, 3), 3), requires_grad=True)
    v1 = T.Tensor(rand((4,), 4), requires_grad=True)
    v2 = T.Tensor(rand((4,), 5), requires_grad=True)
    pos = T.Tensor(np.abs(rand((3, 4), 6)) + 0.5, requires_grad=True)
    gamma = T.Tensor(np.ones(4) * 1.1, requires_grad=True)
    beta = T.Tensor(rand((4,), 7), requires_grad=True)
    table = T.Tensor(rand((6, 4), 8), requires_grad=True)
    probe = T.Tensor(rand((3, 4), 9))

    cases = {
        "matmul": (lambda: T.sum_all(T.matmul(x, w)), [x, w]),
        "add": (lambda: T.sum_all(T.add(x, y)), [x, y]),
        "sub": (lambda: T.sum_all(T.sub(x, y)), [x, y]),
        "mul": (lambda: T.sum_all(T.mul(x, y)), [x, y]),
        "div": (lambda: T.sum_all(T.div(x, pos)), [x, pos]),
        "scale": (lambda: T.sum_all(T.scale(x, 1.7)), [x]),
        "tanh": (lambda: T.sum_all(T.tanh(x)), [x]),
        "relu": (lambda: T.sum_all(T.relu(x)), [x]),
        "sigmoid": (lambda: T.sum_all(T.sigmoid(x)), [x]),
        "exp": (lambda: T.sum_all(T.exp(x)), [x]),
        "log": (lambda: T.sum_all(T.log(pos)), [pos]),
        "sqrt": (lambda: T.sum_all(T.sqrt(pos)), [pos]),
        "softmax": (lambda: T.sum_all(T.mul(T.softmax(x, axis=-1), probe)), [x]),
        "outer_product": (lambda: T.sum_all(T.mul(T.outer_product(v1, v2),
                                                  T.Tensor(rand((4, 4), 10)))), [v1, v2]),
        "layer_norm": (lambda: T.sum_all(T.mul(T.layer_norm(x, gamma, beta), probe)),
                       [x, gamma, beta]),
        "embedding_lookup": (lambda: T.sum_all(T.tanh(T.embedding_lookup(table, [0, 2, 2]))),
                             [table]),
        "cross_entropy": (lambda: T.cross_entropy(x, [0, 3, -1], ignore_index=-1), [x]),
        "dropout": (lambda: T.sum_all(T.dropout(x, 0.3, True, np.random.default_rng(0))), [x]),
        "add_bias": (lambda: T.sum_all(T.tanh(T.add_bias(x, v1))), [x, v1]),
        "mean_rows": (lambda: T.sum_all(T.tanh(T.mean_rows(x))), [x]),
        "concat_slice": (lambda: T.sum_all(T.tanh(T.concat_cols(
            [T.slice_cols(x, 0, 1), T.slice_cols(x, 1, 4)]))), [x]),
        "stack_rows": (lambda: T.sum_all(T.tanh(T.stack_rows([v1, v2]))), [v1, v2]),
        "pairwise_opa": (lambda: T.sum_all(T.tanh(T.opa_sum_outer(
            [T.tanh(T.pairwise_hadamard(T.reshape(x, (1, 3, 4)), T.reshape(y, (1, 3, 4))))],
            [T.reshape(x, (1, 3, 4))]))), [x, y]),
        "gate": (lambda: T.sum_all(T.scalar_mul(T.get_element(T.softmax(v1), 0), x)), [v1, x]),
        "cosine": (lambda: T.cosine_similarity(v1, v2), [v1, v2]),
    }
    for name, (loss, leaves) in cases.items():
        check_gradients(loss, leaves)

    fame = FameLayer(FameConfig(d_model=4, n_heads=2, max_len=8), np.random.default_rng(11))
    fx = T.Tensor(rand((3, 4), 12), requires_grad=True)
    check_gradients(lambda: T.sum_all(T.mul(fame_forward(fame, fx), probe)),
                    [fx] + fame.parameters())

    enc = EncoderLayer(FameConfig(d_model=4, n_heads=2, max_len=8), 8, 0.0,
                       np.random.default_rng(13), "enc")
    ex = T.Tensor(rand((3, 4), 14), requires_grad=True)
    check_gradients(lambda: T.sum_all(T.mul(enc.forward(ex), probe)),
                    [ex] + enc.parameters())

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


@criterion("A2 attention oracles")
def test_a2_attention_oracles():
    seed = 0
    for score in ("tanh", "softmax"):
        for combine in ("true_outer_projected", "hadamard"):
            for d in (2, 4):
                for n in (1, 2, 3):
                    seed += 1
                    heads = 1 if d == 2 else 2
                    cfg = FameConfig(d_model=d, n_heads=heads, opa_score=score,
                                     opa_combine=combine, max_len=8)
                    layer = FameLayer(cfg, np.random.default_rng(seed))
                    x = rand((n, d), seed + 1000)
                    la = layer_arrays(layer)
                    got_msa = msa_forward(layer, T.Tensor(x)).data
                    want_msa = msa_oracle(x, la["wq_self"], la["wk_self"], la["wv_self"],
                                          la["wo_self"], heads)
                    assert np.max(np.abs(got_msa - want_msa)) < 1e-10
                    got_opa = opa_forward(layer, T.Tensor(x)).data
                    want_opa = opa_oracle(x, la["wq_outer"], la["wk_outer"], la["wv_outer"],
                                          la["wo_outer"], score, combine)
                    assert np.max(np.abs(got_opa - want_opa)) < 1e-10


@criterion("A3 fusion reductions")
def test_a3_fusion_reductions():
    layer = FameLayer(FameConfig(d_model=4, n_heads=2, max_len=8), np.random.default_rng(21))
    x = T.Tensor(rand((3, 4), 22))
    layer.fusion_logits.assign([40.0, -40.0])
    assert np.max(np.abs(fame_forward(layer, x).data - msa_forward(layer, x).data)) < 1e-5
    layer.fusion_logits.assign([-40.0, 40.0])
    assert np.max(np.abs(fame_forward(layer, x).data - opa_forward(layer, x).data)) < 1e-5
    rng = np.random.default_rng(23)
    for _ in range(1000):
        layer.fusion_logits.assign(rng.normal(0.0, 3.0, size=2))
        a1, a2 = layer.fusion_weights()
        assert abs(a1 + a2 - 1.0) < 1e-9


@criterion("A4 masking statistics")
def test_a4_masking_statistics():
    vocab = D.build_vocab([[f"tok{i}" for i in range(50)]])
    rng = np.random.default_rng(31)
    eligible = selected = 0
    actions = {"mask": 0, "random": 0, "keep": 0}
    while eligible < 100_000:
        ids = [D.CLS_ID] + [int(rng.integers(5, vocab.word_size)) for _ in range(50)] + [D.EOS_ID]
        _, _, plan = mask_tokens(ids, vocab, rng)
        eligible += 50
        selected += len(plan.positions)
        for a in plan.actions:
            actions[a] += 1
    assert abs(selected / eligible - 0.15) < 0.01
    assert abs(actions["mask"] / selected - 0.80) < 0.02
    assert abs(actions["random"] / selected - 0.10) < 0.02
    assert abs(actions["keep"] / selected - 0.10) < 0.02


@criterion("A5 classification overfit")
def test_a5_classification_overfit(a5_run):
    assert a5_run["accuracy"] == 1.0
    assert a5_run["epoch"] is not None and a5_run["epoch"] <= 300
    assert a5_run["elapsed"] < 300.0
    from hitkit.train import evaluate_classification
    metrics, _ = evaluate_classification(a5_run["model"], a5_run["items"], ["0", "1"],
                                         batch_size=32)
    assert metrics["macro_f1"] == 1.0  # memorized train set scores perfectly


@criterion("A5b near-spelling similarity")
def test_a5b_near_spelling_similarity(a5_run):
    model, vocab = a5_run["model"], a5_run["vocab"]

    def char_vec(word):
        with T.no_grad():
            return model.encoder.char_hit.encode_word(vocab.char_ids(word, 10)).data

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    near = cos(char_vec("thnks"), char_vec("thanks"))
    # expected similarity of a random pair, computed exactly over the task vocabulary
    words = [w for w in toydata.FILLERS + toydata.MARKERS if w not in ("thanks", "thnks")]
    vecs = [char_vec(w) for w in words]
    randoms = [cos(vecs[i], vecs[j]) for i in range(len(vecs)) for j in range(i + 1, len(vecs))]
    assert near > np.mean(randoms)


@criterion("A6 labeling overfit")
def test_a6_labeling_overfit():
    records = toydata.labeling_records(24, seed=7)
    vocab = D.build_vocab([t for t, _ in records])
    cfg = a5_config(dropout=0.1)
    model = build_tagger(cfg, vocab.word_size, vocab.char_size, 2, seed_streams(0)["init"])
    items = encode_items(records, vocab)

    def token_accuracy(m):
        good = total = 0
        for ex, probs in zip(items, m.predict_probs(items)):
            pred = probs.argmax(axis=1)
            good += sum(int(p == g) for p, g in zip(pred, ex.target))
            total += len(ex.target)
        return good / total

    reached = {"epoch": None}

    def hook(m, epoch, stats):
        if token_accuracy(m) == 1.0:
            reached["epoch"] = epoch
            return True
        return False

    train(model, items, items, cfg, epoch_hook=hook)
    assert token_accuracy(model) == 1.0
    assert reached["epoch"] is not None and reached["epoch"] <= 300


@criterion("A7 generation copy task")
def test_a7_generation_copy_task():
    start = time.monotonic()
    sequences = toydata.copy_sequences(200, vocab_size=20, max_len=6, seed=1)
    vocab = D.build_vocab([["[CLS]", "[EOS]"] + [f"t{i}" for i in range(20)]])
    cfg = TrainConfig(d_model=32, n_heads=4, l_c=1, l_w=1, l_dec=2, dropout=0.1,
                      epochs=150, batch_size=32, max_len=10, max_word_len=6, seed=0,
                      early_stop_patience=150)
    model = build_seq2seq(cfg, vocab.word_size, vocab.char_size, seed_streams(0)["init"])
    items = []
    for i, seq in enumerate(sequences):
        tokens = ["[CLS]"] + seq + ["[EOS]"]
        ex = D.encode_example(tokens, vocab, max_len=10, max_word_len=6, guid=i)
        ex.target = [vocab.word_id(t) for t in tokens]
        items.append(ex)

    def exact_match(m):
        return np.mean([m.greedy_decode(ex) == ex.target[1:-1] for ex in items])

    def hook(m, epoch, stats):
        if epoch >= 20 and epoch % 5 == 0:
            return exact_match(m) >= 0.9
        return time.monotonic() - start > 840  # leave slack under the 15 min cap

    train(model, items, items, cfg, epoch_hook=hook)
    score = exact_match(model)
    elapsed = time.monotonic() - start
    assert score >= 0.9, f"exact match {score:.2f}"
    assert elapsed < 900.0, f"copy task took {elapsed:.0f}s"


@criterion("A8 pretraining non-regression")
def test_a8_pretraining_non_regression(tmp_path, a5_run):
    vocab_corpus = toydata.mlm_corpus(150, seed=1)
    records = toydata.classification_records(32, seed=0)
    vocab = D.build_vocab([t for t, _ in records] + vocab_corpus)

    mlm_cfg = a5_config(seed=100, epochs=30)
    mlm = build_mlm(mlm_cfg, vocab.word_size, vocab.char_size, seed_streams(100)["init"])
    mask_rng = np.random.default_rng(42)
    mlm_items = []
    for i, toks in enumerate(vocab_corpus):
        ids = [D.CLS_ID] + [vocab.word_id(t) for t in toks] + [D.EOS_ID]
        inputs, targets, _ = mask_tokens(ids, vocab, mask_rng)
        if all(t == -1 for t in targets):
            continue
        chars = [vocab.char_ids(t, 10) for t in (["[CLS]"] + toks + ["[EOS]"])]
        mlm_items.append(D.EncodedExample(inputs, chars, target=targets, guid=i))
    train(mlm, mlm_items, mlm_items, mlm_cfg)
    ckpt = tmp_path / "mlm_ckpt"
    save_checkpoint(ckpt, mlm.parameter_arrays(), {"task": "mlm"})

    random_epochs, pretrained_epochs = [], []
    for seed in (1, 2, 3):
        cfg = a5_config(seed=seed)
        _, _, e_rand, acc_rand = train_classifier_to_target(records, vocab, cfg)
        _, _, e_pre, acc_pre = train_classifier_to_target(records, vocab, cfg, init_from=ckpt)
        assert acc_rand == 1.0 and acc_pre == 1.0
        random_epochs.append(e_rand)
        pretrained_epochs.append(e_pre)
    assert np.mean(pretrained_epochs) <= np.mean(random_epochs), (
        f"pretrained {pretrained_epochs} vs random {random_epochs}")


@criterion("A9 zero-shot entailment")
def test_a9_zero_shot_entailment():
    train_texts = toydata.zsl_texts(40, seed=0)
    held_texts = toydata.zsl_texts(25, seed=99)  # 100 held-out templated texts
    label_tokens = {name: name.split() for name in toydata.ZSL_LABELS}
    vocab = D.build_vocab([t for t, _ in train_texts] + list(label_tokens.values()))
    cfg = TrainConfig(d_model=32, n_heads=4, l_c=1, l_w=1, dropout=0.0, epochs=150,
                      batch_size=32, max_len=12, max_word_len=10, seed=0, lr=0.001,
                      plateau_patience=150, early_stop_patience=150)
    model = build_zsl(cfg, vocab.word_size, vocab.char_size, seed_streams(0)["init"])

    def enc(tokens):
        return D.encode_example(tokens, vocab, max_len=12, max_word_len=10)

    label_examples = [enc(label_tokens[name]) for name in toydata.ZSL_LABELS]
    dataset = [(enc(t), l) for t, l in train_texts]
    pairs = zsl_build_pairs(dataset, toydata.ZSL_LABELS, seed_streams(0)["data"])
    items = [(p.item, label_examples[toydata.ZSL_LABELS.index(p.label)],
              p.polarity == "entail") for p in pairs]

    def held_accuracy(m):
        preds = m.classify([enc(t) for t, _ in held_texts], label_examples)
        return np.mean([int(p == l) for p, (_, l) in zip(preds, held_texts)])

    def hook(m, epoch, stats):
        return epoch % 10 == 0 and held_accuracy(m) >= 0.85

    train(model, items, items, cfg, epoch_hook=hook)
    score = held_accuracy(model)
    for text, _ in held_texts[:5]:
        with T.no_grad():
            s = T.cosine_similarity(model.embed(enc(text)), model.embed(label_examples[0])).item()
        assert -1.0 <= s <= 1.0
    assert score >= 0.80, f"zero-shot accuracy {score:.2f}"


@criterion("A10 metric known values")
def test_a10_metric_known_values():
    sent = "the quick brown fox".split()
    assert abs(M.bleu([sent], [sent]) - 100.0) < 1e-9
    assert M.rouge_l(sent, sent) == 1.0
    _, _, f1 = M.macro_prf([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert abs(f1 - 0.7333) < 1e-4
    assert abs(M.pearson([1, 2, 3], [1, 2, 4]) - 0.9820) < 1e-3
    rng = np.random.default_rng(51)
    a = rng.standard_normal((20, 2)) * 0.01
    b = rng.standard_normal((20, 2)) * 0.01 + np.array([2.0, 0.0])  # separation ratio ~100
    pts = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    sil, db = M.cluster_quality(pts, labels)
    assert sil >= 0.95
    assert db <= 0.05


@criterion("A11 schedule conformance")
def test_a11_schedule_conformance():
    records = toydata.classification_records(4, seed=2)
    vocab = D.build_vocab([t for t, _ in records])
    cfg = TrainConfig(d_model=8, n_heads=2, l_c=1, l_w=1, dropout=0.0, epochs=200,
                      batch_size=4, max_len=12, max_word_len=10, seed=0, lr=0.001,
                      plateau_patience=20, plateau_factor=0.7, early_stop_patience=100)
    model = build_classifier(cfg, vocab.word_size, vocab.char_size, 2,
                             seed_streams(0)["init"])
    items = encode_items(records, vocab)
    result = train(model, items, None, cfg, val_loss_fn=lambda m, e: 1.0)
    assert result.best_epoch == 1
    assert len(result.history) == 101  # stops exactly 100 epochs after the best
    assert result.stopped_early
    # triggers fire after epochs 21, 41, 61, 81; the k-th trigger leaves lr = 0.001 * 0.7^k
    lr_by_epoch = {s.epoch: s.lr for s in result.history}
    assert lr_by_epoch[21] == pytest.approx(0.001)
    for k, first_epoch in enumerate([22, 42, 62, 82], start=1):
        assert lr_by_epoch[first_epoch] == pytest.approx(0.001 * 0.7 ** k)
        assert lr_by_epoch[first_epoch + 19] == pytest.approx(0.001 * 0.7 ** k)
    assert lr_by_epoch[101] == pytest.approx(0.001 * 0.7 ** 4)


@criterion("A12 whole-pipeline determinism")
def test_a12_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TrainConfig(d_model=8, n_heads=2, l_c=1, l_w=1, l_dec=1, dropout=0.2,
                                    epochs=3, batch_size=8, max_len=12, max_word_len=8,
                                    plateau_patience=3, early_stop_patience=3,
                                    seed=7).to_text(), encoding="utf-8")
    rows = [{"text": " ".join(t), "label": str(l)}
            for t, l in toydata.classification_records(14, seed=3)]
    data = tmp_path / "train.jsonl"
    data.write_text("\n".join(json.dumps(r) for r in rows))

    def run(tag):
        out = tmp_path / tag
        code = cli_main(["train", "--task", "classification", "--train-file", str(data),
                         "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 0
        return out

    a, b = run("a"), run("b")
    assert (a / "checkpoint").read_bytes() == (b / "checkpoint").read_bytes()
    assert (a / "history.json").read_bytes() == (b / "history.json").read_bytes()
    ma = json.loads((a / "metrics.json").read_text())
    mb = json.loads((b / "metrics.json").read_text())
    ma.pop("timestamp")
    mb.pop("timestamp")
    assert json.dumps(ma, sort_keys=True) == json.dumps(mb, sort_keys=True)
