"""Training schedule (plateau LR decay + early stopping), chunked inference, evaluation, config io."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .attention import FameConfig
from .encoders import HitEncoder
from .metrics import (
    BLEU_SMOOTHING,
    bleu,
    confusion_matrix,
    macro_prf,
    meteor_lite_corpus,
    rouge_l_corpus,
)
from .model import (
    ClassificationModel,
    Seq2SeqModel,
    TokenModel,
    ZslModel,
)
from .optim import adam_step, clip_gradients
from .tensor import backward, no_grad


@dataclass
class TrainConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 500
    batch_size: int = 32
    dropout: float = 0.2
    plateau_patience: int = 20
    plateau_factor: float = 0.7
    early_stop_patience: int = 100
    d_model: int = 128
    d_ff: int = 0  # 0 means 4 * d_model
    l_c: int = 1
    l_w: int = 2
    l_dec: int = 2
    n_heads: int = 4
    opa_score: str = "tanh"
    opa_combine: str = "true_outer_projected"
    seed: int = 0
    use_tfidf: bool = False
    max_len: int = 40
    max_word_len: int = 20
    clip_norm: float = 5.0
    layer_norm_eps: float = 1e-5
    zsl_temperature: float = 0.2
    lowercase: bool = True
    min_freq: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config field {f.name} must be finite, got {value}")
        positive = ["lr", "epochs", "batch_size", "plateau_patience", "early_stop_patience",
                    "d_model", "l_c", "l_w", "l_dec", "n_heads", "max_len", "max_word_len",
                    "zsl_temperature", "adam_eps", "layer_norm_eps"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"config field {name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError(f"plateau_factor must be in (0, 1), got {self.plateau_factor}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        FameConfig(self.d_model, self.n_heads, self.opa_score, self.opa_combine, self.max_len)

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff > 0 else 4 * self.d_model

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        """Each value has its field's type (an int passes for a float) or is a string of it."""
        if not isinstance(values, dict):
            raise ValueError(f"train config must be an object of config keys, "
                             f"got {type(values).__name__}")
        kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in values.items():
            if key not in kinds:
                raise ValueError(f"unknown config key {key!r}")
            kind = kinds[key]
            if type(raw) is kind or (kind is float and type(raw) is int):
                kwargs[key] = kind(raw)
            elif kind is bool and isinstance(raw, str) and raw.lower() in ("true", "false"):
                kwargs[key] = raw.lower() == "true"
            elif kind in (int, float) and isinstance(raw, str):
                try:
                    kwargs[key] = kind(raw)
                except ValueError:
                    pass
            if key not in kwargs:
                raise ValueError(f"config key {key!r} expects {kind.__name__}, got {raw!r}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        values = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        return cls.from_dict(values)


def seed_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent named generators derived from one seed, in a fixed order."""
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("init", "data", "shuffle", "dropout")
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


def build_encoder(cfg: TrainConfig, word_size: int, char_size: int,
                  rng: np.random.Generator) -> HitEncoder:
    fame_cfg = FameConfig(cfg.d_model, cfg.n_heads, cfg.opa_score, cfg.opa_combine, cfg.max_len)
    return HitEncoder(word_size, char_size, fame_cfg, cfg.l_c, cfg.l_w, cfg.ffn_dim,
                      cfg.dropout, cfg.max_word_len, rng, eps=cfg.layer_norm_eps)


def build_classifier(cfg, word_size, char_size, n_classes, rng, tfidf_dim=0):
    enc = build_encoder(cfg, word_size, char_size, rng)
    return ClassificationModel(enc, n_classes, rng, use_tfidf=cfg.use_tfidf, tfidf_dim=tfidf_dim)


def build_tagger(cfg, word_size, char_size, n_tags, rng):
    return TokenModel(build_encoder(cfg, word_size, char_size, rng), n_tags, rng)


def build_seq2seq(cfg, word_size, char_size, rng):
    enc = build_encoder(cfg, word_size, char_size, rng)
    return Seq2SeqModel(enc, word_size, cfg.l_dec, rng, dropout_rate=cfg.dropout, d_ff=cfg.ffn_dim)


def build_mlm(cfg, word_size, char_size, rng):
    return TokenModel(build_encoder(cfg, word_size, char_size, rng), word_size, rng)


def build_zsl(cfg, word_size, char_size, rng):
    return ZslModel(build_encoder(cfg, word_size, char_size, rng), temperature=cfg.zsl_temperature)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, value: float):
        super().__init__(f"training diverged at epoch {epoch}: loss {value}")
        self.epoch = epoch


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class TrainResult:
    history: list[EpochStats]
    best_epoch: int
    best_val_loss: float
    best_params: dict[str, np.ndarray]  # float32: the values a checkpoint of them stores
    stopped_early: bool = False
    hook_stopped: bool = False

    def history_dict(self) -> dict:
        return {
            "epochs": [s.to_dict() for s in self.history],
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "stopped_early": self.stopped_early,
        }


def _batches(order, batch_size):
    for i in range(0, len(order), batch_size):
        yield order[i:i + batch_size]


def eval_loss(model, items, batch_size: int = 32) -> float:
    chunks = list(_batches(items, batch_size))
    with no_grad():
        losses = [model.loss_batch(chunk, training=False).item() for chunk in chunks]
    return float(np.average(losses, weights=[len(chunk) for chunk in chunks]))


def _snapshot(model) -> dict[str, np.ndarray]:
    """The parameters as float32, the values `save_checkpoint` writes, at half the bytes."""
    return {p.name: p.data.astype(np.float32) for p in model.parameters()}


def train(model, train_items, val_items, config: TrainConfig,
          val_loss_fn=None, epoch_hook=None) -> TrainResult:
    """Mini-batch Adam with plateau LR decay and early stopping on validation loss.

    `val_loss_fn(model, epoch)` replaces the validation pass when given (used by
    schedule tests); `epoch_hook(model, epoch, stats)` may return True to stop.
    """
    train_items = list(train_items)
    if not train_items:
        raise ValueError("train: empty training set")
    val_items = list(val_items or [])
    if not val_items and val_loss_fn is None:
        raise ValueError("train: empty validation set")
    streams = seed_streams(config.seed)
    shuffle_rng, drop_rng = streams["shuffle"], streams["dropout"]
    params = model.trainable_parameters()
    lr = config.lr
    best_val = math.inf
    best_epoch = 0
    best_params = _snapshot(model)
    plateau_wait = 0
    since_best = 0
    history: list[EpochStats] = []
    stopped_early = False
    hook_stopped = False
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_items))
        batch_losses = []
        batch_sizes = []
        for chunk in _batches(order, config.batch_size):
            loss = model.loss_batch([train_items[i] for i in chunk], training=True, rng=drop_rng)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(epoch, value)
            backward(loss)
            if config.clip_norm > 0:
                clip_gradients(params, config.clip_norm)
            adam_step(params, lr, config.beta1, config.beta2, config.adam_eps)
            batch_losses.append(value)
            batch_sizes.append(len(chunk))
        train_loss = float(np.average(batch_losses, weights=batch_sizes))
        if val_loss_fn is not None:
            val_loss = float(val_loss_fn(model, epoch))
        else:
            val_loss = eval_loss(model, val_items, config.batch_size)
        if not math.isfinite(val_loss):
            raise TrainingDiverged(epoch, val_loss)
        stats = EpochStats(epoch, train_loss, val_loss, lr)
        history.append(stats)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = _snapshot(model)
            plateau_wait = 0
            since_best = 0
        else:
            plateau_wait += 1
            since_best += 1
            if plateau_wait >= config.plateau_patience:
                lr *= config.plateau_factor
                plateau_wait = 0
        if epoch_hook is not None and epoch_hook(model, epoch, stats):
            hook_stopped = True
            break
        if since_best >= config.early_stop_patience:
            stopped_early = True
            break
    return TrainResult(history, best_epoch, best_val, best_params,
                       stopped_early=stopped_early, hook_stopped=hook_stopped)


# ---------------------------------------------------------------------------
# inference and evaluation drivers


def infer(step, examples, batch_size: int) -> list:
    """`step(chunk)`'s per-example outputs over `examples` in chunks of `batch_size`."""
    return [out for chunk in _batches(examples, batch_size) for out in step(chunk)]


def generate(model: Seq2SeqModel, examples, vocab) -> list:
    """Each example's greedy continuation: (tokens, the probability of each)."""
    return [(vocab.decode(ids), probs)
            for ids, probs in (model.greedy_decode(ex, return_probs=True) for ex in examples)]


def _label_metrics(golds, preds, names, task: str, accuracy_key: str) -> dict:
    """Macro P/R/F1, accuracy and confusion of gold against predicted label indices."""
    p, r, f1 = macro_prf(golds, preds, len(names))
    cm = confusion_matrix(golds, preds, len(names))
    return {
        "task": task,
        "macro_precision": p,
        "macro_recall": r,
        "macro_f1": f1,
        accuracy_key: float(np.mean(np.array(golds) == np.array(preds))),
        "confusion": cm.tolist(),
        "labels": list(names),
    }


def evaluate_classification(model: ClassificationModel, examples, label_names, batch_size: int):
    golds, preds, rows = [], [], []
    for ex, probs in zip(examples, infer(model.predict_probs, examples, batch_size)):
        pred = int(np.argmax(probs))
        golds.append(int(ex.target))
        preds.append(pred)
        rows.append({"id": ex.guid, "label": label_names[pred],
                     "probs": {label_names[c]: float(probs[c]) for c in range(len(label_names))}})
    return _label_metrics(golds, preds, label_names, "classification", "accuracy"), rows


def evaluate_labeling(model: TokenModel, examples, tag_names, batch_size: int):
    golds, preds, rows = [], [], []
    for ex, dist in zip(examples, infer(model.predict_probs, examples, batch_size)):
        pred = [int(i) for i in dist.argmax(axis=1)]
        gold = [int(t) for t in ex.target]
        golds.extend(gold)
        preds.extend(pred)
        rows.append({"id": ex.guid, "tags": [tag_names[t] for t in pred],
                     "probs": [round(float(dist[i, t]), 6) for i, t in enumerate(pred)]})
    return _label_metrics(golds, preds, tag_names, "labeling", "token_accuracy"), rows


def evaluate_generation(model: Seq2SeqModel, examples, vocab):
    candidates, references, rows = [], [], []
    for ex, (cand, out_probs) in zip(examples, generate(model, examples, vocab)):
        ref = vocab.decode(ex.target[1:-1])  # targets are [CLS] ... [EOS]
        candidates.append(cand)
        references.append(ref)
        rows.append({"id": ex.guid, "tokens": cand,
                     "probs": [round(p, 6) for p in out_probs]})
    refs_safe = [r if r else ["[EOS]"] for r in references]
    metrics = {
        "task": "generation",
        "bleu": bleu(candidates, refs_safe),
        "rouge_l": rouge_l_corpus(candidates, references),
        "meteor_lite": meteor_lite_corpus(candidates, references),
        "exact_match": float(np.mean([c == r for c, r in zip(candidates, references)])),
        "bleu_smoothing": BLEU_SMOOTHING,
    }
    return metrics, rows
