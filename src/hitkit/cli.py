"""Command-line surface: train, evaluate, pretrain-mlm, pretrain-zsl, embed,
generate, analyze-embeddings.

Every subcommand accepts --config, --seed, and --out-dir. The HITKIT_SEED
environment variable overrides the config seed. Exit status is 0 on success
and nonzero with a one-line diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import features as F
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import cluster_quality, kmeans
from .model import Seq2SeqModel
from .pretrain import build_mlm_dataset, transfer_load, zsl_build_pairs
from .tensor import no_grad
from .train import (
    TrainConfig,
    build_classifier,
    build_mlm,
    build_seq2seq,
    build_tagger,
    build_zsl,
    evaluate_classification,
    evaluate_generation,
    evaluate_labeling,
    generate,
    infer,
    seed_streams,
    train,
)


log = logging.getLogger(__name__)


class CliError(RuntimeError):
    pass


def _load_config(args) -> TrainConfig:
    if args.config:
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}")
        cfg = TrainConfig.from_file(args.config)
    else:
        cfg = TrainConfig()
    env_seed = os.environ.get("HITKIT_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError:
            raise CliError(f"HITKIT_SEED must be an integer, got {env_seed!r}") from None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_metrics(path: Path, metrics: dict, cfg: TrainConfig) -> None:
    _write_json(path, {**metrics, "config_fingerprint": cfg.fingerprint(),
                       "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")})


def _write_predictions(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _index_of(index: dict, name: str, kind: str, source: str, record: int) -> int:
    if name not in index:
        raise D.DataError(f"{source}: record {record + 1}: {kind} {name!r} "
                          "was not seen in training")
    return index[name]


def _wrap(body, max_len: int) -> list[str]:
    """[CLS] body [EOS], with the body cut so that the whole fits in max_len tokens."""
    return ["[CLS]"] + list(body)[:max(max_len - 2, 0)] + ["[EOS]"]


def _example(tokens, vocab, cfg, **kw) -> D.EncodedExample:
    return D.encode_example(tokens, vocab, max_len=cfg.max_len, max_word_len=cfg.max_word_len, **kw)


@dataclass
class Artefacts:
    """What a task fits from its training data; its checkpoint keeps them under extras/."""

    vocab: D.Vocab
    labels: list | None = None  # label or tag names, in the order of the head's outputs
    tfidf: F.TfidfVocab | None = None

    def to_extras(self) -> dict:
        extras = {"vocab.tsv": self.vocab.to_text()}
        if self.labels is not None:
            extras["labels.json"] = json.dumps(self.labels)
        if self.tfidf is not None:
            extras["tfidf_vocab.txt"] = F.tfidf_to_text(self.tfidf)
        return extras

    @classmethod
    def from_extras(cls, extras: dict) -> "Artefacts":
        labels = json.loads(extras["labels.json"]) if "labels.json" in extras else None
        if labels is not None and not (isinstance(labels, list)
                                       and all(isinstance(name, str) for name in labels)):
            raise ValueError(f"labels.json is not a list of strings: {json.dumps(labels)[:60]}")
        return cls(D.Vocab.from_text(extras["vocab.tsv"]), labels,
                   F.tfidf_from_text(extras["tfidf_vocab.txt"])
                   if "tfidf_vocab.txt" in extras else None)


def _fit_classification(records, cfg):
    token_lists = [t for t in (D.preprocess_text(r["text"], cfg.lowercase) for r in records) if t]
    vocab = D.build_vocab(token_lists, cfg.min_freq)
    tfidf = F.tfidf_fit(token_lists) if cfg.use_tfidf else None
    if tfidf is not None and tfidf.dim == 0:
        raise CliError("use_tfidf is on but no n-gram survives the document-frequency "
                       "bounds; the corpus is too small or too uniform")
    return Artefacts(vocab, sorted({str(r["label"]) for r in records}), tfidf)


def _encode_classification(records, arts, cfg, source):
    """`source` names where the records came from, for the unseen-label error."""
    label_index = {name: i for i, name in enumerate(arts.labels)}
    examples = []
    for i, rec in enumerate(records):
        tokens = D.preprocess_text(rec["text"], cfg.lowercase)
        if not tokens:
            continue
        target = _index_of(label_index, str(rec["label"]), "label", source, i)
        ex = _example(tokens, arts.vocab, cfg, target=target, guid=i)
        if arts.tfidf is not None:
            ex.features = F.tfidf_transform(arts.tfidf, tokens[:cfg.max_len])
        examples.append(ex)
    return examples


def _fit_labeling(records, cfg):
    token_lists = [[t.lower() if cfg.lowercase else t for t in r["tokens"]] for r in records]
    return Artefacts(D.build_vocab([t for t in token_lists if t], cfg.min_freq),
                     sorted({t for r in records for t in r["tags"]}))


def _encode_labeling(records, arts, cfg, source):
    tag_index = {name: i for i, name in enumerate(arts.labels)}
    examples = []
    for i, rec in enumerate(records):
        tokens = [t.lower() if cfg.lowercase else t for t in rec["tokens"]][:cfg.max_len]
        if not tokens:
            continue
        target = [_index_of(tag_index, t, "tag", source, i) for t in rec["tags"][:len(tokens)]]
        examples.append(_example(tokens, arts.vocab, cfg, target=target, guid=i))
    return examples


def _encode_generation(pairs, vocab, cfg):
    examples = []
    for i, (src_tokens, tgt_tokens) in enumerate(pairs):
        ex = _example(src_tokens, vocab, cfg, guid=i)
        ex.target = [vocab.word_id(t) for t in _wrap(tgt_tokens[1:-1], cfg.max_len)]
        examples.append(ex)
    return examples


def _generation_pairs(records, cfg, dialog: bool):
    pairs = []
    if dialog:
        for rec in records:
            pairs.extend(D.dialog_to_generation(rec, cfg.max_len, cfg.lowercase))
    else:
        for rec in records:
            pairs.append((_wrap(D.preprocess_text(rec["source"], cfg.lowercase), cfg.max_len),
                          _wrap(D.preprocess_text(rec["target"], cfg.lowercase), cfg.max_len)))
    # empty-history sources ([CLS] [EOS]) are legitimate; empty targets are not
    return [(s, t) for s, t in pairs if len(t) > 2]


@dataclass(frozen=True)
class Task:
    """How the CLI runs one checkpoint task; pretraining tasks set only `build`."""

    build: Callable  # (cfg, artefacts, rng) -> model; with rng None its values are unfilled
    labeled: bool = False  # the head has one output per name in artefacts.labels
    records: Callable | None = None  # (loaded records, cfg, dialog) -> the task's records
    fit: Callable | None = None  # (task records, cfg) -> Artefacts
    encode: Callable | None = None  # (task records, artefacts, cfg, source) -> items
    evaluate: Callable | None = None  # (model, items, artefacts, cfg) -> (metrics, prediction rows)


TASKS = {
    "classification": Task(
        build=lambda cfg, a, rng: build_classifier(cfg, a.vocab.word_size, a.vocab.char_size,
                                                   len(a.labels), rng,
                                                   tfidf_dim=a.tfidf.dim if a.tfidf else 0),
        labeled=True,
        records=lambda rs, cfg, dialog: [D.dialog_to_classification(r) for r in rs] if dialog else rs,
        fit=_fit_classification, encode=_encode_classification,
        evaluate=lambda model, items, a, cfg: evaluate_classification(model, items, a.labels,
                                                                      cfg.batch_size)),
    "labeling": Task(
        build=lambda cfg, a, rng: build_tagger(cfg, a.vocab.word_size, a.vocab.char_size,
                                               len(a.labels), rng),
        labeled=True,
        records=lambda rs, cfg, dialog: ([D.dialog_to_labeling(r, cfg.lowercase) for r in rs]
                                         if dialog else rs),
        fit=_fit_labeling, encode=_encode_labeling,
        evaluate=lambda model, items, a, cfg: evaluate_labeling(model, items, a.labels,
                                                                cfg.batch_size)),
    "generation": Task(
        build=lambda cfg, a, rng: build_seq2seq(cfg, a.vocab.word_size, a.vocab.char_size, rng),
        records=_generation_pairs,
        fit=lambda pairs, cfg: Artefacts(D.build_vocab([t for pair in pairs for t in pair],
                                                       cfg.min_freq)),
        encode=lambda pairs, a, cfg, source: _encode_generation(pairs, a.vocab, cfg),
        evaluate=lambda model, items, a, cfg: evaluate_generation(model, items, a.vocab)),
    "mlm": Task(build=lambda cfg, a, rng: build_mlm(cfg, a.vocab.word_size, a.vocab.char_size, rng)),
    "zsl": Task(build=lambda cfg, a, rng: build_zsl(cfg, a.vocab.word_size, a.vocab.char_size, rng)),
}


def _encode(task: Task, records, arts, cfg, source):
    """The task's items for `records`; a source with no usable record is an error."""
    items = task.encode(records, arts, cfg, source)
    if not items:
        raise CliError(f"{source} has no usable record")
    if len(items) < len(records):
        log.warning("skipped %d records that were empty after preprocessing", len(records) - len(items))
    return items


def _read_checkpoint(checkpoint_path):
    if not os.path.exists(checkpoint_path):
        raise CliError(f"checkpoint not found: {checkpoint_path}")
    return load_checkpoint(checkpoint_path)


def _artefacts(checkpoint_path, extras: dict) -> Artefacts:
    """The artefacts a checkpoint's extras hold; a malformed member names the checkpoint."""
    try:
        return Artefacts.from_extras(extras)
    except ValueError as exc:
        raise CliError(f"checkpoint {checkpoint_path} has malformed extras: {exc}") from None


def _restore(checkpoint_path):
    """Rebuild the task model a checkpoint was saved from; it must hold every parameter, as shaped."""
    ckpt = _read_checkpoint(checkpoint_path)
    missing = ([key for key in ("task", "train_config") if key not in ckpt.config]
               + [key for key in ("vocab.tsv",) if key not in ckpt.extras])
    if missing:
        raise CliError(f"checkpoint {checkpoint_path} has no {', '.join(missing)}")
    try:
        cfg = TrainConfig.from_dict(ckpt.config["train_config"])
    except ValueError as exc:
        raise CliError(f"checkpoint {checkpoint_path} has a malformed train_config: {exc}") from None
    name = ckpt.config["task"]
    task = TASKS.get(name) if isinstance(name, str) else None
    if task is None:
        raise CliError(f"checkpoint has unknown task {name!r}")
    arts = _artefacts(checkpoint_path, ckpt.extras)
    if task.labeled and arts.labels is None:
        raise CliError(f"checkpoint {checkpoint_path} has no labels.json for its {name} head")
    model = task.build(cfg, arts, None)  # unfilled: load_arrays sets every value, once all fit
    expected = model.named_parameters()
    problems = ([f"no {key}" for key in expected if key not in ckpt.params]
                + [f"unexpected {key}" for key in ckpt.params if key not in expected]
                + [f"{key} has shape {ckpt.params[key].shape}, expected {p.data.shape}"
                   for key, p in expected.items()
                   if key in ckpt.params and ckpt.params[key].shape != p.data.shape])
    if problems:
        raise CliError(f"checkpoint {checkpoint_path} does not fit its {name} model: "
                       + "; ".join(problems))
    model.load_arrays(ckpt.params)
    return model, cfg, name, arts


def _train_and_report(args, cfg, name: str, model, split, arts, report, summary: str) -> int:
    """Train on `split` and save the best parameters. `report(result)` gives the metrics and
    the prediction rows (or None); `summary` is formatted with `task` and `r`, the TrainResult."""
    out = _out_dir(args)
    result = train(model, *split, cfg)
    save_checkpoint(out / "checkpoint", result.best_params,
                    {"task": name, "train_config": cfg.to_dict()}, arts.to_extras())
    # report from the float32 values the checkpoint holds, as `evaluate` will, bit for bit
    model.load_arrays(load_checkpoint(out / "checkpoint").params)
    _write_json(out / "history.json", result.history_dict())
    metrics, rows = report(result)
    _write_metrics(out / "metrics.json", metrics, cfg)
    if rows is not None:
        _write_predictions(out / "predictions.jsonl", rows)
    print(summary.format(task=name, r=result))
    return 0


def _pretrain(args, cfg, name: str, model, items, arts, extra_metrics=dict) -> int:
    """Train on a 90/10 split of `items`; with too few to hold any out, validate on all."""
    train_items, val_items = D.split_dataset(items, 0.9, cfg.seed)
    return _train_and_report(
        args, cfg, name, model, (train_items, val_items) if val_items else (items, items), arts,
        lambda r: ({"task": name, "best_val_loss": r.best_val_loss, **extra_metrics()}, None),
        "pretrained {task}: best val loss {r.best_val_loss:.6f}")


def cmd_train(args) -> int:
    cfg = _load_config(args)
    task = TASKS[args.task]
    kind = "dialog" if args.dialog else args.task
    records = D.load_dataset(args.train_file, kind)
    if args.val_file:
        val_records = D.load_dataset(args.val_file, kind)
    else:
        records, val_records = D.split_dataset(records, 0.9, cfg.seed)
    if not records or not val_records:
        raise CliError("datasets too small to carve a validation split")
    records, val_records = (task.records(r, cfg, args.dialog) for r in (records, val_records))
    arts = task.fit(records, cfg)
    pretrained = _read_checkpoint(args.init_from) if args.init_from else None
    if pretrained is not None:
        if "vocab.tsv" not in pretrained.extras:
            raise CliError(f"checkpoint {args.init_from} has no vocab.tsv")
        # the pretrained embedding rows belong to the checkpoint's word and character ids
        arts = replace(arts, vocab=_artefacts(args.init_from, pretrained.extras).vocab)
    train_items = _encode(task, records, arts, cfg, args.train_file)
    val_items = _encode(task, val_records, arts, cfg,
                        args.val_file or f"{args.train_file} (validation split)")
    model = task.build(cfg, arts, seed_streams(cfg.seed)["init"])
    if pretrained is not None:
        transfer_load(model, pretrained, args.transfer_mode)
    return _train_and_report(
        args, cfg, args.task, model, (train_items, val_items), arts,
        lambda _: task.evaluate(model, val_items, arts, cfg),
        "trained {task}: best epoch {r.best_epoch}, best val loss {r.best_val_loss:.6f}")


def cmd_evaluate(args) -> int:
    model, cfg, name, arts = _restore(args.checkpoint)
    task = TASKS[name]
    if task.evaluate is None:
        raise CliError(f"cannot evaluate a {name!r} checkpoint; use embed instead")
    records = D.load_dataset(args.test_file, "dialog" if args.dialog else name)
    items = _encode(task, task.records(records, cfg, args.dialog), arts, cfg, args.test_file)
    metrics, rows = task.evaluate(model, items, arts, cfg)
    out = _out_dir(args)
    _write_metrics(out / "metrics.json", metrics, cfg)
    _write_predictions(out / "predictions.jsonl", rows)
    print(json.dumps({k: v for k, v in metrics.items() if isinstance(v, (int, float))},
                     sort_keys=True))
    return 0


def cmd_pretrain_mlm(args) -> int:
    cfg = _load_config(args)
    if not os.path.exists(args.corpus):
        raise CliError(f"corpus file not found: {args.corpus}")
    lines = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    token_lists = [t for t in (D.preprocess_text(line, cfg.lowercase) for line in lines) if t]
    if not token_lists:
        raise CliError("corpus is empty after preprocessing")
    arts = Artefacts(D.build_vocab(token_lists, cfg.min_freq))
    streams = seed_streams(cfg.seed)
    model = TASKS["mlm"].build(cfg, arts, streams["init"])
    items = build_mlm_dataset(token_lists, arts.vocab, streams["data"], cfg.max_len, cfg.max_word_len)
    if not items:
        raise CliError("no maskable sentences in the corpus")
    return _pretrain(args, cfg, "mlm", model, items, arts)


def cmd_pretrain_zsl(args) -> int:
    if args.neg_per_pos < 1:
        raise CliError(f"--neg-per-pos must be at least 1, got {args.neg_per_pos}")
    cfg = _load_config(args)
    records = D.load_dataset(args.train_file, "classification")
    token_lists = [D.preprocess_text(r["text"], cfg.lowercase) for r in records]
    keep = [i for i, t in enumerate(token_lists) if t]
    labels = sorted({str(records[i]["label"]) for i in keep})
    if len(labels) < 2:
        raise CliError("zero-shot pretraining needs at least 2 labels")
    if "" in labels:
        raise CliError(f"{args.train_file}: label '' has no characters to encode")
    label_tokens = {name: D.preprocess_text(name, cfg.lowercase) or [name.lower()] for name in labels}
    first_of = {}
    for name, tokens in label_tokens.items():
        other = first_of.setdefault(tuple(tokens), name)
        if other != name:
            raise CliError(f"{args.train_file}: labels {other!r} and {name!r} preprocess to the "
                           f"same phrase {' '.join(tokens)!r}; merge or rename them")
    arts = Artefacts(D.build_vocab([token_lists[i] for i in keep] + list(label_tokens.values()),
                                   cfg.min_freq), labels)
    streams = seed_streams(cfg.seed)
    model = TASKS["zsl"].build(cfg, arts, streams["init"])
    label_examples = {name: _example(toks, arts.vocab, cfg) for name, toks in label_tokens.items()}
    dataset = [(_example(token_lists[i], arts.vocab, cfg, guid=i),
                labels.index(str(records[i]["label"])))
               for i in keep]
    pairs = zsl_build_pairs(dataset, labels, streams["data"], neg_per_pos=args.neg_per_pos)
    items = [(p.item, label_examples[p.label], p.polarity == "entail") for p in pairs]

    def accuracy():
        phrases = [label_examples[n] for n in labels]
        preds = infer(lambda chunk: model.classify(chunk, phrases), [ex for ex, _ in dataset],
                      cfg.batch_size)
        hits = sum(pred == gold for pred, (_, gold) in zip(preds, dataset))
        return {"zero_shot_train_accuracy": hits / len(dataset)}

    return _pretrain(args, cfg, "zsl", model, items, arts, accuracy)


def _embed_lines(model, vocab, cfg, lines) -> list:
    """Each line's sentence embedding, or None for a line that preprocessing empties."""
    token_lists = [D.preprocess_text(line, cfg.lowercase) for line in lines]
    examples = [_example(tokens, vocab, cfg) for tokens in token_lists if tokens]
    with no_grad():
        vectors = iter(infer(lambda chunk: model.encoder.sentence_vectors(chunk).data, examples,
                             cfg.batch_size))
    return [next(vectors) if tokens else None for tokens in token_lists]


def cmd_embed(args) -> int:
    model, cfg, _, arts = _restore(args.checkpoint)
    out = _out_dir(args)
    lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    out_path = out / "embeddings.jsonl"
    d = model.encoder.config.d_model
    with open(out_path, "w", encoding="utf-8") as fh:
        for vec in _embed_lines(model, arts.vocab, cfg, lines):
            row = ({"embedding": [0.0] * d, "empty": True} if vec is None else
                   {"embedding": [round(float(v), 8) for v in vec], "empty": False})
            fh.write(json.dumps(row) + "\n")
    print(f"wrote {len(lines)} embeddings to {out_path}")
    return 0


def cmd_generate(args) -> int:
    model, cfg, name, arts = _restore(args.checkpoint)
    if not isinstance(model, Seq2SeqModel):
        raise CliError(f"generate needs a generation checkpoint, got task {name!r}")
    out = _out_dir(args)
    lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    out_path = out / "generated.txt"
    examples = [_example(_wrap(D.preprocess_text(line, cfg.lowercase), cfg.max_len), arts.vocab, cfg)
                for line in lines]
    with open(out_path, "w", encoding="utf-8") as fh:
        for tokens, _ in generate(model, examples, arts.vocab):
            fh.write(" ".join(tokens) + "\n")
    print(f"wrote {len(lines)} generations to {out_path}")
    return 0


def cmd_analyze(args) -> int:
    model, cfg, _, arts = _restore(args.checkpoint)
    out = _out_dir(args)
    lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    vectors = [v for v in _embed_lines(model, arts.vocab, cfg, lines) if v is not None]
    if len(vectors) < args.k:
        raise CliError(f"only {len(vectors)} non-empty lines for k={args.k}")
    points = np.stack(vectors)
    assignments = kmeans(points, args.k, seed=cfg.seed)
    silhouette, db = cluster_quality(points, assignments)
    payload = {"k": args.k, "n_points": len(points), "silhouette": silhouette,
               "davies_bouldin": db, "assignments": [int(a) for a in assignments]}
    _write_json(out / "analysis.json", payload)
    print(f"silhouette {silhouette:.4f}, davies-bouldin {db:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hitkit",
                                     description="hierarchical code-mixed text models")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default="out", help="output directory")
        return p

    p = command("train", cmd_train, "train a task model")
    p.add_argument("--task", required=True, choices=[name for name, t in TASKS.items() if t.fit])
    p.add_argument("--train-file", required=True)
    p.add_argument("--val-file", default=None)
    p.add_argument("--dialog", action="store_true", help="input records are dialogs")
    p.add_argument("--init-from", default=None, help="checkpoint for transfer initialization")
    p.add_argument("--transfer-mode", default="finetune", choices=["frozen", "finetune"])

    p = command("evaluate", cmd_evaluate, "evaluate a checkpoint on a test file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--dialog", action="store_true")

    p = command("pretrain-mlm", cmd_pretrain_mlm, "masked-token pretraining over a text corpus")
    p.add_argument("--corpus", required=True, help="one sentence per line, UTF-8")

    p = command("pretrain-zsl", cmd_pretrain_zsl, "entailment pretraining from a labeled file")
    p.add_argument("--train-file", required=True)
    p.add_argument("--neg-per-pos", type=int, default=1)

    p = command("embed", cmd_embed, "write one sentence embedding per input line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)

    p = command("generate", cmd_generate, "greedy-decode each input line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)

    p = command("analyze-embeddings", cmd_analyze, "k-means plus cluster quality indices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (CliError, D.DataError, ValueError, RuntimeError, OSError) as exc:
        print(f"hitkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
