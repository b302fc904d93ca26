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
from pathlib import Path

import numpy as np

from . import data as D
from . import features as F
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import cluster_quality, kmeans
from .model import ZslModel
from .pretrain import mask_tokens, transfer_load, zsl_build_pairs
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
            seed = int(env_seed)
        except ValueError:
            raise CliError(f"HITKIT_SEED must be an integer, got {env_seed!r}") from None
        cfg = TrainConfig.from_dict({**cfg.to_dict(), "seed": seed})
    if args.seed is not None:
        cfg = TrainConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_metrics(path: Path, metrics: dict, cfg: TrainConfig) -> None:
    payload = dict(metrics)
    payload["config_fingerprint"] = cfg.fingerprint()
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _write_json(path, payload)


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


def _encode_classification(records, vocab, labels, cfg, source, tfidf=None):
    """`source` names where the records came from, for the unseen-label error."""
    label_index = {name: i for i, name in enumerate(labels)}
    examples, skipped = [], 0
    for i, rec in enumerate(records):
        tokens = D.preprocess_text(rec["text"], cfg.lowercase)
        if not tokens:
            skipped += 1
            continue
        target = _index_of(label_index, str(rec["label"]), "label", source, i)
        ex = D.encode_example(tokens, vocab, target=target,
                              max_len=cfg.max_len, max_word_len=cfg.max_word_len, guid=i)
        if tfidf is not None:
            ex.features = F.tfidf_transform(tfidf, tokens[:cfg.max_len])
        examples.append(ex)
    if skipped:
        log.warning("skipped %d records that were empty after preprocessing", skipped)
    return examples, skipped


def _encode_labeling(records, vocab, tags, cfg, source):
    tag_index = {name: i for i, name in enumerate(tags)}
    examples = []
    for i, rec in enumerate(records):
        tokens = [t.lower() if cfg.lowercase else t for t in rec["tokens"]][:cfg.max_len]
        if not tokens:
            continue
        target = [_index_of(tag_index, t, "tag", source, i) for t in rec["tags"][:len(tokens)]]
        examples.append(D.encode_example(tokens, vocab, target=target, max_len=cfg.max_len,
                                         max_word_len=cfg.max_word_len, guid=i))
    return examples


def _encode_generation(pairs, vocab, cfg):
    examples = []
    for i, (src_tokens, tgt_tokens) in enumerate(pairs):
        ex = D.encode_example(src_tokens, vocab, max_len=cfg.max_len,
                              max_word_len=cfg.max_word_len, guid=i)
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


def _checkpoint_extras(vocab, labels=None, tfidf=None):
    extras = {"vocab.tsv": vocab.to_text()}
    if labels is not None:
        extras["labels.json"] = json.dumps(list(labels))
    if tfidf is not None:
        extras["tfidf_vocab.txt"] = F.tfidf_to_text(tfidf)
    return extras


def _restore(checkpoint_path):
    """Rebuild the task model a checkpoint was saved from; it must hold every parameter, as shaped."""
    if not os.path.exists(checkpoint_path):
        raise CliError(f"checkpoint not found: {checkpoint_path}")
    ckpt = load_checkpoint(checkpoint_path)
    missing = ([key for key in ("task", "train_config") if key not in ckpt.config]
               + [key for key in ("vocab.tsv",) if key not in ckpt.extras])
    if missing:
        raise CliError(f"checkpoint {checkpoint_path} has no {', '.join(missing)}")
    cfg = TrainConfig.from_dict(ckpt.config["train_config"])
    task = ckpt.config["task"]
    vocab = D.Vocab.from_text(ckpt.extras["vocab.tsv"])
    labels = json.loads(ckpt.extras["labels.json"]) if "labels.json" in ckpt.extras else None
    if labels is None and task in ("classification", "labeling"):
        raise CliError(f"checkpoint {checkpoint_path} has no labels.json for its {task} head")
    tfidf = (F.tfidf_from_text(ckpt.extras["tfidf_vocab.txt"])
             if "tfidf_vocab.txt" in ckpt.extras else None)
    rng = seed_streams(cfg.seed)["init"]
    if task == "classification":
        model = build_classifier(cfg, vocab.word_size, vocab.char_size, len(labels), rng,
                                 tfidf_dim=tfidf.dim if tfidf else 0)
    elif task == "labeling":
        model = build_tagger(cfg, vocab.word_size, vocab.char_size, len(labels), rng)
    elif task == "generation":
        model = build_seq2seq(cfg, vocab.word_size, vocab.char_size, rng)
    elif task == "mlm":
        model = build_mlm(cfg, vocab.word_size, vocab.char_size, rng)
    elif task == "zsl":
        model = build_zsl(cfg, vocab.word_size, vocab.char_size, rng)
    else:
        raise CliError(f"checkpoint has unknown task {task!r}")
    expected = model.named_parameters()
    problems = ([f"no {name}" for name in expected if name not in ckpt.params]
                + [f"unexpected {name}" for name in ckpt.params if name not in expected]
                + [f"{name} has shape {ckpt.params[name].shape}, expected {p.data.shape}"
                   for name, p in expected.items()
                   if name in ckpt.params and ckpt.params[name].shape != p.data.shape])
    if problems:
        raise CliError(f"checkpoint {checkpoint_path} does not fit its {task} model: "
                       + "; ".join(problems))
    model.load_arrays(ckpt.params)
    return model, vocab, cfg, task, labels, tfidf


def _prepare_task(args, cfg):
    """Load train/val records and build the model plus encoded datasets."""
    records = D.load_dataset(args.train_file, "dialog" if args.dialog else args.task)
    if args.val_file:
        val_records = D.load_dataset(args.val_file, "dialog" if args.dialog else args.task)
    else:
        records, val_records = D.split_dataset(records, 0.9, cfg.seed)
    if not records or not val_records:
        raise CliError("datasets too small to carve a validation split")
    if args.dialog and args.task == "classification":
        records = [D.dialog_to_classification(r) for r in records]
        val_records = [D.dialog_to_classification(r) for r in val_records]
    if args.dialog and args.task == "labeling":
        records = [D.dialog_to_labeling(r) for r in records]
        val_records = [D.dialog_to_labeling(r) for r in val_records]
    rng = seed_streams(cfg.seed)["init"]
    val_source = args.val_file or f"{args.train_file} (validation split)"

    if args.task == "classification":
        token_lists = [D.preprocess_text(r["text"], cfg.lowercase) for r in records]
        vocab = D.build_vocab([t for t in token_lists if t], cfg.min_freq)
        labels = sorted({str(r["label"]) for r in records})
        tfidf = F.tfidf_fit([t for t in token_lists if t]) if cfg.use_tfidf else None
        if tfidf is not None and tfidf.dim == 0:
            raise CliError("use_tfidf is on but no n-gram survives the document-frequency "
                           "bounds; the corpus is too small or too uniform")
        model = build_classifier(cfg, vocab.word_size, vocab.char_size, len(labels), rng,
                                 tfidf_dim=tfidf.dim if tfidf else 0)
        train_items, _ = _encode_classification(records, vocab, labels, cfg, args.train_file,
                                                tfidf)
        val_items, _ = _encode_classification(val_records, vocab, labels, cfg, val_source, tfidf)
        extras = _checkpoint_extras(vocab, labels, tfidf)
        return model, vocab, labels, tfidf, train_items, val_items, extras
    if args.task == "labeling":
        token_lists = [[t.lower() if cfg.lowercase else t for t in r["tokens"]] for r in records]
        vocab = D.build_vocab([t for t in token_lists if t], cfg.min_freq)
        tags = sorted({t for r in records for t in r["tags"]})
        model = build_tagger(cfg, vocab.word_size, vocab.char_size, len(tags), rng)
        train_items = _encode_labeling(records, vocab, tags, cfg, args.train_file)
        val_items = _encode_labeling(val_records, vocab, tags, cfg, val_source)
        extras = _checkpoint_extras(vocab, tags)
        return model, vocab, tags, None, train_items, val_items, extras
    if args.task == "generation":
        pairs = _generation_pairs(records, cfg, args.dialog)
        val_pairs = _generation_pairs(val_records, cfg, args.dialog)
        if not pairs or not val_pairs:
            raise CliError("no usable generation pairs after preprocessing")
        vocab = D.build_vocab([s for s, t in pairs] + [t for s, t in pairs], cfg.min_freq)
        model = build_seq2seq(cfg, vocab.word_size, vocab.char_size, rng)
        train_items = _encode_generation(pairs, vocab, cfg)
        val_items = _encode_generation(val_pairs, vocab, cfg)
        extras = _checkpoint_extras(vocab)
        return model, vocab, None, None, train_items, val_items, extras
    raise CliError(f"unknown task {args.task!r}")


def _keep_best(model, path: Path, best_params: dict, config: dict, extras: dict) -> None:
    """Save the best parameters and load them into `model` as the checkpoint stores them.

    The checkpoint holds float32 values, so whatever the caller then predicts or
    scores matches what `evaluate` computes from the checkpoint, bit for bit.
    """
    save_checkpoint(path, best_params, config, extras)
    model.load_arrays(load_checkpoint(path).params)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    model, vocab, names, tfidf, train_items, val_items, extras = _prepare_task(args, cfg)
    if args.init_from:
        transfer_load(model, args.init_from, args.transfer_mode)
    result = train(model, train_items, val_items, cfg)
    _keep_best(model, out / "checkpoint", result.best_params,
               {"task": args.task, "train_config": cfg.to_dict()}, extras)
    _write_json(out / "history.json", result.history_dict())
    if args.task == "classification":
        metrics, rows = evaluate_classification(model, val_items, names)
    elif args.task == "labeling":
        metrics, rows = evaluate_labeling(model, val_items, names)
    else:
        metrics, rows = evaluate_generation(model, val_items, vocab)
    _write_metrics(out / "metrics.json", metrics, cfg)
    _write_predictions(out / "predictions.jsonl", rows)
    print(f"trained {args.task}: best epoch {result.best_epoch}, "
          f"best val loss {result.best_val_loss:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    model, vocab, cfg, task, labels, tfidf = _restore(args.checkpoint)
    out = _out_dir(args)
    records = D.load_dataset(args.test_file, "dialog" if args.dialog else task)
    if task == "classification":
        if args.dialog:
            records = [D.dialog_to_classification(r) for r in records]
        items, _ = _encode_classification(records, vocab, labels, cfg, args.test_file, tfidf)
        metrics, rows = evaluate_classification(model, items, labels)
    elif task == "labeling":
        if args.dialog:
            records = [D.dialog_to_labeling(r) for r in records]
        items = _encode_labeling(records, vocab, labels, cfg, args.test_file)
        metrics, rows = evaluate_labeling(model, items, labels)
    elif task == "generation":
        pairs = _generation_pairs(records, cfg, args.dialog)
        items = _encode_generation(pairs, vocab, cfg)
        metrics, rows = evaluate_generation(model, items, vocab)
    else:
        raise CliError(f"cannot evaluate a {task!r} checkpoint; use embed instead")
    _write_metrics(out / "metrics.json", metrics, cfg)
    _write_predictions(out / "predictions.jsonl", rows)
    print(json.dumps({k: v for k, v in metrics.items() if isinstance(v, (int, float))},
                     sort_keys=True))
    return 0


def cmd_pretrain_mlm(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if not os.path.exists(args.corpus):
        raise CliError(f"corpus file not found: {args.corpus}")
    lines = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    token_lists = [D.preprocess_text(line, cfg.lowercase) for line in lines]
    token_lists = [t for t in token_lists if t]
    if not token_lists:
        raise CliError("corpus is empty after preprocessing")
    vocab = D.build_vocab(token_lists, cfg.min_freq)
    streams = seed_streams(cfg.seed)
    model = build_mlm(cfg, vocab.word_size, vocab.char_size, streams["init"])
    items = build_mlm_dataset(token_lists, vocab, cfg, streams["data"])
    if not items:
        raise CliError("no maskable sentences in the corpus")
    train_items, val_items = D.split_dataset(items, 0.9, cfg.seed)
    if not val_items:
        train_items, val_items = items, items
    result = train(model, train_items, val_items, cfg)
    _keep_best(model, out / "checkpoint", result.best_params,
               {"task": "mlm", "train_config": cfg.to_dict()}, _checkpoint_extras(vocab))
    _write_json(out / "history.json", result.history_dict())
    _write_metrics(out / "metrics.json",
                   {"task": "mlm", "best_val_loss": result.best_val_loss}, cfg)
    print(f"pretrained mlm: best val loss {result.best_val_loss:.6f}")
    return 0


def build_mlm_dataset(token_lists, vocab, cfg, rng):
    """Static masking: one masked copy per sentence, skipping unselectable ones."""
    items = []
    for i, tokens in enumerate(token_lists):
        ids = [vocab.word_id(t) for t in tokens[:cfg.max_len - 2]]
        ids = [D.CLS_ID] + ids + [D.EOS_ID]
        try:
            inputs, targets, _ = mask_tokens(ids, vocab, rng)
        except ValueError:
            continue
        if all(t == -1 for t in targets):
            continue
        chars = [vocab.char_ids(t, cfg.max_word_len) for t in
                 (["[CLS]"] + tokens[:cfg.max_len - 2] + ["[EOS]"])]
        ex = D.EncodedExample(inputs, chars, [True] * len(inputs), target=targets, guid=i)
        items.append(ex)
    return items


def cmd_pretrain_zsl(args) -> int:
    if args.neg_per_pos < 1:
        raise CliError(f"--neg-per-pos must be at least 1, got {args.neg_per_pos}")
    cfg = _load_config(args)
    out = _out_dir(args)
    records = D.load_dataset(args.train_file, "classification")
    token_lists = [D.preprocess_text(r["text"], cfg.lowercase) for r in records]
    keep = [i for i, t in enumerate(token_lists) if t]
    labels = sorted({str(records[i]["label"]) for i in keep})
    if len(labels) < 2:
        raise CliError("zero-shot pretraining needs at least 2 labels")
    label_tokens = {name: D.preprocess_text(name, cfg.lowercase) or [name.lower()] for name in labels}
    vocab = D.build_vocab([token_lists[i] for i in keep] + list(label_tokens.values()),
                          cfg.min_freq)
    streams = seed_streams(cfg.seed)
    model = build_zsl(cfg, vocab.word_size, vocab.char_size, streams["init"])
    label_examples = {name: D.encode_example(toks, vocab, max_len=cfg.max_len,
                                             max_word_len=cfg.max_word_len)
                      for name, toks in label_tokens.items()}
    dataset = [(D.encode_example(token_lists[i], vocab, max_len=cfg.max_len,
                                 max_word_len=cfg.max_word_len, guid=i),
                labels.index(str(records[i]["label"])))
               for i in keep]
    pairs = zsl_build_pairs(dataset, labels, streams["data"], neg_per_pos=args.neg_per_pos)
    items = [(p.item, label_examples[p.label], p.polarity == "entail") for p in pairs]
    train_items, val_items = D.split_dataset(items, 0.9, cfg.seed)
    if not val_items:
        train_items, val_items = items, items
    result = train(model, train_items, val_items, cfg)
    _keep_best(model, out / "checkpoint", result.best_params,
               {"task": "zsl", "train_config": cfg.to_dict()}, _checkpoint_extras(vocab, labels))
    _write_json(out / "history.json", result.history_dict())
    ordered_labels = [label_examples[name] for name in labels]
    hits = sum(model.classify(ex, ordered_labels) == gold for ex, gold in dataset)
    _write_metrics(out / "metrics.json",
                   {"task": "zsl", "best_val_loss": result.best_val_loss,
                    "zero_shot_train_accuracy": hits / len(dataset)}, cfg)
    print(f"pretrained zsl: best val loss {result.best_val_loss:.6f}")
    return 0


def _embed_lines(model, vocab, cfg, lines) -> list:
    """Each line's sentence embedding, or None for a line that preprocessing empties."""
    zsl = ZslModel(model.encoder)
    vectors = []
    for line in lines:
        tokens = D.preprocess_text(line, cfg.lowercase)
        if not tokens:
            vectors.append(None)
            continue
        ex = D.encode_example(tokens, vocab, max_len=cfg.max_len, max_word_len=cfg.max_word_len)
        with no_grad():
            vectors.append(zsl.embed(ex).data)
    return vectors


def cmd_embed(args) -> int:
    model, vocab, cfg, task, labels, tfidf = _restore(args.checkpoint)
    out = _out_dir(args)
    lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    out_path = out / "embeddings.jsonl"
    d = model.encoder.config.d_model
    with open(out_path, "w", encoding="utf-8") as fh:
        for vec in _embed_lines(model, vocab, cfg, lines):
            row = ({"embedding": [0.0] * d, "empty": True} if vec is None else
                   {"embedding": [round(float(v), 8) for v in vec], "empty": False})
            fh.write(json.dumps(row) + "\n")
    print(f"wrote {len(lines)} embeddings to {out_path}")
    return 0


def cmd_generate(args) -> int:
    model, vocab, cfg, task, labels, tfidf = _restore(args.checkpoint)
    if task != "generation":
        raise CliError(f"generate needs a generation checkpoint, got task {task!r}")
    out = _out_dir(args)
    lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    out_path = out / "generated.txt"
    with open(out_path, "w", encoding="utf-8") as fh:
        for line in lines:
            tokens = _wrap(D.preprocess_text(line, cfg.lowercase), cfg.max_len)
            ex = D.encode_example(tokens, vocab, max_len=cfg.max_len,
                                  max_word_len=cfg.max_word_len)
            fh.write(" ".join(vocab.decode(model.greedy_decode(ex))) + "\n")
    print(f"wrote {len(lines)} generations to {out_path}")
    return 0


def cmd_analyze(args) -> int:
    model, vocab, cfg, task, labels, tfidf = _restore(args.checkpoint)
    out = _out_dir(args)
    lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    vectors = [v for v in _embed_lines(model, vocab, cfg, lines) if v is not None]
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


def _add_common(p):
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hitkit",
                                     description="hierarchical code-mixed text models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a task model")
    p.add_argument("--task", required=True, choices=["classification", "labeling", "generation"])
    p.add_argument("--train-file", required=True)
    p.add_argument("--val-file", default=None)
    p.add_argument("--dialog", action="store_true", help="input records are dialogs")
    p.add_argument("--init-from", default=None, help="checkpoint for transfer initialization")
    p.add_argument("--transfer-mode", default="finetune", choices=["frozen", "finetune"])
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a test file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--dialog", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("pretrain-mlm", help="masked-token pretraining over a text corpus")
    p.add_argument("--corpus", required=True, help="one sentence per line, UTF-8")
    _add_common(p)
    p.set_defaults(fn=cmd_pretrain_mlm)

    p = sub.add_parser("pretrain-zsl", help="entailment pretraining from a labeled file")
    p.add_argument("--train-file", required=True)
    p.add_argument("--neg-per-pos", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=cmd_pretrain_zsl)

    p = sub.add_parser("embed", help="write one sentence embedding per input line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("generate", help="greedy-decode each input line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze-embeddings", help="k-means plus cluster quality indices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)
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
