"""The three closed-loop workloads, driven through hitkit's public API.

Each workload is one client in one process: it sends its next unit of work
(a training step, a sentence to embed, a request to generate) only after the
previous one has returned. Library calls go through module attributes
(``D.encode_example``, ``T.backward``, ...) so that the tracer's wrappers,
when installed, see them.

Why these three:
  train-clf  the only workload that records a tape, runs backward and Adam;
             it is where batching and gradient accumulation show first.
  embed      forward only under no_grad, ragged 3-40 word sentences; a change
             to backward or the optimizer should leave it unchanged.
  generate   the only workload that runs the decoder; every request decodes
             exactly its requested length, so re-decoding cost is exposed,
             and backward never runs.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from pathlib import Path

import numpy as np

import gen
from hitkit import checkpoint as C
from hitkit import data as D
from hitkit import model as M
from hitkit import optim as O
from hitkit import tensor as T

TR = importlib.import_module("hitkit.train")  # the package re-exports train(), hiding the module

CORPUS_SENTENCES = 1024
TRAIN_BATCHES = 32
EOS_BIAS = -1.0e4  # makes [EOS] unreachable, so every request runs to its max_out
DIGEST_DIMS = 16
LOSS_RTOL = 1e-6
EMBED_RTOL = 1e-6


def embedding_digest(vec: np.ndarray) -> list[float]:
    """Norm plus projections on fixed random unit directions: a short exact fingerprint."""
    dirs = np.random.default_rng(gen.LEXICON_SEED).normal(size=(DIGEST_DIMS, vec.shape[0]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return [float(np.linalg.norm(vec))] + [float(x) for x in dirs @ vec]


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(b))))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def _write_checkpoint(path: Path, cfg, vocab, model, task: str, arrays=None) -> None:
    C.save_checkpoint(path, model.parameter_arrays() if arrays is None else arrays,
                      {"task": task, "train_config": cfg.to_dict()},
                      {"vocab.tsv": vocab.to_text()})


def _corpus_vocab(seed: int, cfg):
    return D.build_vocab([D.preprocess_text(s, cfg.lowercase) for s in gen.corpus(seed, CORPUS_SENTENCES)],
                         cfg.min_freq)


def _load(path: Path, build):
    """Checkpoint -> (config, vocab, model), the way a serving process starts."""
    ck = C.load_checkpoint(path)
    cfg = TR.TrainConfig.from_dict(ck.config["train_config"])
    vocab = D.Vocab.from_text(ck.extras["vocab.tsv"])
    model = build(cfg, vocab)
    model.load_arrays(ck.params)
    return cfg, vocab, model


class Workload:
    """One workload; the runner calls prepare, warmup, setup, then run(i) per unit."""

    name = ""
    unit = ""      # what one closed-loop iteration is
    work = ""      # what throughput counts
    norm = ""      # what per-layer metrics are divided by
    block = 1      # a timed phase ends on a multiple of this many units
    slots = 0      # if set, unit i's input has the size of unit i + slots (see run.latency_profile)
    n_replay = 0   # leading units computed twice and compared bit for bit

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.state = None
        self.stream = None  # endless input generator, for request workloads
        self.inputs: list = []

    def prepare(self) -> None:
        """Write what a serving process would find on disk (untimed; before any set-up)."""

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> list:
        """Outputs of the first n_replay units, computed on a separate path before timing."""
        self.setup()
        return [self.run(i) for i in range(self.n_replay)]

    def input(self, i: int):
        """Draw unit i's input, if not drawn yet, so that its timed call does not."""
        if self.stream is None:
            return None
        while len(self.inputs) <= i:
            self.inputs.append(next(self.stream))
        return self.inputs[i]

    def run(self, i: int):
        raise NotImplementedError

    def work_done(self, out) -> int:
        return 1

    def check(self, i: int, out) -> str | None:
        """Why unit i's output is wrong, or None."""
        raise NotImplementedError

    def matches_reference(self, out, ref) -> bool:
        raise NotImplementedError

    def to_reference(self, out):
        return out

    def properties(self, n_units: int) -> dict:
        raise NotImplementedError

    def named_metrics(self, m: dict) -> dict:
        """This workload's end-to-end metrics under workload-specific names: name -> (value, unit)."""
        raise NotImplementedError

    def param_counts(self) -> dict:
        """Parameter count per module and the share held by the OPA output projections."""
        model = self.state["model"]
        params = model.parameters()
        total = sum(p.data.size for p in params)
        char = sum(p.data.size for p in model.encoder.char_hit.parameters())
        word = sum(p.data.size for p in model.encoder.word_hit.parameters())
        wo_outer = sum(p.data.size for p in params if p.name.endswith("wo_outer"))
        return {"total": total, "char_hit": char, "word_hit": word,
                "head_or_decoder": total - char - word, "wo_outer_share": wo_outer / total}


class TrainClf(Workload):
    name, unit, work, norm = "train-clf", "step", "examples", "step"
    n_replay = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = TR.TrainConfig(seed=seed)  # the paper default
        self.batches = gen.train_batches(seed, TRAIN_BATCHES)

    def setup(self):
        cfg = self.cfg
        tokens = [[D.preprocess_text(text, cfg.lowercase) for text, _ in b] for b in self.batches]
        vocab = D.build_vocab([t for b in tokens for t in b], cfg.min_freq)
        items = [[D.encode_example(t, vocab, target=label, max_len=cfg.max_len,
                                   max_word_len=cfg.max_word_len)
                  for t, (_, label) in zip(tb, b)] for tb, b in zip(tokens, self.batches)]
        streams = TR.seed_streams(cfg.seed)
        model = TR.build_classifier(cfg, vocab.word_size, vocab.char_size, gen.N_CLASSES,
                                    streams["init"])
        self.tokens = tokens
        self.state = {"model": model, "items": items, "params": model.trainable_parameters(),
                      "dropout": streams["dropout"]}

    def run(self, i):
        cfg, st = self.cfg, self.state
        loss = st["model"].loss_batch(st["items"][i % len(st["items"])], training=True,
                                      rng=st["dropout"])
        value = loss.item()
        T.backward(loss)
        O.clip_gradients(st["params"], cfg.clip_norm)
        O.adam_step(st["params"], cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        return value

    def warmup(self):
        """Step 0 in full, then step 1's loss under no_grad, on a model of its own."""
        self.setup()
        first = self.run(0)
        with T.no_grad():
            second = self.state["model"].loss_batch(self.state["items"][1], training=True,
                                                    rng=self.state["dropout"]).item()
        self.state = None
        return [first, second]

    def work_done(self, out):
        return self.cfg.batch_size

    def check(self, i, out):
        return None if math.isfinite(out) else f"loss {out} is not finite"

    def matches_reference(self, out, ref):
        return _close(out, ref, LOSS_RTOL)

    def named_metrics(self, m):
        return {"train_examples_per_s": (m["throughput_per_s"]["value"], "1/s")}

    def properties(self, n_units):
        used = [self.tokens[i % len(self.tokens)] for i in range(n_units)]
        per_batch = [gen.token_stats(b) for b in used]
        return {"batches": n_units, "batch_size": len(self.tokens[0]),
                "distinct_words_per_batch": [s["distinct"] for s in per_batch],
                "unique_ratio_per_batch": [round(s["unique_ratio"], 4) for s in per_batch],
                "sentence_lengths": gen.length_histogram([t for b in used for t in b])}


class Embed(Workload):
    name, unit, work, norm = "embed", "sentence", "sentences", "sentence"
    block = slots = len(gen.EMBED_LENGTHS)  # one sentence of each length per cycle
    n_replay = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = workdir / f"embed-{seed}.ckpt"
        self.stream = gen.embed_stream(seed)

    def prepare(self):
        cfg = TR.TrainConfig(seed=self.seed)
        vocab = _corpus_vocab(self.seed, cfg)
        model = TR.build_classifier(cfg, vocab.word_size, vocab.char_size, gen.N_CLASSES,
                                    TR.seed_streams(cfg.seed)["init"])
        _write_checkpoint(self.path, cfg, vocab, model, "classification")

    def setup(self):
        build = lambda cfg, v: TR.build_classifier(cfg, v.word_size, v.char_size, gen.N_CLASSES,
                                                   TR.seed_streams(cfg.seed)["init"])
        cfg, vocab, model = _load(self.path, build)
        self.cfg = cfg
        self.state = {"model": model, "zsl": M.ZslModel(model.encoder), "vocab": vocab}

    def run(self, i):
        cfg, st = self.cfg, self.state
        tokens = D.preprocess_text(self.input(i), cfg.lowercase)
        ex = D.encode_example(tokens, st["vocab"], max_len=cfg.max_len,
                              max_word_len=cfg.max_word_len)
        with T.no_grad():
            return st["zsl"].embed(ex).data.copy()

    def check(self, i, out):
        d = self.cfg.d_model
        if out.shape != (d,):
            return f"embedding shape {out.shape}, expected ({d},)"
        return None if np.all(np.isfinite(out)) else "embedding is not finite"

    def to_reference(self, out):
        return embedding_digest(out)

    def matches_reference(self, out, ref):
        return _close(embedding_digest(out), ref, EMBED_RTOL)

    def named_metrics(self, m):
        return {"embed_sentences_per_s": (m["throughput_per_s"]["value"], "1/s"),
                "embed_latency_ms_p50": (m["latency_ms_p50"]["value"], "ms"),
                "embed_latency_ms_p90": (m["latency_ms_p90"]["value"], "ms")}

    def properties(self, n_units):
        toks = [D.preprocess_text(self.input(i)) for i in range(n_units)]
        return {"sentences": n_units, "sentence_lengths": gen.length_histogram(toks),
                "word_stats": gen.token_stats(toks)}


class Generate(Workload):
    name, unit, work, norm = "generate", "request", "tokens", "token"
    block = len(gen.GENERATE_OUT_LENGTHS)
    n_replay = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = workdir / f"generate-{seed}.ckpt"
        self.stream = gen.generate_stream(seed)

    def prepare(self):
        cfg = TR.TrainConfig(seed=self.seed)
        vocab = _corpus_vocab(self.seed, cfg)
        model = TR.build_seq2seq(cfg, vocab.word_size, vocab.char_size,
                                 TR.seed_streams(cfg.seed)["init"])
        arrays = model.parameter_arrays()
        arrays[model.out_b.name][D.EOS_ID] = EOS_BIAS
        _write_checkpoint(self.path, cfg, vocab, model, "generation", arrays)

    def setup(self):
        build = lambda cfg, v: TR.build_seq2seq(cfg, v.word_size, v.char_size,
                                                TR.seed_streams(cfg.seed)["init"])
        cfg, vocab, model = _load(self.path, build)
        self.cfg = cfg
        self.state = {"model": model, "vocab": vocab}

    def run(self, i):
        cfg, st = self.cfg, self.state
        source, out_len = self.input(i)
        tokens = ["[CLS]"] + D.preprocess_text(source, cfg.lowercase) + ["[EOS]"]
        ex = D.encode_example(tokens, st["vocab"], max_len=cfg.max_len,
                              max_word_len=cfg.max_word_len)
        return [int(t) for t in st["model"].greedy_decode(ex, max_out=out_len)]

    def work_done(self, out):
        return len(out)

    def check(self, i, out):
        want = self.input(i)[1]
        if len(out) != want:
            return f"{len(out)} ids, expected exactly {want}"
        vocab_size = self.state["vocab"].word_size
        bad = [t for t in out if not 0 <= t < vocab_size]
        return f"ids out of range: {bad[:3]}" if bad else None

    def matches_reference(self, out, ref):
        return list(out) == list(ref)

    def named_metrics(self, m):
        return {"generate_ms_per_token": (1e3 / m["throughput_per_s"]["value"], "ms"),
                "generate_latency_ms_p50": (m["latency_ms_p50"]["value"], "ms")}

    def properties(self, n_units):
        reqs = [self.input(i) for i in range(n_units)]
        toks = [D.preprocess_text(s) for s, _ in reqs]
        mix = Counter(n for _, n in reqs)
        return {"requests": n_units, "output_length_mix": dict(sorted(mix.items())),
                "source_lengths": gen.length_histogram(toks)}


WORKLOADS = {w.name: w for w in (TrainClf, Embed, Generate)}
