"""Generalization regimes: masked-token plans, entailment pairs, transfer loading."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import SPECIALS, Vocab, encode_example, wrap_tokens

IGNORE_INDEX = -1
ENCODER_PREFIXES = ("char_hit.", "word_hit.")

MASK_ACTIONS = ("mask", "random", "keep")


@dataclass
class MaskPlan:
    positions: list[int]
    actions: list[str]
    seed: int | None = None


def mask_tokens(token_ids, vocab: Vocab, rng: np.random.Generator, seed: int | None = None):
    """Select eligible tokens with p=0.15 and rewrite them 80/10/10 mask/random/keep.

    Returns (input ids, target ids, MaskPlan); targets carry the original id at
    selected positions and IGNORE_INDEX elsewhere.
    """
    ids = list(token_ids)
    n_special = len(SPECIALS)
    eligible = [i for i, t in enumerate(ids) if t >= n_special]
    if not eligible:
        raise ValueError("mask_tokens: no eligible tokens to select")
    mask_id = vocab.word_to_id["[MASK]"]
    vocab_size = vocab.word_size
    inputs = list(ids)
    targets = [IGNORE_INDEX] * len(ids)
    positions, actions = [], []
    for i in eligible:
        if rng.random() >= 0.15:
            continue
        r = rng.random()
        if r < 0.8:
            action = "mask"
            inputs[i] = mask_id
        elif r < 0.9:
            action = "random"
            if vocab_size > n_special:
                inputs[i] = int(rng.integers(n_special, vocab_size))
        else:
            action = "keep"
        targets[i] = ids[i]
        positions.append(i)
        actions.append(action)
    return inputs, targets, MaskPlan(positions, actions, seed=seed)


def build_mlm_dataset(token_lists, vocab: Vocab, rng: np.random.Generator,
                      max_len: int, max_word_len: int) -> list:
    """Static masking: one masked [CLS] ... [EOS] copy per sentence, skipping unselectable ones."""
    items = []
    for i, tokens in enumerate(token_lists):
        ex = encode_example(wrap_tokens(tokens, max_len), vocab, max_len=max_len,
                            max_word_len=max_word_len, guid=i)
        try:
            ex.word_ids, ex.target, _ = mask_tokens(ex.word_ids, vocab, rng)
        except ValueError:
            continue
        if any(t != IGNORE_INDEX for t in ex.target):
            items.append(ex)
    return items


@dataclass
class ZslPair:
    item: Any
    label: str
    polarity: str  # "entail" | "contradict"


def zsl_build_pairs(dataset, label_names, rng: np.random.Generator,
                    neg_per_pos: int = 1) -> list[ZslPair]:
    """One entail pair per example plus negatives sampled uniformly from wrong labels.

    `dataset` holds (item, true label index) tuples; items pass through opaque.
    """
    label_names = list(label_names)
    if len(label_names) < 2:
        raise ValueError("zsl_build_pairs: need at least 2 labels")
    pairs = []
    for item, true_idx in dataset:
        pairs.append(ZslPair(item, label_names[true_idx], "entail"))
        wrong = [l for k, l in enumerate(label_names) if k != true_idx]
        for _ in range(neg_per_pos):
            pairs.append(ZslPair(item, wrong[int(rng.integers(len(wrong)))], "contradict"))
    return pairs


def transfer_load(model, ckpt, mode: str):
    """Copy encoder parameters from a loaded checkpoint; the task head stays fresh.

    mode "frozen" freezes encoder parameters (`requires_grad` off); "finetune" trains all.
    """
    if mode not in ("frozen", "finetune"):
        raise ValueError(f"transfer mode must be 'frozen' or 'finetune', got {mode!r}")
    problems = []
    encoder_params = [p for p in model.parameters() if p.name.startswith(ENCODER_PREFIXES)]
    for p in encoder_params:
        saved = ckpt.params.get(p.name)
        if saved is None:
            problems.append(f"{p.name}: missing from checkpoint")
        elif saved.shape != p.data.shape:
            problems.append(f"{p.name}: checkpoint {saved.shape} vs model {p.data.shape}")
    if problems:
        raise ValueError("transfer_load encoder mismatch: " + "; ".join(sorted(problems)))
    for p in encoder_params:
        p.assign(ckpt.params[p.name])
        p.adam_m = p.adam_v = None
        p.step_count = 0
        if mode == "frozen":
            p.freeze()
        else:
            p.unfreeze()
    return model
