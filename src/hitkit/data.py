"""Text preprocessing, vocabularies, IOB slot encoding, and JSONL dataset loading."""

from __future__ import annotations

import json
import logging
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Any

import numpy as np

log = logging.getLogger(__name__)

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[EOS]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, EOS_ID, MASK_ID = range(5)

_URL_PREFIXES = ("http://", "https://", "www.")
_MARKERS = ("[CLS]", "[EOS]")


class DataError(ValueError):
    pass


def preprocess_text(raw: str, lowercase: bool = True) -> list[str]:
    """Lowercase, drop URLs and @-mentions, strip punctuation, whitespace-tokenize.

    The literal [CLS] and [EOS] markers pass through untouched.
    """
    out = []
    for tok in raw.split():
        if tok in _MARKERS:
            out.append(tok)
            continue
        if lowercase:
            tok = tok.lower()
        if tok.startswith(_URL_PREFIXES) or tok.startswith("@"):
            continue
        cleaned = "".join(ch for ch in tok if not unicodedata.category(ch).startswith("P"))
        if cleaned:
            out.append(cleaned)
    return out


class Vocab:
    """Word and character id maps with fixed special ids."""

    def __init__(self, word_to_id: dict[str, int], char_to_id: dict[str, int],
                 word_freq: dict[str, int] | None = None):
        self.word_to_id = word_to_id
        self.char_to_id = char_to_id
        self.word_freq = word_freq or {}
        self.id_to_word = {i: w for w, i in word_to_id.items()}
        self.id_to_char = {i: c for c, i in char_to_id.items()}

    @property
    def word_size(self) -> int:
        return len(self.word_to_id)

    @property
    def char_size(self) -> int:
        return len(self.char_to_id)

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token, UNK_ID)

    def char_ids(self, token: str, max_word_len: int = 20) -> list[int]:
        if token in SPECIALS:
            return [self.word_to_id[token]]
        ids = [self.char_to_id.get(ch, UNK_ID) for ch in token]
        return ids[:max_word_len]

    def decode(self, ids) -> list[str]:
        return [self.id_to_word.get(int(i), "[UNK]") for i in ids]

    def to_text(self) -> str:
        lines = ["# hitkit vocab v1\tblock\ttoken\tid\tfreq",
                 "# specials: " + " ".join(f"{s}={i}" for i, s in enumerate(SPECIALS))]
        for w, i in sorted(self.word_to_id.items(), key=lambda kv: kv[1]):
            lines.append(f"word\t{w}\t{i}\t{self.word_freq.get(w, 0)}")
        for c, i in sorted(self.char_to_id.items(), key=lambda kv: kv[1]):
            lines.append(f"char\t{c}\t{i}\t0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Vocab":
        """The vocabulary `to_text` wrote; anything it could not have written raises DataError."""
        maps = {"word": {}, "char": {}}
        word_freq = {}
        for n, line in enumerate(text.splitlines(), 1):
            if not line or line.startswith("#"):
                continue
            try:
                block, token, sid, sfreq = line.split("\t")
                maps[block][token], freq = int(sid), int(sfreq)
                if block == "word":
                    word_freq[token] = freq
            except (ValueError, KeyError):
                raise DataError(f"vocab.tsv line {n}: expected word or char, a token, an "
                                f"integer id and an integer count, tab-separated, "
                                f"got {line[:60]!r}") from None
        for block, ids in maps.items():
            if sorted(ids.values()) != list(range(len(ids))):
                raise DataError(f"vocab.tsv {block} ids are not 0 to {len(ids) - 1}, each once")
        return cls(maps["word"], maps["char"], word_freq)


def build_vocab(corpus, min_freq: int = 1) -> Vocab:
    """Ids follow the specials, ordered by descending frequency then lexicographic."""
    word_counts = Counter()
    char_counts = Counter()
    for tokens in corpus:
        for tok in tokens:
            word_counts[tok] += 1
            if tok not in SPECIALS:
                char_counts.update(tok)
    if not word_counts:
        raise DataError("build_vocab: empty corpus")
    word_to_id = {s: i for i, s in enumerate(SPECIALS)}
    for tok, freq in sorted(word_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if freq >= min_freq and tok not in word_to_id:
            word_to_id[tok] = len(word_to_id)
    char_to_id = {s: i for i, s in enumerate(SPECIALS)}
    for ch, freq in sorted(char_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if ch not in char_to_id:
            char_to_id[ch] = len(char_to_id)
    return Vocab(word_to_id, char_to_id, dict(word_counts))


def flatten_dialog(turns, j: int, max_len: int = 40, lowercase: bool = True):
    """History of all turns before the j-th bot turn, wrapped in [CLS]/[EOS].

    Returns (input tokens, target tokens). History is token-truncated from
    the left so the input never exceeds max_len.
    """
    norm = [(turn["speaker"], turn["text"]) for turn in turns]
    bot_positions = [i for i, (spk, _) in enumerate(norm) if spk == "bot"]
    if not 1 <= j <= len(bot_positions):
        raise DataError(f"dialog has {len(bot_positions)} bot turns, cannot take turn {j}")
    cut = bot_positions[j - 1]
    history: list[str] = []
    for spk, text in norm[:cut]:
        history.extend(preprocess_text(text, lowercase))
    budget = max(max_len - 2, 0)
    history = history[len(history) - budget:] if len(history) > budget else history
    source = ["[CLS]"] + history + ["[EOS]"]
    target = ["[CLS]"] + preprocess_text(norm[cut][1], lowercase) + ["[EOS]"]
    return source, target


def iob_encode(tokens, slots: dict[str, str], lowercase: bool = True) -> list[str]:
    """Tag the leftmost exact token match of each slot value, B-/I- style.

    Slots claim positions in lexicographic name order; later slots may only
    match windows that are still unclaimed. Unmatched values are logged.
    """
    n = len(tokens)
    tags = ["O"] * n
    claimed = [False] * n
    for name in sorted(slots):
        value_tokens = preprocess_text(str(slots[name]), lowercase)
        if not value_tokens:
            log.warning("slot %r has an empty value after preprocessing", name)
            continue
        width = len(value_tokens)
        placed = False
        for start in range(n - width + 1):
            window = tokens[start:start + width]
            if list(window) == value_tokens and not any(claimed[start:start + width]):
                tags[start] = f"B-{name}"
                for k in range(start + 1, start + width):
                    tags[k] = f"I-{name}"
                for k in range(start, start + width):
                    claimed[k] = True
                placed = True
                break
        if not placed:
            log.warning("slot %r value %r not found in tokens", name, slots[name])
    return tags


@dataclass
class EncodedExample:
    """Word ids, per-word char-id rows, and a task target."""

    word_ids: list[int]
    char_ids: list[list[int]]
    target: Any = None
    features: np.ndarray | None = None
    guid: Any = None

    @property
    def n_words(self) -> int:
        return len(self.word_ids)


def encode_example(tokens, vocab: Vocab, target=None, max_len: int = 40,
                   max_word_len: int = 20, guid=None) -> EncodedExample:
    tokens = list(tokens)[:max_len]
    if not tokens:
        raise DataError("encode_example: no tokens")
    return EncodedExample([vocab.word_id(t) for t in tokens],
                          [vocab.char_ids(t, max_word_len) for t in tokens],
                          target=target, guid=guid)


_KINDS = ("classification", "labeling", "generation", "dialog")


_LABEL_TYPES = (str, int, float, bool)  # a label or intent; it is used as its str()


def _check_record(obj, kind: str):
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    if kind == "classification":
        if not isinstance(obj.get("text"), str) or "label" not in obj:
            raise ValueError("classification record needs 'text' and 'label'")
        if not isinstance(obj["label"], _LABEL_TYPES):
            raise ValueError(f"classification label must be a string, number or bool, "
                             f"got {json.dumps(obj['label'])}")
    elif kind == "labeling":
        toks, tags = obj.get("tokens"), obj.get("tags")
        if not isinstance(toks, list) or not isinstance(tags, list):
            raise ValueError("labeling record needs 'tokens' and 'tags' lists")
        if len(toks) != len(tags):
            raise ValueError(f"labeling record has {len(toks)} tokens but {len(tags)} tags")
        for name, items in (("tokens", toks), ("tags", tags)):
            bad = [x for x in items if not isinstance(x, str)]
            if bad:
                raise ValueError(f"labeling {name} must be strings, got {json.dumps(bad[0])}")
        if "" in toks:
            raise ValueError(f"labeling token {toks.index('') + 1} is an empty string")
    elif kind == "generation":
        if not isinstance(obj.get("source"), str) or not isinstance(obj.get("target"), str):
            raise ValueError("generation record needs 'source' and 'target'")
    elif kind == "dialog":
        turns = obj.get("turns")
        if not isinstance(turns, list) or not turns:
            raise ValueError("dialog record needs a non-empty 'turns' list")
        for t in turns:
            if not isinstance(t, dict) or t.get("speaker") not in ("user", "bot") or not isinstance(t.get("text"), str):
                raise ValueError("each turn needs speaker in {user, bot} and text")
        slots = obj.get("slots", {})
        if not isinstance(slots, dict) or not all(isinstance(v, str) for v in slots.values()):
            raise ValueError("dialog 'slots' must map slot names to string values")
        if "intent" in obj and not isinstance(obj["intent"], _LABEL_TYPES):
            raise ValueError(f"dialog intent must be a string, number or bool, "
                             f"got {json.dumps(obj['intent'])}")
    return obj


def load_dataset(path, kind: str) -> list[dict]:
    if kind not in _KINDS:
        raise DataError(f"unknown dataset kind {kind!r}")
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_check_record(json.loads(line), kind))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return records


def split_dataset(records, ratio: float = 0.9, seed: int = 0):
    """Seeded shuffle then partition; returns (first, rest)."""
    records = list(records)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    cut = int(round(len(records) * ratio))
    return [records[i] for i in order[:cut]], [records[i] for i in order[cut:]]


def dialog_to_generation(record, max_len: int = 40, lowercase: bool = True):
    """One (source tokens, target tokens) pair per bot turn."""
    turns = record["turns"]
    n_bot = sum(1 for t in turns if t["speaker"] == "bot")
    return [flatten_dialog(turns, j, max_len, lowercase) for j in range(1, n_bot + 1)]


def dialog_to_labeling(record, lowercase: bool = True):
    """IOB-tag the last user turn against the record's slot values."""
    turns = record["turns"]
    user_texts = [t["text"] for t in turns if t["speaker"] == "user"]
    if not user_texts:
        raise DataError("dialog record has no user turn to tag")
    tokens = preprocess_text(user_texts[-1], lowercase)
    tags = iob_encode(tokens, record.get("slots", {}), lowercase)
    return {"tokens": tokens, "tags": tags}


def dialog_to_classification(record):
    """Intent label on the last user turn."""
    turns = record["turns"]
    user_texts = [t["text"] for t in turns if t["speaker"] == "user"]
    if not user_texts or "intent" not in record:
        raise DataError("dialog record needs a user turn and an 'intent' field")
    return {"text": user_texts[-1], "label": record["intent"]}
