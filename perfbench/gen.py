"""Seeded generator of noisy code-mixed (romanised Hindi/English) text.

The lexicon of 2,000 romanised words is fixed: it is built from a constant
seed, so every run sees the same word list and the same Zipfian rank order.
The run seed picks which words a sentence uses, which of them carry spelling
noise (a dropped letter, a doubled letter or an elongated vowel), the casing
and punctuation, and the class labels. Sentence-length schedules are fixed
per workload, so each run does the same amount of work and differs only in
content; ``token_stats`` and ``length_histogram`` describe what a run got.

Each input stream draws from its own generator, keyed by (stream, seed), so
the vocabulary corpus and the timed inputs never coincide.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

LEXICON_SEED = 20220426
LEXICON_SIZE = 2000
ZIPF_EXPONENT = 1.1
ZIPF_OFFSET = 1.0
NOISE_RATE = 0.16
N_CLASSES = 4
TRAIN, EMBED, GENERATE, CORPUS = range(1, 5)  # generator stream keys

# High-rank function words of romanised Hindi and English, as in code-mixed posts.
COMMON = ["hai", "the", "to", "ki", "ka", "main", "is", "nahi", "a", "and", "ke", "bhi",
          "ho", "se", "yaar", "me", "kya", "you", "it", "par", "bahut", "i", "so", "na",
          "aur", "for", "toh", "ye", "this", "hi", "good", "h", "koi", "are", "not", "but",
          "mera", "tum", "acha", "kar", "ab", "wo", "was", "of", "abhi", "din", "log"]
ONSETS = ["", "b", "bh", "ch", "d", "dh", "g", "gh", "h", "j", "k", "kh", "l", "m", "n",
          "p", "ph", "r", "s", "sh", "t", "th", "v", "w", "y", "z", "st", "pr", "tr", "gr"]
VOWELS = ["a", "aa", "e", "i", "ee", "o", "oo", "u", "ai", "au", "ya"]
CODAS = ["", "", "", "n", "r", "l", "m", "k", "t", "s", "ng", "h"]
PUNCT = ["", "", "", "", "!", "?", "..", ",", "!!"]
VOWEL_CHARS = "aeiou"

# Fixed length schedules (see module docstring).
TRAIN_LENGTHS = list(range(4, 13)) * 3 + [6, 7, 8, 9, 10]  # 32 sentences, mean 8 words
EMBED_LENGTHS = list(range(3, 41))                          # one of each length per block
GENERATE_OUT_LENGTHS = (10, 20, 39)
GENERATE_SRC_LENGTHS = list(range(4, 13))


def lexicon() -> list[str]:
    """The 2,000 distinct romanised words, most frequent first."""
    rng = np.random.default_rng(LEXICON_SEED)
    words = list(COMMON)
    seen = set(words)
    while len(words) < LEXICON_SIZE:
        n_syl = int(rng.choice([1, 2, 2, 2, 3, 3, 4]))
        w = "".join(ONSETS[rng.integers(len(ONSETS))] + VOWELS[rng.integers(len(VOWELS))]
                    for _ in range(n_syl))
        w += CODAS[rng.integers(len(CODAS))]
        if 2 <= len(w) <= 12 and w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_probs(n: int = LEXICON_SIZE) -> np.ndarray:
    p = 1.0 / (np.arange(n) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    return p / p.sum()


def add_noise(word: str, rng: np.random.Generator) -> str:
    """One spelling error of the kind informal romanised text is full of."""
    kind = int(rng.integers(3))
    if kind == 0 and len(word) >= 3:  # dropped letter
        i = int(rng.integers(1, len(word)))
        return word[:i] + word[i + 1:]
    if kind == 1:  # doubled letter
        i = int(rng.integers(len(word)))
        return word[:i + 1] + word[i] + word[i + 1:]
    vowels = [i for i, ch in enumerate(word) if ch in VOWEL_CHARS]  # elongation
    i = vowels[-1] if vowels else len(word) - 1
    return word[:i + 1] + word[i] * int(rng.integers(2, 5)) + word[i + 1:]


class TextGen:
    """Draws noisy sentences from the fixed lexicon with a seeded generator."""

    def __init__(self, seed: int, stream: int):
        self.rng = np.random.default_rng([stream, seed])
        self.words = lexicon()
        self.probs = zipf_probs(len(self.words))

    def tokens(self, n: int) -> list[str]:
        """n clean-after-preprocessing word tokens, some with spelling noise."""
        idx = self.rng.choice(len(self.words), size=n, p=self.probs)
        noisy = self.rng.random(n) < NOISE_RATE
        return [add_noise(self.words[i], self.rng) if z else self.words[i]
                for i, z in zip(idx, noisy)]

    def sentence(self, n: int) -> str:
        """Raw text of n words: random capitals and trailing punctuation."""
        out = []
        for tok in self.tokens(n):
            if self.rng.random() < 0.1:
                tok = tok.capitalize()
            out.append(tok + PUNCT[self.rng.integers(len(PUNCT))])
        return " ".join(out)

    def label(self) -> int:
        return int(self.rng.integers(N_CLASSES))

    def permutation(self, items) -> list:
        return [items[i] for i in self.rng.permutation(len(items))]


def train_batches(seed: int, n_batches: int) -> list[list[tuple[str, int]]]:
    """Batches of 32 (text, label) pairs; each batch has the TRAIN_LENGTHS multiset."""
    g = TextGen(seed, TRAIN)
    return [[(g.sentence(n), g.label()) for n in g.permutation(TRAIN_LENGTHS)]
            for _ in range(n_batches)]


def embed_stream(seed: int):
    """Endless sentences in blocks of 38, one of each length 3..40 in a fixed order."""
    g = TextGen(seed, EMBED)
    order = np.random.default_rng(LEXICON_SEED).permutation(EMBED_LENGTHS)
    while True:
        for n in order:
            yield g.sentence(int(n))


def generate_stream(seed: int):
    """Endless (source text, output length) pairs; output lengths cycle 10 / 20 / 39."""
    g = TextGen(seed, GENERATE)
    while True:
        for out_len in GENERATE_OUT_LENGTHS:
            yield g.sentence(int(g.rng.choice(GENERATE_SRC_LENGTHS))), out_len


def corpus(seed: int, n: int) -> list[str]:
    """Sentences of 4..12 words, for building a vocabulary before a checkpoint is written."""
    g = TextGen(seed, CORPUS)
    return [g.sentence(int(g.rng.integers(4, 13))) for _ in range(n)]


def token_stats(token_lists) -> dict:
    """Distinct words, word occurrences and their ratio over a group of sentences."""
    counts = Counter(t for toks in token_lists for t in toks)
    total = sum(counts.values())
    return {"distinct": len(counts), "occurrences": total,
            "unique_ratio": len(counts) / total if total else 0.0}


def length_histogram(token_lists) -> dict[int, int]:
    return dict(sorted(Counter(len(t) for t in token_lists).items()))
