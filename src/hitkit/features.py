"""tf-idf n-gram features concatenated to the pooled neural representation.

Two blocks are fitted jointly: word n-grams (n in 1..3) over stopword-filtered
tokens, and character n-grams (n in 1..3) over the space-joined token string.
Document frequency is presence-based and n-grams outside [min_df, max_df]
(absolute document counts) are dropped. idf uses the smoothed form
ln((1 + n_docs) / (1 + df)) + 1; transforms are L2-normalized over the
concatenated blocks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Small bundled stopword list; callers may extend it per dataset.
STOPWORDS = frozenset("""
a an the and or but if then else of to in on at for from by with without is are
was were be been being am do does did have has had this that these those it its
he she they them his her their we you i me my your our us as so not no nor
""".split())

NGRAM_RANGE = (1, 2, 3)


@dataclass
class TfidfVocab:
    word_ngrams: dict[tuple[str, ...], int]
    char_ngrams: dict[str, int]
    word_df: dict[tuple[str, ...], int]
    char_df: dict[str, int]
    n_docs: int
    min_df: int = 2
    max_df: int = 6
    stopwords: frozenset = field(default_factory=lambda: STOPWORDS)
    idf: np.ndarray = field(init=False)

    def __post_init__(self):
        """idf of each retained n-gram, word block first, from the document frequencies."""
        self.idf = np.zeros(self.dim)
        offset = len(self.word_ngrams)
        for g, i in self.word_ngrams.items():
            self.idf[i] = np.log((1 + self.n_docs) / (1 + self.word_df[g])) + 1.0
        for g, i in self.char_ngrams.items():
            self.idf[offset + i] = np.log((1 + self.n_docs) / (1 + self.char_df[g])) + 1.0

    @property
    def dim(self) -> int:
        return len(self.word_ngrams) + len(self.char_ngrams)


def _word_grams(tokens, stopwords) -> list[tuple[str, ...]]:
    kept = [t for t in tokens if t not in stopwords]
    grams = []
    for n in NGRAM_RANGE:
        grams.extend(tuple(kept[i:i + n]) for i in range(len(kept) - n + 1))
    return grams


def _char_grams(tokens) -> list[str]:
    text = " ".join(tokens)
    grams = []
    for n in NGRAM_RANGE:
        grams.extend(text[i:i + n] for i in range(len(text) - n + 1))
    return grams


def tfidf_fit(corpus, stopwords=STOPWORDS, min_df: int = 2, max_df: int = 6) -> TfidfVocab:
    """Fit both n-gram blocks over a corpus of preprocessed token lists."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("tfidf_fit: empty corpus")
    stopwords = frozenset(stopwords)
    word_docs = Counter()
    char_docs = Counter()
    for tokens in corpus:
        word_docs.update(set(_word_grams(tokens, stopwords)))
        char_docs.update(set(_char_grams(tokens)))
    n_docs = len(corpus)

    def retained(df_counter):
        kept = {g: df for g, df in df_counter.items() if min_df <= df <= max_df}
        return {g: i for i, g in enumerate(sorted(kept))}, kept

    word_index, word_df = retained(word_docs)
    char_index, char_df = retained(char_docs)
    return TfidfVocab(word_index, char_index, word_df, char_df, n_docs,
                      min_df=min_df, max_df=max_df, stopwords=stopwords)


def tfidf_transform(vocab: TfidfVocab, tokens) -> np.ndarray:
    """tf * idf over both blocks, L2-normalized; unseen n-grams contribute nothing."""
    vec = np.zeros(vocab.dim)
    offset = len(vocab.word_ngrams)
    for g, count in Counter(_word_grams(tokens, vocab.stopwords)).items():
        i = vocab.word_ngrams.get(g)
        if i is not None:
            vec[i] = count * vocab.idf[i]
    for g, count in Counter(_char_grams(tokens)).items():
        i = vocab.char_ngrams.get(g)
        if i is not None:
            vec[offset + i] = count * vocab.idf[offset + i]
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def tfidf_to_text(vocab: TfidfVocab) -> str:
    import json

    lines = [
        "# hitkit tfidf vocab v1; idf = ln((1+n_docs)/(1+df)) + 1; L2-normalized tf*idf",
        f"# n_docs={vocab.n_docs} min_df={vocab.min_df} max_df={vocab.max_df}",
        "# block\tn\tgram\tdf\tidx",
    ]
    for g, i in sorted(vocab.word_ngrams.items(), key=lambda kv: kv[1]):
        lines.append(f"word\t{len(g)}\t{json.dumps(' '.join(g))}\t{vocab.word_df[g]}\t{i}")
    for g, i in sorted(vocab.char_ngrams.items(), key=lambda kv: kv[1]):
        lines.append(f"char\t{len(g)}\t{json.dumps(g)}\t{vocab.char_df[g]}\t{i}")
    return "\n".join(lines) + "\n"


def tfidf_from_text(text: str, stopwords=STOPWORDS) -> TfidfVocab:
    import json

    n_docs, min_df, max_df = 0, 2, 6
    word_index, char_index, word_df, char_df = {}, {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# n_docs="):
            parts = dict(p.split("=") for p in line[2:].split())
            n_docs, min_df, max_df = int(parts["n_docs"]), int(parts["min_df"]), int(parts["max_df"])
            continue
        if not line or line.startswith("#"):
            continue
        block, n, gram_json, df, idx = line.split("\t")
        gram = json.loads(gram_json)
        if block == "word":
            key = tuple(gram.split(" "))
            word_index[key] = int(idx)
            word_df[key] = int(df)
        else:
            char_index[gram] = int(idx)
            char_df[gram] = int(df)
    return TfidfVocab(word_index, char_index, word_df, char_df, n_docs,
                      min_df=min_df, max_df=max_df, stopwords=frozenset(stopwords))
