import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit.data import preprocess_text
from hitkit.features import (
    NGRAM_RANGE,
    tfidf_fit,
    tfidf_from_text,
    tfidf_to_text,
    tfidf_transform,
)

DOCS = [["red", "cat"], ["red", "dog"], ["red", "cat", "dog"]]


def char_gram_df_oracle(corpus):
    """Independent presence-based char n-gram counting."""
    df = {}
    for tokens in corpus:
        text = " ".join(tokens)
        grams = set()
        for n in NGRAM_RANGE:
            for i in range(len(text) - n + 1):
                grams.add(text[i:i + n])
        for g in grams:
            df[g] = df.get(g, 0) + 1
    return df


class TestFit:
    def test_single_doc_corpus_is_empty(self):
        vocab = tfidf_fit([["only", "doc"]])
        assert vocab.dim == 0

    def test_too_frequent_ngram_dropped(self):
        corpus = [["red"]] * 7 + [["blue"]] * 3
        vocab = tfidf_fit(corpus)
        assert ("red",) not in vocab.word_ngrams  # df 7 > 6
        assert ("blue",) in vocab.word_ngrams

    def test_three_doc_word_block_matches_hand_enumeration(self):
        vocab = tfidf_fit(DOCS)
        assert vocab.word_ngrams == {("cat",): 0, ("dog",): 1, ("red",): 2, ("red", "cat"): 3}
        assert vocab.word_df == {("cat",): 2, ("dog",): 2, ("red",): 3, ("red", "cat"): 2}

    def test_three_doc_char_block_matches_counting_oracle(self):
        vocab = tfidf_fit(DOCS)
        df = char_gram_df_oracle(DOCS)
        expected = {g: d for g, d in df.items() if 2 <= d <= 6}
        assert vocab.char_df == expected
        assert list(vocab.char_ngrams) == sorted(expected)

    def test_stopwords_removed_from_word_block_only(self):
        corpus = [["the", "cat"], ["the", "cat"]]
        vocab = tfidf_fit(corpus)
        assert all("the" not in g for g in vocab.word_ngrams)
        assert "the" in vocab.char_ngrams  # char grams keep the raw text

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError, match="empty"):
            tfidf_fit([])

    def test_idf_strictly_decreases_with_df(self):
        corpus = [["aa", "bb"], ["aa", "bb"], ["aa"], ["aa"]]
        vocab = tfidf_fit(corpus)
        idf_aa = vocab.idf[vocab.word_ngrams[("aa",)]]  # df 4
        idf_bb = vocab.idf[vocab.word_ngrams[("bb",)]]  # df 2
        assert idf_bb > idf_aa
        assert abs(idf_aa - (math.log(5 / 5) + 1)) < 1e-12
        assert abs(idf_bb - (math.log(5 / 3) + 1)) < 1e-12


class TestTransform:
    def test_disjoint_text_gives_zero_vector(self):
        vocab = tfidf_fit(DOCS)
        vec = tfidf_transform(vocab, ["zzz"])
        assert np.all(vec == 0.0)

    def test_nonzero_output_is_unit_norm(self):
        vocab = tfidf_fit(DOCS)
        vec = tfidf_transform(vocab, ["red", "cat"])
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_toy_text_matches_hand_computation(self):
        vocab = tfidf_fit(DOCS)
        tokens = ["red", "cat"]
        expected = np.zeros(vocab.dim)
        expected[vocab.word_ngrams[("cat",)]] = math.log(4 / 3) + 1
        expected[vocab.word_ngrams[("red",)]] = math.log(4 / 4) + 1
        expected[vocab.word_ngrams[("red", "cat")]] = math.log(4 / 3) + 1
        text = "red cat"
        offset = len(vocab.word_ngrams)
        counts = {}
        for n in NGRAM_RANGE:
            for i in range(len(text) - n + 1):
                g = text[i:i + n]
                counts[g] = counts.get(g, 0) + 1
        for g, c in counts.items():
            if g in vocab.char_ngrams:
                idx = offset + vocab.char_ngrams[g]
                expected[idx] = c * (math.log(4 / (1 + vocab.char_df[g])) + 1)
        expected /= np.linalg.norm(expected)
        vec = tfidf_transform(vocab, tokens)
        assert np.max(np.abs(vec - expected)) < 1e-10

    def test_empty_text_gives_zero_vector(self):
        vocab = tfidf_fit(DOCS)
        assert np.all(tfidf_transform(vocab, []) == 0.0)

    def test_deterministic_and_corpus_order_independent(self):
        a = tfidf_fit(DOCS)
        b = tfidf_fit(list(reversed(DOCS)))
        text = ["red", "dog"]
        assert np.array_equal(tfidf_transform(a, text), tfidf_transform(b, text))

    def test_no_nan_or_inf_on_training_docs(self):
        vocab = tfidf_fit(DOCS)
        for doc in DOCS:
            vec = tfidf_transform(vocab, doc)
            assert np.all(np.isfinite(vec))


class TestPersistence:
    def test_text_roundtrip_preserves_transform(self):
        vocab = tfidf_fit(DOCS)
        loaded = tfidf_from_text(tfidf_to_text(vocab))
        assert loaded.dim == vocab.dim
        assert np.array_equal(loaded.idf, vocab.idf)
        for doc in DOCS + [["red", "zzz", "dog"]]:
            assert np.allclose(tfidf_transform(vocab, doc), tfidf_transform(loaded, doc))

    @given(st.lists(st.text(max_size=30), min_size=1, max_size=8),
           st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_text_roundtrip_of_any_corpus(self, raw_lines, min_df, extra):
        """tfidf_to_text/tfidf_from_text keep every n-gram, df, index and idf of any fitted vocab."""
        corpus = [preprocess_text(line) for line in raw_lines]
        vocab = tfidf_fit(corpus, min_df=min_df, max_df=min_df + extra)
        loaded = tfidf_from_text(tfidf_to_text(vocab))
        assert loaded.word_ngrams == vocab.word_ngrams and loaded.char_ngrams == vocab.char_ngrams
        assert loaded.word_df == vocab.word_df and loaded.char_df == vocab.char_df
        assert (loaded.n_docs, loaded.min_df, loaded.max_df) == (vocab.n_docs, min_df, min_df + extra)
        assert np.array_equal(loaded.idf, vocab.idf)
        for tokens in corpus:
            assert np.array_equal(tfidf_transform(loaded, tokens), tfidf_transform(vocab, tokens))

    def test_header_records_formula(self):
        head = tfidf_to_text(tfidf_fit(DOCS)).splitlines()[0]
        assert "idf = ln((1+n_docs)/(1+df)) + 1" in head
