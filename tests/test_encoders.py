import math

import numpy as np
import pytest

from hitkit import tensor as T
from hitkit.attention import FameConfig
from hitkit.data import EncodedExample
from hitkit.encoders import (
    CharHit,
    EncoderLayer,
    HierPool,
    HitEncoder,
    positional_encoding,
    positional_table,
)

from helpers import check_gradients


def make_config(d=8, heads=2, max_len=40):
    return FameConfig(d_model=d, n_heads=heads, max_len=max_len)


def make_encoder(l_c=1, l_w=1, d=8, dropout=0.0, seed=0, word_vocab=20, char_vocab=15):
    return HitEncoder(word_vocab, char_vocab, make_config(d=d), l_c=l_c, l_w=l_w,
                      d_ff=2 * d, dropout_rate=dropout, max_word_len=20,
                      rng=np.random.default_rng(seed))


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def sentence(word_ids, char_rows):
    """One example for the batched encoder calls."""
    return EncodedExample(list(word_ids), [list(row) for row in char_rows])


class TestEncoderLayer:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_shape_preserved(self, n):
        layer = EncoderLayer(make_config(), 16, 0.0, np.random.default_rng(1), "enc")
        out = layer.forward(T.Tensor(rand((n, 8), n)))
        assert out.shape == (n, 8)

    def test_eval_mode_deterministic(self):
        layer = EncoderLayer(make_config(), 16, 0.5, np.random.default_rng(2), "enc")
        x = T.Tensor(rand((4, 8), 3))
        a = layer.forward(x)
        b = layer.forward(x)
        assert np.array_equal(a.data, b.data)

    def test_gradient_through_layer(self):
        cfg = FameConfig(d_model=4, n_heads=2, max_len=8)
        layer = EncoderLayer(cfg, 8, 0.0, np.random.default_rng(4), "enc")
        x = T.Tensor(rand((3, 4), 5), requires_grad=True)
        w = T.Tensor(rand((3, 4), 6))
        leaves = [x] + layer.parameters()
        check_gradients(lambda: T.sum_all(T.mul(layer.forward(x), w)), leaves)


class TestHierPool:
    def test_single_row_returned_exactly(self):
        pool = HierPool(6, np.random.default_rng(7), "pool")
        row = rand((1, 6), 8)
        out = pool.forward(T.Tensor(row), [(1, 1)])
        assert np.max(np.abs(out.data - row)) < 1e-12

    def test_identical_rows_returned(self):
        pool = HierPool(5, np.random.default_rng(9), "pool")
        row = rand((1, 5), 10)
        out = pool.forward(T.Tensor(np.tile(row, (4, 1))), [(1, 4)])
        assert np.max(np.abs(out.data - row)) < 1e-12

    def test_hand_arithmetic_case(self):
        pool = HierPool(2, np.random.default_rng(11), "pool")
        pool.proj_w.assign(np.eye(2))
        pool.proj_b.assign([0.1, -0.2])
        pool.context.assign([0.5, 1.0])
        h = np.array([[0.2, 0.3], [-0.4, 0.5], [0.7, -0.1]])
        scores = [math.tanh(r[0] + 0.1) * 0.5 + math.tanh(r[1] - 0.2) * 1.0 for r in h]
        e = np.exp(np.array(scores) - max(scores))
        a = e / e.sum()
        expected = (a[:, None] * h).sum(axis=0)
        out = pool.forward(T.Tensor(h), [(1, 3)])
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_gradient(self):
        pool = HierPool(3, np.random.default_rng(15), "pool")
        h = T.Tensor(rand((4, 3), 16), requires_grad=True)
        leaves = [h] + pool.parameters()
        check_gradients(lambda: T.sum_all(T.tanh(pool.forward(h, [(1, 4)]))), leaves)


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(0, 8)
        assert np.array_equal(pe[0::2], np.zeros(4))
        assert np.array_equal(pe[1::2], np.ones(4))

    def test_values_bounded(self):
        table = positional_table(40, 16)
        assert np.all(table <= 1.0) and np.all(table >= -1.0)

    def test_direct_formula(self):
        pe = positional_encoding(1, 4)
        expected = [math.sin(1.0), math.cos(1.0),
                    math.sin(1.0 / 10000.0 ** (2 / 4)), math.cos(1.0 / 10000.0 ** (2 / 4))]
        assert np.max(np.abs(pe - np.array(expected))) < 1e-12


class TestCharHit:
    def test_same_word_twice_identical(self):
        enc = make_encoder(seed=17)
        a = enc.char_hit.encode_word([5, 6, 7])
        b = enc.char_hit.encode_word([5, 6, 7])
        assert np.array_equal(a.data, b.data)

    def test_one_character_word_reduces_to_its_encoding(self):
        enc = make_encoder(seed=18)
        ch = enc.char_hit
        out = ch.encode_word([9])
        x = T.add(T.embedding_lookup(ch.emb, [9]), T.Tensor(ch.pos[:1]))
        for layer in ch.layers:
            x = layer.forward(x)
        assert np.max(np.abs(out.data - x.data[0])) < 1e-12

    def test_empty_word_errors(self):
        enc = make_encoder(seed=19)
        with pytest.raises(ValueError, match="empty"):
            enc.char_hit.encode_word([])

    def test_shared_char_parameters_accumulate_gradients(self):
        enc = make_encoder(seed=20)
        ctx = enc.char_hit.pool.context

        def grad_for(words):
            ctx.grad = None
            total = None
            for w in words:
                s = T.sum_all(enc.char_hit.encode_word(w))
                total = s if total is None else T.add(total, s)
            T.backward(total)
            return ctx.grad.copy()

        g_both = grad_for([[5, 6], [7, 8, 9]])
        g_first = grad_for([[5, 6]])
        g_second = grad_for([[7, 8, 9]])
        assert np.max(np.abs(g_both - (g_first + g_second))) < 1e-12


class TestWordLevelForward:
    @pytest.mark.parametrize("n", [1, 40])
    def test_output_shape(self, n):
        enc = make_encoder(seed=21)
        words = [5] * n
        chars = [[6, 7]] * n
        out = enc.word_states([sentence(words, chars)])
        assert out.shape == (n, 8)

    def test_unknown_word_uses_unk_row_deterministically(self):
        enc = make_encoder(seed=22)
        a = enc.word_states([sentence([1], [[5, 6]])])
        b = enc.word_states([sentence([1], [[5, 6]])])
        assert np.array_equal(a.data, b.data)

    def test_zero_word_layers_is_identity_stack(self):
        enc = make_encoder(l_w=0, seed=23)
        words = [5, 6, 7]
        chars = [[5], [6, 7], [8]]
        out = enc.word_states([sentence(words, chars)])
        h_char = np.stack([enc.char_hit.encode_word(c).data for c in chars])
        expected = h_char + enc.word_hit.emb.data[words] + enc.word_hit.pos[:3]
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_empty_sequence_errors(self):
        enc = make_encoder(seed=24)
        with pytest.raises(ValueError):
            enc.word_states([sentence([], [])])

    def test_overflow_rejected_here(self):
        enc = make_encoder(seed=25)
        with pytest.raises(T.ShapeError):
            enc.word_states([sentence([5] * 41, [[6]] * 41)])


class TestSentenceEmbed:
    def test_single_word_sentence_is_word_representation(self):
        enc = make_encoder(seed=27)
        out = enc.sentence_vectors([sentence([5], [[6, 7]])])
        h = enc.word_states([sentence([5], [[6, 7]])])
        assert np.max(np.abs(out.data - h.data)) < 1e-12

    def test_dimension_without_features(self):
        enc = make_encoder(seed=28)
        assert enc.sentence_vectors([sentence([5, 6], [[5], [6]])]).shape == (1, 8)

    def test_mean_matches_loop_oracle(self):
        enc = make_encoder(seed=30)
        words = [5, 6, 7, 8]
        chars = [[5], [6], [7], [8]]
        h = enc.word_states([sentence(words, chars)])
        expected = (h.data[0] + h.data[1] + h.data[2] + h.data[3]) / 4
        out = enc.sentence_vectors([sentence(words, chars)])
        assert np.max(np.abs(out.data[0] - expected)) < 1e-10

    def test_gradient_through_whole_encoder(self):
        enc = make_encoder(l_c=1, l_w=1, d=4, seed=31)
        words = [5, 6]
        chars = [[5, 6], [7]]
        w = T.Tensor(rand((1, 4), 32))
        leaves = enc.parameters()

        def loss():
            return T.sum_all(T.mul(enc.sentence_vectors([sentence(words, chars)]), w))

        check_gradients(loss, leaves)
