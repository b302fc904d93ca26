import numpy as np
import pytest

from hitkit import data as D
from hitkit import tensor as T
from hitkit.model import DecoderState
from hitkit.train import (
    TrainConfig,
    build_classifier,
    build_mlm,
    build_seq2seq,
    build_tagger,
    build_zsl,
    seed_streams,
)

from oracles import recompute_greedy_decode

CORPUS = [["red", "cat"], ["blue", "dog"], ["red", "dog"], ["green", "bird"]]


def tiny_cfg(**kw):
    base = dict(d_model=8, n_heads=2, l_c=1, l_w=1, l_dec=1, dropout=0.0,
                epochs=5, batch_size=4, max_len=12, max_word_len=8)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def vocab():
    return D.build_vocab(CORPUS)


def encode(tokens, vocab, target=None):
    return D.encode_example(tokens, vocab, target=target, max_len=12, max_word_len=8)


class TestClassification:
    def test_probabilities_sum_to_one(self, vocab):
        cfg = tiny_cfg()
        model = build_classifier(cfg, vocab.word_size, vocab.char_size, 3,
                                 seed_streams(0)["init"])
        probs = model.predict_probs([encode(["red", "cat"], vocab)])[0]
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_single_class_degenerate(self, vocab):
        model = build_classifier(tiny_cfg(), vocab.word_size, vocab.char_size, 1,
                                 seed_streams(1)["init"])
        probs = model.predict_probs([encode(["blue"], vocab)])[0]
        assert probs.tolist() == [1.0]

    def test_expected_parameter_names(self, vocab):
        model = build_classifier(tiny_cfg(), vocab.word_size, vocab.char_size, 2,
                                 seed_streams(3)["init"])
        names = set(model.named_parameters())
        assert "word_hit.layer0.fame.wq_self" in names
        assert "char_hit.char_emb" in names
        assert "char_hit.pool.context" in names
        assert "head.w" in names


class TestTagging:
    def test_rows_sum_to_one_and_row_count(self, vocab):
        model = build_tagger(tiny_cfg(), vocab.word_size, vocab.char_size, 3,
                             seed_streams(4)["init"])
        ex = encode(["red", "cat", "dog"], vocab, target=[0, 1, 2])
        [probs] = model.predict_probs([ex])
        assert probs.shape == (3, 3)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    def test_tag_length_mismatch_rejected(self, vocab):
        model = build_tagger(tiny_cfg(), vocab.word_size, vocab.char_size, 2,
                             seed_streams(5)["init"])
        with pytest.raises(ValueError, match="length mismatch"):
            model.loss_batch([encode(["red", "cat"], vocab, target=[0])])


class TestMlm:
    def test_rows_sum_to_one(self, vocab):
        model = build_mlm(tiny_cfg(), vocab.word_size, vocab.char_size,
                          seed_streams(6)["init"])
        ex = encode(["red", "cat"], vocab)
        ex.target = [-1, vocab.word_id("cat")]
        [probs] = model.predict_probs([ex])
        assert probs.shape == (2, vocab.word_size)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    def test_misaligned_targets_rejected(self, vocab):
        model = build_mlm(tiny_cfg(), vocab.word_size, vocab.char_size,
                          seed_streams(7)["init"])
        a = encode(["red", "cat"], vocab)
        a.target = [vocab.word_id("red"), -1, vocab.word_id("cat")]
        b = encode(["blue", "dog", "red"], vocab)
        b.target = [-1, vocab.word_id("dog")]
        with pytest.raises(ValueError, match="length mismatch"):
            model.loss_batch([a, b])

    def test_no_modified_positions_raises_empty_loss(self, vocab):
        model = build_mlm(tiny_cfg(), vocab.word_size, vocab.char_size,
                          seed_streams(7)["init"])
        ex = encode(["red", "cat"], vocab)
        ex.target = [-1, -1]
        with pytest.raises(ValueError, match="empty loss"):
            model.loss_batch([ex])

    def test_tiny_corpus_memorization(self):
        from hitkit.pretrain import mask_tokens
        from hitkit.train import TrainConfig, train
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(10)]
        corpus = [[words[rng.integers(10)] for _ in range(5)] for _ in range(10)]
        vocab = D.build_vocab(corpus)
        cfg = TrainConfig(d_model=32, n_heads=4, l_c=1, l_w=1, dropout=0.0, epochs=120,
                          batch_size=16, max_len=10, max_word_len=6, seed=0,
                          plateau_patience=120, early_stop_patience=120)
        model = build_mlm(cfg, vocab.word_size, vocab.char_size, seed_streams(0)["init"])
        mask_rng = np.random.default_rng(5)
        items = []
        for i, toks in enumerate(corpus):
            ids = [D.CLS_ID] + [vocab.word_id(t) for t in toks] + [D.EOS_ID]
            inputs, targets, _ = mask_tokens(ids, vocab, mask_rng)
            if all(t == -1 for t in targets):
                continue
            chars = [vocab.char_ids(t, 6) for t in (["[CLS]"] + toks + ["[EOS]"])]
            items.append(D.EncodedExample(inputs, chars, target=targets, guid=i))

        def masked_top1(m):
            good, total = 0, 0
            for ex, probs in zip(items, m.predict_probs(items)):
                for pos, t in enumerate(ex.target):
                    if t != -1:
                        good += int(np.argmax(probs[pos]) == t)
                        total += 1
            return good / total

        train(model, items, items, cfg, epoch_hook=lambda m, e, s: masked_top1(m) == 1.0)
        assert masked_top1(model) == 1.0


class TestSeq2Seq:
    def make(self, vocab, seed=8):
        return build_seq2seq(tiny_cfg(), vocab.word_size, vocab.char_size,
                             seed_streams(seed)["init"])

    def source(self, vocab):
        return encode(["[CLS]", "red", "cat", "[EOS]"], vocab)

    def test_causal_mask_exact(self, vocab):
        model = self.make(vocab)
        src = self.source(vocab)
        with T.no_grad():
            memory = model.encoder.word_states([src])
            tgt_a = [D.CLS_ID, 5, 6, 7]
            tgt_b = [D.CLS_ID, 5, 8, 7]  # differs at position 2
            out_a = model.decode_logits([tgt_a], memory, [src.n_words]).data
            out_b = model.decode_logits([tgt_b], memory, [src.n_words]).data
        assert np.array_equal(out_a[:2], out_b[:2])
        assert not np.array_equal(out_a[2:], out_b[2:])

    def test_eos_maximizing_head_decodes_empty(self, vocab):
        model = self.make(vocab, seed=9)
        bias = np.zeros(vocab.word_size)
        bias[D.EOS_ID] = 1000.0
        model.out_b.assign(bias)
        assert model.greedy_decode(self.source(vocab)) == []

    def test_decode_deterministic(self, vocab):
        model = self.make(vocab, seed=10)
        src = self.source(vocab)
        assert model.greedy_decode(src) == model.greedy_decode(src)

    def test_decode_respects_max_out(self, vocab):
        model = self.make(vocab, seed=11)
        bias = np.zeros(vocab.word_size)
        bias[6] = 1000.0  # never emits [EOS]
        model.out_b.assign(bias)
        assert model.greedy_decode(self.source(vocab), max_out=4) == [6, 6, 6, 6]

    @pytest.mark.parametrize("score", ["tanh", "softmax"])
    @pytest.mark.parametrize("combine", ["true_outer_projected", "hadamard"])
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_incremental_decode_matches_recompute_oracle(self, vocab, score, combine, seed):
        cfg = tiny_cfg(l_dec=2, opa_score=score, opa_combine=combine)
        model = build_seq2seq(cfg, vocab.word_size, vocab.char_size, seed_streams(seed)["init"])
        for tokens in (["[CLS]", "red", "cat", "[EOS]"], ["[CLS]", "blue", "[EOS]"]):
            src = encode(tokens, vocab)
            ids, probs = model.greedy_decode(src, return_probs=True)
            want_ids, want_probs = recompute_greedy_decode(model, src, model.max_out)
            assert ids == want_ids
            assert np.max(np.abs(np.subtract(probs, want_probs)), initial=0.0) < 1e-9

    def test_incremental_decode_runs_to_length_cap_like_oracle(self, vocab):
        cfg = tiny_cfg(l_dec=2)
        model = build_seq2seq(cfg, vocab.word_size, vocab.char_size, seed_streams(23)["init"])
        bias = np.zeros(vocab.word_size)
        bias[D.EOS_ID] = -1e4
        model.out_b.assign(bias)
        src = self.source(vocab)
        ids, probs = model.greedy_decode(src, max_out=50, return_probs=True)
        want_ids, want_probs = recompute_greedy_decode(model, src, 50)
        assert len(ids) == cfg.max_len - 1
        assert ids == want_ids
        assert np.max(np.abs(np.subtract(probs, want_probs))) < 1e-9

    @pytest.mark.parametrize("score", ["tanh", "softmax"])
    @pytest.mark.parametrize("combine", ["true_outer_projected", "hadamard"])
    def test_step_logits_match_decode_logits_at_every_prefix(self, vocab, score, combine):
        cfg = tiny_cfg(l_dec=2, opa_score=score, opa_combine=combine)
        model = build_seq2seq(cfg, vocab.word_size, vocab.char_size, seed_streams(24)["init"])
        src = self.source(vocab)
        seq = [D.CLS_ID] + [int(t) for t in np.random.default_rng(25).integers(
            0, vocab.word_size, cfg.max_len - 1)]
        with T.no_grad():
            memory = model.encoder.word_states([src])
            state = DecoderState(model, memory)
            for t, token in enumerate(seq):
                step = model.decode_logits([[token]], state=state).data[0]
                full = model.decode_logits([seq[:t + 1]], memory, [src.n_words]).data[t]
                assert np.max(np.abs(step - full)) < 1e-12

    def test_a_state_step_under_a_graph_or_of_two_sequences_raises(self, vocab):
        src = self.source(vocab)
        for combine in ("true_outer_projected", "hadamard"):
            model = build_seq2seq(tiny_cfg(opa_combine=combine), vocab.word_size,
                                  vocab.char_size, seed_streams(28)["init"])
            with T.no_grad():
                state = DecoderState(model, model.encoder.word_states([src]))
            with pytest.raises(ValueError, match="no_grad"):
                model.decode_logits([[D.CLS_ID]], state=state)
            with T.no_grad(), pytest.raises(T.ShapeError, match="one sequence"):
                model.decode_logits([[D.CLS_ID], [D.CLS_ID]], state=state)

    @pytest.mark.parametrize("targets", [[[D.CLS_ID, 5]], [[]], []],
                             ids=["two_ids", "no_id", "no_sequence"])
    def test_a_state_step_takes_one_id_of_one_sequence(self, vocab, targets):
        cfg = tiny_cfg()
        model = build_seq2seq(cfg, vocab.word_size, vocab.char_size, seed_streams(29)["init"])
        with T.no_grad():
            state = DecoderState(model, model.encoder.word_states([self.source(vocab)]))
            with pytest.raises(T.ShapeError, match="one id of one sequence"):
                model.decode_logits(targets, state=state)
            assert state.t == 0
            for _ in range(cfg.max_len):
                model.decode_logits([[5]], state=state)
            with pytest.raises(T.ShapeError, match=rf"\[\[5\]\] at {cfg.max_len}$"):
                model.decode_logits([[5]], state=state)

    def test_teacher_forcing_loss_runs_and_is_finite(self, vocab):
        model = self.make(vocab, seed=12)
        ex = self.source(vocab)
        ex.target = [D.CLS_ID, vocab.word_id("red"), vocab.word_id("cat"), D.EOS_ID]
        loss = model.loss_batch([ex], training=True, rng=np.random.default_rng(0))
        assert np.isfinite(loss.item())
        T.backward(loss)
        assert model.tgt_emb.grad is not None

    @pytest.mark.parametrize("case", ["cls_only", "past_max_len"])
    def test_target_that_is_empty_or_past_max_len_is_rejected(self, vocab, case):
        model = self.make(vocab, seed=12)
        good = self.source(vocab)
        good.target = [D.CLS_ID, vocab.word_id("red"), D.EOS_ID]
        bad = self.source(vocab)
        # no decoder input at all, or 13 inputs where max_len is 12
        bad.target = {"cls_only": [D.CLS_ID],
                      "past_max_len": [D.CLS_ID] + [vocab.word_id("cat")] * 12 + [D.EOS_ID]}[case]
        with pytest.raises(T.ShapeError, match="cap 12"):
            model.loss_batch([good, bad])

    def test_decoder_gradients_match_finite_differences(self, vocab):
        from hitkit.attention import FameConfig
        from hitkit.model import DecoderLayer
        from helpers import check_gradients
        cfg = FameConfig(d_model=4, n_heads=2, max_len=8)
        layer = DecoderLayer(cfg, 8, 0.0, np.random.default_rng(30), "dec")
        x = T.Tensor(np.random.default_rng(31).standard_normal((3, 4)), requires_grad=True)
        memory = T.Tensor(np.random.default_rng(32).standard_normal((2, 4)), requires_grad=True)
        probe = T.Tensor(np.random.default_rng(33).standard_normal((3, 4)))
        leaves = [x, memory] + [p.tensor for p in layer.parameters()]

        def loss():
            return T.sum_all(T.mul(layer.forward(x, [(1, 3, 3)], memory, [(1, 3, 2)]), probe))

        check_gradients(loss, leaves)


class TestZsl:
    def make(self, vocab, seed=13):
        return build_zsl(tiny_cfg(), vocab.word_size, vocab.char_size,
                         seed_streams(seed)["init"])

    @staticmethod
    def score(model, a, b) -> float:
        with T.no_grad():
            return T.cosine_similarity(model.embed(a), model.embed(b)).item()

    def test_identical_inputs_score_one(self, vocab):
        model = self.make(vocab)
        ex = encode(["red", "cat"], vocab)
        assert abs(self.score(model, ex, ex) - 1.0) < 1e-6

    def test_score_in_range_and_symmetric(self, vocab):
        model = self.make(vocab)
        a = encode(["red", "cat"], vocab)
        b = encode(["blue", "dog"], vocab)
        s_ab = self.score(model, a, b)
        s_ba = self.score(model, b, a)
        assert -1.0 <= s_ab <= 1.0
        assert abs(s_ab - s_ba) < 1e-12

    def test_classify_picks_the_label_phrase_equal_to_the_text(self, vocab):
        model = self.make(vocab)
        phrases = [encode(t, vocab) for t in (["red", "cat"], ["blue", "dog"], ["green", "bird"])]
        assert model.classify(phrases[::-1], phrases) == [2, 1, 0]

    def test_zero_norm_embedding_errors(self):
        with pytest.raises(ValueError, match="zero-norm"):
            T.cosine_similarity(T.Tensor(np.zeros(4)), T.Tensor(np.ones(4)))

    def test_pair_loss_gradient_flows(self, vocab):
        model = self.make(vocab, seed=14)
        a = encode(["red", "cat"], vocab)
        b = encode(["blue", "dog"], vocab)
        loss = model.pair_loss([(a, b, True), (a, b, False)], training=False)
        T.backward(loss)
        assert model.encoder.word_hit.emb.grad is not None
