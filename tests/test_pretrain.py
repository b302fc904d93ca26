import numpy as np
import pytest

from hitkit import data as D
from hitkit import tensor as T
from hitkit.checkpoint import load_checkpoint, save_checkpoint
from hitkit.optim import adam_step
from hitkit.pretrain import MaskPlan, mask_tokens, transfer_load, zsl_build_pairs
from hitkit.train import TrainConfig, build_classifier, build_mlm, seed_streams


@pytest.fixture
def vocab():
    corpus = [[f"tok{i}" for i in range(20)]]
    return D.build_vocab(corpus)


class TestMaskTokens:
    def test_specials_only_errors(self, vocab):
        with pytest.raises(ValueError, match="eligible"):
            mask_tokens([D.CLS_ID, D.EOS_ID, D.PAD_ID], vocab, np.random.default_rng(0))

    def test_plan_never_touches_specials_and_preserves_length(self, vocab):
        rng = np.random.default_rng(1)
        ids = [D.CLS_ID] + list(range(5, 15)) + [D.EOS_ID, D.PAD_ID]
        inputs, targets, plan = mask_tokens(ids, vocab, rng)
        assert len(inputs) == len(ids)
        assert inputs[0] == D.CLS_ID and inputs[-2] == D.EOS_ID and inputs[-1] == D.PAD_ID
        assert all(1 <= pos <= 10 for pos in plan.positions)
        assert targets[0] == -1 and targets[-1] == -1

    def test_selection_and_action_statistics(self, vocab):
        rng = np.random.default_rng(2)
        n_eligible = 0
        n_selected = 0
        actions = {"mask": 0, "random": 0, "keep": 0}
        for _ in range(2000):
            ids = [D.CLS_ID] + [int(rng.integers(5, vocab.word_size)) for _ in range(50)] + [D.EOS_ID]
            _, _, plan = mask_tokens(ids, vocab, rng)
            n_eligible += 50
            n_selected += len(plan.positions)
            for a in plan.actions:
                actions[a] += 1
        rate = n_selected / n_eligible
        assert abs(rate - 0.15) < 0.01
        assert abs(actions["mask"] / n_selected - 0.80) < 0.02
        assert abs(actions["random"] / n_selected - 0.10) < 0.02
        assert abs(actions["keep"] / n_selected - 0.10) < 0.02

    def test_mask_action_writes_mask_id(self, vocab):
        rng = np.random.default_rng(3)
        ids = [D.CLS_ID] + list(range(5, 25)) + [D.EOS_ID]
        inputs, targets, plan = mask_tokens(ids, vocab, rng)
        for pos, action in zip(plan.positions, plan.actions):
            assert targets[pos] == ids[pos]
            if action == "mask":
                assert inputs[pos] == D.MASK_ID
            elif action == "keep":
                assert inputs[pos] == ids[pos]
            else:
                assert 5 <= inputs[pos] < vocab.word_size

    def test_fixed_seed_replays_identically(self, vocab):
        ids = [D.CLS_ID] + list(range(5, 25)) + [D.EOS_ID]

        def run():
            return mask_tokens(ids, vocab, np.random.default_rng(77), seed=77)

        a_in, a_tgt, a_plan = run()
        b_in, b_tgt, b_plan = run()
        assert a_in == b_in and a_tgt == b_tgt
        assert a_plan == b_plan == MaskPlan(a_plan.positions, a_plan.actions, seed=77)


class TestZslPairs:
    def test_two_label_negative_is_forced(self):
        pairs = zsl_build_pairs([("x", 0)], ["pos", "neg"], np.random.default_rng(0))
        contradicts = [p for p in pairs if p.polarity == "contradict"]
        assert len(contradicts) == 1 and contradicts[0].label == "neg"

    def test_pair_count_arithmetic(self):
        dataset = [("a", 0), ("b", 1), ("c", 2)]
        pairs = zsl_build_pairs(dataset, ["l0", "l1", "l2"], np.random.default_rng(1),
                                neg_per_pos=3)
        assert len(pairs) == 3 * (1 + 3)

    def test_single_label_errors(self):
        with pytest.raises(ValueError, match="2 labels"):
            zsl_build_pairs([("a", 0)], ["only"], np.random.default_rng(2))

    def test_negative_sampling_is_uniform(self):
        rng = np.random.default_rng(3)
        dataset = [("x", 0)] * 10_000
        labels = ["l0", "l1", "l2", "l3"]
        pairs = zsl_build_pairs(dataset, labels, rng)
        counts = {l: 0 for l in labels[1:]}
        for p in pairs:
            if p.polarity == "contradict":
                counts[p.label] += 1
        for l, c in counts.items():
            assert abs(c / 10_000 - 1 / 3) < 0.03


class TestTransfer:
    def cfg(self, **kw):
        base = dict(d_model=8, n_heads=2, l_c=1, l_w=1, dropout=0.0, epochs=3,
                    batch_size=4, max_len=12, max_word_len=8)
        base.update(kw)
        return TrainConfig(**base)

    def pretrained_path(self, tmp_path, vocab, cfg=None):
        cfg = cfg or self.cfg()
        mlm = build_mlm(cfg, vocab.word_size, vocab.char_size, seed_streams(5)["init"])
        path = tmp_path / "mlm_ckpt"
        save_checkpoint(path, mlm.parameter_arrays(), {"task": "mlm"})
        return path, mlm

    def test_encoder_copied_and_head_fresh(self, tmp_path, vocab):
        path, mlm = self.pretrained_path(tmp_path, vocab)
        clf = build_classifier(self.cfg(), vocab.word_size, vocab.char_size, 2,
                               seed_streams(6)["init"])
        head_before = clf.head_w.data.copy()
        transfer_load(clf, load_checkpoint(path), "finetune")
        stored = mlm.encoder.word_hit.emb.data.astype(np.float32).astype(np.float64)
        assert np.array_equal(clf.encoder.word_hit.emb.data, stored)
        assert np.array_equal(clf.head_w.data, head_before)

    def test_frozen_encoder_is_bit_identical_after_training(self, tmp_path, vocab):
        path, _ = self.pretrained_path(tmp_path, vocab)
        clf = build_classifier(self.cfg(), vocab.word_size, vocab.char_size, 2,
                               seed_streams(7)["init"])
        transfer_load(clf, load_checkpoint(path), "frozen")
        snapshot = {p.name: p.data.copy() for p in clf.parameters()
                    if p.name.startswith(("char_hit.", "word_hit."))}
        examples = [D.encode_example(["tok1", "tok2"], vocab, target=0, max_len=12, max_word_len=8),
                    D.encode_example(["tok3"], vocab, target=1, max_len=12, max_word_len=8)]
        for _ in range(3):
            loss = model_loss = clf.loss_batch(examples, training=False)
            T.backward(model_loss)
            for p in clf.parameters():
                if p.name.startswith(("char_hit.", "word_hit.")):
                    assert p.grad is None  # frozen: gradients identically absent
            adam_step(clf.trainable_parameters(), lr=0.01)
        for name, arr in snapshot.items():
            assert np.array_equal(arr, clf.named_parameters()[name].data)
        assert not np.array_equal(clf.head_w.data,
                                  build_classifier(self.cfg(), vocab.word_size,
                                                   vocab.char_size, 2,
                                                   seed_streams(7)["init"]).head_w.data)

    def test_load_then_save_roundtrip_bit_identical(self, tmp_path, vocab):
        path, _ = self.pretrained_path(tmp_path, vocab)
        clf = build_classifier(self.cfg(), vocab.word_size, vocab.char_size, 2,
                               seed_streams(8)["init"])
        transfer_load(clf, load_checkpoint(path), "finetune")
        out = tmp_path / "resaved"
        encoder_arrays = {p.name: p.data for p in clf.parameters()
                          if p.name.startswith(("char_hit.", "word_hit."))}
        save_checkpoint(out, encoder_arrays, {"task": "mlm"})
        original = load_checkpoint(path)
        resaved = load_checkpoint(out)
        for name in encoder_arrays:
            assert np.array_equal(original.params[name], resaved.params[name])

    def test_shape_mismatch_lists_names(self, tmp_path, vocab):
        path, _ = self.pretrained_path(tmp_path, vocab)
        wide = build_classifier(self.cfg(d_model=16), vocab.word_size, vocab.char_size, 2,
                                seed_streams(9)["init"])
        with pytest.raises(ValueError, match="word_hit.word_emb"):
            transfer_load(wide, load_checkpoint(path), "finetune")

    def test_invalid_mode_rejected(self, tmp_path, vocab):
        path, _ = self.pretrained_path(tmp_path, vocab)
        clf = build_classifier(self.cfg(), vocab.word_size, vocab.char_size, 2,
                               seed_streams(10)["init"])
        with pytest.raises(ValueError, match="frozen"):
            transfer_load(clf, load_checkpoint(path), "sideways")
