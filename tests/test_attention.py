import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit import tensor as T
from hitkit.attention import (
    FameConfig,
    FameLayer,
    fame_forward,
    fame_fuse,
    msa_forward,
    multi_head_attention,
    opa_forward,
)

from helpers import check_gradients
from oracles import fame_oracle, layer_arrays, msa_oracle, opa_oracle


def make_layer(d=4, heads=1, score="tanh", combine="true_outer_projected", seed=0):
    cfg = FameConfig(d_model=d, n_heads=heads, opa_score=score, opa_combine=combine, max_len=8)
    return FameLayer(cfg, np.random.default_rng(seed))


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def causal_case(seed):
    """Two groups of whole sequences, as the decoder sends them under teacher forcing:
    (groups, rows, each sequence's slice of the rows)."""
    groups = [(1, 5, 5), (2, 4, 4)]
    bounds = [0, 5, 9, 13]
    return groups, rand((13, 4), seed), [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def assert_prefix_rows(out, x, seqs, oracle):
    """Each row equals `oracle` on its sequence's rows up to its own position."""
    for seq in seqs:
        rows = x[seq]
        for pos in range(len(rows)):
            assert np.max(np.abs(out[seq.start + pos] - oracle(rows[:pos + 1])[pos])) < 1e-10


class TestMsa:
    def test_single_token_attends_to_itself(self):
        layer = make_layer(d=4, heads=2, seed=1)
        x = rand((1, 4), 2)
        out = msa_forward(layer, T.Tensor(x))
        expected = (x @ layer.wv_self.data) @ layer.wo_self.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_identical_keys_give_uniform_weights(self):
        layer = make_layer(d=4, heads=2, seed=3)
        layer.wk_self.assign(np.zeros((4, 4)))  # every key is zero, so every score is equal
        x = rand((5, 4), 4)
        out = msa_forward(layer, T.Tensor(x))
        expected = (x @ layer.wv_self.data).mean(axis=0) @ layer.wo_self.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        layer = make_layer(d=4, heads=1, seed=5)
        x = rand((3, 4), 6)
        out = msa_forward(layer, T.Tensor(x))
        la = layer_arrays(layer)
        expected = msa_oracle(x, la["wq_self"], la["wk_self"], la["wv_self"], la["wo_self"], 1)
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_causal_mask_matches_prefix_oracle(self):
        layer = make_layer(d=4, heads=2, seed=50)
        groups, x, seqs = causal_case(51)
        out = msa_forward(layer, T.Tensor(x), groups, causal=True)
        la = layer_arrays(layer)
        assert_prefix_rows(out.data, x, seqs, lambda keys: msa_oracle(
            keys, la["wq_self"], la["wk_self"], la["wv_self"], la["wo_self"], 2))

    def test_permuting_key_value_rows_leaves_outputs_unchanged(self):
        layer = make_layer(d=4, heads=2, seed=11)
        x_q = rand((3, 4), 12)
        x_kv = rand((5, 4), 13)
        perm = [4, 2, 0, 3, 1]
        groups = [(1, 3, 5)]
        base = multi_head_attention(layer.wq_self, layer.wk_self, layer.wv_self,
                                    layer.wo_self, 2, T.Tensor(x_q), T.Tensor(x_kv), groups)
        permuted = multi_head_attention(layer.wq_self, layer.wk_self, layer.wv_self,
                                        layer.wo_self, 2, T.Tensor(x_q),
                                        T.Tensor(x_kv[perm]), groups)
        assert np.max(np.abs(base.data - permuted.data)) < 1e-8


class TestOpa:
    def test_zero_input_gives_zero_output(self):
        layer = make_layer(d=4, score="tanh", combine="true_outer_projected", seed=14)
        out = opa_forward(layer, T.Tensor(np.zeros((3, 4))))
        assert np.all(out.data == 0.0)

    def test_hadamard_hand_arithmetic(self):
        layer = make_layer(d=2, combine="hadamard", seed=15)
        layer.wq_outer.assign(np.eye(2))
        layer.wk_outer.assign(2 * np.eye(2))
        layer.wv_outer.assign([[1.0, 2.0], [3.0, 4.0]])
        layer.wo_outer.assign(np.eye(2))
        x = np.array([[0.3, -0.5]])
        q = np.array([0.3, -0.5])
        k = np.array([0.6, -1.0])
        v = np.array([0.3 * 1 + (-0.5) * 3, 0.3 * 2 + (-0.5) * 4])
        s = np.array([math.tanh(q[0] * k[0] / math.sqrt(2)), math.tanh(q[1] * k[1] / math.sqrt(2))])
        expected = s * v
        out = opa_forward(layer, T.Tensor(x))
        assert np.max(np.abs(out.data[0] - expected)) < 1e-12

    def test_true_outer_matches_loop_oracle(self):
        layer = make_layer(d=2, combine="true_outer_projected", seed=16)
        x = rand((2, 2), 17)
        la = layer_arrays(layer)
        expected = opa_oracle(x, la["wq_outer"], la["wk_outer"], la["wv_outer"],
                              la["wo_outer"], "tanh", "true_outer_projected")
        out = opa_forward(layer, T.Tensor(x))
        assert np.max(np.abs(out.data - expected)) < 1e-10

    @pytest.mark.parametrize("score", ["tanh", "softmax"])
    @pytest.mark.parametrize("combine", ["true_outer_projected", "hadamard"])
    def test_all_configs_match_oracle(self, score, combine):
        layer = make_layer(d=4, score=score, combine=combine, seed=18)
        x = rand((3, 4), 19)
        la = layer_arrays(layer)
        expected = opa_oracle(x, la["wq_outer"], la["wk_outer"], la["wv_outer"],
                              la["wo_outer"], score, combine)
        out = opa_forward(layer, T.Tensor(x))
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_causal_mask_matches_prefix_oracle(self):
        layer = make_layer(d=4, heads=2, seed=52)
        groups, x, seqs = causal_case(53)
        out = opa_forward(layer, T.Tensor(x), groups, causal=True)
        la = layer_arrays(layer)
        assert_prefix_rows(out.data, x, seqs, lambda keys: opa_oracle(
            keys, la["wq_outer"], la["wk_outer"], la["wv_outer"], la["wo_outer"],
            "tanh", "true_outer_projected"))

    def test_a_recorded_word_layer_keeps_no_aggregate_for_backward(self, monkeypatch):
        d, lengths = 64, (4, 4, 3, 2, 2, 1)
        layer = make_layer(d=d, heads=4, seed=20)
        rows = sum(lengths)
        x = T.Tensor(rand((rows, d), 21), requires_grad=True)
        groups = [(1, n, n) for n in lengths]
        monkeypatch.setattr(T, "OPA_BLOCK_BYTES", 4 * rows * d * 8)  # 4 features per block
        aggregate = rows * d * d * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = opa_forward(layer, x, groups)
            alive = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # what the graph holds for backward: projections, scores and output, no aggregate
        assert alive < aggregate / 2, (alive, aggregate)
        T.backward(T.sum_all(out))
        assert x.grad is not None


class TestFuse:
    def test_equal_logits_average(self):
        layer = make_layer(seed=20)
        layer.fusion_logits.assign([0.0, 0.0])
        zs = T.Tensor(rand((3, 4), 21))
        zo = T.Tensor(rand((3, 4), 22))
        out = fame_fuse(layer, zs, zo)
        assert np.max(np.abs(out.data - 0.5 * (zs.data + zo.data))) < 1e-12

    def test_saturated_logits_pick_self(self):
        layer = make_layer(seed=23)
        layer.fusion_logits.assign([40.0, -40.0])
        zs = T.Tensor(rand((3, 4), 24))
        zo = T.Tensor(rand((3, 4), 25))
        out = fame_fuse(layer, zs, zo)
        assert np.max(np.abs(out.data - zs.data)) < 1e-6

    def test_random_logits_direct_arithmetic(self):
        layer = make_layer(seed=26)
        logits = rand((2,), 27)
        layer.fusion_logits.assign(logits)
        a = np.exp(logits - logits.max())
        a = a / a.sum()
        assert abs(a.sum() - 1.0) < 1e-9
        zs = T.Tensor(rand((2, 4), 28))
        zo = T.Tensor(rand((2, 4), 29))
        out = fame_fuse(layer, zs, zo)
        assert np.max(np.abs(out.data - (a[0] * zs.data + a[1] * zo.data))) < 1e-12

    def test_shape_mismatch(self):
        layer = make_layer()
        with pytest.raises(T.ShapeError):
            fame_fuse(layer, T.Tensor(rand((2, 4))), T.Tensor(rand((3, 4))))

    # beyond a logit gap of ~37 the smaller weight underflows past 1 - ulp,
    # so the open-interval check is only meaningful on a representable range
    @given(st.floats(-15, 15), st.floats(-15, 15))
    @settings(max_examples=200, deadline=None)
    def test_fusion_weights_are_a_distribution(self, l1, l2):
        layer = make_layer(seed=30)
        layer.fusion_logits.assign([l1, l2])
        a1, a2 = layer.fusion_weights()
        assert 0.0 < a1 < 1.0 and 0.0 < a2 < 1.0
        assert abs(a1 + a2 - 1.0) < 1e-9


class TestFameForward:
    def test_reduces_to_msa(self):
        layer = make_layer(d=4, heads=2, seed=31)
        layer.fusion_logits.assign([40.0, -40.0])
        x = T.Tensor(rand((3, 4), 32))
        fused = fame_forward(layer, x)
        pure = msa_forward(layer, x)
        assert np.max(np.abs(fused.data - pure.data)) < 1e-5

    def test_reduces_to_opa(self):
        layer = make_layer(d=4, heads=2, seed=33)
        layer.fusion_logits.assign([-40.0, 40.0])
        x = T.Tensor(rand((3, 4), 34))
        fused = fame_forward(layer, x)
        pure = opa_forward(layer, x)
        assert np.max(np.abs(fused.data - pure.data)) < 1e-5

    @pytest.mark.parametrize("score", ["tanh", "softmax"])
    @pytest.mark.parametrize("combine", ["true_outer_projected", "hadamard"])
    def test_matches_full_oracle(self, score, combine):
        layer = make_layer(d=4, heads=2, score=score, combine=combine, seed=35)
        layer.fusion_logits.assign(rand((2,), 36))
        x = rand((3, 4), 37)
        out = fame_forward(layer, T.Tensor(x))
        expected = fame_oracle(x, layer_arrays(layer), 2, score, combine)
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_output_shape_preserved(self):
        layer = make_layer(d=4, heads=2, seed=38)
        for n in (1, 3, 8):
            x = T.Tensor(rand((n, 4), n))
            assert fame_forward(layer, x).shape == (n, 4)

    @pytest.mark.parametrize("score", ["tanh", "softmax"])
    @pytest.mark.parametrize("combine", ["true_outer_projected", "hadamard"])
    def test_gradients_match_finite_differences(self, score, combine):
        layer = make_layer(d=4, heads=2, score=score, combine=combine, seed=39)
        x = T.Tensor(rand((3, 4), 40), requires_grad=True)
        w = T.Tensor(rand((3, 4), 41))
        leaves = [x] + layer.parameters()

        def loss():
            return T.sum_all(T.mul(fame_forward(layer, x), w))

        check_gradients(loss, leaves)


class TestPackedGroups:
    """Packed groups of whole sequences, as the encoders and the teacher-forced decoder
    send them, against one call per sequence."""

    # two sequences of three rows, then one of five
    GROUPS = [(2, 3, 3), (1, 5, 5)]

    def per_sequence(self):
        """Each sequence's slice of the packed rows, with its group of one."""
        start = 0
        for count, n, _ in self.GROUPS:
            for _ in range(count):
                yield slice(start, start + n), [(1, n, n)]
                start += n

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("score", ["tanh", "softmax"])
    @pytest.mark.parametrize("combine", ["true_outer_projected", "hadamard"])
    def test_packed_groups_match_per_sequence_calls(self, score, combine, causal):
        layer = make_layer(d=4, heads=2, score=score, combine=combine, seed=60)
        layer.fusion_logits.assign(rand((2,), 61))
        x = rand((11, 4), 62)
        packed = fame_forward(layer, T.Tensor(x), self.GROUPS, causal=causal).data
        for rows, group in self.per_sequence():
            alone = fame_forward(layer, T.Tensor(x[rows]), group, causal=causal).data
            assert np.max(np.abs(packed[rows] - alone)) < 1e-12

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("combine", ["true_outer_projected", "hadamard"])
    def test_packed_groups_gradients_match_finite_differences(self, combine, causal):
        layer = make_layer(d=4, heads=2, combine=combine, seed=64)
        x = T.Tensor(rand((11, 4), 65), requires_grad=True)
        w = T.Tensor(rand((11, 4), 67))
        leaves = [x] + layer.parameters()

        def loss():
            return T.sum_all(T.mul(fame_forward(layer, x, self.GROUPS, causal=causal), w))

        check_gradients(loss, leaves)

    @pytest.mark.parametrize("n", [10, 12])
    def test_groups_that_do_not_cover_the_rows_raise(self, n):
        layer = make_layer(seed=68)
        with pytest.raises(T.ShapeError, match="do not cover"):
            fame_forward(layer, T.Tensor(rand((n, 4))), self.GROUPS)


class TestCrossGroups:
    """Packed groups whose query length differs from their key length, as cross-attention
    sends them: multi_head_attention reads the keys and values from separate rows."""

    # two sequences of two queries over three keys, then one of one query over five keys
    GROUPS = [(2, 2, 3), (1, 1, 5)]

    def attend(self, layer, x_q, x_kv, groups):
        return multi_head_attention(layer.wq_self, layer.wk_self, layer.wv_self, layer.wo_self,
                                    2, x_q, x_kv, groups)

    def per_sequence(self):
        """Each sequence's (query rows, key rows, group of one) within the packed rows."""
        q0 = k0 = 0
        for count, lq, lkv in self.GROUPS:
            for _ in range(count):
                yield slice(q0, q0 + lq), slice(k0, k0 + lkv), [(1, lq, lkv)]
                q0, k0 = q0 + lq, k0 + lkv

    def test_packed_groups_match_per_sequence_calls(self):
        layer = make_layer(d=4, heads=2, seed=80)
        x, kv = rand((5, 4), 81), rand((11, 4), 82)
        packed = self.attend(layer, T.Tensor(x), T.Tensor(kv), self.GROUPS).data
        for q, k, group in self.per_sequence():
            alone = self.attend(layer, T.Tensor(x[q]), T.Tensor(kv[k]), group).data
            assert np.max(np.abs(packed[q] - alone)) < 1e-12

    def test_packed_groups_gradients_match_finite_differences(self):
        layer = make_layer(d=4, heads=2, seed=84)
        x = T.Tensor(rand((5, 4), 85), requires_grad=True)
        kv = T.Tensor(rand((11, 4), 86), requires_grad=True)
        w = T.Tensor(rand((5, 4), 87))
        leaves = [x, kv] + layer.parameters()[:4]  # the self branch's
        check_gradients(lambda: T.sum_all(T.mul(self.attend(layer, x, kv, self.GROUPS), w)),
                        leaves)

    @pytest.mark.parametrize("n_q,n_kv", [(4, 11), (5, 10), (6, 12)])
    def test_groups_that_do_not_cover_the_rows_raise(self, n_q, n_kv):
        layer = make_layer(seed=88)
        with pytest.raises(T.ShapeError, match="do not cover"):
            self.attend(layer, T.Tensor(rand((n_q, 4))), T.Tensor(rand((n_kv, 4))), self.GROUPS)
