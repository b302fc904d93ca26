import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit import tensor as T

from helpers import FD_RTOL, check_gradients, numeric_grad


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_orthogonal_rows(self):
        out = T.matmul(T.Tensor([[1.0, 0.0]]), T.Tensor([[0.0], [5.0]]))
        assert out.data.tolist() == [[0.0]]

    def test_matches_triple_loop_oracle(self):
        a = rand((3, 4), seed=1)
        b = rand((4, 2), seed=2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.Tensor(rand((2, 3))), T.Tensor(rand((2, 3))))

    def test_gradient(self):
        a = T.Tensor(rand((3, 4), 3), requires_grad=True)
        b = T.Tensor(rand((4, 2), 4), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.tanh(T.matmul(a, b))), [a, b])


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(T.softmax(T.Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_single_element(self):
        assert T.softmax(T.Tensor([3.7])).data.tolist() == [1.0]

    def test_known_values(self):
        out = T.softmax(T.Tensor([1.0, 2.0, 3.0])).data
        assert np.allclose(out, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_invalid_axis(self):
        with pytest.raises(T.ShapeError):
            T.softmax(T.Tensor([1.0, 2.0]), axis=3)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        base = T.softmax(T.Tensor(row)).data
        shifted = T.softmax(T.Tensor([v + shift for v in row])).data
        assert abs(base.sum() - 1.0) < 1e-6
        assert np.max(np.abs(base - shifted)) < 1e-6

    def test_masked_probabilities_are_zero(self):
        out = T.softmax(T.Tensor([1.0, 5.0, 2.0]), mask=[True, False, True]).data
        assert out[1] == 0.0
        assert abs(out.sum() - 1.0) < 1e-12

    def test_fully_masked_slice_errors(self):
        with pytest.raises(ValueError, match="masked"):
            T.softmax(T.Tensor([1.0, 2.0]), mask=[False, False])

    def test_gradient(self):
        x = T.Tensor(rand((3, 4), 5), requires_grad=True)
        w = T.Tensor(rand((3, 4), 6))
        check_gradients(lambda: T.sum_all(T.mul(T.softmax(x, axis=-1), w)), [x])

    @given(st.integers(0, 2**32 - 1), st.integers(0, 1),
           st.lists(st.sampled_from([np.inf, -np.inf, np.nan, 0.0, 1e300, -1e300]),
                    min_size=12, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_masked_values_have_no_effect(self, seed, axis, fill):
        """Output and gradient do not depend on what masked positions hold, even inf or nan."""
        rng = np.random.default_rng(seed)
        mask = rng.random((3, 4)) < 0.5
        if axis == 0:  # keep one position of every slice unmasked
            mask[rng.integers(3, size=4), np.arange(4)] = True
        else:
            mask[np.arange(3), rng.integers(4, size=3)] = True
        base = rng.standard_normal((3, 4))
        probe = T.Tensor(rng.standard_normal((3, 4)))
        results = []
        for values in (base, np.where(mask, base, np.reshape(fill, (3, 4)))):
            x = T.Tensor(values, requires_grad=True)
            y = T.softmax(x, axis=axis, mask=mask)
            T.backward(T.sum_all(T.mul(y, probe)))
            results.append((y.data, x.grad))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


class TestElementwise:
    def test_tanh_of_zeros(self):
        assert np.all(T.tanh(T.Tensor(np.zeros((2, 3)))).data == 0.0)

    def test_mul_by_ones_is_identity(self):
        x = rand((4,), 7)
        assert np.array_equal(T.mul(T.Tensor(x), T.Tensor(np.ones(4))).data, x)

    def test_tanh_gradient_closed_form(self):
        x = T.Tensor(rand((5,), 8), requires_grad=True)
        T.backward(T.sum_all(T.tanh(x)))
        assert np.max(np.abs(x.grad - (1 - np.tanh(x.data) ** 2))) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.zeros(3)), T.Tensor(np.zeros(4)))

    @pytest.mark.parametrize("op", [T.tanh, T.relu, T.sigmoid, T.exp])
    def test_unary_gradients(self, op):
        x = T.Tensor(rand((6,), 9) * 0.7 + 0.1, requires_grad=True)
        check_gradients(lambda: T.sum_all(op(x)), [x])

    def test_log_sqrt_div_gradients(self):
        x = T.Tensor(np.abs(rand((5,), 10)) + 0.5, requires_grad=True)
        y = T.Tensor(np.abs(rand((5,), 11)) + 0.5, requires_grad=True)
        check_gradients(lambda: T.sum_all(T.log(x)), [x])
        check_gradients(lambda: T.sum_all(T.sqrt(x)), [x])
        check_gradients(lambda: T.sum_all(T.div(x, y)), [x, y])


class TestOuterProduct:
    def test_unit_vectors(self):
        out = T.outer_product(T.Tensor([1.0, 0.0]), T.Tensor([0.0, 1.0]))
        assert out.data.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_zero_vector(self):
        out = T.outer_product(T.Tensor(np.zeros(3)), T.Tensor(rand((3,), 1)))
        assert np.all(out.data == 0.0)

    def test_matches_double_loop_oracle(self):
        u, v = rand((4,), 12), rand((4,), 13)
        expected = np.array([[u[i] * v[j] for j in range(4)] for i in range(4)])
        assert np.max(np.abs(T.outer_product(T.Tensor(u), T.Tensor(v)).data - expected)) < 1e-12

    def test_rank_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.outer_product(T.Tensor(np.zeros(2)), T.Tensor(np.zeros(3)))

    def test_gradient(self):
        u = T.Tensor(rand((3,), 14), requires_grad=True)
        v = T.Tensor(rand((3,), 15), requires_grad=True)
        w = T.Tensor(rand((3, 3), 16))
        check_gradients(lambda: T.sum_all(T.mul(T.outer_product(u, v), w)), [u, v])


class TestLayerNorm:
    def gamma_beta(self, d):
        return T.Tensor(np.ones(d), requires_grad=True), T.Tensor(np.zeros(d), requires_grad=True)

    def test_constant_row_goes_to_zero(self):
        g, b = self.gamma_beta(4)
        out = T.layer_norm(T.Tensor(np.full((1, 4), 3.0)), g, b)
        assert np.max(np.abs(out.data)) <= 1e-2

    def test_standardized_row_unchanged(self):
        row = rand((1, 6), 17)
        row = (row - row.mean()) / row.std()
        g, b = self.gamma_beta(6)
        out = T.layer_norm(T.Tensor(row), g, b)
        assert np.max(np.abs(out.data - row)) < 1e-4

    def test_gradient(self):
        x = T.Tensor(rand((3, 5), 18), requires_grad=True)
        g = T.Tensor(np.ones(5) * 1.3, requires_grad=True)
        b = T.Tensor(rand((5,), 19), requires_grad=True)
        w = T.Tensor(rand((3, 5), 20))
        check_gradients(lambda: T.sum_all(T.mul(T.layer_norm(x, g, b), w)), [x, g, b])


class TestEmbedding:
    def test_first_row(self):
        table = T.Tensor(rand((5, 3), 21))
        assert np.array_equal(T.embedding_lookup(table, [0]).data[0], table.data[0])

    def test_repeated_id_accumulates_gradient(self):
        table = T.Tensor(rand((4, 2), 22), requires_grad=True)
        T.backward(T.sum_all(T.embedding_lookup(table, [1, 1])))
        single = T.Tensor(table.data, requires_grad=True)
        T.backward(T.sum_all(T.embedding_lookup(single, [1])))
        assert np.array_equal(table.grad[1], 2 * single.grad[1])

    def test_matches_loop_oracle(self):
        table = rand((6, 4), 23)
        ids = [3, 0, 5, 3]
        out = T.embedding_lookup(T.Tensor(table), ids)
        expected = np.stack([table[i] for i in ids])
        assert np.array_equal(out.data, expected)

    def test_out_of_range_names_id_and_size(self):
        with pytest.raises(ValueError, match="id 7 out of range for table of size 5"):
            T.embedding_lookup(T.Tensor(rand((5, 2))), [0, 7])

    def test_gradient(self):
        table = T.Tensor(rand((5, 3), 24), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.tanh(T.embedding_lookup(table, [0, 2, 2, 4]))), [table])


class TestCrossEntropy:
    def test_confident_correct_prediction(self):
        logits = T.Tensor([[40.0, 0.0, 0.0]])
        assert T.cross_entropy(logits, [0]).item() <= 1e-6

    def test_uniform_logits(self):
        c = 7
        loss = T.cross_entropy(T.Tensor(np.zeros((3, c))), [0, 3, 6])
        assert abs(loss.item() - math.log(c)) < 1e-12

    def test_matches_formula_oracle(self):
        logits = rand((2, 3), 25)
        targets = [2, 0]
        expected = 0.0
        for i, t in enumerate(targets):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            expected += -np.log(p[t])
        expected /= 2
        assert abs(T.cross_entropy(T.Tensor(logits), targets).item() - expected) < 1e-10

    def test_ignore_index_excluded(self):
        logits = rand((3, 4), 26)
        full = T.cross_entropy(T.Tensor(logits[:2]), [1, 3]).item()
        padded = T.cross_entropy(T.Tensor(logits), [1, 3, -1], ignore_index=-1).item()
        assert abs(full - padded) < 1e-12

    def test_all_ignored_errors(self):
        with pytest.raises(ValueError, match="empty loss"):
            T.cross_entropy(T.Tensor(rand((2, 3))), [-1, -1], ignore_index=-1)

    def test_gradient(self):
        logits = T.Tensor(rand((4, 3), 27), requires_grad=True)
        check_gradients(lambda: T.cross_entropy(logits, [0, 2, -1, 1], ignore_index=-1), [logits])


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(rand((3, 2), 28), requires_grad=True)
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_zero_scale_gives_zero_grad(self):
        x = T.Tensor(rand((4,), 29), requires_grad=True)
        T.backward(T.sum_all(T.scale(x, 0.0)))
        assert np.all(x.grad == 0.0)

    def test_non_scalar_loss_errors(self):
        with pytest.raises(T.ShapeError):
            T.backward(T.Tensor(np.zeros(3), requires_grad=True))

    def test_tape_cleared_after_backward(self):
        x = T.Tensor(rand((2,), 30), requires_grad=True)
        h = T.tanh(x)
        T.backward(T.sum_all(h))
        first = x.grad.copy()
        # the second loss reuses h; with the first tape gone, nothing flows back to x
        y = T.Tensor(rand((2,), 31), requires_grad=True)
        T.backward(T.sum_all(T.mul(h, y)))
        assert np.array_equal(x.grad, first)
        assert np.array_equal(y.grad, h.data)

    def test_grad_accumulates_across_backwards(self):
        x = T.Tensor(rand((3,), 31), requires_grad=True)
        T.backward(T.sum_all(x))
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, 2 * np.ones(3))

    def test_shared_input_gets_both_contributions(self):
        x = T.Tensor(rand((3,), 32), requires_grad=True)
        T.backward(T.sum_all(T.add(x, x)))
        assert np.array_equal(x.grad, 2 * np.ones(3))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["first_built_first", "last_built_first"])
    def test_independent_graphs_in_either_order(self, order):
        def graph(seed):
            leaf = T.Tensor(rand((3, 2), seed), requires_grad=True)
            return leaf, T.sum_all(T.tanh(T.matmul(leaf, T.Tensor(rand((2, 4), seed + 1)))))

        alone = []
        for seed in (40, 42):
            leaf, loss = graph(seed)
            T.backward(loss)
            alone.append(leaf.grad)
        graphs = [graph(40), graph(42)]
        for i in order:
            T.backward(graphs[i][1])
        for (leaf, _), expected in zip(graphs, alone):
            assert np.array_equal(leaf.grad, expected)

    def test_dropped_graph_is_freed(self):
        x = T.Tensor(rand((4, 4), 43), requires_grad=True)
        h = T.tanh(x)
        alive = weakref.ref(h.data)  # Tensor has __slots__, so watch its array
        T.sum_all(T.mul(h, h))  # a graph that is never backpropagated
        del h
        assert alive() is None

    def test_forward_that_raises_leaves_no_graph(self):
        x = T.Tensor(rand((3, 4), 44), requires_grad=True)
        w = T.Tensor(rand((4, 2), 45), requires_grad=True)
        loss = lambda: T.sum_all(T.tanh(T.matmul(x, w)))
        T.backward(loss())
        clean = x.grad, w.grad
        x.grad = w.grad = None
        alive = []

        def broken_forward():
            h = T.tanh(T.matmul(x, w))
            alive.append(weakref.ref(h.data))
            return T.add(h, T.Tensor(np.zeros((3, 3))))

        with pytest.raises(T.ShapeError):
            broken_forward()
        assert alive[0]() is None
        T.backward(loss())
        assert np.array_equal(x.grad, clean[0]) and np.array_equal(w.grad, clean[1])

    def test_no_grad_in_another_thread_leaves_this_threads_graph_alone(self):
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with T.no_grad():
                entered.set()
                release.wait(timeout=30)

        other = threading.Thread(target=hold_no_grad)
        other.start()
        try:
            assert entered.wait(timeout=30)
            assert T.is_recording()
            x = T.Tensor(rand((3, 2), 46), requires_grad=True)
            T.backward(T.sum_all(T.tanh(x)))
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert np.allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, rtol=0.0, atol=1e-15)
        assert T.is_recording()


class TestGraphKeepsWhatBackwardReads:
    """A node links to nodes and leaves, so an array no rule reads is freed with its tensor."""

    @staticmethod
    def freed_then_gradients(build, leaves):
        """build(watch) makes a loss, passing watch() the arrays no rule may keep.

        They must be gone before backward, and the gradients must still match central
        differences.
        """
        watched = []
        loss = build(lambda arr: watched.append(weakref.ref(arr)))
        assert watched and all(ref() is None for ref in watched)
        T.backward(loss)
        for leaf in leaves:
            numeric = numeric_grad(lambda: build(lambda arr: None), leaf)
            rel = np.linalg.norm(leaf.grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < FD_RTOL

    def test_pairwise_products_under_tanh_are_freed(self):
        q = T.Tensor(rand((2, 3, 4), 60), requires_grad=True)
        k = T.Tensor(rand((2, 5, 4), 61), requires_grad=True)
        probe = T.Tensor(rand((2, 3, 5, 4), 62))

        def build(watch):
            pairs = T.pairwise_hadamard(q, k)
            watch(pairs.data)
            return T.sum_all(T.mul(T.tanh(T.scale(pairs, 0.5)), probe))

        self.freed_then_gradients(build, [q, k])

    def test_a_residual_sum_under_layer_norm_is_freed(self):
        x = T.Tensor(rand((3, 6), 63), requires_grad=True)
        w = T.Tensor(rand((6, 6), 64), requires_grad=True)
        gamma = T.Tensor(1.0 + 0.1 * rand((6,), 65), requires_grad=True)
        beta = T.Tensor(rand((6,), 66), requires_grad=True)
        probe = T.Tensor(rand((3, 6), 67))

        def build(watch):
            residual = T.add(x, T.matmul(x, w))
            watch(residual.data)
            return T.sum_all(T.mul(T.layer_norm(residual, gamma, beta), probe))

        self.freed_then_gradients(build, [x, w, gamma, beta])

    def test_the_input_of_a_dropout_mask_is_freed(self):
        a = T.Tensor(rand((4, 5), 68), requires_grad=True)
        b = T.Tensor(rand((4, 5), 69), requires_grad=True)
        keep = (np.random.default_rng(70).random((4, 5)) >= 0.3) / 0.7
        probe = T.Tensor(rand((4, 5), 71))

        def build(watch):
            h = T.add(a, b)
            watch(h.data)
            return T.sum_all(T.mul(T.tanh(T.mul(h, T.Tensor(keep))), probe))

        self.freed_then_gradients(build, [a, b])

    def test_backward_frees_every_captured_array_while_the_loss_lives(self):
        x = T.Tensor(rand((3, 4), 72), requires_grad=True)
        w = T.Tensor(rand((4, 5), 73), requires_grad=True)
        h = T.tanh(T.matmul(x, w))  # tanh's rule reads its output
        s = T.softmax(T.mul(h, h))  # so do mul's and softmax's
        captured = [weakref.ref(h.data), weakref.ref(s.data)]
        loss = T.sum_all(T.mul(s, T.Tensor(rand((3, 5), 74))))
        del h, s
        assert all(ref() is not None for ref in captured)
        T.backward(loss)
        assert all(ref() is None for ref in captured)
        del loss
        assert all(ref() is None for ref in captured)

    def test_a_tensor_whose_node_has_run_is_a_leaf_of_a_new_graph(self):
        x = T.Tensor(rand((2, 3), 75), requires_grad=True)
        h = T.tanh(x)
        T.backward(T.sum_all(h))
        first = x.grad.copy()
        probe = rand((2, 3), 76)
        T.backward(T.sum_all(T.mul(T.scale(h, 2.0), T.Tensor(probe))))
        assert np.array_equal(x.grad, first)
        assert np.array_equal(h.grad, probe * 2.0)

    def test_diamond_rules_run_latest_created_first(self):
        ran = []

        def op(name, *inputs):
            def rule(dout):
                ran.append(name)
                return (dout,) * len(inputs)

            return T._emit(sum(t.data for t in inputs), inputs, rule)

        x = T.Tensor(rand((3,), 77), requires_grad=True)
        top = op("top", x)
        left = op("left", top)
        right = op("right", top)
        # the join lists `left` first, but `right` was made later, so its rule runs first
        T.backward(T.sum_all(op("join", left, right)))
        assert ran == ["join", "right", "left", "top"]
        assert np.array_equal(x.grad, np.full(3, 2.0))


class TestDropout:
    def test_eval_is_identity(self):
        x = T.Tensor(rand((10,), 33))
        assert T.dropout(x, 0.5, training=False) is x

    def test_p_zero_is_identity(self):
        x = T.Tensor(rand((10,), 34))
        assert T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_zero_fraction_statistics(self):
        rng = np.random.default_rng(97)
        x = T.Tensor(np.ones(1_000_000))
        out = T.dropout(x, 0.2, training=True, rng=rng)
        frac = float(np.mean(out.data == 0.0))
        assert abs(frac - 0.2) < 0.002
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.8)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            T.dropout(T.Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rand((50,), 35), requires_grad=True)
        out = T.dropout(x, 0.4, training=True, rng=rng)
        T.backward(T.sum_all(out))
        assert np.array_equal(x.grad != 0, out.data != 0)


class TestStructuralOps:
    def test_slice_concat_roundtrip_gradient(self):
        x = T.Tensor(rand((3, 6), 36), requires_grad=True)

        def loss():
            parts = [T.slice_cols(x, 0, 2), T.slice_cols(x, 2, 6)]
            return T.sum_all(T.tanh(T.concat_cols(parts)))

        check_gradients(loss, [x])

    def test_stack_and_concat_vec_gradient(self):
        u = T.Tensor(rand((4,), 37), requires_grad=True)
        v = T.Tensor(rand((4,), 38), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.tanh(T.stack_rows([u, v, u]))), [u, v])
        w = T.Tensor(rand((2,), 39), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.tanh(T.concat_vec([u, w]))), [u, w])

    def test_mean_rows_matches_loop_oracle(self):
        x = rand((5, 3), 40)
        out = T.mean_rows(T.Tensor(x))
        expected = (x[0] + x[1] + x[2] + x[3] + x[4]) / 5
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_mean_rows_gradient(self):
        x = T.Tensor(rand((4, 3), 41), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.tanh(T.mean_rows(x))), [x])

    def test_pairwise_and_opa_sums_gradient(self):
        q = T.Tensor(rand((1, 3, 2), 42), requires_grad=True)
        k = T.Tensor(rand((1, 3, 2), 43), requires_grad=True)
        v = T.Tensor(rand((1, 3, 2), 44), requires_grad=True)

        def loss_outer():
            s = T.tanh(T.pairwise_hadamard(q, k))
            return T.sum_all(T.tanh(T.opa_sum_outer([s], [v])))

        def loss_had():
            s = T.tanh(T.pairwise_hadamard(q, k))
            return T.sum_all(T.tanh(T.opa_sum_hadamard([s], [v])))

        check_gradients(loss_outer, [q, k, v])
        check_gradients(loss_had, [q, k, v])

    def test_scalar_mul_and_get_element_gradient(self):
        gate = T.Tensor(rand((2,), 45), requires_grad=True)
        x = T.Tensor(rand((3, 2), 46), requires_grad=True)

        def loss():
            a = T.softmax(gate)
            return T.sum_all(T.scalar_mul(T.get_element(a, 0), T.tanh(x)))

        check_gradients(loss, [gate, x])

    def test_add_bias_gradient(self):
        x = T.Tensor(rand((4, 3), 47), requires_grad=True)
        b = T.Tensor(rand((3,), 48), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.tanh(T.add_bias(x, b))), [x, b])

    def test_reshape_transpose_gradient(self):
        x = T.Tensor(rand((2, 6), 49), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.tanh(T.transpose(T.reshape(x, (3, 4)), (1, 0)))), [x])



class TestBatchedOps:
    """Ops with leading batch axes: each slice equals the 2-D op, and gradients check out."""

    def test_batched_matmul_matches_slices_and_gradient(self):
        a = T.Tensor(rand((2, 3, 3, 4), 60), requires_grad=True)
        b = T.Tensor(rand((2, 3, 4, 2), 61), requires_grad=True)
        out = T.matmul(a, b).data
        for i in range(2):
            for j in range(3):
                want = T.matmul(T.Tensor(a.data[i, j]), T.Tensor(b.data[i, j])).data
                assert np.array_equal(out[i, j], want)
        check_gradients(lambda: T.sum_all(T.tanh(T.matmul(a, b))), [a, b])

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (3, 4, 2)), ((2, 3, 4), (4, 2)),
                                        ((3, 4), (2, 4, 2)), ((2, 3, 4), (2, 3, 2))])
    def test_matmul_rejects_unmatched_batch_axes(self, shapes):
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.ones(shapes[0])), T.Tensor(np.ones(shapes[1])))

    def test_transpose_values_and_gradient(self):
        x = T.Tensor(rand((2, 3, 4), 62), requires_grad=True)
        assert np.array_equal(T.transpose(x, (2, 0, 1)).data, x.data.transpose(2, 0, 1))
        probe = T.Tensor(rand((4, 2, 3), 63))
        check_gradients(lambda: T.sum_all(T.mul(T.transpose(x, (2, 0, 1)), probe)), [x])

    @pytest.mark.parametrize("axes", [(0, 1), (0, 0, 1), (0, 1, 3)])
    def test_transpose_rejects_invalid_axes(self, axes):
        with pytest.raises(T.ShapeError):
            T.transpose(T.Tensor(np.ones((2, 3, 4))), axes)

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 2, 3)])
    def test_slice_rows_values_and_gradient(self, shape):
        x = T.Tensor(rand(shape, 64), requires_grad=True)
        assert np.array_equal(T.slice_rows(x, 1, 4).data, x.data[1:4])
        probe = T.Tensor(rand((3,) + shape[1:], 65))
        check_gradients(lambda: T.sum_all(T.mul(T.slice_rows(x, 1, 4), probe)), [x])

    @pytest.mark.parametrize("bounds", [(2, 2), (3, 1), (-1, 2), (0, 6)])
    def test_slice_rows_rejects_invalid_ranges(self, bounds):
        with pytest.raises(T.ShapeError):
            T.slice_rows(T.Tensor(np.ones((5, 3))), *bounds)

    def test_batched_pairwise_and_opa_sums_match_slices_and_gradient(self):
        q = T.Tensor(rand((2, 3, 2), 66), requires_grad=True)
        k = T.Tensor(rand((2, 4, 2), 67), requires_grad=True)
        v = T.Tensor(rand((2, 4, 2), 68), requires_grad=True)
        for op in (T.opa_sum_outer, T.opa_sum_hadamard):
            out = op([T.tanh(T.pairwise_hadamard(q, k))], [v]).data
            for i in range(2):
                s = T.tanh(T.pairwise_hadamard(T.Tensor(q.data[i:i + 1]),
                                               T.Tensor(k.data[i:i + 1])))
                want = op([s], [T.Tensor(v.data[i:i + 1])]).data
                assert np.max(np.abs(out[3 * i:3 * i + 3] - want)) < 1e-12
            check_gradients(
                lambda: T.sum_all(T.tanh(op([T.tanh(T.pairwise_hadamard(q, k))], [v]))),
                [q, k, v])

    def test_batched_pairwise_rejects_unmatched_batch_axes(self):
        with pytest.raises(T.ShapeError):
            T.pairwise_hadamard(T.Tensor(np.ones((2, 3, 2))), T.Tensor(np.ones((3, 3, 2))))
        with pytest.raises(T.ShapeError):
            T.opa_sum_outer([T.Tensor(np.ones((2, 3, 4, 2)))], [T.Tensor(np.ones((2, 3, 2)))])

    @staticmethod
    def ragged_groups(width=2, seed=70):
        """Three groups of (count, length) sequences: per group a query, key and value block."""
        rng = np.random.default_rng(seed)
        return [tuple(T.Tensor(rng.standard_normal((count, length, width)), requires_grad=True)
                      for _ in range(3)) for count, length in ((2, 3), (1, 1), (3, 2))]

    @pytest.mark.parametrize("op", [T.opa_sum_outer, T.opa_sum_hadamard])
    def test_group_list_stacks_single_block_results(self, op):
        groups = self.ragged_groups()
        scores = [T.tanh(T.pairwise_hadamard(q, k)) for q, k, _ in groups]
        packed = op(scores, [v for _, _, v in groups]).data
        want = np.concatenate([op([s], [v]).data for s, (_, _, v) in zip(scores, groups)])
        assert packed.shape == want.shape and np.array_equal(packed, want)

    @pytest.mark.parametrize("op", [T.opa_sum_outer, T.opa_sum_hadamard])
    def test_group_list_gradient(self, op):
        groups = self.ragged_groups()
        leaves = [t for group in groups for t in group]

        def loss():
            scores = [T.tanh(T.pairwise_hadamard(q, k)) for q, k, _ in groups]
            return T.sum_all(T.tanh(op(scores, [v for _, _, v in groups])))

        check_gradients(loss, leaves)

    @pytest.mark.parametrize("op", [T.opa_sum_outer, T.opa_sum_hadamard])
    def test_group_list_rejects_mismatches(self, op):
        groups = self.ragged_groups()
        scores = [T.tanh(T.pairwise_hadamard(q, k)) for q, k, _ in groups]
        values = [v for _, _, v in groups]
        with pytest.raises(T.ShapeError, match="mismatch"):
            op(scores, values[:2])
        with pytest.raises(T.ShapeError, match="mismatch"):
            op(scores, values[::-1])
        wide = self.ragged_groups(width=3)[0]
        with pytest.raises(T.ShapeError, match="width"):
            op(scores + [T.tanh(T.pairwise_hadamard(wide[0], wide[1]))], values + [wide[2]])

    def test_batched_mean_rows_matches_slices_and_gradient(self):
        x = T.Tensor(rand((2, 4, 3), 69), requires_grad=True)
        out = T.mean_rows(x).data
        for i in range(2):
            assert np.array_equal(out[i], T.mean_rows(T.Tensor(x.data[i])).data)
        check_gradients(lambda: T.sum_all(T.tanh(T.mean_rows(x))), [x])
        with pytest.raises(T.ShapeError, match="matrix"):
            T.mean_rows(T.Tensor(np.zeros(3)))


class TestOpaProject:
    """opa_project against the aggregate it replaces: reshape(opa_sum_outer(...)) @ w."""

    LAYOUT = ((2, 3), (1, 1), (3, 2))  # (count, length) per group: 13 value rows
    # two tables whose ids repeat inside a sequence, across sequences and across groups
    SIZES = (5, 3)
    IDS = (np.array([4, 2, 4, 2, 1, 4, 1, 2, 4, 0, 0, 1, 2]),
           np.array([0, 1, 2, 0, 1, 2, 0, 0, 1, 0, 1, 0, 1]))

    @classmethod
    def operands(cls, seed=80, d=2, e=3, c=2, sizes=SIZES):
        """Score blocks per group, tables and a weight; all leaves."""
        rng = np.random.default_rng(seed)
        scores = [T.Tensor(rng.standard_normal((count, length, length, d)), requires_grad=True)
                  for count, length in cls.LAYOUT]
        tables = [T.Tensor(rng.standard_normal((n, e)), requires_grad=True) for n in sizes]
        w = T.Tensor(rng.standard_normal((d * e, c)), requires_grad=True)
        return scores, tables, w

    @classmethod
    def aggregate(cls, scores, parts, w):
        """The aggregate path, on value rows built as the summed table rows."""
        v = T.embedding_lookup(*parts[0])
        for table, ids in parts[1:]:
            v = T.add(v, T.embedding_lookup(table, ids))
        d, e = scores[0].shape[-1], v.shape[1]
        agg = T.opa_sum_outer(scores, T.group_blocks(v, cls.LAYOUT))
        return T.matmul(T.reshape(agg, (v.shape[0], d * e)), w)

    def test_gradient_with_repeated_ids(self):
        scores, tables, w = self.operands()
        parts = list(zip(tables, self.IDS))
        check_gradients(lambda: T.sum_all(T.tanh(T.opa_project(scores, parts, w))),
                        scores + tables + [w])

    @pytest.mark.parametrize("sizes, ids", [(SIZES, IDS), ((13,), (np.arange(13),))],
                             ids=["two_tables_repeated_ids", "one_table_distinct_ids"])
    def test_matches_the_aggregate_of_the_summed_rows(self, sizes, ids):
        scores, tables, w = self.operands(seed=81, sizes=sizes)
        parts = list(zip(tables, ids))
        leaves = scores + tables + [w]
        grads = []
        for build in (lambda: T.opa_project(scores, parts, w),
                      lambda: self.aggregate(scores, parts, w)):
            for leaf in leaves:
                leaf.grad = None
            out = build()
            T.backward(T.sum_all(T.tanh(out)))
            grads.append((out.data, [leaf.grad for leaf in leaves]))
        (got, got_grads), (want, want_grads) = grads
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12
        for g, h in zip(got_grads, want_grads):
            assert np.max(np.abs(g - h)) < 1e-12

    def test_a_given_projection_is_read_only_where_ids_reach(self):
        scores, tables, w = self.operands(seed=82, sizes=(7, 3))
        parts = list(zip(tables, self.IDS))
        # with a projection, the parts are ids alone, each indexing the projection of one
        # table: here both tables stacked
        proj = T.project_rows(np.concatenate([t.data for t in tables]), w.data)
        proj[[3, 5, 6]] = np.nan  # rows of the first table that no id reaches
        ids = [self.IDS[0], 7 + self.IDS[1]]
        with T.no_grad():
            want = T.opa_project(scores, parts, w).data
            got = T.opa_project(scores, ids, w, proj).data
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="no_grad"):
            T.opa_project(scores, ids, w, proj)
        with T.no_grad(), pytest.raises(T.ShapeError, match="value ids"):
            T.opa_project(scores, [self.IDS[0][1:]], w, proj)

    @pytest.mark.parametrize("ids", [np.arange(12), np.arange(14), np.zeros((13, 1))])
    def test_rejects_ids_of_the_wrong_length(self, ids):
        scores, tables, w = self.operands(sizes=(5, 14))
        with pytest.raises(T.ShapeError, match="value ids"):
            T.opa_project(scores, [(tables[0], self.IDS[0]), (tables[1], ids)], w)

    def test_rejects_a_weight_of_the_wrong_height(self):
        scores, tables, _ = self.operands()
        with pytest.raises(T.ShapeError, match="weight"):
            T.opa_project(scores, list(zip(tables, self.IDS)), T.Tensor(np.ones((5, 2))))

    def test_rejects_tables_of_different_widths(self):
        scores, tables, w = self.operands()
        narrow = T.Tensor(np.ones((3, 2)))
        with pytest.raises(T.ShapeError, match="width"):
            T.opa_project(scores, [(tables[0], self.IDS[0]), (narrow, self.IDS[1])], w)


class TestOpaSumProject:
    """opa_sum_project against the aggregate it never holds: reshape(opa_sum_outer(...)) @ w."""

    LAYOUT = ((2, 3), (1, 1), (3, 2))  # (count, length) per group: 13 query rows
    D, E, C = 8, 3, 2

    @classmethod
    def operands(cls, seed=90):
        """Score and value blocks per group and a weight; all leaves."""
        rng = np.random.default_rng(seed)
        scores, values = [], []
        for count, length in cls.LAYOUT:
            scores.append(T.Tensor(rng.standard_normal((count, length, length, cls.D)),
                                   requires_grad=True))
            values.append(T.Tensor(rng.standard_normal((count, length, cls.E)), requires_grad=True))
        w = T.Tensor(rng.standard_normal((cls.D * cls.E, cls.C)), requires_grad=True)
        return scores, values, w

    @classmethod
    def blocks_of(cls, monkeypatch, width):
        """Patch the byte budget to `width` features of aggregate over the 13 query rows."""
        monkeypatch.setattr(T, "OPA_BLOCK_BYTES", width * 13 * cls.E * 8)

    @staticmethod
    def run(build, leaves):
        """The output of `build()` and each leaf's gradient of sum(tanh(output))."""
        for leaf in leaves:
            leaf.grad = None
        out = build()
        T.backward(T.sum_all(T.tanh(out)))
        return out.data, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("width, spans", [(3, [3, 3, 2]), (1, [1] * 8), (8, [8])],
                             ids=["uneven", "one_feature", "one_block"])
    def test_matches_the_aggregate_then_matmul(self, monkeypatch, width, spans):
        scores, values, w = self.operands()
        leaves = scores + values + [w]
        want, want_grads = self.run(lambda: T.matmul(
            T.reshape(T.opa_sum_outer(scores, values), (13, self.D * self.E)), w), leaves)
        self.blocks_of(monkeypatch, width)
        real, seen = T._outer_forward, []

        def spy(sd, vd, out):
            seen.append(sd.shape[-1])
            real(sd, vd, out)

        monkeypatch.setattr(T, "_outer_forward", spy)
        got, got_grads = self.run(lambda: T.opa_sum_project(scores, values, w), leaves)
        # forward, then backward, make each block's aggregate group by group
        assert seen == [b for b in spans for _ in self.LAYOUT] * 2
        assert got.shape == want.shape == (13, self.C)
        assert np.max(np.abs(got - want)) < 1e-12
        for g, h in zip(got_grads, want_grads):
            assert g.shape == h.shape and np.max(np.abs(g - h)) < 1e-12

    def test_gradient_in_uneven_blocks(self, monkeypatch):
        self.blocks_of(monkeypatch, 3)
        scores, values, w = self.operands(seed=91)
        check_gradients(lambda: T.sum_all(T.tanh(T.opa_sum_project(scores, values, w))),
                        scores + values + [w])

    def test_rejects_mismatched_lists_and_widths(self):
        scores, values, w = self.operands()
        with pytest.raises(T.ShapeError, match="mismatch"):
            T.opa_sum_project(scores, values[:2], w)
        narrow = T.Tensor(np.ones((2, 3, self.E + 1)))
        with pytest.raises(T.ShapeError, match="width"):
            T.opa_sum_project(scores, [narrow] + values[1:], w)
        with pytest.raises(T.ShapeError, match="weight"):
            T.opa_sum_project(scores, values, T.Tensor(np.ones((self.D * self.E - 1, 2))))


class TestInvariants:
    def test_zero_dim_rejected(self):
        with pytest.raises(T.ShapeError):
            T.Tensor(np.zeros((0, 3)))

    def test_no_implicit_broadcast(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(3)))
