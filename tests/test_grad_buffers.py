"""Gradient buffer ownership in `tensor.backward` and the blocked, in-place Adam update."""

import numpy as np
import pytest

from hitkit import optim as O
from hitkit import tensor as T
from hitkit.optim import Parameter, adam_step, clip_gradients

from test_optim import reference_adam


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def dense_slice_rows(x, start, stop):
    """slice_rows with the dense gradient it used to return: zeros outside start:stop."""
    shape = x.shape

    def bwd(dout):
        g = np.zeros(shape)
        g[start:stop] = dout
        return (g,)

    return T._emit(x.data[start:stop], (x,), bwd)


class TestLeafGradients:
    @pytest.mark.parametrize("combine", [
        lambda a, b, w: T.add(a, b),
        lambda a, b, w: T.add(a, a),
        lambda a, b, w: T.matmul(T.concat_cols([a, b]), T.Tensor(w[:6])),
        lambda a, b, w: T.matmul(T.concat_cols([a, b, a]), T.Tensor(w)),
    ], ids=["add", "add_self", "concat_cols", "concat_cols_repeat"])
    def test_leaves_get_distinct_arrays_that_clip_scales_once(self, combine):
        a = Parameter("a", rand((4, 3), 1))
        b = Parameter("b", rand((4, 3), 2))
        out = combine(a.tensor, b.tensor, rand((9, 3), 3))
        T.backward(T.sum_all(T.mul(out, T.Tensor(rand((4, 3), 4)))))
        params = [p for p in (a, b) if p.grad is not None]
        grads = [p.grad.copy() for p in params]
        for i, p in enumerate(params):
            for q in params[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)
        max_norm = np.sqrt(sum(float(np.vdot(g, g)) for g in grads)) / 4
        factor = max_norm / clip_gradients(params, max_norm)
        for p, g in zip(params, grads):
            assert np.array_equal(p.grad, g * factor)

    def test_rule_output_given_to_two_inputs_is_never_written(self):
        # add(x, y) hands one array to x and y; x then gets a second term, which must
        # go into a new array, or y's gradient (and so b's) would change with it
        a = T.Tensor(rand((5,), 4), requires_grad=True)
        b = T.Tensor(rand((5,), 5), requires_grad=True)
        p1, p2 = rand((5,), 6), rand((5,), 7)
        x, y = T.tanh(a), T.tanh(b)
        first = T.sum_all(T.mul(x, T.Tensor(p2)))
        second = T.sum_all(T.mul(T.add(x, y), T.Tensor(p1)))
        T.backward(T.add(first, second))
        assert np.array_equal(b.grad, p1 * (1.0 - y.data * y.data))
        assert np.array_equal(a.grad, (p1 + p2) * (1.0 - x.data * x.data))

    def test_gradients_add_across_two_backward_calls(self):
        a = T.Tensor(rand((4, 2), 8), requires_grad=True)
        b = T.Tensor(rand((4, 3), 9), requires_grad=True)
        probes = [T.Tensor(rand((4, 5), 10)), T.Tensor(rand((4, 5), 11))]
        losses = [lambda p=p: T.sum_all(T.mul(T.concat_cols([a, b]), p)) for p in probes]
        for loss in losses:
            T.backward(loss())
        twice = a.grad.copy(), b.grad.copy()
        singles = []
        for loss in losses:
            a.grad = b.grad = None
            T.backward(loss())
            singles.append((a.grad.copy(), b.grad.copy()))
        assert np.array_equal(twice[0], singles[0][0] + singles[1][0])
        assert np.array_equal(twice[1], singles[0][1] + singles[1][1])


class TestSliceRows:
    @pytest.mark.parametrize("whole_first", [True, False])
    @pytest.mark.parametrize("leaf", [True, False])
    def test_group_slices_match_the_dense_zero_fill(self, whole_first, leaf):
        def grads(slicer):
            src = T.Tensor(rand((7, 3), 12), requires_grad=True)
            other = T.Tensor(rand((7, 3), 13), requires_grad=True)
            x = src if leaf else T.tanh(src)
            # the whole use goes through add, whose rule hands one array to x and `other`;
            # backward meets the uses in the reverse of the order they are made in
            whole = lambda: [T.sum_all(T.mul(T.add(x, other), T.Tensor(rand((7, 3), 14))))]
            groups = lambda: [
                T.sum_all(T.mul(slicer(x, lo, hi), T.Tensor(rand((hi - lo, 3), 20 + k))))
                for k, (lo, hi) in enumerate([(0, 2), (2, 5), (5, 7), (1, 4)])]
            terms = whole() + groups() if whole_first else groups() + whole()
            loss = terms[0]
            for t in terms[1:]:
                loss = T.add(loss, t)
            T.backward(loss)
            return src.grad, other.grad

        for got, want in zip(grads(T.slice_rows), grads(dense_slice_rows)):
            assert got.tobytes() == want.tobytes()


class TestBlockedAdam:
    LR, B1, B2, EPS = 0.003, 0.9, 0.999, 1e-8

    def run_against_reference(self, p, grads_for_step):
        theta = p.data.copy()
        m, v = np.zeros(theta.shape), np.zeros(theta.shape)
        for t in range(1, 6):
            g = grads_for_step(t)
            p.tensor.grad = g
            adam_step([p], lr=self.LR, beta1=self.B1, beta2=self.B2, eps=self.EPS)
            theta, m, v = reference_adam(theta, m, v, t, g, self.LR, self.B1, self.B2, self.EPS)
            assert np.array_equal(p.data, theta)
            assert np.array_equal(p.adam_m, m) and np.array_equal(p.adam_v, v)

    def test_parameter_over_several_chunks_not_a_multiple(self):
        shape = (2 * O.CHUNK // 100 + 7, 100)
        assert shape[0] * shape[1] > 2 * O.CHUNK and (shape[0] * shape[1]) % O.CHUNK
        p = Parameter("p", rand(shape, 30) * self.LR)
        self.run_against_reference(p, lambda t: rand(shape, 30 + t) * 10.0 ** (t - 3))

    def test_fortran_ordered_parameter(self):
        p = Parameter("p", np.asfortranarray(rand((300, 150), 40) * self.LR))
        assert p.data.flags.c_contiguous
        p.assign(np.asfortranarray(rand((300, 150), 41) * self.LR))
        assert p.data.flags.c_contiguous
        self.run_against_reference(p, lambda t: rand((300, 150), 41 + t))

    def test_transposed_view_gradient(self):
        p = Parameter("p", rand((150, 300), 50) * self.LR)
        self.run_against_reference(p, lambda t: rand((300, 150), 50 + t).T)
