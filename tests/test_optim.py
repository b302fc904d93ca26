import numpy as np
import pytest

from hitkit import data as D
from hitkit import tensor as T
from hitkit.checkpoint import load_checkpoint, save_checkpoint
from hitkit.optim import (
    MissingGradError,
    Parameter,
    adam_step,
    clip_gradients,
    global_grad_norm,
)
from hitkit.pretrain import transfer_load
from hitkit.train import TrainConfig, build_classifier, seed_streams


def make_param(values, name="p"):
    return Parameter(name, np.asarray(values, dtype=np.float64))


def reference_adam(theta, m, v, t, g, lr, b1, b2, eps):
    """The out-of-place update: new (theta, m, v) arrays, inputs untouched."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def tiny_classifier(seed=0):
    vocab = D.build_vocab([["tok1", "tok2", "tok3"]])
    cfg = TrainConfig(d_model=8, n_heads=2, l_c=1, l_w=1, max_len=12, max_word_len=8)
    return build_classifier(cfg, vocab.word_size, vocab.char_size, 2, seed_streams(seed)["init"])


def step_with_random_grads(params, rng, lr=0.01):
    for p in params:
        p.grad = rng.standard_normal(p.data.shape)
    adam_step(params, lr=lr)


class TestAdam:
    def test_zero_grad_leaves_params_unchanged(self):
        p = make_param([1.0, -2.0, 3.0])
        p.grad = np.zeros(3)
        before = p.data.copy()
        adam_step([p], lr=0.001)
        assert np.array_equal(p.data, before)
        assert p.step_count == 1

    def test_first_step_closed_form(self):
        p = make_param([0.5])
        p.grad = np.ones(1)
        adam_step([p], lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8)
        # m_hat = v_hat = 1 on the first unit-gradient step
        expected_delta = -0.001 / (1.0 + 1e-8)
        assert abs((p.data[0] - 0.5) - expected_delta) < 1e-15

    def test_two_steps_match_scalar_reference(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.37
        theta, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        p = make_param([1.0])
        for _ in range(2):
            p.grad = np.array([g])
            adam_step([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
        assert abs(p.data[0] - theta) < 1e-12

    def test_missing_grad_names_parameter(self):
        p = make_param([1.0], name="word_hit.word_emb")
        with pytest.raises(MissingGradError, match="word_hit.word_emb"):
            adam_step([p], lr=0.001)

    def test_grads_zeroed_and_step_counted(self):
        p = make_param([1.0, 2.0])
        p.grad = np.array([0.1, 0.2])
        adam_step([p], lr=0.001)
        assert p.grad is None
        assert p.step_count == 1

    def test_in_place_update_equals_out_of_place_formula(self):
        rng = np.random.default_rng(12)
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        # parameters of the size of one step, so that a step rounded differently shows
        p = make_param(rng.standard_normal((4, 3)) * lr)
        theta, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        for t in range(1, 6):
            g = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-4, 3)
            p.grad = g.copy()
            adam_step([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
            theta, m, v = reference_adam(theta, m, v, t, g, lr, b1, b2, eps)
            assert np.array_equal(p.data, theta)
            assert np.array_equal(p.adam_m, m) and np.array_equal(p.adam_v, v)

    def test_moments_made_on_first_step(self):
        p = make_param([1.0, 2.0])
        assert p.adam_m is None and p.adam_v is None
        p.grad = np.array([0.5, -0.5])
        adam_step([p], lr=0.001)
        assert p.adam_m.shape == (2,) and p.adam_v.shape == (2,)

    def test_loaded_arrays_untouched_by_training(self):
        model = tiny_classifier()
        arrays = model.parameter_arrays()
        snapshot = {name: a.copy() for name, a in arrays.items()}
        model.load_arrays(arrays)
        rng = np.random.default_rng(13)
        for _ in range(3):
            step_with_random_grads(model.parameters(), rng)
        assert not np.array_equal(model.head_w.data, snapshot["head.w"])
        for name, a in arrays.items():
            assert np.array_equal(a, snapshot[name]), name

    def test_transfer_load_restarts_state(self, tmp_path):
        source = tiny_classifier(seed=1)
        path = tmp_path / "ckpt"
        save_checkpoint(path, source.parameter_arrays(), {"task": "classification"})
        rng = np.random.default_rng(14)
        model = tiny_classifier(seed=2)
        encoder = [p for p in model.parameters() if p.name.startswith(("char_hit.", "word_hit."))]
        for _ in range(3):
            step_with_random_grads(encoder, rng)
        transfer_load(model, load_checkpoint(path), "finetune")
        fresh = tiny_classifier(seed=3)
        fresh.load_arrays({p.name: p.data for p in encoder})
        twins = [fresh.named_parameters()[p.name] for p in encoder]
        step_with_random_grads(encoder, np.random.default_rng(15))
        step_with_random_grads(twins, np.random.default_rng(15))
        for p, twin in zip(encoder, twins):
            assert p.step_count == twin.step_count == 1
            assert np.array_equal(p.data, twin.data), p.name

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            p = make_param(rng.standard_normal(5))
            trace = []
            for _ in range(10):
                p.grad = rng.standard_normal(5)
                adam_step([p], lr=0.01)
                trace.append(p.data.copy())
            return np.stack(trace)

        assert np.array_equal(run(), run())


class TestAssign:
    def test_writes_the_parameters_own_buffer(self):
        p = make_param(np.zeros((3, 4)))
        buffer, version = p.data, p.version
        values = np.random.default_rng(16).standard_normal((3, 4)).astype(np.float32)
        p.assign(values)
        assert p.data is buffer and p.data.dtype == np.float64
        assert p.version == version + 1
        assert np.array_equal(p.data, values.astype(np.float64))  # the exact float32 values
        assert not np.shares_memory(p.data, values)

    def test_a_wrong_shape_raises_and_writes_nothing(self):
        p = make_param(np.ones((2, 3)), name="head.w")
        version = p.version
        for values in (np.zeros((3, 2)), np.zeros(3), np.zeros((1, 3))):  # (1, 3) would broadcast
            with pytest.raises(ValueError, match="head.w"):
                p.assign(values)
        assert np.array_equal(p.data, np.ones((2, 3))) and p.version == version


class TestClipping:
    def test_norm_and_scaling(self):
        p1 = make_param([3.0])
        p2 = make_param([4.0])
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        assert abs(global_grad_norm([p1, p2]) - 5.0) < 1e-12
        norm = clip_gradients([p1, p2], max_norm=1.0)
        assert abs(norm - 5.0) < 1e-12
        assert abs(global_grad_norm([p1, p2]) - 1.0) < 1e-12

    def test_below_threshold_untouched(self):
        p = make_param([1.0])
        p.grad = np.array([0.5])
        clip_gradients([p], max_norm=5.0)
        assert p.grad[0] == 0.5


class TestFreeze:
    def test_frozen_parameter_gets_no_grad(self):
        p = make_param([1.0, 2.0])
        p.freeze()
        x = T.Tensor(np.ones(2), requires_grad=True)
        T.backward(T.sum_all(T.mul(p, x)))
        assert p.grad is None
        assert x.grad is not None


class TestParameterIsALeafTensor:
    def test_ops_take_a_parameter_directly_and_backward_fills_its_grad(self):
        values = np.array([[1.0, 3.0], [2.0, 4.0]]).T  # not C-contiguous
        p = Parameter("p", values)
        assert isinstance(p, T.Tensor) and p.requires_grad and p.node is None
        assert p.data.flags.c_contiguous and np.array_equal(p.data, values)
        x = T.Tensor(np.array([[1.0, -1.0]]))
        T.backward(T.sum_all(T.matmul(x, p)))
        assert np.array_equal(p.grad, np.array([[1.0, 1.0], [-1.0, -1.0]]))

    def test_freeze_and_unfreeze_flip_requires_grad_and_trainable_parameters_follow(self):
        model = tiny_classifier()
        p = model.parameters()[0]
        p.grad = np.ones(p.shape)
        p.freeze()
        assert not p.requires_grad and p.grad is None
        assert p not in model.trainable_parameters()
        assert len(model.trainable_parameters()) == len(model.parameters()) - 1
        p.unfreeze()
        assert p.requires_grad and p in model.trainable_parameters()

    def test_assign_copies_and_bumps_version_by_exactly_one(self):
        p = make_param(np.zeros(3))
        values = np.array([1.0, 2.0, 3.0])
        p.assign(values)
        assert p.version == 1 and not np.shares_memory(p.data, values)
        values[0] = 9.0
        assert p.data[0] == 1.0
