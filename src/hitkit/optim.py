"""Named parameters and the bias-corrected Adam update."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class MissingGradError(RuntimeError):
    pass


class Parameter:
    """A trainable tensor with a name path and per-parameter Adam state (made on the first step)."""

    __slots__ = ("name", "tensor", "adam_m", "adam_v", "step_count", "trainable")

    def __init__(self, name: str, data, trainable: bool = True):
        self.name = name
        self.tensor = Tensor(np.asarray(data, dtype=np.float64), requires_grad=trainable)
        self.adam_m = None
        self.adam_v = None
        self.step_count = 0
        self.trainable = trainable

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def assign(self, values) -> None:
        """Set the values to a copy of `values`, which later in-place updates leave untouched."""
        arr = np.array(values, dtype=np.float64)
        if arr.shape != self.tensor.data.shape:
            raise ValueError(f"parameter '{self.name}' shape {self.tensor.data.shape} cannot take {arr.shape}")
        self.tensor.data = arr

    def freeze(self) -> None:
        self.trainable = False
        self.tensor.requires_grad = False
        self.tensor.grad = None

    def unfreeze(self) -> None:
        self.trainable = True
        self.tensor.requires_grad = True

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape}, trainable={self.trainable})"


def adam_step(params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over the given parameters; grads are then zeroed."""
    params = list(params)
    for p in params:
        if p.tensor.grad is None:
            raise MissingGradError(f"adam_step: parameter '{p.name}' has no gradient")
    for p in params:
        g = p.tensor.grad
        t = p.step_count + 1
        if p.adam_m is None:
            p.adam_m = np.zeros_like(p.tensor.data)
            p.adam_v = np.zeros_like(p.tensor.data)
        m, v = p.adam_m, p.adam_v
        # in place, with the operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # data -= lr*m_hat / (sqrt(v_hat) + eps) in their order, so results are unchanged
        step = (1.0 - beta1) * g
        m *= beta1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - beta2
        v *= beta2
        v += step
        np.divide(m, 1.0 - beta1 ** t, out=step)
        denom = v / (1.0 - beta2 ** t)
        np.sqrt(denom, out=denom)
        denom += eps
        step *= lr
        step /= denom
        p.tensor.data -= step
        p.step_count = t
        p.tensor.grad = None


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        g = p.tensor.grad
        if g is not None:
            total += float(np.vdot(g, g))
    return float(np.sqrt(total))


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm; returns the pre-clip norm.

    Scales in place: `tensor.backward` gives every leaf a gradient array of its own.
    """
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad *= factor
    return norm


def xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    shape = tuple(shape)
    fan_in = shape[0] if len(shape) > 1 else shape[0]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal_init(rng: np.random.Generator, shape, std: float = 0.1) -> np.ndarray:
    return rng.normal(0.0, std, size=tuple(shape))
