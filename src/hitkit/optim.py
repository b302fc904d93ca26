"""Named parameters and the bias-corrected Adam update."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class MissingGradError(RuntimeError):
    pass


class Parameter(Tensor):
    """A requires_grad leaf tensor with a name path and per-parameter Adam state (made on the
    first step); `freeze`/`unfreeze` flip `requires_grad`. Its data are C-contiguous, so
    `adam_step` can update them through flat views."""

    __slots__ = ("name", "adam_m", "adam_v", "step_count")

    def __init__(self, name: str, data):
        super().__init__(np.ascontiguousarray(data, dtype=np.float64), requires_grad=True)
        self.name = name
        self.adam_m = self.adam_v = None
        self.step_count = 0

    def assign(self, values) -> None:
        """Cast `values` into this parameter's own float64 buffer, in place like `adam_step`.

        A restore so holds the float32 checkpoint and the model, no third copy; `values`
        is copied, never aliased. Bumps `version`, like `adam_step`: code that writes
        `data` in place must do the same, or caches computed from it go stale.
        """
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError(f"parameter '{self.name}' shape {self.shape} cannot take {values.shape}")
        np.copyto(self.data, values)
        self.version += 1

    def freeze(self) -> None:
        self.requires_grad = False
        self.grad = None

    def unfreeze(self) -> None:
        self.requires_grad = True

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, requires_grad={self.requires_grad})"


CHUNK = 32768  # elements per Adam block: its six 256 KB operands stay in cache


def adam_step(params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over the given parameters; grads are then zeroed.

    Each updated parameter's `version` goes up by one (see `Parameter.assign`).

    Runs block by block over flat views of each parameter, its gradient and its
    moments, so each array is read and written once per step rather than once
    per operation.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise MissingGradError(f"adam_step: parameter '{p.name}' has no gradient")
    scratch = np.empty((2, CHUNK))
    for p in params:
        t = p.step_count + 1
        if p.adam_m is None:
            p.adam_m, p.adam_v = np.zeros(p.shape), np.zeros(p.shape)
        flat = [a.reshape(-1) for a in (np.ascontiguousarray(p.grad), p.adam_m, p.adam_v, p.data)]
        for lo in range(0, flat[0].size, CHUNK):
            g, m, v, data = (a[lo:lo + CHUNK] for a in flat)
            step, denom = scratch[0, :g.size], scratch[1, :g.size]
            # in place, with the operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
            # data -= lr*m_hat / (sqrt(v_hat) + eps) in their order, so results are unchanged
            np.multiply(g, 1.0 - beta1, out=step)
            m *= beta1
            m += step
            np.multiply(g, g, out=step)
            step *= 1.0 - beta2
            v *= beta2
            v += step
            np.divide(m, 1.0 - beta1 ** t, out=step)
            np.divide(v, 1.0 - beta2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step *= lr
            step /= denom
            data -= step
        p.step_count = t
        p.version += 1
        p.grad = None


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        g = p.grad
        if g is not None:
            total += float(np.vdot(g, g))
    return float(np.sqrt(total))


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm; returns the pre-clip norm.

    Scales each gradient in place, exactly once: `tensor.backward` copies a leaf's
    gradient whenever its base array is shared with another leaf's, so no two
    parameters' gradients share memory.
    """
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


def xavier_uniform(rng: np.random.Generator | None, shape) -> np.ndarray:
    """Uniform Glorot draws; unfilled (`np.empty`) without an rng, for a model that a
    checkpoint fills next."""
    shape = tuple(shape)
    if rng is None:
        return np.empty(shape)
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def normal_init(rng: np.random.Generator | None, shape, std: float = 0.1) -> np.ndarray:
    """Normal draws; unfilled (`np.empty`) without an rng, as `xavier_uniform`."""
    return np.empty(tuple(shape)) if rng is None else rng.normal(0.0, std, size=tuple(shape))
