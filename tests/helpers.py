"""Shared oracles: central finite differences against recorded gradients."""

import numpy as np

from hitkit import tensor as T

FD_H = 1e-5
FD_RTOL = 1e-3


def numeric_grad(build_loss, leaf, h=FD_H):
    """Central-difference d(loss)/d(leaf); build_loss() must recompute the forward pass.

    Each in-place write to the leaf bumps its version, as `Parameter.assign` does,
    so results cached from the old values (the encoder's char memo) are not reused.
    """
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = grad.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            leaf.version += 1
            hi = build_loss().item()
            flat[i] = orig - h
            leaf.version += 1
            lo = build_loss().item()
            flat[i] = orig
            leaf.version += 1
            gflat[i] = (hi - lo) / (2 * h)
    return grad


def check_gradients(build_loss, leaves, rtol=FD_RTOL, h=FD_H):
    """Assert analytic gradients match central differences for every leaf."""
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    T.backward(loss)
    for leaf in leaves:
        assert leaf.grad is not None, "leaf received no gradient"
        numeric = numeric_grad(build_loss, leaf, h=h)
        denom = max(np.linalg.norm(leaf.grad), np.linalg.norm(numeric), 1e-12)
        rel = np.linalg.norm(leaf.grad - numeric) / denom
        assert rel < rtol, f"gradient mismatch: relative error {rel:.3e}"
