"""FAME: fused multi-headed self-attention and outer-product attention.

The block keeps two independent Q/K/V projection sets. The self branch is
standard scaled dot-product attention over heads. The outer branch scores
each query/key pair elementwise, activates (tanh by default, or a softmax
over the feature axis), aggregates values with an outer product per query,
and projects the result back to model width. A two-way softmax gate fuses
the branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optim import Parameter, xavier_uniform
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat_cols,
    get_element,
    matmul,
    opa_sum_hadamard,
    opa_sum_outer,
    pairwise_hadamard,
    reshape,
    scalar_mul,
    scale,
    slice_cols,
    softmax,
    tanh,
    transpose2d,
)

OPA_SCORES = ("tanh", "softmax")
OPA_COMBINES = ("true_outer_projected", "hadamard")


@dataclass
class FameConfig:
    d_model: int = 128
    n_heads: int = 4
    opa_score: str = "tanh"
    opa_combine: str = "true_outer_projected"
    max_len: int = 40

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.opa_score not in OPA_SCORES:
            raise ValueError(f"opa_score must be one of {OPA_SCORES}, got {self.opa_score!r}")
        if self.opa_combine not in OPA_COMBINES:
            raise ValueError(f"opa_combine must be one of {OPA_COMBINES}, got {self.opa_combine!r}")


class FameLayer:
    """Projections for both attention branches plus the fusion gate."""

    def __init__(self, config: FameConfig, rng: np.random.Generator, name: str = "fame"):
        self.config = config
        d = config.d_model
        mk = lambda suffix, shape: Parameter(f"{name}.{suffix}", xavier_uniform(rng, shape))
        self.wq_self = mk("wq_self", (d, d))
        self.wk_self = mk("wk_self", (d, d))
        self.wv_self = mk("wv_self", (d, d))
        self.wo_self = mk("wo_self", (d, d))
        self.wq_outer = mk("wq_outer", (d, d))
        self.wk_outer = mk("wk_outer", (d, d))
        self.wv_outer = mk("wv_outer", (d, d))
        out_in = d * d if config.opa_combine == "true_outer_projected" else d
        self.wo_outer = mk("wo_outer", (out_in, d))
        self.fusion_logits = Parameter(f"{name}.fusion_logits", np.zeros(2))

    def parameters(self) -> list[Parameter]:
        return [self.wq_self, self.wk_self, self.wv_self, self.wo_self,
                self.wq_outer, self.wk_outer, self.wv_outer, self.wo_outer,
                self.fusion_logits]

    def fusion_weights(self) -> tuple[float, float]:
        z = self.fusion_logits.data
        e = np.exp(z - z.max())
        a = e / e.sum()
        return float(a[0]), float(a[1])


def _allowed(mask, attn_allowed, n_q: int, n_kv: int, caller: str) -> np.ndarray:
    """The (n_q, n_kv) matrix of allowed query/key pairs: a key mask and an optional extra mask."""
    km = np.ones(n_kv, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if km.shape != (n_kv,):
        raise ShapeError(f"mask length {km.shape} does not match {n_kv} positions")
    if not km.any():
        raise ValueError(f"{caller}: every position is masked")
    base = np.repeat(km[None, :], n_q, axis=0)
    if attn_allowed is None:
        return base
    a = np.asarray(attn_allowed, dtype=bool)
    if a.shape != base.shape:
        raise ShapeError(f"attention mask shape {a.shape} does not match {base.shape}")
    return a & base


def multi_head_attention(wq: Parameter, wk: Parameter, wv: Parameter, wo: Parameter,
                         n_heads: int, x_q: Tensor, x_kv: Tensor, allowed: np.ndarray,
                         return_weights: bool = False):
    """Scaled dot-product attention over heads; `allowed` is a (n_q, n_kv) bool matrix."""
    d = wq.data.shape[0]
    dh = d // n_heads
    q = matmul(x_q, wq.tensor)
    k = matmul(x_kv, wk.tensor)
    v = matmul(x_kv, wv.tensor)
    outs = []
    weights = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = slice_cols(q, lo, hi)
        kh = slice_cols(k, lo, hi)
        vh = slice_cols(v, lo, hi)
        scores = scale(matmul(qh, transpose2d(kh)), 1.0 / np.sqrt(dh))
        attn = softmax(scores, axis=-1, mask=allowed)
        if return_weights:
            weights.append(attn.data.copy())
        outs.append(matmul(attn, vh))
    out = matmul(concat_cols(outs), wo.tensor)
    if return_weights:
        return out, np.stack(weights)
    return out


def msa_forward(layer: FameLayer, x: Tensor, mask=None, attn_allowed=None,
                x_kv: Tensor | None = None) -> Tensor:
    """Queries from `x`, keys/values from `x_kv` (default `x`); `mask` marks usable key rows."""
    x_kv = x if x_kv is None else x_kv
    allowed = _allowed(mask, attn_allowed, x.shape[0], x_kv.shape[0], "msa_forward")
    return multi_head_attention(layer.wq_self, layer.wk_self, layer.wv_self, layer.wo_self,
                                layer.config.n_heads, x, x_kv, allowed)


def msa_weights(layer: FameLayer, x: Tensor, mask=None, attn_allowed=None) -> np.ndarray:
    """Per-head attention matrices, shape (n_heads, n, n); for inspection and tests."""
    n = x.shape[0]
    _, w = multi_head_attention(layer.wq_self, layer.wk_self, layer.wv_self, layer.wo_self,
                                layer.config.n_heads, x, x,
                                _allowed(mask, attn_allowed, n, n, "msa_forward"),
                                return_weights=True)
    return w


def opa_forward(layer: FameLayer, x: Tensor, mask=None, attn_allowed=None,
                x_kv: Tensor | None = None) -> Tensor:
    """Outer branch: q from `x`, k and v from `x_kv` (default `x`); masks as in msa_forward."""
    x_kv = x if x_kv is None else x_kv
    n, d = x.shape
    allowed = _allowed(mask, attn_allowed, n, x_kv.shape[0], "opa_forward")
    q = matmul(x, layer.wq_outer.tensor)
    k = matmul(x_kv, layer.wk_outer.tensor)
    v = matmul(x_kv, layer.wv_outer.tensor)
    pair = scale(pairwise_hadamard(q, k), 1.0 / np.sqrt(d))
    s = tanh(pair) if layer.config.opa_score == "tanh" else softmax(pair, axis=-1)
    if layer.config.opa_combine == "true_outer_projected":
        agg = opa_sum_outer(s, v, allowed)
        flat = reshape(agg, (n, d * d))
        return matmul(flat, layer.wo_outer.tensor)
    agg = opa_sum_hadamard(s, v, allowed)
    return matmul(agg, layer.wo_outer.tensor)


def fame_fuse(layer: FameLayer, z_self: Tensor, z_outer: Tensor) -> Tensor:
    if z_self.shape != z_outer.shape:
        raise ShapeError(f"fame_fuse shape mismatch: {z_self.shape} vs {z_outer.shape}")
    alphas = softmax(layer.fusion_logits.tensor, axis=-1)
    a1 = get_element(alphas, 0)
    a2 = get_element(alphas, 1)
    return add(scalar_mul(a1, z_self), scalar_mul(a2, z_outer))


def fame_forward(layer: FameLayer, x: Tensor, mask=None, attn_allowed=None,
                 x_kv: Tensor | None = None) -> Tensor:
    """Both branches over the same queries `x` and key/value rows `x_kv` (default `x`), fused."""
    return fame_fuse(layer,
                     msa_forward(layer, x, mask, attn_allowed, x_kv),
                     opa_forward(layer, x, mask, attn_allowed, x_kv))
