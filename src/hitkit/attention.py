"""FAME: fused multi-headed self-attention and outer-product attention.

The block keeps two independent Q/K/V projection sets. The self branch is
standard scaled dot-product attention over heads. The outer branch scores
each query/key pair feature by feature, activates (tanh by default, or a
softmax over the feature axis), aggregates values with an outer product per
query, and projects the result back to model width. A two-way softmax gate
fuses the branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optim import Parameter, xavier_uniform
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat_rows,
    get_element,
    matmul,
    opa_project,
    opa_sum_hadamard,
    opa_sum_project,
    pairwise_hadamard,
    reshape,
    scalar_mul,
    scale,
    slice_rows,
    softmax,
    tanh,
    transpose,
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


def group_blocks(x, layout) -> list:
    """The (count, length, ...) block of each group of packed rows `x` (a Tensor or an array).

    `layout` lists (count, length) per group: the first count * length rows of `x`
    hold `count` sequences of `length` rows each, the next rows the next group.
    """
    is_tensor = isinstance(x, Tensor)
    blocks, start = [], 0
    for count, length in layout:
        stop = start + count * length
        part = x
        if (start, stop) != (0, x.shape[0]):
            part = slice_rows(x, start, stop) if is_tensor else x[start:stop]
        shape = (count, length) + tuple(x.shape[1:])
        blocks.append(reshape(part, shape) if is_tensor else part.reshape(shape))
        start = stop
    if start != x.shape[0]:
        raise ShapeError(f"layout {layout} covers {start} rows, not {x.shape[0]}")
    return blocks


def _check_allowed(allowed, n_q: int, n_kv: int, caller: str) -> list:
    """Allowed query/key pairs as a list of (count, L_q, L_kv) bool blocks, checked.

    Block g stands for `count` sequences whose L_q query rows and L_kv key rows
    follow those of the blocks before it, in the n_q rows of the queries and
    the n_kv rows of the keys. None is one sequence that sees every key.
    """
    if allowed is None:
        return [np.ones((1, n_q, n_kv), dtype=bool)]
    blocks = [np.asarray(a, dtype=bool) for a in allowed]
    shapes = [a.shape for a in blocks]
    if (any(len(s) != 3 for s in shapes) or sum(c * lq for c, lq, _ in shapes) != n_q
            or sum(c * lkv for c, _, lkv in shapes) != n_kv):
        raise ShapeError(f"allowed blocks {shapes} do not cover {n_q} query and {n_kv} key rows")
    if not all(a.any(axis=2).all() for a in blocks):
        raise ValueError(f"{caller}: every position is masked")
    return blocks


def _group_rows(x: Tensor, blocks, axis: int) -> list[Tensor]:
    """Per allowed block, its (count, length, d) rows of x; `axis` 1 for queries, 2 for keys."""
    return group_blocks(x, [(b.shape[0], b.shape[axis]) for b in blocks])


def multi_head_attention(wq: Parameter, wk: Parameter, wv: Parameter, wo: Parameter,
                         n_heads: int, x_q: Tensor, x_kv: Tensor, allowed) -> Tensor:
    """Scaled dot-product attention over heads.

    `allowed` is a list of (count, L_q, L_kv) blocks, one per group of packed
    rows (see `_check_allowed`). Each group's heads run as one
    (count, heads, L_q, L_kv) block.
    """
    d = wq.data.shape[0]
    dh = d // n_heads
    q = matmul(x_q, wq.tensor)
    k = matmul(x_kv, wk.tensor)
    v = matmul(x_kv, wv.tensor)
    outs = []
    for a, qg, kg, vg in zip(allowed, _group_rows(q, allowed, 1), _group_rows(k, allowed, 2),
                             _group_rows(v, allowed, 2)):
        count, lq, lkv = a.shape
        heads = lambda t, n, axes: transpose(reshape(t, (count, n, n_heads, dh)), axes)
        scores = scale(matmul(heads(qg, lq, (0, 2, 1, 3)), heads(kg, lkv, (0, 2, 3, 1))),
                       1.0 / np.sqrt(dh))
        attn = softmax(scores, axis=-1,
                       mask=np.broadcast_to(a[:, None], (count, n_heads, lq, lkv)))
        z = matmul(attn, heads(vg, lkv, (0, 2, 1, 3)))
        outs.append(reshape(transpose(z, (0, 2, 1, 3)), (count * lq, d)))
    return matmul(outs[0] if len(outs) == 1 else concat_rows(outs), wo.tensor)


def msa_forward(layer: FameLayer, x: Tensor, allowed=None, x_kv: Tensor | None = None) -> Tensor:
    """Queries from `x`, keys/values from `x_kv` (default `x`), paired as `allowed` says.

    `allowed` lists (count, L_q, L_kv) bool blocks over packed rows (see `_check_allowed`).
    """
    x_kv = x if x_kv is None else x_kv
    allowed = _check_allowed(allowed, x.shape[0], x_kv.shape[0], "msa_forward")
    return multi_head_attention(layer.wq_self, layer.wk_self, layer.wv_self, layer.wo_self,
                                layer.config.n_heads, x, x_kv, allowed)


class ProjectedValues(NamedTuple):
    """Value tables already multiplied by `wv_outer`, with their rows' `wo_outer` blocks.

    `parts` lists (table, ids) as `value_parts` does, and `proj` is what `opa_project`
    takes as its `proj`. An inference cache passes this as `value_parts`.
    """

    parts: list
    proj: np.ndarray


def opa_forward(layer: FameLayer, x: Tensor, allowed=None, x_kv: Tensor | None = None,
                value_parts=None) -> Tensor:
    """Outer branch: q from `x`, k and v from `x_kv` (default `x`); `allowed` as in msa_forward.

    Each group's scores run as one (count, L_q, L_kv, d) block. In
    true_outer_projected mode `opa_sum_project` aggregates and projects all
    packed rows in blocks of score features, so no (rows, d, d) aggregate is
    held; in hadamard mode every group's aggregate goes into one (rows, d)
    array, projected once.
    `value_parts` is a list of (table, ids) whose `table[ids]` rows sum to `x_kv`.
    With them, in true_outer_projected mode, each table is multiplied by
    `wv_outer` and `opa_project` projects each table row once instead of making
    the aggregate. As `ProjectedValues`, they come with both products made.
    """
    x_kv = x if x_kv is None else x_kv
    d = x.shape[1]
    blocks = _check_allowed(allowed, x.shape[0], x_kv.shape[0], "opa_forward")
    q = matmul(x, layer.wq_outer.tensor)
    k = matmul(x_kv, layer.wk_outer.tensor)
    projected = value_parts is not None and layer.config.opa_combine != "hadamard"
    proj = None
    if projected and isinstance(value_parts, ProjectedValues):
        v, proj = value_parts
    elif projected:
        v = [(matmul(table, layer.wv_outer.tensor), ids) for table, ids in value_parts]
    else:
        v = matmul(x_kv, layer.wv_outer.tensor)
    scores = []
    for qg, kg in zip(_group_rows(q, blocks, 1), _group_rows(k, blocks, 2)):
        pair = scale(pairwise_hadamard(qg, kg), 1.0 / np.sqrt(d))
        scores.append(tanh(pair) if layer.config.opa_score == "tanh" else softmax(pair, axis=-1))
    if projected:
        return opa_project(scores, v, blocks, layer.wo_outer.tensor, proj)
    values = _group_rows(v, blocks, 2)
    if layer.config.opa_combine == "hadamard":
        return matmul(opa_sum_hadamard(scores, values, blocks), layer.wo_outer.tensor)
    return opa_sum_project(scores, values, blocks, layer.wo_outer.tensor)


def fame_fuse(layer: FameLayer, z_self: Tensor, z_outer: Tensor) -> Tensor:
    if z_self.shape != z_outer.shape:
        raise ShapeError(f"fame_fuse shape mismatch: {z_self.shape} vs {z_outer.shape}")
    alphas = softmax(layer.fusion_logits.tensor, axis=-1)
    a1 = get_element(alphas, 0)
    a2 = get_element(alphas, 1)
    return add(scalar_mul(a1, z_self), scalar_mul(a2, z_outer))


def fame_forward(layer: FameLayer, x: Tensor, allowed=None, x_kv: Tensor | None = None,
                 value_parts=None) -> Tensor:
    """Both branches over the same queries `x` and key/value rows `x_kv` (default `x`), fused.

    The one attention entry point. `allowed` lists one (count, L_q, L_kv) bool
    block per group of packed sequences (see `_check_allowed`): the encoders
    pass groups of equal-length sequences, the decoder one causal sequence.
    `value_parts` go to `opa_forward`.
    """
    return fame_fuse(layer, msa_forward(layer, x, allowed, x_kv),
                     opa_forward(layer, x, allowed, x_kv, value_parts))
