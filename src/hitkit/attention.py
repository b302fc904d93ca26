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
    group_blocks,
    matmul,
    mul,
    opa_project,
    opa_sum_hadamard,
    opa_sum_project,
    pairwise_hadamard,
    reshape,
    scalar_mul,
    scale,
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
    """Projections for both attention branches plus the fusion gate, each a `Parameter` leaf."""

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


def _groups(groups, x: Tensor) -> list:
    """(count, L_q, L_kv) per group of packed rows; None is one sequence of the rows of `x`.

    Group g stands for `count` sequences whose L_q query rows and L_kv key rows
    follow those of the groups before it.
    """
    return [(1, x.shape[0], x.shape[0])] if groups is None else list(groups)


def _causal(n: int) -> np.ndarray:
    """The (n, n) mask in which position i sees positions up to i; a causal group is a
    whole sequence."""
    return np.tri(n, dtype=bool)


def multi_head_attention(wq: Parameter, wk: Parameter, wv: Parameter, wo: Parameter,
                         n_heads: int, x_q: Tensor, x_kv: Tensor, groups,
                         causal: bool = False) -> Tensor:
    """Scaled dot-product attention over heads.

    `groups` lists (count, L_q, L_kv) per group of packed rows (see `_groups`); each
    group's heads run as one (count, heads, L_q, L_kv) block. Every query sees every
    key of its sequence, or, if `causal`, the keys `_causal` marks. The keys and values
    are the products of the rows `x_kv`.
    """
    d = wq.data.shape[0]
    dh = d // n_heads
    heads = lambda t, count, n, axes: transpose(reshape(t, (count, n, n_heads, dh)), axes)
    q = matmul(x_q, wq)
    kv_leads = [g[::2] for g in groups]
    split = lambda w, axes: [heads(b, count, n, axes) for (count, n), b
                             in zip(kv_leads, group_blocks(matmul(x_kv, w), kv_leads))]
    keys, values = split(wk, (0, 2, 3, 1)), split(wv, (0, 2, 1, 3))
    outs = []
    for (count, lq, lkv), qg, kg, vg in zip(groups, group_blocks(q, [g[:2] for g in groups]),
                                            keys, values):
        scores = scale(matmul(heads(qg, count, lq, (0, 2, 1, 3)), kg), 1.0 / np.sqrt(dh))
        mask = np.broadcast_to(_causal(lq), scores.shape) if causal and lq > 1 else None
        z = matmul(softmax(scores, axis=-1, mask=mask), vg)
        outs.append(reshape(transpose(z, (0, 2, 1, 3)), (count * lq, d)))
    return matmul(outs[0] if len(outs) == 1 else concat_rows(outs), wo)


def msa_forward(layer: FameLayer, x: Tensor, groups=None, causal: bool = False) -> Tensor:
    """Self-attention of the rows `x`, grouped as `groups` says (see `_groups`); `causal`
    as multi_head_attention takes it."""
    return multi_head_attention(layer.wq_self, layer.wk_self, layer.wv_self, layer.wo_self,
                                layer.config.n_heads, x, x, _groups(groups, x), causal)


class ProjectedValues(NamedTuple):
    """Value rows already projected through `wv_outer` and `wo_outer`, as blocks.

    `ids` lists one id array per part, as `value_parts` does, each indexing the blocks
    `proj`, and goes to `opa_project` with them: an inference cache passes this as
    `value_parts`.
    """

    ids: list
    proj: np.ndarray


def opa_forward(layer: FameLayer, x: Tensor, groups=None, value_parts=None,
                causal: bool = False) -> Tensor:
    """Outer branch of the rows `x`; `groups` and `causal` as in msa_forward.

    Each group's scores run as one (count, L_q, L_kv, d) block; if `causal`, they are
    multiplied by the group's mask before they aggregate. In
    true_outer_projected mode `opa_sum_project` aggregates and projects all
    packed rows in blocks of score features, so no (rows, d, d) aggregate is
    held; in hadamard mode every group's aggregate goes into one (rows, d)
    array, projected once.
    `value_parts` is a list of (table, ids) whose `table[ids]` rows sum to `x`.
    With them, in true_outer_projected mode, each table is multiplied by
    `wv_outer` and `opa_project` projects each table row once instead of making
    the aggregate. As `ProjectedValues`, they come with both products made.
    """
    d = x.shape[1]
    groups = _groups(groups, x)
    kv_leads = [g[::2] for g in groups]
    q = matmul(x, layer.wq_outer)
    projected = value_parts is not None and layer.config.opa_combine != "hadamard"
    proj = value_parts.proj if isinstance(value_parts, ProjectedValues) else None
    keys = group_blocks(matmul(x, layer.wk_outer), kv_leads)
    if projected and proj is not None:
        values = value_parts.ids
    elif projected:
        values = [(matmul(table, layer.wv_outer), ids) for table, ids in value_parts]
    else:
        values = group_blocks(matmul(x, layer.wv_outer), kv_leads)
    scores = []
    for (count, lq, lkv), qg, kg in zip(groups, group_blocks(q, [g[:2] for g in groups]), keys):
        pair = scale(pairwise_hadamard(qg, kg), 1.0 / np.sqrt(d))
        s = tanh(pair) if layer.config.opa_score == "tanh" else softmax(pair, axis=-1)
        if causal and lq > 1:
            s = mul(s, Tensor(np.broadcast_to(_causal(lq)[:, :, None], s.shape)))
        scores.append(s)
    if projected:
        return opa_project(scores, values, layer.wo_outer, proj)
    if layer.config.opa_combine == "hadamard":
        return matmul(opa_sum_hadamard(scores, values), layer.wo_outer)
    return opa_sum_project(scores, values, layer.wo_outer)


def fame_fuse(layer: FameLayer, z_self: Tensor, z_outer: Tensor) -> Tensor:
    if z_self.shape != z_outer.shape:
        raise ShapeError(f"fame_fuse shape mismatch: {z_self.shape} vs {z_outer.shape}")
    alphas = softmax(layer.fusion_logits, axis=-1)
    a1 = get_element(alphas, 0)
    a2 = get_element(alphas, 1)
    return add(scalar_mul(a1, z_self), scalar_mul(a2, z_outer))


def fame_forward(layer: FameLayer, x: Tensor, groups=None, value_parts=None,
                 causal: bool = False) -> Tensor:
    """Both branches over the rows `x`, fused.

    The one attention entry point. `groups` lists (count, L_q, L_kv) per group of
    packed sequences (see `_groups`): the encoders pass groups of equal-length
    sequences, in which every row sees its whole sequence; the decoder passes
    `causal`. `value_parts` go to `opa_forward`.
    """
    return fame_fuse(layer, msa_forward(layer, x, groups, causal),
                     opa_forward(layer, x, groups, value_parts, causal))
