"""Dense tensors with reverse-mode autograd.

Every differentiable operation run while a gradient is needed gives its output
a node: a creation number, its parents and its backward rule. A parent is an
input's node, or the input itself when it is a requires_grad leaf. No node
holds a tensor that is not a leaf, so an intermediate's array lives only as long
as the forward code keeps its tensor or some rule keeps the array. ``backward(loss)``
runs the nodes reachable from the loss, latest first, and accumulates gradients
on requires_grad leaves. A graph lives only as long as its tensors do. Shapes
are strict: binary pointwise ops demand identical shapes, and the only implicit
broadcast is scalar * tensor.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import itertools
import math
from collections import Counter, namedtuple

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    `node` is the `_Node` of an op output made while recording, else None. Once
    `backward` has run that node, it is empty, and the tensor is a leaf in any graph
    made after.
    `version` counts writes to a leaf's values: whatever replaces `data` or writes
    into it (`Parameter.assign`, `adam_step`) adds one, so a cache of results
    computed from the values can tell that they moved.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "version")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if any(dim < 1 for dim in arr.shape):
            raise ShapeError(f"tensor dimensions must all be >= 1, got {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None
        self.version = 0

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# per thread (and per asyncio task): a no_grad block in one leaves graphs in another alone
_recording = contextvars.ContextVar("recording", default=True)
_seq = itertools.count()


def is_recording() -> bool:
    """Whether ops make graph nodes now, that is, outside every `no_grad` block."""
    return _recording.get()


@contextlib.contextmanager
def no_grad():
    """Make no graph inside the block (inference / finite differences) in this thread."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class _Node:
    """An op output's creation number, its parents (see `_parent`, one per input) and
    `rule(dout)`, which returns one gradient or None per input. `backward` empties it."""

    __slots__ = ("seq", "parents", "rule")

    def __init__(self, seq, parents, rule):
        self.seq, self.parents, self.rule = seq, parents, rule


def _parent(t: Tensor):
    """What a node made from `t` links to: t's node until it has run, else t if it
    needs a gradient, else None."""
    node = t.node
    if node is not None and node.rule is not None:
        return node
    return t if t.requires_grad else None


def _emit(out_data, inputs, rule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.version = 0
    out.requires_grad = _recording.get() and any(t.requires_grad for t in inputs)
    out.node = _Node(next(_seq), tuple(map(_parent, inputs)), rule) if out.requires_grad else None
    return out


# a gradient that is zero outside rows start:stop of an array of `shape`
_Rows = namedtuple("_Rows", "shape start stop rows")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf of the loss's graph.

    Nodes run latest first, so each runs after all of its consumers. A node is
    emptied as its rule runs, and the rule, with the arrays it captured, is dropped
    before its gradients are summed, so those arrays are freed before the gradients
    of earlier (often larger) nodes are allocated. A node that an earlier backward
    has already run passes nothing on. Gradients are summed in place only into
    arrays that backward allocated: a rule may hand one array to several inputs
    (`add`, views of `dout` from the `concat_*` ops), so an array a rule returned is
    never written. A `_Rows` gradient is added into one full-size buffer. A leaf
    gets its gradient array itself, copied only if its base array is shared with
    another leaf's gradient, so every leaf owns its array and may scale it in place.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    start = _parent(loss) or loss  # the loss's node, or the loss itself as a leaf
    grads: dict = {start: np.ones_like(loss.data)}  # node or leaf -> its gradient so far
    owned = {start}
    heap = [(-start.seq, start)] if isinstance(start, _Node) else []  # latest node on top
    leaves = [] if heap else [start]
    while heap:
        _, node = heapq.heappop(heap)
        parents, rule, dout = node.parents, node.rule, grads.pop(node)
        node.parents = node.rule = None
        if rule is None:  # run by an earlier backward of a graph that shares it
            continue
        outs = rule(dout)
        del rule, dout  # the rule's captured arrays go before its gradients are summed
        for parent, g in zip(parents, outs):
            if g is None or parent is None:
                continue
            held = grads.get(parent)
            if held is None and isinstance(parent, Tensor):
                leaves.append(parent)
            elif held is None:
                heapq.heappush(heap, (-parent.seq, parent))
            if isinstance(g, _Rows):
                if held is None:
                    grads[parent] = held = np.zeros(g.shape)
                    held[g.start:g.stop] = g.rows
                else:
                    if parent not in owned:
                        grads[parent] = held = held.copy()
                    held[g.start:g.stop] += g.rows
                owned.add(parent)
            elif held is None:
                grads[parent] = g
            elif parent in owned:
                held += g
            else:
                grads[parent] = np.asarray(held + g)  # a 0-d sum is a scalar, not an array
                owned.add(parent)
    base = lambda g: id(g if g.base is None else g.base)
    shared = Counter(base(grads[t]) for t in leaves if t not in owned)
    for tensor in leaves:
        g = grads[tensor]
        if tensor not in owned and shared[base(g)] > 1:
            g = g.copy()
        tensor.grad = g if tensor.grad is None else tensor.grad + g


# ---------------------------------------------------------------------------
# pointwise ops and linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda dout: (dout, dout))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data - b.data, (a, b), lambda dout: (dout, -dout))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    # each operand's array is kept only for the other's gradient: a dropout or causal
    # mask needs none, so the tensor it multiplies is not kept alive by this node
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return _emit(a.data * b.data, (a, b), lambda dout: (
        None if bd is None else dout * bd, None if ad is None else dout * ad))


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"div shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad / bd, (a, b), lambda dout: (dout / bd, -dout * ad / (bd * bd)))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit(x.data * s, (x,), lambda dout: (dout * s,))


def scalar_mul(s: Tensor, x: Tensor) -> Tensor:
    """Multiply a tensor by a one-element gate tensor (differentiable in both)."""
    if s.data.size != 1:
        raise ShapeError(f"scalar_mul gate must be one element, got shape {s.shape}")
    sval = float(s.data.reshape(()))
    xd = x.data
    sshape = s.shape

    def bwd(dout):
        return (np.sum(dout * xd).reshape(sshape), dout * sval)

    return _emit(xd * sval, (s, x), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; any leading (batch) axes must match exactly."""
    if (a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, (a, b),
                 lambda dout: (dout @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ dout))


def transpose(x: Tensor, axes) -> Tensor:
    """Permute the axes of x (numpy's transpose); the result is contiguous."""
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for shape {x.shape}")
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _emit(np.ascontiguousarray(x.data.transpose(axes)), (x,),
                 lambda dout: (dout.transpose(inverse),))


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {old} to {shape}") from exc
    return _emit(out, (x,), lambda dout: (dout.reshape(old),))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _emit(y, (x,), lambda dout: (dout * (1.0 - y * y),))


def relu(x: Tensor) -> Tensor:
    pos = x.data > 0
    return _emit(np.where(pos, x.data, 0.0), (x,), lambda dout: (dout * pos,))


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    y = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))), np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))
    return _emit(y, (x,), lambda dout: (dout * y * (1.0 - y),))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return _emit(y, (x,), lambda dout: (dout * y,))


def log(x: Tensor) -> Tensor:
    xd = x.data
    return _emit(np.log(xd), (x,), lambda dout: (dout / xd,))


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return _emit(y, (x,), lambda dout: (dout * 0.5 / y,))


def _softmax(xd: np.ndarray, axis: int) -> np.ndarray:
    """The softmax of the array `xd` along `axis`, shifted by its maximum."""
    e = np.exp(xd - xd.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1, mask=None) -> Tensor:
    """Stable softmax along one axis; masked-out entries get probability zero."""
    ax = axis if axis >= 0 else x.ndim + axis
    if ax < 0 or ax >= x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    xd = x.data
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != xd.shape:
            raise ShapeError(f"softmax mask shape {m.shape} does not match {xd.shape}")
        if not m.any(axis=ax).all():
            raise ValueError("softmax: a slice has every position masked")
        xd = np.where(m, xd, -np.inf)
    y = _softmax(xd, ax)

    def bwd(dout):
        inner = (dout * y).sum(axis=ax, keepdims=True)
        return (y * (dout - inner),)

    return _emit(y, (x,), bwd)


def outer_product(u: Tensor, v: Tensor) -> Tensor:
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"outer_product needs equal-length vectors, got {u.shape} and {v.shape}")
    ud, vd = u.data, v.data
    return _emit(np.outer(ud, vd), (u, v), lambda dout: (dout @ vd, dout.T @ ud))


def _layer_norm(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """Layer norm of the array `xd` over its last axis: (y, xhat, 1 / std)."""
    d = xd.shape[-1]
    xc = xd - xd.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last dim {d}")
    xd = x.data
    y, xhat, inv = _layer_norm(xd, gamma.data, beta.data, eps)
    lead = tuple(range(xd.ndim - 1))

    def bwd(dout):
        dbeta = dout.sum(axis=lead) if lead else dout.copy()
        dgamma = (dout * xhat).sum(axis=lead) if lead else dout * xhat
        dxhat = dout * gamma.data
        dx = inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        return (dx, dgamma, dbeta)

    return _emit(y, (x, gamma, beta), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError(f"embedding ids must be a non-empty 1-d sequence, got shape {ids.shape}")
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be a matrix, got shape {table.shape}")
    vocab = table.shape[0]
    bad = ids[(ids < 0) | (ids >= vocab)]
    if bad.size:
        raise ValueError(f"embedding id {int(bad[0])} out of range for table of size {vocab}")
    tshape = table.shape

    def bwd(dout):
        g = np.zeros(tshape, dtype=np.float64)
        np.add.at(g, ids, dout)
        return (g,)

    return _emit(table.data[ids], (table,), bwd)


def cross_entropy(logits: Tensor, targets, ignore_index=None) -> Tensor:
    """Mean -log softmax(logits)[target] over positions whose target != ignore_index."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy needs (N, C) logits, got shape {logits.shape}")
    t = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if t.shape != (n,):
        raise ShapeError(f"cross_entropy target length {t.shape} does not match {n} rows")
    valid = np.ones(n, dtype=bool) if ignore_index is None else (t != ignore_index)
    count = int(valid.sum())
    if count == 0:
        raise ValueError("empty loss: every position is ignored")
    tv = t[valid]
    if tv.size and (tv.min() < 0 or tv.max() >= c):
        raise ValueError(f"cross_entropy target out of range [0, {c})")
    xd = logits.data
    shifted = xd - xd.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.nonzero(valid)[0]
    loss = -logp[rows, tv].sum() / count

    def bwd(dout):
        p = np.exp(logp)
        g = p.copy()
        g[rows, tv] -= 1.0
        g[~valid] = 0.0
        return (g * (float(dout) / count),)

    return _emit(np.asarray(loss), (logits,), bwd)


def dropout(x: Tensor, p: float, training: bool, rng=None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    m = (rng.random(x.shape) >= p) / (1.0 - p)
    return _emit(x.data * m, (x,), lambda dout: (dout * m,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a bias vector to every row of a matrix (the one sanctioned row broadcast)."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias shape mismatch: {x.shape} + {b.shape}")
    return _emit(x.data + b.data, (x, b), lambda dout: (dout, dout.sum(axis=0)))


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _emit(np.asarray(x.data.sum()), (x,), lambda dout: (np.full(shape, float(dout)),))


def mean_rows(x: Tensor) -> Tensor:
    """Mean over the rows of a matrix, or of each matrix in a (..., n, d) stack."""
    if x.ndim < 2:
        raise ShapeError(f"mean_rows needs a matrix, got shape {x.shape}")
    n = x.shape[-2]
    return _emit(x.data.sum(axis=-2) / n, (x,),
                 lambda dout: (np.repeat((dout / n)[..., None, :], n, axis=-2),))


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop along the first axis (a view of x's data)."""
    if x.ndim < 1 or not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] invalid for shape {x.shape}")
    shape = x.shape

    return _emit(x.data[start:stop], (x,), lambda dout: (_Rows(shape, start, stop, dout),))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols [{start}:{stop}] invalid for shape {x.shape}")
    shape = x.shape

    def bwd(dout):
        g = np.zeros(shape, dtype=np.float64)
        g[:, start:stop] = dout
        return (g,)

    return _emit(np.ascontiguousarray(x.data[:, start:stop]), (x,), bwd)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts or any(p.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ShapeError("concat_cols needs matrices with equal row counts")
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bwd(dout):
        return tuple(dout[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _emit(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bwd)


def concat_rows(parts) -> Tensor:
    parts = list(parts)
    if not parts or any(p.ndim != 2 or p.shape[1] != parts[0].shape[1] for p in parts):
        raise ShapeError("concat_rows needs matrices with equal column counts")
    heights = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + heights)

    def bwd(dout):
        return tuple(dout[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _emit(np.concatenate([p.data for p in parts], axis=0), tuple(parts), bwd)


def concat_vec(parts) -> Tensor:
    parts = list(parts)
    if not parts or any(p.ndim != 1 for p in parts):
        raise ShapeError("concat_vec needs rank-1 tensors")
    lengths = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + lengths)

    def bwd(dout):
        return tuple(dout[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _emit(np.concatenate([p.data for p in parts]), tuple(parts), bwd)


def stack_rows(rows) -> Tensor:
    rows = list(rows)
    if not rows or any(r.ndim != 1 or r.shape != rows[0].shape for r in rows):
        raise ShapeError("stack_rows needs equal-length vectors")

    def bwd(dout):
        return tuple(dout[i] for i in range(len(rows)))

    return _emit(np.stack([r.data for r in rows]), tuple(rows), bwd)


def get_element(x: Tensor, index: int) -> Tensor:
    if x.ndim != 1 or not (0 <= index < x.shape[0]):
        raise ShapeError(f"get_element index {index} invalid for shape {x.shape}")
    n = x.shape[0]

    def bwd(dout):
        g = np.zeros(n, dtype=np.float64)
        g[index] = float(dout)
        return (g,)

    return _emit(np.asarray(x.data[index]), (x,), bwd)


# ---------------------------------------------------------------------------
# pairwise ops used by outer-product attention


def pairwise_hadamard(q: Tensor, k: Tensor) -> Tensor:
    """out[..., i, j, :] = q[..., i, :] * k[..., j, :] for all query/key row pairs.

    q is (..., n, d) and k is (..., m, d) with identical leading (batch) axes.
    """
    if (q.ndim < 2 or q.ndim != k.ndim or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1]):
        raise ShapeError(f"pairwise_hadamard shape mismatch: {q.shape} vs {k.shape}")
    qd, kd = q.data, k.data

    def bwd(dout):
        return (np.einsum("...ijd,...jd->...id", dout, kd),
                np.einsum("...ijd,...id->...jd", dout, qd))

    return _emit(qd[..., :, None, :] * kd[..., None, :, :], (q, k), bwd)


def group_blocks(x, leads) -> list:
    """Packed rows `x` (a Tensor or an array) split into one block per group.

    Each lead tuple takes the next prod(lead) rows of `x` as a lead + x.shape[1:]
    block, a view when `x` is an array: (count, length) is a group of `count`
    sequences of `length` rows each.
    """
    sizes = [math.prod(lead) for lead in leads]
    if sum(sizes) != x.shape[0]:
        raise ShapeError(f"groups {list(leads)} of {sum(sizes)} rows do not cover {x.shape[0]}")
    is_tensor = isinstance(x, Tensor)
    blocks, start = [], 0
    for lead, size in zip(leads, sizes):
        part = x
        if size != x.shape[0]:
            part = slice_rows(x, start, start + size) if is_tensor else x[start:start + size]
        shape = tuple(lead) + tuple(x.shape[1:])
        blocks.append(reshape(part, shape) if is_tensor else part.reshape(shape))
        start += size
    return blocks


def _opa_groups(name: str, s, v, outer: bool):
    """Lists of per-group (count, n, m, d) scores and (count, m, e) values, checked.

    Returns each group's (scores, values) arrays, their (count, n) lead axes and
    the width shared by every group: (d, e) for the outer sums, (d,) for hadamard.
    """
    ss, vs = list(s), list(v)
    if not len(ss) == len(vs) > 0 or any(
            t.ndim != 4 or u.ndim != 3 or u.shape[:2] != t.shape[::2]
            or not (outer or u.shape[-1] == t.shape[-1]) for t, u in zip(ss, vs)):
        raise ShapeError(f"{name} shape mismatch: scores {[t.shape for t in ss]}, "
                         f"values {[u.shape for u in vs]}")
    tails = {(t.shape[-1], u.shape[-1]) if outer else (t.shape[-1],) for t, u in zip(ss, vs)}
    if len(tails) != 1:
        raise ShapeError(f"{name} groups differ in width: {sorted(tails)}")
    groups = [(t.data, u.data) for t, u in zip(ss, vs)]
    return ss, vs, groups, [t.shape[:2] for t in ss], tails.pop()


def _opa_sum(name: str, s, v, outer: bool, forward, backward) -> Tensor:
    """The two OPA sums over lists of per-group blocks, as one (rows, ...) array.

    `forward(sd, vd, out)` writes one group's aggregate into `out` and
    `backward(sd, vd, dout)` returns its (ds, dv). Each group writes into
    a reshaped slice of one preallocated (rows, ...) array, so no per-group
    result is kept and then concatenated.
    """
    ss, vs, groups, leads, tail = _opa_groups(name, s, v, outer)
    out = np.empty((sum(map(math.prod, leads)),) + tail)
    for group, view in zip(groups, group_blocks(out, leads)):
        forward(*group, view)

    def bwd(dout):
        grads = [backward(*group, g) for group, g in zip(groups, group_blocks(dout, leads))]
        return tuple(ds for ds, _ in grads) + tuple(dv for _, dv in grads)

    return _emit(out, tuple(ss) + tuple(vs), bwd)


# per query row i the outer sums are matrix products over j, so they run as batched matmuls
def _outer_forward(sd, vd, out):
    np.matmul(np.swapaxes(sd, -1, -2), vd[..., None, :, :], out=out)


def _outer_backward(sd, vd, dout):
    ds = np.swapaxes(dout @ np.swapaxes(vd[..., None, :, :], -1, -2), -1, -2)
    n, m, d = sd.shape[-3:]
    by_key = np.swapaxes(sd, -3, -2).reshape(sd.shape[:-3] + (m, n * d))
    return ds, by_key @ dout.reshape(dout.shape[:-3] + (n * d, dout.shape[-1]))


def opa_sum_outer(s, v) -> Tensor:
    """out[c, i] = sum over j of s[c, i, j, :] (outer) v[c, j], a matrix per query.

    s and v are equal-length lists of (count, n, m, d) scores and (count, m, e) values,
    one per group of sequences. The result is one (rows, d, e) array: each group's
    (count, n, d, e) result flattened to rows, in list order.
    """
    return _opa_sum("opa_sum_outer", s, v, True, _outer_forward, _outer_backward)


# aggregate bytes per feature block of opa_sum_project: 16 of the 128 features of a
# batch-32 word layer (about 256 rows), where the whole aggregate would be 32 MB
OPA_BLOCK_BYTES = 4 << 20


def opa_sum_project(s, v, w: Tensor) -> Tensor:
    """reshape(opa_sum_outer(s, v), (rows, d * e)) @ w, never holding the aggregate.

    s and v are as opa_sum_outer takes them, and w is (d * e, c). The score
    features run in blocks a0:a1 of at most OPA_BLOCK_BYTES of aggregate (at least one
    feature): each block's (rows, a1 - a0, e) aggregate meets rows a0 * e:a1 * e of w,
    is added into the (rows, c) output and is dropped. Backward makes each block's
    aggregate again, writes those rows of dw in one product over all rows, then that
    block's ds[..., a0:a1] and its share of dv. One query row, or any aggregate under the
    budget, is one block: the same products as opa_sum_outer followed by a matmul.
    """
    ss, vs, groups, leads, (d, e) = _opa_groups("opa_sum_project", s, v, True)
    if w.ndim != 2 or w.shape[0] != d * e:
        raise ShapeError(f"opa_sum_project weight {w.shape} does not take {d}x{e} aggregates")
    rows, wd = sum(map(math.prod, leads)), w.data
    width = min(d, max(1, OPA_BLOCK_BYTES // (rows * e * 8)))
    spans = [(a0, min(a0 + width, d)) for a0 in range(0, d, width)]

    def aggregate(a0, a1, buf):
        """The (rows, (a1 - a0) * e) aggregate of score features a0:a1, written into `buf`."""
        agg = buf[:rows * (a1 - a0) * e].reshape(rows, a1 - a0, e)
        for (sd, vd), view in zip(groups, group_blocks(agg, leads)):
            _outer_forward(sd[..., a0:a1], vd, view)
        return agg.reshape(rows, -1)

    buf = np.empty(rows * width * e)
    out = aggregate(*spans[0], buf) @ wd[:spans[0][1] * e]
    for a0, a1 in spans[1:]:
        out += aggregate(a0, a1, buf) @ wd[a0 * e:a1 * e]

    def bwd(dout):
        buf = np.empty(rows * width * e)
        ds = [np.empty(sd.shape) for sd, _ in groups]
        dv = [np.zeros(vd.shape) for _, vd in groups]
        dw = np.empty(wd.shape)
        for a0, a1 in spans:
            np.matmul(aggregate(a0, a1, buf).T, dout, out=dw[a0 * e:a1 * e])
            dagg = (dout @ wd[a0 * e:a1 * e].T).reshape(rows, a1 - a0, e)
            for (sd, vd), g, ds_g, dv_g in zip(groups, group_blocks(dagg, leads), ds, dv):
                ds_part, dv_part = _outer_backward(sd[..., a0:a1], vd, g)
                ds_g[..., a0:a1] = ds_part
                dv_g += dv_part
        return tuple(ds) + tuple(dv) + (dw,)

    return _emit(out, tuple(ss) + tuple(vs) + (w,), bwd)


def _hadamard_forward(sd, vd, out):
    np.einsum("...ijd,...jd->...id", sd, vd, out=out)


def _hadamard_backward(sd, vd, dout):
    return (np.einsum("...id,...jd->...ijd", dout, vd),
            np.einsum("...ijd,...id->...jd", sd, dout))


def opa_sum_hadamard(s, v) -> Tensor:
    """out[c, i] = sum over j of s[c, i, j, :] * v[c, j].

    Lists of groups as opa_sum_outer takes them, with e == d; the result is one (rows, d) array.
    """
    return _opa_sum("opa_sum_hadamard", s, v, False, _hadamard_forward, _hadamard_backward)


def project_rows(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P(v)[a] = sum_b v[b] w[a * e + b] for each row v of `table` (rows, e) and w (d * e, c).

    Returns the (rows, d, c) blocks, each row's block contiguous: the table projection
    of `opa_project`, and what an inference cache of its blocks is filled with.
    """
    w3 = w.reshape(-1, table.shape[1], w.shape[1])
    proj = np.empty((len(table),) + w3.shape[::2])
    np.matmul(table[None], w3, out=proj.transpose(1, 0, 2))
    return proj


def opa_project(s, parts, w: Tensor, proj=None) -> Tensor:
    """reshape(opa_sum_outer(s, v), (rows, d * e)) @ w, where v sums table rows.

    s is a list of (count, n, m, d) score blocks, one per group, as opa_sum_outer takes
    them. `parts` lists (table, ids): value row j, in the order opa_sum_outer flattens
    them, is the sum over parts of table[ids[j]].
    The projection P(v)[a] = sum_b v[b] w[a * e + b] is linear in v, so every table row
    is projected once (`project_rows`), each distinct combination u of ids gets P_u as
    the sum of its rows' projections, and out_i is the sum over j of
    s_ij @ P_u(j). So the d * e * c work scales with the table rows, and neither v nor
    the (rows, d, e) aggregate is made. The gradient goes to s, to every table and to w.

    `proj`, if given, holds the blocks that `project_rows` made of the table rows through
    `w`, and `parts` lists the ids alone, each indexing `proj`, as an inference cache
    keeps its rows in the order it filled them. Only its rows that the ids reach are
    read, so it may be a cache whose other rows are unfilled. It is for inference: no
    graph is made, and one that would be raises.
    """
    ss = list(s)
    d = ss[0].shape[-1] if ss else 0
    if not ss or any(t.ndim != 4 or t.shape[-1] != d for t in ss):
        raise ShapeError(f"opa_project shape mismatch: scores {[t.shape for t in ss]}")
    if proj is None:
        tables, ids = [table for table, _ in parts], [i for _, i in parts]
        widths = {table.shape[1:] for table in tables}
        if len(widths) != 1 or len(next(iter(widths))) != 1:
            raise ShapeError(f"opa_project tables differ in width: {[t.shape for t in tables]}")
        (e,) = widths.pop()
        if w.ndim != 2 or w.shape[0] != d * e:
            raise ShapeError(f"opa_project weight {w.shape} does not take {d}x{e} aggregates")
        sizes = [table.shape[0] for table in tables]
    else:
        if is_recording() and any(t.requires_grad for t in ss + [w]):
            raise ValueError("opa_project: a given projection makes no graph; run it under no_grad")
        tables, ids, sizes = [], list(parts), [len(proj)] * len(parts)
    n_keys = sum(t.shape[0] * t.shape[2] for t in ss)
    ids = [np.asarray(i, dtype=np.int64) for i in ids]
    if any(i.shape != (n_keys,) for i in ids):
        raise ShapeError(f"opa_project needs {n_keys} value ids per table, "
                         f"got shapes {[i.shape for i in ids]}")
    _, first, uid = np.unique(np.ravel_multi_index(ids, sizes), return_index=True,
                              return_inverse=True)
    # each distinct value's rows in the tables stacked into one, or in `proj`'s one table
    starts = np.cumsum([0] + sizes[:-1])
    combos = np.stack([i[first] + (start if proj is None else 0)
                       for start, i in zip(starts, ids)], axis=1)
    # every (query, key) pair, in score order: its query row and its key's distinct value
    pair_q, pair_u = [], []
    q0 = v0 = 0
    for t in ss:
        count, n, m = t.shape[:3]
        query, key = np.divmod(np.arange(count * n * m), m)
        pair_q.append(q0 + query)
        pair_u.append(uid[v0 + query // n * m + key])
        q0, v0 = q0 + count * n, v0 + count * m
    pair_u = np.concatenate(pair_u)
    order = np.argsort(pair_u, kind="stable")  # pairs in value order
    rank = np.argsort(order)
    sp = np.concatenate([sd.data.reshape(-1, d) for sd in ss])[order]
    qp = np.concatenate(pair_q)[order]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(pair_u, minlength=len(first)))])
    segs = [(u, lo, hi) for u, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]
    if proj is None:
        table = np.concatenate([t.data for t in tables])
        proj = project_rows(table, w.data)
    buf = np.empty(proj.shape[1:])

    def value_proj(u):
        """P_u, the sum of its table rows' projections, in one buffer that stays in cache."""
        np.copyto(buf, proj[combos[u, 0]])
        for row in combos[u, 1:]:
            np.add(buf, proj[row], out=buf)
        return buf

    terms = np.empty((len(order), buf.shape[1]))
    for u, lo, hi in segs:
        np.matmul(sp[lo:hi], value_proj(u), out=terms[lo:hi])

    leads = [t.shape[:3] for t in ss]  # shapes, so that the rule keeps no score tensor

    def by_group(rows):
        """Per-pair rows, in value order, as one (count, n, m, width) block per group."""
        return group_blocks(rows[rank], leads)

    out = np.concatenate([t.sum(axis=-2).reshape(-1, buf.shape[1]) for t in by_group(terms)])

    def bwd(dout):
        dterms = dout[qp]
        ds = np.empty_like(sp)
        drows = np.zeros_like(proj)
        dproj = np.empty_like(buf)
        for u, lo, hi in segs:
            np.matmul(dterms[lo:hi], value_proj(u).T, out=ds[lo:hi])
            np.matmul(sp[lo:hi].T, dterms[lo:hi], out=dproj)
            for row in combos[u]:
                drows[row] += dproj
        dss = tuple(by_group(ds))
        del dterms, ds  # the value-ordered pair arrays go before dtable and dw are made
        w3 = w.data.reshape(d, e, -1)
        dtable = sum(drows[:, a] @ w3[a].T for a in range(d))
        dw = np.matmul(table.T[None], drows.transpose(1, 0, 2)).reshape(w.shape)
        return dss + tuple(np.split(dtable, starts[1:])) + (dw,)

    return _emit(out, tuple(ss) + tuple(tables) + (w,), bwd)


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Differentiable cosine between two vectors; rejects zero-norm inputs."""
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"cosine needs equal-length vectors, got {u.shape} and {v.shape}")
    nu = math.sqrt(float(np.dot(u.data, u.data)))
    nv = math.sqrt(float(np.dot(v.data, v.data)))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of a zero-norm embedding")
    dot = sum_all(mul(u, v))
    return div(dot, mul(sqrt(sum_all(mul(u, u))), sqrt(sum_all(mul(v, v)))))
