"""Character- and word-level encoder stacks.

A shared character encoder turns each word's character sequence into a
pooled vector; the word encoder adds that to a word embedding and a
sinusoidal position row, then runs its own stack. Pooling over sequences
uses a learned-context attention (the hierarchical attention operator).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

import numpy as np

from .attention import FameConfig, FameLayer, ProjectedValues, fame_forward
from .optim import Parameter, normal_init, xavier_uniform
from .tensor import (
    ShapeError,
    Tensor,
    add,
    add_bias,
    concat_rows,
    embedding_lookup,
    group_blocks,
    is_recording,
    layer_norm,
    matmul,
    mean_rows,
    mul,
    project_rows,
    relu,
    reshape,
    softmax,
    tanh,
)


def positional_encoding(pos: int, d: int) -> np.ndarray:
    """Sinusoidal position row: sin at even indices, cos at odd, frequency 10000^(-2i/d)."""
    pe = np.zeros(d)
    for i in range(0, d, 2):
        angle = pos / (10000.0 ** (i / d))
        pe[i] = np.sin(angle)
        if i + 1 < d:
            pe[i + 1] = np.cos(angle)
    return pe


def positional_table(max_len: int, d: int) -> np.ndarray:
    return np.stack([positional_encoding(p, d) for p in range(max_len)])


class FeedForward:
    """Position-wise two-layer projection with relu."""

    def __init__(self, d_model: int, d_ff: int, rng: np.random.Generator, name: str):
        self.w1 = Parameter(f"{name}.w1", xavier_uniform(rng, (d_model, d_ff)))
        self.b1 = Parameter(f"{name}.b1", np.zeros(d_ff))
        self.w2 = Parameter(f"{name}.w2", xavier_uniform(rng, (d_ff, d_model)))
        self.b2 = Parameter(f"{name}.b2", np.zeros(d_model))

    def forward(self, x: Tensor) -> Tensor:
        h = relu(add_bias(matmul(x, self.w1.tensor), self.b1.tensor))
        return add_bias(matmul(h, self.w2.tensor), self.b2.tensor)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


class Packing:
    """Ragged sequences as one block of rows, grouped by length or by `keys`.

    Sequences are sorted by key, by default their length (stably, so equal keys
    keep their order; equal keys must mean equal lengths), which makes each group
    a contiguous run of rows: `layout` lists (count, length) per group, and a
    group's rows reshape to a (count, length, d) block without a copy or padding.
    """

    def __init__(self, lengths, keys=None):
        self.lengths = [int(n) for n in lengths]
        key = (self.lengths if keys is None else list(keys)).__getitem__
        self.order = sorted(range(len(self.lengths)), key=key)
        self.layout = [(len(run), self.lengths[run[0]]) for run
                       in (list(g) for _, g in itertools.groupby(self.order, key))]
        bounds = np.cumsum([0] + [self.lengths[i] for i in self.order])
        self.starts = np.empty(len(self.lengths), dtype=np.int64)
        self.starts[self.order] = bounds[:-1]
        self.n_rows = int(bounds[-1])
        self.positions = np.concatenate([np.arange(self.lengths[i]) for i in self.order])
        self.in_order = self.order == sorted(self.order)

    def groups(self, queries=None) -> list:
        """(count, L_q, length) per group, as `fame_forward` takes them: the query rows are
        the sequences' own, or those of `queries`, a Packing of the same groups."""
        return [(count, n, length)
                for (_, n), (count, length) in zip((queries or self).layout, self.layout)]

    def rows(self, per_sequence) -> list:
        """The items of every sequence's list (lists given in original order), in packed order."""
        return [item for i in self.order for item in per_sequence[i]]

    def pack_rows(self, x: Tensor) -> Tensor:
        """Rows x of the sequences stacked in their original order, in packed order."""
        return x if self.in_order else embedding_lookup(x, np.argsort(self._packed_rows()))

    def unpack_rows(self, x: Tensor) -> Tensor:
        """Packed rows x, stacked back in the original order of their sequences."""
        return x if self.in_order else embedding_lookup(x, self._packed_rows())

    def unpack_sequences(self, x: Tensor) -> Tensor:
        """One row per sequence, from packed order back to the original order."""
        return x if self.in_order else embedding_lookup(x, np.argsort(self.order))

    def _packed_rows(self) -> np.ndarray:
        """The packed row of each row of the sequences stacked in their original order."""
        return np.concatenate([np.arange(s, s + n) for s, n in zip(self.starts, self.lengths)])


def dropout_multipliers(rng, p: float, packing: Packing, n_layers: int, d: int, sites: int) -> list:
    """Inverted-dropout multipliers for every layer of a stack, in packed row order.

    Returns per layer a tuple of one (rows, d) array per site, the sublayers in the
    order they run (2 in `EncoderLayer`, 3 in `DecoderLayer`), or None per layer
    when p is 0. The draws follow running the sequences one at a time: per sequence
    in original order, then per layer, then per site, as `tensor.dropout` draws.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return [None] * n_layers
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = (rng.random(packing.n_rows * n_layers * sites * d) >= p) / (1.0 - p)
    out = np.empty((n_layers, sites, packing.n_rows, d))
    drawn = 0
    for start, n in zip(packing.starts, packing.lengths):
        size = n_layers * sites * n * d
        out[:, :, start:start + n] = keep[drawn:drawn + size].reshape(n_layers, sites, n, d)
        drawn += size
    return [tuple(out[i]) for i in range(n_layers)]


def add_norm(layer, i: int, x: Tensor, h: Tensor, drop) -> Tensor:
    """The end of a layer's sublayer i: its output h under dropout (`drop` is the layer's
    entry of `dropout_multipliers`, None for none), plus its input x, layer-normed."""
    if drop is not None:
        h = mul(h, Tensor(drop[i]))
    gamma, beta = layer.norms[i]
    return layer_norm(add(x, h), gamma.tensor, beta.tensor, layer.eps)


class EncoderLayer:
    """FAME block and feed-forward, each under dropout, residual, and layer norm."""

    def __init__(self, config: FameConfig, d_ff: int, dropout_rate: float,
                 rng: np.random.Generator, name: str, eps: float = 1e-5):
        d = config.d_model
        self.fame = FameLayer(config, rng, name=f"{name}.fame")
        self.ffn = FeedForward(d, d_ff, rng, name=f"{name}.ffn")
        self.norms = [(Parameter(f"{name}.norm{i}.gamma", np.ones(d)),
                       Parameter(f"{name}.norm{i}.beta", np.zeros(d))) for i in (1, 2)]
        self.dropout_rate = dropout_rate
        self.eps = eps

    def forward(self, x: Tensor, groups=None, drop=None, value_parts=None) -> Tensor:
        """Rows x of one sequence, or packed sequences grouped as `groups` says (`fame_forward`).
        `drop` is this layer's (attention, FFN) pair from `dropout_multipliers`, None for no
        dropout; `value_parts` go to `fame_forward`."""
        y = add_norm(self, 0, x, fame_forward(self.fame, x, groups, value_parts=value_parts), drop)
        return add_norm(self, 1, y, self.ffn.forward(y), drop)

    def parameters(self):
        return self.fame.parameters() + self.ffn.parameters() + [p for n in self.norms for p in n]


def run_layers(layers, x: Tensor, packing: Packing, training: bool, rng,
               value_parts=None) -> Tensor:
    """A stack of encoder layers over packed rows; each row sees its whole sequence.

    Dropout and the groups are made once for all layers. `value_parts` (see
    `opa_forward`) write the rows of `x` as sums of table rows. Only the first layer
    gets them: the later layers' rows depend on whole sequences.
    """
    p = layers[0].dropout_rate if training and layers else 0.0
    drops = dropout_multipliers(rng, p, packing, len(layers), x.shape[1], 2)
    groups = packing.groups()
    for layer, drop in zip(layers, drops):
        x = layer.forward(x, groups, drop, value_parts)
        value_parts = None
    return x


class HierPool:
    """Learned-context attention pooling: softmax(tanh(HW + b) . u) weighted sum."""

    def __init__(self, d_model: int, rng: np.random.Generator, name: str):
        self.proj_w = Parameter(f"{name}.proj_w", xavier_uniform(rng, (d_model, d_model)))
        self.proj_b = Parameter(f"{name}.proj_b", np.zeros(d_model))
        self.context = Parameter(f"{name}.context", xavier_uniform(rng, (d_model, 1)).reshape(d_model))

    def forward(self, h: Tensor, layout) -> Tensor:
        """Pool packed sequences (see `Packing`) to one row each, (sequences, d) in packed order."""
        d = h.shape[1]
        u = tanh(add_bias(matmul(h, self.proj_w.tensor), self.proj_b.tensor))
        context = reshape(self.context.tensor, (1, d))
        pooled = []
        for (count, length), ug, hg in zip(layout, group_blocks(u, layout), group_blocks(h, layout)):
            # one (length, d) @ (d, 1) product per sequence, as when it is pooled alone: BLAS
            # rounds a row of one (rows, d) @ (d, 1) product by the row's place in the block
            tiled = embedding_lookup(context, np.zeros(count, dtype=np.int64))
            scores = reshape(matmul(ug, reshape(tiled, (count, d, 1))), (count, length))
            a = softmax(scores, axis=-1)
            pooled.append(reshape(matmul(reshape(a, (count, 1, length)), hg), (count, d)))
        return pooled[0] if len(pooled) == 1 else concat_rows(pooled)

    def parameters(self):
        return [self.proj_w, self.proj_b, self.context]


class RowCache:
    """A bounded table of inference rows keyed by any hashable key.

    `slots(keys, compute)` gives each key's row of `table`; `compute(missed)` returns
    the rows of the distinct keys it lacks, in first-seen order. Rows are stored in
    fill order in one zeroed (capacity, ...) table made at the first fill, so the
    memory touched grows with the rows filled. When it is full, the least recently
    used key goes first. The cache empties itself when the tensor version of any of
    `params` moved since its last call.
    """

    def __init__(self, params, capacity: int):
        self.params = list(params)
        self.capacity = capacity
        self.versions = None
        self.index: OrderedDict = OrderedDict()  # key -> table row, least recent first
        self.table = None

    def __len__(self) -> int:
        return len(self.index)

    def slots(self, keys, compute) -> np.ndarray | None:
        """The table row of each of `keys`, filling those missing; None if the call has
        more distinct keys than the table holds (then nothing is read or filled)."""
        versions = [p.tensor.version for p in self.params]
        if versions != self.versions:
            self.index.clear()
            self.versions = versions
        distinct = dict.fromkeys(keys)
        if len(distinct) > self.capacity:
            return None
        missed = [k for k in distinct if k not in self.index]
        for k in distinct:
            if k in self.index:
                self.index.move_to_end(k)
        if missed:
            rows = compute(missed)
            if self.table is None:
                self.table = np.zeros((self.capacity,) + np.shape(rows[0]))
            for k, row in zip(missed, rows):
                # this call's hits were moved to the end, so no eviction reaches its keys
                full = len(self.index) == self.capacity
                slot = self.index.popitem(last=False)[1] if full else len(self.index)
                self.index[k] = slot
                self.table[slot] = row
        return np.array([self.index[k] for k in keys], dtype=np.int64)


OPA_CACHE_ROWS = 512  # an OpaTableCache's bound: 64 MB of (d, d) blocks at d_model 128


class OpaTableCache:
    """A first layer's OPA projections at inference, one block per table row.

    That layer's value rows are emb[i] @ wv_outer + pos[p] @ wv_outer. Row r of the
    stacked table (every id of `emb`, then every position) gets the (d, d) block of its
    value through wo_outer (`tensor.project_rows`) in a `RowCache` of at most
    OPA_CACHE_ROWS blocks. A call's missing rows are filled in one product, padded to at
    least 2 rows: from 2 rows on, BLAS gives a row the same bits whatever its batch
    mates (`test_opa_cache.py` pins this), so a warm cache serves a cold one's bytes.
    The cache empties when a tensor version of emb, wv_outer or wo_outer moves.
    """

    def __init__(self, emb: Parameter, pos: np.ndarray, fame: FameLayer):
        self.emb, self.pos, self.fame = emb, pos, fame
        self.rows = RowCache([emb, fame.wv_outer, fame.wo_outer],
                             min(OPA_CACHE_ROWS, len(emb.data) + len(pos)))

    def _project(self, rows) -> np.ndarray:
        n_ids = len(self.emb.data)
        v = np.array([self.emb.data[r] if r < n_ids else self.pos[r - n_ids]
                      for r in (rows if len(rows) > 1 else rows * 2)])
        return project_rows(v @ self.fame.wv_outer.data, self.fame.wo_outer.data)[:len(rows)]

    def value_parts(self, ids, positions) -> ProjectedValues | None:
        """The first layer's value parts for the rows emb[ids] + pos[positions], or None
        if the call has more distinct ids and positions than the cache holds."""
        slots = self.rows.slots(np.concatenate([ids, len(self.emb.data) + positions]).tolist(),
                                self._project)
        if slots is None:
            return None
        return ProjectedValues([slots[:len(ids)], slots[len(ids):]], self.rows.table)

    def value_block(self, i: int, p: int, out: np.ndarray) -> None:
        """Write the block of the value row emb[i] + pos[p] into out."""
        a, b = self.rows.slots([i, len(self.emb.data) + p], self._project)
        np.add(self.rows.table[a], self.rows.table[b], out=out)


class CharHit:
    """Character encoder shared by every word slot.

    Outside training and while no graph is recorded, its first layer's OPA takes
    the projections of its characters and positions from an `OpaTableCache`.
    """

    def __init__(self, char_vocab_size: int, config: FameConfig, n_layers: int, d_ff: int,
                 dropout_rate: float, max_word_len: int, rng: np.random.Generator,
                 eps: float = 1e-5, name: str = "char_hit"):
        d = config.d_model
        self.emb = Parameter(f"{name}.char_emb", normal_init(rng, (char_vocab_size, d)))
        self.layers = [EncoderLayer(config, d_ff, dropout_rate, rng, f"{name}.layer{i}", eps)
                       for i in range(n_layers)]
        self.pool = HierPool(d, rng, f"{name}.pool")
        self.pos = positional_table(max_word_len, d)
        self.max_word_len = max_word_len
        self.opa_cache = (OpaTableCache(self.emb, self.pos, self.layers[0].fame)
                          if self.layers and config.opa_combine == "true_outer_projected" else None)

    def forward(self, words, training: bool = False, rng=None) -> Tensor:
        """Pooled vectors of the character sequences `words`, (len(words), d), in that order.

        All words run as one packed block; in training mode dropout is drawn
        per word in the order given.
        """
        for ids in words:
            if not ids:
                raise ValueError("char_encode_word: empty character sequence")
            if len(ids) > self.max_word_len:
                raise ShapeError(f"word of {len(ids)} characters exceeds cap {self.max_word_len}")
        pack = Packing([len(ids) for ids in words])
        chars = np.asarray(pack.rows(words), dtype=np.int64)
        x = add(embedding_lookup(self.emb.tensor, chars), Tensor(self.pos[pack.positions]))
        # a first-layer row is char_emb[c] + pos[p] (dropout comes after attention), and the
        # OPA projection is linear in the value: it projects each character and position once
        parts = None
        if self.opa_cache is not None and not (training or is_recording()):
            parts = self.opa_cache.value_parts(chars, pack.positions)
        if parts is None:
            distinct, char_ids = np.unique(chars, return_inverse=True)
            parts = [(embedding_lookup(self.emb.tensor, distinct), char_ids),
                     (Tensor(self.pos[:max(pack.lengths)]), pack.positions)]
        x = run_layers(self.layers, x, pack, training, rng, value_parts=parts)
        return pack.unpack_sequences(self.pool.forward(x, pack.layout))

    def encode_word(self, char_ids, training: bool = False, rng=None) -> Tensor:
        """One word's pooled vector, (d,): a batch of one."""
        return reshape(self.forward([list(char_ids)], training, rng), (self.pos.shape[1],))

    def parameters(self):
        out = [self.emb]
        for layer in self.layers:
            out.extend(layer.parameters())
        out.extend(self.pool.parameters())
        return out


MEMO_ROWS = 8192  # the char-vector memo's bound: 8 MB of float64 rows at d_model 128


class WordHit:
    """Word-level encoder stack with sinusoidal positions."""

    def __init__(self, word_vocab_size: int, config: FameConfig, n_layers: int, d_ff: int,
                 dropout_rate: float, rng: np.random.Generator,
                 eps: float = 1e-5, name: str = "word_hit"):
        d = config.d_model
        self.emb = Parameter(f"{name}.word_emb", normal_init(rng, (word_vocab_size, d)))
        self.layers = [EncoderLayer(config, d_ff, dropout_rate, rng, f"{name}.layer{i}", eps)
                       for i in range(n_layers)]
        self.pos = positional_table(config.max_len, d)
        self.max_len = config.max_len

    def parameters(self):
        out = [self.emb]
        for layer in self.layers:
            out.extend(layer.parameters())
        return out


class HitEncoder:
    """Shared character encoder under the word-level stack, plus pooled sentence output.

    A batch runs as two packed blocks: every distinct word of the batch through
    the character encoder, then every sentence through the word encoder. In
    training mode dropout is drawn per distinct word in first-seen order, then
    per sentence in batch order (each per layer, attention before FFN).

    At inference (not training, and no graph recorded) the character vectors
    come through this encoder's own `RowCache`, keyed by character-id tuples, so
    only words unseen since the char encoder's parameters last changed are encoded;
    a call with more distinct words than it holds encodes all of them without it.
    """

    def __init__(self, word_vocab_size: int, char_vocab_size: int, config: FameConfig,
                 l_c: int, l_w: int, d_ff: int, dropout_rate: float, max_word_len: int,
                 rng: np.random.Generator, eps: float = 1e-5):
        self.config = config
        self.char_hit = CharHit(char_vocab_size, config, l_c, d_ff, dropout_rate,
                                max_word_len, rng, eps)
        self.word_hit = WordHit(word_vocab_size, config, l_w, d_ff, dropout_rate, rng, eps)
        self.memo = RowCache(self.char_hit.parameters(), MEMO_ROWS)

    def _forward(self, examples, training: bool, rng):
        """Packed word states of `examples` and their Packing."""
        cap = self.word_hit.max_len
        index: dict[tuple, int] = {}
        for ex in examples:
            n = len(ex.word_ids)
            if n == 0:
                raise ValueError("word_states: empty word sequence")
            if n > cap:
                raise ShapeError(f"sequence of {n} words exceeds cap {cap}")
            if len(ex.char_ids) != n:
                raise ShapeError(f"{len(ex.char_ids)} character rows do not match {n} positions")
            for seq in ex.char_ids:
                index.setdefault(tuple(seq), len(index))
        words, slots = list(index), None
        if words and not (training or is_recording()):
            slots = self.memo.slots(words, lambda missed: self.char_hit.forward(missed).data)
        char_vecs = (self.char_hit.forward(words, training, rng) if slots is None
                     else Tensor(self.memo.table[slots]))
        pack = Packing([len(ex.word_ids) for ex in examples])
        char_rows = [[index[tuple(seq)] for seq in ex.char_ids] for ex in examples]
        h_char = embedding_lookup(char_vecs, pack.rows(char_rows))
        h_word = embedding_lookup(self.word_hit.emb.tensor, pack.rows([ex.word_ids for ex in examples]))
        x = add(add(h_char, h_word), Tensor(self.word_hit.pos[pack.positions]))
        return run_layers(self.word_hit.layers, x, pack, training, rng), pack

    def word_states(self, examples, training: bool = False, rng=None) -> Tensor:
        """Word-level states of every example, stacked in example order: (total words, d)."""
        x, pack = self._forward(examples, training, rng)
        return pack.unpack_rows(x)

    def sentence_vectors(self, examples, training: bool = False, rng=None) -> Tensor:
        """Each example's mean word state: (examples, d)."""
        x, pack = self._forward(examples, training, rng)
        means = [mean_rows(h) for h in group_blocks(x, pack.layout)]
        return pack.unpack_sequences(means[0] if len(means) == 1 else concat_rows(means))

    def parameters(self):
        return self.char_hit.parameters() + self.word_hit.parameters()

