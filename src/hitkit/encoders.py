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


class Versions:
    """The tensor versions of `params` that a cache's contents were computed under."""

    def __init__(self, params):
        self.params = list(params)
        self.seen = None

    def moved(self) -> bool:
        """Whether any version moved since the last call (or this is the first), then note them."""
        now = [p.tensor.version for p in self.params]
        moved, self.seen = now != self.seen, now
        return moved


OPA_CACHE_ROWS = 512  # an OpaTableCache's bound: 64 MB of (d, d) blocks at d_model 128


class OpaTableCache:
    """A first layer's OPA projections at inference, one block per table row.

    That layer's value rows are emb[i] @ wv_outer + pos[p] @ wv_outer. Row r of the
    stacked table (every id of `emb`, then every position) gets the (d, d) block of its
    value through wo_outer (`tensor.project_rows`) the first time a call needs it, by
    one product per row, so a block's bits do not depend on which rows were filled with
    it. Rows are stored in the order they were filled, at most OPA_CACHE_ROWS,
    so the memory touched grows with the rows filled, not with the table. It forgets
    every row when a call's rows do not fit, and when a tensor version of emb, wv_outer
    or wo_outer moves.
    """

    def __init__(self, emb: Parameter, pos: np.ndarray, fame: FameLayer):
        self.emb, self.pos, self.fame = emb, pos, fame
        self.versions = Versions([emb, fame.wv_outer, fame.wo_outer])
        self.slots = np.full(len(emb.data) + len(pos), -1)  # each row's place, -1 if unfilled
        self.n_filled = 0
        self.blocks = None

    def _slots(self, rows: np.ndarray):
        """The places of table rows `rows`, filling those missing; None if they cannot fit."""
        if self.blocks is None:
            # made at the first call rather than at set-up, which kept 4 MB off the peak RSS
            # of the `embed` benchmark; zeroed pages are touched only as places are filled
            n, d = min(OPA_CACHE_ROWS, len(self.slots)), self.pos.shape[1]
            self.blocks = np.zeros((n, d, d))
        needed = np.unique(rows)
        if len(needed) > len(self.blocks):
            return None
        if (self.versions.moved()
                or self.n_filled + np.count_nonzero(self.slots[needed] < 0) > len(self.blocks)):
            self.slots[:], self.n_filled = -1, 0
        n_ids, wv, wo = len(self.emb.data), self.fame.wv_outer.data, self.fame.wo_outer.data
        for r in needed[self.slots[needed] < 0]:
            row = self.emb.data[r] if r < n_ids else self.pos[r - n_ids]
            self.blocks[self.n_filled] = project_rows(row[None] @ wv, wo)[0]
            self.slots[r] = self.n_filled
            self.n_filled += 1
        return self.slots[rows]

    def value_parts(self, ids, positions) -> ProjectedValues | None:
        """The first layer's value parts for the rows emb[ids] + pos[positions], or None
        if the call has more distinct ids and positions than the cache holds."""
        slots = self._slots(np.concatenate([ids, len(self.emb.data) + positions]))
        if slots is None:
            return None
        return ProjectedValues([slots[:len(ids)], slots[len(ids):]], self.blocks)

    def value_block(self, i: int, p: int, out: np.ndarray) -> None:
        """Write the block of the value row emb[i] + pos[p] into out."""
        a, b = self._slots(np.array([i, len(self.emb.data) + p]))
        np.add(self.blocks[a], self.blocks[b], out=out)


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


class CharMemo:
    """Bounded LRU memo from a word's character-id tuple to its pooled character vector.

    The rows are copies in one (capacity, d) table made on the first fill, so the
    memo never holds more than capacity * d floats. Each lookup first compares
    the tensor versions of `params` with those its rows were computed under, and
    empties itself if any moved.
    """

    def __init__(self, params, capacity: int = MEMO_ROWS):
        self.versions = Versions(params)
        self.capacity = capacity
        self.slots: OrderedDict[tuple, int] = OrderedDict()  # word -> table row, least recent first
        self.table = None

    def __len__(self) -> int:
        return len(self.slots)

    def vectors(self, words, encode) -> np.ndarray:
        """Rows for the distinct `words`, (len(words), d); `encode(missed)` computes the missed ones."""
        if self.versions.moved():
            self.slots.clear()
        found = [self.slots.get(w) for w in words]
        hit = [i for i, slot in enumerate(found) if slot is not None]
        missed = [i for i, slot in enumerate(found) if slot is None]
        # with no words at all, encode rejects them as it does without the memo
        fresh = encode([words[i] for i in missed]) if missed or not words else None
        if self.table is None:
            self.table = np.empty((self.capacity, fresh.shape[1]))
        out = np.empty((len(words), self.table.shape[1]))
        out[hit] = self.table[[found[i] for i in hit]]
        for i in hit:
            self.slots.move_to_end(words[i])
        if missed:
            out[missed] = fresh
            for i, row in zip(missed, fresh):
                # filled after the hits are read, so an eviction cannot reach this call's rows
                if len(self.slots) < self.capacity:
                    slot = len(self.slots)
                else:
                    slot = self.slots.popitem(last=False)[1]
                self.slots[words[i]] = slot
                self.table[slot] = row
        return out


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
    come through a `CharMemo` of this encoder's own, so only words it has not
    seen since the char encoder's parameters last changed are encoded.
    """

    def __init__(self, word_vocab_size: int, char_vocab_size: int, config: FameConfig,
                 l_c: int, l_w: int, d_ff: int, dropout_rate: float, max_word_len: int,
                 rng: np.random.Generator, eps: float = 1e-5):
        self.config = config
        self.char_hit = CharHit(char_vocab_size, config, l_c, d_ff, dropout_rate,
                                max_word_len, rng, eps)
        self.word_hit = WordHit(word_vocab_size, config, l_w, d_ff, dropout_rate, rng, eps)
        self.memo = CharMemo(self.char_hit.parameters())

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
        if training or is_recording():
            char_vecs = self.char_hit.forward(list(index), training, rng)
        else:
            char_vecs = Tensor(self.memo.vectors(list(index),
                                                 lambda missed: self.char_hit.forward(missed).data))
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

