"""Task heads over the hierarchical encoder.

Classification pools word states (optionally concatenating tf-idf features)
into a dense softmax head; one token head scores each word state, over tags
for labeling and over the vocabulary for masked-token prediction; generation
adds a causal FAME decoder with cross-attention; the entailment scorer
compares sentence embeddings by cosine.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .attention import FameConfig, FameLayer, fame_forward, multi_head_attention
from .data import CLS_ID, EOS_ID, EncodedExample
from .encoders import (FeedForward, HitEncoder, OpaTableCache, Packing, add_norm,
                       dropout_multipliers, positional_table)
from .optim import Parameter, normal_init, xavier_uniform
from .tensor import (
    ShapeError,
    Tensor,
    _hadamard_forward,
    _layer_norm,
    _outer_forward,
    _softmax,
    add,
    add_bias,
    concat_cols,
    cosine_similarity,
    cross_entropy,
    embedding_lookup,
    is_recording,
    log,
    matmul,
    no_grad,
    reshape,
    scale,
    sigmoid,
    slice_rows,
    softmax,
    sub,
)


class _TaskModel:
    """Shared parameter bookkeeping for every task head."""

    encoder: HitEncoder

    def head_parameters(self) -> list[Parameter]:
        return []

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self.head_parameters()

    def named_parameters(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.parameters()}

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.trainable]

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            if p.name in arrays:
                p.assign(arrays[p.name])


class ClassificationModel(_TaskModel):
    def __init__(self, encoder: HitEncoder, n_classes: int, rng: np.random.Generator,
                 use_tfidf: bool = False, tfidf_dim: int = 0):
        self.encoder = encoder
        self.n_classes = n_classes
        self.use_tfidf = use_tfidf
        in_dim = encoder.config.d_model + (tfidf_dim if use_tfidf else 0)
        self.in_dim = in_dim
        self.head_w = Parameter("head.w", xavier_uniform(rng, (in_dim, n_classes)))
        self.head_b = Parameter("head.b", np.zeros(n_classes))

    def head_parameters(self):
        return [self.head_w, self.head_b]

    def logits(self, examples, training=False, rng=None) -> Tensor:
        """(examples, n_classes) logits; the encoder runs once over the whole batch."""
        s = self.encoder.sentence_vectors(examples, training, rng)
        if self.use_tfidf:
            feats = np.stack([np.asarray(ex.features, dtype=np.float64) for ex in examples])
            s = concat_cols([s, Tensor(feats)])
        return add_bias(matmul(s, self.head_w.tensor), self.head_b.tensor)

    def predict_probs(self, examples) -> np.ndarray:
        """(examples, n_classes) probabilities, from one encoder call."""
        with no_grad():
            return softmax(self.logits(examples), axis=-1).data

    def loss_batch(self, examples, training=False, rng=None) -> Tensor:
        return cross_entropy(self.logits(examples, training, rng), [ex.target for ex in examples])


class TokenModel(_TaskModel):
    """One softmax per token: tags for labeling, vocabulary ids for MLM.

    Each example's target holds one id per word; -1 leaves a position out of
    the loss (unmasked tokens in MLM).
    """

    def __init__(self, encoder: HitEncoder, n_out: int, rng: np.random.Generator):
        self.encoder = encoder
        self.n_out = n_out
        d = encoder.config.d_model
        self.head_w = Parameter("head.w", xavier_uniform(rng, (d, n_out)))
        self.head_b = Parameter("head.b", np.zeros(n_out))

    def head_parameters(self):
        return [self.head_w, self.head_b]

    def token_logits(self, examples, training=False, rng=None) -> Tensor:
        """Logits of every example's positions, stacked in example order."""
        h = self.encoder.word_states(examples, training, rng)
        return add_bias(matmul(h, self.head_w.tensor), self.head_b.tensor)

    def predict_probs(self, examples) -> list[np.ndarray]:
        """Each example's (tokens, n_out) distributions, from one encoder call."""
        with no_grad():
            probs = softmax(self.token_logits(examples), axis=-1).data
        return np.split(probs, np.cumsum([ex.n_words for ex in examples])[:-1])

    def loss_batch(self, examples, training=False, rng=None) -> Tensor:
        for ex in examples:
            if len(ex.target) != ex.n_words:
                raise ValueError(f"target length mismatch: {len(ex.target)} targets "
                                 f"for {ex.n_words} tokens")
        targets = np.concatenate([np.asarray(ex.target, dtype=np.int64) for ex in examples])
        return cross_entropy(self.token_logits(examples, training, rng), targets, ignore_index=-1)


class CrossAttention:
    """Standard multi-head attention from decoder states over encoder memory."""

    def __init__(self, config: FameConfig, rng: np.random.Generator, name: str):
        d = config.d_model
        self.n_heads = config.n_heads
        mk = lambda suffix: Parameter(f"{name}.{suffix}", xavier_uniform(rng, (d, d)))
        self.wq, self.wk, self.wv, self.wo = mk("wq"), mk("wk"), mk("wv"), mk("wo")

    def forward(self, x_q: Tensor, memory: Tensor, groups: list) -> Tensor:
        return multi_head_attention(self.wq, self.wk, self.wv, self.wo,
                                    self.n_heads, x_q, memory, groups)

    def parameters(self):
        return [self.wq, self.wk, self.wv, self.wo]


class DecoderLayer:
    """Causal FAME self-attention, cross-attention, feed-forward; residual + norm each."""

    def __init__(self, config: FameConfig, d_ff: int, dropout_rate: float,
                 rng: np.random.Generator, name: str, eps: float = 1e-5):
        d = config.d_model
        self.fame = FameLayer(config, rng, name=f"{name}.fame")
        self.cross = CrossAttention(config, rng, name=f"{name}.cross")
        self.ffn = FeedForward(d, d_ff, rng, name=f"{name}.ffn")
        self.norms = [(Parameter(f"{name}.norm{i}.gamma", np.ones(d)),
                       Parameter(f"{name}.norm{i}.beta", np.zeros(d))) for i in (1, 2, 3)]
        self.dropout_rate = dropout_rate
        self.eps = eps

    def forward(self, x: Tensor, self_groups, memory: Tensor, mem_groups, drop=None) -> Tensor:
        """Rows `x` attend causally over their sequences so far and over all of `memory`,
        grouped as `fame_forward` takes them. `drop` is this layer's (self-attention,
        cross-attention, FFN) triple from `dropout_multipliers`."""
        y = add_norm(self, 0, x, fame_forward(self.fame, x, self_groups, causal=True), drop)
        y = add_norm(self, 1, y, self.cross.forward(y, memory, mem_groups), drop)
        return add_norm(self, 2, y, self.ffn.forward(y), drop)

    def step(self, x: np.ndarray, arrays: StepArrays, t: int, blocks) -> np.ndarray:
        """`forward` of one row `x` at position t, on arrays: its (1, d) output.

        It reads each parameter's current values and does `forward`'s arithmetic, in its
        order, without dropout. The row's keys and values go to position t of `arrays`, and
        it attends over positions :t + 1 and over the whole memory. `blocks`, if given, are
        the outer values of positions :t + 1 through wo_outer, one (d, d) block each.
        """
        fame, stop, d = self.fame, t + 1, x.shape[1]
        heads = fame.config.n_heads
        arrays.self_keys[:, :, t] = (x @ fame.wk_self.data).reshape(heads, -1)
        arrays.self_values[:, t] = (x @ fame.wv_self.data).reshape(heads, -1)
        z_self = _attend(x, fame.wq_self, fame.wo_self, arrays.self_keys[:, :, :stop],
                         arrays.self_values[:, :stop])
        arrays.outer_keys[t] = x @ fame.wk_outer.data
        # the (1, 1, t + 1, d) score block of opa_forward's one group, as the OPA sums take it
        q = (x @ fame.wq_outer.data).reshape(1, 1, 1, d)
        pair = q * arrays.outer_keys[None, None, :stop] * (1.0 / np.sqrt(d))
        s = np.tanh(pair) if fame.config.opa_score == "tanh" else _softmax(pair, 3)
        if blocks is not None:
            z_outer = s.reshape(1, -1) @ blocks.reshape(stop * d, -1)
        else:
            arrays.outer_values[t] = x @ fame.wv_outer.data
            values = arrays.outer_values[None, :stop]
            if fame.config.opa_combine == "hadamard":
                agg = np.empty((1, 1, d))
                _hadamard_forward(s, values, agg)
            else:
                agg = np.empty((1, 1, d, d))
                _outer_forward(s, values, agg)
            z_outer = agg.reshape(1, -1) @ fame.wo_outer.data
        alphas = _softmax(fame.fusion_logits.data, 0)
        y = self._norm(0, x, z_self * alphas[0] + z_outer * alphas[1])
        y = self._norm(1, y, _attend(y, self.cross.wq, self.cross.wo, arrays.cross_keys,
                                     arrays.cross_values))
        h = y @ self.ffn.w1.data + self.ffn.b1.data
        h = np.where(h > 0, h, 0.0) @ self.ffn.w2.data + self.ffn.b2.data
        return self._norm(2, y, h)

    def _norm(self, i: int, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """`add_norm` of sublayer i without dropout, on arrays."""
        gamma, beta = self.norms[i]
        return _layer_norm(x + h, gamma.data, beta.data, self.eps)[0]

    def parameters(self):
        return (self.fame.parameters() + self.cross.parameters() + self.ffn.parameters()
                + [p for n in self.norms for p in n])


def _attend(x: np.ndarray, wq: Parameter, wo: Parameter, keys: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """`multi_head_attention` of one row `x` on arrays, over keys (heads, dh, m) and values
    (heads, m, dh) already projected: its (1, d) output."""
    heads, dh = keys.shape[:2]
    scores = ((x @ wq.data).reshape(1, heads, 1, dh) @ keys[None]) * (1.0 / np.sqrt(dh))
    return (_softmax(scores, 3) @ values[None]).reshape(1, -1) @ wo.data


class StepArrays(NamedTuple):
    """One decoder layer's keys and values in a `DecoderState`, laid out as its step reads
    them: self-attention's split into heads, the outer branch's one row per position
    (values None where the state's blocks stand for them), and the memory's."""

    self_keys: np.ndarray  # (heads, dh, max_len)
    self_values: np.ndarray  # (heads, max_len, dh)
    outer_keys: np.ndarray  # (max_len, d)
    outer_values: np.ndarray | None  # (max_len, d)
    cross_keys: np.ndarray  # (heads, dh, memory rows)
    cross_values: np.ndarray  # (heads, memory rows, dh)


class DecoderState:
    """One sequence decoded so far, for `Seq2SeqModel.decode_logits([[token]], state=)`.

    `layers[i]` holds layer i's `StepArrays`. The self-attention and outer ones are
    preallocated for max_len positions, of which the first t are filled: a step writes
    only its own position. The cross-attention ones are the memory's (the one source's
    word states), projected once here. In true_outer_projected mode `blocks[j]` is the
    first layer's value block of position j through wo_outer, the model's cached block
    of its token plus that of j, so that layer's outer branch keeps no values and never
    reads wo_outer once a token's block is cached.
    """

    def __init__(self, model: Seq2SeqModel, memory: Tensor):
        config = model.encoder.config
        cap, d, heads = config.max_len, config.d_model, config.n_heads
        dh, n = d // heads, memory.shape[0]
        self.t = 0
        self.blocks = None if model.opa_cache is None else np.empty((cap, d, d))
        split = lambda w, axes: np.ascontiguousarray(
            (memory.data @ w.data).reshape(n, heads, dh).transpose(axes))
        self.layers = [
            StepArrays(np.empty((heads, dh, cap)), np.empty((heads, cap, dh)), np.empty((cap, d)),
                       None if i == 0 and self.blocks is not None else np.empty((cap, d)),
                       split(layer.cross.wk, (1, 2, 0)), split(layer.cross.wv, (1, 0, 2)))
            for i, layer in enumerate(model.layers)]


class Seq2SeqModel(_TaskModel):
    """Hierarchical encoder feeding a causal decoder; greedy decoding only.

    At inference, its first layer's value blocks come from an `OpaTableCache` over
    `tgt_emb` and the positions, through a `DecoderState`.
    """

    def __init__(self, encoder: HitEncoder, target_vocab_size: int, l_dec: int,
                 rng: np.random.Generator, dropout_rate: float = 0.0, d_ff: int = 0):
        self.encoder = encoder
        config = encoder.config
        d = config.d_model
        self.target_vocab_size = target_vocab_size
        self.tgt_emb = Parameter("decoder.tgt_emb", normal_init(rng, (target_vocab_size, d)))
        self.layers = [DecoderLayer(config, d_ff or 4 * d, dropout_rate, rng, f"decoder.layer{i}")
                       for i in range(l_dec)]
        self.out_w = Parameter("decoder.out_w", xavier_uniform(rng, (d, target_vocab_size)))
        self.out_b = Parameter("decoder.out_b", np.zeros(target_vocab_size))
        self.pos = positional_table(config.max_len, d)
        self.opa_cache = (OpaTableCache(self.tgt_emb, self.pos, self.layers[0].fame)
                          if self.layers and config.opa_combine == "true_outer_projected"
                          else None)

    def head_parameters(self):
        out = [self.tgt_emb]
        for layer in self.layers:
            out.extend(layer.parameters())
        out.extend([self.out_w, self.out_b])
        return out

    def decode_logits(self, targets, memory: Tensor | None = None, mem_lengths=None,
                      training=False, rng=None, state: DecoderState | None = None) -> Tensor:
        """Logits of every position of every id list in `targets`, stacked in their order.

        A position sees its sequence up to it and all `mem_lengths[i]` rows of its memory;
        `memory` stacks the memories in that order (as `word_states` returns them).
        Sequences run packed, grouped by (target length, memory length). With `state`,
        `targets` is [[token]], the one id that continues the state's sequence at
        position state.t, over the state's memory (`_step`).
        """
        if state is not None:
            return self._step(targets, state)
        cap = self.encoder.config.max_len
        for ids in targets:
            if not 0 < len(ids) <= cap:
                raise ShapeError(f"target of {len(ids)} ids is empty or past cap {cap}")
        keys = [(len(ids), n) for ids, n in zip(targets, mem_lengths)]
        pack, mem = Packing([n for n, _ in keys], keys), Packing([s for _, s in keys], keys)
        x = add(embedding_lookup(self.tgt_emb.tensor, pack.rows(targets)),
                Tensor(self.pos[pack.positions]))
        self_groups, mem_groups = pack.groups(), mem.groups(queries=pack)
        memory = mem.pack_rows(memory)
        p = self.layers[0].dropout_rate if training and self.layers else 0.0
        drops = dropout_multipliers(rng, p, pack, len(self.layers), x.shape[1], 3)
        for layer, drop in zip(self.layers, drops):
            x = layer.forward(x, self_groups, memory, mem_groups, drop)
        return add_bias(matmul(pack.unpack_rows(x), self.out_w.tensor), self.out_b.tensor)

    def _step(self, targets, state: DecoderState) -> Tensor:
        """The (1, vocabulary) logits of one token at position state.t. Each layer's `step`
        runs on arrays, projects only the new row and writes its keys and values into the
        state; the memory's keys and values are read as the state made them. A step makes
        no graph: it raises if one is recorded."""
        t, cap = state.t, self.encoder.config.max_len
        if len(targets) != 1 or len(targets[0]) != 1 or t >= cap:
            raise ShapeError(f"a decoder state step takes one id of one sequence at a "
                             f"position below cap {cap}, got {targets} at {t}")
        if is_recording():
            raise ValueError("a decoder state step makes no graph; run it under no_grad")
        ((token,),) = targets
        vocab = len(self.tgt_emb.data)
        if not 0 <= token < vocab:
            raise ValueError(f"embedding id {token} out of range for table of size {vocab}")
        x = self.tgt_emb.data[[token]] + self.pos[t:t + 1]
        blocks = None
        if state.blocks is not None:
            self.opa_cache.value_block(token, t, state.blocks[t])
            blocks = state.blocks[:t + 1]
        for layer, arrays in zip(self.layers, state.layers):
            x = layer.step(x, arrays, t, blocks)
            blocks = None
        state.t = t + 1
        return Tensor(x @ self.out_w.data + self.out_b.data)

    def loss_batch(self, examples, training=False, rng=None) -> Tensor:
        """Teacher forcing: each example's target is the full [CLS] .. [EOS] id list."""
        states = self.encoder.word_states(examples, training, rng)
        logits = self.decode_logits([list(ex.target)[:-1] for ex in examples], states,
                                    [ex.n_words for ex in examples], training, rng)
        return cross_entropy(logits, [i for ex in examples for i in list(ex.target)[1:]])

    def greedy_decode(self, ex: EncodedExample, max_out: int | None = None,
                      return_probs: bool = False):
        """Argmax continuation from [CLS]; returns the ids between [CLS] and [EOS].

        Incremental: each step runs `decode_logits` on the newest position only, with
        one `DecoderState`, so a step projects only that position's row and costs time
        linear in the prefix length; the memory is projected once per call.
        """
        # the decoder takes max_len positions: [CLS] and at most max_len - 1 generated ids
        most = self.encoder.config.max_len - 1
        limit = most if max_out is None else min(max_out, most)
        with no_grad():
            state = DecoderState(self, self.encoder.word_states([ex]))
            token = CLS_ID
            out: list[int] = []
            probs: list[float] = []
            while len(out) < limit:
                row = self.decode_logits([[token]], state=state).data[0]
                nxt = int(np.argmax(row))
                if nxt == EOS_ID:
                    break
                out.append(nxt)
                if return_probs:
                    shifted = np.exp(row - row.max())
                    probs.append(float(shifted[nxt] / shifted.sum()))
                token = nxt
        if return_probs:
            return out, probs
        return out


class ZslModel(_TaskModel):
    """Cosine scorer between text and label-phrase embeddings (neural part only)."""

    def __init__(self, encoder: HitEncoder, temperature: float = 0.2):
        self.encoder = encoder
        self.temperature = temperature

    def embed(self, ex: EncodedExample, training=False, rng=None) -> Tensor:
        """One example's mean word state, (d,)."""
        return reshape(self.encoder.sentence_vectors([ex], training, rng),
                       (self.encoder.config.d_model,))

    def pair_loss(self, pairs, training=False, rng=None) -> Tensor:
        """Binary cross-entropy on sigmoid(cosine / temperature) against polarity.

        The encoder runs once over the batch: text, label, text, label, ...
        """
        vectors = self.encoder.sentence_vectors([ex for p in pairs for ex in p[:2]],
                                                training, rng)
        d = vectors.shape[1]
        row = lambda i: reshape(slice_rows(vectors, i, i + 1), (d,))
        one = Tensor(1.0)
        total = None
        for i, (_, _, entail) in enumerate(pairs):
            s = cosine_similarity(row(2 * i), row(2 * i + 1))
            p = sigmoid(scale(s, 1.0 / self.temperature))
            term = log(p) if entail else log(sub(one, p))
            total = term if total is None else add(total, term)
        return scale(total, -1.0 / len(pairs))

    loss_batch = pair_loss

    def classify(self, examples, label_examples) -> list[int]:
        """Zero-shot inference: each example's closest label phrase by raw cosine.

        The examples and the label phrases run through one encoder call.
        """
        with no_grad():
            vectors = self.encoder.sentence_vectors(list(examples) + list(label_examples)).data
        norms = np.linalg.norm(vectors, axis=1)
        if not norms.all():
            raise ValueError("cosine of a zero-norm embedding")
        unit = vectors / norms[:, None]
        n = len(examples)
        return [int(i) for i in np.argmax(unit[:n] @ unit[n:].T, axis=1)]
