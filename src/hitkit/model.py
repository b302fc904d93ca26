"""Task heads over the hierarchical encoder.

Classification pools word states (optionally concatenating tf-idf features)
into a dense softmax head; one token head scores each word state, over tags
for labeling and over the vocabulary for masked-token prediction; generation
adds a causal FAME decoder with cross-attention; the entailment scorer
compares sentence embeddings by cosine.
"""

from __future__ import annotations

import numpy as np

from .attention import (FameConfig, FameLayer, KeptRows, ProjectedValues, fame_forward, keep,
                        multi_head_attention)
from .data import CLS_ID, EOS_ID, EncodedExample
from .encoders import (FeedForward, HitEncoder, OpaTableCache, Packing, add_norm,
                       dropout_multipliers, positional_table)
from .optim import Parameter, normal_init, xavier_uniform
from .tensor import (
    ShapeError,
    Tensor,
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

    def forward(self, x_q: Tensor, memory: Tensor | None, groups: list, kept=None) -> Tensor:
        """`kept`, a decoder state's keys and values of one memory, stands for `memory`."""
        return multi_head_attention(self.wq, self.wk, self.wv, self.wo,
                                    self.n_heads, x_q, memory, groups, kept=kept)

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

    def forward(self, x: Tensor, self_groups, memory: Tensor | None, mem_groups, drop=None,
                kept=None, value_parts=None) -> Tensor:
        """Rows `x` attend causally over their sequences so far and over all of `memory`,
        grouped as `fame_forward` takes them. `drop` is this layer's (self-attention,
        cross-attention, FFN) triple from `dropout_multipliers`; `value_parts` go to
        `fame_forward`. `kept` is a decoder state's keys and values for this layer: those
        of the earlier positions, as `fame_forward` takes them, and those of the memory."""
        kept_fame, kept_cross = (None, None) if kept is None else kept
        y = add_norm(self, 0, x, fame_forward(self.fame, x, self_groups, value_parts, True,
                                              kept_fame), drop)
        y = add_norm(self, 1, y, self.cross.forward(y, memory, mem_groups, kept_cross), drop)
        return add_norm(self, 2, y, self.ffn.forward(y), drop)

    def parameters(self):
        return (self.fame.parameters() + self.cross.parameters() + self.ffn.parameters()
                + [p for n in self.norms for p in n])


class DecoderState:
    """One sequence decoded so far, for `Seq2SeqModel.decode_logits([[token]], state=)`.

    `layers[i]` holds the keys and values that layer i's attention reads, as pairs of
    `KeptRows`: ((self, outer), cross). The self and outer ones are preallocated for
    max_len positions, of which the first t are filled; self-attention's are split into
    heads, (heads, dh, max_len) keys and (heads, max_len, dh) values, and the outer
    branch's are (max_len, d) each. A step projects only its one new row into them. The
    cross-attention ones are the memory's (the one source's word states), projected
    once here. In true_outer_projected mode `blocks[j]` is the first layer's value block
    of position j through wo_outer, the model's cached block of its token plus that of
    j, so that layer's outer branch keeps no values and never reads wo_outer once a
    token's block is cached.
    """

    def __init__(self, model: Seq2SeqModel, memory: Tensor):
        config = model.encoder.config
        cap, d, n_heads = config.max_len, config.d_model, config.n_heads
        self.t = 0
        self.n_memory = n = memory.shape[0]
        self.blocks = None if model.opa_cache is None else np.empty((cap, d, d))
        self.layers = []
        for i, layer in enumerate(model.layers):
            cross = KeptRows.heads(n_heads, d, n)
            keep(cross, memory, (layer.cross.wk, layer.cross.wv), n)
            values = None if i == 0 and self.blocks is not None else KeptRows((cap, d), 0)
            outer = (KeptRows((cap, d), 0), values)
            self.layers.append(((KeptRows.heads(n_heads, d, cap), outer), cross))


class Seq2SeqModel(_TaskModel):
    """Hierarchical encoder feeding a causal decoder; greedy decoding only.

    At inference, its first layer's value blocks come from an `OpaTableCache` over
    `tgt_emb` and the positions, through a `DecoderState`.
    """

    def __init__(self, encoder: HitEncoder, target_vocab_size: int, l_dec: int,
                 rng: np.random.Generator, dropout_rate: float = 0.0, d_ff: int = 0,
                 max_out: int = 40):
        self.encoder = encoder
        config = encoder.config
        d = config.d_model
        self.target_vocab_size = target_vocab_size
        self.max_out = max_out
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
        """The (1, vocabulary) logits of one token at position state.t. Each layer projects
        only its new row, writes its keys and values into the state and attends over all
        of the state's, as constants, so no graph is kept across steps; the memory's keys
        and values are read as the state made them. A step makes no graph: it raises if
        one is recorded."""
        t, cap = state.t, self.encoder.config.max_len
        if len(targets) != 1 or len(targets[0]) != 1 or t >= cap:
            raise ShapeError(f"a decoder state step takes one id of one sequence at a "
                             f"position below cap {cap}, got {targets} at {t}")
        if is_recording():
            raise ValueError("a decoder state step makes no graph; run it under no_grad")
        ((token,),) = targets
        x = add(embedding_lookup(self.tgt_emb.tensor, [token]), Tensor(self.pos[t:t + 1]))
        parts = None
        if state.blocks is not None:
            self.opa_cache.value_block(token, t, state.blocks[t])
            parts = ProjectedValues(None, state.blocks[:t + 1])
        for layer, kept in zip(self.layers, state.layers):
            x = layer.forward(x, [(1, 1, t + 1)], None, [(1, 1, state.n_memory)], None, kept,
                              parts)
            parts = None
        state.t = t + 1
        return add_bias(matmul(x, self.out_w.tensor), self.out_b.tensor)

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
        limit = min(self.max_out if max_out is None else max_out, self.encoder.config.max_len - 1)
        with no_grad():
            state = DecoderState(self, self.encoder.word_states([ex]))
            token = CLS_ID
            out: list[int] = []
            probs: list[float] = []
            while len(out) < limit:
                row = self.decode_logits([[token]], state=state).data[0]
                nxt = int(np.argmax(row))
                shifted = np.exp(row - row.max())
                prob = float(shifted[nxt] / shifted.sum())
                if nxt == EOS_ID:
                    break
                out.append(nxt)
                probs.append(prob)
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
