"""Reference implementations for the tests.

The attention oracles are scalar brute-force loops, written independently of
the tensor/tape path. `recompute_greedy_decode` is greedy decoding that reruns
the teacher-forced decoder over the whole prefix for every new token. The
encoder oracles run the hierarchical encoder one example at a time: each
distinct word through the character encoder on its own (a per-batch cache of
words), then each sentence through the word encoder on its own, with dropout
drawn inline by `tensor.dropout`. The decoder oracle runs each target sequence
on its own in the same way. `oracle_loss` builds every task loss on them.
"""

import math

import numpy as np

from hitkit import tensor as T
from hitkit.attention import fame_forward
from hitkit.data import CLS_ID, EOS_ID
from hitkit.model import ClassificationModel, Seq2SeqModel, TokenModel, ZslModel
from hitkit.tensor import no_grad


def msa_oracle(x, wq, wk, wv, wo, n_heads):
    n, d = x.shape
    dh = d // n_heads
    q = x @ wq
    k = x @ wk
    v = x @ wv
    z = np.zeros((n, d))
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = q[:, lo:hi], k[:, lo:hi], v[:, lo:hi]
        for i in range(n):
            scored = []
            for j in range(n):
                s = sum(qh[i][a] * kh[j][a] for a in range(dh)) / math.sqrt(dh)
                scored.append((j, s))
            mx = max(s for _, s in scored)
            exps = [(j, math.exp(s - mx)) for j, s in scored]
            total = sum(e for _, e in exps)
            for j, e in exps:
                z[i, lo:hi] += (e / total) * vh[j]
    return z @ wo


def opa_oracle(x, wq, wk, wv, wo, opa_score, opa_combine):
    n, d = x.shape
    q = x @ wq
    k = x @ wk
    v = x @ wv
    out = np.zeros((n, d))
    for i in range(n):
        acc = np.zeros((d, d)) if opa_combine == "true_outer_projected" else np.zeros(d)
        for j in range(n):
            raw = (q[i] * k[j]) / math.sqrt(d)
            if opa_score == "tanh":
                s = np.tanh(raw)
            else:
                e = np.exp(raw - raw.max())
                s = e / e.sum()
            if opa_combine == "true_outer_projected":
                acc += np.array([[s[a] * v[j][b] for b in range(d)] for a in range(d)])
            else:
                acc += s * v[j]
        if opa_combine == "true_outer_projected":
            out[i] = acc.reshape(-1) @ wo
        else:
            out[i] = acc @ wo
    return out


def fame_oracle(x, layer_arrays, n_heads, opa_score, opa_combine):
    la = layer_arrays
    z_self = msa_oracle(x, la["wq_self"], la["wk_self"], la["wv_self"], la["wo_self"],
                        n_heads)
    z_outer = opa_oracle(x, la["wq_outer"], la["wk_outer"], la["wv_outer"], la["wo_outer"],
                         opa_score, opa_combine)
    logits = la["fusion_logits"]
    e = np.exp(logits - logits.max())
    a = e / e.sum()
    return a[0] * z_self + a[1] * z_outer


def layer_arrays(layer):
    return {
        "wq_self": layer.wq_self.data, "wk_self": layer.wk_self.data,
        "wv_self": layer.wv_self.data, "wo_self": layer.wo_self.data,
        "wq_outer": layer.wq_outer.data, "wk_outer": layer.wk_outer.data,
        "wv_outer": layer.wv_outer.data, "wo_outer": layer.wo_outer.data,
        "fusion_logits": layer.fusion_logits.data,
    }


def recompute_greedy_decode(model, ex, max_out):
    """Greedy ids and their probabilities, from `decode_logits` on each full prefix."""
    with no_grad():
        memory = model.encoder.word_states([ex])
        seq = [CLS_ID]
        out, probs = [], []
        while len(out) < max_out:
            row = model.decode_logits([seq], memory, [ex.n_words]).data[-1]
            nxt = int(np.argmax(row))
            shifted = np.exp(row - row.max())
            prob = float(shifted[nxt] / shifted.sum())
            if nxt == EOS_ID:
                break
            out.append(nxt)
            probs.append(prob)
            seq.append(nxt)
            if len(seq) >= model.encoder.config.max_len:
                break
    return out, probs


def oracle_encoder_layer(layer, x, training=False, rng=None, value_parts=None):
    """One EncoderLayer over one sequence, dropout drawn after each sublayer."""
    h = T.dropout(fame_forward(layer.fame, x, value_parts=value_parts), layer.dropout_rate,
                  training, rng)
    (g1, b1), (g2, b2) = layer.norms
    y1 = T.layer_norm(T.add(x, h), g1, b1, layer.eps)
    f = T.dropout(layer.ffn.forward(y1), layer.dropout_rate, training, rng)
    return T.layer_norm(T.add(y1, f), g2, b2, layer.eps)


def oracle_decoder_layer(layer, x, memory, training=False, rng=None):
    """One DecoderLayer over one causal sequence, dropout drawn after each sublayer."""
    mem_groups = [(1, x.shape[0], memory.shape[0])]
    (g1, b1), (g2, b2), (g3, b3) = layer.norms
    h = T.dropout(fame_forward(layer.fame, x, causal=True), layer.dropout_rate, training, rng)
    y1 = T.layer_norm(T.add(x, h), g1, b1, layer.eps)
    c = T.dropout(layer.cross.forward(y1, memory, mem_groups), layer.dropout_rate, training, rng)
    y2 = T.layer_norm(T.add(y1, c), g2, b2, layer.eps)
    f = T.dropout(layer.ffn.forward(y2), layer.dropout_rate, training, rng)
    return T.layer_norm(T.add(y2, f), g3, b3, layer.eps)


def oracle_hier_pool(pool, h):
    n, d = h.shape
    u = T.tanh(T.add_bias(T.matmul(h, pool.proj_w), pool.proj_b))
    scores = T.reshape(T.matmul(u, T.reshape(pool.context, (d, 1))), (n,))
    a = T.softmax(scores, axis=0)
    return T.reshape(T.matmul(T.reshape(a, (1, n)), h), (d,))


def oracle_encode_word(char_hit, ids, training=False, rng=None):
    ids = list(ids)
    emb, pos = T.embedding_lookup(char_hit.emb, ids), T.Tensor(char_hit.pos[:len(ids)])
    x = T.add(emb, pos)
    # the first layer projects its values as sums of an embedding row and a position row,
    # as CharHit.forward does, here with one row of each per character of the word
    rows = np.arange(len(ids))
    for i, layer in enumerate(char_hit.layers):
        x = oracle_encoder_layer(layer, x, training=training, rng=rng,
                                 value_parts=[(emb, rows), (pos, rows)] if i == 0 else None)
    return oracle_hier_pool(char_hit.pool, x)


def oracle_word_states(encoder, examples, training=False, rng=None):
    """Per-example (n, d) word states: every distinct word once, then one sentence at a time."""
    index, rows = {}, []
    for ex in examples:
        for seq in ex.char_ids:
            key = tuple(seq)
            if key not in index:
                index[key] = len(rows)
                rows.append(oracle_encode_word(encoder.char_hit, key, training, rng))
    matrix = T.stack_rows(rows)
    states = []
    for ex in examples:
        n = len(ex.word_ids)
        h_char = T.embedding_lookup(matrix, [index[tuple(seq)] for seq in ex.char_ids])
        h_word = T.embedding_lookup(encoder.word_hit.emb, list(ex.word_ids))
        x = T.add(T.add(h_char, h_word), T.Tensor(encoder.word_hit.pos[:n]))
        for layer in encoder.word_hit.layers:
            x = oracle_encoder_layer(layer, x, training, rng)
        states.append(x)
    return states


def _head(h, w, b):
    # one product over the stacked rows: OpenBLAS rounds a one-row product (gemv)
    # differently from the same row inside a larger one (gemm)
    return T.add_bias(T.matmul(h, w), b)


def oracle_loss(model, batch, training=False, rng=None):
    """The model's loss_batch, built one example at a time on `oracle_word_states`.

    `batch` is a list of examples, or of (text, label, entail) triples for ZslModel.
    """
    if isinstance(model, ZslModel):
        examples = [ex for pair in batch for ex in pair[:2]]
    else:
        examples = list(batch)
    states = oracle_word_states(model.encoder, examples, training, rng)
    if isinstance(model, ClassificationModel):
        rows = []
        for ex, h in zip(examples, states):
            s = T.mean_rows(h)
            if model.use_tfidf:
                s = T.concat_vec([s, T.Tensor(np.asarray(ex.features, dtype=np.float64))])
            rows.append(s)
        return T.cross_entropy(_head(T.stack_rows(rows), model.head_w, model.head_b),
                               [ex.target for ex in examples])
    if isinstance(model, TokenModel):
        targets = [t for ex in examples for t in ex.target]
        return T.cross_entropy(_head(T.concat_rows(states), model.head_w, model.head_b), targets,
                               ignore_index=-1)
    if isinstance(model, Seq2SeqModel):
        blocks, targets = [], []
        for ex, memory in zip(examples, states):
            tgt = list(ex.target)
            x = T.add(T.embedding_lookup(model.tgt_emb, tgt[:-1]),
                      T.Tensor(model.pos[:len(tgt) - 1]))
            for layer in model.layers:
                x = oracle_decoder_layer(layer, x, memory, training, rng)
            blocks.append(x)
            targets.extend(tgt[1:])
        return T.cross_entropy(_head(T.concat_rows(blocks), model.out_w, model.out_b), targets)
    if isinstance(model, ZslModel):
        pooled = [T.mean_rows(h) for h in states]
        one = T.Tensor(1.0)
        total = None
        for i, (_, _, entail) in enumerate(batch):
            s = T.cosine_similarity(pooled[2 * i], pooled[2 * i + 1])
            p = T.sigmoid(T.scale(s, 1.0 / model.temperature))
            term = T.log(p) if entail else T.log(T.sub(one, p))
            total = term if total is None else T.add(total, term)
        return T.scale(total, -1.0 / len(batch))
    raise TypeError(f"no oracle loss for {type(model).__name__}")
