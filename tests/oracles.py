"""Reference implementations for the tests.

The attention oracles are scalar brute-force loops, written independently of
the tensor/tape path. `recompute_greedy_decode` is greedy decoding that reruns
the teacher-forced decoder over the whole prefix for every new token.
"""

import math

import numpy as np

from hitkit.data import CLS_ID, EOS_ID
from hitkit.tensor import no_grad


def msa_oracle(x, wq, wk, wv, wo, n_heads, key_mask=None):
    n, d = x.shape
    dh = d // n_heads
    key_mask = [True] * n if key_mask is None else list(key_mask)
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
                if not key_mask[j]:
                    continue
                s = sum(qh[i][a] * kh[j][a] for a in range(dh)) / math.sqrt(dh)
                scored.append((j, s))
            mx = max(s for _, s in scored)
            exps = [(j, math.exp(s - mx)) for j, s in scored]
            total = sum(e for _, e in exps)
            for j, e in exps:
                z[i, lo:hi] += (e / total) * vh[j]
    return z @ wo


def opa_oracle(x, wq, wk, wv, wo, opa_score, opa_combine, key_mask=None):
    n, d = x.shape
    key_mask = [True] * n if key_mask is None else list(key_mask)
    q = x @ wq
    k = x @ wk
    v = x @ wv
    out = np.zeros((n, d))
    for i in range(n):
        acc = np.zeros((d, d)) if opa_combine == "true_outer_projected" else np.zeros(d)
        for j in range(n):
            if not key_mask[j]:
                continue
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


def fame_oracle(x, layer_arrays, n_heads, opa_score, opa_combine, key_mask=None):
    la = layer_arrays
    z_self = msa_oracle(x, la["wq_self"], la["wk_self"], la["wv_self"], la["wo_self"],
                        n_heads, key_mask)
    z_outer = opa_oracle(x, la["wq_outer"], la["wk_outer"], la["wv_outer"], la["wo_outer"],
                         opa_score, opa_combine, key_mask)
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
        memory = model.encoder.word_level_forward(ex.word_ids, ex.char_ids, mask=ex.mask)
        seq = [CLS_ID]
        out, probs = [], []
        while len(out) < max_out:
            row = model.decode_logits(seq, memory, ex.mask).data[-1]
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
