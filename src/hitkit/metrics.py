"""Evaluation measures and embedding-space diagnostics.

The generation metric trio is pinned here: corpus BLEU with add-1 smoothing
on zero precisions above the unigram, ROUGE-L as a plain LCS F-measure, and
an exact-unigram METEOR variant (no stemming or synonyms) so scores are
internally comparable.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

BLEU_SMOOTHING = "add-1 on zero n-gram precisions above the unigram"


def confusion_matrix(gold, pred, n_classes: int) -> np.ndarray:
    gold = list(gold)
    pred = list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} predictions")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for g, p in zip(gold, pred):
        cm[g, p] += 1
    return cm


def macro_prf(gold, pred, n_classes: int):
    """Per-class precision/recall/F1 (0 where undefined), unweighted class mean."""
    cm = confusion_matrix(gold, pred, n_classes)
    precisions, recalls, f1s = [], [], []
    for c in range(n_classes):
        tp = cm[c, c]
        p_den = cm[:, c].sum()
        r_den = cm[c, :].sum()
        p = tp / p_den if p_den else 0.0
        r = tp / r_den if r_den else 0.0
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return float(np.mean(precisions)), float(np.mean(recalls)), float(np.mean(f1s))


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates, references, max_n: int = 4) -> float:
    """Corpus BLEU on a 0..100 scale, one reference per candidate."""
    candidates = [list(c) for c in candidates]
    references = [list(r) for r in references]
    if not candidates:
        raise ValueError("bleu: empty candidate list")
    if len(candidates) != len(references):
        raise ValueError(f"bleu: {len(candidates)} candidates vs {len(references)} references")
    if any(not r for r in references):
        raise ValueError("bleu: every candidate needs a non-empty reference")
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            c_counts = _ngrams(cand, n)
            r_counts = _ngrams(ref, n)
            matched[n] += sum(min(v, r_counts[g]) for g, v in c_counts.items())
            total[n] += max(len(cand) - n + 1, 0)
    if total[1] == 0 or matched[1] == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if matched[n] > 0:
            p = matched[n] / total[n]
        else:
            p = (matched[n] + 1) / (total[n] + 1)
        log_sum += math.log(p)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum / max_n)


def _lcs_len(a, b) -> int:
    dp = [0] * (len(b) + 1)
    for x in a:
        prev = 0
        for j, y in enumerate(b, start=1):
            cur = dp[j]
            dp[j] = prev + 1 if x == y else max(dp[j], dp[j - 1])
            prev = cur
    return dp[-1]


def rouge_l(candidate, reference) -> float:
    """LCS F-measure: F = 2PR/(P+R) with P = LCS/|cand|, R = LCS/|ref|."""
    candidate = list(candidate)
    reference = list(reference)
    if not candidate or not reference:
        return 0.0
    lcs = _lcs_len(candidate, reference)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def rouge_l_corpus(candidates, references) -> float:
    pairs = list(zip(candidates, references))
    if not pairs:
        raise ValueError("rouge_l_corpus: empty input")
    return float(np.mean([rouge_l(c, r) for c, r in pairs]))


def meteor_lite(candidate, reference) -> float:
    """Exact-unigram METEOR: F_mean = 10PR/(R+9P), chunk penalty 0.5*(ch/m)^3."""
    candidate = list(candidate)
    reference = list(reference)
    if not candidate or not reference:
        return 0.0
    used = [False] * len(reference)
    aligned = []  # (candidate position, reference position)
    for i, tok in enumerate(candidate):
        for j, ref_tok in enumerate(reference):
            if not used[j] and tok == ref_tok:
                used[j] = True
                aligned.append((i, j))
                break
    m = len(aligned)
    if m == 0:
        return 0.0
    p = m / len(candidate)
    r = m / len(reference)
    f_mean = 10 * p * r / (r + 9 * p)
    chunks = 1
    for (i0, j0), (i1, j1) in zip(aligned, aligned[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


def meteor_lite_corpus(candidates, references) -> float:
    pairs = list(zip(candidates, references))
    if not pairs:
        raise ValueError("meteor_lite_corpus: empty input")
    return float(np.mean([meteor_lite(c, r) for c, r in pairs]))


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("pearson: need two equal-length sequences of length >= 2")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValueError("pearson: zero variance input")
    xc, yc = _unit_deviations(x), _unit_deviations(y)
    return float((xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum()))


def _unit_deviations(v: np.ndarray) -> np.ndarray:
    """v centred, scaled to a peak magnitude of 1, and centred again.

    At unit scale the squares cannot underflow into subnormals, and the second
    centring removes the rounding error of the first mean, which near-equal or
    subnormal inputs would otherwise carry into every deviation.
    """
    d = v - v.mean()
    d = d / np.abs(d).max()
    return d - d.mean()


def kmeans(points, k: int, seed: int = 0, iters: int = 100, return_history: bool = False):
    """k-means++ then Lloyd iterations until the assignment fixes or iters cap."""
    if k < 1:
        raise ValueError(f"kmeans: k must be at least 1, got {k}")
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    distinct = len({tuple(row) for row in pts})
    if k > distinct:
        raise ValueError(f"kmeans: k={k} exceeds {distinct} distinct points")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[int(rng.integers(n))]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centroids[c] = pts[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((pts - centroids[c]) ** 2).sum(axis=1))
    assignments = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(iters):
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        history.append(float(dists[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = pts[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    if return_history:
        return assignments, history
    return assignments


def cluster_quality(points, assignments):
    """(silhouette, davies_bouldin) with Euclidean distances."""
    pts = np.asarray(points, dtype=np.float64)
    assign = np.asarray(assignments, dtype=np.int64)
    labels = np.unique(assign)
    if len(labels) < 2:
        raise ValueError("cluster_quality: need at least 2 clusters")
    n = len(pts)
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    sil_values = np.zeros(n)
    for i in range(n):
        own = assign == assign[i]
        own_count = own.sum()
        if own_count <= 1:
            sil_values[i] = 0.0  # singleton clusters contribute zero
            continue
        a = dists[i, own].sum() / (own_count - 1)
        b = min(dists[i, assign == other].mean() for other in labels if other != assign[i])
        sil_values[i] = (b - a) / max(a, b)
    centroids = np.stack([pts[assign == c].mean(axis=0) for c in labels])
    scatter = np.array([np.sqrt(((pts[assign == c] - centroids[idx]) ** 2).sum(axis=1)).mean()
                        for idx, c in enumerate(labels)])
    k = len(labels)
    ratios = np.zeros(k)
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            sep = np.sqrt(((centroids[i] - centroids[j]) ** 2).sum())
            worst = max(worst, (scatter[i] + scatter[j]) / sep)
        ratios[i] = worst
    return float(sil_values.mean()), float(ratios.mean())
