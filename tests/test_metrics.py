import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitkit import metrics as M

tokens_st = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=10)


class TestMacroPrf:
    def test_perfect(self):
        assert M.macro_prf([0, 1, 2], [0, 1, 2], 3) == (1.0, 1.0, 1.0)

    def test_binary_all_wrong(self):
        assert M.macro_prf([0, 1], [1, 0], 2) == (0.0, 0.0, 0.0)

    def test_worked_example(self):
        p, r, f1 = M.macro_prf([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert abs(f1 - 0.7333) < 1e-4

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            M.macro_prf([0], [0, 1], 2)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40),
           st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_matches_counting_oracle(self, gold, pred):
        n = min(len(gold), len(pred))
        gold, pred = gold[:n], pred[:n]
        ps, rs, fs = [], [], []
        for c in range(4):
            tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
            fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
            fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            ps.append(p)
            rs.append(r)
            fs.append(2 * p * r / (p + r) if p + r else 0.0)
        got = M.macro_prf(gold, pred, 4)
        assert np.allclose(got, (np.mean(ps), np.mean(rs), np.mean(fs)))

    def test_confusion_rows_sum_to_gold_counts(self):
        gold = [0, 0, 1, 2, 2, 2]
        pred = [0, 1, 1, 0, 2, 2]
        cm = M.confusion_matrix(gold, pred, 3)
        assert cm.sum() == len(gold)
        assert list(cm.sum(axis=1)) == [2, 1, 3]


def bleu_counting_oracle(cands, refs, max_n=4):
    """Independent corpus BLEU built from explicit Counters."""
    matched = Counter()
    total = Counter()
    c_len = r_len = 0
    for cand, ref in zip(cands, refs):
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_n + 1):
            cg = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            rg = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            for g, v in cg.items():
                matched[n] += min(v, rg[g])
            total[n] += max(len(cand) - n + 1, 0)
    if matched[1] == 0:
        return 0.0
    logs = []
    for n in range(1, max_n + 1):
        if matched[n] > 0:
            logs.append(math.log(matched[n] / total[n]))
        else:
            logs.append(math.log((matched[n] + 1) / (total[n] + 1)))
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    return 100.0 * bp * math.exp(sum(logs) / max_n)


class TestBleu:
    def test_identical_scores_100(self):
        sent = "the quick brown fox jumps".split()
        assert abs(M.bleu([sent], [sent]) - 100.0) < 1e-9

    def test_no_shared_unigram_scores_0(self):
        assert M.bleu([["x", "y"]], [["a", "b"]]) == 0.0

    def test_two_sentence_corpus_matches_counting_oracle(self):
        cands = ["the cat sat on the mat".split(), "a dog barked".split()]
        refs = ["the cat is on the mat".split(), "the dog barked loudly".split()]
        assert abs(M.bleu(cands, refs) - bleu_counting_oracle(cands, refs)) < 1e-6

    def test_empty_candidate_list_errors(self):
        with pytest.raises(ValueError, match="empty"):
            M.bleu([], [])

    def test_order_invariant(self):
        cands = [["a", "b"], ["c", "d", "e"], ["a"]]
        refs = [["a", "b", "c"], ["c", "d"], ["b"]]
        assert abs(M.bleu(cands, refs) - M.bleu(cands[::-1], refs[::-1])) < 1e-12

    @given(st.lists(tokens_st, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_range(self, cands):
        refs = [list(reversed(c)) + ["e"] for c in cands]
        score = M.bleu(cands, refs)
        assert 0.0 <= score <= 100.0


class TestRougeL:
    def test_identical(self):
        assert M.rouge_l(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert M.rouge_l(["a"], ["b"]) == 0.0

    def test_lcs_hand_computation(self):
        score = M.rouge_l("a b c d".split(), "a c d".split())
        assert abs(score - 0.857) < 1e-3

    @given(tokens_st, tokens_st)
    @settings(max_examples=80, deadline=None)
    def test_range(self, cand, ref):
        assert 0.0 <= M.rouge_l(cand, ref) <= 1.0


class TestMeteorLite:
    def test_identical_approaches_one(self):
        sent = "a b c d e".split()
        expected = 1.0 * (1 - 0.5 * (1 / 5) ** 3)
        assert abs(M.meteor_lite(sent, sent) - expected) < 1e-12

    def test_disjoint(self):
        assert M.meteor_lite(["x"], ["y"]) == 0.0

    def test_hand_arithmetic(self):
        cand = "the cat sat".split()
        ref = "the cat was sat".split()
        p, r, m, chunks = 1.0, 0.75, 3, 2
        f_mean = 10 * p * r / (r + 9 * p)
        expected = f_mean * (1 - 0.5 * (chunks / m) ** 3)
        assert abs(M.meteor_lite(cand, ref) - expected) < 1e-12

    @given(tokens_st, tokens_st)
    @settings(max_examples=80, deadline=None)
    def test_range(self, cand, ref):
        assert 0.0 <= M.meteor_lite(cand, ref) <= 1.0


def exact_pearson(xs, ys):
    """Pearson r from exact rational sums, rounded once; None for a constant input."""
    xs, ys = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return math.copysign(math.sqrt(float(num * num / (sxx * syy))), num)


class TestPearson:
    def test_identity(self):
        assert abs(M.pearson([1, 2, 3], [1, 2, 3]) - 1.0) < 1e-12

    def test_negation(self):
        assert abs(M.pearson([1, 2, 3], [-1, -2, -3]) + 1.0) < 1e-12

    def test_formula_arithmetic(self):
        assert abs(M.pearson([1, 2, 3], [1, 2, 4]) - 0.9820) < 1e-3

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="variance"):
            M.pearson([1, 1, 1], [1, 2, 3])

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=20))
    @example(xs=[0.0, 0.0, 1.7286305419035292e-161])
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_oracle(self, xs):
        rng = np.random.default_rng(0)
        ys = [x * 0.5 + float(rng.standard_normal()) for x in xs]
        want = exact_pearson(xs, ys)
        if want is None:
            return
        assert abs(M.pearson(xs, ys) - want) < 1e-9


class TestKmeans:
    def test_k_equals_points_zero_inertia(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        assignments, history = M.kmeans(pts, 3, seed=1, return_history=True)
        assert len(set(int(a) for a in assignments)) == 3
        assert history[-1] < 1e-12

    def test_two_far_pairs_grouped(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
        assignments = M.kmeans(pts, 2, seed=2)
        assert assignments[0] == assignments[1]
        assert assignments[2] == assignments[3]
        assert assignments[0] != assignments[2]

    def test_k_exceeds_distinct_points_errors(self):
        with pytest.raises(ValueError, match="distinct"):
            M.kmeans(np.zeros((4, 2)), 2)

    def test_deterministic_under_seed(self):
        pts = np.random.default_rng(5).standard_normal((30, 3))
        a = M.kmeans(pts, 4, seed=9)
        b = M.kmeans(pts, 4, seed=9)
        assert np.array_equal(a, b)

    def test_inertia_never_increases(self):
        for seed in range(8):
            pts = np.random.default_rng(seed).standard_normal((40, 4))
            _, history = M.kmeans(pts, 5, seed=seed, return_history=True)
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


class TestClusterQuality:
    def test_tight_far_clusters(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 2)) * 0.01
        b = rng.standard_normal((20, 2)) * 0.01 + np.array([100.0, 0.0])
        pts = np.vstack([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        sil, db = M.cluster_quality(pts, labels)
        assert sil >= 0.95
        assert db <= 0.05

    def test_overlapping_identical_points(self):
        pts = np.zeros((6, 2))
        pts[3:] += 1e-9  # distinct but coincident for practical purposes
        labels = np.array([0, 1, 0, 1, 0, 1])
        sil, _ = M.cluster_quality(pts, labels)
        assert sil <= 0.0

    def test_single_cluster_errors(self):
        with pytest.raises(ValueError, match="2 clusters"):
            M.cluster_quality(np.random.default_rng(0).standard_normal((5, 2)), [0] * 5)

    def test_five_point_case_matches_reference_oracle(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [5.0, 5.0], [5.0, 6.0]])
        labels = np.array([0, 0, 0, 1, 1])
        sil, db = M.cluster_quality(pts, labels)
        assert abs(sil - sklearn.silhouette_score(pts, labels)) < 1e-6
        assert abs(db - sklearn.davies_bouldin_score(pts, labels)) < 1e-6

    def test_random_instances_match_reference_oracle(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pts = rng.standard_normal((25, 3))
            labels = rng.integers(0, 3, size=25)
            if len(set(labels.tolist())) < 2 or min(np.bincount(labels)) < 2:
                continue
            sil, db = M.cluster_quality(pts, labels)
            assert abs(sil - sklearn.silhouette_score(pts, labels)) < 1e-9
            assert abs(db - sklearn.davies_bouldin_score(pts, labels)) < 1e-9
