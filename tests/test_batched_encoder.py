"""The packed, length-grouped encoder against the one-example-at-a-time oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit import attention as A
from hitkit import data as D
from hitkit import encoders as E
from hitkit import tensor as T
from hitkit.train import (
    TrainConfig,
    build_classifier,
    build_mlm,
    build_seq2seq,
    build_tagger,
    build_zsl,
    infer,
    seed_streams,
)

from oracles import oracle_loss, oracle_word_states

WORDS = ["a", "red", "cat", "blue", "dog", "green", "bird", "x", "banana", "to"]
VOCAB = D.build_vocab([WORDS])
# ragged sentences; words repeat across them
SENTENCES = [["red", "cat"], ["a", "blue", "dog", "x"], ["banana"], ["green", "bird", "to", "red"],
             ["cat", "a"], ["dog"], ["to", "x", "banana"]]
# OpenBLAS rounds a one-row product (gemv) differently from the same row inside a
# larger product (gemm), so the packed path equals the oracle bit for bit only when
# no word has one character and no sentence has one row; this batch has neither.
NO_ONE_ROW = [["red", "cat"], ["blue", "dog"], ["green", "bird", "to", "red"],
              ["cat", "to", "dog"], ["dog", "bird"], ["to", "banana"]]
SCORES = ["tanh", "softmax"]
COMBINES = ["true_outer_projected", "hadamard"]
KINDS = ["classification", "tagging", "mlm", "seq2seq", "zsl"]


def cfg(**kw):
    base = dict(d_model=8, n_heads=2, l_c=1, l_w=2, l_dec=1, dropout=0.0, epochs=1,
                batch_size=8, max_len=12, max_word_len=8)
    base.update(kw)
    return TrainConfig(**base)


def encode(tokens, target=None):
    return D.encode_example(tokens, VOCAB, target=target, max_len=12, max_word_len=8)


def copy_target(tokens):
    return [D.CLS_ID] + [VOCAB.word_id(x) for x in tokens] + [D.EOS_ID]


def model_and_batch(kind, config, seed=0, sentences=SENTENCES):
    """A model of `kind` and a ragged batch with targets for its loss."""
    init = seed_streams(seed)["init"]
    w, c = VOCAB.word_size, VOCAB.char_size
    rng = np.random.default_rng(seed + 100)
    if kind == "classification":
        model = build_classifier(config, w, c, 3, init)
        batch = [encode(t, target=i % 3) for i, t in enumerate(sentences)]
    elif kind == "tagging":
        model = build_tagger(config, w, c, 3, init)
        batch = [encode(t, target=[int(x) for x in rng.integers(0, 3, len(t))]) for t in sentences]
    elif kind == "mlm":
        model = build_mlm(config, w, c, init)
        batch = []
        for t in sentences:
            ex = encode(t)
            ex.target = [int(x) if keep else -1 for x, keep
                         in zip(rng.integers(5, w, len(t)), rng.random(len(t)) < 0.5)]
            ex.target[0] = ex.word_ids[0]
            batch.append(ex)
    elif kind == "seq2seq":
        model = build_seq2seq(config, w, c, init)
        batch = [encode(t, target=copy_target(t)) for t in sentences]
    else:
        model = build_zsl(config, w, c, init)
        ex = [encode(t) for t in sentences]
        batch = [(ex[i], ex[-1 - i], i % 2 == 0) for i in range(len(ex) // 2 + 1)]
    return model, batch


def grads_of(model, loss):
    for p in model.parameters():
        p.grad = None
    T.backward(loss)
    return {p.name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in model.parameters()}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("score", SCORES)
@pytest.mark.parametrize("combine", COMBINES)
def test_batched_loss_and_gradients_match_oracle(kind, score, combine):
    model, batch = model_and_batch(kind, cfg(opa_score=score, opa_combine=combine))
    got = model.loss_batch(batch)
    got_grads = grads_of(model, got)
    want = oracle_loss(model, batch)
    want_grads = grads_of(model, want)
    assert abs(got.item() - want.item()) < 1e-12
    for name, g in want_grads.items():
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(got_grads[name] - g)) < 1e-12 * scale, name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sentences", [SENTENCES, NO_ONE_ROW], ids=["ragged", "no_one_row"])
def test_training_loss_and_dropout_stream_match_oracle(kind, sentences):
    model, batch = model_and_batch(kind, cfg(dropout=0.3), seed=1, sentences=sentences)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    with T.no_grad():
        got = model.loss_batch(batch, training=True, rng=rng_a).item()
        want = oracle_loss(model, batch, training=True, rng=rng_b).item()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    if sentences is NO_ONE_ROW:
        assert got == want
    else:
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("score", SCORES)
@pytest.mark.parametrize("combine", COMBINES)
def test_word_states_match_per_example_oracle(score, combine):
    model, batch = model_and_batch("classification", cfg(opa_score=score, opa_combine=combine))
    with T.no_grad():
        got = model.encoder.word_states(batch).data
        want = np.concatenate([h.data for h in oracle_word_states(model.encoder, batch)])
    assert np.max(np.abs(got - want)) < 1e-12


MODEL, _ = model_and_batch("classification", cfg(), seed=3)
SEQ2SEQ, _ = model_and_batch("seq2seq", cfg(), seed=3)


def sentence_vectors(batch):
    with T.no_grad():
        return MODEL.encoder.sentence_vectors(batch).data


def teacher_forced_loss(batch):
    with T.no_grad():
        return SEQ2SEQ.loss_batch(batch).item()


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(len(SENTENCES))))
def test_batch_order_does_not_change_results(order):
    batch = [encode(t, target=copy_target(t)) for t in SENTENCES]
    base = sentence_vectors(batch)
    permuted = sentence_vectors([batch[i] for i in order])
    assert np.max(np.abs(permuted - base[list(order)])) < 1e-12
    assert abs(teacher_forced_loss([batch[i] for i in order]) - teacher_forced_loss(batch)) < 1e-12


LABEL_PHRASES = [encode(["red", "bird"]), encode(["blue"]), encode(["banana", "to"])]
ORDERS = {"ragged": list(range(len(SENTENCES))), "permuted": [4, 0, 6, 2, 5, 1, 3]}
HEADS = {
    "classification": ("classification", lambda m, chunk: m.predict_probs(chunk)),
    "labeling": ("tagging", lambda m, chunk: m.predict_probs(chunk)),
    "embed": ("classification", lambda m, chunk: m.encoder.sentence_vectors(chunk).data),
    "zsl": ("zsl", lambda m, chunk: m.classify(chunk, LABEL_PHRASES)),
}


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_inference_chunks_match_one_example_at_a_time(head, order):
    kind, run = HEADS[head]
    # two equal models, so that neither run reads the char memo the other filled
    chunk_model, batch = model_and_batch(kind, cfg(), seed=5)
    alone_model, _ = model_and_batch(kind, cfg(), seed=5)
    batch = [encode(t) for t in SENTENCES] if kind == "zsl" else batch
    batch = [batch[i] for i in order]
    with T.no_grad():
        chunked = infer(lambda chunk: run(chunk_model, chunk), batch, batch_size=3)
        alone = [run(alone_model, [ex])[0] for ex in batch]
    assert len(chunked) == len(batch)
    if kind == "zsl":
        assert chunked == alone
    for got, want in zip(chunked, alone):
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12


def test_zero_shot_labels_are_far_enough_apart_that_rounding_cannot_flip_them():
    model, _ = model_and_batch("zsl", cfg(), seed=5)
    with T.no_grad():
        texts = model.encoder.sentence_vectors([encode(t) for t in SENTENCES]).data
        labels = model.encoder.sentence_vectors(LABEL_PHRASES).data
    unit = lambda v: v / np.linalg.norm(v, axis=1, keepdims=True)
    top2 = np.sort(unit(texts) @ unit(labels).T, axis=1)[:, -2:]
    assert np.min(top2[:, 1] - top2[:, 0]) > 1e-9


# Words that share many (character, position) pairs: the first character layer's value rows
# repeat within and across words, so most of them take the distinct-value path.
SHARED = [["aab", "aba", "baa", "abab"], ["baa", "abab", "ab"], ["bab", "aab", "ba"],
          ["abba", "aba"]]


def aggregate_only(monkeypatch):
    """Make every OPA layer make the (rows, d, d) aggregate, as before value-first projection."""
    monkeypatch.setattr(E.OpaTableCache, "value_parts", lambda self, *args, **kw: None)


def shared_model_and_batch(kind, tie, **kw):
    model, batch = model_and_batch(kind, cfg(**kw), sentences=SHARED)
    if tie:
        # 'a' and 'b' get equal embeddings: equal values must not merge their gradients
        emb = model.encoder.char_hit.emb.data
        (b,), (a,) = VOCAB.char_ids("b"), VOCAB.char_ids("a")
        emb[b] = emb[a]
    return model, batch


def loss_and_grads(model, batch, loss_fn, training):
    rng = np.random.default_rng(7) if training else None
    loss = loss_fn(model, batch, training=training, rng=rng)
    return loss.item(), grads_of(model, loss)


def assert_same(got, want):
    assert abs(got[0] - want[0]) < 1e-12
    for name, g in want[1].items():
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(got[1][name] - g)) < 1e-12 * scale, name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
@pytest.mark.parametrize("l_c", [1, 2])
@pytest.mark.parametrize("tie", [False, True], ids=["distinct_emb", "tied_emb"])
def test_shared_char_positions_match_oracle_and_aggregate(kind, training, l_c, tie, monkeypatch):
    kw = dict(l_c=l_c, dropout=0.3 if training else 0.0)
    model, batch = shared_model_and_batch(kind, tie, **kw)
    packed_loss = lambda m, b, **a: m.loss_batch(b, **a)
    got = loss_and_grads(model, batch, packed_loss, training)
    assert_same(got, loss_and_grads(model, batch, oracle_loss, training))
    aggregate_only(monkeypatch)
    assert_same(got, loss_and_grads(model, batch, packed_loss, training))


def test_only_the_word_layers_make_the_opa_aggregate(monkeypatch):
    calls = []
    real = A.opa_sum_project

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(A, "opa_sum_project", spy)
    model, batch = model_and_batch("classification", cfg(l_c=1, l_w=2), sentences=SHARED)
    model.loss_batch(batch)
    assert len(calls) == 2


def test_the_first_char_layer_projects_each_character_and_position_once(monkeypatch):
    blocks = []
    real = A.opa_project

    def spy(s, ids, proj):
        blocks.append(proj.shape[0])
        return real(s, ids, proj)

    monkeypatch.setattr(A, "opa_project", spy)
    model, batch = model_and_batch("classification", cfg(l_c=2, l_w=2), sentences=SHARED)
    model.loss_batch(batch)
    words = {tuple(seq) for ex in batch for seq in ex.char_ids}
    chars = {c for word in words for c in word}
    longest = max(map(len, words))
    pairs = {(c, p) for word in words for p, c in enumerate(word)}
    # one call, from the first of the two char layers: a block per character and per position
    assert blocks == [len(chars) + longest]
    assert len(chars) + longest < len(pairs)


def test_hadamard_char_layers_look_up_the_character_embeddings_once(monkeypatch):
    """In hadamard mode no layer takes value parts, so the char encoder builds none."""
    tables = []
    real = E.embedding_lookup

    def spy(table, ids):
        tables.append(table)
        return real(table, ids)

    monkeypatch.setattr(E, "embedding_lookup", spy)
    model, batch = model_and_batch("classification", cfg(opa_combine="hadamard"),
                                   sentences=SHARED)
    model.loss_batch(batch)
    assert sum(table is model.encoder.char_hit.emb for table in tables) == 1


# Batch invariance over drawn batches: one-word and max_len-word sentences, words of 1 to
# max_word_len characters, known and unknown words, repeated words and whole sentences.
MAX_LEN, MAX_WORD_LEN = cfg().max_len, cfg().max_word_len
LETTERS = "abcdegnort"
drawn_words = st.one_of(
    st.sampled_from(WORDS),
    st.integers(1, MAX_WORD_LEN).flatmap(lambda n: st.text(LETTERS, min_size=n, max_size=n)),
    st.sampled_from(["a" * MAX_WORD_LEN, "b"]))
drawn_sentences = st.one_of(st.just(1), st.just(MAX_LEN), st.integers(1, MAX_LEN)).flatmap(
    lambda n: st.lists(drawn_words, min_size=n, max_size=n))


@st.composite
def drawn_batches(draw):
    """A ragged batch, some of its sentences repeated, and a permutation of it."""
    sentences = draw(st.lists(drawn_sentences, min_size=1, max_size=4))
    sentences += [sentences[i] for i in draw(st.lists(st.integers(0, len(sentences) - 1),
                                                      max_size=2))]
    return sentences, draw(st.permutations(range(len(sentences))))


def seq2seq_example(tokens):
    ex = encode(tokens)
    ex.target = [D.CLS_ID] + ex.word_ids[:MAX_LEN - 1] + [D.EOS_ID]
    return ex


def batch_models(score, combine):
    config = cfg(opa_score=score, opa_combine=combine)
    return {kind: model_and_batch(kind, config, seed=11)[0]
            for kind in ("classification", "tagging", "seq2seq", "zsl")}


BATCH_MODELS = {(score, combine): batch_models(score, combine)
                for score in SCORES for combine in COMBINES}


def assert_rows_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.max(np.abs(np.subtract(g, w))) < 1e-12


def loss_with_grads(model, batch):
    loss = model.loss_batch(batch)
    return loss.item(), grads_of(model, loss)


@pytest.mark.parametrize("score", SCORES)
@pytest.mark.parametrize("combine", COMBINES)
@settings(max_examples=8, deadline=None)
@given(drawn=drawn_batches())
def test_a_drawn_batch_matches_its_examples_alone_and_in_any_order(score, combine, drawn):
    sentences, order = drawn
    models = BATCH_MODELS[score, combine]
    batch = [encode(t) for t in sentences]
    heads = {
        "classification": lambda b: models["classification"].predict_probs(b),
        "labeling": lambda b: models["tagging"].predict_probs(b),
        "embed": lambda b: models["zsl"].encoder.sentence_vectors(b).data,
    }
    with T.no_grad():
        for run in heads.values():
            together = run(batch)
            assert_rows_close(together, [run([ex])[0] for ex in batch])
            assert_rows_close(run([batch[i] for i in order]), [together[i] for i in order])
        zsl = models["zsl"]
        labels = zsl.classify(batch, LABEL_PHRASES)
        units = heads["embed"](batch + LABEL_PHRASES)
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        cosines = np.sort(units[:len(batch)] @ units[len(batch):].T, axis=1)
        # an argmax may flip only between labels whose cosines are within rounding
        clear = cosines[:, -1] - cosines[:, -2] > 1e-9
        alone = [zsl.classify([ex], LABEL_PHRASES)[0] for ex in batch]
        permuted = zsl.classify([batch[i] for i in order], LABEL_PHRASES)
        for i, k in enumerate(order):
            assert not clear[k] or permuted[i] == labels[k] == alone[k]
    # the teacher-forced loss is a mean over target tokens, so the batch's loss and
    # gradients are the per-example ones weighted by each example's token count
    seq2seq = models["seq2seq"]
    examples = [seq2seq_example(t) for t in sentences]
    got = loss_with_grads(seq2seq, examples)
    weights = np.array([len(ex.target) - 1 for ex in examples], dtype=np.float64)
    weights /= weights.sum()
    each = [loss_with_grads(seq2seq, [ex]) for ex in examples]
    want = (sum(w * loss for w, (loss, _) in zip(weights, each)),
            {name: sum(w * grads[name] for w, (_, grads) in zip(weights, each))
             for name in got[1]})
    for other in (want, loss_with_grads(seq2seq, [examples[i] for i in order])):
        assert abs(got[0] - other[0]) < 1e-12
        for name, g in got[1].items():
            scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(other[1][name] - g)) < 1e-12 * scale, name
