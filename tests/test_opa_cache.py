"""The first char layer's OPA cache: each character and position projected once per parameter version.

At inference (not training, no graph recorded) `CharHit` takes that layer's
value blocks from its `OpaTableCache`. A cache-free reference is the same call
with a graph recorded. The blocks come from other GEMM shapes than the
uncached path's, so results are compared to 1e-12, not bit for bit. The cache's
storage and eviction are `RowCache`'s, tested in test_row_cache.py.
"""

import numpy as np
import pytest

from hitkit import encoders as E
from hitkit import optim as O
from hitkit import tensor as T
from hitkit.attention import FameConfig, FameLayer

from test_char_memo import (
    LEXICON,
    N_CHARS,
    assert_close,
    backward_and_adam,
    classifier,
    load_other_arrays,
    memoised,
    stream,
)


def word_batches(n, seed=0):
    """Batches of 1-6 words drawn Zipf-like from the lexicon, so characters repeat across batches."""
    rng = np.random.default_rng(seed)
    return [[list(LEXICON[int(k)]) for k in (rng.zipf(1.6, rng.integers(1, 7)) - 1) % len(LEXICON)]
            for _ in range(n)]


def char_vectors(char_hit, words, **kw):
    with T.no_grad():
        return char_hit.forward(words, **kw).data


def filled_rows(char_hit):
    return set(char_hit.opa_cache.rows.index)


def test_cached_char_vectors_match_a_cache_free_encoding():
    char_hit = classifier().encoder.char_hit
    for words in word_batches(30):
        assert_close(char_vectors(char_hit, words), char_hit.forward(words).data)
    assert filled_rows(char_hit)


@pytest.mark.parametrize("method", ["sentence_vectors", "word_states"])
def test_cached_encoder_outputs_match_a_cache_free_encoder(method):
    enc = classifier().encoder
    call = getattr(enc, method)
    sentences = stream(40, seed=3)
    for i in range(0, len(sentences), 4):
        batch = sentences[i:i + 4]
        assert_close(memoised(call, batch), call(batch).data)
    assert filled_rows(enc.char_hit)


def test_only_the_ids_seen_are_filled():
    char_hit = classifier().encoder.char_hit
    assert not filled_rows(char_hit)
    words = [[5, 7, 5], [9, 7]]
    char_vectors(char_hit, words)
    assert filled_rows(char_hit) == {5, 7, 9, N_CHARS + 0, N_CHARS + 1, N_CHARS + 2}
    char_vectors(char_hit, [[6]])
    assert filled_rows(char_hit) == {5, 6, 7, 9, N_CHARS + 0, N_CHARS + 1, N_CHARS + 2}


def test_rows_past_the_cap_run_uncached_or_evict_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(E, "OPA_CACHE_ROWS", 6)
    char_hit = classifier().encoder.char_hit
    fits = [[5, 7, 5], [9, 7]]  # 3 characters and 3 positions
    assert_close(char_vectors(char_hit, fits), char_hit.forward(fits).data)
    assert filled_rows(char_hit) == {5, 7, 9, N_CHARS + 0, N_CHARS + 1, N_CHARS + 2}
    wide = [[5, 6, 7, 8], [9, 10]]  # 6 characters and 4 positions: more than the cache holds
    assert_close(char_vectors(char_hit, wide), char_hit.forward(wide).data)
    assert filled_rows(char_hit) == {5, 7, 9, N_CHARS + 0, N_CHARS + 1, N_CHARS + 2}
    # one new row beside 6 takes the place of the least recently used: character 9, since
    # the packing runs the shorter word first
    assert_close(char_vectors(char_hit, [[6]]), char_hit.forward([[6]]).data)
    assert filled_rows(char_hit) == {5, 6, 7, N_CHARS + 0, N_CHARS + 1, N_CHARS + 2}
    assert_close(char_vectors(char_hit, fits), char_hit.forward(fits).data)


@pytest.mark.parametrize("d_model", [16, 128])
def test_a_rows_block_has_the_same_bits_at_every_fill_size(d_model):
    """A call's missing rows are filled in one product. A BLAS that gave a row other bits
    beside other rows would make a warm cache's outputs differ from a cold one's: here it
    fails loudly instead."""
    rng = np.random.default_rng(d_model)
    emb = O.Parameter("emb", rng.standard_normal((40, d_model)))
    cache = E.OpaTableCache(emb, E.positional_table(30, d_model), FameLayer(FameConfig(d_model), rng))
    n_rows = len(emb.data) + 30
    solo = [cache._project([r])[0] for r in range(n_rows)]  # padded to 2 rows
    for m in range(2, 65):
        rows = rng.choice(n_rows, m, replace=False).tolist()  # random mates and positions
        for r, block in zip(rows, cache._project(rows)):
            assert np.array_equal(block, solo[r]), (m, r)


def assign_wo_outer(model, examples):
    p = model.encoder.char_hit.layers[0].fame.wo_outer
    p.assign(p.data * 1.5)


def assign_char_emb(model, examples):
    p = model.encoder.char_hit.emb
    p.assign(p.data + 0.5)


@pytest.mark.parametrize("change", [backward_and_adam, assign_wo_outer, assign_char_emb,
                                    load_other_arrays])
def test_no_stale_block_after_a_parameter_change(change):
    model = classifier()
    char_hit = model.encoder.char_hit
    words = [w for batch in word_batches(6) for w in batch]
    before = char_vectors(char_hit, words)
    change(model, stream(8))
    after = char_vectors(char_hit, words)
    assert_close(after, char_hit.forward(words).data)
    assert np.max(np.abs(after - before)) > 1e-6


def test_training_and_recording_calls_neither_read_nor_fill_the_cache():
    char_hit = classifier(dropout=0.2).encoder.char_hit
    words = [w for batch in word_batches(4) for w in batch]

    def run():
        training = lambda: char_hit.forward(words, training=True, rng=np.random.default_rng(3))
        out = [char_hit.forward(words).data, training().data]  # each records a graph
        with T.no_grad():
            out.append(training().data)
        return out

    before = run()
    assert not filled_rows(char_hit)
    char_vectors(char_hit, words)
    filled = filled_rows(char_hit)
    char_hit.opa_cache.rows.table[:] = np.nan  # a block read from here would show
    for again, first in zip(run(), before):
        assert np.array_equal(again, first)
    assert filled_rows(char_hit) == filled


def test_two_encoders_share_nothing():
    first, second = classifier(seed=0).encoder.char_hit, classifier(seed=1).encoder.char_hit
    words = word_batches(1)[0]
    char_vectors(first, words)
    assert filled_rows(first) and not filled_rows(second)
    assert_close(char_vectors(second, words), second.forward(words).data)
    assert not np.shares_memory(first.opa_cache.rows.table, second.opa_cache.rows.table)


def test_inference_between_training_steps_leaves_the_parameters_bitwise_equal():
    def trained(infer: bool):
        model = classifier(seed=4, dropout=0.1)
        rng = np.random.default_rng(5)
        sentences = stream(16, seed=6)
        for step in range(8):
            if infer:
                memoised(model.encoder.sentence_vectors, stream(4, seed=10 + step))
            batch = sentences[2 * step % 16:2 * step % 16 + 4]
            T.backward(model.loss_batch(batch, training=True, rng=rng))
            O.clip_gradients(model.trainable_parameters(), 1.0)
            O.adam_step(model.trainable_parameters(), 0.01)
        return model.parameter_arrays()

    alone, interleaved = trained(False), trained(True)
    for name, array in alone.items():
        assert np.array_equal(array, interleaved[name]), name


def test_hadamard_layers_have_no_cache():
    char_hit = classifier(opa_combine="hadamard").encoder.char_hit
    assert char_hit.opa_cache is None
    words = word_batches(1)[0]
    assert_close(char_vectors(char_hit, words), char_hit.forward(words).data)
