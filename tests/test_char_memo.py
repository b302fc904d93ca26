"""The encoder's char-vector memo: inference reuses each word's pooled character vector.

A memo-free reference is the same call with a graph recorded, which bypasses the
memo. A word's char vector differs by up to ~2e-15 between packings, so results
are compared to 1e-12, not bit for bit. The memo's storage and eviction are
`RowCache`'s, tested in test_row_cache.py.
"""

import numpy as np
import pytest

from hitkit import data as D
from hitkit import encoders as E
from hitkit import optim as O
from hitkit import tensor as T
from hitkit.train import TrainConfig, build_classifier, seed_streams, train

TOL = 1e-12
N_WORDS, N_CHARS = 30, 12
# word id 5 + k spells LEXICON[k]; short and single-character words included
LEXICON = [tuple(int(c) for c in np.random.default_rng(k).integers(5, N_CHARS, 1 + k % 6))
           for k in range(N_WORDS - 5)]


def config(**kw):
    base = dict(d_model=8, n_heads=2, l_c=1, l_w=1, dropout=0.0, epochs=3, batch_size=4,
                max_len=12, max_word_len=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def classifier(seed=0, **kw):
    cfg = config(**kw)
    return build_classifier(cfg, N_WORDS, N_CHARS, 3, seed_streams(seed)["init"])


def example(words, target=None):
    return D.EncodedExample([5 + k for k in words], [list(LEXICON[k]) for k in words],
                            target=target)


def stream(n, seed=0):
    """Sentences of 1-8 words drawn Zipf-like, so words repeat across sentences."""
    rng = np.random.default_rng(seed)
    return [example([int(k) for k in (rng.zipf(1.6, rng.integers(1, 9)) - 1) % len(LEXICON)],
                    target=i % 3)
            for i in range(n)]


def memoised(call, examples):
    with T.no_grad():
        return call(examples).data


def assert_close(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= TOL


@pytest.mark.parametrize("method", ["sentence_vectors", "word_states"])
def test_memoised_outputs_match_a_memo_free_encoder(method):
    enc = classifier().encoder
    call = getattr(enc, method)
    sentences = stream(40)
    for i, ex in enumerate(sentences):
        assert_close(memoised(call, [ex]), call([ex]).data)
        if i % 5 == 4:  # a batch of several sentences, most of its words already seen
            assert_close(memoised(call, sentences[i - 4:i + 1]), call(sentences[i - 4:i + 1]).data)
    seen = {tuple(row) for ex in sentences for row in ex.char_ids}
    assert len(enc.memo) == len(seen)


def backward_and_adam(model, examples):
    T.backward(model.loss_batch(examples))
    O.adam_step(model.trainable_parameters(), 0.05)


def assign_pool_context(model, examples):
    p = model.encoder.char_hit.pool.context  # the char encoder's last parameter
    p.assign(p.data + 0.5)


def load_other_arrays(model, examples):
    model.load_arrays(classifier(seed=7).parameter_arrays())


@pytest.mark.parametrize("change", [backward_and_adam, assign_pool_context, load_other_arrays])
def test_no_stale_row_after_a_parameter_change(change):
    model = classifier()
    sentences = stream(12)
    before = memoised(model.encoder.sentence_vectors, sentences)
    assert len(model.encoder.memo) > 0
    change(model, sentences)
    after = memoised(model.encoder.sentence_vectors, sentences)
    assert_close(after, model.encoder.sentence_vectors(sentences).data)
    assert np.max(np.abs(after - before)) > 1e-6


def test_validation_between_epochs_sees_the_updated_parameters():
    model = classifier()
    items = stream(16)
    cfg = config()
    seen = []

    def hook(model, epoch, stats):
        # the validation loss train() computed under no_grad, against one with a graph
        chunks = [items[i:i + cfg.batch_size] for i in range(0, len(items), cfg.batch_size)]
        fresh = np.average([model.loss_batch(c).item() for c in chunks],
                           weights=[len(c) for c in chunks])
        seen.append((stats.val_loss, fresh, len(model.encoder.memo)))

    train(model, items, items, cfg, epoch_hook=hook)
    assert len(seen) == cfg.epochs
    for val_loss, fresh, size in seen:
        assert size > 0
        assert abs(val_loss - fresh) <= TOL


def test_training_and_recording_calls_neither_read_nor_fill_the_memo():
    enc = classifier(dropout=0.2).encoder
    sentences = stream(8)

    def training_call():
        return enc.sentence_vectors(sentences, training=True, rng=np.random.default_rng(3))

    def run():
        out = [enc.sentence_vectors(sentences).data, enc.word_states(sentences).data,
               training_call().data]  # each records a graph
        with T.no_grad():
            out.append(training_call().data)
        return out

    before = run()
    assert len(enc.memo) == 0
    memoised(enc.sentence_vectors, sentences)
    filled = len(enc.memo)
    enc.memo.table[:] = np.nan  # a row read from here would show
    for again, first in zip(run(), before):
        assert np.array_equal(again, first)
    assert len(enc.memo) == filled


def test_a_call_past_the_memo_rows_encodes_all_its_words_without_it(monkeypatch):
    twin = classifier().encoder  # a cold memo of the default size encodes a call in one block
    monkeypatch.setattr(E, "MEMO_ROWS", 4)
    enc = classifier().encoder
    for k in range(6):
        memoised(enc.sentence_vectors, [example([k])])
    assert len(enc.memo) == 4
    evicted = example([0, 3])
    assert_close(memoised(enc.sentence_vectors, [evicted]), enc.sentence_vectors([evicted]).data)
    held = list(enc.memo.index)
    # ten distinct words, four of them held: all ten run as one memo-free block
    wide = example(list(range(10)))
    assert np.array_equal(memoised(enc.word_states, [wide]), memoised(twin.word_states, [wide]))
    assert list(enc.memo.index) == held


def test_two_encoders_do_not_share_entries():
    first, second = classifier(seed=0).encoder, classifier(seed=1).encoder
    sentences = stream(6)
    memoised(first.sentence_vectors, sentences)
    assert len(first.memo) > 0 and len(second.memo) == 0
    assert_close(memoised(second.sentence_vectors, sentences),
                 second.sentence_vectors(sentences).data)
