"""The decoder's first-layer OPA cache and the decoder state of greedy decoding.

At inference `greedy_decode` runs each step through a `DecoderState`, whose
first-layer value blocks come from the model's `OpaTableCache` over the target
embedding and the positions. `decode_logits` over each whole prefix
(`recompute_greedy_decode`) is the cache-free reference. The blocks come from
other products than the aggregate path's, so logits are compared to 1e-12 and
probabilities to 1e-9, as the other greedy-decoding oracles are; one request
decoded on a warm cache and on a cold one must agree bit for bit. The state keeps
every layer's keys and values, so a step projects only its new rows and a request
its memory once; two states on one model share nothing but the model's cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit import attention as A
from hitkit import data as D
from hitkit import encoders as E
from hitkit import model as M
from hitkit import optim as O
from hitkit import tensor as T
from hitkit.model import DecoderState
from hitkit.train import TrainConfig, build_seq2seq, seed_streams

from oracles import recompute_greedy_decode

WORDS = [f"w{i}" for i in range(25)]
VOCAB = D.build_vocab([WORDS[i:i + 5] for i in range(0, len(WORDS), 5)])
MAX_LEN = 12


def seq2seq(seed=0, **kw):
    base = dict(d_model=8, n_heads=2, l_c=1, l_w=1, l_dec=2, dropout=0.0, max_len=MAX_LEN,
                max_word_len=8)
    base.update(kw)
    model = build_seq2seq(TrainConfig(**base), VOCAB.word_size, VOCAB.char_size,
                          seed_streams(seed)["init"])
    bias = np.zeros(VOCAB.word_size)
    # every request runs to the length cap; a logit of -1e4 would have an ulp of 1.8e-12,
    # past the 1e-12 that the logits are compared to
    bias[D.EOS_ID] = -30.0
    model.out_b.assign(bias)
    return model


def source(words):
    return D.encode_example(["[CLS]"] + list(words) + ["[EOS]"], VOCAB, max_len=MAX_LEN,
                            max_word_len=8)


def assert_matches_oracle(model, src):
    ids, probs = model.greedy_decode(src, return_probs=True)
    want_ids, want_probs = recompute_greedy_decode(model, src, model.max_out)
    assert ids == want_ids
    assert np.max(np.abs(np.subtract(probs, want_probs)), initial=0.0) < 1e-9
    return ids, probs


def filled_rows(model):
    return set(np.flatnonzero(model.opa_cache.slots >= 0))


SOURCES = [source(WORDS[i:i + 3]) for i in range(0, 12, 3)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), score=st.sampled_from(["tanh", "softmax"]),
       combine=st.sampled_from(["true_outer_projected", "hadamard"]), data=st.data())
def test_incremental_logits_match_and_a_warm_cache_decodes_as_a_cold_one(seed, score, combine,
                                                                         data):
    rng = np.random.default_rng(seed)
    src = source([WORDS[int(i)] for i in rng.integers(0, len(WORDS),
                                                      data.draw(st.integers(1, MAX_LEN - 2)))])
    length = data.draw(st.integers(1, MAX_LEN))
    seq = [D.CLS_ID] + [int(t) for t in rng.integers(0, VOCAB.word_size, length - 1)]
    warm = seq2seq(seed, opa_score=score, opa_combine=combine)
    cold = seq2seq(seed, opa_score=score, opa_combine=combine)
    with T.no_grad():
        memory = warm.encoder.word_states([src])
        full = warm.decode_logits([seq], memory, [src.n_words]).data
        state = DecoderState(warm, memory)
        steps = [warm.decode_logits([[token]], state=state).data for token in seq]
    assert np.max(np.abs(np.concatenate(steps) - full)) < 1e-12
    # `warm` has cached the blocks of `seq`'s tokens and positions; `cold` has none
    got = warm.greedy_decode(src, return_probs=True)
    want = cold.greedy_decode(src, return_probs=True)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


# each change moves a parameter's entries unequally: the fusion gate's softmax ignores a
# shift of all its logits, and the layer norms one of a whole row
def moved(p):
    return p.data * 1.5 + np.random.default_rng(7).uniform(0.1, 0.3, p.data.shape)


def assign(p):
    p.assign(moved(p))


def adam(p):
    g = np.random.default_rng(7).standard_normal(p.data.shape)
    p.tensor.grad = g - g.mean()
    O.adam_step([p], 0.1)


def load(p, model):
    model.load_arrays({p.name: moved(p)})


PARAMS = {"tgt_emb": lambda m: m.tgt_emb,
          "wv_outer": lambda m: m.layers[0].fame.wv_outer,
          "wo_outer": lambda m: m.layers[0].fame.wo_outer,
          "layer1.wo_outer": lambda m: m.layers[1].fame.wo_outer,
          "layer1.cross.wq": lambda m: m.layers[1].cross.wq,
          "layer1.ffn.w1": lambda m: m.layers[1].ffn.w1,
          "layer1.norm1.gamma": lambda m: m.layers[1].norms[0][0],
          "layer1.fusion_logits": lambda m: m.layers[1].fame.fusion_logits,
          "out_w": lambda m: m.out_w}


@pytest.mark.parametrize("param", sorted(PARAMS))
@pytest.mark.parametrize("change", ["assign", "adam_step", "load_arrays"])
def test_no_stale_block_after_a_parameter_change(param, change):
    model = seq2seq(seed=3)
    src = SOURCES[0]
    before = assert_matches_oracle(model, src)
    p = PARAMS[param](model)
    {"assign": assign, "adam_step": adam, "load_arrays": lambda p: load(p, model)}[change](p)
    after = assert_matches_oracle(model, src)
    assert np.max(np.abs(np.subtract(after[1], before[1]))) > 1e-6 or after[0] != before[0]


def test_loss_batch_neither_reads_nor_fills_the_cache():
    model = seq2seq(seed=4, dropout=0.2)
    batch = [source(WORDS[i:i + 3]) for i in range(0, 9, 3)]
    for ex, shift in zip(batch, range(3)):
        ex.target = [D.CLS_ID] + [5 + (shift + k) % 20 for k in range(4)] + [D.EOS_ID]

    def losses():
        training = lambda: model.loss_batch(batch, training=True, rng=np.random.default_rng(5))
        out = [model.loss_batch(batch).item(), training().item()]  # each records a graph
        with T.no_grad():
            out.append(training().item())
        return out

    before = losses()
    assert not filled_rows(model)
    model.greedy_decode(SOURCES[1])
    filled = filled_rows(model)
    model.opa_cache.blocks[:] = np.nan  # a block read from here would show
    assert losses() == before
    assert filled_rows(model) == filled


def test_two_models_share_no_store():
    first, second = seq2seq(seed=0), seq2seq(seed=1)
    assert_matches_oracle(first, SOURCES[2])
    assert filled_rows(first) and not filled_rows(second)
    assert_matches_oracle(second, SOURCES[2])
    assert not np.shares_memory(first.opa_cache.blocks, second.opa_cache.blocks)


def test_hadamard_decoders_have_no_cache():
    model = seq2seq(seed=5, opa_combine="hadamard")
    assert model.opa_cache is None
    assert_matches_oracle(model, SOURCES[3])


def test_the_store_keeps_at_most_its_row_cap(monkeypatch):
    cap = 16
    monkeypatch.setattr(E, "OPA_CACHE_ROWS", cap)
    model = seq2seq(seed=6)
    assert VOCAB.word_size > cap
    cache, emitted = model.opa_cache, set()
    for k in range(20):
        bias = np.zeros(VOCAB.word_size)
        bias[D.EOS_ID], bias[5 + k] = -30.0, 3.0  # each request leans to another token
        model.out_b.assign(bias)
        ids, _ = assert_matches_oracle(model, source(WORDS[k:k + 2]))
        emitted.update(ids)
        slots = cache.slots[cache.slots >= 0]
        assert len(cache.blocks) == cap and cache.n_filled <= cap
        assert sorted(slots.tolist()) == list(range(cache.n_filled))  # filled contiguously
    assert len(emitted) > cap


MODES = [(score, combine) for score in ("tanh", "softmax")
         for combine in ("true_outer_projected", "hadamard")]


def by_position(state):
    """Every array of `state` that a step writes, its position axis first."""
    arrays = [a for layer in state.layers for a in (np.moveaxis(layer.self_keys, 2, 0),
                                                    np.moveaxis(layer.self_values, 1, 0),
                                                    layer.outer_keys, layer.outer_values)]
    return [a for a in arrays + [state.blocks] if a is not None]


@pytest.mark.parametrize("score,combine", MODES)
def test_a_greedy_step_projects_only_its_new_rows(monkeypatch, score, combine):
    model = seq2seq(seed=8, opa_score=score, opa_combine=combine)
    src = source(WORDS[:4])
    with T.no_grad():
        memory = model.encoder.word_states([src])
        state = DecoderState(model, memory)
    # the memory's keys and values are its products, made with the state; read-only, a
    # step that wrote them would raise
    for layer, arrays in zip(model.layers, state.layers):
        for w, rows in ((layer.cross.wk, np.moveaxis(arrays.cross_keys, 2, 0)),
                        (layer.cross.wv, np.moveaxis(arrays.cross_values, 1, 0))):
            assert np.array_equal(rows.reshape(src.n_words, -1), memory.data @ w.data)
        arrays.cross_keys.flags.writeable = arrays.cross_values.flags.writeable = False
    written = by_position(state)
    assert len(written) == 4 * len(model.layers)
    for a in written:
        a.fill(np.nan)
    for t, token in enumerate((D.CLS_ID, 5, 6, 9)):
        before = [a.copy() for a in written]
        with T.no_grad():
            model.decode_logits([[token]], state=state)
        for a, b in zip(written, before):
            assert np.array_equal(a[:t], b[:t])
            assert not np.isnan(a[t]).any()
            assert np.isnan(a[t + 1:]).all()
    # a whole request makes one state, so it projects its memory once
    made = []

    def make(*args):
        made.append(DecoderState(*args))
        return made[-1]

    monkeypatch.setattr(M, "DecoderState", make)
    ids = model.greedy_decode(src)
    assert len(ids) == MAX_LEN - 1
    assert len(made) == 1 and made[0].t == len(ids)


@pytest.mark.parametrize("score,combine", MODES)
def test_a_greedy_step_packs_nothing_and_masks_nothing(monkeypatch, score, combine):
    model = seq2seq(seed=10, opa_score=score, opa_combine=combine)
    src = source(WORDS[2:6])
    want = model.greedy_decode(src, return_probs=True)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a step called {name}")
        return call

    # no Packing means no memory groups either: `Packing.groups` makes them
    monkeypatch.setattr(M, "Packing", refuse("Packing"))
    monkeypatch.setattr(M, "dropout_multipliers", refuse("dropout_multipliers"))
    monkeypatch.setattr(A, "_causal", refuse("_causal"))
    got = model.greedy_decode(src, return_probs=True)
    assert len(got[0]) == MAX_LEN - 1
    assert got == want


def decode_in_turn(model, sources):
    """Greedy ids and each step's logits for every source, one step of each in turn, each
    with its own DecoderState; the probabilities as greedy_decode computes them."""
    limit = min(model.max_out, MAX_LEN - 1)
    with T.no_grad():
        states = [DecoderState(model, model.encoder.word_states([src])) for src in sources]
        tokens = [D.CLS_ID] * len(sources)
        out = [([], [], []) for _ in sources]
        for _ in range(limit):
            for k, state in enumerate(states):
                row = model.decode_logits([[tokens[k]]], state=state).data[0]
                nxt = int(np.argmax(row))
                shifted = np.exp(row - row.max())
                ids, probs, rows = out[k]
                ids.append(nxt)
                probs.append(float(shifted[nxt] / shifted.sum()))
                rows.append(row)
                tokens[k] = nxt
    return states, out


def state_arrays(state):
    arrays = [a for layer in state.layers for a in layer if a is not None]
    return arrays + ([] if state.blocks is None else [state.blocks])


@pytest.mark.parametrize("score,combine", MODES)
def test_interleaved_states_decode_as_solo_ones(score, combine):
    model = seq2seq(seed=9, opa_score=score, opa_combine=combine)
    sources = [source(WORDS[:2]), source(WORDS[4:10])]
    states, together = decode_in_turn(model, sources)
    for src, got in zip(sources, together):
        _, (alone,) = decode_in_turn(model, [src])
        assert got[0] == alone[0]
        assert np.array_equal(got[1], alone[1])
        assert np.array_equal(got[2], alone[2])
        ids, probs = model.greedy_decode(src, return_probs=True)
        assert ids == alone[0]
        assert np.array_equal(probs, alone[1])
    assert not any(np.shares_memory(a, b) for a in state_arrays(states[0])
                   for b in state_arrays(states[1]))
