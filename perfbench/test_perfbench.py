"""Tests of the benchmark's own pieces: python3 -m pytest perfbench"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import tracer as TRC  # noqa: E402


def _generated_bytes(seed: int) -> bytes:
    return json.dumps({
        "train": gen.train_batches(seed, 2),
        "embed": list(itertools.islice(gen.embed_stream(seed), 40)),
        "generate": list(itertools.islice(gen.generate_stream(seed), 6)),
        "corpus": gen.corpus(seed, 20),
    }).encode("utf-8")


def test_generator_is_byte_identical_for_a_seed():
    assert _generated_bytes(5) == _generated_bytes(5)
    assert _generated_bytes(5) != _generated_bytes(6)


def test_lexicon_and_length_schedules():
    words = gen.lexicon()
    assert len(words) == len(set(words)) == gen.LEXICON_SIZE
    batch = gen.train_batches(0, 1)[0]
    assert sorted(len(text.split()) for text, _ in batch) == sorted(gen.TRAIN_LENGTHS)
    block = list(itertools.islice(gen.embed_stream(0), len(gen.EMBED_LENGTHS)))
    assert sorted(len(s.split()) for s in block) == gen.EMBED_LENGTHS
    outs = [n for _, n in itertools.islice(gen.generate_stream(0), 6)]
    assert outs == list(gen.GENERATE_OUT_LENGTHS) * 2


def test_latency_profile_takes_each_slot_median():
    import run
    lat = [1.0, 10.0, 2.0, 20.0, 9.0, 30.0]  # slot 0: 1, 2, 9; slot 1: 10, 20, 30
    assert run.latency_profile(lat, 2) == [2.0, 20.0]
    assert run.latency_profile(lat, 0) == lat


def _span(sid, name, parent, start, end):
    return TRC.Span(sid, name, parent, 0, start, end)


def test_self_time_on_a_hand_built_tree():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has a1 [15, 25].
    spans = [_span(0, "root", -1, 0, 100), _span(1, "a", 0, 10, 40),
             _span(2, "a1", 1, 15, 25), _span(3, "b", 0, 50, 90)]
    assert TRC.self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 40}
    table = TRC.summarize(spans)
    assert table["root"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert table["a"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert TRC.root_coverage(spans, "root") == 0.7


def test_nested_same_name_counts_once_and_overlap_is_not_double_counted():
    spans = [_span(0, "f", -1, 0, 50), _span(1, "f", 0, 5, 45),
             _span(2, "g", 1, 10, 30), _span(3, "h", 1, 20, 40)]
    assert TRC.self_times(spans)[1] == 40 - 30  # g and h cover [10, 40] once
    assert TRC.summarize(spans)["f"]["total_ns"] == 50


def test_tracer_wraps_every_binding_and_uninstalls():
    from hitkit import attention, encoders, model, tensor
    originals = (attention.fame_forward, encoders.fame_forward, model.fame_forward,
                 encoders.layer_norm, tensor.matmul)
    assert encoders.fame_forward is attention.fame_forward
    tr = TRC.Tracer()
    tr.install()
    try:
        assert encoders.fame_forward is not originals[1]
        assert model.fame_forward is not originals[2]
        layer = attention.FameLayer(attention.FameConfig(d_model=8, n_heads=2),
                                    np.random.default_rng(0))
        x = tensor.Tensor(np.random.default_rng(1).normal(size=(3, 8)))
        with tr.span("request"):
            encoders.fame_forward(layer, x)
    finally:
        tr.uninstall()
    assert (attention.fame_forward, encoders.fame_forward, model.fame_forward,
            encoders.layer_norm, tensor.matmul) == originals
    assert TRC.installed_wrappers() == []
    spans = tr.finished_spans()
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"request", "attention.fame", "attention.msa_forward",
                            "attention.opa_forward", "attention.fame_fuse"}
    assert by_name["attention.opa_forward"].parent == by_name["attention.fame"].id
    assert tr.counts["attention.fame.calls"] == 1
    assert tr.counts[TRC.OP_COUNTER] > 10
