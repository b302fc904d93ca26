import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit import data as D
from hitkit.attention import OPA_COMBINES, OPA_SCORES
from hitkit.train import (
    TrainConfig,
    TrainingDiverged,
    build_classifier,
    infer,
    seed_streams,
    train,
)

CORPUS = [["red", "cat"], ["blue", "dog"], ["red", "dog"], ["blue", "cat"]]


def tiny_cfg(**kw):
    base = dict(d_model=8, n_heads=2, l_c=1, l_w=1, dropout=0.0, epochs=10,
                batch_size=4, max_len=12, max_word_len=8, plateau_patience=2,
                early_stop_patience=5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def tiny_task(cfg, seed=0):
    vocab = D.build_vocab(CORPUS)
    model = build_classifier(cfg, vocab.word_size, vocab.char_size, 2,
                             seed_streams(cfg.seed)["init"])
    items = [D.encode_example(toks, vocab, target=i % 2, max_len=12, max_word_len=8)
             for i, toks in enumerate(CORPUS)]
    return model, items


def valid_configs():
    """Any TrainConfig that passes its own checks: every field drawn, none left at its default."""
    positive = st.integers(1, 10**6)
    real = st.floats(-1e6, 1e6, allow_nan=False)
    unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    unit = st.floats(0.0, 1.0, exclude_max=True)
    above_zero = st.floats(0.0, 1e6, exclude_min=True)

    @st.composite
    def build(draw):
        n_heads = draw(st.integers(1, 16))
        fields = dict(
            lr=draw(st.floats(1e-12, 10.0)), beta1=draw(unit), beta2=draw(unit),
            adam_eps=draw(above_zero), epochs=draw(positive), batch_size=draw(positive),
            dropout=draw(st.floats(0.0, 1.0, exclude_max=True)),
            plateau_patience=draw(positive), plateau_factor=draw(unit_open),
            early_stop_patience=draw(positive), d_model=n_heads * draw(st.integers(1, 64)),
            d_ff=draw(st.integers(0, 10**6)), l_c=draw(positive), l_w=draw(positive),
            l_dec=draw(positive), n_heads=n_heads, opa_score=draw(st.sampled_from(OPA_SCORES)),
            opa_combine=draw(st.sampled_from(OPA_COMBINES)), seed=draw(st.integers(0, 2**63)),
            use_tfidf=draw(st.booleans()), max_len=draw(positive), max_word_len=draw(positive),
            clip_norm=draw(real), layer_norm_eps=draw(above_zero),
            zsl_temperature=draw(st.floats(0.0, 1e6, exclude_min=True)),
            lowercase=draw(st.booleans()), min_freq=draw(st.integers(0, 10**6)))
        assert set(fields) == {f.name for f in dataclasses.fields(TrainConfig)}
        return TrainConfig(**fields)

    return build()


class TestConfig:
    @given(valid_configs())
    @settings(max_examples=100, deadline=None)
    def test_dict_roundtrip(self, cfg):
        """to_dict/from_dict, directly and through the JSON a checkpoint stores."""
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("values,expected", [
        ({"d_model": "16", "lr": "1e-5", "use_tfidf": "true"},
         {"d_model": 16, "lr": 1e-5, "use_tfidf": True}),
        ({"lr": 1, "lowercase": False}, {"lr": 1.0, "lowercase": False}),
        ({"d_model": 16.9}, "config key 'd_model' expects int, got 16.9"),
        ({"d_model": True}, "config key 'd_model' expects int, got True"),
        ({"d_model": "1.5"}, "config key 'd_model' expects int, got '1.5'"),
        ({"use_tfidf": 2}, "config key 'use_tfidf' expects bool, got 2"),
        ({"use_tfidf": "yes"}, "config key 'use_tfidf' expects bool, got 'yes'"),
        ({"lr": True}, "config key 'lr' expects float, got True"),
        ({"lr": "fast"}, "config key 'lr' expects float, got 'fast'"),
    ])
    def test_from_dict_field_types(self, values, expected):
        """A value has its field's type (an int passes for a float) or is a string of it."""
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                TrainConfig.from_dict(values)
            assert str(err.value) == expected
        else:
            cfg = TrainConfig.from_dict(values)
            assert {k: (getattr(cfg, k), type(getattr(cfg, k))) for k in expected} == \
                {k: (v, type(v)) for k, v in expected.items()}

    def test_defaults_match_schedule(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.beta1, cfg.beta2) == (0.001, 0.9, 0.999)
        assert (cfg.epochs, cfg.batch_size, cfg.dropout) == (500, 32, 0.2)
        assert (cfg.plateau_patience, cfg.plateau_factor) == (20, 0.7)
        assert cfg.early_stop_patience == 100
        assert (cfg.d_model, cfg.max_len, cfg.max_word_len) == (128, 40, 20)

    def test_file_roundtrip(self, tmp_path):
        cfg = TrainConfig(d_model=16, n_heads=4, use_tfidf=True, seed=9)
        path = tmp_path / "c.cfg"
        path.write_text(cfg.to_text(), encoding="utf-8")
        assert TrainConfig.from_file(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("nonsense=1\n")
        with pytest.raises(ValueError, match="nonsense"):
            TrainConfig.from_file(path)

    def test_key_given_twice_rejected(self, tmp_path):
        """The second value would otherwise win silently; the error names both lines."""
        path = tmp_path / "c.cfg"
        path.write_text("lr=0.01\n# comment\nepochs=3\n lr = 0.02\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: key 'lr' given twice "
                                                       "(first on line 1)")):
            TrainConfig.from_file(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="plateau_factor"):
            TrainConfig(plateau_factor=1.5)
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field,value,needle", [
        ("beta1", 1.0, "beta1 must be in [0, 1), got 1.0"),
        ("beta1", 1.5, "beta1 must be in [0, 1), got 1.5"),
        ("beta1", -0.1, "beta1 must be in [0, 1), got -0.1"),
        ("beta2", 1.0, "beta2 must be in [0, 1), got 1.0"),
        ("adam_eps", 0.0, "adam_eps must be positive, got 0.0"),
        ("adam_eps", -1e-8, "adam_eps must be positive, got -1e-08"),
        ("layer_norm_eps", 0, "layer_norm_eps must be positive, got 0.0"),
        ("layer_norm_eps", "-1e-5", "layer_norm_eps must be positive, got -1e-05"),
    ])
    def test_adam_and_layer_norm_settings_out_of_range(self, field, value, needle):
        """Each value would corrupt training: nan from 0/0 or from beta1 = 1, or a silent
        divergence; the error names the field."""
        with pytest.raises(ValueError, match=re.escape(needle)):
            TrainConfig.from_dict({field: value})

    def test_fingerprint_tracks_content(self):
        assert TrainConfig().fingerprint() == TrainConfig().fingerprint()
        assert TrainConfig().fingerprint() != TrainConfig(seed=1).fingerprint()


class TestSchedule:
    def test_plateau_decay_and_early_stop(self):
        cfg = tiny_cfg(plateau_patience=2, early_stop_patience=5, epochs=50, lr=0.001)
        model, items = tiny_task(cfg)
        result = train(model, items, None, cfg, val_loss_fn=lambda m, e: 1.0)
        assert result.best_epoch == 1
        assert len(result.history) == 6  # stops exactly patience epochs after best
        assert result.stopped_early
        lrs = [s.lr for s in result.history]
        assert lrs[:3] == [0.001, 0.001, 0.001]
        assert lrs[3] == pytest.approx(0.001 * 0.7)
        assert lrs[4] == pytest.approx(0.001 * 0.7)
        assert lrs[5] == pytest.approx(0.001 * 0.7 ** 2)

    def test_lr_never_increases(self):
        cfg = tiny_cfg(epochs=12, plateau_patience=2, early_stop_patience=11)
        model, items = tiny_task(cfg)
        wobble = iter([5.0, 4.0, 4.0, 4.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0])
        result = train(model, items, None, cfg, val_loss_fn=lambda m, e: next(wobble))
        lrs = [s.lr for s in result.history]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_improving_val_never_stops_early(self):
        cfg = tiny_cfg(epochs=8)
        model, items = tiny_task(cfg)
        result = train(model, items, None, cfg, val_loss_fn=lambda m, e: 10.0 - e)
        assert len(result.history) == 8
        assert result.best_epoch == 8
        assert not result.stopped_early

    def test_best_val_equals_min_history(self):
        cfg = tiny_cfg(epochs=6, early_stop_patience=6)
        model, items = tiny_task(cfg)
        values = {1: 3.0, 2: 2.5, 3: 2.7, 4: 2.2, 5: 2.9, 6: 2.4}
        result = train(model, items, None, cfg, val_loss_fn=lambda m, e: values[e])
        assert result.best_val_loss == min(s.val_loss for s in result.history)
        assert result.best_epoch == 4

    def test_nan_val_loss_reports_epoch(self):
        cfg = tiny_cfg(epochs=5)
        model, items = tiny_task(cfg)
        with pytest.raises(TrainingDiverged, match="epoch 2"):
            train(model, items, None, cfg,
                  val_loss_fn=lambda m, e: math.nan if e == 2 else 1.0)

    def test_empty_datasets_rejected(self):
        cfg = tiny_cfg()
        model, items = tiny_task(cfg)
        with pytest.raises(ValueError, match="empty training"):
            train(model, [], items, cfg)
        with pytest.raises(ValueError, match="empty validation"):
            train(model, items, [], cfg)

    def test_epoch_hook_stops(self):
        cfg = tiny_cfg(epochs=20)
        model, items = tiny_task(cfg)
        result = train(model, items, items, cfg,
                       epoch_hook=lambda m, e, s: e == 3)
        assert len(result.history) == 3
        assert result.hook_stopped

    def test_hook_stops_before_early_stopping_on_the_same_epoch(self):
        """Early stopping would end the run after epoch 6 too; the hook is asked first."""
        cfg = tiny_cfg(epochs=20, plateau_patience=2, early_stop_patience=5)
        model, items = tiny_task(cfg)
        result = train(model, items, None, cfg, val_loss_fn=lambda m, e: 1.0,
                       epoch_hook=lambda m, e, s: e == 6)
        assert len(result.history) == 6
        assert result.hook_stopped
        assert not result.stopped_early
        assert result.history_dict()["stopped_early"] is False


class TestDeterminism:
    def run_once(self, seed=0):
        cfg = tiny_cfg(epochs=3, dropout=0.2, seed=seed)
        model, items = tiny_task(cfg, seed)
        result = train(model, items, items, cfg)
        return result, model

    def test_same_seed_identical_history_and_params(self):
        r1, m1 = self.run_once()
        r2, m2 = self.run_once()
        assert [s.to_dict() for s in r1.history] == [s.to_dict() for s in r2.history]
        for name, arr in m1.parameter_arrays().items():
            assert np.array_equal(arr, m2.parameter_arrays()[name])

    def test_different_seed_differs(self):
        r1, _ = self.run_once(0)
        r2, _ = self.run_once(1)
        assert [s.train_loss for s in r1.history] != [s.train_loss for s in r2.history]


class TestInfer:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100), st.integers(1, 40))
    def test_chunks_keep_order_cover_every_item_once_and_hold_at_most_batch_size(self, n,
                                                                              batch_size):
        sizes = []

        def step(chunk):
            sizes.append(len(chunk))
            return [x * 10 for x in chunk]

        assert infer(step, list(range(n)), batch_size) == [x * 10 for x in range(n)]
        assert all(1 <= size <= batch_size for size in sizes)
        assert len(sizes) == -(-n // batch_size)
