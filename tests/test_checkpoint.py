import numpy as np
import pytest

from hitkit.checkpoint import load_checkpoint, save_checkpoint


def sample_params():
    rng = np.random.default_rng(3)
    return {
        "word_hit.word_emb": rng.standard_normal((7, 4)),
        "head.w": rng.standard_normal((4, 2)),
        "head.b": np.zeros(2),
    }


def test_roundtrip_preserves_names_shapes_and_f32_values(tmp_path):
    path = tmp_path / "ckpt"
    params = sample_params()
    save_checkpoint(path, params, {"task": "classification"}, {"note": "hello"})
    ckpt = load_checkpoint(path)
    assert ckpt.config == {"task": "classification"}
    assert ckpt.extras == {"note": "hello"}
    assert set(ckpt.params) == set(params)
    for name, arr in params.items():
        assert ckpt.params[name].shape == arr.shape
        assert np.array_equal(ckpt.params[name], arr.astype(np.float32).astype(np.float64))


def test_load_then_save_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    save_checkpoint(a, sample_params(), {"task": "mlm"})
    ckpt = load_checkpoint(a)
    save_checkpoint(b, ckpt.params, ckpt.config, ckpt.extras)
    assert a.read_bytes() == b.read_bytes()


def test_same_state_gives_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    save_checkpoint(a, sample_params(), {"task": "mlm"})
    save_checkpoint(b, sample_params(), {"task": "mlm"})
    assert a.read_bytes() == b.read_bytes()


def test_unknown_version_rejected(tmp_path):
    import json
    import zipfile

    path = tmp_path / "bad"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("meta.json", json.dumps({"format_version": 99, "config": {}, "params": []}))
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(path)


def writestr_archive(path, params, config):
    """The archive written whole, one `writestr(tobytes())` per member: the golden bytes."""
    import json
    import zipfile

    def member(name):
        info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        info.external_attr = 0o644 << 16
        return info

    names = sorted(params)
    meta = {"format_version": 1, "config": config,
            "params": [{"name": n, "shape": list(np.shape(params[n]))} for n in names]}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(member("meta.json"), json.dumps(meta, sort_keys=True, indent=1))
        for n in names:
            zf.writestr(member(f"params/{n}"), np.ascontiguousarray(params[n], dtype="<f4").tobytes())


def test_streamed_members_equal_whole_ones(tmp_path, monkeypatch):
    import hitkit.checkpoint as C

    monkeypatch.setattr(C, "_CHUNK", 5)
    rng = np.random.default_rng(4)
    params = {
        "empty": np.zeros((0, 3)),
        "one": np.array([[0.25]]),
        "strided": rng.standard_normal((6, 8))[::2, 1::3],  # neither C- nor F-contiguous
        "transposed": rng.standard_normal((4, 3)).T,
        "chunks": rng.standard_normal((7, 3)),  # 21 values: four full chunks and one of 1
        "exact": rng.standard_normal(10),  # two full chunks
        "f32": rng.standard_normal((2, 3)).astype(np.float32),
    }
    assert not params["strided"].flags.c_contiguous and not params["strided"].flags.f_contiguous
    a, b = tmp_path / "streamed", tmp_path / "whole"
    save_checkpoint(a, params, {"task": "mlm"})
    writestr_archive(b, params, {"task": "mlm"})
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.undo()
    save_checkpoint(a, params, {"task": "mlm"})
    assert a.read_bytes() == b.read_bytes()


def test_loaded_members_are_the_float32_arrays_of_their_bytes(tmp_path):
    path = tmp_path / "ckpt"
    save_checkpoint(path, sample_params(), {"task": "mlm"})
    for name, arr in load_checkpoint(path).params.items():
        assert arr.dtype == np.dtype("<f4"), name
        assert np.array_equal(arr, sample_params()[name].astype(np.float32)), name


def small_model(rng):
    from hitkit import data as D
    from hitkit.train import TrainConfig, build_classifier

    vocab = D.build_vocab([["hello", "good", "day", "tok1", "tok2"]])
    cfg = TrainConfig(d_model=32, n_heads=2, l_c=1, l_w=1, max_len=12, max_word_len=8)
    return build_classifier(cfg, vocab.word_size, vocab.char_size, 2, rng)


def test_a_restore_holds_the_archive_and_one_member_beyond_the_model(tmp_path):
    import tracemalloc

    from hitkit.train import seed_streams

    path = tmp_path / "ckpt"
    save_checkpoint(path, small_model(seed_streams(0)["init"]).parameter_arrays(), {"task": "mlm"})
    model = small_model(seed_streams(1)["init"])
    members = [4 * p.data.size for p in model.parameters()]
    tracemalloc.start()
    try:
        model.load_arrays(load_checkpoint(path).params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a float64 copy of every member (2x the archive) would not fit
    assert peak <= sum(members) + max(members), (peak, sum(members), max(members))


def test_saving_a_large_array_holds_about_one_chunk(tmp_path):
    import tracemalloc

    import hitkit.checkpoint as C

    values = np.random.default_rng(5).standard_normal((2048, 2048))  # 16 MB as float32
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "ckpt", {"w": values}, {"task": "mlm"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4 * C._CHUNK, peak
