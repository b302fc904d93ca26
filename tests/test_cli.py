import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit import data as D
from hitkit.checkpoint import load_checkpoint, save_checkpoint
from hitkit.cli import _encode_generation, _generation_pairs, main
from hitkit.model import Seq2SeqModel
from hitkit.train import TrainConfig

from hitkit import synth as toydata


def write_cfg(tmp_path, **kw):
    base = dict(d_model=8, n_heads=2, l_c=1, l_w=1, l_dec=1, dropout=0.0, epochs=3,
                batch_size=8, max_len=12, max_word_len=8, plateau_patience=3,
                early_stop_patience=3, seed=0)
    base.update(kw)
    path = tmp_path / "run.cfg"
    path.write_text(TrainConfig(**base).to_text(), encoding="utf-8")
    return str(path)


def small_checkpoint(path, deflated=False) -> bytes:
    """Write an untrained d_model 8 mlm checkpoint that `embed` reads, and return its bytes.

    With `deflated`, every member is ZIP_DEFLATED, as a zip tool that recompressed it
    would leave it.
    """
    import zipfile
    from hitkit.train import build_mlm, seed_streams
    cfg = TrainConfig(d_model=8, n_heads=2, l_c=1, l_w=1, max_len=12, max_word_len=8)
    vocab = D.build_vocab([["hello", "good", "day"]])
    model = build_mlm(cfg, vocab.word_size, vocab.char_size, seed_streams(0)["init"])
    save_checkpoint(path, model.parameter_arrays(), {"task": "mlm", "train_config": cfg.to_dict()},
                    {"vocab.tsv": vocab.to_text()})
    if deflated:
        with zipfile.ZipFile(path) as zf:
            members = [(info, zf.read(info)) for info in zf.infolist()]
        with zipfile.ZipFile(path, "w") as zf:
            for info, data in members:
                zf.writestr(info, data, compress_type=zipfile.ZIP_DEFLATED)
    return path.read_bytes()


def write_classification(tmp_path, name="train.jsonl", n=14):
    rows = [{"text": " ".join(w), "label": str(l)}
            for w, l in toydata.classification_records(n, seed=3)]
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in rows))
    return str(path)


def write_generation(tmp_path, name="pairs.jsonl", n=10):
    rows = [{"source": " ".join(seq), "target": " ".join(seq)}
            for seq in toydata.copy_sequences(n, vocab_size=8, max_len=4, seed=5)]
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in rows))
    return str(path)


@pytest.fixture
def trained_dir(tmp_path):
    cfg = write_cfg(tmp_path)
    data = write_classification(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--task", "classification", "--train-file", data,
                 "--config", cfg, "--out-dir", str(out)])
    assert code == 0
    return out


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        for name in ("checkpoint", "history.json", "metrics.json", "predictions.jsonl"):
            assert (trained_dir / name).exists()

    def test_history_is_valid_json(self, trained_dir):
        payload = json.loads((trained_dir / "history.json").read_text())
        assert payload["epochs"]
        assert payload["best_epoch"] >= 1

    def test_metrics_carry_fingerprint_and_timestamp(self, trained_dir):
        payload = json.loads((trained_dir / "metrics.json").read_text())
        assert "config_fingerprint" in payload
        assert "timestamp" in payload
        assert payload["task"] == "classification"

    def test_train_predictions_match_evaluate_on_the_checkpoint(self, tmp_path):
        # the checkpoint stores float32, so train must predict with the rounded values too
        data = write_classification(tmp_path)
        val = write_classification(tmp_path, name="val.jsonl", n=9)
        out, eval_out = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--task", "classification", "--train-file", data,
                     "--val-file", val, "--config", write_cfg(tmp_path),
                     "--out-dir", str(out)]) == 0
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint"),
                     "--test-file", val, "--out-dir", str(eval_out)]) == 0
        assert ((out / "predictions.jsonl").read_bytes()
                == (eval_out / "predictions.jsonl").read_bytes())

    def test_train_reports_from_the_saved_values_without_reading_them_back(self, tmp_path,
                                                                           monkeypatch):
        import hitkit.cli as cli
        models, reads = [], []
        real_train = cli.train
        monkeypatch.setattr(cli, "train", lambda model, *a: models.append(model) or real_train(model, *a))
        monkeypatch.setattr(cli, "load_checkpoint", lambda *a: reads.append(a) or load_checkpoint(*a))
        out = tmp_path / "run"
        assert main(["train", "--task", "classification", "--train-file",
                     write_classification(tmp_path), "--config", write_cfg(tmp_path),
                     "--out-dir", str(out)]) == 0
        assert reads == []
        saved = load_checkpoint(out / "checkpoint").params
        params = models[0].named_parameters()
        assert sorted(saved) == sorted(params)
        for name, p in params.items():
            assert np.array_equal(p.data, saved[name].astype(np.float64)), name

    def test_missing_config_names_path(self, tmp_path, capsys):
        data = write_classification(tmp_path)
        code = main(["train", "--task", "classification", "--train-file", data,
                     "--config", "/nope/missing.cfg", "--out-dir", str(tmp_path / "o")])
        assert code != 0
        assert "/nope/missing.cfg" in capsys.readouterr().err

    def test_tfidf_fusion_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, use_tfidf=True)
        data = write_classification(tmp_path, n=12)
        out = tmp_path / "tfidf_run"
        assert main(["train", "--task", "classification", "--train-file", data,
                     "--config", cfg, "--out-dir", str(out)]) == 0
        from hitkit.checkpoint import load_checkpoint
        ckpt = load_checkpoint(out / "checkpoint")
        assert "tfidf_vocab.txt" in ckpt.extras
        # the head width must include the fitted feature block
        head_shape = ckpt.params["head.w"].shape
        assert head_shape[0] > 8
        eval_out = tmp_path / "tfidf_eval"
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint"),
                     "--test-file", data, "--out-dir", str(eval_out)]) == 0

    def test_tfidf_empty_vocabulary_fails_loudly(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, use_tfidf=True)
        rows = [{"text": f"unique{i} only{i}", "label": str(i % 2)} for i in range(10)]
        data = tmp_path / "sparse.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in rows))
        code = main(["train", "--task", "classification", "--train-file", str(data),
                     "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code != 0
        assert "document-frequency" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, seed=0)
        data = write_classification(tmp_path)
        out = tmp_path / "env_run"
        monkeypatch.setenv("HITKIT_SEED", "123")
        assert main(["train", "--task", "classification", "--train-file", data,
                     "--config", cfg, "--out-dir", str(out)]) == 0
        from hitkit.checkpoint import load_checkpoint
        ckpt = load_checkpoint(out / "checkpoint")
        assert ckpt.config["train_config"]["seed"] == 123

    def test_labeling_task_train_and_evaluate(self, tmp_path):
        rows = [{"tokens": t, "tags": [toydata.TAG_NAMES[i] for i in g]}
                for t, g in toydata.labeling_records(12, seed=4)]
        data = tmp_path / "tags.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in rows))
        out = tmp_path / "tag_run"
        code = main(["train", "--task", "labeling", "--train-file", str(data),
                     "--config", write_cfg(tmp_path), "--out-dir", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["task"] == "labeling"
        assert "confusion" in metrics
        eval_out = tmp_path / "tag_eval"
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint"),
                     "--test-file", str(data), "--out-dir", str(eval_out)]) == 0
        preds = [json.loads(l) for l in
                 (eval_out / "predictions.jsonl").read_text().splitlines()]
        assert len(preds) == len(rows)
        assert all(len(p["tags"]) == len(p["probs"]) for p in preds)

    def test_dialog_labeling_keeps_case_when_lowercase_is_off(self, tmp_path):
        dialogs = [{"turns": [{"speaker": "user", "text": "Book a table in Paris for Ana"},
                              {"speaker": "bot", "text": "Which day?"}],
                    "slots": {"city": "Paris", "name": "Ana"}}] * 2
        data = tmp_path / "dialog.jsonl"
        data.write_text("".join(json.dumps(d) + "\n" for d in dialogs))
        out = tmp_path / "tag_run"
        assert main(["train", "--task", "labeling", "--dialog", "--train-file", str(data),
                     "--val-file", str(data), "--config", write_cfg(tmp_path, lowercase=False),
                     "--out-dir", str(out)]) == 0
        from hitkit.checkpoint import load_checkpoint
        ckpt = load_checkpoint(out / "checkpoint")
        words = D.Vocab.from_text(ckpt.extras["vocab.tsv"]).word_to_id
        assert {"Book", "Paris", "Ana"} <= set(words) and not {"book", "paris", "ana"} & set(words)
        assert json.loads(ckpt.extras["labels.json"]) == ["B-city", "B-name", "O"]


class TestUnseenLabels:
    @staticmethod
    def assert_one_line_error(capsys, *needles):
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err

    def test_unseen_class_in_val_file(self, tmp_path, capsys):
        data = write_classification(tmp_path)
        val = tmp_path / "val.jsonl"
        val.write_text(json.dumps({"text": "a b", "label": "0"}) + "\n"
                       + json.dumps({"text": "c d", "label": "never-seen"}) + "\n")
        code = main(["train", "--task", "classification", "--train-file", data,
                     "--val-file", str(val), "--config", write_cfg(tmp_path),
                     "--out-dir", str(tmp_path / "o")])
        assert code != 0
        self.assert_one_line_error(capsys, str(val), "record 2", "never-seen")

    def test_unseen_class_in_evaluate_file(self, tmp_path, trained_dir, capsys):
        test = tmp_path / "test.jsonl"
        test.write_text(json.dumps({"text": "a b", "label": "never-seen"}) + "\n")
        code = main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--test-file", str(test), "--out-dir", str(tmp_path / "e")])
        assert code != 0
        self.assert_one_line_error(capsys, str(test), "record 1", "never-seen")

    def test_unseen_tag_in_val_file(self, tmp_path, capsys):
        rows = [{"tokens": t, "tags": [toydata.TAG_NAMES[i] for i in g]}
                for t, g in toydata.labeling_records(12, seed=4)]
        data = tmp_path / "tags.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in rows))
        val = tmp_path / "val.jsonl"
        val.write_text(json.dumps({"tokens": ["a", "b"], "tags": ["O", "B-NEVER"]}) + "\n")
        code = main(["train", "--task", "labeling", "--train-file", str(data),
                     "--val-file", str(val), "--config", write_cfg(tmp_path),
                     "--out-dir", str(tmp_path / "o")])
        assert code != 0
        self.assert_one_line_error(capsys, str(val), "record 1", "B-NEVER")


class TestBadInvocations:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) != 0

    def test_unknown_flag(self, capsys):
        assert main(["train", "--task", "classification", "--train-file", "x",
                     "--frob"]) != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments(self):
        assert main([]) != 0

    def test_missing_checkpoint(self, tmp_path, capsys):
        code = main(["embed", "--checkpoint", str(tmp_path / "nope"), "--input",
                     str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)])
        assert code != 0
        assert "checkpoint" in capsys.readouterr().err


class TestMalformedInputs:
    """Each input gives exit status 1 and one `hitkit: error:` line, never a traceback."""

    @staticmethod
    def run_embed(tmp_path, capsys, checkpoint):
        texts = tmp_path / "texts.txt"
        texts.write_text("hello good day\n")
        code = main(["embed", "--checkpoint", str(checkpoint), "--input", str(texts),
                     "--out-dir", str(tmp_path / "emb")])
        return code, capsys.readouterr().err

    @staticmethod
    def assert_one_error_line(code, err, *needles):
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("hitkit: error: "), err
        for needle in needles:
            assert needle in lines[0]

    def test_checkpoint_that_is_not_a_zip(self, tmp_path, capsys):
        bad = tmp_path / "ckpt"
        bad.write_text("not a zip archive\n")
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad))

    def test_zip_without_meta(self, tmp_path, capsys):
        import zipfile
        bad = tmp_path / "ckpt"
        with zipfile.ZipFile(bad, "w") as zf:
            zf.writestr("params/x", b"")
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad), "meta.json")

    def test_checkpoint_without_train_config(self, tmp_path, capsys):
        import numpy as np
        from hitkit.checkpoint import save_checkpoint
        bad = tmp_path / "ckpt"
        save_checkpoint(bad, {"head.w": np.zeros((2, 2))}, {"task": "mlm"})
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad),
                                   "train_config", "vocab.tsv")

    def test_classification_checkpoint_without_labels(self, tmp_path, trained_dir, capsys):
        import zipfile
        bad = tmp_path / "ckpt"
        with zipfile.ZipFile(trained_dir / "checkpoint") as src, zipfile.ZipFile(bad, "w") as dst:
            for info in src.infolist():
                if info.filename != "extras/labels.json":
                    dst.writestr(info, src.read(info))
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad), "labels.json")

    @pytest.mark.parametrize("meta", [[1], {"format_version": 1, "config": {}, "params": 5},
                                      {"format_version": 1, "config": {},
                                       "params": [{"name": "head.w", "shape": ["2"]}]},
                                      {"format_version": 1, "config": "task train_config",
                                       "params": []}],
                             ids=["list", "params-int", "shape-str", "config-str"])
    def test_meta_that_is_malformed(self, tmp_path, capsys, meta):
        import json
        import zipfile
        bad = tmp_path / "ckpt"
        with zipfile.ZipFile(bad, "w") as zf:
            zf.writestr("meta.json", json.dumps(meta))
            zf.writestr("params/head.w", bytes(8))
            zf.writestr("extras/vocab.tsv", "")
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad),
                                   "malformed checkpoint", "meta.json")

    def test_vocabulary_line_that_is_malformed(self, tmp_path, capsys):
        bad = tmp_path / "ckpt"
        small_checkpoint(bad)
        ck = load_checkpoint(bad)
        save_checkpoint(bad, ck.params, ck.config,
                        {"vocab.tsv": ck.extras["vocab.tsv"] + "word\tcat\t99\n"})
        lines = ck.extras["vocab.tsv"].count("\n") + 1
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad),
                                   f"vocab.tsv line {lines}: expected")

    # (line number, its replacement, the error's needle) in a fitted tfidf_vocab.txt whose
    # line 2 is the header and lines 4-9 are the word grams "day", "good", ... with indices 0-5
    @pytest.mark.parametrize("at,line,needle", [
        (4, 'word\t1\t"day"\t2\t99', "word indices are not 0 to 5, each once"),
        (2, "# n_docs=2 max_df=6", "line 2: expected integer n_docs, min_df and max_df"),
        (4, "word\t1\t5\t2\t0", "line 4: expected word or char"),
        (5, 'word\t1\t"good"\t2\t-1', "word indices are not 0 to 5, each once"),
        (5, 'word\t1\t"good"\t2\t0', "word indices are not 0 to 5, each once"),
        (5, 'word\t1\t"day"\t2\t1', "line 5: expected word or char"),
    ], ids=["index-past-end", "header-without-min_df", "gram-not-a-string", "negative-index",
            "repeated-index", "repeated-gram"])
    def test_tfidf_vocabulary_that_is_malformed(self, tmp_path, capsys, at, line, needle):
        from hitkit.features import tfidf_fit, tfidf_to_text
        bad = tmp_path / "ckpt"
        small_checkpoint(bad)
        ck = load_checkpoint(bad)
        lines = tfidf_to_text(tfidf_fit([["hello", "good", "day"], ["good", "day"]],
                                        min_df=1)).splitlines()
        lines[at - 1] = line
        save_checkpoint(bad, ck.params, ck.config,
                        {**ck.extras, "tfidf_vocab.txt": "\n".join(lines) + "\n"})
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad),
                                   "tfidf_vocab.txt", needle)

    # one byte of the archive, given its central directory's offset, and the bits set in it:
    # each made the zip reads raise other than BadZipFile, and escape `main` or lose the path
    @pytest.mark.parametrize("deflated,at,bits", [
        (True, lambda cd: 39, 0x06),  # meta.json's first deflated byte: block type 11, zlib.error
        (False, lambda cd: 29, 0xFF),  # the local header's extra length: data past the end, EOFError
        (False, lambda cd: cd + 10, 0xFF),  # an unknown compression method, NotImplementedError
        (False, lambda cd: cd + 8, 0x01),  # the encrypted flag, RuntimeError
        (False, lambda cd: -5, 0xFF),  # a directory offset before the file start, OSError
    ], ids=["deflate-block-type", "extra-length", "compression-method", "encrypted", "offset"])
    def test_damaged_zip_structure(self, tmp_path, capsys, deflated, at, bits):
        bad = tmp_path / "ckpt"
        data = bytearray(small_checkpoint(bad, deflated))
        data[at(int.from_bytes(data[-6:-2], "little"))] |= bits
        bad.write_bytes(bytes(data))
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad),
                                   f"malformed checkpoint {bad}")

    @pytest.mark.parametrize("labels", ["5", '["O", 1]', '{"O": 0}'])
    def test_labels_that_are_not_a_list_of_strings(self, tmp_path, trained_dir, capsys, labels):
        import zipfile
        bad = tmp_path / "ckpt"
        with zipfile.ZipFile(trained_dir / "checkpoint") as src, zipfile.ZipFile(bad, "w") as dst:
            for info in src.infolist():
                dst.writestr(info, labels if info.filename == "extras/labels.json"
                             else src.read(info))
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad), "labels.json")

    @staticmethod
    def resaved_checkpoint(tmp_path, trained_dir, edit):
        """The trained checkpoint saved again after `edit(params, config)` changed it."""
        from hitkit.checkpoint import load_checkpoint, save_checkpoint
        ck = load_checkpoint(trained_dir / "checkpoint")
        edit(ck.params, ck.config)
        bad = tmp_path / "ckpt"
        save_checkpoint(bad, ck.params, ck.config, ck.extras)
        return bad

    @pytest.mark.parametrize("edit,needle", [
        (lambda params, config: params.pop("head.w"), "no head.w"),
        (lambda params, config: params.update({"extra.w": params["head.w"]}), "unexpected extra.w"),
        (lambda params, config: params.update({"head.w": params["head.w"][:, :1]}), "head.w has shape"),
    ], ids=["missing", "extra", "misshaped"])
    def test_checkpoint_parameters_that_do_not_fit_the_model(self, tmp_path, trained_dir, capsys,
                                                             edit, needle):
        bad = self.resaved_checkpoint(tmp_path, trained_dir, edit)
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad), needle)

    @pytest.mark.parametrize("edit,needle", [
        (lambda config: config.update({"train_config": [1]}), "train config must be an object"),
        (lambda config: config["train_config"].update({"d_model": None}), "config key 'd_model'"),
        (lambda config: config["train_config"].update({"beta1": 1.0}),
         "beta1 must be in [0, 1), got 1.0"),
        (lambda config: config["train_config"].update({"adam_eps": 0.0}),
         "adam_eps must be positive, got 0.0"),
    ], ids=["list", "null-field", "beta1-one", "zero-adam-eps"])
    def test_train_config_that_is_malformed(self, tmp_path, trained_dir, capsys, edit, needle):
        bad = self.resaved_checkpoint(tmp_path, trained_dir, lambda params, config: edit(config))
        self.assert_one_error_line(*self.run_embed(tmp_path, capsys, bad), str(bad),
                                   "malformed train_config", needle)

    @pytest.mark.parametrize("task,record,needle", [
        ("labeling", {"tokens": [1, 2], "tags": ["O", "O"]}, "tokens must be strings, got 1"),
        ("labeling", {"tokens": ["a", "b"], "tags": ["O", None]}, "tags must be strings, got null"),
        ("labeling", {"tokens": ["a", "b"], "tags": ["O", ["O"]]},
         'tags must be strings, got ["O"]'),
        ("classification", {"text": "a b", "label": ["x"]}, 'got ["x"]'),
        ("classification", {"text": "a b", "label": {"x": 1}}, 'got {"x": 1}'),
        ("dialog", {"turns": [{"speaker": "user", "text": "a b"}], "slots": ["a"]}, "slots"),
        ("labeling", {"tokens": ["a", ""], "tags": ["O", "O"]}, "token 2 is an empty string"),
        # a tab or line break would break vocab.tsv, and a lone surrogate any UTF-8 output,
        # after a whole training run
        ("labeling", {"tokens": ["a", "b\tc"], "tags": ["O", "O"]},
         'token 2 holds whitespace: "b\\tc"'),
        ("labeling", {"tokens": ["a\u2028"], "tags": ["O"]}, 'token 1 holds whitespace'),
        ("classification", {"text": "a \ud800", "label": "x"}, "surrogates not allowed"),
        ("classification", '{"text": "a b", "label": ' + "[" * 100000 + "]" * 100000 + "}",
         "maximum recursion depth"),
    ], ids=["int-token", "null-tag", "list-tag", "list-label", "object-label", "list-slots",
            "empty-token", "tab-in-token", "line-break-token", "lone-surrogate", "deep-nesting"])
    def test_record_element_of_the_wrong_type(self, tmp_path, capsys, task, record, needle):
        if task == "classification":
            good = [{"text": "a b", "label": "x"}]
        elif task == "labeling":
            good = [{"tokens": ["a", "b"], "tags": ["O", "B-x"]}]
        else:
            good = [{"turns": [{"speaker": "user", "text": "a b"}], "slots": {"x": "a"}}]
        train_file, val_file = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        train_file.write_text(json.dumps(good[0]) + "\n")
        line = record if isinstance(record, str) else json.dumps(record)  # a str is the raw line
        val_file.write_text(json.dumps(good[0]) + "\n" + line + "\n")
        flags = ["--task", "labeling", "--dialog"] if task == "dialog" else ["--task", task]
        code = main(["train", *flags, "--train-file", str(train_file), "--val-file", str(val_file),
                     "--config", write_cfg(tmp_path, epochs=1), "--out-dir", str(tmp_path / "o")])
        self.assert_one_error_line(code, capsys.readouterr().err, f"{val_file}:2: ", needle)

    @pytest.mark.parametrize("command", ["pretrain-mlm", "pretrain-zsl"])
    def test_evaluate_on_a_pretraining_checkpoint(self, tmp_path, capsys, command):
        data = write_classification(tmp_path)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(json.loads(l)["text"] for l in open(data, encoding="utf-8")))
        source = ["--corpus", str(corpus)] if command == "pretrain-mlm" else ["--train-file", data]
        assert main([command, *source, "--config", write_cfg(tmp_path, epochs=1),
                     "--out-dir", str(tmp_path / "pre")]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(tmp_path / "pre" / "checkpoint"),
                     "--test-file", data, "--out-dir", str(tmp_path / "e")])
        task = command.split("-")[1]
        self.assert_one_error_line(code, capsys.readouterr().err,
                                   f"cannot evaluate a {task!r} checkpoint; use embed instead")

    @pytest.mark.parametrize("lines", [[], [{"text": "!!! @someone", "label": "0"}]],
                             ids=["empty-file", "empty-after-preprocessing"])
    def test_evaluate_on_a_file_with_no_usable_record(self, tmp_path, trained_dir, capsys, lines):
        test = tmp_path / "test.jsonl"
        test.write_text("".join(json.dumps(r) + "\n" for r in lines))
        code = main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--test-file", str(test), "--out-dir", str(tmp_path / "e")])
        self.assert_one_error_line(code, capsys.readouterr().err, str(test), "no usable record")
        assert not (tmp_path / "e" / "metrics.json").exists()

    def test_analyze_with_k_zero(self, tmp_path, trained_dir, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("hello good day\nthanks time\n")
        code = main(["analyze-embeddings", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--input", str(texts), "--k", "0", "--out-dir", str(tmp_path / "a")])
        self.assert_one_error_line(code, capsys.readouterr().err, "k must be at least 1")

    @pytest.mark.parametrize("label", ["", " \t"], ids=["empty", "whitespace"])
    def test_pretrain_zsl_with_an_empty_label(self, tmp_path, capsys, label):
        data = tmp_path / "zsl.jsonl"
        data.write_text("".join(json.dumps({"text": text, "label": name}) + "\n"
                                for text, name in [("good day", label), ("bad day", "x")] * 2))
        code = main(["pretrain-zsl", "--train-file", str(data), "--config",
                     write_cfg(tmp_path, epochs=1), "--out-dir", str(tmp_path / "z")])
        self.assert_one_error_line(code, capsys.readouterr().err, str(data), f"label {label!r}")

    def test_pretrain_zsl_with_labels_that_preprocess_alike(self, tmp_path, capsys):
        data = tmp_path / "zsl.jsonl"
        data.write_text("".join(json.dumps({"text": text, "label": label}) + "\n"
                                for text, label in [("good game", "Sports"), ("rain today", "weather"),
                                                    ("great match", "sports")] * 2))
        code = main(["pretrain-zsl", "--train-file", str(data), "--config",
                     write_cfg(tmp_path, epochs=1), "--out-dir", str(tmp_path / "z")])
        self.assert_one_error_line(code, capsys.readouterr().err, str(data), "'Sports'", "'sports'")
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_pretrain_zsl_with_fewer_than_one_negative(self, tmp_path, capsys, n):
        data = write_classification(tmp_path)
        code = main(["pretrain-zsl", "--train-file", data, "--neg-per-pos", n,
                     "--out-dir", str(tmp_path / "z")])
        self.assert_one_error_line(code, capsys.readouterr().err, "--neg-per-pos", n)
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("extras,needle", [
        (None, "checkpoint not found"),
        ({}, "has no vocab.tsv"),
        ({"vocab.tsv": "word\t[PAD]\n"}, "vocab.tsv line 1: expected word or char"),
        ({"vocab.tsv": "word\t[PAD]\tzero\t0\n"}, "vocab.tsv line 1: expected word or char"),
    ], ids=["missing", "no-vocab", "two-fields", "non-integer-id"])
    def test_init_from_a_checkpoint_without_a_vocabulary(self, tmp_path, capsys, extras, needle):
        import numpy as np
        bad = tmp_path / "ckpt"
        if extras is not None:
            save_checkpoint(bad, {"word_hit.word_emb": np.zeros((2, 8))}, {"task": "mlm"}, extras)
        code = main(["train", "--task", "classification", "--train-file",
                     write_classification(tmp_path), "--init-from", str(bad),
                     "--out-dir", str(tmp_path / "o")])
        self.assert_one_error_line(code, capsys.readouterr().err, str(bad), needle)

    @pytest.mark.parametrize("command,line,needle", [
        ("pretrain-zsl", "zsl_temperature=0", "zsl_temperature must be positive, got 0.0"),
        ("train", "lr=nan", "lr must be finite, got nan"),
        ("train", "clip_norm=inf", "clip_norm must be finite, got inf"),
        ("train", "beta1=1.5", "beta1 must be in [0, 1), got 1.5"),
        ("train", "beta2=1", "beta2 must be in [0, 1), got 1.0"),
        ("train", "adam_eps=0", "adam_eps must be positive, got 0.0"),
        ("train", "layer_norm_eps=-1e-5", "layer_norm_eps must be positive, got -1e-05"),
    ], ids=["zero-temperature", "nan-lr", "inf-clip-norm", "beta1-above-one", "beta2-one",
            "zero-adam-eps", "negative-layer-norm-eps"])
    def test_config_value_out_of_range(self, tmp_path, capsys, command, line, needle):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"d_model=8\nn_heads=2\nepochs=1\n{line}\n")
        flags = ["--task", "classification"] if command == "train" else []
        code = main([command, *flags, "--train-file", write_classification(tmp_path),
                     "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        self.assert_one_error_line(code, capsys.readouterr().err, needle)
        assert not (tmp_path / "o").exists()

    def test_config_key_given_twice(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("d_model=8\nn_heads=2\nlr=0.01\nepochs=1\nlr=0.02\n")
        code = main(["train", "--task", "classification", "--train-file",
                     write_classification(tmp_path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")])
        self.assert_one_error_line(code, capsys.readouterr().err,
                                   f"{cfg}:5: key 'lr' given twice (first on line 3)")
        assert not (tmp_path / "o").exists()

    def test_non_integer_seed_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HITKIT_SEED", "abc")
        code = main(["train", "--task", "classification", "--train-file",
                     write_classification(tmp_path), "--out-dir", str(tmp_path / "o")])
        self.assert_one_error_line(code, capsys.readouterr().err, "HITKIT_SEED", "'abc'")


@pytest.fixture(scope="module")
def small_archives(tmp_path_factory):
    """The bytes of `small_checkpoint`, stored and deflated."""
    d = tmp_path_factory.mktemp("archives")
    return {deflated: small_checkpoint(d / f"ckpt-{deflated}", deflated)
            for deflated in (False, True)}


@given(deflated=st.booleans(), truncate=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_damaged_checkpoint_loads_or_names_itself(tmp_path_factory, small_archives, deflated,
                                                    truncate, data):
    raw = small_archives[deflated]
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if truncate:
        damaged = raw[:at]
    else:
        damaged = bytearray(raw)
        damaged[at] ^= data.draw(st.integers(1, 255), label="bits")
    d = tmp_path_factory.mktemp("damaged")
    bad, texts = d / "ckpt", d / "texts.txt"
    bad.write_bytes(bytes(damaged))
    texts.write_text("hello good day\n")
    try:
        load_checkpoint(bad)
    except ValueError as exc:
        assert f"malformed checkpoint {bad}" in str(exc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["embed", "--checkpoint", str(bad), "--input", str(texts),
                     "--out-dir", str(d / "emb")])
    assert code in (0, 1) and len(err.getvalue().splitlines()) <= 1, err.getvalue()


# data records: JSON of any shape, and records shaped as each kind's
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text("ab !@[]\n", max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3)),
    max_leaves=5)
LABELS = st.sampled_from(["x", "y", "", 1, True, 1.5, float("nan")])


def shaped_records(words):
    """A strategy per record kind, whose strings are made of `words`."""
    texts = st.lists(words, max_size=4).map(" ".join)
    turn = lambda speaker: st.fixed_dictionaries({"speaker": speaker, "text": texts})
    return {
        "classification": st.fixed_dictionaries({"text": texts, "label": LABELS}),
        "labeling": st.lists(st.tuples(words, st.sampled_from(["O", "B-x"])), min_size=1,
                             max_size=4).map(lambda pairs: {"tokens": [w for w, _ in pairs],
                                                            "tags": [t for _, t in pairs]}),
        "generation": st.fixed_dictionaries({"source": texts, "target": texts}),
        "dialog": st.fixed_dictionaries(
            {"turns": st.tuples(turn(st.just("user")),
                                st.lists(turn(st.sampled_from(["user", "bot"])), max_size=2)
                                ).map(lambda t: [t[0], *t[1]]),
             "intent": LABELS},
            optional={"slots": st.dictionaries(st.sampled_from(["x", ""]), texts, max_size=2)}),
    }


SHAPED = shaped_records(st.sampled_from(["a", "b", "ab", "A", "\u00e9", "!!", "@x", "[CLS]",
                                         "[PAD]"]))
# strings that a labeling token, a vocab.tsv line or a UTF-8 file cannot hold
AWKWARD = shaped_records(st.sampled_from([" ", "a\tb", "a\u2028b", "a\ud800"]))


def run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@given(task=st.sampled_from(["classification", "labeling", "generation"]), dialog=st.booleans(),
       val_file=st.booleans(), odd=st.sampled_from(["none", "any", "one-field", "awkward"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_data_records_train_or_fail_in_one_line(tmp_path_factory, task, dialog, val_file, odd,
                                                    data):
    """Shaped records with, at most, one odd record among them: of any JSON shape, with one
    field of any JSON shape, or with awkward strings. `train` exits 0, or 1 with one stderr
    line, and no exception escapes `main`; a checkpoint it writes evaluates on the same file."""
    kind = "dialog" if dialog else task
    records = data.draw(st.lists(SHAPED[kind], min_size=5, max_size=10), label="records")
    if odd == "any":
        record = data.draw(JSON_VALUES, label="odd record")
    elif odd == "one-field":
        record = data.draw(SHAPED[kind], label="odd record")
        key = data.draw(st.sampled_from(sorted(record) + ["extra"]), label="its field")
        record = {**record, key: data.draw(JSON_VALUES, label="its value")}
    elif odd == "awkward":
        record = data.draw(AWKWARD[kind], label="odd record")
    if odd != "none":
        records.insert(data.draw(st.integers(0, len(records)), label="at"), record)
    d = tmp_path_factory.mktemp("records")
    path = d / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    flags = ["--config", write_cfg(d, epochs=1)] + (["--dialog"] if dialog else [])
    code, err = run_main(["train", "--task", task, "--train-file", str(path), *flags,
                          "--out-dir", str(d / "run")]
                         + (["--val-file", str(path)] if val_file else []))
    assert code in (0, 1) and len(err) <= 1, err
    assert code == 0 or err[0].startswith("hitkit: error: "), err
    if code == 0:
        code, err = run_main(["evaluate", "--checkpoint", str(d / "run" / "checkpoint"),
                              "--test-file", str(path), *flags, "--out-dir", str(d / "eval")])
        assert code == 0 and len(err) <= 1, err


class TestEvaluate:
    def test_metrics_deterministic_modulo_timestamp(self, tmp_path, trained_dir):
        data = write_classification(tmp_path, "test.jsonl", n=10)

        def run(tag):
            out = tmp_path / tag
            assert main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint"),
                         "--test-file", data, "--out-dir", str(out)]) == 0
            payload = json.loads((out / "metrics.json").read_text())
            payload.pop("timestamp")
            return payload

        assert run("e1") == run("e2")


class TestEmbed:
    def test_line_counts_and_empty_flag(self, tmp_path, trained_dir):
        src = tmp_path / "texts.txt"
        src.write_text("hello good day\n\nthanks time\n")
        out = tmp_path / "emb"
        assert main(["embed", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--input", str(src), "--out-dir", str(out)]) == 0
        lines = (out / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rows = [json.loads(l) for l in lines]
        assert [r["empty"] for r in rows] == [False, True, False]
        assert all(len(r["embedding"]) == 8 for r in rows)
        assert all(v == 0.0 for v in rows[1]["embedding"])


class TestGenerationPipeline:
    def test_train_generate_evaluate(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, epochs=2)
        data = write_generation(tmp_path)
        out = tmp_path / "gen_run"
        assert main(["train", "--task", "generation", "--train-file", data,
                     "--config", cfg, "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"bleu", "rouge_l", "meteor_lite"} <= set(metrics)
        src = tmp_path / "sources.txt"
        src.write_text("t0 t1\nt2\n" + " ".join(f"t{i % 8}" for i in range(60)) + "\n")
        sources = []
        decode = Seq2SeqModel.greedy_decode
        monkeypatch.setattr(Seq2SeqModel, "greedy_decode",
                            lambda model, ex, **kw: sources.append(ex) or decode(model, ex, **kw))
        gen_out = tmp_path / "gen_out"
        assert main(["generate", "--checkpoint", str(out / "checkpoint"),
                     "--input", str(src), "--out-dir", str(gen_out)]) == 0
        assert len((gen_out / "generated.txt").read_text().splitlines()) == 3
        # the 60-word line is cut to max_len=12 and still ends in [EOS]
        assert len(sources[2].word_ids) == 12
        assert sources[2].word_ids[-1] == D.EOS_ID

    def test_seeded_training_with_dropout_repeats_byte_for_byte(self, tmp_path):
        cfg = write_cfg(tmp_path, dropout=0.2, seed=7)
        data = write_generation(tmp_path)
        runs = [tmp_path / tag for tag in ("a", "b")]
        for out in runs:
            assert main(["train", "--task", "generation", "--train-file", data,
                         "--config", cfg, "--out-dir", str(out)]) == 0
        for name in ("checkpoint", "history.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_long_target_keeps_eos_last(self):
        cfg = TrainConfig(max_len=12)
        words = " ".join(f"w{i}" for i in range(60))
        (src, tgt), = _generation_pairs([{"source": words, "target": words}], cfg, dialog=False)
        assert len(src) == len(tgt) == 12
        assert src[-1] == tgt[-1] == "[EOS]"
        dialog = {"turns": [{"speaker": "user", "text": "hi"},
                            {"speaker": "bot", "text": words}]}
        (dsrc, dtgt), = _generation_pairs([dialog], cfg, dialog=True)
        vocab = D.build_vocab([src, tgt, dsrc, dtgt])
        for ex in _encode_generation([(src, tgt), (dsrc, dtgt)], vocab, cfg):
            assert len(ex.target) == 12
            assert ex.target[0] == D.CLS_ID and ex.target[-1] == D.EOS_ID

    def test_generate_rejects_wrong_task(self, tmp_path, trained_dir, capsys):
        src = tmp_path / "s.txt"
        src.write_text("hello\n")
        code = main(["generate", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--input", str(src), "--out-dir", str(tmp_path / "g")])
        assert code != 0
        assert "generation" in capsys.readouterr().err


class TestRestore:
    """`_restore` builds the model unfilled and takes every value from the checkpoint."""

    @staticmethod
    def drawn_tasks():
        """The CLI's tasks, each building with the seeded random draw that a restore overwrites."""
        from dataclasses import replace

        from hitkit import cli
        from hitkit.train import seed_streams
        return {name: replace(task, build=lambda cfg, arts, rng, build=task.build:
                              build(cfg, arts, seed_streams(cfg.seed)["init"]))
                for name, task in cli.TASKS.items()}

    def test_parameters_are_the_checkpoints_float32_values(self, trained_dir):
        from hitkit import cli
        model, cfg, name, arts = cli._restore(trained_dir / "checkpoint")
        drawn = self.drawn_tasks()[name].build(cfg, arts, None)
        ckpt = load_checkpoint(trained_dir / "checkpoint")
        drawn.load_arrays(ckpt.params)
        assert set(model.named_parameters()) == set(ckpt.params)
        for key, p in model.named_parameters().items():
            assert np.array_equal(p.data, ckpt.params[key].astype(np.float64)), key
            assert np.array_equal(p.data, drawn.named_parameters()[key].data), key

    def test_embed_and_generate_write_the_bytes_of_a_drawn_restore(self, tmp_path, trained_dir,
                                                                   monkeypatch):
        from hitkit import cli
        gen = tmp_path / "gen_run"
        assert main(["train", "--task", "generation", "--train-file", write_generation(tmp_path),
                     "--config", write_cfg(tmp_path, epochs=2), "--out-dir", str(gen)]) == 0
        texts = tmp_path / "texts.txt"
        texts.write_text("hello good day\nt0 t1 t2\nt3\n")

        def run(tag):
            out = tmp_path / tag
            assert main(["embed", "--checkpoint", str(trained_dir / "checkpoint"),
                         "--input", str(texts), "--out-dir", str(out / "emb")]) == 0
            assert main(["generate", "--checkpoint", str(gen / "checkpoint"),
                         "--input", str(texts), "--out-dir", str(out / "gen")]) == 0
            return [(out / "emb" / "embeddings.jsonl").read_bytes(),
                    (out / "gen" / "generated.txt").read_bytes()]

        unfilled = run("unfilled")
        monkeypatch.setattr(cli, "TASKS", self.drawn_tasks())
        assert unfilled == run("drawn")


class TestPretrainCommands:
    def test_pretrain_mlm(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(" ".join(t) for t in toydata.mlm_corpus(30, seed=2)))
        out = tmp_path / "mlm_run"
        assert main(["pretrain-mlm", "--corpus", str(corpus),
                     "--config", write_cfg(tmp_path, epochs=2), "--out-dir", str(out)]) == 0
        assert (out / "checkpoint").exists()
        from hitkit.checkpoint import load_checkpoint
        assert load_checkpoint(out / "checkpoint").config["task"] == "mlm"

    def test_pretrain_zsl(self, tmp_path):
        rows = [{"text": " ".join(w), "label": toydata.ZSL_LABELS[l]}
                for w, l in toydata.zsl_texts(4, seed=6)]
        data = tmp_path / "zsl.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in rows))
        out = tmp_path / "zsl_run"
        assert main(["pretrain-zsl", "--train-file", str(data),
                     "--config", write_cfg(tmp_path, epochs=2), "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "zero_shot_train_accuracy" in metrics

    def test_pretrain_zsl_label_of_punctuation_and_a_tab_embeds(self, tmp_path):
        """Preprocessing empties the label, whose own words then go in the vocabulary: split,
        because a tab in a word would break its vocab.tsv line."""
        data = tmp_path / "zsl.jsonl"
        data.write_text("".join(json.dumps({"text": text, "label": label}) + "\n"
                                for text, label in [("good day", "!!\t?"), ("bad day", "x")] * 2))
        assert main(["pretrain-zsl", "--train-file", str(data), "--config",
                     write_cfg(tmp_path, epochs=1), "--out-dir", str(tmp_path / "z")]) == 0
        vocab = D.Vocab.from_text(load_checkpoint(tmp_path / "z" / "checkpoint").extras["vocab.tsv"])
        assert {"!!", "?"} <= set(vocab.word_to_id)
        texts = tmp_path / "texts.txt"
        texts.write_text("good day\n")
        assert main(["embed", "--checkpoint", str(tmp_path / "z" / "checkpoint"),
                     "--input", str(texts), "--out-dir", str(tmp_path / "e")]) == 0

    def test_transfer_init_from_mlm(self, tmp_path):
        # pretraining corpus covers the same text, so the vocabularies align
        data = write_classification(tmp_path, n=10)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(json.loads(l)["text"]
                                    for l in open(data, encoding="utf-8")))
        mlm_out = tmp_path / "mlm_run"
        cfg = write_cfg(tmp_path, epochs=2)
        assert main(["pretrain-mlm", "--corpus", str(corpus), "--config", cfg,
                     "--out-dir", str(mlm_out)]) == 0
        out = tmp_path / "ft_run"
        assert main(["train", "--task", "classification", "--train-file", data,
                     "--config", cfg, "--out-dir", str(out),
                     "--init-from", str(mlm_out / "checkpoint")]) == 0

    def test_transfer_trains_with_the_pretrained_vocabulary(self, tmp_path):
        # the corpus and the training file share some words, in another frequency order
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(" ".join(t) for t in toydata.mlm_corpus(30, seed=2)))
        cfg = write_cfg(tmp_path, epochs=1)
        mlm_out, out = tmp_path / "mlm_run", tmp_path / "ft_run"
        assert main(["pretrain-mlm", "--corpus", str(corpus), "--config", cfg,
                     "--out-dir", str(mlm_out)]) == 0
        assert main(["train", "--task", "classification",
                     "--train-file", write_classification(tmp_path), "--config", cfg,
                     "--out-dir", str(out), "--init-from", str(mlm_out / "checkpoint")]) == 0
        from hitkit.checkpoint import load_checkpoint
        assert (load_checkpoint(out / "checkpoint").extras["vocab.tsv"]
                == load_checkpoint(mlm_out / "checkpoint").extras["vocab.tsv"])

    def test_transfer_rejects_an_encoder_of_another_width(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(["aa bb cc aa bb cc aa bb"] * 8))
        mlm_out = tmp_path / "mlm_wide"
        assert main(["pretrain-mlm", "--corpus", str(corpus),
                     "--config", write_cfg(tmp_path, epochs=2, d_model=16),
                     "--out-dir", str(mlm_out)]) == 0
        data = write_classification(tmp_path, n=14)
        code = main(["train", "--task", "classification", "--train-file", data,
                     "--config", write_cfg(tmp_path, epochs=2), "--out-dir", str(tmp_path / "bad"),
                     "--init-from", str(mlm_out / "checkpoint")])
        assert code != 0
        assert "word_hit.word_emb" in capsys.readouterr().err


class TestAnalyze:
    def test_kmeans_report(self, tmp_path, trained_dir):
        src = tmp_path / "texts.txt"
        src.write_text("\n".join([" ".join(w) for w, _ in
                                  toydata.classification_records(8, seed=9)]))
        out = tmp_path / "analysis"
        assert main(["analyze-embeddings", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--input", str(src), "--k", "2", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert {"silhouette", "davies_bouldin", "assignments"} <= set(payload)
        assert len(payload["assignments"]) == payload["n_points"]
