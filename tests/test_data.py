import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitkit import data as D


class TestPreprocess:
    def test_rule_application(self):
        assert D.preprocess_text("Hello!!! http://x.co @user") == ["hello"]

    def test_empty_string(self):
        assert D.preprocess_text("") == []

    def test_markers_survive(self):
        assert D.preprocess_text("[CLS] Hey there! [EOS]") == ["[CLS]", "hey", "there", "[EOS]"]

    def test_url_variants_dropped(self):
        assert D.preprocess_text("see https://a.b and www.c.d plus HTTP://E.F") == ["see", "and", "plus"]

    def test_lowercase_switch(self):
        assert D.preprocess_text("Hey There", lowercase=False) == ["Hey", "There"]

    @given(st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, raw):
        once = D.preprocess_text(raw)
        twice = D.preprocess_text(" ".join(once))
        assert once == twice


class TestVocab:
    def test_singleton_corpus(self):
        vocab = D.build_vocab([["a"]])
        assert vocab.word_to_id == {"[PAD]": 0, "[UNK]": 1, "[CLS]": 2, "[EOS]": 3,
                                    "[MASK]": 4, "a": 5}

    def test_deterministic(self):
        corpus = [["b", "a"], ["a", "c"]]
        assert D.build_vocab(corpus).word_to_id == D.build_vocab(corpus).word_to_id

    def test_five_sentence_hand_enumeration(self):
        corpus = [["the", "cat"], ["the", "dog"], ["a", "cat"], ["the", "cat", "sat"], ["dog"]]
        vocab = D.build_vocab(corpus)
        assert vocab.word_to_id["cat"] == 5
        assert vocab.word_to_id["the"] == 6
        assert vocab.word_to_id["dog"] == 7
        assert vocab.word_to_id["a"] == 8
        assert vocab.word_to_id["sat"] == 9
        expected_chars = {"t": 5, "a": 6, "c": 7, "e": 8, "h": 9, "d": 10, "g": 11,
                          "o": 12, "s": 13}
        for ch, idx in expected_chars.items():
            assert vocab.char_to_id[ch] == idx

    def test_min_freq_drops_words_but_keeps_chars(self):
        vocab = D.build_vocab([["rare", "common"], ["common"]], min_freq=2)
        assert "rare" not in vocab.word_to_id
        assert "common" in vocab.word_to_id
        assert "r" in vocab.char_to_id  # chars come from dropped words too

    def test_empty_corpus_errors(self):
        with pytest.raises(D.DataError):
            D.build_vocab([])

    def test_special_tokens_encode_as_single_char_slot(self):
        vocab = D.build_vocab([["hi"]])
        assert vocab.char_ids("[CLS]") == [D.CLS_ID]

    def test_roundtrip_through_text(self):
        vocab = D.build_vocab([["hello", "world"]])
        clone = D.Vocab.from_text(vocab.to_text())
        assert clone.word_to_id == vocab.word_to_id
        assert clone.char_to_id == vocab.char_to_id

    @given(st.lists(st.text(max_size=40), min_size=1, max_size=6), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_text_roundtrip_of_any_corpus(self, raw_lines, min_freq):
        """Whatever preprocess_text makes of arbitrary text, the vocab survives to_text/from_text."""
        corpus = [D.preprocess_text(line) for line in raw_lines]
        vocab = D.build_vocab(corpus + [["anchor"] * min_freq], min_freq)
        clone = D.Vocab.from_text(vocab.to_text())
        assert clone.word_to_id == vocab.word_to_id
        assert clone.char_to_id == vocab.char_to_id
        assert all(clone.word_freq[w] == vocab.word_freq.get(w, 0) for w in vocab.word_to_id)
        assert clone.to_text() == vocab.to_text()


class TestFlattenDialog:
    def turns(self):
        return [{"speaker": "bot", "text": "hello"}, {"speaker": "user", "text": "hi"},
                {"speaker": "bot", "text": "bye now"}]

    def test_first_turn_has_empty_history(self):
        src, tgt = D.flatten_dialog(self.turns(), 1)
        assert src == ["[CLS]", "[EOS]"]
        assert tgt == ["[CLS]", "hello", "[EOS]"]

    def test_second_turn_interleaves_history(self):
        src, tgt = D.flatten_dialog(self.turns(), 2)
        assert src == ["[CLS]", "hello", "hi", "[EOS]"]
        assert tgt == ["[CLS]", "bye", "now", "[EOS]"]

    def test_left_truncation_keeps_recent_tokens(self):
        turns = [{"speaker": "bot", "text": " ".join(f"w{i}" for i in range(60))},
                 {"speaker": "user", "text": "latest words"},
                 {"speaker": "bot", "text": "reply"}]
        src, _ = D.flatten_dialog(turns, 2, max_len=40)
        assert len(src) == 40
        assert src[0] == "[CLS]" and src[-1] == "[EOS]"
        assert src[-3:] == ["latest", "words", "[EOS]"]

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_tiny_max_len_bounds_the_source(self, max_len):
        turns = [{"speaker": "user", "text": "one two three four five"},
                 {"speaker": "bot", "text": "reply"}]
        src, _ = D.flatten_dialog(turns, 1, max_len=max_len)
        assert len(src) <= max(max_len, 2)
        assert src[0] == "[CLS]" and src[-1] == "[EOS]"
        assert src[1:-1] == ["one", "two", "three", "four", "five"][5 - max(max_len - 2, 0):]

    def test_out_of_range_errors(self):
        with pytest.raises(D.DataError):
            D.flatten_dialog(self.turns(), 3)

    def test_non_alternating_turns_keep_order(self):
        turns = [{"speaker": "bot", "text": "a"}, {"speaker": "bot", "text": "b"},
                 {"speaker": "user", "text": "c"}, {"speaker": "bot", "text": "d"}]
        src, tgt = D.flatten_dialog(turns, 2)
        assert src == ["[CLS]", "a", "[EOS]"] and tgt == ["[CLS]", "b", "[EOS]"]
        src, tgt = D.flatten_dialog(turns, 3)
        assert src == ["[CLS]", "a", "b", "c", "[EOS]"] and tgt == ["[CLS]", "d", "[EOS]"]


class TestIob:
    def test_no_slots_all_outside(self):
        assert D.iob_encode(["a", "b"], {}) == ["O", "O"]

    def test_multi_token_slot(self):
        tags = D.iob_encode(["cheap", "chinese", "food"], {"food": "chinese food"})
        assert tags == ["O", "B-food", "I-food"]

    def test_leftmost_match_wins(self):
        tags = D.iob_encode(["x", "y", "x"], {"thing": "x"})
        assert tags == ["B-thing", "O", "O"]

    def test_lexicographic_priority_on_overlap(self):
        tags = D.iob_encode(["a", "b"], {"beta": "a b", "alpha": "a"})
        # alpha claims "a" first, so beta's 2-token window cannot place
        assert tags == ["B-alpha", "O"]

    def test_unmatched_value_logs_and_tags_nothing(self, caplog):
        with caplog.at_level("WARNING"):
            tags = D.iob_encode(["a"], {"food": "pizza"})
        assert tags == ["O"]
        assert "not found" in caplog.text

    @staticmethod
    def iob_valid(tags):
        prev = "O"
        for tag in tags:
            if tag.startswith("I-") and prev not in (f"B-{tag[2:]}", tag):
                return False
            prev = tag
        return True

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
           st.dictionaries(st.sampled_from(["s1", "s2"]),
                           st.sampled_from(["a", "b", "a b", "c d", "zz"]), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_output_always_iob_valid(self, tokens, slots):
        assert self.iob_valid(D.iob_encode(tokens, slots))


class TestEncodeExample:
    def vocab(self):
        return D.build_vocab([["alpha", "beta", "gamma"]])

    def test_overlong_text_truncated_to_cap(self):
        vocab = self.vocab()
        ex = D.encode_example([f"w{i}" for i in range(45)], vocab, max_len=40)
        assert ex.n_words == 40

    def test_oov_word_keeps_char_ids(self):
        vocab = self.vocab()
        ex = D.encode_example(["betagamma"], vocab)
        assert ex.word_ids == [D.UNK_ID]
        assert ex.char_ids[0] == vocab.char_ids("betagamma")
        assert D.UNK_ID not in ex.char_ids[0]

    def test_word_length_cap(self):
        vocab = self.vocab()
        ex = D.encode_example(["a" * 30], vocab, max_word_len=20)
        assert len(ex.char_ids[0]) == 20

    def test_roundtrip_in_vocab_text(self):
        vocab = self.vocab()
        tokens = ["alpha", "gamma", "beta"]
        ex = D.encode_example(tokens, vocab)
        assert vocab.decode(ex.word_ids) == tokens

    def test_empty_tokens_error(self):
        with pytest.raises(D.DataError):
            D.encode_example([], self.vocab())


class TestLoadAndSplit:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [{"text": "hi there", "label": "a"}, {"text": "bye", "label": "b"}]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        assert D.load_dataset(path, "classification") == rows

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\n{"nope": 1}\n')
        with pytest.raises(D.DataError, match=r":2:"):
            D.load_dataset(path, "classification")

    def test_labeling_length_mismatch(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"tokens": ["a", "b"], "tags": ["O"]}))
        with pytest.raises(D.DataError, match="2 tokens but 1 tags"):
            D.load_dataset(path, "labeling")

    def test_split_is_exact_ninety_ten(self):
        records = list(range(100))
        train, held = D.split_dataset(records, 0.9, seed=4)
        assert len(train) == 90 and len(held) == 10

    def test_split_deterministic(self):
        records = list(range(37))
        assert D.split_dataset(records, 0.9, 7) == D.split_dataset(records, 0.9, 7)

    @given(st.integers(2, 60), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_split_disjoint_and_exhaustive(self, n, seed):
        records = list(range(n))
        train, held = D.split_dataset(records, 0.9, seed)
        assert sorted(train + held) == records


class TestDialogConverters:
    def record(self):
        return {"turns": [{"speaker": "bot", "text": "what food"},
                          {"speaker": "user", "text": "cheap chinese food please"},
                          {"speaker": "bot", "text": "ok"}],
                "slots": {"food": "chinese food"}, "intent": "inform"}

    def test_generation_pairs(self):
        pairs = D.dialog_to_generation(self.record())
        assert len(pairs) == 2
        assert pairs[0][0] == ["[CLS]", "[EOS]"]
        assert pairs[1][0] == ["[CLS]", "what", "food", "cheap", "chinese", "food",
                               "please", "[EOS]"]

    def test_labeling_conversion(self):
        rec = D.dialog_to_labeling(self.record())
        assert rec["tokens"] == ["cheap", "chinese", "food", "please"]
        assert rec["tags"] == ["O", "B-food", "I-food", "O"]

    def test_classification_conversion(self):
        rec = D.dialog_to_classification(self.record())
        assert rec == {"text": "cheap chinese food please", "label": "inform"}
