import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelmatch.corpus import (PAD_ID, UNK_ID, Example, build_vocab,
                               dataset_stats, load_dataset, load_verbalizer,
                               make_dataset, save_dataset, tokenize, tokenize_texts,
                               verbalize_label)
from labelmatch.errors import DataError


class TestLoadDataset:
    def test_trec6_train_counts(self, trec6_train_path):
        ds = load_dataset(trec6_train_path)
        assert len(ds.examples) == 5452
        assert len(ds.label_names) == 6
        assert ds.label_names == ("ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM")

    def test_atis_test_counts(self, atis_train_path, atis_test_path):
        train = load_dataset(atis_train_path)
        test = load_dataset(atis_test_path, split="test")
        assert len(test.examples) == 893
        union = set(train.label_names) | set(test.label_names)
        assert len(union) == 22

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="empty dataset"):
            load_dataset(path)

    def test_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("A\tok here\nno tab on this line\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.tsv")

    def test_first_line_without_tab_names_line(self, tmp_path):
        # no other layout is guessed from the first line: it is malformed too
        path = tmp_path / "bad.tsv"
        path.write_text("what is the capital of france ?\nLOC\twhere is paris ?\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r":1: malformed line \(no tab\)"):
            load_dataset(path)

    def test_file_order_preserved(self, tiny_tsv):
        path = tiny_tsv([("B", "second label first"), ("A", "first label second")])
        ds = load_dataset(path)
        assert [ex.label_name for ex in ds.examples] == ["B", "A"]
        assert ds.label_names == ("A", "B")

    @pytest.mark.parametrize("name", ["trec6.train", "trec6.test", "atis.train", "atis.test"])
    def test_leading_bom_is_skipped(self, data_dir, tmp_path, name):
        # a UTF-8 byte-order mark, as Windows editors write, is not part of the first label
        original = data_dir / f"{name}.tsv"
        copy = tmp_path / "bom.tsv"
        copy.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        split = name.split(".")[1]
        assert load_dataset(copy, split=split) == load_dataset(original, split=split)

    def test_roundtrip(self, trec6_test_path, tmp_path):
        ds = load_dataset(trec6_test_path, split="test")
        out = tmp_path / "again.tsv"
        save_dataset(ds, out)
        assert load_dataset(out, split="test") == ds


class TestBuildVocab:
    def test_min_freq_one(self):
        ds = make_dataset([Example("X", "a a b")])
        vocab = build_vocab(ds)
        assert vocab.tokens == ("<pad>", "<unk>", "a", "b")
        assert len(vocab) == 4
        assert vocab.id_of["<pad>"] == PAD_ID == 0
        assert vocab.id_of["<unk>"] == UNK_ID == 1

    def test_deterministic_across_loads(self, trec6_test_path):
        a = build_vocab(load_dataset(trec6_test_path, split="test"))
        b = build_vocab(load_dataset(trec6_test_path, split="test"))
        assert a.tokens == b.tokens

    def test_pure_function_of_token_multiset(self):
        examples = [Example("X", "red green"), Example("Y", "blue red"), Example("X", "green red")]
        shuffled = [examples[2], examples[0], examples[1]]
        assert build_vocab(make_dataset(examples)).tokens == \
            build_vocab(make_dataset(shuffled)).tokens

    def test_frequency_then_lexicographic_order(self):
        ds = make_dataset([Example("X", "bb aa bb cc aa")])
        vocab = build_vocab(ds)
        # aa and bb tie at 2, cc trails at 1
        assert vocab.tokens == ("<pad>", "<unk>", "aa", "bb", "cc")

    def test_extra_texts_survive_min_freq(self):
        # phrase tokens absent from the texts join the vocabulary, ordered by
        # their counts like any other token
        ds = make_dataset([Example("X", "w w w")])
        vocab = build_vocab(ds, extra_texts=["Rare phrase", "rare"])
        assert vocab.tokens == ("<pad>", "<unk>", "w", "rare", "phrase")

    def test_token_with_nul_is_refused(self):
        # str.split() keeps NUL inside a token, and a checkpoint stores the
        # tokens NUL-joined, so such a token could not be read back
        ds = make_dataset([Example("X", "a b\x00c")])
        with pytest.raises(DataError, match="contains NUL"):
            build_vocab(ds)
        with pytest.raises(DataError, match="contains NUL"):
            build_vocab(make_dataset([Example("X", "a")]), extra_texts=["x\x00"])

    @pytest.mark.parametrize("per_phrase_token", [1])   # what each phrase token adds
    @pytest.mark.parametrize("name", ["trec6", "atis"])
    def test_one_count_equals_the_per_example_loop(self, data_dir, name, per_phrase_token):
        ds = load_dataset(data_dir / f"{name}.train.tsv")
        phrases = [verbalize_label(label) for label in ds.label_names]
        # the counting loop that build_vocab ran before its one chained count
        counts = Counter()
        for ex in ds.examples:
            counts.update(ex.text.lower().split())
        for text in phrases:
            for token in text.lower().split():
                counts[token] += per_phrase_token
        kept = sorted(counts, key=lambda t: (-counts[t], t))
        assert build_vocab(ds, phrases).tokens == ("<pad>", "<unk>", *kept)


class TestTokenize:
    def test_reference_sentence_token_count(self):
        text = "When was the first liver transplant"
        assert len(text.split()) == 6  # independent whitespace oracle
        vocab = build_vocab(make_dataset([Example("X", text)]))
        seq = tokenize(text, vocab, max_len=32)
        assert seq.true_len == 6

    def test_truncation(self):
        words = " ".join(f"w{i}" for i in range(40))
        vocab = build_vocab(make_dataset([Example("X", words)]))
        seq = tokenize(words, vocab, max_len=32)
        assert seq.true_len == 32
        assert len(seq.ids) == 32
        assert seq.ids[-1] == vocab.id_of["w31"]

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(make_dataset([Example("X", "known words only")]))
        seq = tokenize("zzz-unknown-token", vocab, max_len=4)
        assert seq.ids[0] == UNK_ID

    def test_empty_text_rejected(self):
        vocab = build_vocab(make_dataset([Example("X", "a")]))
        with pytest.raises(DataError):
            tokenize("   ", vocab, max_len=4)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1),
           st.integers(min_value=1, max_value=16))
    def test_mask_consistency_property(self, text, max_len):
        vocab = build_vocab(make_dataset([Example("X", "seed corpus words")]))
        if not text.split():
            with pytest.raises(DataError):
                tokenize(text, vocab, max_len)
            return
        seq = tokenize(text, vocab, max_len)
        assert 1 <= seq.true_len <= max_len
        assert (seq.ids[seq.true_len:] == PAD_ID).all()


class TestTokenizeTexts:
    TEXTS = ["When was the first liver transplant", "zzz-unknown-token known",
             " ".join(f"w{i}" for i in range(40)), "Words"]

    def test_each_equals_tokenize(self):
        vocab = build_vocab(make_dataset([Example("X", "known words only " + self.TEXTS[2])]))
        seqs = tokenize_texts(self.TEXTS, vocab, max_len=32)
        assert [s.true_len for s in seqs] == [6, 2, 32, 1]
        assert seqs[1].ids[0] == UNK_ID
        assert seqs[2].ids[-1] == vocab.id_of["w31"]
        assert (seqs[3].ids[1:] == PAD_ID).all()  # nothing left over from the row above
        for text, seq in zip(self.TEXTS, seqs):
            one = tokenize(text, vocab, max_len=32)
            assert seq.true_len == one.true_len
            assert np.array_equal(seq.ids, one.ids)

    def test_rows_share_one_array(self):
        vocab = build_vocab(make_dataset([Example("X", "known words only")]))
        seqs = tokenize_texts(self.TEXTS, vocab, max_len=8)
        base = seqs[0].ids.base
        assert base is not None and base.shape == (len(self.TEXTS), 8)
        assert all(s.ids.base is base for s in seqs)

    @pytest.mark.parametrize("max_len", [2, 8, 32])
    @pytest.mark.parametrize("name", ["trec6", "atis"])
    def test_equals_the_row_by_row_fill(self, data_dir, name, max_len):
        texts = [ex.text for ex in load_dataset(data_dir / f"{name}.test.tsv").examples]
        vocab = build_vocab(load_dataset(data_dir / f"{name}.train.tsv"))
        # the fill that tokenize_texts ran before its one masked assignment
        ids = np.full((len(texts), max_len), PAD_ID, dtype=np.int64)
        lengths = []
        for row, text in zip(ids, texts):
            words = text.lower().split()[:max_len]
            row[:len(words)] = [vocab.id_of.get(w, UNK_ID) for w in words]
            lengths.append(len(words))
        seqs = tokenize_texts(texts, vocab, max_len)
        assert [s.true_len for s in seqs] == lengths
        assert np.array_equal(np.stack([s.ids for s in seqs]), ids)
        assert UNK_ID in ids  # the test split holds words the train split lacks

    def test_empty_text_and_zero_max_len_rejected(self):
        vocab = build_vocab(make_dataset([Example("X", "a")]))
        with pytest.raises(DataError, match="empty text"):
            tokenize_texts(["a", " \t "], vocab, max_len=4)
        with pytest.raises(DataError, match="max_len"):
            tokenize_texts(["a"], vocab, max_len=0)


class TestVerbalize:
    def test_plain_lowercase(self):
        assert verbalize_label("LOC") == "loc"

    def test_underscores_become_spaces(self):
        assert verbalize_label("atis_flight") == "atis flight"

    def test_verbalizer_map_wins(self):
        assert verbalize_label("NUM", {"NUM": "numeric value"}) == "numeric value"

    def test_empty_phrase_rejected(self):
        with pytest.raises(DataError):
            verbalize_label("NUM", {"NUM": "  "})

    def test_verbalizer_file(self, tmp_path):
        path = tmp_path / "verb.json"
        path.write_text('{"LOC": "a location"}', encoding="utf-8")
        assert load_verbalizer(path) == {"LOC": "a location"}
        bad = tmp_path / "bad.json"
        bad.write_text('["not a map"]', encoding="utf-8")
        with pytest.raises(DataError):
            load_verbalizer(bad)

    def test_verbalizer_file_with_bom(self, tmp_path):
        text = json.dumps({"LOC": "a location", "NUM": "a number"})
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_verbalizer(bom) == load_verbalizer(plain) == json.loads(text)

    @pytest.mark.parametrize("name, verbalizer", [("__", None), ("NUM", {"NUM": ""})])
    def test_phrase_without_tokens_names_the_label(self, name, verbalizer):
        with pytest.raises(DataError, match=f"label {name!r} verbalizes to a phrase with no"):
            verbalize_label(name, verbalizer)

    def test_trec6_labels_never_oov(self, trec6_train_path):
        ds = load_dataset(trec6_train_path)
        phrases = [verbalize_label(name) for name in ds.label_names]
        vocab = build_vocab(ds, extra_texts=phrases)
        for phrase in phrases:
            seq = tokenize(phrase, vocab, max_len=8)
            assert (seq.ids[: seq.true_len] != UNK_ID).any()


class TestDatasetStats:
    def test_trec6_train(self, trec6_train_path):
        stats = dataset_stats(load_dataset(trec6_train_path))
        assert stats.num_examples == 5452
        assert stats.num_classes == 6

    def test_atis_train(self, atis_train_path):
        stats = dataset_stats(load_dataset(atis_train_path))
        assert stats.num_examples == 4978
        assert stats.num_classes == 22
        assert abs(stats.avg_token_len - 11.14) <= 1.5

    def test_single_example(self):
        stats = dataset_stats(make_dataset([Example("X", "a b")]))
        assert stats.avg_token_len == 2.00


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        st.text(alphabet=st.characters(blacklist_characters="\t\n\r",
                                       blacklist_categories=("Cs", "Zs", "Zl", "Zp")),
                min_size=1, max_size=8).filter(lambda s: s.strip() == s and s.strip()),
        st.text(alphabet=st.characters(blacklist_characters="\t\n\r",
                                       blacklist_categories=("Cs",)),
                min_size=1, max_size=40).filter(lambda s: s.strip() == s and s.split())),
    min_size=1, max_size=20))
def test_tsv_roundtrip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rt") / "ds.tsv"
    ds = make_dataset([Example(lab, txt) for lab, txt in rows])
    save_dataset(ds, path)
    assert load_dataset(path) == ds
