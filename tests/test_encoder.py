import numpy as np
import pytest

import labelmatch.encoder
import labelmatch.trainer
from labelmatch.corpus import Example, TokenSeq, load_dataset, make_dataset, tokenize
from labelmatch.encoder import LabelSet, encode, encode_batch_forward, encode_labels_forward, pack
from labelmatch.trainer import TrainConfig, batch_step, build_model


def seq_of(ids, true_len, max_len=None):
    max_len = max_len or len(ids)
    padded = np.zeros(max_len, dtype=np.int64)
    padded[: len(ids)] = ids
    return TokenSeq(ids=padded, true_len=true_len)


@pytest.fixture(scope="module")
def tiny_model():
    examples = [
        Example("alpha", "red fish swims fast"),
        Example("beta", "green bird flies high today"),
        Example("alpha", "red bird sings"),
        Example("beta", "green fish sleeps"),
    ]
    config = TrainConfig(fusion_mode="dot", dim=16, max_len=8, seed=3)
    return build_model(config, make_dataset(examples))


class TestEncode:
    def test_output_length_is_dim(self, tiny_model):
        seq = tokenize("red bird", tiny_model.vocab, 8)
        vec = encode(seq, tiny_model.enc)
        assert vec.shape == (16,)

    def test_text_and_label_paths_are_one_function(self, tiny_model):
        seq = tokenize("red fish", tiny_model.vocab, 8)
        as_text = encode(seq, tiny_model.enc)
        as_label = encode(seq, tiny_model.enc)
        np.testing.assert_array_equal(as_text, as_label)

    def test_appended_padding_is_bit_exact(self, tiny_model):
        seq = tokenize("green bird flies", tiny_model.vocab, 8)
        short = seq_of(seq.ids[: seq.true_len], seq.true_len)
        np.testing.assert_array_equal(encode(short, tiny_model.enc),
                                      encode(seq, tiny_model.enc))

    def test_vector_does_not_depend_on_batchmates(self, tiny_model):
        # packing changes only the summation order, never which rows are summed
        texts = ["green bird flies high today", "red fish", "red bird sings",
                 "fish", "green fish sleeps", "red fish swims fast"]
        seqs = [tokenize(t, tiny_model.vocab, 8) for t in texts]
        batched, _ = encode_batch_forward(pack(seqs + list(tiny_model.labels.token_seqs)),
                                          tiny_model.enc)
        assert batched.dtype == np.float32
        for seq, vec in zip(seqs, batched):
            alone = encode(seq, tiny_model.enc)
            np.testing.assert_allclose(vec, alone, rtol=1e-6,
                                       atol=1e-7 * np.abs(alone).max())

    def test_permutation_sensitivity(self, tiny_model):
        rng = np.random.default_rng(21)
        vocab_size = len(tiny_model.vocab)
        changed = 0
        trials = 0
        for _ in range(100):
            n = int(rng.integers(2, 8))
            ids = rng.integers(2, vocab_size, size=n)
            i, j = rng.choice(n, size=2, replace=False)
            if ids[i] == ids[j]:
                continue
            trials += 1
            swapped = ids.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            a = encode(seq_of(ids, n), tiny_model.enc)
            b = encode(seq_of(swapped, n), tiny_model.enc)
            if not np.array_equal(a, b):
                changed += 1
        assert trials > 50
        assert changed == trials  # position embeddings make order matter


class TestEncodeLabels:
    def test_trec6_label_matrix_shape(self, trec6_train_path):
        ds = load_dataset(trec6_train_path)
        config = TrainConfig(fusion_mode="dot", dim=16, seed=0)
        model = build_model(config, ds)
        matrix = encode_labels_forward(model.labels, model.enc)[0]
        assert matrix.shape == (6, 16)

    def test_same_phrase_gives_identical_rows(self, tiny_model):
        seq = tokenize("red fish", tiny_model.vocab, 8)
        labels = LabelSet(label_names=("a", "b"), phrases=("red fish", "red fish"),
                          token_seqs=(seq, seq))
        matrix = encode_labels_forward(labels, tiny_model.enc)[0]
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_embedding_perturbation_is_local_to_one_row(self, tiny_model):
        # two labels over disjoint tokens: poking a token used only by label 1
        # must leave label 0's encoding untouched
        seq_a = tokenize("red", tiny_model.vocab, 8)
        seq_b = tokenize("green", tiny_model.vocab, 8)
        labels = LabelSet(label_names=("a", "b"), phrases=("red", "green"),
                          token_seqs=(seq_a, seq_b))
        before = encode_labels_forward(labels, tiny_model.enc)[0]
        green_id = tiny_model.vocab.id_of["green"]
        tiny_model.enc.emb.value[green_id, 0] += 0.125
        after = encode_labels_forward(labels, tiny_model.enc)[0]
        tiny_model.enc.emb.value[green_id, 0] -= 0.125
        np.testing.assert_array_equal(after[0], before[0])
        assert not np.array_equal(after[1], before[1])


class TestParameterSharing:
    def test_text_and_label_encoders_alias_one_parameter_set(self, tiny_model, monkeypatch):
        seen, packed = [], {}
        original_pack = labelmatch.encoder.pack
        original_forward = labelmatch.encoder.encode_batch_forward

        def spy_pack(seqs):
            batch = original_pack(seqs)
            packed[id(batch)] = [id(seq) for seq in seqs]
            return batch

        def spy_forward(batch, params, reuse=None):
            seen.append((id(params), packed[id(batch)]))
            return original_forward(batch, params, reuse)

        for module in (labelmatch.encoder, labelmatch.trainer):
            monkeypatch.setattr(module, "pack", spy_pack)
            monkeypatch.setattr(module, "encode_batch_forward", spy_forward)
        seqs = [tokenize("red fish swims", tiny_model.vocab, 8)]
        batch_step(tiny_model, seqs, [0])
        for p in tiny_model.parameters():
            p.grad[...] = 0
        assert {params for params, _ in seen} == {id(tiny_model.enc)}
        encoded = {seq for _, batch in seen for seq in batch}
        assert id(seqs[0]) in encoded
        assert {id(seq) for seq in tiny_model.labels.token_seqs} <= encoded  # every label

    def test_label_matrix_recomputed_from_current_parameters(self, tiny_model):
        matrix_before, _ = encode_labels_forward(tiny_model.labels, tiny_model.enc)
        tiny_model.enc.emb.value += 0.01
        matrix_after, _ = encode_labels_forward(tiny_model.labels, tiny_model.enc)
        tiny_model.enc.emb.value -= 0.01
        assert not np.array_equal(matrix_before, matrix_after)
