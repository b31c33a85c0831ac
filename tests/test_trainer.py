import dataclasses
import errno
import gc
import math
import os
import platform
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import labelmatch.nncore
import labelmatch.trainer
from conftest import checkpoint_body, corrupt_backward, write_sealed
import per_example_reference as reference
from labelmatch.corpus import (Example, build_vocab, load_dataset, make_dataset,
                               tokenize, verbalize_label)
from labelmatch.errors import CheckpointError, DataError, TrainingError
from labelmatch.nncore import ParamStore, ParamTensor
from labelmatch.trainer import (ADAM_BLOCK, Model, TrainConfig, adam_step, batch_step,
                                build_model, evaluate, forward, init_params, pack_batch,
                                load_checkpoint, save_checkpoint,
                                shuffled_indices, train)


@pytest.fixture(scope="module")
def toy_sets():
    examples = [
        Example("color", "the sky is blue today"),
        Example("color", "grass looks very green"),
        Example("animal", "a dog barked loudly"),
        Example("animal", "the cat sleeps on the mat"),
        Example("color", "bright red paint everywhere"),
        Example("animal", "a small bird sings"),
    ]
    train_set = make_dataset(examples)
    eval_set = make_dataset(examples[:4], split="test")
    return train_set, eval_set


def params_equal(a: Model, b: Model) -> bool:
    return all(np.array_equal(x.value, y.value)
               for x, y in zip(a.parameters(), b.parameters()))


def bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint8)


def named(store: ParamStore) -> dict[str, ParamTensor]:
    return {p.name: p for p in store}


def assert_one_store(model: Model) -> None:
    params = model.parameters()
    assert params == list(model.store.params)
    for p in params:
        assert not hasattr(p, "store")
        for name in ("value", "grad", "adam_m", "adam_v"):
            assert np.shares_memory(getattr(p, name), getattr(model.store, name))


def store_of(name: str, value) -> ParamStore:
    """A store of one parameter holding a copy of `value`, in its dtype."""
    value = np.asarray(value)
    store = ParamStore([(name, value.shape)], dtype=value.dtype)
    store.value[...] = value.reshape(-1)
    return store


def mix64(z: int) -> int:
    """The trainer module docstring's splitmix64 finalizer, in Python ints only."""
    mask = 2**64 - 1
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def splitmix64_fisher_yates(n: int, seed: int) -> list[int]:
    """The trainer module docstring's shuffle, in Python ints only."""
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = mix64(seed + (n - i) * 0x9E3779B97F4A7C15) % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


class TestAdamStep:
    def test_zero_gradient_leaves_parameters(self):
        store = store_of("p", np.array([1.0, -2.0], dtype=np.float32))
        adam_step(store, lr=1e-3, t=1, rows=np.arange(2))
        np.testing.assert_array_equal(store.value, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # m-hat = v-hat = 1 at t=1 for a unit gradient, so the update is
        # -lr / (1 + eps), within a hair of -1e-3
        store = store_of("p", [0.0])
        store.grad += 1.0
        adam_step(store, lr=1e-3, t=1, rows=np.arange(1))
        assert abs(store.value[0] + 1e-3) < 1e-9
        assert (store.grad == 0).all()

    def test_negated_gradient_negates_first_update(self):
        a = store_of("a", np.zeros(4))
        b = store_of("b", np.zeros(4))
        g = np.random.default_rng(0).normal(size=4)
        a.grad += g
        b.grad += -g
        adam_step(a, lr=1e-3, t=1, rows=np.arange(4))
        adam_step(b, lr=1e-3, t=1, rows=np.arange(4))
        np.testing.assert_array_equal(a.value, -b.value)

    def test_non_finite_gradient_names_parameter(self):
        store = ParamStore([("fine", (3,)), ("oddball", (2,))], dtype=np.float64)
        store.grad[...] = [1.0, 2.0, 3.0, 1.0, np.nan]
        with pytest.raises(TrainingError, match="'oddball'"):
            adam_step(store, lr=1e-3, t=1, rows=np.arange(3))

    def test_non_finite_gradient_changes_nothing(self, toy_sets):
        # the first offending parameter in declaration order is named, and no
        # value, moment or gradient moves, not even those declared before it
        train_set, _ = toy_sets
        model = build_model(TrainConfig(fusion_mode="dot", dim=8), train_set)
        params = model.parameters()
        every_row = np.arange(len(model.vocab))
        rng = np.random.default_rng(3)
        for t in (1, 2, 3):
            for p in params:
                p.grad[...] = rng.normal(size=p.value.shape)
            adam_step(model.store, lr=1e-2, t=t, rows=every_row)
        for p in params:
            p.grad[...] = rng.normal(size=p.value.shape)
        model.enc.b2.grad[1] = np.inf
        model.head.log_scale.grad[0] = np.nan
        before = [[getattr(p, a).copy() for a in ("value", "grad", "adam_m", "adam_v")]
                  for p in params]
        with pytest.raises(TrainingError, match="'b2'"):
            adam_step(model.store, lr=1e-2, t=4, rows=every_row)
        for p, saved in zip(params, before):
            for a, old in zip(("value", "grad", "adam_m", "adam_v"), saved):
                assert np.array_equal(bits(getattr(p, a)), bits(old)), (p.name, a)

    def test_untouched_table_row_keeps_its_bits(self):
        store = ParamStore([("emb", (6, 4)), ("b", (3,))], dtype=np.float32)
        rng = np.random.default_rng(4)
        store.value[...] = rng.normal(size=store.value.size)
        table, bias = store.params
        for t in range(1, 4):
            store.grad[...] = rng.normal(size=store.grad.size)
            adam_step(store, lr=1e-2, t=t, rows=np.arange(6))
        saved = {a: getattr(table, a)[2].copy() for a in ("value", "adam_m", "adam_v")}
        moved = table.value[3].copy()
        for t in range(4, 24):
            table.grad[[0, 1, 3, 4, 5]] = rng.normal(size=(5, 4))
            bias.grad[...] = rng.normal(size=3)
            adam_step(store, lr=1e-2, t=t, rows=np.array([0, 1, 3, 4, 5]))
        for a, old in saved.items():
            assert np.array_equal(bits(getattr(table, a)[2]), bits(old)), a
        assert not np.array_equal(table.value[3], moved)

    def test_nan_in_an_otherwise_zero_table_row_is_caught(self, toy_sets):
        train_set, _ = toy_sets
        model = build_model(TrainConfig(fusion_mode="none", dim=8), train_set)
        params = model.parameters()
        rng = np.random.default_rng(6)
        for p in params[1:]:
            p.grad[...] = rng.normal(size=p.value.shape)
        model.enc.emb.grad[0] = rng.normal(size=8)
        model.enc.emb.grad[3, 5] = np.nan  # the rest of row 3 is zero
        before = [[getattr(p, a).copy() for a in ("value", "grad", "adam_m", "adam_v")]
                  for p in params]
        with pytest.raises(TrainingError, match="'emb'"):
            adam_step(model.store, lr=1e-2, t=1, rows=np.array([0, 3]))
        for p, saved in zip(params, before):
            for a, old in zip(("value", "grad", "adam_m", "adam_v"), saved):
                assert np.array_equal(bits(getattr(p, a)), bits(old)), (p.name, a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_passed_rows_take_the_update_whatever_their_gradient(self, dtype):
        # LazyAdam's rule: a passed row with an all-zero gradient still
        # decays its moments and moves by the remaining momentum; a row not
        # passed is not read, so its value, moments and gradient keep their bits
        store = ParamStore([("emb", (4, 3)), ("b", (2,))], dtype=dtype)
        rng = np.random.default_rng(9)
        store.value[...] = rng.normal(size=store.value.size)
        table = store.params[0]
        for t in (1, 2):
            store.grad[...] = rng.normal(size=store.grad.size)
            adam_step(store, lr=1e-2, t=t, rows=np.arange(4))
        store.grad[...] = rng.normal(size=store.grad.size)
        table.grad[1] = 0
        before = {a: getattr(table, a).copy() for a in ("value", "grad", "adam_m", "adam_v")}
        adam_step(store, lr=1e-2, t=3, rows=np.array([0, 1]))
        m, v = before["adam_m"][1] * 0.9, before["adam_v"][1] * 0.999
        assert np.array_equal(table.adam_m[1], m) and np.array_equal(table.adam_v[1], v)
        step = m / (1 - 0.9**3) * 1e-2 / (np.sqrt(v / (1 - 0.999**3)) + 1e-8)
        assert np.array_equal(table.value[1], before["value"][1] - step)
        assert (table.value[1] != before["value"][1]).all()
        assert not (table.grad[:2]).any()
        for a, old in before.items():
            assert np.array_equal(bits(getattr(table, a)[2:]), bits(old[2:])), a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_tensor_reference_bitwise(self, dtype):
        # a tensor straddles the first block boundary and the store ends in
        # a partial block; every third row of the leading matrix, a
        # different third each step, gets no gradient and is not passed, and
        # one passed row gets no gradient either
        shapes = [("a", (300, 257)), ("b", (7,)), ("c", (1,))]
        store = ParamStore(shapes, dtype=dtype)
        assert store.value.size > ADAM_BLOCK and store.value.size % ADAM_BLOCK
        rng = np.random.default_rng(8)
        store.value[...] = rng.normal(size=store.value.size)
        singles = [ParamTensor(p.name, p.value.copy()) for p in store.params]
        offsets = np.cumsum([0] + [p.value.size for p in singles])
        for t in range(1, 5):
            scale = 10.0 ** rng.integers(-6, 3, size=store.value.size)
            grad = (rng.normal(size=store.value.size) * scale).astype(dtype)
            grad[rng.random(grad.size) < 0.1] = 0
            grad[:300 * 257].reshape(300, 257)[t % 3::3] = 0
            grad[:300 * 257].reshape(300, 257)[t % 3 + 1] = 0
            rows = np.flatnonzero(np.arange(300) % 3 != t % 3)
            store.grad[...] = grad
            for p, lo in zip(singles, offsets):
                p.grad[...] = grad[lo:lo + p.value.size].reshape(p.value.shape)
            adam_step(store, lr=1e-3, t=t, rows=rows)
            reference.adam_step(singles, lr=1e-3, t=t, rows=rows)
            for p, q in zip(store.params, singles):
                for a in ("value", "adam_m", "adam_v", "grad"):
                    assert np.array_equal(bits(getattr(p, a)), bits(getattr(q, a))), (t, p.name, a)


class TestBatchStep:
    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_returns_the_rows_its_pack_reads(self, toy_sets, mode):
        # the label phrases' tokens are read only when the head reads labels
        train_set, _ = toy_sets
        model = build_model(TrainConfig(fusion_mode=mode, dim=8), train_set)
        seqs, targets = labelmatch.trainer._tokenize_dataset(model, train_set)
        text_ids = {int(i) for seq in seqs for i in seq.ids[:seq.true_len]}
        label_only = {int(i) for seq in model.labels.token_seqs
                      for i in seq.ids[:seq.true_len]} - text_ids
        assert label_only
        losses, rows = batch_step(model, seqs, targets)
        assert len(losses) == len(seqs)
        assert rows.tolist() == np.unique(pack_batch(model, seqs).ids).tolist()
        read = set(rows.tolist())
        if mode == "none":
            assert not label_only & read
        else:
            assert label_only <= read
        assert not np.delete(model.enc.emb.grad, rows, axis=0).any()


def float32_gradient_errors(train_set, mode: str) -> dict[str, float]:
    """Per tensor, the relative L2 distance of a float32 batch gradient from
    the float64 one at the same values: 50 float32 Adam steps at seed 5,
    then one 32-example batch through both dtypes."""
    config = TrainConfig(fusion_mode=mode, seed=5)
    model = build_model(config, train_set)
    seqs, targets = labelmatch.trainer._tokenize_dataset(model, train_set)
    order = shuffled_indices(len(seqs), config.seed)
    batches = [order[lo:lo + config.batch_size]
               for lo in range(0, 51 * config.batch_size, config.batch_size)]
    for t, batch in enumerate(batches[:50], start=1):
        _, rows = batch_step(model, [seqs[i] for i in batch], [targets[i] for i in batch])
        adam_step(model.store, config.learning_rate, t, rows)
    twin = build_model(config, train_set, dtype=np.float64)
    twin.store.value[...] = model.store.value
    for m in (model, twin):
        batch_step(m, [seqs[i] for i in batches[50]], [targets[i] for i in batches[50]])
    return {p.name: float(np.linalg.norm(p.grad - q.grad) / np.linalg.norm(q.grad))
            for p, q in zip(model.parameters(), twin.parameters())}


def _w1_scaled_in_float32(real, d_out, cache):
    d_x = real(d_out, cache)
    if cache.w1.grad.dtype == np.float32:
        cache.w1.grad *= 1.001
    return d_x


class TestFloat32Gradients:
    """Training runs in float32; its gradients at training shapes must stay
    within rounding of float64's. Measured: at most 2.0e-6 per tensor (atis add
    `b1`), medians 3.2e-7 to 5.2e-7, so a 0.1% error in one tensor stands out.
    A logic bug that both dtypes share is gradcheck's to find."""

    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    @pytest.mark.parametrize("dataset", ["trec6", "atis"])
    def test_agree_with_float64_at_training_shapes(self, request, dataset, mode):
        train_set = load_dataset(request.getfixturevalue(f"{dataset}_train_path"))
        errors = float32_gradient_errors(train_set, mode)
        assert max(errors.values()) < 1e-4, errors

    def test_a_float32_only_error_is_caught(self, trec6_train_path, monkeypatch):
        corrupt_backward(monkeypatch, labelmatch.nncore, "ffn_backward", _w1_scaled_in_float32)
        errors = float32_gradient_errors(load_dataset(trec6_train_path), "none")
        assert errors["w1"] > 1e-4
        assert max(v for name, v in errors.items() if name != "w1") < 1e-4


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        config = TrainConfig(fusion_mode="none", dim=8, seed=42)
        a = init_params(config, vocab_size=30, num_classes=4)
        b = init_params(config, vocab_size=30, num_classes=4)
        assert [p.name for p in a] == [p.name for p in b]
        assert np.array_equal(bits(a.value), bits(b.value))

    def test_different_seed_differs(self):
        a = init_params(TrainConfig(dim=8, seed=1), 30, 4)
        b = init_params(TrainConfig(dim=8, seed=2), 30, 4)
        assert not np.array_equal(a.params[0].value, b.params[0].value)

    def test_biases_start_at_zero(self):
        for mode in ("none", "add"):
            p = named(init_params(TrainConfig(fusion_mode=mode, dim=8, seed=0), 30, 4))
            assert (p["b1"].value == 0).all() and (p["b2"].value == 0).all()
            assert (p["head.b_out"].value == 0).all()

    def test_dot_scale_starts_at_ten(self):
        p = named(init_params(TrainConfig(fusion_mode="dot", dim=8, seed=0), 30, 4))
        assert abs(float(np.exp(p["head.log_scale"].value[0])) - 10.0) < 1e-5

    def test_draws_follow_the_documented_stream_across_blocks(self):
        # emb spans three INIT_BLOCK blocks: element i takes the stream's i-th
        # unit float, and pos continues the stream where emb ends
        block, d = labelmatch.trainer.INIT_BLOCK, 8
        vocab = 2 * block // d + 3
        p = named(init_params(TrainConfig(dim=d, seed=9), vocab, 4, dtype=np.float64))
        stream = mix64(9)

        def draw(c: int, bound: float) -> float:
            u = (mix64(stream + (c + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53
            return (2.0 * u - 1.0) * bound

        emb = p["emb"].value.reshape(-1)
        for i in (0, block - 1, block, 2 * block, emb.size - 1):
            assert emb[i] == draw(i, math.sqrt(6.0 / (vocab + d))), i
        assert p["pos"].value[0, 0] == draw(emb.size, 0.01)

    def test_position_embeddings_are_small(self):
        p = named(init_params(TrainConfig(dim=8, seed=0), 30, 4))
        assert np.abs(p["pos"].value).max() <= 0.01


class TestShuffle:
    def test_is_a_permutation(self):
        idx = shuffled_indices(100, seed=5)
        assert sorted(idx) == list(range(100))

    def test_deterministic(self):
        assert shuffled_indices(50, seed=9) == shuffled_indices(50, seed=9)

    def test_seed_changes_order(self):
        assert shuffled_indices(50, seed=1) != shuffled_indices(50, seed=2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 97, 5452])
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15])
    def test_follows_the_documented_rule(self, n, seed):
        assert shuffled_indices(n, seed) == splitmix64_fisher_yates(n, seed)


class TestTrain:
    def test_zero_epochs_returns_initialization(self, toy_sets):
        train_set, eval_set = toy_sets
        config = TrainConfig(fusion_mode="dot", dim=8, epochs=0, seed=11)
        model, history = train(config, train_set, eval_set)
        assert history.epochs == []
        assert params_equal(model, build_model(config, train_set))

    def test_bit_identical_across_runs(self, toy_sets):
        train_set, eval_set = toy_sets
        config = TrainConfig(fusion_mode="add", dim=8, epochs=3, batch_size=2, seed=4)
        m1, h1 = train(config, train_set, eval_set)
        m2, h2 = train(config, train_set, eval_set)
        assert params_equal(m1, m2)
        assert [(e.train_loss, e.train_acc, e.test_acc) for e in h1.epochs] == \
            [(e.train_loss, e.train_acc, e.test_acc) for e in h2.epochs]

    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_per_tensor_reference_adam_gives_same_bits(self, toy_sets, monkeypatch, mode):
        train_set, eval_set = toy_sets
        config = TrainConfig(fusion_mode=mode, dim=8, epochs=1, batch_size=2, seed=5)
        model, _ = train(config, train_set, eval_set)
        monkeypatch.setattr(labelmatch.trainer, "adam_step", reference.adam_step)
        expected, _ = train(config, train_set, eval_set)
        for p, q in zip(model.parameters(), expected.parameters()):
            for a in ("value", "adam_m", "adam_v"):
                assert np.array_equal(bits(getattr(p, a)), bits(getattr(q, a))), (p.name, a)

    def test_parameters_are_views_of_one_store(self, toy_sets):
        train_set, _ = toy_sets
        for mode in ("none", "add", "dot"):
            assert_one_store(build_model(TrainConfig(fusion_mode=mode, dim=8), train_set))

    def test_memorizes_toy_set(self, toy_sets):
        train_set, _ = toy_sets
        config = TrainConfig(fusion_mode="dot", dim=16, epochs=40, batch_size=3, seed=0)
        model, history = train(config, train_set, train_set)
        assert history.epochs[-1].train_acc == 100.0

    def test_unknown_eval_label_rejected(self, toy_sets):
        train_set, _ = toy_sets
        stranger = make_dataset([Example("weather", "it rains")], split="test")
        with pytest.raises(DataError, match="weather"):
            train(TrainConfig(epochs=1), train_set, stranger)

    def test_initial_loss_near_log_k(self, trec6_train_path):
        # at full vocabulary scale the untrained logits are near zero, so the
        # first batch loss starts within 0.1 of ln 6 for baseline and dot heads
        train_set = load_dataset(trec6_train_path)
        k = len(train_set.label_names)
        for mode in ("none", "dot"):
            config = TrainConfig(fusion_mode=mode, seed=2)
            model = build_model(config, train_set)
            index = {n: i for i, n in enumerate(train_set.label_names)}
            batch = train_set.examples[:32]
            seqs = [tokenize(ex.text, model.vocab, config.max_len) for ex in batch]
            targets = [index[ex.label_name] for ex in batch]
            losses, _ = batch_step(model, seqs, targets)
            for p in model.parameters():
                p.grad[...] = 0
            assert abs(sum(losses) / len(losses) - math.log(k)) < 0.1

    def test_history_entries_per_epoch(self, toy_sets):
        train_set, eval_set = toy_sets
        config = TrainConfig(fusion_mode="none", dim=8, epochs=5, batch_size=2, seed=1)
        _, history = train(config, train_set, eval_set)
        assert [e.epoch for e in history.epochs] == [1, 2, 3, 4, 5]

    def test_invalid_config_rejected(self, toy_sets):
        train_set, eval_set = toy_sets
        with pytest.raises(DataError):
            train(TrainConfig(batch_size=0), train_set, eval_set)
        with pytest.raises(DataError):
            train(TrainConfig(learning_rate=0.0), train_set, eval_set)
        with pytest.raises(DataError):
            train(TrainConfig(fusion_mode="concat"), train_set, eval_set)

    def test_invalid_config_cannot_be_constructed(self):
        with pytest.raises(DataError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(DataError, match="dim"):
            dataclasses.replace(TrainConfig(), dim=0)
        for seed in (-1, 2**64):  # the checkpoint keeps 64 unsigned bits of the seed
            with pytest.raises(DataError, match="seed"):
                TrainConfig(seed=seed)


class TestPredictLogits:
    @pytest.mark.parametrize("mode", ["add", "dot"])
    def test_follows_the_encoder_through_training(self, toy_sets, mode):
        # label vectors encoded before these steps would be stale after them
        train_set, _ = toy_sets
        model = build_model(TrainConfig(fusion_mode=mode, dim=8), train_set)
        seqs, targets = labelmatch.trainer._tokenize_dataset(model, train_set)
        model.predict_logits(seqs[0])
        for t in range(1, 6):
            _, rows = batch_step(model, seqs, targets)
            adam_step(model.store, lr=1e-2, t=t, rows=rows)
        expected, _ = forward(model, pack_batch(model, [seqs[0]]))
        assert np.array_equal(bits(model.predict_logits(seqs[0])), bits(expected[0]))


class TestEvaluate:
    def test_counts_and_breakdown(self, toy_sets):
        train_set, _ = toy_sets
        config = TrainConfig(fusion_mode="dot", dim=16, epochs=40, batch_size=3, seed=0)
        model, _ = train(config, train_set, train_set)
        result = evaluate(model, train_set)
        assert result.correct == result.total == len(train_set.examples)
        assert result.per_class["color"] == (3, 3)
        assert result.per_class["animal"] == (3, 3)

    def test_text_longer_than_a_chunk(self, toy_sets):
        # 700 valid tokens exceed EVAL_ROWS, so that text is a chunk of its own
        train_set, _ = toy_sets
        long_set = make_dataset([*train_set.examples,
                                 Example("animal", " ".join(["dog"] * 700))])
        config = TrainConfig(dim=8, max_len=700, batch_size=2, epochs=1, seed=3)
        assert 700 > labelmatch.trainer.EVAL_ROWS
        model, history = train(config, long_set, long_set)
        assert len(history.epochs) == 1
        result = evaluate(model, long_set)
        assert result.total == len(long_set.examples)
        assert sum(g for g, _ in result.per_class.values()) == result.total

    def test_atis_train_split_eval_memory(self, atis_train_path):
        # traced peak of one pass: 1.3 MiB in 32-example chunks, 1.7 MiB in
        # 512-row chunks, 3.1 MiB in 1,024-row chunks
        train_set = load_dataset(atis_train_path)
        model = build_model(TrainConfig(fusion_mode="dot"), train_set)
        seqs, targets = labelmatch.trainer._tokenize_dataset(model, train_set)
        tracemalloc.start()
        try:
            labelmatch.trainer.evaluate_seqs(model, seqs, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestCheckpoint:
    def test_roundtrip_is_bitwise_identity(self, toy_sets, tmp_path):
        train_set, eval_set = toy_sets
        config = TrainConfig(fusion_mode="add", dim=8, epochs=2, batch_size=2, seed=6)
        model, _ = train(config, train_set, eval_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, model.vocab, model.labels.label_names)
        assert params_equal(model, loaded)
        assert loaded.config == config
        assert_one_store(loaded)
        seq = tokenize("the green cat barked", model.vocab, config.max_len)
        np.testing.assert_array_equal(model.predict_logits(seq),
                                      loaded.predict_logits(seq))

    def test_needs_nothing_but_the_file(self, toy_sets, tmp_path):
        train_set, _ = toy_sets
        verbalizer = {"color": "a colour"}
        model = build_model(TrainConfig(fusion_mode="dot", dim=8), train_set, verbalizer)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.vocab == model.vocab
        assert loaded.labels.label_names == model.labels.label_names
        assert loaded.labels.phrases == ("animal", "a colour")
        for a, b in zip(loaded.labels.token_seqs, model.labels.token_seqs):
            np.testing.assert_array_equal(a.ids, b.ids)

    def test_bad_magic(self, toy_sets, tmp_path):
        train_set, _ = toy_sets
        model = build_model(TrainConfig(dim=8), train_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        body = checkpoint_body(path)
        body[:5] = b"XXXXX"
        write_sealed(path, body)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path, model.vocab, model.labels.label_names)

    def test_given_vocab_must_match(self, toy_sets, tmp_path):
        train_set, _ = toy_sets
        model = build_model(TrainConfig(dim=8), train_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        bigger = make_dataset(list(train_set.examples) +
                              [Example("color", "one extra novel word zzz")])
        other_vocab = build_vocab(bigger)
        with pytest.raises(CheckpointError, match="vocabulary differs"):
            load_checkpoint(path, other_vocab, model.labels.label_names)

    def test_label_count_shape_mismatch(self, toy_sets, tmp_path):
        train_set, _ = toy_sets
        model = build_model(TrainConfig(fusion_mode="none", dim=8), train_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="label names"):
            load_checkpoint(path, model.vocab, ("a", "b", "c"))
        # a stored shape that disagrees with the stored vocabulary
        body = checkpoint_body(path)
        at = body.index(struct.pack("<Q", 3) + b"emb") + 8 + 3 + 8
        assert struct.unpack_from("<Q", body, at) == (len(model.vocab),)
        struct.pack_into("<Q", body, at, len(model.vocab) + 1)
        write_sealed(path, body)
        with pytest.raises(CheckpointError, match=r"shape mismatch: stored emb\["):
            load_checkpoint(path)

    def test_truncated_file(self, toy_sets, tmp_path):
        train_set, _ = toy_sets
        model = build_model(TrainConfig(dim=8), train_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        body = checkpoint_body(path)
        write_sealed(path, body[:len(body) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        write_sealed(path, body[:40])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        path.write_bytes(body[:40])   # unsealed: the trailer no longer matches
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)
        path.write_bytes(body[:20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("names", [("animal", "animal"), ("", "color")])
    def test_label_names_must_be_unique_and_non_empty(self, toy_sets, tmp_path, names):
        # save_checkpoint cannot write such names; a sealed edit must not load
        train_set, _ = toy_sets
        model = build_model(TrainConfig(dim=8), train_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def text(s: str) -> bytes:
            return struct.pack("<Q", len(s.encode())) + s.encode()

        body = checkpoint_body(path)
        stored = text("animal") + text("animal") + text("color") + text("color")
        at = body.index(stored)
        body[at:at + len(stored)] = b"".join(text(name) + text(phrase) for name, phrase
                                             in zip(names, ("animal", "color")))
        write_sealed(path, body)
        with pytest.raises(CheckpointError, match="2 unique non-empty names"):
            load_checkpoint(path)

    def test_failed_write_leaves_previous_checkpoint(self, toy_sets, tmp_path, monkeypatch):
        train_set, _ = toy_sets
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"older contents")
        save_checkpoint(build_model(TrainConfig(dim=8, seed=1), train_set), path)
        assert list(tmp_path.iterdir()) == [path]
        previous = path.read_bytes()
        real_write_str = labelmatch.trainer._write_str

        def disk_full_at_w1(f, text):
            if text == "w1":  # the payloads of emb, pos, wq, wk and wv are written
                raise OSError(errno.ENOSPC, "No space left on device")
            real_write_str(f, text)

        monkeypatch.setattr(labelmatch.trainer, "_write_str", disk_full_at_w1)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(build_model(TrainConfig(dim=8, seed=2), train_set), path)
        assert path.read_bytes() == previous
        assert list(tmp_path.iterdir()) == [path]


class TestNoReferenceCycle:
    @pytest.mark.parametrize("source", ["build_model", "train_then_evaluate",
                                        "load_checkpoint"])
    def test_dropped_model_is_freed_without_the_cyclic_gc(self, toy_sets, tmp_path, source):
        # no tensor refers back to its store, so with the cyclic gc off a
        # dropped model's buffers are freed at once and leave no garbage
        train_set, eval_set = toy_sets
        config = TrainConfig(fusion_mode="dot", dim=8, epochs=1, batch_size=2, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(config, train_set), path)

        def make() -> Model:
            if source == "build_model":
                return build_model(config, train_set)
            if source == "load_checkpoint":
                return load_checkpoint(path)
            model, _ = train(config, train_set, eval_set)
            evaluate(model, eval_set)
            return model

        gc.collect()
        gc.disable()
        try:
            model = make()
            value = weakref.ref(model.store.value)
            del model
            assert value() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


def resident_pages(a: np.ndarray) -> int:
    """How many of the memory pages under `a` are resident, from the present
    bit (63) of each page's /proc/self/pagemap entry."""
    page = os.sysconf("SC_PAGE_SIZE")
    addr = a.__array_interface__["data"][0]
    first, last = addr // page, (addr + a.nbytes - 1) // page
    with open("/proc/self/pagemap", "rb") as f:
        f.seek(8 * first)
        entries = np.frombuffer(f.read(8 * (last - first + 1)), dtype="<u8")
    return int((entries >> np.uint64(63)).sum())


@pytest.mark.skipif(not os.path.exists("/proc/self/pagemap"), reason="Linux page map only")
def test_optimizer_state_stays_unmapped_until_written(trec6_train_path, tmp_path):
    # a loaded model that only evaluates never writes its gradient or
    # moments; from a reused heap chunk, calloc'd zeros would be resident
    train_set = load_dataset(trec6_train_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(TrainConfig(fusion_mode="dot"), train_set), path)
    model = load_checkpoint(path)
    evaluate(model, train_set)
    store = model.store
    assert [resident_pages(a) for a in (store.grad, store.adam_m, store.adam_v)] == [0, 0, 0]
    seqs, targets = labelmatch.trainer._tokenize_dataset(model, train_set)
    batch_step(model, seqs[:32], targets[:32])
    assert resident_pages(store.grad) > 0


FAULTS_PER_STEP = textwrap.dedent("""
    import resource
    import labelmatch as lm
    from labelmatch.trainer import _tokenize_dataset, adam_step, batch_step

    train_set = lm.load_dataset({path!r})
    config = lm.TrainConfig(fusion_mode="dot", seed=0)
    model = lm.build_model(config, train_set)
    seqs, targets = _tokenize_dataset(model, train_set)
    step = 0

    def run(steps):
        global step
        for _ in range(steps):
            lo = step * config.batch_size
            _, rows = batch_step(model, seqs[lo:lo + config.batch_size],
                                 targets[lo:lo + config.batch_size])
            step += 1
            adam_step(model.store, config.learning_rate, step, rows)

    run(20)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(40)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_atis_steps_reuse_freed_heap(atis_train_path):
    """Each ATIS dot step allocates and frees about 1.5 MiB; with the heap
    trimmed after every step, each step faulted 200-500 pages back in."""
    src = Path(labelmatch.trainer.__file__).resolve().parents[1]
    code = FAULTS_PER_STEP.format(path=str(atis_train_path))
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                            capture_output=True, text=True, timeout=300, check=True)
    assert float(result.stdout) <= 10


THREADED_EPOCH = textwrap.dedent("""
    import hashlib
    import labelmatch as lm

    train_set = lm.load_dataset({train!r})
    test_set = lm.load_dataset({test!r}, split="test")
    model, _ = lm.train(lm.TrainConfig(fusion_mode="dot", epochs=1, seed=3),
                        train_set, test_set)
    print(hashlib.sha256(model.store.value.tobytes()).hexdigest())
""")


def test_training_bits_do_not_depend_on_blas_threads(atis_train_path, atis_test_path):
    """From 451 packed rows on, one weight-gradient gemm over every row of an
    ATIS batch summed in a different order under 1 and 2 OpenBLAS threads."""
    src = Path(labelmatch.trainer.__file__).resolve().parents[1]
    code = THREADED_EPOCH.format(train=str(atis_train_path), test=str(atis_test_path))
    hashes = [subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": str(src),
                                  "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
                             capture_output=True, text=True, timeout=300, check=True).stdout
              for threads in ("1", "2")]
    assert hashes[0] == hashes[1]
