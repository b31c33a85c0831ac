"""The packed forward/backward against the per-example reference, packed
attention against the per-run reference, the dtype every activation and
gradient keeps, and the reuse of one pack across passes."""

import numpy as np
import pytest

import labelmatch.encoder
import labelmatch.nncore
import labelmatch.trainer
import per_example_reference as reference
from labelmatch.corpus import Example, load_dataset, make_dataset, tokenize, tokenize_texts
from labelmatch.encoder import encode, encode_batch_forward, encode_labels_forward
from labelmatch.nncore import attention_backward, attention_forward, segments
from labelmatch.fusion import score_forward
from labelmatch.trainer import (TrainConfig, adam_step, batch_step, build_model,
                                evaluate_seqs, forward, pack_batch)

EXAMPLES = [
    Example("flight_time", "what time does the first flight leave"),
    Example("ground_service", "is there a taxi from the airport"),
    Example("flight_time", "when does it land"),
    Example("airfare", "how much is a ticket to boston"),
    Example("ground_service", "car rental in denver please"),
    Example("airfare", "cheapest fare"),
    Example("flight_time", "flight time to denver denver"),
]
TEXTS = ["what time does the flight leave boston", "cheapest fare", "taxi",
         "how much is the first flight", "car rental", "the airport the airport",
         "when does the flight to denver land"]


def bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint8)


def close(packed, ref):
    """Tolerance fixed in advance: only the summation order differs."""
    np.testing.assert_allclose(packed, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max())


def float64_model(mode):
    config = TrainConfig(fusion_mode=mode, dim=8, max_len=8, batch_size=3, seed=5)
    model = build_model(config, make_dataset(EXAMPLES), dtype=np.float64)
    seqs = [tokenize(t, model.vocab, 8) for t in TEXTS]
    targets = [i % 3 for i in range(len(seqs))]
    for step in range(1, 4):  # move off the initialization, so no bias is zero
        batch_step(model, seqs[:3], targets[:3])
        adam_step(model.store, lr=1e-2, t=step)
    return model, seqs, targets


@pytest.mark.parametrize("mode", ["none", "add", "dot"])
class TestAgainstPerExampleReference:
    def test_losses_and_every_gradient(self, mode):
        model, seqs, targets = float64_model(mode)
        ref_losses, ref_grads = reference.batch_step(model, seqs, targets)
        losses = batch_step(model, seqs, targets)
        close(np.array(losses), np.array(ref_losses))
        for p in model.parameters():
            assert np.abs(ref_grads[p.name]).max() > 0, p.name
            close(p.grad, ref_grads[p.name])
            p.zero_grad()

    def test_logits_and_eval_predictions(self, mode, monkeypatch):
        model, seqs, _ = float64_model(mode)
        v = {p.name: p.value for p in model.parameters()}
        labels = None
        if mode != "none":
            labels = np.stack([reference.encode_forward(s, v)[0]
                               for s in model.labels.token_seqs])
        ref_logits = np.stack([reference.score_forward(reference.encode_forward(s, v)[0],
                                                       labels, mode, v)[0] for s in seqs])
        close(forward(model, pack_batch(model, seqs))[0], ref_logits)
        # scoring the reference's predictions as gold: all correct iff all agree
        preds = reference.predict(model, seqs)
        result = evaluate_seqs(model, seqs, preds)
        assert result.correct == result.total == len(seqs)

        # 8-row chunks split the sorted lengths 1,2,2 | 4 | 6 | 7 | 7: the
        # predictions must still come back in input order
        chunks = []
        real = labelmatch.trainer.encode_batch_forward

        def counted(chunk, enc):
            chunks.append(chunk.order.size)
            return real(chunk, enc)

        monkeypatch.setattr(labelmatch.trainer, "EVAL_ROWS", 8)
        monkeypatch.setattr(labelmatch.trainer, "encode_batch_forward", counted)
        result = evaluate_seqs(model, seqs, preds)
        assert chunks == [3, 1, 1, 1, 1]
        assert result.correct == result.total == len(seqs)


def attention_pack(pack, dtype, data_dir):
    """(x, segs, wq, wk, wv) of one attention call.

    A dataset pack is what a training step of the `dot` head feeds attention:
    32 texts, 3 one-word texts and the K label phrases, embedded and packed
    as encode_batch_forward packs them. "single-rows" mixes runs of
    one-row segments with short runs of longer ones.
    """
    rng = np.random.default_rng(11)
    if pack == "single-rows":
        segs = segments([1, 1, 1, 2, 1, 3, 3, 1, 1, 4])
        x = rng.normal(size=(segs.positions.size, 8)).astype(dtype)
        wq, wk, wv = (labelmatch.nncore.ParamTensor(n, rng.normal(size=(8, 8)).astype(dtype))
                      for n in ("wq", "wk", "wv"))
        return x, segs, wq, wk, wv
    train_set = load_dataset(data_dir / f"{pack}.train.tsv", split="train")
    model = build_model(TrainConfig(fusion_mode="dot", seed=3), train_set, dtype=dtype)
    texts = [ex.text for ex in train_set.examples[:32]]
    texts += [ex.text.split()[0] for ex in train_set.examples[32:35]]
    seqs = tokenize_texts(texts, model.vocab, model.config.max_len)
    batch = labelmatch.encoder.pack(seqs + list(model.labels.token_seqs))
    _, cache = encode_batch_forward(batch, model.enc)
    enc = model.enc
    return cache.attn_cache.x, cache.pack.segs, enc.wq, enc.wk, enc.wv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pack", ["trec6", "atis", "single-rows"])
def test_attention_matches_per_run_reference_bitwise(pack, dtype, data_dir):
    x, segs, wq, wk, wv = attention_pack(pack, dtype, data_dir)
    runs = segs.runs
    assert any(length == 1 for _, _, length in runs)
    assert any(count > 1 and length >= 3 for _, count, length in runs)
    row_len = np.repeat(segs.lengths, segs.lengths)
    assert np.array_equal(segs.row_len, row_len)
    assert np.array_equal(segs.row_end, np.cumsum(row_len))
    v = {p.name: p.value for p in (wq, wk, wv)}
    out, cache = attention_forward(x, segs, wq, wk, wv)
    ref_out, ref_weights = reference.attention_forward(x, segs, v)
    assert out.dtype == dtype and np.array_equal(bits(out), bits(ref_out))
    flat = np.concatenate([w.reshape(-1) for w in ref_weights])
    assert np.array_equal(bits(cache.weights), bits(flat))

    d_out = np.random.default_rng(12).normal(size=x.shape).astype(dtype)
    grads = {name: np.zeros_like(value) for name, value in v.items()}
    for p in (wq, wk, wv):
        p.zero_grad()
    d_x = attention_backward(d_out, cache)
    ref_d_x = reference.attention_backward(d_out, x, segs, ref_weights, v, grads)
    assert d_x.dtype == dtype and np.array_equal(bits(d_x), bits(ref_d_x))
    for p in (wq, wk, wv):
        assert np.array_equal(bits(p.grad), bits(grads[p.name])), p.name


def _record_float_dtypes(monkeypatch, module, names, seen):
    for name in names:
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name):
            out = _real(*args)
            for value in (*args, *(out if isinstance(out, tuple) else (out,))):
                if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    seen.append((_name, value.dtype))
            return out

        monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["none", "add", "dot"])
def test_activations_and_gradients_keep_parameter_dtype(mode, dtype, monkeypatch):
    config = TrainConfig(fusion_mode=mode, dim=8, max_len=8, seed=1)
    model = build_model(config, make_dataset(EXAMPLES), dtype=dtype)
    seqs = [tokenize(t, model.vocab, 8) for t in TEXTS]
    vec = encode(seqs[0], model.enc)
    labels = None if mode == "none" else encode_labels_forward(model.labels, model.enc)[0]
    logits, _ = score_forward(vec, labels, model.head)
    assert vec.dtype == dtype and logits.dtype == dtype

    seen = []
    _record_float_dtypes(monkeypatch, labelmatch.nncore,
                         ["embed_forward", "embed_backward", "attention_forward",
                          "attention_backward", "ffn_forward", "ffn_backward",
                          "mean_pool_masked", "mean_pool_backward"], seen)
    _record_float_dtypes(monkeypatch, labelmatch.trainer,
                         ["score_forward", "score_backward", "cross_entropy"], seen)
    batch_step(model, seqs, [i % 3 for i in range(len(seqs))])
    called = {name for name, _ in seen}
    assert len(called) == 11, called
    assert [entry for entry in seen if entry[1] != dtype] == []
    assert all(p.grad.dtype == dtype for p in model.parameters())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_pack_serves_every_pass(dtype, monkeypatch):
    # gradcheck runs thousands of forwards over one pack: a pass that wrote
    # into it would change every later pass
    model = build_model(TrainConfig(fusion_mode="dot", dim=8, max_len=8, seed=2),
                        make_dataset(EXAMPLES), dtype=dtype)
    seqs = [tokenize(t, model.vocab, 8) for t in TEXTS]
    batch = pack_batch(model, seqs)
    segs = batch.segs
    arrays = {"order": batch.order, "ids": batch.ids, "lengths": segs.lengths,
              "starts": segs.starts, "positions": segs.positions,
              "row_len": segs.row_len, "row_end": segs.row_end}
    assert not any(a.flags.writeable for a in arrays.values())
    before = {name: a.copy() for name, a in arrays.items()}

    first, second = forward(model, batch)[0], forward(model, batch)[0]
    fresh = forward(model, pack_batch(model, seqs))[0]
    assert first.dtype == dtype
    assert np.array_equal(bits(first), bits(fresh)) and np.array_equal(bits(second), bits(fresh))

    reused = []

    def reuse(_model, _seqs):
        reused.append(batch)
        return batch

    monkeypatch.setattr(labelmatch.trainer, "pack_batch", reuse)
    batch_step(model, seqs, [i % 3 for i in range(len(seqs))])
    assert reused == [batch]
    for name, a in arrays.items():
        assert np.array_equal(a, before[name]), name
