"""The packed forward/backward against the per-example reference, and the
dtype every activation and gradient keeps."""

import numpy as np
import pytest

import labelmatch.nncore
import labelmatch.trainer
import per_example_reference as reference
from labelmatch.corpus import Example, make_dataset, tokenize
from labelmatch.encoder import encode, encode_labels_forward
from labelmatch.fusion import score_forward
from labelmatch.trainer import (TrainConfig, adam_step, batch_step, build_model,
                                evaluate_seqs, forward)

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
        adam_step(model.parameters(), lr=1e-2, t=step)
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
        close(forward(model, seqs)[0], ref_logits)
        # scoring the reference's predictions as gold: all correct iff all agree
        preds = reference.predict(model, seqs)
        result = evaluate_seqs(model, seqs, preds)
        assert result.correct == result.total == len(seqs)

        # 8-row chunks split the sorted lengths 1,2,2 | 4 | 6 | 7 | 7: the
        # predictions must still come back in input order
        chunks = []
        real = labelmatch.trainer.encode_batch_forward

        def counted(chunk, enc):
            chunks.append(len(chunk))
            return real(chunk, enc)

        monkeypatch.setattr(labelmatch.trainer, "EVAL_ROWS", 8)
        monkeypatch.setattr(labelmatch.trainer, "encode_batch_forward", counted)
        result = evaluate_seqs(model, seqs, preds)
        assert chunks == [3, 1, 1, 1, 1]
        assert result.correct == result.total == len(seqs)


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
