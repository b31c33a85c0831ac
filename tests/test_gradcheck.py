import math
import warnings

import numpy as np
import pytest

import labelmatch.gradcheck
import labelmatch.nncore
from conftest import EMBED_BACKWARD_CORRUPTIONS, corrupt_embed_backward, last_row_set_to
from labelmatch.gradcheck import (LAYER_THRESHOLD, MODEL_THRESHOLD, RELU_MARGIN,
                                  _nudge_relu_safe, _synthetic_instance,
                                  batch_loss, check_batch, check_full_model, run_all)
from labelmatch.nncore import finite_diff_check
from labelmatch.trainer import adam_step, batch_step


def all_coordinate_check(mode, vocab_size):
    """The full-model check as it ran before the read-row rule: every
    coordinate of every parameter, the unread embedding rows included."""
    model, seqs, batch, targets = _synthetic_instance(mode, dim=8, max_len=6,
                                                      vocab_size=vocab_size)
    batch_step(model, seqs, targets)
    return finite_diff_check(f"full_model_{mode}", lambda: batch_loss(model, batch, targets),
                             model.parameters(), eps=1e-4)


def assert_same_bits(report, reference):
    assert report.op_name == reference.op_name
    assert report.max_rel_err.hex() == reference.max_rel_err.hex(), (report, reference)


class TestFullModel:
    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_full_model_backward(self, mode):
        report = check_full_model(mode)
        assert report.max_rel_err < MODEL_THRESHOLD

    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_gradients_stay_correct_at_trained_points(self, mode):
        # the init-point check alone could miss state bugs that only build up
        # over optimizer steps (stale caches, moment leakage into grads)
        model, seqs, batch, targets = _synthetic_instance(mode, dim=8, max_len=6,
                                                          vocab_size=50)
        for step in range(1, 31):
            batch_step(model, seqs, targets)
            adam_step(model.store, lr=1e-3, t=step)
        _nudge_relu_safe(model, batch, RELU_MARGIN)
        batch_step(model, seqs, targets)
        report = check_batch(f"trained_{mode}", model, batch, targets)
        for p in model.parameters():
            p.zero_grad()
        assert report.max_rel_err < MODEL_THRESHOLD

    def test_finite_differences_reuse_one_pack(self, monkeypatch):
        # every pack calls nncore.segments once; the parent built one per
        # perturbed forward, about 2,400 per check at vocab 50
        real = labelmatch.nncore.segments
        builds = []

        def counted(lengths):
            builds.append(len(lengths))
            return real(lengths)

        monkeypatch.setattr(labelmatch.nncore, "segments", counted)
        counts = []
        for vocab_size in (20, 50):
            builds.clear()
            check_full_model("dot", vocab_size=vocab_size)
            counts.append(len(builds))
        assert counts[0] == counts[1] and 1 <= counts[0] <= 3, counts

    @pytest.mark.parametrize("vocab_size", [20, 50])
    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_bitwise_equal_to_the_all_coordinate_check(self, mode, vocab_size):
        assert_same_bits(check_full_model(mode, vocab_size=vocab_size),
                         all_coordinate_check(mode, vocab_size))

    @pytest.mark.parametrize("corruption", sorted(EMBED_BACKWARD_CORRUPTIONS))
    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_bitwise_equal_under_a_corrupted_embedding_backward(self, mode, corruption,
                                                               monkeypatch):
        corrupt_embed_backward(monkeypatch, EMBED_BACKWARD_CORRUPTIONS[corruption])
        report = check_full_model(mode)
        assert report.max_rel_err >= MODEL_THRESHOLD
        assert_same_bits(report, all_coordinate_check(mode, 50))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_non_finite_gradient_in_an_unread_row_fails(self, mode, value, monkeypatch):
        model, _, batch, _ = _synthetic_instance(mode, dim=8, max_len=6, vocab_size=50)
        assert len(model.vocab) - 1 not in batch.ids
        corrupt_embed_backward(monkeypatch, last_row_set_to(value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_full_model(mode).max_rel_err == math.inf

    def test_cost_follows_the_read_rows_not_the_vocabulary(self, monkeypatch):
        # one base forward, then two per coordinate outside `emb` and per
        # coordinate of an embedding row that the pack reads
        real = labelmatch.gradcheck.batch_loss
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(labelmatch.gradcheck, "batch_loss", counted)
        counts = []
        for vocab_size in (20, 50, 128):
            calls.clear()
            check_full_model("dot", vocab_size=vocab_size)
            counts.append(len(calls))
            model, _, batch, _ = _synthetic_instance("dot", dim=8, max_len=6,
                                                     vocab_size=vocab_size)
            outside = sum(p.value.size for p in model.parameters() if p is not model.enc.emb)
            assert counts[-1] == 1 + 2 * (outside + 8 * len(np.unique(batch.ids)))
        assert counts[0] == counts[1] == counts[2], counts


class TestRunAll:
    def test_everything_passes_with_expected_thresholds(self):
        outcomes = run_all()
        assert len(outcomes) == 11
        layer_names = {"embedding", "attention", "ffn", "mean_pool", "cross_entropy",
                       "head_none", "head_add", "head_dot"}
        for outcome in outcomes:
            expected = LAYER_THRESHOLD if outcome.report.op_name in layer_names \
                else MODEL_THRESHOLD
            assert outcome.threshold == expected
            assert outcome.passed, outcome.report
