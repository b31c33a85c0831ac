import pytest

import labelmatch.nncore
from labelmatch.gradcheck import (LAYER_THRESHOLD, MODEL_THRESHOLD, RELU_MARGIN,
                                  _nudge_relu_safe, _synthetic_instance,
                                  batch_loss, check_full_model, run_all)
from labelmatch.nncore import finite_diff_check
from labelmatch.trainer import adam_step, batch_step


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
            adam_step(model.parameters(), lr=1e-3, t=step)
        _nudge_relu_safe(model, batch, RELU_MARGIN)
        batch_step(model, seqs, targets)
        report = finite_diff_check(f"trained_{mode}",
                                   lambda: batch_loss(model, batch, targets),
                                   model.parameters(), eps=1e-4)
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
