import numpy as np
import pytest

from labelmatch.fusion import FusionHead, score_backward, score_dot, score_forward
from labelmatch.nncore import ParamTensor, softmax


def head_none(w, b):
    return FusionHead(mode="none", w_out=ParamTensor("w_out", np.asarray(w, dtype=float)),
                      b_out=ParamTensor("b_out", np.asarray(b, dtype=float)))


def head_add(w, b):
    return FusionHead(mode="add", w_mix=ParamTensor("w_mix", np.asarray(w, dtype=float)),
                      b_out=ParamTensor("b_out", np.asarray(b, dtype=float)))


def head_dot(scale=10.0):
    return FusionHead(mode="dot", log_scale=ParamTensor("s", np.log([scale])))


class TestBaseline:
    def test_zero_weights_give_bias(self):
        head = head_none(np.zeros((3, 4)), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(score_forward(np.ones(4), None, head)[0], [1, 2, 3])

    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(0)
        head = head_none(rng.normal(size=(3, 4)), [0.5, -0.5, 0.0])
        np.testing.assert_array_equal(score_forward(np.zeros(4), None, head)[0], [0.5, -0.5, 0.0])

    def test_identity_rows_select_coordinate(self):
        head = head_none(np.eye(4), np.zeros(4))
        e2 = np.zeros(4)
        e2[2] = 1.0
        np.testing.assert_array_equal(score_forward(e2, None, head)[0], e2)

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            score_dot(np.zeros(2), np.eye(2), head_none(np.zeros((3, 2)), np.zeros(3)))


class TestAdd:
    def test_identical_label_rows_differ_only_by_bias(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=4)
        labels = np.tile(row, (3, 1))
        t = rng.normal(size=4)
        head = head_add(rng.normal(size=4), np.zeros(3))
        logits = score_forward(t, labels, head)[0]
        np.testing.assert_allclose(softmax(logits), np.full(3, 1 / 3), atol=1e-12)
        head_b = head_add(head.w_mix.value, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(score_forward(t, labels, head_b)[0] - logits, [1, 2, 3],
                                   atol=1e-12)

    def test_zero_mix_gives_bias(self):
        head = head_add(np.zeros(4), [7.0, 8.0])
        rng = np.random.default_rng(2)
        np.testing.assert_array_equal(
            score_forward(rng.normal(size=4), rng.normal(size=(2, 4)), head)[0], [7.0, 8.0])

    def test_hand_computed_example(self):
        # independent dot-product oracle over the fused vectors
        t = np.array([1.0, 0.0])
        labels = np.array([[0.0, 0.0], [0.0, 2.0]])
        w = [1.0, 1.0]
        expected = [sum(wi * max(ti + li, 0.0) for wi, ti, li in zip(w, t, row))
                    for row in labels]
        assert expected == [1.0, 3.0]
        head = head_add(w, np.zeros(2))
        np.testing.assert_array_equal(score_forward(t, labels, head)[0], [1.0, 3.0])

    def test_k_mismatch(self):
        head = head_add(np.zeros(4), np.zeros(3))
        with pytest.raises(ValueError):
            score_forward(np.zeros(4), np.zeros((2, 4)), head)[0]

    def test_text_changes_move_class_differences(self):
        # the relu makes logit gaps text-dependent, so the head can discriminate
        rng = np.random.default_rng(3)
        labels = rng.normal(size=(3, 6))
        head = head_add(rng.normal(size=6), np.zeros(3))
        t1, t2 = rng.normal(size=6), rng.normal(size=6)
        gaps1 = np.diff(score_forward(t1, labels, head)[0])
        gaps2 = np.diff(score_forward(t2, labels, head)[0])
        assert not np.allclose(gaps1, gaps2)


class TestDot:
    def test_basis_vector_picks_matching_label(self):
        t = np.zeros(4)
        t[0] = 1.0
        logits = score_dot(t, np.eye(4), head_dot())
        assert np.argmax(logits) == 0
        np.testing.assert_allclose(logits, [10.0, 0, 0, 0], atol=1e-12)

    def test_label_scaling_scales_logits_keeps_argmax(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=5)
        labels = rng.normal(size=(3, 5))
        head = head_dot()
        base = score_dot(t, labels, head)
        scaled = score_dot(t, 2.5 * labels, head)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)
        assert np.argmax(scaled) == np.argmax(base)

    def test_orthogonal_text_gives_uniform_softmax(self):
        labels = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])
        t = np.array([0.0, 0, 0, 5.0])
        logits = score_dot(t, labels, head_dot())
        np.testing.assert_array_equal(logits, np.zeros(3))
        np.testing.assert_allclose(softmax(logits), np.full(3, 1 / 3), atol=1e-12)

    def test_scale_clamped_at_hundred(self):
        head = head_dot(scale=5000.0)
        t = np.array([1.0, 0.0])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(score_dot(t, labels, head), [100.0, 0.0])

    def test_bilinearity(self):
        rng = np.random.default_rng(5)
        head = head_dot()
        for _ in range(200):
            t = rng.normal(size=6).astype(np.float32)
            u = rng.normal(size=6).astype(np.float32)
            labels = rng.normal(size=(4, 6)).astype(np.float32)
            alpha, beta = rng.normal(), rng.normal()
            lhs = score_dot((alpha * t + beta * u).astype(np.float32), labels, head)
            rhs = alpha * score_dot(t, labels, head) + beta * score_dot(u, labels, head)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-4)


class TestModeIsolation:
    def test_baseline_ignores_labels_entirely(self):
        rng = np.random.default_rng(6)
        head = head_none(rng.normal(size=(3, 4)), rng.normal(size=3))
        t = rng.normal(size=4)
        with_labels = score_forward(t, rng.normal(size=(3, 4)), head)[0]
        np.testing.assert_array_equal(score_forward(t, None, head)[0], with_labels)

    @pytest.mark.parametrize("mode", ["add", "dot"])
    def test_label_rows_influence_scores(self, mode):
        rng = np.random.default_rng(7)
        t = rng.normal(size=4)
        labels = rng.normal(size=(3, 4))
        head = head_add(rng.normal(size=4), rng.normal(size=3)) if mode == "add" \
            else head_dot()
        base = score_forward(t, labels, head)[0]
        bumped = labels.copy()
        bumped[1] += 1.0
        assert not np.array_equal(score_forward(t, bumped, head)[0], base)

    @pytest.mark.parametrize("mode", ["add", "dot"])
    def test_labels_required(self, mode):
        head = head_add(np.zeros(4), np.zeros(3)) if mode == "add" else head_dot()
        with pytest.raises(ValueError):
            score_forward(np.zeros(4), None, head)


class TestBackward:
    @pytest.mark.parametrize("mode", ["none", "add", "dot"])
    def test_matches_finite_differences(self, mode):
        from labelmatch.gradcheck import check_head
        report = check_head(mode)
        assert report.max_rel_err < 1e-6

    def test_clamped_scale_stops_gradient(self):
        head = head_dot(scale=5000.0)
        t = np.array([1.0, 2.0])
        labels = np.array([[0.5, 0.5], [1.0, -1.0]])
        logits, cache = score_forward(t, labels, head)
        score_backward(np.array([1.0, 1.0]), cache)
        assert head.log_scale.grad[0] == 0.0
