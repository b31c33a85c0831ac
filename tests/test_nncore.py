import math

import numpy as np
import pytest

from labelmatch import nncore
from labelmatch.errors import DataError
from labelmatch.nncore import (ParamStore, ParamTensor, attention_backward,
                               attention_forward, cross_entropy, embed_backward,
                               embed_forward, ffn_backward, ffn_forward,
                               finite_diff_check, mean_pool_backward,
                               mean_pool_masked, segments, softmax)


def embed(ids, emb, pos):
    """Embed one sequence: positions 0..len-1."""
    ids = np.asarray(ids, dtype=np.int64)
    return embed_forward(ids, np.arange(len(ids)), emb, pos)


def param(rng, name, shape):
    return ParamTensor(name, rng.uniform(-0.5, 0.5, size=shape))


class TestParamStore:
    def test_views_laid_out_in_declaration_order(self):
        store = ParamStore([("a", (2, 3)), ("s", ()), ("b", (4,))], dtype=np.float64)
        assert store.value.shape == (11,) and store.value.dtype == np.float64
        a, s, b = store.params
        assert list(store) == [a, s, b]
        assert (a.value.shape, s.value.shape, b.value.shape) == ((2, 3), (), (4,))
        b.value[...] = 7.0
        b.grad[0] = 1.0
        np.testing.assert_array_equal(store.value[7:], 7.0)
        assert store.grad[7] == 1.0 and store.grad[:7].sum() == 0

    def test_array_is_wrapped_without_copy(self):
        value = np.arange(6.0).reshape(2, 3)
        p = ParamTensor("p", value)
        assert not hasattr(p, "store")
        assert p.value is value
        for buf in (p.grad, p.adam_m, p.adam_v):
            assert buf.shape == (2, 3) and buf.dtype == value.dtype and not buf.any()
            assert not np.shares_memory(buf, value)
        p.value[1, 2] = -1.0
        assert value[1, 2] == -1.0


class TestEmbed:
    def test_duplicate_ids_accumulate(self):
        rng = np.random.default_rng(0)
        emb = ParamTensor("emb", rng.normal(size=(5, 3)))
        pos = ParamTensor("pos", np.zeros((2, 3)))
        upstream = rng.normal(size=(2, 3))
        _, cache = embed([2, 2], emb, pos)
        embed_backward(upstream, cache)
        np.testing.assert_array_equal(emb.grad[2], upstream[0] + upstream[1])

    def test_zero_embeddings_give_positions(self):
        emb = ParamTensor("emb", np.zeros((5, 3)))
        pos = ParamTensor("pos", np.random.default_rng(1).normal(size=(4, 3)))
        out, _ = embed([0, 1, 2, 3], emb, pos)
        np.testing.assert_array_equal(out, pos.value)

    def test_id_out_of_range(self):
        emb = ParamTensor("emb", np.zeros((3, 2)))
        pos = ParamTensor("pos", np.zeros((2, 2)))
        with pytest.raises(DataError, match="out of range"):
            embed([0, 7], emb, pos)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        emb = param(rng, "emb", (6, 4))
        pos = param(rng, "pos", (5, 4))
        ids = [1, 4, 1, 0, 5]
        proj = rng.uniform(-1, 1, size=(5, 4))

        def loss():
            out, _ = embed(ids, emb, pos)
            return float((proj * out).sum())

        _, cache = embed(ids, emb, pos)
        embed_backward(proj, cache)
        report = finite_diff_check("embed", loss, [emb, pos])
        assert report.max_rel_err < 1e-6


class TestAttention:
    def test_single_valid_position_returns_its_value_row(self):
        # a length-1 segment attends only to itself, even packed before a longer one
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        wq, wk, wv = (param(rng, n, (5, 5)) for n in "qkv")
        out, _ = attention_forward(x, segments([1, 3]), wq, wk, wv)
        np.testing.assert_allclose(out[0], x[0] @ wv.value, rtol=1e-12)

    def test_identical_rows_give_uniform_attention(self):
        rng = np.random.default_rng(4)
        row = rng.normal(size=5)
        x = np.tile(row, (4, 1))
        wq, wk, wv = (param(rng, n, (5, 5)) for n in "qkv")
        out, _ = attention_forward(x, segments([4]), wq, wk, wv)
        np.testing.assert_allclose(out, np.tile(row @ wv.value, (4, 1)), rtol=1e-12)

    def test_appended_padding_is_bit_exact(self):
        # rows of the next segment, whatever they hold, cannot reach this one
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5))
        wq, wk, wv = (param(rng, n, (5, 5)) for n in "qkv")
        segs = segments([3, 3])
        out_a, _ = attention_forward(np.vstack([x, rng.normal(size=(3, 5))]), segs, wq, wk, wv)
        out_b, _ = attention_forward(np.vstack([x, rng.normal(size=(3, 5))]), segs, wq, wk, wv)
        np.testing.assert_array_equal(out_a[:3], out_b[:3])

    def test_all_masked_rejected(self):
        wq = wk = wv = ParamTensor("w", np.eye(2))
        with pytest.raises(DataError):
            attention_forward(np.zeros((2, 2)), segments([2, 0]), wq, wk, wv)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = param(rng, "x", (6, 5))
        wq, wk, wv = (param(rng, n, (5, 5)) for n in "qkv")
        segs = segments([1, 1, 3, 1])
        proj = rng.uniform(-1, 1, size=(6, 5))

        def loss():
            out, _ = attention_forward(x.value, segs, wq, wk, wv)
            return float((proj * out).sum())

        _, cache = attention_forward(x.value, segs, wq, wk, wv)
        x.grad += attention_backward(proj, cache)
        report = finite_diff_check("attn", loss, [x, wq, wk, wv])
        assert report.max_rel_err < 1e-6


class TestFfn:
    def test_zero_weights_give_bias(self):
        w1 = ParamTensor("w1", np.zeros((3, 8)))
        b1 = ParamTensor("b1", np.zeros(8))
        w2 = ParamTensor("w2", np.zeros((8, 3)))
        b2 = ParamTensor("b2", np.array([1.0, -2.0, 0.5]))
        out, _ = ffn_forward(np.random.default_rng(7).normal(size=(4, 3)), w1, b1, w2, b2)
        np.testing.assert_array_equal(out, np.tile(b2.value, (4, 1)))

    def test_dead_relu_blocks_w1_gradient(self):
        rng = np.random.default_rng(8)
        w1 = ParamTensor("w1", rng.uniform(0.1, 0.5, size=(3, 8)))
        b1 = ParamTensor("b1", np.full(8, -100.0))  # preactivations all negative
        w2 = param(rng, "w2", (8, 3))
        b2 = ParamTensor("b2", rng.normal(size=3))
        x = rng.uniform(-1, 1, size=(4, 3))
        out, cache = ffn_forward(x, w1, b1, w2, b2)
        np.testing.assert_array_equal(out, np.tile(b2.value, (4, 1)))
        ffn_backward(rng.normal(size=(4, 3)), cache)
        assert (w1.grad == 0).all()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for attempt in range(20):
            x = param(rng, "x", (4, 3))
            w1 = param(rng, "w1", (3, 8))
            b1 = param(rng, "b1", (8,))
            w2 = param(rng, "w2", (8, 3))
            b2 = param(rng, "b2", (3,))
            pre = x.value @ w1.value + b1.value
            if np.abs(pre).min() > 1e-3:  # stay away from the relu kink
                break
        proj = rng.uniform(-1, 1, size=(4, 3))

        def loss():
            out, _ = ffn_forward(x.value, w1, b1, w2, b2)
            return float((proj * out).sum())

        _, cache = ffn_forward(x.value, w1, b1, w2, b2)
        x.grad += ffn_backward(proj, cache)
        report = finite_diff_check("ffn", loss, [x, w1, b1, w2, b2])
        assert report.max_rel_err < 1e-6


class TestMeanPool:
    def test_two_rows(self):
        x = np.array([[1.0], [3.0], [99.0]])
        np.testing.assert_array_equal(mean_pool_masked(x, segments([2, 1])), [[2.0], [99.0]])

    def test_identical_rows(self):
        v = np.array([0.5, -1.5, 2.0])
        x = np.tile(v, (4, 1))
        np.testing.assert_array_equal(mean_pool_masked(x, segments([4])), [v])

    def test_pad_rows_ignored_bit_exact(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 4))
        short = mean_pool_masked(x, segments([3]))
        padded = np.vstack([x, rng.normal(size=(2, 4))])
        np.testing.assert_array_equal(mean_pool_masked(padded, segments([3, 2]))[:1], short)

    def test_all_masked_rejected(self):
        with pytest.raises(DataError):
            mean_pool_masked(np.zeros((2, 2)), segments([0, 2]))

    def test_backward_distributes_evenly(self):
        d_x = mean_pool_backward(np.array([[4.0, 8.0], [0.0, 0.0]]), segments([2, 1]))
        np.testing.assert_array_equal(d_x, [[2.0, 4.0], [2.0, 4.0], [0.0, 0.0]])


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(6)), np.full(6, 1 / 6), atol=1e-12)

    def test_quarter_three_quarters(self):
        np.testing.assert_allclose(softmax(np.array([0.0, math.log(3)])), [0.25, 0.75],
                                   atol=1e-12)

    def test_shift_by_max_is_bitwise_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.uniform(-10, 10, size=6)
            np.testing.assert_array_equal(softmax(z), softmax(z - z.max()))

    def test_additive_shift_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            z = rng.uniform(-10, 10, size=5)
            c = rng.uniform(-20, 20)
            np.testing.assert_allclose(softmax(z + c), softmax(z), rtol=1e-12, atol=1e-15)

    def test_neg_inf_maps_to_zero(self):
        p = softmax(np.array([0.0, -np.inf, 0.0]))
        assert p[1] == 0.0
        assert abs(p.sum() - 1.0) < 1e-6

    def test_all_neg_inf_rejected(self):
        with pytest.raises(DataError):
            softmax(np.array([-np.inf, -np.inf]))

    def test_single_entry_rejected(self):
        with pytest.raises(DataError):
            softmax(np.array([1.0]))


class TestCrossEntropy:
    def test_uniform_six_way(self):
        loss, _ = cross_entropy(np.zeros(6), 3)
        assert abs(loss - math.log(6)) < 1e-12
        assert abs(loss - 1.791759) < 1e-6

    def test_two_way(self):
        loss, grad = cross_entropy(np.zeros(2), 0)
        assert abs(loss - math.log(2)) < 1e-12
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-12)

    def test_confident_correct_prediction(self):
        logits = np.array([50.0, 0.0, 0.0])
        loss, _ = cross_entropy(logits, 0)
        assert 0 <= loss < 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(DataError):
            cross_entropy(np.zeros(3), 3)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            logits = rng.uniform(-5, 5, size=k)
            _, grad = cross_entropy(logits, int(rng.integers(0, k)))
            assert abs(grad.sum()) < 1e-6

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            logits = rng.uniform(-10, 10, size=4)
            loss, _ = cross_entropy(logits, int(rng.integers(0, 4)))
            assert loss >= 0


class TestFiniteDiffCheck:
    def test_quadratic_gradient(self):
        theta = ParamTensor("theta", np.random.default_rng(15).normal(size=(4, 3)))

        def loss():
            return float((theta.value ** 2).sum())

        theta.grad += 2 * theta.value
        report = finite_diff_check("quadratic", loss, [theta])
        assert report.max_rel_err < 1e-9

    def test_linear_layer_cross_entropy_composite(self):
        rng = np.random.default_rng(16)
        w = param(rng, "w", (4, 5))
        b = param(rng, "b", (4,))
        x = rng.normal(size=5)
        target = 2

        def forward():
            return w.value @ x + b.value

        def loss():
            return cross_entropy(forward(), target)[0]

        _, d_logits = cross_entropy(forward(), target)
        w.grad += np.outer(d_logits, x)
        b.grad += d_logits
        report = finite_diff_check("linear+ce", loss, [w, b])
        assert report.max_rel_err < 1e-6

    def test_eps_bounds_enforced(self):
        theta = ParamTensor("theta", np.ones(2))
        with pytest.raises(ValueError):
            finite_diff_check("x", lambda: 0.0, [theta], eps=1e-2)

    def test_non_finite_objective_rejected(self):
        theta = ParamTensor("theta", np.ones(2))
        with pytest.raises(ValueError):
            finite_diff_check("x", lambda: float("nan"), [theta])

    def test_detects_a_corrupted_gradient(self):
        theta = ParamTensor("theta", np.random.default_rng(17).normal(size=3))

        def loss():
            return float((theta.value ** 2).sum())

        theta.grad += 2 * theta.value
        theta.grad[1] += 0.25  # deliberately wrong
        report = finite_diff_check("corrupt", loss, [theta])
        assert report.max_rel_err > 1e-2

    @pytest.mark.parametrize("grad", [[np.nan, np.nan], [np.inf, 4.0]], ids=["nan", "inf"])
    def test_non_finite_gradient_fails(self, grad):
        # a NaN relative error compares false against any running maximum
        theta = ParamTensor("theta", np.array([1.0, 2.0]))
        theta.grad += grad
        report = finite_diff_check("x", lambda: float((theta.value ** 2).sum()), [theta])
        assert report.max_rel_err == np.inf
