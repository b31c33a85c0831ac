"""Finite-difference verification of every backward pass, in float64.

Per-layer checks isolate one primitive with a fixed random projection to a
scalar; full-model checks run the complete text+label pipeline for each
fusion mode on a synthetic corpus. Central differences are meaningless at a
relu kink, so full-model instances get their biases nudged until every
preactivation (FFN hidden units, and the fused vectors of the additive head)
clears a safety margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore
from .corpus import Example, make_dataset, tokenize
from .errors import VerificationError
from .fusion import FusionHead, score_backward, score_forward
from .nncore import GradCheckReport, ParamTensor, finite_diff_check
from .trainer import Model, TrainConfig, batch_step, build_model, forward

LAYER_THRESHOLD = 1e-6
MODEL_THRESHOLD = 1e-3
RELU_MARGIN = 2e-3


@dataclass(frozen=True)
class CheckOutcome:
    report: GradCheckReport
    threshold: float

    @property
    def passed(self) -> bool:
        return self.report.max_rel_err < self.threshold


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _param(rng: np.random.Generator, name: str, shape) -> ParamTensor:
    return ParamTensor(name, rng.uniform(-0.5, 0.5, size=shape))


def check_embedding() -> GradCheckReport:
    rng = _rng(11)
    v, d = 7, 5
    emb = _param(rng, "emb", (v, d))
    pos = _param(rng, "pos", (4, d))
    segs = nncore.segments([4, 2])
    ids = np.array([3, 3, 1, 6, 1, 3])  # duplicate ids within and across segments
    proj = rng.uniform(-1, 1, size=(6, d))

    def loss() -> float:
        out, _ = nncore.embed_forward(ids, segs.positions, emb, pos)
        return float((proj * out).sum())

    out, cache = nncore.embed_forward(ids, segs.positions, emb, pos)
    nncore.embed_backward(proj, cache)
    return finite_diff_check("embedding", loss, [emb, pos])


def check_attention() -> GradCheckReport:
    rng = _rng(12)
    d = 5
    segs = nncore.segments([2, 2, 3, 1])  # a two-segment run, then two single ones
    x = _param(rng, "x", (8, d))
    wq = _param(rng, "wq", (d, d))
    wk = _param(rng, "wk", (d, d))
    wv = _param(rng, "wv", (d, d))
    proj = rng.uniform(-1, 1, size=(8, d))

    def loss() -> float:
        out, _ = nncore.attention_forward(x.value, segs, wq, wk, wv)
        return float((proj * out).sum())

    out, cache = nncore.attention_forward(x.value, segs, wq, wk, wv)
    x.grad += nncore.attention_backward(proj, cache)
    return finite_diff_check("attention", loss, [x, wq, wk, wv])


def check_ffn() -> GradCheckReport:
    m, d, h = 4, 5, 8
    for seed in range(13, 13 + 50):
        rng = _rng(seed)
        x = _param(rng, "x", (m, d))
        w1 = _param(rng, "w1", (d, h))
        b1 = _param(rng, "b1", (h,))
        w2 = _param(rng, "w2", (h, d))
        b2 = _param(rng, "b2", (d,))
        pre = x.value @ w1.value + b1.value
        if np.abs(pre).min() > RELU_MARGIN:
            break
    else:
        raise VerificationError("no relu-safe FFN instance found")
    proj = rng.uniform(-1, 1, size=(m, d))

    def loss() -> float:
        out, _ = nncore.ffn_forward(x.value, w1, b1, w2, b2)
        return float((proj * out).sum())

    out, cache = nncore.ffn_forward(x.value, w1, b1, w2, b2)
    x.grad += nncore.ffn_backward(proj, cache)
    return finite_diff_check("ffn", loss, [x, w1, b1, w2, b2])


def check_mean_pool() -> GradCheckReport:
    rng = _rng(14)
    d = 5
    segs = nncore.segments([3, 1, 2])
    x = _param(rng, "x", (6, d))
    proj = rng.uniform(-1, 1, size=(3, d))

    def loss() -> float:
        return float((proj * nncore.mean_pool_masked(x.value, segs)).sum())

    x.grad += nncore.mean_pool_backward(proj, segs)
    return finite_diff_check("mean_pool", loss, [x])


def check_cross_entropy() -> GradCheckReport:
    rng = _rng(15)
    logits = _param(rng, "logits", (3, 6))
    targets = np.array([2, 0, 5])

    def loss() -> float:
        return float(nncore.cross_entropy(logits.value, targets)[0].sum())

    _, grad = nncore.cross_entropy(logits.value, targets)
    logits.grad += grad
    return finite_diff_check("cross_entropy", loss, [logits])


def _make_head(mode: str, rng: np.random.Generator, k: int, d: int):
    """A head of `mode` with random parameters; returns (head, its parameters)."""
    if mode == "none":
        params = [_param(rng, "head.w_out", (k, d)), _param(rng, "head.b_out", (k,))]
    elif mode == "add":
        params = [_param(rng, "head.w_mix", (d,)), _param(rng, "head.b_out", (k,))]
    else:
        params = [ParamTensor("head.log_scale", np.array([np.log(10.0)]))]
    head = FusionHead(mode=mode, **{p.name.removeprefix("head."): p for p in params})
    return head, params


def check_head(mode: str) -> GradCheckReport:
    b, k, d = 3, 4, 5
    for seed in range(16, 16 + 50):
        rng = _rng(seed)
        t = _param(rng, "t", (b, d))
        labels = _param(rng, "labels", (k, d))
        head, head_params = _make_head(mode, rng, k, d)
        fused = t.value[:, None, :] + labels.value[None, :, :]
        if mode != "add" or np.abs(fused).min() > RELU_MARGIN:
            break
    else:
        raise VerificationError("no relu-safe head instance found")
    proj = rng.uniform(-1, 1, size=(b, k))
    consulted = None if mode == "none" else labels

    def loss() -> float:
        logits, _ = score_forward(t.value, None if consulted is None else consulted.value, head)
        return float((proj * logits).sum())

    logits, cache = score_forward(t.value, None if consulted is None else consulted.value, head)
    d_t, d_labels = score_backward(proj, cache)
    t.grad += d_t
    params = [t] + head_params
    if d_labels is not None:
        labels.grad += d_labels
        params.append(labels)
    return finite_diff_check(f"head_{mode}", loss, params)


# --- full model -------------------------------------------------------------------

def _min_shift(values: np.ndarray, margin: float) -> float:
    """Smallest upward shift putting every value outside [-margin, margin]."""
    delta = 0.0
    while True:
        shifted = values + delta
        offending = values[(shifted >= -margin) & (shifted <= margin)]
        if offending.size == 0:
            return delta
        delta = 2 * margin - float(offending.min())


def _relu_inputs(model: Model, seqs) -> tuple[np.ndarray, np.ndarray | None]:
    """From the model's forward pass: the FFN preactivations of every row it
    encodes (recomputed from the cached FFN input), and for the additive head
    the fused text+label vectors (else None)."""
    _, (encode_cache, score_cache) = forward(model, seqs)
    ffn = encode_cache.ffn_cache
    fused = score_cache.fused
    return (ffn.x @ ffn.w1.value + ffn.b1.value,
            None if fused is None else fused.reshape(-1, fused.shape[2]))


def _nudge_relu_safe(model: Model, seqs, margin: float) -> None:
    """Shift biases so no relu preactivation sits within `margin` of its kink.

    b1[j] enters every FFN preactivation of unit j additively, and (for the
    additive head) b2[j] shifts both the sentence vector and every label
    vector coordinate j, moving the fused values by twice the shift. Both
    adjustments are exact up to rounding, so a couple of passes converge.
    """
    for _ in range(10):
        pre, _ = _relu_inputs(model, seqs)
        for j in range(pre.shape[1]):
            model.enc.b1.value[j] += _min_shift(pre[:, j], margin)

        if model.head.mode == "add":
            _, fused = _relu_inputs(model, seqs)
            for j in range(fused.shape[1]):
                model.enc.b2.value[j] += _min_shift(fused[:, j], margin) / 2.0

        if _min_relu_margin(model, seqs) > 0.9 * margin:
            return
    raise VerificationError("could not move relu preactivations away from their kinks")


def _synthetic_instance(mode: str, dim: int, max_len: int, vocab_size: int):
    """Tiny corpus whose vocabulary has exactly `vocab_size` entries.

    Label names are drawn from the corpus words so verbalization adds no new
    tokens. Biases are nudged so every relu preactivation clears RELU_MARGIN.
    """
    n_words = vocab_size - 2  # minus PAD/UNK
    words = [f"w{i}" for i in range(n_words)]
    texts = []
    for lo in range(0, n_words, max_len):
        texts.append(" ".join(words[lo:lo + max_len]))
    # a few examples with repeats so duplicate-id scatter paths are exercised
    texts.append(" ".join([words[0], words[1], words[0], words[2]][:max_len]))
    texts.append(" ".join([words[3], words[3], words[4]][:max_len]))
    label_names = ("w0", "w1", "w2")
    examples = [Example(label_name=label_names[i % 3], text=t) for i, t in enumerate(texts)]
    dataset = make_dataset(examples, split="train")

    config = TrainConfig(fusion_mode=mode, dim=dim, max_len=max_len, min_freq=1, seed=0)
    model = build_model(config, dataset, dtype=np.float64)
    if len(model.vocab) != vocab_size:
        raise VerificationError(f"synthetic vocab has {len(model.vocab)} entries, "
                                f"wanted {vocab_size}")
    seqs, targets = _gradcheck_batch(model, dataset)
    _nudge_relu_safe(model, seqs, RELU_MARGIN)
    return model, seqs, targets


def _gradcheck_batch(model: Model, dataset):
    index = {name: i for i, name in enumerate(model.labels.label_names)}
    picked = [dataset.examples[i] for i in (0, len(dataset.examples) - 2, len(dataset.examples) - 1)]
    seqs = [tokenize(ex.text, model.vocab, model.config.max_len) for ex in picked]
    targets = [index[ex.label_name] for ex in picked]
    return seqs, targets


def _min_relu_margin(model: Model, seqs) -> float:
    return min(float(np.abs(a).min()) for a in _relu_inputs(model, seqs) if a is not None)


def batch_loss(model: Model, seqs, targets) -> float:
    """Mean cross-entropy of the batch, forward pass only."""
    logits, _ = forward(model, seqs)
    losses, _ = nncore.cross_entropy(logits, np.asarray(targets))
    return float(losses.mean())


def check_full_model(mode: str, dim: int = 8, max_len: int = 6,
                     vocab_size: int = 50) -> GradCheckReport:
    model, seqs, targets = _synthetic_instance(mode, dim, max_len, vocab_size)
    batch_step(model, seqs, targets)  # fills grads with the mean batch gradient
    # eps an order larger than for single layers: cancellation can leave true
    # zeros among these gradients, and the difference-quotient noise floor
    # ulp(f)/(2 eps) must stay well under threshold * 1e-8.
    return finite_diff_check(f"full_model_{mode}",
                             lambda: batch_loss(model, seqs, targets),
                             model.parameters(), eps=1e-4)


def run_all(dim: int = 8, max_len: int = 6, vocab_size: int = 50) -> list[CheckOutcome]:
    """Every per-layer and full-model check with its threshold."""
    outcomes = [
        CheckOutcome(check_embedding(), LAYER_THRESHOLD),
        CheckOutcome(check_attention(), LAYER_THRESHOLD),
        CheckOutcome(check_ffn(), LAYER_THRESHOLD),
        CheckOutcome(check_mean_pool(), LAYER_THRESHOLD),
        CheckOutcome(check_cross_entropy(), LAYER_THRESHOLD),
    ]
    for mode in ("none", "add", "dot"):
        outcomes.append(CheckOutcome(check_head(mode), LAYER_THRESHOLD))
    for mode in ("none", "add", "dot"):
        outcomes.append(CheckOutcome(check_full_model(mode, dim, max_len, vocab_size),
                                     MODEL_THRESHOLD))
    return outcomes
