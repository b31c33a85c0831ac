"""Finite-difference verification of every backward pass, in float64.

Per-layer checks isolate one primitive with a fixed random projection to a
scalar, and build each head from fusion.head_template as the model does;
full-model checks run the complete text+label pipeline for each fusion mode
on a synthetic corpus. The forward reads the embedding table only at the
pack's ids, so an unread row's central difference is exactly 0 and its
relative error is |g| / max(|g|, 1e-8): check_batch perturbs only the read
rows (and every other parameter) and takes the maximum with that, the same
bits as perturbing every coordinate. A perturbed w1, b1, w2, b2 or head array
leaves the FFN input as it was, so those passes start at the FFN from one
unperturbed pass's cache (`reuse`), again with the same bits. Central
differences are meaningless at a relu kink, so every check with a relu shifts
a bias (or, for the additive head's layer check, a label column) by
`_min_shift` until every preactivation (FFN hidden units, and the fused
vectors of the additive head) clears a safety margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nncore
from .corpus import Example, make_dataset
from .errors import VerificationError
from .fusion import (FUSION_MODES, FusionHead, head_template, score_backward,
                     score_forward, uses_labels)
from .nncore import GradCheckReport, ParamTensor, finite_diff_check
from .trainer import (Model, TrainConfig, _tokenize_dataset, batch_step, build_model, forward,
                      pack_batch, read_rows)

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


def _param(rng: np.random.Generator, name: str, shape) -> ParamTensor:
    return ParamTensor(name, rng.uniform(-0.5, 0.5, size=shape))


def _projected(op_name: str, rng: np.random.Generator, params: list[ParamTensor],
               run, backward) -> GradCheckReport:
    """Check the gradient of sum(proj * out) over `params`.

    run() is the forward pass over the current values, returning (out,
    cache). proj is drawn from `rng` after the parameters. backward(proj,
    cache) accumulates the parameter gradients and returns (input parameter,
    gradient) pairs, which are added here; a None gradient is skipped.
    """
    out, cache = run()
    proj = rng.uniform(-1, 1, size=out.shape)
    for p, grad in backward(proj, cache) or ():
        if grad is not None:
            p.grad += grad
    return finite_diff_check(op_name, lambda: float((proj * run()[0]).sum()), params)


def _min_shift(values: np.ndarray, margin: float) -> float:
    """Smallest upward shift putting every value outside [-margin, margin]."""
    delta = 0.0
    while True:
        shifted = values + delta
        offending = values[(shifted >= -margin) & (shifted <= margin)]
        if offending.size == 0:
            return delta
        delta = 2 * margin - float(offending.min())


def check_embedding() -> GradCheckReport:
    rng = np.random.default_rng(11)
    v, d = 7, 5
    emb = _param(rng, "emb", (v, d))
    pos = _param(rng, "pos", (4, d))
    segs = nncore.segments([4, 2])
    ids = np.array([3, 3, 1, 6, 1, 3])  # duplicate ids within and across segments
    return _projected("embedding", rng, [emb, pos],
                      lambda: nncore.embed_forward(ids, segs.positions, emb, pos),
                      nncore.embed_backward)


def check_attention() -> GradCheckReport:
    rng = np.random.default_rng(12)
    d = 5
    segs = nncore.segments([2, 2, 3, 1])  # a two-segment run, then two single ones
    x = _param(rng, "x", (8, d))
    wq = _param(rng, "wq", (d, d))
    wk = _param(rng, "wk", (d, d))
    wv = _param(rng, "wv", (d, d))
    return _projected("attention", rng, [x, wq, wk, wv],
                      lambda: nncore.attention_forward(x.value, segs, wq, wk, wv),
                      lambda proj, cache: [(x, nncore.attention_backward(proj, cache))])


def check_ffn() -> GradCheckReport:
    rng = np.random.default_rng(13)
    m, d, h = 4, 5, 8
    shapes = (("x", (m, d)), ("w1", (d, h)), ("b1", (h,)), ("w2", (h, d)), ("b2", (d,)))
    x, w1, b1, w2, b2 = params = [_param(rng, *entry) for entry in shapes]
    b1.value += [_min_shift(col, RELU_MARGIN) for col in (x.value @ w1.value + b1.value).T]
    return _projected("ffn", rng, params,
                      lambda: nncore.ffn_forward(x.value, w1, b1, w2, b2),
                      lambda proj, cache: [(x, nncore.ffn_backward(proj, cache))])


def check_mean_pool() -> GradCheckReport:
    rng = np.random.default_rng(14)
    d = 5
    segs = nncore.segments([3, 1, 2])
    x = _param(rng, "x", (6, d))
    return _projected("mean_pool", rng, [x],
                      lambda: (nncore.mean_pool_masked(x.value, segs), segs),
                      lambda proj, cache: [(x, nncore.mean_pool_backward(proj, cache))])


def check_cross_entropy() -> GradCheckReport:
    rng = np.random.default_rng(15)
    logits = _param(rng, "logits", (3, 6))
    targets = np.array([2, 0, 5])

    def loss() -> float:
        return float(nncore.cross_entropy(logits.value, targets)[0].sum())

    _, grad = nncore.cross_entropy(logits.value, targets)
    logits.grad += grad
    return finite_diff_check("cross_entropy", loss, [logits])


def check_head(mode: str) -> GradCheckReport:
    """The `mode` head over parameters drawn in fusion.head_template order:
    uniform draws, log 10 for the log10 rule. For the additive head, label
    column j is shifted so every relu input t[b, j] + L[k, j] clears the margin."""
    rng = np.random.default_rng(16)
    b, k, d = 3, 4, 5
    t, labels = _param(rng, "t", (b, d)), _param(rng, "labels", (k, d))
    head_params = [ParamTensor(name, np.full(shape, np.log(10.0))) if rule == "log10"
                   else _param(rng, name, shape) for name, shape, rule in head_template(mode, k, d)]
    if mode == "add":
        fused = (t.value[:, None, :] + labels.value[None, :, :]).reshape(-1, d)
        labels.value += [_min_shift(col, RELU_MARGIN) for col in fused.T]
    head = FusionHead(mode=mode, **{p.name: p for p in head_params})
    reads = uses_labels(mode)
    return _projected(f"head_{mode}", rng, [t, *head_params] + ([labels] if reads else []),
                      lambda: score_forward(t.value, labels.value if reads else None, head),
                      lambda proj, cache: zip((t, labels), score_backward(proj, cache)))


# --- full model -------------------------------------------------------------------

def _relu_inputs(model: Model, batch) -> tuple[np.ndarray, np.ndarray | None]:
    """From the model's forward pass: the FFN preactivations of every row it
    encodes (recomputed from the cached FFN input), and for the additive head
    the fused text+label vectors (else None)."""
    _, (encode_cache, score_cache) = forward(model, batch)
    ffn = encode_cache.ffn_cache
    fused = score_cache.fused
    return (ffn.x @ ffn.w1.value + ffn.b1.value,
            None if fused is None else fused.reshape(-1, fused.shape[2]))


def _nudge_relu_safe(model: Model, batch, margin: float) -> None:
    """Shift biases so no relu preactivation sits within `margin` of its kink.

    b1[j] enters every FFN preactivation of unit j additively, and (for the
    additive head) b2[j] shifts both the sentence vector and every label
    vector coordinate j, moving the fused values by twice the shift. Both
    adjustments are exact up to rounding, so a couple of passes converge.
    """
    for _ in range(10):
        pre, _ = _relu_inputs(model, batch)
        model.enc.b1.value += [_min_shift(col, margin) for col in pre.T]
        if model.head.mode == "add":
            _, fused = _relu_inputs(model, batch)
            model.enc.b2.value += [_min_shift(col, margin) / 2.0 for col in fused.T]
        if min(float(np.abs(a).min()) for a in _relu_inputs(model, batch)
               if a is not None) > 0.9 * margin:
            return
    raise VerificationError("could not move relu preactivations away from their kinks")


def _synthetic_instance(mode: str, dim: int, max_len: int, vocab_size: int):
    """Tiny corpus whose vocabulary has exactly `vocab_size` entries; returns
    (model, the 3-example batch, its pack_batch pack, targets).

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
    seqs, targets = _tokenize_dataset(model, dataset)
    seqs, targets = [seqs[i] for i in (0, -2, -1)], [targets[i] for i in (0, -2, -1)]
    batch = pack_batch(model, seqs)
    _nudge_relu_safe(model, batch, RELU_MARGIN)
    return model, seqs, batch, targets


def batch_loss(model: Model, batch, targets, reuse=None) -> float:
    """Mean cross-entropy of a pack_batch pack, forward pass only; `reuse` as in forward."""
    logits, _ = forward(model, batch, reuse)
    losses, _ = nncore.cross_entropy(logits, np.asarray(targets))
    return float(losses.mean())


def check_batch(op_name: str, model: Model, batch, targets) -> GradCheckReport:
    """finite_diff_check of batch_loss over model.parameters(), with the
    analytic gradient already in their grads, perturbing of `emb` only the
    rows the pack reads (one view of the table per row). The parameters from
    w1 on cannot move the FFN input, so their forwards reuse the unperturbed
    pass's cache and start at the FFN; every loss keeps its bits."""
    params = model.parameters()
    if not all(np.isfinite(p.grad).all() for p in params):
        return GradCheckReport(op_name=op_name, max_rel_err=math.inf)
    emb = model.enc.emb
    read = read_rows(model, batch)  # the forward's input, not the backward's output
    # an unread row's central difference is exactly 0, so this is its error
    g = np.abs(np.delete(emb.grad, read, axis=0))
    unread_err = float((g / np.maximum(g, 1e-8)).max(initial=0.0))
    rows = []
    for r in read:
        rows.append(ParamTensor("emb", emb.value[r]))
        assert np.shares_memory(rows[-1].value, emb.value)  # perturbations reach the table
        rows[-1].grad[...] = emb.grad[r]
    # eps an order larger than for single layers: cancellation can leave true
    # zeros among these gradients, and the difference-quotient noise floor
    # ulp(f)/(2 eps) must stay well under threshold * 1e-8.
    late = params.index(model.enc.w1)  # declared after emb, pos, wq, wk and wv
    _, (cache, _) = forward(model, batch)
    full = finite_diff_check(op_name, lambda: batch_loss(model, batch, targets),
                             rows + [p for p in params[:late] if p is not emb], eps=1e-4)
    reused = finite_diff_check(op_name, lambda: batch_loss(model, batch, targets, cache),
                               params[late:], eps=1e-4)
    return GradCheckReport(op_name=op_name,
                           max_rel_err=max(full.max_rel_err, reused.max_rel_err, unread_err))


def check_full_model(mode: str, dim: int = 8, max_len: int = 6,
                     vocab_size: int = 50) -> GradCheckReport:
    model, seqs, batch, targets = _synthetic_instance(mode, dim, max_len, vocab_size)
    batch_step(model, seqs, targets)  # fills grads with the mean batch gradient
    return check_batch(f"full_model_{mode}", model, batch, targets)


def run_all(dim: int = 8, max_len: int = 6, vocab_size: int = 50) -> list[CheckOutcome]:
    """Every per-layer and full-model check with its threshold."""
    outcomes = [
        CheckOutcome(check_embedding(), LAYER_THRESHOLD),
        CheckOutcome(check_attention(), LAYER_THRESHOLD),
        CheckOutcome(check_ffn(), LAYER_THRESHOLD),
        CheckOutcome(check_mean_pool(), LAYER_THRESHOLD),
        CheckOutcome(check_cross_entropy(), LAYER_THRESHOLD),
    ]
    outcomes += [CheckOutcome(check_head(mode), LAYER_THRESHOLD) for mode in FUSION_MODES]
    outcomes += [CheckOutcome(check_full_model(mode, dim, max_len, vocab_size), MODEL_THRESHOLD)
                 for mode in FUSION_MODES]
    return outcomes
