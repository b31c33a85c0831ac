"""Scoring heads turning a sentence vector into K class logits.

Three modes:

* "none": plain linear classifier, logits = W t + b; label embeddings are
  never consulted.
* "add": label embedding added to the sentence vector, passed through a
  relu, and scored by a shared vector: logits[k] = w . relu(t + L[k]) + b[k].
  The relu is what lets class differences depend on the text; without it
  every logit would shift by the same w . t and the softmax would collapse
  to a text-independent distribution.
* "dot": temperature-scaled matching score, logits[k] = exp(s) * (t . L[k]),
  with a learnable log inverse-temperature s; exp(s) is clamped to at
  most 100.

Each head's parameters (names, shapes, init rules) are declared once, in
head_template, and uses_labels says which heads read the label matrix. Each
rule is written once, in score_forward and score_backward, over a (B, d)
batch of sentence vectors giving (B, K) logits; a single (d,) vector gives
(K,) logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import ParamTensor, weight_grad

FUSION_MODES = ("none", "add", "dot")
MAX_DOT_SCALE = 100.0


@dataclass
class FusionHead:
    """Parameters of one scoring head; only its own mode's fields exist."""

    mode: str
    w_out: ParamTensor | None = None
    b_out: ParamTensor | None = None
    w_mix: ParamTensor | None = None
    log_scale: ParamTensor | None = None


def head_template(mode: str, k: int, d: int) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init rule) for every parameter of a `mode` head over K
    classes and d-vectors, in declaration order; names are FusionHead fields."""
    if mode == "none":
        return [("w_out", (k, d), "xavier"), ("b_out", (k,), "zero")]
    if mode == "add":
        return [("w_mix", (d,), "xavier"), ("b_out", (k,), "zero")]
    return [("log_scale", (1,), "log10")]


def uses_labels(mode: str) -> bool:
    """Whether a `mode` head reads the label matrix."""
    return mode != "none"


@dataclass
class FusionCache:
    head: FusionHead
    t: np.ndarray                      # (B, d)
    labels: np.ndarray | None = None
    fused: np.ndarray | None = None    # add: t + L per (example, class), pre-relu
    scale: float = 0.0                 # dot: clamped exp(s)
    scale_clamped: bool = False


def _require_labels(head: FusionHead, t: np.ndarray, labels: np.ndarray) -> None:
    if labels.shape[1] != t.shape[-1]:
        raise ValueError(f"label matrix dim {labels.shape[1]} vs sentence dim {t.shape[-1]}")
    if head.mode == "add" and labels.shape[0] != head.b_out.value.shape[0]:
        raise ValueError(f"label matrix has {labels.shape[0]} rows, head expects "
                         f"{head.b_out.value.shape[0]}")


def score_dot(t: np.ndarray, labels: np.ndarray, head: FusionHead) -> np.ndarray:
    if head.mode != "dot":
        raise ValueError(f"head is {head.mode!r}, not 'dot'")
    return score_forward(t, labels, head)[0]


def score_forward(t: np.ndarray, labels: np.ndarray | None, head: FusionHead):
    """Dispatch on head.mode; returns (logits, cache) for the backward pass."""
    if head.mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {head.mode!r}")
    tb = np.atleast_2d(t)
    if uses_labels(head.mode):
        if labels is None:
            raise ValueError(f"{head.mode!r} fusion needs a label matrix")
        _require_labels(head, tb, labels)
    if head.mode == "none":
        logits = tb @ head.w_out.value.T + head.b_out.value
        cache = FusionCache(head=head, t=tb)
    elif head.mode == "add":
        fused = tb[:, None, :] + labels[None, :, :]
        logits = np.maximum(fused, 0) @ head.w_mix.value + head.b_out.value
        cache = FusionCache(head=head, t=tb, labels=labels, fused=fused)
    else:
        raw = float(np.exp(head.log_scale.value[0]))
        clamped = raw > MAX_DOT_SCALE
        scale = MAX_DOT_SCALE if clamped else raw
        logits = scale * (tb @ labels.T)
        cache = FusionCache(head=head, t=tb, labels=labels,
                            scale=scale, scale_clamped=clamped)
    return (logits[0] if t.ndim == 1 else logits), cache


def score_backward(d_logits: np.ndarray, cache: FusionCache):
    """Accumulate head gradients; returns (d_t, d_labels or None), d_t shaped
    like the t given to score_forward and d_labels summed over the batch."""
    head = cache.head
    d = np.atleast_2d(d_logits)
    d_labels = None
    if head.mode == "none":
        head.w_out.grad += d.T @ cache.t
        head.b_out.grad += d.sum(axis=0)
        d_t = d @ head.w_out.value
    elif head.mode == "add":
        relu = np.maximum(cache.fused, 0)
        head.w_mix.grad += weight_grad(relu.reshape(-1, relu.shape[2]), d.reshape(-1))
        head.b_out.grad += d.sum(axis=0)
        d_fused = d[:, :, None] * head.w_mix.value * (cache.fused > 0)
        d_t = d_fused.sum(axis=1)
        d_labels = d_fused.sum(axis=0)
    else:
        if not cache.scale_clamped:  # clamp active -> zero gradient into s
            dots = cache.t @ cache.labels.T
            head.log_scale.grad += cache.scale * float((d * dots).sum())
        d_t = cache.scale * (d @ cache.labels)
        d_labels = cache.scale * (d.T @ cache.t)
    return (d_t[0] if d_logits.ndim == 1 else d_t), d_labels
