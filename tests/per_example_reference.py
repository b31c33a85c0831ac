"""Per-example reference for the packed forward/backward, and a per-tensor
reference for the flat, blocked Adam pass.

One sequence at a time, one example at a time: the encoder, heads and
cross-entropy as plain numpy loops, in the order the library computed them
before batches were packed. Gradients go into a fresh dict keyed by
parameter name, so the model under test is only read. Tests compare the
packed path against this in float64, where only the summation order
differs.

`adam_step` is the optimizer as one loop over parameter tensors, and over
the given rows of the leading matrix, the rows a batch reads, which it
updates whatever their gradient. The flat pass keeps its elementwise
arithmetic, so tests require bit-identical results from the two.

`attention_forward`/`attention_backward` are the packed attention with every
softmax step run once per run of equal-length segments. The library runs
those steps once over all runs' scores; the arithmetic per element is the
same, so tests require bit-identical results from the two.
"""

from __future__ import annotations

import math

import numpy as np

from labelmatch.errors import TrainingError
from labelmatch.nncore import weight_grad

MAX_DOT_SCALE = 100.0


def _values(model) -> dict[str, np.ndarray]:
    return {p.name: p.value for p in model.parameters()}


def encode_forward(seq, v):
    """Embed + residual attention/FFN block + mean pooling of one sequence."""
    ids = seq.ids[: seq.true_len]
    n = len(ids)
    x0 = v["emb"][ids] + v["pos"][:n]
    d = x0.shape[1]
    scale = 1.0 / math.sqrt(d)
    q, k, val = x0 @ v["wq"], x0 @ v["wk"], x0 @ v["wv"]
    scores = (q @ k.T) * scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    x1 = x0 + w @ val
    pre = x1 @ v["w1"] + v["b1"]
    hidden = np.maximum(pre, 0)
    x2 = x1 + hidden @ v["w2"] + v["b2"]
    vec = x2.sum(axis=0) / x2.dtype.type(n)
    cache = dict(ids=ids, x0=x0, q=q, k=k, v=val, w=w, scale=scale, x1=x1,
                 pre=pre, hidden=hidden, n=n)
    return vec, cache


def encode_backward(d_vec, c, v, grads) -> None:
    d_x2 = np.tile(d_vec / d_vec.dtype.type(c["n"]), (c["n"], 1))
    grads["w2"] += c["hidden"].T @ d_x2
    grads["b2"] += d_x2.sum(axis=0)
    d_pre = (d_x2 @ v["w2"].T) * (c["pre"] > 0)
    grads["w1"] += c["x1"].T @ d_pre
    grads["b1"] += d_pre.sum(axis=0)
    d_x1 = d_x2 + d_pre @ v["w1"].T
    w = c["w"]
    d_v = w.T @ d_x1
    d_w = d_x1 @ c["v"].T
    d_scores = w * (d_w - (d_w * w).sum(axis=1, keepdims=True)) * c["scale"]
    d_q = d_scores @ c["k"]
    d_k = d_scores.T @ c["q"]
    x0 = c["x0"]
    grads["wq"] += x0.T @ d_q
    grads["wk"] += x0.T @ d_k
    grads["wv"] += x0.T @ d_v
    d_x0 = d_x1 + d_q @ v["wq"].T + d_k @ v["wk"].T + d_v @ v["wv"].T
    np.add.at(grads["emb"], c["ids"], d_x0)
    grads["pos"][: c["n"]] += d_x0


def score_forward(t, labels, mode, v):
    if mode == "none":
        return v["head.w_out"] @ t + v["head.b_out"], {}
    if mode == "add":
        fused = t + labels
        return np.maximum(fused, 0) @ v["head.w_mix"] + v["head.b_out"], {"fused": fused}
    raw = float(np.exp(v["head.log_scale"][0]))
    scale = min(raw, MAX_DOT_SCALE)
    return scale * (labels @ t), {"scale": scale, "clamped": raw > MAX_DOT_SCALE}


def score_backward(d_logits, t, labels, mode, c, v, grads):
    """Returns (d_t, d_labels or None)."""
    if mode == "none":
        grads["head.w_out"] += np.outer(d_logits, t)
        grads["head.b_out"] += d_logits
        return v["head.w_out"].T @ d_logits, None
    if mode == "add":
        grads["head.w_mix"] += np.maximum(c["fused"], 0).T @ d_logits
        grads["head.b_out"] += d_logits
        d_fused = np.outer(d_logits, v["head.w_mix"]) * (c["fused"] > 0)
        return d_fused.sum(axis=0), d_fused
    if not c["clamped"]:
        grads["head.log_scale"] += c["scale"] * float(d_logits @ (labels @ t))
    return c["scale"] * (labels.T @ d_logits), c["scale"] * np.outer(d_logits, t)


def cross_entropy(logits, target):
    shifted = logits - logits.max()
    log_z = math.log(np.exp(shifted).sum())
    grad = np.exp(shifted - log_z)
    grad[target] -= 1
    return log_z - float(shifted[target]), grad


def batch_step(model, seqs, targets):
    """(per-example losses, {name: mean batch gradient}) by the per-example loop."""
    v = _values(model)
    mode = model.head.mode
    grads = {name: np.zeros_like(value) for name, value in v.items()}
    labels = label_caches = d_labels_total = None
    if mode != "none":
        pairs = [encode_forward(seq, v) for seq in model.labels.token_seqs]
        labels = np.stack([vec for vec, _ in pairs])
        label_caches = [cache for _, cache in pairs]
        d_labels_total = np.zeros_like(labels)
    losses = []
    for seq, target in zip(seqs, targets):
        t, enc_cache = encode_forward(seq, v)
        logits, score_cache = score_forward(t, labels, mode, v)
        loss, d_logits = cross_entropy(logits, target)
        losses.append(loss)
        d_logits *= 1.0 / len(seqs)
        d_t, d_labels = score_backward(d_logits, t, labels, mode, score_cache, v, grads)
        encode_backward(d_t, enc_cache, v, grads)
        if d_labels is not None:
            d_labels_total += d_labels
    if label_caches is not None:
        for d_row, cache in zip(d_labels_total, label_caches):
            encode_backward(d_row, cache, v, grads)
    return losses, grads


def predict(model, seqs) -> list[int]:
    v = _values(model)
    labels = None
    if model.head.mode != "none":
        labels = np.stack([encode_forward(seq, v)[0] for seq in model.labels.token_seqs])
    return [int(np.argmax(score_forward(encode_forward(seq, v)[0], labels,
                                        model.head.mode, v)[0])) for seq in seqs]


def _adam_update(value, grad, m, v, lr, t, beta1, beta2, eps) -> None:
    m *= beta1
    m += (1 - beta1) * grad
    v *= beta2
    v += (1 - beta2) * (grad * grad)
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_step(params, lr, t, rows, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Bias-corrected Adam, one tensor at a time; zeroes each grad it reads after.

    The leading matrix is updated one row at a time at `rows` alone, whatever
    their gradient; every other row keeps its value, moments and gradient."""
    table, *rest = params
    for row in rows:
        if not np.isfinite(table.grad[row]).all():
            raise TrainingError(f"non-finite gradient in parameter {table.name!r}")
        _adam_update(table.value[row], table.grad[row], table.adam_m[row], table.adam_v[row],
                     lr, t, beta1, beta2, eps)
        table.grad[row] = 0
    for p in rest:
        if not np.isfinite(p.grad).all():
            raise TrainingError(f"non-finite gradient in parameter {p.name!r}")
        _adam_update(p.value, p.grad, p.adam_m, p.adam_v, lr, t, beta1, beta2, eps)
        p.grad[...] = 0


def attention_forward(x, segs, v):
    """(output, per-run (count, length, length) softmax weights)."""
    d = x.shape[1]
    scale = 1.0 / math.sqrt(d)
    q, k, val = x @ v["wq"], x @ v["wk"], x @ v["wv"]
    out = np.empty_like(val)
    weights = []
    for lo, count, length in segs.runs:
        hi = lo + count * length
        block = (count, length, d)
        scores = q[lo:hi].reshape(block) @ k[lo:hi].reshape(block).transpose(0, 2, 1)
        scores *= scale
        scores -= scores.max(axis=2, keepdims=True)
        e = np.exp(scores)
        w = e / e.sum(axis=2, keepdims=True)
        out[lo:hi] = (w @ val[lo:hi].reshape(block)).reshape(-1, d)
        weights.append(w)
    return out, weights


def attention_backward(d_out, x, segs, weights, v, grads):
    """d_x for the forward above; adds the wq, wk and wv gradients to grads."""
    d = x.shape[1]
    scale = 1.0 / math.sqrt(d)
    q, k, val = x @ v["wq"], x @ v["wk"], x @ v["wv"]
    d_q, d_k, d_v = (np.empty_like(d_out) for _ in range(3))
    for (lo, count, length), w in zip(segs.runs, weights):
        hi = lo + count * length
        block = (count, length, d)
        d_o = d_out[lo:hi].reshape(block)
        d_v[lo:hi] = (w.transpose(0, 2, 1) @ d_o).reshape(-1, d)
        d_w = d_o @ val[lo:hi].reshape(block).transpose(0, 2, 1)
        d_scores = w * (d_w - (d_w * w).sum(axis=2, keepdims=True))
        d_scores *= scale
        d_q[lo:hi] = (d_scores @ k[lo:hi].reshape(block)).reshape(-1, d)
        d_k[lo:hi] = (d_scores.transpose(0, 2, 1) @ q[lo:hi].reshape(block)).reshape(-1, d)
    grads["wq"] += weight_grad(x, d_q)
    grads["wk"] += weight_grad(x, d_k)
    grads["wv"] += weight_grad(x, d_v)
    return d_q @ v["wq"].T + d_k @ v["wk"].T + d_v @ v["wv"].T
