"""Independent bag-of-words multinomial logistic regression.

Used as the accuracy yardstick for the desk-scale floor: same lowercased
whitespace tokenization as the package, but nothing else shared - features,
model, and optimizer live entirely in this file.
"""

import numpy as np


def _flatten(rows, vocab):
    doc_idx, tok_idx = [], []
    for i, (_, text) in enumerate(rows):
        for tok in text.lower().split():
            j = vocab.get(tok)
            if j is not None:
                doc_idx.append(i)
                tok_idx.append(j)
    return np.asarray(doc_idx), np.asarray(tok_idx)


def _accuracy(w, b, doc_idx, tok_idx, y, n):
    logits = np.tile(b, (n, 1))
    np.add.at(logits, doc_idx, w[tok_idx])
    return 100.0 * float((logits.argmax(axis=1) == y).mean())


def read_tsv(path):
    with open(path, encoding="utf-8") as f:
        return [tuple(line.split("\t", 1)) for line in f.read().splitlines()]


def bow_logistic_regression(train_rows, test_rows, iters=300, lr=0.05, l2=1e-5):
    """Full-batch training from zero weights; returns (train_acc, test_acc)."""
    labels = sorted({lab for lab, _ in train_rows})
    lab_idx = {lab: i for i, lab in enumerate(labels)}
    vocab = {}
    for _, text in train_rows:
        for tok in text.lower().split():
            vocab.setdefault(tok, len(vocab))

    tr_d, tr_t = _flatten(train_rows, vocab)
    te_d, te_t = _flatten(test_rows, vocab)
    y_tr = np.array([lab_idx[lab] for lab, _ in train_rows])
    y_te = np.array([lab_idx.get(lab, -1) for lab, _ in test_rows])
    n, v, k = len(train_rows), len(vocab), len(labels)

    w = np.zeros((v, k))
    b = np.zeros(k)
    m_w, v_w = np.zeros_like(w), np.zeros_like(w)
    m_b, v_b = np.zeros_like(b), np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y_tr] = 1.0

    for t in range(1, iters + 1):
        logits = np.tile(b, (n, 1))
        np.add.at(logits, tr_d, w[tr_t])
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        g_w = l2 * w
        np.add.at(g_w, tr_t, g[tr_d])
        g_b = g.sum(axis=0)
        for value, grad, m, s in ((w, g_w, m_w, v_w), (b, g_b, m_b, v_b)):
            m *= beta1
            m += (1 - beta1) * grad
            s *= beta2
            s += (1 - beta2) * grad * grad
            value -= lr * (m / (1 - beta1**t)) / (np.sqrt(s / (1 - beta2**t)) + eps)

    return (_accuracy(w, b, tr_d, tr_t, y_tr, n),
            _accuracy(w, b, te_d, te_t, y_te, len(test_rows)))


def majority_class_accuracy(test_rows):
    """Share of the modal test label, as a percentage."""
    counts = {}
    for lab, _ in test_rows:
        counts[lab] = counts.get(lab, 0) + 1
    return 100.0 * max(counts.values()) / len(test_rows)
