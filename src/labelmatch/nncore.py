"""Layer primitives with explicit forward and backward passes.

Each forward returns (output, cache); the matching backward consumes the
cache, accumulates parameter gradients into ParamTensor.grad, and returns
the gradient w.r.t. its input. No layer allocates optimizer state or
touches global state.

Arrays keep the dtype of the parameters they are built from: float32 for
training, float64 when a model is built for gradient checking.

Packing: the encoder stacks the valid rows of many sequences back to back
in one array, and `Segments` records where each sequence starts. Row-wise
layers (embedding, FFN) run once over all rows. Attention's matmuls run once
per run of equal-length segments as a batched matmul, its softmax once over
the scores of all runs, and pooling sums each segment's own rows. No
padding row exists, so no sequence's output can be perturbed by padding or
by the other sequences in its pack.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Rows per partial product of a weight gradient. OpenBLAS splits one long
# `x.T @ d` row reduction by its thread count (ATIS bits differed between 1
# and 2 threads from 451 packed rows on); fixed chunks summed in order do not.
GRAD_CHUNK_ROWS = 256


class ParamStore:
    """One contiguous buffer each for the values, gradients and Adam moments
    of a list of parameters, laid out in declaration order. The gradients and
    moments are the rows of one private anonymous mapping, so a page of them
    takes memory only once written (calloc would memset a reused heap chunk).

    `params` holds one ParamTensor per (name, shape), each a view into the
    four buffers, so the optimizer can update every parameter in one pass.
    Iterating the store walks `params`.
    """

    __slots__ = ("value", "grad", "adam_m", "adam_v", "params")

    def __init__(self, shapes: list[tuple[str, tuple[int, ...]]], dtype=np.float32):
        size = sum(math.prod(shape) for _, shape in shapes)
        # unmapped when the last view dies; never resident in a model only evaluated
        flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
        state = np.frombuffer(mmap.mmap(-1, 3 * size * np.dtype(dtype).itemsize, **flags),
                              dtype=dtype, count=3 * size).reshape(3, size)
        bufs = (np.zeros(size, dtype=dtype), *state)
        self.value, self.grad, self.adam_m, self.adam_v = bufs
        params, lo = [], 0
        for name, shape in shapes:
            hi = lo + math.prod(shape)
            p = ParamTensor.__new__(ParamTensor)
            p.name = name
            p.value, p.grad, p.adam_m, p.adam_v = (buf[lo:hi].reshape(shape) for buf in bufs)
            params.append(p)
            lo = hi
        self.params: tuple[ParamTensor, ...] = tuple(params)

    def __iter__(self):
        return iter(self.params)


class ParamTensor:
    """A trainable array with its gradient and Adam moment buffers: views into
    a ParamStore's buffers, holding no reference back to it, or, built
    directly, `value` itself (not copied) with fresh zero gradient and moments."""

    __slots__ = ("name", "value", "grad", "adam_m", "adam_v")

    def __init__(self, name: str, value: np.ndarray):
        self.name, self.value = name, value
        self.grad, self.adam_m, self.adam_v = (np.zeros(value.shape, value.dtype) for _ in range(3))

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.value.shape})"


@dataclass(frozen=True)
class GradCheckReport:
    op_name: str
    max_rel_err: float


# --- packed layout ---------------------------------------------------------------

@dataclass(frozen=True)
class Segments:
    """Sequences packed back to back into the rows of one array.

    Segment i occupies rows starts[i] : starts[i] + lengths[i], and its j-th
    row sits at position j. `runs` lists the maximal stretches of consecutive
    equal-length segments as (first row, segment count, length); attention
    treats each stretch as one (count, length, d) block.
    """

    lengths: np.ndarray
    starts: np.ndarray
    positions: np.ndarray
    runs: tuple[tuple[int, int, int], ...]
    row_len: np.ndarray   # packed row r's attention softmax row has row_len[r]
    row_end: np.ndarray   # entries and ends at row_end[r] in the flat scores


def segments(lengths) -> Segments:
    """Layout of segments with these lengths, packed in the order given."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0 or int(lengths.min()) < 1:
        raise DataError("every packed sequence needs at least one valid position")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    positions = np.arange(ends[-1]) - np.repeat(starts, lengths)
    first = np.flatnonzero(np.concatenate(([True], lengths[1:] != lengths[:-1])))
    counts = np.diff(np.append(first, lengths.size))
    runs = tuple(zip(starts[first].tolist(), counts.tolist(), lengths[first].tolist()))
    row_len = np.repeat(lengths, lengths)
    return Segments(lengths=lengths, starts=starts, positions=positions, runs=runs,
                    row_len=row_len, row_end=np.cumsum(row_len))


def weight_grad(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x.T @ d, summed over consecutive GRAD_CHUNK_ROWS-row chunks in order."""
    out = x[:GRAD_CHUNK_ROWS].T @ d[:GRAD_CHUNK_ROWS]
    for lo in range(GRAD_CHUNK_ROWS, x.shape[0], GRAD_CHUNK_ROWS):
        out += x[lo:lo + GRAD_CHUNK_ROWS].T @ d[lo:lo + GRAD_CHUNK_ROWS]
    return out


def _scatter_add(grad: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """grad[index[r]] += rows[r]; rows sharing an index are summed in row order
    first, so each touched row of grad takes one addition."""
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    first = np.flatnonzero(np.concatenate(([True], sorted_index[1:] != sorted_index[:-1])))
    grad[sorted_index[first]] += np.add.reduceat(rows[order], first, axis=0)


# --- embedding ----------------------------------------------------------------

@dataclass
class EmbedCache:
    ids: np.ndarray
    positions: np.ndarray
    emb: ParamTensor
    pos: ParamTensor


def embed_forward(ids: np.ndarray, positions: np.ndarray,
                  emb: ParamTensor, pos: ParamTensor):
    """Row r of the output is emb[ids[r]] + pos[positions[r]]."""
    vocab_size = emb.value.shape[0]
    if int(ids.max()) >= vocab_size:
        raise DataError(f"token id {int(ids.max())} out of range for V={vocab_size}")
    if int(positions.max()) >= pos.value.shape[0]:
        raise DataError(f"sequence length {int(positions.max()) + 1} exceeds position "
                        f"table {pos.value.shape[0]}")
    out = emb.value[ids] + pos.value[positions]
    return out, EmbedCache(ids=ids, positions=positions, emb=emb, pos=pos)


def embed_backward(d_out: np.ndarray, cache: EmbedCache) -> None:
    _scatter_add(cache.emb.grad, cache.ids, d_out)
    _scatter_add(cache.pos.grad, cache.positions, d_out)


# --- attention ------------------------------------------------------------------

@dataclass
class AttnCache:
    segs: Segments
    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    weights: np.ndarray    # every run's (count, length, length) row softmaxes, flat
    scale: float
    wq: ParamTensor
    wk: ParamTensor
    wv: ParamTensor


def _square_blocks(flat: np.ndarray, segs: Segments) -> list[np.ndarray]:
    """Each run's (count, length, length) block of a buffer that holds the
    runs' blocks back to back, in run order."""
    blocks, lo = [], 0
    for _, count, length in segs.runs:
        hi = lo + count * length * length
        blocks.append(flat[lo:hi].reshape(count, length, length))
        lo = hi
    return blocks


def _row_sums(blocks: list[np.ndarray], segs: Segments) -> np.ndarray:
    """Sum of every block row, one per packed row. Each run sums along its
    last axis, as a per-run softmax does; np.add.reduceat over the flat
    buffer would add in another order and change bits from length 3 on."""
    sums = np.empty(segs.positions.size, dtype=blocks[0].dtype)
    for (lo, count, length), block in zip(segs.runs, blocks):
        block.sum(axis=2, out=sums[lo:lo + count * length].reshape(count, length))
    return sums


def attention_forward(x: np.ndarray, segs: Segments,
                      wq: ParamTensor, wk: ParamTensor, wv: ParamTensor):
    """Single-head scaled dot-product attention within each segment.

    A row attends to every row of its own segment and to no other row. Each
    run's scores are one batched matmul into a flat buffer that holds every
    run's scores; the softmax's elementwise steps run once over that buffer.
    """
    d = x.shape[1]
    scale = 1.0 / math.sqrt(d)
    q = x @ wq.value
    k = x @ wk.value
    v = x @ wv.value
    w = np.empty(int(segs.row_end[-1]), dtype=q.dtype)
    blocks = _square_blocks(w, segs)
    for (lo, count, length), block in zip(segs.runs, blocks):
        hi = lo + count * length
        shape = (count, length, d)
        np.matmul(q[lo:hi].reshape(shape), k[lo:hi].reshape(shape).transpose(0, 2, 1),
                  out=block)
    w *= scale
    w -= np.repeat(np.maximum.reduceat(w, segs.row_end - segs.row_len), segs.row_len)
    np.exp(w, out=w)
    w /= np.repeat(_row_sums(blocks, segs), segs.row_len)
    out = np.empty_like(v)
    for (lo, count, length), block in zip(segs.runs, blocks):
        hi = lo + count * length
        shape = (count, length, d)
        np.matmul(block, v[lo:hi].reshape(shape), out=out[lo:hi].reshape(shape))
    return out, AttnCache(segs=segs, x=x, q=q, k=k, v=v, weights=w, scale=scale,
                          wq=wq, wk=wk, wv=wv)


def attention_backward(d_out: np.ndarray, cache: AttnCache) -> np.ndarray:
    segs, w = cache.segs, cache.weights
    d = d_out.shape[1]
    d_q = np.empty_like(d_out)
    d_k = np.empty_like(d_out)
    d_v = np.empty_like(d_out)
    d_w = np.empty_like(w)   # d_loss/d_weights, then d_loss/d_scores in place
    w_blocks, d_blocks = _square_blocks(w, segs), _square_blocks(d_w, segs)
    for (lo, count, length), w_block, d_block in zip(segs.runs, w_blocks, d_blocks):
        hi = lo + count * length
        shape = (count, length, d)
        d_o = d_out[lo:hi].reshape(shape)
        np.matmul(w_block.transpose(0, 2, 1), d_o, out=d_v[lo:hi].reshape(shape))
        np.matmul(d_o, cache.v[lo:hi].reshape(shape).transpose(0, 2, 1), out=d_block)
    d_w -= np.repeat(_row_sums(_square_blocks(d_w * w, segs), segs), segs.row_len)
    d_w *= w
    d_w *= cache.scale
    for (lo, count, length), d_block in zip(segs.runs, d_blocks):
        hi = lo + count * length
        shape = (count, length, d)
        np.matmul(d_block, cache.k[lo:hi].reshape(shape), out=d_q[lo:hi].reshape(shape))
        np.matmul(d_block.transpose(0, 2, 1), cache.q[lo:hi].reshape(shape),
                  out=d_k[lo:hi].reshape(shape))
    cache.wq.grad += weight_grad(cache.x, d_q)
    cache.wk.grad += weight_grad(cache.x, d_k)
    cache.wv.grad += weight_grad(cache.x, d_v)
    return d_q @ cache.wq.value.T + d_k @ cache.wk.value.T + d_v @ cache.wv.value.T


# --- position-wise feed-forward ----------------------------------------------

@dataclass
class FfnCache:
    x: np.ndarray
    hidden: np.ndarray   # relu(x @ w1 + b1)
    w1: ParamTensor
    b1: ParamTensor
    w2: ParamTensor
    b2: ParamTensor


def ffn_forward(x: np.ndarray, w1: ParamTensor, b1: ParamTensor,
                w2: ParamTensor, b2: ParamTensor):
    """relu(x @ w1 + b1) @ w2 + b2, applied row-wise."""
    hidden = x @ w1.value
    hidden += b1.value
    np.maximum(hidden, 0, out=hidden)
    out = hidden @ w2.value + b2.value
    return out, FfnCache(x=x, hidden=hidden, w1=w1, b1=b1, w2=w2, b2=b2)


def ffn_backward(d_out: np.ndarray, cache: FfnCache) -> np.ndarray:
    cache.w2.grad += weight_grad(cache.hidden, d_out)
    cache.b2.grad += d_out.sum(axis=0)
    d_pre = d_out @ cache.w2.value.T
    d_pre *= cache.hidden > 0  # equals pre > 0: relu'(0) is taken as 0
    cache.w1.grad += weight_grad(cache.x, d_pre)
    cache.b1.grad += d_pre.sum(axis=0)
    return d_pre @ cache.w1.value.T


# --- segment mean pooling -------------------------------------------------------

def _counts(segs: Segments, dtype) -> np.ndarray:
    # cast, or an int64 divisor would promote float32 rows to float64
    return segs.lengths.astype(dtype)[:, None]


def mean_pool_masked(x: np.ndarray, segs: Segments) -> np.ndarray:
    """Mean of each segment's rows, one output row per segment."""
    return np.add.reduceat(x, segs.starts, axis=0) / _counts(segs, x.dtype)


def mean_pool_backward(d_vecs: np.ndarray, segs: Segments) -> np.ndarray:
    return np.repeat(d_vecs / _counts(segs, d_vecs.dtype), segs.lengths, axis=0)


# --- classifier-side scalar ops --------------------------------------------------

def softmax(z: np.ndarray) -> np.ndarray:
    """Shift-by-max softmax; -inf entries map to exactly 0."""
    if z.shape[0] < 2:
        raise DataError("softmax needs at least two entries")
    m = z.max()
    if m == -np.inf:
        raise DataError("softmax over all -inf entries")
    e = np.exp(z - m)
    return e / e.sum()


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log softmax of a (B, K) array, shifted by each row's max."""
    shifted = z - z.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def check_targets(targets: np.ndarray, k: int) -> None:
    """DataError unless every target is a class index in [0, k)."""
    bad = targets[(targets < 0) | (targets >= k)]
    if bad.size:
        raise DataError(f"target {int(bad[0])} out of range for {k} classes")


def cross_entropy(logits: np.ndarray, target):
    """Returns (loss, d_loss/d_logits) for loss = -log softmax(logits)[target].

    Row-wise over a (B, K) logits array with B targets, giving B losses; a
    single (K,) row with an int target gives a float loss.
    """
    z = np.atleast_2d(logits)
    targets = np.atleast_1d(target)
    check_targets(targets, z.shape[1])
    rows = np.arange(z.shape[0])
    logp = log_softmax(z)
    loss = 0.0 - logp[rows, targets]   # not -logp: a certain class's loss is +0.0
    grad = np.exp(logp)
    grad[rows, targets] -= 1
    if np.ndim(logits) == 1:
        return float(loss[0]), grad[0]
    return loss, grad


# --- finite differences ------------------------------------------------------------

def finite_diff_check(op_name: str, f, params: list[ParamTensor],
                      eps: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central differences of f.

    f() must be a deterministic float64 scalar function of the current
    parameter values; the analytic gradient must already sit in each
    param.grad. Every coordinate is perturbed by +-eps in place and
    restored. Relative error per coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8); a non-finite analytic gradient
    reports max_rel_err = inf without perturbing anything.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    base = float(f())
    if not math.isfinite(base):
        raise ValueError(f"{op_name}: non-finite objective")
    if not all(np.isfinite(p.grad).all() for p in params):
        return GradCheckReport(op_name=op_name, max_rel_err=math.inf)
    max_rel = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f())
            flat[i] = orig - eps
            f_minus = float(f())
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ValueError(f"{op_name}: non-finite objective under perturbation")
            numeric = (f_plus - f_minus) / (2 * eps)
            rel = abs(float(grad[i]) - numeric) / max(abs(float(grad[i])), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return GradCheckReport(op_name=op_name, max_rel_err=max_rel)
