"""Mini-batch cross-entropy training with Adam, seeding, and checkpointing.

Everything that consumes randomness draws from one documented generator so
runs are reproducible across implementations, not just across processes:

* splitmix64: out(c) = mix64(seed + (c+1) * 0x9E3779B97F4A7C15) where mix64
  is the standard splitmix64 finalizer (xor-shift 30, * 0xBF58476D1CE4E5B9,
  xor-shift 27, * 0x94D049BB133111EB, xor-shift 31), all mod 2**64.
* Unit floats take the top 53 bits: (out >> 11) * 2**-53.
* Parameter init consumes one stream seeded with mix64(seed), walking the
  parameters in declaration order (emb, pos, wq, wk, wv, w1, b1, w2, b2,
  then the head's arrays).
* The epoch-e shuffle is a descending Fisher-Yates pass using the stream
  seeded with mix64(seed + (e+1) * 0x9E3779B97F4A7C15): position i runs
  from n-1 down to 1 and swaps with j = out(n-1-i) mod (i+1).

Training is bit-deterministic: batches are consecutive slices of the epoch
permutation. Each step runs one packed forward/backward (see encoder): the
batch's texts and, when fusion consults labels, the K label phrases go
through the encoder in the same pass, packed in a stable length-sorted order
that depends only on the batch; weight gradients sum fixed row chunks in
order (nncore.weight_grad), so no BLAS thread count changes the bits. Every
parameter lives in the model's ParamStore, a flat buffer each for values,
gradients and both Adam moments. batch_step returns the embedding rows its
pack reads, and adam_step updates the table at those rows alone and the rest
of the store in ADAM_BLOCK-element blocks; each element sees a per-tensor
update's operations in the same order.

Checkpoint file layout (little-endian throughout):

    bytes  0-4   magic "LBLM2"
    u64 batch_size, u64 epochs, u64 seed, u64 dim, u64 max_len, u64 min_freq
    f64 learning_rate
    str fusion_mode            (str = u64 byte length + UTF-8 bytes)
    u64 token count, str the tokens in id order, joined by NUL
    u64 label count K, then K x (str label name, str verbalized phrase)
    u64 parameter count
    per parameter, declaration order:
        str name, u64 ndim, u64 per dimension, raw float32 data (C order)
    32 bytes sha256 of every byte before it

A checkpoint holds everything evaluation needs: the vocabulary, the labels
and their phrases. build_vocab refuses a token containing NUL, so the
NUL-joined token list always splits back into the same tokens.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import (PAD_TOKEN, UNK_TOKEN, Dataset, TokenSeq, Vocabulary, build_vocab,
                     tokenize_texts, verbalize_label)
from .encoder import (EncodeCache, EncoderParams, LabelSet, Pack, encode_batch_backward,
                      encode_batch_forward, encode_labels_forward, pack)
from .errors import CheckpointError, DataError, TrainingError
from .fusion import (FUSION_MODES, FusionHead, head_template, score_backward,
                     score_forward, uses_labels)
from .nncore import ParamStore, ParamTensor, cross_entropy

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
CHECKPOINT_MAGIC = b"LBLM2"
CHECKSUM_BYTES = 32   # the sha256 trailer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per Adam block: six float32 arrays of this size (value, grad, both
# moments and two scratch arrays) take 1.5 MiB and stay in a 2 MiB per-core
# L2 cache. Blocks of 32K-128K elements timed the same; 16K was 8% slower.
ADAM_BLOCK = 65536
# Elements per block of init draws: each uint64/float64 temporary takes 512 KiB of
# heap; drawing TREC6's whole table mapped fresh 4.4 MB arrays, raising peak RSS.
INIT_BLOCK = 65536
# Packed rows (valid tokens) per evaluation chunk. evaluate_seqs walks the
# examples in length order, so a chunk of this size holds a few long runs of
# equal length and attention runs once per run: 111 encoder calls and 142
# runs over the ATIS train split, against 156 calls and 2,150 runs for
# consecutive chunks of 32 examples, for a third more examples/s. 1,024
# rows was at most a few percent faster on ATIS but raised the traced peak
# of that pass from 1.7 to 3.1 MiB and the process's peak RSS by 3 MB.
EVAL_ROWS = 512

# glibc's malloc hands the free top of its heap back to the kernel once it
# exceeds the trim threshold. An ATIS step (K=22 label phrases packed with
# every batch) allocates and frees about 1.5 MiB of activations, so each step
# gave its heap top back and faulted it in again: 340-500 minor page faults
# per `dot` step, 20,000 per evaluate() over the train split. A 16 MiB trim
# threshold keeps that memory between steps. Setting it also freezes glibc's
# self-tuning mmap threshold at its import-time value, which sent arrays of
# 0.5-1 MiB to a fresh mmap on every use (7 faults per TREC6 step, up from
# 1.5), so the mmap threshold is pinned too, at 4 MiB. Together: about 2
# faults per ATIS step, 600 per evaluate(), and under 1 MiB more peak RSS.
# The settings hold for the whole process; a C library without mallopt
# (musl, macOS, Windows) keeps its defaults.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # mallopt parameter numbers (malloc.h)
HEAP_TRIM_THRESHOLD = 16 << 20
HEAP_MMAP_THRESHOLD = 4 << 20


def _keep_freed_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)


_keep_freed_heap()


# --- seeded randomness ----------------------------------------------------------

def _mix64(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _raw_stream(seed: int, start: int, count: int) -> np.ndarray:
    """splitmix64 outputs at counter positions [start, start+count)."""
    idx = np.arange(start, start + count, dtype=np.uint64) + np.uint64(1)
    z = np.uint64(seed & MASK64) + idx * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z


def _unit_floats(seed: int, start: int, count: int) -> np.ndarray:
    return (_raw_stream(seed, start, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def shuffled_indices(n: int, seed: int) -> list[int]:
    """Descending Fisher-Yates permutation of range(n) driven by splitmix64."""
    draws = _raw_stream(seed, 0, max(n - 1, 0)).tolist()   # Python ints: no uint64 scalars
    idx = list(range(n))
    for i, draw in zip(range(n - 1, 0, -1), draws):
        j = draw % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def epoch_shuffle_seed(seed: int, epoch: int) -> int:
    return _mix64((seed + (epoch + 1) * GOLDEN) & MASK64)


# --- configuration ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Checked on construction: an invalid config raises DataError."""

    batch_size: int = 32
    epochs: int = 10
    learning_rate: float = 1e-3
    seed: int = 0
    fusion_mode: str = "dot"
    dim: int = 64
    max_len: int = 32
    min_freq: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise DataError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.seed <= MASK64:  # the checkpoint stores 64 unsigned bits
            raise DataError(f"seed must be in [0, 2**64), got {self.seed}")
        if not self.learning_rate > 0:
            raise DataError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.fusion_mode not in FUSION_MODES:
            raise DataError(f"fusion_mode must be one of {FUSION_MODES}")
        if min(self.dim, self.max_len, self.min_freq) < 1:
            raise DataError("dim, max_len and min_freq must all be >= 1")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float   # percentage, full precision
    test_acc: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)


@dataclass
class Model:
    config: TrainConfig
    vocab: Vocabulary
    labels: LabelSet
    store: ParamStore   # every parameter; enc and head name its tensors
    enc: EncoderParams
    head: FusionHead

    def parameters(self) -> list[ParamTensor]:
        """Every parameter in declaration order."""
        return list(self.store)

    def predict_logits(self, seq: TokenSeq) -> np.ndarray:
        return forward(self, pack_batch(self, [seq]))[0][0]


# --- initialization ----------------------------------------------------------------

def _param_template(config: TrainConfig, vocab_size: int, num_classes: int):
    """(name, shape, init rule) for every parameter, in declaration order:
    the encoder's, then the head's from fusion.head_template, "head."-prefixed."""
    d, m = config.dim, config.max_len
    h = 4 * d
    return [
        ("emb", (vocab_size, d), "xavier"),
        ("pos", (m, d), "pos"),
        ("wq", (d, d), "xavier"),
        ("wk", (d, d), "xavier"),
        ("wv", (d, d), "xavier"),
        ("w1", (d, h), "xavier"),
        ("b1", (h,), "zero"),
        ("w2", (h, d), "xavier"),
        ("b2", (d,), "zero"),
    ] + [(f"head.{name}", shape, rule) for name, shape, rule
         in head_template(config.fusion_mode, num_classes, d)]


def _xavier_bound(shape: tuple[int, ...]) -> float:
    if len(shape) == 1:  # treated as fan_in x 1
        return math.sqrt(6.0 / (shape[0] + 1))
    return math.sqrt(6.0 / (shape[0] + shape[1]))


def _assemble(config: TrainConfig, vocab: Vocabulary, labels: LabelSet,
              store: ParamStore) -> Model:
    """The model over a store laid out by _param_template."""
    enc = EncoderParams(**{p.name: p for p in store if not p.name.startswith("head.")})
    head = FusionHead(mode=config.fusion_mode,
                      **{p.name.removeprefix("head."): p for p in store
                         if p.name.startswith("head.")})
    return Model(config=config, vocab=vocab, labels=labels, store=store, enc=enc, head=head)


def init_params(config: TrainConfig, vocab_size: int, num_classes: int,
                dtype=np.float32) -> ParamStore:
    """_param_template's store, initialized from config.seed (see module docstring)."""
    template = _param_template(config, vocab_size, num_classes)
    store = ParamStore([(name, shape) for name, shape, _ in template], dtype=dtype)
    stream_seed = _mix64(config.seed & MASK64)
    offset = 0
    for p, (_, shape, kind) in zip(store.params, template):
        if kind == "log10":
            p.value[...] = math.log(10.0)
        elif kind != "zero":
            bound = 0.01 if kind == "pos" else _xavier_bound(shape)
            flat = p.value.reshape(-1)
            for lo in range(0, flat.size, INIT_BLOCK):
                u = _unit_floats(stream_seed, offset + lo, min(INIT_BLOCK, flat.size - lo))
                flat[lo:lo + u.size] = (2.0 * u - 1.0) * bound
            offset += flat.size
    return store


def _label_set(label_names: tuple[str, ...], phrases: tuple[str, ...], vocab: Vocabulary,
               max_len: int) -> LabelSet:
    """The labels with their verbalized phrases, tokenized with `vocab`."""
    return LabelSet(label_names=label_names, phrases=phrases,
                    token_seqs=tuple(tokenize_texts(list(phrases), vocab, max_len)))


def build_model(config: TrainConfig, train_set: Dataset,
                verbalizer: dict[str, str] | None = None,
                dtype=np.float32) -> Model:
    """Vocabulary, verbalized label set, and freshly initialized parameters.

    The vocabulary holds the train tokens plus every token of the verbalized
    label phrases, which always survive min_freq.
    """
    phrases = tuple(verbalize_label(name, verbalizer) for name in train_set.label_names)
    vocab = build_vocab(train_set, config.min_freq, extra_texts=phrases)
    labels = _label_set(train_set.label_names, phrases, vocab, config.max_len)
    return _assemble(config, vocab, labels,
                     init_params(config, len(vocab), labels.num_classes, dtype=dtype))


# --- optimizer -------------------------------------------------------------------

def _adam_update(value, grad, m, v, lr: float, c1: float, c2: float, a, b) -> None:
    """Adam's elementwise update in place; `a` and `b` are same-shape scratch."""
    m *= ADAM_BETA1
    m += np.multiply(grad, 1 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=a)
    a *= 1 - ADAM_BETA2
    v += a
    np.divide(m, c1, out=a)       # m_hat
    a *= lr
    np.divide(v, c2, out=b)       # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    value -= a


def adam_step(store: ParamStore, lr: float, t: int, rows: np.ndarray) -> None:
    """Bias-corrected Adam update of `store`; zeroes the gradients it reads.

    The leading table (`emb` in a model's store) is updated at `rows` alone,
    as LazyAdam does: each passed row takes the step-t update even if its
    gradient is all zero; every other row is not read and keeps its value,
    moments and gradient. batch_step returns the rows its pack reads, the
    only rows its backward writes (gradcheck.check_batch checks that). The
    rest of the store is updated in ADAM_BLOCK-element blocks. All-or-nothing:
    the gradient at `rows` and of the rest is checked before any change.
    """
    if t < 1:
        raise TrainingError(f"step counter must be >= 1, got {t}")
    table = store.params[0]
    start = table.value.size   # the dense pass starts after the table
    row_grad = table.grad[rows]
    if not (np.isfinite(row_grad).all() and np.isfinite(store.grad[start:]).all()):
        bad = next(p for p in store if not np.isfinite(p.grad).all())
        raise TrainingError(f"non-finite gradient in parameter {bad.name!r}")
    c1, c2 = 1 - ADAM_BETA1**t, 1 - ADAM_BETA2**t
    value, m, v = table.value[rows], table.adam_m[rows], table.adam_v[rows]
    _adam_update(value, row_grad, m, v, lr, c1, c2, np.empty_like(value), np.empty_like(value))
    table.value[rows], table.adam_m[rows], table.adam_v[rows] = value, m, v
    table.grad[rows] = 0
    size = store.value.size
    scratch_a = np.empty(min(size - start, ADAM_BLOCK), dtype=store.value.dtype)
    scratch_b = np.empty_like(scratch_a)
    for lo in range(start, size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, size)
        g = store.grad[lo:hi]
        _adam_update(store.value[lo:hi], g, store.adam_m[lo:hi], store.adam_v[lo:hi],
                     lr, c1, c2, scratch_a[:hi - lo], scratch_b[:hi - lo])
        g[...] = 0


# --- training --------------------------------------------------------------------

def pack_batch(model: Model, seqs: list[TokenSeq]) -> Pack:
    """The pack `forward` reads: the texts, then the label phrases if the head reads them."""
    return pack([*seqs, *(model.labels.token_seqs if uses_labels(model.head.mode) else ())])


def read_rows(model: Model, batch: Pack) -> np.ndarray:
    """The ascending, unique `emb` rows that `batch` reads, from a vocabulary-sized
    bitmap over its ids (np.unique sorts and costs ten times as much)."""
    read = np.zeros(len(model.enc.emb.value), dtype=bool)
    read[batch.ids] = True
    return np.flatnonzero(read)


def forward(model: Model, batch: Pack, reuse: EncodeCache | None = None):
    """Logits (texts x K) from one encoder pass over a pack_batch pack (reuse: see encoder)."""
    k = model.labels.num_classes if uses_labels(model.head.mode) else 0
    vecs, encode_cache = encode_batch_forward(batch, model.enc, reuse)
    n = len(vecs) - k
    logits, score_cache = score_forward(vecs[:n], vecs[n:] if k else None, model.head)
    return logits, (encode_cache, score_cache)


def batch_step(model: Model, seqs: list[TokenSeq],
               targets: list[int]) -> tuple[list[float], np.ndarray]:
    """Forward/backward over one mini-batch; grads = mean over its examples.

    Returns the per-example losses and the `emb` rows the pass read
    (read_rows), which adam_step updates. Does not run the optimizer.
    """
    batch = pack_batch(model, seqs)
    logits, (encode_cache, score_cache) = forward(model, batch)
    losses, d_logits = cross_entropy(logits, np.asarray(targets))
    d_logits *= 1.0 / len(seqs)
    d_t, d_labels = score_backward(d_logits, score_cache)
    encode_batch_backward(d_t if d_labels is None else np.concatenate([d_t, d_labels]),
                          encode_cache)
    return losses.tolist(), read_rows(model, batch)


@dataclass
class EvalResult:
    correct: int
    total: int
    per_class: dict[str, tuple[int, int]]  # label -> (gold count, correct count)

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.correct / self.total


def evaluate_seqs(model: Model, seqs: list[TokenSeq], targets: list[int]) -> EvalResult:
    """Argmax accuracy over pre-tokenized examples (read-only on the model).

    The label matrix is encoded once. The texts are taken in stable length
    order and go through the packed encoder in chunks of at most EVAL_ROWS
    valid tokens (a longer text gets a chunk to itself), which bounds the
    activations held at once; each chunk's predictions go back to their
    input positions.
    """
    matrix = None
    if uses_labels(model.head.mode):
        matrix, _ = encode_labels_forward(model.labels, model.enc)
    lengths = np.array([seq.true_len for seq in seqs], dtype=np.int64)
    order = np.argsort(lengths, kind="stable")
    ends = np.cumsum(lengths[order])
    preds = np.empty(len(seqs), dtype=np.int64)
    lo = 0
    while lo < len(seqs):
        start = ends[lo] - lengths[order[lo]]
        hi = max(lo + 1, int(np.searchsorted(ends, start + EVAL_ROWS, side="right")))
        chunk = order[lo:hi]
        vecs, _ = encode_batch_forward(pack([seqs[i] for i in chunk]), model.enc)
        logits, _ = score_forward(vecs, matrix, model.head)
        preds[chunk] = logits.argmax(axis=1)
        lo = hi

    targets = np.asarray(targets, dtype=np.int64)
    k = model.labels.num_classes
    gold = np.bincount(targets, minlength=k)
    hits = np.bincount(targets[preds == targets], minlength=k)
    return EvalResult(correct=int(hits.sum()), total=len(seqs),
                      per_class={name: (int(g), int(c)) for name, g, c
                                 in zip(model.labels.label_names, gold, hits)})


def evaluate(model: Model, dataset: Dataset) -> EvalResult:
    seqs, targets = _tokenize_dataset(model, dataset)
    return evaluate_seqs(model, seqs, targets)


def _tokenize_dataset(model: Model, dataset: Dataset):
    index = {name: i for i, name in enumerate(model.labels.label_names)}
    for ex in dataset.examples:
        if ex.label_name not in index:
            raise DataError(f"label {ex.label_name!r} not in the model's label set")
    seqs = tokenize_texts([ex.text for ex in dataset.examples], model.vocab,
                          model.config.max_len)
    return seqs, [index[ex.label_name] for ex in dataset.examples]


def train(config: TrainConfig, train_set: Dataset, eval_set: Dataset,
          verbalizer: dict[str, str] | None = None,
          progress=None) -> tuple[Model, TrainHistory]:
    """Train for exactly config.epochs passes; returns the model and history.

    Deterministic: (config, seed, data) fix every parameter bit. The eval
    set's labels must all occur in the train set.
    """
    model = build_model(config, train_set, verbalizer)
    train_seqs, train_targets = _tokenize_dataset(model, train_set)
    eval_seqs, eval_targets = _tokenize_dataset(model, eval_set)

    history = TrainHistory()
    step = 0
    n = len(train_seqs)
    for epoch in range(config.epochs):
        started = time.monotonic()
        perm = shuffled_indices(n, epoch_shuffle_seed(config.seed, epoch))
        epoch_losses: list[float] = []
        for lo in range(0, n, config.batch_size):
            batch_idx = perm[lo:lo + config.batch_size]
            losses, rows = batch_step(model,
                                      [train_seqs[i] for i in batch_idx],
                                      [train_targets[i] for i in batch_idx])
            epoch_losses.extend(losses)
            step += 1
            adam_step(model.store, config.learning_rate, step, rows)
        train_eval = evaluate_seqs(model, train_seqs, train_targets)
        test_eval = evaluate_seqs(model, eval_seqs, eval_targets)
        stats = EpochStats(epoch=epoch + 1,
                           train_loss=sum(epoch_losses) / len(epoch_losses),
                           train_acc=train_eval.accuracy_pct,
                           test_acc=test_eval.accuracy_pct,
                           seconds=time.monotonic() - started)
        history.epochs.append(stats)
        if progress is not None:
            progress(stats)
    return model, history


# --- checkpoints ------------------------------------------------------------------

class _Sha256Writer:
    """A binary file that hashes every byte written through it."""

    def __init__(self, f):
        self.f, self.sha256 = f, hashlib.sha256()

    def write(self, raw) -> None:
        self.sha256.update(raw)
        self.f.write(raw)


def _write_u64(f, x: int) -> None:
    f.write(struct.pack("<Q", x & MASK64))


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    _write_u64(f, len(raw))
    f.write(raw)


def save_checkpoint(model: Model, path) -> None:
    """Write `model` to `path` atomically: the bytes go to a new file in the
    same directory, which is flushed, fsynced and then renamed onto `path`.
    A write that fails leaves whatever was at `path` untouched."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            body = _Sha256Writer(f)
            _write_checkpoint(body, model)
            f.write(body.sha256.digest())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_checkpoint(f, model: Model) -> None:
    cfg = model.config
    f.write(CHECKPOINT_MAGIC)
    for x in (cfg.batch_size, cfg.epochs, cfg.seed, cfg.dim, cfg.max_len, cfg.min_freq):
        _write_u64(f, x)
    f.write(struct.pack("<d", cfg.learning_rate))
    _write_str(f, cfg.fusion_mode)
    _write_u64(f, len(model.vocab))
    _write_str(f, "\0".join(model.vocab.tokens))
    _write_u64(f, model.labels.num_classes)
    for name, phrase in zip(model.labels.label_names, model.labels.phrases):
        _write_str(f, name)
        _write_str(f, phrase)
    _write_u64(f, len(model.store.params))
    for p in model.store:
        _write_str(f, p.name)
        _write_u64(f, p.value.ndim)
        for dim in p.value.shape:
            _write_u64(f, dim)
        f.write(np.ascontiguousarray(p.value, dtype="<f4").tobytes())


class _Reader:
    """Bounds-checked reads from a checkpoint's bytes in memory."""

    def __init__(self, data: memoryview, path):
        self.data, self.at, self.path = data, 0, path

    def left(self) -> int:
        return len(self.data) - self.at

    def take(self, n: int) -> memoryview:
        """The next n bytes; a length past the end of the data is refused unread."""
        if n > self.left():
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.at += n
        return self.data[self.at - n:self.at]

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "little")

    def text(self) -> str:
        raw = self.take(self.u64())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: checkpoint string is not UTF-8: {exc}") from None


def _verified_body(path) -> memoryview:
    """The checkpoint's bytes before its sha256 trailer, once the trailer matches."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(CHECKPOINT_MAGIC) + CHECKSUM_BYTES:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if not data.startswith(CHECKPOINT_MAGIC):
        if data.startswith(b"LBLM1"):
            raise CheckpointError(f"{path}: an LBLM1 checkpoint, an older format that stores "
                                  "no vocabulary; retrain to write LBLM2")
        raise CheckpointError(f"{path}: bad magic")
    body = memoryview(data)[:-CHECKSUM_BYTES]
    if hashlib.sha256(body).digest() != data[-CHECKSUM_BYTES:]:
        raise CheckpointError(f"{path}: checksum mismatch: the file is corrupted or truncated")
    return body


def load_checkpoint(path, vocab: Vocabulary | None = None,
                    label_names: tuple[str, ...] | None = None) -> Model:
    """Rebuild a Model from `path` alone; bit-exact inverse of save_checkpoint.

    The file is read once and its sha256 trailer checked before anything is
    parsed. `vocab` and `label_names`, when given, must equal the stored
    ones. The tokens must be unique and start with <pad>, <unk>, the label
    names unique and non-empty; every parameter's name and shape must match
    _param_template, and its values must be finite.
    """
    r = _Reader(_verified_body(path), path)
    r.take(len(CHECKPOINT_MAGIC))
    batch_size, epochs, seed, dim, max_len, min_freq = (r.u64() for _ in range(6))
    lr = struct.unpack("<d", r.take(8))[0]
    config = TrainConfig(batch_size=batch_size, epochs=epochs, learning_rate=lr, seed=seed,
                         fusion_mode=r.text(), dim=dim, max_len=max_len, min_freq=min_freq)

    n_tokens = r.u64()
    stored_vocab = Vocabulary.from_tokens(tuple(r.text().split("\0")))
    if not len(stored_vocab.tokens) == len(stored_vocab.id_of) == n_tokens \
            or stored_vocab.tokens[:2] != (PAD_TOKEN, UNK_TOKEN):
        raise CheckpointError(f"{path}: the token list is not {n_tokens} unique tokens "
                              f"starting with {PAD_TOKEN}, {UNK_TOKEN}")
    if vocab is not None and tuple(vocab.tokens) != stored_vocab.tokens:
        raise CheckpointError(f"{path}: the given vocabulary differs from the stored one")
    k = r.u64()
    pairs = [(r.text(), r.text()) for _ in range(k)]   # >= 16 bytes each: no runaway k
    names, phrases = tuple(n for n, _ in pairs), tuple(p for _, p in pairs)
    if "" in names or len(set(names)) != k:
        raise CheckpointError(f"{path}: the label names are not {k} unique non-empty names")
    if label_names is not None and tuple(label_names) != names:
        raise CheckpointError(f"{path}: label names {list(label_names)} differ from "
                              f"the stored {list(names)}")

    shapes = [(name, shape) for name, shape, _ in
              _param_template(config, len(stored_vocab), k)]
    count = r.u64()
    if count != len(shapes):
        raise CheckpointError(f"{path}: shape mismatch: {count} parameters stored, "
                              f"{len(shapes)} expected")
    needed = 4 * sum(math.prod(shape) for _, shape in shapes)
    if needed > r.left():
        raise CheckpointError(f"{path}: truncated checkpoint or shape mismatch: "
                              f"{needed} parameter bytes expected, {r.left()} left")
    store = ParamStore(shapes, dtype=np.dtype("<f4"))
    for p in store:
        stored_name = r.text()
        ndim = r.u64()
        stored_shape = struct.unpack(f"<{ndim}Q", r.take(8 * ndim))
        if stored_name != p.name or stored_shape != p.value.shape:
            raise CheckpointError(
                f"{path}: shape mismatch: stored {stored_name}{list(stored_shape)}, "
                f"expected {p.name}{list(p.value.shape)}")
        p.value.reshape(-1)[...] = np.frombuffer(r.take(p.value.nbytes), dtype="<f4")
        if not np.isfinite(p.value).all():
            raise CheckpointError(f"{path}: non-finite value in parameter {p.name!r}")

    return _assemble(config, stored_vocab,
                     _label_set(names, phrases, stored_vocab, config.max_len), store)
