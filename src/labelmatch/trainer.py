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
that depends only on the batch. Every parameter lives in one ParamStore, a
flat buffer each for values, gradients and both Adam moments. Adam then
checks the whole gradient (averaged over the batch) and updates the store in
one pass of ADAM_BLOCK-element blocks. Each element sees the same
elementwise operations in the same order as a per-tensor update, so the
result does not depend on the block size.

Checkpoint file layout (little-endian throughout):

    bytes  0-4   magic "LBLM1"
    u64 batch_size, u64 epochs, u64 seed, u64 dim, u64 max_len, u64 min_freq
    f64 learning_rate
    str fusion_mode            (str = u64 byte length + UTF-8 bytes)
    u64 vocab_fingerprint      (FNV-1a over the NUL-joined token list)
    u64 parameter count
    per parameter, declaration order:
        str name, u64 ndim, u64 per dimension, raw float32 data (C order)
"""

from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import (Dataset, TokenSeq, Vocabulary, build_vocab, tokenize,
                     verbalize_label, vocab_fingerprint)
from .encoder import (EncoderParams, LabelSet, encode_batch_backward,
                      encode_batch_forward, encode_forward, encode_labels_forward)
from .errors import CheckpointError, DataError, TrainingError
from .fusion import FUSION_MODES, FusionHead, score_backward, score_forward
from .nncore import ParamStore, ParamTensor, cross_entropy

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
CHECKPOINT_MAGIC = b"LBLM1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per Adam block: six float32 arrays of this size (value, grad, both
# moments and two scratch arrays) take 1.5 MiB and stay in a 4 MiB L2 cache.
ADAM_BLOCK = 65536


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
    draws = _raw_stream(seed, 0, max(n - 1, 0))
    idx = list(range(n))
    for step, i in enumerate(range(n - 1, 0, -1)):
        j = int(draws[step] % np.uint64(i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def epoch_shuffle_seed(seed: int, epoch: int) -> int:
    return _mix64((seed + (epoch + 1) * GOLDEN) & MASK64)


# --- configuration ----------------------------------------------------------------

CLI_BATCH_SIZES = (32, 64)  # the CLI restricts batch size to these two


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 10
    learning_rate: float = 1e-3
    seed: int = 0
    fusion_mode: str = "dot"
    dim: int = 64
    max_len: int = 32
    min_freq: int = 1

    def validate(self) -> "TrainConfig":
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise DataError(f"epochs must be >= 0, got {self.epochs}")
        if not self.learning_rate > 0:
            raise DataError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.fusion_mode not in FUSION_MODES:
            raise DataError(f"fusion_mode must be one of {FUSION_MODES}")
        if min(self.dim, self.max_len, self.min_freq) < 1:
            raise DataError("dim, max_len and min_freq must all be >= 1")
        return self


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
    enc: EncoderParams
    head: FusionHead

    def parameters(self) -> list[ParamTensor]:
        return self.enc.all() + self.head.all()

    def label_matrix(self) -> np.ndarray | None:
        """Cached label encodings for inference; training never uses this."""
        if self.head.mode == "none":
            return None
        if self.labels.matrix is None:
            matrix, _ = encode_labels_forward(self.labels, self.enc)
            self.labels.matrix = matrix
        return self.labels.matrix

    def invalidate_label_cache(self) -> None:
        self.labels.matrix = None

    def predict_logits(self, seq: TokenSeq) -> np.ndarray:
        vec, _ = encode_forward(seq, self.enc)
        logits, _ = score_forward(vec, self.label_matrix(), self.head)
        return logits


# --- initialization ----------------------------------------------------------------

def _param_template(config: TrainConfig, vocab_size: int, num_classes: int):
    """(name, shape, init rule) for every parameter, in declaration order."""
    d, m = config.dim, config.max_len
    h = 4 * d
    entries = [
        ("emb", (vocab_size, d), "xavier"),
        ("pos", (m, d), "pos"),
        ("wq", (d, d), "xavier"),
        ("wk", (d, d), "xavier"),
        ("wv", (d, d), "xavier"),
        ("w1", (d, h), "xavier"),
        ("b1", (h,), "zero"),
        ("w2", (h, d), "xavier"),
        ("b2", (d,), "zero"),
    ]
    if config.fusion_mode == "none":
        entries += [("head.w_out", (num_classes, d), "xavier"),
                 ("head.b_out", (num_classes,), "zero")]
    elif config.fusion_mode == "add":
        entries += [("head.w_mix", (d,), "xavier"),
                 ("head.b_out", (num_classes,), "zero")]
    else:
        entries += [("head.log_scale", (1,), "log10")]
    return entries


def _xavier_bound(shape: tuple[int, ...]) -> float:
    if len(shape) == 1:  # treated as fan_in x 1
        return math.sqrt(6.0 / (shape[0] + 1))
    return math.sqrt(6.0 / (shape[0] + shape[1]))


def _assemble(params: list[ParamTensor], config: TrainConfig) -> tuple[EncoderParams, FusionHead]:
    """Encoder and fusion head over the parameters named by _param_template."""
    enc = EncoderParams(**{p.name: p for p in params if not p.name.startswith("head.")})
    head = FusionHead(mode=config.fusion_mode,
                      **{p.name.removeprefix("head."): p for p in params
                         if p.name.startswith("head.")})
    return enc, head


def init_params(config: TrainConfig, vocab_size: int, num_classes: int,
                dtype=np.float32) -> tuple[EncoderParams, FusionHead]:
    """Deterministic initialization from config.seed (see module docstring)."""
    template = _param_template(config, vocab_size, num_classes)
    store = ParamStore([(name, shape) for name, shape, _ in template], dtype=dtype)
    stream_seed = _mix64(config.seed & MASK64)
    offset = 0
    for p, (_, shape, kind) in zip(store.params, template):
        if kind == "log10":
            p.value[...] = math.log(10.0)
        elif kind != "zero":
            u = _unit_floats(stream_seed, offset, p.value.size)
            offset += p.value.size
            bound = 0.01 if kind == "pos" else _xavier_bound(shape)
            p.value[...] = ((2.0 * u - 1.0) * bound).reshape(shape)
    return _assemble(store.params, config)


def build_model(config: TrainConfig, train_set: Dataset,
                verbalizer: dict[str, str] | None = None,
                dtype=np.float32) -> Model:
    """Vocabulary, verbalized label set, and freshly initialized parameters."""
    config.validate()
    phrases = [verbalize_label(name, verbalizer) for name in train_set.label_names]
    vocab = build_vocab(train_set, config.min_freq, extra_texts=phrases)
    seqs = tuple(tokenize(p, vocab, config.max_len) for p in phrases)
    labels = LabelSet(label_names=train_set.label_names, token_seqs=seqs)
    enc, head = init_params(config, len(vocab), labels.num_classes, dtype=dtype)
    return Model(config=config, vocab=vocab, labels=labels, enc=enc, head=head)


# --- optimizer -------------------------------------------------------------------

def adam_step(params: list[ParamTensor], lr: float, t: int,
              beta1: float = ADAM_BETA1, beta2: float = ADAM_BETA2,
              eps: float = ADAM_EPS) -> None:
    """Bias-corrected Adam update of every parameter; zeroes grads after.

    `params` must cover whole stores. All-or-nothing: every gradient is
    checked before anything changes. Each store is then updated in one
    pass of ADAM_BLOCK-element blocks with the elementwise arithmetic of a
    per-tensor update, so the result is bit-identical to one.
    """
    if t < 1:
        raise TrainingError(f"step counter must be >= 1, got {t}")
    stores = list({id(p.store): p.store for p in params}.values())
    if len({id(p) for p in params}) != len(params) or \
            len(params) != sum(len(s.params) for s in stores):
        raise ValueError("adam_step needs every parameter of each store it updates, once")
    for store in stores:
        if not np.isfinite(store.grad).all():
            bad = next(p for p in store.params if not np.isfinite(p.grad).all())
            raise TrainingError(f"non-finite gradient in parameter {bad.name!r}")
    c1, c2 = 1 - beta1**t, 1 - beta2**t
    for store in stores:
        size = store.value.size
        scratch_a = np.empty(min(size, ADAM_BLOCK), dtype=store.value.dtype)
        scratch_b = np.empty_like(scratch_a)
        for lo in range(0, size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, size)
            g, m, v = store.grad[lo:hi], store.adam_m[lo:hi], store.adam_v[lo:hi]
            a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
            m *= beta1
            m += np.multiply(g, 1 - beta1, out=a)
            v *= beta2
            np.multiply(g, g, out=a)
            a *= 1 - beta2
            v += a
            np.divide(m, c1, out=a)       # m_hat
            a *= lr
            np.divide(v, c2, out=b)       # v_hat
            np.sqrt(b, out=b)
            b += eps
            a /= b
            store.value[lo:hi] -= a
            g[...] = 0


# --- training --------------------------------------------------------------------

def _uses_labels(mode: str) -> bool:
    return mode != "none"


def forward(model: Model, seqs: list[TokenSeq]):
    """Logits (len(seqs) x K) from one packed encoder pass over the texts
    and, when the head consults labels, the K label phrases."""
    n = len(seqs)
    phrases = list(model.labels.token_seqs) if _uses_labels(model.head.mode) else []
    vecs, encode_cache = encode_batch_forward(list(seqs) + phrases, model.enc)
    logits, score_cache = score_forward(vecs[:n], vecs[n:] if phrases else None, model.head)
    return logits, (encode_cache, score_cache)


def batch_step(model: Model, seqs: list[TokenSeq], targets: list[int]) -> list[float]:
    """Forward/backward over one mini-batch; grads = mean over its examples.

    Returns the per-example losses. Does not run the optimizer.
    """
    logits, (encode_cache, score_cache) = forward(model, seqs)
    losses, d_logits = cross_entropy(logits, np.asarray(targets))
    d_logits *= 1.0 / len(seqs)
    d_t, d_labels = score_backward(d_logits, score_cache)
    encode_batch_backward(d_t if d_labels is None else np.concatenate([d_t, d_labels]),
                          encode_cache)
    return losses.tolist()


@dataclass
class EvalResult:
    correct: int
    total: int
    per_class: dict[str, tuple[int, int]]  # label -> (gold count, correct count)

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.correct / self.total


def evaluate_seqs(model: Model, seqs: list[TokenSeq], targets: list[int],
                  label_names: tuple[str, ...]) -> EvalResult:
    """Argmax accuracy over pre-tokenized examples (read-only on the model).

    The label matrix is encoded once; texts go through the packed encoder in
    chunks of config.batch_size, which bounds the activations held at once.
    """
    matrix = None
    if _uses_labels(model.head.mode):
        matrix, _ = encode_labels_forward(model.labels, model.enc)
    preds = []
    for lo in range(0, len(seqs), model.config.batch_size):
        vecs, _ = encode_batch_forward(seqs[lo:lo + model.config.batch_size], model.enc)
        logits, _ = score_forward(vecs, matrix, model.head)
        preds.extend(logits.argmax(axis=1).tolist())

    per_class = {name: [0, 0] for name in label_names}
    correct = 0
    for pred, target in zip(preds, targets):
        gold = label_names[target]
        per_class[gold][0] += 1
        if pred == target:
            per_class[gold][1] += 1
            correct += 1
    return EvalResult(correct=correct, total=len(seqs),
                      per_class={k: (g, c) for k, (g, c) in per_class.items()})


def evaluate(model: Model, dataset: Dataset) -> EvalResult:
    seqs, targets = _tokenize_dataset(model, dataset)
    return evaluate_seqs(model, seqs, targets, model.labels.label_names)


def _tokenize_dataset(model: Model, dataset: Dataset):
    index = {name: i for i, name in enumerate(model.labels.label_names)}
    seqs = []
    targets = []
    for ex in dataset.examples:
        if ex.label_name not in index:
            raise DataError(f"label {ex.label_name!r} not in the model's label set")
        seqs.append(tokenize(ex.text, model.vocab, model.config.max_len))
        targets.append(index[ex.label_name])
    return seqs, targets


def train(config: TrainConfig, train_set: Dataset, eval_set: Dataset,
          verbalizer: dict[str, str] | None = None,
          progress=None) -> tuple[Model, TrainHistory]:
    """Train for exactly config.epochs passes; returns the model and history.

    Deterministic: (config, seed, data) fix every parameter bit. The eval
    set's labels must all occur in the train set.
    """
    config.validate()
    missing = set(eval_set.label_names) - set(train_set.label_names)
    if missing:
        raise DataError(f"eval labels absent from train label set: {sorted(missing)}")

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
            losses = batch_step(model,
                                [train_seqs[i] for i in batch_idx],
                                [train_targets[i] for i in batch_idx])
            epoch_losses.extend(losses)
            step += 1
            adam_step(model.parameters(), config.learning_rate, step)
        model.invalidate_label_cache()
        train_eval = evaluate_seqs(model, train_seqs, train_targets, model.labels.label_names)
        test_eval = evaluate_seqs(model, eval_seqs, eval_targets, model.labels.label_names)
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

def _write_u64(f, x: int) -> None:
    f.write(struct.pack("<Q", x & MASK64))


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    _write_u64(f, len(raw))
    f.write(raw)


def _bytes_left(f) -> int:
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_exact(f, n: int) -> bytes:
    """n bytes from f; a length past the end of the file is refused unread."""
    if n > _bytes_left(f):
        raise CheckpointError("truncated checkpoint")
    return f.read(n)


def _read_u64(f) -> int:
    return struct.unpack("<Q", _read_exact(f, 8))[0]


def _read_str(f) -> str:
    raw = _read_exact(f, _read_u64(f))
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint string is not UTF-8: {exc}") from None


def save_checkpoint(model: Model, path) -> None:
    cfg = model.config
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for x in (cfg.batch_size, cfg.epochs, cfg.seed, cfg.dim, cfg.max_len, cfg.min_freq):
            _write_u64(f, x)
        f.write(struct.pack("<d", cfg.learning_rate))
        _write_str(f, cfg.fusion_mode)
        _write_u64(f, vocab_fingerprint(model.vocab))
        params = model.parameters()
        _write_u64(f, len(params))
        for p in params:
            _write_str(f, p.name)
            _write_u64(f, p.value.ndim)
            for dim in p.value.shape:
                _write_u64(f, dim)
            f.write(np.ascontiguousarray(p.value, dtype="<f4").tobytes())


def _read_header(f, path) -> tuple[TrainConfig, int]:
    if _read_exact(f, len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    batch_size, epochs, seed, dim, max_len, min_freq = (_read_u64(f) for _ in range(6))
    lr = struct.unpack("<d", _read_exact(f, 8))[0]
    fusion_mode = _read_str(f)
    fingerprint = _read_u64(f)
    config = TrainConfig(batch_size=batch_size, epochs=epochs, learning_rate=lr,
                         seed=seed, fusion_mode=fusion_mode, dim=dim,
                         max_len=max_len, min_freq=min_freq)
    return config, fingerprint


def read_checkpoint_header(path) -> tuple[TrainConfig, int]:
    """Returns (config, vocab fingerprint) without loading parameters."""
    with open(path, "rb") as f:
        return _read_header(f, path)


def load_checkpoint(path, vocab: Vocabulary, label_names: tuple[str, ...],
                    verbalizer: dict[str, str] | None = None) -> Model:
    """Rebuild a Model from `path`; bit-exact inverse of save_checkpoint.

    The caller supplies the vocabulary (rebuilt from the training data the
    run manifest points at); its fingerprint must match the stored one.
    Each parameter's payload is read straight into its slice of the store.
    """
    with open(path, "rb") as f:
        config, fingerprint = _read_header(f, path)
        config.validate()
        if fingerprint != vocab_fingerprint(vocab):
            raise CheckpointError(f"{path}: vocab fingerprint mismatch")
        shapes = [(name, shape) for name, shape, _ in
                  _param_template(config, len(vocab), len(label_names))]
        count = _read_u64(f)
        if count != len(shapes):
            raise CheckpointError(f"{path}: shape mismatch: {count} parameters stored, "
                                  f"{len(shapes)} expected")
        needed = 4 * sum(math.prod(shape) for _, shape in shapes)
        if needed > _bytes_left(f):
            raise CheckpointError(f"{path}: truncated checkpoint or shape mismatch: "
                                  f"{needed} parameter bytes expected, "
                                  f"{_bytes_left(f)} left in the file")
        store = ParamStore(shapes, dtype=np.dtype("<f4"))
        for p in store.params:
            stored_name = _read_str(f)
            ndim = _read_u64(f)
            stored_shape = tuple(_read_u64(f) for _ in range(ndim))
            if stored_name != p.name or stored_shape != p.shape:
                raise CheckpointError(
                    f"{path}: shape mismatch: stored {stored_name}{list(stored_shape)}, "
                    f"expected {p.name}{list(p.shape)}")
            if f.readinto(p.value.reshape(-1).view(np.uint8)) != p.value.nbytes:
                raise CheckpointError(f"{path}: truncated checkpoint")

    phrases = [verbalize_label(name, verbalizer) for name in label_names]
    seqs = tuple(tokenize(p, vocab, config.max_len) for p in phrases)
    labels = LabelSet(label_names=tuple(label_names), token_seqs=seqs)
    enc, head = _assemble(store.params, config)
    return Model(config=config, vocab=vocab, labels=labels, enc=enc, head=head)
