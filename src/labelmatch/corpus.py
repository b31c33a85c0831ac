"""Dataset ingestion, vocabulary construction, and tokenization.

The on-disk format is UTF-8 TSV with LF line endings, one `label<TAB>text`
example per line.

Tokenization is lowercased splitting on Unicode whitespace. Vocabulary ids
are contiguous, with id 0 reserved for padding and id 1 for unknown tokens,
and the remaining tokens ordered by descending corpus frequency (ties broken
lexicographically) so that the same token multiset always yields the same
vocabulary.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

SPLITS = ("train", "test")


@dataclass(frozen=True)
class Example:
    label_name: str
    text: str


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    label_names: tuple[str, ...]  # sorted unique labels occurring in examples
    split: str = "train"


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    id_of: Mapping[str, int]

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_tokens(cls, tokens: tuple[str, ...]) -> Vocabulary:
        """The vocabulary whose ids are the positions in `tokens`."""
        return cls(tokens=tokens, id_of=dict(zip(tokens, range(len(tokens)))))


@dataclass(frozen=True)
class TokenSeq:
    ids: np.ndarray    # int64, length max_len: true_len token ids, then PAD_ID
    true_len: int


@dataclass(frozen=True)
class DatasetStats:
    num_classes: int
    num_examples: int
    avg_token_len: float  # mean whitespace-token count, 2 decimals


def make_dataset(examples: Iterable[Example], split: str = "train") -> Dataset:
    examples = tuple(examples)
    if not examples:
        raise DataError("empty dataset")
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}, expected one of {SPLITS}")
    for ex in examples:
        if not ex.label_name:
            raise DataError("example with empty label name")
        if not ex.text.strip():
            raise DataError("example with empty text")
    label_names = tuple(sorted({ex.label_name for ex in examples}))
    return Dataset(examples=examples, label_names=label_names, split=split)


def load_dataset(path, split: str = "train") -> Dataset:
    """Read one `label<TAB>text` example per line from `path`."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            raw = f.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc}") from None
    lines = raw.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty dataset")

    examples = []
    for lineno, line in enumerate(lines, start=1):
        label, sep, text = line.rstrip("\r").partition("\t")
        if not sep:
            raise DataError(f"{path}:{lineno}: malformed line (no tab)")
        label = label.strip()
        text = text.strip()
        if not label:
            raise DataError(f"{path}:{lineno}: empty label")
        if not text:
            raise DataError(f"{path}:{lineno}: empty text")
        examples.append(Example(label_name=label, text=text))
    return make_dataset(examples, split=split)


def save_dataset(dataset: Dataset, path) -> None:
    """Write `dataset` as TSV; load_dataset(save_dataset(d)) == d."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for ex in dataset.examples:
            f.write(f"{ex.label_name}\t{ex.text}\n")


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def build_vocab(dataset: Dataset, min_freq: int = 1,
                extra_texts: Iterable[str] = ()) -> Vocabulary:
    """Collect every lowercased whitespace token with frequency >= min_freq.

    Each token occurrence in extra_texts adds min_freq to its count, so
    those tokens always survive the frequency cutoff (used to keep
    verbalized label phrases out of UNK territory).
    """
    if min_freq < 1:
        raise DataError(f"min_freq must be >= 1, got {min_freq}")
    counts: Counter[str] = Counter()
    for ex in dataset.examples:
        counts.update(_tokens(ex.text))
    for text in extra_texts:
        for token in _tokens(text):
            counts[token] += min_freq
    kept = [t for t, c in counts.items() if c >= min_freq and t not in (PAD_TOKEN, UNK_TOKEN)]
    if "\0" in "".join(kept):   # a checkpoint stores the tokens NUL-joined
        bad = next(t for t in kept if "\0" in t)
        raise DataError(f"token {bad!r} contains NUL, which a checkpoint cannot store")
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary.from_tokens((PAD_TOKEN, UNK_TOKEN, *kept))


def tokenize_texts(texts: list[str], vocab: Vocabulary, max_len: int) -> list[TokenSeq]:
    """Lowercase, split on whitespace, map through `vocab`, truncate, pad.

    One (len(texts), max_len) id array is filled row by row, one text's words
    at a time; each returned TokenSeq's ids are a view of its row.
    """
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    ids = np.full((len(texts), max_len), PAD_ID, dtype=np.int64)
    seqs = []
    for row, text in zip(ids, texts):
        words = _tokens(text)[:max_len]
        if not words:
            raise DataError("cannot tokenize empty text")
        row[:len(words)] = [vocab.id_of.get(w, UNK_ID) for w in words]
        seqs.append(TokenSeq(ids=row, true_len=len(words)))
    return seqs


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> TokenSeq:
    """One text; see tokenize_texts."""
    return tokenize_texts([text], vocab, max_len)[0]


def verbalize_label(label_name: str, verbalizer: Mapping[str, str] | None = None) -> str:
    """Turn a raw label identifier into the phrase fed to the label encoder."""
    if not label_name:
        raise DataError("empty label name")
    if verbalizer is not None and label_name in verbalizer:
        phrase = verbalizer[label_name]
        if not phrase.strip():
            raise DataError(f"verbalizer maps {label_name!r} to an empty phrase")
        return phrase
    return label_name.lower().replace("_", " ")


def load_verbalizer(path) -> dict[str, str]:
    """Read a flat JSON object mapping label -> phrase."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise DataError(f"{path}: verbalizer must be a flat string-to-string map")
    return data


def dataset_stats(dataset: Dataset) -> DatasetStats:
    lengths = [len(ex.text.split()) for ex in dataset.examples]
    return DatasetStats(
        num_classes=len(dataset.label_names),
        num_examples=len(dataset.examples),
        avg_token_len=round(sum(lengths) / len(lengths), 2),
    )

