"""The shared sentence encoder: TokenSeq -> d-vector.

One EncoderParams instance serves both utterances and verbalized label
phrases; there is no second parameter set, so label representations move
whenever training updates the encoder.

The forward pass reads a Pack: the valid prefixes (a TokenSeq's first
true_len ids) of a list of sequences in one array, stably sorted by length
so equal lengths sit together: row-wise layers run once over every row,
attention once per length (see nncore). Padding never enters, and a
sequence's vector does not depend on which sequences share its pack beyond
floating-point summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore
from .corpus import TokenSeq
from .nncore import ParamTensor


@dataclass
class EncoderParams:
    """All trainable arrays of the encoder, in fixed declaration order."""

    emb: ParamTensor   # V x d token embeddings
    pos: ParamTensor   # M x d position embeddings
    wq: ParamTensor    # d x d
    wk: ParamTensor    # d x d
    wv: ParamTensor    # d x d
    w1: ParamTensor    # d x 4d
    b1: ParamTensor    # 4d
    w2: ParamTensor    # 4d x d
    b2: ParamTensor    # d


@dataclass
class LabelSet:
    """Verbalized, tokenized class labels.

    No label matrix is kept: every forward pass encodes the phrases again
    with the current encoder, so label vectors never lag behind training.
    """

    label_names: tuple[str, ...]
    token_seqs: tuple[TokenSeq, ...]

    def __post_init__(self):
        assert len(self.label_names) == len(self.token_seqs)

    @property
    def num_classes(self) -> int:
        return len(self.label_names)


@dataclass(frozen=True)
class Pack:
    """The parameter-independent layout of a packed pass; its arrays are read-only."""

    order: np.ndarray    # packed segment i is input sequence order[i]
    segs: nncore.Segments
    ids: np.ndarray      # every packed segment's valid ids, back to back


def pack(seqs) -> Pack:
    """Pack `seqs` in stable length order, for any number of forward passes."""
    lengths = np.array([seq.true_len for seq in seqs], dtype=np.int64)
    order = np.argsort(lengths, kind="stable")
    segs = nncore.segments(lengths[order])
    ids = np.concatenate([seqs[i].ids[:seqs[i].true_len] for i in order])
    for a in (order, ids, segs.lengths, segs.starts, segs.positions, segs.row_len, segs.row_end):
        a.flags.writeable = False
    return Pack(order=order, segs=segs, ids=ids)


@dataclass
class EncodeCache:
    pack: Pack
    embed_cache: nncore.EmbedCache
    attn_cache: nncore.AttnCache
    ffn_cache: nncore.FfnCache


def encode_batch_forward(batch: Pack, params: EncoderParams):
    """Embed + one residual attention/FFN block + mean pooling, for every
    sequence of the pack; returns (sequence count x d vectors, cache)."""
    x0, embed_cache = nncore.embed_forward(batch.ids, batch.segs.positions, params.emb, params.pos)
    x1, attn_cache = nncore.attention_forward(x0, batch.segs, params.wq, params.wk, params.wv)
    x1 += x0  # residual, in place: the attention output is not kept
    x2, ffn_cache = nncore.ffn_forward(x1, params.w1, params.b1, params.w2, params.b2)
    x2 += x1
    vecs = np.empty((batch.order.size, x2.shape[1]), dtype=x2.dtype)
    vecs[batch.order] = nncore.mean_pool_masked(x2, batch.segs)
    return vecs, EncodeCache(pack=batch, embed_cache=embed_cache,
                             attn_cache=attn_cache, ffn_cache=ffn_cache)


def encode_batch_backward(d_vecs: np.ndarray, cache: EncodeCache) -> None:
    d_x2 = nncore.mean_pool_backward(d_vecs[cache.pack.order], cache.pack.segs)
    d_x1 = nncore.ffn_backward(d_x2, cache.ffn_cache)
    d_x1 += d_x2
    d_x0 = nncore.attention_backward(d_x1, cache.attn_cache)
    d_x0 += d_x1
    nncore.embed_backward(d_x0, cache.embed_cache)


def encode_forward(seq: TokenSeq, params: EncoderParams):
    """One sequence through the packed pass; returns (d-vector, cache)."""
    vecs, cache = encode_batch_forward(pack([seq]), params)
    return vecs[0], cache


def encode_backward(d_vec: np.ndarray, cache: EncodeCache) -> None:
    encode_batch_backward(d_vec[None, :], cache)


def encode(seq: TokenSeq, params: EncoderParams) -> np.ndarray:
    vec, _ = encode_forward(seq, params)
    return vec


def encode_labels_forward(labels: LabelSet, params: EncoderParams):
    """Every label phrase in one packed pass; returns (K x d matrix, cache)."""
    return encode_batch_forward(pack(labels.token_seqs), params)


def encode_labels_backward(d_matrix: np.ndarray, cache: EncodeCache) -> None:
    encode_batch_backward(d_matrix, cache)
