"""Matrix-form multi-head attention, encoder/decoder layers, and block masks.

Multi-head attention is computed as
[softmax(A_1 / sqrt(d_k)) V, ..., softmax(A_H / sqrt(d_k)) V] . W_vo
with A_i = Q W_i_q (W_i_k)^T K^T. The H heads' query (and key) projections
sit side by side in one d x (H d_k) matrix, each head mixes the full-width
values, the H mixed values are laid side by side, and one (H d) x d matrix
W_vo, the per-head value-output projections stacked, maps them back to d.
Every projection shape is independent of sequence length, so concatenated
sequences extend it natively.

The attention mask is a block count (never a dense matrix): the queries and
the keys each split into that many equal aligned blocks, and query block j
may attend only to key block j. The block lengths follow from the row
counts, so attention runs as one batched product over all blocks, which
keeps the cost linear in the number of blocks and makes masked entries
contribute exactly zero weight. The encoder uses one block per part or
image, the decoder one per image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass
class MHAParams:
    """Packed projections of H heads: ``wq`` and ``wk`` are d x (H d_k) with
    head i in columns [i d_k, (i + 1) d_k); ``wvo`` is (H d) x d with head i
    in rows [i d, (i + 1) d)."""

    wq: Tensor
    wk: Tensor
    wvo: Tensor

    @property
    def heads(self) -> int:
        return self.wvo.shape[0] // self.d_model

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def d_k(self) -> int:
        return self.wq.shape[1] // self.heads

    @classmethod
    def init(cls, d_model: int, heads: int, rng: np.random.Generator) -> "MHAParams":
        if d_model % heads:
            raise ConfigError(f"head count {heads} must divide d_model {d_model}")
        d_k = d_model // heads

        def per_head(fan_out: int, gain: float = 1.0) -> np.ndarray:
            # H Xavier draws of d x fan_out, one after another.
            bound = gain * np.sqrt(6.0 / (d_model + fan_out))
            return rng.uniform(-bound, bound, size=(heads, d_model, fan_out))

        wq, wk = per_head(d_k), per_head(d_k)
        wvo = per_head(d_model, gain=1.0 / heads)
        return cls(
            wq=Tensor(wq.transpose(1, 0, 2).reshape(d_model, heads * d_k), requires_grad=True),
            wk=Tensor(wk.transpose(1, 0, 2).reshape(d_model, heads * d_k), requires_grad=True),
            wvo=Tensor(wvo.reshape(heads * d_model, d_model), requires_grad=True),
        )


@dataclass
class EncoderLayerParams:
    ln1_g: Tensor
    ln1_b: Tensor
    attn: MHAParams
    ln2_g: Tensor
    ln2_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor

    @classmethod
    def init(cls, d_model, heads, ffn_dim, rng):
        return cls(
            ln1_g=_ones_row(d_model), ln1_b=_zeros_row(d_model),
            attn=MHAParams.init(d_model, heads, rng),
            ln2_g=_ones_row(d_model), ln2_b=_zeros_row(d_model),
            mlp_w1=_xavier(d_model, ffn_dim, rng), mlp_b1=_zeros_row(ffn_dim),
            mlp_w2=_xavier(ffn_dim, d_model, rng), mlp_b2=_zeros_row(d_model),
        )


@dataclass
class DecoderLayerParams:
    ln1_g: Tensor
    ln1_b: Tensor
    self_attn: MHAParams
    ln2_g: Tensor
    ln2_b: Tensor
    cross_attn: MHAParams
    ln3_g: Tensor
    ln3_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor

    @classmethod
    def init(cls, d_model, heads, ffn_dim, rng):
        return cls(
            ln1_g=_ones_row(d_model), ln1_b=_zeros_row(d_model),
            self_attn=MHAParams.init(d_model, heads, rng),
            ln2_g=_ones_row(d_model), ln2_b=_zeros_row(d_model),
            cross_attn=MHAParams.init(d_model, heads, rng),
            ln3_g=_ones_row(d_model), ln3_b=_zeros_row(d_model),
            mlp_w1=_xavier(d_model, ffn_dim, rng), mlp_b1=_zeros_row(ffn_dim),
            mlp_w2=_xavier(ffn_dim, d_model, rng), mlp_b2=_zeros_row(d_model),
        )


@dataclass
class TransformerParams:
    encoder: list[EncoderLayerParams]
    decoder: list[DecoderLayerParams]
    final_ln_g: Tensor
    final_ln_b: Tensor

    @classmethod
    def init(cls, d_model, heads, enc_layers, dec_layers, ffn_dim, rng):
        return cls(
            encoder=[EncoderLayerParams.init(d_model, heads, ffn_dim, rng)
                     for _ in range(enc_layers)],
            decoder=[DecoderLayerParams.init(d_model, heads, ffn_dim, rng)
                     for _ in range(dec_layers)],
            final_ln_g=_ones_row(d_model),
            final_ln_b=_zeros_row(d_model),
        )


def _xavier(fan_in: int, fan_out: int, rng: np.random.Generator, gain: float = 1.0) -> Tensor:
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _zeros_row(d: int) -> Tensor:
    return Tensor(np.zeros((1, d)), requires_grad=True)


def _ones_row(d: int) -> Tensor:
    return Tensor(np.ones((1, d)), requires_grad=True)


# ---------------------------------------------------------------------------
# attention


def mha(q: Tensor, k: Tensor, v: Tensor, p: MHAParams, blocks: int = 1) -> Tensor:
    """Multi-head attention in matrix form: the queries and the keys each
    split into ``blocks`` equal aligned blocks, and query block j attends
    only to key block j."""
    if q.shape[1] != p.d_model or k.shape[1] != p.d_model or v.shape[1] != p.d_model:
        raise ShapeError("mha inputs must have width d_model")
    if blocks < 1 or q.shape[0] % blocks or k.shape[0] % blocks:
        raise ShapeError(f"{blocks} attention blocks do not tile {q.shape[0]} query "
                         f"and {k.shape[0]} key rows")
    mixed = T.block_attention(T.matmul(q, p.wq), T.matmul(k, p.wk), v,
                              p.heads, q.shape[0] // blocks, k.shape[0] // blocks)
    return T.matmul(mixed, p.wvo)


# ---------------------------------------------------------------------------
# layers


def _mlp(x: Tensor, w1, b1, w2, b2) -> Tensor:
    return T.add(T.matmul(T.relu(T.add(T.matmul(x, w1), b1)), w2), b2)


def encoder_forward(x: Tensor, layers: Sequence[EncoderLayerParams], blocks: int = 1,
                    pos: Optional[np.ndarray] = None) -> list[Tensor]:
    """Pre-norm encoder; returns every layer output (the supervision points).

    Positional encodings, when given, are added to queries and keys only, at
    every layer. An empty layer stack returns an empty list (the input itself
    is the degenerate encoding).
    """
    pos_t = Tensor(pos) if pos is not None else None
    if pos_t is not None and pos_t.shape != x.shape:
        raise ShapeError("positional encodings must match the token sequence shape")
    outputs = []
    for layer in layers:
        u = T.layer_norm_rows(x, layer.ln1_g, layer.ln1_b)
        qk = T.add(u, pos_t) if pos_t is not None else u
        x = T.add(x, mha(qk, qk, u, layer.attn, blocks))
        u2 = T.layer_norm_rows(x, layer.ln2_g, layer.ln2_b)
        x = T.add(x, _mlp(u2, layer.mlp_w1, layer.mlp_b1, layer.mlp_w2, layer.mlp_b2))
        outputs.append(x)
    return outputs


def decoder_forward(memory: Tensor, queries: Tensor, params: TransformerParams,
                    blocks: int = 1) -> Tensor:
    """Pre-norm decoder over learned query tokens; cross-attention is
    mha(targets, memory, memory), so the memory length is unconstrained.
    Self- and cross-attention both run over ``blocks`` blocks, one per image
    of a batch."""
    x = queries
    for layer in params.decoder:
        u = T.layer_norm_rows(x, layer.ln1_g, layer.ln1_b)
        x = T.add(x, mha(u, u, u, layer.self_attn, blocks))
        u = T.layer_norm_rows(x, layer.ln2_g, layer.ln2_b)
        x = T.add(x, mha(u, memory, memory, layer.cross_attn, blocks))
        u = T.layer_norm_rows(x, layer.ln3_g, layer.ln3_b)
        x = T.add(x, _mlp(u, layer.mlp_w1, layer.mlp_b1, layer.mlp_w2, layer.mlp_b2))
    return T.layer_norm_rows(x, params.final_ln_g, params.final_ln_b)


def positional_encoding(grid_h: int, grid_w: int, d_model: int) -> np.ndarray:
    """Fixed 2D sinusoidal encodings, one row per grid cell in row-major order."""
    if d_model % 4:
        raise ConfigError(f"d_model {d_model} must be divisible by 4")
    quarter = d_model // 4
    freqs = 1.0 / (10000.0 ** (np.arange(quarter) / quarter))
    ys, xs = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    xs = xs.reshape(-1, 1) * freqs  # (n, quarter)
    ys = ys.reshape(-1, 1) * freqs
    enc = np.empty((grid_h * grid_w, d_model))
    enc[:, 0:2 * quarter:2] = np.sin(xs)
    enc[:, 1:2 * quarter:2] = np.cos(xs)
    enc[:, 2 * quarter::2] = np.sin(ys)
    enc[:, 2 * quarter + 1::2] = np.cos(ys)
    return enc
