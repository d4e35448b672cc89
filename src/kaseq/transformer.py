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

The parameters come in small groups: a :class:`Norm` (gain ``g``, bias
``b``), an :class:`Affine` map (``w``, ``b``), an :class:`MLP` (``w1``,
``b1``, ``w2``, ``b2``) and an :class:`MHAParams` (``wq``, ``wk``, ``wvo``).
An encoder layer holds ``ln1, attn, ln2, mlp``; a decoder layer holds
``ln1, self_, ln2, cross, ln3, mlp``. The field names are the tensors'
checkpoint names (see :class:`kaseq.detector.DetectorParams`).

Each group runs as one tape op, byte-equal to the matmul, add and relu ops
it replaces. An affine map, and an attention's ``W_vo`` product with the
residual every attention is given, are one ``tensor.matmul_add``, which
keeps its two factors; an MLP with its residual (the box head has none) is
one ``tensor.mlp``, which keeps its input and its rectified hidden layer.
Neither keeps a product, a pre-activation or a branch output.
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
class Norm:
    """Row layer-norm gain ``g`` and bias ``b``, each 1 x d."""

    g: Tensor
    b: Tensor

    @classmethod
    def init(cls, d: int) -> "Norm":
        return cls(g=Tensor(np.ones((1, d)), requires_grad=True), b=_zeros_row(d))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm_rows(x, self.g, self.b)


@dataclass
class Affine:
    """x w + b, with a Xavier-initialized fan_in x fan_out ``w`` and a zero
    row ``b``; one ``tensor.matmul_add``, which keeps ``x`` and ``w``."""

    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: np.random.Generator) -> "Affine":
        return cls(w=_xavier(fan_in, fan_out, rng), b=_zeros_row(fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul_add(x, self.w, self.b)


@dataclass
class MLP:
    """relu(x w1 + b1) w2 + b2, plus a residual when one is given; one
    ``tensor.mlp``, which keeps ``x`` and the rectified hidden layer."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, d_in: int, hidden: int, d_out: int, rng: np.random.Generator) -> "MLP":
        return cls(w1=_xavier(d_in, hidden, rng), b1=_zeros_row(hidden),
                   w2=_xavier(hidden, d_out, rng), b2=_zeros_row(d_out))

    def __call__(self, x: Tensor, residual: Optional[Tensor] = None) -> Tensor:
        return T.mlp(x, self.w1, self.b1, self.w2, self.b2, residual)


@dataclass
class EncoderLayerParams:
    ln1: Norm
    attn: MHAParams
    ln2: Norm
    mlp: MLP

    @classmethod
    def init(cls, d_model, heads, ffn_dim, rng):
        return cls(ln1=Norm.init(d_model), attn=MHAParams.init(d_model, heads, rng),
                   ln2=Norm.init(d_model), mlp=MLP.init(d_model, ffn_dim, d_model, rng))


@dataclass
class DecoderLayerParams:
    ln1: Norm
    self_: MHAParams
    ln2: Norm
    cross: MHAParams
    ln3: Norm
    mlp: MLP

    @classmethod
    def init(cls, d_model, heads, ffn_dim, rng):
        return cls(ln1=Norm.init(d_model), self_=MHAParams.init(d_model, heads, rng),
                   ln2=Norm.init(d_model), cross=MHAParams.init(d_model, heads, rng),
                   ln3=Norm.init(d_model), mlp=MLP.init(d_model, ffn_dim, d_model, rng))


def _xavier(fan_in: int, fan_out: int, rng: np.random.Generator) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _zeros_row(d: int) -> Tensor:
    return Tensor(np.zeros((1, d)), requires_grad=True)


# ---------------------------------------------------------------------------
# attention


def mha(q: Tensor, k: Tensor, v: Tensor, p: MHAParams, blocks: int,
        residual: Tensor) -> Tensor:
    """``residual`` plus multi-head attention in matrix form: the queries and
    the keys each split into ``blocks`` equal aligned blocks, and query block
    j attends only to key block j. The residual is added in the ``W_vo``
    product's op."""
    if q.shape[1] != p.d_model or k.shape[1] != p.d_model or v.shape[1] != p.d_model:
        raise ShapeError("mha inputs must have width d_model")
    if blocks < 1 or q.shape[0] % blocks or k.shape[0] % blocks:
        raise ShapeError(f"{blocks} attention blocks do not tile {q.shape[0]} query "
                         f"and {k.shape[0]} key rows")
    mixed = T.block_attention(T.matmul(q, p.wq), T.matmul(k, p.wk), v,
                              p.heads, q.shape[0] // blocks, k.shape[0] // blocks)
    return T.matmul_add(mixed, p.wvo, residual)


# ---------------------------------------------------------------------------
# layers


def encoder_forward(x: Tensor, layers: Sequence[EncoderLayerParams], blocks: int,
                    pos: np.ndarray) -> list[Tensor]:
    """Pre-norm encoder over ``blocks`` attention blocks; returns every layer
    output (the supervision points), so none for an empty layer stack.

    The positional encodings ``pos``, one row per row of ``x``, are added to
    queries and keys only, at every layer.
    """
    pos_t = Tensor(pos)
    if pos_t.shape != x.shape:
        raise ShapeError("positional encodings must match the token sequence shape")
    outputs = []
    for layer in layers:
        u = layer.ln1(x)
        qk = T.add(u, pos_t)
        x = mha(qk, qk, u, layer.attn, blocks, residual=x)
        x = layer.mlp(layer.ln2(x), residual=x)
        outputs.append(x)
    return outputs


def decoder_forward(memory: Tensor, queries: Tensor, layers: Sequence[DecoderLayerParams],
                    final_ln: Norm, blocks: int) -> Tensor:
    """Pre-norm decoder over learned query tokens, then ``final_ln``;
    cross-attention is mha(targets, memory, memory), so the memory length is
    unconstrained. Self- and cross-attention both run over ``blocks``
    blocks, one per image of a batch."""
    x = queries
    for layer in layers:
        u = layer.ln1(x)
        x = mha(u, u, u, layer.self_, blocks, residual=x)
        u = layer.ln2(x)
        x = mha(u, memory, memory, layer.cross, blocks, residual=x)
        x = layer.mlp(layer.ln3(x), residual=x)
    return final_ln(x)


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
