"""Set-prediction detector: patch embedding, per-part projections, heads.

The backbone is a linear patch embedding; extending the student to N parts
duplicates only that projection (independent parameters, shared input), so
the extended model costs (N-1) projection layers over the baseline. The
encoder runs under a block-diagonal mask that decouples the parts; the
decoder cross-attends whatever memory the encoder produced, compressed or
not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import amalgamation as ka
from . import tensor as T
from . import transformer as tf
from .errors import ConfigError, ContractError, ShapeError
from .settings import Settings
from .tensor import Tensor

COMPRESSION_MODES = ("none", "isometric", "random", "redundancy")


@dataclass
class DetectorConfig(Settings):
    image_size: int = 64
    patch_size: int = 8
    d_model: int = 64
    heads: int = 4
    enc_layers: int = 3
    dec_layers: int = 2
    queries: int = 16
    num_categories: int = 8
    num_parts: int = 1
    compression: str = "none"
    ffn_dim: int = 128
    supervise_projection: bool = True

    def __post_init__(self):
        for key in ("image_size", "patch_size", "d_model", "heads", "queries",
                    "num_categories", "num_parts", "ffn_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1")
        for key in ("enc_layers", "dec_layers"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative")
        if self.image_size % self.patch_size:
            raise ConfigError("image size must be divisible by the patch size")
        if self.d_model % self.heads:
            raise ConfigError("head count must divide d_model")
        if self.d_model % 4:
            raise ConfigError("d_model must be divisible by 4 for positional encodings")
        if self.compression not in COMPRESSION_MODES:
            raise ConfigError(f"unknown compression strategy {self.compression!r}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3


@dataclass
class DetectorParams:
    proj_w: list[Tensor]
    proj_b: list[Tensor]
    transformer: tf.TransformerParams
    query_embed: Tensor
    class_w: Tensor
    class_b: Tensor
    box_w1: Tensor
    box_b1: Tensor
    box_w2: Tensor
    box_b2: Tensor
    box_w3: Tensor
    box_b3: Tensor
    pos: np.ndarray = field(repr=False, default=None)

    @classmethod
    def init(cls, cfg: DetectorConfig, rng: np.random.Generator) -> "DetectorParams":
        d = cfg.d_model
        return cls(
            proj_w=[tf._xavier(cfg.patch_dim, d, rng) for _ in range(cfg.num_parts)],
            proj_b=[tf._zeros_row(d) for _ in range(cfg.num_parts)],
            transformer=tf.TransformerParams.init(d, cfg.heads, cfg.enc_layers,
                                                  cfg.dec_layers, cfg.ffn_dim, rng),
            query_embed=Tensor(rng.normal(0.0, 0.5, size=(cfg.queries, d)),
                               requires_grad=True),
            class_w=tf._xavier(d, cfg.num_categories + 1, rng),
            class_b=tf._zeros_row(cfg.num_categories + 1),
            box_w1=tf._xavier(d, d, rng), box_b1=tf._zeros_row(d),
            box_w2=tf._xavier(d, d, rng), box_b2=tf._zeros_row(d),
            box_w3=tf._xavier(d, 4, rng), box_b3=tf._zeros_row(4),
            pos=tf.positional_encoding(cfg.grid, cfg.grid, d),
        )

    def named_parameters(self) -> dict[str, Tensor]:
        named: dict[str, Tensor] = {}
        for t, (w, b) in enumerate(zip(self.proj_w, self.proj_b)):
            named[f"proj{t}.w"] = w
            named[f"proj{t}.b"] = b
        for l, enc in enumerate(self.transformer.encoder):
            base = f"enc{l}"
            named[f"{base}.ln1.g"] = enc.ln1_g
            named[f"{base}.ln1.b"] = enc.ln1_b
            named[f"{base}.attn.wq"] = enc.attn.wq
            named[f"{base}.attn.wk"] = enc.attn.wk
            named[f"{base}.attn.wvo"] = enc.attn.wvo
            named[f"{base}.ln2.g"] = enc.ln2_g
            named[f"{base}.ln2.b"] = enc.ln2_b
            named[f"{base}.mlp.w1"] = enc.mlp_w1
            named[f"{base}.mlp.b1"] = enc.mlp_b1
            named[f"{base}.mlp.w2"] = enc.mlp_w2
            named[f"{base}.mlp.b2"] = enc.mlp_b2
        for l, dec in enumerate(self.transformer.decoder):
            base = f"dec{l}"
            named[f"{base}.ln1.g"] = dec.ln1_g
            named[f"{base}.ln1.b"] = dec.ln1_b
            named[f"{base}.self.wq"] = dec.self_attn.wq
            named[f"{base}.self.wk"] = dec.self_attn.wk
            named[f"{base}.self.wvo"] = dec.self_attn.wvo
            named[f"{base}.ln2.g"] = dec.ln2_g
            named[f"{base}.ln2.b"] = dec.ln2_b
            named[f"{base}.cross.wq"] = dec.cross_attn.wq
            named[f"{base}.cross.wk"] = dec.cross_attn.wk
            named[f"{base}.cross.wvo"] = dec.cross_attn.wvo
            named[f"{base}.ln3.g"] = dec.ln3_g
            named[f"{base}.ln3.b"] = dec.ln3_b
            named[f"{base}.mlp.w1"] = dec.mlp_w1
            named[f"{base}.mlp.b1"] = dec.mlp_b1
            named[f"{base}.mlp.w2"] = dec.mlp_w2
            named[f"{base}.mlp.b2"] = dec.mlp_b2
        named["final_ln.g"] = self.transformer.final_ln_g
        named["final_ln.b"] = self.transformer.final_ln_b
        named["queries"] = self.query_embed
        named["class.w"] = self.class_w
        named["class.b"] = self.class_b
        for name in ("box_w1", "box_b1", "box_w2", "box_b2", "box_w3", "box_b3"):
            named[name.replace("_", ".", 1)] = getattr(self, name)
        return named

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.named_parameters().values():
            p.requires_grad = flag


def image_to_patches(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Flatten non-overlapping patches in row-major grid order."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError("image must be H x W x 3")
    h, w = image.shape[:2]
    if h % patch_size or w % patch_size:
        raise ShapeError("image dimensions must be divisible by the patch size")
    gh, gw = h // patch_size, w // patch_size
    return (image.reshape(gh, patch_size, gw, patch_size, 3)
            .transpose(0, 2, 1, 3, 4)
            .reshape(gh * gw, patch_size * patch_size * 3))


def normalized_patches(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Patch matrix with pixels recentered from [0, 1] to [-1, 1]."""
    return image_to_patches(image, patch_size) * 2.0 - 1.0


@dataclass
class BatchOutput:
    """Stacked forward results for a batch of B images."""

    dists: Tensor          # (B * m, C + 1)
    boxes: Tensor          # (B * m, 4)
    layer_seqs: list[Tensor]  # supervision sequences, each (B * L, d)
    p_slims: Optional[list[np.ndarray]]  # kept indices per image, when compressed
    batch: int
    memory_len: int        # memory rows per image seen by the decoder


def _interleave_perm(batch: int, parts: int, tokens: int) -> np.ndarray:
    # Part-major concat -> image-major layout: target (b, t, j) reads
    # source t * (batch * tokens) + b * tokens + j.
    src = np.arange(parts * batch * tokens).reshape(parts, batch, tokens)
    return src.transpose(1, 0, 2).reshape(-1)


def forward_batch(images: Sequence[np.ndarray], params: DetectorParams,
                  cfg: DetectorConfig, p_slims: Optional[Sequence[np.ndarray]] = None,
                  rng: Optional[np.random.Generator] = None) -> BatchOutput:
    """Run the detector over a batch; all per-image math shares BLAS calls.

    With compression active, ``p_slims`` carries the per-image kept indices
    (training computes them from the concatenated teacher sequences); when
    omitted they are derived from the student's own extended projection, the
    evaluation-time rule.
    """
    batch = len(images)
    if batch == 0:
        raise ContractError("empty batch")
    n, parts, d, m = cfg.tokens, cfg.num_parts, cfg.d_model, cfg.queries
    patches = Tensor(np.concatenate([normalized_patches(img, cfg.patch_size)
                                     for img in images], axis=0))
    part_seqs = [T.add(T.matmul(patches, params.proj_w[t]), params.proj_b[t])
                 for t in range(parts)]
    if parts == 1:
        extended = part_seqs[0]
    else:
        extended = T.permute_rows(T.concat_rows(part_seqs),
                                  _interleave_perm(batch, parts, n))

    compressed = cfg.compression != "none" and parts > 1
    if compressed:
        if p_slims is None:
            p_slims = [ka.select_tokens(cfg.compression,
                                        extended.data[b * parts * n:(b + 1) * parts * n],
                                        parts, n, rng or np.random.default_rng(0))
                       for b in range(batch)]
        p_slims = [np.asarray(p, dtype=np.intp) for p in p_slims]
        for p in p_slims:
            if p.shape != (n,):
                raise ContractError("each kept-index set must hold exactly n indices")
        gather = np.concatenate([b * parts * n + p for b, p in enumerate(p_slims)])
        x = T.gather_rows(extended, gather)
        pos = np.concatenate([params.pos[ka.kept_positions(p, n)] for p in p_slims])
        blocks = batch
    else:
        p_slims = None
        x = extended
        pos = np.tile(params.pos, (batch * parts, 1))
        blocks = batch * parts

    mask = tf.AttentionMask(blocks, x.shape[0] // blocks, x.shape[0] // blocks)
    # The supervision/compression/redundancy point is the raw projection
    # output; the encoder consumes it with positional content mixed in, since
    # a linear patch embedding of near-uniform backgrounds carries no spatial
    # signal of its own and the decoder reads position from memory values.
    enc_in = T.add(x, Tensor(pos))
    enc_outs = tf.encoder_forward(enc_in, params.transformer.encoder, mask=mask, pos=pos)
    layer_seqs = ([x] if cfg.supervise_projection else []) + enc_outs

    memory = enc_outs[-1] if enc_outs else enc_in
    memory_len = memory.shape[0] // batch
    queries = T.gather_rows(params.query_embed, np.tile(np.arange(m), batch))
    decoded = tf.decoder_forward(
        memory, queries, params.transformer,
        self_mask=tf.AttentionMask(batch, m, m),
        cross_mask=tf.AttentionMask(batch, m, memory_len))

    dists = T.softmax_rows(T.add(T.matmul(decoded, params.class_w), params.class_b))
    hidden = T.relu(T.add(T.matmul(decoded, params.box_w1), params.box_b1))
    hidden = T.relu(T.add(T.matmul(hidden, params.box_w2), params.box_b2))
    boxes = T.sigmoid(T.add(T.matmul(hidden, params.box_w3), params.box_b3))

    return BatchOutput(dists=dists, boxes=boxes, layer_seqs=layer_seqs,
                       p_slims=list(p_slims) if p_slims is not None else None,
                       batch=batch, memory_len=memory_len)
