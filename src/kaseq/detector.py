"""Set-prediction detector: patch embedding, per-part projections, heads.

The backbone is a linear patch embedding; extending the student to N parts
duplicates only that projection (independent parameters, shared input), so
the extended model costs (N-1) projection layers over the baseline. The
encoder runs under a block-diagonal mask that decouples the parts; the
decoder cross-attends whatever memory the encoder produced, compressed or
not.

A forward that records no tape (no parameter requires a gradient: every
evaluation and every teacher-cache build) splits its batch into contiguous
image shares, one per usable core, after token selection; the calling
thread runs the first share and a module-level thread pool the others, and
the results are joined in image order. Every image's rows are computed by
the same operations either way, so the outputs are byte-equal to an
unsplit pass. Taped forwards, every training step, run as one share.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

    @property
    def supervised_layers(self) -> int:
        """Sequences amalgamation supervises: the projection, if set, and each encoder layer."""
        return int(self.supervise_projection) + self.enc_layers


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

    dists: Optional[Tensor]  # (B * m, C + 1); None when not predicted
    boxes: Optional[Tensor]  # (B * m, 4); None when not predicted
    layer_seqs: list[Tensor]  # supervision sequences, each (B * L, d)
    kept: Optional[np.ndarray]  # kept rows of the image-major extended sequence, when compressed
    batch: int
    memory_len: int        # memory rows per image seen by the decoder


def _interleave_perm(batch: int, parts: int, tokens: int) -> np.ndarray:
    # Part-major concat -> image-major layout: target (b, t, j) reads
    # source t * (batch * tokens) + b * tokens + j.
    src = np.arange(parts * batch * tokens).reshape(parts, batch, tokens)
    return src.transpose(1, 0, 2).reshape(-1)


def extended_projection(images: Sequence[np.ndarray], params: DetectorParams,
                        cfg: DetectorConfig) -> Tensor:
    """The extended sequence of a batch, (B N n, d) and image-major: each
    image's N part projections of its patches, one after another."""
    patches = Tensor(np.concatenate([normalized_patches(img, cfg.patch_size)
                                     for img in images], axis=0))
    part_seqs = [T.add(T.matmul(patches, params.proj_w[t]), params.proj_b[t])
                 for t in range(cfg.num_parts)]
    if cfg.num_parts == 1:
        return part_seqs[0]
    return T.permute_rows(T.concat_rows(part_seqs),
                          _interleave_perm(len(images), cfg.num_parts, cfg.tokens))


# ---------------------------------------------------------------------------
# splitting no-tape forwards across cores

_max_shares: Optional[int] = None  # per-process cap, see limit_shares
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def core_count() -> int:
    """CPU cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def limit_shares(limit: int) -> None:
    """Split a no-tape forward into at most ``limit`` (>= 1) shares in this
    process. Processes that share the cores with siblings, such as the
    workers of a parallel ablation, set it once at start-up."""
    global _max_shares
    _max_shares = limit


def share_count() -> int:
    """Image shares of a no-tape forward: one per usable core, at most the
    :func:`limit_shares` cap."""
    cores = core_count()
    return cores if _max_shares is None else min(cores, _max_shares)


def _share_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, share_count() - 1),
                                       thread_name_prefix="kaseq-share")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _encode_and_predict(x: Tensor, pos: np.ndarray, images: int, image_blocks: int,
                        params: DetectorParams, cfg: DetectorConfig, predict: bool):
    """Encoder, decoder and heads over the selected tokens ``x`` of ``images``
    images, each ``image_blocks`` attention blocks long; returns the encoder
    outputs, ``dists`` and ``boxes`` (both None unless ``predict``)."""
    m = cfg.queries
    blocks = images * image_blocks
    mask = tf.AttentionMask(blocks, x.shape[0] // blocks, x.shape[0] // blocks)
    # The supervision/compression/redundancy point is the raw projection
    # output; the encoder consumes it with positional content mixed in, since
    # a linear patch embedding of near-uniform backgrounds carries no spatial
    # signal of its own and the decoder reads position from memory values.
    enc_in = T.add(x, Tensor(pos))
    enc_outs = tf.encoder_forward(enc_in, params.transformer.encoder, mask=mask, pos=pos)
    if not predict:
        return enc_outs, None, None

    memory = enc_outs[-1] if enc_outs else enc_in
    queries = T.gather_rows(params.query_embed, np.tile(np.arange(m), images))
    decoded = tf.decoder_forward(
        memory, queries, params.transformer,
        self_mask=tf.AttentionMask(images, m, m),
        cross_mask=tf.AttentionMask(images, m, memory.shape[0] // images))

    dists = T.softmax_rows(T.add(T.matmul(decoded, params.class_w), params.class_b))
    hidden = T.relu(T.add(T.matmul(decoded, params.box_w1), params.box_b1))
    hidden = T.relu(T.add(T.matmul(hidden, params.box_w2), params.box_b2))
    boxes = T.sigmoid(T.add(T.matmul(hidden, params.box_w3), params.box_b3))
    return enc_outs, dists, boxes


def _join(pieces: Sequence[Tensor]) -> Tensor:
    return pieces[0] if len(pieces) == 1 else T.concat_rows(pieces)


def forward_batch(images: Sequence[np.ndarray], params: DetectorParams,
                  cfg: DetectorConfig, guide: Optional[np.ndarray] = None,
                  rng: Optional[np.random.Generator] = None,
                  predict: bool = True) -> BatchOutput:
    """Run the detector over a batch; all per-image math shares BLAS calls.

    With compression active, each image keeps the n tokens that
    ``cfg.compression`` selects from its N n rows of ``guide``, an
    image-major (B N n, d) array (training passes the concatenated teacher
    projections); when ``guide`` is omitted, the student's own extended
    projection guides, the evaluation-time rule.

    With ``predict`` false the pass stops after the encoder: the decoder and
    the heads do not run, ``dists`` and ``boxes`` are None, and the
    supervision sequences, ``kept`` and ``memory_len`` are those of the full
    pass. Training uses it on steps whose loss reads no prediction.

    When no parameter requires a gradient, the pass records no tape, and a
    batch of at least 2 images is split after token selection (so ``rng``
    is drawn in image order on the calling thread) into
    ``min(B, share_count())`` contiguous image shares. Each share runs the
    encoder, decoder and heads; the results are concatenated in image
    order and are byte-equal to a pass in one share. The calling thread
    runs the first share and a pool of cores - 1 threads the others. The
    caller works rather than waits because every thread that allocates
    gets its own glibc malloc arena, which keeps freed memory: on 2 vCPUs,
    the benchmark's ``evaluate_student`` peaked at 80.2 MB with a pool that
    ran both shares while the caller waited, against 74.1 MB this way (and
    74.0 MB unsplit). A taped forward, every training step, is one share,
    the whole batch, uncopied.
    """
    batch = len(images)
    if batch == 0:
        raise ContractError("empty batch")
    n, parts = cfg.tokens, cfg.num_parts
    extended = extended_projection(images, params, cfg)

    if cfg.compression != "none" and parts > 1:
        rows = parts * n
        source = extended.data if guide is None else guide
        if source.shape[0] != batch * rows:
            raise ContractError(f"the guide holds {source.shape[0]} rows, not {batch * rows}")
        kept = np.concatenate([
            b * rows + ka.select_tokens(cfg.compression, source[b * rows:(b + 1) * rows],
                                        parts, n, rng or np.random.default_rng(0))
            for b in range(batch)])
        x = T.gather_rows(extended, kept)
        pos = params.pos[kept % n]
        image_blocks = 1
    else:
        kept = None
        x = extended
        pos = np.tile(params.pos, (batch * parts, 1))
        image_blocks = parts

    taped = any(p.requires_grad for p in params.named_parameters().values())
    count = 1 if taped else min(batch, share_count())
    memory_len = x.shape[0] // batch
    starts = [batch * s // count for s in range(count + 1)]
    shares = [(x if count == 1 else Tensor(x.data[lo * memory_len:hi * memory_len]),
               pos[lo * memory_len:hi * memory_len], hi - lo)
              for lo, hi in zip(starts, starts[1:])]
    futures = [_share_pool().submit(_encode_and_predict, *share, image_blocks, params, cfg,
                                    predict)
               for share in shares[1:]]
    try:
        results = [_encode_and_predict(*shares[0], image_blocks, params, cfg, predict)]
    finally:
        wait(futures)
    results += [future.result() for future in futures]

    enc_outs = [_join(layer) for layer in zip(*(enc for enc, _, _ in results))]
    return BatchOutput(
        dists=_join([d for _, d, _ in results]) if predict else None,
        boxes=_join([b for _, _, b in results]) if predict else None,
        layer_seqs=([x] if cfg.supervise_projection else []) + enc_outs,
        kept=kept, batch=batch, memory_len=memory_len)
