"""Set-prediction detector: patch embedding, per-part projections, heads.

The backbone is a linear patch embedding; extending the student to N parts
duplicates only that projection (independent parameters, shared input), so
the extended model costs (N-1) projection layers over the baseline. One
``tensor.interleave_rows`` lays a batch's part projections out image-major.
The encoder runs under a block-diagonal mask that decouples the parts; the
decoder cross-attends whatever memory the encoder produced, compressed or not.

A forward splits its batch into contiguous image shares, one per usable
core, each running the whole forward of its images on the share pool of
:mod:`kaseq.tensor`; the outputs are byte-equal to an unsplit pass, and a
taped forward's backward walks the shares the same way (see
:func:`forward_batch`).

At import the module has glibc's malloc keep freed heap mapped (see
:func:`_keep_freed_heap`): every forward frees and reallocates the same
tens of megabytes, which the next forward would otherwise fault in again.
"""

from __future__ import annotations

import ctypes
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    """Geometry of a detector, its part count N and its compression rule.
    Amalgamation supervises its projection output and every encoder
    layer's output, :attr:`supervised_layers` sequences in all."""

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

    def __post_init__(self):
        self._require(("image_size", "patch_size", "d_model", "heads", "queries",
                       "num_categories", "num_parts", "ffn_dim"), lambda v: v >= 1, "at least 1")
        self._require(("enc_layers", "dec_layers"), lambda v: v >= 0, "non-negative")
        self._require(("compression",), lambda v: v in COMPRESSION_MODES,
                      f"one of {', '.join(COMPRESSION_MODES)}")
        if self.image_size % self.patch_size:
            raise ConfigError("image size must be divisible by the patch size")
        if self.d_model % self.heads:
            raise ConfigError("head count must divide d_model")
        if self.d_model % 4:
            raise ConfigError("d_model must be divisible by 4 for positional encodings")

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
    def selects_tokens(self) -> bool:
        """Whether compression keeps n of each image's N n extended tokens."""
        return self.compression != "none" and self.num_parts > 1

    @property
    def supervised_layers(self) -> int:
        """Sequences amalgamation supervises: the projection output, then
        each encoder layer's."""
        return 1 + self.enc_layers


@dataclass
class BoxHead(tf.MLP):
    """sigmoid(relu(relu(x w1 + b1) w2 + b2) w3 + b3): a box (cx, cy, w, h)
    per decoded row."""

    w3: Tensor
    b3: Tensor

    @classmethod
    def init(cls, d: int, rng: np.random.Generator) -> "BoxHead":
        return cls(w1=tf._xavier(d, d, rng), b1=tf._zeros_row(d), w2=tf._xavier(d, d, rng),
                   b2=tf._zeros_row(d), w3=tf._xavier(d, 4, rng), b3=tf._zeros_row(4))

    def __call__(self, x: Tensor) -> Tensor:
        return T.sigmoid(T.matmul_add(T.relu(super().__call__(x)), self.w3, self.b3))


@dataclass
class DetectorParams:
    """The detector's tensors, one field path each. A tensor's name, in
    ``named_parameters`` and in checkpoints, is its path: field names joined
    by dots, a trailing underscore dropped, and a list position appended to
    its field's name (``proj1.w``, ``enc0.ln1.g``, ``dec0.self.wq``,
    ``class.b``). ``pos``, the fixed positional encodings, is no tensor and
    has no name."""

    proj: list[tf.Affine]  # one per part
    enc: list[tf.EncoderLayerParams]
    dec: list[tf.DecoderLayerParams]
    final_ln: tf.Norm
    queries: Tensor
    class_: tf.Affine
    box: BoxHead
    pos: np.ndarray = field(repr=False)

    @classmethod
    def init(cls, cfg: DetectorConfig, rng: np.random.Generator) -> "DetectorParams":
        d = cfg.d_model
        return cls(
            proj=[tf.Affine.init(cfg.patch_dim, d, rng) for _ in range(cfg.num_parts)],
            enc=[tf.EncoderLayerParams.init(d, cfg.heads, cfg.ffn_dim, rng)
                 for _ in range(cfg.enc_layers)],
            dec=[tf.DecoderLayerParams.init(d, cfg.heads, cfg.ffn_dim, rng)
                 for _ in range(cfg.dec_layers)],
            final_ln=tf.Norm.init(d),
            queries=Tensor(rng.normal(0.0, 0.5, size=(cfg.queries, d)), requires_grad=True),
            class_=tf.Affine.init(d, cfg.num_categories + 1, rng),
            box=BoxHead.init(d, rng),
            pos=tf.positional_encoding(cfg.grid, cfg.grid, d),
        )

    def named_parameters(self) -> dict[str, Tensor]:
        named: dict[str, Tensor] = {}
        _rebuild(self, named.setdefault)
        return named

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.named_parameters().values():
            p.requires_grad = flag


def _rebuild(obj, leaf: Callable[[str, Tensor], Tensor], name: str = ""):
    """``obj`` rebuilt with ``leaf(name, t)`` in place of each Tensor ``t``
    it holds through dataclass fields and lists, called in field order;
    ``name`` is the tensor's name (see :class:`DetectorParams`)."""
    if isinstance(obj, Tensor):
        return leaf(name, obj)
    if isinstance(obj, list):
        return [_rebuild(item, leaf, f"{name}{i}") for i, item in enumerate(obj)]
    if not dataclasses.is_dataclass(obj):
        return obj
    prefix = name + "." if name else ""
    # Field names in order; no parameter class declares a ClassVar or InitVar.
    return type(obj)(*[_rebuild(getattr(obj, f), leaf, prefix + f.removesuffix("_"))
                       for f in obj.__dataclass_fields__])


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
    """Stacked forward results for a batch of B images. On a taped forward
    they are tape nodes, so one ``loss.backward()`` of a loss computed from
    them reaches every parameter; a second one is a ContractError."""

    dists: Optional[Tensor]  # (B * m, C + 1); None when not predicted
    boxes: Optional[Tensor]  # (B * m, 4); None when not predicted
    layer_seqs: list[Tensor]  # the selected tokens, then each encoder output, each (B * L, d)
    kept: Optional[np.ndarray]  # kept rows of the image-major extended sequence, when compressed
    batch: int


def extended_projection(images: Sequence[np.ndarray], params: DetectorParams,
                        cfg: DetectorConfig) -> Tensor:
    """The extended sequence of a batch, (B N n, d) and image-major: each
    image's N part projections of its patches, one after another."""
    patches = Tensor(np.concatenate([normalized_patches(img, cfg.patch_size)
                                     for img in images], axis=0))
    return T.interleave_rows([proj(patches) for proj in params.proj], len(images))


# ---------------------------------------------------------------------------
# splitting forwards across cores

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters (glibc's malloc.h)


def _keep_freed_heap() -> None:
    """Have glibc's malloc keep up to 64 MiB of freed memory at the top of
    each arena's heap mapped (the main arena's and one per share thread),
    and serve blocks under 32 MiB from the heap; blocks of 32 MiB or more
    are still mapped on their own and returned when freed. By default glibc
    hands freed heap back to the system (every thread that allocates, such
    as a share thread, trims its own arena), and the next forward faults
    the same pages in again. The 64 MiB bounds only the free top of a heap:
    free blocks below it stay mapped, as they always did, and blocks that
    glibc would first have mapped on their own now land among them. A no-op
    where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()


def _leaf_views(params: DetectorParams) -> tuple[DetectorParams, list[tuple[Tensor, Tensor]]]:
    """``params`` with each Tensor replaced by a fresh leaf over the same
    array, and the (parameter, leaf) pairs in name order."""
    pairs: list[tuple[Tensor, Tensor]] = []

    def view(_, p: Tensor) -> Tensor:
        leaf = Tensor(p.data, requires_grad=p.requires_grad)
        pairs.append((p, leaf))
        return leaf

    return _rebuild(params, view), pairs


def _share_forward(images: Sequence[np.ndarray], guide: Optional[np.ndarray],
                   picks: Optional[np.ndarray], params: DetectorParams,
                   cfg: DetectorConfig, predict: bool):
    """One share's whole forward over ``images``: the extended projection,
    token selection, the encoder, decoder and heads. ``picks`` holds the
    kept rows of a rule that reads no data, one (B, n) row per image; the
    redundancy rule reads ``guide``, the share's rows of the caller's guide,
    or else the share's own projection, in one call. Returns the kept rows,
    or None, and the outputs: the selected tokens, each encoder output, then
    ``dists`` and ``boxes`` if ``predict``."""
    batch, n, parts = len(images), cfg.tokens, cfg.num_parts
    m = cfg.queries
    extended = extended_projection(images, params, cfg)
    if cfg.selects_tokens:
        rows = parts * n
        if picks is None:
            picks = ka.compress_redundancy(extended.data if guide is None else guide, parts, n)
        kept = (picks + rows * np.arange(batch)[:, None]).reshape(-1)
        x = T.gather_rows(extended, kept)
        pos = params.pos[kept % n]
        blocks = batch
    else:
        kept = None
        x = extended
        pos = np.tile(params.pos, (batch * parts, 1))
        blocks = batch * parts

    # The supervision/compression/redundancy point is the raw projection
    # output; the encoder consumes it with positional content mixed in, since
    # a linear patch embedding of near-uniform backgrounds carries no spatial
    # signal of its own and the decoder reads position from memory values.
    enc_in = T.add(x, Tensor(pos))
    outs = [x] + tf.encoder_forward(enc_in, params.enc, blocks, pos)
    if predict:
        memory = outs[-1] if cfg.enc_layers else enc_in
        queries = T.gather_rows(params.queries, np.tile(np.arange(m), batch))
        decoded = tf.decoder_forward(memory, queries, params.dec, params.final_ln, batch)
        outs += [T.softmax_rows(params.class_(decoded)), params.box(decoded)]
    return kept, outs


def _merge_shares(bounds: list[tuple[int, int]], pairs: list[list[tuple[Tensor, Tensor]]],
                  outputs: list[list[Tensor]]) -> list[Tensor]:
    """The shares' outputs, each joined in image order; with two or more
    shares, each share output's value becomes a view of its rows of the
    join, so no output is held twice. A taped forward's joins are tape
    nodes over one parent node, whose parents are the parameters, so a walk
    reaches it after every join the loss reads; ``pairs`` holds each
    share's (parameter, leaf view) pairs, in one order for every share. Its
    backward walks each share's graph on its own thread, seeded with the
    share's rows of the joins' gradients, and returns each parameter's view
    gradients added in share order, so that no sum depends on the thread
    schedule. The walk releases the share graphs as it goes, as any walk
    does; a second backward is a ContractError."""
    datas = [pieces[0].data if len(pieces) == 1 else np.concatenate([p.data for p in pieces])
             for pieces in zip(*outputs)]
    per_image = [data.shape[0] // bounds[-1][1] for data in datas]
    if len(bounds) > 1:
        for share, (lo, hi) in zip(outputs, bounds):
            for out, data, rows in zip(share, datas, per_image):
                out.data = data[lo * rows:hi * rows]
    grads: list[Optional[np.ndarray]] = [None] * len(datas)  # filled by the joins' backward
    named = [p for p, _ in pairs[0]]

    def share_backward(_):
        seeds = [[None if g is None else g[lo * rows:hi * rows]
                  for g, rows in zip(grads, per_image)] for lo, hi in bounds]
        grads[:] = [None] * len(grads)  # joins the loss did not read keep the list
        T.run_shares(T.backward_seeded, list(zip(outputs, seeds)))
        gparams: list[Optional[np.ndarray]] = [None] * len(named)
        for share in pairs:
            for i, (_, v) in enumerate(share):
                if v.grad is not None:
                    gparams[i] = v.grad if gparams[i] is None else gparams[i] + v.grad
        return gparams

    parent = T._from_op(np.zeros(()), named, share_backward)

    def join(i: int, data: np.ndarray) -> Tensor:
        def vjp(g):
            grads[i] = g
            return (np.zeros(()),)
        return T._from_op(data, (parent,), vjp)

    return [join(i, data) for i, data in enumerate(datas)]


def forward_batch(images: Sequence[np.ndarray], params: DetectorParams,
                  cfg: DetectorConfig, guide: Optional[np.ndarray] = None,
                  rng: Optional[np.random.Generator] = None,
                  predict: bool = True) -> BatchOutput:
    """Run the detector over a batch; all per-image math shares BLAS calls.

    With compression active, each image keeps the n tokens that
    ``cfg.compression`` selects from its N n rows of ``guide``, an
    image-major (B N n, d) array (training passes the concatenated teacher
    projections); when ``guide`` is omitted, the student's own extended
    projection guides, the evaluation-time rule. The random rule draws from
    ``rng`` (by default ``default_rng(0)``) in image order.

    With ``predict`` false the pass stops after the encoder: the decoder and
    the heads do not run, ``dists`` and ``boxes`` are None, and the
    supervision sequences and ``kept`` are those of the full pass. Training
    uses it on steps whose loss reads no prediction.

    The batch is split into ``min(B, tensor.share_count())`` contiguous image
    shares before the projection, whether or not the pass records a tape.
    The kept rows of the rules that read no data are picked first, on the
    calling thread: ``isometric``'s fixed rows, and ``random``'s draws, so
    that they stay one stream. Each share projects its images' patches,
    selects their tokens (``redundancy`` reads the share's rows of the
    guide) and runs the encoder, decoder and heads over fresh leaf views of
    the parameters, which share their arrays; the results are concatenated
    in image order, byte-equal to a pass in one share (see
    :func:`_merge_shares` for how a taped pass's gradient reaches the
    shares; an untaped pass's views and joins record no tape), and
    ``tensor.run_shares`` runs the shares.
    """
    batch = len(images)
    if batch == 0:
        raise ContractError("empty batch")
    n, parts = cfg.tokens, cfg.num_parts
    rows, picks = parts * n, None
    if cfg.selects_tokens and guide is not None and guide.shape[0] != batch * rows:
        raise ContractError(f"the guide holds {guide.shape[0]} rows, not {batch * rows}")
    if cfg.selects_tokens and cfg.compression == "random":
        rng = np.random.default_rng(0) if rng is None else rng
        picks = np.stack([ka.compress_random(parts, n, rng) for _ in range(batch)])
    elif cfg.selects_tokens and cfg.compression == "isometric":
        picks = np.tile(ka.compress_isometric(parts, n), (batch, 1))

    count = min(batch, T.share_count())
    starts = [batch * s // count for s in range(count + 1)]
    bounds = list(zip(starts, starts[1:]))
    views = [_leaf_views(params) for _ in bounds]
    results = T.run_shares(_share_forward, [
        (images[lo:hi], None if guide is None else guide[lo * rows:hi * rows],
         None if picks is None else picks[lo:hi], view, cfg, predict)
        for (view, _), (lo, hi) in zip(views, bounds)])
    kept = np.concatenate([share_kept + lo * rows for (share_kept, _), (lo, _)
                           in zip(results, bounds)]) if cfg.selects_tokens else None
    joins = _merge_shares(bounds, [pairs for _, pairs in views],
                          [outs for _, outs in results])
    enc = cfg.enc_layers
    dists, boxes = joins[1 + enc:] if predict else (None, None)
    return BatchOutput(dists, boxes, layer_seqs=joins[:1 + enc], kept=kept, batch=batch)
