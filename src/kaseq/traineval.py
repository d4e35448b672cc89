"""Optimization, the training loop, evaluation, and checkpoint persistence.

One epoch/step loop, :func:`_fit`, trains every model: it shuffles, sets the
learning-rate scale, runs the forward pass only as far as the loss reads (a
step whose loss reads no prediction skips the decoder and the heads), stops
on a non-finite output or loss after dumping the last good checkpoint, steps
AdamW, and checkpoints, evaluates and logs each epoch. Callers supply only
the parameters and the loss: teachers and the raw baselines the
set-prediction ground-truth loss, amalgamation any mix of sequence-level,
task-level and ground-truth terms against frozen teachers. Each loss term
covers the whole batch at once: the sequence-level term, SA's or the
aggregation baseline's, is one tape op, ``sa_loss``, whose supervised
layers run forward and backward on the share pool, each building its own
hint from its teacher rows; the task-level term is a single ``ta_loss`` call over the B m student
slots and the (B, K) teacher pools; and the ground-truth term gathers every
matched slot into one box term. Only the assignments are solved per image.
Teachers never change during amalgamation, so the teacher set's outputs on
the training set are computed once into one :class:`TeacherCache`, the only
source of teacher outputs, holding only what the run reads; a caller-owned
memo keeps one cache per teacher set across runs (see :func:`amalgamate`).

:func:`forward_batch` splits every batch across the cores on the share pool
of :mod:`kaseq.tensor`, each share running the whole forward of its images,
and a training step's ``loss.backward()`` walks the shares' graphs the same
way. Matching, the task-level and ground-truth losses and AdamW run on the
calling thread.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from . import amalgamation as ka
from . import matching
from . import tensor as T
from .data import Dataset, TaskPartition, read_json, write_atomic
from .detector import (BatchOutput, DetectorConfig, DetectorParams, extended_projection,
                       forward_batch)
from .errors import (ConfigError, ContractError, DataFormatError, InfeasibleError,
                     NumericError)
from .settings import Settings
from .tensor import Tensor

CHECKPOINT_MAGIC = b"KASQ"
CHECKPOINT_VERSION = 2
IOU_THRESHOLDS = np.linspace(0.50, 0.95, 10)
METRICS_COLUMNS = ["epoch", "mode", "seed", "L_seq", "L_task", "L_d",
                   "AP", "AP50", "AP75", "wall_seconds"]
AMALGAMATION_MODES = ("sa", "ta", "sa+ta", "sag")
# Images per forward that records no tape: the teacher-cache build,
# evaluation and the redundancy analysis. No output depends on it.
INFERENCE_BATCH = 32


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimSettings(Settings):
    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self._require(("lr", "weight_decay"), lambda v: 0 <= v < math.inf,
                      "finite and non-negative")
        self._require(("beta1", "beta2"), lambda v: 0 <= v < 1, "in [0, 1)")
        self._require(("eps",), lambda v: 0 < v < math.inf, "finite and positive")


class AdamW:
    """Decoupled-weight-decay adaptive moments with bias correction."""

    def __init__(self, params: dict[str, Tensor], settings: OptimSettings):
        self.params = dict(params)
        self.settings = settings
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, lr_scale: float = 1.0) -> None:
        s = self.settings
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - s.beta1 ** t
        bias2 = 1.0 - s.beta2 ** t
        lr = s.lr * lr_scale
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self._m[name]
            v = self._v[name]
            m *= s.beta1
            m += (1.0 - s.beta1) * g
            v *= s.beta2
            v += (1.0 - s.beta2) * (g * g)
            p.data -= lr * s.weight_decay * p.data
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + s.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def lr_scale_for_epoch(epoch: int, total_epochs: int) -> float:
    """Constant schedule with a single x0.1 decay at two thirds of training."""
    if total_epochs >= 3 and epoch >= (2 * total_epochs) // 3:
        return 0.1
    return 1.0


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    config: DetectorConfig
    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


def make_checkpoint(params: DetectorParams, cfg: DetectorConfig,
                    metadata: Optional[dict] = None) -> Checkpoint:
    tensors = {name: p.data.copy() for name, p in params.named_parameters().items()}
    return Checkpoint(config=cfg, tensors=tensors, metadata=dict(metadata or {}))


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    names = list(ckpt.tensors)
    header = json.dumps({
        "config": ckpt.config.to_dict(),
        "metadata": ckpt.metadata,
        "tensors": [{"name": n, "shape": list(ckpt.tensors[n].shape)} for n in names],
    }).encode()
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", len(header))
    blob += header
    for n in names:
        blob += np.ascontiguousarray(ckpt.tensors[n], dtype="<f8").tobytes()
    write_atomic(path, blob)


def _is_positive_int_list(value) -> bool:
    """Whether ``value`` is a non-empty list of positive integers (not booleans)."""
    return isinstance(value, list) and value != [] and all(
        type(v) is int and v >= 1 for v in value)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; a fault is a DataFormatError naming the file, and so
    is metadata that does not fit the model's C classes: ``category_ids`` and
    ``task_subset`` are C distinct positive integers, and ``partition`` is a
    list of integer lists that partitions 1..C."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise DataFormatError(f"{path}: truncated before the header length")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = read_json(raw[12:12 + header_len], f"{path}: header", offset=12)
    if not isinstance(header, dict) or not {"config", "tensors"} <= header.keys():
        raise DataFormatError(f"{path}: header lacks its config or tensor list")
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataFormatError(f"{path}: header metadata is not an object")
    config = header["config"]
    if isinstance(config, dict) and "supervise_projection" in config:
        # Older checkpoints record whether the projection output was
        # supervised; it now always is, so only true describes a model.
        config = dict(config)
        value = config.pop("supervise_projection")
        if value is not True:
            raise DataFormatError(f"{path}: header config sets 'supervise_projection' to "
                                  f"{value!r}; the projection output is always supervised")
    try:
        config = DetectorConfig.from_dict(config)
    except ConfigError as e:
        raise DataFormatError(f"{path}: bad config in header: {e}") from None
    num = config.num_categories
    every = list(range(1, num + 1))  # stands in for an entry the metadata lacks
    for key in ("category_ids", "task_subset"):
        value = metadata.get(key, every)
        if not (_is_positive_int_list(value) and len(set(value)) == len(value) == num):
            raise DataFormatError(f"{path}: metadata {key!r} {value!r} is not {num} distinct "
                                  f"positive integers")
    subsets = metadata.get("partition", [every])
    if not (isinstance(subsets, list) and all(map(_is_positive_int_list, subsets))
            and sorted(c for s in subsets for c in s) == every):
        raise DataFormatError(f"{path}: metadata 'partition' {subsets!r} is not a list of "
                              f"integer lists that partitions categories 1..{num}")
    offset = 12 + header_len
    tensors: dict[str, np.ndarray] = {}
    if not isinstance(header["tensors"], list):
        raise DataFormatError(f"{path}: header tensor list is not a list")
    for entry in header["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                        for s in entry["shape"])):
            raise DataFormatError(f"{path}: header tensor entry {entry!r} lacks a name "
                                  f"or a shape of non-negative integers")
        shape = tuple(entry["shape"])
        nbytes = 8 * math.prod(shape)
        if offset + nbytes > len(raw):
            raise DataFormatError(
                f"{path}: truncated payload for tensor {entry['name']!r} at byte {offset}")
        tensors[entry["name"]] = np.frombuffer(
            raw, dtype="<f8", count=nbytes // 8, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return Checkpoint(config=config, tensors=tensors, metadata=metadata)


# Stands in for the generator of ``DetectorParams.init`` when every tensor it
# would draw is overwritten next: it hands out uninitialized arrays instead.
_UNFILLED = SimpleNamespace(uniform=lambda low, high, size: np.empty(size),
                            normal=lambda loc, scale, size: np.empty(size))


def detector_from_checkpoint(ckpt: Checkpoint) -> tuple[DetectorParams, DetectorConfig]:
    params = DetectorParams.init(ckpt.config, _UNFILLED)
    named = params.named_parameters()
    if set(named) != set(ckpt.tensors):
        missing = set(named) ^ set(ckpt.tensors)
        raise DataFormatError(f"checkpoint tensor names disagree with config: {sorted(missing)}")
    for name, p in named.items():
        stored = ckpt.tensors[name]
        if stored.shape != p.data.shape:
            raise DataFormatError(f"tensor {name} has shape {stored.shape}, expected {p.data.shape}")
        p.data[:] = stored
    return params, ckpt.config


def _check_fit(cfg: DetectorConfig, *datasets: Optional[Dataset],
               category_ids: Sequence[int] = ()) -> None:
    """Raise unless every given dataset holds the model's categories
    ``category_ids`` (DataFormatError) and, when not empty, images of the
    model's size (ConfigError); run once where a dataset meets a model."""
    for dataset in (d for d in datasets if d is not None):
        if len(dataset) and dataset.image_size != cfg.image_size:
            raise ConfigError(f"the dataset's images are {dataset.image_size} px, but the "
                              f"model's detector.image_size is {cfg.image_size}")
        if max(category_ids, default=0) > dataset.num_categories:
            raise DataFormatError(f"checkpoint metadata 'category_ids' {list(category_ids)!r} "
                                  f"exceeds the dataset's categories 1..{dataset.num_categories}")


# ---------------------------------------------------------------------------
# ground-truth detection loss


def _batch_targets(dataset: Dataset, idx: np.ndarray,
                   category_ids: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ground-truth boxes and labels of images ``idx``; a label is the
    category's position in ``category_ids``, and other categories are dropped."""
    to_local = {c: i for i, c in enumerate(category_ids)}
    targets = []
    for i in idx:
        kept = [ann for ann in dataset.annotations_for(i) if ann.category in to_local]
        targets.append((np.asarray([a.box for a in kept], dtype=np.float64).reshape(-1, 4),
                        np.asarray([to_local[a.category] for a in kept], dtype=int)))
    return targets


def detection_loss(out: BatchOutput, targets: Sequence[tuple[np.ndarray, np.ndarray]],
                   num_classes: int, weights: ka.KAWeights,
                   eos_coef: float = 0.1) -> Tensor:
    """Set-prediction ground-truth loss: matched class NLL with no-object
    down-weighting plus l1 + GIoU box terms on matched slots."""
    m = out.dists.shape[0] // out.batch
    background = num_classes
    slot_class = np.full(out.batch * m, background, dtype=int)
    matched_slots: list[int] = []
    matched_boxes: list[np.ndarray] = []
    dists_np = out.dists.data
    boxes_np = out.boxes.data
    for b, (gt_boxes, gt_labels) in enumerate(targets):
        g = gt_boxes.shape[0]
        if g == 0:
            continue
        if g > m:
            raise InfeasibleError(f"an image (batch position {b}) has {g} objects, more than "
                                  f"detector.queries={m}; set detector.queries to at least {g}")
        rows = slice(b * m, (b + 1) * m)
        cost_class = -dists_np[rows][:, gt_labels].T  # (g, m)
        cost = cost_class + matching.box_cost(gt_boxes, boxes_np[rows],
                                              weights.l1_weight, weights.giou_weight)
        assign = matching.hungarian(cost)
        for gi, slot in enumerate(assign):
            slot_class[b * m + slot] = gt_labels[gi]
            matched_slots.append(b * m + slot)
            matched_boxes.append(gt_boxes[gi])

    weight_vec = np.where(slot_class == background, eos_coef, 1.0)
    onehot = np.zeros((out.batch * m, num_classes + 1))
    onehot[np.arange(out.batch * m), slot_class] = weight_vec
    cls_loss = T.scale(T.tsum(T.mul(T.log_floor(out.dists), Tensor(onehot))),
                       -1.0 / float(weight_vec.sum()))

    if matched_slots:
        num_boxes = float(len(matched_slots))
        pred = T.gather_rows(out.boxes, np.asarray(matched_slots, dtype=np.intp))
        box_terms = ka.box_loss_rows(pred, np.asarray(matched_boxes),
                                     weights.l1_weight, weights.giou_weight)
        return T.add(cls_loss, T.scale(T.tsum(box_terms), 1.0 / num_boxes))
    return cls_loss


# ---------------------------------------------------------------------------
# teacher output cache


def _image_batches(dataset: Dataset):
    """The dataset's images as (first index, images) pairs of
    :data:`INFERENCE_BATCH` consecutive images, the last one shorter."""
    for start in range(0, len(dataset), INFERENCE_BATCH):
        yield start, [dataset.image(i)
                      for i in range(start, min(start + INFERENCE_BATCH, len(dataset)))]


class TeacherCache:
    """Outputs of N teachers, (params, cfg) pairs of one geometry and
    encoder depth, on every image, as far as a run reads them.
    ``layers[l]`` (count, N n, d), for the first ``layers`` supervised
    layers, holds an image's concatenated layer-l teacher sequences, the
    sequence-level hint: layer 0 is the projection output, which also guides
    compression, and layer l > 0 encoder layer l's output. With ``pool``,
    ``dists`` (count, N m, C+1) and ``boxes`` (count, N m, 4) hold its
    task-level pool, every teacher's padded predictions in teacher order;
    without it they are None, and the build runs only the teachers'
    projection and encoder. :func:`amalgamate` stores every layer for
    ``sa``, ``sa+ta`` and ``sag``, layer 0 for ``ta`` only when the student
    selects tokens by the redundancy rule, the one that reads a guide, and
    the pool for ``ta`` and ``sa+ta``. Reading what is not stored is a
    ContractError. The cache freezes the teachers' parameters, so that its
    forwards record no tape; they run :data:`INFERENCE_BATCH` images at a time."""

    def __init__(self, teachers: Sequence[tuple[DetectorParams, DetectorConfig]],
                 dataset: Dataset, partition: TaskPartition, layers: int, pool: bool):
        for params, cfg in teachers:
            _check_fit(cfg, dataset)
            params.set_requires_grad(False)
        cfg = teachers[0][1]
        n, m, count, k = cfg.tokens, cfg.queries, len(dataset), len(teachers)
        self.layers = [np.empty((count, k * n, cfg.d_model), dtype=np.float32)
                       for _ in range(layers)]
        self.dists = self.boxes = None
        if pool:
            self.dists = np.empty((count, k * m, partition.num_categories + 1),
                                  dtype=np.float32)
            self.boxes = np.empty((count, k * m, 4), dtype=np.float32)
        for start, images in _image_batches(dataset):
            stop = start + len(images)
            for t, (params_t, cfg_t) in enumerate(teachers):
                out = forward_batch(images, params_t, cfg_t, predict=pool)
                for layer, seq in zip(self.layers, out.layer_seqs):
                    layer[start:stop, t * n:(t + 1) * n] = seq.data.reshape(stop - start, n, -1)
                if pool:
                    self.dists[start:stop, t * m:(t + 1) * m] = ka.pad_predictions(
                        out.dists.data, partition, t).reshape(stop - start, m, -1)
                    self.boxes[start:stop, t * m:(t + 1) * m] = out.boxes.data.reshape(-1, m, 4)

    @property
    def has_pool(self) -> bool:
        return self.dists is not None

    def layer_rows(self, layer: int, image_ids: np.ndarray) -> np.ndarray:
        """Layer ``layer`` of images ``image_ids`` as (B N n, d) float64 rows."""
        if not 0 <= layer < len(self.layers):
            raise ContractError(f"the teacher cache holds {len(self.layers)} layers, "
                                f"not layer {layer}")
        rows = self.layers[layer][image_ids]
        return rows.reshape(-1, rows.shape[-1]).astype(np.float64)

    def pool_rows(self, image_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The task-level pools of images ``image_ids``: (B, N m, C+1) class
        distributions and (B, N m, 4) boxes."""
        if not self.has_pool:
            raise ContractError("the teacher cache holds no task-level pool")
        return self.dists[image_ids], self.boxes[image_ids]


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    ap: float
    ap50: float
    ap75: float
    per_category: dict[int, float]
    per_subset: dict[str, float]

    def to_dict(self) -> dict:
        return {"AP": self.ap, "AP50": self.ap50, "AP75": self.ap75,
                "per_category": {str(k): v for k, v in self.per_category.items()},
                "per_subset": self.per_subset}


_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def _ap_101(hits: np.ndarray, total_gt: int) -> float:
    """101-point interpolated AP from score-ordered true-positive flags: at
    each recall point, the best precision at that recall or beyond."""
    if total_gt == 0:
        return 0.0
    tp = np.cumsum(hits, dtype=np.float64)
    fp = np.cumsum(~hits, dtype=np.float64)
    recall = tp / total_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    # recall never decreases, so the ranks reaching a recall point form a suffix
    first = np.searchsorted(recall, _RECALL_POINTS - 1e-12, side="left")
    return sum(envelope[first].tolist()) / 101.0


def category_ap(predictions: np.ndarray, gt: np.ndarray,
                thresholds: Sequence[float]) -> Optional[np.ndarray]:
    """AP of one category at each IoU threshold; None without ground truth.

    ``predictions`` holds rows (score, image, slot, x0, y0, x1, y1) and
    ``gt`` rows (image, x0, y0, x1, y1). One sort (score descending, then
    image, slot) and one IoU matrix serve every threshold; each threshold
    then matches greedily in that order: a prediction takes the unmatched
    box of its image with the best IoU (the first on ties), a hit when that
    IoU reaches the threshold. Predictions with no box of their image at
    the lowest threshold can never hit and are skipped; NaN IoUs fail every
    comparison."""
    total_gt = len(gt)
    if total_gt == 0:
        return None
    preds = predictions[np.lexsort((predictions[:, 2], predictions[:, 1], -predictions[:, 0]))]
    iou = matching.pairwise_iou(preds[:, 3:], gt[:, 1:])
    reach = (preds[:, 1, None] == gt[None, :, 0]) & (iou >= min(thresholds))
    candidates = [(rank, np.flatnonzero(reach[rank]).tolist(), iou[rank, reach[rank]].tolist())
                  for rank in np.flatnonzero(reach.any(axis=1)).tolist()]
    aps = []
    for threshold in thresholds:
        hits = np.zeros(len(preds), dtype=bool)
        taken = [False] * total_gt
        for rank, cols, ious in candidates:
            best_iou, best_j = 0.0, -1
            for j, value in zip(cols, ious):
                if not taken[j] and value > best_iou:
                    best_iou, best_j = value, j
            if best_j >= 0 and best_iou >= threshold:
                taken[best_j] = True
                hits[rank] = True
        aps.append(_ap_101(hits, total_gt))
    return np.asarray(aps)


def collect_predictions(params: DetectorParams, cfg: DetectorConfig, dataset: Dataset,
                        category_ids: Sequence[int]) -> dict[int, np.ndarray]:
    """One prediction per decoder slot whose argmax is a real category, as a
    (P, 7) array of rows (score, image, slot, x0, y0, x1, y1) per category,
    from forwards of :data:`INFERENCE_BATCH` images."""
    m = cfg.queries
    rng = np.random.default_rng(0)  # one stream, drawn in image order
    rows, labels = [], []
    for start, images in _image_batches(dataset):
        out = forward_batch(images, params, cfg, rng=rng)
        dists = out.dists.data
        best = np.argmax(dists, axis=1)
        kept = np.flatnonzero(best != dists.shape[1] - 1)  # drop no-object slots
        corners = matching.box_cxcywh_to_corners(out.boxes.data[kept])
        rows.append(np.column_stack([dists[kept, best[kept]], start + kept // m, kept % m,
                                     corners]))
        labels.append(best[kept])
    rows = np.concatenate(rows or [np.empty((0, 7))])
    labels = np.concatenate(labels or [np.empty(0, dtype=int)])
    return {c: rows[labels == k] for k, c in enumerate(category_ids)}


def evaluate(ckpt: Checkpoint, dataset: Dataset,
             partition: Optional[TaskPartition] = None) -> EvalReport:
    """COCO-style AP over IoU 0.50:0.05:0.95 with 101-point interpolation;
    one :func:`category_ap` call scores a category at all ten thresholds.
    Class k is scored as category ``category_ids[k]`` of the metadata (k + 1
    without it), which the dataset must have; ``per_subset`` scores each
    task of ``partition``, by default the metadata's. The forwards run
    :data:`INFERENCE_BATCH` images at a time, so the report depends only on
    the checkpoint, the dataset and ``partition``."""
    params, cfg = detector_from_checkpoint(ckpt)
    category_ids = ckpt.metadata.get("category_ids", list(range(1, cfg.num_categories + 1)))
    _check_fit(cfg, dataset, category_ids=category_ids)
    params.set_requires_grad(False)
    preds = collect_predictions(params, cfg, dataset, category_ids)

    wanted = set(category_ids)
    owners = [(ann, i) for i in range(len(dataset)) for ann in dataset.annotations_for(i)
              if ann.category in wanted]
    labels = np.asarray([ann.category for ann, _ in owners], dtype=int)
    gt = np.column_stack([
        np.asarray([i for _, i in owners], dtype=np.float64),
        matching.box_cxcywh_to_corners(np.reshape([ann.box for ann, _ in owners], (-1, 4)))])

    ap_table: dict[int, np.ndarray] = {}
    for c in category_ids:
        row = category_ap(preds[c], gt[labels == c], IOU_THRESHOLDS)
        if row is not None:
            ap_table[c] = row

    if not ap_table:
        return EvalReport(0.0, 0.0, 0.0, {}, {})
    all_rows = np.stack(list(ap_table.values()))
    mean_per_threshold = all_rows.mean(axis=0)
    per_category = {c: float(v.mean()) for c, v in ap_table.items()}
    per_subset: dict[str, float] = {}
    subsets = ckpt.metadata.get("partition", []) if partition is None else partition.subsets
    for t, subset in enumerate(subsets):
        vals = [per_category[c] for c in subset if c in per_category]
        if vals:
            per_subset[f"task{t + 1}"] = float(np.mean(vals))
    return EvalReport(ap=float(mean_per_threshold.mean()),
                      ap50=float(mean_per_threshold[0]),
                      ap75=float(mean_per_threshold[5]),
                      per_category=per_category,
                      per_subset=per_subset)


# ---------------------------------------------------------------------------
# metrics logging and the training loop


class MetricsLogger:
    def __init__(self, path: Optional[str], mode: str, seed: int):
        self.path = path
        self.mode = mode
        self.seed = seed
        if path and not os.path.exists(path):
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerow(METRICS_COLUMNS)

    def log(self, epoch: int, losses: dict[str, float], report: Optional[EvalReport],
            wall: float) -> None:
        if not self.path:
            return
        row = [epoch, self.mode, self.seed,
               f"{losses.get('seq', 0.0):.6f}", f"{losses.get('task', 0.0):.6f}",
               f"{losses.get('direct', 0.0):.6f}",
               f"{report.ap:.6f}" if report else "",
               f"{report.ap50:.6f}" if report else "",
               f"{report.ap75:.6f}" if report else "",
               f"{wall:.3f}"]
        with open(self.path, "a", newline="") as fh:
            csv.writer(fh).writerow(row)


def _fit(params: DetectorParams, trainable: dict[str, Tensor], cfg: DetectorConfig,
         dataset: Dataset, epochs: int, batch_size: int, rng: np.random.Generator,
         opt_settings: Optional[OptimSettings], metadata: dict,
         objective: Callable[[BatchOutput, np.ndarray], tuple[Tensor, dict[str, Tensor]]],
         guide: Optional[Callable[[np.ndarray], np.ndarray]] = None,
         predict: bool = True,
         eval_ds: Optional[Dataset] = None,
         csv_path: Optional[str] = None,
         crash_dump: Optional[str] = None) -> tuple[Checkpoint, list[dict[str, float]]]:
    """The one epoch/step loop behind every training run.

    ``objective(out, idx)`` returns the step's loss and its named terms
    (``seq``/``task``/``direct``); ``guide(idx)``, when given, supplies the
    rows a compressed student selects its tokens from (see
    :func:`forward_batch`). With ``predict`` false the objective reads no
    prediction: the forward pass stops after the encoder, and the sequences
    are checked for finiteness in place of the predictions. The step's
    ``loss.backward()`` walks the forward's shares too, so it reaches every
    parameter. :func:`evaluate` scores each epoch's checkpoint on ``eval_ds``
    by its ``metadata``. Returns the final checkpoint and each epoch's mean terms.
    """
    _check_fit(cfg, dataset, eval_ds, category_ids=metadata["category_ids"])
    optimizer = AdamW(trainable, opt_settings or OptimSettings())
    logger = MetricsLogger(csv_path, metadata["mode"], metadata["seed"])
    start_time = time.time()
    last_good = make_checkpoint(params, cfg, metadata)
    epoch_terms: list[dict[str, float]] = []

    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        scale = lr_scale_for_epoch(epoch, epochs)
        sums = dict.fromkeys(("seq", "task", "direct"), 0.0)
        steps = 0
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            images = [dataset.image(i) for i in idx]
            out = forward_batch(images, params, cfg,
                                guide=guide(idx) if guide is not None else None, rng=rng,
                                predict=predict)
            # The previous step's backward freed its graph as it walked it; what is
            # left of that step, the joined outputs, the loss and its terms, goes only
            # now, before this step's loss is built: dropping it at the end of each step
            # was no faster (ROADMAP item 7, "Measured and kept as is").
            loss = terms = None
            value = float("nan")
            # Abort before matching when the forward pass has already exploded.
            read = (out.dists, out.boxes) if predict else out.layer_seqs
            if all(np.isfinite(t.data).all() for t in read):
                loss, terms = objective(out, idx)
                value = loss.item()
            if not np.isfinite(value):
                if crash_dump:
                    save_checkpoint(last_good, crash_dump)
                raise NumericError(f"non-finite loss {value};" + (
                    f" last good checkpoint at {crash_dump}" if crash_dump else ""))
            loss.backward()
            optimizer.step(lr_scale=scale)
            optimizer.zero_grad()
            for name in terms:  # no loop variable keeps this step's graph alive
                sums[name] += terms[name].item()
            steps += 1
        epoch_terms.append({k: v / max(steps, 1) for k, v in sums.items()})
        last_good = make_checkpoint(params, cfg, metadata)
        report = None
        if eval_ds is not None:
            report = evaluate(last_good, eval_ds)
        logger.log(epoch, epoch_terms[-1], report, time.time() - start_time)

    last_good.metadata["final_epoch"] = epochs - 1
    return last_good, epoch_terms


# ---------------------------------------------------------------------------
# teacher / baseline training


def train_detector_gt(train_ds: Dataset, cfg: DetectorConfig, epochs: int, seed: int,
                      category_ids: Sequence[int],
                      eval_ds: Optional[Dataset] = None,
                      opt_settings: Optional[OptimSettings] = None,
                      weights: Optional[ka.KAWeights] = None,
                      batch_size: int = 16,
                      csv_path: Optional[str] = None,
                      mode_label: str = "raw",
                      crash_dump: Optional[str] = None) -> tuple[Checkpoint, list[float]]:
    """Train a detector on ground truth only; backbone of teachers and the
    raw/raw_ext baselines. Returns the checkpoint and per-epoch mean losses."""
    weights = weights or ka.KAWeights()
    rng = np.random.default_rng(seed)
    params = DetectorParams.init(cfg, rng)
    metadata = {"mode": mode_label, "seed": seed, "epochs": epochs,
                "category_ids": list(category_ids)}

    def objective(out: BatchOutput, idx: np.ndarray):
        loss = detection_loss(out, _batch_targets(train_ds, idx, category_ids),
                              cfg.num_categories, weights)
        return loss, {"direct": loss}

    ckpt, epoch_terms = _fit(params, params.named_parameters(), cfg, train_ds, epochs,
                             batch_size, rng, opt_settings, metadata,
                             objective, eval_ds=eval_ds, csv_path=csv_path,
                             crash_dump=crash_dump)
    return ckpt, [terms["direct"] for terms in epoch_terms]


def train_teacher(train_ds: Dataset, subset: Sequence[int], task_index: int,
                  cfg: DetectorConfig, epochs: int, seed: int,
                  **kwargs) -> tuple[Checkpoint, list[float]]:
    """Train teacher ``task_index`` on the annotations of its category
    ``subset`` over |subset| classes."""
    subset = sorted(subset)
    teacher_cfg = replace(cfg, num_parts=1, compression="none", num_categories=len(subset))
    ckpt, losses = train_detector_gt(train_ds, teacher_cfg, epochs, seed, category_ids=subset,
                                     mode_label=f"teacher{task_index + 1}", **kwargs)
    ckpt.metadata["task_subset"] = list(subset)
    ckpt.metadata["task_index"] = task_index
    return ckpt, losses


# ---------------------------------------------------------------------------
# amalgamation


def _teacher_digest(ckpt: Checkpoint) -> str:
    """Digest of a checkpoint's configuration and tensor values."""
    digest = hashlib.sha256(json.dumps(ckpt.config.to_dict(), sort_keys=True).encode())
    for name in sorted(ckpt.tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(ckpt.tensors[name], dtype="<f8"))
    return digest.hexdigest()


def teacher_partition(teacher_ckpts: Sequence[Checkpoint], num_categories: int) -> TaskPartition:
    """The teachers' task subsets, in order, as a partition of 1..``num_categories``;
    a teacher without one is a DataFormatError naming its position."""
    subsets = []
    for t, ckpt in enumerate(teacher_ckpts):
        if "task_subset" not in ckpt.metadata:
            raise DataFormatError(f"teacher {t + 1}'s checkpoint metadata lacks 'task_subset'")
        subsets.append(tuple(sorted(ckpt.metadata["task_subset"])))
    return TaskPartition(tuple(subsets), num_categories)


def amalgamate(teacher_ckpts: Sequence[Checkpoint], train_ds: Dataset,
               cfg: DetectorConfig, mode: str, epochs: int, seed: int,
               eval_ds: Optional[Dataset] = None,
               label_free: bool = False,
               weights: Optional[ka.KAWeights] = None,
               opt_settings: Optional[OptimSettings] = None,
               batch_size: int = 16,
               csv_path: Optional[str] = None,
               crash_dump: Optional[str] = None,
               teachers_by_id: Optional[dict] = None) -> Checkpoint:
    """Train the student against frozen teachers with the selected losses.

    ``mode`` is one of sa | ta | sa+ta | sag; ``label_free`` removes the
    ground-truth term entirely (its lambda is forced to zero and annotations
    are never read during updates). ``teachers_by_id`` is an optional memo
    reusing built teacher-set caches across runs; a cache is reused only for
    the same teachers' weights in the same order, the same dataset object,
    and the same partition, and only when it holds what ``mode`` reads (see
    :class:`TeacherCache`). Otherwise the entry is dropped first and one
    cache holding what it held and what this run reads takes its place.
    When no loss reads predictions (label-free ``sa`` and ``sag``), only the
    projections and the encoder train; the decoder, ``final_ln``, ``queries``
    and the heads keep their initial values. So does the last encoder
    layer's ``mlp.b2``: only channel norms read that layer, and they cancel
    it, so its true gradient is zero. Its ``mlp.b1`` entries are
    unconstrained on a batch where their hidden unit is active on every row,
    which shifts the layer's columns by a constant: their true gradient is
    zero there too, and AdamW steps them by rounding noise. Which units
    those are depends on the data, so they are not frozen.
    """
    if mode not in AMALGAMATION_MODES:
        raise ConfigError(f"unknown amalgamation mode {mode!r}")
    weights = replace(weights or ka.KAWeights())
    if label_free:
        weights.lambda_direct = 0.0

    partition = teacher_partition(teacher_ckpts, cfg.num_categories)
    teacher_models = [detector_from_checkpoint(ckpt) for ckpt in teacher_ckpts]
    n_teachers = len(teacher_models)

    first = teacher_models[0][1]
    for t, (_, cfg_t) in enumerate(teacher_models):
        if (cfg_t.d_model, cfg_t.tokens, cfg_t.queries) != (cfg.d_model, cfg.tokens, cfg.queries):
            raise ConfigError("teacher and student geometry must agree")
        if cfg_t.enc_layers != first.enc_layers:
            raise ConfigError(
                f"teachers 1 and {t + 1} supervise {first.supervised_layers} and "
                f"{cfg_t.supervised_layers} layers (enc_layers {first.enc_layers} and "
                f"{cfg_t.enc_layers}); they must be equal")
    if mode != "ta" and cfg.supervised_layers != first.supervised_layers:
        raise ConfigError(f"the student supervises {cfg.supervised_layers} layers and its "
                          f"teachers {first.supervised_layers}; mode {mode!r} needs them equal")
    if mode == "sag":
        if cfg.num_parts != 1 or cfg.compression != "none":
            raise ConfigError(
                f"mode 'sag' runs on the unextended student, with detector.num_parts=1 and "
                f"detector.compression='none', not {cfg.num_parts} and {cfg.compression!r}")
    elif cfg.num_parts != n_teachers:
        raise ConfigError(f"student needs num_parts == {n_teachers} for mode {mode!r}")

    # What the losses and the compression guide read of the teachers; only
    # the redundancy rule reads a guide.
    reads_pool = mode in ("ta", "sa+ta")
    guided = cfg.selects_tokens and cfg.compression == "redundancy"
    layers = first.supervised_layers if mode != "ta" else int(guided)
    teachers_by_id = {} if teachers_by_id is None else teachers_by_id
    key = (tuple(_teacher_digest(c) for c in teacher_ckpts), train_ds, partition)
    cache = teachers_by_id.get(key)
    if cache is None or len(cache.layers) < layers or (reads_pool and not cache.has_pool):
        pool = reads_pool
        if cache is not None:  # rebuilt to hold what it held and what this run reads
            layers, pool = max(layers, len(cache.layers)), pool or cache.has_pool
            del teachers_by_id[key], cache  # so that two caches are never alive at once
        cache = teachers_by_id[key] = TeacherCache(teacher_models, train_ds, partition,
                                                   layers, pool)

    rng = np.random.default_rng(seed)
    params = DetectorParams.init(cfg, rng)
    trainable = params.named_parameters()
    # Only the task-level and ground-truth terms read the student's predictions.
    predict = reads_pool or weights.lambda_direct > 0.0
    if not predict:  # AdamW would decay what no loss reads and step the dead b2 by noise
        dead = f"enc{cfg.enc_layers - 1}.mlp.b2"
        for name in [n for n in trainable if not n.startswith(("proj", "enc")) or n == dead]:
            trainable.pop(name).requires_grad = False

    if mode == "sag":
        for t in range(n_teachers):
            for l in range(cfg.supervised_layers):
                trainable[f"wa.t{t}.l{l}"] = Tensor(
                    rng.normal(0.0, (1.0 / cfg.d_model) ** 0.5, size=(cfg.d_model, cfg.d_model)),
                    requires_grad=True)

    category_ids = list(range(1, cfg.num_categories + 1))
    metadata = {"mode": mode + ("_lf" if label_free else ""), "seed": seed, "epochs": epochs,
                "label_free": label_free, "partition": [list(s) for s in partition.subsets],
                "compression": cfg.compression, "category_ids": category_ids}

    def objective(out: BatchOutput, idx: np.ndarray):
        batch = len(idx)
        terms: dict[str, Tensor] = {}
        if mode == "sag":  # the two sequence-level losses differ only in the hint
            hint = lambda j: ka.aggregate_hint(cache.layer_rows(j, idx), [
                trainable[f"wa.t{t}.l{j}"] for t in range(n_teachers)], batch)
            terms["seq"] = T.scale(ka.sa_loss(out.layer_seqs, hint, 1.0), 1.0 / batch)
        elif mode != "ta":
            keep = slice(None) if out.kept is None else out.kept
            hint = lambda j: ka.concat_hint(cache.layer_rows(j, idx)[keep])
            terms["seq"] = T.scale(ka.sa_loss(out.layer_seqs, hint, 1.0 / n_teachers),
                                   1.0 / batch)

        if reads_pool:
            terms["task"] = T.scale(ka.ta_loss(out.dists, out.boxes, *cache.pool_rows(idx),
                                               weights), 1.0 / batch)

        if weights.lambda_direct > 0.0:
            terms["direct"] = detection_loss(out, _batch_targets(train_ds, idx, category_ids),
                                             cfg.num_categories, weights)

        return functools.reduce(T.add, [T.scale(term, getattr(weights, f"lambda_{key}"))
                                        for key, term in terms.items()]), terms

    # Training-time rule: the teachers' concatenated projections, layer 0 of
    # the cache, guide the redundancy rule.
    guide = functools.partial(cache.layer_rows, 0) if guided else None
    ckpt, _ = _fit(params, trainable, cfg, train_ds, epochs, batch_size, rng,
                   opt_settings, metadata, objective, guide=guide, predict=predict,
                   eval_ds=eval_ds, csv_path=csv_path, crash_dump=crash_dump)
    return ckpt


# ---------------------------------------------------------------------------
# redundancy analysis


REDUNDANCY_BIN_WIDTH = 0.05
REDUNDANCY_BINS = 41  # bin lows -1.00, -0.95, ..., +1.00


@dataclass
class RedundancyReport:
    bin_lows: np.ndarray
    counts: np.ndarray
    fraction_above_half: float
    token_count: int

    def rows(self):
        return [(float(lo), int(c)) for lo, c in zip(self.bin_lows, self.counts)]


def analyze_redundancy(ckpt: Checkpoint, dataset: Dataset) -> RedundancyReport:
    """Histogram of extended projection-output token redundancies (Fig.-5a
    style, 0.05-wide bins spanning [-1, 1]), projected
    :data:`INFERENCE_BATCH` images at a time."""
    params, cfg = detector_from_checkpoint(ckpt)
    _check_fit(cfg, dataset)
    params.set_requires_grad(False)
    if cfg.num_parts < 2:
        raise ContractError("redundancy analysis requires an extended (N >= 2) student")
    counts = np.zeros(REDUNDANCY_BINS, dtype=np.int64)
    above, total = 0, 0
    # Projection outputs only: the analysis never needs the full forward pass.
    for _, images in _image_batches(dataset):
        r = ka.redundancy_all(extended_projection(images, params, cfg).data, len(images))
        bins = np.clip(((r + 1.0) / REDUNDANCY_BIN_WIDTH).astype(int), 0, REDUNDANCY_BINS - 1)
        counts += np.bincount(bins, minlength=REDUNDANCY_BINS)
        above += int((r > 0.5).sum())
        total += r.size
    lows = -1.0 + REDUNDANCY_BIN_WIDTH * np.arange(REDUNDANCY_BINS)
    return RedundancyReport(bin_lows=lows, counts=counts,
                            fraction_above_half=above / max(total, 1),
                            token_count=total)
