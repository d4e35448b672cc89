"""Optimization, the training loop, evaluation, and checkpoint persistence.

One epoch/step loop, :func:`_fit`, trains every model: it shuffles, sets the
learning-rate scale, runs the forward pass only as far as the loss reads (a
step whose loss reads no prediction skips the decoder and the heads), stops
on a non-finite output or loss after dumping the last good checkpoint, steps
AdamW, and checkpoints, evaluates and logs each epoch. Callers supply only
the parameters and the loss: teachers and the raw baselines the
set-prediction ground-truth loss, amalgamation any mix of sequence-level,
task-level, aggregation baseline and ground-truth terms against frozen
teachers. Each loss term is one graph over the whole batch:
the task-level term is a single ``ta_loss`` call over the B m student slots
and the (B, K) teacher pools, and the ground-truth term gathers every
matched slot into one box term; only the assignments are solved per image.
Teachers never change during amalgamation, so the teacher set's outputs on
the training set are computed once into one :class:`TeacherCache` (float32),
the only source of teacher outputs, stored as the losses read them. A
caller-owned memo reuses caches across runs; its key is the teachers'
digests of configuration and tensors, the training-set object itself, and
the task partition.
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
from .data import Dataset, TaskPartition, read_json
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


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimSettings(Settings):
    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


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
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
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
    try:
        config = DetectorConfig.from_dict(header["config"])
    except ConfigError as e:
        raise DataFormatError(f"{path}: bad config in header: {e}") from None
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


def _check_image_size(cfg: DetectorConfig, *datasets: Optional[Dataset]) -> None:
    """Raise ConfigError unless every given non-empty dataset holds images of
    the model's size; run once where a dataset meets a model."""
    for dataset in datasets:
        if dataset is not None and len(dataset) and dataset.image_size != cfg.image_size:
            raise ConfigError(f"the dataset's images are {dataset.image_size} px, but the "
                              f"model's detector.image_size is {cfg.image_size}")


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
    log_probs = T.log(T.clamp_min(out.dists))
    cls_loss = T.scale(T.tsum(T.mul(log_probs, Tensor(onehot))),
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


class TeacherCache:
    """Outputs of N frozen teachers, (params, cfg) pairs of one geometry and
    supervision depth, on every image. ``layers[l]`` (count, N n, d) holds an
    image's concatenated layer-l teacher sequences, the sequence-level hint;
    ``dists`` (count, N m, C+1) and ``boxes`` (count, N m, 4) its task-level
    pool, every teacher's padded predictions in teacher order."""

    def __init__(self, teachers: Sequence[tuple[DetectorParams, DetectorConfig]],
                 dataset: Dataset, partition: TaskPartition, batch_size: int = 32):
        for _, cfg in teachers:
            _check_image_size(cfg, dataset)
        cfg = teachers[0][1]
        n, m, count, k = cfg.tokens, cfg.queries, len(dataset), len(teachers)
        self.layers = [np.empty((count, k * n, cfg.d_model), dtype=np.float32)
                       for _ in range(cfg.supervised_layers)]
        self.dists = np.empty((count, k * m, partition.num_categories + 1), dtype=np.float32)
        self.boxes = np.empty((count, k * m, 4), dtype=np.float32)
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            images = [dataset.image(i) for i in range(start, stop)]
            for t, (params_t, cfg_t) in enumerate(teachers):
                out = forward_batch(images, params_t, cfg_t)
                for layer, seq in zip(self.layers, out.layer_seqs):
                    layer[start:stop, t * n:(t + 1) * n] = seq.data.reshape(stop - start, n, -1)
                self.dists[start:stop, t * m:(t + 1) * m] = ka.pad_predictions(
                    out.dists.data, partition, t).reshape(stop - start, m, -1)
                self.boxes[start:stop, t * m:(t + 1) * m] = out.boxes.data.reshape(-1, m, 4)

    def layer_rows(self, layer: int, image_ids: np.ndarray) -> np.ndarray:
        """Layer ``layer`` of images ``image_ids`` as (B N n, d) float64 rows."""
        rows = self.layers[layer][image_ids]
        return rows.reshape(-1, rows.shape[-1]).astype(np.float64)


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
    iou, _ = matching.pairwise_iou_giou(preds[:, 3:], gt[:, 1:])
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
                        category_ids: Sequence[int], batch_size: int = 32,
                        rng: Optional[np.random.Generator] = None) -> dict[int, np.ndarray]:
    """One prediction per decoder slot whose argmax is a real category, as a
    (P, 7) array of rows (score, image, slot, x0, y0, x1, y1) per category."""
    m = cfg.queries
    rng = rng or np.random.default_rng(0)  # one stream, drawn in image order
    rows, labels = [], []
    for start in range(0, len(dataset), batch_size):
        idx = list(range(start, min(start + batch_size, len(dataset))))
        out = forward_batch([dataset.image(i) for i in idx], params, cfg, rng=rng)
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
             category_ids: Optional[Sequence[int]] = None,
             partition: Optional[TaskPartition] = None,
             batch_size: int = 32) -> EvalReport:
    """COCO-style AP over IoU 0.50:0.05:0.95 with 101-point interpolation;
    one :func:`category_ap` call scores a category at all ten thresholds."""
    params, cfg = detector_from_checkpoint(ckpt)
    _check_image_size(cfg, dataset)
    params.set_requires_grad(False)
    if category_ids is None:
        category_ids = list(range(1, cfg.num_categories + 1))
    if len(category_ids) != cfg.num_categories:
        raise ContractError("model class arity disagrees with the category id map")
    preds = collect_predictions(params, cfg, dataset, category_ids, batch_size)

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
    if partition is not None:
        for t in range(partition.num_tasks):
            vals = [per_category[c] for c in partition.subset(t) if c in per_category]
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
         eval_ds: Optional[Dataset] = None, partition: Optional[TaskPartition] = None,
         csv_path: Optional[str] = None,
         crash_dump: Optional[str] = None) -> tuple[Checkpoint, list[dict[str, float]]]:
    """The one epoch/step loop behind every training run.

    ``objective(out, idx)`` returns the step's loss and its named terms
    (``seq``/``task``/``direct``); ``guide(idx)``, when given, supplies the
    rows a compressed student selects its tokens from (see
    :func:`forward_batch`). With ``predict`` false the objective reads no
    prediction: the forward pass stops after the encoder, and the sequences
    are checked for finiteness in place of the predictions. Returns the final
    checkpoint and each epoch's mean terms.
    """
    _check_image_size(cfg, dataset, eval_ds)
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
            report = evaluate(last_good, eval_ds, category_ids=metadata["category_ids"],
                              partition=partition)
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
                      partition: Optional[TaskPartition] = None,
                      crash_dump: Optional[str] = None) -> tuple[Checkpoint, list[float]]:
    """Train a detector on ground truth only; backbone of teachers and the
    raw/raw_ext baselines. Returns the checkpoint and per-epoch mean losses."""
    weights = weights or ka.KAWeights()
    rng = np.random.default_rng(seed)
    params = DetectorParams.init(cfg, rng)
    metadata = {"mode": mode_label, "seed": seed, "epochs": epochs,
                "category_ids": list(category_ids)}
    if partition is not None:
        metadata["partition"] = partition.to_jsonable()

    def objective(out: BatchOutput, idx: np.ndarray):
        loss = detection_loss(out, _batch_targets(train_ds, idx, category_ids),
                              cfg.num_categories, weights)
        return loss, {"direct": loss}

    ckpt, epoch_terms = _fit(params, params.named_parameters(), cfg, train_ds, epochs,
                             batch_size, rng, opt_settings, metadata,
                             objective, eval_ds=eval_ds, partition=partition,
                             csv_path=csv_path, crash_dump=crash_dump)
    return ckpt, [terms["direct"] for terms in epoch_terms]


def train_teacher(train_ds: Dataset, partition: TaskPartition, task_index: int,
                  cfg: DetectorConfig, epochs: int, seed: int,
                  **kwargs) -> tuple[Checkpoint, list[float]]:
    """Train teacher t on its task-filtered annotations over |C^t| classes."""
    subset = sorted(partition.subset(task_index))
    teacher_cfg = replace(cfg, num_parts=1, compression="none",
                          num_categories=len(subset))
    ckpt, losses = train_detector_gt(
        train_ds, teacher_cfg, epochs, seed, category_ids=subset,
        mode_label=kwargs.pop("mode_label", f"teacher{task_index + 1}"), **kwargs)
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
    and the same partition.
    """
    if mode not in AMALGAMATION_MODES:
        raise ConfigError(f"unknown amalgamation mode {mode!r}")
    weights = replace(weights or ka.KAWeights())
    if label_free:
        weights.lambda_direct = 0.0

    subsets = []
    teacher_models = []
    for ckpt in teacher_ckpts:
        params_t, cfg_t = detector_from_checkpoint(ckpt)
        params_t.set_requires_grad(False)
        if "task_subset" not in ckpt.metadata:
            raise ContractError("teacher checkpoint lacks its task subset")
        subsets.append(tuple(sorted(ckpt.metadata["task_subset"])))
        teacher_models.append((params_t, cfg_t))
    partition = TaskPartition(tuple(subsets), cfg.num_categories)
    n_teachers = len(teacher_models)

    first = teacher_models[0][1]
    for t, (_, cfg_t) in enumerate(teacher_models):
        if (cfg_t.d_model, cfg_t.tokens, cfg_t.queries) != (cfg.d_model, cfg.tokens, cfg.queries):
            raise ConfigError("teacher and student geometry must agree")
        if (cfg_t.supervise_projection, cfg_t.enc_layers) != (first.supervise_projection,
                                                              first.enc_layers):
            raise ConfigError(
                f"teachers 1 and {t + 1} supervise {first.supervised_layers} and "
                f"{cfg_t.supervised_layers} layers (supervise_projection and enc_layers "
                f"{first.supervise_projection, first.enc_layers} and "
                f"{cfg_t.supervise_projection, cfg_t.enc_layers}); they must be equal")
    if mode != "ta" and cfg.supervised_layers != first.supervised_layers:
        raise ConfigError(f"the student supervises {cfg.supervised_layers} layers and its "
                          f"teachers {first.supervised_layers}; mode {mode!r} needs them equal")
    if mode == "sag":
        if cfg.num_parts != 1 or cfg.compression != "none":
            raise ConfigError("the aggregation baseline runs on the unextended student")
    elif cfg.num_parts != n_teachers:
        raise ConfigError(f"student needs num_parts == {n_teachers} for mode {mode!r}")
    # Training-time rule: the teachers' concatenated projections guide compression.
    compressed = cfg.compression != "none" and cfg.num_parts > 1
    if compressed and not first.supervise_projection:
        raise ConfigError(
            f"detector.compression={cfg.compression!r} is guided by the teachers' projections, "
            f"but the teachers have supervise_projection=false and store none; train the "
            f"teachers with supervise_projection=true or set detector.compression='none'")

    if teachers_by_id is None:
        cache = TeacherCache(teacher_models, train_ds, partition)
    else:
        key = (tuple(_teacher_digest(c) for c in teacher_ckpts), train_ds, partition)
        if key not in teachers_by_id:
            teachers_by_id[key] = TeacherCache(teacher_models, train_ds, partition)
        cache = teachers_by_id[key]

    rng = np.random.default_rng(seed)
    params = DetectorParams.init(cfg, rng)
    trainable = params.named_parameters()

    n_layers = cfg.supervised_layers
    if mode == "sag":
        for t in range(n_teachers):
            for l in range(n_layers):
                trainable[f"wa.t{t}.l{l}"] = Tensor(
                    rng.normal(0.0, (1.0 / cfg.d_model) ** 0.5, size=(cfg.d_model, cfg.d_model)),
                    requires_grad=True)

    category_ids = list(range(1, cfg.num_categories + 1))
    metadata = {"mode": mode + ("_lf" if label_free else ""), "seed": seed, "epochs": epochs,
                "label_free": label_free, "partition": partition.to_jsonable(),
                "compression": cfg.compression, "category_ids": category_ids}
    n = cfg.tokens

    def objective(out: BatchOutput, idx: np.ndarray):
        batch = len(idx)
        terms: dict[str, Tensor] = {}
        if mode in ("sa", "sa+ta"):
            student_norm = [T.channel_norm(seq) for seq in out.layer_seqs]
            keep = slice(None) if out.kept is None else out.kept
            teacher_norm = [T.channel_norm(Tensor(cache.layer_rows(j, idx)[keep]))
                            for j in range(n_layers)]
            terms["seq"] = T.scale(ka.sa_loss(student_norm, teacher_norm, n_teachers),
                                   1.0 / batch)
        elif mode == "sag":
            per_layer = []
            for j, seq in enumerate(out.layer_seqs):
                blocks = cache.layer_rows(j, idx).reshape(batch, n_teachers, n, -1)
                per_layer.append(ka.sag_loss(
                    T.channel_norm(seq),
                    [T.channel_norm(Tensor(blocks[:, t].reshape(batch * n, -1)))
                     for t in range(n_teachers)],
                    [trainable[f"wa.t{t}.l{j}"] for t in range(n_teachers)]))
            terms["seq"] = T.scale(functools.reduce(T.add, per_layer), 1.0 / batch)

        if mode in ("ta", "sa+ta"):
            terms["task"] = T.scale(ka.ta_loss(out.dists, out.boxes, cache.dists[idx],
                                               cache.boxes[idx], weights), 1.0 / batch)

        if weights.lambda_direct > 0.0:
            terms["direct"] = detection_loss(out, _batch_targets(train_ds, idx, category_ids),
                                             cfg.num_categories, weights)

        return ka.final_loss(terms.get("seq"), terms.get("task"), terms.get("direct"),
                             weights), terms

    # Only the task-level and ground-truth terms read the student's predictions.
    predict = mode in ("ta", "sa+ta") or weights.lambda_direct > 0.0
    ckpt, _ = _fit(params, trainable, cfg, train_ds, epochs, batch_size, rng,
                   opt_settings, metadata, objective,
                   guide=functools.partial(cache.layer_rows, 0) if compressed else None,
                   predict=predict, eval_ds=eval_ds, partition=partition, csv_path=csv_path,
                   crash_dump=crash_dump)
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


def analyze_redundancy(ckpt: Checkpoint, dataset: Dataset,
                       batch_size: int = 64) -> RedundancyReport:
    """Histogram of extended projection-output token redundancies (Fig.-5a
    style, 0.05-wide bins spanning [-1, 1])."""
    params, cfg = detector_from_checkpoint(ckpt)
    _check_image_size(cfg, dataset)
    params.set_requires_grad(False)
    if cfg.num_parts < 2:
        raise ContractError("redundancy analysis requires an extended (N >= 2) student")
    counts = np.zeros(REDUNDANCY_BINS, dtype=np.int64)
    above, total = 0, 0
    # Projection outputs only: the analysis never needs the full forward pass.
    for start in range(0, len(dataset), batch_size):
        images = [dataset.image(i) for i in range(start, min(start + batch_size, len(dataset)))]
        for block in np.split(extended_projection(images, params, cfg).data, len(images)):
            r = ka.redundancy_all(block)
            bins = np.clip(((r + 1.0) / REDUNDANCY_BIN_WIDTH).astype(int), 0,
                           REDUNDANCY_BINS - 1)
            counts += np.bincount(bins, minlength=REDUNDANCY_BINS)
            above += int((r > 0.5).sum())
            total += r.size
    lows = -1.0 + REDUNDANCY_BIN_WIDTH * np.arange(REDUNDANCY_BINS)
    return RedundancyReport(bin_lows=lows, counts=counts,
                            fraction_above_half=above / max(total, 1),
                            token_count=total)
