"""Shared independent oracles for the test suite.

Everything here is deliberately naive (finite differences, per-element
loops, exhaustive enumeration, scalar formulas, single-image forwards) so it
cannot share a failure mode with the batched library code it checks.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from kaseq import matching
from kaseq import tensor as T
from kaseq.amalgamation import filter_pool, redundancy_all
from kaseq.data import TaskPartition
from kaseq.detector import (BatchOutput, DetectorConfig, DetectorParams, forward_batch,
                            normalized_patches)
from kaseq.errors import ContractError, ShapeError
from kaseq.matching import box_cxcywh_to_corners
from kaseq.tensor import Tensor
from kaseq.traineval import _ap_101


def finite_difference_grad(make_loss, values, h=1e-5):
    """Central finite differences of a scalar loss w.r.t. one ndarray.

    ``make_loss`` maps an ndarray to a float and must be a pure function;
    it is re-evaluated 2 * values.size times.
    """
    values = np.asarray(values, dtype=np.float64)
    grad = np.zeros_like(values)
    flat = values.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = make_loss(values)
        flat[i] = orig - h
        down = make_loss(values)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def autodiff_grad(build_loss, values):
    """Gradient of ``build_loss`` (Tensor -> scalar Tensor) at ``values``."""
    leaf = Tensor(np.asarray(values, dtype=np.float64).copy(), requires_grad=True)
    loss = build_loss(leaf)
    loss.backward()
    return leaf.grad


def rel_err(a, b):
    """Scale-aware gradient discrepancy: max |a-b| over max(1, max |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    return float(np.max(np.abs(a - b))) / denom if a.size else 0.0


def check_grad(build_loss, values, h=1e-5, tol=1e-6):
    """Assert autodiff and central finite differences agree on one input."""
    values = np.asarray(values, dtype=np.float64)
    g_ad = autodiff_grad(build_loss, values)

    def numeric_loss(arr):
        return build_loss(Tensor(arr.copy())).item()

    g_fd = finite_difference_grad(numeric_loss, values, h=h)
    err = rel_err(g_ad, g_fd)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol:.1e}"
    return err


# ---------------------------------------------------------------------------
# scalar reference formulas (the library computes these batched)

_NORM_ATOL = 1e-6
_KL_FLOOR = 1e-12


def _check_box(b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (4,):
        raise ContractError(f"box must be (cx, cy, w, h), got shape {b.shape}")
    if b[2] <= 0 or b[3] <= 0:
        raise ContractError(f"degenerate box with w={b[2]}, h={b[3]}")
    return b


def box_l1(b1, b2) -> float:
    """L1 distance on (cx, cy, w, h)."""
    return float(np.abs(_check_box(b1) - _check_box(b2)).sum())


def box_giou(b1, b2) -> float:
    """Generalized IoU in (-1, 1]: IoU minus the enclosure penalty."""
    c1 = box_cxcywh_to_corners(_check_box(b1))
    c2 = box_cxcywh_to_corners(_check_box(b2))
    iw = max(0.0, min(c1[2], c2[2]) - max(c1[0], c2[0]))
    ih = max(0.0, min(c1[3], c2[3]) - max(c1[1], c2[1]))
    inter = iw * ih
    a1 = (c1[2] - c1[0]) * (c1[3] - c1[1])
    a2 = (c2[2] - c2[0]) * (c2[3] - c2[1])
    union = a1 + a2 - inter
    ew = max(c1[2], c2[2]) - min(c1[0], c2[0])
    eh = max(c1[3], c2[3]) - min(c1[1], c2[1])
    enclosure = ew * eh
    return float(inter / union - (enclosure - union) / enclosure)


def _check_dist(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ContractError("distribution must be a vector")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > _NORM_ATOL:
        raise ContractError("distribution must be non-negative and sum to 1")
    return p


def kl_divergence(p, q) -> float:
    """KL(p || q) with q clamped at 1e-12 and the 0 * log 0 = 0 convention."""
    p = _check_dist(p)
    q = _check_dist(q)
    if p.shape != q.shape:
        raise ContractError("distributions must have equal arity")
    qc = np.maximum(q, _KL_FLOOR)
    pos = p > 0
    return float(np.sum(p[pos] * (np.log(p[pos]) - np.log(qc[pos]))))


def confidence(p) -> float:
    """Largest probability among non-background entries (background is last)."""
    p = _check_dist(p)
    return float(p[:-1].max()) if p.size > 1 else 0.0


def box_cost(b_teacher, b_student, l1_weight: float = 5.0, giou_weight: float = 2.0) -> float:
    return l1_weight * box_l1(b_teacher, b_student) + giou_weight * (1.0 - box_giou(b_teacher, b_student))


def match_cost(t_dist, t_box, s_dist, s_box,
               alpha_kl: float = 1.0, alpha_box: float = 1.0, alpha_conf: float = 1.0,
               l1_weight: float = 5.0, giou_weight: float = 2.0) -> float:
    """Pairwise teacher-student matching cost: KL + box terms minus teacher confidence."""
    return (alpha_kl * kl_divergence(t_dist, s_dist)
            + alpha_box * box_cost(t_box, s_box, l1_weight, giou_weight)
            - alpha_conf * confidence(t_dist))


def assignment_cost(cost, assignment) -> float:
    cost = np.asarray(cost, dtype=np.float64)
    return float(sum(cost[i, j] for i, j in enumerate(assignment)))


def padded_hungarian(cost) -> list[int]:
    """The square-padded assignment solver the library used before it solved
    rectangular problems directly; kept as an oracle for identical answers.

    An m x K input (K >= m) is padded to K x K with a constant larger than
    any real cost and solved by K shortest augmenting paths on numpy arrays
    (O(K^3)). Ties go to the lower column index. Inputs are not checked.
    """
    cost = np.asarray(cost, dtype=np.float64)
    m, k = cost.shape
    if k > m:
        pad = float(cost.max()) + 1.0
        sq = np.vstack([cost, np.full((k - m, k), pad)])
    else:
        sq = cost
    n = k

    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.intp)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = sq[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            candidates = np.where(free, minv[1:], np.inf)
            j0 = int(np.argmin(candidates)) + 1
            delta = candidates[j0 - 1]
            used_cols = np.nonzero(used)[0]
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            minv[1:][free] -= delta
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * m
    for j in range(1, n + 1):
        row = p[j] - 1
        if row < m:
            assignment[row] = j - 1
    return assignment


# ---------------------------------------------------------------------------
# per-image and composed forms of batched library code


def apply_task(annotations, partition: TaskPartition, t: int) -> list:
    """Keep annotations whose category belongs to task t's subset."""
    wanted = set(partition.subset(t))
    return [a for a in annotations if a.category in wanted]


def box_giou_rows(pred: Tensor, target) -> Tensor:
    """Row-wise GIoU composed of elementwise tape ops, each with its own
    gradient rule (ties of ``maximum``/``minimum`` go to the first operand,
    ``clamp_min`` passes gradient only above its floor)."""
    tc = box_cxcywh_to_corners(np.asarray(target, dtype=np.float64))
    cx, cy = T.slice_cols(pred, 0, 1), T.slice_cols(pred, 1, 2)
    w, h = T.slice_cols(pred, 2, 3), T.slice_cols(pred, 3, 4)
    x0 = T.sub(cx, T.scale(w, 0.5))
    x1 = T.add(cx, T.scale(w, 0.5))
    y0 = T.sub(cy, T.scale(h, 0.5))
    y1 = T.add(cy, T.scale(h, 0.5))
    tx0, ty0 = Tensor(tc[:, 0:1]), Tensor(tc[:, 1:2])
    tx1, ty1 = Tensor(tc[:, 2:3]), Tensor(tc[:, 3:4])
    iw = T.clamp_min(T.sub(T.minimum(x1, tx1), T.maximum(x0, tx0)), 0.0)
    ih = T.clamp_min(T.sub(T.minimum(y1, ty1), T.maximum(y0, ty0)), 0.0)
    inter = T.mul(iw, ih)
    area_p = T.mul(w, h)
    area_t = Tensor(((tc[:, 2] - tc[:, 0]) * (tc[:, 3] - tc[:, 1]))[:, None])
    union = T.sub(T.add(area_p, area_t), inter)
    ew = T.sub(T.maximum(x1, tx1), T.minimum(x0, tx0))
    eh = T.sub(T.maximum(y1, ty1), T.minimum(y0, ty0))
    enclosure = T.mul(ew, eh)
    return T.sub(T.div(inter, union), T.div(T.sub(enclosure, union), enclosure))


def ta_loss_per_image(student_dists: Tensor, student_boxes: Tensor,
                      pool_dists, pool_boxes, weights):
    """Task-level loss of one image's m slots against its (K, .) pool, and the
    pool row matched to each slot: filter, build the m x K' cost, solve, then
    weigh each matched pair's KL and l1 + (1 - GIoU) terms by the teacher's
    confidence. The GIoU is the composed :func:`box_giou_rows`."""
    pool_dists = np.asarray(pool_dists, dtype=np.float64)
    pool_boxes = np.asarray(pool_boxes, dtype=np.float64)
    keep = filter_pool(pool_dists, weights.confidence_threshold, student_dists.shape[0])
    cost = matching.build_cost_matrix(
        student_dists.data, student_boxes.data, pool_dists[keep], pool_boxes[keep],
        alpha_kl=weights.alpha_kl, alpha_box=weights.alpha_box,
        alpha_conf=weights.alpha_conf,
        l1_weight=weights.l1_weight, giou_weight=weights.giou_weight)
    chosen = keep[matching.hungarian(cost)]
    t_dists, t_boxes = pool_dists[chosen], pool_boxes[chosen]
    conf = t_dists[:, :-1].max(axis=1)
    plogp = np.where(t_dists > 0, t_dists * np.log(np.maximum(t_dists, _KL_FLOOR)), 0.0)
    cross = T.tsum(T.mul(T.log(T.clamp_min(student_dists)), Tensor(t_dists)), axis=1)
    kl = T.sub(Tensor(plogp.sum(axis=1, keepdims=True)), cross)
    l1 = T.tsum(T.tabs(T.sub(student_boxes, Tensor(t_boxes))), axis=1)
    one_minus_giou = T.sub(Tensor(np.ones((len(chosen), 1))),
                           box_giou_rows(student_boxes, t_boxes))
    box = T.add(T.scale(l1, weights.l1_weight), T.scale(one_minus_giou, weights.giou_weight))
    per_slot = T.mul(Tensor(conf[:, None]),
                     T.add(T.scale(kl, weights.beta_kl), T.scale(box, weights.beta_box)))
    return T.tsum(per_slot), chosen


def token_redundancy(index: int, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= index < x.shape[0]:
        raise ContractError(f"token index {index} out of range")
    return float(redundancy_all(x)[index])


def apply_compression(seq, p_slim):
    """Select the kept rows in ascending index order."""
    idx = np.asarray(p_slim, dtype=np.intp)
    if idx.ndim != 1 or (idx.size > 1 and np.any(np.diff(idx) <= 0)):
        raise ContractError("kept-index set must be strictly ascending")
    if isinstance(seq, Tensor):
        return T.gather_rows(seq, idx)
    seq = np.asarray(seq)
    if idx.size and (idx[0] < 0 or idx[-1] >= seq.shape[0]):
        raise ContractError("kept index out of range")
    return seq[idx].copy()


def pad_prediction(p: np.ndarray, partition: TaskPartition, t: int) -> np.ndarray:
    """Lift a teacher's local distribution onto the student category universe.

    The teacher's local order is its sorted subset followed by the
    no-object entry, which is carried over unchanged.
    """
    p = np.asarray(p, dtype=np.float64)
    subset = sorted(partition.subset(t))
    if p.shape != (len(subset) + 1,):
        raise ContractError(f"expected {len(subset) + 1} entries for task {t}, got {p.shape}")
    if abs(p.sum() - 1.0) > 1e-6 or np.any(p < -1e-12):
        raise ContractError("distribution must be normalized")
    out = np.zeros(partition.num_categories + 1)
    for local, cat in enumerate(subset):
        out[cat - 1] = p[local]
    out[-1] = p[-1]
    return out


# ---------------------------------------------------------------------------
# per-threshold and per-row forms of the evaluation code


def category_ap_per_threshold(predictions, gt_boxes_by_image, threshold: float):
    """AP for one category at one IoU threshold, as evaluation computed it
    before it scored every threshold in one pass; None when the category has
    no ground truth. Each call sorts the predictions and builds the IoU
    matrix anew, then matches greedily by descending score: each prediction
    takes the unmatched box of its image with the best IoU.

    ``predictions`` holds (score, image, slot, corner box) tuples and
    ``gt_boxes_by_image`` maps an image to its corner boxes."""
    total_gt = sum(len(v) for v in gt_boxes_by_image.values())
    if total_gt == 0:
        return None
    preds = sorted(predictions, key=lambda p: (-p[0], p[1], p[2]))
    hits = np.zeros(len(preds), dtype=bool)
    if preds:
        spans, gt_rows, start = {}, [], 0
        for img, boxes in gt_boxes_by_image.items():
            spans[img] = range(start, start + len(boxes))
            gt_rows.extend(boxes)
            start += len(boxes)
        iou, _ = matching.pairwise_iou_giou(np.asarray([p[3] for p in preds]),
                                            np.asarray(gt_rows))
        taken = [False] * total_gt
        for rank, ((_, img, _, _), row) in enumerate(zip(preds, iou.tolist())):
            best_iou, best_j = 0.0, -1
            for j in spans.get(img, ()):
                if not taken[j] and row[j] > best_iou:
                    best_iou, best_j = row[j], j
            if best_j >= 0 and best_iou >= threshold:
                taken[best_j] = True
                hits[rank] = True
    return _ap_101(hits, total_gt)


def ap_arrays(predictions, gt_boxes_by_image) -> tuple[np.ndarray, np.ndarray]:
    """The (P, 7) prediction rows (score, image, slot, corner box) and (G, 5)
    ground-truth rows (image, corner box) that ``traineval.category_ap``
    takes, from the tuple list and image-to-boxes map of
    :func:`category_ap_per_threshold`."""
    preds = [(score, img, slot, *box) for score, img, slot, box in predictions]
    gt = [(img, *box) for img, boxes in gt_boxes_by_image.items() for box in boxes]
    return (np.asarray(preds, dtype=np.float64).reshape(-1, 7),
            np.asarray(gt, dtype=np.float64).reshape(-1, 5))


def collect_predictions_per_row(params: DetectorParams, cfg: DetectorConfig, dataset,
                                category_ids, batch_size: int = 32) -> dict[int, list]:
    """(score, image, slot, corner box) of every decoder slot whose argmax
    is a real category, per category, read one slot at a time."""
    preds: dict[int, list] = {c: [] for c in category_ids}
    m = cfg.queries
    for start in range(0, len(dataset), batch_size):
        idx = list(range(start, min(start + batch_size, len(dataset))))
        out = forward_batch([dataset.image(i) for i in idx], params, cfg,
                            rng=np.random.default_rng(0))
        dists = out.dists.data
        corners = box_cxcywh_to_corners(out.boxes.data)
        for row in range(dists.shape[0]):
            best = int(np.argmax(dists[row]))
            if best == dists.shape[1] - 1:
                continue  # no-object slot
            preds[category_ids[best]].append(
                (float(dists[row, best]), idx[row // m], row % m, corners[row]))
    return preds


# ---------------------------------------------------------------------------
# single-image views of the batched detector


@dataclass(frozen=True)
class Detection:
    """One predicted or annotated object: normalized box plus class distribution."""

    box: np.ndarray   # (cx, cy, w, h) in [0, 1]
    dist: np.ndarray  # probabilities over num_categories + 1 entries, last = no-object


@dataclass
class DetectionSet:
    """Exactly m detections as stacked arrays."""

    dists: np.ndarray  # (m, C + 1)
    boxes: np.ndarray  # (m, 4)

    def __len__(self) -> int:
        return self.dists.shape[0]

    def detection(self, i: int) -> Detection:
        return Detection(box=self.boxes[i].copy(), dist=self.dists[i].copy())


def image_detections(out: BatchOutput, b: int) -> DetectionSet:
    """The m detections of image ``b`` of a batched forward."""
    m = out.dists.shape[0] // out.batch
    return DetectionSet(dists=out.dists.data[b * m:(b + 1) * m].copy(),
                        boxes=out.boxes.data[b * m:(b + 1) * m].copy())


def backbone_project(image: np.ndarray, params: DetectorParams, cfg: DetectorConfig,
                     part_index: int = 0) -> Tensor:
    """Project one image's patches with the given part's own parameters."""
    if not 0 <= part_index < cfg.num_parts:
        raise ContractError(f"part index {part_index} out of range for N={cfg.num_parts}")
    patches = Tensor(normalized_patches(image, cfg.patch_size))
    return T.add(T.matmul(patches, params.proj_w[part_index]), params.proj_b[part_index])


def student_forward(image: np.ndarray, params: DetectorParams, cfg: DetectorConfig,
                    rng: Optional[np.random.Generator] = None):
    """Single-image forward: (DetectionSet, per-layer supervision sequences)."""
    out = forward_batch([image], params, cfg, rng=rng)
    return image_detections(out, 0), out.layer_seqs


def teacher_forward(image: np.ndarray, params: DetectorParams, cfg: DetectorConfig):
    """Teacher forward is the N=1 student forward over the task's class arity."""
    if cfg.num_parts != 1:
        raise ContractError("teachers are single-part models")
    return student_forward(image, params, cfg)


def split_parts(seq: Tensor, parts: int) -> list[Tensor]:
    """View an extended (N*n, d) sequence as its N per-part sequences."""
    rows = seq.shape[0]
    if rows % parts:
        raise ShapeError("sequence length is not divisible by the part count")
    n = rows // parts
    return [T.slice_rows(seq, t * n, (t + 1) * n) for t in range(parts)]
