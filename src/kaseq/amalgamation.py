"""Knowledge-amalgamation losses and sequence compression.

Sequence-level amalgamation supervises the student's per-layer token
sequences with the concatenation of the frozen teachers' sequences,
normalized per channel over the mini-batch; the sequence-aggregation
baseline instead projects teacher sequences through learned matrices and
averages them into a fixed-size hint. Compression keeps exactly one token
per original grid position, choosing sources by token redundancy (mean
cosine similarity within the sequence). Task-level amalgamation matches
student slots to pooled, confidence-filtered teacher soft targets and
weighs each matched pair by teacher confidence; it runs once per batch, with
one assignment problem per image and one loss over all the batch's slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import matching, tensor as T
from .data import TaskPartition
from .errors import ContractError, ShapeError
from .settings import Settings
from .tensor import Tensor

_UNIT_FLOOR = 1e-12


@dataclass
class KAWeights(Settings):
    """Loss weights, match-cost weights, and the pool confidence filter."""

    lambda_seq: float = 1.0
    lambda_task: float = 1.0
    lambda_direct: float = 0.1
    beta_kl: float = 1.0
    beta_box: float = 1.0
    alpha_kl: float = 1.0
    alpha_box: float = 1.0
    alpha_conf: float = 1.0
    l1_weight: float = 5.0
    giou_weight: float = 2.0
    confidence_threshold: float = 0.1


# ---------------------------------------------------------------------------
# sequence-level amalgamation


def sa_loss(student_layers: Sequence[Tensor], teacher_layers: Sequence[Tensor],
            n_teachers: int) -> Tensor:
    """(1/N) * sum_l ||Y_student^l - Y_teacher^l||_F^2 over supervision layers.

    Inputs must already share shapes layer by layer (any compression applied
    identically to both sides beforehand).
    """
    if len(student_layers) != len(teacher_layers):
        raise ShapeError("student and teacher supervision layer counts differ")
    if not student_layers:
        raise ContractError("sa_loss needs at least one supervised layer")
    total: Optional[Tensor] = None
    for ys, yt in zip(student_layers, teacher_layers):
        if ys.shape != yt.shape:
            raise ShapeError(f"supervised layer shapes differ: {ys.shape} vs {yt.shape}")
        term = T.frobenius_sq(T.sub(ys, yt))
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / n_teachers)


def sag_loss(student_seq: Tensor, teacher_seqs: Sequence[Tensor],
             w_a: Sequence[Tensor]) -> Tensor:
    """||Y_s - (1/N) sum_i Y_t^i W_a^i||_F^2 with learned projections W_a."""
    if len(teacher_seqs) != len(w_a):
        raise ContractError("one projection matrix per teacher sequence required")
    if not teacher_seqs:
        raise ContractError("sag_loss needs at least one teacher sequence")
    n = len(teacher_seqs)
    agg: Optional[Tensor] = None
    for yt, w in zip(teacher_seqs, w_a):
        if yt.shape != student_seq.shape:
            raise ShapeError("teacher sequences must match the student sequence shape")
        if w.shape != (student_seq.shape[1], student_seq.shape[1]):
            raise ShapeError("W_a must be d x d")
        proj = T.matmul(yt, w)
        agg = proj if agg is None else T.add(agg, proj)
    return T.frobenius_sq(T.sub(student_seq, T.scale(agg, 1.0 / n)))


# ---------------------------------------------------------------------------
# token redundancy and compression


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, _UNIT_FLOOR)


def redundancy_all(x: np.ndarray) -> np.ndarray:
    """Redundancy of every token: row means of the cosine similarity matrix."""
    x = np.asarray(x, dtype=np.float64)
    unit = _unit_rows(x)
    return unit @ unit.mean(axis=0)


def compress_redundancy(x_concat: np.ndarray, n_teachers: int, n_tokens: int) -> np.ndarray:
    """Keep, per grid position, the candidate token with minimum redundancy.

    Redundancies are computed against the full concatenated sequence; ties go
    to the lowest teacher index. Returns sorted kept indices of length n.
    """
    x_concat = np.asarray(x_concat)
    if x_concat.shape[0] != n_teachers * n_tokens:
        raise ShapeError(f"expected {n_teachers * n_tokens} rows, got {x_concat.shape[0]}")
    r = redundancy_all(x_concat).reshape(n_teachers, n_tokens)
    t_keep = np.argmin(r, axis=0)  # argmin returns the first (lowest) index on ties
    return np.sort(t_keep * n_tokens + np.arange(n_tokens))


def compress_isometric(n_teachers: int, n_tokens: int) -> np.ndarray:
    """Alternate the source teacher cyclically by position: 1, 2, ..., N, 1, ..."""
    t_keep = np.arange(n_tokens) % n_teachers
    return np.sort(t_keep * n_tokens + np.arange(n_tokens))


def compress_random(n_teachers: int, n_tokens: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the source teacher uniformly per position under a seeded generator."""
    t_keep = rng.integers(0, n_teachers, size=n_tokens)
    return np.sort(t_keep * n_tokens + np.arange(n_tokens))


def select_tokens(strategy: str, x_concat: np.ndarray, n_parts: int, n_tokens: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Kept indices of one image's concatenated (n_parts * n_tokens)-row
    sequence under a compression strategy; ``x_concat`` is read only by the
    redundancy rule and ``rng`` only by the random one."""
    if strategy == "redundancy":
        return compress_redundancy(x_concat, n_parts, n_tokens)
    if strategy == "isometric":
        return compress_isometric(n_parts, n_tokens)
    if strategy == "random":
        return compress_random(n_parts, n_tokens, rng)
    raise ContractError(f"no token selection for compression strategy {strategy!r}")


# ---------------------------------------------------------------------------
# task-level amalgamation


def pad_predictions(dists: np.ndarray, partition: TaskPartition, t: int) -> np.ndarray:
    """Lift teacher t's local distributions, one per row of an (m, |C^t|+1)
    matrix, onto the student category universe.

    The teacher's local order is its sorted subset followed by the
    no-object entry, which is carried over unchanged.
    """
    dists = np.asarray(dists, dtype=np.float64)
    subset = sorted(partition.subset(t))
    out = np.zeros((dists.shape[0], partition.num_categories + 1))
    out[:, np.asarray(subset) - 1] = dists[:, :-1]
    out[:, -1] = dists[:, -1]
    return out


def filter_pool(pool_dists: np.ndarray, threshold: float, m: int) -> np.ndarray:
    """Indices surviving the confidence filter, topped up to m when too few."""
    conf = np.asarray(pool_dists)[:, :-1].max(axis=1)
    keep = np.nonzero(conf >= threshold)[0]
    if keep.size < m:
        order = np.argsort(-conf, kind="stable")
        keep = np.sort(order[:m])
    return keep


def box_giou_rows(pred: Tensor, target: np.ndarray) -> Tensor:
    """Row-wise GIoU of predicted (cx, cy, w, h) boxes against fixed targets,
    as an (n, 1) column and one tape op.

    The forward is :func:`matching.giou_terms` on row pairs. The backward
    routes ties the way elementwise ``maximum``/``minimum`` with the
    prediction as first operand would (to the prediction), and passes
    intersection gradient only where the unclamped extent is positive.
    """
    if pred.data.ndim != 2 or pred.shape[1] != 4:
        raise ShapeError("boxes must have four columns")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ShapeError(f"targets {target.shape} do not match predictions {pred.shape}")
    pc = matching.box_cxcywh_to_corners(pred.data)
    tc = matching.box_cxcywh_to_corners(target)
    t = matching.giou_terms(pc, tc)

    def vjp(g):
        g = g[:, 0]
        inv_enc = 1.0 / t.enclosure
        ratio = t.inter / (t.union * t.union)
        d_inter = (g * (1.0 / t.union - inv_enc + ratio))[:, None]
        d_area = (g * (inv_enc - ratio))[:, None]
        d_enc = (-g * t.union * inv_enc * inv_enc)[:, None]
        lo_p, hi_p, lo_t, hi_t = pc[:, :2], pc[:, 2:], tc[:, :2], tc[:, 2:]
        # columns x, y; d(extent x * extent y)/d(extent x) is extent y
        overlap = np.column_stack([t.iw, t.ih])
        g_overlap = d_inter * overlap[:, ::-1] * (overlap > 0)
        g_span = d_enc * np.column_stack([t.eh, t.ew])
        g_size = d_area * (hi_p - lo_p)[:, ::-1]
        g_hi = g_overlap * (hi_p <= hi_t) + g_span * (hi_p >= hi_t) + g_size
        g_lo = -g_overlap * (lo_p >= lo_t) - g_span * (lo_p <= lo_t) - g_size
        return (np.concatenate([g_lo + g_hi, 0.5 * (g_hi - g_lo)], axis=1),)

    return T._from_op(t.giou[:, None], (pred,), vjp)


def box_loss_rows(pred: Tensor, target: np.ndarray,
                  l1_weight: float, giou_weight: float) -> Tensor:
    """Row-wise weighted l1 + (1 - GIoU) box loss column vector."""
    l1 = T.tsum(T.tabs(T.sub(pred, Tensor(np.asarray(target, dtype=np.float64)))), axis=1)
    giou = box_giou_rows(pred, target)
    one = Tensor(np.ones((pred.shape[0], 1)))
    return T.add(T.scale(l1, l1_weight), T.scale(T.sub(one, giou), giou_weight))


def ta_assignment(student_dists: np.ndarray, student_boxes: np.ndarray,
                  pool_dists: np.ndarray, pool_boxes: np.ndarray,
                  weights: KAWeights) -> np.ndarray:
    """Pool entry matched to each student slot, as an index into the
    flattened (B K) pool rows.

    Students are B m rows, image-major; the pools are (B, K, C+1) and
    (B, K, 4). The B cost matrices are built in one call over all K entries;
    each image then keeps its confidence-filtered columns (threshold with
    top-m fallback, so the kept count varies by image) and is solved by its
    own Hungarian call on the KL + box - confidence cost.
    """
    batch, k = pool_dists.shape[:2]
    m = student_dists.shape[0] // batch
    cost = matching.build_cost_matrix(
        student_dists.reshape(batch, m, -1), student_boxes.reshape(batch, m, 4),
        pool_dists, pool_boxes,
        alpha_kl=weights.alpha_kl, alpha_box=weights.alpha_box,
        alpha_conf=weights.alpha_conf,
        l1_weight=weights.l1_weight, giou_weight=weights.giou_weight)
    chosen = np.empty((batch, m), dtype=np.intp)
    for b in range(batch):
        keep = filter_pool(pool_dists[b], weights.confidence_threshold, m)
        chosen[b] = keep[matching.hungarian(cost[b][:, keep])]
    return (chosen + k * np.arange(batch)[:, None]).reshape(-1)


def ta_loss(student_dists: Tensor, student_boxes: Tensor,
            pool_dists: np.ndarray, pool_boxes: np.ndarray,
            weights: KAWeights) -> Tensor:
    """Hungarian distillation loss of a batch against its pooled padded
    teacher targets, summed over images.

    ``student_dists`` and ``student_boxes`` hold the B m student slots,
    image-major; ``pool_dists`` (B, K, C+1) and ``pool_boxes`` (B, K, 4) hold
    each image's teacher pool. Slots are matched per image
    (:func:`ta_assignment`); then one KL and one box term over all B m rows,
    each matched pair weighted by the teacher's confidence, make the loss.
    """
    pool_dists = np.asarray(pool_dists, dtype=np.float64)
    pool_boxes = np.asarray(pool_boxes, dtype=np.float64)
    if pool_dists.ndim != 3 or pool_boxes.shape != pool_dists.shape[:2] + (4,):
        raise ShapeError(f"pools must be (B, K, C+1) and (B, K, 4), got "
                         f"{pool_dists.shape} and {pool_boxes.shape}")
    batch, k = pool_dists.shape[:2]
    if k == 0:
        raise ContractError("empty teacher pool")
    rows = student_dists.shape[0]
    if batch == 0 or rows % batch or student_boxes.shape[0] != rows:
        raise ShapeError(f"{rows} student rows do not split over {batch} images")
    flat = ta_assignment(student_dists.data, student_boxes.data,
                         pool_dists, pool_boxes, weights)
    t_dists = pool_dists.reshape(batch * k, -1)[flat]
    t_boxes = pool_boxes.reshape(batch * k, 4)[flat]
    conf = t_dists[:, :-1].max(axis=1)

    plogp = np.where(t_dists > 0, t_dists * np.log(np.maximum(t_dists, _UNIT_FLOOR)), 0.0)
    kl_const = plogp.sum(axis=1, keepdims=True)
    cross = T.tsum(T.mul(T.log(T.clamp_min(student_dists)), Tensor(t_dists)), axis=1)
    kl = T.sub(Tensor(kl_const), cross)
    box = box_loss_rows(student_boxes, t_boxes, weights.l1_weight, weights.giou_weight)
    per_slot = T.mul(Tensor(conf[:, None]),
                     T.add(T.scale(kl, weights.beta_kl), T.scale(box, weights.beta_box)))
    return T.tsum(per_slot)


def final_loss(l_seq: Optional[Tensor], l_task: Optional[Tensor],
               l_direct: Optional[Tensor], weights: KAWeights) -> Tensor:
    """Weighted sum of the enabled loss components (label-free sets lambda_d = 0)."""
    total: Optional[Tensor] = None
    for term, lam in ((l_seq, weights.lambda_seq),
                      (l_task, weights.lambda_task),
                      (l_direct, weights.lambda_direct)):
        if term is None:
            continue
        piece = T.scale(term, lam)
        total = piece if total is None else T.add(total, piece)
    if total is None:
        return Tensor(np.zeros(()))
    return total
