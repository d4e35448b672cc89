"""Knowledge-amalgamation losses and sequence compression.

Sequence-level amalgamation supervises the student's per-layer token
sequences with the concatenation of the frozen teachers' sequences,
normalized per channel over the mini-batch; the sequence-aggregation
baseline instead projects teacher sequences through learned matrices and
averages them into a fixed-size hint. Compression keeps exactly one token
per original grid position, choosing sources by token redundancy (mean
cosine similarity within the sequence). Task-level amalgamation matches
student slots to pooled, confidence-filtered teacher soft targets and
weighs each matched pair by teacher confidence.
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


def compress_isometric(n_teachers: int, n_tokens: int, parity: int = 0) -> np.ndarray:
    """Alternate the source teacher cyclically by position: 1, 2, ..., N, 1, ..."""
    t_keep = (np.arange(n_tokens) + parity) % n_teachers
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


def kept_positions(p_slim, n_tokens: int) -> np.ndarray:
    """Original grid position of each kept index (for positional encodings)."""
    return np.asarray(p_slim, dtype=np.intp) % n_tokens


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
    """Differentiable row-wise GIoU of predicted boxes against fixed targets."""
    if pred.shape[1] != 4:
        raise ShapeError("boxes must have four columns")
    tc = matching.box_cxcywh_to_corners(np.asarray(target, dtype=np.float64))
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


def box_loss_rows(pred: Tensor, target: np.ndarray,
                  l1_weight: float, giou_weight: float) -> Tensor:
    """Row-wise weighted l1 + (1 - GIoU) box loss column vector."""
    l1 = T.tsum(T.tabs(T.sub(pred, Tensor(np.asarray(target, dtype=np.float64)))), axis=1)
    giou = box_giou_rows(pred, target)
    one = Tensor(np.ones((pred.shape[0], 1)))
    return T.add(T.scale(l1, l1_weight), T.scale(T.sub(one, giou), giou_weight))


def ta_loss(student_dists: Tensor, student_boxes: Tensor,
            pool_dists: np.ndarray, pool_boxes: np.ndarray,
            weights: KAWeights) -> Tensor:
    """Hungarian distillation loss against the pooled padded teacher targets.

    Pool entries are confidence-filtered (threshold with top-m fallback),
    the match minimizes the KL + box - confidence cost, and each matched
    pair's KL and box terms are weighted by the teacher's confidence.
    """
    pool_dists = np.asarray(pool_dists, dtype=np.float64)
    pool_boxes = np.asarray(pool_boxes, dtype=np.float64)
    if pool_dists.shape[0] == 0:
        raise ContractError("empty teacher pool")
    m = student_dists.shape[0]
    keep = filter_pool(pool_dists, weights.confidence_threshold, m)
    sub_dists, sub_boxes = pool_dists[keep], pool_boxes[keep]
    cost = matching.build_cost_matrix(
        student_dists.data, student_boxes.data, sub_dists, sub_boxes,
        alpha_kl=weights.alpha_kl, alpha_box=weights.alpha_box,
        alpha_conf=weights.alpha_conf,
        l1_weight=weights.l1_weight, giou_weight=weights.giou_weight)
    sigma = matching.hungarian(cost)
    t_dists = sub_dists[sigma]
    t_boxes = sub_boxes[sigma]
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
