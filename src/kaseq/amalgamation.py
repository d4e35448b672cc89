"""Knowledge-amalgamation losses and sequence compression.

Sequence-level amalgamation supervises the student's per-layer token
sequences, normalized per channel over the mini-batch, with a hint per
layer: SA's is the teachers' concatenated sequences, normalized the same
way; the sequence-aggregation baseline's averages their normalized sequences
projected through learned matrices, a fixed-size hint. Both are one tape op,
:func:`sa_loss`, whose layers run forward and backward on the share pool
(``tensor.run_shares``), each building its own hint. Compression keeps
exactly one token per original grid position, choosing sources by token
redundancy (mean cosine similarity within the sequence). Task-level
amalgamation matches student slots to pooled, confidence-filtered teacher
soft targets and weighs each matched pair's KL and box terms by teacher
confidence (the box term, l1 plus 1 - GIoU, is one tape op that the
ground-truth loss shares); it runs once per batch, with one assignment
problem per image and one loss over all the batch's slots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import matching, tensor as T
from .data import TaskPartition
from .errors import ContractError, ShapeError
from .settings import Settings
from .tensor import Tensor

_NORM_FLOOR = 1e-12  # least row norm divided by, so a zero row stays zero


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

    def __post_init__(self):
        self._require(self.to_dict(), lambda v: 0 <= v < math.inf, "finite and non-negative")
        self._require(("confidence_threshold",), lambda v: v <= 1, "in [0, 1]")


# ---------------------------------------------------------------------------
# sequence-level amalgamation


def sa_loss(student_layers: Sequence[Tensor], hint: Callable[[int], Tensor],
            scale: float) -> Tensor:
    """``scale`` sum_l ||cn(S_l) - H_l||_F^2 (cn: :func:`tensor.channel_norm_array`)
    as one tape op over the student's raw layer sequences S_l and their hints
    H_l = ``hint(l)``: SA's :func:`concat_hint` with scale 1/N, or the
    aggregation baseline's :func:`aggregate_hint` with scale 1. Each layer's
    forward, its hint included, and its vjp run on the share pool, the
    layers dealt to ``min(L, tensor.share_count())`` groups. The operations
    and their order are those of the composed ops, so the loss and gradients
    are byte-equal to theirs. The backward keeps each layer's difference and
    student channel-norm intermediates until its vjp has made that layer's
    gradient, and only the hints that need a gradient, to which it hands
    -2 g (cn(S_l) - H_l)."""
    count = len(student_layers)
    if not count:
        raise ContractError("sa_loss needs at least one supervised layer")
    shares = min(count, T.share_count())
    groups = [(range(k, count, shares),) for k in range(shares)]
    saved: list = [None] * count  # per layer: its term, difference and student cn vjp
    hints: list = [None] * count  # per layer: its hint, if that needs a gradient

    def forward(layers: range) -> None:
        for l in layers:
            ys, h = student_layers[l], hint(l)
            if ys.shape != h.shape or h.data.ndim != 2:
                raise ShapeError(f"supervised layer {l}: student {ys.shape}, hint {h.shape}")
            out, cn_vjp = T.channel_norm_array(ys.data)
            diff = out - h.data
            saved[l] = (np.sum(diff * diff), diff, cn_vjp)
            hints[l] = h if h.requires_grad else None

    T.run_shares(forward, groups)
    total = functools.reduce(np.add, [term for term, *_ in saved])  # in layer order

    def vjp(g):
        g, grads, hint_grads = g * scale, [None] * count, [None] * count

        def backward(layers: range) -> None:
            for l in layers:
                _, g_diff, cn_vjp = saved[l]
                saved[l] = None
                g_diff *= 2.0 * g
                grads[l] = cn_vjp(g_diff)
                if hints[l] is not None:
                    hint_grads[l] = -g_diff
                del g_diff, cn_vjp  # this layer's saved state goes now

        T.run_shares(backward, groups)
        return grads + [gh for gh, h in zip(hint_grads, hints) if h is not None]

    return T._from_op(total * scale, (*student_layers, *(h for h in hints if h is not None)), vjp)


def concat_hint(rows: np.ndarray) -> Tensor:
    """SA's hint: the concatenated teacher rows, channel-normalized, as a constant."""
    return Tensor(T.channel_norm_array(np.asarray(rows, dtype=np.float64))[0])


def aggregate_hint(rows: np.ndarray, w_a: Sequence[Tensor], images: int) -> Tensor:
    """The aggregation baseline's hint (1/N) sum_i cn(Y_t^i) W_a^i with
    learned d x d projections W_a, Y_t^i being teacher i's rows of ``rows``,
    which stacks ``images`` images' N n rows image-major, N = len(w_a)."""
    rows, n_teachers = np.asarray(rows, dtype=np.float64), len(w_a)
    if rows.ndim != 2 or images < 1 or not w_a or rows.shape[0] % (images * n_teachers):
        raise ShapeError(f"teacher rows {rows.shape} are not {images} x {n_teachers} x n")
    d = rows.shape[1]
    if any(w.shape != (d, d) for w in w_a):
        raise ShapeError(f"W_a must be d x d, d = {d}")
    blocks = rows.reshape(images, n_teachers, -1, d)
    projected = [T.matmul(Tensor(T.channel_norm_array(blocks[:, t].reshape(-1, d))[0]), w)
                 for t, w in enumerate(w_a)]
    return T.scale(functools.reduce(T.add, projected), 1.0 / n_teachers)


# ---------------------------------------------------------------------------
# token redundancy and compression


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, _NORM_FLOOR)


def redundancy_all(x: np.ndarray, images: int) -> np.ndarray:
    """Redundancy of every token of ``images`` equal image-major sequences
    stacked in ``x``: the row means of each image's cosine similarity matrix.
    Unit rows are taken over the block, mean rows and products per image."""
    unit = _unit_rows(np.asarray(x, dtype=np.float64))
    unit = unit.reshape(images, -1, unit.shape[1])
    return np.concatenate([u @ mean for u, mean in zip(unit, unit.mean(axis=1))])


def compress_redundancy(x_concat: np.ndarray, n_teachers: int, n_tokens: int) -> np.ndarray:
    """Keep, per image and grid position, the candidate token with minimum
    redundancy against the image's full sequence; ties go to the lowest
    teacher index. ``x_concat`` stacks B images' N n rows; returns (B, n),
    each row one image's sorted kept indices into its own N n rows.
    """
    x_concat = np.asarray(x_concat)
    images, extra = divmod(x_concat.shape[0], n_teachers * n_tokens)
    if extra or not images:
        raise ShapeError(f"{x_concat.shape[0]} rows are not B x {n_teachers} x {n_tokens}")
    r = redundancy_all(x_concat, images).reshape(images, n_teachers, n_tokens)
    t_keep = np.argmin(r, axis=1)  # argmin returns the first (lowest) index on ties
    return np.sort(t_keep * n_tokens + np.arange(n_tokens), axis=1)


def compress_isometric(n_teachers: int, n_tokens: int) -> np.ndarray:
    """Alternate the source teacher cyclically by position: 1, 2, ..., N, 1, ..."""
    t_keep = np.arange(n_tokens) % n_teachers
    return np.sort(t_keep * n_tokens + np.arange(n_tokens))


def compress_random(n_teachers: int, n_tokens: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the source teacher uniformly per position under a seeded generator."""
    t_keep = rng.integers(0, n_teachers, size=n_tokens)
    return np.sort(t_keep * n_tokens + np.arange(n_tokens))


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


def box_loss_rows(pred: Tensor, target: np.ndarray,
                  l1_weight: float, giou_weight: float) -> Tensor:
    """Row-wise ``l1 * l1_weight + (1 - GIoU) * giou_weight`` of predicted
    (cx, cy, w, h) boxes against fixed targets, as an (n, 1) column and one
    tape op.

    The GIoU is :func:`matching.giou_terms` on row pairs. Its backward
    routes ties the way elementwise ``maximum``/``minimum`` with the
    prediction as first operand would (to the prediction), and passes
    intersection gradient only where the unclamped extent is positive; the
    l1 term's is the sign of the difference, zero where it is zero.
    """
    if pred.data.ndim != 2 or pred.shape[1] != 4:
        raise ShapeError("boxes must have four columns")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ShapeError(f"targets {target.shape} do not match predictions {pred.shape}")
    diff = pred.data - target
    pc = matching.box_cxcywh_to_corners(pred.data)
    tc = matching.box_cxcywh_to_corners(target)
    t = matching.giou_terms(pc, tc)
    out = np.abs(diff).sum(axis=1, keepdims=True) * l1_weight
    out += (1.0 - t.giou[:, None]) * giou_weight

    def vjp(g):
        g_l1 = g * l1_weight * np.sign(diff)
        g = -(g[:, 0] * giou_weight)  # the gradient reaching the GIoU
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
        return (g_l1 + np.concatenate([g_lo + g_hi, 0.5 * (g_hi - g_lo)], axis=1),)

    return T._from_op(out, (pred,), vjp)


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

    cross = T.tsum(T.mul(T.log_floor(student_dists), Tensor(t_dists)), axis=1)
    kl = T.sub(Tensor(matching.neg_entropy(t_dists)[:, None]), cross)
    box = box_loss_rows(student_boxes, t_boxes, weights.l1_weight, weights.giou_weight)
    per_slot = T.mul(Tensor(conf[:, None]),
                     T.add(T.scale(kl, weights.beta_kl), T.scale(box, weights.beta_box)))
    return T.tsum(per_slot)
