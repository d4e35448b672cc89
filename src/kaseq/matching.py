"""Box overlap, pairwise match costs, and optimal assignment.

Everything here is a pure function of numpy values: the matching decision is
not differentiated through (the losses rebuild their terms on the tape from
the chosen pairs). The assignment solver works on the rectangular m x K cost
matrix as given, in O(m^2 K), and never pads it to square.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError, InfeasibleError
from .tensor import LOG_FLOOR


def box_cxcywh_to_corners(b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    cx, cy, w, h = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def overlap_terms(corners_a: np.ndarray, corners_b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Intersection width and height (clamped at 0), intersection, union and
    IoU of (x0, y0, x1, y1) boxes ``corners_a`` and ``corners_b``, broadcast
    against each other over their leading axes."""
    ca, cb = np.asarray(corners_a, dtype=np.float64), np.asarray(corners_b, dtype=np.float64)
    iw = np.maximum(0.0, np.minimum(ca[..., 2], cb[..., 2]) - np.maximum(ca[..., 0], cb[..., 0]))
    ih = np.maximum(0.0, np.minimum(ca[..., 3], cb[..., 3]) - np.maximum(ca[..., 1], cb[..., 1]))
    inter = iw * ih
    area_a = (ca[..., 2] - ca[..., 0]) * (ca[..., 3] - ca[..., 1])
    area_b = (cb[..., 2] - cb[..., 0]) * (cb[..., 3] - cb[..., 1])
    union = area_a + area_b - inter
    return iw, ih, inter, union, inter / union


class GIoUTerms(NamedTuple):
    """IoU and generalized IoU of two sets of boxes, with the pieces they are
    made of (the gradient of the row-wise GIoU loss reads them)."""

    iw: np.ndarray         # intersection width and height, clamped at 0
    ih: np.ndarray
    ew: np.ndarray         # enclosure width and height
    eh: np.ndarray
    inter: np.ndarray
    union: np.ndarray
    enclosure: np.ndarray
    iou: np.ndarray
    giou: np.ndarray       # IoU minus the enclosure penalty


def giou_terms(corners_a: np.ndarray, corners_b: np.ndarray) -> GIoUTerms:
    """:func:`overlap_terms` of (x0, y0, x1, y1) boxes ``corners_a`` and
    ``corners_b`` with their enclosure and GIoU."""
    ca, cb = np.asarray(corners_a, dtype=np.float64), np.asarray(corners_b, dtype=np.float64)
    iw, ih, inter, union, iou = overlap_terms(ca, cb)
    ew = np.maximum(ca[..., 2], cb[..., 2]) - np.minimum(ca[..., 0], cb[..., 0])
    eh = np.maximum(ca[..., 3], cb[..., 3]) - np.minimum(ca[..., 1], cb[..., 1])
    enclosure = ew * eh
    return GIoUTerms(iw, ih, ew, eh, inter, union, enclosure, iou,
                     iou - (enclosure - union) / enclosure)


def pairwise_iou(corners_a: np.ndarray, corners_b: np.ndarray) -> np.ndarray:
    """IoU of every (a, b) pair of (x0, y0, x1, y1) boxes; rows index a,
    columns index b."""
    return overlap_terms(np.asarray(corners_a)[:, None, :], np.asarray(corners_b)[None, :, :])[-1]


def box_cost(boxes_a, boxes_b, l1_weight: float, giou_weight: float) -> np.ndarray:
    """(..., m, K) match cost l1 + (1 - GIoU) between (cx, cy, w, h) boxes
    ``boxes_a`` (..., m, 4) and ``boxes_b`` (..., K, 4)."""
    a = np.asarray(boxes_a, dtype=np.float64)[..., :, None, :]
    b = np.asarray(boxes_b, dtype=np.float64)[..., None, :, :]
    l1 = np.abs(a - b).sum(axis=-1)
    giou = giou_terms(box_cxcywh_to_corners(a), box_cxcywh_to_corners(b)).giou
    return l1_weight * l1 + giou_weight * (1.0 - giou)


def neg_entropy(p) -> np.ndarray:
    """sum p log p over the last axis, with 0 log 0 = 0: the term of
    KL(p || q) that a fixed target distribution p contributes alone."""
    p = np.asarray(p, dtype=np.float64)
    return np.where(p > 0, p * np.log(np.maximum(p, LOG_FLOOR)), 0.0).sum(axis=-1)


def build_cost_matrix(student_dists: np.ndarray, student_boxes: np.ndarray,
                      pool_dists: np.ndarray, pool_boxes: np.ndarray,
                      alpha_kl: float, alpha_box: float, alpha_conf: float,
                      l1_weight: float, giou_weight: float) -> np.ndarray:
    """Vectorized (m students) x (K pool) matrix of match costs, one per
    image when the inputs carry a leading batch axis ((B, m, .) against
    (B, K, .) gives (B, m, K))."""
    p = np.asarray(pool_dists, dtype=np.float64)
    q = np.maximum(np.asarray(student_dists, dtype=np.float64), LOG_FLOOR)
    kl = neg_entropy(p)[..., None, :] - np.log(q) @ np.swapaxes(p, -1, -2)  # (..., m, K)
    conf = p[..., :-1].max(axis=-1)
    return (alpha_kl * kl
            + alpha_box * box_cost(student_boxes, pool_boxes, l1_weight, giou_weight)
            - alpha_conf * conf[..., None, :])


def hungarian(cost) -> list[int]:
    """Minimum-cost injective assignment of every row to a distinct column.

    Solves the m x K problem (K >= m) as it stands, without padding it to
    square: one shortest augmenting path with potentials per row, O(m^2 K).
    Deterministic: scanning order breaks ties toward lower column indices.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ContractError("cost matrix must be a non-empty 2-D array")
    if not np.all(np.isfinite(cost)):
        raise ContractError("cost matrix entries must be finite")
    m, k = cost.shape
    if k < m:
        raise InfeasibleError(f"{m} rows cannot be injectively assigned to {k} columns")

    # 1-based rows and columns with a virtual column 0 that holds the row
    # being added; owner[j] is the row assigned to column j (0 when free).
    # Plain lists: at these sizes Python scalars beat numpy's per-call cost.
    rows = [None] + cost.tolist()
    u = [0.0] * (m + 1)
    v = [0.0] * (k + 1)
    owner = [0] * (k + 1)
    way = [0] * (k + 1)
    inf = float("inf")
    for i in range(1, m + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (k + 1)
        tree = [0]                       # columns on the search tree
        free = list(range(1, k + 1))     # the others, in ascending order
        while True:
            i0 = owner[j0]
            row = rows[i0]
            ui0 = u[i0]
            delta, j1 = inf, 0
            for j in free:
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
            for j in tree:
                u[owner[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if owner[j0] == 0:
                break
            free.remove(j0)
            tree.append(j0)
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1

    assignment = [-1] * m
    for j in range(1, k + 1):
        if owner[j]:
            assignment[owner[j] - 1] = j - 1
    return assignment
