"""Box geometry, divergences, match cost, and Hungarian assignment.

The scalar formulas come from ``helpers`` and pin the batched cost matrix."""

import itertools

import numpy as np
import pytest

from kaseq import matching as M
from kaseq.errors import ContractError, InfeasibleError

from helpers import (assignment_cost, box_cost, box_giou, box_l1, confidence,
                     kl_divergence, match_cost, padded_hungarian)

RNG = np.random.default_rng(11)


def random_box(rng):
    w, h = rng.uniform(0.05, 0.5, size=2)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return np.array([cx, cy, w, h])


def random_dist(rng, arity):
    raw = rng.uniform(0.01, 1.0, size=arity)
    return raw / raw.sum()


def corner_giou_oracle(b1, b2):
    """Independent re-derivation in corner coordinates, all scalar math."""
    def corners(b):
        cx, cy, w, h = b
        return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2

    ax0, ay0, ax1, ay1 = corners(b1)
    bx0, by0, bx1, by1 = corners(b2)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    inter = max(0.0, iw) * max(0.0, ih)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    enc = (max(ax1, bx1) - min(ax0, bx0)) * (max(ay1, by1) - min(ay0, by0))
    return inter / union - (enc - union) / enc


def brute_force_assignment(cost):
    m, k = cost.shape
    best_cost, best = np.inf, None
    for combo in itertools.permutations(range(k), m):
        total = sum(cost[i, j] for i, j in enumerate(combo))
        if total < best_cost:
            best_cost, best = total, combo
    return best_cost, best


class TestBoxes:
    def test_identical_boxes(self):
        b = np.array([0.5, 0.5, 0.2, 0.3])
        assert box_l1(b, b) == 0.0
        assert box_giou(b, b) == pytest.approx(1.0)

    def test_disjoint_corner_boxes_closed_form(self):
        # (0,0)-(1,1) vs (2,2)-(3,3): IoU 0, union 2, enclosure 9.
        b1 = np.array([0.5, 0.5, 1.0, 1.0])
        b2 = np.array([2.5, 2.5, 1.0, 1.0])
        assert box_giou(b1, b2) == pytest.approx(-7.0 / 9.0, abs=1e-12)

    def test_random_pairs_match_corner_rederivation(self):
        for _ in range(200):
            b1, b2 = random_box(RNG), random_box(RNG)
            assert abs(box_giou(b1, b2) - corner_giou_oracle(b1, b2)) < 1e-12

    def test_giou_never_exceeds_iou_bound(self):
        for _ in range(200):
            b1, b2 = random_box(RNG), random_box(RNG)
            assert -1.0 < box_giou(b1, b2) <= 1.0 + 1e-12

    def test_degenerate_box_rejected(self):
        with pytest.raises(ContractError):
            box_l1([0.5, 0.5, 0.0, 0.1], [0.5, 0.5, 0.1, 0.1])
        with pytest.raises(ContractError):
            box_giou([0.5, 0.5, 0.1, -0.1], [0.5, 0.5, 0.1, 0.1])


def corner_iou_oracle(a, b):
    """IoU of two (x0, y0, x1, y1) boxes, all scalar math."""
    inter = (max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
             * max(0.0, min(a[3], b[3]) - max(a[1], b[1])))
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


class TestPairwiseIoU:
    @pytest.mark.parametrize("m, k", [(1, 1), (3, 5), (6, 2), (0, 4), (4, 0)])
    def test_every_pair_matches_the_scalar_oracle(self, m, k):
        a = M.box_cxcywh_to_corners(np.array([random_box(RNG) for _ in range(m)]).reshape(m, 4))
        b = M.box_cxcywh_to_corners(np.array([random_box(RNG) for _ in range(k)]).reshape(k, 4))
        iou = M.pairwise_iou(a, b)
        assert iou.shape == (m, k)
        for i in range(m):
            for j in range(k):
                assert abs(iou[i, j] - corner_iou_oracle(a[i], b[j])) < 1e-12

    def test_identical_boxes_one_disjoint_boxes_zero(self):
        a = np.array([[0.0, 0.0, 0.5, 0.5], [0.1, 0.2, 0.3, 0.9]])
        b = np.array([[0.1, 0.2, 0.3, 0.9], [0.6, 0.6, 1.0, 1.0]])
        iou = M.pairwise_iou(a, b)
        assert iou[1, 0] == 1.0 and iou[0, 1] == 0.0 and iou[1, 1] == 0.0


class TestOverlapTerms:
    def test_iou_is_byte_equal_to_the_giou_terms(self):
        # Random pairs, a shared edge, a shared corner, a contained box and
        # a zero-area one, broadcast as pairwise_iou broadcasts them.
        a = M.box_cxcywh_to_corners(np.array([random_box(RNG) for _ in range(7)]))
        b = M.box_cxcywh_to_corners(np.array([random_box(RNG) for _ in range(5)]))
        a[0], b[0] = [0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 1.0, 0.5]
        a[1], b[1] = [0.0, 0.0, 0.5, 0.5], [0.5, 0.5, 0.6, 0.6]
        a[2], b[2] = [0.1, 0.1, 0.9, 0.9], [0.2, 0.3, 0.4, 0.5]
        a[3] = [0.3, 0.3, 0.3, 0.7]
        pairs = (a[:, None, :], b[None, :, :])
        iw, ih, inter, union, iou = M.overlap_terms(*pairs)
        terms = M.giou_terms(*pairs)
        for got, want in ((iw, terms.iw), (ih, terms.ih), (inter, terms.inter),
                          (union, terms.union), (iou, terms.iou)):
            assert got.tobytes() == want.tobytes()
        assert M.pairwise_iou(a, b).tobytes() == terms.iou.tobytes()


class TestKL:
    def test_identical_distributions(self):
        p = random_dist(RNG, 5)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_forced_ln2(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_random_pairs_match_direct_sum(self):
        for _ in range(200):
            p = random_dist(RNG, 6)
            q = random_dist(RNG, 6)
            direct = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)
            assert abs(kl_divergence(p, q) - direct) < 1e-12

    def test_nonnegative_with_zero_only_at_equality(self):
        for _ in range(200):
            p = random_dist(RNG, 4)
            q = random_dist(RNG, 4)
            assert kl_divergence(p, q) >= 0.0

    def test_padded_zeros_contribute_nothing(self):
        p = np.array([0.6, 0.0, 0.0, 0.4])
        q = random_dist(RNG, 4)
        expected = 0.6 * np.log(0.6 / q[0]) + 0.4 * np.log(0.4 / q[3])
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractError):
            kl_divergence([0.5, 0.4], [0.5, 0.5])


class TestConfidence:
    def test_pure_background(self):
        assert confidence([0.0, 0.0, 1.0]) == 0.0

    def test_forced_max(self):
        assert confidence([0.7, 0.2, 0.1]) == pytest.approx(0.7)

    def test_uniform_foreground(self):
        assert confidence([0.2, 0.2, 0.2, 0.2, 0.2]) == pytest.approx(0.2)


class TestMatchCost:
    def test_identical_detection_reduces_to_negative_confidence(self):
        box = random_box(RNG)
        dist = random_dist(RNG, 5)
        cost = match_cost(dist, box, dist, box)
        assert cost == pytest.approx(-confidence(dist), abs=1e-9)

    def test_pure_background_teacher_drops_confidence_term(self):
        box1, box2 = random_box(RNG), random_box(RNG)
        t = np.zeros(4)
        t[-1] = 1.0
        s = random_dist(RNG, 4)
        expected = kl_divergence(t, s) + box_cost(box1, box2)
        assert match_cost(t, box1, s, box2) == pytest.approx(expected, abs=1e-12)

    def test_term_by_term_composition(self):
        t_dist, s_dist = random_dist(RNG, 6), random_dist(RNG, 6)
        t_box, s_box = random_box(RNG), random_box(RNG)
        expected = (2.0 * kl_divergence(t_dist, s_dist)
                    + 0.5 * (5.0 * box_l1(t_box, s_box)
                             + 2.0 * (1.0 - box_giou(t_box, s_box)))
                    - 3.0 * confidence(t_dist))
        got = match_cost(t_dist, t_box, s_dist, s_box,
                           alpha_kl=2.0, alpha_box=0.5, alpha_conf=3.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_cost_matrix_matches_scalar_function(self):
        m, k = 3, 5
        sd = np.stack([random_dist(RNG, 5) for _ in range(m)])
        sb = np.stack([random_box(RNG) for _ in range(m)])
        pd = np.stack([random_dist(RNG, 5) for _ in range(k)])
        pb = np.stack([random_box(RNG) for _ in range(k)])
        mat = M.build_cost_matrix(sd, sb, pd, pb, 1.0, 1.0, 1.0, 5.0, 2.0)
        for i in range(m):
            for j in range(k):
                assert mat[i, j] == pytest.approx(
                    match_cost(pd[j], pb[j], sd[i], sb[i]), abs=1e-9)


    def test_batched_cost_matrices_equal_per_image_calls(self):
        batch, m, k = 3, 4, 6
        sd = np.stack([[random_dist(RNG, 5) for _ in range(m)] for _ in range(batch)])
        sb = np.stack([[random_box(RNG) for _ in range(m)] for _ in range(batch)])
        pd = np.stack([[random_dist(RNG, 5) for _ in range(k)] for _ in range(batch)])
        pb = np.stack([[random_box(RNG) for _ in range(k)] for _ in range(batch)])
        weights = (2.0, 1.0, 0.5, 5.0, 2.0)  # alpha_kl, alpha_box, alpha_conf, l1, giou
        mats = M.build_cost_matrix(sd, sb, pd, pb, *weights)
        assert mats.shape == (batch, m, k)
        for b in range(batch):
            np.testing.assert_allclose(
                mats[b], M.build_cost_matrix(sd[b], sb[b], pd[b], pb[b], *weights),
                rtol=1e-14, atol=1e-14)


class TestHungarian:
    def test_diagonal_zero_identity(self):
        cost = np.ones((3, 3)) - np.eye(3)
        assert M.hungarian(cost) == [0, 1, 2]
        assert assignment_cost(cost, [0, 1, 2]) == 0.0

    def test_single_cell(self):
        assert M.hungarian(np.array([[3.7]])) == [0]

    def test_rectangular_matches_brute_force(self):
        cost = RNG.integers(0, 64, size=(4, 7)) / 64.0
        best_cost, _ = brute_force_assignment(cost)
        got = M.hungarian(cost)
        assert sorted(set(got)) == sorted(got)  # injective
        assert assignment_cost(cost, got) == best_cost

    def test_thousand_random_instances_match_brute_force(self):
        rng = np.random.default_rng(991)
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            k = int(rng.integers(m, 9))
            cost = rng.integers(-32, 96, size=(m, k)) / 64.0  # dyadic: exact sums
            best_cost, _ = brute_force_assignment(cost)
            got = M.hungarian(cost)
            assert len(set(got)) == m
            assert assignment_cost(cost, got) == best_cost

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cost = rng.standard_normal((4, 6))
            base = M.hungarian(cost)
            shifted = M.hungarian(cost + 17.25)
            assert base == shifted
            assert (assignment_cost(cost + 17.25, shifted)
                    == pytest.approx(assignment_cost(cost, base) + 4 * 17.25))

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            M.hungarian(np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            M.hungarian(np.array([[np.inf, 1.0]]))


class TestHungarianAgainstPaddedSolver:
    """The rectangular solver gives the square-padded solver's assignments,
    ties included."""

    def test_workload_shaped_float_matrices(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            cost = rng.standard_normal((16, 32))  # task-level: m x (teachers * m)
            assert M.hungarian(cost) == padded_hungarian(cost)
            g = int(rng.integers(1, 17))
            cost = rng.uniform(-1.0, 8.0, size=(g, 16))  # ground truth: g x m
            assert M.hungarian(cost) == padded_hungarian(cost)

    def test_few_rows_many_columns(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            cost = rng.standard_normal((5, 100))
            assert M.hungarian(cost) == padded_hungarian(cost)

    def test_tie_heavy_integer_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(m, 13))
            cost = rng.integers(0, 3, size=(m, k)).astype(np.float64)
            assert M.hungarian(cost) == padded_hungarian(cost)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 9), (16, 32), (5, 100)])
    def test_all_zero_matrix_takes_leading_columns(self, shape):
        cost = np.zeros(shape)
        assert M.hungarian(cost) == list(range(shape[0]))
        assert padded_hungarian(cost) == list(range(shape[0]))
