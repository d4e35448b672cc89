"""Amalgamation losses, compression strategies, and prediction padding."""

import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kaseq import amalgamation as A
from kaseq import tensor as T
from kaseq import transformer as tf
from kaseq.data import TaskPartition
from kaseq.errors import ContractError, ShapeError
from kaseq.tensor import Tensor

from helpers import (apply_compression, assert_same_bits, box_cost, box_giou, channel_norm,
                     check_grad, compress_redundancy_per_image, confidence, frobenius_sq,
                     is_leaf, kl_divergence,
                     match_cost, pad_prediction, redundancy_per_image, sa_loss_composed,
                     sag_loss_composed, ta_loss_per_image, token_redundancy)
from helpers import box_loss_rows as composed_box_loss_rows

RNG = np.random.default_rng(31)


def random_dist(rng, arity):
    raw = rng.uniform(0.01, 1.0, size=arity)
    return raw / raw.sum()


def random_box(rng):
    w, h = rng.uniform(0.1, 0.4, size=2)
    return np.array([rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2), w, h])


class TestChannelNormalize:
    """SA normalizes each side's stacked mini-batch sequences with
    ``T.channel_norm_array``: the student inside ``sa_loss``, the teacher
    in ``concat_hint``, as a constant."""

    def test_batch_statistics(self):
        batch = [RNG.standard_normal((6, 5)) * 3 + 1 for _ in range(4)]
        normed = T.channel_norm_array(np.vstack(batch))[0]
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.var(axis=0), 1.0, atol=1e-5)

    def test_constant_channel_maps_to_zero(self):
        x = np.column_stack([np.full(8, 2.5), RNG.standard_normal(8)])
        out = T.channel_norm_array(x)[0]
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_matches_direct_mean_variance_oracle(self):
        batch = [RNG.standard_normal((4, 3)) for _ in range(3)]
        stacked = np.vstack(batch)
        mu = stacked.mean(axis=0)
        sd = stacked.std(axis=0)
        expected = (stacked - mu) / (sd + 1e-6)
        normed = A.concat_hint(stacked)
        np.testing.assert_array_equal(normed.data, expected)
        # the teacher side adds no node to the tape
        assert is_leaf(normed) and not normed.requires_grad


def sa_case(rng, rows, layers=4, d=5):
    """Raw student leaves and teacher arrays of ``layers`` supervised layers,
    with a constant column on each side (the sigma = 0 branch)."""
    students = [Tensor(rng.standard_normal((rows, d)) * 2 + 1, requires_grad=True)
                for _ in range(layers)]
    teachers = [rng.standard_normal((rows, d)) for _ in range(layers)]
    students[0].data[:, 1] = 0.75
    teachers[-1][:, 2] = -3.0
    return students, teachers


def sa(students, teachers, n_teachers: int) -> Tensor:
    """SA's loss: ``A.sa_loss`` with the concatenated teacher rows as hints."""
    return A.sa_loss(students, lambda l: A.concat_hint(teachers[l]), 1.0 / n_teachers)


class TestSALoss:
    def test_identical_layers_is_zero(self):
        layers = [Tensor(RNG.standard_normal((5, 4))) for _ in range(3)]
        assert sa(layers, [t.data for t in layers], n_teachers=2).item() == 0.0

    def test_opposite_columns_forced_value(self):
        # Each column is +-1 about its mean, so it normalizes to +-1/(1 + eps);
        # the teacher's opposite signs make every difference 2/(1 + eps).
        signs = np.array([1.0, -1.0, 1.0, -1.0])[:, None] * np.ones((1, 3))
        ys = Tensor(signs + np.array([3.0, -2.0, 0.5]))
        yt = 7.0 - signs
        expected = 12 * 4.0 / (1.0 + 1e-6) ** 2 / 2
        assert sa([ys], [yt], n_teachers=2).item() == pytest.approx(
            expected, rel=1e-12)

    def test_constant_columns_are_zero_after_normalization(self):
        # A constant column normalizes to exactly zero on either side.
        ys = Tensor(np.full((4, 2), 5.0))
        yt = np.array([[1.0, 2.0], [-1.0, 2.0], [1.0, 2.0], [-1.0, 2.0]])
        assert sa([ys], [yt], n_teachers=1).item() == pytest.approx(
            4 / (1.0 + 1e-6) ** 2, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sa([Tensor(np.zeros((3, 2)))], [np.zeros((2, 3))], 1)

    def test_no_layer_rejected(self):
        with pytest.raises(ContractError):
            sa([], [], 1)

    def test_gradient_matches_finite_differences(self):
        x1, x2 = RNG.standard_normal((5, 4)), RNG.standard_normal((5, 4))
        yt1, yt2 = RNG.standard_normal((5, 4)), RNG.standard_normal((5, 4))

        def loss(w):
            return sa([T.matmul(Tensor(x1), w), T.matmul(Tensor(x2), w)], [yt1, yt2],
                      n_teachers=2)

        check_grad(loss, RNG.standard_normal((4, 4)), tol=1e-4)

    def test_gradient_is_blind_to_column_shifts(self):
        # cn subtracts each column's mean, so the loss does not see a shift
        # of a student column and its gradient sums to zero down each column.
        students, teachers = sa_case(RNG, 12, layers=2)
        loss = sa(students, teachers, 2)
        loss.backward()
        for s in students:  # to rounding, which the constant column's 1/eps scales up
            assert np.all(np.abs(s.grad.sum(axis=0)) <= 1e-14 * (np.abs(s.grad).sum(axis=0) + 1))
        shifted = [Tensor(s.data + RNG.standard_normal((1, s.shape[1]))) for s in students]
        assert sa(shifted, teachers, 2).item() == pytest.approx(
            loss.item(), rel=1e-12)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("rows", [2 * 2 * 16, 2 * 16], ids=["uncompressed", "compressed"])
    def test_equals_the_composed_ops_byte_for_byte(self, monkeypatch, rows, cores):
        # The oracle: channel norms, sub, frobenius_sq, add and scale as
        # separate tape ops, at one share.
        monkeypatch.setattr(T, "_max_shares", None)
        monkeypatch.setattr(T, "core_count", lambda: 1)
        # Seeds whose layer terms sum to another value in another order.
        students, teachers = sa_case(np.random.default_rng({64: 4, 32: 10}[rows]), rows)
        want = sa_loss_composed(students, teachers, 2)
        want.backward()
        want_grads = [s.grad for s in students]
        for s in students:
            s.grad = None
        monkeypatch.setattr(T, "core_count", lambda: cores)
        caller, readers = threading.current_thread(), {}

        def hint_of(l):
            readers[l] = threading.current_thread()
            return A.concat_hint(teachers[l])

        with ThreadPoolExecutor(max_workers=2) as executor:
            submitted = []
            monkeypatch.setattr(T, "_share_pool", lambda: submitted.append(1) or executor)
            got = A.sa_loss(students, hint_of, 0.5)
            got.backward()
        assert got.data.tobytes() == want.data.tobytes()
        for s, g in zip(students, want_grads):
            assert s.grad.tobytes() == g.tobytes()
        # The four layers are dealt to min(4, cores) groups, each read in its group.
        assert len(submitted) == 2 * (cores - 1)  # the forward's groups and the backward's
        off_caller = {l for l, thread in readers.items() if thread is not caller}
        assert off_caller == {l for l in range(4) if l % cores}

    def test_more_groups_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # Six layers in six groups on five pool threads, switching threads
        # every microsecond: a term or gradient written to the wrong layer,
        # or lost, breaks the equality with the composed ops.
        monkeypatch.setattr(T, "_max_shares", None)
        monkeypatch.setattr(T, "core_count", lambda: 1)
        # A seed whose layer terms sum to another value in another order.
        students, teachers = sa_case(np.random.default_rng(0), 48, layers=6)
        want = sa_loss_composed(students, teachers, 3)
        want.backward()
        want_grads = [s.grad for s in students]
        runs = []

        def run():
            for _ in range(2):
                for s in students:
                    s.grad = None
                loss = sa(students, teachers, 3)
                loss.backward()
                runs.append((loss.data.tobytes(), [s.grad.tobytes() for s in students]))

        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(max_workers=5) as executor:
            monkeypatch.setattr(T, "_share_pool", lambda: executor)
            monkeypatch.setattr(T, "core_count", lambda: 6)
            sys.setswitchinterval(1e-6)
            try:
                runner = threading.Thread(target=run)
                runner.start()
                runner.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not runner.is_alive() and len(runs) == 2
        for loss, grads in runs:
            assert loss == want.data.tobytes()
            assert grads == [g.tobytes() for g in want_grads]


def sag(students, rows, w_a, images: int) -> Tensor:
    """The aggregation baseline's loss: ``A.sa_loss`` with ``A.aggregate_hint``."""
    return A.sa_loss(students, lambda l: A.aggregate_hint(rows[l], w_a[l], images), 1.0)


def sag_case(rng, images=2, teachers=2, tokens=8, layers=4, d=5):
    """Raw student leaves, teacher rows and projection leaves of ``layers``
    supervised layers, with a constant column in a student and a teacher."""
    students = [Tensor(rng.standard_normal((images * tokens, d)) * 2 + 1, requires_grad=True)
                for _ in range(layers)]
    rows = [rng.standard_normal((images * teachers * tokens, d)) for _ in range(layers)]
    w_a = [[Tensor(rng.standard_normal((d, d)), requires_grad=True) for _ in range(teachers)]
           for _ in range(layers)]
    students[0].data[:, 1] = 0.75
    rows[-1][:, 2] = -3.0
    return students, rows, w_a


class TestSAGLoss:
    def test_single_teacher_identity_projection_equals_sa(self):
        ys = Tensor(RNG.standard_normal((5, 3)))
        yt = RNG.standard_normal((5, 3))
        assert sag([ys], [yt], [[Tensor(np.eye(3))]], 1).item() == pytest.approx(
            sa([ys], [yt], n_teachers=1).item(), abs=1e-12)

    def test_zero_teachers_reduce_to_student_norm(self):
        ys = RNG.standard_normal((4, 3))
        out = sag([Tensor(ys)], [np.zeros((4, 3))], [[Tensor(RNG.standard_normal((3, 3)))]], 1)
        assert out.item() == pytest.approx(float(np.sum(T.channel_norm_array(ys)[0] ** 2)))

    def test_gradient_matches_finite_differences(self):
        x = RNG.standard_normal((5, 3))
        rows = np.vstack([RNG.standard_normal((5, 3)) for _ in range(2)])
        w_a = [Tensor(RNG.standard_normal((3, 3))) for _ in range(2)]

        def loss_w(w):
            return sag([T.matmul(Tensor(x), w)], [rows], [w_a], 1)

        check_grad(loss_w, RNG.standard_normal((3, 3)), tol=1e-4)

        def loss_wa(wa0):
            return sag([Tensor(x)], [rows], [[wa0, w_a[1]]], 1)

        check_grad(loss_wa, RNG.standard_normal((3, 3)), tol=1e-4)

    def test_error_gradient_form(self):
        # With the optimal projection the SAG gradient equals that of SA's
        # form against the hint it should hit; perturbing W_a by Delta shifts
        # it by exactly X^T cn'(2 cn(Y_t) Delta), linear in Delta.
        n, d = 6, 4
        x = RNG.standard_normal((n, d))
        y_t = RNG.standard_normal((n, d))
        w_opt = RNG.standard_normal((d, d))
        y_sa = T.channel_norm_array(y_t)[0] @ w_opt  # the hint the projection should hit

        def grad_of(loss_fn):
            w = Tensor(w_student.copy(), requires_grad=True)
            loss_fn(w).backward()
            return w.grad

        w_student = RNG.standard_normal((d, d))
        g_sa = grad_of(lambda w: frobenius_sq(T.sub(channel_norm(T.matmul(Tensor(x), w)),
                                                    Tensor(y_sa))))
        g_sag = grad_of(lambda w: sag([T.matmul(Tensor(x), w)], [y_t], [[Tensor(w_opt)]], 1))
        assert np.max(np.abs(g_sa - g_sag)) < 1e-10

        delta = RNG.standard_normal((d, d)) * 0.1
        g_pert = grad_of(lambda w: sag([T.matmul(Tensor(x), w)], [y_t],
                                       [[Tensor(w_opt - delta)]], 1))
        cn_vjp = T.channel_norm_array(x @ w_student)[1]
        analytic = x.T @ cn_vjp(2.0 * T.channel_norm_array(y_t)[0] @ delta)
        assert np.max(np.abs((g_pert - g_sag) - analytic)) < 1e-8

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_equals_the_composed_ops_byte_for_byte(self, monkeypatch, cores):
        # The oracle: channel norms, matmul, add, scale, sub, frobenius_sq and
        # add as separate tape ops, at one share.
        monkeypatch.setattr(T, "_max_shares", None)
        monkeypatch.setattr(T, "core_count", lambda: 1)
        # A seed whose layer terms sum to another value in another order.
        students, rows, w_a = sag_case(np.random.default_rng(0))
        leaves = students + [w for layer in w_a for w in layer]
        want = sag_loss_composed(students, rows, w_a, 2)
        want.backward()
        want_grads = [leaf.grad for leaf in leaves]
        for leaf in leaves:
            leaf.grad = None
        monkeypatch.setattr(T, "core_count", lambda: cores)
        caller, builders = threading.current_thread(), {}

        def hint_of(l):
            builders[l] = threading.current_thread()
            return A.aggregate_hint(rows[l], w_a[l], 2)

        with ThreadPoolExecutor(max_workers=2) as executor:
            monkeypatch.setattr(T, "_share_pool", lambda: executor)
            got = A.sa_loss(students, hint_of, 1.0)
            got.backward()
        assert got.data.tobytes() == want.data.tobytes()
        for leaf, g in zip(leaves, want_grads):
            assert leaf.grad.tobytes() == g.tobytes()
        off_caller = {l for l, thread in builders.items() if thread is not caller}
        assert off_caller == {l for l in range(4) if l % cores}

    def test_more_groups_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # As for SA: six layers in six groups on five pool threads, switching
        # threads every microsecond; a hint gradient handed to the wrong
        # layer, or lost, breaks the equality with the composed ops.
        monkeypatch.setattr(T, "_max_shares", None)
        monkeypatch.setattr(T, "core_count", lambda: 1)
        students, rows, w_a = sag_case(np.random.default_rng(0), teachers=3, layers=6)
        leaves = students + [w for layer in w_a for w in layer]
        want = sag_loss_composed(students, rows, w_a, 2)
        want.backward()
        want_grads = [leaf.grad.tobytes() for leaf in leaves]
        runs = []

        def run():
            for _ in range(2):
                for leaf in leaves:
                    leaf.grad = None
                loss = sag(students, rows, w_a, 2)
                loss.backward()
                runs.append((loss.data.tobytes(), [leaf.grad.tobytes() for leaf in leaves]))

        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(max_workers=5) as executor:
            monkeypatch.setattr(T, "_share_pool", lambda: executor)
            monkeypatch.setattr(T, "core_count", lambda: 6)
            sys.setswitchinterval(1e-6)
            try:
                runner = threading.Thread(target=run)
                runner.start()
                runner.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not runner.is_alive() and len(runs) == 2
        assert runs == [(want.data.tobytes(), want_grads)] * 2

    def test_constant_hints_stay_off_the_tape(self):
        # Only a hint that needs a gradient is a parent of the loss.
        students, teachers = sa_case(np.random.default_rng(8), 16, layers=2)
        assert sa(students, teachers, 2)._parents == tuple(students)
        students, rows, w_a = sag_case(np.random.default_rng(8), layers=2)
        loss = sag(students, rows, w_a, 2)
        assert loss._parents[:2] == tuple(students) and len(loss._parents) == 4

    @pytest.mark.parametrize("rows, w_shape", [
        ((2 * 2 * 8, 5), (5, 5)),    # the hint has other rows than the student
        ((2 * 2 * 7, 5), (5, 5)),    # the rows do not split over images and teachers
        ((2 * 2 * 8, 5), (5, 4)),    # W_a is not d x d
        ((2 * 2 * 8, 4), (4, 4))])   # the hint is narrower than the student
    def test_shape_errors(self, rows, w_shape):
        students = [Tensor(np.ones((2 * 4, 5)))]
        with pytest.raises(ShapeError):
            sag(students, [np.ones(rows)], [[Tensor(np.ones(w_shape))] * 2], 2)


class TestRedundancy:
    def test_identical_tokens_have_unit_redundancy(self):
        x = np.tile(RNG.standard_normal(4), (6, 1))
        r = A.redundancy_all(x, 1)
        np.testing.assert_allclose(r, 1.0, atol=1e-12)

    def test_two_orthogonal_tokens(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(A.redundancy_all(x, 1), [0.5, 0.5], atol=1e-12)

    def test_matches_similarity_matrix_oracle(self):
        x = RNG.standard_normal((5, 3))
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        s = unit @ unit.T
        for i in range(5):
            assert abs(token_redundancy(i, x) - s[i].mean()) < 1e-12

    def test_bounded_in_minus_one_one(self):
        x = RNG.standard_normal((30, 6))
        r = A.redundancy_all(x, 1)
        assert np.all(r >= -1.0 - 1e-12) and np.all(r <= 1.0 + 1e-12)


class TestCompression:
    def test_identical_vs_orthogonal_teachers(self):
        n, d = 4, 8
        u = np.zeros(d)
        u[0] = 1.0
        teacher1 = np.tile(u, (n, 1))
        teacher2 = np.eye(d)[1:n + 1]
        p_slim = A.compress_redundancy(np.vstack([teacher1, teacher2]), 2, n)
        np.testing.assert_array_equal(p_slim, [np.arange(n, 2 * n)])

    def test_contract_one_index_per_position(self):
        for _ in range(25):
            n_teachers = int(RNG.integers(1, 5))
            n = int(RNG.integers(2, 9))
            x = RNG.standard_normal((n_teachers * n, 5))
            (p_slim,) = A.compress_redundancy(x, n_teachers, n)
            assert p_slim.shape == (n,)
            np.testing.assert_array_equal(np.sort(p_slim % n), np.arange(n))

    def test_matches_per_position_argmin_oracle(self):
        for _ in range(30):
            n_teachers, n = 2, 4
            x = RNG.standard_normal((n_teachers * n, 3))
            unit = x / np.linalg.norm(x, axis=1, keepdims=True)
            r = (unit @ unit.T).mean(axis=1)
            expected = []
            for i in range(n):
                cands = [(r[t * n + i], t) for t in range(n_teachers)]
                best_t = min(cands)[1]
                expected.append(best_t * n + i)
            np.testing.assert_array_equal(A.compress_redundancy(x, n_teachers, n)[0],
                                          np.sort(expected))

    def test_permutation_consistency_of_teacher_order(self):
        def sources_by_position(p_slim, n):
            src = np.empty(n, dtype=int)
            src[p_slim % n] = p_slim // n
            return src

        n_teachers, n = 3, 5
        x = RNG.standard_normal((n_teachers * n, 4))
        base = sources_by_position(A.compress_redundancy(x, n_teachers, n)[0], n)
        order = np.array([2, 0, 1])  # new slot s holds original teacher order[s]
        shuffled = np.vstack([x[t * n:(t + 1) * n] for t in order])
        new = sources_by_position(A.compress_redundancy(shuffled, n_teachers, n)[0], n)
        np.testing.assert_array_equal(order[new], base)

    @pytest.mark.parametrize("images", [1, 16])
    def test_a_block_keeps_what_each_image_keeps(self, images):
        n_teachers, n, d = 3, 16, 8
        x = RNG.standard_normal((images * n_teachers * n, d))
        x[::7] = 0.0  # zero rows keep a zero unit row
        got = A.compress_redundancy(x, n_teachers, n)
        want = [compress_redundancy_per_image(block, n_teachers, n)
                for block in np.split(x, images)]
        assert got.shape == (images, n)
        assert_same_bits(got, np.array(want))
        per_image = [redundancy_per_image(block) for block in np.split(x, images)]
        assert_same_bits(A.redundancy_all(x, images), np.concatenate(per_image))

    @pytest.mark.parametrize("images", [1, 16])
    def test_exact_ties_go_to_the_lowest_teacher(self, images):
        # Tokens are scaled basis vectors and each image has 2 x 8 of them,
        # so every redundancy is an exact count / 16 and many positions tie.
        n_teachers, n, d = 2, 8, 3
        axes = RNG.integers(0, d, size=(images, n_teachers, n))
        x = np.zeros((images, n_teachers, n, d))
        scale = RNG.choice([0.5, 1.0, 4.0], size=axes.shape)
        np.put_along_axis(x, axes[..., None], scale[..., None], axis=3)
        got = A.compress_redundancy(x.reshape(-1, d), n_teachers, n)
        ties = 0
        for b in range(images):
            count = np.bincount(axes[b].ravel(), minlength=d)
            r = count[axes[b]]  # (teacher, position)
            want = [min(range(n_teachers), key=lambda t: (r[t, i], t)) * n + i for i in range(n)]
            np.testing.assert_array_equal(got[b], np.sort(want))
            ties += int((r[0] == r[1]).sum())
        assert ties > 0

    def test_rows_must_split_into_images(self):
        with pytest.raises(ShapeError):
            A.compress_redundancy(np.zeros((10, 3)), 2, 4)
        with pytest.raises(ShapeError):
            A.compress_redundancy(np.zeros((0, 3)), 2, 4)

    def test_isometric_alternation(self):
        p_slim = A.compress_isometric(2, 4)
        np.testing.assert_array_equal(p_slim, [0, 2, 5, 7])  # sources 1,2,1,2
        assert p_slim.shape == (4,)

    def test_random_is_seed_deterministic(self):
        a = A.compress_random(3, 6, np.random.default_rng(5))
        b = A.compress_random(3, 6, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (6,)

    def test_apply_identity(self):
        x = RNG.standard_normal((4, 3))
        np.testing.assert_array_equal(apply_compression(x, np.arange(4)), x)

    def test_apply_nested_reselection_idempotent(self):
        x = RNG.standard_normal((8, 3))
        outer = np.array([0, 2, 4, 6])
        once = apply_compression(x, outer)
        again = apply_compression(once, np.arange(4))
        np.testing.assert_array_equal(once, again)

    def test_apply_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            apply_compression(RNG.standard_normal((3, 2)), [0, 5])

    def test_selection_order_commutes_with_encoder(self):
        # Selecting rows in a different order permutes encoder outputs the
        # same way, so fixing ascending order loses nothing.
        layers = [tf.EncoderLayerParams.init(4, 2, 8, RNG)]
        x = RNG.standard_normal((8, 4))
        idx_sorted = np.array([1, 3, 4, 6])
        shuffle = np.array([2, 0, 3, 1])
        pos = np.zeros((4, 4))
        base = tf.encoder_forward(Tensor(apply_compression(x, idx_sorted)), layers, 1, pos)[0].data
        permuted = tf.encoder_forward(Tensor(x[idx_sorted[shuffle]]), layers, 1, pos)[0].data
        assert np.max(np.abs(permuted - base[shuffle])) < 1e-10


class TestPadPrediction:
    def test_forced_example(self):
        part = TaskPartition(((1, 2), (3, 4)), 4)
        out = pad_prediction(np.array([0.7, 0.2, 0.1]), part, 0)
        np.testing.assert_allclose(out, [0.7, 0.2, 0.0, 0.0, 0.1])

    def test_pure_background_stays_pure(self):
        part = TaskPartition.equal_split(8, 2)
        p = np.zeros(5)
        p[-1] = 1.0
        out = pad_prediction(p, part, 1)
        assert out[-1] == 1.0 and out[:-1].sum() == 0.0

    def test_sum_preserved(self):
        part = TaskPartition.equal_split(8, 4)
        for _ in range(100):
            p = random_dist(RNG, 3)
            t = int(RNG.integers(0, 4))
            assert abs(pad_prediction(p, part, t).sum() - 1.0) < 1e-12

    def test_confidence_preserved(self):
        part = TaskPartition.equal_split(8, 2)
        for _ in range(50):
            p = random_dist(RNG, 5)
            assert confidence(pad_prediction(p, part, 0)) == pytest.approx(
                confidence(p), abs=1e-12)

    def test_row_wise_matches_single(self):
        part = TaskPartition.equal_split(8, 2)
        dists = np.stack([random_dist(RNG, 5) for _ in range(6)])
        rows = A.pad_predictions(dists, part, 1)
        for i in range(6):
            np.testing.assert_allclose(rows[i], pad_prediction(dists[i], part, 1))


class TestBoxLossRows:
    def test_matches_scalar_giou(self):
        pred = np.stack([random_box(RNG) for _ in range(5)])
        target = np.stack([random_box(RNG) for _ in range(5)])
        giou_only = A.box_loss_rows(Tensor(pred), target, 0.0, 1.0)
        rows = A.box_loss_rows(Tensor(pred), target, 5.0, 2.0)
        for i in range(5):
            assert giou_only.data[i, 0] == pytest.approx(1.0 - box_giou(pred[i], target[i]),
                                                         abs=1e-12)
            assert rows.data[i, 0] == pytest.approx(box_cost(target[i], pred[i]), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        target = np.stack([random_box(RNG) for _ in range(4)])
        pred = np.stack([random_box(RNG) for _ in range(4)])
        check_grad(lambda b: T.tsum(A.box_loss_rows(b, target, 5.0, 2.0)), pred, tol=1e-4)


# Pairs of exactly representable (cx, cy, w, h) boxes on which min/max ties
# and zero-width overlaps occur; the one-op box loss must route their
# gradients as the composed elementwise ops do.
TIE_CASES = {
    "disjoint": ([0.25, 0.25, 0.25, 0.25], [0.75, 0.625, 0.25, 0.5]),
    "nested": ([0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.25, 0.125]),
    "identical": ([0.5, 0.5, 0.25, 0.5], [0.5, 0.5, 0.25, 0.5]),
    "edge_sharing": ([0.25, 0.5, 0.25, 0.25], [0.5, 0.5, 0.25, 0.25]),
    "corner_sharing": ([0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.25, 0.25]),
    "same_left_edge": ([0.375, 0.5, 0.25, 0.5], [0.5, 0.5, 0.5, 0.25]),
}

# (l1_weight, giou_weight): the default, the GIoU term alone, the l1 term alone
BOX_WEIGHTS = pytest.mark.parametrize("weights", [(5.0, 2.0), (0.0, 1.0), (1.0, 0.0)],
                                      ids=["default", "giou_only", "l1_only"])


class TestBoxLossOp:
    """``box_loss_rows`` is one tape op; the composed form in the helpers is
    its oracle."""

    @staticmethod
    def _value_and_grad(fn, pred, target, weights, coef):
        leaf = Tensor(pred.copy(), requires_grad=True)
        out = fn(leaf, target, *weights)
        T.tsum(T.mul(out, Tensor(coef))).backward()
        return out.data, leaf.grad

    def _assert_agrees(self, pred, target, weights):
        coef = RNG.uniform(0.5, 2.0, size=(pred.shape[0], 1))
        value, grad = self._value_and_grad(A.box_loss_rows, pred, target, weights, coef)
        want_value, want_grad = self._value_and_grad(composed_box_loss_rows, pred, target,
                                                     weights, coef)
        np.testing.assert_allclose(value, want_value, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_grad).max())

    @BOX_WEIGHTS
    def test_gradient_matches_finite_differences(self, weights):
        pred = np.stack([random_box(RNG) for _ in range(6)])
        target = np.stack([random_box(RNG) for _ in range(6)])
        coef = RNG.uniform(0.5, 2.0, size=(6, 1))
        check_grad(lambda b: T.tsum(T.mul(A.box_loss_rows(b, target, *weights), Tensor(coef))),
                   pred, tol=1e-7)

    @BOX_WEIGHTS
    def test_matches_composed_oracle_on_random_boxes(self, weights):
        pred = np.stack([random_box(RNG) for _ in range(64)])
        target = np.stack([random_box(RNG) for _ in range(64)])
        self._assert_agrees(pred, target, weights)

    @BOX_WEIGHTS
    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_matches_composed_oracle_where_ties_occur(self, case, weights):
        a, b = (np.asarray(x, dtype=np.float64) for x in TIE_CASES[case])
        # both operand orders: ties route to the prediction either way
        self._assert_agrees(np.stack([a, b]), np.stack([b, a]), weights)

    def test_one_tape_node_over_the_prediction(self):
        pred = Tensor(np.stack([random_box(RNG) for _ in range(3)]), requires_grad=True)
        out = A.box_loss_rows(pred, np.stack([random_box(RNG) for _ in range(3)]), 5.0, 2.0)
        assert out.shape == (3, 1) and out._parents == (pred,)

    def test_mismatched_targets_rejected(self):
        with pytest.raises(ShapeError):
            A.box_loss_rows(Tensor(np.zeros((2, 4))), np.zeros((3, 4)), 5.0, 2.0)


class TestTALoss:
    """Single-image cases of the batched loss: pools carry a batch axis of 1."""

    def _weights(self, **kw):
        return A.KAWeights(**kw)

    def test_exact_match_is_zero(self):
        m, c = 3, 4
        dists = np.stack([random_dist(RNG, c + 1) for _ in range(m)])
        dists[:, -1] = 0.0
        dists /= dists.sum(axis=1, keepdims=True)
        boxes = np.stack([random_box(RNG) for _ in range(m)])
        loss = A.ta_loss(Tensor(dists), Tensor(boxes), dists[None], boxes[None],
                         self._weights())
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_zero_confidence_target_contributes_nothing(self):
        c = 3
        strong = np.array([0.8, 0.1, 0.05, 0.05])
        background = np.array([0.0, 0.0, 0.0, 1.0])
        pool_dists = np.stack([strong, background])
        pool_boxes = np.stack([random_box(RNG), random_box(RNG)])
        s_dists = Tensor(np.stack([strong, random_dist(RNG, c + 1)]))
        s_boxes = Tensor(np.stack([pool_boxes[0], random_box(RNG)]))
        loss = A.ta_loss(s_dists, s_boxes, pool_dists[None], pool_boxes[None],
                         self._weights())
        # Slot 0 matches its identical target (zero term); slot 1 is forced
        # onto the pure-background target whose confidence weight is zero.
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force_hand_oracle(self):
        m, k, c = 2, 4, 4
        w = self._weights(beta_kl=1.3, beta_box=0.7, confidence_threshold=0.0)
        s_dists = np.stack([random_dist(RNG, c + 1) for _ in range(m)])
        s_boxes = np.stack([random_box(RNG) for _ in range(m)])
        pool_dists = np.stack([random_dist(RNG, c + 1) for _ in range(k)])
        pool_boxes = np.stack([random_box(RNG) for _ in range(k)])

        best_cost, best = np.inf, None
        for combo in itertools.permutations(range(k), m):
            total = sum(
                match_cost(pool_dists[j], pool_boxes[j], s_dists[i], s_boxes[i])
                for i, j in enumerate(combo))
            if total < best_cost:
                best_cost, best = total, combo
        expected = sum(
            confidence(pool_dists[j]) * (
                w.beta_kl * kl_divergence(pool_dists[j], s_dists[i])
                + w.beta_box * box_cost(pool_boxes[j], s_boxes[i]))
            for i, j in enumerate(best))

        got = A.ta_loss(Tensor(s_dists), Tensor(s_boxes), pool_dists[None], pool_boxes[None], w)
        assert got.item() == pytest.approx(expected, abs=1e-9)

    def test_invariant_to_pool_ordering(self):
        m, k, c = 3, 6, 4
        w = self._weights()
        s_dists = np.stack([random_dist(RNG, c + 1) for _ in range(m)])
        s_boxes = np.stack([random_box(RNG) for _ in range(m)])
        pool_dists = np.stack([random_dist(RNG, c + 1) for _ in range(k)])
        pool_boxes = np.stack([random_box(RNG) for _ in range(k)])
        base = A.ta_loss(Tensor(s_dists), Tensor(s_boxes),
                         pool_dists[None], pool_boxes[None], w).item()
        for _ in range(10):
            perm = RNG.permutation(k)
            shuffled = A.ta_loss(Tensor(s_dists), Tensor(s_boxes),
                                 pool_dists[perm][None], pool_boxes[perm][None], w).item()
            assert shuffled == pytest.approx(base, abs=1e-9)

    def test_empty_pool_rejected(self):
        with pytest.raises(ContractError):
            A.ta_loss(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))),
                      np.zeros((1, 0, 3)), np.zeros((1, 0, 4)), self._weights())

    def test_gradient_flows_to_student(self):
        m, c = 2, 4
        pool_dists = np.stack([random_dist(RNG, c + 1) for _ in range(4)])
        pool_boxes = np.stack([random_box(RNG) for _ in range(4)])
        logits = RNG.standard_normal((m, c + 1))
        raw = RNG.standard_normal((m, 4))

        def loss(lg):
            dists = T.softmax_rows(lg)
            boxes = T.sigmoid(Tensor(raw))
            return A.ta_loss(dists, boxes, pool_dists[None], pool_boxes[None], self._weights())

        check_grad(loss, logits, tol=1e-4)


def random_pools(rng, batch, k, c):
    dists = rng.dirichlet(np.full(c + 1, 0.5), size=(batch, k))
    boxes = np.stack([[random_box(rng) for _ in range(k)] for _ in range(batch)])
    return dists, boxes


class TestBatchedTALoss:
    """One ``ta_loss`` call over B images equals the per-image oracle summed."""

    def test_value_and_gradients_equal_per_image_oracle_sum(self):
        batch, m, k, c = 3, 4, 9, 5
        w = A.KAWeights(beta_kl=1.3, beta_box=0.7)
        pool_dists, pool_boxes = random_pools(RNG, batch, k, c)
        # image 0: two confident entries, fewer than m, so the top-m
        # fallback keeps m of them; image 1 keeps only its confident ones
        pool_dists[0] = np.append(np.full(c, 0.02), 1.0 - 0.02 * c)
        pool_dists[0, :2] = random_dist(RNG, c + 1) * 0.5 + np.eye(c + 1)[0] * 0.5
        kept = [A.filter_pool(pool_dists[b], w.confidence_threshold, m) for b in range(batch)]
        confident = [(pool_dists[b, :, :-1].max(axis=1) >= w.confidence_threshold).sum()
                     for b in range(batch)]
        assert confident[0] < m == len(kept[0])
        assert confident[1] >= m and len(kept[1]) != len(kept[0])

        s_dists = np.stack([random_dist(RNG, c + 1) for _ in range(batch * m)])
        s_boxes = np.stack([random_box(RNG) for _ in range(batch * m)])
        d_leaf = Tensor(s_dists, requires_grad=True)
        b_leaf = Tensor(s_boxes, requires_grad=True)
        got = A.ta_loss(d_leaf, b_leaf, pool_dists, pool_boxes, w)
        got.backward()

        want, want_d, want_b = 0.0, np.zeros_like(s_dists), np.zeros_like(s_boxes)
        for b in range(batch):
            rows = slice(b * m, (b + 1) * m)
            d_b = Tensor(s_dists[rows], requires_grad=True)
            b_b = Tensor(s_boxes[rows], requires_grad=True)
            loss, _ = ta_loss_per_image(d_b, b_b, pool_dists[b], pool_boxes[b], w)
            loss.backward()
            want += loss.item()
            want_d[rows], want_b[rows] = d_b.grad, b_b.grad
        assert got.item() == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(d_leaf.grad, want_d, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_d).max())
        np.testing.assert_allclose(b_leaf.grad, want_b, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_b).max())

    def test_assignments_equal_oracle_on_workload_shaped_pools(self):
        batch, m, k, c = 16, 16, 32, 8
        rng = np.random.default_rng(7)
        w = A.KAWeights()
        pool_dists, pool_boxes = random_pools(rng, batch, k, c)
        s_dists = rng.dirichlet(np.ones(c + 1), size=batch * m)
        s_boxes = np.stack([random_box(rng) for _ in range(batch * m)])
        got = A.ta_assignment(s_dists, s_boxes, pool_dists, pool_boxes, w)
        for b in range(batch):
            rows = slice(b * m, (b + 1) * m)
            _, chosen = ta_loss_per_image(Tensor(s_dists[rows]), Tensor(s_boxes[rows]),
                                          pool_dists[b], pool_boxes[b], w)
            np.testing.assert_array_equal(got[rows], chosen + b * k)

    def test_student_rows_must_split_over_the_images(self):
        pool_dists, pool_boxes = random_pools(RNG, 2, 4, 3)
        with pytest.raises(ShapeError):
            A.ta_loss(Tensor(np.full((3, 4), 0.25)), Tensor(np.full((3, 4), 0.5)),
                      pool_dists, pool_boxes, A.KAWeights())


class TestKAWeights:
    def test_default_weights(self):
        w = A.KAWeights()
        assert (w.lambda_seq, w.lambda_task, w.lambda_direct) == (1.0, 1.0, 0.1)
