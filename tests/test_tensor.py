"""Tensor core: forward semantics, tape behavior, and gradient checks."""

import numpy as np
import pytest

from kaseq import tensor as T
from kaseq.errors import ContractError, ShapeError
from kaseq.tensor import Tensor

from helpers import (add_row, assert_same_bits, channel_norm, check_grad, clamp_min, div,
                     frobenius_sq, layer_norm_reference, log, matmul_add_composed, maximum,
                     minimum, mlp_composed, relu_reference, sigmoid_reference, slice_cols,
                     slice_rows, SPECIAL_VALUES, special_values, tabs, is_leaf)

RNG = np.random.default_rng(20240811)


def rand(*shape, away_from=None, margin=0.05):
    x = RNG.standard_normal(shape)
    if away_from is not None:
        near = np.abs(x - away_from) < margin
        x = np.where(near, x + 4 * margin * np.sign(x - away_from + 1e-9), x)
    return x


class TestForwardSemantics:
    def test_matmul_identity(self):
        m = rand(3, 3)
        out = T.matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_matmul_forced(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(rand(2, 3)), Tensor(rand(2, 3)))

    def test_softmax_symmetry(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_softmax_masked_entry_is_exact_zero(self):
        out = T.softmax_rows(Tensor([[0.0, -np.inf]]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_softmax_against_direct_formula(self):
        x = rand(3, 4)
        expected = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        out = T.softmax_rows(Tensor(x))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        x = rand(6, 5)
        s = T.softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        shifted = T.softmax_rows(Tensor(x + RNG.standard_normal((6, 1)))).data
        np.testing.assert_allclose(s, shifted, atol=1e-12)

    def test_frobenius_zero_and_ones(self):
        assert frobenius_sq(Tensor(np.zeros((3, 3)))).item() == 0.0
        assert frobenius_sq(Tensor(np.ones((2, 3)))).item() == 6.0

    def test_concat_slice_seam_identity(self):
        # With one block, interleave_rows is the concatenation of its parts.
        a, b = rand(3, 4), rand(3, 4)
        cat = T.interleave_rows([Tensor(a), Tensor(b)], 1)
        np.testing.assert_array_equal(slice_rows(cat, 0, 3).data, a)
        np.testing.assert_array_equal(slice_rows(cat, 3, 6).data, b)

    def test_channel_norm_constant_column_maps_to_zero(self):
        x = np.column_stack([np.full(7, 3.25), rand(7)])
        out = T.channel_norm_array(x)[0]
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_permute_rows_roundtrip(self):
        x = rand(6, 3)
        perm = RNG.permutation(6)
        inv = np.argsort(perm)
        out = T.gather_rows(T.gather_rows(Tensor(x), perm), inv)
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("a, b", [((5, 3), (1, 3)), ((1, 3), (5, 3)), ((4, 3), (3, 4)),
                                      ((3,), (1, 3)), ((2, 3), (2, 1))])
    def test_elementwise_ops_take_equal_shapes_only(self, op, a, b):
        with pytest.raises(ShapeError):
            op(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    @pytest.mark.parametrize("op, forward, vjp", [
        (T.add, np.add, lambda g, a, b: (g, g)),
        (T.sub, np.subtract, lambda g, a, b: (g, -g)),
        (T.mul, np.multiply, lambda g, a, b: (g * b, g * a))], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("shape", [(1, 3), (5, 3), (4, 1)])
    def test_elementwise_ops_on_equal_shapes_are_exact(self, op, forward, vjp, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        a, b, g = (special_values(rng, shape) for _ in range(3))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = op(ta, tb)
        assert_same_bits(out.data, forward(a, b))
        T.backward_seeded([out], [g])
        want_a, want_b = vjp(g, a, b)
        assert_same_bits(ta.grad, want_a)
        assert_same_bits(tb.grad, want_b)


class TestInterleaveRows:
    """interleave_rows against the concatenation and row permutation it
    replaces, ``np.concatenate(parts)[perm]`` and its inverse, byte for byte."""

    @staticmethod
    def perm(parts: int, blocks: int, rows: int) -> np.ndarray:
        # Output row (block j, part t, row i) reads concatenated row
        # t * rows + j * (rows // blocks) + i.
        src = np.arange(parts * rows).reshape(parts, blocks, rows // blocks)
        return src.transpose(1, 0, 2).reshape(-1)

    @pytest.mark.parametrize("parts, blocks, rows",
                             [(1, 1, 4), (1, 3, 6), (2, 1, 5), (2, 3, 6), (3, 4, 8),
                              (1, 8, 8), (2, 8, 16), (3, 2, 4)])
    def test_forward_and_backward_match_the_permuted_concatenation(self, parts, blocks, rows):
        rng = np.random.default_rng(100 * parts + 10 * blocks + rows)
        arrays = [special_values(rng, (rows, 5)) for _ in range(parts)]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.interleave_rows(leaves, blocks)
        parents = out._parents  # the walk releases them
        perm = self.perm(parts, blocks, rows)
        assert_same_bits(out.data, np.concatenate(arrays)[perm])
        g = special_values(rng, out.shape)
        T.backward_seeded([out], [g])
        back = g[np.argsort(perm)]
        for t, leaf in enumerate(leaves):
            assert_same_bits(leaf.grad, back[t * rows:(t + 1) * rows])
        assert len(parents) == parts

    def test_a_frozen_part_gets_no_gradient_and_nothing_is_kept(self):
        a, b = Tensor(rand(4, 3), requires_grad=True), Tensor(rand(4, 3))
        out = T.interleave_rows([a, b], 2)
        closure = out._vjp.__closure__  # the walk releases it
        T.backward_seeded([out], [np.ones(out.shape)])
        assert b.grad is None and np.array_equal(a.grad, np.ones((4, 3)))
        assert not [c for c in closure if isinstance(c.cell_contents, np.ndarray)]

    @pytest.mark.parametrize("shapes, blocks", [
        ([], 1), ([(4, 3), (4, 2)], 2), ([(4, 3), (2, 3)], 2), ([(4, 3)], 3),
        ([(4, 3)], 0), ([(4,)], 1), ([(2, 2, 3)], 1)])
    def test_shapes(self, shapes, blocks):
        with pytest.raises(ShapeError):
            T.interleave_rows([Tensor(np.zeros(s)) for s in shapes], blocks)


class TestTape:
    def test_sum_gradient_is_ones(self):
        w = Tensor(rand(3, 4), requires_grad=True)
        T.tsum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_frobenius_residual_gradient(self):
        w = Tensor(rand(4, 3), requires_grad=True)
        target = Tensor(rand(4, 3))
        frobenius_sq(T.sub(w, target)).backward()
        np.testing.assert_allclose(w.grad, 2.0 * (w.data - target.data), atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(ContractError):
            T.add(w, w).backward()

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ContractError):
            T.tsum(Tensor(rand(2, 2))).backward()

    def test_repeated_backward_accumulates(self):
        w = Tensor(rand(2, 2), requires_grad=True)
        T.tsum(w).backward()
        first = w.grad.copy()
        T.tsum(w).backward()
        np.testing.assert_array_equal(w.grad, 2 * first)

    def test_a_walk_releases_its_graph_and_a_second_one_is_rejected(self):
        w = Tensor(rand(2, 3), requires_grad=True)
        y = T.relu(T.mul(w, w))
        loss = T.tsum(y)
        reached = T._topo_order(loss)
        loss.backward()
        first = w.grad.copy()
        assert not [node for node in reached if node._parents] and is_leaf(w)
        with pytest.raises(ContractError, match="second backward"):
            loss.backward()
        with pytest.raises(ContractError, match="second backward"):
            T.tsum(T.scale(y, 2.0)).backward()  # a new loss on a walked intermediate
        np.testing.assert_array_equal(w.grad, first)

    def test_shared_subexpression_counted_once_per_use(self):
        w = Tensor(rand(2, 2), requires_grad=True)
        y = T.add(w, w)
        T.tsum(y).backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones((2, 2)))

    def test_composite_mlp_loss_matches_finite_differences(self):
        x = rand(5, 4)
        w2 = rand(6, 3)
        bias = rand(1, 6)
        target = rand(5, 3)

        def loss(w1):
            h = T.relu(add_row(T.matmul(Tensor(x), w1), Tensor(bias)))
            out = T.matmul(h, Tensor(w2))
            return frobenius_sq(T.sub(out, Tensor(target)))

        err = check_grad(loss, rand(4, 6, away_from=0.0), h=1e-5, tol=1e-4)
        assert err < 1e-4


class TestSeededBackward:
    """``backward_seeded(roots, seeds)`` against single-root walks of the
    scalar sum_i <seeds[i], roots[i]>, one root at a time."""

    def graph(self):
        """The same graph on each call: leaves (w, v) and roots (low, high,
        side), where ``high`` lies above ``low`` and ``side`` above neither."""
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        low = T.matmul(w, v)
        high = T.sigmoid(T.matmul(T.relu(low), Tensor(rng.standard_normal((2, 2)))))
        side = T.tsum(T.mul(w, w), axis=0)
        return (w, v), (low, high, side)

    def single_root_sum(self, pick, seeds):
        total = None
        for i, seed in enumerate(seeds):
            if seed is None:
                continue
            leaves, roots = self.graph()
            T.backward(T.tsum(T.mul(roots[pick[i]], Tensor(seed))))
            grads = [np.zeros(leaf.shape) if leaf.grad is None else leaf.grad
                     for leaf in leaves]
            total = grads if total is None else [a + b for a, b in zip(total, grads)]
        return total

    @pytest.mark.parametrize("pick", [(0,), (1, 2), (0, 1), (1, 0, 2), (0, 0)],
                             ids=["one", "disjoint", "below", "all", "repeated"])
    def test_equals_the_sum_of_single_root_walks(self, pick):
        seeds = [rand(*self.graph()[1][i].shape) for i in pick]
        leaves, roots = self.graph()
        T.backward_seeded([roots[i] for i in pick], seeds)
        for got, want in zip(leaves, self.single_root_sum(pick, seeds)):
            np.testing.assert_allclose(got.grad, want, rtol=1e-12, atol=1e-12)

    def test_a_root_seeded_none_adds_nothing(self):
        seeds = [None, rand(3, 2), rand(1, 4)]
        leaves, roots = self.graph()
        T.backward_seeded(roots, seeds)
        for got, want in zip(leaves, self.single_root_sum((0, 1, 2), seeds)):
            np.testing.assert_allclose(got.grad, want, rtol=1e-12, atol=1e-12)
        leaves, roots = self.graph()
        T.backward_seeded(roots, [None, None, None])
        assert all(leaf.grad is None for leaf in leaves)

    def test_a_scalar_root_seeded_one_is_backward(self):
        leaves, (low, _, _) = self.graph()
        T.backward_seeded([T.tsum(low)], [np.ones(())])
        seeded = [leaf.grad.copy() for leaf in leaves]
        leaves, (low, _, _) = self.graph()  # each graph is walked once
        T.backward(T.tsum(low))
        for leaf, want in zip(leaves, seeded):
            np.testing.assert_array_equal(leaf.grad, want)

    def test_contracts(self):
        _, (low, high, _) = self.graph()
        with pytest.raises(ShapeError):
            T.backward_seeded([low], [np.ones((2, 3))])
        with pytest.raises(ContractError):
            T.backward_seeded([low, high], [np.ones(low.shape)])
        with pytest.raises(ContractError):
            T.backward_seeded([Tensor(rand(2, 2))], [np.ones((2, 2))])
        with pytest.raises(ContractError, match="scalar"):
            T.backward(low)
        with pytest.raises(ContractError, match="tape"):
            T.backward(T.tsum(Tensor(rand(2, 2))))


def _c(*shape):
    """A fixed random weighting so test losses have generic gradients."""
    return Tensor(RNG.standard_normal(shape))


FUSED_RNG = np.random.default_rng(3)  # its own stream, so the cases above keep theirs


def fused_rand(*shape):
    return FUSED_RNG.standard_normal(shape)


def _cf(*shape):
    return Tensor(fused_rand(*shape))


MLP_ARGS = {"x": Tensor(fused_rand(5, 4)), "w1": Tensor(fused_rand(4, 6)),
            "b1": Tensor(fused_rand(1, 6)), "w2": Tensor(fused_rand(6, 3)),
            "b2": Tensor(fused_rand(1, 3)), "residual": Tensor(fused_rand(5, 3))}


# (name, input values, loss builder). Each builder maps the leaf under test
# to a scalar; every differentiable primitive appears at least once per
# argument slot. Random companions are frozen via default-argument binding
# so autodiff and finite differences see the same function.
GRAD_CASES = [
    ("add_lhs", rand(4, 3),
     lambda x, b=Tensor(rand(4, 3)), c=_c(4, 3): T.tsum(T.mul(T.add(x, b), c))),
    ("add_row_broadcast", rand(1, 3),
     lambda x, a=Tensor(rand(5, 3)), c=_c(5, 3): T.tsum(T.mul(add_row(a, x), c))),
    ("sub_rhs", rand(4, 3),
     lambda x, a=Tensor(rand(4, 3)), c=_c(4, 3): T.tsum(T.mul(T.sub(a, x), c))),
    ("mul_both", rand(3, 3),
     lambda x, b=Tensor(rand(3, 3)), c=_c(3, 3): T.tsum(T.mul(T.mul(x, b), c))),
    ("div_lhs", rand(3, 4),
     lambda x, b=Tensor(rand(3, 4) + 3.0), c=_c(3, 4): T.tsum(T.mul(div(x, b), c))),
    ("div_rhs", rand(3, 4) + 3.0,
     lambda x, a=Tensor(rand(3, 4)), c=_c(3, 4): T.tsum(T.mul(div(a, x), c))),
    ("scale", rand(3, 3),
     lambda x, c=_c(3, 3): T.tsum(T.mul(T.scale(x, -1.7), c))),
    ("matmul_lhs", rand(4, 5),
     lambda x, b=Tensor(rand(5, 3)), c=_c(4, 3): T.tsum(T.mul(T.matmul(x, b), c))),
    ("matmul_rhs", rand(5, 3),
     lambda x, a=Tensor(rand(4, 5)), c=_c(4, 3): T.tsum(T.mul(T.matmul(a, x), c))),
    ("tsum_all", rand(4, 4), lambda x: T.scale(T.tsum(x), 2.0)),
    ("tsum_axis0", rand(4, 3),
     lambda x, c=_c(1, 3): T.tsum(T.mul(T.tsum(x, axis=0), c))),
    ("tsum_axis1", rand(4, 3),
     lambda x, c=_c(4, 1): T.tsum(T.mul(T.tsum(x, axis=1), c))),
    ("frobenius_sq", rand(4, 3), lambda x: frobenius_sq(x)),
    ("relu", rand(4, 4, away_from=0.0),
     lambda x, c=_c(4, 4): T.tsum(T.mul(T.relu(x), c))),
    ("sigmoid", rand(4, 4),
     lambda x, c=_c(4, 4): T.tsum(T.mul(T.sigmoid(x), c))),
    ("log", np.abs(rand(3, 3)) + 0.5,
     lambda x, c=_c(3, 3): T.tsum(T.mul(log(x), c))),
    ("abs", rand(4, 3, away_from=0.0),
     lambda x, c=_c(4, 3): T.tsum(T.mul(tabs(x), c))),
    ("clamp_min", rand(4, 4, away_from=T.LOG_FLOOR),
     lambda x, c=_c(4, 4): T.tsum(T.mul(clamp_min(x), c))),
    ("log_floor", np.abs(rand(3, 3)) + 0.5,
     lambda x, c=_c(3, 3): T.tsum(T.mul(T.log_floor(x), c))),
    ("maximum_lhs", rand(4, 3),
     lambda x, b=Tensor(rand(4, 3) + 5.0), c=_c(4, 3): T.tsum(T.mul(maximum(x, b), c))),
    ("maximum_rhs", rand(4, 3) + 5.0,
     lambda x, a=Tensor(rand(4, 3)), c=_c(4, 3): T.tsum(T.mul(maximum(a, x), c))),
    ("minimum_lhs", rand(4, 3),
     lambda x, b=Tensor(rand(4, 3) + 5.0), c=_c(4, 3): T.tsum(T.mul(minimum(x, b), c))),
    ("interleave_rows_first", rand(6, 3),
     lambda x, b=Tensor(rand(6, 3)), c=_c(12, 3): T.tsum(T.mul(T.interleave_rows([x, b], 3), c))),
    ("interleave_rows_last", rand(6, 3),
     lambda x, a=Tensor(rand(6, 3)), c=_c(12, 3): T.tsum(T.mul(T.interleave_rows([a, x], 2), c))),
    ("concat_rows", rand(3, 4),
     lambda x, b=Tensor(rand(3, 4)), c=_c(6, 4): T.tsum(T.mul(T.interleave_rows([x, b], 1), c))),
    ("slice_rows", rand(6, 3),
     lambda x, c=_c(3, 3): T.tsum(T.mul(slice_rows(x, 1, 4), c))),
    ("slice_cols", rand(3, 6),
     lambda x, c=_c(3, 3): T.tsum(T.mul(slice_cols(x, 2, 5), c))),
    ("gather_rows_with_repeats", rand(5, 3),
     lambda x, c=_c(5, 3): T.tsum(T.mul(T.gather_rows(x, [0, 2, 2, 4, 1]), c))),
    ("permute_rows", rand(6, 2),
     lambda x, c=_c(6, 2): T.tsum(T.mul(T.gather_rows(x, [3, 0, 5, 1, 4, 2]), c))),
    ("softmax_rows", rand(4, 5),
     lambda x, c=_c(4, 5): T.tsum(T.mul(T.softmax_rows(x), c))),
    ("layer_norm_x", rand(5, 4),
     lambda x, g=Tensor(rand(1, 4)), b=Tensor(rand(1, 4)), c=_c(5, 4):
         T.tsum(T.mul(T.layer_norm_rows(x, g, b), c))),
    ("layer_norm_gain", rand(1, 4),
     lambda x, a=Tensor(rand(5, 4)), b=Tensor(rand(1, 4)), c=_c(5, 4):
         T.tsum(T.mul(T.layer_norm_rows(a, x, b), c))),
    ("layer_norm_bias", rand(1, 4),
     lambda x, a=Tensor(rand(5, 4)), g=Tensor(rand(1, 4)), c=_c(5, 4):
         T.tsum(T.mul(T.layer_norm_rows(a, g, x), c))),
    ("channel_norm", rand(6, 3),
     lambda x, c=_c(6, 3): T.tsum(T.mul(channel_norm(x), c))),
    # Two heads (d_k 2) over two blocks of 3 queries and 4 keys.
    ("block_attention_q", rand(6, 4),
     lambda x, k=Tensor(rand(8, 4)), v=Tensor(rand(8, 5)), c=_c(6, 10):
         T.tsum(T.mul(T.block_attention(x, k, v, 2, 3, 4), c))),
    ("block_attention_k", rand(8, 4),
     lambda x, q=Tensor(rand(6, 4)), v=Tensor(rand(8, 5)), c=_c(6, 10):
         T.tsum(T.mul(T.block_attention(q, x, v, 2, 3, 4), c))),
    ("block_attention_v", rand(8, 5),
     lambda x, q=Tensor(rand(6, 4)), k=Tensor(rand(8, 4)), c=_c(6, 10):
         T.tsum(T.mul(T.block_attention(q, k, x, 2, 3, 4), c))),
    ("matmul_add_lhs", fused_rand(4, 5),
     lambda x, b=Tensor(fused_rand(5, 3)), r=Tensor(fused_rand(1, 3)), c=_cf(4, 3):
         T.tsum(T.mul(T.matmul_add(x, b, r), c))),
    ("matmul_add_rhs", fused_rand(5, 3),
     lambda x, a=Tensor(fused_rand(4, 5)), r=Tensor(fused_rand(4, 3)), c=_cf(4, 3):
         T.tsum(T.mul(T.matmul_add(a, x, r), c))),
    ("matmul_add_bias", fused_rand(1, 3),
     lambda x, a=Tensor(fused_rand(4, 5)), b=Tensor(fused_rand(5, 3)), c=_cf(4, 3):
         T.tsum(T.mul(T.matmul_add(a, b, x), c))),
    ("matmul_add_residual", fused_rand(4, 3),
     lambda x, a=Tensor(fused_rand(4, 5)), b=Tensor(fused_rand(5, 3)), c=_cf(4, 3):
         T.tsum(T.mul(T.matmul_add(a, b, x), c))),
    # A (5, 4) -> 6 -> 3 MLP; each case perturbs one slot of the same network.
    *[(f"mlp_{slot}", fused_rand(*MLP_ARGS[slot].shape),
       lambda x, slot=slot, c=_cf(5, 3):
           T.tsum(T.mul(T.mlp(**{**MLP_ARGS, slot: x}), c)))
      for slot in MLP_ARGS],
]


@pytest.mark.parametrize("name,values,builder", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
def test_primitive_gradient_matches_finite_differences(name, values, builder):
    check_grad(builder, values, h=1e-5, tol=1e-6)


def test_mean_relu_gradient_matches_finite_differences():
    x = rand(5, 6, away_from=0.0)
    check_grad(lambda t: T.scale(T.tsum(T.relu(t)), 1.0 / x.size), x, h=1e-5, tol=1e-6)


def test_random_matmul_gradient_tight_tolerance():
    a = rand(4, 5)
    b = rand(5, 3)
    check_grad(lambda t: frobenius_sq(T.matmul(t, Tensor(b))), a, tol=1e-6)
    check_grad(lambda t: frobenius_sq(T.matmul(Tensor(a), t)), b, tol=1e-6)


def _special_inputs():
    # One entry takes numpy's scalar loops and long rows its SIMD loops,
    # which break ties between signed zeros differently.
    rng = np.random.default_rng(7)
    return ([np.array([[v]]) for v in SPECIAL_VALUES]
            + [special_values(rng, shape) for shape in ((1, 7), (5, 4), (64, 128))]
            + [special_values(rng, (64, 128), share=0.002), rng.standard_normal((64, 128)),
               rng.standard_normal((37, 24))])


SPECIAL_INPUTS = _special_inputs()


class TestLeanKernelsAreExact:
    """relu, sigmoid, log_floor and layer_norm_rows against the plain numpy
    or composed forms they replace, byte for byte, forward and backward, on
    inputs with NaN, +-0.0, +-inf and subnormals."""

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with np.errstate(all="ignore"):  # NaN and inf inputs are the point
            yield

    @staticmethod
    def _taped(op, x):
        leaf = Tensor(x, requires_grad=True)
        out = op(leaf)
        g = np.random.default_rng(x.size).standard_normal(x.shape)
        T.backward_seeded([out], [g])
        return out.data, leaf.grad, g

    @pytest.mark.parametrize("x", SPECIAL_INPUTS)
    def test_relu(self, x):
        want, mask = relu_reference(x)
        out, grad, g = self._taped(T.relu, x)
        assert_same_bits(out, want)
        assert_same_bits(grad, g * mask)
        assert_same_bits(T.relu(Tensor(x.T)).data, relu_reference(x.T)[0])  # strided

    @pytest.mark.parametrize("x", SPECIAL_INPUTS)
    def test_sigmoid(self, x):
        want = sigmoid_reference(x)
        out, grad, g = self._taped(T.sigmoid, x)
        assert_same_bits(out, want)
        assert_same_bits(grad, g * want * (1.0 - want))

    @pytest.mark.parametrize("x", SPECIAL_INPUTS)
    def test_log_floor(self, x):
        # The composed log(clamp_min(.)) and np.where's floor are the oracles.
        for a in (x, -x, np.where(np.arange(x.size).reshape(x.shape) % 3, x, T.LOG_FLOOR)):
            out, grad, _ = self._taped(T.log_floor, a)
            want, want_grad, _ = self._taped(lambda t: log(clamp_min(t)), a)
            assert_same_bits(out, want)
            assert_same_bits(grad, want_grad)
            assert_same_bits(out, np.log(np.where(a > T.LOG_FLOOR, a, T.LOG_FLOOR)))

    @pytest.mark.parametrize("x", SPECIAL_INPUTS)
    def test_layer_norm_rows(self, x):
        rng = np.random.default_rng(x.size)
        gain, bias = rng.standard_normal((2, 1, x.shape[1]))
        g = rng.standard_normal(x.shape)
        leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = T.layer_norm_rows(*leaves)
        T.backward_seeded([out], [g])
        for got, want in zip([out.data] + [leaf.grad for leaf in leaves],
                             layer_norm_reference(x, gain, bias, g)):
            assert_same_bits(got, want)


def _fused_cases():
    # Random draws, then special values: rows of zeros in ``x`` make the
    # pre-activation equal the bias row exactly, so the relu meets NaN,
    # +-0.0, +-inf and subnormals as the layers' hidden units can.
    rng = np.random.default_rng(11)
    cases = [[rng.standard_normal(s) for s in ((37, 24), (24, 40), (1, 40), (40, 16),
                                                (1, 16), (37, 16))]]
    for share in (0.3, 0.02):
        x = special_values(rng, (37, 24), share)
        x[::3] = 0.0
        cases.append([x, rng.standard_normal((24, 40)), special_values(rng, (1, 40), 0.5),
                      special_values(rng, (40, 16), share), special_values(rng, (1, 16), 0.5),
                      special_values(rng, (37, 16), 0.5)])
    for v in SPECIAL_VALUES:  # every hidden unit of a zero row at one special value
        cases.append([np.zeros((3, 2)), rng.standard_normal((2, 5)), np.full((1, 5), v),
                      rng.standard_normal((5, 4)), rng.standard_normal((1, 4)),
                      rng.standard_normal((3, 4))])
    return cases


FUSED_CASES = _fused_cases()


class TestFusedOpsAreExact:
    """matmul_add and mlp against the composed tape ops they replace, byte
    for byte: the value and every gradient, with and without a residual,
    with a frozen bias, on random inputs and on special values."""

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with np.errstate(all="ignore"):  # NaN and inf inputs are the point
            yield

    @staticmethod
    def _taped(op, arrays, frozen=()):
        leaves = [Tensor(a.copy(), requires_grad=i not in frozen) for i, a in enumerate(arrays)]
        out = op(*leaves)
        node = out._vjp, out._parents  # read before the walk releases them
        g = np.random.default_rng(out.data.size).standard_normal(out.shape)
        T.backward_seeded([out], [g])
        return [out.data] + [leaf.grad for leaf in leaves], node

    @staticmethod
    def _same(got, want):
        for a, b in zip(got, want, strict=True):
            if b is None:
                assert a is None
            else:
                assert_same_bits(a, b)

    @pytest.mark.parametrize("frozen", [(), (0,), (2,)],
                             ids=["all-taped", "untaped-input", "frozen-bias"])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("case", range(len(FUSED_CASES)))
    def test_matmul_add(self, case, residual, frozen):
        x, w, b, _, _, r = FUSED_CASES[case]
        arrays = [x, w, np.resize(r, (x.shape[0], w.shape[1])) if residual else b]
        got, (vjp, parents) = self._taped(T.matmul_add, arrays, frozen)
        want, _ = self._taped(matmul_add_composed, arrays, frozen)
        self._same(got, want)
        assert vjp is not None and len(parents) == 3
        for i in frozen:
            assert got[1 + i] is None

    @pytest.mark.parametrize("frozen", [(), (0,), (4,), (2, 4)],
                             ids=["all-taped", "untaped-input", "frozen-b2", "frozen-b1-b2"])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("case", range(len(FUSED_CASES)))
    def test_mlp(self, case, residual, frozen):
        arrays = FUSED_CASES[case] if residual else FUSED_CASES[case][:5]
        got, (_, parents) = self._taped(T.mlp, arrays, frozen)
        want, _ = self._taped(mlp_composed, arrays, frozen)
        self._same(got, want)
        assert len(parents) == len(arrays)
        for i in frozen:
            assert got[1 + i] is None

    @pytest.mark.parametrize("case", range(len(FUSED_CASES)))
    def test_the_mlp_keeps_only_the_rectified_hidden_layer(self, case):
        x, w1, b1, w2, b2, r = (Tensor(a, requires_grad=True) for a in FUSED_CASES[case])
        out = T.mlp(x, w1, b1, w2, b2, residual=r)
        kept = [c.cell_contents for c in out._vjp.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(kept) == 1
        assert_same_bits(kept[0], relu_reference(x.data @ w1.data + b1.data)[0])

    @pytest.mark.parametrize("shapes", [((3, 4), (5, 2), (1, 2)), ((3, 4), (4, 2), (1, 3)),
                                        ((3, 4), (4, 2), (2, 2)), ((3, 4), (4, 2), (3, 2, 1))])
    def test_matmul_add_shapes(self, shapes):
        with pytest.raises(ShapeError):
            T.matmul_add(*(Tensor(np.zeros(s)) for s in shapes))

    @pytest.mark.parametrize("slot, shape", [("x", (5, 3)), ("w1", (4, 7)), ("b1", (5, 6)),
                                             ("w2", (7, 3)), ("b2", (3,)),
                                             ("residual", (1, 3))])
    def test_mlp_shapes(self, slot, shape):
        with pytest.raises(ShapeError):
            T.mlp(**{**MLP_ARGS, slot: Tensor(np.zeros(shape))})
