"""Attention mechanics: matrix-form MHA, block masking, permutation laws."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from kaseq import tensor as T
from kaseq import transformer as tf
from kaseq.detector import DetectorConfig
from kaseq.errors import ConfigError, ShapeError
from kaseq.tensor import Tensor

from helpers import composed_ops, is_leaf

RNG = np.random.default_rng(7)


def naive_mha(q, k, v, params):
    """Per-head, per-token dot-product loop; the matrix form's oracle."""
    heads = params.heads
    d_k = params.wq.shape[1] // heads
    d = v.shape[1]
    out = np.zeros((q.shape[0], d))
    for i in range(heads):
        wq = params.wq.data[:, i * d_k:(i + 1) * d_k]
        wk = params.wk.data[:, i * d_k:(i + 1) * d_k]
        wvo = params.wvo.data[i * d:(i + 1) * d]
        for t in range(q.shape[0]):
            scores = np.array([
                float((q[t] @ wq) @ (k[s] @ wk)) / np.sqrt(d_k)
                for s in range(k.shape[0])
            ])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            attended = sum(w[s] * v[s] for s in range(k.shape[0]))
            out[t] += attended @ wvo
    return out


def attend(q: Tensor, k: Tensor, v: Tensor, p: tf.MHAParams, blocks: int = 1) -> Tensor:
    """``tf.mha`` with a zero residual: the attention output alone."""
    return tf.mha(q, k, v, p, blocks, residual=Tensor(np.zeros((q.shape[0], p.d_model))))


def _tensors(*groups) -> list[Tensor]:
    """The parameter tensors of layer dataclasses, through their fields."""
    found = []
    for group in groups:
        for value in vars(group).values():
            found += [value] if isinstance(value, Tensor) else _tensors(value)
    return found


def perm_matrix(perm):
    n = len(perm)
    phi = np.zeros((n, n))
    phi[np.arange(n), perm] = 1.0
    return phi


class TestMHA:
    def test_single_token_forces_unit_weight(self):
        d = 6
        p = tf.MHAParams.init(d, 2, RNG)
        v = RNG.standard_normal((1, d))
        out = attend(Tensor(v), Tensor(v), Tensor(v), p)
        expected = v @ p.wvo.data.reshape(2, d, d).sum(axis=0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_tokens_single_head_identity_weights(self):
        d = 4
        eye = Tensor(np.eye(d), requires_grad=True)
        p = tf.MHAParams(wq=eye, wk=eye, wvo=eye)
        tok = RNG.standard_normal((1, d))
        x = np.vstack([tok, tok])
        values = RNG.standard_normal((2, d))
        out = attend(Tensor(x), Tensor(x), Tensor(values), p)
        np.testing.assert_allclose(out.data, np.tile(values.mean(axis=0), (2, 1)), atol=1e-12)

    def test_matrix_form_matches_naive_loop(self):
        p = tf.MHAParams.init(4, 2, RNG)
        q = RNG.standard_normal((3, 4))
        k = RNG.standard_normal((5, 4))
        v = RNG.standard_normal((5, 4))
        out = attend(Tensor(q), Tensor(k), Tensor(v), p)
        assert np.max(np.abs(out.data - naive_mha(q, k, v, p))) < 1e-10

    def test_packed_init_lays_per_head_draws_side_by_side(self):
        # Same random stream as H separate Xavier draws per projection:
        # every wq head, then every wk head, then every wvo head.
        d, heads = 8, 4
        p = tf.MHAParams.init(d, heads, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        wq = [tf._xavier(d, d // heads, rng).data for _ in range(heads)]
        wk = [tf._xavier(d, d // heads, rng).data for _ in range(heads)]
        bound = 1.0 / heads * np.sqrt(6.0 / (d + d))  # Xavier with gain 1 / H
        wvo = [rng.uniform(-bound, bound, size=(d, d)) for _ in range(heads)]
        np.testing.assert_array_equal(p.wq.data, np.hstack(wq))
        np.testing.assert_array_equal(p.wk.data, np.hstack(wk))
        np.testing.assert_array_equal(p.wvo.data, np.vstack(wvo))
        assert (p.heads, p.d_model, p.wq.shape[1]) == (heads, d, d)

    def test_one_call_adds_four_operation_nodes_over_three_leaves(self):
        p = tf.MHAParams.init(8, 4, RNG)
        x = Tensor(RNG.standard_normal((6, 8)))
        residual = Tensor(RNG.standard_normal((6, 8)))
        out = tf.mha(x, x, x, p, 2, residual)
        nodes = T._topo_order(out)
        assert sum(not is_leaf(n) for n in nodes) == 4
        assert {id(n) for n in nodes if is_leaf(n) and n.requires_grad} == \
            {id(p.wq), id(p.wk), id(p.wvo)}
        np.testing.assert_allclose(out.data, residual.data + attend(x, x, x, p, 2).data,
                                   rtol=0, atol=1e-12)

    def test_query_and_keyvalue_equivariance(self):
        # Lemma: mha(Pq Q, P K, P V) == Pq mha(Q, K, V).
        p = tf.MHAParams.init(6, 3, RNG)
        q = RNG.standard_normal((4, 6))
        k = RNG.standard_normal((7, 6))
        v = RNG.standard_normal((7, 6))
        base = attend(Tensor(q), Tensor(k), Tensor(v), p).data
        for _ in range(20):
            pq = RNG.permutation(4)
            pkv = RNG.permutation(7)
            permed = attend(Tensor(q[pq]), Tensor(k[pkv]), Tensor(v[pkv]), p).data
            assert np.max(np.abs(permed - base[pq])) < 1e-8

    def test_softmax_permutation_commutation(self):
        x = RNG.standard_normal((5, 5))
        for _ in range(20):
            phi = perm_matrix(RNG.permutation(5))
            left = T.softmax_rows(Tensor(phi @ x)).data
            assert np.max(np.abs(left - phi @ T.softmax_rows(Tensor(x)).data)) < 1e-12
            right = T.softmax_rows(Tensor(x @ phi)).data
            assert np.max(np.abs(right - T.softmax_rows(Tensor(x)).data @ phi)) < 1e-12


class TestMaskedSelfAttention:
    """Self-attention over equal-length parts stacked along rows, decoupled
    by a block-diagonal mask."""

    def test_single_part_equals_unmasked(self):
        p = tf.MHAParams.init(4, 2, RNG)
        x = RNG.standard_normal((5, 4))
        masked = attend(Tensor(x), Tensor(x), Tensor(x), p, blocks=1)
        np.testing.assert_allclose(masked.data, naive_mha(x, x, x, p), atol=1e-10)

    def test_two_parts_decouple(self):
        p = tf.MHAParams.init(6, 2, RNG)
        a = RNG.standard_normal((4, 6))
        b = RNG.standard_normal((4, 6))
        x = Tensor(np.vstack([a, b]))
        out = attend(x, x, x, p, blocks=2).data
        for part, rows in ((a, out[:4]), (b, out[4:])):
            solo = attend(Tensor(part), Tensor(part), Tensor(part), p)
            assert np.max(np.abs(rows - solo.data)) < 1e-10

    def test_identical_parts_give_identical_halves(self):
        p = tf.MHAParams.init(4, 2, RNG)
        x = RNG.standard_normal((3, 4))
        both = Tensor(np.vstack([x, x]))
        out = attend(both, both, both, p, blocks=2).data
        np.testing.assert_allclose(out[:3], out[3:], atol=1e-12)

    @pytest.mark.parametrize("blocks, keys", [(0, 4), (-1, 4), (4, 8), (2, 5)])
    def test_blocks_that_do_not_tile_both_sequences_are_rejected(self, blocks, keys):
        p = tf.MHAParams.init(4, 2, RNG)
        q, kv = Tensor(RNG.standard_normal((6, 4))), Tensor(RNG.standard_normal((keys, 4)))
        with pytest.raises(ShapeError, match="attention blocks"):
            attend(q, kv, kv, p, blocks=blocks)


class TestEncoder:
    def _layers(self, d=6, heads=2, ffn=12, count=2):
        return [tf.EncoderLayerParams.init(d, heads, ffn, RNG) for _ in range(count)]

    def test_zero_layers_returns_nothing(self):
        x = Tensor(RNG.standard_normal((4, 6)))
        assert tf.encoder_forward(x, [], 1, np.zeros(x.shape)) == []

    def test_permutation_equivariance_per_layer(self):
        layers = self._layers()
        x = RNG.standard_normal((5, 6))
        pos = tf.positional_encoding(1, 5, 8)[:, :6]
        base = tf.encoder_forward(Tensor(x), layers, 1, pos)
        for _ in range(10):
            perm = RNG.permutation(5)
            permed = tf.encoder_forward(Tensor(x[perm]), layers, 1, pos[perm])
            for lb, lp in zip(base, permed):
                assert np.max(np.abs(lp.data - lb.data[perm])) < 1e-8

    def test_masked_forward_equals_independent_part_runs_per_layer(self):
        layers = self._layers()
        a = RNG.standard_normal((4, 6))
        b = RNG.standard_normal((4, 6))
        pos = RNG.uniform(-1, 1, size=(4, 6))
        joint = tf.encoder_forward(Tensor(np.vstack([a, b])), layers,
                                   blocks=2, pos=np.vstack([pos, pos]))
        solo_a = tf.encoder_forward(Tensor(a), layers, 1, pos)
        solo_b = tf.encoder_forward(Tensor(b), layers, 1, pos)
        for lj, la, lb_ in zip(joint, solo_a, solo_b):
            assert np.max(np.abs(lj.data - np.vstack([la.data, lb_.data]))) < 1e-10

    def test_layer_count_contract(self):
        layers = self._layers(count=3)
        outs = tf.encoder_forward(Tensor(RNG.standard_normal((4, 6))), layers, 2,
                                  RNG.standard_normal((4, 6)))
        assert len(outs) == 3

    def test_one_layer_adds_eight_operation_nodes(self):
        layer = self._layers(count=1)[0]
        x = Tensor(RNG.standard_normal((8, 6)), requires_grad=True)
        pos = RNG.standard_normal((8, 6))
        # ln1, the positional add, the query and key products, attention,
        # the W_vo product with the residual, ln2 and the MLP with the residual
        for context, want in ((contextlib.nullcontext, 8), (composed_ops, 14)):
            with context():
                out, = tf.encoder_forward(x, [layer], blocks=2, pos=pos)
            nodes = T._topo_order(out)
            assert sum(not is_leaf(n) for n in nodes) == want
            assert {id(n) for n in nodes if is_leaf(n) and n.requires_grad} == \
                {id(x)} | {id(t) for t in _tensors(layer)}

    def test_a_taped_forward_holds_less_than_the_composed_ops(self):
        cfg = DetectorConfig()  # default geometry: d 64, ffn 128, 3 layers, 64 tokens
        images, rng = 4, np.random.default_rng(0)
        rows = images * cfg.tokens
        layers = [tf.EncoderLayerParams.init(cfg.d_model, cfg.heads, cfg.ffn_dim, rng)
                  for _ in range(cfg.enc_layers)]
        x = Tensor(rng.standard_normal((rows, cfg.d_model)), requires_grad=True)
        pos = np.tile(tf.positional_encoding(cfg.grid, cfg.grid, cfg.d_model), (images, 1))

        def held() -> int:
            tracemalloc.start()
            try:
                outs = tf.encoder_forward(x, layers, blocks=images, pos=pos)
                assert len(outs) == cfg.enc_layers  # the graph is alive here
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        fused = held()
        with composed_ops():
            composed = held()
        # Per layer, the composed ops also keep the MLP's first product and its
        # pre-activation, each (rows, ffn), and three (rows, d) arrays: the
        # W_vo product, the MLP's second product and its biased output.
        per_layer = (composed - fused) / cfg.enc_layers
        assert per_layer >= (2 * cfg.ffn_dim + 3 * cfg.d_model) * rows * 8


class TestDecoder:
    def _params(self, d=6, heads=2, dec=2):
        return [tf.DecoderLayerParams.init(d, heads, 12, RNG) for _ in range(dec)], tf.Norm.init(d)

    def test_memory_permutation_invariance(self):
        params = self._params()
        mem = RNG.standard_normal((7, 6))
        queries = RNG.standard_normal((3, 6))
        base = tf.decoder_forward(Tensor(mem), Tensor(queries), *params, 1).data
        for _ in range(10):
            perm = RNG.permutation(7)
            out = tf.decoder_forward(Tensor(mem[perm]), Tensor(queries), *params, 1).data
            assert np.max(np.abs(out - base)) < 1e-8

    def test_single_query_shape(self):
        params = self._params()
        out = tf.decoder_forward(Tensor(RNG.standard_normal((5, 6))),
                                 Tensor(RNG.standard_normal((1, 6))), *params, 1)
        assert out.shape == (1, 6)

    def test_one_layer_adds_twelve_operation_nodes_and_the_final_norm(self):
        (layer,), final_ln = self._params(dec=1)
        memory = Tensor(RNG.standard_normal((8, 6)), requires_grad=True)
        queries = Tensor(RNG.standard_normal((4, 6)), requires_grad=True)
        # Self- and cross-attention: a norm, the query and key products,
        # attention and the W_vo product with the residual, five nodes each;
        # then ln3 and the MLP with the residual.
        for context, want in ((contextlib.nullcontext, 12 + 1), (composed_ops, 19 + 1)):
            with context():
                out = tf.decoder_forward(memory, queries, [layer], final_ln, blocks=2)
            nodes = T._topo_order(out)
            assert sum(not is_leaf(n) for n in nodes) == want
            assert {id(n) for n in nodes if is_leaf(n) and n.requires_grad} == \
                {id(memory), id(queries)} | {id(t) for t in _tensors(layer, final_ln)}

    def test_memory_length_is_unconstrained(self):
        params = self._params()
        queries = Tensor(RNG.standard_normal((3, 6)))
        long = tf.decoder_forward(Tensor(RNG.standard_normal((8, 6))), queries, *params, 1)
        short = tf.decoder_forward(Tensor(RNG.standard_normal((4, 6))), queries, *params, 1)
        assert long.shape == short.shape == (3, 6)


class TestPositionalEncoding:
    def test_values_bounded(self):
        enc = tf.positional_encoding(8, 8, 64)
        assert np.all(enc >= -1.0) and np.all(enc <= 1.0)

    def test_distinct_positions_distinct_encodings_up_to_64(self):
        enc = tf.positional_encoding(64, 64, 16)
        assert len({row.tobytes() for row in enc}) == 64 * 64

    def test_indivisible_d_model_rejected(self):
        with pytest.raises(ConfigError):
            tf.positional_encoding(4, 4, 30)
