"""Detector forward: patch embedding, extension, compression, heads."""

import dataclasses

import numpy as np
import pytest

from kaseq import detector as det
from kaseq import tensor as T
from kaseq.amalgamation import compress_redundancy
from kaseq.errors import ConfigError, ContractError
from kaseq.tensor import Tensor

from helpers import (backbone_project, image_detections, split_parts, student_forward,
                     teacher_forward)

RNG = np.random.default_rng(17)


def tiny_cfg(**kw):
    base = dict(image_size=32, patch_size=8, d_model=16, heads=2, enc_layers=2,
                dec_layers=1, queries=6, num_categories=4, num_parts=1,
                ffn_dim=32)
    base.update(kw)
    return det.DetectorConfig(**base)


def rand_image(size=32):
    return RNG.uniform(0, 1, size=(size, size, 3))


class TestConfig:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(image_size=30)

    @pytest.mark.parametrize("key, value", [("heads", 0), ("patch_size", 0), ("heads", -2),
                                            ("ffn_dim", 0), ("enc_layers", -1)])
    def test_non_positive_size_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            tiny_cfg(**{key: value})

    def test_grid_arithmetic(self):
        cfg = tiny_cfg()
        assert cfg.grid == 4 and cfg.tokens == 16 and cfg.patch_dim == 192

    def test_round_trip_dict(self):
        cfg = tiny_cfg(num_parts=2, compression="redundancy")
        assert det.DetectorConfig.from_dict(cfg.to_dict()) == cfg


class TestBackbone:
    def test_patch_count_and_width(self):
        cfg = tiny_cfg()
        params = det.DetectorParams.init(cfg, RNG)
        seq = backbone_project(rand_image(), params, cfg, 0)
        assert seq.shape == (16, cfg.d_model)

    def test_identical_parameters_identical_sequences(self):
        cfg = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg, RNG)
        params.proj_w[1].data[:] = params.proj_w[0].data
        params.proj_b[1].data[:] = params.proj_b[0].data
        img = rand_image()
        a = backbone_project(img, params, cfg, 0)
        b = backbone_project(img, params, cfg, 1)
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_isolated_to_used_projection(self):
        cfg = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg, RNG)
        seq = backbone_project(rand_image(), params, cfg, 1)
        T.frobenius_sq(seq).backward()
        assert params.proj_w[1].grad is not None
        assert params.proj_w[0].grad is None

    def test_patch_flattening_layout(self):
        img = np.arange(32 * 32 * 3, dtype=np.float64).reshape(32, 32, 3)
        patches = det.image_to_patches(img, 8)
        assert patches.shape == (16, 192)
        np.testing.assert_array_equal(patches[0], img[:8, :8, :].reshape(-1))
        np.testing.assert_array_equal(patches[1], img[:8, 8:16, :].reshape(-1))


class TestStudentForward:
    def test_single_part_plain_forward(self):
        cfg = tiny_cfg()
        params = det.DetectorParams.init(cfg, RNG)
        dets, layers = student_forward(rand_image(), params, cfg)
        assert len(dets) == cfg.queries
        last = dets.detection(cfg.queries - 1)
        np.testing.assert_array_equal(last.box, dets.boxes[-1])
        np.testing.assert_array_equal(last.dist, dets.dists[-1])
        assert len(layers) == cfg.enc_layers + 1  # projection supervised by default
        assert layers[0].shape == (cfg.tokens, cfg.d_model)

    def test_memory_lengths_with_and_without_compression(self):
        img = rand_image()
        cfg2 = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg2, RNG)
        out = det.forward_batch([img], params, cfg2)
        assert out.memory_len == 2 * cfg2.tokens
        cfg2c = tiny_cfg(num_parts=2, compression="redundancy")
        out_c = det.forward_batch([img], params, cfg2c)
        assert out_c.memory_len == cfg2c.tokens  # reduced from N*n to n
        assert out_c.kept is not None and out_c.kept.shape == (cfg2c.tokens,)

    def test_outputs_are_valid_detections(self):
        cfg = tiny_cfg(num_parts=2, compression="isometric")
        params = det.DetectorParams.init(cfg, RNG)
        dets, _ = student_forward(rand_image(), params, cfg)
        assert np.all(dets.boxes >= 0.0) and np.all(dets.boxes <= 1.0)
        np.testing.assert_allclose(dets.dists.sum(axis=1), 1.0, atol=1e-9)

    def test_part_outputs_independent_of_sibling_parameters(self):
        # Flow is cut between parts: retuning part 1's projection must leave
        # part 0's per-layer outputs untouched.
        cfg = tiny_cfg(num_parts=2)
        img = rand_image()
        params = det.DetectorParams.init(cfg, RNG)
        _, layers_before = student_forward(img, params, cfg)
        params.proj_w[1].data[:] = RNG.standard_normal(params.proj_w[1].shape)
        _, layers_after = student_forward(img, params, cfg)
        n = cfg.tokens
        for before, after in zip(layers_before, layers_after):
            np.testing.assert_allclose(after.data[:n], before.data[:n], atol=1e-12)
            assert np.max(np.abs(after.data[n:] - before.data[n:])) > 1e-6

    def test_forward_is_deterministic(self):
        cfg = tiny_cfg(num_parts=2, compression="redundancy")
        params = det.DetectorParams.init(cfg, RNG)
        img = rand_image()
        a, _ = student_forward(img, params, cfg)
        b, _ = student_forward(img, params, cfg)
        np.testing.assert_array_equal(a.dists, b.dists)
        np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_batched_forward_matches_single_image(self):
        cfg = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg, RNG)
        imgs = [rand_image() for _ in range(3)]
        batched = det.forward_batch(imgs, params, cfg)
        for b, img in enumerate(imgs):
            solo, solo_layers = student_forward(img, params, cfg)
            got = image_detections(batched, b)
            np.testing.assert_allclose(got.dists, solo.dists, atol=1e-10)
            np.testing.assert_allclose(got.boxes, solo.boxes, atol=1e-10)
            rows = batched.layer_seqs[0].shape[0] // len(imgs)
            np.testing.assert_allclose(
                batched.layer_seqs[-1].data[b * rows:(b + 1) * rows],
                solo_layers[-1].data, atol=1e-10)

    def test_external_guide_selects_the_kept_tokens(self):
        cfg = tiny_cfg(num_parts=2, compression="redundancy")
        params = det.DetectorParams.init(cfg, RNG)
        n, rows = cfg.tokens, 2 * cfg.tokens
        guide = RNG.standard_normal((3 * rows, cfg.d_model))
        out = det.forward_batch([rand_image() for _ in range(3)], params, cfg, guide=guide)
        want = [b * rows + compress_redundancy(guide[b * rows:(b + 1) * rows], 2, n)
                for b in range(3)]
        np.testing.assert_array_equal(out.kept, np.concatenate(want))


class TestTeacherForward:
    def test_contracts(self):
        cfg = tiny_cfg(num_categories=2)
        params = det.DetectorParams.init(cfg, RNG)
        dets, layers = teacher_forward(rand_image(), params, cfg)
        assert len(dets) == cfg.queries
        assert dets.dists.shape[1] == 3
        assert len(layers) == cfg.enc_layers + 1

    def test_multi_part_teacher_rejected(self):
        cfg = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg, RNG)
        with pytest.raises(ContractError):
            teacher_forward(rand_image(), params, cfg)


def parameter_count(params) -> int:
    return sum(p.data.size for p in params.named_parameters().values())


def held_tensors(obj) -> list:
    """Every Tensor reachable through the dataclass fields and lists of ``obj``."""
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, list):
        return [t for item in obj for t in held_tensors(item)]
    if dataclasses.is_dataclass(obj):
        return [t for f in dataclasses.fields(obj) for t in held_tensors(getattr(obj, f.name))]
    return []


class TestParameterAccounting:
    def test_extension_adds_only_projections(self):
        raw = det.DetectorParams.init(tiny_cfg(num_parts=1), np.random.default_rng(0))
        ext = det.DetectorParams.init(tiny_cfg(num_parts=3), np.random.default_rng(0))
        cfg = tiny_cfg()
        per_proj = cfg.patch_dim * cfg.d_model + cfg.d_model
        assert parameter_count(ext) - parameter_count(raw) == 2 * per_proj

    def test_named_parameters_unique_and_complete(self):
        params = det.DetectorParams.init(tiny_cfg(num_parts=2), RNG)
        named = params.named_parameters()
        assert len({id(t) for t in named.values()}) == len(named)
        assert {id(t) for t in named.values()} == {id(t) for t in held_tensors(params)}

    def test_default_model_has_one_tensor_per_attention_projection(self):
        cfg = det.DetectorConfig()
        named = det.DetectorParams.init(cfg, np.random.default_rng(0)).named_parameters()
        assert len(named) == 78
        heads, d = cfg.heads, cfg.d_model
        assert named["enc0.attn.wq"].shape == (d, d)
        assert named["dec1.cross.wvo"].shape == (heads * d, d)

    def test_split_parts_round_trip(self):
        cfg = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg, RNG)
        out = det.forward_batch([rand_image()], params, cfg)
        parts = split_parts(out.layer_seqs[0], 2)
        np.testing.assert_array_equal(
            np.vstack([p.data for p in parts]), out.layer_seqs[0].data)
