"""Detector forward: patch embedding, extension, compression, heads."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from kaseq import amalgamation as ka
from kaseq import detector as det
from kaseq import tensor as T
from kaseq.errors import ConfigError, ContractError
from kaseq.tensor import Tensor

from helpers import (backbone_project, channel_norm, compress_redundancy_per_image,
                     finite_difference_grad, frobenius_sq, image_detections, is_leaf, rel_err,
                     split_parts, student_forward, teacher_forward)

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
        params.proj[1].w.data[:] = params.proj[0].w.data
        params.proj[1].b.data[:] = params.proj[0].b.data
        img = rand_image()
        a = backbone_project(img, params, cfg, 0)
        b = backbone_project(img, params, cfg, 1)
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_isolated_to_used_projection(self):
        cfg = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg, RNG)
        seq = backbone_project(rand_image(), params, cfg, 1)
        frobenius_sq(seq).backward()
        assert params.proj[1].w.grad is not None
        assert params.proj[0].w.grad is None

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_the_extended_sequence_is_one_op_over_the_part_projections(self, parts):
        cfg = tiny_cfg(num_parts=parts)
        params = det.DetectorParams.init(cfg, RNG)
        images = [rand_image() for _ in range(3)]
        out = det.extended_projection(images, params, cfg)
        nodes = T._topo_order(out)
        assert sum(not is_leaf(n) for n in nodes) == parts + 1
        assert [p._parents[0] for p in out._parents] == [proj.b for proj in params.proj]
        np.testing.assert_array_equal(out.data, np.concatenate(
            [backbone_project(img, params, cfg, t).data for img in images for t in range(parts)]))

    @pytest.mark.parametrize("images", [1, 4])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_each_projection_gets_the_gradient_of_its_own_rows(self, parts, images):
        cfg = tiny_cfg(num_parts=parts)
        params = det.DetectorParams.init(cfg, RNG)
        imgs = [rand_image() for _ in range(images)]
        out = det.extended_projection(imgs, params, cfg)
        g = RNG.standard_normal(out.shape)
        T.backward_seeded([out], [g])
        got = [(proj.w.grad, proj.b.grad) for proj in params.proj]
        for proj in params.proj:
            proj.w.grad = proj.b.grad = None
        # Image-major layout: block i * parts + t holds part t's tokens of image i.
        seeds = np.split(g, images * parts)
        for i, img in enumerate(imgs):
            for t in range(parts):
                T.backward_seeded([backbone_project(img, params, cfg, t)], [seeds[i * parts + t]])
        for (w, b), proj in zip(got, params.proj):
            np.testing.assert_allclose(w, proj.w.grad, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(b, proj.b.grad, rtol=1e-12, atol=1e-12)

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
        assert len(layers) == cfg.enc_layers + 1  # the projection output comes first
        assert layers[0].shape == (cfg.tokens, cfg.d_model)

    def test_memory_lengths_with_and_without_compression(self):
        img = rand_image()
        cfg2 = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg2, RNG)
        out = det.forward_batch([img], params, cfg2)
        assert out.layer_seqs[0].shape[0] == 2 * cfg2.tokens
        cfg2c = tiny_cfg(num_parts=2, compression="redundancy")
        out_c = det.forward_batch([img], params, cfg2c)
        assert out_c.layer_seqs[0].shape[0] == cfg2c.tokens  # reduced from N*n to n
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
        params.proj[1].w.data[:] = RNG.standard_normal(params.proj[1].w.shape)
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

    def test_random_compression_without_a_generator_draws_one_stream(self):
        # rng=None stands for one default_rng(0) stream, drawn in image
        # order, not for a fresh stream per image.
        cfg = tiny_cfg(num_parts=2, compression="random")
        params = det.DetectorParams.init(cfg, RNG)
        n, rows = cfg.tokens, 2 * cfg.tokens
        out = det.forward_batch([rand_image() for _ in range(4)], params, cfg)
        stream = np.random.default_rng(0)
        want = [b * rows + ka.compress_random(2, n, stream) for b in range(4)]
        np.testing.assert_array_equal(out.kept, np.concatenate(want))
        per_image = out.kept.reshape(4, n) % rows
        assert len({image.tobytes() for image in per_image}) > 1

    def test_external_guide_selects_the_kept_tokens(self):
        cfg = tiny_cfg(num_parts=2, compression="redundancy")
        params = det.DetectorParams.init(cfg, RNG)
        n, rows = cfg.tokens, 2 * cfg.tokens
        guide = RNG.standard_normal((3 * rows, cfg.d_model))
        out = det.forward_batch([rand_image() for _ in range(3)], params, cfg, guide=guide)
        want = [b * rows + compress_redundancy_per_image(guide[b * rows:(b + 1) * rows], 2, n)
                for b in range(3)]
        np.testing.assert_array_equal(out.kept, np.concatenate(want))


class CountingPool:
    """A real two-thread pool that counts the shares handed to it."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, *args):
        self.submitted += 1
        return self.pool.submit(*args)


class TestSplitForward:
    @pytest.mark.parametrize("batch", [1, 4, 5])
    @pytest.mark.parametrize("compression", det.COMPRESSION_MODES)
    @pytest.mark.parametrize("predict", [True, False])
    @pytest.mark.parametrize("enc_layers", [1, 2])
    def test_the_split_changes_no_output(self, monkeypatch, batch, compression, predict,
                                         enc_layers):
        cfg = tiny_cfg(num_parts=2, compression=compression, enc_layers=enc_layers)
        params = det.DetectorParams.init(cfg, np.random.default_rng(2))
        params.set_requires_grad(False)
        images = [rand_image() for _ in range(batch)]
        outs = []
        with ThreadPoolExecutor(max_workers=2) as executor:
            pool = CountingPool(executor)
            monkeypatch.setattr(T, "_share_pool", lambda: pool)
            for cores in (1, 2, 3):
                monkeypatch.setattr(T, "core_count", lambda: cores)
                before = pool.submitted
                outs.append(det.forward_batch(images, params, cfg, predict=predict,
                                              rng=np.random.default_rng(4)))
                assert pool.submitted - before == min(batch, cores) - 1
        whole = outs[0]
        for split in outs[1:]:
            assert split.batch == batch
            if whole.kept is None:
                assert split.kept is None
            else:
                assert split.kept.tobytes() == whole.kept.tobytes()
            pairs = list(zip(split.layer_seqs, whole.layer_seqs, strict=True))
            if predict:
                pairs += [(split.dists, whole.dists), (split.boxes, whole.boxes)]
            else:
                assert split.dists is None and split.boxes is None
            for got, want in pairs:
                assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("compression", det.COMPRESSION_MODES)
    def test_an_untaped_forward_records_no_tape(self, monkeypatch, share_pool, compression):
        cfg = tiny_cfg(num_parts=2, compression=compression)
        params = det.DetectorParams.init(cfg, np.random.default_rng(2))
        images = [rand_image() for _ in range(3)]
        monkeypatch.setattr(T, "core_count", lambda: 2)
        out = det.forward_batch(images, params, cfg)
        for t in out.layer_seqs + [out.dists, out.boxes]:
            assert t.requires_grad and t._parents
        params.set_requires_grad(False)
        out = det.forward_batch(images, params, cfg)
        for t in out.layer_seqs + [out.dists, out.boxes]:
            assert not t.requires_grad and t._parents == () and t._vjp is None

    @pytest.mark.parametrize("limit", [0, -2])
    def test_a_share_limit_below_one_is_rejected(self, monkeypatch, limit):
        monkeypatch.setattr(T, "_max_shares", None)
        with pytest.raises(ContractError, match="at least 1"):
            T.limit_shares(limit)
        assert T.share_count() == T.core_count()
        cfg = tiny_cfg()
        params = det.DetectorParams.init(cfg, np.random.default_rng(2))
        params.set_requires_grad(False)
        assert det.forward_batch([rand_image(), rand_image()], params, cfg).batch == 2


@pytest.fixture
def share_pool(monkeypatch):
    """A counting two-thread share pool, with no cap on the share count."""
    monkeypatch.setattr(T, "_max_shares", None)
    with ThreadPoolExecutor(max_workers=2) as executor:
        pool = CountingPool(executor)
        monkeypatch.setattr(T, "_share_pool", lambda: pool)
        yield pool


def over_split_cases(test):
    for mark in (pytest.mark.parametrize("compression", det.COMPRESSION_MODES),
                 pytest.mark.parametrize("predict", [True, False]),
                 pytest.mark.parametrize("enc_layers", [1, 2])):
        test = mark(test)
    return test


def coefficients(shape):
    return np.sin(np.arange(np.prod(shape), dtype=np.float64)).reshape(shape)


def every_output_loss(out):
    """A loss that reads every output, the sequences through channel_norm's
    statistics over the whole batch."""
    terms = [T.tsum(T.mul(channel_norm(seq), Tensor(coefficients(seq.shape))))
             for seq in out.layer_seqs]
    if out.dists is not None:
        terms += [T.tsum(T.mul(T.log_floor(out.dists),
                               Tensor(coefficients(out.dists.shape)))),
                  T.tsum(T.mul(out.boxes, Tensor(coefficients(out.boxes.shape))))]
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return total


def step_gradients(monkeypatch, cores, params, cfg, images, predict):
    """Each parameter's gradient after one step at ``cores`` cores, by name."""
    monkeypatch.setattr(T, "core_count", lambda: cores)
    named = params.named_parameters()
    for p in named.values():
        p.grad = None
    out = det.forward_batch(images, params, cfg, predict=predict, rng=np.random.default_rng(4))
    every_output_loss(out).backward()
    return {name: p.grad for name, p in named.items()}


class TestSplitBackward:
    def split_case(self, compression, enc_layers=2):
        cfg = tiny_cfg(num_parts=2, compression=compression, enc_layers=enc_layers)
        return det.DetectorParams.init(cfg, np.random.default_rng(2)), cfg

    @over_split_cases
    def test_a_taped_forward_reaches_the_share_pool(self, monkeypatch, share_pool, compression,
                                                    predict, enc_layers):
        params, cfg = self.split_case(compression, enc_layers)
        monkeypatch.setattr(T, "core_count", lambda: 2)
        out = det.forward_batch([rand_image() for _ in range(2)], params, cfg, predict=predict)
        assert share_pool.submitted == 1  # the forward's second share
        every_output_loss(out).backward()
        assert share_pool.submitted == 2  # and its backward

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_second_backward_through_a_split_forward_is_rejected(self, monkeypatch,
                                                                   share_pool, cores):
        params, cfg = self.split_case("redundancy")
        monkeypatch.setattr(T, "core_count", lambda: cores)
        out = det.forward_batch([rand_image() for _ in range(2)], params, cfg)
        loss = every_output_loss(out)
        loss.backward()
        with pytest.raises(ContractError, match="second backward"):
            loss.backward()

    @over_split_cases
    def test_split_gradients_equal_the_unsplit_step(self, monkeypatch, share_pool, compression,
                                                     predict, enc_layers):
        params, cfg = self.split_case(compression, enc_layers)
        images = [rand_image() for _ in range(5)]
        whole = step_gradients(monkeypatch, 1, params, cfg, images, predict)
        assert share_pool.submitted == 0
        last = f"enc{cfg.enc_layers - 1}.mlp.w2"
        assert whole["proj1.w"] is not None and whole[last] is not None
        assert (whole["class.w"] is not None) == predict
        for cores in (2, 3):
            split = step_gradients(monkeypatch, cores, params, cfg, images, predict)
            assert split["proj1.w"] is not None  # projected in the shares
            for name, want in whole.items():
                got = split[name]
                if want is None:
                    assert got is None, name
                    continue
                bound = 1e-9 * np.abs(want).max() + 1e-12
                assert np.abs(got - want).max() <= bound, name
        assert share_pool.submitted == 2 * (1 + 2)  # forward and backward, at 2 and 3 cores

    @over_split_cases
    def test_repeated_split_steps_give_byte_equal_gradients(self, monkeypatch, share_pool,
                                                            compression, predict, enc_layers):
        params, cfg = self.split_case(compression, enc_layers)
        images = [rand_image() for _ in range(5)]
        first, second = (step_gradients(monkeypatch, 3, params, cfg, images, predict)
                         for _ in range(2))
        for name, want in first.items():
            got = second[name]
            assert (got is None and want is None) or got.tobytes() == want.tobytes(), name

    def test_more_shares_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # Six shares on five pool threads, switching threads every
        # microsecond: a gradient lost or summed out of share order would
        # break the equality of two steps, or their closeness to one share.
        params, cfg = self.split_case("redundancy")
        images = [rand_image() for _ in range(6)]
        whole = step_gradients(monkeypatch, 1, params, cfg, images, True)
        steps = []
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(max_workers=5) as executor:
            monkeypatch.setattr(T, "_share_pool", lambda: executor)
            monkeypatch.setattr(T, "_max_shares", None)
            sys.setswitchinterval(1e-6)
            try:
                runner = threading.Thread(target=lambda: steps.extend(
                    step_gradients(monkeypatch, 6, params, cfg, images, True)
                    for _ in range(2)))
                runner.start()
                runner.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not runner.is_alive() and len(steps) == 2
        for name, want in whole.items():
            assert steps[0][name].tobytes() == steps[1][name].tobytes(), name
            bound = 1e-9 * np.abs(want).max() + 1e-12
            assert np.abs(steps[0][name] - want).max() <= bound, name

    @pytest.mark.parametrize("compression", ["none", "redundancy"])
    def test_split_sa_ta_gradient_matches_finite_differences(self, monkeypatch, share_pool,
                                                             compression):
        # The independent oracle: central differences of the loss, each
        # evaluated by a forward, and a sequence-level loss, split across two
        # cores.
        params, cfg = self.split_case(compression)
        monkeypatch.setattr(T, "core_count", lambda: 2)
        rng = np.random.default_rng(8)
        batch, n, m = 2, cfg.tokens, cfg.queries
        images = [rand_image() for _ in range(batch)]
        guide = rng.standard_normal((batch * 2 * n, cfg.d_model))
        teacher_layers = [rng.standard_normal((batch * 2 * n, cfg.d_model))
                          for _ in range(cfg.supervised_layers)]
        pool_dists = rng.dirichlet(np.ones(cfg.num_categories + 1), size=(batch, 2 * m))
        pool_boxes = rng.uniform(0.2, 0.6, size=(batch, 2 * m, 4))
        weights = ka.KAWeights()

        def step():
            out = det.forward_batch(images, params, cfg, guide=guide)
            keep = slice(None) if out.kept is None else out.kept
            seq = ka.sa_loss(out.layer_seqs,
                             lambda l: ka.concat_hint(teacher_layers[l][keep]), 0.5)
            task = ka.ta_loss(out.dists, out.boxes, pool_dists, pool_boxes, weights)
            return out, T.add(T.scale(seq, weights.lambda_seq),
                              T.scale(task, weights.lambda_task))

        _, loss = step()
        loss.backward()
        named = params.named_parameters()
        for name in ("proj0.w", "proj1.b", "enc0.attn.wq", "enc1.mlp.b2", "dec0.cross.wvo",
                     "queries", "class.w", "box.w3"):
            p = named[name]
            entries = np.unravel_index(np.arange(0, p.data.size, 1 + p.data.size // 3),
                                       p.shape)
            chosen = p.data[entries].copy()

            def loss_at(values):
                p.data[entries] = values
                try:
                    return step()[1].item()
                finally:
                    p.data[entries] = chosen

            numeric = finite_difference_grad(loss_at, chosen.copy(), h=1e-6)
            assert rel_err(p.grad[entries], numeric) < 1e-6, name


def no_library(name):
    raise OSError("no C library")


class TestFreedHeap:
    def test_the_setting_asks_malloc_to_keep_freed_heap(self, monkeypatch):
        calls = []
        library = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(det.ctypes, "CDLL", lambda name: library)
        det._keep_freed_heap()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("library", [lambda name: SimpleNamespace(), no_library],
                             ids=["no-mallopt", "no-library"])
    def test_without_mallopt_the_setting_does_nothing(self, monkeypatch, library):
        monkeypatch.setattr(det.ctypes, "CDLL", library)
        det._keep_freed_heap()

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc", reason="glibc's malloc only")
    def test_repeated_evaluate_calls_fault_in_few_pages(self):
        # Without the setting each call faulted in thousands of pages: glibc
        # handed the freed heap back and the next call touched it again. A
        # fresh interpreter, so that the count does not depend on the heap
        # and arenas that earlier tests left behind.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(det.__file__)))
        run = subprocess.run([sys.executable, "-c", EVALUATE_FAULTS], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        faults = json.loads(run.stdout)
        assert max(faults) <= 400, faults


# Minor page faults of three evaluate calls of a 2-part redundancy student at
# 2 shares, after a warm-up call.
EVALUATE_FAULTS = """
import json, resource
import numpy as np
from kaseq import detector as det, tensor as T, traineval as tv
from kaseq.data import generate_dataset

T.core_count = lambda: 2
cfg = det.DetectorConfig(num_parts=2, compression="redundancy")
ckpt = tv.make_checkpoint(det.DetectorParams.init(cfg, np.random.default_rng(3)), cfg)
dataset = generate_dataset(32, cfg.num_categories, cfg.image_size, seed=11)
tv.evaluate(ckpt, dataset)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tv.evaluate(ckpt, dataset)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


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


# The tensor names of a model with 2 parts, 2 encoder and 1 decoder layers.
TWO_PART_NAMES = [
    "proj0.w", "proj0.b", "proj1.w", "proj1.b",
    "enc0.ln1.g", "enc0.ln1.b", "enc0.attn.wq", "enc0.attn.wk", "enc0.attn.wvo",
    "enc0.ln2.g", "enc0.ln2.b", "enc0.mlp.w1", "enc0.mlp.b1", "enc0.mlp.w2", "enc0.mlp.b2",
    "enc1.ln1.g", "enc1.ln1.b", "enc1.attn.wq", "enc1.attn.wk", "enc1.attn.wvo",
    "enc1.ln2.g", "enc1.ln2.b", "enc1.mlp.w1", "enc1.mlp.b1", "enc1.mlp.w2", "enc1.mlp.b2",
    "dec0.ln1.g", "dec0.ln1.b", "dec0.self.wq", "dec0.self.wk", "dec0.self.wvo",
    "dec0.ln2.g", "dec0.ln2.b", "dec0.cross.wq", "dec0.cross.wk", "dec0.cross.wvo",
    "dec0.ln3.g", "dec0.ln3.b", "dec0.mlp.w1", "dec0.mlp.b1", "dec0.mlp.w2", "dec0.mlp.b2",
    "final_ln.g", "final_ln.b", "queries", "class.w", "class.b",
    "box.w1", "box.b1", "box.w2", "box.b2", "box.w3", "box.b3",
]


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

    @pytest.mark.parametrize("cfg, count, names", [
        (det.DetectorConfig(), 78, None),
        (det.DetectorConfig(num_parts=2, enc_layers=2, dec_layers=1), 53, TWO_PART_NAMES)],
        ids=["default", "two_parts"])
    def test_checkpoint_names_one_tensor_per_attention_projection(self, cfg, count, names):
        # Checkpoints store the tensors under these names, in this order.
        named = det.DetectorParams.init(cfg, np.random.default_rng(0)).named_parameters()
        assert len(named) == count
        assert names is None or list(named) == names
        heads, d = cfg.heads, cfg.d_model
        assert named["enc0.attn.wq"].shape == (d, d)
        assert named[f"dec{cfg.dec_layers - 1}.cross.wvo"].shape == (heads * d, d)

    def test_split_parts_round_trip(self):
        cfg = tiny_cfg(num_parts=2)
        params = det.DetectorParams.init(cfg, RNG)
        out = det.forward_batch([rand_image()], params, cfg)
        parts = split_parts(out.layer_seqs[0], 2)
        np.testing.assert_array_equal(
            np.vstack([p.data for p in parts]), out.layer_seqs[0].data)
