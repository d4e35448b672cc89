"""Optimizer, checkpoint format, AP evaluation, and training-loop contracts."""

import contextlib
import itertools
import os
import weakref

import numpy as np
import pytest

from kaseq import amalgamation as ka
from kaseq import detector as det
from kaseq import tensor as T
from kaseq import traineval as tv
from kaseq.data import Dataset, TaskPartition, generate_dataset
from kaseq.detector import DetectorConfig, DetectorParams, forward_batch
from kaseq.errors import ConfigError, ContractError, DataFormatError, NumericError
from kaseq.matching import box_cxcywh_to_corners
from kaseq.tensor import Tensor

from helpers import (ap_arrays, apply_task, box_cost, category_ap_per_threshold, check_grad,
                     collect_predictions_per_row, composed_ops)

RNG = np.random.default_rng(23)


def tiny_cfg(**kw):
    base = dict(image_size=32, patch_size=8, d_model=16, heads=2, enc_layers=2,
                dec_layers=1, queries=8, num_categories=8, num_parts=1, ffn_dim=32)
    base.update(kw)
    return DetectorConfig(**base)


@pytest.fixture(scope="module")
def tiny_train():
    return generate_dataset(count=24, num_categories=8, image_size=32, seed=5)


@pytest.fixture(scope="module")
def tiny_eval():
    return generate_dataset(count=8, num_categories=8, image_size=32, seed=6)


@pytest.fixture(scope="module")
def tiny_teachers(tiny_train):
    part = TaskPartition.equal_split(8, 2)
    cfg = tiny_cfg()
    return [tv.train_teacher(tiny_train, part.subset(t), t, cfg, epochs=1, seed=t,
                             batch_size=8)[0] for t in range(2)]


def _stored(cache):
    """Every array a teacher cache holds."""
    return cache.layers + ([cache.dists, cache.boxes] if cache.has_pool else [])


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        p = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
        before = p.data.copy()
        opt = tv.AdamW({"p": p}, tv.OptimSettings(lr=0.1, weight_decay=0.0))
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_single_scalar_step_matches_hand_computation(self):
        p = Tensor(np.asarray([[1.0]]), requires_grad=True)
        p.grad = np.asarray([[0.5]])
        s = tv.OptimSettings(lr=0.01, weight_decay=0.0)
        tv.AdamW({"p": p}, s).step()
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        expected = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + s.eps)
        assert p.data[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_decay_only_shrinks_multiplicatively(self):
        p = Tensor(np.asarray([[2.0]]), requires_grad=True)
        s = tv.OptimSettings(lr=0.05, weight_decay=0.2)
        tv.AdamW({"p": p}, s).step()
        assert p.data[0, 0] == pytest.approx(2.0 * (1 - 0.05 * 0.2), rel=1e-12)

    def test_lr_schedule_decays_at_two_thirds(self):
        assert tv.lr_scale_for_epoch(0, 30) == 1.0
        assert tv.lr_scale_for_epoch(19, 30) == 1.0
        assert tv.lr_scale_for_epoch(20, 30) == 0.1
        assert tv.lr_scale_for_epoch(29, 30) == 0.1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_cfg(num_parts=2)
        params = DetectorParams.init(cfg, RNG)
        ckpt = tv.make_checkpoint(params, cfg, {"seed": 1, "note": "x"})
        path = str(tmp_path / "model.ckpt")
        tv.save_checkpoint(ckpt, path)
        loaded = tv.load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.metadata["note"] == "x"
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name in ckpt.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], ckpt.tensors[name])
        rebuilt, _ = tv.detector_from_checkpoint(loaded)
        for name, p in rebuilt.named_parameters().items():
            np.testing.assert_array_equal(p.data, ckpt.tensors[name])

    @pytest.mark.parametrize("metadata, key", [
        ({"category_ids": [True, 2, 3, 4]}, "category_ids"),
        ({"category_ids": [0, 1, 2, 3]}, "category_ids"),
        ({"task_subset": [1.0, 2, 3, 4]}, "task_subset"),
        ({"partition": None}, "partition"),
        ({"partition": [[1, 2, 3, 4], []]}, "partition"),
        ({"partition": [[1, 2], [2, 3, 4]]}, "partition"),
    ], ids=["boolean_id", "zero_id", "float_in_subset", "null_partition", "empty_task",
            "overlapping_tasks"])
    def test_metadata_that_does_not_fit_the_model_is_rejected(self, tmp_path, metadata, key):
        cfg = tiny_cfg(num_categories=4)
        path = str(tmp_path / "model.ckpt")
        tv.save_checkpoint(tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg, metadata),
                           path)
        with pytest.raises(DataFormatError, match=f"model.ckpt: metadata '{key}'"):
            tv.load_checkpoint(path)

    @pytest.mark.parametrize("change", ["none", "one_ulp", "heads"])
    def test_the_teacher_digest_reads_the_config_and_every_value(self, tmp_path, change):
        cfg = tiny_cfg()
        ckpt = tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg, {"seed": 1})
        path = str(tmp_path / "teacher.ckpt")
        tv.save_checkpoint(ckpt, path)
        other = tv.load_checkpoint(path)
        if change == "one_ulp":
            w = other.tensors["class.w"]
            w[0, 0] = np.nextafter(w[0, 0], np.inf)
        elif change == "heads":
            other = tv.Checkpoint(tiny_cfg(heads=4), other.tensors, other.metadata)
        assert (tv._teacher_digest(other) == tv._teacher_digest(ckpt)) == (change == "none")

    def test_corrupt_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\0" * 100)
        with pytest.raises(DataFormatError, match="magic"):
            tv.load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = tiny_cfg()
        ckpt = tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg)
        path = str(tmp_path / "model.ckpt")
        tv.save_checkpoint(ckpt, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-16])
        with pytest.raises(DataFormatError, match="truncated|trailing"):
            tv.load_checkpoint(path)

    def test_byte_length_matches_documented_layout(self, tmp_path):
        import json as _json
        import struct as _struct
        rng = np.random.default_rng(77)
        for trial in range(50):
            cfg = tiny_cfg(d_model=8, heads=2, enc_layers=1, dec_layers=1,
                           ffn_dim=8, queries=int(rng.integers(1, 5)),
                           num_parts=int(rng.integers(1, 4)))
            ckpt = tv.make_checkpoint(DetectorParams.init(cfg, rng), cfg)
            path = str(tmp_path / f"m{trial}.ckpt")
            tv.save_checkpoint(ckpt, path)
            with open(path, "rb") as fh:
                raw = fh.read()
            assert raw[:4] == b"KASQ"
            (version,) = _struct.unpack_from("<I", raw, 4)
            (hlen,) = _struct.unpack_from("<I", raw, 8)
            assert version == 2
            header = _json.loads(raw[12:12 + hlen])
            payload = sum(8 * int(np.prod(e["shape"])) for e in header["tensors"])
            assert len(raw) == 12 + hlen + payload


def random_ap_case(rng):
    """One category's predictions and ground truth: predictions jittered
    around the boxes compete for them, with tied scores, images without
    ground truth, predictions on such images, NaN boxes, and now and then
    no prediction or no ground truth at all. A third of the cases put the
    ground truth and its jittered predictions on a 1/16 grid, where IoUs are
    exact: two boxes can tie for a prediction, and an IoU can equal a
    threshold (1/2, 3/4)."""
    n_images = int(rng.integers(1, 6))
    on_grid = rng.random() < 1 / 3

    def jitter(box):
        if on_grid:
            return box + rng.integers(-1, 2, 4) / 16
        return box + rng.normal(0.0, rng.choice([0.005, 0.02, 0.05]), 4)

    gts = {}
    for img in range(n_images):
        k = int(rng.integers(0, 4))  # 0: the image has no box of this category
        if k and rng.random() > 0.05:
            if on_grid:
                corners = rng.integers(0, 8, (k, 2)) / 16
                boxes = np.hstack([corners, corners + rng.integers(1, 8, (k, 2)) / 16])
            else:
                centers = rng.uniform(0.2, 0.8, (k, 2))
                sizes = rng.uniform(0.05, 0.4, (k, 2))
                boxes = box_cxcywh_to_corners(np.hstack([centers, sizes]))
            gts[img] = list(boxes)
    scores = rng.choice([0.3, 0.5, 0.7, 0.9], size=64)  # few values: many ties
    preds, slots = [], [0] * (n_images + 1)

    def add(img, box):
        preds.append((float(scores[len(preds)]), img, slots[img], box))
        slots[img] += 1

    for img, boxes in gts.items():
        for box in boxes:
            for _ in range(int(rng.integers(0, 4))):
                add(img, jitter(box))
    for _ in range(int(rng.integers(0, 4))):
        # n_images itself names an image with no ground truth at all
        img = int(rng.integers(0, n_images + 1))
        add(img, box_cxcywh_to_corners(np.r_[rng.uniform(0.2, 0.8, 2),
                                             rng.uniform(0.05, 0.4, 2)]))
    if rng.random() < 0.05:
        add(0, np.full(4, np.nan))
    if rng.random() < 0.05:
        preds = []
    rng.shuffle(preds)
    return preds, gts


class TestAPMachinery:
    def test_perfect_predictions_give_unit_ap(self):
        gts = {0: [np.array([0.1, 0.1, 0.5, 0.5])], 1: [np.array([0.2, 0.2, 0.8, 0.8])]}
        preds = [(1.0, img, 0, boxes[0]) for img, boxes in gts.items()]
        row = tv.category_ap(*ap_arrays(preds, gts), tv.IOU_THRESHOLDS)
        assert row.tolist() == pytest.approx([1.0] * len(tv.IOU_THRESHOLDS))

    def test_no_predictions_give_zero_ap(self):
        gts = {0: [np.array([0.1, 0.1, 0.5, 0.5])]}
        assert tv.category_ap(*ap_arrays([], gts), [0.5]).tolist() == [0.0]

    def test_no_ground_truth_skips_category(self):
        assert tv.category_ap(*ap_arrays([(0.9, 0, 0, np.zeros(4))], {}), [0.5]) is None

    def test_hand_built_false_positive_scenario(self):
        # Three images, one GT each; predictions: two exact hits (scores .9,
        # .8) and one miss at score .85. Ranking: TP, FP, TP.
        g1 = np.array([0.10, 0.10, 0.40, 0.40])
        g2 = np.array([0.20, 0.20, 0.60, 0.60])
        g3 = np.array([0.50, 0.50, 0.90, 0.90])
        gts = {0: [g1], 1: [g2], 2: [g3]}
        preds = [(0.9, 0, 0, g1), (0.85, 1, 0, np.array([0.7, 0.7, 0.9, 0.9])),
                 (0.8, 2, 0, g3)]
        # Precision after each rank: 1, 1/2, 2/3; recalls: 1/3, 1/3, 2/3.
        # 101-point AP: recall in [0, 1/3] -> max precision 1 (34 points);
        # (1/3, 2/3] -> 2/3 (33 points); beyond 2/3 -> 0.
        expected = (34 * 1.0 + 33 * (2.0 / 3.0)) / 101.0
        (ap,) = tv.category_ap(*ap_arrays(preds, gts), [0.5])
        assert ap == pytest.approx(expected, abs=1e-12)

    def test_removing_false_positive_never_decreases_ap(self):
        g = np.array([0.1, 0.1, 0.5, 0.5])
        gts = {0: [g]}
        with_fp = [(0.9, 0, 0, g), (0.95, 0, 1, np.array([0.6, 0.6, 0.9, 0.9]))]
        without = [(0.9, 0, 0, g)]
        assert (tv.category_ap(*ap_arrays(without, gts), [0.5])
                >= tv.category_ap(*ap_arrays(with_fp, gts), [0.5])).all()

    def test_equal_ious_go_to_the_first_box(self):
        # The first prediction overlaps both boxes at IoU 0.6. Taking the
        # first box leaves the second for the exact second prediction;
        # taking the second would leave it only the first, at IoU 1/3.
        g1, g2 = np.array([0, 0, 4, 4]) / 16, np.array([2, 0, 6, 4]) / 16
        gts = {0: [g1, g2]}
        preds = [(0.9, 0, 0, np.array([1, 0, 5, 4]) / 16), (0.8, 0, 1, g2)]
        row = tv.category_ap(*ap_arrays(preds, gts), tv.IOU_THRESHOLDS)
        assert row.tolist() == [category_ap_per_threshold(preds, gts, thr)
                                for thr in tv.IOU_THRESHOLDS]
        assert row[0] == 1.0

    def test_every_threshold_equals_the_per_threshold_oracle(self):
        rng = np.random.default_rng(2024)
        kinds = {"none": 0, "hits": 0, "misses": 0}
        for _ in range(2500):
            preds, gts = random_ap_case(rng)
            with np.errstate(invalid="ignore"):  # inverted jittered boxes give NaN IoUs
                expected = [category_ap_per_threshold(preds, gts, thr)
                            for thr in tv.IOU_THRESHOLDS]
                row = tv.category_ap(*ap_arrays(preds, gts), tv.IOU_THRESHOLDS)
            if expected[0] is None:
                assert row is None
                kinds["none"] += 1
                continue
            assert row.tolist() == expected  # bit-equal, threshold by threshold
            kinds["hits" if expected[0] > 0 else "misses"] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_collect_predictions_equals_the_per_row_oracle(self, tiny_eval):
        cfg = tiny_cfg()
        params = DetectorParams.init(cfg, np.random.default_rng(8))
        ids = list(range(11, 19))  # ids unlike their class positions
        got = tv.collect_predictions(params, cfg, tiny_eval, ids, batch_size=3)
        expected = collect_predictions_per_row(params, cfg, tiny_eval, ids, batch_size=3)
        assert list(got) == ids
        for c in ids:
            np.testing.assert_array_equal(got[c], ap_arrays(expected[c], {})[0])
        kept = sum(len(rows) for rows in got.values())
        assert 0 < kept < len(tiny_eval) * cfg.queries  # some slots are no-object

    def test_random_compression_does_not_depend_on_the_batch_size(self, tiny_eval):
        # One generator per call draws each image's token sources in image
        # order, whatever batch the image falls in.
        cfg = tiny_cfg(num_parts=2, compression="random")
        params = DetectorParams.init(cfg, np.random.default_rng(8))
        ids = list(range(1, 9))
        whole = tv.collect_predictions(params, cfg, tiny_eval, ids, batch_size=8)
        halves = tv.collect_predictions(params, cfg, tiny_eval, ids, batch_size=4)
        for c in ids:
            np.testing.assert_array_equal(whole[c], halves[c])

    @pytest.mark.parametrize("compression", det.COMPRESSION_MODES)
    def test_rows_do_not_depend_on_shares_or_batch_size(self, monkeypatch, tiny_eval,
                                                        compression):
        # Each share projects its images and selects their tokens; the random
        # rule still draws one stream, in image order across batches.
        cfg = tiny_cfg(num_parts=2, compression=compression)
        params = DetectorParams.init(cfg, np.random.default_rng(8))
        params.set_requires_grad(False)
        ids = list(range(1, 9))
        monkeypatch.setattr(T, "_max_shares", None)
        got = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(T, "core_count", lambda: cores)
            for batch_size in (1, 5, 32):
                got[cores, batch_size] = tv.collect_predictions(params, cfg, tiny_eval, ids,
                                                                batch_size)
        want = got[1, 32]
        assert sum(len(rows) for rows in want.values()) > 0
        for key, preds in got.items():
            assert list(preds) == ids
            for c in ids:
                assert preds[c].shape == want[c].shape, (key, c)
                assert preds[c].tobytes() == want[c].tobytes(), (key, c)

    def test_a_seeded_redundancy_student_predicts_pinned_rows(self):
        # The forward, pinned where the benchmark's AP reference is too loose
        # to notice: with the query init scaled by 1.00002 this fails.
        cfg = tiny_cfg(queries=4, num_parts=2, compression="redundancy")
        params = DetectorParams.init(cfg, np.random.default_rng(2024))
        data = generate_dataset(count=3, num_categories=8, image_size=32, seed=6)
        got = tv.collect_predictions(params, cfg, data, range(1, 9))
        assert all(len(rows) == 0 for c, rows in got.items() if c != 7)
        # (score, image, slot, x0, y0, x1, y1), computed with np.where relu
        # and np.var layer norm
        want = np.array([
            [0.49701210913367777, 0, 0, 0.5466511498581857, 0.494264998065284,
             0.7948108887477648, 0.6478593882122095],
            [0.38864509165261857, 0, 1, 0.497743685817742, 0.46526369868720197,
             0.7974425756602077, 0.6688256585325224],
            [0.3381041494348873, 0, 2, 0.5285919614574217, 0.567020711935781,
             0.8784984198412675, 0.7695585115266993],
            [0.4634167434102377, 0, 3, 0.516867157410966, 0.47832986169712943,
             0.7943974434320953, 0.6369784267605785],
            [0.4157015101619862, 1, 0, 0.48795846633333095, 0.44972472614793213,
             0.7710688917471886, 0.6099792539856955],
            [0.4237855950766137, 1, 1, 0.5188171453738033, 0.5174806173630295,
             0.8376027039270384, 0.7048355470881034],
            [0.3581364698736872, 1, 2, 0.525626387982012, 0.5571028058146882,
             0.8605100867469186, 0.7461846533720672],
            [0.4248571770269945, 1, 3, 0.4146045031646867, 0.40011889175517035,
             0.7513418933355915, 0.5721475814690786],
            [0.47223757869255567, 2, 0, 0.5635302782885129, 0.5149427311576018,
             0.817980343809478, 0.6552976114387419],
            [0.3658404871256339, 2, 1, 0.49749598044696786, 0.4665516081405278,
             0.8137215990289128, 0.6657236126599944],
            [0.3038649881800877, 2, 2, 0.4869553744214492, 0.5200272367939522,
             0.8570185587049619, 0.7247381948664202],
            [0.450752118954766, 2, 3, 0.5444522409881064, 0.504005630873356,
             0.8213679459573985, 0.6544536379724732]])
        np.testing.assert_allclose(got[7], want, rtol=1e-9, atol=0)


class TestEvaluate:
    def test_untrained_model_report_is_valid(self, tiny_eval):
        cfg = tiny_cfg()
        ckpt = tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg)
        part = TaskPartition.equal_split(8, 2)
        report = tv.evaluate(ckpt, tiny_eval, partition=part)
        for value in (report.ap, report.ap50, report.ap75):
            assert 0.0 <= value <= 1.0
        assert report.ap <= report.ap50 + 1e-12

    def test_evaluation_is_order_independent(self, tiny_eval):
        cfg = tiny_cfg()
        ckpt = tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg)
        base = tv.evaluate(ckpt, tiny_eval)
        perm = np.random.default_rng(3).permutation(len(tiny_eval))
        shuffled = Dataset([tiny_eval.image(i) for i in perm],
                           [tiny_eval._annotations[i] for i in perm],
                           tiny_eval.num_categories, tiny_eval.image_size)
        again = tv.evaluate(ckpt, shuffled)
        assert again.ap == pytest.approx(base.ap, abs=1e-12)
        assert again.ap50 == pytest.approx(base.ap50, abs=1e-12)

    def test_categories_and_partition_come_from_the_metadata(self, tiny_eval):
        cfg = tiny_cfg(num_categories=4)
        teacher = tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg,
                                     {"category_ids": [5, 6, 7, 8]})
        report = tv.evaluate(teacher, tiny_eval)
        assert report.per_category and set(report.per_category) <= {5, 6, 7, 8}
        assert report.per_subset == {}
        cfg = tiny_cfg()
        params = DetectorParams.init(cfg, RNG)
        recorded = tv.make_checkpoint(params, cfg, {"partition": [[1, 2, 3, 4], [5, 6, 7, 8]]})
        given = tv.evaluate(tv.make_checkpoint(params, cfg), tiny_eval,
                            partition=TaskPartition.equal_split(8, 2))
        assert set(given.per_subset) == {"task1", "task2"}
        assert tv.evaluate(recorded, tiny_eval) == given

    def test_evaluate_does_not_mutate_parameters(self, tiny_eval):
        cfg = tiny_cfg()
        params = DetectorParams.init(cfg, RNG)
        ckpt = tv.make_checkpoint(params, cfg)
        before = {k: v.copy() for k, v in ckpt.tensors.items()}
        tv.evaluate(ckpt, tiny_eval)
        for k in before:
            np.testing.assert_array_equal(ckpt.tensors[k], before[k])


class TestTrainingLoops:
    def test_teacher_training_runs_and_logs(self, tiny_train, tiny_eval, tmp_path):
        part = TaskPartition.equal_split(8, 2)
        csv_path = str(tmp_path / "teacher.csv")
        ckpt, losses = tv.train_teacher(
            tiny_train, part.subset(0), 0, tiny_cfg(), epochs=2, seed=0,
            eval_ds=tiny_eval, batch_size=8, csv_path=csv_path,
            opt_settings=tv.OptimSettings(lr=1e-3))
        assert len(losses) == 2 and all(np.isfinite(losses))
        assert ckpt.metadata["task_subset"] == [1, 2, 3, 4]
        assert ckpt.config.num_categories == 4
        with open(csv_path) as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0].split(",") == tv.METRICS_COLUMNS
        assert len(rows) == 3

    def test_deterministic_loss_trajectory_under_fixed_seed(self, tiny_train):
        part = TaskPartition.equal_split(8, 2)
        _, a = tv.train_teacher(tiny_train, part.subset(1), 1, tiny_cfg(), epochs=2, seed=9,
                                batch_size=8)
        _, b = tv.train_teacher(tiny_train, part.subset(1), 1, tiny_cfg(), epochs=2, seed=9,
                                batch_size=8)
        assert a == b

    @pytest.mark.parametrize("mode,parts,compression", [
        ("sa", 2, "none"), ("ta", 2, "none"), ("sa+ta", 2, "redundancy"),
        ("sag", 1, "none")])
    def test_amalgamation_modes_run(self, tiny_train, tiny_teachers, tmp_path,
                                    mode, parts, compression):
        cfg = tiny_cfg(num_parts=parts, compression=compression)
        csv_path = str(tmp_path / f"{mode}.csv")
        ckpt = tv.amalgamate(tiny_teachers, tiny_train, cfg, mode, epochs=1,
                             seed=3, batch_size=8, csv_path=csv_path)
        assert ckpt.metadata["mode"].startswith(mode)
        with open(csv_path) as fh:
            assert len(fh.read().strip().splitlines()) == 2

    def test_cache_rows_match_fresh_forward(self, tiny_train, tiny_teachers):
        part = TaskPartition.equal_split(8, 2)
        models = [tv.detector_from_checkpoint(ckpt) for ckpt in tiny_teachers]
        ids = np.array([3, 17, 0])
        fresh = [forward_batch([tiny_train.image(i) for i in ids], params, cfg)
                 for params, cfg in models]
        n, m, d = models[0][1].tokens, models[0][1].queries, models[0][1].d_model
        close = dict(rtol=1e-6, atol=1e-6)  # the cache stores float32

        def per_image(rows, width):  # (B K, w) rows of each teacher -> (B, N K, w)
            return np.concatenate([r.reshape(len(ids), width, -1) for r in rows], axis=1)

        for pool in (True, False):  # a full build, then an encoder-only one
            cache = tv.TeacherCache(models, tiny_train, part, len(fresh[0].layer_seqs), pool,
                                    batch_size=8)
            for layer in range(len(fresh[0].layer_seqs)):
                want = per_image([out.layer_seqs[layer].data for out in fresh], n)
                np.testing.assert_allclose(cache.layer_rows(layer, ids), want.reshape(-1, d),
                                           **close)
            if pool:
                dists, boxes = cache.pool_rows(ids)
                np.testing.assert_allclose(dists, per_image(
                    [ka.pad_predictions(out.dists.data, part, t) for t, out in enumerate(fresh)],
                    m), **close)
                np.testing.assert_allclose(boxes, per_image([out.boxes.data for out in fresh], m),
                                           **close)

    def _memo_cache(self, teachers, dataset, mode, parts, compression="none"):
        """The one cache that an ``epochs=0`` run of ``mode`` leaves in a fresh memo."""
        memo = {}
        tv.amalgamate(teachers, dataset, tiny_cfg(num_parts=parts, compression=compression),
                      mode, epochs=0, seed=3, teachers_by_id=memo)
        (cache,) = memo.values()
        return cache

    @pytest.mark.parametrize("mode, parts", [("sa", 2), ("sag", 1)])
    def test_sequence_level_builds_skip_the_teachers_decoder(self, tiny_train, tiny_teachers,
                                                            monkeypatch, mode, parts):
        shipped, decoded = det.tf.decoder_forward, []

        def decoder_forward(*args, **kwargs):
            decoded.append(1)
            return shipped(*args, **kwargs)

        monkeypatch.setattr(det.tf, "decoder_forward", decoder_forward)
        cache = self._memo_cache(tiny_teachers, tiny_train, mode, parts)
        assert decoded == [] and not cache.has_pool and cache.dists is cache.boxes is None
        models = [tv.detector_from_checkpoint(ckpt) for ckpt in tiny_teachers]
        full = tv.TeacherCache(models, tiny_train, TaskPartition.equal_split(8, 2), 3, True)
        assert decoded  # the full build does run it
        assert len(cache.layers) == len(full.layers) == 3
        for a, b in zip(cache.layers, full.layers, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("compression, layers", [("none", 0), ("redundancy", 1),
                                                     ("isometric", 0), ("random", 0)])
    def test_task_level_builds_keep_only_the_compression_guide(self, tiny_train, tiny_teachers,
                                                               compression, layers):
        cache = self._memo_cache(tiny_teachers, tiny_train, "ta", 2, compression)
        assert len(cache.layers) == layers and cache.has_pool

    def test_reading_what_the_cache_does_not_hold_raises(self, tiny_train, tiny_teachers):
        models = [tv.detector_from_checkpoint(ckpt) for ckpt in tiny_teachers]
        cache = tv.TeacherCache(models, tiny_train, TaskPartition.equal_split(8, 2), 1, False)
        ids = np.array([0, 5])
        assert cache.layer_rows(0, ids).shape == (2 * 2 * models[0][1].tokens, 16)
        for read in (lambda: cache.layer_rows(1, ids), lambda: cache.layer_rows(-1, ids),
                     lambda: cache.pool_rows(ids)):
            with pytest.raises(ContractError):
                read()

    def test_one_memo_serves_the_table4_modes(self, tiny_train, tiny_teachers, monkeypatch):
        shipped, refs, builds = tv.TeacherCache, [], []

        def build(*args, **kwargs):
            alive = sum(ref() is not None for ref in refs)  # earlier caches still alive
            cache = shipped(*args, **kwargs)
            refs.append(weakref.ref(cache))
            builds.append((alive, len(cache.layers), cache.has_pool))
            return cache

        monkeypatch.setattr(tv, "TeacherCache", build)
        cells = [("sag", 1), ("sa", 2), ("ta", 2), ("sa+ta", 2)]  # the order of table 4

        def student(mode, parts, memo):
            return tv.amalgamate(tiny_teachers, tiny_train, tiny_cfg(num_parts=parts), mode,
                                 epochs=1, seed=3, batch_size=8, teachers_by_id=memo)

        memo = {}
        shared = [student(mode, parts, memo) for mode, parts in cells]
        # An encoder-only build for sag and sa, then one with the pool, in place of it.
        assert builds == [(0, 3, False), (0, 3, True)] and len(memo) == 1
        for (mode, parts), got in zip(cells, shared):
            want = student(mode, parts, {})
            assert got.tensors.keys() == want.tensors.keys()
            for name, value in want.tensors.items():
                assert got.tensors[name].tobytes() == value.tobytes(), (mode, name)

    def _sa_student(self, teachers, dataset, memo=None):
        return tv.amalgamate(teachers, dataset, tiny_cfg(num_parts=2), "sa", epochs=1,
                             seed=3, batch_size=8, teachers_by_id=memo)

    def assert_same_student(self, a, b):
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_teacher_memo_hits_for_the_same_teachers_and_dataset(self, tiny_train,
                                                                 tiny_teachers):
        memo = {}
        first = self._sa_student(tiny_teachers, tiny_train, memo)
        caches = list(memo.values())
        again = self._sa_student(tiny_teachers, tiny_train, memo)
        assert len(caches) == 1 and list(memo.values()) == caches
        self.assert_same_student(first, again)

    def test_teacher_memo_separates_equal_length_datasets(self, tiny_train, tiny_teachers):
        other = generate_dataset(count=len(tiny_train), num_categories=8, image_size=32,
                                 seed=7)
        memo = {}
        self._sa_student(tiny_teachers, tiny_train, memo)
        self.assert_same_student(self._sa_student(tiny_teachers, other, memo),
                                 self._sa_student(tiny_teachers, other))
        assert len(memo) == 2

    def test_teacher_memo_separates_teachers_with_equal_subsets(self, tiny_train,
                                                                tiny_teachers):
        part = TaskPartition.equal_split(8, 2)
        retrained = tv.train_teacher(tiny_train, part.subset(0), 0, tiny_cfg(), epochs=1,
                                     seed=11, batch_size=8)[0]
        assert retrained.metadata["task_subset"] == tiny_teachers[0].metadata["task_subset"]
        swapped = [retrained, tiny_teachers[1]]
        memo = {}
        self._sa_student(tiny_teachers, tiny_train, memo)
        self.assert_same_student(self._sa_student(swapped, tiny_train, memo),
                                 self._sa_student(swapped, tiny_train))
        assert len(memo) == 2

    def test_label_free_never_reads_annotations(self, tiny_teachers):
        fresh = generate_dataset(count=16, num_categories=8, image_size=32, seed=44)
        cfg = tiny_cfg(num_parts=2)
        assert fresh.annotation_reads == 0
        tv.amalgamate(tiny_teachers, fresh, cfg, "sa+ta", epochs=1, seed=0,
                      batch_size=8, label_free=True)
        assert fresh.annotation_reads == 0
        tv.amalgamate(tiny_teachers, fresh, cfg, "sa+ta", epochs=1, seed=0,
                      batch_size=8, label_free=False)
        assert fresh.annotation_reads > 0

    def test_overlapping_teacher_partitions_rejected(self, tiny_train, tiny_teachers):
        bad = tv.Checkpoint(config=tiny_teachers[0].config,
                            tensors=dict(tiny_teachers[0].tensors),
                            metadata=dict(tiny_teachers[0].metadata))
        bad.metadata["task_subset"] = [1, 2, 3, 4]  # same as teacher 0
        with pytest.raises(ContractError):
            tv.amalgamate([tiny_teachers[0], bad], tiny_train,
                          tiny_cfg(num_parts=2), "sa", epochs=1, seed=0)

    def test_sag_forbids_extension(self, tiny_train, tiny_teachers):
        with pytest.raises(ConfigError, match="detector.num_parts"):
            tv.amalgamate(tiny_teachers, tiny_train, tiny_cfg(num_parts=2),
                          "sag", epochs=1, seed=0)

    @pytest.mark.parametrize("second, student, mode, counts", [
        ({"enc_layers": 1}, {}, "sa", ("3 and 2",)),
        ({}, {"enc_layers": 3}, "sag", ("supervises 4 layers", "teachers 3")),
    ], ids=["teachers_differ_in_depth", "student_deeper_than_its_teachers"])
    def test_supervision_depths_that_differ_are_rejected(self, tiny_train, second, student,
                                                         mode, counts):
        teachers = []
        for t, overrides in enumerate(({}, second)):
            cfg = tiny_cfg(num_categories=4, **overrides)
            teachers.append(tv.make_checkpoint(
                DetectorParams.init(cfg, np.random.default_rng(t)), cfg,
                {"task_subset": [1, 2, 3, 4] if t == 0 else [5, 6, 7, 8]}))
        parts = 1 if mode == "sag" else 2
        with pytest.raises(ConfigError) as caught:
            tv.amalgamate(teachers, tiny_train, tiny_cfg(num_parts=parts, **student), mode,
                          epochs=1, seed=0, batch_size=8)
        assert all(text in str(caught.value) for text in counts)

    def test_a_task_student_of_any_depth_is_accepted(self, tiny_train, tiny_teachers):
        ckpt = tv.amalgamate(tiny_teachers, tiny_train, tiny_cfg(num_parts=2, enc_layers=1),
                             "ta", epochs=1, seed=0, batch_size=8)
        assert ckpt.config.enc_layers == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_nan_guard_dumps_and_raises(self, tiny_train, tmp_path):
        cfg = tiny_cfg()
        dump = str(tmp_path / "crash.ckpt")
        with pytest.raises(NumericError):
            tv.train_detector_gt(tiny_train, cfg, epochs=1, seed=0,
                                 category_ids=list(range(1, 9)),
                                 opt_settings=tv.OptimSettings(lr=1e300),
                                 batch_size=8, crash_dump=dump)
        assert os.path.exists(dump)
        tv.load_checkpoint(dump)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_nan_guard_on_the_amalgamation_path(self, tiny_train, tiny_teachers, tmp_path):
        # Without the guard on the forward outputs, the TA matcher would fail
        # first, with a ContractError on a non-finite cost.
        dump = str(tmp_path / "crash.ckpt")
        with pytest.raises(NumericError):
            tv.amalgamate(tiny_teachers, tiny_train,
                          tiny_cfg(num_parts=2, compression="redundancy"), "sa+ta",
                          epochs=1, seed=0, batch_size=8,
                          opt_settings=tv.OptimSettings(lr=1e300), crash_dump=dump)
        assert tv.load_checkpoint(dump).metadata["mode"] == "sa+ta"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_nan_guard_on_the_label_free_sequence_path(self, tiny_train, tiny_teachers,
                                                       tmp_path, monkeypatch):
        # No prediction is made, so the guard reads the sequences: the
        # sequence loss only ever sees finite ones.
        finite = []
        sa_loss = ka.sa_loss

        def recording_sa_loss(student, hint, scale):
            finite.append(all(np.isfinite(seq.data).all() for seq in student))
            return sa_loss(student, hint, scale)

        monkeypatch.setattr(ka, "sa_loss", recording_sa_loss)
        dump = str(tmp_path / "crash.ckpt")
        with pytest.raises(NumericError):
            tv.amalgamate(tiny_teachers, tiny_train, tiny_cfg(num_parts=2), "sa", epochs=1,
                          seed=0, batch_size=8, label_free=True,
                          opt_settings=tv.OptimSettings(lr=1e300), crash_dump=dump)
        assert finite and all(finite)
        assert tv.load_checkpoint(dump).metadata["mode"] == "sa_lf"

    @pytest.mark.parametrize("mode, parts, compression, label_free, predicts", [
        ("sa", 2, "random", True, False),
        ("sag", 1, "none", True, False),
        ("sa", 2, "none", False, True),
        ("ta", 2, "none", True, True),
        ("sa+ta", 2, "redundancy", True, True),
    ], ids=["sa_label_free", "sag_label_free", "sa_with_ground_truth", "ta_label_free",
            "sata_label_free"])
    def test_predictions_are_made_only_where_the_loss_reads_them(
            self, tiny_train, tiny_teachers, tmp_path, monkeypatch,
            mode, parts, compression, label_free, predicts):
        # The full forward pass on every step is the oracle: skipping the
        # decoder and heads must leave the student and its losses bit-equal.
        cfg = tiny_cfg(num_parts=parts, compression=compression)
        shipped_forward, shipped_fit = tv.forward_batch, tv._fit

        def train(force_predict):
            predicted, epoch_terms = [], []

            def forward(*args, **kwargs):
                if force_predict:
                    kwargs["predict"] = True
                out = shipped_forward(*args, **kwargs)
                if args[2] is cfg:  # a student step, not a teacher-cache batch
                    predicted.append(out.dists is not None and out.boxes is not None)
                return out

            def fit(*args, **kwargs):
                ckpt, terms = shipped_fit(*args, **kwargs)
                epoch_terms.append(terms)
                return ckpt, terms

            with monkeypatch.context() as patch:
                patch.setattr(tv, "forward_batch", forward)
                patch.setattr(tv, "_fit", fit)
                ckpt = tv.amalgamate(tiny_teachers, tiny_train, cfg, mode, epochs=2, seed=4,
                                     batch_size=8, label_free=label_free,
                                     opt_settings=tv.OptimSettings(lr=1e-3))
            path = tmp_path / f"{mode}_{force_predict}.ckpt"
            tv.save_checkpoint(ckpt, str(path))
            return path.read_bytes(), epoch_terms, predicted

        shipped, shipped_terms, shipped_predicted = train(force_predict=False)
        full, full_terms, full_predicted = train(force_predict=True)
        assert shipped_predicted == [predicts] * 6  # 2 epochs of 3 steps
        assert full_predicted == [True] * 6
        assert shipped == full
        assert shipped_terms == full_terms


class TestSplitForwards:
    def test_training_steps_split_and_match_one_core(self, tiny_train, tiny_teachers,
                                                      monkeypatch):
        cfg = tiny_cfg(num_parts=2, compression="redundancy")
        memo = {}
        monkeypatch.setattr(T, "_max_shares", None)
        submitted, shipped_pool = [], T._share_pool

        def share_pool():
            submitted.append(1)
            return shipped_pool()

        monkeypatch.setattr(T, "_share_pool", share_pool)
        students = []
        for cores in (1, 2):
            monkeypatch.setattr(T, "core_count", lambda: cores)
            del submitted[:]
            students.append(tv.amalgamate(tiny_teachers, tiny_train, cfg, "sa+ta", epochs=2,
                                          seed=3, batch_size=8, teachers_by_id=memo,
                                          opt_settings=tv.OptimSettings(lr=1e-3)))
            # 2 epochs of 3 steps, each in two shares: the forward, the
            # sequence-level loss's forward and backward, and the share backward
            assert len(submitted) == (0 if cores == 1 else 6 * 4)
        one, two = students
        for name, want in one.tensors.items():
            # Summing by share changes the rounding of each gradient, and
            # Adam's per-coordinate step scales the difference up.
            np.testing.assert_allclose(two.tensors[name], want, rtol=0,
                                       atol=1e-9 * np.abs(want).max(), err_msg=name)

    @pytest.mark.parametrize("mode, parts", [("sa", 2), ("sag", 1)])
    def test_label_free_students_agree_across_shares(self, tiny_train, tiny_teachers,
                                                     monkeypatch, mode, parts):
        # No loss reads predictions, so only channel norms read the last
        # encoder layer: its output bias has a zero true gradient and stays
        # frozen: AdamW would otherwise step it by share-dependent rounding.
        cfg = tiny_cfg(num_parts=parts)
        dead = f"enc{cfg.enc_layers - 1}.mlp.b2"
        initial = DetectorParams.init(cfg, np.random.default_rng(0)).named_parameters()[dead]
        monkeypatch.setattr(T, "_max_shares", None)
        students, memo = [], {}
        for cores in (1, 2):
            monkeypatch.setattr(T, "core_count", lambda: cores)
            students.append(tv.amalgamate(tiny_teachers, tiny_train, cfg, mode, epochs=2,
                                          seed=0, batch_size=8, label_free=True,
                                          teachers_by_id=memo,
                                          opt_settings=tv.OptimSettings(lr=1e-3)))
        one, two = students
        for ckpt in students:
            assert ckpt.tensors[dead].tobytes() == initial.data.tobytes()
        assert not np.array_equal(one.tensors["enc0.mlp.b2"], initial.data)  # the others train
        for name, want in one.tensors.items():
            # A hidden unit of the last MLP that is active on every row of a
            # batch shifts that layer's columns by a constant, so its b1 entry
            # is dead on that batch too. Such entries are not frozen (which
            # units they are depends on the data), and here they differ by up
            # to 4e-6 of max |b1| between share counts.
            rel = 1e-5 if name == f"enc{cfg.enc_layers - 1}.mlp.b1" else 1e-9
            np.testing.assert_allclose(two.tensors[name], want, rtol=0,
                                       atol=rel * np.abs(want).max(), err_msg=name)

    @pytest.mark.parametrize("mode, parts", [("sa", 2), ("sag", 1)])
    def test_label_free_students_train_only_projections_and_encoder(
            self, tiny_train, tiny_teachers, monkeypatch, mode, parts):
        cfg = tiny_cfg(num_parts=parts)
        dead = f"enc{cfg.enc_layers - 1}.mlp.b2"
        initial = DetectorParams.init(cfg, np.random.default_rng(0)).named_parameters()
        memo = {}

        def train():
            return tv.amalgamate(tiny_teachers, tiny_train, cfg, mode, epochs=2, seed=0,
                                 batch_size=8, label_free=True, teachers_by_id=memo,
                                 opt_settings=tv.OptimSettings(lr=1e-3))

        student = train()
        # The earlier trainable set held every tensor but the dead b2, and
        # AdamW decayed those that no loss reads.
        shipped_fit = tv._fit

        def fit_all(params, trainable, *args, **kwargs):
            for name, p in params.named_parameters().items():
                if name not in trainable and name != dead:
                    p.requires_grad = True
                    trainable[name] = p
            return shipped_fit(params, trainable, *args, **kwargs)

        monkeypatch.setattr(tv, "_fit", fit_all)
        decayed = train()
        for name, init in initial.items():
            got = student.tensors[name].tobytes()
            if name.startswith(("proj", "enc")) and name != dead:
                assert got == decayed.tensors[name].tobytes(), name
                assert got != init.data.tobytes(), name
            else:
                assert got == init.data.tobytes(), name
        for name in ("dec0.mlp.w1", "queries", "class.w", "box.w3", "final_ln.g"):
            assert decayed.tensors[name].tobytes() != initial[name].data.tobytes()

    def test_the_cache_freezes_its_teachers(self, tiny_train, tiny_teachers, monkeypatch):
        part = TaskPartition.equal_split(8, 2)
        shipped_forward, taped = tv.forward_batch, []

        def forward(*args, **kwargs):
            out = shipped_forward(*args, **kwargs)
            taped.append(any(t.requires_grad for t in out.layer_seqs + [out.dists, out.boxes]
                             if t is not None))
            return out

        monkeypatch.setattr(tv, "forward_batch", forward)
        for pool in (True, False):  # a full build and an encoder-only one
            frozen = [tv.detector_from_checkpoint(ckpt) for ckpt in tiny_teachers]
            for params, _ in frozen:
                params.set_requires_grad(False)
            given = [tv.detector_from_checkpoint(ckpt) for ckpt in tiny_teachers]
            del taped[:]
            built, reference = (tv.TeacherCache(models, tiny_train, part, 3, pool, batch_size=10)
                                for models in (given, frozen))
            assert taped == [False] * (2 * 2 * 3)  # 2 caches, 2 teachers, 3 batches
            assert not any(p.requires_grad for params, _ in given
                           for p in params.named_parameters().values())
            for a, b in zip(_stored(built), _stored(reference), strict=True):
                assert a.tobytes() == b.tobytes()

    def test_teacher_cache_is_the_same_at_one_and_two_cores(self, tiny_train, tiny_teachers,
                                                             monkeypatch):
        part = TaskPartition.equal_split(8, 2)
        models = [tv.detector_from_checkpoint(ckpt) for ckpt in tiny_teachers]
        monkeypatch.setattr(T, "_max_shares", None)
        pools, shipped_pool = [], T._share_pool

        def share_pool():
            pools.append(shipped_pool())
            return pools[-1]

        monkeypatch.setattr(T, "_share_pool", share_pool)
        for pool in (True, False):  # a full build and an encoder-only one
            caches = []
            for cores in (1, 2):
                monkeypatch.setattr(T, "core_count", lambda: cores)
                del pools[:]
                caches.append(tv.TeacherCache(models, tiny_train, part, 3, pool, batch_size=5))
                assert len(pools) == (0 if cores == 1 else 2 * 5)  # 2 teachers, 5 batches
            one, two = caches
            assert len(_stored(one)) == (5 if pool else 3)
            for a, b in zip(_stored(one), _stored(two), strict=True):
                assert a.tobytes() == b.tobytes()


class TestFusedLayersTrainAsComposed:
    """Every layer's fused matmul_add and mlp ops against the composed tape
    ops, over whole training steps."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_students_are_byte_equal(self, tiny_train, tiny_teachers, monkeypatch, cores):
        # sa+ta with the ground-truth term runs the projections, the encoder,
        # the decoder and both heads, each share on its own thread. With two
        # decoder layers the memory's gradient sums four terms, whose order
        # follows the order in which the backward walk meets the nodes.
        cfg = tiny_cfg(num_parts=2, compression="redundancy", dec_layers=2)
        monkeypatch.setattr(T, "_max_shares", None)
        monkeypatch.setattr(T, "core_count", lambda: cores)
        memo, students = {}, []
        for context in (contextlib.nullcontext, composed_ops):
            with context():
                students.append(tv.amalgamate(
                    tiny_teachers, tiny_train, cfg, "sa+ta", epochs=2, seed=3, batch_size=8,
                    teachers_by_id=memo, opt_settings=tv.OptimSettings(lr=1e-3)))
        fused, composed = students
        for name, want in composed.tensors.items():
            assert fused.tensors[name].tobytes() == want.tobytes(), name


class TestObjective:
    """The objective ``amalgamate`` hands the training loop, evaluated on one
    forward of the student it would train."""

    @staticmethod
    def objective_value(teachers, dataset, monkeypatch, label_free=False, **lambdas):
        captured = {}

        def fit(params, trainable, cfg, train_ds, epochs, batch_size, rng, opt_settings,
                metadata, objective, guide=None, predict=True, **kwargs):
            captured.update(params=params, cfg=cfg, objective=objective, guide=guide,
                            predict=predict)
            return tv.make_checkpoint(params, cfg), []

        monkeypatch.setattr(tv, "_fit", fit)
        tv.amalgamate(teachers, dataset, tiny_cfg(num_parts=2, compression="redundancy"),
                      "sa+ta", epochs=1, seed=3, label_free=label_free,
                      weights=ka.KAWeights(**lambdas))
        idx = np.arange(8)
        guide = captured["guide"]
        out = forward_batch([dataset.image(i) for i in idx], captured["params"],
                            captured["cfg"], guide=None if guide is None else guide(idx),
                            predict=captured["predict"])
        loss, terms = captured["objective"](out, idx)
        return loss.item(), {key: term.item() for key, term in terms.items()}

    def test_the_loss_is_the_lambda_weighted_sum_and_linear_in_the_lambdas(
            self, tiny_train, tiny_teachers, monkeypatch):
        lambdas = dict(lambda_seq=0.3, lambda_task=0.9, lambda_direct=0.2)
        loss, terms = self.objective_value(tiny_teachers, tiny_train, monkeypatch, **lambdas)
        assert list(terms) == ["seq", "task", "direct"]
        assert loss == pytest.approx(sum(lambdas[f"lambda_{k}"] * v for k, v in terms.items()),
                                     rel=1e-12)
        doubled, doubled_terms = self.objective_value(
            tiny_teachers, tiny_train, monkeypatch, **{k: 2 * v for k, v in lambdas.items()})
        assert doubled_terms == terms
        assert doubled == pytest.approx(2 * loss, rel=1e-12)
        zero, _ = self.objective_value(tiny_teachers, tiny_train, monkeypatch, lambda_seq=0.0,
                                       lambda_task=0.0, lambda_direct=0.0)
        assert zero == 0.0

    def test_a_label_free_objective_has_no_direct_term(self, tiny_train, tiny_teachers,
                                                       monkeypatch):
        loss, terms = self.objective_value(tiny_teachers, tiny_train, monkeypatch,
                                           label_free=True, lambda_direct=100.0)
        assert list(terms) == ["seq", "task"]
        assert loss == pytest.approx(terms["seq"] + terms["task"], rel=1e-12)


def detection_loss_oracle(dists, boxes, targets, weights, eos_coef=0.1):
    """The ground-truth loss by brute force: per image, the injective map of
    objects to slots of least -p[label] + l1 + (1 - GIoU) cost; then the
    class NLL over every slot, unmatched ones weighted by ``eos_coef`` and
    labelled no-object, over the weight sum, plus the matched box costs over
    the box count."""
    m = dists.shape[0] // len(targets)
    background = dists.shape[1] - 1
    nll = weight_sum = box_sum = 0.0
    boxes_matched = 0
    for b, (gt_boxes, gt_labels) in enumerate(targets):
        p, pred = dists[b * m:(b + 1) * m], boxes[b * m:(b + 1) * m]

        def box_term(gi, slot):
            return box_cost(gt_boxes[gi], pred[slot], weights.l1_weight, weights.giou_weight)

        best = min(itertools.permutations(range(m), len(gt_labels)),
                   key=lambda slots: sum(-p[s, gt_labels[gi]] + box_term(gi, s)
                                         for gi, s in enumerate(slots)))
        labels = {s: gt_labels[gi] for gi, s in enumerate(best)}
        for slot in range(m):
            w = 1.0 if slot in labels else eos_coef
            nll -= w * np.log(max(p[slot, labels.get(slot, background)], T.LOG_FLOOR))
            weight_sum += w
        box_sum += sum(box_term(gi, s) for gi, s in enumerate(best))
        boxes_matched += len(best)
    return nll / weight_sum + (box_sum / boxes_matched if boxes_matched else 0.0)


class TestDetectionLoss:
    """``detection_loss`` against the brute-force oracle, value and gradient."""

    CLASSES, SLOTS = 3, 5

    def case(self, seed, objects):
        rng = np.random.default_rng(seed)
        dists = rng.dirichlet(np.ones(self.CLASSES + 1), size=len(objects) * self.SLOTS)
        boxes = np.concatenate([rng.uniform(0.3, 0.7, size=(len(objects) * self.SLOTS, 2)),
                                rng.uniform(0.1, 0.4, size=(len(objects) * self.SLOTS, 2))],
                               axis=1)
        targets = [(np.column_stack([rng.uniform(0.3, 0.7, size=(g, 2)),
                                     rng.uniform(0.1, 0.4, size=(g, 2))]),
                    rng.integers(0, self.CLASSES, size=g)) for g in objects]
        return dists, boxes, targets

    def loss(self, dists, boxes, targets, weights):
        out = det.BatchOutput(dists=dists, boxes=boxes, layer_seqs=[], kept=None,
                              batch=len(targets))
        return tv.detection_loss(out, targets, self.CLASSES, weights)

    @pytest.mark.parametrize("objects", [(3, 0, 2), (1, 3), (0, 0)],
                             ids=["with_an_empty_image", "every_image", "no_objects"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_brute_force_oracle(self, seed, objects):
        dists, boxes, targets = self.case(seed, objects)
        weights = ka.KAWeights()
        got = self.loss(Tensor(dists), Tensor(boxes), targets, weights).item()
        assert got == pytest.approx(detection_loss_oracle(dists, boxes, targets, weights),
                                    rel=1e-12)

    @pytest.mark.parametrize("objects", [(3, 0, 2), (0, 0)], ids=["with_objects", "no_objects"])
    def test_gradient_matches_finite_differences(self, objects):
        dists, boxes, targets = self.case(7, objects)
        weights = ka.KAWeights()
        check_grad(lambda d: self.loss(d, Tensor(boxes), targets, weights), dists)
        if any(objects):
            check_grad(lambda b: self.loss(Tensor(dists), b, targets, weights), boxes)


class TestBatchLosses:
    def test_batch_targets_equal_the_per_task_filter(self, tiny_train):
        part = TaskPartition.equal_split(8, 2)
        idx = np.arange(len(tiny_train))
        kept_total = 0
        for t in range(part.num_tasks):
            subset = sorted(part.subset(t))
            for i, (boxes, labels) in zip(idx, tv._batch_targets(tiny_train, idx, subset)):
                kept = apply_task(tiny_train.annotations_for(i), part, t)
                np.testing.assert_array_equal(boxes, np.reshape([a.box for a in kept], (-1, 4)))
                np.testing.assert_array_equal(labels, [subset.index(a.category) for a in kept])
                kept_total += len(kept)
        assert kept_total == sum(len(tiny_train.annotations_for(i)) for i in idx) > 0

    def test_task_and_ground_truth_terms_add_a_fixed_number_of_tape_nodes(self, tiny_train):
        # One graph per batch, not per image: the node count of the TA and
        # ground-truth terms does not grow with the batch.
        cfg = tiny_cfg()
        params = DetectorParams.init(cfg, np.random.default_rng(0))
        weights = ka.KAWeights()
        rng = np.random.default_rng(1)

        def added_nodes(batch):
            idx = np.arange(batch)
            out = forward_batch([tiny_train.image(i) for i in idx], params, cfg)
            forward = {id(node) for root in (out.dists, out.boxes)
                       for node in T._topo_order(root)}
            pool_dists = rng.dirichlet(np.ones(9), size=(batch, 2 * cfg.queries))
            pool_boxes = rng.uniform(0.2, 0.4, size=(batch, 2 * cfg.queries, 4))
            task = ka.ta_loss(out.dists, out.boxes, pool_dists, pool_boxes, weights)
            direct = tv.detection_loss(out, tv._batch_targets(tiny_train, idx, range(1, 9)),
                                       cfg.num_categories, weights)
            loss = T.add(T.scale(task, weights.lambda_task),
                         T.scale(direct, weights.lambda_direct))
            return len(T._topo_order(loss)) - len(forward)

        assert added_nodes(2) == added_nodes(8)


class TestRedundancyAnalysis:
    def test_contracts_and_histogram(self, tiny_eval):
        cfg = tiny_cfg(num_parts=2)
        ckpt = tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg)
        report = tv.analyze_redundancy(ckpt, tiny_eval)
        assert report.counts.sum() == report.token_count
        assert report.token_count == len(tiny_eval) * 2 * cfg.tokens
        assert report.bin_lows.shape == (41,)
        assert report.bin_lows[0] == -1.0 and report.bin_lows[-1] == pytest.approx(1.0)
        assert 0.0 <= report.fraction_above_half <= 1.0

    @pytest.mark.parametrize("batch_size", [3, 64])
    def test_histogram_is_pinned(self, batch_size):
        # Counts of the per-image computation, which one call per batch
        # keeps, whatever the batch size.
        cfg = tiny_cfg(queries=4, num_parts=2, compression="redundancy")
        ckpt = tv.make_checkpoint(DetectorParams.init(cfg, np.random.default_rng(2024)), cfg)
        data = generate_dataset(count=8, num_categories=8, image_size=32, seed=6)
        report = tv.analyze_redundancy(ckpt, data, batch_size=batch_size)
        want = np.zeros(41, dtype=np.int64)
        want[21:32] = [2, 0, 5, 3, 10, 7, 12, 21, 54, 71, 71]
        np.testing.assert_array_equal(report.counts, want)
        assert report.token_count == 256 and report.fraction_above_half == 142 / 256

    def test_single_part_model_rejected(self, tiny_eval):
        cfg = tiny_cfg()
        ckpt = tv.make_checkpoint(DetectorParams.init(cfg, RNG), cfg)
        with pytest.raises(ContractError):
            tv.analyze_redundancy(ckpt, tiny_eval)
