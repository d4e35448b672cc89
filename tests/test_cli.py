"""End-to-end command-line runs on a tiny configuration, through ``cli.main``.

One module-scoped workspace holds the generated datasets and two trained
teachers; every test writes its own outputs beside them.
"""

import argparse
import csv
import errno
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import kaseq
from kaseq import cli
from kaseq import tensor as T
from kaseq import traineval as tv
from kaseq.detector import DetectorConfig, DetectorParams

TINY = {
    "detector": {"image_size": 32, "patch_size": 8, "d_model": 16, "heads": 2,
                 "enc_layers": 1, "dec_layers": 1, "queries": 8, "ffn_dim": 16},
    "train": {"epochs": 1, "teacher_epochs": 1, "batch_size": 8},
}


def run(*argv):
    return cli.main([str(a) for a in argv])


def metrics_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    paths = {"root": root, "config": config, "train": root / "train",
             "eval": root / "eval", "t1": root / "t1.ckpt", "t2": root / "t2.ckpt"}
    assert run("gen-data", "--out", paths["train"], "--images", 16, "--categories", 4,
               "--size", 32, "--seed", 0) == 0
    assert run("gen-data", "--out", paths["eval"], "--images", 8, "--categories", 4,
               "--size", 32, "--seed", 1) == 0
    for key, task in (("t1", "1-2"), ("t2", "3,4")):
        assert run("train-teacher", "--data", paths["train"], "--task", task,
                   "--out", paths[key], "--config", config, "--seed", 5) == 0
    return paths


def test_gen_data_writes_dataset_and_config(ws):
    assert (ws["train"] / "annotations.json").exists()
    dump = json.loads((ws["train"] / "config.json").read_text())
    assert dump["command"] == "gen-data"
    assert dump["config"] == {"seed": 0, "gen": {"images": 16, "categories": 4, "size": 32}}


def test_train_teacher_dumps_effective_config(ws):
    dump = json.loads((ws["root"] / "t1.ckpt.config.json").read_text())
    assert dump["command"] == "train-teacher"
    assert dump["config"]["seed"] == 5
    assert dump["config"]["detector"]["d_model"] == 16  # config file over defaults
    assert dump["config"]["optim"]["lr"] == 1e-4        # defaults kept
    assert len(metrics_rows(str(ws["t1"]) + ".metrics.csv")) == 1


def test_amalgamate_then_evaluate(ws, capsys):
    student = ws["root"] / "student.ckpt"
    assert run("amalgamate", "--teachers", ws["t1"], ws["t2"], "--data", ws["train"],
               "--mode", "sa+ta", "--compress", "redundancy", "--out", student,
               "--config", ws["config"], "--set", "weights.lambda_task=0.5") == 0
    dump = json.loads((ws["root"] / "student.ckpt.config.json").read_text())
    assert dump["command"] == "amalgamate"
    assert dump["config"]["weights"]["lambda_task"] == 0.5
    report = ws["root"] / "report.json"
    assert run("evaluate", "--model", student, "--data", ws["eval"], "--report", report) == 0
    assert not (ws["root"] / "report.json.config.json").exists()
    values = json.loads(report.read_text())
    assert set(values) == {"AP", "AP50", "AP75", "per_category", "per_subset"}
    assert 0.0 <= values["AP"] <= values["AP50"] <= 1.0
    assert "AP=" in capsys.readouterr().out


def test_label_free_amalgamation_records_no_ground_truth_term(ws):
    student = ws["root"] / "label_free.ckpt"
    assert run("amalgamate", "--teachers", ws["t1"], ws["t2"], "--data", ws["train"],
               "--mode", "sa", "--label-free", "--out", student, "--config", ws["config"]) == 0
    dump = json.loads((ws["root"] / "label_free.ckpt.config.json").read_text())
    assert dump["config"]["weights"]["lambda_direct"] == 0.0
    assert tv.load_checkpoint(str(student)).metadata["mode"] == "sa_lf"


def test_dumped_detector_section_is_the_trained_models(ws):
    # The teacher has 2 of the 4 categories; the student has 2 parts, one per
    # teacher, and the configured compression, which no --compress overrides.
    teacher = json.loads((ws["root"] / "t1.ckpt.config.json").read_text())
    assert teacher["config"]["detector"] == tv.load_checkpoint(str(ws["t1"])).config.to_dict()
    assert teacher["config"]["detector"]["num_categories"] == 2
    student = ws["root"] / "configured_compression.ckpt"
    assert run("amalgamate", "--teachers", ws["t1"], ws["t2"], "--data", ws["train"],
               "--out", student, "--config", ws["config"],
               "--set", "detector.compression=redundancy", "--set", "detector.num_parts=5") == 0
    ckpt_cfg = tv.load_checkpoint(str(student)).config
    assert (ckpt_cfg.compression, ckpt_cfg.num_parts) == ("redundancy", 2)
    dump = json.loads((ws["root"] / "configured_compression.ckpt.config.json").read_text())
    assert dump["config"]["detector"] == ckpt_cfg.to_dict()


def test_ablate_resumes_without_duplicating_metrics(ws):
    out = ws["root"] / "ablate"
    argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
            "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
            "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]]
    assert run(*argv) == 0
    table = out / "compression.csv"
    first = metrics_rows(table)
    assert [r["mode"] for r in first] == ["sa+ta_redundancy", "sa+ta_isometric",
                                         "sa+ta_random"]
    runs = out / "runs"
    kept = runs / "sa+ta_redundancy_s0.ckpt"
    kept_mtime = os.stat(kept).st_mtime_ns
    # A cell interrupted mid-training leaves its metrics log and no checkpoint.
    os.remove(runs / "sa+ta_random_s0.ckpt")
    assert run(*argv) == 0
    assert metrics_rows(table) == first
    assert os.stat(kept).st_mtime_ns == kept_mtime
    assert len(metrics_rows(runs / "sa+ta_random_s0.ckpt.metrics.csv")) == 1


def test_a_finished_ablation_reruns_every_row_from_its_checkpoint(ws, monkeypatch):
    out = ws["root"] / "ablate_rerun"
    argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
            "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
            "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]]
    assert run(*argv) == 0
    table = (out / "compression.csv").read_bytes()
    runs = {p.name: p.stat().st_mtime_ns for p in (out / "runs").iterdir()}
    assert sorted(runs) == sorted(f"sa+ta_{s}_s0{ext}" for s in cli.COMPRESSION_SUITE
                                  for ext in (".ckpt", ".ckpt.metrics.csv"))
    # A row stored by an older version is not read back.
    stale = out / "runs" / "sa+ta_random_s0.report.json"
    stale.write_text(json.dumps({"mode": "sa+ta_random", "seed": 0, "AP": 1.0,
                                 "AP50": 1.0, "AP75": 1.0}))
    evaluated, shipped = [], tv.evaluate

    def evaluate(ckpt, dataset):
        evaluated.append(ckpt.metadata["compression"])
        return shipped(ckpt, dataset)

    def train(*args, **kwargs):
        raise AssertionError("a cell with a checkpoint was trained again")

    monkeypatch.setattr(tv, "evaluate", evaluate)
    monkeypatch.setattr(tv, "amalgamate", train)
    assert run(*argv) == 0
    assert evaluated == list(cli.COMPRESSION_SUITE)
    assert (out / "compression.csv").read_bytes() == table
    stale.unlink()
    assert {p.name: p.stat().st_mtime_ns for p in (out / "runs").iterdir()} == runs


def _fail_encoding(monkeypatch, key: str) -> None:
    """Make the JSON encoding of any object holding ``key`` raise a full-disk
    OSError after its first chunks, as a write cut short would."""
    shipped = json.JSONEncoder.iterencode

    def iterencode(self, o, _one_shot=False):
        chunks = shipped(self, o, _one_shot)
        if not (isinstance(o, dict) and key in o):
            return chunks

        def cut():
            for count, chunk in enumerate(chunks):
                if count == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                yield chunk
        return cut()

    monkeypatch.setattr(json.JSONEncoder, "iterencode", iterencode)


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def test_a_config_record_whose_write_fails_keeps_the_earlier_one(ws, monkeypatch, capsys):
    out = ws["root"] / "ablate_cut_config"
    argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
            "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
            "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]]
    assert run(*argv) == 0
    recorded = _files(out)
    assert "config.json" in recorded
    with monkeypatch.context() as patch:
        _fail_encoding(patch, "command")
        assert run(*argv) == 1
    assert capsys.readouterr().err.startswith("usage error: [Errno 28]")
    assert _files(out) == recorded
    assert run(*argv) == 0  # the resume reads the recorded configuration


def test_a_report_whose_write_fails_keeps_the_earlier_one(ws, monkeypatch, capsys):
    report = ws["root"] / "cut_report.json"
    argv = ["evaluate", "--model", ws["t1"], "--data", ws["eval"], "--report", report]
    assert run(*argv) == 0
    written = _files(ws["root"])
    with monkeypatch.context() as patch:
        _fail_encoding(patch, "per_subset")
        assert run(*argv) == 1
    assert capsys.readouterr().err.startswith("usage error: [Errno 28]")
    assert _files(ws["root"]) == written


def _fail_csv_rows(monkeypatch, after: int) -> None:
    """Make every CSV writer raise a full-disk OSError at its row ``after``,
    as a write cut short would."""
    shipped = csv.writer

    class Cut:
        def __init__(self, *args, **kwargs):
            self.writer, self.rows = shipped(*args, **kwargs), 0

        def writerow(self, row):
            if self.rows == after:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.rows += 1
            return self.writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(csv, "writer", Cut)


@pytest.mark.parametrize("command", ["ablate", "analyze-redundancy"])
def test_a_table_whose_write_fails_keeps_the_earlier_one(ws, tmp_path, monkeypatch, capsys,
                                                          command):
    if command == "ablate":
        out = tmp_path / "ablate"
        argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
                "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
                "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]]
    else:
        cfg = DetectorConfig.from_dict({**TINY["detector"], "num_categories": 4, "num_parts": 2})
        student, out = tmp_path / "student.ckpt", tmp_path / "histogram"
        tv.save_checkpoint(tv.make_checkpoint(
            DetectorParams.init(cfg, np.random.default_rng(0)), cfg), str(student))
        out.mkdir()
        argv = ["analyze-redundancy", "--model", student, "--data", ws["eval"],
                "--out", out / "redundancy.csv", "--force"]
    assert run(*argv) == 0
    written = _files(out)
    assert {"compression.csv", "redundancy.csv"} & set(written)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        _fail_csv_rows(patch, 2)
        assert run(*argv) == 1
    assert capsys.readouterr().err.startswith("usage error: [Errno 28]")
    assert _files(out) == written


def test_ablate_into_a_run_of_another_configuration_exits_1(ws, capsys):
    out = ws["root"] / "ablate_config"
    argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
            "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
            "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]]
    assert run(*argv) == 0
    recorded = (out / "config.json").read_text()
    assert run(*argv, "--epochs", 3, "--set", "optim.lr=0.01") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'optim.lr'" in err
    assert (out / "config.json").read_text() == recorded
    assert sorted(os.listdir(out / "runs")) == sorted(
        f"sa+ta_{s}_s0{ext}" for s in ("redundancy", "isometric", "random")
        for ext in (".ckpt", ".ckpt.metrics.csv"))


def test_ablate_into_a_run_of_other_teachers_or_datasets_exits_1(ws, capsys):
    out = ws["root"] / "ablate_inputs"
    argv = ["ablate", "--suite", "compression", "--out", out, "--seeds", 1,
            "--config", ws["config"]]
    inputs = ["--train-data", ws["train"], "--eval-data", ws["eval"],
              "--teachers", ws["t1"], ws["t2"]]
    assert run(*argv, *inputs) == 0
    recorded = (out / "inputs.json").read_text()
    runs = {p.name: p.stat().st_mtime_ns for p in (out / "runs").iterdir()}
    for flag, changed in (("--teachers", inputs[:4] + ["--teachers", ws["t2"], ws["t1"]]),
                          ("--eval-data", inputs[:2] + ["--eval-data", ws["train"]] + inputs[4:]),
                          ("--train-data", ["--train-data", ws["eval"]] + inputs[2:])):
        assert run(*argv, *changed) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and f"'{flag}' differs" in err
        assert (out / "inputs.json").read_text() == recorded
        assert {p.name: p.stat().st_mtime_ns for p in (out / "runs").iterdir()} == runs
    # A directory from before the record gets one, and resumes as before.
    (out / "inputs.json").unlink()
    assert run(*argv, *inputs) == 0
    assert (out / "inputs.json").read_text() == recorded
    assert {p.name: p.stat().st_mtime_ns for p in (out / "runs").iterdir()} == runs


def test_ablate_resumed_with_teachers_it_would_train_exits_1_before_training(ws, capsys):
    # A run recorded with --teachers, resumed without them, and a run that
    # trained its two teachers, resumed with --teacher-count 4: neither
    # resume may train a teacher before it is rejected.
    argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
            "--eval-data", ws["eval"], "--seeds", 1, "--config", ws["config"]]
    given, trained = ws["root"] / "ablate_given_teachers", ws["root"] / "ablate_own_teachers"
    assert run(*argv, "--out", given, "--teachers", ws["t1"], ws["t2"]) == 0
    assert run(*argv, "--out", trained) == 0
    capsys.readouterr()
    teachers = sorted(os.listdir(trained / "teachers"))
    assert teachers == ["teacher1.ckpt", "teacher1.ckpt.metrics.csv",
                        "teacher2.ckpt", "teacher2.ckpt.metrics.csv"]
    for out, extra in ((given, []), (trained, ["--teacher-count", 4])):
        recorded = (out / "inputs.json").read_text()
        assert run(*argv, "--out", out, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--teachers or --teacher-count" in err
        assert not (given / "teachers").exists()
        assert sorted(os.listdir(trained / "teachers")) == teachers
        assert (out / "inputs.json").read_text() == recorded


def test_a_resumed_ablation_reuses_the_teachers_it_trained(ws, monkeypatch):
    out = ws["root"] / "ablate_resumed_own_teachers"
    argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
            "--eval-data", ws["eval"], "--out", out, "--seeds", 1, "--config", ws["config"]]
    assert run(*argv) == 0
    teachers, table = _files(out / "teachers"), (out / "compression.csv").read_bytes()
    assert sorted(teachers) == ["teacher1.ckpt", "teacher1.ckpt.metrics.csv",
                                "teacher2.ckpt", "teacher2.ckpt.metrics.csv"]

    def trained(*args, **kwargs):
        raise AssertionError("a teacher or cell with a checkpoint was trained again")

    monkeypatch.setattr(tv, "train_teacher", trained)
    monkeypatch.setattr(tv, "amalgamate", trained)
    assert run(*argv) == 0
    assert _files(out / "teachers") == teachers
    assert (out / "compression.csv").read_bytes() == table


@pytest.mark.parametrize("extra, named", [
    (["--teacher-count", 3], "4 categories do not split into 3 equal tasks"),
    (["--teacher-count", 1], "at least two teachers, not 1"),
    (["--teachers", "<t1>", "<t2>", "--set", "detector.d_model=32"],
     "teacher and student geometry must agree"),
], ids=["count-not-dividing", "one-teacher", "other-geometry"])
def test_ablate_checks_its_teachers_before_creating_its_directory(ws, tmp_path, capsys,
                                                                  monkeypatch, extra, named):
    def trained(*args, **kwargs):
        raise AssertionError("trained")

    for name in ("train_detector_gt", "amalgamate"):
        monkeypatch.setattr(tv, name, trained)
    out = tmp_path / "ablate"
    assert run("ablate", "--train-data", ws["train"], "--eval-data", ws["eval"], "--out", out,
               "--seeds", 1, "--config", ws["config"],
               *[ws[w[1:-1]] if str(w).startswith("<") else w for w in extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("usage error:", "invalid request:")) and named in err
    assert list(tmp_path.iterdir()) == []


def test_outputs_into_a_missing_directory(ws):
    cfg = DetectorConfig.from_dict({**TINY["detector"], "num_categories": 4, "num_parts": 2})
    student = ws["root"] / "two_parts.ckpt"
    tv.save_checkpoint(tv.make_checkpoint(
        DetectorParams.init(cfg, np.random.default_rng(0)), cfg), str(student))
    report = ws["root"] / "missing" / "report.json"
    assert run("evaluate", "--model", student, "--data", ws["eval"], "--report", report) == 0
    assert set(json.loads(report.read_text())) >= {"AP", "per_subset"}
    histogram = ws["root"] / "also_missing" / "redundancy.csv"
    assert run("analyze-redundancy", "--model", student, "--data", ws["eval"],
               "--out", histogram) == 0
    assert metrics_rows(histogram)[0]["bin_low"] == "-1.00"
    assert os.listdir(histogram.parent) == ["redundancy.csv"]


def test_forced_retraining_starts_a_fresh_metrics_log(ws):
    out = ws["root"] / "raw.ckpt"
    argv = ["train-baseline", "--data", ws["train"], "--out", out,
            "--config", ws["config"], "--epochs", 2]
    assert run(*argv) == 0
    assert run(*argv, "--force") == 0
    rows = metrics_rows(str(out) + ".metrics.csv")
    assert [r["epoch"] for r in rows] == ["0", "1"]


@pytest.mark.parametrize("parts, variant", [(None, "raw"), (1, "raw"), (3, "raw_ext")])
def test_parts_decide_the_baseline(ws, capsys, parts, variant):
    out = ws["root"] / f"baseline_parts_{parts}.ckpt"
    assert run("train-baseline", "--data", ws["train"], "--out", out, "--config", ws["config"],
               *([] if parts is None else ["--parts", parts])) == 0
    ckpt = tv.load_checkpoint(str(out))
    assert (ckpt.metadata["mode"], ckpt.config.num_parts) == (variant, parts or 1)
    assert capsys.readouterr().out == f"{variant} checkpoint written to {out}\n"


def test_a_forced_run_rejected_before_training_keeps_the_metrics_log(ws, capsys):
    out = ws["root"] / "kept.ckpt"
    argv = ["amalgamate", "--teachers", ws["t1"], ws["t2"], "--data", ws["train"],
            "--mode", "sag", "--out", out, "--config", ws["config"]]
    assert run(*argv) == 0
    log = str(out) + ".metrics.csv"
    with open(log, "rb") as fh:
        earlier = fh.read()
    assert run(*argv, "--compress", "redundancy", "--force") == 1
    assert capsys.readouterr().err.startswith("invalid request:")
    with open(log, "rb") as fh:
        assert fh.read() == earlier
    assert not os.path.exists(log + ".earlier")


def test_a_forced_run_that_exits_3_starts_a_fresh_metrics_log(ws):
    out = ws["root"] / "restarted.ckpt"
    argv = ["train-baseline", "--data", ws["train"], "--out", out, "--config", ws["config"]]
    assert run(*argv) == 0
    assert len(metrics_rows(str(out) + ".metrics.csv")) == 1
    with pytest.warns(RuntimeWarning):
        assert run(*argv, "--force", "--set", "optim.lr=1e300") == 3
    assert metrics_rows(str(out) + ".metrics.csv") == []
    assert not os.path.exists(str(out) + ".metrics.csv.earlier")


@pytest.mark.parametrize("size", [-1, 0, 8, 19])
def test_gen_data_below_the_smallest_image_size_exits_1(tmp_path, capsys, size):
    assert run("gen-data", "--out", tmp_path / "small", "--images", 300,
               "--size", size) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:") and f"image size {size}" in err
    assert "Traceback" not in err


def test_existing_output_needs_force(ws, capsys):
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2", "--out", ws["t1"],
               "--config", ws["config"]) == 1
    assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["4-1", "x", "1,,2", "a-3"])
def test_bad_task_spec_exits_1(ws, capsys, task):
    assert run("train-teacher", "--data", ws["train"], "--task", task,
               "--out", ws["root"] / "bad.ckpt", "--config", ws["config"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("task", ["0", "9", "0-2", "3,9"])
def test_task_outside_the_categories_exits_1(ws, tmp_path, capsys, task):
    data = tmp_path / "eight"
    assert run("gen-data", "--out", data, "--images", 4, "--categories", 8, "--size", 32) == 0
    capsys.readouterr()
    assert run("train-teacher", "--data", data, "--task", task,
               "--out", tmp_path / "outside.ckpt", "--config", ws["config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "1..8" in err
    assert not (tmp_path / "outside.ckpt").exists()


@pytest.mark.parametrize("key", ["detector.bogus", "weights.bogus", "optim.bogus",
                                 "detector.supervise_projection"])
def test_unknown_config_key_exits_1(ws, capsys, key):
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2",
               "--out", ws["root"] / "unknown.ckpt", "--config", ws["config"],
               "--set", f"{key}=1") == 1
    err = capsys.readouterr().err
    assert f"'{key.split('.')[1]}'" in err and "Traceback" not in err


def test_wrongly_typed_config_value_exits_1(ws, capsys):
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2",
               "--out", ws["root"] / "typed.ckpt", "--config", ws["config"],
               "--set", "optim.lr=fast") == 1
    assert "OptimSettings.lr" in capsys.readouterr().err


@pytest.mark.parametrize("setting, key", [("train.batch_size=x", "batch_size"),
                                          ("train.eval_batch_size=8", "'eval_batch_size'"),
                                          ("train.use_cache=true", "'use_cache'"),
                                          ("use_cache=true", "'use_cache'"),
                                          ("seed=x", "seed"), ("seed=-1", "seed"),
                                          ("seed=true", "seed"), ("seed=1.5", "seed")])
def test_bad_train_or_top_level_key_exits_1(ws, capsys, setting, key):
    assert run("train-baseline", "--data", ws["train"], "--out", ws["root"] / "keys.ckpt",
               "--config", ws["config"], "--set", setting) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:") and key in err
    assert not (ws["root"] / "keys.ckpt").exists()


def test_gen_data_with_a_negative_seed_exits_1(ws, capsys):
    out = ws["root"] / "negative_seed"
    assert run("gen-data", "--out", out, "--images", 2, "--seed", -1) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-teacher", "train-baseline", "amalgamate", "ablate"])
def test_every_command_rejects_a_negative_seed_before_writing(ws, capsys, command):
    out = ws["root"] / f"negative_seed_{command}"
    inputs = {"train-teacher": ["--data", ws["train"], "--task", "1-2", "--out", out],
              "train-baseline": ["--data", ws["train"], "--out", out],
              "amalgamate": ["--teachers", ws["t1"], ws["t2"], "--data", ws["train"],
                             "--mode", "sa+ta", "--out", out],
              "ablate": ["--train-data", ws["train"], "--eval-data", ws["eval"], "--out", out,
                         "--seeds", 1, "--teachers", ws["t1"], ws["t2"]]}[command]
    assert run(command, *inputs, "--config", ws["config"], "--seed", -3) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "optim.beta2=1.0", "optim.beta1=1.0", "optim.beta1=-0.1", "optim.lr=NaN", "optim.lr=-1",
    "optim.eps=0", "optim.eps=Infinity", "optim.weight_decay=-1e-4",
    "weights.lambda_seq=NaN", "weights.lambda_direct=-0.1", "weights.l1_weight=Infinity",
    "weights.beta_kl=-Infinity", "weights.confidence_threshold=1.5"])
def test_out_of_range_optimizer_or_loss_weight_exits_1(ws, capsys, setting):
    out = ws["root"] / "out_of_range" / "model.ckpt"
    out.parent.mkdir(exist_ok=True)
    assert run("train-baseline", "--data", ws["train"], "--out", out, "--config", ws["config"],
               "--epochs", 1, "--set", setting) == 1
    err = capsys.readouterr().err
    key = setting.split("=")[0].split(".")[1]
    assert err.startswith("invalid request:") and f".{key} must be" in err
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize("setting", [
    "detector.heads=0", "detector.patch_size=-8", "detector.num_parts=0", "detector.ffn_dim=0",
    "detector.enc_layers=-1", "detector.dec_layers=-2", "detector.compression=zip"])
def test_out_of_range_detector_setting_exits_1(ws, capsys, setting):
    out = ws["root"] / "bad_detector" / "model.ckpt"
    out.parent.mkdir(exist_ok=True)
    assert run("train-baseline", "--data", ws["train"], "--out", out, "--config", ws["config"],
               "--epochs", 1, "--set", setting) == 1
    err = capsys.readouterr().err
    key = setting.split("=")[0].split(".")[1]
    assert err.startswith("invalid request:") and f"DetectorConfig.{key} must be" in err
    assert list(out.parent.iterdir()) == []


def test_more_objects_than_queries_exits_1(ws, capsys):
    out = ws["root"] / "few_queries.ckpt"
    assert run("train-baseline", "--data", ws["train"], "--out", out,
               "--config", ws["config"], "--set", "detector.queries=2") == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:")
    assert "objects" in err and "detector.queries=2" in err
    assert not out.exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # Importing scipy.optimize adds over 40 MB of resident memory.
    src = os.path.dirname(os.path.dirname(kaseq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, kaseq.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_cli_import_defaults_to_one_blas_thread(preset, threads):
    src = os.path.dirname(os.path.dirname(kaseq.__file__))
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env.update(PYTHONPATH=src, **({} if preset is None else dict.fromkeys(names, preset)))
    code = f"import os, kaseq.cli; print(*[os.environ[n] for n in {names!r}])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == [threads] * 3


def _rewrite_header(raw, edit):
    (length,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + length])
    edit(header)
    encoded = json.dumps(header).encode()
    return raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + length:]


@pytest.mark.parametrize("field", ["name", "shape"])
def test_checkpoint_tensor_entry_without_name_or_shape_exits_2(ws, capsys, field):
    bad = ws["root"] / f"no_{field}.ckpt"
    bad.write_bytes(_rewrite_header(ws["t1"].read_bytes(),
                                    lambda header: header["tensors"][0].pop(field)))
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "tensor entry" in err


def test_checkpoint_tensor_shape_past_int64_exits_2(ws, capsys):
    # 2**32 * 2**32 wraps to 0 in int64 arithmetic.
    bad = ws["root"] / "huge_shape.ckpt"
    bad.write_bytes(_rewrite_header(ws["t1"].read_bytes(), lambda header:
                                    header["tensors"][0].update(shape=[2 ** 32, 2 ** 32])))
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "truncated payload" in err


def test_checkpoint_metadata_that_is_not_an_object_exits_2(ws, capsys):
    bad = ws["root"] / "bad_metadata.ckpt"
    bad.write_bytes(_rewrite_header(ws["t1"].read_bytes(),
                                    lambda header: header.update(metadata=5)))
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    assert "metadata" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_2(ws, capsys):
    bad = ws["root"] / "corrupt.ckpt"
    bad.write_bytes(b"KASQ" + b"\0" * 32)
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_checkpoint_cut_inside_its_preamble_exits_2(ws, capsys):
    bad = ws["root"] / "cut.ckpt"
    bad.write_bytes(ws["t1"].read_bytes()[:6])
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_checkpoint_header_with_unknown_config_key_exits_2(ws, capsys):
    bad = ws["root"] / "bogus_header.ckpt"
    bad.write_bytes(_rewrite_header(ws["t1"].read_bytes(),
                                    lambda header: header["config"].update(bogus=1)))
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    assert "'bogus'" in capsys.readouterr().err


def test_checkpoint_that_records_a_supervised_projection_evaluates_alike(ws):
    # Checkpoints written before the projection output was always supervised
    # carry detector.supervise_projection in their header.
    old = ws["root"] / "projection_true.ckpt"
    old.write_bytes(_rewrite_header(ws["t1"].read_bytes(), lambda header:
                                    header["config"].update(supervise_projection=True)))
    reports = []
    for model in (ws["t1"], old):
        report = ws["root"] / f"{model.name}.report.json"
        assert run("evaluate", "--model", model, "--data", ws["eval"], "--report", report) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_checkpoint_with_an_unsupervised_projection_exits_2(ws, capsys):
    bad = ws["root"] / "projection_false.ckpt"
    bad.write_bytes(_rewrite_header(ws["t1"].read_bytes(), lambda header:
                                    header["config"].update(supervise_projection=False)))
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'supervise_projection'" in err


def test_sag_with_compression_exits_1(ws, capsys):
    out = ws["root"] / "sag_compressed.ckpt"
    assert run("amalgamate", "--teachers", ws["t1"], ws["t2"], "--data", ws["train"],
               "--mode", "sag", "--compress", "redundancy", "--out", out,
               "--config", ws["config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:") and "detector.compression" in err
    assert not out.exists()


def test_exploding_learning_rate_exits_3_with_crash_dump(ws, capsys):
    out = ws["root"] / "boom.ckpt"
    with pytest.warns(RuntimeWarning):
        code = run("train-teacher", "--data", ws["train"], "--task", "1-2", "--out", out,
                   "--config", ws["config"], "--set", "optim.lr=1e300")
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric failure:")
    assert not out.exists()
    assert (ws["root"] / "boom.ckpt.crash.ckpt").exists()


def _first_entry(section, change):
    """An edit passing the document's first ``section`` entry through ``change``."""
    def edit(doc):
        change(doc[section][0])
        return doc
    return edit


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda doc: [doc], "not an object", id="root-list"),
    pytest.param(lambda doc: {**doc, "images": {}}, "'images' section", id="images-object"),
    pytest.param(_first_entry("images", lambda rec: rec.pop("height")),
                 "image entry 0 lacks an entry 'height'", id="image-no-height"),
    pytest.param(_first_entry("images", lambda rec: rec.update(id="0")),
                 "image entry 0 lacks an entry 'id'", id="image-string-id"),
    pytest.param(lambda doc: {**doc, "images": doc["images"] + doc["images"][:1]},
                 "image id 0 appears twice", id="image-repeated"),
    pytest.param(_first_entry("annotations", lambda rec: rec.pop("bbox")),
                 "annotation entry 0 lacks an entry 'bbox'", id="ann-no-bbox"),
    pytest.param(_first_entry("annotations", lambda rec: rec["bbox"].pop()),
                 "annotation entry 0 has bbox", id="ann-bbox-3-numbers"),
    pytest.param(_first_entry("annotations", lambda rec: rec["bbox"].__setitem__(0, "x")),
                 "has bbox", id="ann-bbox-string"),
    pytest.param(_first_entry("annotations", lambda rec: rec["bbox"].__setitem__(0, 10 ** 400)),
                 "has bbox", id="ann-bbox-huge-int"),
    pytest.param(_first_entry("annotations",
                              lambda rec: rec["bbox"].__setitem__(0, float("nan"))),
                 "has bbox", id="ann-bbox-nan"),
    pytest.param(_first_entry("annotations", lambda rec: rec.update(category_id=99)),
                 "category_id 99", id="ann-category-99"),
    pytest.param(_first_entry("annotations", lambda rec: rec.update(image_id=99)),
                 "unknown image 99", id="ann-unknown-image"),
])
def test_malformed_annotation_document_exits_2(ws, capsys, edit, named):
    bad = ws["root"] / "bad_doc"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(ws["eval"], bad)
    doc = json.loads((bad / "annotations.json").read_text())
    (bad / "annotations.json").write_text(json.dumps(edit(doc)))
    assert run("evaluate", "--model", ws["t1"], "--data", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and named in err


def test_teacher_count_below_one_exits_1(ws, capsys):
    assert run("ablate", "--suite", "compression", "--train-data", ws["train"],
               "--eval-data", ws["eval"], "--out", ws["root"] / "no_teachers", "--seeds", 1,
               "--teacher-count", 0, "--config", ws["config"]) == 1
    assert "at least 1 task" in capsys.readouterr().err


@pytest.mark.parametrize("suite, seeds, table", [("compression", 1, "compression.csv"),
                                                ("table4", 2, "ablation.csv")],
                         ids=["compression", "table4"])
def test_parallel_ablation_matches_the_serial_table(ws, capsys, suite, seeds, table):
    # At two seeds a worker runs several cells and reuses its teacher cache.
    tables, lines = [], []
    for workers in (1, 2):
        out = ws["root"] / f"ablate_{suite}_workers{workers}"
        assert run("ablate", "--suite", suite, "--train-data", ws["train"],
                   "--eval-data", ws["eval"], "--out", out, "--seeds", seeds,
                   "--teachers", ws["t1"], ws["t2"], "--config", ws["config"],
                   "--workers", workers) == 0
        tables.append((out / table).read_text())
        lines.append(capsys.readouterr().out.splitlines()[:-1])  # less the table's path
    assert tables[0] == tables[1]
    assert lines[0] == lines[1]
    assert [line.split(":")[0] for line in lines[0]] == [
        f"{setting['label']} seed {seed}"
        for setting in cli.SUITES[suite][1] for seed in range(seeds)]


def test_non_integer_process_count_exits_1(ws, capsys):
    for workers in ("many", 0):
        assert run("ablate", "--suite", "compression", "--train-data", ws["train"],
                   "--eval-data", ws["eval"], "--out", ws["root"] / "workers", "--seeds", 1,
                   "--teachers", ws["t1"], ws["t2"], "--config", ws["config"],
                   "--workers", workers) == 1
        assert "--workers" in capsys.readouterr().err


def test_version_1_checkpoint_exits_2_naming_the_version(ws, capsys):
    # Version 1 stored each attention head as its own tensor.
    bad = ws["root"] / "v1.ckpt"
    raw = ws["t1"].read_bytes()
    bad.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "unsupported version 1" in err


def test_non_utf8_checkpoint_header_exits_2(ws, capsys):
    bad = ws["root"] / "latin1.ckpt"
    raw = bytearray(ws["t1"].read_bytes())
    raw[13] = 0xFF  # the header opens at byte 12 with '{"config"'
    bad.write_bytes(bytes(raw))
    assert run("evaluate", "--model", bad, "--data", ws["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "invalid UTF-8 at byte 13" in err


def test_non_utf8_annotation_document_exits_2(ws, capsys):
    bad = ws["root"] / "latin1_doc"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(ws["eval"], bad)
    raw = (bad / "annotations.json").read_bytes()
    at = raw.index(b'"images"') + 1
    (bad / "annotations.json").write_bytes(raw[:at] + b"\xe9" + raw[at + 1:])
    assert run("evaluate", "--model", ws["t1"], "--data", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "annotations.json" in err
    assert f"invalid UTF-8 at byte {at}" in err


def test_non_utf8_config_file_exits_2(ws, capsys):
    config = ws["root"] / "latin1.json"
    config.write_bytes(b'{"seed": 1, "x": "\xe9"}')
    out = ws["root"] / "latin1_config.ckpt"
    assert run("train-baseline", "--data", ws["train"], "--out", out, "--config", config) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "invalid UTF-8 at byte 18" in err


def test_a_config_file_whose_root_is_not_an_object_exits_2(ws, capsys):
    config = ws["root"] / "list.json"
    config.write_text("[1]")
    out = ws["root"] / "list_config.ckpt"
    assert run("train-baseline", "--data", ws["train"], "--out", out, "--config", config) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "config root must be an object" in err


def test_a_resumed_ablation_whose_record_lacks_its_config_exits_2(ws, tmp_path, capsys):
    out = tmp_path / "ablate"
    out.mkdir()
    (out / "config.json").write_text(json.dumps({"command": "ablate:table4"}))
    assert run("ablate", "--train-data", ws["train"], "--eval-data", ws["eval"], "--out", out,
               "--seeds", 1, "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "lacks a 'config' object" in err
    assert os.listdir(out) == ["config.json"]


@pytest.mark.parametrize("argv, named", [
    ("amalgamate --teachers <t1> --data <train> --mode sa --out <out>",
     "at least two teachers, not 1"),
    ("train-baseline --data <train> --out <out> --set epochs", "--set expects key=value"),
    ("gen-data --out <out> --images 0", "--images must be at least 1"),
], ids=["one-teacher", "set-without-value", "no-images"])
def test_a_malformed_request_exits_1_writing_nothing(ws, tmp_path, capsys, argv, named):
    paths = {**ws, "out": tmp_path / "out"}
    assert run(*[paths[w[1:-1]] if w.startswith("<") else w for w in argv.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and named in err
    assert list(tmp_path.iterdir()) == []


def _ppm(width, height):
    return b"P6\n%d %d\n255\n" % (width, height) + bytes(width * height * 3)


@pytest.mark.parametrize("slot, width, height, named", [
    pytest.param(1, 40, 40, "but the images before it are 32x32 px", id="second-40px"),
    pytest.param(0, 32, 40, "not square", id="first-not-square"),
])
def test_image_of_another_size_exits_2(ws, capsys, slot, width, height, named):
    bad = ws["root"] / "sizes"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(ws["train"], bad)
    doc = json.loads((bad / "annotations.json").read_text())
    rec = doc["images"][slot]
    rec.update(width=width, height=height)
    (bad / "annotations.json").write_text(json.dumps(doc))
    (bad / rec["file_name"]).write_bytes(_ppm(width, height))
    out = ws["root"] / "sizes.ckpt"
    assert run("train-baseline", "--data", bad, "--out", out, "--config", ws["config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and rec["file_name"] in err and named in err
    assert not out.exists()


def test_dataset_and_model_image_sizes_that_differ_exit_1(ws, capsys):
    out = ws["root"] / "small_images.ckpt"
    assert run("train-baseline", "--data", ws["train"], "--out", out,
               "--config", ws["config"], "--set", "detector.image_size=16") == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:")
    assert "32 px" in err and "detector.image_size is 16" in err
    assert not out.exists()


@pytest.mark.parametrize("metadata, key", [
    ({"partition": 5}, "partition"),
    ({"partition": [[1, 2], [3, "4"]]}, "partition"),
    ({"partition": [[1, 2], [3]]}, "partition"),
    ({"category_ids": [1, 2, 3, 99]}, "category_ids"),
    ({"category_ids": [1, 2, 2, 3]}, "category_ids"),
    ({"category_ids": [1, 2, 3]}, "category_ids"),
    ({"category_ids": "1234"}, "category_ids"),
], ids=["partition_not_a_list", "partition_string_entry", "partition_missing_category",
        "category_id_out_of_range", "category_id_repeated", "category_ids_too_few",
        "category_ids_not_a_list"])
def test_checkpoint_metadata_that_does_not_fit_exits_2(ws, capsys, metadata, key):
    cfg = DetectorConfig.from_dict({**TINY["detector"], "num_categories": 4})
    path = ws["root"] / "bad_metadata_entry.ckpt"
    tv.save_checkpoint(tv.make_checkpoint(
        DetectorParams.init(cfg, np.random.default_rng(0)), cfg, metadata), str(path))
    assert run("evaluate", "--model", path, "--data", ws["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"'{key}'" in err


@pytest.mark.parametrize("subset", [5, [1, 2, 3]], ids=["not_a_list", "one_entry_too_many"])
def test_teacher_task_subset_that_does_not_fit_exits_2(ws, capsys, subset):
    bad = ws["root"] / "bad_subset.ckpt"
    bad.write_bytes(_rewrite_header(ws["t2"].read_bytes(), lambda header:
                                    header["metadata"].update(task_subset=subset)))
    out = ws["root"] / "bad_subset_student.ckpt"
    assert run("amalgamate", "--teachers", ws["t1"], bad, "--data", ws["train"],
               "--mode", "sa+ta", "--out", out, "--config", ws["config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'task_subset'" in err and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["amalgamate", "ablate"])
def test_teacher_without_a_task_subset_exits_2(ws, capsys, command):
    bad = ws["root"] / "no_subset.ckpt"
    bad.write_bytes(_rewrite_header(ws["t2"].read_bytes(), lambda header:
                                    header["metadata"].pop("task_subset")))
    out = ws["root"] / f"no_subset_{command}"
    inputs = {"amalgamate": ["--data", ws["train"], "--mode", "sa+ta"],
              "ablate": ["--train-data", ws["train"], "--eval-data", ws["eval"],
                         "--suite", "table4", "--seeds", 1]}[command]
    assert run(command, *inputs, "--teachers", ws["t1"], bad, "--out", out,
               "--config", ws["config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'task_subset'" in err and "teacher 2" in err
    # An ablation fails before its first cell writes anything.
    assert not (out / "runs" if command == "ablate" else out).exists()


@pytest.mark.parametrize("missing", ["--train-data", "--eval-data"])
def test_ablate_with_a_missing_dataset_exits_1(ws, capsys, missing):
    out = ws["root"] / "missing_dataset"
    data = {"--train-data": ws["train"], "--eval-data": ws["eval"],
            missing: ws["root"] / "nope"}
    assert run("ablate", "--suite", "compression", *[a for kv in data.items() for a in kv],
               "--out", out, "--seeds", 1, "--teachers", ws["t1"], ws["t2"],
               "--config", ws["config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "nope" in err
    assert not out.exists()


def test_ablate_refuses_an_out_that_is_a_file_before_loading(ws, tmp_path, capsys,
                                                             monkeypatch):
    out = tmp_path / "file"
    out.write_text("")

    def loaded(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr(cli.D, "load_dataset", loaded)
    assert run("ablate", "--suite", "compression", "--train-data", ws["train"],
               "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
               "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: output {out} is not a directory\n"
    assert sorted(tmp_path.iterdir()) == [out] and out.read_text() == ""


@pytest.mark.parametrize("argv", [
    "evaluate --model <dir> --data <eval>",
    "train-baseline --data <train> --out <fresh> --config <dir>",
    "train-baseline --data <train> --out <fresh> --config <missing>",
    "evaluate --model <missing> --data <eval>",
    "evaluate --model <t1> --data <missing>",
    "evaluate --model <t1> --data <eval> --report <dir>",
    "amalgamate --teachers <dir> <dir> --data <train> --out <fresh>",
    "gen-data --out <file> --images 2 --size 32",
    "ablate --train-data <train> --eval-data <eval> --out <file>",
    "ablate --train-data <missing> --eval-data <eval> --out <fresh>",
    "train-baseline --data <train> --out <dir> --force",
])
def test_a_path_that_cannot_be_read_or_written_as_given_exits_1(ws, tmp_path, capsys,
                                                               monkeypatch, argv):
    # One path in ``argv`` is a directory where a file belongs, a file where
    # a directory belongs, or missing; the command fails on it before it
    # renders, trains, evaluates or writes anything.
    paths = {**ws, "dir": tmp_path / "dir", "file": tmp_path / "file",
             "missing": tmp_path / "missing", "fresh": tmp_path / "fresh"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    listing = sorted(tmp_path.rglob("*"))

    def ran(*args, **kwargs):
        raise AssertionError("ran")

    for module, name in ((cli.D, "generate_dataset"), (tv, "_fit"), (tv, "evaluate")):
        monkeypatch.setattr(module, name, ran)
    words = argv.split()
    assert run(*[paths[w[1:-1]] if w.startswith("<") else w for w in words]) == 1
    err = capsys.readouterr().err
    (fault,) = {w[1:-1] for w in words} & {"dir", "file", "missing"}
    assert err.startswith("usage error:") and str(paths[fault]) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == listing


CONFIGURED = ["--config", "--set", "--seed"]
COMMAND_OPTIONS = {
    "gen-data": ["--out", "--images", "--categories", "--size", "--seed", "--force"],
    "train-teacher": ["--data", "--eval-data", "--task", "--out", "--epochs", *CONFIGURED,
                      "--force"],
    "train-baseline": ["--parts", "--data", "--eval-data", "--out", "--epochs", *CONFIGURED,
                       "--force"],
    "amalgamate": ["--teachers", "--data", "--eval-data", "--mode", "--compress", "--label-free",
                   "--out", "--epochs", *CONFIGURED, "--force"],
    "evaluate": ["--model", "--data", "--report"],
    "analyze-redundancy": ["--model", "--data", "--out", "--force"],
    "ablate": ["--suite", "--train-data", "--eval-data", "--out", "--seeds", "--epochs",
               "--teachers", "--teacher-count", "--workers", *CONFIGURED],
}


def test_each_command_offers_only_the_options_it_reads():
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    offered = {name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
               for name, p in commands.choices.items()}
    assert offered == COMMAND_OPTIONS
    assert sum(map(len, offered.values())) == 55


@pytest.mark.parametrize("argv", [
    "evaluate --model <t1> --data <eval> --report <out> --config <config>",
    "evaluate --model <t1> --data <eval> --report <out> --set seed=1",
    "evaluate --model <t1> --data <eval> --report <out> --seed 1",
    "evaluate --model <t1> --data <eval> --report <out> --force",
    "analyze-redundancy --model <t1> --data <eval> --out <out> --config <config>",
    "analyze-redundancy --model <t1> --data <eval> --out <out> --set seed=1",
    "analyze-redundancy --model <t1> --data <eval> --out <out> --seed 1",
    "gen-data --out <out> --images 2 --size 32 --config <config>",
    "gen-data --out <out> --images 2 --size 32 --set seed=1",
    "ablate --train-data <train> --eval-data <eval> --out <out> --teachers <t1> <t2> --force",
    "train-baseline --data <train> --out <out> --variant raw",
    "ablate --train-data <train> --eval-data <eval> --out <out> --teachers <t1> <t2> "
    "--teacher-count 2",
    "ablate --train-data <train> --eval-data <eval> --out <out> --teacher-count 3 "
    "--teachers <t1> <t2>",
    "ablate --train-data <train> --eval-data <eval> --out <out> --teachers",
])
def test_a_removed_or_conflicting_option_exits_1_writing_nothing(ws, tmp_path, capsys, argv):
    paths = {**ws, "out": tmp_path / "out"}
    words = [str(paths[w[1:-1]]) if w.startswith("<") else w for w in argv.split()]
    assert run(*words) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and [w for w in words if w.startswith("--")][-1] in err
    assert list(tmp_path.iterdir()) == []


def test_parallel_ablation_resumed_where_runs_is_a_file_exits_1(ws, capsys):
    out = ws["root"] / "ablate_runs_file"
    argv = ["ablate", "--suite", "compression", "--train-data", ws["train"],
            "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
            "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]]
    assert run(*argv) == 0
    shutil.rmtree(out / "runs")
    (out / "runs").write_text("")
    capsys.readouterr()
    assert run(*argv, "--workers", 2) == 1  # each worker's cell fails on the file
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(out / "runs") in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_eval_data_without_the_models_categories_exits_2_before_training(ws, capsys):
    two = ws["root"] / "two_categories"
    assert run("gen-data", "--out", two, "--images", 4, "--categories", 2,
               "--size", 32, "--seed", 2) == 0
    out = ws["root"] / "categories_3_4.ckpt"
    assert run("train-teacher", "--data", ws["train"], "--eval-data", two, "--task", "3,4",
               "--out", out, "--config", ws["config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'category_ids' [3, 4]" in err
    assert not out.exists() and not os.path.exists(str(out) + ".metrics.csv")


def test_negative_epochs_exit_1(ws, capsys):
    out = ws["root"] / "negative_epochs.ckpt"
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2", "--out", out,
               "--config", ws["config"], "--epochs", -2) == 1
    assert "teacher_epochs" in capsys.readouterr().err
    assert not out.exists()


def test_epochs_flag_is_the_recorded_and_trained_count(ws):
    out = ws["root"] / "epochs_flag.ckpt"
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2", "--out", out,
               "--config", ws["config"], "--set", "train.teacher_epochs=3",
               "--epochs", 1) == 0
    dump = json.loads((ws["root"] / "epochs_flag.ckpt.config.json").read_text())
    assert dump["config"]["train"]["teacher_epochs"] == 1
    assert len(metrics_rows(str(out) + ".metrics.csv")) == 1


def test_ablation_seed_count_below_one_exits_1(ws, capsys):
    out = ws["root"] / "no_seeds"
    assert run("ablate", "--suite", "compression", "--train-data", ws["train"],
               "--eval-data", ws["eval"], "--out", out, "--seeds", 0,
               "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not (out / "compression.csv").exists()


@pytest.mark.parametrize("command", ["train-teacher", "train-baseline", "amalgamate"])
def test_untaped_forwards_run_the_inference_batch(ws, monkeypatch, command):
    monkeypatch.setattr(tv, "INFERENCE_BATCH", 5)
    sizes, shipped = [], tv.forward_batch

    def forward(images, *args, **kwargs):
        sizes.append(len(images))
        return shipped(images, *args, **kwargs)

    monkeypatch.setattr(tv, "forward_batch", forward)
    inputs = {"train-teacher": ["--task", "1-2"], "train-baseline": [],
              "amalgamate": ["--teachers", ws["t1"], ws["t2"]]}[command]
    assert run(command, *inputs, "--data", ws["train"], "--eval-data", ws["eval"],
               "--out", ws["root"] / f"inference_batch_{command}.ckpt",
               "--config", ws["config"], "--set", "train.batch_size=4") == 0
    # The teacher cache's 16 images for each of 2 teachers, one epoch of 16
    # images in steps of 4, and one evaluation of 8 images.
    cache = [5, 5, 5, 5, 5, 5, 1, 1] if command == "amalgamate" else []
    assert sizes == cache + [4, 4, 4, 4] + [5, 3]


@pytest.mark.parametrize("cores, workers, shares", [(8, 1, 8), (8, 3, 2), (2, 2, 1),
                                                    (2, 4, 1)])
def test_ablation_workers_split_the_cores_between_them(monkeypatch, cores, workers, shares):
    monkeypatch.setattr(T, "core_count", lambda: cores)
    monkeypatch.setattr(T, "_max_shares", None)
    monkeypatch.setattr(cli, "_cells", {})
    cli._init_cells(workers, {}, None, None, [], "")
    assert T.share_count() == shares


def _children(pid: int) -> list[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(c) for c in fh.read().split()]


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_sigterm_to_a_parallel_ablation_ends_its_workers(ws):
    src = os.path.dirname(os.path.dirname(kaseq.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kaseq.cli", "ablate", "--suite", "compression",
         "--train-data", ws["train"], "--eval-data", ws["eval"], "--out", ws["root"] / "sigterm",
         "--seeds", "1", "--teachers", ws["t1"], ws["t2"], "--config", ws["config"],
         "--set", "train.epochs=10000", "--workers", "2"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(_children(proc.pid)) < 2 and time.monotonic() < deadline:
            assert proc.poll() is None
            time.sleep(0.05)
        time.sleep(1.0)  # the pool starts its last worker and the cells begin
        children = _children(proc.pid)
        assert len(children) >= 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, children))
    finally:
        proc.kill()
        proc.wait()
