"""End-to-end command-line runs on a tiny configuration, through ``cli.main``.

One module-scoped workspace holds the generated datasets and two trained
teachers; every test writes its own outputs beside them.
"""

import csv
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import kaseq
from kaseq import cli
from kaseq import traineval as tv
from kaseq.detector import DetectorConfig, DetectorParams

TINY = {
    "detector": {"image_size": 32, "patch_size": 8, "d_model": 16, "heads": 2,
                 "enc_layers": 1, "dec_layers": 1, "queries": 8, "ffn_dim": 16},
    "train": {"epochs": 1, "teacher_epochs": 1, "batch_size": 8, "eval_batch_size": 8},
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
    assert dump["config"]["gen"] == {"images": 16, "categories": 4, "size": 32}
    assert dump["config"]["seed"] == 0


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
    assert run("evaluate", "--model", student, "--data", ws["eval"], "--report", report,
               "--config", ws["config"]) == 0
    values = json.loads(report.read_text())
    assert set(values) == {"AP", "AP50", "AP75", "per_category", "per_subset"}
    assert 0.0 <= values["AP"] <= values["AP50"] <= 1.0
    assert "AP=" in capsys.readouterr().out


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
    os.remove(runs / "sa+ta_random_s0.report.json")
    assert run(*argv) == 0
    assert metrics_rows(table) == first
    assert os.stat(kept).st_mtime_ns == kept_mtime
    assert len(metrics_rows(runs / "sa+ta_random_s0.ckpt.metrics.csv")) == 1


def test_forced_retraining_starts_a_fresh_metrics_log(ws):
    out = ws["root"] / "raw.ckpt"
    argv = ["train-baseline", "--data", ws["train"], "--out", out,
            "--config", ws["config"], "--epochs", 2]
    assert run(*argv) == 0
    assert run(*argv, "--force") == 0
    rows = metrics_rows(str(out) + ".metrics.csv")
    assert [r["epoch"] for r in rows] == ["0", "1"]


def test_existing_output_needs_force(ws, capsys):
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2", "--out", ws["t1"],
               "--config", ws["config"]) == 1
    assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["4-1", "x", "1,,2"])
def test_bad_task_spec_exits_1(ws, capsys, task):
    assert run("train-teacher", "--data", ws["train"], "--task", task,
               "--out", ws["root"] / "bad.ckpt", "--config", ws["config"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("key", ["detector.bogus", "weights.bogus", "optim.bogus"])
def test_unknown_config_key_exits_1(ws, capsys, key):
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2",
               "--out", ws["root"] / "unknown.ckpt", "--config", ws["config"],
               "--set", f"{key}=1") == 1
    err = capsys.readouterr().err
    assert "'bogus'" in err and "Traceback" not in err


def test_wrongly_typed_config_value_exits_1(ws, capsys):
    assert run("train-teacher", "--data", ws["train"], "--task", "1-2",
               "--out", ws["root"] / "typed.ckpt", "--config", ws["config"],
               "--set", "optim.lr=fast") == 1
    assert "OptimSettings.lr" in capsys.readouterr().err


@pytest.mark.parametrize("setting, key", [("train.batch_size=x", "batch_size"),
                                          ("train.eval_batch_size=0", "eval_batch_size"),
                                          ("train.use_cache=true", "'use_cache'"),
                                          ("use_cache=true", "'use_cache'"),
                                          ("seed=x", "seed")])
def test_bad_train_or_top_level_key_exits_1(ws, capsys, setting, key):
    assert run("train-baseline", "--data", ws["train"], "--out", ws["root"] / "keys.ckpt",
               "--config", ws["config"], "--set", setting) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid request:") and key in err
    assert not (ws["root"] / "keys.ckpt").exists()


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


def test_parallel_ablation_matches_the_serial_table(ws):
    tables = []
    for workers in (1, 2):
        out = ws["root"] / f"ablate_workers{workers}"
        assert run("ablate", "--suite", "compression", "--train-data", ws["train"],
                   "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
                   "--teachers", ws["t1"], ws["t2"], "--config", ws["config"],
                   "--workers", workers) == 0
        tables.append((out / "compression.csv").read_text())
    assert tables[0] == tables[1]


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
    assert run("evaluate", "--model", ws["t1"], "--data", ws["eval"], "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "invalid UTF-8 at byte 18" in err


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
    assert err.startswith("data error:") and "'task_subset'" in err and "teacher 2" in err
    assert not out.exists()


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
