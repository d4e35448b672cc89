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

import pytest

import kaseq
from kaseq import cli

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


def test_parallel_ablation_matches_the_serial_table(ws, monkeypatch):
    monkeypatch.delenv("KASEQ_THREADS", raising=False)
    tables = []
    for workers in (1, 2):
        out = ws["root"] / f"ablate_workers{workers}"
        assert run("ablate", "--suite", "compression", "--train-data", ws["train"],
                   "--eval-data", ws["eval"], "--out", out, "--seeds", 1,
                   "--teachers", ws["t1"], ws["t2"], "--config", ws["config"],
                   "--workers", workers) == 0
        tables.append((out / "compression.csv").read_text())
    assert tables[0] == tables[1]


def test_non_integer_process_count_exits_1(ws, capsys, monkeypatch):
    monkeypatch.setenv("KASEQ_THREADS", "many")
    assert run("ablate", "--suite", "compression", "--train-data", ws["train"],
               "--eval-data", ws["eval"], "--out", ws["root"] / "threads", "--seeds", 1,
               "--teachers", ws["t1"], ws["t2"], "--config", ws["config"]) == 1
    assert "KASEQ_THREADS" in capsys.readouterr().err
