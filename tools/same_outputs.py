"""Digests of a fixed tiny set of training runs, to show that a change keeps
every output byte-equal.

    python3 tools/same_outputs.py <src dir> --shares K

imports ``kaseq`` from ``<src dir>`` and, through its command line, trains
on 32 generated 32-pixel images (evaluated on 16 others), 2 epochs each,
``enc_layers`` 2, batch 8: two ground-truth teachers (categories 1-4 and
5-8), a ``raw_ext`` baseline, and the students ``sag``, label-free
``sag``, label-free ``sa``/none, ``sa``/redundancy, ``sa+ta``/redundancy,
label-free ``sa+ta``/random and ``ta``/isometric. Every forward and
backward is split into K shares, whatever the core count. It prints the
sha256 of each checkpoint, each ``evaluate`` report and each metrics CSV
with its ``wall_seconds`` column dropped. Run it on two source trees (say,
a ``git archive`` of the parent commit and the working tree) at the same K
and compare the printed lines.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

CONFIG = {"detector": {"image_size": 32, "enc_layers": 2},
          "train": {"epochs": 2, "teacher_epochs": 2, "batch_size": 8}}
TEACHERS = (("teacher1", "1-4"), ("teacher2", "5-8"))
STUDENTS = (("sag", "sag", "none", False), ("sag_lf", "sag", "none", True),
            ("sa_none_lf", "sa", "none", True), ("sa_redundancy", "sa", "redundancy", False),
            ("sata_redundancy", "sa+ta", "redundancy", False),
            ("sata_random_lf", "sa+ta", "random", True), ("ta_isometric", "ta", "isometric", False))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _metrics_digest(path: str) -> str:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_seconds")
    out = io.StringIO()
    csv.writer(out).writerows([r[:drop] + r[drop + 1:] for r in rows])
    return _sha(out.getvalue().encode())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the kaseq package")
    parser.add_argument("--shares", type=int, default=1, help="shares per forward (default 1)")
    args = parser.parse_args()
    if args.shares < 1:
        parser.error("--shares must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    from kaseq import cli
    from kaseq import tensor as T
    T.core_count = lambda: args.shares  # K shares on any machine

    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "config.json")
        with open(config, "w") as fh:
            json.dump(CONFIG, fh)
        train, test = os.path.join(work, "train"), os.path.join(work, "eval")

        def run(*argv) -> None:
            with contextlib.redirect_stdout(io.StringIO()):  # the progress lines
                code = cli.main([str(a) for a in argv] + ["--config", config, "--force"])
            if code:
                raise SystemExit(f"kaseq {' '.join(map(str, argv))} exited {code}")

        run("gen-data", "--out", train, "--images", 32, "--size", 32, "--seed", 0)
        run("gen-data", "--out", test, "--images", 16, "--size", 32, "--seed", 1)
        ckpts = {}
        common = ("--data", train, "--eval-data", test)
        for name, task in TEACHERS:
            ckpts[name] = os.path.join(work, name + ".ckpt")
            run("train-teacher", *common, "--task", task, "--out", ckpts[name])
        ckpts["raw_ext"] = os.path.join(work, "raw_ext.ckpt")
        run("train-baseline", *common, "--variant", "raw_ext", "--parts", 2,
            "--out", ckpts["raw_ext"])
        teachers = [ckpts[name] for name, _ in TEACHERS]
        for name, mode, compress, label_free in STUDENTS:
            ckpts[name] = os.path.join(work, name + ".ckpt")
            run("amalgamate", *common, "--teachers", *teachers, "--mode", mode,
                "--compress", compress, *(["--label-free"] if label_free else []),
                "--out", ckpts[name])
        for name, path in ckpts.items():
            report = os.path.join(work, name + ".report.json")
            run("evaluate", "--model", path, "--data", test, "--report", report)
            with open(path, "rb") as fh:
                print(f"{_sha(fh.read())}  {name} checkpoint")
            with open(report, "rb") as fh:
                print(f"{_sha(fh.read())}  {name} report")
            print(f"{_metrics_digest(path + '.metrics.csv')}  {name} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
