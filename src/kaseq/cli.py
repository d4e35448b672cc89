"""Command-line entry point.

The training commands (train-teacher, train-baseline, amalgamate, ablate)
read a configuration layered from built-in defaults, an optional JSON file
(--config) and command-line flags, later layers winning, and dump the one
that ran next to their artifact, with a trained model's own detector
section, so any run can be reconstructed from its outputs. Every one of
their training runs, an ablation's teachers and cells included, goes
through :func:`_train`: it restarts the run's metrics log, calls the
trainer, which returns only the checkpoint, and saves that. gen-data reads
only the seed (--seed) and records it with its own settings; evaluate and
analyze-redundancy read only a checkpoint and a dataset. train-baseline
trains ``raw`` at --parts 1 and ``raw_ext`` at 2 or more. An ablation
checks its teachers against every cell before it creates its directory,
where it records its configuration and digests of its datasets and
teachers before the first cell, and resumes only with the same ones.
These records, the tables and ``evaluate --report`` are written
atomically, as checkpoints are. An ablation cell's checkpoint is its only
record: a resumed ``ablate`` trains only the cells without one and
recomputes every row from its checkpoint, so the table is scored by the
running code.

Each run splits its forwards and backward passes across the CPU cores
itself, so BLAS runs one thread per matrix product unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set: BLAS
threads on top of the shares would oversubscribe the cores.

``ablate`` runs its cells in this process or, with --workers k, in a pool
of up to k spawned processes that split the cores between them. Either way
a process receives the datasets and teachers once, keeps one teacher-set
cache for all the cells it runs, and this process prints each cell's line
in suite order. That cache grows to what the process's cells read: it holds
the teachers' sequences, their predictions or both, as far as the cells run
so far read them, and a cell that reads more rebuilds it once to hold both
(in table4 order: one encoder-only build for sag and sa, one full build from
ta on). Each process, a worker included, may also keep up to 64 MiB of
freed heap mapped per malloc arena (one per share thread) for its next
forward (see ``detector._keep_freed_heap``).
A SIGTERM to this process terminates the workers and exits with code 143.

Exit codes: 0 success, 1 usage error (a path that cannot be read or
written as given included: a missing input, or a directory where a file
belongs or the reverse), 2 data/format error, 3 numeric failure (non-finite
loss; the last good checkpoint is dumped next to the requested output).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import io
import json
import multiprocessing
import os
import signal
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

# Before numpy loads BLAS; spawned workers inherit the setting.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import data as D
from . import detector
from . import tensor as T
from . import traineval as tv
from .amalgamation import KAWeights
from .detector import DetectorConfig
from .errors import (ConfigError, ContractError, DataFormatError, NumericError,
                     ShapeError, UsageError)
from .settings import Settings

TABLE4_MODES = ("raw", "sag", "sa", "ta", "ta_lf", "sa+ta", "sa+ta_lf")
COMPRESSION_SUITE = ("redundancy", "isometric", "random")
# Each ablation suite's table and its cells, in table order.
SUITES = {
    "table4": ("ablation.csv", [
        {"label": mode, "mode": mode.removesuffix("_lf"), "label_free": mode.endswith("_lf"),
         "compress": "none"} for mode in TABLE4_MODES]),
    "compression": ("compression.csv", [
        {"label": f"sa+ta_{strategy}", "mode": "sa+ta", "label_free": False,
         "compress": strategy} for strategy in COMPRESSION_SUITE]),
}


@dataclass
class TrainSettings(Settings):
    epochs: int = 40
    teacher_epochs: int = 60
    batch_size: int = 16

    def __post_init__(self):
        self._require(("epochs", "teacher_epochs"), lambda v: v >= 0, "non-negative")
        self._require(("batch_size",), lambda v: v >= 1, "at least 1")


# The settings class that validates each configuration section.
SECTIONS = {"detector": DetectorConfig, "weights": KAWeights,
            "optim": tv.OptimSettings, "train": TrainSettings}


def default_config() -> dict:
    cfg = {name: cls().to_dict() for name, cls in SECTIONS.items()}
    cfg["seed"] = 0
    return cfg


def _check_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative int, got {seed!r}")
    return seed


def validate_config(cfg: dict) -> None:
    """Raise ConfigError naming the first unknown top-level key, bad section
    entry, or a seed that is not a non-negative int."""
    for key in cfg:
        if key not in SECTIONS and key != "seed":
            raise ConfigError(f"unknown top-level config key {key!r}")
    for name, cls in SECTIONS.items():
        cls.from_dict(cfg[name])
    _check_seed(cfg["seed"])


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config_file(path: str) -> dict:
    with open(path, "rb") as fh:
        doc = D.read_json(fh.read(), path)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: config root must be an object")
    return doc


def _parse_set(assignments: Sequence[str]) -> dict:
    out: dict = {}
    for item in assignments:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return out


def build_config(args, flag_overrides: Optional[dict] = None) -> dict:
    cfg = default_config()
    if args.config:
        cfg = deep_merge(cfg, load_config_file(args.config))
    if args.set:
        cfg = deep_merge(cfg, _parse_set(args.set))
    if flag_overrides:
        cfg = deep_merge(cfg, flag_overrides)
    if args.seed is not None:
        cfg["seed"] = args.seed
    validate_config(cfg)
    return cfg


def dump_effective_config(cfg: dict, command: str, target: str) -> None:
    """Write the merged configuration next to the artifact it produced."""
    if os.path.isdir(target):
        path = os.path.join(target, "config.json")
    else:
        path = target + ".config.json"
    D.write_atomic(path, json.dumps({"command": command, "config": cfg}, indent=1).encode())


def parse_task_spec(spec: str) -> list[int]:
    """Category set syntax: '1-4', '1,3,5', or mixtures like '1-3,7'."""
    cats: set[int] = set()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty chunk in task spec {spec!r}")
        if "-" in chunk:
            lo, _, hi = chunk.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise UsageError(f"bad range {chunk!r} in task spec") from None
            if hi_i < lo_i:
                raise UsageError(f"descending range {chunk!r} in task spec")
            cats.update(range(lo_i, hi_i + 1))
        else:
            try:
                cats.add(int(chunk))
            except ValueError:
                raise UsageError(f"bad category {chunk!r} in task spec") from None
    return sorted(cats)


def _epochs_flag(args, key: str = "epochs") -> Optional[dict]:
    """The --epochs flag, when given, as an override of ``train.<key>``."""
    return None if args.epochs is None else {"train": {key: args.epochs}}


def _guard_kind(path: str, is_dir: bool) -> None:
    """Refuse an output ``path`` that exists as the other kind of file than
    ``is_dir`` names."""
    if os.path.exists(path) and os.path.isdir(path) != is_dir:
        raise UsageError(f"output {path} is {'not ' if is_dir else ''}a directory")


def _guard_output(path: str, force: bool, is_dir: bool = False) -> None:
    """:func:`_guard_kind`, and refuse an output ``path`` whose earlier
    output it would overwrite without ``force``."""
    _guard_kind(path, is_dir)
    marker = os.path.join(path, "annotations.json") if is_dir else path
    if os.path.exists(marker) and not force:
        raise UsageError(f"refusing to overwrite {marker}; pass --force")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a CSV table atomically, as ``csv.writer`` writes one."""
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    D.write_atomic(path, text.getvalue().encode())


def _detector_config(cfg: dict, **overrides) -> DetectorConfig:
    return DetectorConfig.from_dict({**cfg["detector"], **overrides})


# ---------------------------------------------------------------------------
# training runs, the one path of every command and ablation suite


def _train(cfg: dict, out: str, trainer, *args, **kwargs) -> tv.Checkpoint:
    """Run ``trainer`` on ``args`` and ``kwargs`` with the arguments every
    training run takes from the configuration and from the checkpoint path
    ``out``, and save the checkpoint it returns at ``out``. A run starts its
    metrics log afresh, so rows of an earlier or interrupted run at the same
    path never precede its own; a run rejected before it began a log puts
    the earlier one back."""
    log, earlier = out + ".metrics.csv", out + ".metrics.csv.earlier"
    if os.path.exists(log):
        os.replace(log, earlier)
    try:
        ckpt = trainer(*args, opt_settings=tv.OptimSettings.from_dict(cfg["optim"]),
                       weights=KAWeights.from_dict(cfg["weights"]),
                       batch_size=cfg["train"]["batch_size"], csv_path=log,
                       crash_dump=out + ".crash.ckpt", **kwargs)
    finally:
        if os.path.exists(earlier):
            if os.path.exists(log):
                os.remove(earlier)
            else:
                os.replace(earlier, log)
    tv.save_checkpoint(ckpt, out)
    return ckpt


def _student_config(cfg: dict, train: D.Dataset, teachers: int, mode: str,
                    compress: str) -> DetectorConfig:
    return _detector_config(cfg, num_parts=1 if mode == "sag" else teachers,
                            num_categories=train.num_categories, compression=compress)


def _require_teachers(count: int) -> None:  # every amalgamation mode but sag
    if count < 2:
        raise UsageError(f"amalgamation expects at least two teachers, not {count}")


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    if args.images < 1:
        raise UsageError("--images must be at least 1")
    seed = _check_seed(args.seed or 0)
    _guard_output(args.out, args.force, is_dir=True)
    dataset = D.generate_dataset(count=args.images, num_categories=args.categories,
                                 image_size=args.size, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    D.persist_dataset(dataset, args.out)
    dump_effective_config({"seed": seed, "gen": {
        "images": args.images, "categories": args.categories, "size": args.size}},
        "gen-data", args.out)
    print(f"wrote {args.images} images to {args.out}")
    return 0


def _load_train_eval(args):
    train = D.load_dataset(args.data)
    return train, D.load_dataset(args.eval_data) if args.eval_data else None


def cmd_train_teacher(args) -> int:
    cfg = build_config(args, _epochs_flag(args, "teacher_epochs"))
    _guard_output(args.out, args.force)
    train, eval_ds = _load_train_eval(args)
    subset = parse_task_spec(args.task)
    if subset[0] < 1 or subset[-1] > train.num_categories:
        raise UsageError(f"task categories outside the dataset universe 1..{train.num_categories}")
    ckpt = _train(cfg, args.out, tv.train_teacher, train, subset, 0, _detector_config(cfg),
                  epochs=cfg["train"]["teacher_epochs"], seed=cfg["seed"], eval_ds=eval_ds)
    dump_effective_config({**cfg, "detector": ckpt.config.to_dict()}, "train-teacher", args.out)
    print(f"teacher checkpoint written to {args.out}")
    return 0


def cmd_train_baseline(args) -> int:
    cfg = build_config(args, _epochs_flag(args))
    _guard_output(args.out, args.force)
    train, eval_ds = _load_train_eval(args)
    ckpt = _train(cfg, args.out, tv.train_baseline, train,
                  _detector_config(cfg, num_parts=args.parts), epochs=cfg["train"]["epochs"],
                  seed=cfg["seed"], eval_ds=eval_ds)
    dump_effective_config({**cfg, "detector": ckpt.config.to_dict()}, "train-baseline", args.out)
    print(f"{ckpt.metadata['mode']} checkpoint written to {args.out}")
    return 0


def cmd_amalgamate(args) -> int:
    cfg = build_config(args, _epochs_flag(args))
    _guard_output(args.out, args.force)
    if args.mode != "sag":
        _require_teachers(len(args.teachers))
    if args.label_free:
        cfg = deep_merge(cfg, {"weights": {"lambda_direct": 0.0}})
    train, eval_ds = _load_train_eval(args)
    teachers = [tv.load_checkpoint(path) for path in args.teachers]
    student = _student_config(cfg, train, len(teachers), args.mode,
                              args.compress or cfg["detector"]["compression"])
    ckpt = _train(cfg, args.out, tv.amalgamate, teachers, train, student, args.mode,
                  epochs=cfg["train"]["epochs"], seed=cfg["seed"], eval_ds=eval_ds,
                  label_free=args.label_free)
    dump_effective_config({**cfg, "detector": ckpt.config.to_dict()}, "amalgamate", args.out)
    print(f"student checkpoint written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.report:
        _guard_kind(args.report, is_dir=False)  # an earlier report is rewritten
    report = tv.evaluate(tv.load_checkpoint(args.model), D.load_dataset(args.data))
    print(f"AP={report.ap:.4f} AP50={report.ap50:.4f} AP75={report.ap75:.4f}")
    for name, value in sorted(report.per_subset.items()):
        print(f"  {name}: AP={value:.4f}")
    if args.report:
        os.makedirs(os.path.dirname(args.report) or ".", exist_ok=True)
        D.write_atomic(args.report, json.dumps(report.to_dict(), indent=1).encode())
    return 0


def cmd_analyze_redundancy(args) -> int:
    _guard_output(args.out, args.force)
    report = tv.analyze_redundancy(tv.load_checkpoint(args.model), D.load_dataset(args.data))
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    _write_csv(args.out, ["bin_low", "count"],
               [[f"{low:.2f}", count] for low, count in report.rows()])
    print(f"tokens={report.token_count} fraction_R_above_0.5="
          f"{report.fraction_above_half:.4f}")
    return 0


# ---------------------------------------------------------------------------
# ablation suites


def run_single_ablation(setting: dict, seed: int, cfg: dict,
                        train: D.Dataset, eval_ds: D.Dataset,
                        teacher_ckpts: list, out_dir: str,
                        teachers_by_id=None) -> dict:
    """One ablation cell's row, the evaluation of its checkpoint on ``eval_ds``;
    the cell is trained first unless its checkpoint exists."""
    run_dir = os.path.join(out_dir, "runs")
    os.makedirs(run_dir, exist_ok=True)
    ckpt_path = os.path.join(run_dir, f"{setting['label']}_s{seed}.ckpt")
    run = {"epochs": cfg["train"]["epochs"], "seed": seed, "eval_ds": eval_ds}
    if os.path.exists(ckpt_path):
        ckpt = tv.load_checkpoint(ckpt_path)
    elif setting["mode"] == "raw":
        ckpt = _train(cfg, ckpt_path, tv.train_baseline, train,
                      _detector_config(cfg, num_parts=1), **run)
    else:
        student = _student_config(cfg, train, len(teacher_ckpts), setting["mode"],
                                  setting["compress"])
        ckpt = _train(cfg, ckpt_path, tv.amalgamate, teacher_ckpts, train, student,
                      setting["mode"], label_free=setting["label_free"],
                      teachers_by_id=teachers_by_id, **run)

    report = tv.evaluate(ckpt, eval_ds)
    return {"mode": setting["label"], "seed": seed, "AP": report.ap,
            "AP50": report.ap50, "AP75": report.ap75}


def _check_teachers(args, cfg: dict, settings: list[dict],
                    train: D.Dataset) -> tuple[list, D.TaskPartition]:
    """``--teachers`` loaded (none when they are to be trained) and the
    teachers' partition, once every amalgamation cell in ``settings`` is
    known to accept them."""
    if args.teachers:
        given = [tv.load_checkpoint(path) for path in args.teachers]
        partition = tv.teacher_partition(given, train.num_categories)
        teacher_cfgs = [ckpt.config for ckpt in given]
    else:
        given, partition = [], D.TaskPartition.equal_split(train.num_categories,
                                                           args.teacher_count)
        teacher_cfgs = [tv.teacher_config(_detector_config(cfg), subset)
                        for subset in partition.subsets]
    _require_teachers(len(teacher_cfgs))
    for setting in (s for s in settings if s["mode"] != "raw"):
        tv.check_student(teacher_cfgs, _student_config(
            cfg, train, len(teacher_cfgs), setting["mode"], setting["compress"]), setting["mode"])
    return given, partition


def _prepare_teachers(cfg, train, eval_ds, partition: D.TaskPartition, out_dir,
                      resumed: bool) -> list:
    """The teachers of ``partition`` under ``<out>/teachers``, trained unless they exist."""
    teacher_dir = os.path.join(out_dir, "teachers")
    paths = [os.path.join(teacher_dir, f"teacher{t + 1}.ckpt")
             for t in range(partition.num_tasks)]
    if resumed and not all(os.path.exists(path) for path in paths):
        raise UsageError(f"{out_dir} records a run of other teachers than {len(paths)} under "
                         f"{teacher_dir}; resume with its --teachers or --teacher-count")
    os.makedirs(teacher_dir, exist_ok=True)
    ckpts = []
    for t, path in enumerate(paths):
        if os.path.exists(path):
            ckpts.append(tv.load_checkpoint(path))
        else:
            ckpts.append(_train(cfg, path, tv.train_teacher, train, partition.subset(t), t,
                                _detector_config(cfg), epochs=cfg["train"]["teacher_epochs"],
                                seed=cfg["seed"] + 1000 + t, eval_ds=eval_ds))
    return ckpts


def _flat(cfg: dict, prefix: str = "") -> dict:
    """Every entry of a nested configuration under its dotted path."""
    flat = {}
    for key, value in cfg.items():
        flat.update(_flat(value, f"{prefix}{key}.") if isinstance(value, dict)
                    else {prefix + key: value})
    return flat


def _check_recorded(path: str, key: str, new: dict) -> None:
    """For a resumed ablation: raise UsageError naming the first entry in
    which ``new`` differs from the ``key`` object that ``path`` records."""
    old = load_config_file(path).get(key)
    if not isinstance(old, dict):
        raise DataFormatError(f"{path}: lacks a {key!r} object")
    old, new = _flat(old), _flat(new)
    diff = next((k for k in [*new, *old] if k not in old or k not in new or old[k] != new[k]), None)
    if diff is not None:
        raise UsageError(f"{path} records other {key} ({diff!r} differs); "
                         f"resume with the recorded {key} or use another --out")


def cmd_ablate(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    _guard_kind(args.out, is_dir=True)  # created only once the teachers are checked
    cfg = build_config(args, _epochs_flag(args))
    table_name, settings = SUITES[args.suite]
    train, eval_ds = D.load_dataset(args.train_data), D.load_dataset(args.eval_data)
    given, partition = _check_teachers(args, cfg, settings, train)
    os.makedirs(args.out, exist_ok=True)
    # A resumed run reuses the teachers and cells of the run recorded here.
    recorded = os.path.join(args.out, "config.json")
    if os.path.exists(recorded):
        _check_recorded(recorded, "config", cfg)
    dump_effective_config(cfg, f"ablate:{args.suite}", args.out)
    recorded = os.path.join(args.out, "inputs.json")
    teacher_ckpts = given or _prepare_teachers(cfg, train, eval_ds, partition, args.out,
                                               resumed=os.path.exists(recorded))
    digests = {"--train-data": train.digest(), "--eval-data": eval_ds.digest(),
               "--teachers": [tv._teacher_digest(c) for c in teacher_ckpts]}
    if os.path.exists(recorded):
        _check_recorded(recorded, "inputs", digests)
    D.write_atomic(recorded, json.dumps({"inputs": digests}, indent=1).encode())

    jobs = [(setting, seed) for setting in settings for seed in range(args.seeds)]
    inputs = (cfg, train, eval_ds, teacher_ckpts, args.out)
    processes = min(args.workers, len(jobs))
    rows = []
    with contextlib.ExitStack() as stack:
        stack.callback(_cells.clear)
        if processes > 1:
            # A SIGTERM leaves through this stack, which terminates the pool.
            stack.callback(signal.signal, signal.SIGTERM, signal.signal(
                signal.SIGTERM, lambda signum, _: sys.exit(128 + signum)))
            pool = stack.enter_context(multiprocessing.get_context("spawn").Pool(
                processes, initializer=_init_cells, initargs=(processes, *inputs)))
            cells = pool.imap(_run_cell, jobs)
        else:
            _init_cells(None, *inputs)
            cells = map(_run_cell, jobs)
        for row in cells:
            print(f"{row['mode']} seed {row['seed']}: AP50={row['AP50']:.4f}")
            rows.append(row)

    table = os.path.join(args.out, table_name)
    fields = ["mode", "seed", "AP", "AP50", "AP75"]
    _write_csv(table, fields, [[row[k] for k in fields] for row in rows])
    print(f"wrote {table} with {len(rows)} rows")
    return 0


# The inputs of the ablation cells this process runs, set by _init_cells.
_cells: dict = {}


def _init_cells(processes: Optional[int], cfg: dict, train: D.Dataset, eval_ds: D.Dataset,
                teacher_ckpts: list, out_dir: str) -> None:
    """Ready this process to run ablation cells, one teacher-set memo for all of them; as one
    of ``processes`` sharing the cores (None: the only one), cap its shares at its part."""
    if processes is not None:
        T.limit_shares(max(1, T.core_count() // processes))
    _cells.update(cfg=cfg, train=train, eval_ds=eval_ds, teacher_ckpts=teacher_ckpts,
                  out_dir=out_dir, teachers_by_id={})


def _run_cell(job: tuple) -> dict:
    setting, seed = job
    return run_single_ablation(setting, seed, **_cells)


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_COMMON = {"--config": dict(help="JSON config file merged over defaults"),
           "--set": dict(action="append", default=[], metavar="KEY=VALUE",
                         help="override one config entry (dotted path)"),
           "--seed": dict(type=int, default=None),
           "--force": dict(action="store_true", help="overwrite existing outputs")}


def _add_common(p: _Parser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_COMMON[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="kaseq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and persist a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--images", type=int, default=2000)
    p.add_argument("--categories", type=int, default=8)
    p.add_argument("--size", type=int, default=64)
    _add_common(p, "--seed", "--force")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="train one task-specialized teacher")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--task", required=True, help="category subset, e.g. 1-4 or 1,3,5")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    _add_common(p, "--config", "--set", "--seed", "--force")
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("train-baseline", help="train the raw or raw_ext baseline")
    p.add_argument("--parts", type=int, default=1,
                   help="extension width: 1 trains raw, 2 or more raw_ext")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    _add_common(p, "--config", "--set", "--seed", "--force")
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("amalgamate", help="train the student from frozen teachers")
    p.add_argument("--teachers", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--mode", choices=tv.AMALGAMATION_MODES, default="sa+ta")
    p.add_argument("--compress", choices=detector.COMPRESSION_MODES,
                   help="token compression (default: detector.compression)")
    p.add_argument("--label-free", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    _add_common(p, "--config", "--set", "--seed", "--force")
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("evaluate", help="COCO-style AP report for a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="write the full report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze-redundancy",
                       help="histogram of extended-sequence token redundancy")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="destination CSV")
    _add_common(p, "--force")
    p.set_defaults(func=cmd_analyze_redundancy)

    p = sub.add_parser("ablate", help="run an ablation suite end to end")
    p.add_argument("--suite", choices=SUITES, default="table4")
    p.add_argument("--train-data", required=True)
    p.add_argument("--eval-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--epochs", type=int)
    teachers = p.add_mutually_exclusive_group()
    teachers.add_argument("--teachers", nargs="+",
                          help="pretrained teacher checkpoints (default: train them)")
    # A str default, so that an explicit --teacher-count 2 beside --teachers is refused.
    teachers.add_argument("--teacher-count", type=int, default="2")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes running ablation cells in parallel, splitting "
                        "the cores; each receives the inputs and builds a teacher cache once "
                        "(1, the default, runs them in this process)")
    _add_common(p, "--config", "--set", "--seed")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ConfigError, ContractError, ShapeError) as e:
        print(f"invalid request: {e}", file=sys.stderr)
        return 1
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
