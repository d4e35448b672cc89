"""Command-line entry point.

Configuration is layered: built-in defaults, then an optional JSON config
file (--config), then explicit command-line flags, later layers winning.
The effective merged configuration is dumped alongside every artifact so
any run can be reconstructed from its outputs.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure (non-finite loss; the last good checkpoint is dumped next to the
requested output).
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import data as D
from . import traineval as tv
from .amalgamation import KAWeights
from .detector import DetectorConfig
from .errors import (ConfigError, ContractError, DataFormatError, NumericError,
                     ShapeError, UsageError)
from .settings import Settings

TABLE4_MODES = ("raw", "sag", "sa", "ta", "ta_lf", "sa+ta", "sa+ta_lf")
COMPRESSION_SUITE = ("redundancy", "isometric", "random")


@dataclass
class TrainSettings(Settings):
    epochs: int = 40
    teacher_epochs: int = 60
    batch_size: int = 16
    eval_batch_size: int = 32

    def __post_init__(self):
        for key in ("epochs", "teacher_epochs"):
            if getattr(self, key) < 0:
                raise ConfigError(f"TrainSettings.{key} must be non-negative")
        for key in ("batch_size", "eval_batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"TrainSettings.{key} must be at least 1")


# The settings class that validates each configuration section.
SECTIONS = {"detector": DetectorConfig, "weights": KAWeights,
            "optim": tv.OptimSettings, "train": TrainSettings}


def default_config() -> dict:
    cfg = {name: cls().to_dict() for name, cls in SECTIONS.items()}
    cfg["seed"] = 0
    return cfg


def validate_config(cfg: dict) -> None:
    """Raise ConfigError naming the first unknown top-level key, bad section
    entry, or non-integer seed."""
    for key in cfg:
        if key not in SECTIONS and key != "seed":
            raise ConfigError(f"unknown top-level config key {key!r}")
    for name, cls in SECTIONS.items():
        cls.from_dict(cfg[name])
    seed = cfg["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be int, got {seed!r}")


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file {path} does not exist")
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
    if getattr(args, "config", None):
        cfg = deep_merge(cfg, load_config_file(args.config))
    if getattr(args, "set", None):
        cfg = deep_merge(cfg, _parse_set(args.set))
    if flag_overrides:
        cfg = deep_merge(cfg, flag_overrides)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    validate_config(cfg)
    return cfg


def dump_effective_config(cfg: dict, command: str, target: str) -> None:
    """Write the merged configuration next to the artifact it produced."""
    if os.path.isdir(target):
        path = os.path.join(target, "config.json")
    else:
        path = target + ".config.json"
    with open(path, "w") as fh:
        json.dump({"command": command, "config": cfg}, fh, indent=1)


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
    if not cats:
        raise UsageError(f"task spec {spec!r} selects no categories")
    return sorted(cats)


def _epochs_flag(args, key: str = "epochs") -> Optional[dict]:
    """The --epochs flag, when given, as an override of ``train.<key>``."""
    return None if args.epochs is None else {"train": {key: args.epochs}}


def _guard_output(path: str, force: bool, is_dir: bool = False) -> None:
    marker = os.path.join(path, "annotations.json") if is_dir else path
    if os.path.exists(marker) and not force:
        raise UsageError(f"refusing to overwrite {marker}; pass --force")


def _detector_config(cfg: dict, **overrides) -> DetectorConfig:
    merged = dict(cfg["detector"])
    merged.update(overrides)
    return DetectorConfig.from_dict(merged)


def _require_file(path: str, what: str) -> None:
    if not os.path.exists(path):
        raise UsageError(f"{what} {path} does not exist")


def _full_partition_for_subset(subset: list[int], num_categories: int) -> D.TaskPartition:
    complement = tuple(c for c in range(1, num_categories + 1) if c not in set(subset))
    subsets = (tuple(subset),) + ((complement,) if complement else ())
    return D.TaskPartition(subsets, num_categories)


# ---------------------------------------------------------------------------
# training runs, one per kind, shared by the commands and the ablation suites


def _run_settings(cfg: dict, out: str) -> dict:
    """Arguments every training run takes from the configuration and from
    the checkpoint path ``out``. A run starts its metrics log afresh, so rows
    of an earlier or interrupted run at the same path never precede its own."""
    settings = {"opt_settings": tv.OptimSettings.from_dict(cfg["optim"]),
                "weights": KAWeights.from_dict(cfg["weights"]),
                "batch_size": cfg["train"]["batch_size"],
                "csv_path": out + ".metrics.csv", "crash_dump": out + ".crash.ckpt"}
    if os.path.exists(settings["csv_path"]):
        os.remove(settings["csv_path"])
    return settings


def run_teacher(cfg: dict, train: D.Dataset, eval_ds: Optional[D.Dataset],
                partition: D.TaskPartition, task_index: int, seed: int, epochs: int,
                out: str) -> tv.Checkpoint:
    """Train teacher ``task_index`` of ``partition`` and save it at ``out``."""
    ckpt, _ = tv.train_teacher(train, partition, task_index, _detector_config(cfg),
                               epochs=epochs, seed=seed, eval_ds=eval_ds,
                               **_run_settings(cfg, out))
    tv.save_checkpoint(ckpt, out)
    return ckpt


def run_baseline(cfg: dict, train: D.Dataset, eval_ds: Optional[D.Dataset],
                 variant: str, parts: int, seed: int, epochs: int,
                 out: str) -> tv.Checkpoint:
    """Train a ground-truth-only detector over all categories and save it at ``out``."""
    det_cfg = _detector_config(cfg, num_parts=parts, num_categories=train.num_categories,
                               compression="none")
    ckpt, _ = tv.train_detector_gt(
        train, det_cfg, epochs=epochs, seed=seed,
        category_ids=list(range(1, train.num_categories + 1)), eval_ds=eval_ds,
        mode_label=variant, **_run_settings(cfg, out))
    tv.save_checkpoint(ckpt, out)
    return ckpt


def run_amalgamation(cfg: dict, train: D.Dataset, eval_ds: Optional[D.Dataset],
                     teacher_ckpts: list, mode: str, compress: str, label_free: bool,
                     seed: int, epochs: int, out: str,
                     teachers_by_id: Optional[dict] = None) -> tv.Checkpoint:
    """Amalgamate the teachers into a student and save it at ``out``."""
    parts = 1 if mode == "sag" else len(teacher_ckpts)
    det_cfg = _detector_config(cfg, num_parts=parts, num_categories=train.num_categories,
                               compression=compress)
    ckpt = tv.amalgamate(teacher_ckpts, train, det_cfg, mode, epochs=epochs, seed=seed,
                         eval_ds=eval_ds, label_free=label_free,
                         teachers_by_id=teachers_by_id, **_run_settings(cfg, out))
    tv.save_checkpoint(ckpt, out)
    return ckpt


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value)


def _evaluate_checkpoint(cfg: dict, ckpt: tv.Checkpoint, dataset: D.Dataset) -> tv.EvalReport:
    """Evaluate over the category ids and task partition the checkpoint
    records; either entry that does not fit the model and the dataset is a
    DataFormatError naming its metadata key."""
    num = ckpt.config.num_categories
    partition = None
    if "partition" in ckpt.metadata:
        subsets = ckpt.metadata["partition"]
        if not (isinstance(subsets, list) and all(_is_int_list(s) for s in subsets)):
            raise DataFormatError(f"checkpoint metadata 'partition' {subsets!r} is not a "
                                  f"list of integer lists")
        try:
            partition = D.TaskPartition.from_jsonable(subsets, num)
        except ContractError as e:
            raise DataFormatError(f"checkpoint metadata 'partition' {subsets!r} is not a "
                                  f"partition of categories 1..{num}: {e}") from None
    category_ids = ckpt.metadata.get("category_ids", list(range(1, num + 1)))
    if not (_is_int_list(category_ids) and len(set(category_ids)) == len(category_ids) == num
            and all(1 <= c <= dataset.num_categories for c in category_ids)):
        raise DataFormatError(f"checkpoint metadata 'category_ids' {category_ids!r} is not "
                              f"{num} distinct integers in 1..{dataset.num_categories}")
    return tv.evaluate(ckpt, dataset, category_ids=category_ids,
                       partition=partition, batch_size=cfg["train"]["eval_batch_size"])


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    if args.images < 1:
        raise UsageError("--images must be at least 1")
    cfg = build_config(args)
    _guard_output(args.out, args.force, is_dir=True)
    dataset = D.generate_dataset(count=args.images, num_categories=args.categories,
                                 image_size=args.size, seed=cfg["seed"])
    os.makedirs(args.out, exist_ok=True)
    D.persist_dataset(dataset, args.out)
    dump_effective_config(deep_merge(cfg, {"gen": {
        "images": args.images, "categories": args.categories, "size": args.size}}),
        "gen-data", args.out)
    print(f"wrote {args.images} images to {args.out}")
    return 0


def _load_train_eval(args):
    _require_file(os.path.join(args.data, "annotations.json"), "dataset")
    train = D.load_dataset(args.data)
    eval_ds = None
    if getattr(args, "eval_data", None):
        _require_file(os.path.join(args.eval_data, "annotations.json"), "dataset")
        eval_ds = D.load_dataset(args.eval_data)
    return train, eval_ds


def _load_teachers(paths: Sequence[str]) -> list:
    ckpts = []
    for t, path in enumerate(paths):
        _require_file(path, "teacher checkpoint")
        ckpt = tv.load_checkpoint(path)
        subset, num = ckpt.metadata.get("task_subset"), ckpt.config.num_categories
        if not (_is_int_list(subset) and len(set(subset)) == len(subset) == num):
            raise DataFormatError(f"teacher {t + 1} ({path}): metadata 'task_subset' "
                                  f"{subset!r} is not {num} distinct integers")
        ckpts.append(ckpt)
    return ckpts


def cmd_train_teacher(args) -> int:
    cfg = build_config(args, _epochs_flag(args, "teacher_epochs"))
    _guard_output(args.out, args.force)
    train, eval_ds = _load_train_eval(args)
    subset = parse_task_spec(args.task)
    if max(subset) > train.num_categories:
        raise UsageError(f"task categories exceed the dataset universe 1..{train.num_categories}")
    partition = _full_partition_for_subset(subset, train.num_categories)
    run_teacher(cfg, train, eval_ds, partition, 0, cfg["seed"],
                cfg["train"]["teacher_epochs"], args.out)
    dump_effective_config(cfg, "train-teacher", args.out)
    print(f"teacher checkpoint written to {args.out}")
    return 0


def cmd_train_baseline(args) -> int:
    cfg = build_config(args, _epochs_flag(args))
    _guard_output(args.out, args.force)
    train, eval_ds = _load_train_eval(args)
    run_baseline(cfg, train, eval_ds, args.variant, 1 if args.variant == "raw" else args.parts,
                 cfg["seed"], cfg["train"]["epochs"], args.out)
    dump_effective_config(cfg, "train-baseline", args.out)
    print(f"{args.variant} checkpoint written to {args.out}")
    return 0


def cmd_amalgamate(args) -> int:
    cfg = build_config(args, _epochs_flag(args))
    _guard_output(args.out, args.force)
    if len(args.teachers) < 2 and args.mode != "sag":
        raise UsageError("amalgamation expects at least two teacher checkpoints")
    if args.mode == "sag" and args.compress != "none":
        raise UsageError("the aggregation baseline operates on unextended sequences; "
                         "--compress must be none")
    if args.label_free:
        cfg = deep_merge(cfg, {"weights": {"lambda_direct": 0.0}})
    train, eval_ds = _load_train_eval(args)
    run_amalgamation(cfg, train, eval_ds, _load_teachers(args.teachers), args.mode,
                     args.compress, args.label_free, cfg["seed"],
                     cfg["train"]["epochs"], args.out)
    dump_effective_config(cfg, "amalgamate", args.out)
    print(f"student checkpoint written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = build_config(args)
    _require_file(args.model, "checkpoint")
    _require_file(os.path.join(args.data, "annotations.json"), "dataset")
    ckpt = tv.load_checkpoint(args.model)
    report = _evaluate_checkpoint(cfg, ckpt, D.load_dataset(args.data))
    print(f"AP={report.ap:.4f} AP50={report.ap50:.4f} AP75={report.ap75:.4f}")
    for name, value in sorted(report.per_subset.items()):
        print(f"  {name}: AP={value:.4f}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1)
        dump_effective_config(cfg, "evaluate", args.report)
    return 0


def cmd_analyze_redundancy(args) -> int:
    cfg = build_config(args)
    _require_file(args.model, "checkpoint")
    _require_file(os.path.join(args.data, "annotations.json"), "dataset")
    _guard_output(args.out, args.force)
    ckpt = tv.load_checkpoint(args.model)
    dataset = D.load_dataset(args.data)
    report = tv.analyze_redundancy(ckpt, dataset)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "count"])
        for low, count in report.rows():
            writer.writerow([f"{low:.2f}", count])
    dump_effective_config(cfg, "analyze-redundancy", args.out)
    print(f"tokens={report.token_count} fraction_R_above_0.5="
          f"{report.fraction_above_half:.4f}")
    return 0


# ---------------------------------------------------------------------------
# ablation suites


def _suite_settings(suite: str) -> list[dict]:
    if suite == "table4":
        settings = []
        for mode in TABLE4_MODES:
            label_free = mode.endswith("_lf")
            base = mode[:-3] if label_free else mode
            settings.append({"label": mode, "mode": base, "label_free": label_free,
                             "compress": "none"})
        return settings
    if suite == "compression":
        return [{"label": f"sa+ta_{strategy}", "mode": "sa+ta", "label_free": False,
                 "compress": strategy} for strategy in COMPRESSION_SUITE]
    raise UsageError(f"unknown suite {suite!r}")


def run_single_ablation(setting: dict, seed: int, cfg: dict,
                        train: D.Dataset, eval_ds: D.Dataset,
                        teacher_ckpts: list, out_dir: str,
                        teachers_by_id=None) -> dict:
    """Train (or resume) one ablation cell and return its consolidated row."""
    label = f"{setting['label']}_s{seed}"
    run_dir = os.path.join(out_dir, "runs")
    os.makedirs(run_dir, exist_ok=True)
    ckpt_path = os.path.join(run_dir, f"{label}.ckpt")
    report_path = os.path.join(run_dir, f"{label}.report.json")
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            return D.read_json(fh.read(), report_path)

    epochs = cfg["train"]["epochs"]
    if os.path.exists(ckpt_path):
        ckpt = tv.load_checkpoint(ckpt_path)
    elif setting["mode"] == "raw":
        ckpt = run_baseline(cfg, train, eval_ds, "raw", 1, seed, epochs, ckpt_path)
    else:
        ckpt = run_amalgamation(cfg, train, eval_ds, teacher_ckpts, setting["mode"],
                                setting["compress"], setting["label_free"], seed, epochs,
                                ckpt_path, teachers_by_id)

    report = _evaluate_checkpoint(cfg, ckpt, eval_ds)
    row = {"mode": setting["label"], "seed": seed, "AP": report.ap,
           "AP50": report.ap50, "AP75": report.ap75}
    with open(report_path, "w") as fh:
        json.dump(row, fh)
    return row


def _prepare_teachers(args, cfg, train, eval_ds, out_dir) -> list:
    if args.teachers:
        return _load_teachers(args.teachers)
    teacher_dir = os.path.join(out_dir, "teachers")
    os.makedirs(teacher_dir, exist_ok=True)
    partition = D.TaskPartition.equal_split(train.num_categories, args.teacher_count)
    ckpts = []
    for t in range(args.teacher_count):
        path = os.path.join(teacher_dir, f"teacher{t + 1}.ckpt")
        if os.path.exists(path):
            ckpts.append(tv.load_checkpoint(path))
        else:
            ckpts.append(run_teacher(cfg, train, eval_ds, partition, t, cfg["seed"] + 1000 + t,
                                     cfg["train"]["teacher_epochs"], path))
    return ckpts


def cmd_ablate(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    cfg = build_config(args, _epochs_flag(args))
    settings = _suite_settings(args.suite)
    os.makedirs(args.out, exist_ok=True)
    train = D.load_dataset(args.train_data)
    eval_ds = D.load_dataset(args.eval_data)
    teacher_ckpts = _prepare_teachers(args, cfg, train, eval_ds, args.out)

    seeds = list(range(args.seeds))
    jobs = [(setting, seed) for setting in settings for seed in seeds]
    rows = []
    if args.workers > 1:
        import multiprocessing as mp
        ctx = mp.get_context("spawn")
        payload = [(setting, seed, cfg, args.train_data, args.eval_data,
                    [os.path.join(args.out, "teachers", f"teacher{t + 1}.ckpt")
                     if not args.teachers else args.teachers[t]
                     for t in range(len(teacher_ckpts))], args.out)
                   for setting, seed in jobs]
        with ctx.Pool(processes=args.workers) as pool:
            rows = pool.map(_ablation_worker, payload)
    else:
        shared_teachers: dict = {}
        for setting, seed in jobs:
            row = run_single_ablation(setting, seed, cfg, train, eval_ds,
                                      teacher_ckpts, args.out,
                                      teachers_by_id=shared_teachers)
            print(f"{row['mode']} seed {row['seed']}: AP50={row['AP50']:.4f}")
            rows.append(row)

    table = os.path.join(args.out, "ablation.csv" if args.suite == "table4"
                         else "compression.csv")
    with open(table, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["mode", "seed", "AP", "AP50", "AP75"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    dump_effective_config(cfg, f"ablate:{args.suite}", args.out)
    print(f"wrote {table} with {len(rows)} rows")
    return 0


def _ablation_worker(payload) -> dict:
    setting, seed, cfg, train_dir, eval_dir, teacher_paths, out_dir = payload
    train = D.load_dataset(train_dir)
    eval_ds = D.load_dataset(eval_dir)
    teacher_ckpts = [tv.load_checkpoint(p) for p in teacher_paths]
    return run_single_ablation(setting, seed, cfg, train, eval_ds,
                               teacher_ckpts, out_dir)


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file merged over defaults")
    p.add_argument("--set", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config entry (dotted path)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")


def build_parser() -> _Parser:
    parser = _Parser(prog="kaseq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and persist a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--images", type=int, default=2000)
    p.add_argument("--categories", type=int, default=8)
    p.add_argument("--size", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="train one task-specialized teacher")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--task", required=True, help="category subset, e.g. 1-4 or 1,3,5")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("train-baseline", help="train the raw or raw_ext baseline")
    p.add_argument("--variant", choices=("raw", "raw_ext"), default="raw")
    p.add_argument("--parts", type=int, default=2,
                   help="extension width for raw_ext")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("amalgamate", help="train the student from frozen teachers")
    p.add_argument("--teachers", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--mode", choices=tv.AMALGAMATION_MODES, default="sa+ta")
    p.add_argument("--compress", choices=("none", "isometric", "random", "redundancy"),
                   default="none")
    p.add_argument("--label-free", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("evaluate", help="COCO-style AP report for a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="write the full report JSON here")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze-redundancy",
                       help="histogram of extended-sequence token redundancy")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="destination CSV")
    _add_common(p)
    p.set_defaults(func=cmd_analyze_redundancy)

    p = sub.add_parser("ablate", help="run an ablation suite end to end")
    p.add_argument("--suite", choices=("table4", "compression"), default="table4")
    p.add_argument("--train-data", required=True)
    p.add_argument("--eval-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--epochs", type=int)
    p.add_argument("--teachers", nargs="*", default=None,
                   help="pretrained teacher checkpoints (default: train them)")
    p.add_argument("--teacher-count", type=int, default=2)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes running ablation cells in parallel "
                        "(1, the default, runs them in this process)")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
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
