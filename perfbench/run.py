#!/usr/bin/env python3
"""Seeded benchmark of kaseq amalgamation training and evaluation.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload builds its inputs from ``--seed`` and repeats one operation for
at least ``--seconds`` seconds (by default ``run_seconds`` of
``BENCHMARK.json``): an amalgamation epoch for the training workloads, an
``evaluate`` call for ``evaluate_student``. Set-up (dataset, models, teacher
caches) runs several times, spread over the timed region. Gated times are
calibrated: each operation and set-up is divided by the time of a fixed
calibration loop run just before it, so most of the host's speed changes cancel. With
``--trace 0`` it reports the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it wraps the package's public functions in spans and reports
the per-layer metrics instead. Every run checks the program's outputs: losses
and AP are finite, repeated operations give identical results, and a
fixed-seed reference run matches the values in ``perfbench/expected.json``.
The last line of standard output is one JSON object; a per-run result file
with the environment stamp goes to ``perfbench/results/``. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Both commits of a comparison run with the same BLAS thread count. One
# thread: the matrices are at most 128 x 128, and a second thread on a
# two-core host mostly adds scheduling noise.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BATCH = 16
TRAIN_IMAGES = 192       # one amalgamation epoch = 12 steps of 16 images
EVAL_IMAGES = 64         # one evaluate call = 64 held-out images
SETUP_REPEATS = 7
# Gated times are given at a reference machine speed, at which one pass of
# the calibration loop (``probe``) takes PROBE_MS.
PROBE_MS = 10.0
MIN_P90_SAMPLES = 100    # p90 needs ten samples beyond it
GOLDEN_SEED = 0
GOLDEN_TRAIN_IMAGES = 32
GOLDEN_EPOCHS = 2


@dataclass(frozen=True)
class Workload:
    kind: str            # "train" or "eval"
    compression: str
    mode: str = ""
    label_free: bool = False


WORKLOADS = {
    "amalg_sata_redundancy": Workload("train", "redundancy", "sa+ta"),
    "amalg_sa_uncompressed": Workload("train", "none", "sa", label_free=True),
    "evaluate_student": Workload("eval", "redundancy"),
}


# ---------------------------------------------------------------------------
# set-up


def derived_seeds(seed: int) -> dict:
    """Seeds of the training set, the held-out set and the student, drawn
    from ``seed``. The teacher pair is the same for every seed, the one seed
    0 draws: the cost of a training step follows the teachers (steps with
    another pair took 20% longer), while the data and student seeds move it
    by a few percent."""
    import numpy as np

    def draw(s):
        return [int(x) for x in np.random.SeedSequence(s).generate_state(4)]

    train, evalset, _, student = draw(seed)
    return {"train_data": train, "eval_data": evalset, "teachers": draw(0)[2],
            "student": student}


def teacher_checkpoints(cfg, partition, seed):
    """Seeded random-init teachers, one per subset, as ``train_teacher`` shapes them."""
    import numpy as np
    from kaseq import traineval as te
    from kaseq.detector import DetectorParams

    rng = np.random.default_rng(seed)
    out = []
    for t in range(partition.num_tasks):
        subset = sorted(partition.subset(t))
        tcfg = replace(cfg, num_parts=1, compression="none", num_categories=len(subset))
        params = DetectorParams.init(tcfg, rng)
        out.append(te.make_checkpoint(params, tcfg, {"task_subset": subset, "task_index": t}))
    return out


class Case:
    """One workload's inputs and models, built from its seeds."""

    def __init__(self, workload: Workload, seeds: dict, train_images: int):
        import numpy as np
        from kaseq import traineval as te
        from kaseq.data import TaskPartition, generate_dataset
        from kaseq.detector import DetectorConfig, DetectorParams

        self.workload = workload
        self.seeds = seeds
        base = DetectorConfig()
        self.partition = TaskPartition.equal_split(base.num_categories, 2)
        self.cfg = replace(base, num_parts=2, compression=workload.compression)
        if workload.kind == "train":
            self.dataset = generate_dataset(train_images, base.num_categories,
                                            base.image_size, seed=seeds["train_data"])
            self.teachers = teacher_checkpoints(base, self.partition, seeds["teachers"])
            self.memo: dict = {}
            self.amalgamate(epochs=0)
        else:
            self.dataset = generate_dataset(EVAL_IMAGES, base.num_categories,
                                            base.image_size, seed=seeds["eval_data"])
            params = DetectorParams.init(self.cfg, np.random.default_rng(seeds["student"]))
            self.student = te.make_checkpoint(params, self.cfg)

    def amalgamate(self, epochs: int, csv_path=None):
        from kaseq import traineval as te
        w = self.workload
        return te.amalgamate(self.teachers, self.dataset, self.cfg, w.mode, epochs,
                             self.seeds["student"], label_free=w.label_free,
                             batch_size=BATCH, csv_path=csv_path,
                             teachers_by_id=self.memo)

    def evaluate(self):
        from kaseq import traineval as te
        return te.evaluate(self.student, self.dataset, partition=self.partition)

    def config(self) -> dict:
        from kaseq import amalgamation as ka
        from kaseq import traineval as te
        out = {"student": self.cfg.to_dict(), "images": len(self.dataset),
               "batch": BATCH, "tasks": [list(s) for s in self.partition.subsets],
               "seeds": self.seeds}
        if self.workload.kind == "train":
            out.update(mode=self.workload.mode, label_free=self.workload.label_free,
                       weights=ka.KAWeights().to_dict(), optim=te.OptimSettings().to_dict(),
                       teacher=self.teachers[0].config.to_dict())
        return out


def probe() -> float:
    """Run a fixed calibration loop and return one pass's duration in seconds.
    It touches no kaseq code. Like the workloads, it mixes interpreter work,
    products of small matrices, and a dense layer's forward and backward on
    a 2048-row batch, so it slows with the host's speed phases (a shared host
    runs for seconds to minutes at a time up to twice as slow) and not with
    the program. The faster of two passes counts, so that a pass the
    scheduler interrupted does not."""
    import numpy as np
    passes = []
    for _ in range(2):
        a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 8.0
        x = np.linspace(-1.0, 1.0, 2048 * 64).reshape(2048, 64)
        t0 = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        for _ in range(100):
            a = np.tanh(a @ a)
        for _ in range(4):
            y = np.tanh(x @ a)
            x = x + 1e-3 * ((1.0 - y * y) @ a.T)
        passes.append(perf_counter() - t0)
    return min(passes)


def calibrated_ms(times: list[float], probes: list[float]) -> float:
    """Median of each time over its calibration pass, in ms at the reference
    speed."""
    return PROBE_MS * statistics.median(t / p for t, p in zip(times, probes))


@contextlib.contextmanager
def tracing(tracer):
    """Install the spans, and give calibration passes a span of their own
    (``trace.probe``) so that no layer's self time includes them."""
    global probe
    from tracer import installed
    untraced = probe
    with installed(tracer):
        probe = tracer.wrap("trace.probe", untraced)
        try:
            yield
        finally:
            probe = untraced


class Setups:
    """Builds a workload's ``Case`` ``SETUP_REPEATS`` times, at even steps of
    the timed region, so that the set-up times sample the whole run and not
    one moment of it. Each build frees the previous case first, so at most
    one case is alive. A calibration pass precedes each build; ``probes``
    holds their times and ``ranges`` each build's span indices."""

    def __init__(self, workload: Workload, seeds: dict, tracer):
        self.workload, self.seeds, self.tracer = workload, seeds, tracer
        self.times: list[float] = []
        self.probes: list[float] = []
        self.ranges: list[tuple[int, int]] = []
        self.case = None
        self.build()

    def build(self) -> None:
        self.case = None
        gc.collect()
        first = self.tracer.mark()
        self.probes.append(probe())
        t0 = perf_counter()
        self.case = Case(self.workload, self.seeds, TRAIN_IMAGES)
        self.times.append(perf_counter() - t0)
        self.ranges.append((first, self.tracer.mark()))

    def repeat(self, operation, seconds: float) -> float:
        """Call ``operation(case)`` until ``seconds`` of operation time have
        passed, rebuilding the case when a set-up is due. Returns the
        operation time, set-ups excluded."""
        spent = 0.0
        while spent < seconds:
            due = len(self.times) * seconds / SETUP_REPEATS
            if len(self.times) < SETUP_REPEATS and spent >= due:
                self.build()
            t0 = perf_counter()
            operation(self.case)
            spent += perf_counter() - t0
        while len(self.times) < SETUP_REPEATS:
            self.build()
        return spent


# ---------------------------------------------------------------------------
# timed region


@contextlib.contextmanager
def step_clock(stamps: list):
    """Each time ``AdamW.step`` returns, run the calibration loop and append
    the times it started and ended, and its pass time."""
    from kaseq import traineval as te
    original = te.AdamW.step

    def step(self, *args, **kwargs):
        original(self, *args, **kwargs)
        returned = perf_counter()
        took = probe()
        stamps.append((returned, perf_counter(), took))

    te.AdamW.step = step
    try:
        yield
    finally:
        te.AdamW.step = original


def read_loss_rows(path: Path) -> list[tuple[float, float, float]]:
    with open(path, newline="") as fh:
        return [(float(r["L_seq"]), float(r["L_task"]), float(r["L_d"]))
                for r in csv.DictReader(fh)]


def run_training(setups: Setups, seconds: float, csv_path: Path) -> dict:
    """Repeat one seeded amalgamation epoch. Every epoch must log the same
    finite losses as the first; its steps fail otherwise. A step's latency
    runs from the end of the calibration pass after the previous step to
    the return of its own ``AdamW.step``; its calibration pass is the mean
    of the passes before and after it."""
    csv_path.unlink(missing_ok=True)
    stamps: list[tuple[float, float, float]] = []
    calls = []  # (first stamp index, last stamp index, error or None)
    intervals: list[float] = []
    probes: list[float] = []

    def epoch(case):
        first = len(stamps)
        error = None
        try:
            case.amalgamate(epochs=1, csv_path=str(csv_path))
        except Exception:  # a failing epoch is counted, and the run goes on
            error = traceback.format_exc()
        calls.append((first, len(stamps), error))
        for (_, resumed, before), (done, _, after) in zip(stamps[first:-1], stamps[first + 1:]):
            intervals.append(done - resumed)
            probes.append((before + after) / 2)

    with step_clock(stamps):
        elapsed = setups.repeat(epoch, seconds)
    elapsed -= sum(resumed - returned for returned, resumed, _ in stamps)

    rows = read_loss_rows(csv_path) if csv_path.exists() else []
    reference = rows[0] if rows else None
    attempted = failed = images = 0
    errors = []
    row_iter = iter(rows)
    for first, last, error in calls:
        steps = last - first
        if error is not None:
            attempted += steps + 1
            failed += steps + 1
            errors.append(error)
            continue
        row = next(row_iter, None)
        attempted += steps
        if row is None or not all(map(math.isfinite, row)) or row != reference:
            failed += steps
            errors.append(f"epoch losses {row} differ from the first epoch's {reference}")
            continue
        images += len(setups.case.dataset)
    return {"elapsed": elapsed, "images": images, "attempted": attempted, "failed": failed,
            "latencies": intervals, "probes": probes,
            "ops": sum(last - first for first, last, _ in calls),
            "errors": errors, "losses": list(reference) if reference else None}


def report_key(report) -> tuple:
    return (report.ap, report.ap50, report.ap75, tuple(sorted(report.per_category.items())))


def run_evaluation(setups: Setups, seconds: float) -> dict:
    """Repeat ``evaluate`` on the held-out set; every report must equal the
    first. A calibration pass precedes each call; a call's pass is the mean
    of the one before it and the next one."""
    latencies: list[float] = []
    passes: list[float] = []
    timed: list[int] = []  # index in ``passes`` of each timed call
    attempted = failed = images = 0
    probing = 0.0
    errors = []
    reference = None

    def call(case):
        nonlocal attempted, failed, images, reference, probing
        attempted += 1
        t0 = perf_counter()
        passes.append(probe())
        probing += perf_counter() - t0
        t0 = perf_counter()
        try:
            report = case.evaluate()
        except Exception:  # a failing call is counted, and the run goes on
            failed += 1
            errors.append(traceback.format_exc())
            return
        latencies.append(perf_counter() - t0)
        timed.append(len(passes) - 1)
        key = report_key(report)
        reference = reference or key
        values = (report.ap, report.ap50, report.ap75)
        if key != reference or not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            failed += 1
            errors.append(f"report {values} differs from the first call's {reference[:3]}")
            return
        images += len(case.dataset)

    elapsed = setups.repeat(call, seconds) - probing
    probes = [(passes[i] + passes[min(i + 1, len(passes) - 1)]) / 2 for i in timed]
    return {"elapsed": elapsed, "images": images, "attempted": attempted, "failed": failed,
            "latencies": latencies, "probes": probes, "ops": attempted, "errors": errors,
            "ap": list(reference[:3]) if reference else None}


# ---------------------------------------------------------------------------
# fixed-seed reference check


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json") as fh:
        return json.load(fh)


def golden_values(name: str, csv_path: Path) -> list:
    """The fixed-seed outputs that ``expected.json`` records for a workload."""
    workload = WORKLOADS[name]
    case = Case(workload, derived_seeds(GOLDEN_SEED), GOLDEN_TRAIN_IMAGES)
    if workload.kind == "eval":
        report = case.evaluate()
        return [report.ap, report.ap50, report.ap75]
    csv_path.unlink(missing_ok=True)
    case.amalgamate(epochs=GOLDEN_EPOCHS, csv_path=str(csv_path))
    return [list(row) for row in read_loss_rows(csv_path)]


def golden_check(name: str, csv_path: Path) -> tuple[bool, str]:
    expected = load_expected()
    tol = expected["tolerance"][WORKLOADS[name].kind]
    want = expected["workloads"][name]
    try:
        got = golden_values(name, csv_path)
    except Exception:  # reported as a failed check
        return False, f"seed {GOLDEN_SEED} reference raised:\n{traceback.format_exc()}"
    import numpy as np
    flat_got, flat_want = np.ravel(got), np.ravel(want)
    ok = flat_got.shape == flat_want.shape and all(
        math.isfinite(g) and math.isclose(g, w, rel_tol=tol["rel"], abs_tol=tol["abs"])
        for g, w in zip(flat_got, flat_want))
    return ok, f"seed {GOLDEN_SEED} reference: got {got}, expected {want}"


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: dict, setups: Setups, peak_mb: float) -> dict:
    """Gated metrics. Operation and set-up times are calibrated: each is
    divided by the calibration pass run just before it, so that the host's
    speed phases, which move wall time by up to a factor of two, cancel."""
    lat = run["latencies"]
    return {"step_ms_cal": calibrated_ms(lat, run["probes"]) if lat else math.nan,
            "setup_s": calibrated_ms(setups.times, setups.probes) / 1e3,
            "peak_rss_mb": peak_mb}


def informational(run: dict, setups: Setups) -> dict:
    """Wall-clock throughput, latencies and set-up time, reported beside the
    gated metrics: machine-speed phases move them from run to run by more
    than a third of any bound the benchmark may set."""
    lat = run["latencies"]
    out = {"img_per_s": run["images"] / run["elapsed"],
           "setup_s_min": min(setups.times),
           "probe_ms": 1e3 * statistics.median(run["probes"] + setups.probes)}
    if lat:
        out["step_ms_min"] = 1e3 * min(lat)
        out["step_ms_p50"] = 1e3 * statistics.median(lat)
    if len(lat) >= MIN_P90_SAMPLES:
        out["step_ms_p90"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    return out


def per_layer(agg: dict, setup_agg: dict, ops: int, run: dict) -> dict:
    def entry(name):
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})

    def ms(name, key="s"):
        return 1e3 * entry(name)[key] / ops

    def per_op(name, count=None):
        e = entry(name)
        return (e["counts"].get(count, 0) if count else e["calls"]) / ops

    def per_call(name, count):
        e = entry(name)
        return e["counts"].get(count, 0) / e["calls"] if e["calls"] else 0.0

    build = setup_agg.get("traineval.TeacherCache.build", {"s": 0.0})["s"]
    return {
        "matching.hungarian.calls": per_op("matching.hungarian"),
        "matching.hungarian.cells": per_op("matching.hungarian", "cells"),
        "matching.hungarian.ms": ms("matching.hungarian"),
        "matching.build_cost_matrix.ms": ms("matching.build_cost_matrix"),
        "tensor.backward.calls": per_op("tensor.backward"),
        "tensor.backward.ms": ms("tensor.backward"),
        "tensor.backward.tape_nodes": per_call("tensor.backward", "tape_nodes"),
        "transformer.encoder_forward.ms": ms("transformer.encoder_forward"),
        "transformer.decoder_forward.ms": ms("transformer.decoder_forward"),
        "detector.forward_batch.self_ms": ms("detector.forward_batch", "self_s"),
        "traineval.AdamW.step.ms": ms("traineval.AdamW.step"),
        "amalgamation.sa_loss.ms": ms("amalgamation.sa_loss"),
        "amalgamation.ta_loss.self_ms": ms("amalgamation.ta_loss", "self_s"),
        "amalgamation.ta_loss.pool_size": per_call("amalgamation.ta_loss", "pool_size"),
        "amalgamation.ta_loss.fallback_share": per_call("amalgamation.ta_loss", "fallback"),
        "amalgamation.compress_redundancy.calls": per_op("amalgamation.compress_redundancy"),
        "amalgamation.compress_redundancy.ms": ms("amalgamation.compress_redundancy"),
        "traineval.detection_loss.self_ms": ms("traineval.detection_loss", "self_s"),
        "traineval.TeacherCache.build_s": build / SETUP_REPEATS,
        "traineval.TeacherCache.layer_rows.ms": ms("traineval.TeacherCache.layer_rows"),
        "traineval.collect_predictions.self_ms": ms("traineval.collect_predictions", "self_s"),
        "traineval.category_ap.ms": ms("traineval.category_ap"),
        "traineval.category_ap.predictions": per_op("traineval.category_ap", "predictions"),
        "traineval.amalgamate.self_ms": ms("traineval.amalgamate", "self_s"),
        "traineval.evaluate.self_ms": ms("traineval.evaluate", "self_s"),
        "data.Dataset.image.ms": ms("data.Dataset.image"),
        "trace.stats.ms": ms("trace.stats"),
        "trace.img_per_s": run["images"] / run["elapsed"],
        "trace.step_ms_cal": (calibrated_ms(run["latencies"], run["probes"])
                              if run["latencies"] else math.nan),
    }


def traffic(agg: dict, ops: int) -> dict:
    """Exact per-operation counts; for one seed they repeat run after run."""
    shapes = {}
    for name, e in agg.items():
        for key, value in e["counts"].items():
            if key.startswith("shape "):
                shapes[key[6:]] = value / ops
    return {"ops": ops,
            "calls_per_op": {name: e["calls"] / ops for name, e in sorted(agg.items())},
            "hungarian_shapes_per_op": dict(sorted(shapes.items())),
            "counts_per_op": {f"{name}.{k}": v / ops for name, e in sorted(agg.items())
                              for k, v in sorted(e["counts"].items())
                              if not k.startswith("shape ")}}


# ---------------------------------------------------------------------------
# peak memory


def reset_peak_rss() -> bool:
    """Reset the process's resident-memory high-water mark (Linux with glibc
    only). Freed memory goes back to the system first: glibc keeps the heap
    a finished workload used, up to hundreds of MB, resident otherwise."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except (OSError, AttributeError):
        return False


def peak_rss_mb() -> float:
    """Peak resident memory since the last reset, or since the process began
    where the mark cannot be read."""
    try:
        with open("/proc/self/status") as fh:
            return int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1)) / 1024.0
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment stamp


def environment() -> dict:
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {var: os.environ.get(var) for var in BLAS_ENV}},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 first_in_process: bool) -> dict:
    """One workload. Its ``peak_rss_mb`` is its own when the high-water mark
    can be reset, or when it is the first workload of the process; otherwise
    the metric is left out."""
    import kaseq.traineval  # noqa: F401  (import time is not set-up time)
    from tracer import Tracer

    workload = WORKLOADS[name]
    seeds = derived_seeds(seed)
    load_before = os.getloadavg()
    tag = f"{name}_seed{seed}_trace{int(trace)}"
    csv_path = RESULTS / f"{tag}.csv"
    tracer = Tracer()
    own_peak = reset_peak_rss() or first_in_process
    with tracing(tracer) if trace else contextlib.nullcontext():
        setups = Setups(workload, seeds, tracer)
        if workload.kind == "train":
            run = run_training(setups, seconds, csv_path)
        else:
            run = run_evaluation(setups, seconds)
        end_mark = tracer.mark()
    peak = peak_rss_mb() if own_peak else math.nan
    case = setups.case

    checks = []
    golden_ok, golden_msg = golden_check(name, RESULTS / f"{tag}.golden.csv")
    checks.append({"check": "fixed-seed reference", "ok": golden_ok, "detail": golden_msg})
    checks.append({"check": "repeated operations agree and are finite",
                   "ok": run["failed"] == 0, "detail": run["errors"][:3]})
    attempted = run["attempted"] + 1
    failed = run["failed"] + (0 if golden_ok else 1)
    correct = failed == 0 and run["images"] > 0

    if trace:
        ops = max(run["ops"], 1)
        built = setups.ranges
        timed = [(end, start) for (_, end), (start, _) in zip(built, built[1:] + [(end_mark, 0)])]
        agg = tracer.aggregate(timed)
        values = per_layer(agg, tracer.aggregate(built), ops, run)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(run, setups, peak)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if math.isfinite(values.get(m["name"], math.nan))}

    result = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "informational": informational(run, setups),
        "samples": {"latencies": len(run["latencies"]), "ops": run["ops"],
                    "images": run["images"], "elapsed_s": run["elapsed"],
                    "setup_s": setups.times, "setup_probe_s": setups.probes},
        "outputs": {k: run[k] for k in ("losses", "ap") if k in run},
        "checks": checks,
        "config": case.config(),
        "env": environment(),
        "loadavg": {"before": load_before, "after": os.getloadavg()},
    }
    if trace:
        result["traffic"] = traffic(agg, ops)
    with open(RESULTS / f"BENCH_{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["informational"].items():
        unit = {"img_per_s": "img/s", "setup_s_min": "s"}.get(name, "ms")
        print(f"  {name:44s} {value:>14.6g} {unit} (not gated)")
    s = result["samples"]
    print(f"  {'error_rate':44s} {result['error_rate']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  samples: {s['latencies']} latencies, {s['ops']} operations, "
          f"{s['images']} images in {s['elapsed_s']:.3f} s")
    for check in result["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['check']}")
        if not check["ok"]:
            print(f"    {check['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed region (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kaseq").is_dir():
        print(f"no kaseq sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    RESULTS.mkdir(exist_ok=True)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    seconds = args.seconds or spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, seconds, bool(args.trace), spec, i == 0)
               for i, n in enumerate(names)]
    for result in results:
        print_result(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
