"""Spans around kaseq's public functions, recorded from outside the package.

Each wrapper replaces a function where callers look it up (``forward_batch``
is bound by name into ``traineval`` as well as living in ``detector``), so
every call made by the program lands in a span. A span stores its name, its
parent span, its start and end, and optional counts taken from the call's
arguments. A layer's self time is its duration minus the durations of its
child spans; work the tracer does to take counts is itself a child span
(``trace.stats``), so it is charged to no layer.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

STATS_SPAN = "trace.stats"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, counts or None]
        self._stack: list[int] = []

    def wrap(self, name, fn, stats=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, parent, 0.0, 0.0, None])
            stack.append(index)
            if stats is not None:
                t0 = perf_counter()
                spans[index][4] = stats(*args, **kwargs)
                spans.append([STATS_SPAN, index, t0, perf_counter(), None])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end

        return traced

    def mark(self) -> int:
        """Index of the next span, to delimit a phase of the run."""
        return len(self.spans)

    def aggregate(self, ranges: list[tuple[int, int]]) -> dict:
        """Per span name: calls, total and self seconds, and summed counts,
        over the spans of each ``(first, last)`` index range, ``last``
        excluded. A range starts and ends outside any span."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                    "counts": Counter()})
        for first, last in ranges:
            spans = self.spans[first:last]
            child = [0.0] * len(spans)
            for name, parent, start, end, _ in spans:
                if parent >= first:
                    child[parent - first] += end - start
            for (name, _, start, end, counts), below in zip(spans, child):
                entry = out[name]
                entry["calls"] += 1
                entry["s"] += end - start
                entry["self_s"] += end - start - below
                if counts:
                    entry["counts"].update(counts)
        return dict(out)


def _tape_stats(topo_order):
    def stats(loss):
        return {"tape_nodes": len(topo_order(loss))}
    return stats


def _hungarian_stats(cost):
    rows, cols = cost.shape
    return {"cells": rows * cols, f"shape {rows}x{cols}": 1}


def _ta_stats(filter_pool):
    def stats(student_dists, student_boxes, pool_dists, pool_boxes, weights):
        m = student_dists.shape[0]
        confident = int((pool_dists[:, :-1].max(axis=1) >= weights.confidence_threshold).sum())
        kept = len(filter_pool(pool_dists, weights.confidence_threshold, m))
        return {"pool_size": kept, "fallback": int(confident < m)}
    return stats


def _ap_stats(predictions, gt_boxes_by_image, threshold):
    return {"predictions": len(predictions)}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the traced functions for the duration of the block."""
    from kaseq import amalgamation, data, detector, matching, tensor, traineval, transformer

    forward = tracer.wrap("detector.forward_batch", detector.forward_batch)
    targets = [
        (traineval, "amalgamate", "traineval.amalgamate", None),
        (traineval, "evaluate", "traineval.evaluate", None),
        (traineval, "detection_loss", "traineval.detection_loss", None),
        (traineval, "collect_predictions", "traineval.collect_predictions", None),
        (traineval, "category_ap", "traineval.category_ap", _ap_stats),
        (traineval.AdamW, "step", "traineval.AdamW.step", None),
        (traineval.TeacherCache, "__init__", "traineval.TeacherCache.build", None),
        (traineval.TeacherCache, "layer_rows", "traineval.TeacherCache.layer_rows", None),
        (transformer, "encoder_forward", "transformer.encoder_forward", None),
        (transformer, "decoder_forward", "transformer.decoder_forward", None),
        (tensor, "backward", "tensor.backward", _tape_stats(tensor._topo_order)),
        (matching, "hungarian", "matching.hungarian", _hungarian_stats),
        (matching, "build_cost_matrix", "matching.build_cost_matrix", None),
        (amalgamation, "sa_loss", "amalgamation.sa_loss", None),
        (amalgamation, "ta_loss", "amalgamation.ta_loss", _ta_stats(amalgamation.filter_pool)),
        (amalgamation, "compress_redundancy", "amalgamation.compress_redundancy", None),
        (data.Dataset, "image", "data.Dataset.image", None),
    ]
    saved = [(detector, "forward_batch", detector.forward_batch),
             (traineval, "forward_batch", traineval.forward_batch)]
    saved += [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        detector.forward_batch = forward
        traineval.forward_batch = forward
        for owner, attr, name, stats in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), stats))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

