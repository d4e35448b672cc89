"""Synthetic detection dataset: generation, task partitioning, persistence.

Categories are shape x color combinations rendered onto noisy backgrounds;
boxes are tight pixel extents of each shape's own geometry, normalized to
[0, 1] cxcywh. Images persist as binary PPM (P6), annotations as one
COCO-style JSON document. Generation is deterministic per (seed, index) and
embarrassingly parallel per image.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError

SHAPES = ("square", "circle", "triangle", "cross", "diamond", "ring", "hbar", "vbar")
COLORS = (("red", (0.85, 0.16, 0.12)), ("green", (0.18, 0.80, 0.22)))


@dataclass(frozen=True)
class Annotation:
    """One ground-truth object: normalized (cx, cy, w, h) box and category id."""

    box: tuple[float, float, float, float]
    category: int

    def box_array(self) -> np.ndarray:
        return np.asarray(self.box, dtype=np.float64)


@dataclass(frozen=True)
class TaskPartition:
    """Disjoint category subsets C^1..C^N covering the student universe."""

    subsets: tuple[tuple[int, ...], ...]
    num_categories: int

    def __post_init__(self):
        seen: set[int] = set()
        for sub in self.subsets:
            if not sub:
                raise ContractError("empty task subset")
            for c in sub:
                if not 1 <= c <= self.num_categories:
                    raise ContractError(f"category {c} outside universe 1..{self.num_categories}")
                if c in seen:
                    raise ContractError(f"category {c} appears in two task subsets")
                seen.add(c)
        if seen != set(range(1, self.num_categories + 1)):
            raise ContractError("task subsets must cover the full category universe")

    @classmethod
    def equal_split(cls, num_categories: int, num_parts: int) -> "TaskPartition":
        if num_parts < 1:
            raise ConfigError(f"the categories need at least 1 task, not {num_parts}")
        if num_categories % num_parts:
            raise ConfigError(f"{num_categories} categories do not split into {num_parts} equal tasks")
        size = num_categories // num_parts
        subsets = tuple(tuple(range(t * size + 1, (t + 1) * size + 1)) for t in range(num_parts))
        return cls(subsets, num_categories)

    @property
    def num_tasks(self) -> int:
        return len(self.subsets)

    def subset(self, t: int) -> tuple[int, ...]:
        if not 0 <= t < len(self.subsets):
            raise ContractError(f"task index {t} out of range")
        return self.subsets[t]

    def to_jsonable(self):
        return [list(s) for s in self.subsets]

    @classmethod
    def from_jsonable(cls, subsets, num_categories: int) -> "TaskPartition":
        return cls(tuple(tuple(int(c) for c in s) for s in subsets), num_categories)


def category_name(category: int) -> str:
    shape_idx, color_idx = divmod(category - 1, len(COLORS))
    return f"{COLORS[color_idx][0]}-{SHAPES[shape_idx]}"


class Dataset:
    """In-memory image/annotation pairs with an annotation-access counter.

    The counter backs the label-free audit: training code must fetch ground
    truth only through :meth:`annotations_for`.
    """

    def __init__(self, images: list[np.ndarray], annotations: list[list[Annotation]],
                 num_categories: int, image_size: int):
        if len(images) != len(annotations):
            raise ContractError("images and annotation lists must align")
        self._images = images
        self._annotations = annotations
        self.num_categories = num_categories
        self.image_size = image_size
        self.annotation_reads = 0

    def __len__(self) -> int:
        return len(self._images)

    def image(self, i: int) -> np.ndarray:
        return self._images[i]

    def annotations_for(self, i: int) -> list[Annotation]:
        self.annotation_reads += 1
        return self._annotations[i]

    def category_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_categories, dtype=np.int64)
        for anns in self._annotations:
            for a in anns:
                counts[a.category - 1] += 1
        return counts


def _shape_mask(shape: str, size: int, cx: float, cy: float, s: float) -> np.ndarray:
    coords = np.arange(size) + 0.5
    dx = coords[None, :] - cx
    dy = coords[:, None] - cy
    half = s / 2.0
    if shape == "square":
        return (np.abs(dx) <= half) & (np.abs(dy) <= half)
    if shape == "circle":
        return dx * dx + dy * dy <= half * half
    if shape == "triangle":
        return (np.abs(dy) <= half) & (np.abs(dx) <= (dy + half) / 2.0)
    if shape == "cross":
        arm = s / 6.0
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= half)) | \
               ((np.abs(dy) <= arm) & (np.abs(dx) <= half))
    if shape == "diamond":
        return np.abs(dx) + np.abs(dy) <= half
    if shape == "ring":
        r2 = dx * dx + dy * dy
        return (r2 <= half * half) & (r2 >= (half / 2.0) ** 2)
    if shape == "hbar":
        return (np.abs(dy) <= s / 6.0) & (np.abs(dx) <= half)
    if shape == "vbar":
        return (np.abs(dx) <= s / 6.0) & (np.abs(dy) <= half)
    raise ConfigError(f"unknown shape {shape!r}")


def _mask_tight_box(mask: np.ndarray, size: int) -> tuple[float, float, float, float]:
    ys, xs = np.nonzero(mask)
    x0, x1 = int(xs.min()), int(xs.max()) + 1
    y0, y1 = int(ys.min()), int(ys.max()) + 1
    return ((x0 + x1) / 2.0 / size, (y0 + y1) / 2.0 / size,
            (x1 - x0) / size, (y1 - y0) / size)


def render_image(index: int, seed: int, num_categories: int,
                 image_size: int) -> tuple[np.ndarray, list[Annotation]]:
    """Render one image plus annotations from its derived seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    img = rng.uniform(0.0, 0.10, size=(image_size, image_size, 3))
    annotations = []
    for _ in range(int(rng.integers(1, 6))):
        category = int(rng.integers(1, num_categories + 1))
        shape_idx, color_idx = divmod(category - 1, len(COLORS))
        s = float(rng.uniform(image_size * 0.16, image_size * 0.42))
        cx = float(rng.uniform(s / 2, image_size - s / 2))
        cy = float(rng.uniform(s / 2, image_size - s / 2))
        mask = _shape_mask(SHAPES[shape_idx], image_size, cx, cy, s)
        brightness = float(rng.uniform(0.85, 1.0))
        color = np.asarray(COLORS[color_idx][1]) * brightness
        img[mask] = color
        annotations.append(Annotation(box=_mask_tight_box(mask, image_size),
                                      category=category))
    return img.astype(np.float32), annotations


def generate_dataset(count: int, num_categories: int = 8, image_size: int = 64,
                     seed: int = 0) -> Dataset:
    if count < 1:
        raise ContractError("dataset needs at least one image")
    if num_categories % 2 or not 2 <= num_categories <= len(SHAPES) * len(COLORS):
        raise ConfigError(f"category count must be even and at most {len(SHAPES) * len(COLORS)}")
    images, annotations = [], []
    for i in range(count):
        img, anns = render_image(i, seed, num_categories, image_size)
        images.append(img)
        annotations.append(anns)
    return Dataset(images, annotations, num_categories, image_size)


def apply_task(annotations: Iterable[Annotation], partition: TaskPartition,
               t: int) -> list[Annotation]:
    """Keep annotations whose category belongs to task t's subset."""
    wanted = set(partition.subset(t))
    return [a for a in annotations if a.category in wanted]


# ---------------------------------------------------------------------------
# persistence


def _write_atomic(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _encode_ppm(image: np.ndarray) -> bytes:
    h, w = image.shape[:2]
    pixels = np.clip(np.round(np.asarray(image, dtype=np.float64) * 255.0), 0, 255)
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes()


def _decode_ppm(raw: bytes, origin: str) -> np.ndarray:
    if not raw.startswith(b"P6\n"):
        raise DataFormatError(f"{origin}: not a P6 PPM (bad magic at byte 0)")
    header_end = raw.find(b"\n", 3)
    if header_end < 0:
        raise DataFormatError(f"{origin}: truncated header at byte {len(raw)}")
    try:
        w, h = (int(tok) for tok in raw[3:header_end].split())
    except ValueError:
        raise DataFormatError(f"{origin}: bad dimensions at byte 3") from None
    maxval_end = raw.find(b"\n", header_end + 1)
    if raw[header_end + 1:maxval_end] != b"255":
        raise DataFormatError(f"{origin}: unsupported maxval at byte {header_end + 1}")
    body = raw[maxval_end + 1:]
    expected = w * h * 3
    if len(body) != expected:
        raise DataFormatError(
            f"{origin}: payload is {len(body)} bytes at byte {maxval_end + 1}, expected {expected}")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)
    return (pixels.astype(np.float32) / 255.0)


def persist_dataset(dataset: Dataset, root: str) -> None:
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    doc = {
        "images": [],
        "annotations": [],
        "categories": [{"id": c, "name": category_name(c)}
                       for c in range(1, dataset.num_categories + 1)],
    }
    ann_id = 0
    for i in range(len(dataset)):
        name = f"images/{i:06d}.ppm"
        _write_atomic(os.path.join(root, name), _encode_ppm(dataset.image(i)))
        doc["images"].append({"id": i, "file_name": name,
                              "width": dataset.image_size, "height": dataset.image_size})
        for ann in dataset._annotations[i]:
            doc["annotations"].append({"id": ann_id, "image_id": i,
                                       "category_id": ann.category,
                                       "bbox": list(ann.box)})
            ann_id += 1
    _write_atomic(os.path.join(root, "annotations.json"),
                  json.dumps(doc, indent=1).encode())


_IMAGE_FIELDS = {"id": int, "file_name": str, "width": int, "height": int}
_ANNOTATION_FIELDS = {"image_id": int, "category_id": int, "bbox": list}


def _check_entry(entry, fields: dict, where: str) -> None:
    """Raise DataFormatError unless ``entry`` is an object holding each field
    with a value of its type (a boolean is not an integer)."""
    if not isinstance(entry, dict):
        raise DataFormatError(f"{where} is not an object")
    for key, kind in fields.items():
        value = entry.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DataFormatError(f"{where} lacks an entry '{key}' of type {kind.__name__}")


def load_dataset(root: str) -> Dataset:
    ann_path = os.path.join(root, "annotations.json")
    if not os.path.exists(ann_path):
        raise DataFormatError(f"missing annotation document {ann_path}")
    with open(ann_path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{ann_path}: invalid JSON at byte {e.pos}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{ann_path}: the document is not an object")
    for key in ("images", "annotations", "categories"):
        if not isinstance(doc.get(key), list):
            raise DataFormatError(f"{ann_path}: missing '{key}' section (a list)")
    num_categories = len(doc["categories"])
    for n, rec in enumerate(doc["images"]):
        _check_entry(rec, _IMAGE_FIELDS, f"{ann_path}: image entry {n}")
    records = sorted(doc["images"], key=lambda r: r["id"])
    images, annotations = [], []
    id_to_slot = {}
    size = None
    for rec in records:
        if rec["id"] in id_to_slot:
            raise DataFormatError(f"{ann_path}: image id {rec['id']} appears twice")
        path = os.path.join(root, rec["file_name"])
        if not os.path.exists(path):
            raise DataFormatError(f"missing image file {path}")
        with open(path, "rb") as fh:
            img = _decode_ppm(fh.read(), rec["file_name"])
        if img.shape[0] != rec["height"] or img.shape[1] != rec["width"]:
            raise DataFormatError(f"{rec['file_name']}: dimensions disagree with document")
        size = img.shape[0]
        id_to_slot[rec["id"]] = len(images)
        images.append(img)
        annotations.append([])
    for n, ann in enumerate(doc["annotations"]):
        where = f"{ann_path}: annotation entry {n}"
        _check_entry(ann, _ANNOTATION_FIELDS, where)
        slot = id_to_slot.get(ann["image_id"])
        if slot is None:
            raise DataFormatError(f"{where} references unknown image {ann['image_id']}")
        if not 1 <= ann["category_id"] <= num_categories:
            raise DataFormatError(f"{where} has category_id {ann['category_id']} outside "
                                  f"1..{num_categories}")
        box = ann["bbox"]
        # The bound also rejects NaN and integers too large for a float.
        if len(box) != 4 or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max for x in box):
            raise DataFormatError(f"{where} has bbox {box!r}, not 4 finite numbers")
        annotations[slot].append(Annotation(box=tuple(float(x) for x in box),
                                            category=ann["category_id"]))
    return Dataset(images, annotations, num_categories, size or 0)
