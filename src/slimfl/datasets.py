"""Datasets: IDX file loading, Gaussian-blob synthesis, Dirichlet sharding."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True, eq=False)
class Dataset:
    x: np.ndarray  # (n, dim) float64
    y: np.ndarray  # (n,) int64
    n_classes: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError(f"{len(self.x)} samples but {len(self.y)} labels")

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices], self.n_classes)


@dataclass(frozen=True, eq=False)
class Shard:
    """A device's training samples; its device is its index in the shard list."""

    indices: np.ndarray
    class_histogram: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def _read_u32_be(fh, field: str) -> int:
    raw = fh.read(4)
    if len(raw) < 4:
        raise ValueError(f"idx file truncated while reading {field}")
    return struct.unpack(">I", raw)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair; pixels scaled to [0, 1], images flattened."""
    with open(images_path, "rb") as fh:
        magic = _read_u32_be(fh, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"image magic: expected {IDX_IMAGE_MAGIC:#010x}, got {magic:#010x}")
        n = _read_u32_be(fh, "image count")
        rows = _read_u32_be(fh, "image rows")
        cols = _read_u32_be(fh, "image cols")
        raw = fh.read(n * rows * cols)
        if len(raw) < n * rows * cols:
            raise ValueError(
                f"image data: expected {n * rows * cols} bytes, file holds {len(raw)}"
            )
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)

    with open(labels_path, "rb") as fh:
        magic = _read_u32_be(fh, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"label magic: expected {IDX_LABEL_MAGIC:#010x}, got {magic:#010x}")
        n_labels = _read_u32_be(fh, "label count")
        raw = fh.read(n_labels)
        if len(raw) < n_labels:
            raise ValueError(f"label data: expected {n_labels} bytes, file holds {len(raw)}")
        labels = np.frombuffer(raw, dtype=np.uint8)

    if n != n_labels:
        raise ValueError(f"image/label count mismatch: {n} images vs {n_labels} labels")
    return Dataset(
        x=images.astype(np.float64) / 255.0,
        y=labels.astype(np.int64),
        n_classes=int(labels.max()) + 1 if n_labels else 0,
    )


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Inverse of load_idx for fixtures; images are (n, rows, cols) uint8."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        fh.write(labels.tobytes())


def class_means(classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm class centers; shared between train and test draws."""
    means = rng.normal(size=(classes, dim))
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def synth_dataset(
    classes: int,
    per_class: int,
    dim: int,
    rng: np.random.Generator,
    spread: float = 1.0,
    means: np.ndarray | None = None,
) -> Dataset:
    """Gaussian blobs: one center per class, isotropic noise of scale `spread`.

    Labels are exactly balanced (per_class each); rows are shuffled.
    """
    if means is None:
        means = class_means(classes, dim, rng)
    x = np.repeat(means, per_class, axis=0) + spread * rng.normal(size=(classes * per_class, dim))
    y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    order = rng.permutation(len(y))
    return Dataset(x=x[order], y=y[order], n_classes=classes)


def dirichlet_partition(
    labels: np.ndarray, n_devices: int, alpha: float, rng: np.random.Generator
) -> list[Shard]:
    """Split sample indices across devices with per-class Dirichlet proportions.

    Lower alpha concentrates each class on few devices (more skew).  Empty
    shards are repaired by stealing one sample from the largest shard so
    every device can train.
    """
    labels = np.asarray(labels)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_devices < 1:
        raise ValueError("need at least one device")
    if n_devices > len(labels):
        raise ValueError(f"cannot split {len(labels)} samples across {n_devices} devices")

    n_classes = int(labels.max()) + 1
    per_device: list[list[np.ndarray]] = [[] for _ in range(n_devices)]
    for c in range(n_classes):
        class_idx = np.flatnonzero(labels == c)
        rng.shuffle(class_idx)
        proportions = rng.dirichlet(np.full(n_devices, alpha))
        cuts = (np.cumsum(proportions)[:-1] * len(class_idx)).astype(int)
        for device, chunk in enumerate(np.split(class_idx, cuts)):
            per_device[device].append(chunk)

    assigned = [
        np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=int)
        for chunks in per_device
    ]
    for device in range(n_devices):
        if len(assigned[device]) == 0:
            donor = max(range(n_devices), key=lambda d: len(assigned[d]))
            assigned[device] = assigned[donor][-1:]
            assigned[donor] = assigned[donor][:-1]

    return [Shard(idx, np.bincount(labels[idx], minlength=n_classes)) for idx in assigned]
