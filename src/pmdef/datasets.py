"""Dataset ingestion and generation.

Readers for the IDX (MNIST-style) and CIFAR-10 binary distribution formats,
matching writers for round-trip fixtures, and seeded synthetic image
datasets used for desk-scale experiments.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_artifact
from .errors import DataError, ParameterError, ParseError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes
SYNTH_KINDS = ("blobs",)


@dataclass
class Dataset:
    images: np.ndarray  # [n, h, w, c] in [0, 1]
    labels: np.ndarray  # [n] ints
    name: str

    def __post_init__(self):
        if self.images.shape[0] == 0:
            raise DataError(f"{self.name}: the dataset has no rows")
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.name}: {self.images.shape[0]} images but {self.labels.shape[0]} labels")

    @property
    def n(self) -> int:
        return int(self.images.shape[0])


# ---------------------------------------------------------------------------
# IDX (big-endian; magic, dims, raw bytes)


def _read_exact(fh, count: int, path, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise ParseError(f"{path}: truncated while reading {what} ({len(raw)}/{count} bytes)")
    return raw


def parse_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, images_path, "magic"))
        if magic != IDX_IMAGES_MAGIC:
            raise ParseError(f"{images_path}: image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        n, h, w = struct.unpack(">III", _read_exact(fh, 12, images_path, "dimensions"))
        payload = _read_exact(fh, n * h * w, images_path, "pixels")
        if fh.read(1):
            raise ParseError(f"{images_path}: trailing bytes after {n}x{h}x{w} pixels")
    with open(labels_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, labels_path, "magic"))
        if magic != IDX_LABELS_MAGIC:
            raise ParseError(f"{labels_path}: label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        (n_labels,) = struct.unpack(">I", _read_exact(fh, 4, labels_path, "count"))
        label_bytes = _read_exact(fh, n_labels, labels_path, "labels")
        if fh.read(1):
            raise ParseError(f"{labels_path}: trailing bytes after {n_labels} labels")
    if n_labels != n:
        raise ParseError(f"{labels_path}: {n_labels} labels for {n} images in {images_path}")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w, 1).astype(np.float64) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(images, labels, name=name)


def write_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Inverse of parse_idx for byte-exact round trips of /255-scaled data."""
    n, h, w, c = dataset.images.shape
    if c != 1:
        raise DataError(f"IDX stores single-channel images, got {c} channels")
    pixels = np.round(dataset.images[..., 0] * 255.0).astype(np.uint8)
    write_artifact(images_path, struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + pixels.tobytes())
    write_artifact(labels_path, struct.pack(">II", IDX_LABELS_MAGIC, n) + dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# CIFAR-10 binary (per record: label byte + 3072 channel-major pixel bytes)


def parse_cifar_binary(paths: list, name: str = "cifar") -> Dataset:
    all_images = []
    all_labels = []
    for path in paths:
        path = Path(path)
        raw = path.read_bytes()
        if len(raw) % CIFAR_RECORD != 0:
            offset = (len(raw) // CIFAR_RECORD) * CIFAR_RECORD
            raise ParseError(f"{path}: {len(raw)} bytes is not a multiple of {CIFAR_RECORD}; broken at byte {offset}")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels = records[:, 0].astype(np.int64)
        if labels.size and labels.max() > 9:
            bad = int(np.argmax(labels > 9))
            raise DataError(f"{path}: record {bad} has label byte {labels[bad]}, outside [0, 9]")
        pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        all_images.append(pixels.astype(np.float64) / 255.0)
        all_labels.append(labels)
    if not all_images:
        raise DataError("no CIFAR files given")
    return Dataset(np.concatenate(all_images), np.concatenate(all_labels), name=name)


def write_cifar_binary(dataset: Dataset, path) -> None:
    n, h, w, c = dataset.images.shape
    if (h, w, c) != (32, 32, 3):
        raise DataError(f"CIFAR binary stores 32x32x3 images, got {h}x{w}x{c}")
    pixels = np.round(dataset.images * 255.0).astype(np.uint8).transpose(0, 3, 1, 2).reshape(n, 3072)
    records = np.concatenate([dataset.labels.astype(np.uint8)[:, None], pixels], axis=1)
    write_artifact(path, records.tobytes())


# ---------------------------------------------------------------------------
# synthetic datasets


def _blob_centers(num_classes: int, size: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    r = size / 2.0 - size / 6.0
    cx = (size - 1) / 2.0 + r * np.cos(angles)
    cy = (size - 1) / 2.0 + r * np.sin(angles)
    return np.stack([cy, cx], axis=1)


def synth_dataset(
    kind: str,
    n: int,
    image_size: int,
    num_classes: int,
    seed: int,
    noise: float = 0.15,
    jitter: float = 1.0,
    name: str | None = None,
) -> Dataset:
    """Class-conditional image patterns with seeded pixel noise.

    blobs: one Gaussian bump per class at a class-specific position (jittered
    per instance). Labels are balanced within one instance per class; the
    classes are separable enough for a small classifier to exceed 95% accuracy.
    """
    if kind not in SYNTH_KINDS:
        raise ParameterError(f"synthetic kind must be one of {SYNTH_KINDS}, got {kind!r}")
    if num_classes < 2:
        raise ParameterError(f"need at least 2 classes, got {num_classes}")
    if n < num_classes:
        raise ParameterError(f"need n >= num_classes, got n={n} for {num_classes} classes")
    if image_size < 8:
        raise ParameterError(f"image size must be >= 8, got {image_size}")
    for arg, value in (("noise", noise), ("jitter", jitter)):
        if not (math.isfinite(value) and value >= 0):
            raise ParameterError(f"{arg} must be finite and >= 0, got {value}")
    noise, jitter = noise + 0.0, jitter + 0.0  # -0.0 becomes 0.0, a scale numpy accepts
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % num_classes).astype(np.int64)
    images = np.empty((n, image_size, image_size, 1))
    pixels = images[..., 0]  # filled in place: no other array of the images' size until the noise
    centers = _blob_centers(num_classes, image_size)
    sigma = image_size / 12.0
    # amplitude above the clip ceiling: blobs saturate into bright plateaus
    # that stay clearly brighter than any bounded pixel perturbation
    offsets = rng.normal(0.0, jitter, size=(n, 2))
    cy, cx = (centers[labels] + offsets).T[:, :, None]
    grid = np.arange(image_size)
    np.add(((grid - cy) ** 2)[:, :, None], ((grid - cx) ** 2)[:, None, :], out=pixels)
    np.negative(pixels, out=pixels)
    pixels /= 2.0 * sigma**2
    np.exp(pixels, out=pixels)
    pixels *= 1.5
    images += rng.normal(0.0, noise, size=images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels, name=name or f"synth_{kind}")
