import struct

import numpy as np
import pytest

from pmdef.datasets import (
    CIFAR_RECORD,
    Dataset,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    parse_cifar_binary,
    parse_idx,
    synth_dataset,
    write_cifar_binary,
    write_idx,
)
from pmdef.errors import (
    DataError,
    MagicError,
    MismatchError,
    ParameterError,
    TruncationError,
    ValidationError,
)


# ---------------------------------------------------------------------------
# IDX fixtures built byte by byte in the test


def _idx_fixture(tmp_path, pixels, labels):
    n, h, w = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return images_path, labels_path


def test_parse_idx_hand_built_fixture(tmp_path):
    pixels = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
    images_path, labels_path = _idx_fixture(tmp_path, pixels, [7, 2])
    ds = parse_idx(images_path, labels_path)
    assert ds.images.shape == (2, 2, 2, 1)
    assert np.array_equal(ds.labels, [7, 2])
    expected = pixels.astype(np.float64)[..., None] / 255.0
    assert np.array_equal(ds.images, expected)


def test_parse_idx_wrong_magic_order(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    images_path, labels_path = _idx_fixture(tmp_path, pixels, [0])
    # labels magic in the images slot
    blob = bytearray(images_path.read_bytes())
    blob[:4] = struct.pack(">I", IDX_LABELS_MAGIC)
    images_path.write_bytes(bytes(blob))
    with pytest.raises(MagicError):
        parse_idx(images_path, labels_path)


def test_parse_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    images_path, labels_path = _idx_fixture(tmp_path, pixels, [0, 1])
    bad_labels = tmp_path / "bad_labels.idx"
    with open(bad_labels, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, 3))
        fh.write(bytes([0, 1, 2]))
    with pytest.raises(MismatchError):
        parse_idx(images_path, bad_labels)


def test_parse_idx_truncated_payload(tmp_path):
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    images_path, labels_path = _idx_fixture(tmp_path, pixels, [0, 1])
    blob = images_path.read_bytes()
    images_path.write_bytes(blob[:-5])
    with pytest.raises(TruncationError):
        parse_idx(images_path, labels_path)


def test_idx_round_trip_bytes_exact(tmp_path):
    pixels = np.random.default_rng(0).integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
    images_path, labels_path = _idx_fixture(tmp_path, pixels, [0, 1, 2, 3, 4])
    original_images = images_path.read_bytes()
    original_labels = labels_path.read_bytes()
    ds = parse_idx(images_path, labels_path)
    out_images = tmp_path / "re_images.idx"
    out_labels = tmp_path / "re_labels.idx"
    write_idx(ds, out_images, out_labels)
    assert out_images.read_bytes() == original_images
    assert out_labels.read_bytes() == original_labels
    ds2 = parse_idx(out_images, out_labels)
    assert np.array_equal(ds2.images, ds.images)
    assert np.array_equal(ds2.labels, ds.labels)


# ---------------------------------------------------------------------------
# CIFAR binary


def _cifar_fixture(tmp_path, n=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    pixels = rng.integers(0, 256, size=(n, 3072)).astype(np.uint8)
    path = tmp_path / "batch.bin"
    records = np.concatenate([labels[:, None], pixels], axis=1)
    path.write_bytes(records.tobytes())
    return path, labels, pixels


def test_parse_cifar_hand_built_record(tmp_path):
    path, labels, pixels = _cifar_fixture(tmp_path, n=1, seed=3)
    ds = parse_cifar_binary([path])
    assert ds.images.shape == (1, 32, 32, 3)
    assert ds.labels[0] == labels[0]
    # channel-major R,G,B planes of 1024 bytes each
    red = pixels[0, :1024].reshape(32, 32) / 255.0
    assert np.array_equal(ds.images[0, :, :, 0], red)
    green = pixels[0, 1024:2048].reshape(32, 32) / 255.0
    assert np.array_equal(ds.images[0, :, :, 1], green)


def test_parse_cifar_truncated_names_offset(tmp_path):
    path, _, _ = _cifar_fixture(tmp_path, n=2)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(TruncationError) as err:
        parse_cifar_binary([path])
    assert str(CIFAR_RECORD) in str(err.value)


def test_parse_cifar_label_out_of_range(tmp_path):
    path, _, _ = _cifar_fixture(tmp_path, n=1)
    blob = bytearray(path.read_bytes())
    blob[0] = 10
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationError):
        parse_cifar_binary([path])


def test_cifar_round_trip_bytes_exact(tmp_path):
    path, _, _ = _cifar_fixture(tmp_path, n=3, seed=9)
    original = path.read_bytes()
    ds = parse_cifar_binary([path])
    out = tmp_path / "rewritten.bin"
    write_cifar_binary(ds, out)
    assert out.read_bytes() == original


# ---------------------------------------------------------------------------
# synthetic datasets


def test_synth_deterministic():
    a = synth_dataset("blobs", 50, 12, 4, seed=5)
    b = synth_dataset("blobs", 50, 12, 4, seed=5)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = synth_dataset("blobs", 50, 12, 4, seed=6)
    assert not np.array_equal(a.images, c.images)


def test_synth_labels_balanced_within_one():
    for kind in ("blobs", "rings"):
        ds = synth_dataset(kind, 103, 12, 4, seed=0)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1


def test_synth_domain_and_shapes():
    ds = synth_dataset("rings", 20, 16, 5, seed=1)
    assert ds.images.shape == (20, 16, 16, 1)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def _synth_loop_reference(kind, n, image_size, num_classes, seed, noise=0.15, jitter=1.0):
    """The per-instance loop synth_dataset replaced: same rng draws (labels, offsets, noise), same arithmetic."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % num_classes).astype(np.int64)
    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    images = np.empty((n, image_size, image_size, 1))
    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        r = image_size / 2.0 - image_size / 6.0
        centers = np.stack(
            [(image_size - 1) / 2.0 + r * np.sin(angles), (image_size - 1) / 2.0 + r * np.cos(angles)], axis=1
        )
        sigma = image_size / 12.0
        offsets = rng.normal(0.0, jitter, size=(n, 2))
        for i in range(n):
            cy, cx = centers[labels[i]] + offsets[i]
            images[i, :, :, 0] = 1.5 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    else:
        center = (image_size - 1) / 2.0
        dist = np.sqrt((yy - center) ** 2 + (xx - center) ** 2)
        r0 = image_size / 6.0
        max_extra = image_size / 2.0 - 2.0 - r0
        offsets = rng.normal(0.0, jitter * 0.3, size=n)
        for i in range(n):
            thickness = max((labels[i] + 1) * max_extra / num_classes + offsets[i], 0.6)
            images[i, :, :, 0] = ((dist >= r0) & (dist < r0 + thickness)).astype(np.float64) * 0.85
    images += rng.normal(0.0, noise, size=images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels


@pytest.mark.parametrize("kind", ["blobs", "rings"])
@pytest.mark.parametrize("seed", [0, 5, 17, 2024])
def test_synth_matches_the_loop_reference_bit_for_bit(kind, seed):
    n, size, classes = (300, 20, 10) if seed % 2 else (57, 13, 4)
    ds = synth_dataset(kind, n, size, classes, seed=seed, noise=0.12, jitter=0.5)
    images, labels = _synth_loop_reference(kind, n, size, classes, seed, noise=0.12, jitter=0.5)
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def test_synth_validation():
    with pytest.raises(ParameterError):
        synth_dataset("spirals", 10, 12, 3, seed=0)
    with pytest.raises(ParameterError):
        synth_dataset("blobs", 2, 12, 4, seed=0)
    with pytest.raises(ParameterError):
        synth_dataset("blobs", 10, 4, 3, seed=0)


@pytest.mark.parametrize("kind", ["blobs", "rings"])
@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arg", ["noise", "jitter"])
def test_synth_refuses_a_negative_or_non_finite_noise_or_jitter_naming_it(arg, bad, kind):
    with pytest.raises(ParameterError, match=f"^{arg} must be finite and >= 0"):
        synth_dataset(kind, 10, 12, 3, seed=0, **{arg: bad})


@pytest.mark.parametrize("kind", ["blobs", "rings"])
@pytest.mark.parametrize("arg", ["noise", "jitter"])
def test_synth_reads_a_negative_zero_noise_or_jitter_as_zero(arg, kind):
    ds = synth_dataset(kind, 10, 12, 3, seed=0, **{arg: -0.0})
    assert ds.images.tobytes() == synth_dataset(kind, 10, 12, 3, seed=0, **{arg: 0.0}).images.tobytes()
    assert ds.images.tobytes() == synth_dataset(kind, 10, 12, 3, seed=0, **{arg: 0}).images.tobytes()


def test_synth_learnable_to_95_percent():
    from pmdef.models import Dense, Flatten, ModelSpec, Relu, Softmax, build_model
    from pmdef.training import OptimizerConfig, train_classifier

    ds = synth_dataset("blobs", 400, 12, 4, seed=7)
    model = build_model(
        ModelSpec("clf", (12, 12, 1), (Flatten(), Dense(64), Relu(), Dense(4), Softmax())), 8
    )
    train_classifier(model, ds.images, ds.labels, OptimizerConfig(learning_rate=2e-3, batch_size=64, epochs=50, seed=9))
    assert (model.predict_class(ds.images) == ds.labels).mean() >= 0.95


def test_dataset_count_consistency():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 4, 4, 1)), np.zeros(2, dtype=np.int64), name="bad")
