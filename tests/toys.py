"""Shared tiny models and data, the kink-aware grad-check harness and
stand-ins for OpenBLAS's thread count and ``blas.on_cores``'s thread pool."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from pmdef import autodiff as ad
from pmdef import blas
from pmdef.autodiff import Tape, Tensor
from pmdef.models import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    ModelSpec,
    Relu,
    Reshape,
    Softmax,
    build_model,
)

KINK_MARGIN = 1e-3  # reject finite-difference samples closer than this to a kink


def checked_grad(case_builder, seed, h=1e-5, max_tries=60):
    """grad_check on a randomly built case, resampling seeds whose forward
    pass lands within KINK_MARGIN of a nondifferentiable point (central
    differences are only valid where the function is smooth around x)."""
    for attempt in range(max_tries):
        s = seed + attempt * 100003
        f, x = case_builder(np.random.default_rng(s))
        with Tape() as tape:
            leaf = Tensor(x.data.copy(), requires_grad=True)
            tape.watch(leaf)
            f(leaf)
            margin = tape.min_kink_margin()
        if margin > KINK_MARGIN:
            return ad.grad_check(f, x, h)
    raise AssertionError(f"no kink-free sample found for seed {seed}")


def mlp_classifier_spec(dim=6, hidden=8, classes=3, name="toy_clf"):
    return ModelSpec(name, (dim,), (Dense(hidden), Relu(), Dense(classes), Softmax()))


def cnn_classifier_spec(size=6, classes=3, name="toy_cnn"):
    return ModelSpec(
        name,
        (size, size, 1),
        (Conv(3, 2), Relu(), MaxPool(2, 2), Flatten(), Dense(classes), Softmax()),
    )


def greybox_ae_spec(size=20, name="greybox_ae"):
    """The grey-box experiment's conv autoencoder: conv, relu, 5x5 max-pool, a dense bottleneck."""
    return ModelSpec(
        name,
        (size, size, 1),
        (
            Conv(8, 3, 1, "same"), Relu(), MaxPool(5, 5), Flatten(),
            Dense(32), Dense(128), Relu(), Dense(size * size), Reshape((size, size, 1)),
        ),
    )


def mlp_ae_spec(dim=6, hidden=5, name="toy_ae"):
    return ModelSpec(name, (dim,), (Dense(hidden), Relu(), Dense(dim)))


def image_ae_spec(size=6, hidden=10, latent=4, name="toy_img_ae"):
    d = size * size
    return ModelSpec(
        name,
        (size, size, 1),
        (Flatten(), Dense(hidden), Relu(), Dense(latent), Dense(d), Reshape((size, size, 1))),
    )


def identity_ae(size):
    """An autoencoder whose reconstruction is exactly the input on [0,1] data."""
    d = size * size
    spec = ModelSpec("identity_ae", (size, size, 1), (Flatten(), Dense(d), Reshape((size, size, 1))))
    ae = build_model(spec, 0)
    ae.store.get(1)["w"].data[:] = np.eye(d)
    ae.store.get(1)["b"].data[:] = 0.0
    return ae


def separable_data(rng, n=60, dim=6, classes=3, margin=0.55):
    """Linearly separable toy data in [0,1]^dim with per-class active blocks."""
    x = rng.random((n, dim)) * 0.35
    y = np.arange(n) % classes
    block = dim // classes
    for c in range(classes):
        rows = y == c
        x[np.ix_(rows, range(c * block, (c + 1) * block))] += margin
    return np.clip(x, 0.0, 1.0), y


class FakeBlas:
    """An OpenBLAS thread-count getter and setter over one counter."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


def fake_blas(monkeypatch, count: int) -> FakeBlas:
    """Stand a ``FakeBlas`` at ``count`` threads in for OpenBLAS's getter and setter."""
    fake = FakeBlas(count)
    monkeypatch.setattr(blas, "threads_getter", lambda: fake.get)
    monkeypatch.setattr(blas, "threads_setter", lambda: fake.set)
    return fake


class RecordingPool(ThreadPoolExecutor):
    """The thread pool ``blas.on_cores`` uses, noting each pool's worker count in ``started``."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)
        super().__init__(max_workers=max_workers)


def recording_pool(monkeypatch) -> list:
    """Make ``blas.on_cores`` start ``RecordingPool``s; returns their worker counts, in order."""
    monkeypatch.setattr(blas, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    return RecordingPool.started
