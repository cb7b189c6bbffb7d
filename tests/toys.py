"""Shared tiny models and data, the kink-aware grad-check harness, a digest
of a model's parameters and stand-ins for OpenBLAS's thread count and
``blas.on_cores``'s thread pool."""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pmdef import autodiff as ad
from pmdef import blas
from pmdef.autodiff import Tape, Tensor, backward
from pmdef.errors import ContractError, NonFiniteError, ParameterError
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
_REL_FLOOR = 1e-8  # denominator floor for relative errors


def _scalar_value(out: Tensor, where: str) -> float:
    if out.size != 1:
        raise ContractError(f"grad_check function must return a scalar, got shape {out.shape}")
    v = out.item()
    if not math.isfinite(v):
        raise NonFiniteError(f"function value is not finite {where}")
    return v


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between backward() and central finite differences.

    The relative error denominator is max(|analytic|, |numeric|, 1e-8) per
    coordinate. The function must be finite (and should be differentiable)
    in an h-neighborhood of x.
    """
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise ParameterError(f"finite-difference step must be positive, got {h}")
    base = np.array(x.data, dtype=np.float64, copy=True)
    leaf = Tensor(base, requires_grad=True)
    with Tape() as tape:
        tape.watch(leaf)
        out = f(leaf)
        _scalar_value(out, "at the expansion point")
    analytic = backward(tape, out)[leaf].ravel()
    worst = 0.0
    flat = base.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = _scalar_value(f(Tensor(base)), "during finite differencing")
        flat[i] = orig - h
        fm = _scalar_value(f(Tensor(base)), "during finite differencing")
        flat[i] = orig
        num = (fp - fm) / (2.0 * h)
        err = abs(num - analytic[i]) / max(abs(num), abs(analytic[i]), _REL_FLOOR)
        worst = max(worst, err)
    return worst


def _top_gap(d: np.ndarray) -> np.ndarray:
    """Largest minus second-largest entry along the last axis; empty when it holds one entry."""
    part = np.partition(d, d.shape[-1] - 2, axis=-1) if d.shape[-1] > 1 else np.empty((0, 2))
    return part[..., -1] - part[..., -2]


# per nonsmooth primitive of pmdef.autodiff, from its arguments: the distance of
# each entry, row or pool window to the nearest point where it is not differentiable
KINK_DISTANCES = {
    "relu": lambda t: np.abs(t.data),
    "clip": lambda t, lo, hi: np.minimum(np.abs(t.data - lo), np.abs(t.data - hi)),
    "maximum_scalar": lambda t, c: np.abs(t.data - c),
    "rowmax": lambda t: _top_gap(t.data),
    "maxpool2d": lambda x, window, stride: _top_gap(
        sliding_window_view(x.data, (window, window), axis=(1, 2))[:, ::stride, ::stride].reshape(-1, window * window)
    ),
}


def kink_margin(f, x: Tensor) -> float:
    """Smallest distance to a kink over the nonsmooth ops of ``f`` at ``x``; inf when none.

    Runs ``f`` on a gradient-requiring copy of ``x`` with the primitives of
    KINK_DISTANCES swapped on ``pmdef.autodiff`` for wrappers that measure
    each call whose output requires gradients: the calls a tape records.
    The package calls every primitive as ``ad.<name>``, so the wrappers see
    the ops of models, losses and attacks too. The swap is process-wide:
    call it from one thread.
    """
    margins = [math.inf]
    originals = {name: getattr(ad, name) for name in KINK_DISTANCES}

    def measured(name):
        def op(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            if out.requires_grad:
                margins.append(float(KINK_DISTANCES[name](*args, **kwargs).min(initial=math.inf)))
            return out

        return op

    try:
        for name in originals:
            setattr(ad, name, measured(name))
        f(Tensor(x.data.copy(), requires_grad=True))
    finally:
        for name, op in originals.items():
            setattr(ad, name, op)
    return min(margins)


def checked_grad(case_builder, seed, h=1e-5, max_tries=60):
    """grad_check on a randomly built case, resampling seeds whose forward
    pass lands within KINK_MARGIN of a nondifferentiable point (central
    differences are only valid where the function is smooth around x)."""
    for attempt in range(max_tries):
        f, x = case_builder(np.random.default_rng(seed + attempt * 100003))
        if kink_margin(f, x) > KINK_MARGIN:
            return grad_check(f, x, h)
    raise AssertionError(f"no kink-free sample found for seed {seed}")


def param_digest(store) -> bytes:
    """sha256 over a ParameterStore's tensors in ``named_tensors`` order: each
    one's layer index, name and shape, then its little-endian float64 bytes."""
    h = hashlib.sha256()
    for idx, name, t in store.named_tensors():
        h.update(f"{idx}:{name}:{t.shape}".encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.digest()


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
