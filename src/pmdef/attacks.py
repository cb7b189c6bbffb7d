"""Untargeted gradient-based adversarial example generation.

Three attacks against any differentiable target (bare classifier for
grey-box, classifier-of-reconstruction for white-box):

* fgsm: one signed gradient step of the cross-entropy loss.
* slide: iterated sparse l1 steps; per iteration only gradient components
  above the q-th percentile move, the step is unit-l2 normalized, and the
  perturbation is projected back onto the l1 ball.
* cw_l2: per-instance margin-loss optimization in tanh space with a
  binary search over the trade-off constant c.

Success is always recomputed from model predictions: an instance counts as
attacked when argmax M(x_adv) differs from argmax M(x).
"""

from __future__ import annotations

import json
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .artifacts import write_artifact
from .autodiff import Tape, Tensor, backward
from .errors import DataError, MagicError, MismatchError, ParameterError, ParseError, TruncationError, UserError
from .schema import from_dict
from .training import Adam

TARGET_MODES = ("grey_box", "white_box")
LABEL_SOURCES = ("model", "true")
KIND_FIELDS = {  # the fields each attack kind reads, as its batch file records them
    "fgsm": ("epsilon",),
    "slide": ("q", "gamma", "k", "eps_l1"),
    "cw_l2": ("c_init", "binary_steps", "max_iter", "lr", "kappa"),
}
C_MAX = 1e10
CW_FLAGS = ("unsuccessful", "failed")  # C&W's per-instance diagnostics, bool arrays
# the diagnostics a batch file keeps: C&W's flags (as 0/1 lists) and SLIDE's as given;
# FGSM's preclip_delta is as large as the payload and stays in memory only
SAVED_DIAGNOSTICS = (*CW_FLAGS, "skipped_iterations", "per_iter_max_l1", "per_iter_max_active")
# Fixed C&W work unit: up to this many instances share one tape per iteration; workers
# only parallelise across units, so results do not depend on the worker count
_CHUNK = 512


@dataclass
class AttackConfig:
    kind: str
    target_mode: str = "grey_box"
    label_source: str = "model"
    # fgsm
    epsilon: float = 0.1
    # slide
    q: float = 80.0
    gamma: float = 0.05
    k: int = 10
    eps_l1: float = 0.1
    # cw_l2
    c_init: float = 100.0
    binary_steps: int = 7
    max_iter: int = 200
    lr: float = 0.1
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ParameterError(f"attack kind must be fgsm, slide or cw_l2, got {self.kind!r}")
        if self.target_mode not in TARGET_MODES:
            raise ParameterError(f"target mode must be one of {TARGET_MODES}, got {self.target_mode!r}")
        if self.label_source not in LABEL_SOURCES:
            raise ParameterError(f"label source must be one of {LABEL_SOURCES}, got {self.label_source!r}")
        if self.kind == "fgsm" and not self.epsilon > 0:
            raise ParameterError(f"fgsm epsilon must be positive, got {self.epsilon}")
        if self.kind == "slide":
            if not 0 < self.q < 100:
                raise ParameterError(f"slide percentile must be in (0, 100), got {self.q}")
            if not self.gamma > 0:
                raise ParameterError(f"slide step size must be positive, got {self.gamma}")
            if self.k < 0:
                raise ParameterError(f"slide step count must be >= 0, got {self.k}")
            if not self.eps_l1 > 0:
                raise ParameterError(f"slide l1 budget must be positive, got {self.eps_l1}")
        if self.kind == "cw_l2":
            if not self.c_init > 0:
                raise ParameterError(f"cw initial constant must be positive, got {self.c_init}")
            if self.binary_steps < 1:
                raise ParameterError(f"cw binary steps must be >= 1, got {self.binary_steps}")
            if self.max_iter < 1:
                raise ParameterError(f"cw iteration count must be >= 1, got {self.max_iter}")
            if not self.lr > 0:
                raise ParameterError(f"cw learning rate must be positive, got {self.lr}")
            if self.kappa < 0:
                raise ParameterError(f"cw margin kappa must be >= 0, got {self.kappa}")

    def to_dict(self) -> dict:
        keys = ("kind", "target_mode", "label_source", *KIND_FIELDS[self.kind])
        return {k: getattr(self, k) for k in keys}


@dataclass
class AdversarialBatch:
    originals: np.ndarray
    adversarials: np.ndarray
    labels: np.ndarray | None
    original_pred: np.ndarray
    adversarial_pred: np.ndarray
    success: np.ndarray
    norms: dict[str, np.ndarray]
    config: AttackConfig
    diagnostics: dict = field(default_factory=dict)


def _norms(delta: np.ndarray) -> dict[str, np.ndarray]:
    flat = delta.reshape(delta.shape[0], -1)
    return {
        "l1": np.abs(flat).sum(axis=1),
        "l2": np.sqrt((flat * flat).sum(axis=1)),
        "linf": np.abs(flat).max(axis=1) if flat.shape[1] else np.zeros(flat.shape[0]),
    }


def _finalize(model, x, adv, labels, orig_pred, config, diagnostics) -> AdversarialBatch:
    adv_pred = model.predict_class(adv)
    return AdversarialBatch(
        originals=x,
        adversarials=adv,
        labels=None if labels is None else np.asarray(labels, dtype=np.int64),
        original_pred=orig_pred,
        adversarial_pred=adv_pred,
        success=adv_pred != orig_pred,
        norms=_norms(adv - x),
        config=config,
        diagnostics=diagnostics,
    )


def _attack_labels(config: AttackConfig, orig_pred: np.ndarray, labels) -> np.ndarray:
    if config.label_source == "true":
        if labels is None:
            raise DataError("label_source='true' but no labels were given")
        return np.asarray(labels, dtype=np.int64)
    return orig_pred


def _ce_input_grad(model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d/dx of the summed cross-entropy of the target's predictions at x."""
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        tape.watch(xt)
        logits = model.logits_t(xt)
        loss = ad.sum_all(ad.sub(ad.logsumexp(logits), ad.take_per_row(logits, y)))
    return backward(tape, loss)[xt]


# ---------------------------------------------------------------------------
# FGSM


def fgsm(model, x: np.ndarray, labels=None, *, config: AttackConfig) -> AdversarialBatch:
    """x + eps * sign(grad of the loss), clipped back to [0, 1]."""
    if config.kind != "fgsm":
        raise ParameterError(f"fgsm called with a {config.kind!r} config")
    orig_pred = model.predict_class(x)
    y = _attack_labels(config, orig_pred, labels)
    g = _ce_input_grad(model, x, y)
    preclip_delta = config.epsilon * np.sign(g)
    adv = np.clip(x + preclip_delta, 0.0, 1.0)
    return _finalize(model, x, adv, labels, orig_pred, config, {"preclip_delta": preclip_delta})


# ---------------------------------------------------------------------------
# SLIDE


def slide_direction(g: np.ndarray, q: float) -> np.ndarray:
    """Sparse sign direction: sign(g_i) where |g_i| is strictly above the
    per-row q-th percentile of |g| (linear interpolation), else 0."""
    g2 = np.atleast_2d(g)
    mag = np.abs(g2)
    thr = np.percentile(mag, q, axis=1, keepdims=True)
    e = np.sign(g2) * (mag > thr)
    return e.reshape(g.shape)


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of each row onto the l1 ball of the given radius.

    Sorted-threshold simplex algorithm on |v|, signs restored afterwards.
    Rows already inside the ball are returned unchanged.
    """
    if not radius > 0:
        raise ParameterError(f"l1 radius must be positive, got {radius}")
    v2 = np.atleast_2d(v)
    a = np.abs(v2)
    inside = a.sum(axis=1) <= radius
    if inside.all():
        return v.copy()
    u = np.sort(a, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    j = np.arange(1, a.shape[1] + 1)
    cond = u - (css - radius) / j > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)  # last True index
    theta = (css[np.arange(a.shape[0]), rho] - radius) / (rho + 1)
    theta = np.where(inside, 0.0, np.maximum(theta, 0.0))
    out = np.sign(v2) * np.maximum(a - theta[:, None], 0.0)
    out = np.where(inside[:, None], v2, out)
    return out.reshape(v.shape)


def slide(model, x: np.ndarray, labels=None, *, config: AttackConfig) -> AdversarialBatch:
    """k sparse percentile-gated steps along the loss gradient, each followed
    by projection onto the l1 ball and a clip to the data domain."""
    if config.kind != "slide":
        raise ParameterError(f"slide called with a {config.kind!r} config")
    n = x.shape[0]
    flat_dim = int(np.prod(x.shape[1:]))
    orig_pred = model.predict_class(x)
    y = _attack_labels(config, orig_pred, labels)
    delta = np.zeros((n, flat_dim))
    xflat = x.reshape(n, flat_dim)
    skipped = 0
    iter_l1 = []
    iter_active = []
    for _ in range(config.k):
        g = _ce_input_grad(model, (xflat + delta).reshape(x.shape), y).reshape(n, flat_dim)
        e = slide_direction(g, config.q)
        norm = np.sqrt((e * e).sum(axis=1))
        live = norm > 0
        skipped += int(n - live.sum())
        if live.any():
            step = np.zeros_like(delta)
            step[live] = config.gamma * e[live] / norm[live, None]
            delta = delta + step
        delta = project_l1_ball(delta, config.eps_l1)
        adv_flat = np.clip(xflat + delta, 0.0, 1.0)
        delta = adv_flat - xflat
        iter_l1.append(float(np.abs(delta).sum(axis=1).max(initial=0.0)))
        iter_active.append(int((e != 0).sum(axis=1).max(initial=0)))
    adv = (xflat + delta).reshape(x.shape)
    diagnostics = {
        "skipped_iterations": skipped,
        "per_iter_max_l1": iter_l1,
        "per_iter_max_active": iter_active,
    }
    return _finalize(model, x, adv, labels, orig_pred, config, diagnostics)


# ---------------------------------------------------------------------------
# Carlini-Wagner l2


def _cw_chunk(model, x: np.ndarray, attack_class: np.ndarray, orig_pred: np.ndarray, config: AttackConfig):
    """Optimize one chunk of instances; returns (best_adv, ever_success, failed)."""
    n = x.shape[0]
    num_classes = model.num_classes
    x_clipped = np.clip(x, 1e-6, 1.0 - 1e-6)
    w_init = np.arctanh(2.0 * x_clipped - 1.0)
    mask = np.full((n, num_classes), 0.0)
    mask[np.arange(n), attack_class] = -1e9  # excludes the attacked class from the rival max

    c = np.full(n, config.c_init)
    best_l2 = np.full(n, np.inf)
    best_adv = x.copy()
    ever_success = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    x_const = Tensor(x)
    mask_const = Tensor(mask)

    def evaluate(adv_np: np.ndarray, d_np: np.ndarray, logits_np: np.ndarray):
        """Record the successes of candidates adv_np = x + d_np."""
        nonlocal best_l2, best_adv, ever_success
        pred = logits_np.argmax(axis=1)
        l2 = np.sqrt((d_np.reshape(n, -1) ** 2).sum(axis=1))
        succ = (pred != orig_pred) & ~failed
        better = succ & (l2 < best_l2)
        best_l2 = np.where(better, l2, best_l2)
        best_adv[better] = adv_np[better]
        ever_success |= succ
        return succ

    for _ in range(config.binary_steps):
        w = Tensor(w_init.copy(), requires_grad=True)
        opt = Adam([w], config.lr)
        c_t = Tensor(c)
        round_success = np.zeros(n, dtype=bool)
        for _ in range(config.max_iter):
            with Tape() as tape:
                tape.watch(w)
                adv_t = ad.mul_scalar(ad.add_scalar(ad.tanh(w), 1.0), 0.5)
                logits = model.logits_t(adv_t)
                z_att = ad.take_per_row(logits, attack_class)
                z_other = ad.rowmax(ad.add(logits, mask_const))
                margin = ad.maximum_scalar(ad.sub(z_att, z_other), -config.kappa)
                d = ad.sub(adv_t, x_const)
                loss = ad.add(ad.sum_all(ad.mul(d, d)), ad.sum_all(ad.mul(margin, c_t)))
            round_success |= evaluate(adv_t.data, d.data, logits.data)
            grads = backward(tape, loss)
            g = grads[w]
            bad = ~np.isfinite(g.reshape(n, -1)).all(axis=1)
            if bad.any():
                failed |= bad
                g[bad] = 0.0
            if failed.any():
                g[failed] = 0.0
            w.grad = g
            opt.step()
            np.clip(w.data, -20.0, 20.0, out=w.data)
        # final candidate after the last update of the round
        adv_np = 0.5 * (np.tanh(w.data) + 1.0)
        logits_np = model.predict_logits(adv_np)
        round_success |= evaluate(adv_np, adv_np - x, logits_np)
        c = np.where(round_success, c / 2.0, np.minimum(c * 10.0, C_MAX))
    return best_adv, ever_success, failed


def cw_l2(model, x: np.ndarray, labels=None, *, config: AttackConfig, workers: int = 1) -> AdversarialBatch:
    """l2 Carlini-Wagner: minimize |delta|_2^2 + c * margin(x + delta) in tanh
    space (so x + delta always stays in [0, 1]^n), with binary search over c.

    Instances the attack never fools come back unchanged; per-instance
    numeric failures are flagged in diagnostics instead of aborting.
    """
    if config.kind != "cw_l2":
        raise ParameterError(f"cw_l2 called with a {config.kind!r} config")
    orig_pred = model.predict_class(x)
    attack_class = _attack_labels(config, orig_pred, labels)
    n = x.shape[0]
    chunks = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]

    def run(span):
        s, e = span
        return _cw_chunk(model, x[s:e], attack_class[s:e], orig_pred[s:e], config)

    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(span) for span in chunks]
    adv = np.concatenate([r[0] for r in results]) if results else x.copy()
    ever = np.concatenate([r[1] for r in results]) if results else np.zeros(0, dtype=bool)
    failed = np.concatenate([r[2] for r in results]) if results else np.zeros(0, dtype=bool)
    diagnostics = {"unsuccessful": ~ever, "failed": failed}
    return _finalize(model, x, adv, labels, orig_pred, config, diagnostics)


def run_attack(model, x: np.ndarray, labels=None, *, config: AttackConfig, workers: int = 1) -> AdversarialBatch:
    if config.kind == "fgsm":
        return fgsm(model, x, labels, config=config)
    if config.kind == "slide":
        return slide(model, x, labels, config=config)
    return cw_l2(model, x, labels, config=config, workers=workers)


# ---------------------------------------------------------------------------
# persistence: JSON metadata + raw little-endian float64 blocks


def save_batch(batch: AdversarialBatch, json_path) -> None:
    json_path = Path(json_path)
    bin_path = json_path.with_suffix(".bin")
    originals = np.ascontiguousarray(batch.originals, dtype="<f8").tobytes()
    adversarials = np.ascontiguousarray(batch.adversarials, dtype="<f8").tobytes()
    meta = {
        "config": batch.config.to_dict(),
        "shape": list(batch.originals.shape),
        "bin_file": bin_path.name,
        "crc32": zlib.crc32(adversarials, zlib.crc32(originals)),  # of originals + adversarials
        "blocks": {"originals": [0, len(originals)], "adversarials": [len(originals), len(adversarials)]},
        "labels": None if batch.labels is None else batch.labels.tolist(),
        "original_pred": batch.original_pred.tolist(),
        "adversarial_pred": batch.adversarial_pred.tolist(),
        "success": batch.success.astype(int).tolist(),
        "norms": {k: v.tolist() for k, v in batch.norms.items()},
        "diagnostics": {
            k: v.astype(int).tolist() if k in CW_FLAGS else v
            for k, v in batch.diagnostics.items()
            if k in SAVED_DIAGNOSTICS
        },
    }
    write_artifact(json_path, json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    write_artifact(bin_path, originals + adversarials)


def load_batch(json_path) -> AdversarialBatch:
    json_path = Path(json_path)
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
        bin_path = json_path.parent / meta["bin_file"]
        shape = tuple(int(s) for s in meta["shape"])
        (o_off, o_len), (a_off, a_len) = (map(int, meta["blocks"][k]) for k in ("originals", "adversarials"))
        rows = {k: np.asarray(meta[k], dtype=np.int64) for k in ("original_pred", "adversarial_pred", "success")}
        labels = None if meta["labels"] is None else np.asarray(meta["labels"], dtype=np.int64)
        norms = {k: np.asarray(v, dtype=np.float64) for k, v in meta["norms"].items()}
        diagnostics = {
            k: np.asarray(v, dtype=np.int64).astype(bool) if k in CW_FLAGS else v
            for k, v in meta["diagnostics"].items()
        }
        config = from_dict(AttackConfig, meta["config"], "config")
        crc = int(meta["crc32"])
    except (ValueError, KeyError, TypeError, AttributeError, UserError) as exc:
        raise ParseError(f"{json_path}: malformed attack batch: {exc!r}") from None
    per_row = [*rows.values(), *norms.values(), *([] if labels is None else [labels])]
    if any(a.shape != shape[:1] for a in per_row):
        raise MismatchError(f"{json_path}: per-instance fields disagree with shape {shape}")
    if any(diagnostics[k].shape != shape[:1] for k in CW_FLAGS if k in diagnostics):
        raise ParseError(f"{json_path}: per-instance diagnostics disagree with shape {shape}")
    if not bin_path.is_file():
        raise ParseError(f"{json_path}: its payload file {bin_path} is missing")
    raw = bin_path.read_bytes()
    count = int(np.prod(shape))
    if len(raw) < max(o_off + o_len, a_off + a_len):
        raise TruncationError(f"{bin_path}: payload shorter than declared blocks")
    if o_len != count * 8 or a_len != count * 8:
        raise MismatchError(f"{bin_path}: block sizes disagree with shape {shape}")
    if zlib.crc32(raw) != crc:
        raise MismatchError(f"{bin_path}: payload does not match the CRC-32 recorded in {json_path}")
    originals = np.frombuffer(raw[o_off : o_off + o_len], dtype="<f8").reshape(shape).copy()
    adversarials = np.frombuffer(raw[a_off : a_off + a_len], dtype="<f8").reshape(shape).copy()
    return AdversarialBatch(
        originals=originals,
        adversarials=adversarials,
        labels=labels,
        original_pred=rows["original_pred"],
        adversarial_pred=rows["adversarial_pred"],
        success=rows["success"].astype(bool),
        norms=norms,
        config=config,
        diagnostics=diagnostics,
    )
