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

A batch keeps its adversarials and, in place of its inputs, their CRC-32
(``inputs_crc32``), which tells a later stage whether it holds those rows.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from . import autodiff as ad
from . import blas
from .artifacts import write_artifact
from .autodiff import Tape, Tensor, backward
from .errors import DataError, ParameterError, ParseError, UserError
from .schema import In, check_fields, from_dict
from .training import Adam

KIND_FIELDS = {  # the fields each attack kind reads, as its batch file records them
    "fgsm": ("epsilon",),
    "slide": ("q", "gamma", "k", "eps_l1"),
    "cw_l2": ("c_init", "binary_steps", "max_iter", "lr", "kappa"),
}
C_MAX = 1e10
CW_FLAGS = ("unsuccessful", "failed")  # C&W's per-instance diagnostics, bool arrays
# the diagnostics a batch file keeps per attack kind: C&W's flags (as 0/1 lists) and SLIDE's
# as given; FGSM's preclip_delta is as large as the payload and stays in memory only
SAVED_DIAGNOSTICS = {"fgsm": (), "slide": ("skipped_iterations", "per_iter_max_l1", "per_iter_max_active"),
                     "cw_l2": CW_FLAGS}
NORMS = ("l1", "l2", "linf")  # the per-instance perturbation norms a batch carries
BATCH_KEYS = frozenset({"config", "shape", "bin_file", "crc32", "originals_crc32", "labels", "original_pred",
                        "adversarial_pred", "success", "norms", "diagnostics"})  # a batch JSON's keys, all required
# The most rows one C&W unit optimises on one tape per iteration. An attack takes as
# few equal units as cover its rows; each row's arithmetic is independent of the
# others', so the units and the cores that run them never change a result.
_UNIT_ROWS = 256


@dataclass
class AttackConfig:
    kind: Literal[tuple(KIND_FIELDS)]
    target_mode: Literal["grey_box", "white_box"] = "grey_box"
    label_source: Literal["model", "true"] = "model"
    # fgsm
    epsilon: Annotated[float, In(0, open=True)] = 0.1
    # slide
    q: Annotated[float, In(0, 100, open=True)] = 80.0
    gamma: Annotated[float, In(0, open=True)] = 0.05
    k: Annotated[int, In(0)] = 10
    eps_l1: Annotated[float, In(0, open=True)] = 0.1
    # cw_l2
    c_init: Annotated[float, In(0, open=True)] = 100.0
    binary_steps: Annotated[int, In(1)] = 7
    max_iter: Annotated[int, In(1)] = 200
    lr: Annotated[float, In(0, open=True)] = 0.1
    kappa: Annotated[float, In(0)] = 0.0

    def __post_init__(self):
        check_fields(self, KIND_FIELDS)

    def to_dict(self) -> dict:
        keys = ("kind", "target_mode", "label_source", *KIND_FIELDS[self.kind])
        return {k: getattr(self, k) for k in keys}


@dataclass
class AdversarialBatch:
    originals_crc32: int  # inputs_crc32 of the rows the attack perturbed
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


def inputs_crc32(x: np.ndarray) -> int:
    """CRC-32 of ``x``'s little-endian float64 bytes, the name a batch keeps of its inputs."""
    return zlib.crc32(np.ascontiguousarray(x, dtype="<f8"))


def _finalize(model, x, adv, labels, orig_pred, config, diagnostics) -> AdversarialBatch:
    adv_pred = model.predict_class(adv)
    return AdversarialBatch(
        originals_crc32=inputs_crc32(x),
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
        delta = delta + config.gamma * e / np.where(live, norm, 1.0)[:, None]  # a dead row's e is 0
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
    """Optimize one chunk of instances; returns (best_adv, ever_success, failed).

    Each binary step makes ``max_iter + 1`` recorded passes. Every pass checks
    the candidate it made; every pass but the last then takes an Adam step, so
    the last one checks the last update's candidate."""
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

    for _ in range(config.binary_steps):
        w = Tensor(w_init.copy(), requires_grad=True)
        opt = Adam([w], config.lr)
        c_t = Tensor(c)
        round_success = np.zeros(n, dtype=bool)
        for step in range(config.max_iter + 1):
            with Tape() as tape:
                adv_t = ad.mul_scalar(ad.add_scalar(ad.tanh(w), 1.0), 0.5)
                logits = model.logits_t(adv_t)
                z_att = ad.take_per_row(logits, attack_class)
                z_other = ad.rowmax(ad.add(logits, mask_const))
                margin = ad.maximum_scalar(ad.sub(z_att, z_other), -config.kappa)
                dist, sq_rows = ad.squared_distance(adv_t, x_const)
                loss = ad.add(dist, ad.sum_all(ad.mul(margin, c_t)))
            l2 = np.sqrt(sq_rows)
            succ = (logits.data.argmax(axis=1) != orig_pred) & ~failed
            better = succ & (l2 < best_l2)
            best_l2[better] = l2[better]
            best_adv[better] = adv_t.data[better]
            round_success |= succ
            if step == config.max_iter:
                break
            g = backward(tape, loss)[w]
            failed |= ~np.isfinite(g.reshape(n, -1)).all(axis=1)
            g[failed] = 0.0
            w.grad = g
            opt.step()
            np.clip(w.data, -20.0, 20.0, out=w.data)
        ever_success |= round_success
        c = np.where(round_success, c / 2.0, np.minimum(c * 10.0, C_MAX))
    return best_adv, ever_success, failed


def _units(n: int) -> list[tuple[int, int]]:
    """(start, end) of the fewest units of at most ``_UNIT_ROWS`` rows that
    cover rows 0..n in order, their sizes differing by at most one."""
    k = -(-n // _UNIT_ROWS)
    bounds = [-(-i * n // k) for i in range(k + 1)] if k else []
    return list(zip(bounds, bounds[1:]))


def cw_l2(model, x: np.ndarray, labels=None, *, config: AttackConfig) -> AdversarialBatch:
    """l2 Carlini-Wagner: minimize |delta|_2^2 + c * margin(x + delta) in tanh
    space (so x + delta always stays in [0, 1]^n), with binary search over c.

    The rows split into ``_units``, which ``blas.on_cores`` runs: on the
    cores at one BLAS thread, as in every CLI stage, else in order on this
    thread. Instances the attack never fools come back unchanged; per-instance
    numeric failures are flagged in diagnostics instead of aborting.
    """
    if config.kind != "cw_l2":
        raise ParameterError(f"cw_l2 called with a {config.kind!r} config")
    units = _units(x.shape[0])
    orig_pred = model.predict_class(x)
    attack_class = _attack_labels(config, orig_pred, labels)

    def run(span):
        s, e = span
        return _cw_chunk(model, x[s:e], attack_class[s:e], orig_pred[s:e], config)

    results = blas.on_cores(run, units)
    adv = np.concatenate([r[0] for r in results]) if results else x.copy()
    ever = np.concatenate([r[1] for r in results]) if results else np.zeros(0, dtype=bool)
    failed = np.concatenate([r[2] for r in results]) if results else np.zeros(0, dtype=bool)
    diagnostics = {"unsuccessful": ~ever, "failed": failed}
    return _finalize(model, x, adv, labels, orig_pred, config, diagnostics)


def run_attack(model, x: np.ndarray, labels=None, *, config: AttackConfig) -> AdversarialBatch:
    if config.kind == "fgsm":
        return fgsm(model, x, labels, config=config)
    if config.kind == "slide":
        return slide(model, x, labels, config=config)
    return cw_l2(model, x, labels, config=config)


# ---------------------------------------------------------------------------
# persistence: JSON metadata + the adversarials as raw little-endian float64


def save_batch(batch: AdversarialBatch, json_path) -> None:
    json_path = Path(json_path)
    bin_path = json_path.with_suffix(".bin")
    adversarials = np.ascontiguousarray(batch.adversarials, dtype="<f8").tobytes()
    meta = {
        "config": batch.config.to_dict(),
        "shape": list(batch.adversarials.shape),
        "bin_file": bin_path.name,
        "crc32": zlib.crc32(adversarials),
        "originals_crc32": batch.originals_crc32,
        "labels": None if batch.labels is None else batch.labels.tolist(),
        "original_pred": batch.original_pred.tolist(),
        "adversarial_pred": batch.adversarial_pred.tolist(),
        "success": batch.success.astype(int).tolist(),
        "norms": {k: v.tolist() for k, v in batch.norms.items()},
        "diagnostics": {
            k: v.astype(int).tolist() if k in CW_FLAGS else v
            for k, v in batch.diagnostics.items()
            if k in SAVED_DIAGNOSTICS[batch.config.kind]
        },
    }
    write_artifact(json_path, json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    write_artifact(bin_path, adversarials)


def _numbers(values, key: str, *, floats: bool = False, flags: bool = False) -> list:
    """``values`` if it is a list of JSON integers >= 0 (0 or 1 with
    ``flags``), or with ``floats`` of finite JSON numbers >= 0; never a bool."""
    types, most = ((int, float) if floats else (int,)), (1 if flags else math.inf)
    if not isinstance(values, list) or any(type(v) not in types or not 0 <= v <= most or v == math.inf for v in values):
        what = "finite JSON numbers >= 0" if floats else "JSON integers " + ("0 or 1" if flags else ">= 0")
        raise TypeError(f"{key!r} must be a list of {what}")
    return values


def _check_keys(value, what: str, keys) -> None:
    """Refuse ``value`` unless it is a JSON object with exactly ``keys``."""
    if not isinstance(value, dict) or set(value) != set(keys):
        got = sorted(value) if isinstance(value, dict) else type(value).__name__
        raise ValueError(f"{what} must be an object with the keys {list(keys)}, got {got}")


def _diagnostics(saved: dict, config: AttackConfig) -> dict:
    """A batch file's diagnostics, exactly those its attack kind saves: C&W's
    0/1 flags, as bool arrays, or SLIDE's skipped-step count and its maximum
    l1 norm and active-coordinate count per step, one each of its k steps."""
    keys = SAVED_DIAGNOSTICS[config.kind]
    _check_keys(saved, f"the 'diagnostics' of a {config.kind} batch", keys)
    if config.kind == "cw_l2":
        return {k: np.asarray(_numbers(saved[k], k, flags=True), dtype=bool) for k in keys}
    if config.kind == "slide":
        skipped = saved["skipped_iterations"]
        if type(skipped) is not int or skipped < 0:
            raise TypeError(f"'skipped_iterations' must be a JSON integer >= 0, got {skipped!r}")
        per_step = (_numbers(saved["per_iter_max_l1"], "per_iter_max_l1", floats=True),
                    _numbers(saved["per_iter_max_active"], "per_iter_max_active"))
        if any(len(values) != config.k for values in per_step):
            raise ValueError(f"'per_iter_max_l1' and 'per_iter_max_active' must have one entry per step, k = {config.k}")
    return dict(saved)


def load_batch(json_path) -> AdversarialBatch:
    json_path = Path(json_path)
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
        _check_keys(meta, "a batch JSON", sorted(BATCH_KEYS))  # also one of an older format
        if any(type(v) is not int or v < 0 for v in [*meta["shape"], meta["crc32"], meta["originals_crc32"]]):
            raise TypeError("'shape' entries, 'crc32' and 'originals_crc32' must be JSON integers >= 0")
        bin_path = json_path.parent / meta["bin_file"]
        shape = tuple(meta["shape"])
        rows = {k: np.asarray(_numbers(meta[k], k, flags=k == "success"), dtype=np.int64)
                for k in ("original_pred", "adversarial_pred", "success")}
        labels = None if meta["labels"] is None else np.asarray(_numbers(meta["labels"], "labels"), dtype=np.int64)
        _check_keys(meta["norms"], "'norms'", NORMS)
        norms = {k: np.asarray(_numbers(meta["norms"][k], f"norms.{k}", floats=True), dtype=np.float64) for k in NORMS}
        config = from_dict(AttackConfig, meta["config"], "config")
        diagnostics = _diagnostics(meta["diagnostics"], config)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, UserError) as exc:
        raise ParseError(f"{json_path}: malformed attack batch: {exc!r}") from None
    per_row = [*rows.values(), *norms.values(), *([] if labels is None else [labels])]
    if any(a.shape != shape[:1] for a in per_row):
        raise ParseError(f"{json_path}: per-instance fields disagree with shape {shape}")
    if any(diagnostics[k].shape != shape[:1] for k in CW_FLAGS if k in diagnostics):
        raise ParseError(f"{json_path}: per-instance diagnostics disagree with shape {shape}")
    if not bin_path.is_file():
        raise ParseError(f"{json_path}: its payload file {bin_path} is missing")
    raw = bin_path.read_bytes()
    size = 8 * math.prod(shape)  # exact: an int64 product could wrap onto the payload size
    if len(raw) != size:
        raise ParseError(f"{bin_path}: {len(raw)} payload bytes, where shape {shape} in {json_path} takes {size}")
    if zlib.crc32(raw) != meta["crc32"]:
        raise ParseError(f"{bin_path}: payload does not match the CRC-32 recorded in {json_path}")
    return AdversarialBatch(
        originals_crc32=meta["originals_crc32"],
        adversarials=np.frombuffer(raw, dtype="<f8").reshape(shape).copy(),
        labels=labels,
        original_pred=rows["original_pred"],
        adversarial_pred=rows["adversarial_pred"],
        success=rows["success"].astype(bool),
        norms=norms,
        config=config,
        diagnostics=diagnostics,
    )
