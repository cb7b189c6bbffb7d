"""The Adam optimizer and the training loops.

Two trainables: the classifier (supervised cross-entropy) and the defence
autoencoder (unsupervised; its loss matches classifier prediction
distributions between originals and reconstructions, optionally with
temperature-scaled targets or an extra hidden-layer probe term; an MSE
reconstruction baseline is included for comparison).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from . import autodiff as ad
from .artifacts import write_artifact
from .autodiff import Tape, Tensor, backward
from .errors import ConfigError, ContractError, DataError, DimensionError, NonFiniteError, ParameterError
from .models import Model, build_probe, save_checkpoint
from .schema import In, check_fields

# the fields each defence loss kind reads beyond its kind
KIND_FIELDS = {"kl": (), "mse": (), "kl_temperature": ("temperature",), "kl_hidden": ("hidden_weight", "probe")}


@dataclass
class OptimizerConfig:
    kind: Literal["adam"] = "adam"
    learning_rate: Annotated[float, In(0, open=True)] = 1e-3
    batch_size: Annotated[int, In(1)] = 128
    epochs: Annotated[int, In(0)] = 10
    seed: Annotated[int, In(0)] = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class ProbeConfig:
    source_layer: Annotated[int, In(0)]
    dim: Annotated[int, In(1)] = 10

    def __post_init__(self):
        check_fields(self)


@dataclass
class DefenceLossSpec:
    kind: Literal[tuple(KIND_FIELDS)] = "kl"
    temperature: Annotated[float, In(0, open=True)] = 1.0
    hidden_weight: Annotated[float, In(0)] = 1.0
    probe: ProbeConfig | None = None

    def __post_init__(self):
        check_fields(self, KIND_FIELDS)
        if self.kind == "kl_hidden" and self.probe is None:
            raise ConfigError("kl_hidden loss needs a probe config")

    @property
    def target_temperature(self) -> float | None:
        """Temperature the classifier's target is sharpened with in training; None when it is not."""
        return self.temperature if self.kind == "kl_temperature" else None


@dataclass
class TrainReport:
    kind: str
    seed: int
    loss_spec: dict | str
    epoch_losses: list[float]
    epoch_wall_times: list[float]  # seconds per epoch, its after-epoch hook included
    final_loss: float | None  # None when no epoch ran
    wall_time_s: float

    def to_jsonl(self, path) -> None:
        epochs = zip(self.epoch_losses, self.epoch_wall_times)
        rows = [
            {"epoch": i, "mean_loss": loss, "wall_time_s": wall} for i, (loss, wall) in enumerate(epochs, start=1)
        ]
        per_epoch = ("epoch_losses", "epoch_wall_times")
        rows.append({"summary": True, **{k: v for k, v in vars(self).items() if k not in per_epoch}})
        write_artifact(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba (2015)

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            # in place, with the operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
            # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps) in their order: same bits, 2 temporaries
            scratch = np.multiply(g, 1.0 - self.beta1, out=np.empty_like(m))
            m *= self.beta1
            m += scratch
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - self.beta2
            v *= self.beta2
            v += scratch
            step = m / bc1
            step *= self.lr
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(step, scratch, out=scratch)
            p.data -= scratch


def temperature_scale(p: np.ndarray, temperature: float) -> np.ndarray:
    """Renormalized power transform p^(1/T) / sum p^(1/T); preserves argmax."""
    if not (isinstance(temperature, (int, float)) and temperature > 0):
        raise ParameterError(f"temperature must be positive, got {temperature}")
    p = np.asarray(p, dtype=np.float64)
    rows = np.atleast_2d(p)
    if rows.min() < 0:
        raise ParameterError("temperature_scale expects a non-negative distribution")
    peak = rows.max(axis=1, keepdims=True)
    scaled = np.power(rows / np.maximum(peak, 1e-300), 1.0 / temperature)
    out = scaled / scaled.sum(axis=1, keepdims=True)
    return out.reshape(p.shape)


def _iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _fit(
    kind: str, loss_spec, params: list[Tensor], cfg: OptimizerConfig, n: int, batch_loss, after_epoch=None
) -> TrainReport:
    """Shuffled mini-batch descent on ``batch_loss(batch, rng)`` (recorded on
    a tape) over ``n`` rows; ``after_epoch(epoch)`` runs after each epoch."""
    opt = Adam(params, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    epoch_losses: list[float] = []
    epoch_wall_times: list[float] = []
    t0 = time.perf_counter()
    for epoch in range(1, cfg.epochs + 1):
        t_epoch = time.perf_counter()
        total = 0.0
        for batch in _iter_batches(n, cfg.batch_size, rng):
            with Tape() as tape:
                loss = batch_loss(batch, rng)
            backward(tape, loss)
            opt.step()
            total += loss.item() * len(batch)
        mean_loss = total / n
        if not np.isfinite(mean_loss):
            raise NonFiniteError(f"{kind} loss became non-finite at epoch {epoch}")
        epoch_losses.append(mean_loss)
        if after_epoch is not None:
            after_epoch(epoch)
        epoch_wall_times.append(time.perf_counter() - t_epoch)
    return TrainReport(
        kind=kind,
        seed=cfg.seed,
        loss_spec=loss_spec,
        epoch_losses=epoch_losses,
        epoch_wall_times=epoch_wall_times,
        final_loss=epoch_losses[-1] if epoch_losses else None,
        wall_time_s=time.perf_counter() - t0,
    )


def train_classifier(model: Model, x: np.ndarray, y: np.ndarray, cfg: OptimizerConfig) -> TrainReport:
    """Minimize cross-entropy -ln M(x)[y] in place; shuffles per epoch."""
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] != y.shape[0]:
        raise DataError(f"got {x.shape[0]} inputs but {y.shape[0]} labels")
    k = model.num_classes
    if y.size and (y.min() < 0 or y.max() >= k):
        raise DataError(f"labels must be in [0, {k}), got range [{y.min()}, {y.max()}]")
    params = model.store.trainable()
    if not params:
        raise ContractError("classifier has no trainable parameters")

    def batch_loss(batch, rng):
        logits = model.logits_t(Tensor(x[batch]), train=True, rng=rng)
        per = ad.sub(ad.logsumexp(logits), ad.take_per_row(logits, y[batch]))
        return ad.mean_all(per)

    return _fit("classifier", "cross_entropy", params, cfg, x.shape[0], batch_loss)


def _defence_targets(classifier: Model, x: np.ndarray, loss_spec: DefenceLossSpec, chunk: int) -> np.ndarray | None:
    """The frozen classifier's target distribution per row of x for the kl
    and kl_temperature losses (temperature-scaled for the latter), predicted
    ``chunk`` rows at a time; None for the losses that take no precomputed
    target."""
    if loss_spec.kind not in ("kl", "kl_temperature"):
        return None
    target = np.concatenate([classifier.predict_proba(x[s : s + chunk]) for s in range(0, x.shape[0], chunk)])
    if loss_spec.target_temperature is not None:
        target = temperature_scale(target, loss_spec.target_temperature)
    return target


def _defence_batch_loss(
    ae: Model,
    classifier: Model,
    xb: np.ndarray,
    loss_spec: DefenceLossSpec,
    probe: Model | None,
    target: np.ndarray | None,
) -> Tensor:
    """One tape-recorded defence loss value for a batch (tape must be active).

    ``target`` holds the batch's rows of ``_defence_targets``.
    """
    xt = Tensor(xb)
    recon = ae.reconstruct_t(xt)
    if loss_spec.kind == "mse":
        diff = ad.sub(recon, xt)
        return ad.mean_all(ad.mul(diff, diff))
    if loss_spec.kind == "kl_hidden":
        p, feats_orig = classifier.forward_t(xt, capture=loss_spec.probe.source_layer)
        q, feats_recon = classifier.forward_t(recon, capture=loss_spec.probe.source_layer)
        base = ad.kl_divergence(p, q)
        y_orig = probe.forward_t(feats_orig)
        y_recon = probe.forward_t(feats_recon)
        return ad.add(base, ad.mul_scalar(ad.kl_divergence(y_orig, y_recon), loss_spec.hidden_weight))
    return ad.kl_divergence(Tensor(target), classifier.proba_t(recon))


def epoch_checkpoints(checkpoint_dir, prefix: str, every: int | None, epochs: int) -> dict[int, Path]:
    """{epoch: path} of the checkpoints ``train_defence`` writes after every ``every``-th of ``epochs`` epochs."""
    if not every or checkpoint_dir is None:
        return {}
    return {e: Path(checkpoint_dir) / f"{prefix}_epoch_{e:03d}.ckpt" for e in range(1, epochs + 1) if e % every == 0}


def train_defence(
    ae: Model,
    classifier: Model,
    x: np.ndarray,
    loss_spec: DefenceLossSpec,
    cfg: OptimizerConfig,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
    checkpoint_prefix: str = "ae",
) -> tuple[TrainReport, Model | None]:
    """Train the autoencoder against a frozen classifier; unsupervised.

    Only the autoencoder parameters move, plus, for the hidden-layer loss,
    the weights of the probe ``Model`` built here by ``build_probe``, which
    is returned with the report (None for the other losses). Optionally emits a checkpoint every
    ``checkpoint_every`` epochs.
    """
    if not classifier.store.is_fully_frozen():
        raise ContractError("classifier must be frozen before defence training")
    if ae.output_shape != classifier.input_shape:
        raise DimensionError(
            f"autoencoder output {ae.output_shape} does not match classifier input {classifier.input_shape}"
        )
    probe = None
    params = ae.store.trainable()
    if loss_spec.kind == "kl_hidden":
        probe = build_probe(classifier, loss_spec.probe.source_layer, loss_spec.probe.dim, seed=cfg.seed + 1)
        params = params + probe.store.trainable()
    if not params:
        raise ContractError("autoencoder has no trainable parameters")
    targets = _defence_targets(classifier, x, loss_spec, cfg.batch_size)

    def batch_loss(batch, rng):
        target = None if targets is None else targets[batch]
        return _defence_batch_loss(ae, classifier, x[batch], loss_spec, probe, target)

    checkpoints = epoch_checkpoints(checkpoint_dir, checkpoint_prefix, checkpoint_every, cfg.epochs)

    def after_epoch(epoch):
        if epoch in checkpoints:
            save_checkpoint(ae, checkpoints[epoch])

    echo = {k: v for k, v in asdict(loss_spec).items() if v is not None}  # no probe key without a probe
    report = _fit("defence", echo, params, cfg, x.shape[0], batch_loss, after_epoch)
    return report, probe
