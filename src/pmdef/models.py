"""Declarative model specs, deterministic initialization, forward execution
and binary checkpoints.

Layer vocabulary: dense, conv, maxpool, relu, dropout, flatten, softmax,
reshape. A classifier spec ends in softmax; an autoencoder spec maps its
input shape back onto itself and its reconstructions are clamped to the
[0, 1] data domain.

The layer table: each kind is one frozen dataclass deriving from ``Layer``
and owns its spec fields, its shape rule ``out_shape`` (which also validates
the fields), its ``param_shapes`` and its forward step ``apply``.
``infer_shapes``, ``build_model`` and ``Model.forward_t`` make one call per
layer with no per-kind branch, and the spec parser finds a class by its
``kind``, so a new layer kind is one class.

``Model.forward_t`` keeps spec order but for one rule, ``Layer.runs_after``:
a relu directly before a maxpool runs after the pool, on the pooled values
only, with the same bits (``Relu.runs_after`` says why). A conv layer adds
its bias inside ``ad.conv2d``: one tape record instead of two.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .artifacts import write_artifact
from .autodiff import Tensor
from .errors import (
    CompositionError,
    ConfigError,
    ContractError,
    DimensionError,
    MagicError,
    MismatchError,
    ParameterError,
    SpecError,
    TruncationError,
)

CHECKPOINT_MAGIC = b"PMDEF001"
DATA_DOMAIN = (0.0, 1.0)


# ---------------------------------------------------------------------------
# the layer table


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_positive_ints(where: str, **fields) -> None:
    for name, value in fields.items():
        if not _is_int(value) or value < 1:
            raise SpecError(f"{where}: {name} must be a positive int, got {value!r}")


def _check_rank(shape: tuple[int, ...], rank: int, where: str, expects: str) -> None:
    if len(shape) != rank:
        raise SpecError(f"{where}: expects {expects}, got {shape}")


@dataclass(frozen=True)
class Layer:
    """One layer kind; the defaults are a shape-preserving layer without
    parameters. ``activation`` is what a weight layer before it feeds ("relu":
    He init, "other": Glorot); None defers to the layers after it."""

    kind: ClassVar[str]
    activation: ClassVar[str | None] = None

    def out_shape(self, shape: tuple[int, ...], where: str) -> tuple[int, ...]:
        """Output shape (batch axis excluded) for input ``shape``; raises
        SpecError naming ``where`` on a chain break or an invalid field."""
        return shape

    def param_shapes(self, in_shape: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
        return {}

    def apply(self, h: Tensor, params: dict[str, Tensor] | None, train: bool, rng: np.random.Generator | None) -> Tensor:
        return h

    def runs_after(self, nxt: "Layer") -> bool:
        """Whether this layer, applied after ``nxt`` (the layer that follows
        it in the spec), gives the same bits as in spec order."""
        return False


@dataclass(frozen=True)
class Dense(Layer):
    units: int
    kind: ClassVar[str] = "dense"
    activation: ClassVar[str] = "other"

    def out_shape(self, shape, where):
        _check_positive_ints(where, units=self.units)
        _check_rank(shape, 1, where, "a flat input (insert flatten)")
        return (self.units,)

    def param_shapes(self, in_shape):
        return {"w": (in_shape[0], self.units), "b": (self.units,)}

    def apply(self, h, params, train, rng):
        return ad.add(ad.matmul(h, params["w"]), params["b"])


@dataclass(frozen=True)
class Conv(Layer):
    filters: int
    kernel: int
    stride: int = 1
    padding: str = "valid"
    kind: ClassVar[str] = "conv"
    activation: ClassVar[str] = "other"

    def out_shape(self, shape, where):
        _check_positive_ints(where, filters=self.filters, kernel=self.kernel, stride=self.stride)
        _check_rank(shape, 3, where, "an HWC input")
        try:
            oh, ow, *_ = ad._conv_geometry(shape[0], shape[1], self.kernel, self.kernel, self.stride, self.padding)
        except (DimensionError, ParameterError) as exc:  # kernel larger than a valid-padded input, unknown padding
            raise SpecError(f"{where}: {exc}") from None
        return (oh, ow, self.filters)

    def param_shapes(self, in_shape):
        return {"w": (self.kernel, self.kernel, in_shape[2], self.filters), "b": (self.filters,)}

    def apply(self, h, params, train, rng):
        return ad.conv2d(h, params["w"], self.stride, self.padding, bias=params["b"])


@dataclass(frozen=True)
class MaxPool(Layer):
    window: int
    stride: int
    kind: ClassVar[str] = "maxpool"

    def out_shape(self, shape, where):
        _check_positive_ints(where, window=self.window, stride=self.stride)
        _check_rank(shape, 3, where, "an HWC input")
        if self.window > min(shape[:2]):
            raise SpecError(f"{where}: window {self.window} exceeds input {shape[:2]}")
        return ((shape[0] - self.window) // self.stride + 1, (shape[1] - self.window) // self.stride + 1, shape[2])

    def apply(self, h, params, train, rng):
        return ad.maxpool2d(h, self.window, self.stride)


@dataclass(frozen=True)
class Relu(Layer):
    kind: ClassVar[str] = "relu"
    activation: ClassVar[str] = "relu"

    def apply(self, h, params, train, rng):
        return ad.relu(h)

    def runs_after(self, nxt):
        """True before a maxpool: relu then sees only the pooled values.

        max(relu(x)) == relu(max(x)) exactly. Where a window's max is > 0,
        both orders route its cotangent to the same first row-major argmax.
        Where it is <= 0, both give a zero cotangent; they can differ only
        in the sign of a zero, which no downstream sum sees unless every
        term is zero.
        """
        return isinstance(nxt, MaxPool)


@dataclass(frozen=True)
class Dropout(Layer):
    rate: float
    kind: ClassVar[str] = "dropout"

    def out_shape(self, shape, where):
        if not (isinstance(self.rate, (int, float)) and not isinstance(self.rate, bool) and 0.0 <= self.rate < 1.0):
            raise SpecError(f"{where}: rate must be a number in [0, 1), got {self.rate!r}")
        return shape

    def apply(self, h, params, train, rng):
        if not train or self.rate == 0.0:
            return h
        if rng is None:
            raise ContractError("dropout in training mode needs an rng")
        return ad.dropout(h, self.rate, rng)


@dataclass(frozen=True)
class Flatten(Layer):
    kind: ClassVar[str] = "flatten"

    def out_shape(self, shape, where):
        return (math.prod(shape),)

    def apply(self, h, params, train, rng):
        return ad.reshape(h, (h.shape[0], math.prod(h.shape[1:])))


@dataclass(frozen=True)
class Softmax(Layer):
    kind: ClassVar[str] = "softmax"
    activation: ClassVar[str] = "other"

    def out_shape(self, shape, where):
        _check_rank(shape, 1, where, "a flat class vector")
        return shape

    def apply(self, h, params, train, rng):
        return ad.softmax(h, axis=-1)


@dataclass(frozen=True)
class Reshape(Layer):
    shape: tuple[int, ...]
    kind: ClassVar[str] = "reshape"

    def out_shape(self, shape, where):
        if not (isinstance(self.shape, tuple) and self.shape and all(_is_int(s) and s > 0 for s in self.shape)):
            raise SpecError(f"{where}: shape must be a non-empty list of positive ints, got {self.shape!r}")
        if math.prod(self.shape) != math.prod(shape):
            raise SpecError(f"{where}: cannot reshape {shape} to {self.shape}")
        return self.shape

    def apply(self, h, params, train, rng):
        return ad.reshape(h, (h.shape[0], *self.shape))


_LAYER_TYPES = {cls.kind: cls for cls in Layer.__subclasses__()}


def _run_order(layers: tuple[Layer, ...], capture: int | None) -> list[int]:
    """Layer indices in the order ``Model.forward_t`` applies them: spec
    order, except that a layer that ``runs_after`` the next one swaps with
    it unless ``capture`` names it. Swaps are of adjacent layers only, so
    after step k every layer up to index k has run, except after the first
    step of a swapped pair."""
    order = list(range(len(layers)))
    for i in range(len(layers) - 1):
        if order[i] == i and i != capture and layers[i].runs_after(layers[i + 1]):
            order[i : i + 2] = i + 1, i
    return order


def layer_to_dict(layer: Layer) -> dict:
    return {"type": layer.kind, **asdict(layer)}


def layer_from_dict(d: dict, where: str) -> Layer:
    if not isinstance(d, dict):
        raise SpecError(f"{where}: a layer must be an object, got {d!r}")
    kind = d.get("type")
    cls = _LAYER_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{where}: unknown layer type {kind!r}")
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items() if k != "type"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ConfigError(f"{where}: bad fields for layer {kind!r}: {exc}") from None


@dataclass(frozen=True)
class ModelSpec:
    """Ordered layer descriptors plus the input shape they chain from."""

    name: str
    input_shape: tuple[int, ...]
    layers: tuple[Layer, ...]
    standardize: bool = False  # per-image standardization at the model boundary

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "standardize": self.standardize,
            "layers": [layer_to_dict(l) for l in self.layers],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        lists = isinstance(d, dict) and isinstance(d.get("input_shape"), list) and isinstance(d.get("layers"), list)
        if not (lists and "name" in d):
            raise SpecError(f"a model spec needs 'name', an 'input_shape' list and a 'layers' list, got {str(d)[:80]}")
        return ModelSpec(
            name=d["name"],
            input_shape=tuple(d["input_shape"]),
            layers=tuple(layer_from_dict(l, f"layer {i}") for i, l in enumerate(d["layers"])),
            standardize=bool(d.get("standardize", False)),
        )


def infer_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Per-layer output shapes (batch axis excluded); raises SpecError on a chain break."""
    shape = tuple(spec.input_shape)
    if not (shape and all(_is_int(s) and s > 0 for s in shape)):
        raise SpecError(f"input shape must be a non-empty list of positive ints, got {shape}")
    out = []
    for i, layer in enumerate(spec.layers):
        shape = layer.out_shape(shape, f"layer {i} ({layer.kind})")
        out.append(shape)
    return out


class ParameterStore:
    """Weights per layer index, with freezing.

    Frozen layers keep requires_grad off and are byte-identical across any
    training run that declares them frozen.
    """

    def __init__(self):
        self.params: dict[int, dict[str, Tensor]] = {}
        self.frozen: set[int] = set()

    def add(self, layer_index: int, **tensors: Tensor) -> None:
        self.params[layer_index] = tensors

    def get(self, layer_index: int) -> dict[str, Tensor]:
        return self.params[layer_index]

    def freeze_all(self) -> None:
        self.frozen = set(self.params)
        for group in self.params.values():
            for t in group.values():
                t.requires_grad = False

    def is_fully_frozen(self) -> bool:
        return set(self.params) == self.frozen

    def trainable(self) -> list[Tensor]:
        return [t for idx, _, t in self.named_tensors() if idx not in self.frozen]

    def named_tensors(self) -> list[tuple[int, str, Tensor]]:
        return [(idx, name, group[name]) for idx, group in sorted(self.params.items()) for name in sorted(group)]

    def byte_digest(self) -> bytes:
        import hashlib

        h = hashlib.sha256()
        for idx, name, t in self.named_tensors():
            h.update(f"{idx}:{name}:{t.shape}".encode())
            h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        return h.digest()


class Predictor:
    """Numpy conveniences over a subclass's ``proba_t`` and ``logits_t``."""

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.proba_t(Tensor(x)).data

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        return self.logits_t(Tensor(x)).data

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)


class Model(Predictor):
    """A spec bound to its parameters; executable with or without a tape."""

    def __init__(self, spec: ModelSpec, store: ParameterStore, seed: int | None = None):
        self.spec = spec
        self.store = store
        self.seed = seed
        self.layer_shapes = infer_shapes(spec)

    # -- structure -----------------------------------------------------------

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.spec.input_shape

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.layer_shapes[-1] if self.spec.layers else self.spec.input_shape

    @property
    def is_classifier(self) -> bool:
        return bool(self.spec.layers) and isinstance(self.spec.layers[-1], Softmax)

    @property
    def num_classes(self) -> int:
        if not self.is_classifier:
            raise ContractError(f"model {self.spec.name!r} does not end in softmax")
        return self.output_shape[0]

    def param_count(self) -> int:
        return sum(t.size for _, _, t in self.store.named_tensors())

    # -- execution -----------------------------------------------------------

    def _check_batch(self, x_shape: tuple[int, ...]) -> None:
        if tuple(x_shape[1:]) != self.input_shape:
            raise DimensionError(
                f"model {self.spec.name!r} expects input {self.input_shape}, got batch of {tuple(x_shape[1:])}"
            )

    def forward_t(
        self,
        x: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
        capture: int | None = None,
        stop_before: int | None = None,
    ) -> Tensor | tuple[Tensor, Tensor]:
        """Run the layer stack on a batch tensor.

        ``capture`` also returns the activation after that layer index, the
        spec-order value: a relu it names keeps its place before a maxpool,
        and a maxpool it names returns relu(pool). ``stop_before`` halts the
        stack early (used to strip a final softmax).
        """
        self._check_batch(x.shape)
        if capture is not None and not (0 <= capture < len(self.spec.layers)):
            raise ConfigError(f"capture index {capture} outside layers [0, {len(self.spec.layers)})")
        h = x
        if self.spec.standardize:
            h = ad.standardize_per_image(h)
        captured = None
        layers = self.spec.layers if stop_before is None else self.spec.layers[:stop_before]
        for step, i in enumerate(_run_order(layers, capture)):
            h = layers[i].apply(h, self.store.params.get(i), train, rng)
            if capture == step:  # every layer up to index ``capture`` has run: it is not the first of a swapped pair
                captured = h
        if capture is not None:
            return h, captured
        return h

    def logits_t(self, x: Tensor, train: bool = False, rng: np.random.Generator | None = None, capture: int | None = None):
        """Pre-softmax outputs; the spec must end in softmax."""
        if not self.is_classifier:
            raise ContractError(f"model {self.spec.name!r} has no softmax head; no logits to expose")
        return self.forward_t(x, train=train, rng=rng, capture=capture, stop_before=len(self.spec.layers) - 1)

    def proba_t(self, x: Tensor) -> Tensor:
        if not self.is_classifier:
            raise ContractError(f"model {self.spec.name!r} has no softmax head")
        return self.forward_t(x)

    def proba_t_with_capture(self, x: Tensor, layer_index: int) -> tuple[Tensor, Tensor]:
        """Class distribution plus the activation after ``layer_index``."""
        if not self.is_classifier:
            raise ContractError(f"model {self.spec.name!r} has no softmax head")
        return self.forward_t(x, capture=layer_index)

    def reconstruct_t(self, x: Tensor) -> Tensor:
        if self.output_shape != self.input_shape:
            raise DimensionError(
                f"model {self.spec.name!r} maps {self.input_shape} to {self.output_shape}; not an autoencoder"
            )
        return ad.clip(self.forward_t(x), *DATA_DOMAIN)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self.reconstruct_t(Tensor(x)).data


def _param_shapes(spec: ModelSpec) -> dict[int, dict[str, tuple[int, ...]]]:
    """Weight and bias shapes per parametric layer index, in layer order."""
    in_shapes = [spec.input_shape, *infer_shapes(spec)]  # raises SpecError on a chain break
    return {i: shapes for i, layer in enumerate(spec.layers) if (shapes := layer.param_shapes(in_shapes[i]))}


def build_model(spec: ModelSpec, seed: int) -> Model:
    """Deterministically initialize a model from (spec, seed).

    He-uniform for weights feeding a ReLU, Glorot-uniform otherwise, zero
    biases. The weight layout and draw order are fixed by the spec, so equal
    seeds give byte-identical parameters.
    """
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for i, shapes in _param_shapes(spec).items():
        w_shape, b_shape = shapes["w"], shapes["b"]
        fan_in = int(np.prod(w_shape[:-1]))  # dense: inputs; conv: k*k*c_in
        fan_out = int(np.prod(w_shape[:-2])) * w_shape[-1]  # dense: units; conv: k*k*c_out
        feeds = next((l.activation for l in spec.layers[i + 1 :] if l.activation), "other")
        limit = np.sqrt(6.0 / fan_in) if feeds == "relu" else np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=w_shape)
        store.add(i, w=Tensor(w, requires_grad=True), b=Tensor(np.zeros(b_shape), requires_grad=True))
    return Model(spec, store, seed=seed)


# ---------------------------------------------------------------------------
# hidden-layer probe


@dataclass
class HiddenProbe:
    """Softmax projection of an intermediate feature map onto a small simplex."""

    source_layer: int
    w: Tensor
    b: Tensor

    @property
    def dim(self) -> int:
        return self.w.shape[1]

    def trainable(self) -> list[Tensor]:
        return [self.b, self.w]


def build_probe(model: Model, source_layer: int, dim: int, seed: int) -> HiddenProbe:
    if not (0 <= source_layer < len(model.spec.layers)):
        raise ConfigError(f"probe source layer {source_layer} outside [0, {len(model.spec.layers)})")
    if dim < 1:
        raise ConfigError(f"probe dimension must be positive, got {dim}")
    feat = int(np.prod(model.layer_shapes[source_layer]))
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / (feat + dim))
    w = Tensor(rng.uniform(-limit, limit, size=(feat, dim)), requires_grad=True)
    b = Tensor(np.zeros(dim), requires_grad=True)
    return HiddenProbe(source_layer=source_layer, w=w, b=b)


def probe_dist_t(probe: HiddenProbe, features: Tensor) -> Tensor:
    """softmax(W . flatten(F) + b) over a batch of feature maps."""
    flat = ad.reshape(features, (features.shape[0], int(np.prod(features.shape[1:]))))
    if flat.shape[1] != probe.w.shape[0]:
        raise ConfigError(f"probe expects features of length {probe.w.shape[0]}, got {flat.shape[1]}")
    return ad.softmax(ad.add(ad.matmul(flat, probe.w), probe.b), axis=-1)


def hidden_probe_forward(model: Model, probe: HiddenProbe, x: np.ndarray) -> np.ndarray:
    """Probe distribution y(x) for a raw input batch."""
    _, feats = model.forward_t(Tensor(x), capture=probe.source_layer)
    return probe_dist_t(probe, feats).data


# ---------------------------------------------------------------------------
# defended composition


class DefendedModel(Predictor):
    """The composition classifier(AE(x)); differentiable end to end."""

    def __init__(self, classifier: Model, ae: Model):
        if ae.output_shape != classifier.input_shape or ae.input_shape != classifier.input_shape:
            raise CompositionError(
                f"autoencoder maps {ae.input_shape} to {ae.output_shape}, classifier expects {classifier.input_shape}"
            )
        self.classifier = classifier
        self.ae = ae
        self.spec = classifier.spec

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.ae.input_shape

    @property
    def is_classifier(self) -> bool:
        return True

    @property
    def num_classes(self) -> int:
        return self.classifier.num_classes

    def logits_t(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return self.classifier.logits_t(self.ae.reconstruct_t(x))

    def proba_t(self, x: Tensor) -> Tensor:
        return self.classifier.proba_t(self.ae.reconstruct_t(x))


def compose_defended(classifier: Model, ae: Model) -> DefendedModel:
    return DefendedModel(classifier, ae)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path) -> None:
    """Write magic, a length-prefixed JSON header, then raw little-endian
    float64 weight blocks in header order."""
    tensors = model.store.named_tensors()
    entries = []
    offset = 0
    blocks = []
    for idx, name, t in tensors:
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        entries.append({"layer": idx, "name": name, "shape": list(t.shape), "offset": offset, "nbytes": len(raw)})
        blocks.append(raw)
        offset += len(raw)
    header = {
        "format_version": 1,
        "spec": model.spec.to_dict(),
        "seed": model.seed,
        "init": "he_glorot_uniform",
        "tensors": entries,
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_artifact(path, b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(payload)), payload, *blocks]))


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise MagicError(f"{path}: bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)
    if len(blob) < pos + 4:
        raise TruncationError(f"{path}: truncated before header length")
    (hlen,) = struct.unpack("<I", blob[pos : pos + 4])
    pos += 4
    if len(blob) < pos + hlen:
        raise TruncationError(f"{path}: truncated header (need {hlen} bytes)")
    try:
        header = json.loads(blob[pos : pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MismatchError(f"{path}: unreadable header: {exc}") from None
    pos += hlen
    try:
        spec = ModelSpec.from_dict(header["spec"])
        entries = [
            (int(e["layer"]), str(e["name"]), int(e["offset"]), int(e["nbytes"]), [int(s) for s in e["shape"]])
            for e in header["tensors"]
        ]
    except (KeyError, TypeError, ValueError, SpecError, ConfigError) as exc:
        raise MismatchError(f"{path}: malformed checkpoint header: {exc!r}") from None
    store = ParameterStore()
    groups: dict[int, dict[str, Tensor]] = {}
    total = sum(nbytes for _, _, _, nbytes, _ in entries)
    if len(blob) - pos != total:
        raise MismatchError(f"{path}: weight payload is {len(blob) - pos} bytes, header declares {total}")
    for layer, name, offset, nbytes, shape in entries:
        if offset < 0 or min(shape, default=0) < 0 or nbytes != 8 * math.prod(shape):
            raise MismatchError(f"{path}: block {layer}:{name} size disagrees with its shape")
        start = pos + offset
        end = start + nbytes
        if end > len(blob):
            raise TruncationError(f"{path}: truncated weight block {layer}:{name}")
        arr = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape)
        groups.setdefault(layer, {})[name] = Tensor(arr.copy(), requires_grad=True)
    for idx, tensors in groups.items():
        store.add(idx, **tensors)
    want = {(i, n): shape for i, group in _param_shapes(spec).items() for n, shape in group.items()}
    got = {(i, n): t.shape for i, n, t in store.named_tensors()}
    if want != got:
        raise MismatchError(f"{path}: weight shapes disagree with the spec")
    return Model(spec, store, seed=header.get("seed"))
