"""Declarative model specs, deterministic initialization, forward execution
and binary checkpoints.

Layer vocabulary: dense, conv, maxpool, relu, dropout, flatten, softmax,
reshape. A classifier spec ends in softmax; an autoencoder spec maps its
input shape back onto itself and its reconstructions are clamped to the
[0, 1] data domain.

The layer table: each kind is one frozen dataclass deriving from ``Layer``
and owns its spec fields (with their declared ranges), its shape rule
``out_shape``, its ``param_shapes`` and its forward step ``apply``.
``ModelSpec``, ``build_model`` and ``Model.forward_t`` make one call per
layer with no per-kind branch, and ``schema.from_dict`` reads a spec's
layers as the tagged union ``AnyLayer`` of the ``Layer`` subclasses, finding
each class by its ``kind``, so a new layer kind is one class.

``Model.forward_t`` keeps spec order but for one rule, ``Layer.runs_after``:
a relu directly before a maxpool runs after the pool, on the pooled values
only, with the same bits (``Relu.runs_after`` says why). A conv layer adds
its bias inside ``ad.conv2d``: one tape record instead of two.

A hidden-layer probe (``build_probe``) is a ``Model`` too, so it runs through
``forward_t`` and saves through ``save_checkpoint`` like any other model.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import struct
from dataclasses import asdict, dataclass, field
from typing import Annotated, ClassVar, Literal

import numpy as np

from . import autodiff as ad
from .artifacts import write_artifact
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError, ParseError, UserError
from .schema import In, check_fields, from_dict

CHECKPOINT_MAGIC = b"PMDEF001"
DATA_DOMAIN = (0.0, 1.0)


# ---------------------------------------------------------------------------
# the layer table


def _check_rank(shape: tuple[int, ...], rank: int, where: str, expects: str) -> None:
    if len(shape) != rank:
        raise ConfigError(f"{where}: expects {expects}, got {shape}")


@dataclass(frozen=True)
class Layer:
    """One layer kind; the defaults are a shape-preserving layer without
    parameters. ``activation`` is what a weight layer before it feeds ("relu":
    He init, "other": Glorot); None defers to the layers after it. A layer's
    JSON names its kind under ``kind_key``."""

    kind: ClassVar[str]
    kind_key: ClassVar[str] = "type"
    activation: ClassVar[str | None] = None

    def __post_init__(self):
        check_fields(self)

    def out_shape(self, shape: tuple[int, ...], where: str) -> tuple[int, ...]:
        """Output shape (batch axis excluded) for input ``shape``; raises
        ConfigError naming ``where`` on a chain break or on a field whose rule
        its annotation cannot state."""
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
    units: Annotated[int, In(1)]
    kind: ClassVar[str] = "dense"
    activation: ClassVar[str] = "other"

    def out_shape(self, shape, where):
        _check_rank(shape, 1, where, "a flat input (insert flatten)")
        return (self.units,)

    def param_shapes(self, in_shape):
        return {"w": (in_shape[0], self.units), "b": (self.units,)}

    def apply(self, h, params, train, rng):
        return ad.add(ad.matmul(h, params["w"]), params["b"])


@dataclass(frozen=True)
class Conv(Layer):
    filters: Annotated[int, In(1)]
    kernel: Annotated[int, In(1)]
    stride: Annotated[int, In(1)] = 1
    padding: Literal["valid", "same"] = "valid"
    kind: ClassVar[str] = "conv"
    activation: ClassVar[str] = "other"

    def out_shape(self, shape, where):
        _check_rank(shape, 3, where, "an HWC input")
        try:
            oh, ow, *_ = ad._conv_geometry(shape[0], shape[1], self.kernel, self.kernel, self.stride, self.padding)
        except DimensionError as exc:  # kernel larger than a valid-padded input
            raise ConfigError(f"{where}: {exc}") from None
        return (oh, ow, self.filters)

    def param_shapes(self, in_shape):
        return {"w": (self.kernel, self.kernel, in_shape[2], self.filters), "b": (self.filters,)}

    def apply(self, h, params, train, rng):
        return ad.conv2d(h, params["w"], self.stride, self.padding, bias=params["b"])


@dataclass(frozen=True)
class MaxPool(Layer):
    window: Annotated[int, In(1)]
    stride: Annotated[int, In(1)]
    kind: ClassVar[str] = "maxpool"

    def out_shape(self, shape, where):
        _check_rank(shape, 3, where, "an HWC input")
        if self.window > min(shape[:2]):
            raise ConfigError(f"{where}: window {self.window} exceeds input {shape[:2]}")
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
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"{where}: rate must be a number in [0, 1), got {self.rate!r}")
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
        if not (self.shape and all(s > 0 for s in self.shape)):
            raise ConfigError(f"{where}: shape must be a non-empty list of positive ints, got {self.shape!r}")
        if math.prod(self.shape) != math.prod(shape):
            raise ConfigError(f"{where}: cannot reshape {shape} to {self.shape}")
        return self.shape

    def apply(self, h, params, train, rng):
        return ad.reshape(h, (h.shape[0], *self.shape))


AnyLayer = functools.reduce(operator.or_, Layer.__subclasses__())  # the tagged union a spec's layers parse as


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
    return {layer.kind_key: layer.kind, **asdict(layer)}


@dataclass(frozen=True)
class ModelSpec:
    """Ordered layer descriptors plus the input shape they chain from; building
    one infers each layer's output shape and raises ConfigError on a chain break."""

    name: str
    input_shape: tuple[int, ...]
    layers: tuple[AnyLayer, ...]
    standardize: bool = False  # per-image standardization at the model boundary
    layer_shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)  # batch axis excluded

    def __post_init__(self):
        shape = tuple(self.input_shape)
        if not (shape and all(s > 0 for s in shape)):
            raise ConfigError(f"input_shape: must be a non-empty list of positive ints, got {shape}")
        shapes = []
        for i, layer in enumerate(self.layers):
            shape = layer.out_shape(shape, f"layer {i} ({layer.kind})")
            shapes.append(shape)
        object.__setattr__(self, "layer_shapes", tuple(shapes))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "standardize": self.standardize,
            "layers": [layer_to_dict(l) for l in self.layers],
        }


class ParameterStore:
    """Weights per layer index, with freezing.

    A frozen tensor is one whose requires_grad is off; it stays
    byte-identical across any training run.
    """

    def __init__(self):
        self.params: dict[int, dict[str, Tensor]] = {}

    def freeze_all(self) -> None:
        for _, _, t in self.named_tensors():
            t.requires_grad = False

    def is_fully_frozen(self) -> bool:
        return not self.trainable()

    def trainable(self) -> list[Tensor]:
        return [t for _, _, t in self.named_tensors() if t.requires_grad]

    def named_tensors(self) -> list[tuple[int, str, Tensor]]:
        return [(idx, name, group[name]) for idx, group in sorted(self.params.items()) for name in sorted(group)]


class Predictor:
    """Numpy conveniences over a subclass's ``proba_t``."""

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.proba_t(Tensor(x)).data

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)


class Model(Predictor):
    """A spec bound to its parameters; executable with or without a tape."""

    def __init__(self, spec: ModelSpec, store: ParameterStore, seed: int | None = None):
        self.spec = spec
        self.store = store
        self.seed = seed

    # -- structure -----------------------------------------------------------

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.spec.input_shape

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.spec.layer_shapes[-1] if self.spec.layers else self.spec.input_shape

    @property
    def is_classifier(self) -> bool:
        return bool(self.spec.layers) and isinstance(self.spec.layers[-1], Softmax)

    @property
    def num_classes(self) -> int:
        if not self.is_classifier:
            raise ContractError(f"model {self.spec.name!r} does not end in softmax")
        return self.output_shape[0]

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

    def logits_t(self, x: Tensor, train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """Pre-softmax outputs; the spec must end in softmax."""
        if not self.is_classifier:
            raise ContractError(f"model {self.spec.name!r} has no softmax head; no logits to expose")
        return self.forward_t(x, train=train, rng=rng, stop_before=len(self.spec.layers) - 1)

    def proba_t(self, x: Tensor) -> Tensor:
        if not self.is_classifier:
            raise ContractError(f"model {self.spec.name!r} has no softmax head")
        return self.forward_t(x)

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
    in_shapes = [spec.input_shape, *spec.layer_shapes]
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
        store.params[i] = {"w": Tensor(w, requires_grad=True), "b": Tensor(np.zeros(b_shape), requires_grad=True)}
    return Model(spec, store, seed=seed)


# ---------------------------------------------------------------------------
# hidden-layer probe


def build_probe(model: Model, source_layer: int, dim: int, seed: int) -> Model:
    """``[flatten, dense(dim), softmax]`` on the activation after ``model``'s
    layer ``source_layer``, i.e. on ``model.forward_t(x, capture=source_layer)``."""
    if not (0 <= source_layer < len(model.spec.layers)):
        raise ConfigError(f"probe source layer {source_layer} outside [0, {len(model.spec.layers)})")
    spec = ModelSpec("probe", model.spec.layer_shapes[source_layer], (Flatten(), Dense(dim), Softmax()))
    return build_model(spec, seed)


# ---------------------------------------------------------------------------
# defended composition


class DefendedModel(Predictor):
    """The composition classifier(AE(x)); differentiable end to end."""

    def __init__(self, classifier: Model, ae: Model):
        if ae.output_shape != classifier.input_shape or ae.input_shape != classifier.input_shape:
            raise DimensionError(
                f"autoencoder maps {ae.input_shape} to {ae.output_shape}, classifier expects {classifier.input_shape}"
            )
        self.classifier = classifier
        self.ae = ae

    @property
    def num_classes(self) -> int:
        return self.classifier.num_classes

    def logits_t(self, x: Tensor) -> Tensor:
        return self.classifier.logits_t(self.ae.reconstruct_t(x))

    def proba_t(self, x: Tensor) -> Tensor:
        return self.classifier.proba_t(self.ae.reconstruct_t(x))


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


def _checked(v, kind: type):
    """``v`` of a checkpoint header if it is a JSON ``kind``: a string, or an integer >= 0 (a bool is none)."""
    if type(v) is not kind or kind is int and v < 0:
        raise ValueError(f"expected {'a string' if kind is str else 'an integer >= 0'}, got {v!r:.60}")
    return v


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)
    if len(blob) < pos + 4:
        raise ParseError(f"{path}: truncated before header length")
    (hlen,) = struct.unpack("<I", blob[pos : pos + 4])
    pos += 4
    if len(blob) < pos + hlen:
        raise ParseError(f"{path}: truncated header (need {hlen} bytes)")
    try:
        header = json.loads(blob[pos : pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: unreadable header: {exc}") from None
    pos += hlen
    try:
        spec = from_dict(ModelSpec, header["spec"], "spec")
        entries = [(_checked(e["layer"], int), _checked(e["name"], str), _checked(e["offset"], int),
                    _checked(e["nbytes"], int), [_checked(s, int) for s in e["shape"]]) for e in header["tensors"]]
        seed = None if header.get("seed") is None else _checked(header["seed"], int)
    except (KeyError, TypeError, ValueError, UserError) as exc:
        raise ParseError(f"{path}: malformed checkpoint header: {exc!r}") from None
    store = ParameterStore()
    total = sum(nbytes for _, _, _, nbytes, _ in entries)
    if len(blob) - pos != total:
        raise ParseError(f"{path}: weight payload is {len(blob) - pos} bytes, header declares {total}")
    for layer, name, offset, nbytes, shape in entries:
        if nbytes != 8 * math.prod(shape):
            raise ParseError(f"{path}: block {layer}:{name} size disagrees with its shape")
        start = pos + offset
        end = start + nbytes
        if end > len(blob):
            raise ParseError(f"{path}: truncated weight block {layer}:{name}")
        arr = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape)
        store.params.setdefault(layer, {})[name] = Tensor(arr.copy(), requires_grad=True)
    want = {(i, n): shape for i, group in _param_shapes(spec).items() for n, shape in group.items()}
    got = {(i, n): t.shape for i, n, t in store.named_tensors()}
    if want != got:
        raise ParseError(f"{path}: weight shapes disagree with the spec")
    return Model(spec, store, seed=seed)
