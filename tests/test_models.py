import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdef import autodiff as ad
from pmdef.autodiff import Tape, Tensor, backward
from pmdef.errors import ConfigError, ContractError, DimensionError, ParameterError, ParseError, UserError
from pmdef.models import (
    CHECKPOINT_MAGIC,
    _param_shapes,
    Conv,
    DefendedModel,
    Dense,
    Dropout,
    Flatten,
    MaxPool,
    Model,
    ModelSpec,
    Relu,
    Reshape,
    Softmax,
    build_model,
    build_probe,
    load_checkpoint,
    save_checkpoint,
)
from pmdef.schema import from_dict
from pmdef.training import Adam, temperature_scale
from toys import (
    KINK_MARGIN,
    cnn_classifier_spec,
    grad_check,
    greybox_ae_spec,
    identity_ae,
    image_ae_spec,
    kink_margin,
    mlp_classifier_spec,
    param_digest,
)


def mnist_style_spec():
    """Two 2x2 conv blocks with pooling and dropout, a 256-wide dense layer
    and a 10-way softmax head on 28x28x1 inputs."""
    return ModelSpec(
        "mnist_cnn",
        (28, 28, 1),
        (
            Conv(64, 2), Relu(), MaxPool(2, 2), Dropout(0.3),
            Conv(32, 2), Relu(), MaxPool(2, 2), Dropout(0.3),
            Flatten(), Dense(256), Relu(), Dropout(0.5), Dense(10), Softmax(),
        ),
    )


def test_parameter_count_matches_hand_tally():
    spec = mnist_style_spec()
    model = build_model(spec, 0)
    # independent tally, layer by layer (valid padding, stride 1 convs)
    conv1 = 2 * 2 * 1 * 64 + 64          # 28 -> 27
    # pool 27 -> 13
    conv2 = 2 * 2 * 64 * 32 + 32         # 13 -> 12
    # pool 12 -> 6; flatten 6*6*32 = 1152
    dense1 = 1152 * 256 + 256
    dense2 = 256 * 10 + 10
    assert sum(t.size for _, _, t in model.store.named_tensors()) == conv1 + conv2 + dense1 + dense2


def test_build_model_deterministic_in_seed():
    spec = mlp_classifier_spec()
    a = build_model(spec, 42)
    b = build_model(spec, 42)
    assert param_digest(a.store) == param_digest(b.store)
    c = build_model(spec, 43)
    assert param_digest(a.store) != param_digest(c.store)


def test_dense_after_conv_without_flatten_is_spec_error():
    with pytest.raises(ConfigError, match="expects a flat input") as err:
        ModelSpec("bad", (6, 6, 1), (Conv(4, 2), Dense(10), Softmax()))
    assert "layer 1" in str(err.value)


def test_reshape_mismatch_is_spec_error():
    with pytest.raises(ConfigError, match=re.escape("cannot reshape (4,) to (3, 2)")):
        ModelSpec("bad", (4,), (Reshape((3, 2)),))


def test_predict_proba_rows_sum_to_one():
    model = build_model(mlp_classifier_spec(), 1)
    x = np.random.default_rng(0).random((7, 6))
    p = model.predict_proba(x)
    assert p.shape == (7, 3)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_predict_proba_shape_mismatch():
    model = build_model(mlp_classifier_spec(dim=6), 1)
    with pytest.raises(DimensionError):
        model.predict_proba(np.zeros((3, 5)))


def test_predict_proba_known_weights_hand_computed():
    spec = ModelSpec("hand", (2,), (Dense(2), Softmax()))
    model = build_model(spec, 0)
    model.store.get(0)["w"].data[:] = np.array([[1.0, -1.0], [0.5, 2.0]])
    model.store.get(0)["b"].data[:] = np.array([0.1, -0.2])
    x = np.array([[0.4, 0.6]])
    logits = np.array([0.4 * 1.0 + 0.6 * 0.5 + 0.1, 0.4 * -1.0 + 0.6 * 2.0 - 0.2])
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(model.predict_proba(x)[0], expected, atol=1e-15)


def test_argmax_invariant_under_temperature_scaling():
    model = build_model(mlp_classifier_spec(dim=5, classes=4), 3)
    x = np.random.default_rng(5).random((20, 5))
    p = model.predict_proba(x)
    base = p.argmax(axis=1)
    for t in (0.05, 0.5, 1.0, 3.0, 20.0):
        assert np.array_equal(temperature_scale(p, t).argmax(axis=1), base)


def test_reconstruct_shape_and_domain():
    ae = build_model(image_ae_spec(size=5), 2)
    x = np.random.default_rng(1).random((4, 5, 5, 1))
    r = ae.reconstruct(x)
    assert r.shape == x.shape
    assert r.min() >= 0.0 and r.max() <= 1.0
    assert np.all(np.isfinite(r))


def test_reconstruct_identity_initialized_linear_path_finite():
    spec = ModelSpec("lin_ae", (4,), (Dense(4),))
    ae = build_model(spec, 0)
    ae.store.get(0)["w"].data[:] = np.eye(4)
    x = np.random.default_rng(0).random((3, 4))
    out = ae.reconstruct(x)
    assert np.all(np.isfinite(out))
    assert np.allclose(out, x, atol=1e-15)


def test_reconstruct_requires_matching_shapes():
    model = build_model(mlp_classifier_spec(), 0)
    with pytest.raises(DimensionError):
        model.reconstruct(np.zeros((2, 6)))


# ---------------------------------------------------------------------------
# hidden probe


def _probe_output(model, probe, source_layer, x):
    """The probe's distribution for a raw input batch: the model's activation
    after ``source_layer``, then the probe."""
    _, feats = model.forward_t(Tensor(x), capture=source_layer)
    return probe.forward_t(feats).data


def test_probe_zero_weights_gives_uniform():
    model = build_model(mlp_classifier_spec(), 0)
    probe = build_probe(model, source_layer=1, dim=5, seed=0)
    for t in probe.store.trainable():
        t.data[:] = 0.0
    x = np.random.default_rng(2).random((3, 6))
    y = _probe_output(model, probe, 1, x)
    assert np.allclose(y, 0.2, atol=1e-15)


def test_probe_dim_20():
    model = build_model(mlp_classifier_spec(), 0)
    probe = build_probe(model, source_layer=1, dim=20, seed=0)
    x = np.random.default_rng(2).random((4, 6))
    assert probe.output_shape == (20,)
    assert _probe_output(model, probe, 1, x).shape == (4, 20)


def test_probe_hand_computed_softmax():
    spec = ModelSpec("tiny", (2,), (Dense(2), Softmax()))
    model = build_model(spec, 0)
    model.store.get(0)["w"].data[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
    model.store.get(0)["b"].data[:] = 0.0
    probe = build_probe(model, source_layer=0, dim=2, seed=0)
    probe.store.get(1)["w"].data[:] = np.array([[2.0, 0.0], [0.0, 1.0]])
    probe.store.get(1)["b"].data[:] = np.array([0.0, 0.5])
    x = np.array([[0.3, 0.8]])
    _, feats = model.forward_t(Tensor(x), capture=0)
    assert np.array_equal(feats.data, x)  # dense(identity) output
    logits = np.array([0.3 * 2.0, 0.8 * 1.0 + 0.5])
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(probe.forward_t(feats).data[0], expected, atol=1e-15)


def test_probe_round_trips_through_a_checkpoint(tmp_path):
    model = build_model(cnn_classifier_spec(), 0)
    probe = build_probe(model, source_layer=1, dim=4, seed=3)
    save_checkpoint(probe, tmp_path / "probe.ckpt")
    loaded = load_checkpoint(tmp_path / "probe.ckpt")
    assert param_digest(loaded.store) == param_digest(probe.store)
    _, feats = model.forward_t(Tensor(np.random.default_rng(1).random((3, 6, 6, 1))), capture=1)
    assert np.array_equal(loaded.forward_t(feats).data, probe.forward_t(feats).data)


def test_probe_invalid_layer_index():
    model = build_model(mlp_classifier_spec(), 0)
    with pytest.raises(ConfigError):
        build_probe(model, source_layer=99, dim=4, seed=0)


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_ae_equals_classifier():
    clf = build_model(
        ModelSpec("clf", (3, 3, 1), (Flatten(), Dense(8), Relu(), Dense(3), Softmax())), 7
    )
    ae = identity_ae(3)
    composed = DefendedModel(clf, ae)
    # exhaustive small grid of inputs
    grid = np.stack(np.meshgrid(*[np.linspace(0, 1, 3)] * 2), axis=-1).reshape(-1, 2)
    x = np.zeros((grid.shape[0], 3, 3, 1))
    x[:, 0, 0, 0] = grid[:, 0]
    x[:, 2, 2, 0] = grid[:, 1]
    assert np.array_equal(composed.predict_proba(x), clf.predict_proba(x))
    assert np.array_equal(composed.predict_class(x), clf.predict_class(x))


def test_compose_shape_mismatch():
    clf = build_model(mlp_classifier_spec(dim=6), 0)
    ae = build_model(image_ae_spec(size=3), 0)
    with pytest.raises(DimensionError, match="autoencoder maps"):
        DefendedModel(clf, ae)


def test_composed_gradient_passes_grad_check():
    clf = build_model(ModelSpec("clf", (4,), (Dense(5), Relu(), Dense(3), Softmax())), 11)
    ae = build_model(ModelSpec("ae", (4,), (Dense(6), Relu(), Dense(4))), 12)
    composed = DefendedModel(clf, ae)
    y = np.array([1])

    def f(x):
        logits = composed.logits_t(x)
        return ad.mean_all(ad.sub(ad.logsumexp(logits), ad.take_per_row(logits, y)))

    x = Tensor(np.random.default_rng(4).random((1, 4)) * 0.6 + 0.2)
    assert kink_margin(f, x) > KINK_MARGIN
    assert grad_check(f, x, 1e-5) < 1e-4


def test_composed_argmax_defines_whitebox_target():
    clf = build_model(mlp_classifier_spec(dim=4, classes=3), 1)
    spec = ModelSpec("ae", (4,), (Dense(4),))
    ae = build_model(spec, 2)
    composed = DefendedModel(clf, ae)
    x = np.random.default_rng(3).random((5, 4))
    expected = clf.predict_class(ae.reconstruct(x))
    assert np.array_equal(composed.predict_class(x), expected)


# ---------------------------------------------------------------------------
# dropout behavior


def test_dropout_disabled_at_inference():
    spec = ModelSpec("drop", (4,), (Dense(4), Dropout(0.9), Dense(2), Softmax()))
    model = build_model(spec, 3)
    x = np.random.default_rng(0).random((6, 4))
    assert np.array_equal(model.predict_proba(x), model.predict_proba(x))
    # train mode with a seeded rng actually drops
    rng = np.random.default_rng(0)
    with Tape():
        out = model.forward_t(Tensor(x), train=True, rng=rng)
    assert not np.allclose(out.data, model.predict_proba(x))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = build_model(mnist_style_spec(), 5)
    x = np.random.default_rng(1).random((2, 28, 28, 1))
    before = model.predict_proba(x)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert param_digest(loaded.store) == param_digest(model.store)
    assert np.array_equal(loaded.predict_proba(x), before)
    assert loaded.spec == model.spec


def test_checkpoint_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ParseError, match="bad checkpoint magic"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    model = build_model(mlp_classifier_spec(), 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (len(CHECKPOINT_MAGIC) + 2, len(blob) // 2, len(blob) - 3):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(ParseError, match="truncated|weight payload is"):
            load_checkpoint(clipped)


def _with_header(path, edit, out):
    """Write to ``out`` the checkpoint ``path`` with ``edit`` applied to its JSON header."""
    blob = path.read_bytes()
    pos = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[pos : pos + 4])
    header = json.loads(blob[pos + 4 : pos + 4 + hlen])
    edit(header)
    payload = json.dumps(header).encode("utf-8")
    out.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload + blob[pos + 4 + hlen :])
    return out


def test_checkpoint_shapes_checked_against_the_spec_without_building_a_model(tmp_path, monkeypatch):
    from pmdef import models

    model = build_model(mlp_classifier_spec(dim=6, hidden=8), 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    monkeypatch.setattr(models, "build_model", lambda *a, **k: pytest.fail("load_checkpoint built a model"))
    assert param_digest(load_checkpoint(path).store) == param_digest(model.store)

    def transpose(header):  # same byte count, transposed shape
        entry = next(e for e in header["tensors"] if e["layer"] == 0 and e["name"] == "w")
        entry["shape"] = entry["shape"][::-1]

    with pytest.raises(ParseError, match="weight shapes"):
        load_checkpoint(_with_header(path, transpose, tmp_path / "transposed.ckpt"))


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda h: h["spec"].update(standardize="false"), "spec.standardize: expected bool"),
        (lambda h: h["spec"]["layers"][0].update(units="8"), "spec.layers[0].units: expected int"),
        (lambda h: h["spec"]["layers"][1].update(kind="relu"), "spec.layers[1].kind: unknown key"),
        (lambda h: h["spec"]["layers"][0].update(units=0), "spec.layers[0].units: must be in [1, inf), got 0"),
        (lambda h: h["spec"].update(input_shape=[2, 3]), "spec: layer 0 (dense): expects a flat input"),
    ],
    ids=["standardize-str", "units-str", "layer-kind-key", "units-0", "chain-break"],
)
def test_a_checkpoint_header_spec_is_read_by_the_config_schema(tmp_path, edit, needle):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(mlp_classifier_spec(dim=6, hidden=8), 0), path)
    bad = _with_header(path, edit, tmp_path / "bad.ckpt")
    with pytest.raises(ParseError, match=re.escape(f"{bad}: malformed checkpoint header: ")) as err:
        load_checkpoint(bad)
    assert needle in str(err.value)


def test_frozen_store_rejects_gradients_and_stays_fixed():
    model = build_model(mlp_classifier_spec(), 0)
    model.store.freeze_all()
    assert model.store.is_fully_frozen()
    assert model.store.trainable() == []
    for _, _, t in model.store.named_tensors():
        assert not t.requires_grad


# ---------------------------------------------------------------------------
# the layer table


TABLE_SPECS = {
    "dense": ModelSpec("t", (5,), (Dense(4),)),
    "conv-valid-1": ModelSpec("t", (7, 6, 2), (Conv(3, 3),)),
    "conv-same-1": ModelSpec("t", (7, 6, 2), (Conv(3, 3, 1, "same"),)),
    "conv-valid-2": ModelSpec("t", (7, 6, 2), (Conv(3, 3, 2, "valid"),)),
    "conv-same-2": ModelSpec("t", (7, 6, 2), (Conv(3, 2, 2, "same"),)),
    "maxpool": ModelSpec("t", (7, 6, 2), (MaxPool(3, 2),)),
    "relu": ModelSpec("t", (5,), (Relu(),)),
    "dropout": ModelSpec("t", (5,), (Dropout(0.5),)),
    "flatten": ModelSpec("t", (3, 4, 2), (Flatten(),)),
    "softmax": ModelSpec("t", (5,), (Softmax(),)),
    "reshape": ModelSpec("t", (12,), (Reshape((3, 2, 2)),)),
    "mnist-style": mnist_style_spec(),
}


@pytest.mark.parametrize("name", list(TABLE_SPECS))
def test_layer_table_shapes_match_what_forward_and_build_produce(name):
    spec = TABLE_SPECS[name]
    model = build_model(spec, 0)
    x = Tensor(np.random.default_rng(0).random((3, *spec.input_shape)))
    shapes = spec.layer_shapes
    for i in range(len(spec.layers)):
        _, captured = model.forward_t(x, train=True, rng=np.random.default_rng(1), capture=i)
        assert captured.shape == (3, *shapes[i]), (i, spec.layers[i])
    stored = {i: {n: t.shape for n, t in group.items()} for i, group in model.store.params.items()}
    assert _param_shapes(spec) == stored
    assert sorted(stored) == [i for i, layer in enumerate(spec.layers) if layer.kind in ("dense", "conv")]


# the benchmark's autoencoder spec; its header JSON and its seed-3 weights are
# pinned so that a change to field order, defaults or the init draw order shows
BENCH_AE_SPEC = {
    "name": "blob_ae",
    "input_shape": [20, 20, 1],
    "standardize": False,
    "layers": [
        {"type": "conv", "filters": 8, "kernel": 3, "stride": 1, "padding": "same"},
        {"type": "relu"},
        {"type": "maxpool", "window": 5, "stride": 5},
        {"type": "flatten"},
        {"type": "dense", "units": 32},
        {"type": "dense", "units": 128},
        {"type": "relu"},
        {"type": "dense", "units": 400},
        {"type": "reshape", "shape": [20, 20, 1]},
    ],
}


def test_spec_header_json_and_init_bytes_are_pinned():
    spec = from_dict(ModelSpec, BENCH_AE_SPEC)
    assert json.dumps(spec.to_dict(), sort_keys=True) == (
        '{"input_shape": [20, 20, 1], "layers": [{"filters": 8, "kernel": 3, "padding": "same", "stride": 1, "type": "conv"}, '
        '{"type": "relu"}, {"stride": 5, "type": "maxpool", "window": 5}, {"type": "flatten"}, {"type": "dense", "units": 32}, '
        '{"type": "dense", "units": 128}, {"type": "relu"}, {"type": "dense", "units": 400}, '
        '{"shape": [20, 20, 1], "type": "reshape"}], "name": "blob_ae", "standardize": false}'
    )
    assert from_dict(ModelSpec, json.loads(json.dumps(spec.to_dict()))) == spec
    assert param_digest(build_model(spec, 3).store).hex() == "038de6882ec97a4c810f5ae80ffe1871fbb60071f4a6ade857171f35709d5704"


def test_spec_fields_are_validated_when_the_spec_is_built():
    for rate in (1.0, -0.1):
        with pytest.raises(ConfigError, match=re.escape("layer 1 (dropout): rate must be")):
            ModelSpec("bad", (4, 4, 1), (Relu(), Dropout(rate)))
    for window, stride, field in ((0, 1, "window"), (2, 0, "stride")):
        with pytest.raises(ParameterError, match=f"^{field}: must be in "):
            ModelSpec("bad", (4, 4, 1), (Relu(), MaxPool(window, stride)))


# Generated specs draw each field from values that are mostly valid, with
# out-of-range and wrongly typed ones mixed in, so that a good share of them
# builds and runs. Sizes stay small so that every spec the builder accepts
# is cheap to build and run.
_JUNK = st.sampled_from([None, "3", 3.5, True, [], {}, float("nan"), float("inf")])
_MOSTLY = st.sampled_from([True] * 19 + [False])
_INTS = [1, 1, 2, 2, 3, 4, 0, -1]
_FIELDS = {
    "dense": {"units": _INTS},
    "conv": {"filters": _INTS, "kernel": _INTS, "stride": _INTS, "padding": ["valid", "same", "full", 1]},
    "maxpool": {"window": _INTS, "stride": _INTS},
    "relu": {},
    "dropout": {"rate": [0.0, 0.3, 0.5, 0.99, 1.0, -0.1, 2]},
    "flatten": {},
    "softmax": {},
    "reshape": {"shape": [[6], [12], [3, 2, 2], [2, 2, 1], [1, 4], [-2, -2], [], [0, 5]]},
}
_INPUT_SHAPES = [[6], [12], [4], [6, 6, 2], [5, 4, 1], [4, 4, 1], [], [0, 3], [-1]]


@st.composite
def _spec_dicts(draw):
    def pick(good):
        return draw(st.sampled_from(good) if draw(_MOSTLY) else _JUNK)

    layers = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sorted(_FIELDS)))
        layer = {"type": kind, **{name: pick(good) for name, good in _FIELDS[kind].items() if draw(_MOSTLY)}}
        if not draw(_MOSTLY):
            keys, values = st.sampled_from(["type", "units", "kind"]), _JUNK | st.sampled_from(["pool", "dense"])
            layer = draw(_JUNK | st.dictionaries(keys, values))
        layers.append(layer)
    spec = {"name": "fuzz", "input_shape": pick(_INPUT_SHAPES), "layers": layers if draw(_MOSTLY) else draw(_JUNK)}
    for key in ("name", "input_shape", "layers"):
        if not draw(_MOSTLY):
            del spec[key]
    if draw(st.booleans()):
        spec["standardize"] = pick([False, True])
    return spec if draw(_MOSTLY) else draw(_JUNK)


@settings(max_examples=300, deadline=None)
@given(d=_spec_dicts())
def test_spec_parser_builder_and_forward_raise_only_user_errors(d):
    try:
        model = build_model(from_dict(ModelSpec, d), 0)
        x = Tensor(np.random.default_rng(0).random((2, *model.input_shape)))
        model.forward_t(x, train=True, rng=np.random.default_rng(1))
    except UserError:
        pass


# ---------------------------------------------------------------------------
# forward_t runs a relu that precedes a maxpool after the pool


def _spec_order_forward(model, x, capture=None):
    """forward_t as a loop over layer.apply in spec order, with a conv layer's
    bias added by a separate ``add``: the computation before relu moved past
    the pool and the bias into conv2d."""
    h, captured = x, None
    for i, layer in enumerate(model.spec.layers):
        params = model.store.params.get(i)
        if isinstance(layer, Conv):
            h = ad.add(ad.conv2d(h, params["w"], layer.stride, layer.padding), params["b"])
        else:
            h = layer.apply(h, params, False, None)
        if i == capture:
            captured = h
    return h, captured


def _edge_case_biases(model):
    """Conv biases giving pool windows that are all < 0, all > 0, exact
    zeros on a zero input, and mixed, one channel each."""
    b = model.store.get(0)["b"].data
    b[:] = np.resize([-10.0, 10.0, 0.0, 0.25], b.shape)


def _edge_case_batch(size, n, seed):
    """Constant 4x4 patches, which tie the conv outputs inside them, a zero
    image, and in the last image generic values."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, 3, size=(n, -(-size // 4), -(-size // 4), 1)) * 0.5
    x = np.kron(blocks, np.ones((1, 4, 4, 1)))[:, :size, :size]
    x[0] = 0.0
    x[-1] = rng.random((size, size, 1))
    return x


def _pool_window_cases(model, x):
    """(windows whose maximum is <= 0, windows with a tied positive maximum)
    over the spec-order relu output that the first maxpool reads."""
    pool = model.spec.layers[2]
    a = _spec_order_forward(model, Tensor(x), capture=1)[1].data
    oh, ow = model.spec.layer_shapes[2][:2]
    win = ad._windows(a, pool.window, pool.window, pool.stride, oh, ow).reshape(*a.shape[:1], oh, ow, a.shape[3], -1)
    top = win.max(axis=-1)
    return int((top <= 0.0).sum()), int(((top > 0.0) & ((win == top[..., None]).sum(axis=-1) > 1)).sum())


@pytest.mark.parametrize("spec_name", ["cnn_classifier", "greybox_ae"])
def test_forward_gradients_and_an_adam_step_equal_the_spec_order_loop_bit_for_bit(spec_name):
    spec, size = (cnn_classifier_spec(size=8), 8) if spec_name == "cnn_classifier" else (greybox_ae_spec(), 20)
    models = [build_model(spec, 3) for _ in range(2)]
    for model in models:
        _edge_case_biases(model)
    x = _edge_case_batch(size, 6, 4)
    assert min(_pool_window_cases(models[0], x)) > 0
    outs, grads = [], []
    for model, forward in zip(models, (lambda m, t: m.forward_t(t), lambda m, t: _spec_order_forward(m, t)[0])):
        with Tape() as tape:
            out = forward(model, Tensor(x))
            g = np.random.default_rng(5).normal(size=out.shape)
            loss = ad.sum_all(ad.mul(out, Tensor(g)))
        grads.append(backward(tape, loss))
        outs.append(out.data)
        Adam(model.store.trainable(), lr=0.01).step()
    assert np.array_equal(outs[0], outs[1])
    for (idx, name, t), (_, _, ref) in zip(*(m.store.named_tensors() for m in models)):
        assert np.array_equal(grads[0][t], grads[1][ref]), (idx, name)
        assert np.array_equal(t.data, ref.data), (idx, name)


def test_a_relu_before_a_maxpool_runs_after_it_and_a_capture_returns_the_spec_order_activation():
    model = build_model(greybox_ae_spec(), 3)
    _edge_case_biases(model)
    x = Tensor(_edge_case_batch(20, 4, 6))
    out_ref, relu_ref = _spec_order_forward(model, x, capture=1)
    _, pool_ref = _spec_order_forward(model, x, capture=2)
    for capture, want_ops, want in [
        (None, ["conv2d", "maxpool2d", "relu"], None),
        (1, ["conv2d", "relu", "maxpool2d"], relu_ref),
        (2, ["conv2d", "maxpool2d", "relu"], pool_ref),
    ]:
        with Tape() as tape:
            result = model.forward_t(Tensor(x.data, requires_grad=True), capture=capture)
        out, captured = result if capture is not None else (result, None)
        assert [r.op for r in tape.records][:3] == want_ops
        assert np.array_equal(out.data, out_ref.data)
        if want is not None:
            assert captured.shape == want.shape and np.array_equal(captured.data, want.data)


def test_the_kink_margin_of_a_relu_before_a_maxpool_is_the_pools_gap_on_pre_relu_values():
    # forward_t pools first, so a window that is all < 0 counts its top two values' gap, not relu's tie at 0
    model = build_model(greybox_ae_spec(10), 3)
    conv = model.store.get(0)
    conv["b"].data[0] = -10.0  # every pool window of channel 0 is all < 0
    x = np.random.default_rng(6).random((2, 10, 10, 1))
    pre = ad.conv2d(Tensor(x), conv["w"], 1, "same", bias=conv["b"]).data
    top = np.sort(pre.reshape(2, 2, 5, 2, 5, 8).transpose(0, 1, 3, 5, 2, 4).reshape(-1, 25), axis=1)[:, -2:]
    hidden = model.forward_t(Tensor(x), stop_before=6).data  # what the second relu reads
    expected = min((top[:, 1] - top[:, 0]).min(), np.abs(top[:, 1]).min(), np.abs(hidden).min())
    assert (pre[..., 0] < 0.0).all() and expected > 0.0
    assert kink_margin(model.forward_t, Tensor(x)) == expected
