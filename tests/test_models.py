import json
import math
import struct

import numpy as np
import pytest

from pmdef import autodiff as ad
from pmdef.autodiff import Tape, Tensor, backward, grad_check
from pmdef.errors import (
    CompositionError,
    ConfigError,
    ContractError,
    DimensionError,
    MagicError,
    MismatchError,
    SpecError,
    TruncationError,
)
from pmdef.models import (
    CHECKPOINT_MAGIC,
    Conv,
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
    compose_defended,
    hidden_probe_forward,
    infer_shapes,
    load_checkpoint,
    save_checkpoint,
)
from pmdef.training import temperature_scale
from toys import identity_ae, image_ae_spec, mlp_classifier_spec


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
    assert model.param_count() == conv1 + conv2 + dense1 + dense2


def test_build_model_deterministic_in_seed():
    spec = mlp_classifier_spec()
    a = build_model(spec, 42)
    b = build_model(spec, 42)
    assert a.store.byte_digest() == b.store.byte_digest()
    c = build_model(spec, 43)
    assert a.store.byte_digest() != c.store.byte_digest()


def test_dense_after_conv_without_flatten_is_spec_error():
    spec = ModelSpec("bad", (6, 6, 1), (Conv(4, 2), Dense(10), Softmax()))
    with pytest.raises(SpecError) as err:
        build_model(spec, 0)
    assert "layer 1" in str(err.value)


def test_reshape_mismatch_is_spec_error():
    spec = ModelSpec("bad", (4,), (Reshape((3, 2)),))
    with pytest.raises(SpecError):
        infer_shapes(spec)


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


def test_probe_zero_weights_gives_uniform():
    model = build_model(mlp_classifier_spec(), 0)
    probe = build_probe(model, source_layer=1, dim=5, seed=0)
    probe.w.data[:] = 0.0
    probe.b.data[:] = 0.0
    x = np.random.default_rng(2).random((3, 6))
    y = hidden_probe_forward(model, probe, x)
    assert np.allclose(y, 0.2, atol=1e-15)


def test_probe_dim_20():
    model = build_model(mlp_classifier_spec(), 0)
    probe = build_probe(model, source_layer=1, dim=20, seed=0)
    x = np.random.default_rng(2).random((4, 6))
    assert hidden_probe_forward(model, probe, x).shape == (4, 20)


def test_probe_hand_computed_softmax():
    spec = ModelSpec("tiny", (2,), (Dense(2), Softmax()))
    model = build_model(spec, 0)
    model.store.get(0)["w"].data[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
    model.store.get(0)["b"].data[:] = 0.0
    probe = build_probe(model, source_layer=0, dim=2, seed=0)
    probe.w.data[:] = np.array([[2.0, 0.0], [0.0, 1.0]])
    probe.b.data[:] = np.array([0.0, 0.5])
    x = np.array([[0.3, 0.8]])
    feats = x  # dense(identity) output
    logits = np.array([0.3 * 2.0, 0.8 * 1.0 + 0.5])
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(hidden_probe_forward(model, probe, x)[0], expected, atol=1e-15)


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
    composed = compose_defended(clf, ae)
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
    with pytest.raises(CompositionError):
        compose_defended(clf, ae)


def test_composed_gradient_passes_grad_check():
    clf = build_model(ModelSpec("clf", (4,), (Dense(5), Relu(), Dense(3), Softmax())), 11)
    ae = build_model(ModelSpec("ae", (4,), (Dense(6), Relu(), Dense(4))), 12)
    composed = compose_defended(clf, ae)
    y = np.array([1])

    def f(x):
        logits = composed.logits_t(x)
        return ad.mean_all(ad.sub(ad.logsumexp(logits), ad.take_per_row(logits, y)))

    err = grad_check(f, Tensor(np.random.default_rng(4).random((1, 4)) * 0.6 + 0.2), 1e-5)
    assert err < 1e-4


def test_composed_argmax_defines_whitebox_target():
    clf = build_model(mlp_classifier_spec(dim=4, classes=3), 1)
    spec = ModelSpec("ae", (4,), (Dense(4),))
    ae = build_model(spec, 2)
    composed = compose_defended(clf, ae)
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
    assert loaded.store.byte_digest() == model.store.byte_digest()
    assert np.array_equal(loaded.predict_proba(x), before)
    assert loaded.spec == model.spec


def test_checkpoint_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(MagicError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    model = build_model(mlp_classifier_spec(), 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (len(CHECKPOINT_MAGIC) + 2, len(blob) // 2, len(blob) - 3):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises((TruncationError, MismatchError)):
            load_checkpoint(clipped)


def test_checkpoint_spec_mismatch(tmp_path):
    model = build_model(mlp_classifier_spec(), 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    other = image_ae_spec()
    with pytest.raises(MismatchError):
        load_checkpoint(path, expected_spec=other)


def test_checkpoint_shapes_checked_against_the_spec_without_building_a_model(tmp_path, monkeypatch):
    from pmdef import models

    model = build_model(mlp_classifier_spec(dim=6, hidden=8), 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    monkeypatch.setattr(models, "build_model", lambda *a, **k: pytest.fail("load_checkpoint built a model"))
    assert load_checkpoint(path).store.byte_digest() == model.store.byte_digest()
    blob = path.read_bytes()
    pos = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[pos : pos + 4])
    header = json.loads(blob[pos + 4 : pos + 4 + hlen])
    entry = next(e for e in header["tensors"] if e["layer"] == 0 and e["name"] == "w")
    entry["shape"] = entry["shape"][::-1]  # same byte count, transposed shape
    payload = json.dumps(header).encode("utf-8")
    bad = tmp_path / "transposed.ckpt"
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload + blob[pos + 4 + hlen :])
    with pytest.raises(MismatchError, match="weight shapes"):
        load_checkpoint(bad)


def test_frozen_store_rejects_gradients_and_stays_fixed():
    model = build_model(mlp_classifier_spec(), 0)
    model.store.freeze_all()
    assert model.store.is_fully_frozen()
    assert model.store.trainable() == []
    for _, _, t in model.store.named_tensors():
        assert not t.requires_grad
