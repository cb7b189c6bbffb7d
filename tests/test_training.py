import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdef.errors import ContractError, DataError, ParameterError
from pmdef.models import Dense, Model, ModelSpec, Relu, Softmax, build_model
from pmdef.training import (
    Adam,
    DefenceLossSpec,
    OptimizerConfig,
    ProbeConfig,
    temperature_scale,
    train_classifier,
    train_defence,
)
from toys import mlp_ae_spec, mlp_classifier_spec, separable_data


@pytest.fixture()
def toy():
    rng = np.random.default_rng(0)
    x, y = separable_data(rng, n=30, dim=6, classes=3)
    clf = build_model(mlp_classifier_spec(dim=6, hidden=10, classes=3), 1)
    return x, y, clf


def test_overfit_tiny_dataset_to_full_accuracy():
    rng = np.random.default_rng(1)
    x, y = separable_data(rng, n=10, dim=6, classes=2)
    model = build_model(mlp_classifier_spec(dim=6, hidden=12, classes=2), 2)
    train_classifier(model, x, y, OptimizerConfig(learning_rate=5e-3, batch_size=5, epochs=200, seed=3))
    assert (model.predict_class(x) == y).mean() == 1.0


def test_zero_epochs_is_a_no_op(toy):
    x, y, clf = toy
    before = clf.store.byte_digest()
    report = train_classifier(clf, x, y, OptimizerConfig(epochs=0, seed=0))
    assert clf.store.byte_digest() == before
    assert report.epoch_losses == []


def test_label_out_of_range_is_data_error(toy):
    x, y, clf = toy
    bad = y.copy()
    bad[0] = 99
    with pytest.raises(DataError):
        train_classifier(clf, x, bad, OptimizerConfig(epochs=1, seed=0))


def test_optimizer_config_validation():
    with pytest.raises(ParameterError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ParameterError):
        OptimizerConfig(batch_size=0)
    with pytest.raises(ParameterError):
        OptimizerConfig(kind="lbfgs")


def test_defence_loss_spec_validation():
    with pytest.raises(ParameterError):
        DefenceLossSpec(kind="huber")
    with pytest.raises(ParameterError):
        DefenceLossSpec(kind="kl_temperature", temperature=0.0)
    with pytest.raises(ParameterError):
        DefenceLossSpec(kind="kl_hidden", hidden_weight=-1.0, probe=ProbeConfig(0, 4))


# ---------------------------------------------------------------------------
# defence training


def _trained_toy_classifier(seed=1, n=50):
    rng = np.random.default_rng(seed)
    x, y = separable_data(rng, n=n, dim=6, classes=3)
    clf = build_model(mlp_classifier_spec(dim=6, hidden=10, classes=3), seed + 1)
    train_classifier(clf, x, y, OptimizerConfig(learning_rate=5e-3, batch_size=16, epochs=40, seed=seed + 2))
    clf.store.freeze_all()
    return x, y, clf


def test_defence_training_requires_frozen_classifier():
    rng = np.random.default_rng(0)
    x, _ = separable_data(rng, n=20, dim=6, classes=3)
    clf = build_model(mlp_classifier_spec(dim=6), 0)
    ae = build_model(mlp_ae_spec(dim=6), 1)
    with pytest.raises(ContractError):
        train_defence(ae, clf, x, DefenceLossSpec(kind="kl"), OptimizerConfig(epochs=1, seed=0))


def test_one_epoch_reduces_mean_loss():
    x, _, clf = _trained_toy_classifier()
    ae = build_model(mlp_ae_spec(dim=6, hidden=8), 9)
    cfg = OptimizerConfig(learning_rate=3e-3, batch_size=10, epochs=2, seed=4)
    report, _ = train_defence(ae, clf, x, DefenceLossSpec(kind="kl"), cfg)
    assert len(report.epoch_losses) == 2
    assert report.epoch_losses[1] < report.epoch_losses[0]  # the second epoch runs on what the first one learned


def test_classifier_bytes_identical_after_defence_training():
    x, _, clf = _trained_toy_classifier()
    before = clf.store.byte_digest()
    ae = build_model(mlp_ae_spec(dim=6), 3)
    train_defence(ae, clf, x, DefenceLossSpec(kind="kl"), OptimizerConfig(learning_rate=3e-3, epochs=3, batch_size=16, seed=5))
    assert clf.store.byte_digest() == before


def test_mse_defence_learns_identity_on_1d_data():
    x, _, clf = _trained_toy_classifier(n=80)
    spec = ModelSpec("lin_ae", (6,), (Dense(6),))
    # seed chosen so no output column starts below the [0,1] clamp for every
    # instance; such columns would receive zero gradient forever
    ae = build_model(spec, 10)
    report, _ = train_defence(
        ae, clf, x, DefenceLossSpec(kind="mse"),
        OptimizerConfig(learning_rate=0.005, batch_size=16, epochs=200, seed=6),
    )
    assert report.final_loss < 1e-3


def test_loss_nonincreasing_across_kinds_in_most_seeded_runs():
    x, _, clf = _trained_toy_classifier(n=40)
    kinds = [
        DefenceLossSpec(kind="kl"),
        DefenceLossSpec(kind="mse"),
        DefenceLossSpec(kind="kl_temperature", temperature=0.5),
        DefenceLossSpec(kind="kl_hidden", hidden_weight=1.0, probe=ProbeConfig(source_layer=1, dim=4)),
    ]
    for spec in kinds:
        ok = 0
        for seed in range(20):
            ae = build_model(mlp_ae_spec(dim=6, hidden=8), 100 + seed)
            report, _ = train_defence(
                ae, clf, x, spec, OptimizerConfig(learning_rate=1e-3, batch_size=20, epochs=3, seed=seed)
            )
            losses = report.epoch_losses
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                ok += 1
        assert ok >= 18, f"{spec.kind}: only {ok}/20 runs non-increasing"


def test_defence_training_ignores_labels_entirely():
    # unsupervised contract: the API takes no labels, so permuting them
    # cannot change anything; training twice from the same state is identical
    x, _, clf = _trained_toy_classifier()
    ae1 = build_model(mlp_ae_spec(dim=6), 21)
    ae2 = build_model(mlp_ae_spec(dim=6), 21)
    cfg = OptimizerConfig(learning_rate=2e-3, batch_size=8, epochs=2, seed=9)
    train_defence(ae1, clf, x, DefenceLossSpec(kind="kl"), cfg)
    train_defence(ae2, clf, x, DefenceLossSpec(kind="kl"), cfg)
    assert ae1.store.byte_digest() == ae2.store.byte_digest()


def test_hidden_loss_trains_probe_and_autoencoder():
    x, _, clf = _trained_toy_classifier()
    ae = build_model(mlp_ae_spec(dim=6), 33)
    spec = DefenceLossSpec(kind="kl_hidden", hidden_weight=0.5, probe=ProbeConfig(source_layer=1, dim=4))
    before = ae.store.byte_digest()
    report, probe = train_defence(ae, clf, x, spec, OptimizerConfig(learning_rate=3e-3, batch_size=16, epochs=2, seed=10))
    assert ae.store.byte_digest() != before
    assert probe is not None and probe.dim == 4
    assert all(np.isfinite(l) for l in report.epoch_losses)


@pytest.mark.parametrize(
    "spec, once, per_epoch",
    [
        (DefenceLossSpec(kind="kl"), 1, 1),
        (DefenceLossSpec(kind="kl_temperature", temperature=0.5), 1, 1),
        (DefenceLossSpec(kind="kl_hidden", probe=ProbeConfig(source_layer=1, dim=4)), 0, 2),
        (DefenceLossSpec(kind="mse"), 0, 0),
    ],
)
def test_defence_training_forwards_the_classifier_once_per_use(monkeypatch, spec, once, per_epoch):
    """kl targets come from one pass over the dataset; each epoch forwards the
    reconstructions, and kl_hidden also the originals, through the classifier."""
    x, _, clf = _trained_toy_classifier()
    rows = []
    forward_t = Model.forward_t

    def counting(model, t, *args, **kwargs):
        if model is clf:
            rows.append(t.shape[0])
        return forward_t(model, t, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_t", counting)
    epochs = 3
    train_defence(build_model(mlp_ae_spec(dim=6), 4), clf, x, spec, OptimizerConfig(batch_size=8, epochs=epochs, seed=0))
    assert sum(rows) == (once + per_epoch * epochs) * x.shape[0]


def test_checkpoint_emission_during_defence_training(tmp_path):
    x, _, clf = _trained_toy_classifier()
    ae = build_model(mlp_ae_spec(dim=6), 3)
    train_defence(
        ae, clf, x, DefenceLossSpec(kind="kl"),
        OptimizerConfig(learning_rate=1e-3, batch_size=16, epochs=6, seed=2),
        checkpoint_every=2, checkpoint_dir=tmp_path, checkpoint_prefix="ae_kl",
    )
    names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert names == ["ae_kl_epoch_002.ckpt", "ae_kl_epoch_004.ckpt", "ae_kl_epoch_006.ckpt"]


# ---------------------------------------------------------------------------
# temperature scaling


def test_temperature_identity_at_one():
    p = np.array([0.3, 0.5, 0.2])
    assert np.allclose(temperature_scale(p, 1.0), p, atol=1e-12)


def test_temperature_symmetric_fixed_point():
    p = np.array([0.5, 0.5])
    for t in (0.1, 0.7, 2.0, 9.0):
        assert np.allclose(temperature_scale(p, t), p, atol=1e-12)


def test_temperature_hand_case():
    out = temperature_scale(np.array([0.8, 0.2]), 0.5)
    expected = np.array([0.64, 0.04]) / 0.68
    assert np.allclose(out, expected, atol=1e-12)
    assert out[0] == pytest.approx(0.9411764705882353, abs=1e-12)


def test_temperature_rejects_nonpositive():
    with pytest.raises(ParameterError):
        temperature_scale(np.array([0.5, 0.5]), 0.0)
    with pytest.raises(ParameterError):
        temperature_scale(np.array([0.5, 0.5]), -1.0)


@given(st.integers(0, 10_000), st.floats(0.01, 50.0))
@settings(max_examples=100, deadline=None)
def test_temperature_preserves_argmax_and_concentrates(seed, t):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    p = rng.random(k) + 1e-6
    p /= p.sum()
    scaled = temperature_scale(p, t)
    assert abs(scaled.sum() - 1.0) <= 1e-12
    assert scaled.argmax() == p.argmax()
    if not np.allclose(p, p.max()):
        sharp = temperature_scale(p, 0.01)
        assert sharp.max() >= temperature_scale(p, 1.0).max() - 1e-12


# ---------------------------------------------------------------------------
# optimizers


def test_adam_matches_reference_step():
    p_data = np.array([1.0, -2.0])
    g = np.array([0.5, 0.1])
    from pmdef.autodiff import Tensor

    p = Tensor(p_data.copy(), requires_grad=True)
    p.grad = g
    opt = Adam([p], lr=0.1)
    opt.step()
    m = 0.1 * g
    v = 0.001 * g * g
    expected = p_data - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-12)


def _adam_reference(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step as out-of-place expressions."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return p, m, v


def test_optimizers_update_in_place_with_the_bits_of_the_out_of_place_expressions():
    from pmdef.autodiff import Tensor

    rng = np.random.default_rng(3)
    shapes = [(4, 3), (3,), (2, 3, 3, 1)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    state = [[np.zeros(s), np.zeros(s)] for s in shapes]
    lr = 0.05
    opt = Adam(params, lr)
    states = [*opt.m, *opt.v]
    for t in range(1, 6):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-4, 3) for s in shapes]
        grads[1] = None  # a parameter without a gradient keeps its value and state
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        opt.step()
        for i, g in enumerate(grads):
            if g is None:
                continue
            assert np.array_equal(params[i].grad, g)  # the gradient comes back unchanged
            ref[i], state[i][0], state[i][1] = _adam_reference(ref[i], *state[i], g, t, lr)
        for p, r in zip(params, ref):
            assert np.array_equal(p.data, r)
        assert all(a is b for a, b in zip([*opt.m, *opt.v], states))  # updated in place
        assert not any(a is p.grad for a in states for p in params)
    assert all(np.array_equal(a, b) for a, b in zip(opt.m + opt.v, [s[0] for s in state] + [s[1] for s in state]))


def test_train_report_jsonl_round_trip(tmp_path, toy):
    x, y, clf = toy
    report = train_classifier(clf, x, y, OptimizerConfig(learning_rate=1e-3, epochs=2, seed=0))
    path = tmp_path / "report.jsonl"
    report.to_jsonl(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["epoch"] == 1 and "mean_loss" in lines[0]
    assert lines[-1]["summary"] and lines[-1]["final_loss"] == report.final_loss


def test_train_report_jsonl_times_every_epoch(tmp_path, toy):
    x, y, clf = toy
    report = train_classifier(clf, x, y, OptimizerConfig(learning_rate=1e-3, epochs=3, seed=0))
    path = tmp_path / "report.jsonl"
    report.to_jsonl(path)
    *epochs, summary = [json.loads(l) for l in path.read_text().splitlines()]
    assert [row["epoch"] for row in epochs] == [1, 2, 3]
    assert all(row["wall_time_s"] >= 0 for row in epochs)
    assert sum(row["wall_time_s"] for row in epochs) <= summary["wall_time_s"]
