import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdef import attacks
from pmdef import autodiff as ad
from pmdef import cli
from pmdef.attacks import (
    AttackConfig,
    cw_l2,
    fgsm,
    load_batch,
    project_l1_ball,
    run_attack,
    save_batch,
    slide,
    slide_direction,
)
from pmdef.autodiff import Tape, Tensor, backward, grad_check
from pmdef.errors import ParameterError
from pmdef.models import Dense, Flatten, ModelSpec, Relu, Reshape, Softmax, build_model, compose_defended, save_checkpoint
from pmdef.training import OptimizerConfig, train_classifier
from toys import separable_data


def linear_2d_model(seed=0):
    spec = ModelSpec("lin", (2,), (Dense(2), Softmax()))
    model = build_model(spec, seed)
    model.store.get(0)["w"].data[:] = np.array([[3.0, -1.0], [1.0, 2.0]])
    model.store.get(0)["b"].data[:] = np.array([0.2, -0.4])
    model.store.freeze_all()
    return model


@pytest.fixture(scope="module")
def trained_toy():
    rng = np.random.default_rng(0)
    x, y = separable_data(rng, n=90, dim=6, classes=3)
    model = build_model(ModelSpec("clf", (6,), (Dense(16), Relu(), Dense(3), Softmax())), 1)
    train_classifier(model, x, y, OptimizerConfig(learning_rate=5e-3, batch_size=16, epochs=60, seed=2))
    model.store.freeze_all()
    return model, x, y


# ---------------------------------------------------------------------------
# config validation


def test_attack_config_validation():
    with pytest.raises(ParameterError):
        AttackConfig(kind="fgsm", epsilon=0.0)
    with pytest.raises(ParameterError):
        AttackConfig(kind="slide", q=100.0)
    with pytest.raises(ParameterError):
        AttackConfig(kind="slide", gamma=-0.1)
    with pytest.raises(ParameterError):
        AttackConfig(kind="cw_l2", binary_steps=0)
    with pytest.raises(ParameterError):
        AttackConfig(kind="deepfool")


# ---------------------------------------------------------------------------
# FGSM


def test_fgsm_1d_logistic_hand_gradient():
    # two-class softmax with logits (0, 2x) is the logistic model p(1) = sigma(2x);
    # at x=0.5 with label 0 the loss gradient is positive, so x moves up by eps
    spec = ModelSpec("logit", (1,), (Dense(2), Softmax()))
    model = build_model(spec, 0)
    model.store.get(0)["w"].data[:] = np.array([[0.0, 2.0]])
    model.store.get(0)["b"].data[:] = 0.0
    model.store.freeze_all()
    cfg = AttackConfig(kind="fgsm", epsilon=0.1, label_source="true")
    batch = fgsm(model, np.array([[0.5]]), labels=[0], config=cfg)
    assert batch.adversarials[0, 0] == pytest.approx(0.6, abs=1e-12)


def test_fgsm_tiny_epsilon_keeps_argmax(trained_toy):
    model, x, y = trained_toy
    cfg = AttackConfig(kind="fgsm", epsilon=1e-7)
    batch = fgsm(model, x, y, config=cfg)
    assert batch.success.mean() == 0.0


def test_fgsm_preclip_components_in_sign_set(trained_toy):
    model, x, y = trained_toy
    eps = 0.2
    batch = fgsm(model, x, y, config=AttackConfig(kind="fgsm", epsilon=eps))
    pre = batch.diagnostics["preclip_delta"]
    assert set(np.round(np.unique(np.abs(pre)), 12)).issubset({0.0, eps})


def test_fgsm_linf_equals_eps_for_interior_points():
    model = linear_2d_model()
    x = np.array([[0.5, 0.5], [0.4, 0.6]])
    batch = fgsm(model, x, config=AttackConfig(kind="fgsm", epsilon=0.2))
    delta = batch.adversarials - batch.originals
    assert np.allclose(np.abs(delta).max(axis=1), 0.2, atol=1e-12)


def test_fgsm_domain_clipping(trained_toy):
    model, x, y = trained_toy
    batch = fgsm(model, x, y, config=AttackConfig(kind="fgsm", epsilon=0.3))
    assert batch.adversarials.min() >= 0.0 and batch.adversarials.max() <= 1.0


# ---------------------------------------------------------------------------
# SLIDE


def test_slide_direction_percentile_top2():
    g = np.array([[9.0, 8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
    e = slide_direction(g, 80)
    assert np.array_equal(e, np.array([[1.0, 1.0, 0, 0, 0, 0, 0, 0, 0, 0]]))


def test_slide_direction_respects_signs():
    g = np.array([[-9.0, 8.0, 1.0, -1.0, 0.5, 0.1, 0.2, 0.3, 0.4, 0.6]])
    e = slide_direction(g, 80)
    assert e[0, 0] == -1.0 and e[0, 1] == 1.0
    assert np.count_nonzero(e) == 2


def test_slide_zero_steps_returns_originals(trained_toy):
    model, x, y = trained_toy
    batch = slide(model, x, y, config=AttackConfig(kind="slide", k=0))
    assert np.array_equal(batch.adversarials, batch.originals)
    assert batch.success.sum() == 0


def test_slide_single_component_step_magnitude():
    # e has one nonzero entry, so e/||e|| is a unit vector and the step moves
    # delta by exactly gamma in that coordinate
    e = slide_direction(np.array([[5.0, 0.1, 0.1, 0.1, 0.1]]), 80)
    assert np.count_nonzero(e) == 1
    step = 0.07 * e / np.linalg.norm(e)
    assert np.abs(step).max() == pytest.approx(0.07, abs=1e-15)


def test_slide_sparsity_and_l1_budget(trained_toy):
    model, x, y = trained_toy
    q, eps_l1 = 80.0, 0.5
    cfg = AttackConfig(kind="slide", q=q, gamma=0.2, k=8, eps_l1=eps_l1)
    batch = slide(model, x, y, config=cfg)
    n = x[0].size
    bound = math.ceil((1 - q / 100.0) * n)
    assert max(batch.diagnostics["per_iter_max_active"]) <= bound
    assert max(batch.diagnostics["per_iter_max_l1"]) <= eps_l1 + 1e-9
    assert np.abs(batch.adversarials - batch.originals).sum(axis=1).max() <= eps_l1 + 1e-9
    assert batch.adversarials.min() >= 0.0 and batch.adversarials.max() <= 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_l1_projection_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    radius = float(rng.random() * 2 + 0.05)
    v = rng.normal(size=(3, n)) * 2
    w = project_l1_ball(v, radius)
    norms = np.abs(w).sum(axis=1)
    assert (norms <= radius + 1e-9).all()
    inside = np.abs(v).sum(axis=1) <= radius
    assert np.allclose(w[inside], v[inside])
    # projection never flips signs
    assert ((np.sign(w) == np.sign(v)) | (w == 0)).all()


def test_l1_projection_against_brute_force():
    # compare against a fine simplex search in 2-d
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(size=2) * 1.5
        radius = 0.8
        w = project_l1_ball(v[None, :], radius)[0]
        grid = np.linspace(-radius, radius, 801)
        best, best_d = None, np.inf
        for a in grid:
            rem = radius - abs(a)
            for b in (-rem, rem):
                cand = np.array([a, b])
                d = ((cand - v) ** 2).sum()
                if d < best_d:
                    best, best_d = cand, d
        if np.abs(v).sum() > radius:
            assert ((w - v) ** 2).sum() <= best_d + 1e-6


# ---------------------------------------------------------------------------
# Carlini-Wagner


def test_cw_matches_grid_oracle_within_5_percent():
    model = linear_2d_model()
    x = np.array([[0.62, 0.35]])
    cfg = AttackConfig(kind="cw_l2", c_init=100.0, binary_steps=7, max_iter=200, lr=0.1)
    batch = cw_l2(model, x, config=cfg)
    assert batch.success[0]
    gx, gy = np.meshgrid(np.linspace(-1, 1, 2001), np.linspace(-1, 1, 2001))
    deltas = np.stack([gx.ravel(), gy.ravel()], axis=1)
    cand = x + deltas
    feasible = ((cand >= 0) & (cand <= 1)).all(axis=1)
    changed = (model.predict_class(np.clip(cand, 0, 1)) != model.predict_class(x)[0]) & feasible
    oracle = np.sqrt((deltas[changed] ** 2).sum(axis=1)).min()
    assert abs(batch.norms["l2"][0] - oracle) / oracle < 0.05


def test_cw_already_misclassified_returns_near_zero_delta():
    model = linear_2d_model()
    x = np.array([[0.05, 0.9]])  # predicted class 1
    assert model.predict_class(x)[0] == 1
    cfg = AttackConfig(kind="cw_l2", c_init=100.0, binary_steps=3, max_iter=50, lr=0.1, label_source="true")
    batch = cw_l2(model, x, labels=[0], config=cfg)  # margin already negative for class 0
    assert batch.norms["l2"][0] <= 1e-3


def test_cw_constant_model_never_succeeds():
    spec = ModelSpec("const", (2,), (Dense(2), Softmax()))
    model = build_model(spec, 0)
    model.store.get(0)["w"].data[:] = 0.0
    model.store.freeze_all()
    batch = cw_l2(model, np.array([[0.3, 0.4], [0.6, 0.1]]), config=AttackConfig(kind="cw_l2", binary_steps=2, max_iter=30, lr=0.1, c_init=1.0))
    assert not batch.success.any()
    assert np.array_equal(batch.adversarials, batch.originals)


def test_cw_smallest_l2_kept_across_rounds(trained_toy):
    model, x, y = trained_toy
    subset = x[:12]
    cfg = AttackConfig(kind="cw_l2", c_init=100.0, binary_steps=5, max_iter=80, lr=0.05)
    batch = cw_l2(model, subset, config=cfg)
    # a single, lighter binary search cannot beat the multi-round bookkeeping
    light = cw_l2(model, subset, config=AttackConfig(kind="cw_l2", c_init=100.0, binary_steps=1, max_iter=80, lr=0.05))
    both = batch.success & light.success
    assert (batch.norms["l2"][both] <= light.norms["l2"][both] + 1e-9).all()


def test_cw_results_do_not_depend_on_the_unit_size_or_the_worker_count(trained_toy, monkeypatch):
    model, x, y = trained_toy
    cfg = AttackConfig(kind="cw_l2", c_init=10.0, binary_steps=2, max_iter=20, lr=0.1)
    whole = cw_l2(model, x[:8], config=cfg)  # one unit
    monkeypatch.setattr(attacks, "_CHUNK", 3)  # units of 3, 3 and 2 instances
    for workers in (1, 2):
        split = cw_l2(model, x[:8], config=cfg, workers=workers)
        assert split.adversarials.tobytes() == whole.adversarials.tobytes()
        assert np.array_equal(split.success, whole.success)
        assert split.diagnostics.keys() == whole.diagnostics.keys()
        for key, flags in whole.diagnostics.items():
            assert split.diagnostics[key].dtype == flags.dtype and np.array_equal(split.diagnostics[key], flags)
    assert whole.success.any()


def test_cw_adversarials_stay_in_domain(trained_toy):
    model, x, y = trained_toy
    cfg = AttackConfig(kind="cw_l2", c_init=10.0, binary_steps=3, max_iter=60, lr=0.1)
    batch = cw_l2(model, x[:16], config=cfg)
    assert batch.adversarials.min() >= 0.0 and batch.adversarials.max() <= 1.0


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_success_mask_recomputed_from_predictions(trained_toy):
    model, x, y = trained_toy
    batch = fgsm(model, x, y, config=AttackConfig(kind="fgsm", epsilon=0.25))
    expected = model.predict_class(batch.adversarials) != model.predict_class(batch.originals)
    assert np.array_equal(batch.success, expected)


def test_attack_determinism(trained_toy):
    model, x, y = trained_toy
    for cfg in (
        AttackConfig(kind="fgsm", epsilon=0.2),
        AttackConfig(kind="slide", q=80, gamma=0.1, k=5, eps_l1=0.6),
        AttackConfig(kind="cw_l2", c_init=10.0, binary_steps=2, max_iter=40, lr=0.1),
    ):
        a = run_attack(model, x[:8], y[:8], config=cfg)
        b = run_attack(model, x[:8], y[:8], config=cfg)
        assert np.array_equal(a.adversarials, b.adversarials)
        assert np.array_equal(a.success, b.success)


def test_whitebox_gradients_flow_through_autoencoder():
    clf = build_model(ModelSpec("clf", (4,), (Dense(6), Relu(), Dense(3), Softmax())), 5)
    ae = build_model(ModelSpec("ae", (4,), (Dense(5), Relu(), Dense(4))), 6)
    clf.store.freeze_all()
    ae.store.freeze_all()
    composed = compose_defended(clf, ae)
    y = np.array([2])

    def f(x):
        logits = composed.logits_t(x)
        return ad.mean_all(ad.sub(ad.logsumexp(logits), ad.take_per_row(logits, y)))

    err = grad_check(f, Tensor(np.random.default_rng(8).random((1, 4)) * 0.5 + 0.25), 1e-5)
    assert err < 1e-4


def test_backward_through_a_frozen_classifier_computes_no_parameter_cotangent(trained_toy):
    _, x, y = trained_toy
    model = build_model(ModelSpec("clf", (6,), (Dense(16), Relu(), Dense(3), Softmax())), 4)
    model.store.freeze_all()
    frozen = {id(t) for _, _, t in model.store.named_tensors()}
    xt = Tensor(x[:8], requires_grad=True)
    with Tape() as tape:
        logits = model.logits_t(xt)
        loss = ad.sum_all(ad.sub(ad.logsumexp(logits), ad.take_per_row(logits, y[:8])))
    for rec in tape.records:
        g = np.ones(rec.output.shape)
        for t, gi in zip(rec.inputs, rec.vjp(g)):
            if id(t) in frozen:
                assert gi is None, rec.op
    backward(tape, loss)
    fgsm(model, x[:8], y[:8], config=AttackConfig(kind="fgsm", epsilon=0.2))
    cw_l2(model, x[:4], config=AttackConfig(kind="cw_l2", c_init=10.0, binary_steps=1, max_iter=3, lr=0.1))
    assert all(t.grad is None for _, _, t in model.store.named_tensors())


def test_whitebox_fgsm_leaves_the_loaded_defence_frozen(tmp_path, trained_toy):
    model, x, y = trained_toy
    save_checkpoint(build_model(ModelSpec("ae", (6,), (Dense(4), Relu(), Dense(6))), 3), tmp_path / "ae_kl.ckpt")
    ae = cli._load_defence(tmp_path, "kl")
    fgsm(compose_defended(model, ae), x[:8], y[:8], config=AttackConfig(kind="fgsm", epsilon=0.2))
    assert ae.store.is_fully_frozen()
    assert all(t.grad is None for _, _, t in ae.store.named_tensors())


def test_batch_round_trip_persistence(tmp_path, trained_toy):
    model, x, y = trained_toy
    batch = fgsm(model, x[:10], y[:10], config=AttackConfig(kind="fgsm", epsilon=0.2))
    path = tmp_path / "fgsm.json"
    save_batch(batch, path)
    loaded = load_batch(path)
    assert np.array_equal(loaded.originals, batch.originals)
    assert np.array_equal(loaded.adversarials, batch.adversarials)
    assert np.array_equal(loaded.success, batch.success)
    assert loaded.config.to_dict() == batch.config.to_dict()
    assert np.allclose(loaded.norms["l2"], batch.norms["l2"])


def test_batch_round_trip_keeps_the_cw_diagnostics(tmp_path, trained_toy):
    model, x, _ = trained_toy
    cfg = AttackConfig(kind="cw_l2", c_init=1.0, binary_steps=1, max_iter=10, lr=0.1)
    batch = cw_l2(model, x[:6], config=cfg)
    batch.diagnostics["failed"][1] = True  # a numeric failure, so both flag values round-trip
    save_batch(batch, tmp_path / "cw.json")
    loaded = load_batch(tmp_path / "cw.json")
    assert loaded.diagnostics.keys() == {"unsuccessful", "failed"}
    for key, flags in batch.diagnostics.items():
        assert loaded.diagnostics[key].dtype == bool
        assert np.array_equal(loaded.diagnostics[key], flags)
    assert int(loaded.diagnostics["failed"].sum()) == 1


def test_batch_round_trip_keeps_the_slide_diagnostics(tmp_path, trained_toy):
    model, x, y = trained_toy
    batch = slide(model, x[:6], y[:6], config=AttackConfig(kind="slide", q=80, gamma=0.1, k=3, eps_l1=0.6))
    save_batch(batch, tmp_path / "slide.json")
    loaded = load_batch(tmp_path / "slide.json")
    assert loaded.diagnostics == batch.diagnostics
    assert set(batch.diagnostics) == {"skipped_iterations", "per_iter_max_l1", "per_iter_max_active"}


def test_fgsm_batch_files_leave_the_preclip_delta_out(tmp_path, trained_toy):
    model, x, y = trained_toy
    batch = fgsm(model, x[:4], y[:4], config=AttackConfig(kind="fgsm", epsilon=0.2))
    save_batch(batch, tmp_path / "fgsm.json")
    assert load_batch(tmp_path / "fgsm.json").diagnostics == {}
