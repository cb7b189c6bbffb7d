import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdef import defence
from pmdef.autodiff import kl_rows
from pmdef.defence import (
    Defence,
    DefenceOutputs,
    adversarial_score,
    calibrate_threshold,
    defence_outputs,
    detect_and_correct,
    verdicts_to_csv,
)
from pmdef.errors import DataError, ParameterError
from pmdef.models import Dense, Flatten, ModelSpec, Relu, Reshape, Softmax, build_model
from pmdef.training import OptimizerConfig, train_classifier
from toys import cnn_classifier_spec, identity_ae, image_ae_spec, separable_data


class StubClassifier:
    """Fixed-output classifier keyed on the first feature value."""

    def __init__(self, table):
        self.table = {round(k, 6): np.asarray(v) for k, v in table.items()}

    def predict_proba(self, x):
        return np.stack([self.table[round(float(r.ravel()[0]), 6)] for r in x])


class StubAE:
    def __init__(self, mapping):
        self.mapping = mapping

    def reconstruct(self, x):
        out = x.copy()
        flat = out.reshape(out.shape[0], -1)
        for i in range(flat.shape[0]):
            key = round(float(flat[i, 0]), 6)
            flat[i, 0] = self.mapping.get(key, flat[i, 0])
        return out


@pytest.fixture(scope="module")
def toy_defence():
    rng = np.random.default_rng(0)
    x, y = separable_data(rng, n=90, dim=6, classes=3)
    clf = build_model(ModelSpec("clf", (6,), (Dense(12), Relu(), Dense(3), Softmax())), 1)
    train_classifier(clf, x, y, OptimizerConfig(learning_rate=5e-3, batch_size=16, epochs=60, seed=2))
    clf.store.freeze_all()
    return clf, x, y


# ---------------------------------------------------------------------------
# adversarial_score


def test_score_zero_for_identity_ae():
    clf = build_model(ModelSpec("clf", (2, 2, 1), (Flatten(), Dense(3), Softmax())), 4)
    ae = identity_ae(2)
    x = np.random.default_rng(0).random((8, 2, 2, 1))
    scores = adversarial_score(clf, Defence(ae), x)
    assert np.array_equal(scores, np.zeros(8))


def test_score_hand_value_for_stub_models():
    clf = StubClassifier({0.1: [0.9, 0.1], 0.2: [0.1, 0.9]})
    ae = StubAE({0.1: 0.2})
    x = np.full((1, 4), 0.1)
    score = adversarial_score(clf, Defence(ae), x)[0]
    assert score == pytest.approx(0.8 * math.log(9.0), abs=1e-12)
    assert score == pytest.approx(1.757780, abs=1e-6)


def test_score_equals_kl_of_predictions_exactly(toy_defence):
    clf, x, _ = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(5), Relu(), Dense(6))), 3)
    scores = adversarial_score(clf, Defence(ae), x)
    expected = kl_rows(clf.predict_proba(x), clf.predict_proba(ae.reconstruct(x)))
    assert np.array_equal(scores, expected)


@pytest.mark.parametrize("n", [0, 1, 7, 20])
def test_outputs_reconstruct_in_row_blocks_with_the_bits_of_one_pass(monkeypatch, n):
    clf = build_model(cnn_classifier_spec(size=6), 1)
    ae = build_model(image_ae_spec(size=6), 2)
    x = np.random.default_rng(n).random((n, 6, 6, 1))
    monkeypatch.setattr(defence, "_AE_ROWS", 7)  # 20 rows: AE passes over 7, 7 and 6
    out = defence_outputs(clf, Defence(ae), x)
    assert out.p.shape == out.q.shape == (n, 3)
    assert np.array_equal(out.p, clf.predict_proba(x))
    assert np.array_equal(out.q, clf.predict_proba(ae.reconstruct(x)))


def test_a_single_ae_block_reaches_the_classifier_uncopied(toy_defence):
    clf, x, _ = toy_defence
    recon, seen = np.zeros_like(x), []

    class FixedAE:
        def reconstruct(self, xb):
            return recon

    class RecordingClassifier:
        def predict_proba(self, xb):
            seen.append(xb)
            return clf.predict_proba(xb)

    defence.reconstructed_proba(RecordingClassifier(), FixedAE(), x)
    assert len(seen) == 1 and seen[0] is recon


def test_score_nonnegative(toy_defence):
    clf, x, _ = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(6),)), 5)
    assert (adversarial_score(clf, Defence(ae), x) >= 0).all()


# ---------------------------------------------------------------------------
# calibrate_threshold


def test_calibrate_1_to_100():
    assert calibrate_threshold(np.arange(1.0, 101.0), 0.05) == 95.0


def test_calibrate_zero_budget_is_max():
    scores = np.array([3.0, 1.0, 7.0, 2.0])
    assert calibrate_threshold(scores, 0.0) == 7.0


def test_calibrate_full_budget_is_neg_inf():
    assert calibrate_threshold(np.array([1.0, 2.0]), 1.0) == -math.inf


def test_calibrate_empty_scores():
    with pytest.raises(DataError):
        calibrate_threshold([], 0.05)


def test_calibrate_budget_range():
    with pytest.raises(ParameterError):
        calibrate_threshold([1.0], -0.1)
    with pytest.raises(ParameterError):
        calibrate_threshold([1.0], 1.5)


@given(st.integers(0, 100_000), st.floats(0.0, 0.9))
@settings(max_examples=120, deadline=None)
def test_calibrate_fpr_tight_on_distinct_scores(seed, eps):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    scores = rng.random(n)
    if len(np.unique(scores)) != n:  # ties essentially impossible; guard anyway
        return
    t = calibrate_threshold(scores, eps)
    fpr = (scores > t).mean()
    assert fpr <= eps
    # in exact arithmetic: eps - 1/n in floats can round up onto the fpr itself (n=110, eps=0.9-ulp)
    assert Fraction(int((scores > t).sum()), n) > Fraction(eps) - Fraction(1, n)


# ---------------------------------------------------------------------------
# detect_and_correct


def test_detect_pass_through_below_threshold(toy_defence):
    clf, x, _ = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(6),)), 7)
    _, (_, flagged, labels) = detect_and_correct(clf, Defence(ae), x, math.inf)
    assert not flagged.any()
    assert labels.tolist() == clf.predict_class(x).tolist()


def test_detect_correct_above_threshold(toy_defence):
    clf, x, _ = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(6),)), 7)
    _, (_, flagged, labels) = detect_and_correct(clf, Defence(ae), x, -math.inf)
    assert flagged.all()
    assert labels.tolist() == clf.predict_class(ae.reconstruct(x)).tolist()


def test_detect_flag_iff_score_above_threshold(toy_defence):
    clf, x, _ = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(6),)), 7)
    scores = adversarial_score(clf, Defence(ae), x)
    t = float(np.median(scores))
    _, (decided, flagged, labels) = detect_and_correct(clf, Defence(ae), x, t)
    assert np.array_equal(decided, scores)
    assert np.array_equal(flagged, scores > t) and 0 < flagged.sum() < len(x)
    expected = np.where(flagged, clf.predict_class(ae.reconstruct(x)), clf.predict_class(x))
    assert np.array_equal(labels, expected)


@pytest.mark.parametrize("temperature", [None, 0.5])
def test_outputs_decide_as_detect_and_correct_does(toy_defence, temperature):
    clf, x, _ = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(6),)), 7)
    out = defence_outputs(clf, Defence(ae, temperature), x)
    assert isinstance(out, DefenceOutputs)
    scores = out.scores()
    assert np.array_equal(scores, adversarial_score(clf, Defence(ae, temperature), x))
    t = float(np.median(scores))
    decision = out.decide(t)
    assert np.array_equal(decision[0], scores)
    outputs, theirs = detect_and_correct(clf, Defence(ae, temperature), x, t)
    assert np.array_equal(outputs.p, out.p) and np.array_equal(outputs.q, out.q)
    for mine, their in zip(decision, theirs, strict=True):
        assert np.array_equal(mine, their)


def test_verdict_csv_format(tmp_path, toy_defence):
    clf, x, _ = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(6),)), 7)
    path = tmp_path / "verdicts.csv"
    verdicts_to_csv(detect_and_correct(clf, Defence(ae), x[:5], 0.01)[1], 0.01, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,score,threshold,flagged,label,source"
    assert len(lines) == 6


def test_verdict_csv_rows_print_the_decision_as_python_scalars_would(tmp_path):
    scores, flagged, labels = np.array([0.1, 2 / 3, -0.0]), np.array([False, True, False]), np.array([2, 0, 1])
    verdicts_to_csv((scores, flagged, labels), -math.inf, tmp_path / "v.csv")
    expected = [f"{i},{float(s):.17g},-inf,{int(f)},{int(lab)},{'reconstructed' if f else 'original'}"
                for i, (s, f, lab) in enumerate(zip(scores, flagged, labels))]
    assert expected[1] == "1,0.66666666666666663,-inf,1,0,reconstructed" and expected[2].startswith("2,-0,")
    assert (tmp_path / "v.csv").read_bytes() == "\r\n".join(["id,score,threshold,flagged,label,source", *expected, ""]).encode()


def test_separation_on_trained_toy_defence(toy_defence):
    # mean score over successful adversarials exceeds mean over clean inputs
    from pmdef.attacks import AttackConfig, fgsm
    from pmdef.training import DefenceLossSpec, train_defence

    clf, x, y = toy_defence
    ae = build_model(ModelSpec("ae", (6,), (Dense(8), Relu(), Dense(6))), 11)
    train_defence(ae, clf, x, DefenceLossSpec(kind="kl"), OptimizerConfig(learning_rate=3e-3, batch_size=16, epochs=25, seed=12))
    batch = fgsm(clf, x, y, config=AttackConfig(kind="fgsm", epsilon=0.25))
    if batch.success.any():
        s_clean = adversarial_score(clf, Defence(ae), x).mean()
        s_adv = adversarial_score(clf, Defence(ae), batch.adversarials[batch.success]).mean()
        assert s_adv > s_clean
