import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdef import blas, defence
from pmdef.artifacts import csv_text
from pmdef.defence import Defence, adversarial_score, defence_outputs, detect_and_correct
from pmdef.errors import DataError, ParameterError
from pmdef.evaluation import (
    CORRUPTION_PARAMS,
    _drift_row,
    RocCurve,
    accuracy_report,
    corrupt_dataset,
    drift_report,
    ks_two_sample,
    roc_auc,
)
from pmdef.models import Dense, Flatten, Model, ModelSpec, Relu, Softmax, build_model
from pmdef.training import OptimizerConfig, train_classifier
from toys import identity_ae, recording_pool


# ---------------------------------------------------------------------------
# roc_auc


def test_auc_perfect_separation():
    assert roc_auc([1.0, 2.0], [3.0, 4.0]).auc == 1.0


def test_auc_identical_lists():
    assert roc_auc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).auc == 0.5


def test_auc_hand_pair_counting():
    # normal [1,2,3], adv [2,3,4]: 7 wins + 2*(0.5 tie) over 9 pairs = 7/9... by
    # explicit enumeration: (2>1)+(2==2)/2+(3>1)+(3>2)+(3==3)/2+(4>..)*3 = 7
    curve = roc_auc([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert curve.auc == 7.0 / 9.0


def test_roc_points_monotone_from_origin_to_one():
    rng = np.random.default_rng(0)
    curve = roc_auc(rng.random(40), rng.random(30) + 0.3)
    pts = curve.points
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
        assert f1 >= f0 and t1 >= t0
    assert 0.0 <= curve.auc <= 1.0


def test_auc_empty_input():
    with pytest.raises(DataError):
        roc_auc([], [1.0])
    with pytest.raises(DataError):
        roc_auc([1.0], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_auc_refuses_a_non_finite_score(bad):
    with pytest.raises(DataError, match="finite"):
        roc_auc([0.1, bad, 0.3], [0.5])
    with pytest.raises(DataError, match="finite"):
        roc_auc([0.1], [0.5, bad])


def _roc_threshold_loop(normal, adv):
    """The ROC sweep with two searchsorted calls per threshold, as roc_auc
    computed it before it searched all thresholds at once: every distinct
    score, largest first, then the largest float below the smallest score."""
    nn, na = len(normal), len(adv)
    normal_sorted, adv_sorted = np.sort(normal), np.sort(adv)
    distinct = np.unique(np.concatenate([normal, adv]))[::-1]
    counts, thresholds = [], []
    for v in [*distinct, np.nextafter(distinct[-1], -math.inf)]:
        counts.append((nn - int(np.searchsorted(normal_sorted, v, side="right")),
                       na - int(np.searchsorted(adv_sorted, v, side="right"))))
        thresholds.append(float(v))
    auc_num = sum((cn1 - cn0) * (ca0 + ca1) for (cn0, ca0), (cn1, ca1) in zip(counts, counts[1:]))
    return RocCurve(points=[(cn / nn, ca / na) for cn, ca in counts], auc=auc_num / (2 * nn * na), thresholds=thresholds)


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_roc_curve_json_equals_the_threshold_loop_byte_for_byte(seed, tied):
    rng = np.random.default_rng(seed)
    normal, adv = rng.random(int(rng.integers(1, 400))), rng.random(int(rng.integers(1, 400))) + 0.2
    if tied:
        normal, adv = np.round(normal * 20), np.round(adv * 20)
    dump = [json.dumps(vars(curve), sort_keys=True) for curve in (roc_auc(normal, adv), _roc_threshold_loop(normal, adv))]
    assert dump[0] == dump[1]


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_auc_equals_mann_whitney_exactly(seed):
    rng = np.random.default_rng(seed)
    nn = int(rng.integers(1, 200))
    na = int(rng.integers(1, 200))
    # integer-ish scores force ties
    normal = rng.integers(0, 30, nn).astype(float)
    adv = rng.integers(0, 30, na).astype(float)
    auc = roc_auc(normal, adv).auc
    gt = 0
    ties = 0
    for a in adv:
        gt += int((a > normal).sum())
        ties += int((a == normal).sum())
    assert auc == (2 * gt + ties) / (2 * nn * na)


# ---------------------------------------------------------------------------
# ks_two_sample


def test_ks_identical_samples():
    d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    d, _ = ks_two_sample([1.0, 2.0], [10.0, 11.0])
    assert d == 1.0


def test_ks_hand_case():
    d, _ = ks_two_sample([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    # stepwise CDF comparison: the largest gap is one step of 1/3
    assert d == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_ks_empty_sample():
    with pytest.raises(DataError):
        ks_two_sample([], [1.0])


def test_ks_matches_double_loop_exactly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        na, nb = rng.integers(1, 60, 2)
        a = rng.normal(size=na)
        b = rng.normal(size=nb) + rng.normal() * 0.5
        d, _ = ks_two_sample(a, b)
        a_sorted, b_sorted = np.sort(a), np.sort(b)
        best = 0.0
        for v in np.concatenate([a, b]):
            fa = (a_sorted <= v).sum() / na
            fb = (b_sorted <= v).sum() / nb
            best = max(best, abs(fa - fb))
        assert d == best


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_ks_symmetric_and_monotone_invariant(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=int(rng.integers(2, 40)))
    b = rng.normal(size=int(rng.integers(2, 40)))
    d_ab, p_ab = ks_two_sample(a, b)
    d_ba, p_ba = ks_two_sample(b, a)
    assert d_ab == d_ba and p_ab == p_ba
    # strictly monotone transform of both samples leaves D unchanged
    d_t, _ = ks_two_sample(np.exp(a), np.exp(b))
    assert d_t == pytest.approx(d_ab, abs=1e-12)


def test_ks_pvalue_behaviour():
    rng = np.random.default_rng(0)
    a = rng.normal(size=400)
    b = rng.normal(size=400) + 2.0
    _, p = ks_two_sample(a, b)
    assert p < 1e-6
    _, p_same = ks_two_sample(a, rng.normal(size=400))
    assert p_same > 0.01


# ---------------------------------------------------------------------------
# corrupt_dataset


def test_corruption_parameters_strictly_monotone():
    for kind, params in CORRUPTION_PARAMS.items():
        diffs = np.diff(params)
        assert (diffs > 0).all() or (diffs < 0).all(), kind


def test_corruption_deterministic():
    x = np.random.default_rng(0).random((3, 8, 8, 1))
    a = corrupt_dataset(x, "gaussian_noise", 3, seed=9)
    b = corrupt_dataset(x, "gaussian_noise", 3, seed=9)
    assert np.array_equal(a, b)
    c = corrupt_dataset(x, "gaussian_noise", 3, seed=10)
    assert not np.array_equal(a, c)


def test_noise_std_matches_parameter():
    x = np.full((2, 64, 64, 1), 0.5)  # mid-gray keeps the clip inactive
    out = corrupt_dataset(x, "gaussian_noise", 1, seed=1)
    measured = (out - x).std()
    assert abs(measured - 0.04) / 0.04 < 0.10


def test_corruption_validation():
    x = np.zeros((1, 8, 8, 1))
    with pytest.raises(ParameterError):
        corrupt_dataset(x, "fog", 1, seed=0)
    with pytest.raises(ParameterError):
        corrupt_dataset(x, "blur", 0, seed=0)
    with pytest.raises(ParameterError):
        corrupt_dataset(x, "blur", 6, seed=0)


def test_corruption_output_domain():
    x = np.random.default_rng(3).random((4, 10, 10, 1))
    for kind in CORRUPTION_PARAMS:
        for sev in (1, 5):
            out = corrupt_dataset(x, kind, sev, seed=2)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.shape == x.shape


def test_blur_preserves_constant_images():
    x = np.full((2, 9, 9, 1), 0.37)
    out = corrupt_dataset(x, "blur", 4, seed=0)
    assert np.allclose(out, 0.37, atol=1e-12)


# ---------------------------------------------------------------------------
# accuracy_report


@pytest.fixture(scope="module")
def small_image_classifier():
    rng = np.random.default_rng(0)
    n, size = 240, 4
    x = rng.random((n, size, size, 1)) * 0.3
    y = (np.arange(n) % 2).astype(np.int64)
    x[y == 1, 1:3, 1:3, 0] += 0.6
    x = np.clip(x, 0, 1)
    clf = build_model(
        ModelSpec("clf", (size, size, 1), (Flatten(), Dense(12), Relu(), Dense(2), Softmax())), 1
    )
    train_classifier(clf, x, y, OptimizerConfig(learning_rate=5e-3, batch_size=32, epochs=40, seed=2))
    clf.store.freeze_all()
    return clf, x, y


def test_accuracy_report_identity_ae_equals_no_defence(small_image_classifier):
    clf, x, y = small_image_classifier
    ae = identity_ae(4)
    noisy = np.clip(x + 0.2 * np.sign(np.random.default_rng(1).normal(size=x.shape)), 0, 1)
    rows, scores, decisions = accuracy_report(clf, {"identity": Defence(ae)}, {"noise": (noisy, y)}, (x, y), "identity")
    assert decisions == {}  # no threshold, no decisions
    assert np.array_equal(scores["noise"], adversarial_score(clf, Defence(ae), noisy))
    assert rows[0]["identity"] == rows[0]["no_defence"]
    assert rows[0]["no_attack"] == pytest.approx((clf.predict_class(x) == y).mean())


def _perturbed_identity_ae(size, scale, seed):
    ae = identity_ae(size)
    ae.store.params[1]["w"].data[:] += np.random.default_rng(seed).normal(0.0, scale, ae.store.params[1]["w"].shape)
    return ae


@pytest.fixture
def forwarded_rows(monkeypatch):
    """Rows pushed through Model.forward_t, keyed by classifier / ae; the
    report units count from several threads."""
    rows, lock = {"classifier": 0, "ae": 0}, threading.Lock()
    forward_t = Model.forward_t

    def counting(model, x, *args, **kwargs):
        with lock:
            rows["classifier" if model.is_classifier else "ae"] += x.shape[0]
        return forward_t(model, x, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_t", counting)
    return rows


def test_accuracy_report_one_pass_per_model_and_batch(small_image_classifier, forwarded_rows):
    clf, x, y = small_image_classifier
    n, m = 50, 30
    defences = {"a": Defence(_perturbed_identity_ae(4, 0.2, 1)), "b": Defence(identity_ae(4))}
    for threshold in (0.01, None):  # detect_and_correct's pass, or defence_outputs' without a threshold
        forwarded_rows.update(classifier=0, ae=0)
        accuracy_report(clf, defences, {"noise": (x[:n], y[:n])}, (x[-m:], y[-m:]), "a", threshold)
        assert forwarded_rows == {"classifier": 3 * n + m, "ae": 2 * n}, threshold


def test_drift_report_one_pass_per_model_and_set(small_image_classifier, forwarded_rows):
    clf, x, y = small_image_classifier
    kinds, severities = ("gaussian_noise", "contrast"), (1, 3)
    drift_report(clf, Defence(identity_ae(4)), x, y, kinds=kinds, severities=severities, seed=3)
    scored_sets = 1 + len(kinds) * len(severities)
    assert forwarded_rows == {"classifier": 2 * x.shape[0] * scored_sets, "ae": x.shape[0] * scored_sets}


def test_accuracy_report_gated_column_matches_detect_and_correct(small_image_classifier):
    clf, x, y = small_image_classifier
    ae = _perturbed_identity_ae(4, 0.3, 2)
    noisy = np.clip(x + 0.25 * np.sign(np.random.default_rng(3).normal(size=x.shape)), 0, 1)
    t = float(np.quantile(adversarial_score(clf, Defence(ae), noisy), 0.9))
    rows, scores, decisions = accuracy_report(clf, {"ae": Defence(ae)}, {"noise": (noisy, y)}, (x, y), "ae", t)
    row, (_, decision) = rows[0], detect_and_correct(clf, Defence(ae), noisy, t)
    assert row["ae@detect"] == float((decision[2] == y).mean())
    assert list(decisions) == ["noise"]  # the decision behind the column, for the verdict files
    for mine, theirs in zip(decisions["noise"], decision, strict=True):
        assert np.array_equal(mine, theirs)
    assert scores["noise"] is decisions["noise"][0]  # the score file's scores are the decision's
    assert len({row["no_defence"], row["ae"], row["ae@detect"]}) == 3  # the gate matters on this data


def test_accuracy_report_refuses_a_gate_on_a_defence_it_does_not_report(small_image_classifier):
    clf, x, y = small_image_classifier
    for threshold in (0.01, None):
        with pytest.raises(ParameterError, match="'mse'"):
            accuracy_report(clf, {"kl": Defence(identity_ae(4))}, {"noise": (x, y)}, (x, y), "mse", threshold)


def test_accuracy_report_reconstructs_in_the_row_blocks_of_defence_outputs(small_image_classifier, monkeypatch):
    clf, x, y = small_image_classifier
    ae = _perturbed_identity_ae(4, 0.3, 2)
    noisy = np.clip(x + 0.25 * np.sign(np.random.default_rng(3).normal(size=x.shape)), 0, 1)
    monkeypatch.setattr(defence, "_AE_ROWS", 7)  # 240 rows: 34 AE passes of 7 and one of 2
    ae_passes, forward_t = [], Model.forward_t

    def recording(model, xt, *args, **kwargs):
        if not model.is_classifier:
            ae_passes.append(xt.shape[0])
        return forward_t(model, xt, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_t", recording)
    outputs = defence_outputs(clf, Defence(ae), noisy)
    t = float(np.quantile(outputs.scores, 0.9))
    row = accuracy_report(clf, {"ae": Defence(ae)}, {"noise": (noisy, y)}, (x, y), "ae", t)[0][0]
    assert max(ae_passes) == 7 and sum(ae_passes) == 2 * x.shape[0]
    assert row["ae"] == float((outputs.decide(-math.inf)[2] == y).mean())
    assert row["ae@detect"] == float((outputs.decide(t)[2] == y).mean())


def _noisy(x, scale, seed):
    return np.clip(x + scale * np.sign(np.random.default_rng(seed).normal(size=x.shape)), 0, 1)


@pytest.mark.parametrize("threshold", [0.01, None])
def test_accuracy_report_units_give_the_rows_scores_and_decisions_of_one_attack_at_a_time(
        small_image_classifier, monkeypatch, threshold):
    clf, x, y = small_image_classifier
    defences = {"a": Defence(_perturbed_identity_ae(4, 0.3, 2)), "b": Defence(identity_ae(4))}
    attack_sets = {f"noise{s}": (_noisy(x, 0.1 * s, s), y) for s in (1, 2, 3)}
    with blas.one_thread():  # the count at which the units run on the cores
        alone = [accuracy_report(clf, defences, {name: batch}, (x, y), "a", threshold)
                 for name, batch in attack_sets.items()]
    for cores in (1, 2, 3):
        monkeypatch.setattr(blas, "usable_cores", lambda: cores)
        with blas.one_thread():
            rows, scores, decisions = accuracy_report(clf, defences, attack_sets, (x, y), "a", threshold)
        assert rows == [row for (row,), _, _ in alone]
        assert list(scores) == list(attack_sets) and list(decisions) == (list(attack_sets) if threshold else [])
        for name, (_, s, d) in zip(attack_sets, alone):
            assert scores[name].tobytes() == s[name].tobytes()
            for mine, theirs in zip(decisions.get(name, ()), d.get(name, ()), strict=True):
                assert mine.tobytes() == theirs.tobytes()


def test_accuracy_report_csv(small_image_classifier):
    clf, x, y = small_image_classifier
    rows, _, _ = accuracy_report(clf, {"identity": Defence(identity_ae(4))}, {"a": (x, y)}, (x, y), "identity")
    lines = csv_text(rows).strip().splitlines()
    assert lines[0].split(",")[:3] == ["attack", "no_attack", "no_defence"]
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# drift_report


def _drift_rows_one_set_at_a_time(classifier, defence, x, y, kinds, severities, seed):
    """drift_report's rows as its loop over sets computed them before the sets
    became units, at the one BLAS thread the units run at. Kept as the
    reference."""
    with blas.one_thread():
        clean = defence_outputs(classifier, defence, x)
        clean_pred = clean.p.argmax(axis=1)
        rows = [_drift_row(0, np.zeros(0), clean.scores, float((clean_pred == y).mean()))]
        for sev in severities:
            harm_scores, safe_scores, correct = [], [], 0
            for j, kind in enumerate(kinds):
                xc = corrupt_dataset(x, kind, sev, seed=seed * 1000 + sev * 10 + j)
                outputs = defence_outputs(classifier, defence, xc)
                pred, scores = outputs.p.argmax(axis=1), outputs.scores
                changed = pred != clean_pred
                harm_scores.append(scores[changed])
                safe_scores.append(scores[~changed])
                correct += int((pred == y).sum())
            accuracy = correct / (len(kinds) * x.shape[0])
            rows.append(_drift_row(sev, np.concatenate(harm_scores), np.concatenate(safe_scores), accuracy))
    return rows


def test_drift_report_units_give_the_rows_of_one_set_at_a_time_on_any_core_count(small_image_classifier, monkeypatch):
    clf, x, y = small_image_classifier
    d = Defence(_perturbed_identity_ae(4, 0.3, 2), temperature=0.5)
    kinds, severities = ("gaussian_noise", "blur", "contrast"), (4, 1)
    reference = _drift_rows_one_set_at_a_time(clf, d, x, y, kinds, severities, 3)
    assert [r["severity"] for r in reference] == [0, 4, 1] and any(r["n_harmful"] for r in reference)
    for cores in (1, 2, 3):
        monkeypatch.setattr(blas, "usable_cores", lambda: cores)
        started = recording_pool(monkeypatch)
        with blas.one_thread():
            rows = drift_report(clf, d, x, y, kinds=kinds, severities=severities, seed=3)
        assert rows == reference
        # the clean set and the six corrupted ones, one unit each
        assert started == ([cores] if cores > 1 and blas.threads_setter() else [])


def test_drift_severity_zero_matches_clean(small_image_classifier):
    clf, x, y = small_image_classifier
    ae = identity_ae(4)
    row0 = drift_report(clf, Defence(ae), x, y, kinds=("gaussian_noise",), severities=(1,), seed=3)[0]
    assert row0["severity"] == 0
    assert row0["n_harmful"] == 0
    assert row0["accuracy"] == pytest.approx((clf.predict_class(x) == y).mean())
    assert row0["ks_p"] is None


def test_drift_rows_partition_the_corrupted_set(small_image_classifier):
    clf, x, y = small_image_classifier
    ae = identity_ae(4)
    kinds = ("gaussian_noise", "contrast")
    rows = drift_report(clf, Defence(ae), x, y, kinds=kinds, severities=(2, 5), seed=3)
    for row in rows[1:]:
        assert row["n_harmful"] + row["n_not_harmful"] == x.shape[0] * len(kinds)


def test_drift_empty_group_reported_absent_not_error(small_image_classifier):
    clf, x, y = small_image_classifier
    ae = identity_ae(4)
    # contrast severity 1 on this easy task flips nothing -> harmful group empty
    row = drift_report(clf, Defence(ae), x, y, kinds=("contrast",), severities=(1,), seed=3)[1]
    if row["n_harmful"] == 0:
        assert row["harmful_mean"] is None and row["ks_p"] is None
    assert row["n_not_harmful"] > 0


def test_drift_report_serialization(small_image_classifier):
    """The rows are plain data in one key order: strict JSON round-trips them,
    and ``csv_text`` writes a header and one line per row."""
    clf, x, y = small_image_classifier
    rows = drift_report(clf, Defence(identity_ae(4)), x, y, kinds=("gaussian_noise",), severities=(1, 3), seed=0)
    assert [r["severity"] for r in rows] == [0, 1, 3]
    assert len({tuple(r) for r in rows}) == 1
    assert json.loads(json.dumps(rows, allow_nan=False)) == rows
    assert len(csv_text(rows).splitlines()) == 4


def test_monotone_harm_over_seeds(small_image_classifier):
    clf, x, y = small_image_classifier
    accs = {sev: [] for sev in (1, 2, 3, 4, 5)}
    for seed in range(10):
        for sev in accs:
            xc = corrupt_dataset(x, "gaussian_noise", sev, seed=seed)
            accs[sev].append((clf.predict_class(xc) == y).mean())
    means = [np.mean(accs[sev]) for sev in sorted(accs)]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a + 1e-12)
    assert inversions <= 1, means
