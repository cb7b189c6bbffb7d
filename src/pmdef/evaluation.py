"""Detection and correction metrics: ROC/AUC over adversarial scores,
accuracy tables, the two-sample Kolmogorov-Smirnov test, synthetic
corruptions and the drift report splitting corrupted instances into
harmful and not-harmful groups.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import blas
from .artifacts import csv_text, write_artifact
from .defence import Decision, Defence, defence_outputs, detect_and_correct, reconstructed_proba
from .errors import DataError, ParameterError

# per-kind corruption parameter tables, severity 1..5 (strictly monotone harm)
CORRUPTION_PARAMS: dict[str, tuple[float, ...]] = {
    "gaussian_noise": (0.04, 0.06, 0.08, 0.09, 0.10),  # added noise sigma
    "blur": (1, 2, 3, 4, 5),                            # box-blur radius
    "brightness": (0.1, 0.2, 0.3, 0.4, 0.5),            # additive shift
    "contrast": (0.75, 0.6, 0.45, 0.3, 0.15),           # contraction factor
}
SEVERITIES = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# ROC / AUC


@dataclass
class RocCurve:
    points: list[tuple[float, float]]  # (fpr, tpr), monotone from (0,0) to (1,1)
    auc: float
    thresholds: list[float] = field(default_factory=list)


def roc_auc(scores_normal, scores_adversarial) -> RocCurve:
    """Threshold sweep over all distinct scores (flag when score > t).

    The trapezoid integral is accumulated over integer counts and divided
    once, so the AUC equals the Mann-Whitney statistic
    P(adv > normal) + 0.5 P(tie) exactly, not just approximately.
    """
    normal = np.asarray(scores_normal, dtype=np.float64)
    adv = np.asarray(scores_adversarial, dtype=np.float64)
    if normal.size == 0 or adv.size == 0:
        raise DataError("roc_auc needs non-empty score lists for both classes")
    if not (np.isfinite(normal).all() and np.isfinite(adv).all()):
        raise DataError("roc_auc needs finite scores")
    nn, na = normal.size, adv.size
    normal_sorted = np.sort(normal)
    adv_sorted = np.sort(adv)
    distinct = np.unique(np.concatenate([normal, adv]))[::-1]  # descending
    # flagged counts above each threshold, from (0, 0) at +inf
    cn = np.concatenate([[0], nn - np.searchsorted(normal_sorted, distinct, side="right")])
    ca = np.concatenate([[0], na - np.searchsorted(adv_sorted, distinct, side="right")])
    thresholds = [math.inf, *distinct.tolist()]
    if (cn[-1], ca[-1]) != (nn, na):
        cn, ca = np.append(cn, nn), np.append(ca, na)
        thresholds.append(-math.inf)
    auc_num = int(np.dot(np.diff(cn), ca[:-1] + ca[1:]))  # exact: int64 products and sum
    points = [(c / nn, a / na) for c, a in zip(cn.tolist(), ca.tolist())]
    return RocCurve(points=points, auc=auc_num / (2 * nn * na), thresholds=thresholds)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def _kolmogorov_sf(lam: float, terms: int = 100) -> float:
    """Two-sided asymptotic survival function 2*sum (-1)^(k-1) exp(-2 k^2 lam^2),
    truncated at a fixed number of terms."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample(a, b) -> tuple[float, float]:
    """D = sup |F_a - F_b| over the empirical CDFs, plus the asymptotic
    p-value at effective sample size n_a n_b / (n_a + n_b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise DataError("ks_two_sample needs two non-empty samples")
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    n_eff = a.size * b.size / (a.size + b.size)
    return d, _kolmogorov_sf(math.sqrt(n_eff) * d)


# ---------------------------------------------------------------------------
# accuracy tables


def accuracy_report(
    classifier,
    defences: dict[str, Defence],
    attack_sets: dict[str, tuple[np.ndarray, np.ndarray]],
    clean_set: tuple[np.ndarray, np.ndarray],
    scored: str,
    threshold: float | None = None,
) -> tuple[list[dict], dict[str, np.ndarray], dict[str, Decision]]:
    """One row per attack: clean accuracy, undefended accuracy, then one
    pure-correction column per defence (every instance takes the
    reconstruction's label). The ``scored`` defence makes one pass per
    attack: ``detect_and_correct`` at ``threshold``, else ``defence_outputs``.
    That pass gives the ``no_defence`` column M(x_adv), the defence's own
    column M(AE(x_adv)), the attack's scores and, with a threshold, the
    detection-gated column ``<scored>@detect`` from its decision. Returns the
    rows, the scores per attack and the decisions per attack ({} without a
    threshold)."""
    if scored not in defences:
        raise ParameterError(f"the scored defence {scored!r} is not one of the report's defences {sorted(defences)}")
    x_clean, y_clean = clean_set
    clean_acc = float((classifier.predict_class(x_clean) == y_clean).mean())

    def unit(attack_name):
        x_adv, y = attack_sets[attack_name]
        if threshold is None:
            outputs, decision = defence_outputs(classifier, defences[scored], x_adv), None
        else:
            outputs, decision = detect_and_correct(classifier, defences[scored], x_adv, threshold)
        row: dict[str, object] = {"attack": attack_name, "no_attack": clean_acc}
        row["no_defence"] = float((outputs.p.argmax(axis=1) == y).mean())
        for name, defence in defences.items():
            q = outputs.q if name == scored else reconstructed_proba(classifier, defence.ae, x_adv)
            row[name] = float((q.argmax(axis=1) == y).mean())
            if name == scored and decision is not None:
                row[f"{name}@detect"] = float((decision[2] == y).mean())
        return row, outputs.scores() if decision is None else decision[0], decision

    results = dict(zip(attack_sets, blas.on_cores(unit, attack_sets)))
    rows = [row for row, _, _ in results.values()]
    scores = {name: attack_scores for name, (_, attack_scores, _) in results.items()}
    decisions = {name: decision for name, (_, _, decision) in results.items() if decision is not None}
    return rows, scores, decisions


def accuracy_report_to_csv(rows: list[dict], path) -> None:
    if not rows:
        raise DataError("empty accuracy report")
    columns = list(rows[0].keys())
    body = [[row[c] if isinstance(row[c], str) else f"{row[c]:.17g}" for c in columns] for row in rows]
    write_artifact(path, csv_text([columns, *body]))


# ---------------------------------------------------------------------------
# synthetic corruptions


def _box_blur(x: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter with a (2r+1)^2 window and replicated edges, via cumsum."""
    k = 2 * radius + 1
    xp = np.pad(x, ((0, 0), (radius, radius), (radius, radius), (0, 0)), mode="edge")
    c = np.cumsum(xp, axis=1)
    c = np.concatenate([np.zeros_like(c[:, :1]), c], axis=1)
    rows = c[:, k:, :, :] - c[:, :-k, :, :]
    c2 = np.cumsum(rows, axis=2)
    c2 = np.concatenate([np.zeros_like(c2[:, :, :1]), c2], axis=2)
    sums = c2[:, :, k:, :] - c2[:, :, :-k, :]
    return sums / (k * k)


def corrupt_dataset(x: np.ndarray, kind: str, severity: int, seed: int) -> np.ndarray:
    """Deterministically corrupt an image batch; parameters scale
    monotonically with severity 1..5; output clipped to [0, 1]."""
    if kind not in CORRUPTION_PARAMS:
        raise ParameterError(f"unknown corruption kind {kind!r}; choose from {sorted(CORRUPTION_PARAMS)}")
    if severity not in SEVERITIES:
        raise ParameterError(f"severity must be in {SEVERITIES}, got {severity}")
    param = CORRUPTION_PARAMS[kind][severity - 1]
    if kind == "gaussian_noise":
        rng = np.random.default_rng(seed)
        out = x + rng.normal(0.0, param, size=x.shape)
    elif kind == "blur":
        out = _box_blur(x, int(param))
    elif kind == "brightness":
        out = x + param
    else:  # contrast
        mu = x.mean(axis=(1, 2, 3), keepdims=True)
        out = mu + param * (x - mu)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# drift report


@dataclass
class DriftRow:
    severity: int
    n_harmful: int
    n_not_harmful: int
    harmful_mean: float | None
    harmful_std: float | None
    not_harmful_mean: float | None
    not_harmful_std: float | None
    accuracy: float
    ks_d: float | None
    ks_p: float | None


@dataclass
class DriftReport:
    kinds: list[str]
    rows: list[DriftRow]

    def to_json(self, path) -> None:
        report = {"kinds": self.kinds, "rows": [vars(r) for r in self.rows]}
        write_artifact(path, json.dumps(report, sort_keys=True, indent=1) + "\n")

    def to_csv(self, path) -> None:
        cols = [f.name for f in fields(DriftRow)]
        rows = [cols]
        for r in self.rows:
            d = vars(r)
            rows.append(["" if d[c] is None else (d[c] if isinstance(d[c], int) else f"{d[c]:.17g}") for c in cols])
        write_artifact(path, csv_text(rows))


def _group_stats(scores: np.ndarray):
    if scores.size == 0:
        return None, None
    return float(scores.mean()), float(scores.std())


def _drift_row(severity: int, harm: np.ndarray, safe: np.ndarray, accuracy: float) -> DriftRow:
    hm, hs = _group_stats(harm)
    sm, ss = _group_stats(safe)
    ks_d, ks_p = ks_two_sample(harm, safe) if harm.size and safe.size else (None, None)
    return DriftRow(
        severity=int(severity),
        n_harmful=int(harm.size),
        n_not_harmful=int(safe.size),
        harmful_mean=hm,
        harmful_std=hs,
        not_harmful_mean=sm,
        not_harmful_std=ss,
        accuracy=accuracy,
        ks_d=ks_d,
        ks_p=ks_p,
    )


def drift_report(
    classifier,
    defence: Defence,
    x: np.ndarray,
    y: np.ndarray,
    kinds=tuple(CORRUPTION_PARAMS),
    severities=SEVERITIES,
    seed: int = 0,
) -> DriftReport:
    """Score corrupted copies of the test set per severity, pooled over
    corruption kinds. Instances whose prediction changed relative to the
    clean prediction form the harmful group; unchanged ones the not-harmful
    group. Severity 0 is the clean set itself. The clean set and each
    (severity, kind) set are the units of ``blas.on_cores``; a unit keeps
    only its predictions and scores."""
    kinds = list(kinds)
    sets = [(0, 0, None)] + [(sev, j, kind) for sev in severities for j, kind in enumerate(kinds)]

    def unit(spec):
        sev, j, kind = spec
        xs = x if kind is None else corrupt_dataset(x, kind, sev, seed=seed * 1000 + sev * 10 + j)
        outputs = defence_outputs(classifier, defence, xs)
        return outputs.p.argmax(axis=1), outputs.scores()

    (clean_pred, clean_scores), *results = blas.on_cores(unit, sets)
    rows = [_drift_row(0, np.zeros(0), clean_scores, float((clean_pred == y).mean()))]
    for i, sev in enumerate(severities):
        per_kind = results[i * len(kinds) : (i + 1) * len(kinds)]
        changed = [pred != clean_pred for pred, _ in per_kind]
        harm = np.concatenate([scores[c] for (_, scores), c in zip(per_kind, changed)])
        safe = np.concatenate([scores[~c] for (_, scores), c in zip(per_kind, changed)])
        accuracy = sum(int((pred == y).sum()) for pred, _ in per_kind) / (len(kinds) * x.shape[0])
        rows.append(_drift_row(sev, harm, safe, accuracy))
    return DriftReport(kinds=kinds, rows=rows)
