"""Adversarial scoring, threshold calibration and the detect-and-correct
pipeline.

The score of an instance is the KL divergence between the classifier's
prediction distribution on the instance and on its reconstruction by a
``Defence``: an autoencoder with the temperature its score uses. Scores
above a threshold flag the instance; flagged ones take the reconstruction's
label instead. A decision is three arrays, one row per instance: the
scores, the flags and the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import csv_text, write_artifact
from .autodiff import kl_rows
from .errors import DataError, ParameterError
from .training import temperature_scale

# Rows per AE pass in reconstructed_proba: bounds the AE's activations (a 20x20 conv AE with
# 8 filters holds 25.6 KB per row in its first layer). The scoring stages run two sets at a
# time (blas.on_cores), so two 150-row blocks in flight hold about what one 300-row block would.
# The AE's outputs do not depend on the block size; the classifier still takes all rows
# in one pass: with OpenBLAS a narrow GEMM, such as a 10-class output layer, can round
# differently at another row count.
_AE_ROWS = 150
Decision = tuple[np.ndarray, np.ndarray, np.ndarray]  # (scores, flagged, labels), one row per instance


@dataclass(frozen=True)
class Defence:
    """A frozen autoencoder and the temperature its score sharpens M(x) with (None: untempered)."""

    ae: object
    temperature: float | None = None


@dataclass(frozen=True)
class DefenceOutputs:
    """The two prediction distributions every defence decision derives from,
    ``p`` = M(x) and ``q`` = M(AE(x)), one row per instance, and the one
    decision rule: the score is KL(p || q), an instance is flagged when its
    score exceeds the threshold, and a flagged instance takes q's label, the
    others p's. With a temperature, p is sharpened the same way the training
    target was before it is scored."""

    p: np.ndarray
    q: np.ndarray
    temperature: float | None

    def scores(self) -> np.ndarray:
        """Per-instance KL(p || q); higher means more suspicious."""
        p = self.p if self.temperature is None else temperature_scale(self.p, self.temperature)
        return kl_rows(p, self.q)

    def decide(self, threshold: float) -> Decision:
        """The rule above at ``threshold``."""
        scores = self.scores()
        flagged = scores > threshold
        return scores, flagged, np.where(flagged, self.q.argmax(axis=1), self.p.argmax(axis=1))


def reconstructed_proba(classifier, ae, x: np.ndarray) -> np.ndarray:
    """M(AE(x)): AE passes of _AE_ROWS rows, then one classifier pass on the
    reconstruction. A single block is used as it is, without a copy."""
    blocks = [ae.reconstruct(x[s : s + _AE_ROWS]) for s in range(0, max(x.shape[0], 1), _AE_ROWS)]
    return classifier.predict_proba(blocks[0] if len(blocks) == 1 else np.concatenate(blocks))


def defence_outputs(classifier, defence: Defence, x: np.ndarray) -> DefenceOutputs:
    """One classifier pass on x plus ``reconstructed_proba``."""
    p = classifier.predict_proba(x)
    return DefenceOutputs(p, reconstructed_proba(classifier, defence.ae, x), defence.temperature)


def adversarial_score(classifier, defence: Defence, x: np.ndarray) -> np.ndarray:
    """Per-instance KL(M(x) || M(AE(x))); see ``DefenceOutputs.scores``."""
    return defence_outputs(classifier, defence, x).scores()


def calibrate_threshold(scores_normal, eps_fpr: float) -> float:
    """Smallest observed score t such that the fraction of normal scores
    strictly above t is at most eps_fpr; eps_fpr=1 gives -inf (flag all)."""
    scores = np.asarray(scores_normal, dtype=np.float64)
    if scores.size == 0:
        raise DataError("cannot calibrate a threshold from no scores")
    if not 0.0 <= eps_fpr <= 1.0:
        raise ParameterError(f"false positive budget must be in [0, 1], got {eps_fpr}")
    if eps_fpr == 1.0:
        return -math.inf
    n = scores.size
    ordered = np.sort(scores)
    above = n - np.searchsorted(ordered, ordered, side="right")  # strictly greater counts
    ok = above / n <= eps_fpr
    return float(ordered[np.argmax(ok)])  # first (smallest) admissible value


def detect_and_correct(classifier, defence: Defence, x: np.ndarray, threshold: float) -> tuple[DefenceOutputs, Decision]:
    """A batch's ``defence_outputs`` and their decision at ``threshold``; see
    ``DefenceOutputs.decide``."""
    outputs = defence_outputs(classifier, defence, x)
    return outputs, outputs.decide(threshold)


def verdicts_to_csv(decision: Decision, threshold: float, path) -> None:
    """One row per instance of a ``decide`` result taken at ``threshold``."""
    scores, flagged, labels = (a.tolist() for a in decision)
    header = ["id", "score", "threshold", "flagged", "label", "source"]
    rows = [[i, f"{s:.17g}", f"{threshold:.17g}", int(f), lab, "reconstructed" if f else "original"]
            for i, (s, f, lab) in enumerate(zip(scores, flagged, labels))]
    write_artifact(path, csv_text([header, *rows]))
