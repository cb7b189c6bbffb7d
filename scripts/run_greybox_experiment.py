#!/usr/bin/env python3
"""End-to-end grey-box experiment on a synthetic dataset.

Trains a classifier, fits KL and MSE defence autoencoders, runs FGSM, SLIDE
and C&W attacks, calibrates the detection threshold and writes the accuracy
table, score CSVs and ROC JSONs into the output directory via the pipeline
CLI. Roughly a desk-scale version of the grey-box tables and ROC figures.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from pmdef.cli import run_cli

# the stages an attack experiment runs, in order; drift is the drift script's
STAGES = ["train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate", "roc"]


def default_config(out: str, seed: int) -> dict:
    size = 20
    return {
        "seed": seed,
        "out": out,
        "dataset": {
            "kind": "synth",
            "synth_kind": "blobs",
            "image_size": size,
            "num_classes": 10,
            "n_train": 4000,
            "n_test": 1000,
            "noise": 0.12,
            "jitter": 0.5,
        },
        "classifier_spec": {
            "name": "blob_mlp",
            "input_shape": [size, size, 1],
            "standardize": False,
            "layers": [
                {"type": "flatten"},
                {"type": "dense", "units": 128},
                {"type": "relu"},
                {"type": "dense", "units": 10},
                {"type": "softmax"},
            ],
        },
        "autoencoder_spec": {
            "name": "blob_ae",
            "input_shape": [size, size, 1],
            "standardize": False,
            "layers": [
                {"type": "conv", "filters": 8, "kernel": 3, "stride": 1, "padding": "same"},
                {"type": "relu"},
                {"type": "maxpool", "window": 5, "stride": 5},
                {"type": "flatten"},
                {"type": "dense", "units": 32},
                {"type": "dense", "units": 128},
                {"type": "relu"},
                {"type": "dense", "units": size * size},
                {"type": "reshape", "shape": [size, size, 1]},
            ],
        },
        "classifier_opt": {"kind": "adam", "learning_rate": 0.001, "batch_size": 128, "epochs": 15},
        "defence_opt": {"kind": "adam", "learning_rate": 0.002, "batch_size": 64, "epochs": 30},
        "defence_losses": [{"kind": "kl"}, {"kind": "mse"}],
        "attacks": [
            {"name": "fgsm_01", "kind": "fgsm", "epsilon": 0.1},
            {"name": "fgsm_02", "kind": "fgsm", "epsilon": 0.2},
            {"name": "fgsm_03", "kind": "fgsm", "epsilon": 0.3},
            {"name": "slide", "kind": "slide", "q": 80, "gamma": 0.5, "k": 10, "eps_l1": 6.0},
            {"name": "cw", "kind": "cw_l2", "c_init": 100.0, "binary_steps": 7, "max_iter": 200, "lr": 0.1},
        ],
        "attack_subset": 300,
        "eps_fpr": 0.05,
        "calibration_size": 1000,
        "report_defences": ["kl", "mse"],
    }


def run_stages(cfg: dict, stages: list[str], *flags: str) -> int:
    """Run ``stages`` of the pipeline CLI in order on ``cfg``, written to a
    temporary config file; returns the first non-zero exit code, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        for stage in stages:
            code = run_cli([stage, "--config", str(cfg_path), *flags])
            if code != 0:
                print(f"stage {stage} failed with exit code {code}", file=sys.stderr)
                return code
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    code = run_stages(default_config(args.out, args.seed), STAGES)
    if code != 0:
        return code
    print(f"artifacts in {args.out}")
    print((Path(args.out) / "report_accuracy.csv").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
