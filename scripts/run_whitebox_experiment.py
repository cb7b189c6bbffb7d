#!/usr/bin/env python3
"""White-box attack experiment.

Trains the grey-box classifier with KL and MSE defences through the pipeline
CLI, then crafts FGSM (eps 0.2) adversarials both against the bare classifier
and against the full KL-defended pipeline C(AE_kl(x)) on the whole test set.
Prints the white-box attack's accuracy row, where ``kl`` is the attacked
autoencoder and ``mse`` one the attacker did not target, its success rate and
the detection AUC of the attacked KL defence.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from run_greybox_experiment import STAGES, default_config, run_stages

WHITE_BOX = {"name": "wb_fgsm_02", "kind": "fgsm", "epsilon": 0.2, "target_mode": "white_box", "ae": "kl"}


def whitebox_config(out: str, seed: int) -> dict:
    """The grey-box config with its fgsm_02 entry plus WHITE_BOX, on the whole test set."""
    cfg = default_config(out, seed)
    cfg["attacks"] = [a for a in cfg["attacks"] if a["name"] == "fgsm_02"] + [WHITE_BOX]
    cfg["attack_subset"] = None
    return cfg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    code = run_stages(whitebox_config(args.out, args.seed), STAGES)
    if code != 0:
        return code
    out = Path(args.out)
    name = WHITE_BOX["name"]
    with open(out / "report_accuracy.csv", newline="", encoding="utf-8") as fh:
        row = next(r for r in csv.DictReader(fh) if r["attack"] == name)
    success = json.loads((out / "attacks" / f"{name}.json").read_text(encoding="utf-8"))["success"]
    auc = json.loads((out / f"roc_{name}.json").read_text(encoding="utf-8"))["auc"]
    print(f"{name} accuracy: " + "  ".join(f"{k} {float(v):.4f}" for k, v in row.items() if k != "attack"))
    print("  (kl: the attacked autoencoder; mse: an autoencoder the attacker did not target)")
    print(f"white-box success rate: {sum(success) / len(success):.4f}")
    print(f"white-box detection auc (kl scores): {auc:.4f}")
    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
