#!/usr/bin/env python3
"""Drift detection experiment with synthetic corruptions.

Trains the grey-box classifier and a KL defence through the pipeline CLI,
runs its drift stage (four corruption families at five severity levels on
the test set) and prints per-severity scores for instances whose prediction
flipped (harmful) versus stayed (not harmful), with the two-sample KS test
between the groups.
"""

import argparse
import json
import sys
from pathlib import Path

from run_greybox_experiment import default_config, run_stages


def _fmt(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def drift_config(out: str, seed: int) -> dict:
    """The grey-box config with the KL defence only and every corruption at every severity."""
    return {
        **default_config(out, seed),
        "defence_losses": [{"kind": "kl"}],
        "report_defences": ["kl"],
        "drift": {"kinds": ["gaussian_noise", "blur", "brightness", "contrast"], "severities": [1, 2, 3, 4, 5]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    code = run_stages(drift_config(args.out, args.seed), ["train-classifier", "train-defence", "drift"])
    if code != 0:
        return code
    out = Path(args.out)
    for row in json.loads((out / "drift.json").read_text(encoding="utf-8"))["rows"]:
        print(
            f"severity {row['severity']}: accuracy {row['accuracy']:.4f}  "
            f"harmful mean {_fmt(row['harmful_mean'], '.4f')} (n={row['n_harmful']})  "
            f"not-harmful mean {_fmt(row['not_harmful_mean'], '.4f')} (n={row['n_not_harmful']})  "
            f"ks p {_fmt(row['ks_p'], '.2e')}"
        )
    print(f"wrote {out / 'drift.json'} and {out / 'drift.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
