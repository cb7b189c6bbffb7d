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
import tempfile
from pathlib import Path

from run_greybox_experiment import default_config

from pmdef.cli import run_cli


def _fmt(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = {
        **default_config(args.out, args.seed),
        "defence_losses": [{"kind": "kl"}],
        "drift": {"kinds": ["gaussian_noise", "blur", "brightness", "contrast"], "severities": [1, 2, 3, 4, 5]},
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(cfg, fh)
        cfg_path = fh.name
    for stage in ["train-classifier", "train-defence", "drift"]:
        code = run_cli([stage, "--config", cfg_path])
        if code != 0:
            print(f"stage {stage} failed with exit code {code}", file=sys.stderr)
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
