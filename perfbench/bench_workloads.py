"""The benchmark's three workloads: experiment configs, set-up stages,
timed stages, the figures read back from the artifacts, and the floors of
the correctness gate.

Every workload runs the grey-box pipeline of the pmdef CLI on seeded
synthetic blob images (20x20x1, 10 classes) with the grey-box model specs.
The workload seed is the config seed, so the same seed gives the same data,
models and attacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

SIZE = 20

CLASSIFIER_SPEC = {
    "name": "blob_mlp",
    "input_shape": [SIZE, SIZE, 1],
    "standardize": False,
    "layers": [
        {"type": "flatten"},
        {"type": "dense", "units": 128},
        {"type": "relu"},
        {"type": "dense", "units": 10},
        {"type": "softmax"},
    ],
}
AUTOENCODER_SPEC = {
    "name": "blob_ae",
    "input_shape": [SIZE, SIZE, 1],
    "standardize": False,
    "layers": [
        {"type": "conv", "filters": 8, "kernel": 3, "stride": 1, "padding": "same"},
        {"type": "relu"},
        {"type": "maxpool", "window": 5, "stride": 5},
        {"type": "flatten"},
        {"type": "dense", "units": 32},
        {"type": "dense", "units": 128},
        {"type": "relu"},
        {"type": "dense", "units": SIZE * SIZE},
        {"type": "reshape", "shape": [SIZE, SIZE, 1]},
    ],
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``full`` is what the benchmark measures,
    ``tiny`` only proves that every stage and metric is wired up."""

    n_train: int
    n_test: int
    train_epochs: int       # defence epochs of the train workload
    short_epochs: int       # defence epochs trained during set-up
    checkpoint_every: int
    cw_binary_steps: int
    cw_max_iter: int
    setup_repeats: int
    gated: bool             # apply the quality floors


SCALES = {
    "full": Scale(n_train=1000, n_test=300, train_epochs=5, short_epochs=2, checkpoint_every=5,
                  cw_binary_steps=3, cw_max_iter=50, setup_repeats=3, gated=True),
    "tiny": Scale(n_train=100, n_test=40, train_epochs=1, short_epochs=1, checkpoint_every=1,
                  cw_binary_steps=1, cw_max_iter=3, setup_repeats=2, gated=False),
}

# --workers passed to every stage. Only C&W in the attack stage reads it; at
# the CLI default (one thread per core) C&W threads and BLAS threads contend
# and attack pass times varied 2.1-3.8 s within one run.
WORKERS = 1

GREY_ATTACKS = [
    {"name": "fgsm_01", "kind": "fgsm", "epsilon": 0.1},
    {"name": "fgsm_02", "kind": "fgsm", "epsilon": 0.2},
    {"name": "fgsm_03", "kind": "fgsm", "epsilon": 0.3},
    {"name": "slide", "kind": "slide", "q": 80, "gamma": 0.5, "k": 10, "eps_l1": 6.0},
]
WHITE_BOX = {"name": "wb_fgsm_02", "kind": "fgsm", "epsilon": 0.2, "target_mode": "white_box", "ae": "kl"}

# Quality floors of the correctness gate at the full scale. Seeds 0-19,
# 200-209, 300-309 and 1000-1039 measured: defence_final_loss_kl
# 0.0020-0.0160 (the first epoch's mean is 0.35-1.11), cw_success_rate 1.0,
# detect_auc_min 0.850-0.989 (a detector that cannot tell reads 0.5),
# kl_restored_acc 0.66-0.97 (undefended accuracy on fgsm_02 is 0.09-0.21).
# Each floor leaves a margin beyond the worst seed and stays far from what a
# broken stage gives.
FLOORS = {
    "defence_final_loss_kl": ("max", 0.05),
    "cw_success_rate": ("min", 0.95),
    "detect_auc_min": ("min", 0.75),
    "kl_restored_acc": ("min", 0.50),
}


def base_config(seed: int, scale: Scale, *, defence_epochs: int, losses: list[str], attacks: list[dict]) -> dict:
    return {
        "seed": seed,
        "dataset": {
            "kind": "synth", "synth_kind": "blobs", "image_size": SIZE, "num_classes": 10,
            "n_train": scale.n_train, "n_test": scale.n_test, "noise": 0.12, "jitter": 0.5,
        },
        "classifier_spec": CLASSIFIER_SPEC,
        "autoencoder_spec": AUTOENCODER_SPEC,
        "classifier_opt": {"kind": "adam", "learning_rate": 0.001, "batch_size": 128, "epochs": 15},
        "defence_opt": {"kind": "adam", "learning_rate": 0.002, "batch_size": 64, "epochs": defence_epochs},
        "defence_losses": [{"kind": k} for k in losses],
        "checkpoint_every": scale.checkpoint_every,
        "attacks": attacks,
        "attack_subset": scale.n_test,
        "eps_fpr": 0.05,
        "calibration_size": scale.n_train,
        "report_defences": losses,
    }


def _cw(scale: Scale) -> dict:
    return {"name": "cw", "kind": "cw_l2", "c_init": 100.0, "binary_steps": scale.cw_binary_steps,
            "max_iter": scale.cw_max_iter, "lr": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_stages: tuple[str, ...]
    timed_stages: tuple[str, ...]

    def config(self, seed: int, scale: Scale) -> dict:
        if self.name == "train":
            return base_config(seed, scale, defence_epochs=scale.train_epochs, losses=["kl", "mse"], attacks=GREY_ATTACKS)
        if self.name == "attack":
            return base_config(seed, scale, defence_epochs=scale.short_epochs, losses=["kl"],
                               attacks=GREY_ATTACKS + [_cw(scale), WHITE_BOX])
        return base_config(seed, scale, defence_epochs=scale.short_epochs, losses=["kl", "mse"],
                           attacks=GREY_ATTACKS + [WHITE_BOX])

    def warmup_config(self, seed: int, scale: Scale) -> dict:
        """The train workload's set-up: its own stages on a fifth of the data
        for one defence epoch, so lazy imports and BLAS start-up are paid
        before timing."""
        small = replace(scale, n_train=max(scale.n_train // 5, 20), n_test=max(scale.n_test // 5, 20))
        return base_config(seed, small, defence_epochs=1, losses=["kl", "mse"], attacks=GREY_ATTACKS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", "conv/maxpool fwd+vjp, backward and Adam over the AE dominate; attacks, defence and evaluation idle",
                 ("train-classifier", "train-defence"), ("train-classifier", "train-defence")),
        Workload("attack", "thousands of batch-64 tape steps on the MLP (C&W, --workers 1): per-op overhead, backward and Adam",
                 ("train-classifier", "train-defence"), ("attack",)),
        Workload("report", "tape-free large-batch forwards only: repeated classifier/AE passes, drift sets and the ROC loop",
                 ("train-classifier", "train-defence", "attack"), ("score", "calibrate", "evaluate", "drift", "roc")),
    )
}


# ---------------------------------------------------------------------------
# figures read back from the artifacts of one timed pass


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def figures(workload: Workload, cfg: dict, out: Path, stage_s: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end figures, named as in the benchmark's
    mapping, computed from one pass's stage times and artifacts."""
    f: dict[str, tuple[float, str]] = {"wall_s": (sum(stage_s.values()), "s")}
    if workload.name == "train":
        epochs = cfg["defence_opt"]["epochs"]
        samples = cfg["dataset"]["n_train"] * epochs * len(cfg["defence_losses"])
        f["train_samples_per_s"] = (samples / stage_s["train-defence"], "1/s")
        f["train_classifier_s"] = (stage_s["train-classifier"], "s")
        last = [r for r in _jsonl(out / "ae_kl_train.jsonl") if "epoch" in r][-1]
        f["defence_final_loss_kl"] = (float(last["mean_loss"]), "nats")
    elif workload.name == "attack":
        n_inst = cfg["attack_subset"] * len(cfg["attacks"])
        f["attack_instances_per_s"] = (n_inst / stage_s["attack"], "1/s")
        meta = json.loads((out / "attacks" / "cw.json").read_text(encoding="utf-8"))
        f["cw_success_rate"] = (sum(meta["success"]) / len(meta["success"]), "ratio")
    else:
        for stage in ("score", "evaluate", "drift"):
            f[f"{stage}_s"] = (stage_s[stage], "s")
        aucs = [json.loads((out / f"roc_{a['name']}.json").read_text(encoding="utf-8"))["auc"] for a in cfg["attacks"]]
        f["detect_auc_min"] = (min(aucs), "auc")
        rows = (out / "report_accuracy.csv").read_text(encoding="utf-8").splitlines()
        header = rows[0].split(",")
        fgsm = next(r.split(",") for r in rows[1:] if r.startswith("fgsm_02,"))
        f["kl_restored_acc"] = (float(fgsm[header.index("kl")]), "ratio")
    return f


def gate(fig: dict[str, tuple[float, str]], scale: Scale) -> list[str]:
    """Quality floors a correct pipeline meets; each breach is one message."""
    if not scale.gated:
        return []
    problems = []
    for name, (kind, bound) in FLOORS.items():
        if name not in fig:
            continue
        value = fig[name][0]
        if (kind == "min" and value < bound) or (kind == "max" and value > bound):
            problems.append(f"{name}={value:.4g} breaks its floor ({kind} {bound})")
    return problems
