#!/usr/bin/env python3
"""White-box attack and checkpoint-ensemble experiment.

Crafts FGSM adversarials against the full defended pipeline C(AE(x)), then
compares the attacked checkpoint's corrected accuracy against a weighted
majority vote over earlier training checkpoints of the same autoencoder.
Demonstrates the attack's poor transferability between checkpoints.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from pmdef.attacks import AttackConfig, fgsm
from pmdef.datasets import synth_dataset
from pmdef.defence import EnsembleMember, EnsembleSpec, adversarial_score, ensemble_predict
from pmdef.evaluation import roc_auc
from pmdef.models import (
    Conv, Dense, Flatten, MaxPool, ModelSpec, Relu, Reshape, Softmax,
    build_model, compose_defended, load_checkpoint,
)
from pmdef.seeding import derive_seed
from pmdef.training import DefenceLossSpec, OptimizerConfig, train_classifier, train_defence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.2)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    size, classes = 20, 10

    train = synth_dataset("blobs", 4000, size, classes, derive_seed(seed, "train"), noise=0.12, jitter=0.5)
    test = synth_dataset("blobs", 1000, size, classes, derive_seed(seed, "test"), noise=0.12, jitter=0.5)

    clf = build_model(
        ModelSpec("clf", (size, size, 1), (Flatten(), Dense(128), Relu(), Dense(classes), Softmax())),
        derive_seed(seed, "clf"),
    )
    train_classifier(clf, train.images, train.labels, OptimizerConfig(learning_rate=1e-3, batch_size=128, epochs=15, seed=derive_seed(seed, "clft")))
    clf.store.freeze_all()

    ae = build_model(
        ModelSpec("ae", (size, size, 1), (
            Conv(8, 3, 1, "same"), Relu(), MaxPool(5, 5), Flatten(),
            Dense(32), Dense(128), Relu(), Dense(size * size), Reshape((size, size, 1)),
        )),
        derive_seed(seed, "ae"),
    )
    train_defence(
        ae, clf, train.images, DefenceLossSpec(kind="kl"),
        OptimizerConfig(learning_rate=2e-3, batch_size=64, epochs=30, seed=derive_seed(seed, "aet")),
        checkpoint_every=5, checkpoint_dir=out, checkpoint_prefix="ae_kl",
    )

    ae.store.freeze_all()
    composed = compose_defended(clf, ae)
    batch = fgsm(composed, test.images, test.labels,
                 config=AttackConfig(kind="fgsm", epsilon=args.epsilon, target_mode="white_box"))
    print(f"white-box fgsm success rate: {batch.success.mean():.4f}")
    single = (clf.predict_class(ae.reconstruct(batch.adversarials)) == test.labels).mean()
    print(f"attacked checkpoint corrected accuracy: {single:.4f}")

    members = []
    for ep in (15, 20, 25):
        member = load_checkpoint(out / f"ae_kl_epoch_{ep:03d}.ckpt")
        member.store.freeze_all()
        members.append(EnsembleMember(ae=member, weight=0.8 / 3))
    votes = ensemble_predict(EnsembleSpec(members), clf, batch.adversarials)
    print(f"checkpoint-ensemble accuracy: {(votes == test.labels).mean():.4f}")

    auc = roc_auc(
        adversarial_score(clf, ae, test.images),
        adversarial_score(clf, ae, batch.adversarials),
    ).auc
    print(f"white-box detection auc: {auc:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
