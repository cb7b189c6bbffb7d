"""Command-line surface: one subcommand per pipeline stage so artifacts are
inspectable between stages.

    train-classifier  fit the classifier, write classifier.ckpt
    train-defence     fit defence autoencoder(s) against the frozen classifier
    attack            generate adversarial batches (grey- or white-box)
    score             adversarial scores for clean and attacked test sets
    calibrate         pick the detection threshold at a target FPR
    evaluate          accuracy tables and verdict CSVs
    drift             corruption drift report
    roc               ROC/AUC per attack from score CSVs

Every run writes a manifest (config echo, seed, artifact hashes) into the
output directory. All randomness derives from the root seed per stage, so
identical config plus seed reproduces identical checkpoints and CSVs.
Verbosity comes from the PMDEF_LOG environment variable (DEBUG/INFO/...).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import attacks as atk
from . import defence as dfc
from . import evaluation as ev
from .datasets import Dataset, parse_cifar_binary, parse_idx, synth_dataset
from .errors import ConfigError, DataError, ParseError, PmdefError, UserError
from .models import ModelSpec, build_model, compose_defended, load_checkpoint, save_checkpoint
from .seeding import derive_seed
from .training import DefenceLossSpec, OptimizerConfig, train_classifier, train_defence

log = logging.getLogger("pmdef")

DEFAULT_EPS_FPR = 0.05
DEFAULT_CHECKPOINT_EVERY = 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _setup_logging() -> None:
    level = os.environ.get("PMDEF_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _resolve(cfg: dict, args) -> tuple[dict, int, Path]:
    if args.seed is not None:
        cfg = {**cfg, "seed": args.seed}
    if "seed" not in cfg:
        raise ConfigError("a seed is mandatory: set 'seed' in the config or pass --seed")
    out = args.out or cfg.get("out")
    if not out:
        raise ConfigError("an output directory is mandatory: set 'out' in the config or pass --out")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    _check_referenced_files(cfg)
    return cfg, int(cfg["seed"]), out


def _check_referenced_files(cfg: dict) -> None:
    ds = cfg.get("dataset", {})
    paths = []
    if ds.get("kind") == "idx":
        paths += [ds.get(k) for k in ("train_images", "train_labels", "test_images", "test_labels")]
    elif ds.get("kind") == "cifar":
        paths += list(ds.get("train_files", [])) + list(ds.get("test_files", []))
    for p in paths:
        if p is None or not Path(p).is_file():
            raise ConfigError(f"referenced dataset file missing: {p}")


def load_datasets(cfg: dict, root_seed: int) -> tuple[Dataset, Dataset]:
    ds = cfg.get("dataset")
    if not isinstance(ds, dict) or "kind" not in ds:
        raise ConfigError("config needs a 'dataset' object with a 'kind'")
    kind = ds["kind"]
    if kind == "synth":
        common = dict(
            kind=ds.get("synth_kind", "blobs"),
            image_size=int(ds.get("image_size", 12)),
            num_classes=int(ds.get("num_classes", 4)),
            noise=float(ds.get("noise", 0.15)),
            jitter=float(ds.get("jitter", 1.0)),
        )
        train = synth_dataset(n=int(ds.get("n_train", 800)), seed=derive_seed(root_seed, "data", "train"), **common)
        test = synth_dataset(n=int(ds.get("n_test", 200)), seed=derive_seed(root_seed, "data", "test"), **common)
        return train, test
    if kind == "idx":
        train = parse_idx(ds["train_images"], ds["train_labels"], name="idx_train")
        test = parse_idx(ds["test_images"], ds["test_labels"], name="idx_test")
        return train, test
    if kind == "cifar":
        standardize = bool(ds.get("standardize", True))
        train = parse_cifar_binary(ds["train_files"], name="cifar_train", standardize=standardize)
        test = parse_cifar_binary(ds["test_files"], name="cifar_test", standardize=standardize)
        return train, test
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _defence_loss_specs(cfg: dict) -> list[DefenceLossSpec]:
    if "defence_losses" in cfg:
        return [DefenceLossSpec.from_dict(d) for d in cfg["defence_losses"]]
    return [DefenceLossSpec.from_dict(cfg.get("defence_loss", {"kind": "kl"}))]


def _model_spec(cfg: dict, key: str) -> ModelSpec:
    if key not in cfg:
        raise ConfigError(f"config has no {key!r}")
    return ModelSpec.from_dict(cfg[key])


def _require_file(path: Path, hint: str) -> Path:
    if not path.is_file():
        raise UserError(f"missing required artifact {path}; run `{hint}` first")
    return path


def _opt_config(cfg: dict, key: str, seed: int) -> OptimizerConfig:
    d = dict(cfg.get(key, {}))
    d.setdefault("seed", seed)
    return OptimizerConfig.from_dict(d)


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out: Path, stage: str, cfg: dict, seed: int, artifacts: list[Path]) -> Path:
    entries = {}
    for p in artifacts:
        rel = str(p.relative_to(out))
        if p.suffix == ".jsonl":
            entries[rel] = {"unhashed": True, "bytes": p.stat().st_size}  # wall time inside
        else:
            entries[rel] = {"sha256": _sha256(p)}
    manifest = {"stage": stage, "seed": seed, "config": cfg, "artifacts": entries}
    path = out / f"manifest_{stage}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_scores_csv(scores: np.ndarray, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("id,score\n")
        for i, s in enumerate(scores):
            fh.write(f"{i},{s:.17g}\n")


def _read_scores_csv(path: Path) -> np.ndarray:
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()[1:]
    scores = []
    for lineno, row in enumerate(rows, start=2):
        try:
            scores.append(float(row.split(",")[1]))
        except (IndexError, ValueError):
            raise ParseError(f"{path}:{lineno}: expected 'id,score', got {row!r}") from None
    return np.asarray(scores)


# ---------------------------------------------------------------------------
# stages


def _load_classifier(out: Path):
    model = load_checkpoint(_require_file(out / "classifier.ckpt", "train-classifier"))
    model.store.freeze_all()
    return model


def _load_defence(out: Path, tag: str):
    model = load_checkpoint(_require_file(out / f"ae_{tag}.ckpt", "train-defence"))
    model.store.freeze_all()
    return model


def cmd_train_classifier(cfg: dict, seed: int, out: Path, workers: int) -> int:
    model = build_model(_model_spec(cfg, "classifier_spec"), derive_seed(seed, "train-classifier", "init"))
    train, test = load_datasets(cfg, seed)
    opt = _opt_config(cfg, "classifier_opt", derive_seed(seed, "train-classifier", "shuffle"))
    report = train_classifier(model, train.images, train.labels, opt)
    ckpt = out / "classifier.ckpt"
    save_checkpoint(model, ckpt)
    jsonl = out / "classifier_train.jsonl"
    report.to_jsonl(jsonl)
    test_acc = float((model.predict_class(test.images) == test.labels).mean())
    log.info("classifier trained: final loss %.4f, test accuracy %.4f", report.final_loss, test_acc)
    write_manifest(out, "train-classifier", cfg, seed, [ckpt, jsonl])
    return 0


def cmd_train_defence(cfg: dict, seed: int, out: Path, workers: int) -> int:
    ae_spec = _model_spec(cfg, "autoencoder_spec")
    train, _ = load_datasets(cfg, seed)
    classifier = _load_classifier(out)
    artifacts = []
    for loss_spec in _defence_loss_specs(cfg):
        tag = loss_spec.kind
        ae = build_model(ae_spec, derive_seed(seed, "train-defence", tag, "init"))
        opt = _opt_config(cfg, "defence_opt", derive_seed(seed, "train-defence", tag, "shuffle"))
        every = cfg.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)
        report, _probe = train_defence(
            ae,
            classifier,
            train.images,
            loss_spec,
            opt,
            checkpoint_every=every,
            checkpoint_dir=out,
            checkpoint_prefix=f"ae_{tag}",
        )
        ckpt = out / f"ae_{tag}.ckpt"
        save_checkpoint(ae, ckpt)
        jsonl = out / f"ae_{tag}_train.jsonl"
        report.to_jsonl(jsonl)
        artifacts += [ckpt, jsonl]
        artifacts += sorted(out.glob(f"ae_{tag}_epoch_*.ckpt"))
        log.info("defence %s trained: final loss %.5f", tag, report.final_loss)
    write_manifest(out, "train-defence", cfg, seed, artifacts)
    return 0


def _attack_entries(cfg: dict) -> list[dict]:
    entries = cfg.get("attacks", [])
    if not entries:
        raise ConfigError("config has no 'attacks' list")
    names = [e.get("name") for e in entries]
    if None in names or len(set(names)) != len(names):
        raise ConfigError("every attack entry needs a unique 'name'")
    return entries


def cmd_attack(cfg: dict, seed: int, out: Path, workers: int) -> int:
    _, test = load_datasets(cfg, seed)
    classifier = _load_classifier(out)
    subset = cfg.get("attack_subset")
    x = test.images[: int(subset)] if subset else test.images
    y = test.labels[: x.shape[0]]
    attack_dir = out / "attacks"
    attack_dir.mkdir(exist_ok=True)
    artifacts = []
    for entry in _attack_entries(cfg):
        entry = dict(entry)
        name = entry.pop("name")
        ae_tag = entry.pop("ae", "kl")
        entry.setdefault("seed", derive_seed(seed, "attack", name))
        config = atk.AttackConfig.from_dict(entry)
        if config.target_mode == "white_box":
            target = compose_defended(classifier, _load_defence(out, ae_tag))
        else:
            target = classifier
        batch = atk.run_attack(target, x, y, config=config, workers=workers)
        json_path = attack_dir / f"{name}.json"
        atk.save_batch(batch, json_path)
        artifacts += [json_path, attack_dir / f"{name}.bin"]
        log.info("attack %s: success rate %.3f, mean l2 %.4f", name, batch.success.mean(), batch.norms["l2"].mean())
    write_manifest(out, "attack", cfg, seed, artifacts)
    return 0


def _score_defence_tag(cfg: dict) -> str:
    return cfg.get("score_defence", "kl")


def _score_temperature(cfg: dict, tag: str) -> float | None:
    """Temperature the defence ``tag`` sharpened its training target with, so
    that it is scored the way it was trained; None when untempered."""
    return next((s.target_temperature for s in _defence_loss_specs(cfg) if s.kind == tag), None)


def cmd_score(cfg: dict, seed: int, out: Path, workers: int) -> int:
    _, test = load_datasets(cfg, seed)
    classifier = _load_classifier(out)
    tag = _score_defence_tag(cfg)
    ae = _load_defence(out, tag)
    temperature = _score_temperature(cfg, tag)
    score_dir = out / "scores"
    score_dir.mkdir(exist_ok=True)
    artifacts = []
    clean_path = score_dir / "clean_test.csv"
    _write_scores_csv(dfc.adversarial_score(classifier, ae, test.images, temperature=temperature), clean_path)
    artifacts.append(clean_path)
    for entry in cfg.get("attacks", []):
        name = entry["name"]
        batch_path = out / "attacks" / f"{name}.json"
        _require_file(batch_path, "attack")
        batch = atk.load_batch(batch_path)
        path = score_dir / f"{name}.csv"
        _write_scores_csv(dfc.adversarial_score(classifier, ae, batch.adversarials, temperature=temperature), path)
        artifacts.append(path)
    write_manifest(out, "score", cfg, seed, artifacts)
    return 0


def cmd_calibrate(cfg: dict, seed: int, out: Path, workers: int) -> int:
    train, _ = load_datasets(cfg, seed)
    classifier = _load_classifier(out)
    tag = _score_defence_tag(cfg)
    ae = _load_defence(out, tag)
    size = int(cfg.get("calibration_size", min(1000, train.n)))
    if size < 1 or size > train.n:
        raise ConfigError(f"calibration_size {size} outside [1, {train.n}]")
    x_cal = train.images[-size:]
    scores = dfc.adversarial_score(classifier, ae, x_cal, temperature=_score_temperature(cfg, tag))
    eps_fpr = float(cfg.get("eps_fpr", DEFAULT_EPS_FPR))
    t = dfc.calibrate_threshold(scores, eps_fpr)
    path = out / "threshold.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"threshold": t, "eps_fpr": eps_fpr, "n": size, "defence": tag}, fh, sort_keys=True)
        fh.write("\n")
    log.info("threshold %.6g at eps_fpr %.3f over %d normal scores", t, eps_fpr, size)
    write_manifest(out, "calibrate", cfg, seed, [path])
    return 0


def cmd_evaluate(cfg: dict, seed: int, out: Path, workers: int) -> int:
    _, test = load_datasets(cfg, seed)
    classifier = _load_classifier(out)
    tags = cfg.get("report_defences") or [s.kind for s in _defence_loss_specs(cfg)]
    defences = {}
    for tag in tags:
        path = out / f"ae_{tag}.ckpt"
        if not path.is_file():
            raise ConfigError(f"requested defence column {tag!r} has no checkpoint at {path}")
        defences[tag] = _load_defence(out, tag)
    attack_sets = {}
    subset = cfg.get("attack_subset")
    for entry in _attack_entries(cfg):
        name = entry["name"]
        batch_path = out / "attacks" / f"{name}.json"
        _require_file(batch_path, "attack")
        batch = atk.load_batch(batch_path)
        if batch.labels is None:
            raise DataError(f"attack batch {name} carries no true labels; cannot compute accuracy")
        attack_sets[name] = (batch.adversarials, batch.labels)
    x_clean = test.images[: int(subset)] if subset else test.images
    y_clean = test.labels[: x_clean.shape[0]]
    thresholds = None
    tpath = out / "threshold.json"
    if tpath.is_file():
        try:
            info = json.loads(tpath.read_text(encoding="utf-8"))
            thresholds = {info["defence"]: float(info["threshold"])}
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{tpath}: needs a JSON object with 'threshold' and 'defence': {exc!r}") from None
    temperature = _score_temperature(cfg, info["defence"]) if thresholds else None
    rows = ev.accuracy_report(classifier, defences, attack_sets, (x_clean, y_clean), thresholds=thresholds, temperature=temperature)
    report_path = out / "report_accuracy.csv"
    ev.accuracy_report_to_csv(rows, report_path)
    artifacts = [report_path]
    if thresholds:
        verdict_dir = out / "verdicts"
        verdict_dir.mkdir(exist_ok=True)
        tag, t = next(iter(thresholds.items()))
        if tag in defences:
            for name, (x_adv, _y) in attack_sets.items():
                verdicts = dfc.detect_and_correct(classifier, defences[tag], x_adv, t, temperature=temperature)
                vpath = verdict_dir / f"{name}__{tag}.csv"
                dfc.verdicts_to_csv(verdicts, vpath)
                artifacts.append(vpath)
    for row in rows:
        log.info("evaluate %s: %s", row["attack"], {k: v for k, v in row.items() if k != "attack"})
    write_manifest(out, "evaluate", cfg, seed, artifacts)
    return 0


def cmd_drift(cfg: dict, seed: int, out: Path, workers: int) -> int:
    _, test = load_datasets(cfg, seed)
    classifier = _load_classifier(out)
    tag = _score_defence_tag(cfg)
    ae = _load_defence(out, tag)
    drift_cfg = cfg.get("drift", {})
    kinds = drift_cfg.get("kinds", list(ev.CORRUPTION_PARAMS))
    severities = drift_cfg.get("severities", list(ev.SEVERITIES))
    report = ev.drift_report(
        classifier, ae, test.images, test.labels, kinds=kinds, severities=severities,
        seed=derive_seed(seed, "drift") % (2**31), temperature=_score_temperature(cfg, tag),
    )
    jpath = out / "drift.json"
    cpath = out / "drift.csv"
    report.to_json(jpath)
    report.to_csv(cpath)
    write_manifest(out, "drift", cfg, seed, [jpath, cpath])
    return 0


def cmd_roc(cfg: dict, seed: int, out: Path, workers: int) -> int:
    artifacts = []
    clean_path = _require_file(out / "scores" / "clean_test.csv", "score")
    normal = _read_scores_csv(clean_path)
    for entry in _attack_entries(cfg):
        name = entry["name"]
        spath = _require_file(out / "scores" / f"{name}.csv", "score")
        adv = _read_scores_csv(spath)
        curve = ev.roc_auc(normal, adv)
        rpath = out / f"roc_{name}.json"
        with open(rpath, "w", encoding="utf-8") as fh:
            json.dump(curve.to_dict(), fh, sort_keys=True)
            fh.write("\n")
        artifacts.append(rpath)
        log.info("roc %s: auc %.4f", name, curve.auc)
    write_manifest(out, "roc", cfg, seed, artifacts)
    return 0


_COMMANDS = {
    "train-classifier": cmd_train_classifier,
    "train-defence": cmd_train_defence,
    "attack": cmd_attack,
    "score": cmd_score,
    "calibrate": cmd_calibrate,
    "evaluate": cmd_evaluate,
    "drift": cmd_drift,
    "roc": cmd_roc,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="pmdef", description="prediction-matching adversarial defence pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--workers", type=int, default=1, help="worker threads for C&W attacks (default 1)")
    return parser


def run_cli(argv) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        cfg, seed, out = _resolve(cfg, args)
        return _COMMANDS[args.command](cfg, seed, out, max(1, args.workers))
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PmdefError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
