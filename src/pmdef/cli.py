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
import ctypes
import functools
import hashlib
import json
import logging
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import attacks as atk
from . import defence as dfc
from . import evaluation as ev
from .artifacts import write_artifact
from .datasets import Dataset, parse_cifar_binary, parse_idx, synth_dataset
from .errors import ConfigError, DataError, ParseError, PmdefError, UserError
from .models import ModelSpec, build_model, compose_defended, load_checkpoint, save_checkpoint
from .schema import from_dict
from .seeding import derive_seed
from .training import DefenceLossSpec, OptimizerConfig, epoch_checkpoints, train_classifier, train_defence

log = logging.getLogger("pmdef")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _setup_logging() -> None:
    level = os.environ.get("PMDEF_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(name)s: %(message)s")


# The glibc mallopt parameters that pmdef fixes (numbers from malloc.h) and
# their values. The mmap threshold sits above the largest per-op array (a
# 512-row AE block's conv output, 13.1 MB) and the trim threshold above what
# one training step or one 512-row block frees at once, so per-op temporaries
# are reused from the heap.
_MALLOC_THRESHOLDS = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 64 << 20))


def _fix_malloc_thresholds() -> dict | None:
    """Fix glibc's mmap and trim thresholds, which it otherwise moves at run
    time: a process that ran other work first can then hand freed pages back
    and fault them in again on every op. Returns the thresholds set, or None
    where there is no glibc ``mallopt`` or it refused a value."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if all(mallopt(param, value) for _, param, value in _MALLOC_THRESHOLDS):
        return {name: value for name, _, value in _MALLOC_THRESHOLDS}
    return None


@functools.cache
def _blas_threads_getter():
    """OpenBLAS's thread-count getter in the library numpy loaded, looked up
    once per process; None where there is none (numpy 1.x, other BLAS
    builds). The symbol is only reachable through numpy's own extension
    module, which links that library."""
    try:
        get = ctypes.cdll.LoadLibrary(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    return get


def _blas_threads() -> int | None:
    """The BLAS thread count, a result input: OpenBLAS rounds some GEMMs (the
    grey-box classifier's 400->128 layer) differently at 1 and 2 threads."""
    get = _blas_threads_getter()
    return None if get is None else get()


# ---------------------------------------------------------------------------
# the experiment schema


@dataclass
class SynthData:
    kind: ClassVar[str] = "synth"
    synth_kind: str = "blobs"
    image_size: int = 12
    num_classes: int = 4
    n_train: int = 800
    n_test: int = 200
    noise: float = 0.15
    jitter: float = 1.0

    def load(self, root_seed: int, split: str) -> Dataset:
        n = self.n_train if split == "train" else self.n_test
        return synth_dataset(kind=self.synth_kind, n=n, image_size=self.image_size, num_classes=self.num_classes,
                             seed=derive_seed(root_seed, "data", split), noise=self.noise, jitter=self.jitter)


def _check_files(*paths: str) -> None:
    for p in paths:
        if not Path(p).is_file():
            raise ConfigError(f"referenced dataset file missing: {p}")


@dataclass
class IdxData:
    kind: ClassVar[str] = "idx"
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str

    def __post_init__(self):
        _check_files(self.train_images, self.train_labels, self.test_images, self.test_labels)

    def load(self, root_seed: int, split: str) -> Dataset:
        return parse_idx(getattr(self, f"{split}_images"), getattr(self, f"{split}_labels"), name=f"idx_{split}")


@dataclass
class CifarData:
    kind: ClassVar[str] = "cifar"
    train_files: list[str]
    test_files: list[str]

    def __post_init__(self):
        _check_files(*self.train_files, *self.test_files)

    def load(self, root_seed: int, split: str) -> Dataset:
        return parse_cifar_binary(getattr(self, f"{split}_files"), name=f"cifar_{split}")


@dataclass
class StageOptimizer(OptimizerConfig):
    seed: int | None = None  # None: the stage derives one from the root seed


@dataclass(kw_only=True)
class AttackEntry(atk.AttackConfig):
    name: str
    ae: str = "kl"  # the defence a white-box attack targets


@dataclass
class DriftConfig:
    kinds: list[str] = field(default_factory=lambda: list(ev.CORRUPTION_PARAMS))
    severities: list[int] = field(default_factory=lambda: list(ev.SEVERITIES))

    def __post_init__(self):
        for key, values, legal in (("kinds", self.kinds, list(ev.CORRUPTION_PARAMS)),
                                   ("severities", self.severities, list(ev.SEVERITIES))):
            if not values or not set(values) <= set(legal):
                raise ConfigError(f"{key}: expected a non-empty list drawn from {legal}, got {values}")


@dataclass
class Experiment:
    """The top-level keys of an experiment config; README lists which stage
    reads which."""

    seed: int
    out: str | None = None
    dataset: SynthData | IdxData | CifarData | None = None
    classifier_spec: ModelSpec | None = None
    autoencoder_spec: ModelSpec | None = None
    classifier_opt: StageOptimizer = field(default_factory=StageOptimizer)
    defence_opt: StageOptimizer = field(default_factory=StageOptimizer)
    defence_losses: list[DefenceLossSpec] = field(default_factory=lambda: [DefenceLossSpec()])
    checkpoint_every: int = 0
    attacks: list[AttackEntry] = field(default_factory=list)
    attack_subset: int | None = None
    eps_fpr: float = 0.05
    calibration_size: int | None = None
    score_defence: str = "kl"
    report_defences: list[str] | None = None
    drift: DriftConfig = field(default_factory=DriftConfig)
    raw: dict = field(init=False, default_factory=dict)  # the config as read, echoed by the manifests

    def __post_init__(self):
        names = [a.name for a in self.attacks]
        if len(set(names)) != len(names):
            raise ConfigError(f"attacks: every entry needs a unique 'name', got {names}")
        kinds = [s.kind for s in self.defence_losses]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"defence_losses: every entry needs a unique 'kind', got {kinds}")
        if self.attack_subset is not None and self.attack_subset < 1:
            raise ConfigError(f"attack_subset: must be >= 1, got {self.attack_subset}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every: must be >= 0, got {self.checkpoint_every}")
        named = [("score_defence", self.score_defence)]  # keys that name a defence train-defence must train
        named += [(f"report_defences[{i}]", tag) for i, tag in enumerate(self.report_defences or [])]
        named += [(f"attacks[{i}].ae", a.ae) for i, a in enumerate(self.attacks) if a.target_mode == "white_box"]
        for key, tag in named:
            if tag not in kinds:
                raise ConfigError(f"{key}: {tag!r} is not a kind of defence_losses {kinds}")
        if self.report_defences is not None and self.score_defence not in self.report_defences:
            raise ConfigError(f"report_defences: must include score_defence {self.score_defence!r}, "
                              f"whose threshold evaluate gates with, got {self.report_defences}")


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


def _resolve(cfg: dict, args) -> tuple[Experiment, Path]:
    if args.seed is not None:
        cfg = {**cfg, "seed": args.seed}
    if "seed" not in cfg:
        raise ConfigError("a seed is mandatory: set 'seed' in the config or pass --seed")
    exp = from_dict(Experiment, cfg)
    exp.raw = cfg
    out = args.out or exp.out
    if not out:
        raise ConfigError("an output directory is mandatory: set 'out' in the config or pass --out")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return exp, out


def _required(exp: Experiment, key: str):
    """A config value the running stage cannot do without."""
    value = getattr(exp, key)
    if not value:
        raise ConfigError(f"this stage needs {key!r} in the config")
    return value


def _seeded(config, seed: int):
    """``config`` with the stage-derived ``seed`` unless the config set one."""
    return config if config.seed is not None else replace(config, seed=seed)


def _require_file(path: Path, hint: str) -> Path:
    if not path.is_file():
        raise UserError(f"missing required artifact {path}; run `{hint}` first")
    return path


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_facts(wall_time_s: float, minflt: int, malloc: dict | None) -> dict:
    """What a manifest records about the run itself: these vary between identical runs."""
    facts = {
        "wall_time_s": round(wall_time_s, 3),
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),  # Linux: KiB
        "minflt": minflt,
        "malloc": malloc,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    return facts


def write_manifest(out: Path, stage: str, cfg: dict, seed: int, artifacts: list[Path], run: dict) -> None:
    """Hash ``artifacts`` into ``manifest_<stage>.json``; its ``run`` block
    (``_run_facts``), kept apart from the hashes, says how long the stage
    took, how big, under which allocator policy and on what."""
    entries = {}
    for p in artifacts:
        rel = str(p.relative_to(out))
        if p.suffix == ".jsonl":
            entries[rel] = {"unhashed": True}  # wall time inside, so neither hash nor size repeats
        else:
            entries[rel] = {"sha256": _sha256(p)}
    manifest = {"stage": stage, "seed": seed, "config": cfg, "artifacts": entries, "run": run}
    write_artifact(out / f"manifest_{stage}.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _write_scores_csv(scores: np.ndarray, path: Path) -> None:
    write_artifact(path, "id,score\n" + "".join(f"{i},{s:.17g}\n" for i, s in enumerate(scores)))


def _read_scores_csv(path: Path) -> np.ndarray:
    header, *rows = Path(path).read_text(encoding="utf-8").strip().splitlines() or [""]
    if header != "id,score":
        raise ParseError(f"{path}:1: expected the header 'id,score', got {header!r}")
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


def _attack_inputs(exp: Experiment, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The test instances the attacks perturb: the first ``attack_subset``."""
    return test.images[: exp.attack_subset], test.labels[: exp.attack_subset]


def cmd_train_classifier(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    model = build_model(_required(exp, "classifier_spec"), derive_seed(seed, "train-classifier", "init"))
    train = _required(exp, "dataset").load(seed, "train")
    opt = _seeded(exp.classifier_opt, derive_seed(seed, "train-classifier", "shuffle"))
    report = train_classifier(model, train.images, train.labels, opt)
    ckpt = out / "classifier.ckpt"
    save_checkpoint(model, ckpt)
    jsonl = out / "classifier_train.jsonl"
    report.to_jsonl(jsonl)
    test = _required(exp, "dataset").load(seed, "test")
    test_acc = float((model.predict_class(test.images) == test.labels).mean())
    log.info("classifier trained: final loss %.4f, test accuracy %.4f", report.final_loss, test_acc)
    return [ckpt, jsonl]


def cmd_train_defence(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    ae_spec = _required(exp, "autoencoder_spec")
    train = _required(exp, "dataset").load(seed, "train")
    classifier = _load_classifier(out)
    artifacts = []
    for loss_spec in exp.defence_losses:
        tag = loss_spec.kind
        ae = build_model(ae_spec, derive_seed(seed, "train-defence", tag, "init"))
        opt = _seeded(exp.defence_opt, derive_seed(seed, "train-defence", tag, "shuffle"))
        report, _probe = train_defence(
            ae,
            classifier,
            train.images,
            loss_spec,
            opt,
            checkpoint_every=exp.checkpoint_every,
            checkpoint_dir=out,
            checkpoint_prefix=f"ae_{tag}",
        )
        ckpt = out / f"ae_{tag}.ckpt"
        save_checkpoint(ae, ckpt)
        jsonl = out / f"ae_{tag}_train.jsonl"
        report.to_jsonl(jsonl)
        artifacts += [ckpt, jsonl]
        artifacts += epoch_checkpoints(out, f"ae_{tag}", exp.checkpoint_every, opt.epochs).values()
        log.info("defence %s trained: final loss %.5f", tag, report.final_loss)
    return artifacts


def cmd_attack(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    test = _required(exp, "dataset").load(seed, "test")
    classifier = _load_classifier(out)
    x, y = _attack_inputs(exp, test)
    attack_dir = out / "attacks"
    attack_dir.mkdir(exist_ok=True)
    artifacts = []
    for entry in _required(exp, "attacks"):
        if entry.target_mode == "white_box":
            target = compose_defended(classifier, _load_defence(out, entry.ae))
        else:
            target = classifier
        batch = atk.run_attack(target, x, y, config=entry, workers=workers)
        json_path = attack_dir / f"{entry.name}.json"
        atk.save_batch(batch, json_path)
        artifacts += [json_path, attack_dir / f"{entry.name}.bin"]
        log.info("attack %s: success rate %.3f, mean l2 %.4f", entry.name, batch.success.mean(), batch.norms["l2"].mean())
    return artifacts


def _score_temperature(exp: Experiment, tag: str) -> float | None:
    """Temperature the defence ``tag`` sharpened its training target with, so
    that it is scored the way it was trained; None when untempered."""
    return next((s.target_temperature for s in exp.defence_losses if s.kind == tag), None)


def _scoring(exp: Experiment, out: Path):
    """The frozen classifier, the ``score_defence`` autoencoder and the
    temperature it is scored with."""
    tag = exp.score_defence
    return _load_classifier(out), _load_defence(out, tag), _score_temperature(exp, tag)


def cmd_score(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    test = _required(exp, "dataset").load(seed, "test")
    classifier, ae, temperature = _scoring(exp, out)
    score_dir = out / "scores"
    score_dir.mkdir(exist_ok=True)
    artifacts = []
    clean_path = score_dir / "clean_test.csv"
    _write_scores_csv(dfc.adversarial_score(classifier, ae, test.images, temperature=temperature), clean_path)
    artifacts.append(clean_path)
    for entry in exp.attacks:
        batch = atk.load_batch(_require_file(out / "attacks" / f"{entry.name}.json", "attack"))
        path = score_dir / f"{entry.name}.csv"
        _write_scores_csv(dfc.adversarial_score(classifier, ae, batch.adversarials, temperature=temperature), path)
        artifacts.append(path)
    return artifacts


def cmd_calibrate(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    train = _required(exp, "dataset").load(seed, "train")
    classifier, ae, temperature = _scoring(exp, out)
    size = min(1000, train.n) if exp.calibration_size is None else exp.calibration_size
    if size < 1 or size > train.n:
        raise ConfigError(f"calibration_size {size} outside [1, {train.n}]")
    x_cal = train.images[-size:]
    scores = dfc.adversarial_score(classifier, ae, x_cal, temperature=temperature)
    t = dfc.calibrate_threshold(scores, exp.eps_fpr)
    path = out / "threshold.json"
    info = {"threshold": t, "eps_fpr": float(exp.eps_fpr), "n": size, "defence": exp.score_defence}
    write_artifact(path, json.dumps(info, sort_keys=True) + "\n")
    log.info("threshold %.6g at eps_fpr %.3f over %d normal scores", t, exp.eps_fpr, size)
    return [path]


def cmd_evaluate(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    test = _required(exp, "dataset").load(seed, "test")
    classifier = _load_classifier(out)
    tags = exp.report_defences or [s.kind for s in exp.defence_losses]
    defences = {tag: _load_defence(out, tag) for tag in tags}
    attack_sets = {}
    for entry in _required(exp, "attacks"):
        batch = atk.load_batch(_require_file(out / "attacks" / f"{entry.name}.json", "attack"))
        if batch.labels is None:
            raise DataError(f"attack batch {entry.name} carries no true labels; cannot compute accuracy")
        attack_sets[entry.name] = (batch.adversarials, batch.labels)
    gate = temperature = None
    tpath = out / "threshold.json"
    if tpath.is_file():
        try:
            info = json.loads(tpath.read_text(encoding="utf-8"))
            tag, t = info["defence"], info["threshold"]
            if not isinstance(tag, str) or isinstance(t, bool) or not isinstance(t, (int, float)):
                raise TypeError(f"'defence' must be a string and 'threshold' a number, got {tag!r} and {t!r}")
            gate = (tag, float(t))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{tpath}: needs a JSON object with 'threshold' and 'defence': {exc!r}") from None
        if tag not in defences:
            raise ConfigError(f"{tpath}: gates defence {tag!r}, which report_defences {tags} leaves out; rerun calibrate")
        temperature = _score_temperature(exp, tag)
    rows = ev.accuracy_report(
        classifier, defences, attack_sets, _attack_inputs(exp, test), gate=gate, temperature=temperature
    )
    report_path = out / "report_accuracy.csv"
    ev.accuracy_report_to_csv(rows, report_path)
    artifacts = [report_path]
    if gate:
        verdict_dir = out / "verdicts"
        verdict_dir.mkdir(exist_ok=True)
        tag, t = gate
        for name, (x_adv, _y) in attack_sets.items():
            verdicts = dfc.detect_and_correct(classifier, defences[tag], x_adv, t, temperature=temperature)
            vpath = verdict_dir / f"{name}__{tag}.csv"
            dfc.verdicts_to_csv(verdicts, vpath)
            artifacts.append(vpath)
    for row in rows:
        log.info("evaluate %s: %s", row["attack"], {k: v for k, v in row.items() if k != "attack"})
    return artifacts


def cmd_drift(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    test = _required(exp, "dataset").load(seed, "test")
    classifier, ae, temperature = _scoring(exp, out)
    report = ev.drift_report(
        classifier, ae, test.images, test.labels, kinds=exp.drift.kinds, severities=exp.drift.severities,
        seed=derive_seed(seed, "drift") % (2**31), temperature=temperature,
    )
    jpath = out / "drift.json"
    cpath = out / "drift.csv"
    report.to_json(jpath)
    report.to_csv(cpath)
    return [jpath, cpath]


def cmd_roc(exp: Experiment, seed: int, out: Path, workers: int) -> list[Path]:
    artifacts = []
    clean_path = _require_file(out / "scores" / "clean_test.csv", "score")
    normal = _read_scores_csv(clean_path)
    for entry in _required(exp, "attacks"):
        spath = _require_file(out / "scores" / f"{entry.name}.csv", "score")
        adv = _read_scores_csv(spath)
        curve = ev.roc_auc(normal, adv)
        rpath = out / f"roc_{entry.name}.json"
        write_artifact(rpath, json.dumps(vars(curve), sort_keys=True) + "\n")
        artifacts.append(rpath)
        log.info("roc %s: auc %.4f", entry.name, curve.auc)
    return artifacts


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
    malloc = _fix_malloc_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        exp, out = _resolve(load_config(args.config), args)
        (out / f"manifest_{args.command}.json").unlink(missing_ok=True)  # a failed stage leaves no manifest
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        artifacts = _COMMANDS[args.command](exp, exp.seed, out, args.workers)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        run = _run_facts(time.perf_counter() - t0, faults, malloc)
        write_manifest(out, args.command, exp.raw, exp.seed, artifacts, run)
        return 0
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PmdefError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
