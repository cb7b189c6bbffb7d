"""Command-line surface: one subcommand per pipeline stage so artifacts are
inspectable between stages.

    train-classifier  fit the classifier, write classifier.ckpt
    train-defence     fit defence autoencoder(s) against the frozen classifier
    attack            generate adversarial batches (grey- or white-box)
    score             adversarial scores for the clean test set
    calibrate         pick the detection threshold at a target FPR
    evaluate          accuracy tables, attack score files and verdict CSVs
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
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Annotated, ClassVar, Literal

import numpy as np

from . import attacks as atk
from . import blas
from . import defence as dfc
from . import evaluation as ev
from .artifacts import write_artifact
from .datasets import SYNTH_KINDS, Dataset, parse_cifar_binary, parse_idx, synth_dataset
from .errors import ConfigError, DataError, ParseError, PmdefError, UserError
from .models import DefendedModel, ModelSpec, build_model, load_checkpoint, save_checkpoint
from .schema import In, check_fields, from_dict
from .seeding import derive_seed
from .training import DefenceLossSpec, OptimizerConfig, epoch_checkpoints, train_classifier, train_defence

log = logging.getLogger("pmdef")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        self.print_usage(sys.stderr)
        raise UserError(message)


def _setup_logging() -> None:
    level = os.environ.get("PMDEF_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(name)s: %(message)s")


# The glibc mallopt parameters that pmdef fixes (numbers from malloc.h) and
# their values. The mmap threshold sits above the largest per-op array (in the
# grey-box pipeline a 150-row AE block's conv output, 3.8 MB; the classifier's
# 1000-row input is 3.2 MB) and the trim threshold above what one training step
# or one AE block frees at once, so per-op temporaries are reused from the heap.
# One arena: the units' threads then reuse the main heap instead of each
# keeping a high-water mark of its own.
_MALLOC_THRESHOLDS = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 64 << 20), ("arena_max", -8, 1))


def _fix_malloc_thresholds() -> dict | None:
    """Fix glibc's mmap and trim thresholds, which it otherwise moves at run
    time: a process that ran other work first can then hand freed pages back
    and fault them in again on every op; and its arena count. Returns the
    values set, or None where there is no glibc ``mallopt`` or it refused a
    value."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if all(mallopt(param, value) for _, param, value in _MALLOC_THRESHOLDS):
        return {name: value for name, _, value in _MALLOC_THRESHOLDS}
    return None


# ---------------------------------------------------------------------------
# the experiment schema


@dataclass
class SynthData:
    kind: ClassVar[str] = "synth"
    synth_kind: Literal[SYNTH_KINDS] = "blobs"
    image_size: Annotated[int, In(8)] = 12
    num_classes: Annotated[int, In(2)] = 4
    n_train: Annotated[int, In(1)] = 800
    n_test: Annotated[int, In(1)] = 200
    noise: Annotated[float, In(0)] = 0.15
    jitter: Annotated[float, In(0)] = 1.0

    def __post_init__(self):
        check_fields(self)

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
    seed: Annotated[int | None, In(0)] = None  # None: the stage derives one from the root seed


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
            if not values or not set(values) <= set(legal) or len(set(values)) != len(values):
                raise ConfigError(f"{key}: expected a non-empty list of distinct entries from {legal}, got {values}")


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
    checkpoint_every: Annotated[int, In(0)] = 0
    attacks: list[AttackEntry] = field(default_factory=list)
    attack_subset: Annotated[int | None, In(1)] = None
    eps_fpr: Annotated[float, In(0, 1)] = 0.05
    calibration_size: Annotated[int | None, In(1)] = None
    score_defence: str = "kl"
    report_defences: list[str] | None = None
    drift: DriftConfig = field(default_factory=DriftConfig)
    raw: dict = field(init=False, default_factory=dict)  # the config as read, echoed by the manifests

    def __post_init__(self):
        check_fields(self)
        names = [a.name for a in self.attacks]
        if len(set(names)) != len(names):
            raise ConfigError(f"attacks: every entry needs a unique 'name', got {names}")
        kinds = [s.kind for s in self.defence_losses]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"defence_losses: every entry needs a unique 'kind', got {kinds}")
        if self.classifier_spec and [layer.kind for layer in self.classifier_spec.layers[-1:]] != ["softmax"]:
            raise ConfigError("classifier_spec: must end in a softmax layer, whose probabilities every stage reads")
        depth = len(self.classifier_spec.layers) if self.classifier_spec else math.inf
        for i, s in enumerate(self.defence_losses):  # a probe reads one of the classifier's layers
            if s.probe and s.probe.source_layer >= depth:
                raise ConfigError(f"defence_losses[{i}].probe.source_layer: must be below the classifier's "
                                  f"layer count {depth}, got {s.probe.source_layer}")
        named = [("score_defence", self.score_defence)]  # keys that name a defence train-defence must train
        named += [(f"report_defences[{i}]", tag) for i, tag in enumerate(self.report_defences or [])]
        named += [(f"attacks[{i}].ae", a.ae) for i, a in enumerate(self.attacks) if a.target_mode == "white_box"]
        for key, tag in named:
            if tag not in kinds:
                raise ConfigError(f"{key}: {tag!r} is not a kind of defence_losses {kinds}")
        if self.report_defences is not None and self.score_defence not in self.report_defences:
            raise ConfigError(f"report_defences: must include score_defence {self.score_defence!r}, "
                              f"whose threshold evaluate gates with, got {self.report_defences}")
        ae = self.autoencoder_spec
        if ae and self.classifier_spec:  # the classifier reads what the autoencoder reads and writes
            ae_out = ae.layer_shapes[-1] if ae.layers else ae.input_shape
            if not ae.input_shape == ae_out == self.classifier_spec.input_shape:
                raise ConfigError(f"autoencoder_spec: maps {ae.input_shape} to {ae_out}, "
                                  f"but classifier_spec reads {self.classifier_spec.input_shape}")


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


def _final_loss(report) -> str:
    """A training report's final loss as a log line shows it."""
    return "none (no epoch ran)" if report.final_loss is None else f"{report.final_loss:.5f}"


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
        "blas_threads": blas.threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        lib = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{lib['name']} {lib['version']}"
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
    for i, row in enumerate(rows):  # the row on line i + 2 has the id i
        row_id, _, score = row.partition(",")
        try:
            score = float(score)
        except ValueError:  # also a third field
            raise ParseError(f"{path}:{i + 2}: expected 'id,score', got {row!r}") from None
        if row_id != str(i):
            raise ParseError(f"{path}:{i + 2}: expected the id {i}, got {row!r}")
        if not math.isfinite(score):
            raise ParseError(f"{path}:{i + 2}: expected a finite score, got {row!r}")
        scores.append(score)
    return np.asarray(scores)


# ---------------------------------------------------------------------------
# stages


def _load_classifier(out: Path):
    model = load_checkpoint(_require_file(out / "classifier.ckpt", "train-classifier"))
    model.store.freeze_all()
    return model


def _load_defence(exp: Experiment, out: Path, tag: str) -> dfc.Defence:
    """The frozen autoencoder ``tag``, scored the way its ``defence_losses`` entry trained it."""
    model = load_checkpoint(_require_file(out / f"ae_{tag}.ckpt", "train-defence"))
    model.store.freeze_all()
    return dfc.Defence(model, next(s.target_temperature for s in exp.defence_losses if s.kind == tag))


def _attack_inputs(exp: Experiment, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The test instances the attacks perturb: the first ``attack_subset``."""
    if exp.attack_subset is not None and exp.attack_subset > test.n:
        raise ConfigError(f"attack_subset: must be in [1, {test.n}], the test-set size, got {exp.attack_subset}")
    return test.images[: exp.attack_subset], test.labels[: exp.attack_subset]


def _load_attack(out: Path, name: str, inputs_crc32: int) -> atk.AdversarialBatch:
    path = _require_file(out / "attacks" / f"{name}.json", "attack")
    batch = atk.load_batch(path)
    if batch.originals_crc32 != inputs_crc32:
        raise ParseError(f"{path}: made from other rows than the dataset and attack_subset give now; rerun attack")
    return batch


def cmd_train_classifier(exp: Experiment, seed: int, out: Path) -> list[Path]:
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
    log.info("classifier trained: final loss %s, test accuracy %.4f", _final_loss(report), test_acc)
    return [ckpt, jsonl]


def cmd_train_defence(exp: Experiment, seed: int, out: Path) -> list[Path]:
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
        log.info("defence %s trained: final loss %s", tag, _final_loss(report))
    return artifacts


def cmd_attack(exp: Experiment, seed: int, out: Path) -> list[Path]:
    test = _required(exp, "dataset").load(seed, "test")
    x, y = _attack_inputs(exp, test)
    classifier = _load_classifier(out)
    attack_dir = out / "attacks"
    attack_dir.mkdir(exist_ok=True)
    artifacts = []
    for entry in _required(exp, "attacks"):
        if entry.target_mode == "white_box":
            target = DefendedModel(classifier, _load_defence(exp, out, entry.ae).ae)
        else:
            target = classifier
        batch = atk.run_attack(target, x, y, config=entry)
        json_path = attack_dir / f"{entry.name}.json"
        atk.save_batch(batch, json_path)
        artifacts += [json_path, attack_dir / f"{entry.name}.bin"]
        log.info("attack %s: success rate %.3f, mean l2 %.4f", entry.name, batch.success.mean(), batch.norms["l2"].mean())
    return artifacts


def _scoring(exp: Experiment, out: Path):
    """The frozen classifier and the ``score_defence``."""
    return _load_classifier(out), _load_defence(exp, out, exp.score_defence)


def cmd_score(exp: Experiment, seed: int, out: Path) -> list[Path]:
    """The clean test set's scores; evaluate writes each attack's from its own pass."""
    test = _required(exp, "dataset").load(seed, "test")
    path = out / "scores" / "clean_test.csv"
    path.parent.mkdir(exist_ok=True)
    _write_scores_csv(dfc.adversarial_score(*_scoring(exp, out), test.images), path)
    return [path]


def cmd_calibrate(exp: Experiment, seed: int, out: Path) -> list[Path]:
    train = _required(exp, "dataset").load(seed, "train")
    size = min(1000, train.n) if exp.calibration_size is None else exp.calibration_size
    if size > train.n:
        raise ConfigError(f"calibration_size: must be in [1, {train.n}], the training-set size, got {size}")
    classifier, defence = _scoring(exp, out)
    x_cal = train.images[-size:]
    scores = dfc.adversarial_score(classifier, defence, x_cal)
    t = dfc.calibrate_threshold(scores, exp.eps_fpr)
    path = out / "threshold.json"
    info = {"threshold": t, "eps_fpr": float(exp.eps_fpr), "n": size, "defence": exp.score_defence}
    write_artifact(path, json.dumps(info, sort_keys=True) + "\n")
    log.info("threshold %.6g at eps_fpr %.3f over %d normal scores", t, exp.eps_fpr, size)
    return [path]


def cmd_evaluate(exp: Experiment, seed: int, out: Path) -> list[Path]:
    test = _required(exp, "dataset").load(seed, "test")
    clean = _attack_inputs(exp, test)
    inputs_crc32 = atk.inputs_crc32(clean[0])
    classifier = _load_classifier(out)
    tags = exp.report_defences or [s.kind for s in exp.defence_losses]
    defences = {tag: _load_defence(exp, out, tag) for tag in tags}
    attack_sets = {}
    for entry in _required(exp, "attacks"):
        batch = _load_attack(out, entry.name, inputs_crc32)
        if batch.labels is None:
            raise DataError(f"attack batch {entry.name} carries no true labels; cannot compute accuracy")
        if (batch.labels >= classifier.num_classes).any():  # load_batch refuses labels < 0
            raise DataError(f"attack batch {entry.name} has a label outside [0, {classifier.num_classes}), "
                            "the classifier's classes")
        attack_sets[entry.name] = (batch.adversarials, batch.labels)
    threshold = None
    tpath = out / "threshold.json"
    if tpath.is_file():
        try:
            info = json.loads(tpath.read_text(encoding="utf-8"))
            tag, t = info["defence"], info["threshold"]
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise TypeError(f"'threshold' must be a number, got {t!r}")
            if math.isnan(t):
                raise ValueError("a NaN 'threshold' flags no score")
            threshold = float(t)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{tpath}: needs a JSON object with 'threshold' and 'defence': {exc!r}") from None
        if tag != exp.score_defence:
            raise ConfigError(f"{tpath}: gates defence {tag!r}, but score_defence is {exp.score_defence!r}; "
                              "rerun calibrate")
    rows, scores, decisions = ev.accuracy_report(classifier, defences, attack_sets, clean, exp.score_defence, threshold)
    report_path = out / "report_accuracy.csv"
    ev.accuracy_report_to_csv(rows, report_path)
    artifacts = [report_path]
    for name, attack_scores in scores.items():
        spath = out / "scores" / f"{name}.csv"
        spath.parent.mkdir(exist_ok=True)
        _write_scores_csv(attack_scores, spath)
        artifacts.append(spath)
    for name, decision in decisions.items():
        vpath = out / "verdicts" / f"{name}__{exp.score_defence}.csv"
        vpath.parent.mkdir(exist_ok=True)
        dfc.verdicts_to_csv(decision, threshold, vpath)
        artifacts.append(vpath)
    for row in rows:
        log.info("evaluate %s: %s", row["attack"], {k: v for k, v in row.items() if k != "attack"})
    return artifacts


def cmd_drift(exp: Experiment, seed: int, out: Path) -> list[Path]:
    test = _required(exp, "dataset").load(seed, "test")
    report = ev.drift_report(
        *_scoring(exp, out), test.images, test.labels, kinds=exp.drift.kinds, severities=exp.drift.severities,
        seed=derive_seed(seed, "drift") % (2**31),
    )
    jpath = out / "drift.json"
    cpath = out / "drift.csv"
    report.to_json(jpath)
    report.to_csv(cpath)
    return [jpath, cpath]


def _check_scored_as_configured(exp: Experiment, out: Path, stage: str) -> None:
    """Refuse score files that ``stage`` wrote under another seed or score_defence than ``exp`` gives."""
    path = _require_file(out / f"manifest_{stage}.json", stage)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        seed, tag = manifest["seed"], manifest["config"].get("score_defence", Experiment.score_defence)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{path}: needs a JSON object with 'seed' and 'config': {exc!r}") from None
    if (seed, tag) != (exp.seed, exp.score_defence):
        raise ConfigError(f"{path}: scores made under seed {seed!r} and score_defence {tag!r}, but the config gives "
                          f"seed {exp.seed} and score_defence {exp.score_defence!r}; rerun {stage}")


def cmd_roc(exp: Experiment, seed: int, out: Path) -> list[Path]:
    artifacts = []
    normal = _read_scores_csv(_require_file(out / "scores" / "clean_test.csv", "score"))
    adv = {e.name: _read_scores_csv(_require_file(out / "scores" / f"{e.name}.csv", "evaluate"))
           for e in _required(exp, "attacks")}
    for stage in ("score", "evaluate"):
        _check_scored_as_configured(exp, out, stage)
    for name, scores in adv.items():
        curve = ev.roc_auc(normal, scores)
        rpath = out / f"roc_{name}.json"
        write_artifact(rpath, json.dumps(vars(curve), sort_keys=True) + "\n")
        artifacts.append(rpath)
        log.info("roc %s: auc %.4f", name, curve.auc)
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


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="pmdef", description="prediction-matching adversarial defence pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--workers", type=int, default=1, help="accepted (at least 1) but has no effect: "
                       "C&W and the scoring stages run their units on every usable core")
        p.set_defaults(stage_parser=p)  # a stage flag's usage error prints the stage's usage
    return parser


def run_cli(argv) -> int:
    _setup_logging()
    malloc = _fix_malloc_thresholds()
    parser = build_parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            args.stage_parser.error(f"--workers must be >= 1, got {args.workers}")
        exp, out = _resolve(load_config(args.config), args)
        (out / f"manifest_{args.command}.json").unlink(missing_ok=True)  # a failed stage leaves no manifest
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        # every stage runs at one BLAS thread, so no artifact depends on the machine's thread count
        # and blas.on_cores gives independent units the cores; run.blas_threads reads the restored count
        with blas.one_thread():
            artifacts = _COMMANDS[args.command](exp, exp.seed, out)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        run = _run_facts(time.perf_counter() - t0, faults, malloc)
        write_manifest(out, args.command, exp.raw, exp.seed, artifacts, run)
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
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
