import argparse
import builtins
import csv
import io
import json
import math
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import threading
import typing
import zlib
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmdef import artifacts, blas, cli, errors
from pmdef import defence as dfc
from pmdef.attacks import load_batch
from pmdef.cli import run_cli
from pmdef.datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from pmdef.errors import UserError
from pmdef.evaluation import roc_auc
from pmdef.models import CHECKPOINT_MAGIC, AnyLayer, Model, ModelSpec, build_model, load_checkpoint, save_checkpoint
from pmdef.schema import from_dict
from toys import fake_blas


def _toy_config(out_dir) -> dict:
    size = 8
    return {
        "seed": 5,
        "out": str(out_dir),
        "dataset": {
            "kind": "synth",
            "synth_kind": "blobs",
            "image_size": size,
            "num_classes": 3,
            "n_train": 120,
            "n_test": 60,
            "noise": 0.1,
            "jitter": 0.4,
        },
        "classifier_spec": {
            "name": "clf",
            "input_shape": [size, size, 1],
            "standardize": False,
            "layers": [
                {"type": "flatten"},
                {"type": "dense", "units": 24},
                {"type": "relu"},
                {"type": "dense", "units": 3},
                {"type": "softmax"},
            ],
        },
        "autoencoder_spec": {
            "name": "ae",
            "input_shape": [size, size, 1],
            "standardize": False,
            "layers": [
                {"type": "flatten"},
                {"type": "dense", "units": 12},
                {"type": "relu"},
                {"type": "dense", "units": size * size},
                {"type": "reshape", "shape": [size, size, 1]},
            ],
        },
        "classifier_opt": {"kind": "adam", "learning_rate": 0.003, "batch_size": 32, "epochs": 6},
        "defence_opt": {"kind": "adam", "learning_rate": 0.003, "batch_size": 32, "epochs": 4},
        "defence_losses": [{"kind": "kl"}],
        "checkpoint_every": 2,
        "attacks": [{"name": "fgsm02", "kind": "fgsm", "epsilon": 0.2, "target_mode": "grey_box"}],
        "attack_subset": 30,
        "eps_fpr": 0.1,
        "calibration_size": 60,
        "report_defences": ["kl"],
    }


def _write_config(tmp_path, out_dir, **overrides):
    cfg = {**_toy_config(out_dir), **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_flag_exits_1_with_usage(capsys):
    code = run_cli(["train-classifier", "--config", "x.json", "--frobnicate"])
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_workers_is_accepted_and_reaches_no_stage(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "attack", lambda *args: seen.append(args[1:]) or [])
    path = _write_config(tmp_path, tmp_path / "run")
    assert run_cli(["attack", "--config", str(path)]) == 0
    assert run_cli(["attack", "--config", str(path), "--workers", "3"]) == 0
    assert seen == [(5, tmp_path / "run")] * 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    path = _write_config(tmp_path, tmp_path / "run")
    assert run_cli(["attack", "--config", str(path), "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pmdef attack") and err.endswith(f"error: --workers must be >= 1, got {workers}\n")


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [["--help"], ["score", "--help"]], ids=["pmdef", "stage"])
def test_help_exits_0(capsys, argv):
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.startswith("usage: pmdef")


# every class of pmdef.errors below its three bases
_CONCRETE_ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PmdefError)
                    and c not in (errors.PmdefError, UserError, errors.RuntimeFailure)]


def test_the_error_classes_are_the_ten_the_cli_tells_apart_each_raised_in_the_package():
    assert sorted(c.__name__ for c in _CONCRETE_ERRORS) == [
        "ConfigError", "ContractError", "DataError", "DimensionError", "NonFiniteError", "ParameterError", "ParseError",
    ]
    source = "".join(p.read_text(encoding="utf-8") for p in Path(cli.__file__).parent.glob("*.py"))
    for cls in _CONCRETE_ERRORS:
        assert issubclass(cls, UserError) != issubclass(cls, errors.RuntimeFailure), cls
        assert f"raise {cls.__name__}(" in source, f"{cls.__name__} is raised nowhere in pmdef"


@pytest.mark.parametrize("cls", _CONCRETE_ERRORS, ids=lambda c: c.__name__)
def test_a_stage_error_exits_1_for_a_user_error_and_2_for_a_runtime_failure(tmp_path, monkeypatch, capsys, cls):
    def stage(exp, seed, out):
        raise cls("the message")

    monkeypatch.setitem(cli._COMMANDS, "score", stage)
    code = run_cli(["score", "--config", str(_write_config(tmp_path, tmp_path / "run"))])
    assert (code, capsys.readouterr().err) == ((1, "error: the message\n") if issubclass(cls, UserError)
                                                else (2, "failure: the message\n"))
    assert not (tmp_path / "run" / "manifest_score.json").exists()


@pytest.mark.parametrize("kind", ["idx", "cifar"])
def test_an_empty_dataset_file_exits_1_naming_the_dataset(tmp_path, capsys, kind):
    empty, labels = tmp_path / "empty", tmp_path / "labels"  # 0 CIFAR records, or a well-formed pair of 0 IDX images of 8x8
    empty.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 8, 8) if kind == "idx" else b"")
    labels.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 0))
    dataset = ({"train_images": str(empty), "train_labels": str(labels), "test_images": str(empty), "test_labels": str(labels)}
               if kind == "idx" else {"train_files": [str(empty)], "test_files": [str(empty)]})
    path = _write_config(tmp_path, tmp_path / "run", dataset={"kind": kind, **dataset})
    assert run_cli(["train-classifier", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {kind}_train: the dataset has no rows\n", err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run_cli(["train-classifier", "--config", str(tmp_path / "none.json")]) == 1
    assert "none.json" in capsys.readouterr().err


def test_seed_is_mandatory(tmp_path, capsys):
    out = tmp_path / "run"
    path = _write_config(tmp_path, out)
    cfg = json.loads(path.read_text())
    del cfg["seed"]
    path.write_text(json.dumps(cfg))
    assert run_cli(["train-classifier", "--config", str(path)]) == 1
    assert "seed" in capsys.readouterr().err


def test_evaluate_without_attack_artifact_names_missing_file(tmp_path, capsys):
    out = tmp_path / "run"
    path = _write_config(tmp_path, out)
    assert run_cli(["train-classifier", "--config", str(path)]) == 0
    assert run_cli(["train-defence", "--config", str(path)]) == 0
    code = run_cli(["evaluate", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "fgsm02" in err and "attack" in err


def test_full_pipeline_smoke_and_manifests(tmp_path, monkeypatch):
    out = tmp_path / "run"
    path = _write_config(tmp_path, out)
    replaced, replace = set(), os.replace

    def recording(src, dst):
        replaced.add(dst)
        replace(src, dst)

    monkeypatch.setattr(artifacts.os, "replace", recording)
    for stage in ["train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate", "drift", "roc"]:
        assert run_cli([stage, "--config", str(path)]) == 0, stage
    # every file of the run reached disk through write_artifact's temp-file-and-replace
    assert replaced == {p for p in out.rglob("*") if p.is_file()}
    assert (out / "classifier.ckpt").is_file()
    assert (out / "ae_kl.ckpt").is_file()
    assert (out / "ae_kl_epoch_002.ckpt").is_file()
    assert (out / "attacks" / "fgsm02.json").is_file()
    assert (out / "attacks" / "fgsm02.bin").is_file()
    assert (out / "scores" / "clean_test.csv").is_file()
    assert (out / "threshold.json").is_file()
    assert (out / "report_accuracy.csv").is_file()
    assert (out / "drift.json").is_file()
    # roc is written from vars(curve): the same bytes as an asdict dump, without its deep copies
    normal, adv = (cli._read_scores_csv(out / "scores" / f"{name}.csv") for name in ("clean_test", "fgsm02"))
    curve = roc_auc(normal, adv)
    assert (out / "roc_fgsm02.json").read_text() == json.dumps(asdict(curve), sort_keys=True) + "\n"
    manifest = json.loads((out / "manifest_train-classifier.json").read_text())
    assert manifest["stage"] == "train-classifier"
    assert manifest["seed"] == 5
    assert "classifier.ckpt" in manifest["artifacts"]
    assert "sha256" in manifest["artifacts"]["classifier.ckpt"]
    # the run block: how long, how big, on what
    run = manifest["run"]
    assert run["wall_time_s"] > 0 and run["max_rss_mb"] > 0
    assert run["python"] == platform.python_version() and run["numpy"] == np.__version__
    if np.lib.NumpyVersion(np.__version__) >= "1.26.0":  # show_config(mode="dicts") exists
        assert run["blas"].split()[0] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert run["blas_threads"] is None or (isinstance(run["blas_threads"], int) and run["blas_threads"] >= 1)
    # report has the expected columns
    header = (out / "report_accuracy.csv").read_text().splitlines()[0].split(",")
    assert header[:3] == ["attack", "no_attack", "no_defence"]
    assert "kl" in header


def test_reruns_reproduce_identical_artifacts(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = _write_config(tmp_path, out_a)
    stages = ["train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate"]
    for stage in stages:
        assert run_cli([stage, "--config", str(cfg_a)]) == 0
    cfg_b = tmp_path / "config_b.json"
    data = json.loads(cfg_a.read_text())
    data["out"] = str(out_b)
    cfg_b.write_text(json.dumps(data))
    for stage in stages:
        assert run_cli([stage, "--config", str(cfg_b)]) == 0
    for rel in [
        "classifier.ckpt",
        "ae_kl.ckpt",
        "attacks/fgsm02.bin",
        "scores/clean_test.csv",
        "scores/fgsm02.csv",
        "threshold.json",
        "report_accuracy.csv",
        "verdicts/fgsm02__kl.csv",
    ]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    for stage in stages:
        a, b = (json.loads((out / f"manifest_{stage}.json").read_text()) for out in (out_a, out_b))
        assert a["artifacts"] == b["artifacts"], stage


class _FakeLibc:
    """A libc whose ``mallopt`` records its calls and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def _run_block(tmp_path, stage="train-classifier") -> dict:
    out = tmp_path / "run"
    assert run_cli([stage, "--config", str(_write_config(tmp_path, out))]) == 0
    return json.loads((out / f"manifest_{stage}.json").read_text())["run"]


def test_run_cli_fixes_the_malloc_thresholds_and_records_them(tmp_path, monkeypatch):
    libc, opened = _FakeLibc(), []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or libc)
    run = _run_block(tmp_path)
    assert opened == ["libc.so.6"]
    # M_ARENA_MAX is -8, M_MMAP_THRESHOLD -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert sorted(libc.calls) == [(-8, 1), (-3, 32 << 20), (-1, 64 << 20)]
    assert run["malloc"] == {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20, "arena_max": 1}
    assert isinstance(run["minflt"], int) and run["minflt"] >= 0


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize(
    "cdll",
    [_no_libc, lambda name: SimpleNamespace(), lambda name: _FakeLibc(result=0)],
    ids=["no-libc", "no-mallopt", "mallopt-refuses"],
)
def test_without_a_glibc_mallopt_the_stage_runs_unchanged(tmp_path, monkeypatch, capsys, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    run = _run_block(tmp_path)
    assert run["malloc"] is None
    assert "error" not in capsys.readouterr().err


_STAGES = ["train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate", "drift", "roc"]


def _toy_pipeline_in_a_fresh_process(tmp_path, stub: bool, config=_toy_config, env: dict | None = None) -> dict:
    """The manifests of every stage of the pipeline that ``config(out)``
    gives, run in a new interpreter (so no earlier test has set the
    allocator policy, and ``env`` reaches OpenBLAS before it loads), with
    ``_fix_malloc_thresholds`` stubbed out or not."""
    out = tmp_path / ("stubbed" if stub else "applied")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(out)))
    script = (
        "import sys\nfrom pmdef import cli\n"
        + ("cli._fix_malloc_thresholds = lambda: None\n" if stub else "")
        + f"sys.exit(max(cli.run_cli([s, '--config', {str(path)!r}]) for s in {_STAGES!r}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {s: json.loads((out / f"manifest_{s}.json").read_text()) for s in _STAGES}


def test_the_allocator_policy_leaves_every_artifact_byte_identical(tmp_path):
    applied = _toy_pipeline_in_a_fresh_process(tmp_path, stub=False)
    stubbed = _toy_pipeline_in_a_fresh_process(tmp_path, stub=True)
    assert {s: m["artifacts"] for s, m in applied.items()} == {s: m["artifacts"] for s, m in stubbed.items()}
    assert sum(len(m["artifacts"]) for m in applied.values()) >= 10
    assert all(m["run"]["malloc"] is None for m in stubbed.values())
    if platform.libc_ver()[0] == "glibc":  # the real ctypes path, not a fake libc
        assert all(m["run"]["malloc"] is not None for m in applied.values())


def _greybox_shaped_config(out_dir) -> dict:
    """The toy config on 20x20x1 inputs with a dense 128 layer, plus a C&W
    attack: OpenBLAS rounds that 400->128 GEMM differently at 1 and 2
    threads, and smaller toys do not show it."""
    size = 20
    cfg = _toy_config(out_dir)
    cfg["dataset"]["image_size"] = size
    for spec in (cfg["classifier_spec"], cfg["autoencoder_spec"]):
        spec["input_shape"] = [size, size, 1]
    cfg["classifier_spec"]["layers"][1]["units"] = 128
    cfg["autoencoder_spec"]["layers"][3]["units"] = size * size
    cfg["autoencoder_spec"]["layers"][4]["shape"] = [size, size, 1]
    cfg["attacks"].append({"name": "cw", "kind": "cw_l2", "c_init": 10.0, "binary_steps": 1, "max_iter": 10, "lr": 0.1})
    return cfg


@pytest.mark.skipif(blas.threads_setter() is None or blas.usable_cores() < 2,
                    reason="needs a settable OpenBLAS and two cores for it to use")
def test_every_artifact_of_the_pipeline_is_the_same_at_one_and_two_blas_threads(tmp_path):
    runs = []
    for n in (1, 2):
        (tmp_path / str(n)).mkdir()
        runs.append(_toy_pipeline_in_a_fresh_process(tmp_path / str(n), stub=False, config=_greybox_shaped_config,
                                                     env={"OPENBLAS_NUM_THREADS": str(n)}))
    # the manifests record the machine's count, not the one thread the stages run at
    assert [{m["run"]["blas_threads"] for m in run.values()} for run in runs] == [{1}, {2}]
    one, two = ({s: m["artifacts"] for s, m in run.items()} for run in runs)
    assert sum(len(artifacts) for artifacts in one.values()) >= 20
    for stage in _STAGES:
        assert one[stage] == two[stage], stage


def test_the_run_block_records_the_blas_thread_count_or_null(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "threads_getter", lambda: lambda: 3)
    assert _run_block(tmp_path)["blas_threads"] == 3
    monkeypatch.setattr(blas, "threads_getter", lambda: None)
    assert _run_block(tmp_path)["blas_threads"] is None
    monkeypatch.undo()
    for load in (_no_libc, lambda name: SimpleNamespace()):  # no library, or a BLAS without the symbols
        monkeypatch.setattr(blas.ctypes, "cdll", SimpleNamespace(LoadLibrary=load))
        assert blas.threads_getter.__wrapped__() is None and blas.threads_setter.__wrapped__() is None


def test_the_blas_thread_count_is_read_from_the_openblas_numpy_loaded():
    """The real ctypes lookup, in a fresh interpreter whose OpenBLAS is capped
    at one thread by its environment variable."""
    code = "from pmdef import blas\nprint(blas.threads())"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    try:  # numpy's 64-bit-int scipy-openblas wheels export the getter
        bundled = "scipy_openblas64" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["lib directory"]
    except (TypeError, KeyError):  # numpy < 1.26, or no BLAS lib directory reported
        bundled = False
    assert proc.stdout.strip() == "1" if bundled else proc.stdout.strip() in ("None", "1")
    assert blas.threads_getter() is blas.threads_getter()  # looked up once per process
    assert blas.threads_setter() is blas.threads_setter()
    if bundled:  # and the setter beside it, which run_cli pins the count with
        assert blas.threads_setter() is not None


def test_train_defence_manifest_lists_only_the_epoch_checkpoints_of_its_own_run(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    assert run_cli(["train-classifier", "--config", str(cfg)]) == 0
    assert run_cli(["train-defence", "--config", str(cfg)]) == 0  # 4 epochs, a checkpoint every 2
    listed = json.loads((out / "manifest_train-defence.json").read_text())["artifacts"]
    assert sorted(k for k in listed if "_epoch_" in k) == ["ae_kl_epoch_002.ckpt", "ae_kl_epoch_004.ckpt"]
    data = json.loads(cfg.read_text())
    data["defence_opt"]["epochs"] = 2
    cfg.write_text(json.dumps(data))
    assert run_cli(["train-defence", "--config", str(cfg)]) == 0
    assert (out / "ae_kl_epoch_004.ckpt").is_file()  # left by the first run
    listed = json.loads((out / "manifest_train-defence.json").read_text())["artifacts"]
    assert sorted(k for k in listed if "_epoch_" in k) == ["ae_kl_epoch_002.ckpt"]


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_a_stage_trained_for_zero_epochs_writes_a_null_final_loss(tmp_path, caplog):
    out = tmp_path / "run"
    cfg = _toy_config(out)
    cfg["classifier_opt"]["epochs"] = cfg["defence_opt"]["epochs"] = 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with caplog.at_level("INFO", logger="pmdef"):
        assert run_cli(["train-classifier", "--config", str(path)]) == 0
        assert run_cli(["train-defence", "--config", str(path)]) == 0
    for name in ("classifier_train.jsonl", "ae_kl_train.jsonl"):
        rows = [json.loads(line, parse_constant=_refuse) for line in (out / name).read_text().splitlines()]
        assert len(rows) == 1 and rows[0]["summary"] and rows[0]["final_loss"] is None  # no epoch row
    assert caplog.text.count("final loss none (no epoch ran)") == 2


def test_train_defence_writes_no_epoch_checkpoints_by_default(tmp_path):
    out = tmp_path / "run"
    cfg = _toy_config(out)
    del cfg["checkpoint_every"]
    cfg["defence_opt"]["epochs"] = 10  # the former default wrote a checkpoint at epoch 10
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["train-classifier", "--config", str(path)]) == 0
    assert run_cli(["train-defence", "--config", str(path)]) == 0
    assert not list(out.glob("*_epoch_*"))
    listed = json.loads((out / "manifest_train-defence.json").read_text())["artifacts"]
    assert [k for k in listed if k.endswith(".ckpt")] == ["ae_kl.ckpt"]


def test_seed_override_changes_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    assert run_cli(["train-classifier", "--config", str(cfg)]) == 0
    first = (out / "classifier.ckpt").read_bytes()
    assert run_cli(["train-classifier", "--config", str(cfg), "--seed", "99"]) == 0
    assert (out / "classifier.ckpt").read_bytes() != first


def test_missing_classifier_artifact_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    assert run_cli(["train-defence", "--config", str(cfg)]) == 1
    assert "classifier.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, where",
    [
        ("id,score\n0,0.3\n1,abc\n", "fgsm02.csv:3"),
        ("0,0.3\n1,0.4\n", "fgsm02.csv:1"),
        ("id,score\n0,0.3\n1,nan\n", "fgsm02.csv:3: expected a finite score"),
        ("id,score\n0,0.5,junk\n", "fgsm02.csv:2: expected 'id,score'"),
        ("id,score\n0,0.5\nx,0.25\n", "fgsm02.csv:3: expected the id 1"),
        ("id,score\n1,0.5\n", "fgsm02.csv:2: expected the id 0"),
    ],
    ids=["bad-score", "no-header", "nan-score", "third-field", "id-not-an-int", "id-not-the-index"],
)
def test_roc_malformed_score_csv_exits_1(tmp_path, capsys, content, where):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    (out / "scores").mkdir(parents=True)
    (out / "scores" / "clean_test.csv").write_text("id,score\n0,0.1\n1,0.2\n")
    (out / "scores" / "fgsm02.csv").write_text(content)
    assert run_cli(["roc", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert where in err


@pytest.fixture(scope="module")
def attacked_run(tmp_path_factory):
    """Config and output directory after train-classifier, train-defence and attack."""
    tmp = tmp_path_factory.mktemp("attacked")
    cfg = _write_config(tmp, tmp / "run")
    for stage in ["train-classifier", "train-defence", "attack"]:
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
    return cfg, tmp / "run"


def test_a_failed_stage_leaves_no_manifest(attacked_run, tmp_path):
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    assert run_cli(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest_evaluate.json").is_file()
    (out / "attacks" / "fgsm02.json").unlink()
    # a failed rerun removes the old manifest, which would vouch for another seed's files
    assert run_cli(["evaluate", "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 1
    assert not (out / "manifest_evaluate.json").exists()


def test_every_stage_runs_every_model_pass_at_one_blas_thread_and_restores_the_old_count(
        attacked_run, tmp_path, monkeypatch):
    _, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    # a second attack reading the same batch, so that evaluate has two units
    fgsm = _toy_config(out)["attacks"][0]
    (out / "attacks" / "twin.json").write_text((out / "attacks" / "fgsm02.json").read_text())
    cfg = _write_config(tmp_path, out, attacks=[fgsm, {**fgsm, "name": "twin"}])
    fake, seen = fake_blas(monkeypatch, 4), []
    monkeypatch.setattr(blas, "usable_cores", lambda: 2)
    forward_t = Model.forward_t

    def recording(model, *args, **kwargs):
        seen.append((fake.count, threading.current_thread() is threading.main_thread()))
        return forward_t(model, *args, **kwargs)

    roc_auc = cli.ev.roc_auc

    def recording_roc(*args):  # roc passes no model; its curves are what it computes
        seen.append((fake.count, threading.current_thread() is threading.main_thread()))
        return roc_auc(*args)

    monkeypatch.setattr(Model, "forward_t", recording)
    monkeypatch.setattr(cli.ev, "roc_auc", recording_roc)
    for stage in cli._COMMANDS:
        seen.clear()
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
        assert seen and {count for count, _ in seen} == {1}, stage
        assert fake.count == 4
        assert json.loads((out / f"manifest_{stage}.json").read_text())["run"]["blas_threads"] == 4
        # evaluate's attacks and drift's sets run on pool threads
        assert any(not on_main for _, on_main in seen) == (stage in ("evaluate", "drift")), stage

    def failing(model, *args, **kwargs):
        seen.append((fake.count, threading.current_thread() is threading.main_thread()))
        if threading.current_thread() is not threading.main_thread():
            raise errors.NonFiniteError("a unit went non-finite")
        return forward_t(model, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_t", failing)
    for stage in ("evaluate", "drift"):
        seen.clear()
        assert run_cli([stage, "--config", str(cfg)]) == 2, stage
        assert (1, False) in seen and {count for count, _ in seen} == {1} and fake.count == 4, stage


@pytest.mark.parametrize(
    "content",
    ["{not json", '{"threshold": 0.1}', '{"defence": "kl"}', '[0.1, "kl"]', '{"threshold": "x", "defence": "kl"}',
     '{"threshold": 0.1, "defence": ["kl"]}', '{"threshold": true, "defence": "kl"}',
     '{"threshold": "0.1", "defence": "kl"}', '{"threshold": 0.1, "defence": "mse"}',
     '{"threshold": NaN, "defence": "kl"}',
     pytest.param('{"threshold": 1%s, "defence": "kl"}' % ("0" * 400), id="threshold-an-int-beyond-float")],
)
def test_evaluate_malformed_threshold_file_exits_1(attacked_run, tmp_path, capsys, content):
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    (out / "threshold.json").write_text(content)
    assert run_cli(["evaluate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "threshold.json" in err


def test_evaluate_gates_with_the_minus_infinity_threshold_of_eps_fpr_1(attacked_run, tmp_path):
    _, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    cfg = _write_config(tmp_path, out, eps_fpr=1)
    for stage in ["score", "calibrate", "evaluate"]:
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
    assert '"threshold": -Infinity' in (out / "threshold.json").read_text()
    verdicts = sorted((out / "verdicts").glob("*.csv"))
    assert verdicts
    for path in verdicts:
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert rows and all(r["flagged"] == "1" for r in rows), path


def test_the_verdicts_repeat_the_score_files_and_give_the_gated_report_column(attacked_run, tmp_path):
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    for stage in ["score", "calibrate", "evaluate"]:
        assert run_cli([stage, "--config", str(cfg), "--out", str(out)]) == 0, stage
    with open(out / "report_accuracy.csv", newline="") as fh:
        report = {row["attack"]: row for row in csv.DictReader(fh)}
    assert list(report) == ["fgsm02"]
    for name, row in report.items():
        with open(out / "verdicts" / f"{name}__kl.csv", newline="") as fh:
            verdicts = list(csv.DictReader(fh))
        scored = [line.split(",")[1] for line in (out / "scores" / f"{name}.csv").read_text().splitlines()[1:]]
        assert [v["score"] for v in verdicts] == scored  # the same .17g text, so the same bits
        corrected = np.array([int(v["label"]) for v in verdicts])
        assert float(row["kl@detect"]) == float((corrected == load_batch(out / "attacks" / f"{name}.json").labels).mean())


def test_evaluate_forwards_each_row_once_per_model(attacked_run, tmp_path, monkeypatch):
    """The clean rows and each attack batch go once through the classifier,
    each batch once through every report defence's AE and each
    reconstruction once through the classifier; the gated defence's verdicts
    reuse its report pass."""
    _, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    shutil.copy(out / "ae_kl.ckpt", out / "ae_mse.ckpt")
    cfg = _write_config(tmp_path, out, defence_losses=[{"kind": "kl"}, {"kind": "mse"}], report_defences=["kl", "mse"])
    assert run_cli(["calibrate", "--config", str(cfg)]) == 0  # threshold.json: evaluate gates kl
    rows, forward_t = {"classifier": 0, "ae": 0}, Model.forward_t

    def counting(model, x, *args, **kwargs):
        rows["classifier" if model.is_classifier else "ae"] += x.shape[0]
        return forward_t(model, x, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_t", counting)
    assert run_cli(["evaluate", "--config", str(cfg)]) == 0
    m, n = 30, load_batch(out / "attacks" / "fgsm02.json").adversarials.shape[0]  # attack_subset, the one batch
    assert rows == {"classifier": m + n + 2 * n, "ae": 2 * n}
    assert [p.name for p in (out / "verdicts").iterdir()] == ["fgsm02__kl.csv"]


@pytest.mark.parametrize("gated", [True, False], ids=["gated", "ungated"])
def test_score_and_evaluate_put_each_row_through_the_score_defence_once(attacked_run, tmp_path, monkeypatch, gated):
    """score passes the clean test rows through the autoencoder and evaluate
    each attack batch, whose score file it writes from that one pass."""
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("threshold.json", "scores", "verdicts", "manifest_*"))
    if gated:
        assert run_cli(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
    ae_rows, forward_t = [], Model.forward_t

    def counting(model, x, *args, **kwargs):
        if not model.is_classifier:
            ae_rows.append(x.shape[0])
        return forward_t(model, x, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_t", counting)
    assert run_cli(["score", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "scores").iterdir()) == ["clean_test.csv"]
    assert run_cli(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
    assert ae_rows == [60, 30]  # n_test, then the one batch of attack_subset rows
    manifests = {stage: json.loads((out / f"manifest_{stage}.json").read_text())["artifacts"] for stage in ("score", "evaluate")}
    assert list(manifests["score"]) == ["scores/clean_test.csv"]
    assert "scores/fgsm02.csv" in manifests["evaluate"]
    assert ("verdicts/fgsm02__kl.csv" in manifests["evaluate"]) == gated


@pytest.mark.parametrize("scored", ["kl", "kl_temperature"])
@pytest.mark.parametrize("gated", [True, False], ids=["gated", "ungated"])
def test_the_attack_score_file_is_adversarial_score_of_the_batch_bit_for_bit(attacked_run, tmp_path, gated, scored):
    _, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("threshold.json", "scores"))
    shutil.copy(out / "ae_kl.ckpt", out / "ae_kl_temperature.ckpt")
    losses = [{"kind": "kl"}, {"kind": "kl_temperature", "temperature": 0.5}]
    cfg = _write_config(tmp_path, out, defence_losses=losses, score_defence=scored, report_defences=["kl", "kl_temperature"])
    for stage in ["calibrate", "evaluate"] if gated else ["evaluate"]:
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
    exp = from_dict(cli.Experiment, json.loads(cfg.read_text()))
    batch = load_batch(out / "attacks" / "fgsm02.json")
    expected = dfc.adversarial_score(cli._load_classifier(out), cli._load_defence(exp, out, scored), batch.adversarials)
    assert np.array_equal(cli._read_scores_csv(out / "scores" / "fgsm02.csv"), expected)
    cli._write_scores_csv(expected, tmp_path / "expected.csv")
    assert (out / "scores" / "fgsm02.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert (out / "verdicts").is_dir() == gated


def test_roc_reads_the_attack_score_files_of_an_ungated_evaluate(attacked_run, tmp_path, capsys):
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("threshold.json", "scores"))
    assert run_cli(["score", "--config", str(cfg), "--out", str(out)]) == 0
    assert run_cli(["roc", "--config", str(cfg), "--out", str(out)]) == 1  # score writes the clean scores only
    missing = out / "scores" / "fgsm02.csv"
    assert capsys.readouterr().err == f"error: missing required artifact {missing}; run `evaluate` first\n"
    assert run_cli(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "verdicts").exists()
    assert run_cli(["roc", "--config", str(cfg), "--out", str(out)]) == 0
    curve = roc_auc(cli._read_scores_csv(out / "scores" / "clean_test.csv"), cli._read_scores_csv(missing))
    assert (out / "roc_fgsm02.json").read_text() == json.dumps(asdict(curve), sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "score_under, evaluate_under, roc_under, rerun",
    [
        ({}, {"score_defence": "mse"}, {"score_defence": "mse"}, "score"),
        ({}, {"score_defence": "mse"}, {}, "evaluate"),
        ({"seed": 6}, {}, {}, "score"),
        ({}, {}, {"seed": 6}, "score"),
    ],
    ids=["kl-scores-mse-roc", "mse-evaluate-kl-roc", "seed-6-scores", "seed-6-roc"],
)
def test_roc_refuses_score_files_made_under_another_defence_or_seed(attacked_run, tmp_path, capsys, score_under,
                                                                     evaluate_under, roc_under, rerun):
    _, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("threshold.json", "scores"))
    shutil.copy(out / "ae_kl.ckpt", out / "ae_mse.ckpt")
    both = {"defence_losses": [{"kind": "kl"}, {"kind": "mse"}], "report_defences": ["kl", "mse"]}

    def config(name, under):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**_toy_config(out), **both, **under}))
        return str(path)

    assert run_cli(["score", "--config", config("score", score_under)]) == 0
    assert run_cli(["evaluate", "--config", config("evaluate", evaluate_under)]) == 0
    capsys.readouterr()
    assert run_cli(["roc", "--config", config("roc", roc_under)]) == 1
    made = {"seed": 5, "score_defence": "kl", **(score_under if rerun == "score" else evaluate_under)}
    given = {"seed": 5, "score_defence": "kl", **roc_under}
    assert capsys.readouterr().err == (
        f"error: {out / f'manifest_{rerun}.json'}: scores made under seed {made['seed']} and score_defence "
        f"{made['score_defence']!r}, but the config gives seed {given['seed']} and score_defence "
        f"{given['score_defence']!r}; rerun {rerun}\n"
    )
    assert not (out / "roc_fgsm02.json").exists()


@pytest.mark.parametrize("manifest, needle", [(None, "missing required artifact"), ("[]", "needs a JSON object")],
                         ids=["missing", "a-list"])
def test_roc_exits_1_naming_a_missing_or_malformed_stage_manifest(attacked_run, tmp_path, capsys, manifest, needle):
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("threshold.json", "scores"))
    for stage in ("score", "evaluate"):
        assert run_cli([stage, "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "manifest_evaluate.json"
    if manifest is None:
        path.unlink()
    else:
        path.write_text(manifest)
    capsys.readouterr()
    assert run_cli(["roc", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and needle in err


@pytest.mark.parametrize("gated, scored", [("kl", "mse"), ("mse", "kl")])
def test_evaluate_refuses_a_threshold_calibrated_for_another_score_defence(attacked_run, tmp_path, capsys, gated, scored):
    _, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    shutil.copy(out / "ae_kl.ckpt", out / "ae_mse.ckpt")  # both defences on disk, so that only the gate is at fault
    both = {"defence_losses": [{"kind": "kl"}, {"kind": "mse"}], "report_defences": ["kl", "mse"]}
    assert run_cli(["calibrate", "--config", str(_write_config(tmp_path, out, score_defence=gated, **both))]) == 0
    assert run_cli(["evaluate", "--config", str(_write_config(tmp_path, out, score_defence=scored, **both))]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'threshold.json'}: gates defence {gated!r}, but score_defence is {scored!r}; rerun calibrate\n"
    assert not (out / "report_accuracy.csv").exists()


def test_calibrate_checks_calibration_size_before_it_loads_a_checkpoint(tmp_path, capsys):
    cfg = _write_config(tmp_path, tmp_path / "fresh", calibration_size=1000000)
    assert run_cli(["calibrate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: calibration_size: must be in [1, 120], the training-set size, got 1000000\n", err


# threshold.json as calibrate writes it for the attacked run
_THRESHOLD = {"defence": "kl", "eps_fpr": 0.1, "n": 60, "threshold": 0.25}


@st.composite
def _threshold_files(draw):
    """_THRESHOLD with one key dropped, retyped or added, or any JSON value in its place."""
    action = draw(st.sampled_from(("drop", "swap", "add", "replace")))
    if action == "replace":
        return draw(_JSON_VALUES)
    info = dict(_THRESHOLD)
    key = draw(st.sampled_from(sorted(info)))
    if action == "drop":
        del info[key]
    elif action == "swap":
        info[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(info[key])))
    else:
        info["unknown_" + draw(st.text(max_size=4))] = draw(_JSON_VALUES)
    return info


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(info=_threshold_files())
def test_evaluate_reads_a_mutated_threshold_file_or_exits_1_naming_it(attacked_run, capsys, info):
    cfg, out = attacked_run
    path = out / "threshold.json"
    path.write_text(json.dumps(info))
    try:
        code = run_cli(["evaluate", "--config", str(cfg)])
    finally:
        path.unlink()
    err = capsys.readouterr().err
    usable = isinstance(info, dict) and info.get("defence") == "kl" and type(info.get("threshold")) in (int, float)
    assert code == (0 if usable else 1), (info, err)
    if not usable:
        assert err.startswith("error: ") and "threshold.json" in err, err


def _batch_edit(edit):
    """Attack-batch rewrite that applies ``edit`` to the parsed metadata."""
    return lambda text: json.dumps(edit(json.loads(text)))


def _set(key, value, *path):
    def edit(meta):
        node = meta
        for p in path:
            node = node[p]
        if value is None:
            del node[key]
        else:
            node[key] = value
        return meta

    return edit


def _per_row(key, edit):
    """Attack-batch rewrite that applies ``edit`` to every value of the per-instance list ``key``."""
    return _batch_edit(lambda meta: {**meta, key: [edit(v) for v in meta[key]]})


def _norms(edit):
    """Attack-batch rewrite that replaces the ``norms`` table by ``edit`` of it."""
    return _batch_edit(lambda meta: {**meta, "norms": edit(meta["norms"])})


# the fields and the saved diagnostics, for n rows, of a well-formed C&W or SLIDE batch
_KINDS = {
    "cw_l2": ({"c_init": 100.0, "binary_steps": 7, "max_iter": 200, "lr": 0.1, "kappa": 0.0},
              lambda n: {"unsuccessful": [0] * n, "failed": [0, 1] * (n // 2) + [0] * (n % 2)}),
    "slide": ({"q": 80.0, "gamma": 0.05, "k": 3, "eps_l1": 0.1},
              lambda n: {"skipped_iterations": 2, "per_iter_max_l1": [0.05, 0.1, 0.1], "per_iter_max_active": [7, 6, 0]}),
}


def _as_kind(kind, edit=lambda diagnostics, n: None):
    """Attack-batch rewrite into a well-formed batch of ``kind`` whose
    diagnostics ``edit`` then changes in place (n: the batch's rows)."""
    fields, saved = _KINDS[kind]

    def rewrite(meta):
        n, diagnostics = meta["shape"][0], saved(meta["shape"][0])
        edit(diagnostics, n)
        config = {"kind": kind, "target_mode": "grey_box", "label_source": "model", **fields}
        return {**meta, "config": config, "diagnostics": diagnostics}

    return _batch_edit(rewrite)


MALFORMED_BATCHES = {
    "not-json": lambda text: "{not json",
    "json-list": lambda text: "[1, 2]",
    "no-bin-file": _batch_edit(_set("bin_file", None)),
    "missing-bin-file": _batch_edit(_set("bin_file", "elsewhere.bin")),
    "no-originals-crc32": _batch_edit(_set("originals_crc32", None)),
    "no-crc32": _batch_edit(_set("crc32", None)),
    "wrong-crc32": _batch_edit(lambda meta: {**meta, "crc32": meta["crc32"] ^ 1}),
    "string-labels": _batch_edit(_set("labels", "abc")),
    "digit-string-labels": _batch_edit(_set("labels", "1")),
    "unknown-config-key": _batch_edit(_set("bogus", 1, "config")),
    "wrong-length-diagnostics": _as_kind("cw_l2", lambda d, n: d.update(failed=[0] * (n + 1))),
    "config-with-seed": _batch_edit(lambda meta: {**meta, "seed": 0, "config": {**meta["config"], "seed": 0}}),
    "infinite-crc32": _batch_edit(_set("crc32", float("inf"))),
    "prediction-beyond-int64": _batch_edit(_set("original_pred", 1e300)),
    # JSON integers only, and only the keys save_batch writes
    "digit-string-crc32": _batch_edit(lambda meta: {**meta, "crc32": str(meta["crc32"])}),
    "fractional-originals-crc32": _batch_edit(lambda meta: {**meta, "originals_crc32": meta["originals_crc32"] + 0.5}),
    "digit-string-shape": _batch_edit(lambda meta: {**meta, "shape": [str(meta["shape"][0]), *meta["shape"][1:]]}),
    "negative-shape": _batch_edit(lambda meta: {**meta, "shape": [meta["shape"][0], -8, -8, 1]}),
    "shape-wrapping-int64": _batch_edit(lambda meta: {**meta, "shape": [*meta["shape"][:3], 1 + 2**58]}),
    "leftover-blocks": _batch_edit(lambda meta: {**meta, "blocks": {"adversarials": [0, 8 * math.prod(meta["shape"])]}}),
    "bogus-key": _batch_edit(_set("bogus", 1)),
    # per-instance fields: class indices are JSON integers >= 0, success and the C&W flags 0 or 1
    "fractional-labels": _per_row("labels", lambda v: v + 0.5),
    "boolean-labels": _per_row("labels", lambda v: v > 0),
    "negative-labels": _per_row("labels", lambda v: v - 100),
    "fractional-original-pred": _per_row("original_pred", lambda v: v + 0.5),
    "boolean-original-pred": _per_row("original_pred", lambda v: v > 0),
    "boolean-adversarial-pred": _per_row("adversarial_pred", lambda v: True),
    "success-of-2": _per_row("success", lambda v: v + 2),
    "boolean-success": _per_row("success", lambda v: v == 1),
    "failed-flag-of-2": _as_kind("cw_l2", lambda d, n: d.update(failed=[2] * n)),
    "boolean-unsuccessful-flags": _as_kind("cw_l2", lambda d, n: d.update(unsuccessful=[True] * n)),
    # norms: exactly l1, l2 and linf, each a list of finite JSON numbers >= 0
    "boolean-l2-norms": _norms(lambda norms: {**norms, "l2": [True] * len(norms["l2"])}),
    "nan-l2-norm": _norms(lambda norms: {**norms, "l2": [math.nan, *norms["l2"][1:]]}),
    "infinite-linf-norm": _norms(lambda norms: {**norms, "linf": [*norms["linf"][:-1], math.inf]}),
    "negative-l1-norm": _norms(lambda norms: {**norms, "l1": [-1.0, *norms["l1"][1:]]}),
    "digit-string-l2-norms": _norms(lambda norms: {**norms, "l2": [str(v) for v in norms["l2"]]}),
    "norms-without-l2": _norms(lambda norms: {k: v for k, v in norms.items() if k != "l2"}),
    "bogus-norm-key": _norms(lambda norms: {**norms, "bogus": norms["l2"]}),
    "norms-as-a-list": _norms(lambda norms: list(norms.values())),
    # diagnostics: only the keys the batch's kind saves, C&W's 0/1 flags and SLIDE's k-step lists
    "fgsm-with-diagnostics": _batch_edit(_set("diagnostics", {"skipped_iterations": 0})),
    "empty-string-diagnostics": _batch_edit(_set("diagnostics", "")),
    "empty-list-diagnostics": _batch_edit(_set("diagnostics", [])),
    "cw-without-failed": _as_kind("cw_l2", lambda d, n: d.pop("failed")),
    "cw-with-slide-key": _as_kind("cw_l2", lambda d, n: d.update(skipped_iterations=0)),
    "slide-with-cw-flags": _as_kind("slide", lambda d, n: d.update(failed=[0] * n)),
    "slide-without-skipped-iterations": _as_kind("slide", lambda d, n: d.pop("skipped_iterations")),
    "slide-boolean-skipped-iterations": _as_kind("slide", lambda d, n: d.update(skipped_iterations=True)),
    "slide-negative-skipped-iterations": _as_kind("slide", lambda d, n: d.update(skipped_iterations=-1)),
    "slide-fractional-skipped-iterations": _as_kind("slide", lambda d, n: d.update(skipped_iterations=2.5)),
    "slide-nan-max-l1": _as_kind("slide", lambda d, n: d["per_iter_max_l1"].__setitem__(0, math.nan)),
    "slide-negative-max-l1": _as_kind("slide", lambda d, n: d["per_iter_max_l1"].__setitem__(0, -0.1)),
    "slide-boolean-max-l1": _as_kind("slide", lambda d, n: d["per_iter_max_l1"].__setitem__(0, True)),
    "slide-fractional-max-active": _as_kind("slide", lambda d, n: d["per_iter_max_active"].__setitem__(0, 6.5)),
    "slide-negative-max-active": _as_kind("slide", lambda d, n: d["per_iter_max_active"].__setitem__(0, -1)),
    "slide-max-l1-beyond-k-steps": _as_kind("slide", lambda d, n: d["per_iter_max_l1"].append(0.1)),
    "slide-max-active-short-of-k-steps": _as_kind("slide", lambda d, n: d["per_iter_max_active"].pop()),
}


def _run_recording_opens(monkeypatch, argv) -> tuple[int, set[Path]]:
    """``run_cli(argv)``'s exit code and the files it opened, through open or Path.open."""
    opened, real_open = set(), io.open

    def recording(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.add(Path(file))
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", recording)
        m.setattr(io, "open", recording)
        return run_cli(argv), opened


def _opened_a_batch(out: Path, opened: set[Path]) -> bool:
    return any(p.is_relative_to(out / "attacks") for p in opened)


@pytest.mark.parametrize("kind", list(_KINDS))
def test_a_well_formed_cw_or_slide_batch_file_evaluates(attacked_run, tmp_path, kind):
    """The base that the C&W and SLIDE cases of MALFORMED_BATCHES break."""
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("threshold.json"))
    batch = out / "attacks" / "fgsm02.json"
    batch.write_text(_as_kind(kind)(batch.read_text()))
    assert run_cli(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
    loaded = load_batch(batch)
    assert loaded.config.kind == kind and set(loaded.diagnostics) == set(_KINDS[kind][1](30))


@pytest.mark.parametrize("stage", ["score", "evaluate"])
@pytest.mark.parametrize("case", list(MALFORMED_BATCHES))
def test_malformed_attack_batch_exits_1_naming_the_file(attacked_run, capsys, monkeypatch, stage, case):
    """evaluate refuses the batch, naming it; score reads no attack batch, so it never opens it."""
    cfg, out = attacked_run
    batch = out / "attacks" / "fgsm02.json"
    original = batch.read_text()
    batch.write_text(MALFORMED_BATCHES[case](original))
    try:
        code, opened = _run_recording_opens(monkeypatch, [stage, "--config", str(cfg)])
    finally:
        batch.write_text(original)
    err = capsys.readouterr().err
    if stage == "score":
        assert code == 0 and not _opened_a_batch(out, opened), err
    else:
        assert code == 1 and batch in opened
        assert err.startswith("error: ") and "fgsm02.json" in err, err


def test_evaluate_refuses_a_label_beyond_the_classifier_classes(attacked_run, capsys):
    cfg, out = attacked_run
    batch = out / "attacks" / "fgsm02.json"
    original = batch.read_text()
    batch.write_text(_per_row("labels", lambda v: v + 100)(original))
    try:
        assert run_cli(["score", "--config", str(cfg)]) == 0  # score reads no attack batch
        assert run_cli(["evaluate", "--config", str(cfg)]) == 1
    finally:
        batch.write_text(original)
    err = capsys.readouterr().err
    assert err == "error: attack batch fgsm02 has a label outside [0, 3), the classifier's classes\n", err


@st.composite
def _batch_mutations(draw, meta: dict):
    """(label, json edit, bin edit) that break an attack batch: a top-level
    key dropped or retyped, an unknown config key, C&W diagnostics of any
    other value, another CRC-32, or a payload byte flipped or cut off."""
    keep = lambda x: x  # noqa: E731
    action = draw(st.sampled_from(("drop", "swap", "config", "diagnostics", "crc32", "flip", "truncate")))
    if action == "drop":
        key = draw(st.sampled_from(sorted(meta)))
        return (action, key), lambda m: {k: v for k, v in m.items() if k != key}, keep
    if action == "swap":
        key = draw(st.sampled_from(sorted(meta)))
        value = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(meta[key])))
        return (action, key, value), lambda m: {**m, key: value}, keep
    if action == "config":
        key, value = "unknown_" + draw(st.text(max_size=4)), draw(_JSON_VALUES)
        return (action, key), lambda m: {**m, "config": {**m["config"], key: value}}, keep
    if action == "diagnostics":
        flags = {draw(st.sampled_from(("failed", "unsuccessful"))): draw(_JSON_VALUES)}
        return (action, flags), lambda m: {**m, "diagnostics": flags}, keep
    if action == "crc32":
        delta = draw(st.integers(1, 2**32 - 1))
        return (action, delta), lambda m: {**m, "crc32": m["crc32"] ^ delta}, keep
    at = draw(st.integers(0, 8 * int(np.prod(meta["shape"])) - 1))  # the adversarials, 8 bytes each
    if action == "flip":
        return (action, at), keep, lambda raw: raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :]
    return (action, at), keep, lambda raw: raw[:at]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_attack_batch_exits_1_with_an_error_line_in_score_and_evaluate(attacked_run, capsys, monkeypatch, data):
    """evaluate exits 1 with an error line naming the batch; score, which
    reads no attack batch, exits 0 without opening it."""
    cfg, out = attacked_run
    json_path, bin_path = out / "attacks" / "fgsm02.json", out / "attacks" / "fgsm02.bin"
    text, raw = json_path.read_text(), bin_path.read_bytes()
    label, edit_json, edit_bin = data.draw(_batch_mutations(json.loads(text)))
    json_path.write_text(json.dumps(edit_json(json.loads(text))))
    bin_path.write_bytes(edit_bin(raw))
    try:
        code, opened = _run_recording_opens(monkeypatch, ["score", "--config", str(cfg)])
        assert code == 0 and not _opened_a_batch(out, opened), (label, capsys.readouterr().err)
        code = run_cli(["evaluate", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and "fgsm02" in err, (label, err)
    finally:
        json_path.write_text(text)
        bin_path.write_bytes(raw)


@pytest.mark.parametrize("stage", ["score", "evaluate"])
@pytest.mark.parametrize("subset, noise", [(20, 0.1), (None, 0.1), (30, 0.2)], ids=["subset-20", "subset-all", "noise"])
def test_a_batch_made_from_other_test_rows_exits_1_naming_it(attacked_run, tmp_path, capsys, monkeypatch, stage, subset, noise):
    """In evaluate; score reads no attack batch, so it exits 0 without opening one."""
    _, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("threshold.json"))
    changed = _write_config(tmp_path, out, attack_subset=subset, dataset={**_toy_config(out)["dataset"], "noise": noise})
    code, opened = _run_recording_opens(monkeypatch, [stage, "--config", str(changed)])
    err = capsys.readouterr().err
    if stage == "score":
        assert code == 0 and not _opened_a_batch(out, opened), err
    else:
        assert code == 1, err
        assert err.startswith(f"error: {out / 'attacks' / 'fgsm02.json'}: ") and err.rstrip().endswith("; rerun attack"), err
    assert run_cli([stage, "--config", str(_write_config(tmp_path, out))]) == 0  # the config the batch was made under


def test_a_batch_in_the_older_two_block_format_exits_1_naming_it(attacked_run, tmp_path, capsys, monkeypatch):
    cfg, run = attacked_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    json_path, bin_path = out / "attacks" / "fgsm02.json", out / "attacks" / "fgsm02.bin"
    meta, adversarials = json.loads(json_path.read_text()), bin_path.read_bytes()
    test = from_dict(cli.Experiment, json.loads(cfg.read_text())).dataset.load(5, "test")
    originals = test.images[:30].astype("<f8").tobytes()
    assert zlib.crc32(originals) == meta.pop("originals_crc32") and len(originals) == len(adversarials)
    meta.update(blocks={"originals": [0, len(originals)], "adversarials": [len(originals), len(adversarials)]},
                crc32=zlib.crc32(adversarials, zlib.crc32(originals)))
    json_path.write_text(json.dumps(meta))
    bin_path.write_bytes(originals + adversarials)
    code, opened = _run_recording_opens(monkeypatch, ["score", "--config", str(cfg), "--out", str(out)])
    assert code == 0 and not _opened_a_batch(out, opened)  # score reads no attack batch
    assert run_cli(["evaluate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {json_path}: "), err


def test_checkpoint_loadable_and_consistent_with_cli(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    assert run_cli(["train-classifier", "--config", str(cfg)]) == 0
    model = load_checkpoint(out / "classifier.ckpt")
    assert model.spec.name == "clf"
    assert model.num_classes == 3


def _rewrite_checkpoint_header(path, edit):
    blob = path.read_bytes()
    pos = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[pos : pos + 4])
    header = edit(json.loads(blob[pos + 4 : pos + 4 + hlen]))
    payload = json.dumps(header).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload + blob[pos + 4 + hlen :])


_GONE = object()


def _at(*keys, value=_GONE):
    """Header edit that sets header[keys[0]]...[keys[-1]] to ``value``, or deletes it."""

    def edit(header):
        node = header
        for key in keys[:-1]:
            node = node[key]
        if value is _GONE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return header

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda header: [header["spec"], header["tensors"]],
        _at("spec"),
        _at("tensors"),
        _at("tensors", 0, "nbytes"),
        _at("tensors", 0, "offset"),
        _at("tensors", 0, "shape"),
        _at("tensors", 0, "layer", value="0"),
        _at("tensors", 0, "layer", value=False),
        _at("tensors", 0, "offset", value=0.5),
        _at("tensors", 0, "offset", value=-1),
        _at("tensors", 0, "nbytes", value="1536"),
        _at("tensors", 0, "shape", 0, value=-64),
        _at("tensors", 0, "shape", 0, value=24.0),
        _at("tensors", 0, "name", value=0),
        _at("seed", value="zero"),
        _at("seed", value=-1),
        _at("seed", value=True),
    ],
    ids=["list", "no-spec", "no-tensors", "no-nbytes", "no-offset", "no-shape", "layer-str", "layer-bool",
         "offset-fraction", "offset-negative", "nbytes-str", "shape-negative", "shape-float", "name-int",
         "seed-str", "seed-negative", "seed-bool"],
)
def test_malformed_checkpoint_header_exits_1_naming_the_file(tmp_path, capsys, edit):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    out.mkdir()
    ckpt = out / "classifier.ckpt"
    save_checkpoint(build_model(from_dict(ModelSpec, json.loads(cfg.read_text())["classifier_spec"]), 0), ckpt)
    _rewrite_checkpoint_header(ckpt, edit)
    assert run_cli(["train-defence", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: malformed checkpoint header: ")


def _clf_spec(*layers, **fields):
    """The toy config's classifier spec (8x8x1 in, 3 classes) with ``layers`` before its head."""
    head = [{"type": "flatten"}, {"type": "dense", "units": 3}, {"type": "softmax"}]
    return {"name": "clf", "input_shape": [8, 8, 1], "layers": [*layers, *head], **fields}


_FLAT_DENSE = {"type": "flatten"}, {"type": "dense", "units": 4}
_AE_WITH_BAD_DROPOUT = {
    "name": "ae", "input_shape": [8, 8, 1],
    "layers": [{"type": "dropout", "rate": 1.5}, {"type": "flatten"}, {"type": "dense", "units": 64},
               {"type": "reshape", "shape": [8, 8, 1]}],
}
_AE_6X6 = {
    "name": "ae", "input_shape": [6, 6, 1],
    "layers": [{"type": "flatten"}, {"type": "dense", "units": 36}, {"type": "reshape", "shape": [6, 6, 1]}],
}
_AE_TO_6X6 = {
    "name": "ae", "input_shape": [8, 8, 1],
    "layers": [{"type": "flatten"}, {"type": "dense", "units": 36}, {"type": "reshape", "shape": [6, 6, 1]}],
}
_AE_WITH_DENSE_0 = {
    "name": "ae", "input_shape": [8, 8, 1],
    "layers": [{"type": "flatten"}, {"type": "dense", "units": 0}, {"type": "dense", "units": 64},
               {"type": "reshape", "shape": [8, 8, 1]}],
}
# id: (config key, its malformed value or None to drop the key, text the error must contain)
MALFORMED_SPECS = {
    "reshape-without-shape": ("classifier_spec", _clf_spec({"type": "reshape"}), "classifier_spec.layers[0].shape: missing key"),
    "reshape-shape-not-a-list": (
        "classifier_spec", _clf_spec({"type": "reshape", "shape": 5}), "classifier_spec.layers[0].shape: expected a list",
    ),
    "reshape-negative-dims": ("classifier_spec", _clf_spec(*_FLAT_DENSE, {"type": "reshape", "shape": [-2, -2]}), "layer 2"),
    "maxpool-stride-0": (
        "classifier_spec", _clf_spec({"type": "maxpool", "window": 2, "stride": 0}),
        "classifier_spec.layers[0].stride: must be in [1, inf), got 0",
    ),
    "maxpool-window-0": (
        "classifier_spec", _clf_spec({"type": "maxpool", "window": 0, "stride": 1}),
        "classifier_spec.layers[0].window: must be in [1, inf), got 0",
    ),
    "conv-kernel-0": (
        "classifier_spec", _clf_spec({"type": "conv", "filters": 2, "kernel": 0}),
        "classifier_spec.layers[0].kernel: must be in [1, inf), got 0",
    ),
    "conv-filters-0": (
        "classifier_spec", _clf_spec({"type": "conv", "filters": 0, "kernel": 2}),
        "classifier_spec.layers[0].filters: must be in [1, inf), got 0",
    ),
    "conv-bad-padding": (
        "classifier_spec", _clf_spec({"type": "conv", "filters": 2, "kernel": 2, "padding": "full"}),
        "classifier_spec.layers[0].padding: expected one of ['valid', 'same'], got 'full'",
    ),
    "dense-after-conv": (
        "classifier_spec", _clf_spec({"type": "conv", "filters": 2, "kernel": 2}, {"type": "dense", "units": 4}),
        "classifier_spec: layer 1 (dense): expects a flat input",
    ),
    "dense-units-str": (
        "classifier_spec", _clf_spec({"type": "flatten"}, {"type": "dense", "units": "3"}),
        "classifier_spec.layers[1].units: expected int, got '3'",
    ),
    "dense-units-float": (
        "classifier_spec", _clf_spec({"type": "flatten"}, {"type": "dense", "units": 3.5}), "classifier_spec.layers[1].units: expected int",
    ),
    "dense-units-bool": (
        "classifier_spec", _clf_spec({"type": "flatten"}, {"type": "dense", "units": True}), "classifier_spec.layers[1].units: expected int",
    ),
    "dropout-rate-str": ("classifier_spec", _clf_spec({"type": "dropout", "rate": "x"}), "classifier_spec.layers[0].rate"),
    "layer-unknown-type": ("classifier_spec", _clf_spec({"type": "pool"}), "classifier_spec.layers[0].type: expected one of"),
    "dropout-rate-1": (
        "classifier_spec", _clf_spec({"type": "dropout", "rate": 1.0}), "classifier_spec: layer 0 (dropout): rate must be",
    ),
    "layer-not-an-object": ("classifier_spec", _clf_spec("relu"), "classifier_spec.layers[0]: expected an object"),
    "unknown-field": ("classifier_spec", _clf_spec({"type": "relu", "units": 3}), "classifier_spec.layers[0].units: unknown key"),
    "spec-without-layers": ("classifier_spec", {"name": "clf", "input_shape": [8, 8, 1]}, "classifier_spec.layers: missing key"),
    "spec-not-an-object": ("classifier_spec", [1, 2], "classifier_spec: expected an object"),
    "input-shape-str": ("classifier_spec", _clf_spec(input_shape="ab"), "classifier_spec.input_shape"),
    "standardize-str": ("classifier_spec", _clf_spec(standardize="false"), "classifier_spec.standardize"),
    "no-classifier-spec": ("classifier_spec", None, "classifier_spec"),
    "no-autoencoder-spec": ("autoencoder_spec", None, "autoencoder_spec"),
    "ae-dropout-rate-above-1": ("autoencoder_spec", _AE_WITH_BAD_DROPOUT, "layer 0"),
    "ae-dense-units-0": ("autoencoder_spec", _AE_WITH_DENSE_0, "autoencoder_spec.layers[1].units: must be in [1, inf), got 0"),
    "ae-6x6": ("autoencoder_spec", _AE_6X6, "autoencoder_spec: maps (6, 6, 1) to (6, 6, 1), but classifier_spec reads (8, 8, 1)"),
    "ae-to-6x6": (
        "autoencoder_spec", _AE_TO_6X6, "autoencoder_spec: maps (8, 8, 1) to (6, 6, 1), but classifier_spec reads (8, 8, 1)",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_SPECS))
def test_malformed_model_spec_exits_1_naming_the_layer_or_key(tmp_path, capsys, case):
    key, value, needle = MALFORMED_SPECS[case]
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, out)
    cfg = json.loads(cfg_path.read_text())
    stage = "train-classifier" if key == "classifier_spec" else "train-defence"
    if stage == "train-defence":  # a classifier on disk, so that only the autoencoder spec can be at fault
        out.mkdir()
        save_checkpoint(build_model(from_dict(ModelSpec, cfg["classifier_spec"]), 0), out / "classifier.ckpt")
    if value is None:
        del cfg[key]
    else:
        cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err, err


def test_a_stage_that_fails_at_run_time_exits_2_and_leaves_no_manifest_or_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out, classifier_opt={**_toy_config(out)["classifier_opt"], "learning_rate": 1e300})
    with np.errstate(over="ignore", invalid="ignore"):  # the diverging steps overflow before the check fires
        assert run_cli(["train-classifier", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and "non-finite" in err, err
    assert not (out / "manifest_train-classifier.json").exists() and not (out / "classifier.ckpt").exists()


def test_tempered_defence_is_scored_calibrated_and_reported_with_its_temperature(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path, out, defence_losses=[{"kind": "kl_temperature", "temperature": 0.5}],
        score_defence="kl_temperature", report_defences=["kl_temperature"], eps_fpr=0.3,
        drift={"kinds": ["blur"], "severities": [1]},
    )
    for stage in ["train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate", "drift"]:
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
    classifier = cli._load_classifier(out)
    exp = from_dict(cli.Experiment, json.loads(cfg.read_text()))
    defence = cli._load_defence(exp, out, "kl_temperature")
    assert defence.temperature == 0.5
    ae = defence.ae
    train, test = exp.dataset.load(5, "train"), exp.dataset.load(5, "test")
    tempered = dfc.adversarial_score(classifier, dfc.Defence(ae, 0.5), test.images)
    assert np.abs(tempered - dfc.adversarial_score(classifier, dfc.Defence(ae), test.images)).max() > 1e-6
    assert np.array_equal(cli._read_scores_csv(out / "scores" / "clean_test.csv"), tempered)
    clean_row = json.loads((out / "drift.json").read_text())["rows"][0]
    assert clean_row["severity"] == 0 and clean_row["not_harmful_mean"] == float(tempered.mean())
    cal = dfc.adversarial_score(classifier, dfc.Defence(ae, 0.5), train.images[-60:])
    threshold = json.loads((out / "threshold.json").read_text())["threshold"]
    assert threshold == dfc.calibrate_threshold(cal, 0.3)
    # the report's gated column and the verdict CSV of one evaluate run agree
    labels = load_batch(out / "attacks" / "fgsm02.json").labels
    with open(out / "verdicts" / "fgsm02__kl_temperature.csv", newline="") as fh:
        verdicts = list(csv.DictReader(fh))
    assert any(v["flagged"] == "1" for v in verdicts)
    corrected = np.array([int(v["label"]) for v in verdicts])
    with open(out / "report_accuracy.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["kl_temperature@detect"]) == float((corrected == labels).mean())


def test_no_stage_runs_a_config_whose_report_leaves_out_the_scored_defence(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out, defence_losses=[{"kind": "kl"}, {"kind": "mse"}], report_defences=["mse"])
    for stage in ["train-classifier", "train-defence", "attack", "calibrate", "evaluate"]:
        assert run_cli([stage, "--config", str(cfg)]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith("error: report_defences: ") and "'kl'" in err, err
    assert not (out / "report_accuracy.csv").exists()


def test_each_stage_builds_only_the_dataset_splits_it_reads(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, tmp_path / "run", drift={"kinds": ["blur"], "severities": [1]})
    split_of = {cli.derive_seed(5, "data", split): split for split in ("train", "test")}
    built = []
    synth = cli.synth_dataset
    monkeypatch.setattr(cli, "synth_dataset", lambda **kw: built.append(split_of[kw["seed"]]) or synth(**kw))
    reads = {
        "train-classifier": ["train", "test"],  # test accuracy is logged
        "train-defence": ["train"],
        "attack": ["test"],
        "score": ["test"],
        "calibrate": ["train"],
        "evaluate": ["test"],
        "drift": ["test"],
        "roc": [],
    }
    for stage, splits in reads.items():
        built.clear()
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
        assert built == splits, stage


def test_white_box_attack_is_reported_against_the_attacked_and_an_untargeted_defence(tmp_path, capsys):
    out = tmp_path / "run"
    white_box = {"name": "wb", "kind": "fgsm", "epsilon": 0.2, "target_mode": "white_box", "ae": "kl"}
    cfg = _write_config(
        tmp_path, out, defence_losses=[{"kind": "kl"}, {"kind": "mse"}], report_defences=["kl", "mse"],
        attacks=[_toy_config(out)["attacks"][0], white_box],
    )
    for stage in ["train-classifier", "train-defence", "attack", "evaluate"]:
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
    classifier = cli._load_classifier(out)
    batch = load_batch(out / "attacks" / "wb.json")
    assert batch.config.target_mode == "white_box"
    with open(out / "report_accuracy.csv", newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if r["attack"] == "wb")
    exp = from_dict(cli.Experiment, json.loads(cfg.read_text()))
    predicted = {tag: classifier.predict_class(cli._load_defence(exp, out, tag).ae.reconstruct(batch.adversarials))
                 for tag in ("kl", "mse")}
    for tag, labels in predicted.items():
        assert float(row[tag]) == float((labels == batch.labels).mean()), tag
    # the attack targeted C(AE_kl(x)): its recorded predictions are that pipeline's
    assert np.array_equal(batch.adversarial_pred, predicted["kl"])
    (out / "ae_kl.ckpt").unlink()
    assert run_cli(["attack", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "ae_kl.ckpt" in err and "train-defence" in err


# id: (config edit, the stage run, the dotted key the error must start with)
MALFORMED_CONFIGS = {
    "n-train-str": (lambda c: c["dataset"].update(n_train="x"), "train-classifier", "dataset.n_train"),
    "noise-str": (lambda c: c["dataset"].update(noise="x"), "train-classifier", "dataset.noise"),
    "seed-str": (lambda c: c.update(seed="x"), "train-classifier", "seed"),
    "attack-subset-str": (lambda c: c.update(attack_subset="x"), "attack", "attack_subset"),
    "eps-fpr-str": (lambda c: c.update(eps_fpr="x"), "calibrate", "eps_fpr"),
    "calibration-size-str": (lambda c: c.update(calibration_size="x"), "calibrate", "calibration_size"),
    "optimizer-not-an-object": (lambda c: c.update(classifier_opt=5), "train-classifier", "classifier_opt"),
    "epochs-str": (lambda c: c["classifier_opt"].update(epochs="x"), "train-classifier", "classifier_opt.epochs"),
    "optimizer-unknown-key": (lambda c: c["defence_opt"].update(bogus=1), "train-defence", "defence_opt.bogus"),
    "attack-unknown-key": (lambda c: c["attacks"][0].update(bogus=1), "attack", "attacks[0].bogus"),
    "probe-unknown-key": (
        lambda c: c.update(defence_losses=[{"kind": "kl_hidden", "probe": {"source_layer": 1, "bogus": 2}}]),
        "train-defence", "defence_losses[0].probe.bogus",
    ),
    "defence-losses-not-a-list": (lambda c: c.update(defence_losses=5), "train-defence", "defence_losses"),
    "checkpoint-every-str": (lambda c: c.update(checkpoint_every="x"), "train-defence", "checkpoint_every"),
    "epsilon-str": (lambda c: c["attacks"][0].update(epsilon="x"), "attack", "attacks[0].epsilon"),
    "attack-not-an-object": (lambda c: c.update(attacks=[5]), "attack", "attacks[0]"),
    "drift-not-an-object": (lambda c: c.update(drift=5), "drift", "drift"),
    "attack-without-name": (lambda c: c["attacks"][0].pop("name"), "score", "attacks[0].name"),
    "attack-subset-negative": (lambda c: c.update(attack_subset=-5), "attack", "attack_subset"),
    # the toy test set has 60 rows
    "attack-subset-above-the-test-set": (lambda c: c.update(attack_subset=61), "attack", "attack_subset"),
    "attack-subset-above-the-test-set-evaluate": (lambda c: c.update(attack_subset=61), "evaluate", "attack_subset"),
    "checkpoint-every-negative": (lambda c: c.update(checkpoint_every=-1), "train-defence", "checkpoint_every"),
    "defence-losses-repeated-kind": (
        lambda c: c.update(defence_losses=[{"kind": "kl"}, {"kind": "kl"}]),
        "train-defence", "defence_losses",
    ),
    "score-defence-untrained": (lambda c: c.update(score_defence="mse"), "score", "score_defence"),
    "report-defences-untrained": (lambda c: c.update(report_defences=["kl", "mse"]), "evaluate", "report_defences[1]"),
    "report-defences-without-score-defence": (
        lambda c: c.update(defence_losses=[{"kind": "kl"}, {"kind": "mse"}], report_defences=["mse"]),
        "evaluate", "report_defences",
    ),
    "white-box-ae-untrained": (
        lambda c: c["attacks"][0].update(target_mode="white_box", ae="mse"), "attack", "attacks[0].ae",
    ),
    "drift-no-kinds": (lambda c: c.update(drift={"kinds": []}), "drift", "drift.kinds"),
    "drift-unknown-kind": (lambda c: c.update(drift={"kinds": ["blur", "fog"]}), "score", "drift.kinds"),
    "drift-severity-out-of-range": (lambda c: c.update(drift={"severities": [1, 6]}), "train-classifier", "drift.severities"),
    # a repeated kind would pool its scores twice, a repeated severity write two rows
    "drift-repeated-kind": (lambda c: c.update(drift={"kinds": ["blur", "blur"]}), "drift", "drift.kinds"),
    "drift-repeated-severity": (lambda c: c.update(drift={"severities": [3, 3, 1]}), "drift", "drift.severities"),
    "drift-repeated-kind-and-severity": (
        lambda c: c.update(drift={"kinds": ["blur", "blur"], "severities": [3, 3, 1]}), "score", "drift.kinds",
    ),
    # json reads NaN and Infinity; a float field refuses them at parse time
    "kappa-nan": (lambda c: c["attacks"][0].update(kind="cw_l2", kappa=float("nan")), "attack", "attacks[0].kappa"),
    "learning-rate-infinity": (
        lambda c: c["defence_opt"].update(learning_rate=float("inf")), "train-classifier", "defence_opt.learning_rate",
    ),
    # keys that changed nothing and were removed: a config that still sets one is refused
    "attack-seed": (lambda c: c["attacks"][0].update(seed=3), "attack", "attacks[0].seed"),
    "optimizer-lr-schedule": (
        lambda c: c["classifier_opt"].update(lr_schedule=[[1, 0.1]]), "train-classifier", "classifier_opt.lr_schedule",
    ),
    "optimizer-momentum": (lambda c: c["defence_opt"].update(momentum=0.9), "train-defence", "defence_opt.momentum"),
    "optimizer-sgd-momentum": (
        lambda c: c["classifier_opt"].update(kind="sgd_momentum"), "train-classifier", "classifier_opt.kind",
    ),
    "cifar-standardize": (
        lambda c: c.update(dataset={"kind": "cifar", "train_files": [], "test_files": [], "standardize": True}),
        "train-classifier", "dataset.standardize",
    ),
    # a field that only other kinds read, set away from its default
    "fgsm-kappa": (lambda c: c["attacks"][0].update(kappa=0.5), "attack", "attacks[0].kappa"),
    "fgsm-kappa-and-q": (lambda c: c["attacks"][0].update(kappa=0.5, q=50), "score", "attacks[0].q"),
    "kl-temperature": (
        lambda c: c.update(defence_losses=[{"kind": "kl", "temperature": 0.5}]), "train-defence", "defence_losses[0].temperature",
    ),
    "mse-probe": (
        lambda c: c.update(defence_losses=[{"kind": "kl"}, {"kind": "mse", "probe": {"source_layer": 1}}]),
        "evaluate", "defence_losses[1].probe",
    ),
    # a value outside the range or the choices its field declares
    "batch-size-zero": (lambda c: c["classifier_opt"].update(batch_size=0), "train-classifier", "classifier_opt.batch_size"),
    "epsilon-negative": (lambda c: c["attacks"][0].update(epsilon=-1), "attack", "attacks[0].epsilon"),
    "temperature-negative": (
        lambda c: c.update(defence_losses=[{"kind": "kl_temperature", "temperature": -1}]),
        "score", "defence_losses[0].temperature",
    ),
    "noise-negative": (lambda c: c["dataset"].update(noise=-1), "train-classifier", "dataset.noise"),
    "jitter-negative": (lambda c: c["dataset"].update(jitter=-1), "train-classifier", "dataset.jitter"),
    "optimizer-seed-negative": (lambda c: c["classifier_opt"].update(seed=-1), "train-classifier", "classifier_opt.seed"),
    "eps-fpr-above-1": (lambda c: c.update(eps_fpr=2), "calibrate", "eps_fpr"),
    "calibration-size-zero": (lambda c: c.update(calibration_size=0), "calibrate", "calibration_size"),
    "probe-dim-zero": (
        lambda c: c.update(defence_losses=[{"kind": "kl"}, {"kind": "kl_hidden", "probe": {"source_layer": 1, "dim": 0}}]),
        "train-defence", "defence_losses[1].probe.dim",
    ),
    "synth-kind-unknown": (lambda c: c["dataset"].update(synth_kind="zzz"), "train-classifier", "dataset.synth_kind"),
    # the classifier spec of the toy config has 5 layers
    "probe-source-layer-beyond-the-classifier": (
        lambda c: c.update(defence_losses=[{"kind": "kl"}, {"kind": "kl_hidden", "probe": {"source_layer": 5}}]),
        "train-defence", "defence_losses[1].probe.source_layer",
    ),
    # every stage reads the classifier's probabilities
    "classifier-without-softmax": (lambda c: c["classifier_spec"]["layers"].pop(), "train-classifier", "classifier_spec"),
}
_OUT_OF_RANGE = [
    "batch-size-zero", "epsilon-negative", "temperature-negative", "noise-negative", "jitter-negative",
    "optimizer-seed-negative", "eps-fpr-above-1", "calibration-size-zero", "probe-dim-zero", "synth-kind-unknown",
    "probe-source-layer-beyond-the-classifier", "attack-subset-negative", "checkpoint-every-negative",
    "classifier-without-softmax",
]


@pytest.mark.parametrize("case", list(MALFORMED_CONFIGS))
def test_malformed_config_exits_1_naming_the_key(tmp_path, capsys, case):
    edit, stage, key = MALFORMED_CONFIGS[case]
    cfg = _toy_config(tmp_path / "run")
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([stage, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: "), err


@pytest.mark.parametrize("case", ["kappa-nan", "learning-rate-infinity"])
def test_a_non_finite_config_value_exits_1_in_every_stage(tmp_path, capsys, case):
    edit, _, key = MALFORMED_CONFIGS[case]
    cfg = _toy_config(tmp_path / "run")
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for stage in cli._COMMANDS:
        assert run_cli([stage, "--config", str(path)]) == 1, stage
        assert capsys.readouterr().err.startswith(f"error: {key}: expected a finite number"), stage


@pytest.mark.parametrize("case", ["fgsm-kappa", "kl-temperature", "mse-probe"])
def test_a_field_of_another_kind_exits_1_in_every_stage(tmp_path, capsys, case):
    edit, _, key = MALFORMED_CONFIGS[case]
    cfg = _toy_config(tmp_path / "run")
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for stage in cli._COMMANDS:
        assert run_cli([stage, "--config", str(path)]) == 1, stage
        assert capsys.readouterr().err.startswith(f"error: {key}: read by "), stage


@pytest.mark.parametrize("case", _OUT_OF_RANGE)
def test_a_value_out_of_its_range_exits_1_in_every_stage(tmp_path, capsys, case):
    edit, _, key = MALFORMED_CONFIGS[case]
    cfg = _toy_config(tmp_path / "run")
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for stage in cli._COMMANDS:
        assert run_cli([stage, "--config", str(path)]) == 1, stage
        assert capsys.readouterr().err.startswith(f"error: {key}: "), stage


@pytest.mark.parametrize("case", ["dense-units-str", "unknown-field", "standardize-str"])
def test_a_mistyped_or_unknown_spec_field_exits_1_in_every_stage(tmp_path, capsys, case):
    key, value, needle = MALFORMED_SPECS[case]
    cfg = _toy_config(tmp_path / "run")
    cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for stage in cli._COMMANDS:
        assert run_cli([stage, "--config", str(path)]) == 1, stage
        assert capsys.readouterr().err.startswith(f"error: {needle}"), stage


@pytest.mark.parametrize(
    "case", ["maxpool-stride-0", "conv-bad-padding", "ae-dense-units-0", "dropout-rate-1", "dense-after-conv", "ae-6x6"],
)
def test_a_spec_out_of_range_or_off_its_shape_chain_exits_1_in_every_stage(tmp_path, capsys, case):
    key, value, needle = MALFORMED_SPECS[case]
    cfg = _toy_config(tmp_path / "run")
    cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for stage in cli._COMMANDS:
        assert run_cli([stage, "--config", str(path)]) == 1, stage
        assert capsys.readouterr().err.startswith(f"error: {needle}"), stage



def test_fields_of_another_kind_left_at_their_defaults_parse_and_stay_out_of_the_batch_file(tmp_path):
    cfg = _toy_config(tmp_path / "run")
    cfg["attacks"][0].update(kappa=0.0, q=80, max_iter=200)
    cfg["defence_losses"] = [{"kind": "kl", "temperature": 1, "hidden_weight": 1.0, "probe": None}]
    exp, _ = _parse(cfg)
    assert exp.attacks[0].to_dict() == {
        "kind": "fgsm", "target_mode": "grey_box", "label_source": "model", "epsilon": exp.attacks[0].epsilon,
    }


def test_a_negative_zero_float_parses_as_zero(tmp_path):
    cfg = _toy_config(tmp_path / "run")
    cfg["dataset"].update(noise=-0.0, jitter=-0.0)  # numpy refuses a scale whose sign bit is set
    exp, _ = _parse(cfg)
    assert math.copysign(1, exp.dataset.noise) == math.copysign(1, exp.dataset.jitter) == 1
    assert exp.dataset.load(exp.seed, "test").n == 60


def _fuzz_base(out_dir) -> dict:
    return {**_toy_config(out_dir), "drift": {"kinds": ["blur"], "severities": [1, 2]}}


_OBJECTS = ("dataset", "classifier_opt", "defence_opt", ("defence_losses", 0), ("attacks", 0), "drift")
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.floats(), st.sampled_from((math.nan, math.inf, -math.inf)),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


@st.composite
def _mutated_configs(draw, out_dir):
    """The toy config with one mutation at the top level or one level down."""
    cfg = json.loads(json.dumps(_fuzz_base(out_dir)))
    where = draw(st.sampled_from((None, *_OBJECTS)))
    node = cfg if where is None else cfg[where] if isinstance(where, str) else cfg[where[0]][where[1]]
    action = draw(st.sampled_from(("drop", "swap", "add")))
    key = draw(st.sampled_from(sorted(node)))
    if action == "drop":
        del node[key]
    elif action == "swap":  # a float may replace a float: NaN and infinities must be refused
        node[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(node[key]) or type(v) is float))
    else:
        node["unknown_" + draw(st.text(max_size=4))] = draw(_JSON_VALUES)
    return cfg


# the numeric fields of the objects train-classifier reads beyond the specs, with their JSON types
_NUMERIC_FIELDS = {
    "dataset": {"image_size": int, "num_classes": int, "n_train": int, "n_test": int, "noise": float, "jitter": float},
    "classifier_opt": {"learning_rate": float, "batch_size": int, "epochs": int, "seed": int},
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_in_type_value_of_a_numeric_field_trains_or_exits_1(tmp_path, data):
    obj = data.draw(st.sampled_from(sorted(_NUMERIC_FIELDS)))
    key = data.draw(st.sampled_from(sorted(_NUMERIC_FIELDS[obj])))
    ints, floats = st.integers(-3, 20), st.floats(-2, 2)
    cfg = _toy_config(tmp_path / "run")
    cfg[obj][key] = data.draw(ints if _NUMERIC_FIELDS[obj][key] is int else floats)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["train-classifier", "--config", str(path)]) in (0, 1), cfg[obj]


def _parse(cfg: dict):
    return cli._resolve(cfg, argparse.Namespace(seed=None, out=None))


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index(title) :]


def test_the_readme_key_table_lists_exactly_the_experiment_fields():
    table = _readme_section("Top-level keys.").split("\n\n")[1]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert keys == [f.name for f in fields(cli.Experiment) if f.init]


def test_the_readme_layer_sentence_names_exactly_the_layer_kinds_and_their_fields():
    sentence = _readme_section("Layer kinds and their fields:").split(".")[0]
    sentence = re.sub(r"\[[^\])]*[\])]", "", sentence)  # the range [0, 1)
    documented = {kind: re.findall(r"`(\w+)`", names) for kind, names in re.findall(r"`(\w+)`(?:\s\(([^)]*)\))?", sentence)}
    assert documented == {cls.kind: [f.name for f in fields(cls)] for cls in typing.get_args(AnyLayer)}


def test_the_readme_example_config_parses(tmp_path):
    example = re.search(r"```json\n(.*?)```", _readme_section("### Experiment config"), flags=re.S).group(1)
    exp, out = cli._resolve(json.loads(example), argparse.Namespace(seed=None, out=str(tmp_path)))
    assert out == tmp_path and [a.name for a in exp.attacks] == ["fgsm02", "cw", "wb"]


def test_the_toy_config_parses(tmp_path):
    exp, out = _parse(_fuzz_base(tmp_path / "run"))
    assert out == tmp_path / "run"
    assert exp.attacks[0].name == "fgsm02" and exp.dataset.n_train == 120
    assert exp.drift.severities == [1, 2] and exp.classifier_spec.name == "clf"


def test_a_grey_box_attack_may_name_an_untrained_ae(tmp_path):
    cfg = _toy_config(tmp_path / "run")
    cfg["attacks"][0]["ae"] = "mse"  # only a white-box attack loads its ae
    exp, _ = _parse(cfg)
    assert exp.attacks[0].target_mode == "grey_box" and exp.attacks[0].ae == "mse"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_mutation_of_the_config_parses_or_raises_a_user_error(tmp_path, data):
    cfg = data.draw(_mutated_configs(str(tmp_path / "run")))
    try:
        _parse(cfg)
    except UserError:
        return
    json.dumps(cfg, allow_nan=False)  # a config that parses holds no NaN or infinity
