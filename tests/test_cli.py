import argparse
import csv
import json
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmdef import artifacts, cli
from pmdef import defence as dfc
from pmdef.attacks import load_batch
from pmdef.cli import run_cli
from pmdef.errors import UserError
from pmdef.evaluation import roc_auc
from pmdef.models import CHECKPOINT_MAGIC, ModelSpec, build_model, load_checkpoint, save_checkpoint
from pmdef.schema import from_dict


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


def test_workers_default_to_one_whatever_the_core_count(tmp_path, monkeypatch):
    from pmdef import cli

    seen = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setitem(cli._COMMANDS, "attack", lambda cfg, seed, out, workers: seen.append(workers) or [])
    path = _write_config(tmp_path, tmp_path / "run")
    assert run_cli(["attack", "--config", str(path)]) == 0
    assert run_cli(["attack", "--config", str(path), "--workers", "3"]) == 0
    assert seen == [1, 3]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    path = _write_config(tmp_path, tmp_path / "run")
    assert run_cli(["attack", "--config", str(path), "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and "--workers" in err


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


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
    for stage in ["train-classifier", "train-defence", "attack", "score", "calibrate"]:
        assert run_cli([stage, "--config", str(cfg_a)]) == 0
    cfg_b = tmp_path / "config_b.json"
    data = json.loads(cfg_a.read_text())
    data["out"] = str(out_b)
    cfg_b.write_text(json.dumps(data))
    for stage in ["train-classifier", "train-defence", "attack", "score", "calibrate"]:
        assert run_cli([stage, "--config", str(cfg_b)]) == 0
    for rel in [
        "classifier.ckpt",
        "ae_kl.ckpt",
        "attacks/fgsm02.bin",
        "scores/clean_test.csv",
        "scores/fgsm02.csv",
        "threshold.json",
    ]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    for stage in ["train-classifier", "train-defence", "attack", "score", "calibrate"]:
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
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert sorted(libc.calls) == [(-3, 32 << 20), (-1, 64 << 20)]
    assert run["malloc"] == {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}
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


def _toy_pipeline_in_a_fresh_process(tmp_path, stub: bool) -> dict:
    """The manifests of every stage of the toy pipeline, run in a new
    interpreter (so no earlier test has set the allocator policy), with
    ``_fix_malloc_thresholds`` stubbed out or not."""
    out = tmp_path / ("stubbed" if stub else "applied")
    cfg = _write_config(tmp_path, out)
    script = (
        "import sys\nfrom pmdef import cli\n"
        + ("cli._fix_malloc_thresholds = lambda: None\n" if stub else "")
        + f"sys.exit(max(cli.run_cli([s, '--config', {str(cfg)!r}]) for s in {_STAGES!r}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
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


def test_the_run_block_records_the_blas_thread_count_or_null(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_blas_threads_getter", lambda: lambda: 3)
    assert _run_block(tmp_path)["blas_threads"] == 3
    monkeypatch.setattr(cli, "_blas_threads_getter", lambda: None)
    assert _run_block(tmp_path)["blas_threads"] is None
    monkeypatch.undo()
    for load in (_no_libc, lambda name: SimpleNamespace()):  # no library, or a BLAS without the symbol
        monkeypatch.setattr(cli.ctypes, "cdll", SimpleNamespace(LoadLibrary=load))
        assert cli._blas_threads_getter.__wrapped__() is None


def test_the_blas_thread_count_is_read_from_the_openblas_numpy_loaded():
    """The real ctypes lookup, in a fresh interpreter whose OpenBLAS is capped
    at one thread by its environment variable."""
    code = "from pmdef import cli\nprint(cli._blas_threads())"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    try:  # numpy's 64-bit-int scipy-openblas wheels export the getter
        bundled = "scipy_openblas64" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["lib directory"]
    except (TypeError, KeyError):  # numpy < 1.26, or no BLAS lib directory reported
        bundled = False
    assert proc.stdout.strip() == "1" if bundled else proc.stdout.strip() in ("None", "1")
    assert cli._blas_threads_getter() is cli._blas_threads_getter()  # looked up once per process


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
    [("id,score\n0,0.3\n1,abc\n", "fgsm02.csv:3"), ("0,0.3\n1,0.4\n", "fgsm02.csv:1")],
    ids=["bad-score", "no-header"],
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
    assert run_cli(["score", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest_score.json").is_file()
    (out / "attacks" / "fgsm02.json").unlink()
    # the rerun rewrites clean_test.csv before it fails, so the old manifest would no longer match the files
    assert run_cli(["score", "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 1
    assert not (out / "manifest_score.json").exists()


@pytest.mark.parametrize(
    "content",
    ["{not json", '{"threshold": 0.1}', '{"defence": "kl"}', '[0.1, "kl"]', '{"threshold": "x", "defence": "kl"}',
     '{"threshold": 0.1, "defence": ["kl"]}', '{"threshold": true, "defence": "kl"}',
     '{"threshold": "0.1", "defence": "kl"}', '{"threshold": 0.1, "defence": "mse"}'],
)
def test_evaluate_malformed_threshold_file_exits_1(attacked_run, capsys, content):
    cfg, out = attacked_run
    (out / "threshold.json").write_text(content)
    assert run_cli(["evaluate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "threshold.json" in err


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


MALFORMED_BATCHES = {
    "not-json": lambda text: "{not json",
    "json-list": lambda text: "[1, 2]",
    "no-bin-file": _batch_edit(_set("bin_file", None)),
    "missing-bin-file": _batch_edit(_set("bin_file", "elsewhere.bin")),
    "no-blocks": _batch_edit(_set("blocks", None)),
    "no-crc32": _batch_edit(_set("crc32", None)),
    "wrong-crc32": _batch_edit(lambda meta: {**meta, "crc32": meta["crc32"] ^ 1}),
    "string-labels": _batch_edit(_set("labels", "abc")),
    "digit-string-labels": _batch_edit(_set("labels", "1")),
    "unknown-config-key": _batch_edit(_set("bogus", 1, "config")),
    "wrong-length-diagnostics": _batch_edit(lambda meta: {**meta, "diagnostics": {"failed": [0] * (meta["shape"][0] + 1)}}),
    "config-with-seed": _batch_edit(lambda meta: {**meta, "seed": 0, "config": {**meta["config"], "seed": 0}}),
}


@pytest.mark.parametrize("stage", ["score", "evaluate"])
@pytest.mark.parametrize("case", list(MALFORMED_BATCHES))
def test_malformed_attack_batch_exits_1_naming_the_file(attacked_run, capsys, stage, case):
    cfg, out = attacked_run
    batch = out / "attacks" / "fgsm02.json"
    original = batch.read_text()
    batch.write_text(MALFORMED_BATCHES[case](original))
    try:
        assert run_cli([stage, "--config", str(cfg)]) == 1
    finally:
        batch.write_text(original)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fgsm02.json" in err, err


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
    at = draw(st.integers(0, 16 * int(np.prod(meta["shape"])) - 1))  # originals and adversarials, 8 bytes each
    if action == "flip":
        return (action, at), keep, lambda raw: raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :]
    return (action, at), keep, lambda raw: raw[:at]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_attack_batch_exits_1_with_an_error_line_in_score_and_evaluate(attacked_run, capsys, data):
    cfg, out = attacked_run
    json_path, bin_path = out / "attacks" / "fgsm02.json", out / "attacks" / "fgsm02.bin"
    text, raw = json_path.read_text(), bin_path.read_bytes()
    label, edit_json, edit_bin = data.draw(_batch_mutations(json.loads(text)))
    json_path.write_text(json.dumps(edit_json(json.loads(text))))
    bin_path.write_bytes(edit_bin(raw))
    # an unlabelled batch is one the attack stage may write; only evaluate needs the labels
    unlabelled = label == ("swap", "labels", None)
    try:
        for stage in ("score", "evaluate"):
            code = run_cli([stage, "--config", str(cfg)])
            err = capsys.readouterr().err
            assert code == (0 if unlabelled and stage == "score" else 1), (stage, label, err)
            assert code == 0 or (err.startswith("error: ") and "fgsm02" in err), (stage, label, err)
    finally:
        json_path.write_text(text)
        bin_path.write_bytes(raw)


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


def _without(*keys):
    """Header edit that deletes header[keys[0]]...[keys[-1]]."""

    def edit(header):
        node = header
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return header

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda header: [header["spec"], header["tensors"]],
        _without("spec"),
        _without("tensors"),
        _without("tensors", 0, "nbytes"),
        _without("tensors", 0, "offset"),
        _without("tensors", 0, "shape"),
    ],
    ids=["list", "no-spec", "no-tensors", "no-nbytes", "no-offset", "no-shape"],
)
def test_malformed_checkpoint_header_exits_1_naming_the_file(tmp_path, capsys, edit):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    out.mkdir()
    ckpt = out / "classifier.ckpt"
    save_checkpoint(build_model(ModelSpec.from_dict(json.loads(cfg.read_text())["classifier_spec"]), 0), ckpt)
    _rewrite_checkpoint_header(ckpt, edit)
    assert run_cli(["train-defence", "--config", str(cfg)]) == 1
    assert "classifier.ckpt" in capsys.readouterr().err


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
# id: (config key, its malformed value or None to drop the key, text the error must contain)
MALFORMED_SPECS = {
    "reshape-without-shape": ("classifier_spec", _clf_spec({"type": "reshape"}), "layer 0"),
    "reshape-shape-not-a-list": ("classifier_spec", _clf_spec({"type": "reshape", "shape": 5}), "layer 0"),
    "reshape-negative-dims": ("classifier_spec", _clf_spec(*_FLAT_DENSE, {"type": "reshape", "shape": [-2, -2]}), "layer 2"),
    "maxpool-stride-0": ("classifier_spec", _clf_spec({"type": "maxpool", "window": 2, "stride": 0}), "layer 0"),
    "maxpool-window-0": ("classifier_spec", _clf_spec({"type": "maxpool", "window": 0, "stride": 1}), "layer 0"),
    "conv-kernel-0": ("classifier_spec", _clf_spec({"type": "conv", "filters": 2, "kernel": 0}), "layer 0"),
    "conv-filters-0": ("classifier_spec", _clf_spec({"type": "conv", "filters": 0, "kernel": 2}), "layer 0"),
    "conv-bad-padding": ("classifier_spec", _clf_spec({"type": "conv", "filters": 2, "kernel": 2, "padding": "full"}), "layer 0"),
    "dense-units-str": ("classifier_spec", _clf_spec({"type": "flatten"}, {"type": "dense", "units": "3"}), "layer 1"),
    "dense-units-float": ("classifier_spec", _clf_spec({"type": "flatten"}, {"type": "dense", "units": 3.5}), "layer 1"),
    "dense-units-bool": ("classifier_spec", _clf_spec({"type": "flatten"}, {"type": "dense", "units": True}), "layer 1"),
    "dropout-rate-str": ("classifier_spec", _clf_spec({"type": "dropout", "rate": "x"}), "layer 0"),
    "dropout-rate-1": ("classifier_spec", _clf_spec({"type": "dropout", "rate": 1.0}), "layer 0"),
    "layer-not-an-object": ("classifier_spec", _clf_spec("relu"), "layer 0"),
    "unknown-field": ("classifier_spec", _clf_spec({"type": "relu", "units": 3}), "layer 0"),
    "spec-without-layers": ("classifier_spec", {"name": "clf", "input_shape": [8, 8, 1]}, "'layers'"),
    "spec-not-an-object": ("classifier_spec", [1, 2], "'layers'"),
    "input-shape-str": ("classifier_spec", _clf_spec(input_shape="ab"), "'input_shape'"),
    "no-classifier-spec": ("classifier_spec", None, "classifier_spec"),
    "no-autoencoder-spec": ("autoencoder_spec", None, "autoencoder_spec"),
    "ae-dropout-rate-above-1": ("autoencoder_spec", _AE_WITH_BAD_DROPOUT, "layer 0"),
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
        save_checkpoint(build_model(ModelSpec.from_dict(cfg["classifier_spec"]), 0), out / "classifier.ckpt")
    if value is None:
        del cfg[key]
    else:
        cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err, err


def test_tempered_defence_is_scored_calibrated_and_reported_with_its_temperature(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path, out, defence_losses=[{"kind": "kl_temperature", "temperature": 0.5}],
        score_defence="kl_temperature", report_defences=["kl_temperature"], eps_fpr=0.3,
    )
    for stage in ["train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate"]:
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
    classifier = cli._load_classifier(out)
    ae = cli._load_defence(out, "kl_temperature")
    data = from_dict(cli.Experiment, json.loads(cfg.read_text())).dataset
    train, test = data.load(5, "train"), data.load(5, "test")
    tempered = dfc.adversarial_score(classifier, ae, test.images, temperature=0.5)
    assert np.abs(tempered - dfc.adversarial_score(classifier, ae, test.images)).max() > 1e-6
    assert np.array_equal(cli._read_scores_csv(out / "scores" / "clean_test.csv"), tempered)
    cal = dfc.adversarial_score(classifier, ae, train.images[-60:], temperature=0.5)
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
    predicted = {tag: classifier.predict_class(cli._load_defence(out, tag).reconstruct(batch.adversarials))
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
    "checkpoint-every-negative": (lambda c: c.update(checkpoint_every=-1), "train-defence", "checkpoint_every"),
    "defence-losses-repeated-kind": (
        lambda c: c.update(defence_losses=[{"kind": "kl"}, {"kind": "kl", "temperature": 3.0}]),
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
}


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


def _fuzz_base(out_dir) -> dict:
    return {**_toy_config(out_dir), "drift": {"kinds": ["blur"], "severities": [1, 2]}}


_OBJECTS = ("dataset", "classifier_opt", "defence_opt", ("defence_losses", 0), ("attacks", 0), "drift")
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.floats(-2, 2, allow_nan=False), st.text(max_size=4),
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
    elif action == "swap":
        node[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(node[key])))
    else:
        node["unknown_" + draw(st.text(max_size=4))] = draw(_JSON_VALUES)
    return cfg


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
        pass
