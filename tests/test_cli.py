import csv
import json
import struct
import sys

import numpy as np
import pytest

from pmdef import cli
from pmdef import defence as dfc
from pmdef.attacks import load_batch
from pmdef.cli import run_cli
from pmdef.models import CHECKPOINT_MAGIC, ModelSpec, build_model, load_checkpoint, save_checkpoint


def _write_config(tmp_path, out_dir, **overrides):
    size = 8
    cfg = {
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
    cfg.update(overrides)
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
    monkeypatch.setitem(cli._COMMANDS, "attack", lambda cfg, seed, out, workers: seen.append(workers) or 0)
    path = _write_config(tmp_path, tmp_path / "run")
    assert run_cli(["attack", "--config", str(path)]) == 0
    assert run_cli(["attack", "--config", str(path), "--workers", "3"]) == 0
    assert seen == [1, 3]


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


def test_full_pipeline_smoke_and_manifests(tmp_path):
    out = tmp_path / "run"
    path = _write_config(tmp_path, out)
    for stage in ["train-classifier", "train-defence", "attack", "score", "calibrate", "evaluate", "drift", "roc"]:
        assert run_cli([stage, "--config", str(path)]) == 0, stage
    assert (out / "classifier.ckpt").is_file()
    assert (out / "ae_kl.ckpt").is_file()
    assert (out / "ae_kl_epoch_002.ckpt").is_file()
    assert (out / "attacks" / "fgsm02.json").is_file()
    assert (out / "attacks" / "fgsm02.bin").is_file()
    assert (out / "scores" / "clean_test.csv").is_file()
    assert (out / "threshold.json").is_file()
    assert (out / "report_accuracy.csv").is_file()
    assert (out / "drift.json").is_file()
    assert (out / "roc_fgsm02.json").is_file()
    manifest = json.loads((out / "manifest_train-classifier.json").read_text())
    assert manifest["stage"] == "train-classifier"
    assert manifest["seed"] == 5
    assert "classifier.ckpt" in manifest["artifacts"]
    assert "sha256" in manifest["artifacts"]["classifier.ckpt"]
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


def test_roc_malformed_score_csv_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, out)
    (out / "scores").mkdir(parents=True)
    (out / "scores" / "clean_test.csv").write_text("id,score\n0,0.1\n1,0.2\n")
    (out / "scores" / "fgsm02.csv").write_text("id,score\n0,0.3\n1,abc\n")
    assert run_cli(["roc", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "fgsm02.csv:3" in err


@pytest.fixture(scope="module")
def attacked_run(tmp_path_factory):
    """Config and output directory after train-classifier, train-defence and attack."""
    tmp = tmp_path_factory.mktemp("attacked")
    cfg = _write_config(tmp, tmp / "run")
    for stage in ["train-classifier", "train-defence", "attack"]:
        assert run_cli([stage, "--config", str(cfg)]) == 0, stage
    return cfg, tmp / "run"


@pytest.mark.parametrize(
    "content", ["{not json", '{"threshold": 0.1}', '{"defence": "kl"}', '[0.1, "kl"]', '{"threshold": "x", "defence": "kl"}']
)
def test_evaluate_malformed_threshold_file_exits_1(attacked_run, capsys, content):
    cfg, out = attacked_run
    (out / "threshold.json").write_text(content)
    assert run_cli(["evaluate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "threshold.json" in err


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
    train, test = cli.load_datasets(json.loads(cfg.read_text()), 5)
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
