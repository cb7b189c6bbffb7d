"""The experiment scripts under scripts/: they import, parse their arguments
and build configs the pipeline CLI accepts."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmdef
from pmdef.cli import Experiment
from pmdef.schema import from_dict

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    """Imports a script by module name, as the scripts import one another."""
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    return importlib.import_module


@pytest.mark.parametrize("script", sorted(p.name for p in _SCRIPTS.glob("*.py")))
def test_script_imports_and_shows_its_help(script):
    src = str(Path(pmdef.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(_SCRIPTS / script), "--help"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()


@pytest.mark.parametrize(
    "module, builder",
    [("run_greybox_experiment", "default_config"), ("run_drift_experiment", "drift_config"),
     ("run_whitebox_experiment", "whitebox_config")],
)
def test_experiment_config_is_accepted_and_writes_no_epoch_checkpoints(scripts, module, builder):
    cfg = getattr(scripts(module), builder)("out", 3)
    exp = from_dict(Experiment, cfg)
    assert exp.seed == 3 and exp.out == "out"
    assert exp.checkpoint_every == 0  # nothing reads epoch checkpoints


def test_whitebox_config_attacks_the_kl_pipeline_on_the_whole_test_set(scripts):
    wb = scripts("run_whitebox_experiment")
    exp = from_dict(Experiment, wb.whitebox_config("out", 0))
    assert [a.name for a in exp.attacks] == ["fgsm_02", "wb_fgsm_02"]
    grey, white = exp.attacks
    assert white.target_mode == "white_box" and white.ae == "kl" and white.epsilon == grey.epsilon == 0.2
    assert exp.attack_subset is None
    assert {s.kind for s in exp.defence_losses} == {"kl", "mse"}  # the attacked AE and an untargeted one
    assert set(exp.report_defences) == {"kl", "mse"}


def test_run_stages_stops_at_the_first_failing_stage(scripts, monkeypatch):
    grey = scripts("run_greybox_experiment")
    calls = []

    def fake_cli(argv):
        calls.append(argv)
        return 1 if argv[0] == "attack" else 0

    monkeypatch.setattr(grey, "run_cli", fake_cli)
    assert grey.run_stages({"seed": 0}, ["train-classifier", "attack", "score"], "--workers", "2") == 1
    assert [argv[0] for argv in calls] == ["train-classifier", "attack"]
    assert all(argv[1] == "--config" and argv[3:] == ["--workers", "2"] for argv in calls)
    assert grey.run_stages({"seed": 0}, ["train-classifier", "score"]) == 0
