"""Every writer of the pipeline goes through ``write_artifact``: the target
holds its old bytes or its new bytes, never a prefix, and an interrupted
write leaves no temporary file behind."""

import errno
import json
import os
import stat

import numpy as np
import pytest

from pmdef import artifacts, cli
from pmdef.attacks import AdversarialBatch, AttackConfig, inputs_crc32, load_batch, save_batch
from pmdef.datasets import Dataset, write_cifar_binary, write_idx
from pmdef.defence import verdicts_to_csv
from pmdef.errors import ParseError
from pmdef.evaluation import DriftReport, DriftRow, accuracy_report_to_csv
from pmdef.models import build_model, save_checkpoint
from pmdef.training import TrainReport
from toys import cnn_classifier_spec, image_ae_spec

# ---------------------------------------------------------------------------
# the helper itself


def test_write_artifact_writes_str_as_utf8_and_bytes_verbatim(tmp_path):
    artifacts.write_artifact(tmp_path / "a.txt", "é\r\n")
    artifacts.write_artifact(tmp_path / "b.bin", b"\x00\xff")
    assert (tmp_path / "a.txt").read_bytes() == "é\r\n".encode("utf-8")
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]


def test_write_artifact_keeps_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        artifacts.write_artifact(tmp_path / "a", b"x")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a").stat().st_mode) == 0o644


def _fallocate_recorder(monkeypatch, target, raises=None):
    """Replaces ``os.posix_fallocate`` with a recorder of ``(fd is open on
    target's temporary file, offset, length)``; it raises ``raises`` after recording."""
    calls = []

    def record(fd, offset, length):
        tmp = target.with_name(target.name + ".tmp")
        calls.append((os.path.samestat(os.fstat(fd), os.stat(tmp)), offset, length))
        if raises is not None:
            raise raises

    monkeypatch.setattr(artifacts.os, "posix_fallocate", record, raising=False)
    return calls


@pytest.mark.parametrize("data", ["é\r\n" * 100, b"\x00\xff" * 3000], ids=["str", "bytes"])
def test_write_artifact_preallocates_the_temporary_file_to_its_byte_length(tmp_path, monkeypatch, data):
    calls = _fallocate_recorder(monkeypatch, tmp_path / "a")
    expected = data.encode("utf-8") if isinstance(data, str) else data
    for _ in range(2):  # a fresh target, then a rewrite of it
        artifacts.write_artifact(tmp_path / "a", data)
    assert calls == [(True, 0, len(expected))] * 2
    assert (tmp_path / "a").read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


@pytest.mark.parametrize("data", [b"", ""], ids=["bytes", "str"])
def test_write_artifact_of_empty_data_truncates_without_preallocating(tmp_path, monkeypatch, data):
    (tmp_path / "a").write_bytes(b"old")
    calls = _fallocate_recorder(monkeypatch, tmp_path / "a")
    artifacts.write_artifact(tmp_path / "a", data)
    assert calls == []  # posix_fallocate refuses a length of 0 with EINVAL
    assert (tmp_path / "a").read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


def test_write_artifact_lands_the_bytes_where_preallocation_is_refused(tmp_path, monkeypatch):
    (tmp_path / "a").write_bytes(b"old")
    calls = _fallocate_recorder(monkeypatch, tmp_path / "a", OSError(errno.EOPNOTSUPP, "not supported"))
    artifacts.write_artifact(tmp_path / "a", b"new bytes")
    assert calls == [(True, 0, 9)]
    assert (tmp_path / "a").read_bytes() == b"new bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


def test_write_artifact_lands_the_bytes_where_os_lacks_posix_fallocate(tmp_path, monkeypatch):
    (tmp_path / "a").write_bytes(b"old")
    monkeypatch.delattr(os, "posix_fallocate", raising=False)  # as on macOS and Windows
    artifacts.write_artifact(tmp_path / "a", "new text")
    assert (tmp_path / "a").read_bytes() == b"new text"
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


def test_write_artifact_interrupted_in_preallocation_keeps_the_old_bytes(tmp_path, monkeypatch):
    (tmp_path / "a").write_bytes(b"old")
    calls = _fallocate_recorder(monkeypatch, tmp_path / "a", KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        artifacts.write_artifact(tmp_path / "a", b"new bytes")
    assert calls == [(True, 0, 9)]
    assert (tmp_path / "a").read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


def test_csv_text_ends_lines_with_crlf():
    assert artifacts.csv_text([["a", "b"], [1, "x,y"]]) == 'a,b\r\n1,"x,y"\r\n'


# ---------------------------------------------------------------------------
# one interrupted rewrite per writer


def _batch(v):
    x = np.full((2, 3), 0.25 + v / 8)
    rows = np.array([0, 1])
    return AdversarialBatch(inputs_crc32(x), x + 0.1, rows, rows, rows[::-1], np.array([False, True]),
                            dict.fromkeys(("l1", "l2", "linf"), np.array([0.1, 0.2])), AttackConfig("fgsm"))


def _calibrate(out, v):
    """A calibrate run over untrained checkpoints; the seed ``v`` changes the
    calibration data, so the two runs write different thresholds."""
    if not (out / "classifier.ckpt").exists():
        save_checkpoint(build_model(cnn_classifier_spec(size=8), 0), out / "classifier.ckpt")
        save_checkpoint(build_model(image_ae_spec(size=8), 0), out / "ae_kl.ckpt")
    cfg = {"seed": 0, "dataset": {"kind": "synth", "image_size": 8, "num_classes": 3, "n_train": 20, "n_test": 4},
           "calibration_size": 20}
    (out.parent / "cfg.json").write_text(json.dumps(cfg))
    assert cli.run_cli(["calibrate", "--config", str(out.parent / "cfg.json"), "--out", str(out), "--seed", str(v)]) == 0


def _roc(out, v):
    (out / "scores").mkdir(exist_ok=True)
    (out / "scores" / "clean_test.csv").write_text("id,score\n0,0.1\n1,0.2\n")
    (out / "scores" / "a.csv").write_text(f"id,score\n0,{0.05 + v / 10}\n1,0.3\n")
    cfg = {"seed": 0, "attacks": [{"name": "a", "kind": "fgsm"}]}
    (out.parent / "cfg.json").write_text(json.dumps(cfg))
    for stage in ("score", "evaluate"):  # roc reads which seed and score_defence the score files were made under
        cli.write_manifest(out, stage, cfg, 0, [], {})
    assert cli.run_cli(["roc", "--config", str(out.parent / "cfg.json"), "--out", str(out)]) == 0


def _drift(v):
    return DriftReport(["blur"], [DriftRow(1, v, 2, 0.5, None, 0.25, 0.125, 0.75, None, None)])


def _report(v):
    return TrainReport("classifier", v, "cross_entropy", [0.5], [0.25], 0.5, 0.25)


def _images(v, shape):
    return Dataset(np.full(shape, (v + 1) / 255), np.zeros(shape[0], dtype=np.int64), name="d")


# id: (the target's path under the output directory, write(out, v) writing variant v of it)
WRITERS = {
    "save_checkpoint": ("m.ckpt", lambda out, v: save_checkpoint(build_model(image_ae_spec(size=6), v), out / "m.ckpt")),
    "save_batch-json": ("b.json", lambda out, v: save_batch(_batch(v), out / "b.json")),
    "save_batch-bin": ("b.bin", lambda out, v: save_batch(_batch(v), out / "b.json")),
    "to_jsonl": ("t.jsonl", lambda out, v: _report(v).to_jsonl(out / "t.jsonl")),
    "verdicts_to_csv": ("v.csv", lambda out, v: verdicts_to_csv((np.array([v]), np.array([True]), np.array([1])), 0.5, out / "v.csv")),
    "accuracy_report_to_csv": ("r.csv", lambda out, v: accuracy_report_to_csv([{"attack": "a", "kl": v / 2}], out / "r.csv")),
    "drift-to_json": ("d.json", lambda out, v: _drift(v).to_json(out / "d.json")),
    "drift-to_csv": ("d.csv", lambda out, v: _drift(v).to_csv(out / "d.csv")),
    "write_manifest": ("manifest_s.json", lambda out, v: cli.write_manifest(out, "s", {"v": v}, v, [], 0.5)),
    "scores-csv": ("s.csv", lambda out, v: cli._write_scores_csv(np.array([v, 0.5]), out / "s.csv")),
    "threshold-json": ("threshold.json", _calibrate),
    "roc-json": ("roc_a.json", _roc),
    "write_idx-images": ("i.idx", lambda out, v: write_idx(_images(v, (2, 3, 3, 1)), out / "i.idx", out / "l.idx")),
    "write_idx-labels": ("l.idx", lambda out, v: write_idx(_images(v, (v + 1, 3, 3, 1)), out / "i.idx", out / "l.idx")),
    "write_cifar_binary": ("c.bin", lambda out, v: write_cifar_binary(_images(v, (1, 32, 32, 3)), out / "c.bin")),
}


@pytest.mark.parametrize("case", list(WRITERS))
def test_an_interrupted_rewrite_keeps_the_old_bytes_and_no_temporary_file(tmp_path, monkeypatch, case):
    name, write = WRITERS[case]
    out = tmp_path / "run"
    out.mkdir()
    write(out, 0)
    target = out / name
    before = target.read_bytes()
    replace = os.replace

    def interrupted(src, dst):
        if os.fspath(dst) == os.fspath(target):
            raise KeyboardInterrupt
        replace(src, dst)

    monkeypatch.setattr(artifacts.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write(out, 1)
    monkeypatch.undo()
    assert target.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
    if case == "save_batch-bin":  # the new JSON beside the old payload: its CRC-32 gives the pair away
        with pytest.raises(ParseError, match="payload does not match the CRC-32") as err:
            load_batch(out / "b.json")
        assert "b.json" in str(err.value) and "b.bin" in str(err.value)
    write(out, 1)  # and the same write, uninterrupted, does change the target
    assert target.read_bytes() != before
