#!/usr/bin/env python3
"""pmdef benchmark: drives the pipeline CLI in-process as one closed-loop
client, stage after stage, on seeded synthetic data.

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run it from anywhere inside a source checkout; it imports ``pmdef`` from the
checkout's ``src/`` and refuses to run without it. Set-up (training the
models a workload needs) repeats ``setup_repeats`` times and must give
byte-identical artifacts each time; then the workload's timed stages repeat
until ``--seconds`` have passed.

With ``--trace 0`` every end-to-end metric of BENCHMARK.json is reported:
``setup_s`` (median wall time of the set-ups), ``wall_ref`` (mean over
passes of the timed stages' wall time in units of the reference kernel, see
``reference_s``) and ``peak_rss_mb``; the workload's own figures (stage
times, throughputs, quality) are printed as medians over passes. With
``--trace 1`` untraced and traced
passes alternate instead: the traced passes wrap the pmdef layers from
outside (see bench_trace.py) and give every per-layer metric, the
traced-minus-untraced wall time is the tracing overhead, and both kinds of
pass must write identical artifacts.

Every stage must exit 0, every manifest hash must match its artifact on
disk, repeated passes must agree byte for byte, and the quality figures
must meet the floors in bench_workloads.FLOORS. A run that breaks any of
these prints ``"correct": false`` and exits 1. Results (and spans of traced
runs) are written under perfbench/_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "_results"
WORK = HERE / "_work"


def import_pmdef() -> None:
    """Put the checkout's src/ first on the path; exit 2 when it has no pmdef."""
    if not (ROOT / "src" / "pmdef" / "cli.py").is_file():
        print(f"perfbench: no pmdef sources under {ROOT / 'src'}; run it inside a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# machine and artifacts


def machine_info() -> dict:
    import numpy as np
    from bench_workloads import WORKERS

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git = describe.stdout.strip() if describe.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_describe": git,
        "workers": WORKERS,
    }


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def verified_hashes(out: Path, stages) -> tuple[dict[str, str], list[str]]:
    """Artifact hashes from the stages' manifests, each re-checked against
    the file on disk; returns (path -> sha256, problems)."""
    hashes, problems = {}, []
    for stage in stages:
        manifest = out / f"manifest_{stage}.json"
        if not manifest.is_file():
            problems.append(f"{stage}: no manifest")
            continue
        for rel, entry in json.loads(manifest.read_text(encoding="utf-8"))["artifacts"].items():
            if "sha256" not in entry:
                continue
            actual = sha256(out / rel)
            if actual != entry["sha256"]:
                problems.append(f"{stage}: {rel} does not match its manifest hash")
            hashes[rel] = actual
    return hashes, problems


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload, seed: int, scale, trace: bool):
        import pmdef.attacks
        import pmdef.cli

        self.workload, self.seed, self.scale = workload, seed, scale
        self.cli = pmdef.cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self._hook_cw(pmdef.attacks)

    def _hook_cw(self, attacks) -> None:
        """Count C&W instances and the ones flagged as numeric failures; the
        CLI does not persist attack diagnostics."""
        original = attacks.cw_l2
        run = self

        def cw_l2(*args, **kwargs):
            batch = original(*args, **kwargs)
            run.attempted += len(batch.success)
            run.failed += int(batch.diagnostics["failed"].sum())
            return batch

        attacks.cw_l2 = cw_l2
        self._unhook = lambda: setattr(attacks, "cw_l2", original)

    def write_config(self, cfg: dict, out: Path) -> Path:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "config.json"
        path.write_text(json.dumps({**cfg, "out": str(out)}, indent=1), encoding="utf-8")
        return path

    def stage(self, name: str, cfg_path: Path, tracer=None) -> float:
        """Run one CLI stage; returns its wall time. A non-zero exit is a
        failed operation and ends the run."""
        from bench_workloads import WORKERS

        self.attempted += 1
        argv = [name, "--config", str(cfg_path), "--workers", str(WORKERS)]
        if tracer is not None:
            tracer.stage = name
        with tracer.span(f"cli.{name}") if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            code = self.cli.run_cli(argv)
            dt = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            raise StageFailed(f"stage {name} exited {code}")
        return dt

    def stages(self, names, cfg_path: Path, tracer=None) -> tuple[dict[str, float], float, list[float]]:
        """Run stages with the reference kernel timed before and after each;
        returns the stage times, their sum in reference units (each stage
        divided by the mean of the two reference times around it) and the
        reference times."""
        stage_s, refs, in_ref = {}, [reference_s()], 0.0
        for st in names:
            stage_s[st] = self.stage(st, cfg_path, tracer)
            refs.append(reference_s())
            in_ref += stage_s[st] / ((refs[-2] + refs[-1]) / 2.0)
        return stage_s, in_ref, refs

    def setup(self) -> tuple[list[float], Path, Path, dict]:
        """Set up ``setup_repeats`` times in fresh directories. Returns the
        set-up wall times, the last directory with its config path, and the
        config."""
        w, scale = self.workload, self.scale
        times, first_hashes = [], None
        for i in range(scale.setup_repeats):
            out = self.work / f"setup{i}"
            cfg = w.config(self.seed, scale)
            cfg_path = self.write_config(cfg, out)
            # the train workload times its own stages, so its set-up is a warm-up run on less data
            built = self.write_config(w.warmup_config(self.seed, scale), out / "warmup") if w.name == "train" else cfg_path
            times.append(sum(self.stage(st, built) for st in w.setup_stages))
            hashes, problems = verified_hashes(built.parent, w.setup_stages)
            self.problems += problems
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                self.problems.append(f"set-up {i} wrote different artifacts than set-up 0")
        return times, out, cfg_path, cfg

    def timed_pass(self, out: Path, cfg_path: Path, cfg: dict, tracer=None):
        """Run the timed stages once; ``wall_ref`` is their time in reference units."""
        from bench_workloads import figures

        stage_s, wall_ref, refs = self.stages(self.workload.timed_stages, cfg_path, tracer)
        hashes, problems = verified_hashes(out, self.workload.timed_stages)
        self.problems += problems
        fig = figures(self.workload, cfg, out, stage_s)
        fig["wall_ref"] = (wall_ref, "ref")
        fig["ref_s"] = (statistics.median(refs), "s")
        return fig, hashes

    def close(self) -> None:
        self._unhook()
        shutil.rmtree(self.work, ignore_errors=True)


class StageFailed(Exception):
    pass


def reference_s() -> float:
    """Wall time of a fixed kernel that shares no code with pmdef: strided
    numpy slicing, tensordot and window maxima of a small NHWC batch (the
    pipeline's conv/maxpool traffic) plus an interpreted Python loop (its
    per-op overhead). Timed next to every stage, it tracks how fast this
    shared machine runs at that moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.random((64, 22, 22, 1)), rng.random((3, 3, 1, 8))
    t0 = time.perf_counter()
    for _ in range(4):
        out = np.zeros((64, 20, 20, 8))
        for i in range(3):
            for j in range(3):
                out += np.tensordot(x[:, i : i + 20, j : j + 20, :], w[i, j], axes=([3], [0]))
        windows = np.stack([out[:, i : i + 16 : 5, j : j + 16 : 5, :] for i in range(5) for j in range(5)], axis=3)
        windows.max(axis=3)
    acc = 0.0
    for j in range(600_000):
        acc += j * 0.5
    return time.perf_counter() - t0


def median_figures(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-figure medians over passes; ``wall_ref`` takes the mean instead,
    which spread less across runs on this kind of shared machine."""
    fig = {k: (statistics.median(p[k][0] for p in passes), passes[0][k][1]) for k in passes[0]}
    if "wall_ref" in fig:
        fig["wall_ref"] = (statistics.fmean(p["wall_ref"][0] for p in passes), "ref")
    return fig


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    from bench_workloads import gate

    setup_times, out, cfg_path, cfg = run.setup()
    passes, first = [], None
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        fig, hashes = run.timed_pass(out, cfg_path, cfg)
        passes.append(fig)
        if first is None:
            first = hashes
        elif hashes != first:
            run.problems.append(f"pass {len(passes) - 1} wrote different artifacts than pass 0")
    fig = median_figures(passes)
    for p in passes:
        run.problems += gate(p, run.scale)
    fig["setup_s"] = (statistics.median(setup_times), "s")
    fig["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics = {k: fig[k] for k in ("setup_s", "wall_ref", "peak_rss_mb")}
    extra = {"figures": fig, "pass_wall_s": [p["wall_s"][0] for p in passes],
             "pass_wall_ref": [p["wall_ref"][0] for p in passes], "setup_times_s": setup_times,
             "artifact_sha256": first}
    return metrics, extra


def run_traced(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import bench_trace as bt
    from bench_workloads import gate

    _, out, cfg_path, cfg = run.setup()
    untraced, traced, layers, first = [], [], [], None
    must_record = [m for m, group in load_mapping()[0].items() if run.workload.name in group["records_on"]]
    all_spans = []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        fig, hashes = run.timed_pass(out, cfg_path, cfg)
        untraced.append(fig)
        run.problems += gate(fig, run.scale)
        tracer = bt.Tracer()
        tracer.install()
        failed_before = run.failed
        try:
            tfig, thashes = run.timed_pass(out, cfg_path, cfg, tracer)
        finally:
            tracer.uninstall()
        traced.append(tfig)
        if thashes != hashes:
            run.problems.append("the traced pass wrote different artifacts than the untraced pass")
        if first is None:
            first = hashes
        elif hashes != first:
            run.problems.append("repeated passes wrote different artifacts")
        stats = bt.PassStats(tracer.spans)
        layer = bt.per_layer_metrics(stats, tracer)
        # C&W instances flagged in diagnostics["failed"], as counted by Run
        layer["attacks.cw.failed"] = (run.failed - failed_before, "count")
        layers.append((layer, bt.stage_row_ratios(tracer)))
        missing = bt.missing_sources(stats, must_record)
        if missing:
            run.problems.append(f"traced pass recorded nothing for {', '.join(missing)}")
        all_spans += tracer.spans
    counts = [{k: v for k, (v, u) in layer.items() if u == "count"} for layer, _ in layers]
    if any(c != counts[0] for c in counts[1:]):
        run.problems.append("per-layer counts differ between traced passes")
    metrics = median_figures([layer for layer, _ in layers])
    metrics.update({k: (v, "count") for k, v in counts[0].items()})
    # overhead in reference units, converted back at the run's median reference time
    u, t = median_figures(untraced), median_figures(traced)
    ref_s = statistics.median(f["ref_s"][0] for f in untraced + traced)
    metrics["trace.overhead_s"] = ((t["wall_ref"][0] - u["wall_ref"][0]) * ref_s, "s")
    RESULTS.mkdir(parents=True, exist_ok=True)
    bt.write_spans(all_spans, spans_path)
    extra = {
        "artifact_sha256": first,
        "traced_passes": len(traced),
        "untraced_wall_s": u["wall_s"][0],
        "traced_wall_s": t["wall_s"][0],
        "untraced_wall_ref": u["wall_ref"][0],
        "traced_wall_ref": t["wall_ref"][0],
        "stage_useful_row_ratio": layers[-1][1],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(all_spans),
    }
    return metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale_name: str = "full") -> dict:
    from bench_workloads import SCALES, WORKLOADS

    workload, scale = WORKLOADS[name], SCALES[scale_name]
    run = Run(workload, seed, scale, trace)
    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("" if scale_name == "full" else f"-{scale_name}")
    try:
        if trace:
            metrics, extra = run_traced(run, seconds, RESULTS / f"{tag}.spans.jsonl.gz")
        else:
            metrics, extra = run_untraced(run, seconds)
    except StageFailed as exc:
        run.problems.append(str(exc))
        metrics, extra = {}, {}
    finally:
        run.close()
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale_name,
        "machine": machine_info(),
        "problems": run.problems,
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    if "figures" in result:
        result["figures"] = {k: {"value": v, "unit": u} for k, (v, u) in result["figures"].items()}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def expand(pattern: str) -> list[str]:
    """Shell-style brace expansion: ``a.{b,c}.d`` -> ``[a.b.d, a.c.d]``."""
    m = re.search(r"\{([^{}]*)\}", pattern)
    if m is None:
        return [pattern]
    return [name for alt in m.group(1).split(",") for name in expand(pattern[: m.start()] + alt + pattern[m.end() :])]


def load_mapping() -> tuple[dict[str, dict], list[str]]:
    """mapping.json's groups expanded to per-layer metric -> group, plus
    one problem per metric that more than one group names."""
    groups = json.loads((HERE / "mapping.json").read_text(encoding="utf-8"))["groups"]
    mapped, problems = {}, []
    for group in groups:
        for name in (n for pattern in group["metrics"] for n in expand(pattern)):
            if name in mapped:
                problems.append(f"mapping.json names {name} in two groups")
            mapped[name] = group
    return mapped, problems


def report(result: dict) -> None:
    for key, value in result["machine"].items():
        print(f"machine {key} {value}")
    for name, m in sorted(result.get("figures", {}).items()):
        print(f"figure {name} {m['value']:.6g} {m['unit']}")
    for stage, ratio in sorted(result.get("stage_useful_row_ratio", {}).items()):
        print(f"figure models.useful_row_ratio.{stage} {ratio:.6g} ratio")
    for name, m in sorted(result["metrics"].items()):
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")


def smoke() -> int:
    """Tiny scale, all three workloads, traced and untraced: every metric
    named in BENCHMARK.json must come out, every run must pass its gate, and
    the traced run must write the same artifacts as the untraced one."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    mapped, bad = load_mapping()
    bad += [f"per-layer metric {m} has no entry in mapping.json" for m in sorted(want[1] - set(mapped))]
    bad += [f"mapping.json names {m}, which BENCHMARK.json does not" for m in sorted(set(mapped) - want[1])]
    for w in bench["workloads"]:
        artifacts = []
        for trace in (0, 1):
            result = run_workload(w["name"], seed=0, seconds=0, trace=bool(trace), scale_name="tiny")
            got = set(result["metrics"])
            bad += [f"{w['name']} trace {trace}: {p}" for p in result["problems"]]
            if got != want[trace]:
                bad.append(f"{w['name']} trace {trace}: missing {sorted(want[trace] - got)}, extra {sorted(got - want[trace])}")
            artifacts.append(result.get("artifact_sha256"))
        if not artifacts[0] or artifacts[0] != artifacts[1]:
            bad.append(f"{w['name']}: traced and untraced runs wrote different artifacts")
    for line in bad:
        print(f"FAILED {line}")
    print(f"smoke: {'ok' if not bad else 'failed'}")
    return 0 if not bad else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="pmdef benchmark")
    parser.add_argument("--workload", choices=("train", "attack", "report"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-scale check of all workloads and metric names")
    args = parser.parse_args()
    import_pmdef()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
