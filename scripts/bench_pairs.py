#!/usr/bin/env python3
"""Alternated parent/change pairs of the benchmark, with minor page faults per run.

    python3 scripts/bench_pairs.py --parent /path/to/parent-checkout --change . \\
        --workload report --seeds 101 102 103 104 105 --out BENCH.json

For every seed, runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, one after the other, and
alternates from seed to seed which side goes first. Every run records its
end-to-end metrics, ``correct``/``failed``, a digest of its artifact hashes
and the minor and major page faults of the child process
(``RUSAGE_CHILDREN``): train wall time moves with how often glibc hands
freed pages back, so a wall figure is only read next to its fault count.
Every run gets a fresh, empty ``PYTHONPYCACHEPREFIX``, so both sides compile
every module they import from source and no ``__pycache__`` left in either
checkout is read: a side that loads cached bytecode starts with fewer page
faults and less memory than one that compiles.

The output file keeps the runs of every workload run into it so far. Each
invocation writes its own runs and their summary as its workload's entry:
per metric and side the median and quartiles, and how many pairs the change
won (lower is better for all three metrics), with the minor page faults
summarised the same way beside them. The series that entry held before,
with its runs and summary, moves to the end of the entry's
``earlier_series`` list, so a second series into the same file adds to
the first instead of replacing it. Each of the three metrics
also gets a verdict against its ``end_to_end`` bound in BENCHMARK.json (a
fraction of the parent's median):

* gain: the change won at least 9 of 10 pairs and the medians differ by more
  than the parent's interquartile range;
* worse: the change's median exceeds the parent's by more than the bound,
  or no change run counts (see below);
* unresolved: the parent's interquartile range is wider than the bound, and
  not every run of the change reads better than every run of the parent;
* neutral: none of these.

A change run that crashed, printed ``"correct": false`` or failed more
operations than the parent's run of its seed is a pair the change lost, on
every metric; its figures enter no median. A parent run that crashed leaves
its seed unpaired.

A verdict also says whether it was read across fault modes: when either
side's runs differ by more than 4x in minor faults, every verdict of the
workload carries ``"fault_modes_mixed": true``, because glibc's heap state
then moves the wall time more than the code does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("wall_ref", "setup_s", "peak_rss_mb")
BOUNDS = {m["name"]: m["bound"]
          for m in json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
        wall_s = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = {"seed": seed, "exit": proc.returncode, "wall_s": round(wall_s, 3),
           "minflt": after.ru_minflt - before.ru_minflt, "majflt": after.ru_majflt - before.ru_majflt}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        run["error"] = proc.stderr.strip().splitlines()[-5:]
        return run
    printed = json.loads(lines[-1])
    run.update(correct=printed["correct"], attempted=printed["attempted"], failed=printed["failed"])
    run.update({m: printed["metrics"][m]["value"] for m in METRICS})
    result = json.loads((checkout / "perfbench" / "_results" / f"{workload}-seed{seed}-trace0.json").read_text())
    hashes = json.dumps(result["artifact_sha256"], sort_keys=True).encode()
    run["artifacts_digest"] = hashlib.sha256(hashes).hexdigest()[:16]
    return run


def quartiles(values: list[float]) -> dict:
    if not values:
        return {}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": med, "q3": q3}


def verdict(parent: list[float], change: list[float | None], bound: float) -> str:
    """The reading of one lower-is-better metric over paired runs (see the
    module docstring); ``None`` in ``change`` is a pair the change lost."""
    if not parent:
        return "unresolved"
    ran = [c for c in change if c is not None]
    if not ran:
        return "worse"
    p, c = quartiles(parent), quartiles(ran)
    iqr = p["q3"] - p["q1"]
    won = sum(1 for a, b in zip(parent, change) if b is not None and b < a)
    if 10 * won >= 9 * len(parent) and p["median"] - c["median"] > iqr:
        return "gain"
    if c["median"] > p["median"] * (1.0 + bound):
        return "worse"
    if iqr > p["median"] * bound and not (len(ran) == len(change) and max(ran) < min(parent)):
        return "unresolved"
    return "neutral"


def sound(change: dict, parent: dict) -> bool:
    """Whether a change run counts as measured: it finished, was correct and
    failed no more operations than the parent's run of its seed."""
    return "wall_ref" in change and change["correct"] and change["failed"] <= parent["failed"]


def summarize(runs: list[dict]) -> dict:
    parent = {r["seed"]: r for r in runs if r["side"] == "parent" and "wall_ref" in r}
    change = {r["seed"]: r for r in runs if r["side"] == "change"}
    seeds = sorted(set(parent) & set(change))
    lost = {s for s in seeds if not sound(change[s], parent[s])}  # a crashed, incorrect or more-failing change run
    out = {"pairs": len(seeds), "change_runs_lost": len(lost),
           "artifacts_identical": all(parent[s]["artifacts_digest"] == change[s].get("artifacts_digest") for s in seeds),
           "all_correct": all(r.get("correct") and r.get("failed") == 0 for r in runs)}
    faults = ([parent[s]["minflt"] for s in seeds], [change[s]["minflt"] for s in seeds if s not in lost])
    mixed = any(f and max(f) > 4 * min(f) for f in faults)
    for m in (*METRICS, "minflt"):
        p = [parent[s][m] for s in seeds]
        c = [None if s in lost else change[s][m] for s in seeds]
        out[m] = {"parent": quartiles(p), "change": quartiles([b for b in c if b is not None]),
                  "change_won": sum(1 for a, b in zip(p, c) if b is not None and b < a),
                  "change_lost": sum(1 for a, b in zip(p, c) if b is None or b > a)}
        if m in BOUNDS:
            out[m].update(verdict=verdict(p, c, BOUNDS[m]), fault_modes_mixed=mixed)
    return out


def record(doc: dict, workload: str, seconds: float, runs: list[dict]) -> dict:
    """``doc`` with ``runs`` as ``workload``'s latest series and the series it
    held before appended to that workload's ``earlier_series``."""
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0")
    workloads = doc.setdefault("workloads", {})
    earlier = workloads.get(workload, {})
    series = [*earlier.pop("earlier_series", []), earlier] if earlier else []
    workloads[workload] = {"seconds": seconds, "runs": runs, "summary": summarize(runs), "earlier_series": series}
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", choices=("train", "attack", "report"), required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    runs = []
    for i, seed in enumerate(args.seeds):
        sides = [("parent", args.parent), ("change", args.change)]
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            run = {"side": side, "order": len(runs), **run_once(checkout.resolve(), args.workload, seed, args.seconds)}
            runs.append(run)
            print(json.dumps(run), flush=True)
    record(doc, args.workload, args.seconds, runs)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(doc["workloads"][args.workload]["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
