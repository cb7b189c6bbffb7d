"""The per-metric verdicts of scripts/bench_pairs.py, on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10.0]  # median 10, IQR 0.1


def _runs(parent_wall, change_wall):
    """Paired runs whose wall_ref is given and whose other metrics do not move."""
    runs = []
    for side, walls in (("parent", parent_wall), ("change", change_wall)):
        for seed, wall in enumerate(walls):
            runs.append({"side": side, "seed": seed, "wall_ref": wall, "setup_s": 0.5, "peak_rss_mb": 90.0,
                         "minflt": 1000, "artifacts_digest": "same", "correct": True, "failed": 0})
    return runs


@pytest.mark.parametrize(
    "change, expected",
    [
        ([w - 2.0 for w in STEADY], "gain"),  # 10 of 10 pairs, gap 2 > IQR 0.1
        ([w - 2.0 for w in STEADY[:9]] + [12.0], "gain"),  # 9 of 10 pairs still is one
        ([w - 2.0 for w in STEADY[:8]] + [12.0, 12.0], "neutral"),  # 8 of 10 is not
        ([w - 0.05 for w in STEADY], "neutral"),  # 10 of 10, but a gap of 0.05 is inside the IQR
        ([w * 1.3 for w in STEADY], "worse"),  # +30% against a bound of 25%
        ([w * 1.2 for w in STEADY], "neutral"),  # +20%: slower, but inside the bound
    ],
)
def test_verdict_against_a_steady_parent(change, expected):
    summary = bench_pairs.summarize(_runs(STEADY, change))
    assert summary["pairs"] == 10
    assert summary["wall_ref"]["verdict"] == expected
    assert summary["setup_s"]["verdict"] == summary["peak_rss_mb"]["verdict"] == "neutral"
    assert "verdict" not in summary["minflt"]  # no bound in BENCHMARK.json
    assert not any(summary[m]["fault_modes_mixed"] for m in bench_pairs.METRICS)


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [6.0, 14.0] * 5  # median 10, IQR 8 > 25% of 10
    assert bench_pairs.summarize(_runs(wide, [w - 0.5 for w in wide]))["wall_ref"]["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    assert bench_pairs.summarize(_runs(wide, [5.9] * 10))["wall_ref"]["verdict"] == "neutral"
    # a change worse by more than the bound is worse, however wide the parent
    assert bench_pairs.summarize(_runs(wide, [w + 4.0 for w in wide]))["wall_ref"]["verdict"] == "worse"


@pytest.mark.parametrize(
    "side, faults, mixed",
    [("change", 4001, True), ("parent", 4001, True), ("change", 4000, False), ("parent", 250, False)],
)
def test_verdicts_read_across_fault_modes_are_marked(side, faults, mixed):
    runs = _runs(STEADY, [w - 2.0 for w in STEADY])
    for r in runs:
        if r["side"] == side and r["seed"] % 2:
            r["minflt"] = faults  # against 1000 in the other runs of that side
    summary = bench_pairs.summarize(runs)
    assert [summary[m]["fault_modes_mixed"] for m in bench_pairs.METRICS] == [mixed] * 3
    assert summary["wall_ref"]["verdict"] == "gain"  # the mark qualifies the verdict, it does not change it


def _crash(run):
    """The record run_once keeps of a run that exited non-zero."""
    return {k: run[k] for k in ("side", "seed", "minflt")} | {"exit": 1, "error": ["Traceback ..."]}


@pytest.mark.parametrize(
    "spoil",
    [_crash, lambda r: {**r, "correct": False}, lambda r: {**r, "failed": 1}],
    ids=["crashed", "incorrect", "more-failing"],
)
def test_a_spoilt_change_run_is_a_pair_the_change_lost(spoil):
    runs = _runs(STEADY, [w - 2.0 for w in STEADY])
    for seed in (0, 1):  # dropping these pairs would leave 8 of 8 won, a gain
        i = next(i for i, r in enumerate(runs) if r["side"] == "change" and r["seed"] == seed)
        runs[i] = spoil(runs[i])
    summary = bench_pairs.summarize(runs)
    assert summary["pairs"] == 10 and summary["change_runs_lost"] == 2
    for m in bench_pairs.METRICS:
        assert (summary[m]["change_won"], summary[m]["change_lost"]) == ((8, 2) if m == "wall_ref" else (0, 2))
    assert summary["wall_ref"]["verdict"] == "neutral"  # 8 of 10 pairs is not a gain
    assert not summary["all_correct"]


def test_one_spoilt_change_run_of_ten_still_leaves_nine_pairs_won():
    runs = _runs(STEADY, [w - 2.0 for w in STEADY])
    runs[-1] = _crash(runs[-1])
    summary = bench_pairs.summarize(runs)
    assert (summary["pairs"], summary["wall_ref"]["change_won"], summary["wall_ref"]["change_lost"]) == (10, 9, 1)
    assert summary["wall_ref"]["verdict"] == "gain" and not summary["artifacts_identical"]


def test_a_change_that_never_ran_reads_worse():
    runs = [r if r["side"] == "parent" else _crash(r) for r in _runs(STEADY, STEADY)]
    assert {bench_pairs.summarize(runs)[m]["verdict"] for m in bench_pairs.METRICS} == {"worse"}


def test_bounds_come_from_the_benchmark_definition():
    assert set(bench_pairs.BOUNDS) >= set(bench_pairs.METRICS)
    assert bench_pairs.summarize([])["wall_ref"]["verdict"] == "unresolved"


def test_a_second_series_into_the_same_file_keeps_the_first_under_earlier_series():
    first, second, third = _runs(STEADY, STEADY), _runs(STEADY, [w - 2.0 for w in STEADY]), _runs(STEADY, STEADY[:3])
    doc = bench_pairs.record({}, "report", 25.0, first)
    bench_pairs.record(doc, "train", 25.0, third)
    assert doc["workloads"]["report"]["earlier_series"] == []
    bench_pairs.record(doc, "report", 10.0, second)
    latest = doc["workloads"]["report"]
    assert (latest["seconds"], latest["runs"]) == (10.0, second)  # the top level is the latest invocation's
    assert latest["summary"] == bench_pairs.summarize(second) and latest["summary"]["wall_ref"]["verdict"] == "gain"
    assert latest["earlier_series"] == [{"seconds": 25.0, "runs": first, "summary": bench_pairs.summarize(first)}]
    bench_pairs.record(doc, "report", 25.0, third)
    assert [s["runs"] for s in doc["workloads"]["report"]["earlier_series"]] == [first, second]  # oldest first
    assert doc["workloads"]["train"]["runs"] == third  # another workload's series is left alone
