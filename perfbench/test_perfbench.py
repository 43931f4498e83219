"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

run.import_stvs()

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
import bench_stream  # noqa: E402
from bench_speed import REFERENCE_S, SpeedProbe  # noqa: E402
from bench_stats import tail  # noqa: E402
from bench_trace import NO_PARENT, Tracer, op_summary, self_times  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_merged_clipped_children():
    # parent [0, 10]; children overlap ([1, 3] and [2, 5]) and one runs
    # past the parent's end ([9, 12]); a grandchild sits inside [2, 5].
    start = [0.0, 1.0, 2.0, 9.0, 3.0]
    end = [10.0, 3.0, 5.0, 12.0, 4.0]
    parent = [NO_PARENT, 0, 0, 0, 2]
    got = self_times(start, end, parent)
    assert got[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0 - 1.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_self_time_without_children_is_duration():
    assert self_times([1.0], [3.5], [NO_PARENT]) == [pytest.approx(2.5)]


def test_op_summary_totals_count_outermost_span_of_a_name():
    tracer = Tracer()
    # op 0: a -> (b -> a)  -- the inner "a" must not be added to a's total
    for name, s, e, p in (("a", 0.0, 10.0, -1), ("b", 1.0, 6.0, 0), ("a", 2.0, 5.0, 1)):
        tracer.name_id.append(tracer._intern(name))
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.op.append(0)
    summary = op_summary(tracer, self_times(tracer.start, tracer.end, tracer.parent))[0]
    assert summary["calls"] == {"a": 2, "b": 1}
    assert summary["total_s"]["a"] == pytest.approx(10.0)
    assert summary["total_s"]["b"] == pytest.approx(5.0)
    assert summary["self_s"]["a"] == pytest.approx(5.0 + 3.0)
    assert summary["self_s"]["b"] == pytest.approx(2.0)


def test_tracer_wraps_and_restores_module_attributes():
    module = types.ModuleType("fake_layer")
    module.work = lambda x: x + 1
    module.outer = lambda x: module.work(x) * 2
    sys.modules["fake_layer"] = module
    original = module.work
    tracer = Tracer()
    try:
        instruments = (("fake_layer", "outer", "l.outer"), ("fake_layer", "work", "l.work"),
                       ("fake_layer", "absent", "l.absent"))
        tracer.install(instruments)
        tracer.install(instruments)  # a second install must not wrap twice
        tracer.current_op = 7
        assert module.outer(1) == 4
        assert [tracer.name_of(i) for i in range(len(tracer))] == ["l.outer", "l.work"]
        assert list(tracer.parent) == [NO_PARENT, 0]
        assert list(tracer.op) == [7, 7]
        assert tracer.missing == ["fake_layer.absent"]
    finally:
        tracer.uninstall()
        del sys.modules["fake_layer"]
    assert module.work is original


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n", [11, 20, 37, 100, 1001])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float(x) for x in range(n, 0, -1)]
    value, pct, count = tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # the next rank up would leave only nine beyond
    assert sum(s > value + 1 for s in samples) == 9


def test_tail_needs_more_samples_than_it_leaves_beyond():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# -- reference speed ---------------------------------------------------------


def test_times_scale_up_and_rates_down_on_a_fast_host():
    # the probe ran at twice the reference speed: times read double
    raw = {"assess_p50_ms": 100.0, "assess_per_s": 10.0, "stream_realtime_x": 30.0,
           "report_p50_ms": 101.0, "setup_s": 0.5}
    scaled = run.at_reference_speed(raw, run_factor=2.0, setup_factor=4.0)
    assert scaled == pytest.approx({"assess_p50_ms": 200.0, "assess_per_s": 5.0,
                                    "stream_realtime_x": 15.0, "report_p50_ms": 202.0,
                                    "setup_s": 2.0})


def test_probe_factor_is_reference_over_median_sample():
    probe = SpeedProbe()
    probe.samples = [REFERENCE_S / 2, REFERENCE_S * 4, REFERENCE_S * 2]
    assert probe.factor() == pytest.approx(0.5)
    probe.sample(2)
    assert len(probe.samples) == 5
    assert probe.total_s >= sum(probe.samples[3:])


def test_feeder_probes_outside_latency_and_wall():
    probe = SpeedProbe()
    lines = ["time,V:a"] + [f"{0.02 * i!r},1.0" for i in range(25)]

    def fake_cli(argv):
        for i, _ in enumerate(iter(sys.stdin.readline, "")):
            if i == 20:
                print("{}")
        return 0

    result = bench_stream.run_stream(fake_cli, [], lines, probe)
    assert len(probe.samples) == 3  # before rows 0, 10 and 20
    assert result.rows == 25 and len(result.latencies_s) == 1
    assert 0 <= result.latencies_s[0] < min(probe.samples)
    assert result.wall_s < probe.total_s


# -- inputs and checks -------------------------------------------------------


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_pool_is_a_function_of_the_seed(workload):
    bank = bench_inputs.BANKS[workload]
    assert bank.items(5) == bank.items(5)
    assert len({tuple(bank.items(s)) for s in range(10)}) > 1
    # the same number of distinct variants from every stratum
    items = bank.items(5)
    assert len(set(items)) == len(items) == bank.picks * len(bank.slots)
    assert [i // bank.variants for i in items] == list(range(len(bank.slots))) * bank.picks


def test_reference_covers_every_bank_item():
    for workload in bench_inputs.WORKLOADS:
        ref = bench_check.load_reference(workload)
        assert set(ref["items"]) == {str(i) for i in range(bench_inputs.BANKS[workload].size)}


def test_diff_tolerances():
    want = {"index": 1.0, "margin": 0.0, "class": "trip", "threshold": None}
    assert bench_check.diff({"index": 1.0 + 1e-12, "margin": 1e-8, "class": "trip",
                             "threshold": None}, want) == []
    assert bench_check.diff({"index": 1.0 + 1e-6, "margin": 0.0, "class": "trip",
                             "threshold": None}, want)
    assert bench_check.diff({"index": 1.0, "margin": 0.0, "class": "non-trip",
                             "threshold": None}, want)
    assert bench_check.diff({"index": 1.0, "margin": 0.0, "class": "trip",
                             "threshold": 0.5}, want)


def test_ground_truth_of_stalled_recovery():
    trip = {"class": "trip", "threshold": 0.5, "id": "G1"}
    miss = {"class": "non-trip", "threshold": 0.5, "id": "G2"}
    assert bench_check.ground_truth("stalled-recovery", {"generators": [trip]}) == []
    assert bench_check.ground_truth("stalled-recovery", {"generators": [trip, miss]})
    assert bench_check.ground_truth("mixed", {"generators": [trip]}) == []
    assert bench_check.false_trips("mixed", {"generators": [trip, miss]}) == ["G1"]


# -- whole runs --------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_named_metric(workload, trace):
    proc = _run(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "trip-3ch", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
