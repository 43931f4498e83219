#!/usr/bin/env python3
"""Check every perfbench reference item, not only the ones a smoke run draws.

Run from the repository root, on the numpy and scipy releases the
references were recorded on (perfbench/README.md names them):

    python .github/scripts/check_references.py

For every bank item of the two batch workloads it diffs the ``assess``
document against ``perfbench/reference/<workload>.json``, and for every
stream record it diffs each ``assess --stream`` report, with the
benchmark's own tolerances (``bench_check.diff``).  It reads the
benchmark's inputs and checks and writes nothing under ``perfbench/``.
Prints one line per workload and every difference found; exits 1 if any
item differs.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import bench_check as check  # noqa: E402
import bench_inputs as inputs  # noqa: E402
import bench_stream  # noqa: E402
import stvs.cli  # noqa: E402
from stvs.indices import assess  # noqa: E402


def check_batch(workload: str, ref: dict) -> tuple[int, list[str]]:
    config = inputs.assessment_config(workload)
    problems = []
    for item in range(inputs.BANKS[workload].size):
        inp = inputs.make_input(workload, item)
        # through JSON, as the benchmark reads a document: tuples become lists
        doc = json.loads(json.dumps(assess(inp.traj, config).to_dict(), sort_keys=True))
        label = f"{workload} item {item}"
        want = ref["items"].get(str(item))
        if want is None:
            problems.append(f"{label}: no reference output")
            continue
        problems += [f"{label}{p}" for p in check.diff(check.verdict(doc), want["doc"])]
        if doc["config"] != ref["config"]:
            problems.append(f"{label}: config echo differs from the reference")
    return inputs.BANKS[workload].size, problems


def check_stream(workload: str, ref: dict, ini: str) -> tuple[int, list[str]]:
    argv = [*inputs.STREAM_ARGV, "--gen-config", ini]
    problems, n_reports = [], 0
    for item in range(inputs.BANKS[workload].size):
        inp = inputs.make_input(workload, item)
        result = bench_stream.run_stream(stvs.cli.run, argv, inputs.csv_lines(inp.traj))
        label = f"{workload} record {item}"
        want = ref["items"].get(str(item))
        if want is None:
            problems.append(f"{label}: no reference output")
            continue
        if result.exit_code != 0 or result.stderr_lines:
            problems.append(
                f"{label}: exit code {result.exit_code}, stderr {result.stderr_sample}"
            )
        got = result.reports
        if len(got) != len(want["reports"]):
            problems.append(f"{label}: {len(got)} reports, reference {len(want['reports'])}")
        for j, (report, ref_doc) in enumerate(zip(got, want["reports"])):
            problems += [
                f"{label}{p}"
                for p in check.diff(check.verdict(report), ref_doc, f" report[{j}]")
            ]
            if report["config"] != ref["config"]:
                problems.append(f"{label} report[{j}]: config echo differs from the reference")
        n_reports += len(got)
    return n_reports, problems


def main() -> int:
    start = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        ini = f"{tmp}/generators.ini"
        Path(ini).write_text(inputs.generator_ini(inputs.STREAM_GENERATORS), encoding="utf-8")
        for workload in inputs.WORKLOADS:
            ref = check.load_reference(workload)
            if workload == "stream-1gen":
                n, found = check_stream(workload, ref, ini)
                what = f"{inputs.BANKS[workload].size} records, {n} reports"
            else:
                n, found = check_batch(workload, ref)
                what = f"{n} items"
            print(f"{workload}: {what}, {len(found)} differences")
            problems += found
    for line in problems:
        print(line)
    print(f"{len(problems)} differences in {time.perf_counter() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
