#!/usr/bin/env python3
"""Check every perfbench reference item, not only the ones a smoke run draws.

Run from the repository root, on the numpy and scipy releases the
references were recorded on (perfbench/README.md names them):

    python .github/scripts/check_references.py

For every bank item of the two batch workloads it diffs the ``assess``
document against ``perfbench/reference/<workload>.json``, and for every
stream record it diffs each ``assess --stream`` report, with the
benchmark's own tolerances (``bench_check.diff``).  Each stream record
is also written to a CSV file and assessed with ``assess --in``: the
run must exit 0 with nothing on stderr, and its document must equal the
record's last reference report key for key, ``latency_s`` aside, which
is the check ``perfbench/run.py`` applies to the records it draws.  It
reads the benchmark's inputs and checks and writes nothing under
``perfbench/``.
Prints one line per workload and every difference found; exits 1 if any
item differs.
"""

from __future__ import annotations

import contextlib
import io
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


def without_latency(doc: dict) -> dict:
    return {k: v for k, v in check.verdict(doc).items() if k != "latency_s"}


def check_file(csv: Path, ini: str, last: dict) -> list[str]:
    """Problems with ``assess --in csv`` against the last stream report."""
    argv = ["assess", "--in", str(csv), "--t0", str(inputs.T0), "--gen-config", ini]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = stvs.cli.run(argv)
    if code != 0 or err.getvalue():
        return [f" from a file: exit code {code}, stderr {err.getvalue()!r}"]
    if without_latency(json.loads(out.getvalue())) != without_latency(last):
        return [" from a file: the document differs from the last reference report"]
    return []


def check_stream(workload: str, ref: dict, ini: str, tmp: str) -> tuple[int, list[str]]:
    argv = [*inputs.STREAM_ARGV, "--gen-config", ini]
    problems, n_reports = [], 0
    for item in range(inputs.BANKS[workload].size):
        inp = inputs.make_input(workload, item)
        lines = inputs.csv_lines(inp.traj)
        result = bench_stream.run_stream(stvs.cli.run, argv, lines)
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
        csv = Path(tmp) / f"record-{item}.csv"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems += [f"{label}{p}" for p in check_file(csv, ini, want["reports"][-1])]
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
                n, found = check_stream(workload, ref, ini, tmp)
                size = inputs.BANKS[workload].size
                what = f"{size} records, {n} reports, {size} files"
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
