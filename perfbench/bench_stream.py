"""Drive ``stvs assess --stream`` in process and time each report.

Rows are handed to the program as fast as it reads them.  The feeder
stamps the moment each row is handed over; the stdout capture stamps
the moment each JSON line is written, so a report's latency runs from
its triggering row (the last row handed before the write) to its line.

With a speed probe (bench_speed.py), the feeder takes one probe sample
every ``PROBE_EVERY`` rows, before it hands the row over: outside every
report's latency interval.  The probe time is taken out of the pass's
wall time.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field


PROBE_EVERY = 10  # rows between speed probe samples


class RowFeeder:
    """Stand-in for stdin that serves lines and stamps each hand-over."""

    def __init__(self, lines: list[str], probe=None) -> None:
        self._lines = lines
        self._next = 0
        self._probe = probe
        self.handed_at: list[float] = []

    def readline(self) -> str:
        if self._next >= len(self._lines):
            return ""
        if self._probe is not None and self._next % PROBE_EVERY == 0:
            self._probe.sample()
        line = self._lines[self._next] + "\n"
        self._next += 1
        self.handed_at.append(time.perf_counter())
        return line

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = self.readline()
        if not line:
            raise StopIteration
        return line


class LineCapture:
    """Stand-in for stdout/stderr that keeps each line and when it ended."""

    def __init__(self, feeder: RowFeeder | None = None) -> None:
        self._feeder = feeder
        self._partial = ""
        self.lines: list[str] = []
        self.rows_before: list[int] = []  # rows handed when each line ended
        self.written_at: list[float] = []

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append(line)
            self.written_at.append(now)
            if self._feeder is not None:
                self.rows_before.append(len(self._feeder.handed_at))
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class StreamPass:
    exit_code: int
    wall_s: float
    record_s: float
    rows: int
    reports: list[dict]
    latencies_s: list[float]
    stderr_lines: int
    stderr_sample: list[str] = field(default_factory=list)


def run_stream(cli_run, argv: list[str], lines: list[str], probe=None) -> StreamPass:
    """One ``cli.run(argv)`` over ``lines`` (header first) as stdin."""
    feeder = RowFeeder(lines, probe)
    probed_before = probe.total_s if probe is not None else 0.0
    out = LineCapture(feeder)
    err = LineCapture()
    saved = sys.stdin
    sys.stdin = feeder
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli_run(argv)
            wall = time.perf_counter() - t0
        if probe is not None:
            wall -= probe.total_s - probed_before
    finally:
        sys.stdin = saved
    reports = [json.loads(line) for line in out.lines]
    latencies = [
        written - feeder.handed_at[rows - 1]
        for written, rows in zip(out.written_at, out.rows_before)
    ]
    t_first = float(lines[1].split(",", 1)[0])
    t_last = float(lines[-1].split(",", 1)[0])
    return StreamPass(
        exit_code=code,
        wall_s=wall,
        record_s=t_last - t_first,
        rows=len(lines) - 1,
        reports=reports,
        latencies_s=latencies,
        stderr_lines=len(err.lines),
        stderr_sample=err.lines[:3],
    )
