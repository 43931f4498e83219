"""Assessment of a record that arrives one CSV row at a time.

``Monitor`` is what ``stvs assess --stream`` runs.  Each row is parsed
once into the record's ``ingest.Rows``, which holds a file's rows too,
and checked once, on its own; a trajectory is built only for a row due
a report, whose post-fault data time reaches ``FIRST_REPORT_S``, then a
report interval past the last report, within the float rounding of its
timestamp.  With a fault clear time ``t0``,
rows wait until one at or past t0 arrives, are then checked together,
and t0 is placed once.  Without it, the fault clear sample is tracked
row by row, and a new fault that moves it restarts the schedule: the
next report comes ``FIRST_REPORT_S`` after the new clearing.  A history
with no fault signature yet is noted once, and once more at the end if
none ever showed.

A row is read by ``ingest``'s row rule, as a file's rows are: the text
before any ``#`` is split on commas, a line blank after that cut is
skipped, each field is read with Python's ``float``, and rows are
numbered from 0.  Malformed and out-of-order rows are noted and
skipped; the first row with the wrong column count is noted, and the
number dropped at the end.  ``push`` raises a ``ValidationError`` on
what no later row can mend: a kept row that makes the history invalid
(a NaN or non-positive voltage, a gap in the sampling), a ``t0`` before
the first row and, with ``t0``, a report failure that rests on the rows
before t0 or on a sample of the window, which starts at t0: an
``[ingest]`` failure (no pre-fault samples, a window under 2 samples)
or a ``WindowSampleError`` (a Q sample that makes the Q-V fit
non-finite).  Without ``t0`` the window may still move, so any other
failing report is noted and the stream goes on.  A stream that ends
before its first report says so.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import StvsError, ValidationError, WindowSampleError, stage
from .indices import NO_REACTIVE_POWER, AssessmentConfig, assess
from .ingest import (
    NO_FAULT_SIGNATURE,
    REACTIVE_PREFIX,
    VOLTAGE_PREFIX,
    FaultClearTracker,
    Rows,
    fault_clear_index,
    parse_row,
)

# Post-fault data, in seconds, before the first report.
FIRST_REPORT_S = 0.5


class Monitor:
    """The reports of a record whose CSV header is ``names``, fed one
    row at a time; every other message goes to ``note`` as one line.

    A header that ``Rows`` rejects, a non-finite ``t0``, a
    ``report_interval`` that is not positive and finite, and a
    ``config`` generator with pickups whose ``Q:`` column the header
    lacks are rejected here, before any row.
    """

    def __init__(
        self,
        names: list[str],
        config: AssessmentConfig,
        t0: float | None = None,
        report_interval: float = 0.1,
        note: Callable[[str], None] = lambda text: None,
    ) -> None:
        self._rows = stage("ingest", Rows, names, origin="<stdin>")
        if t0 is not None and not math.isfinite(t0):
            raise ValidationError(f"[ingest] t0 must be a finite time in seconds, got {t0}")
        if not 0 < report_interval < math.inf:  # NaN fails the comparison too
            raise ValidationError(
                f"report_interval must be a positive, finite time in seconds, "
                f"got {report_interval}"
            )
        generators = config.generators or {}
        for col in names:
            cid = col[len(VOLTAGE_PREFIX):]
            spec = col.startswith(VOLTAGE_PREFIX) and generators.get(cid)
            if spec and spec.pickups and REACTIVE_PREFIX + cid not in names:
                why = f"generator {cid}: {NO_REACTIVE_POWER}"
                raise ValidationError(f"[recovery:{cid}] {why}")  # batch's line
        self.config = config
        self.t0 = t0
        self.report_interval = report_interval
        self.note = note
        self.dropped = 0  # rows with the wrong column count
        self._last_t = -math.inf
        self._tracker = FaultClearTracker()
        self._t0_index: int | None = None
        self._data_time: float | None = None
        self._next_report = FIRST_REPORT_S  # data time of the next report
        self._due = False  # a row has come due, whether or not it reported
        # the history has had no fault signature so far; once one is
        # found it stays in every longer history
        self._no_signature = False

    def push(self, line: str) -> dict | None:
        """The report the CSV row ``line`` makes due, or None; a stop
        raises ``ValidationError`` and ends the stream."""
        try:
            vals = parse_row(line)
        except ValueError:
            self.note(f"skipping malformed row: {line.strip()}")
            return None
        if vals is None:
            return None
        rows = self._rows
        if len(vals) != len(rows.names):
            if not self.dropped:
                self.note(
                    f"dropping row with {len(vals)} columns (header has "
                    f"{len(rows.names)}): {line.strip()}; such rows are dropped and "
                    f"counted"
                )
            self.dropped += 1
            return None
        t = vals[rows.time_index]
        if t <= self._last_t:
            self.note(f"out-of-order timestamp {t} (last {self._last_t}); row skipped")
            return None
        self._last_t = t
        rows.append(vals)
        if rows.n < 2 or (self.t0 is not None and t < self.t0):
            return None
        try:
            rows.check()
        except ValidationError as exc:
            raise ValidationError(
                f"[ingest] {exc}; every later report would contain it"
            ) from exc
        if self.t0 is None:
            moved_from = self._t0_index
            self._t0_index = self._tracker.update(rows.data, rows.voltage_index)
            if self._t0_index != moved_from:
                self._next_report = FIRST_REPORT_S  # a new fault: start over
            if self._t0_index is None:
                if not self._no_signature:
                    self.note(
                        f"{NO_FAULT_SIGNATURE}; reports start once a later row "
                        f"shows one"
                    )
                self._no_signature = True
                return None
            self._no_signature = False
        elif self._t0_index is None:
            try:
                # t_start and dt are fixed and a row at or past t0 is in, so
                # a failure means t0 is before the first row
                self._t0_index = fault_clear_index(
                    self.t0, rows.t_start, rows.dt, rows.n
                )
            except ValidationError as exc:
                raise ValidationError(
                    f"[ingest] {rows.origin}: {exc}; it is before the first row"
                ) from exc
        t0_index = self._t0_index
        data_time = self._data_time = t - (rows.t_start + t0_index * rows.dt)
        # a Unix time of 1.7e9 s is held only to 2.4e-7 s
        if data_time + 1e-9 + 4 * math.ulp(t) < self._next_report:
            return None
        self._due = True
        try:
            traj = rows.trajectory(t0_index)
            doc = assess(traj, self.config).to_dict()
        except StvsError as exc:
            # with t0 the rows before t0 and the window's start are fixed,
            # and rows only append to the window; save a one-sample window
            # (rows.n - t0_index == 2) that the next row lengthens
            fixed = self.t0 is not None and rows.n - t0_index > 2
            if fixed and (
                str(exc).startswith("[ingest]") or isinstance(exc, WindowSampleError)
            ):
                raise ValidationError(f"{exc}; no later row can change it") from exc
            self.note(str(exc))
            return None
        doc["latency_s"] = data_time
        self._next_report = data_time + self.report_interval
        return doc

    def finish(self, stopped: bool = False) -> None:
        """Note how the stream ended; ``stopped``: ``push`` raised, and
        the stop says why no more reports came."""
        if self.dropped:
            self.note(f"dropped {self.dropped} row(s) with the wrong number of columns")
        if stopped:
            return
        if self._no_signature:
            self.note(
                "the stream ended without a fault signature, so no report was "
                "written; pass --t0"
            )
        elif not self._due:
            if self._data_time is not None:
                self.note(
                    f"the stream ended {self._data_time:.3g} s after fault "
                    f"clearing, so no report was written; the first report "
                    f"needs {FIRST_REPORT_S} s"
                )
            elif self._rows.n and self.t0 is not None and self._last_t < self.t0:
                self.note(
                    f"the stream ended at {self._last_t} s, before the fault clear "
                    f"time {self.t0} s, so no report was written"
                )
            else:  # fewer than 2 rows were kept
                self.note(
                    f"the stream ended with {self._rows.n} data row(s), so no report "
                    f"was written; a record needs at least 2"
                )
