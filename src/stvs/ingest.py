"""Loading, validation and windowing of PMU-style voltage time series.

CSV layout: a header row with a ``time`` column in seconds, per-unit
voltage columns named ``V:<id>`` and optional reactive-power columns
``Q:<id>`` in MVAr: ``TIME_COLUMN``, ``VOLTAGE_PREFIX`` and
``REACTIVE_PREFIX``, which the reader, the writer and the CLI share.
A file and a stream of rows go through the same rules.  Text is UTF-8.
``parse_header`` reads the header: a UTF-8 byte-order mark is dropped,
the line is split on commas and each name stripped.  ``split_row``
reads a data line: the text before any ``#`` is split on commas, and a
line blank after that cut is no row; each field is read with Python's
``float``, by ``parse_row`` for one row and ``_rows_array`` for many.
Data rows are numbered from 0, skipped lines not counted, in every
message.  ``RowChecker`` checks rows, ``_bad_voltage`` finds a bad
voltage sample, ``trajectory_from_columns`` builds the trajectory and
``FaultClearTracker`` finds the fault clear sample when no time is
given; ``write_columns`` writes every CSV the package emits.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

# Relative tolerance on sample spacing before a file is declared
# non-uniformly sampled.  The timestamps' own rounding is allowed on top:
# a float holds a Unix time of 1.7e9 s (IEEE C37.118 PMU data) only to
# 2.4e-7 s, which alone is 1.2e-5 of a 50 Hz step.
DT_REL_TOL = 1e-6

# Per-unit level below which a sample counts as "in fault" for the
# auto-detection heuristics.
FAULT_LEVEL_PU = 0.6

# With no explicit pre-fault voltage, V_pre is the mean over this many
# seconds before fault onset.
LOOKBACK_S = 0.5

TIME_COLUMN = "time"
VOLTAGE_PREFIX = "V:"
REACTIVE_PREFIX = "Q:"


@dataclass(frozen=True)
class Channel:
    """One measurement channel: per-unit voltage plus optional MVAr."""

    id: str
    voltage: np.ndarray
    reactive_power: np.ndarray | None = None


def _bad_voltage(v: np.ndarray) -> tuple[str, int] | None:
    """The first bad sample of the voltage column ``v`` as (what, row):
    the first non-finite row, else the first non-positive row."""
    # two reductions in the usual case: a NaN makes min() NaN
    if v.min() > 0 and v.max() < np.inf:
        return None
    finite = np.isfinite(v)
    if not finite.all():
        return "non-finite", int(np.flatnonzero(~finite)[0])
    return "non-positive", int(np.flatnonzero(v <= 0)[0])


@dataclass(frozen=True)
class VoltageTrajectory:
    """Uniformly sampled multi-channel voltage record with fault markers.

    ``fault_clear_index`` is the sample index of t0 (first post-fault
    sample).  ``prefault_voltage`` maps channel id to the pre-fault
    per-unit level V_pre when known.  Instances are immutable; the
    arrays they hold must not be mutated by callers.
    """

    channels: tuple[Channel, ...]
    dt: float
    fault_clear_index: int = 0
    prefault_voltage: dict[str, float] | None = None
    t_start: float = 0.0

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValidationError("trajectory needs at least one channel")
        if not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        n = len(self.channels[0].voltage)
        if n < 2:
            raise ValidationError("channels must hold at least 2 samples")
        for ch in self.channels:
            if len(ch.voltage) != n:
                raise ValidationError(
                    f"channel {ch.id!r} length {len(ch.voltage)} != {n}"
                )
            bad = _bad_voltage(ch.voltage)
            if bad is not None:
                what, row = bad
                raise ValidationError(
                    f"channel {ch.id!r} has {what} voltage at row {row}"
                )
        if not (0 <= self.fault_clear_index < n):
            raise ValidationError(
                f"fault_clear_index {self.fault_clear_index} outside [0, {n})"
            )

    @property
    def n_samples(self) -> int:
        return len(self.channels[0].voltage)

    @property
    def channel_ids(self) -> tuple[str, ...]:
        return tuple(ch.id for ch in self.channels)

    def voltage_matrix(self) -> np.ndarray:
        """Samples as an (n_samples, n_channels) array."""
        return np.column_stack([ch.voltage for ch in self.channels])

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    def with_fault_clear_time(self, t0: float) -> "VoltageTrajectory":
        """Return a copy whose fault_clear_index matches time ``t0``."""
        idx = fault_clear_index(t0, self.t_start, self.dt, self.n_samples)
        return replace(self, fault_clear_index=idx)


def parse_header(line: str) -> list[str] | None:
    """The column names of CSV header ``line``: a UTF-8 byte-order mark
    dropped, split on commas, each name stripped; None for a blank line."""
    line = line.removeprefix("\ufeff")
    return [name.strip() for name in line.split(",")] if line.strip() else None


def split_row(line: str) -> list[str] | None:
    """The fields of CSV data ``line``: the text before any ``#``, split
    on commas; None for a line that is blank after that cut."""
    line = line.partition("#")[0]
    return line.split(",") if line.strip() else None


def parse_row(line: str) -> list[float] | None:
    """The values of CSV data ``line``, its ``split_row`` fields read
    with ``float``; None for a blank line.  A field ``float`` cannot
    read raises ``ValueError``."""
    fields = split_row(line)
    return None if fields is None else [float(field) for field in fields]


def _rows_array(names: list[str], rows: list[list[str]], origin: str) -> np.ndarray:
    """The (rows, columns) float array of the ``split_row`` fields
    ``rows`` under the header ``names``.

    NumPy reads each field with ``float``, as ``parse_row`` does; the
    rows are read one by one only to name a bad one.  A row with another
    column count than the header, or a field ``float`` cannot read, is
    an error naming its row and, for a field, its column.
    """
    width = len(names)
    try:
        return np.array(rows, dtype=float).reshape(len(rows), width)
    except ValueError:  # a ragged row, a field that is not a number, another width
        for row, fields in enumerate(rows):
            if len(fields) != width:
                raise ValidationError(
                    f"{origin}: row {row} has {len(fields)} columns (header has {width})"
                ) from None
            for name, field in zip(names, fields):
                try:
                    float(field)
                except ValueError:
                    raise ValidationError(
                        f"{origin}: {field.strip()!r} in column {name!r} at row {row} "
                        f"is not a number"
                    ) from None
        raise


def not_utf8(origin: str, exc: UnicodeDecodeError) -> ValidationError:
    """The error for text ``origin`` that ``exc`` found not UTF-8."""
    byte = exc.object[exc.start]
    return ValidationError(f"{origin}: not UTF-8 text (byte {byte:#04x}: {exc.reason})")


def load_trajectory(path) -> VoltageTrajectory:
    """Load and validate a trajectory from CSV.

    The header and the rows are read by the rules in the module
    docstring.  dt is inferred from the time column and must be uniform
    within ``DT_REL_TOL`` relative tolerance.  A row with another column
    count than the header, a field that is not a number, and a NaN,
    infinite or non-positive voltage are rejected with the offending row
    index.  A file that cannot be opened or is not UTF-8 text is
    rejected.
    """
    origin = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            names = parse_header(fh.readline())
            if names is None:
                raise ValidationError(f"{origin}: empty file")
            checker = RowChecker(names, origin)
            rows = [fields for fields in map(split_row, fh) if fields is not None]
    except UnicodeDecodeError as exc:
        raise not_utf8(origin, exc) from exc
    except OSError as exc:  # a missing path, a directory
        raise ValidationError(f"{origin}: {exc.strerror}") from exc
    # a header with no rows is reported by the row check
    data = _rows_array(names, rows, origin)
    return trajectory_from_columns(names, data, checker)


def fault_clear_index(t0: float, t_start: float, dt: float, n_samples: int) -> int:
    """Index of the sample nearest time ``t0`` in a record of ``n_samples``
    samples taken every ``dt`` from ``t_start``; outside it, or at no
    finite position (a NaN ``t0``, an overflow), is an error."""
    pos = (t0 - t_start) / dt
    if not (math.isfinite(pos) and 0 <= (idx := int(round(pos))) < n_samples):
        raise ValidationError(
            f"fault clear time {t0} s outside the record "
            f"[{t_start}, {t_start + (n_samples - 1) * dt}] s"
        )
    return idx


class RowChecker:
    """The row checks of parsed CSV columns, run once per row.

    ``check(data)`` checks the rows of ``data`` that earlier calls have
    not, so a caller that appends rows to one buffer and checks after
    each append checks every row once.  A row is checked against
    dt = t[1] - t[0]: its time step first, within ``DT_REL_TOL`` of dt
    plus twice the float spacing at its time (a NaN or infinite time is
    named as such), then each ``V:`` column's finiteness check and sign
    check.  Rows are numbered from 0, and a sampling error quotes the
    relative jitter of the row it names.  The header ``names`` is
    checked when the checker is built: a repeated column name, a
    ``V:``/``Q:`` column with an empty channel id, a missing ``time``
    column and no ``V:`` column are errors.
    """

    def __init__(self, names: list[str], origin: str) -> None:
        for j, col in enumerate(names):
            if col in names[:j]:
                raise ValidationError(f"{origin}: repeated column {col!r} in the header")
            if col in (VOLTAGE_PREFIX, REACTIVE_PREFIX):
                raise ValidationError(f"{origin}: column {col!r} has no channel id")
        if TIME_COLUMN not in names:
            raise ValidationError(f"{origin}: missing {TIME_COLUMN!r} column")
        self._voltages = [
            (col, names.index(col)) for col in names if col.startswith(VOLTAGE_PREFIX)
        ]
        if not self._voltages:
            raise ValidationError(
                f"{origin}: no voltage columns with prefix {VOLTAGE_PREFIX!r}"
            )
        self.origin = origin
        self.rows = 0  # rows checked so far
        self.dt = math.nan
        self.t_start = math.nan
        self.time_index = names.index(TIME_COLUMN)
        self.voltage_index = [j for _, j in self._voltages]  # the V: columns

    def _check_time(self, t: np.ndarray, row: int) -> None:
        """Raise if the time at ``row`` is NaN or infinite."""
        if math.isnan(t[row]):
            raise ValidationError(f"{self.origin}: time is not a number at row {row}")
        if math.isinf(t[row]):
            raise ValidationError(f"{self.origin}: time is not finite at row {row}")

    def check(self, data: np.ndarray) -> None:
        """Check the rows of ``data`` past the first ``self.rows``."""
        origin = self.origin
        if data.ndim != 2 or data.shape[0] < 2:
            raise ValidationError(f"{origin}: need at least 2 data rows")
        start = self.rows
        if start == len(data):
            return
        t = data[:, self.time_index]
        if start == 0:
            self._check_time(t, 0)
            self._check_time(t, 1)
            self.t_start = float(t[0])
            self.dt = float(t[1]) - float(t[0])  # Python floats overflow quietly
            if not self.dt > 0:
                raise ValidationError(f"{origin}: time column is not increasing")
        first = max(start, 1)
        # a non-finite time (or an overflow) makes a NaN or inf error,
        # which fails the check below
        with np.errstate(invalid="ignore", over="ignore"):
            error = np.abs(t[first:] - t[first - 1:-1] - self.dt)
            slack = DT_REL_TOL * self.dt + 2 * np.spacing(np.abs(t[first:]))
        uniform = error <= slack
        if not uniform.all():
            i = int(np.argmin(uniform))
            self._check_time(t, first + i)
            raise ValidationError(
                f"{origin}: non-uniform sampling at row {first + i} "
                f"(relative jitter {error[i] / self.dt:.3g})"
            )
        block = data[start:, self.voltage_index]
        # two reductions for all columns in the usual case; a gate per
        # column would cost every streamed row two per column
        if not (block.min() > 0 and block.max() < np.inf):
            for col, j in self._voltages:
                bad = _bad_voltage(data[start:, j])
                if bad is not None:
                    what, row = bad
                    if what == "non-finite":
                        what = "NaN" if math.isnan(data[start + row, j]) else "infinite"
                    raise ValidationError(
                        f"{origin}: {what} voltage in {col!r} at row {start + row}"
                    )
        self.rows = len(data)


def trajectory_from_columns(
    names: list[str], data: np.ndarray, checker: RowChecker, fault_clear_index: int = 0
) -> VoltageTrajectory:
    """Build a validated trajectory from already-parsed CSV columns.

    The channels hold read-only views of the columns of ``data``, so the
    caller must not write to ``data`` again.  ``checker`` is the header
    ``names``' row checker; ``data`` is an append-only buffer whose
    leading rows it has seen in earlier calls: only the rows added since
    are checked.  The fault clear sample is ``fault_clear_index`` (0 for a file).
    """
    checker.check(data)

    def column(name: str) -> np.ndarray:
        view = data[:, names.index(name)]
        view.flags.writeable = False
        return view

    channels = []
    for col in names:
        if not col.startswith(VOLTAGE_PREFIX):
            continue
        cid = col[len(VOLTAGE_PREFIX):]
        q_name = REACTIVE_PREFIX + cid
        q = column(q_name) if q_name in names else None
        channels.append(Channel(id=cid, voltage=column(col), reactive_power=q))
    return VoltageTrajectory(
        tuple(channels), checker.dt, fault_clear_index, t_start=checker.t_start
    )


def write_columns(dest, names: list[str], columns) -> None:
    """Write equal-length columns as CSV, under a ``names`` header, to a
    path or text stream.

    Floats are written with shortest round-trip repr so a load/write/load
    cycle reproduces the samples bit for bit.  A stream is left open.
    """
    table = np.column_stack(columns)
    if hasattr(dest, "write"):
        target = nullcontext(dest)
    else:
        target = open(dest, "w", encoding="utf-8")
    with target as fh:
        fh.write(",".join(names) + "\n")
        # tolist() per row: the whole table as Python floats would take
        # about five times the memory of the array
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_trajectory(traj: VoltageTrajectory, dest) -> None:
    """Write a trajectory in the CSV input format to a path or text stream."""
    q_channels = [ch for ch in traj.channels if ch.reactive_power is not None]
    write_columns(
        dest,
        [TIME_COLUMN]
        + [VOLTAGE_PREFIX + ch.id for ch in traj.channels]
        + [REACTIVE_PREFIX + ch.id for ch in q_channels],
        [traj.times()]
        + [ch.voltage for ch in traj.channels]
        + [ch.reactive_power for ch in q_channels],
    )


def extract_post_fault_window(
    traj: VoltageTrajectory, duration: float
) -> VoltageTrajectory:
    """Slice ``duration`` seconds starting at the fault-clear sample.

    The slice is a copy; the parent trajectory is never mutated.  It
    holds no pre-fault voltage: that is read from the whole record.
    """
    steps = duration / traj.dt
    n = int(round(steps)) if math.isfinite(steps) else steps  # no int holds inf
    if not n >= 2:
        raise ValidationError(
            f"window duration {duration} s yields {n} samples (need >= 2)"
        )
    start = traj.fault_clear_index
    stop = start + n
    if stop > traj.n_samples:
        max_dur = (traj.n_samples - start) * traj.dt
        raise ValidationError(
            f"window {duration} s exceeds available data "
            f"(max {max_dur:.6g} s past fault clearing)"
        )
    channels = tuple(
        Channel(
            id=ch.id,
            voltage=ch.voltage[start:stop].copy(),
            reactive_power=(
                None
                if ch.reactive_power is None
                else ch.reactive_power[start:stop].copy()
            ),
        )
        for ch in traj.channels
    )
    return VoltageTrajectory(
        channels=channels,
        dt=traj.dt,
        fault_clear_index=0,
        t_start=traj.t_start + start * traj.dt,
    )


def _fault_onset_index(traj: VoltageTrajectory) -> int:
    """First sample of the last sub-0.6 pu run before t0, read from the
    samples before t0 only.

    A t0 placed a few samples after the fault still finds the run's
    start.  If no sample before fault clearing is depressed, the fault
    is not visible in the record and the onset defaults to t0 itself.
    """
    i = traj.fault_clear_index
    low = np.any(traj.voltage_matrix()[:i] < FAULT_LEVEL_PU, axis=1)
    if not low.any():
        return i
    i = int(np.flatnonzero(low)[-1])
    while i > 0 and low[i - 1]:
        i -= 1
    return i


def estimate_prefault_voltage(traj: VoltageTrajectory) -> dict[str, float]:
    """Per-channel mean over the ``LOOKBACK_S`` before fault onset: at
    least one sample, and no more than the record holds before onset."""
    onset = _fault_onset_index(traj)
    if onset == 0:
        raise ValidationError(
            "cannot estimate the pre-fault voltage: no samples before the "
            "fault and no explicit value supplied"
        )
    n = max(1, round(min(onset, LOOKBACK_S / traj.dt)))
    return {
        ch.id: float(np.mean(ch.voltage[onset - n:onset]))
        for ch in traj.channels
    }


NO_FAULT_SIGNATURE = (
    "no fault signature found (no sub-0.6 pu dip with recovery); "
    "pass the fault clear time explicitly"
)


def detect_fault_clear_index(traj: VoltageTrajectory) -> int:
    """Heuristic t0: one past the last sub-0.6 pu sample that is followed
    by a monotone rise over 3 samples on the same channel.

    A convenience only; an explicit fault-clear time always wins.
    """
    index = FaultClearTracker().update(
        traj.voltage_matrix(), list(range(len(traj.channels)))
    )
    if index is None:
        raise ValidationError(NO_FAULT_SIGNATURE)
    return index


class FaultClearTracker:
    """The fault-signature scan of ``detect_fault_clear_index``, for a
    history that grows row by row.

    Each appended row makes one more dip candidate k = n - 4 checkable
    on every channel; a call checks every candidate it has not, in one
    pass.  The newest qualifying candidate is the last dip, so the index
    becomes k + 1 when it qualifies and stays put when not.
    """

    def __init__(self) -> None:
        self.index: int | None = None  # None until a dip qualifies
        self._next = 0  # first candidate not yet checked

    def update(self, data: np.ndarray, columns: list[int]) -> int | None:
        """Index after the rows of ``data`` (n, columns), voltages in ``columns``."""
        start = self._next
        end = max(start, len(data) - 3)  # one past the last checkable candidate
        # a dip needs a candidate below FAULT_LEVEL_PU, so one reduction
        # rules out most rows; a NaN minimum runs the full test
        if end > start and not data[start:end, columns].min() >= FAULT_LEVEL_PU:
            v = data[start:, columns]
            a, b, c, d = v[:-3], v[1:-2], v[2:-1], v[3:]
            dips = np.flatnonzero(
                ((a < FAULT_LEVEL_PU) & (a < b) & (b < c) & (c < d)).any(axis=1)
            )
            if dips.size:
                self.index = start + int(dips[-1]) + 1
        self._next = end
        return self.index
