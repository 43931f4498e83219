"""Loading, validation and windowing of PMU-style voltage time series.

CSV layout: a header row with a ``time`` column in seconds, per-unit
voltage columns named ``V:<id>`` and optional reactive-power columns
``Q:<id>`` in MVAr: ``TIME_COLUMN``, ``VOLTAGE_PREFIX`` and
``REACTIVE_PREFIX``, which the reader, the writer and the CLI share.
A file and a stream of rows go through the same rules: ``RowChecker``
checks rows, ``_bad_voltage`` finds a bad voltage sample,
``trajectory_from_columns`` builds the trajectory and
``FaultClearTracker`` finds the fault clear sample when no time is
given; ``write_columns`` writes every CSV the package emits.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

# Relative tolerance on sample spacing before a file is declared
# non-uniformly sampled.
DT_REL_TOL = 1e-6

# Per-unit level below which a sample counts as "in fault" for the
# auto-detection heuristics.
FAULT_LEVEL_PU = 0.6

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


def load_trajectory(path) -> VoltageTrajectory:
    """Load and validate a trajectory from CSV.

    dt is inferred from the time column and must be uniform within
    ``DT_REL_TOL`` relative tolerance.  NaN, infinite or non-positive
    voltages are rejected with the offending row index (0-based data
    rows).  A UTF-8 byte-order mark before the header is dropped; a file
    that is not UTF-8 text is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header = fh.readline().strip()
            if not header:
                raise ValidationError(f"{path}: empty file")
            names = [c.strip() for c in header.split(",")]
            # a header with no rows is reported by the row check below
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValidationError(
            f"{path}: not UTF-8 text (byte {byte:#04x}: {exc.reason})"
        ) from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed numeric data: {exc}") from exc
    return trajectory_from_columns(names, data, origin=str(path))


def fault_clear_index(t0: float, t_start: float, dt: float, n_samples: int) -> int:
    """Index of the sample nearest time ``t0`` in a record of ``n_samples``
    samples taken every ``dt`` from ``t_start``; outside it is an error."""
    idx = int(round((t0 - t_start) / dt))
    if not (0 <= idx < n_samples):
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
    dt = t[1] - t[0]: its time step first (a NaN or infinite time is
    named as such), then each ``V:`` column's finiteness check and sign
    check.  Rows are numbered from 0, and the relative jitter a message
    quotes is the largest over all rows checked.
    """

    def __init__(self, names: list[str], origin: str = "<data>") -> None:
        self.origin = origin
        self.rows = 0  # rows checked so far
        self.dt = math.nan
        self.t_start = math.nan
        self.jitter_max = 0.0
        self._time = names.index(TIME_COLUMN) if TIME_COLUMN in names else None
        self._voltages = [
            (col, names.index(col)) for col in names if col.startswith(VOLTAGE_PREFIX)
        ]
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
        if self._time is None:
            raise ValidationError(f"{origin}: missing {TIME_COLUMN!r} column")
        if not self._voltages:
            raise ValidationError(
                f"{origin}: no voltage columns with prefix {VOLTAGE_PREFIX!r}"
            )
        start = self.rows
        if start == len(data):
            return
        t = data[:, self._time]
        if start == 0:
            self._check_time(t, 0)
            self._check_time(t, 1)
            self.t_start = float(t[0])
            self.dt = float(t[1]) - float(t[0])  # Python floats overflow quietly
            if not self.dt > 0:
                raise ValidationError(f"{origin}: time column is not increasing")
        first = max(start, 1)
        # a non-finite time (or an overflow) makes a NaN or inf jitter,
        # which fails the check below
        with np.errstate(invalid="ignore", over="ignore"):
            jitter = np.abs(t[first:] - t[first - 1:-1] - self.dt) / self.dt
        self.jitter_max = jitter.max(initial=self.jitter_max)
        uniform = jitter <= DT_REL_TOL
        if not uniform.all():
            bad = first + int(np.argmin(uniform))
            self._check_time(t, bad)
            raise ValidationError(
                f"{origin}: non-uniform sampling at row {bad} "
                f"(relative jitter {self.jitter_max:.3g})"
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
    names: list[str],
    data: np.ndarray,
    origin: str = "<data>",
    checker: RowChecker | None = None,
) -> VoltageTrajectory:
    """Build a validated trajectory from already-parsed CSV columns.

    The channels hold read-only views of the columns of ``data``, so the
    caller must not write to ``data`` again.  With a ``checker``, ``data``
    is an append-only buffer whose leading rows the checker has seen in
    earlier calls: only the rows added since are checked.
    """
    if checker is None:
        checker = RowChecker(names, origin)
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
        channels=tuple(channels), dt=checker.dt, t_start=checker.t_start
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

    The slice is a copy; the parent trajectory is never mutated.
    prefault_voltage carries over from the parent.
    """
    n = int(round(duration / traj.dt))
    if n < 2:
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
        prefault_voltage=(
            dict(traj.prefault_voltage) if traj.prefault_voltage else None
        ),
        t_start=traj.t_start + start * traj.dt,
    )


def _fault_onset_index(traj: VoltageTrajectory) -> int:
    """First sample of the contiguous sub-0.6 pu run ending at t0.

    If no sample right before fault clearing is depressed, the fault is
    not visible in the record and the onset defaults to t0 itself.
    """
    v = traj.voltage_matrix()
    low = np.any(v < FAULT_LEVEL_PU, axis=1)
    i = traj.fault_clear_index
    if i == 0 or not low[i - 1]:
        return i
    while i > 0 and low[i - 1]:
        i -= 1
    return i


def estimate_prefault_voltage(
    traj: VoltageTrajectory, lookback: float
) -> dict[str, float]:
    """Per-channel mean over a lookback window ending at fault onset."""
    n = int(round(lookback / traj.dt))
    if n < 1:
        raise ValidationError(
            f"lookback {lookback} s yields an empty window at dt={traj.dt}"
        )
    onset = _fault_onset_index(traj)
    if onset - n < 0:
        raise ValidationError(
            f"lookback {lookback} s does not fit before fault onset "
            f"(onset at sample {onset})"
        )
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
        v = data[start:, columns]
        a, b, c, d = v[:-3], v[1:-2], v[2:-1], v[3:]
        dips = np.flatnonzero(
            ((a < FAULT_LEVEL_PU) & (a < b) & (b < c) & (c < d)).any(axis=1)
        )
        if dips.size:
            self.index = start + int(dips[-1]) + 1
        self._next = max(start, len(data) - 3)
        return self.index
