"""`stvs assess --stream` against the per-row rebuild loop it replaced,
against batch `assess` on the same rows, and the incremental pieces
(row checks, fault-signature tracking) it is built from."""

import contextlib
import io
import json
import math
import re
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stvs.cli as cli
import stvs.stream
from conftest import P_ACTIVE, QV_K1, QV_K2, XD_PRIME, pickup_level
from stvs.cli import run
from stvs.errors import StvsError, ValidationError
from stvs.indices import AssessmentConfig, assess
from stvs.ingest import (
    DT_REL_TOL,
    FAULT_LEVEL_PU,
    NO_FAULT_SIGNATURE,
    REACTIVE_PREFIX,
    TIME_COLUMN,
    VOLTAGE_PREFIX,
    Channel,
    FaultClearTracker,
    VoltageTrajectory,
    detect_fault_clear_index,
    estimate_prefault_voltage,
    load_trajectory,
    write_trajectory,
)
from stvs.stream import FIRST_REPORT_S, Monitor
from stvs.synth import SCENARIO_KINDS, ScenarioParams, synth_scenario

# -- the loop the stream replaced, kept as the oracle ------------------------------


def oracle_from_columns(names, data, origin="<data>"):
    """Whole-history validation and build, as every row used to run it."""
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValidationError(f"{origin}: need at least 2 data rows")
    if TIME_COLUMN not in names:
        raise ValidationError(f"{origin}: missing {TIME_COLUMN!r} column")
    v_cols = [c for c in names if c.startswith(VOLTAGE_PREFIX)]
    if not v_cols:
        raise ValidationError(
            f"{origin}: no voltage columns with prefix {VOLTAGE_PREFIX!r}"
        )
    t = data[:, names.index(TIME_COLUMN)]
    diffs = np.diff(t)
    dt = float(diffs[0])
    if not dt > 0:
        for row in (0, 1):
            if np.isnan(t[row]):
                raise ValidationError(f"{origin}: time is not a number at row {row}")
        raise ValidationError(f"{origin}: time column is not increasing")
    error = np.abs(diffs - dt)
    jitter = error / dt
    # the timestamps' own rounding is allowed on top of DT_REL_TOL
    uniform = error <= DT_REL_TOL * dt + 2 * np.spacing(np.abs(t[1:]))
    if not np.all(uniform):  # a NaN time fails too
        bad = int(np.argmin(uniform)) + 1
        if np.isnan(t[bad]):
            raise ValidationError(f"{origin}: time is not a number at row {bad}")
        raise ValidationError(
            f"{origin}: non-uniform sampling at row {bad} "
            f"(relative jitter {jitter[bad - 1]:.3g})"
        )
    channels = []
    for col in v_cols:
        cid = col[len(VOLTAGE_PREFIX):]
        v = data[:, names.index(col)].copy()
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            what = "NaN" if np.isnan(v[bad]) else "infinite"
            raise ValidationError(f"{origin}: {what} voltage in {col!r} at row {bad}")
        if np.any(v <= 0):
            bad = int(np.flatnonzero(v <= 0)[0])
            raise ValidationError(
                f"{origin}: non-positive voltage in {col!r} at row {bad}"
            )
        q_name = REACTIVE_PREFIX + cid
        q = data[:, names.index(q_name)].copy() if q_name in names else None
        channels.append(Channel(id=cid, voltage=v, reactive_power=q))
    return VoltageTrajectory(channels=tuple(channels), dt=dt, t_start=float(t[0]))


def oracle_stream(args, config):
    """Rebuild and re-check the whole history on every row."""
    header = sys.stdin.readline().removeprefix("\ufeff")
    if not header.strip():
        return 0
    names = [c.strip() for c in header.split(",")]
    rows = []
    last_t = -np.inf
    t_index = names.index(TIME_COLUMN) if TIME_COLUMN in names else 0
    next_report = None
    bad_width = 0
    status = 0
    no_signature = False
    cleared_at = None

    def try_report(traj):
        nonlocal next_report, no_signature, cleared_at
        if args.t0 is not None:
            traj = traj.with_fault_clear_time(args.t0)
        else:
            try:
                clear_index = detect_fault_clear_index(traj)
            except ValidationError as exc:
                if not no_signature:
                    sys.stderr.write(
                        f"stvs: {exc}; reports start once a later row shows one\n"
                    )
                no_signature = True
                return
            no_signature = False
            if next_report is not None and clear_index != cleared_at:
                next_report = 0.5  # a new fault restarts the report schedule
            cleared_at = clear_index
            traj = traj.with_fault_clear_time(traj.t_start + clear_index * traj.dt)
        t0_time = traj.t_start + traj.fault_clear_index * traj.dt
        data_time = rows[-1][t_index] - t0_time
        if data_time < 0.5:
            return
        if next_report is None:
            next_report = data_time
        if data_time + 1e-9 + 4 * math.ulp(rows[-1][t_index]) < next_report:
            return
        doc = assess(traj, config).to_dict()
        doc["latency_s"] = data_time
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        sys.stdout.flush()
        next_report = data_time + args.report_interval

    for raw in sys.stdin:
        line = raw.strip()
        text = line.split("#")[0]  # a comment runs to the end of the line
        if not text.strip():
            continue
        try:
            vals = [float(v) for v in text.split(",")]
        except ValueError:
            sys.stderr.write(f"stvs: skipping malformed row: {line}\n")
            continue
        if len(vals) != len(names):
            if not bad_width:
                sys.stderr.write(
                    f"stvs: dropping row with {len(vals)} columns (header has "
                    f"{len(names)}): {line}; such rows are dropped and counted\n"
                )
            bad_width += 1
            continue
        if vals[t_index] <= last_t:
            sys.stderr.write(
                f"stvs: out-of-order timestamp {vals[t_index]} (last {last_t}); "
                f"row skipped\n"
            )
            continue
        last_t = vals[t_index]
        rows.append(vals)
        if len(rows) < 2 or (args.t0 is not None and last_t < args.t0):
            continue
        try:
            traj = oracle_from_columns(names, np.array(rows), origin="<stdin>")
        except ValidationError as exc:
            stop = (
                f"stvs: [ingest] {exc}; every later report would contain it, "
                f"so the stream stops\n"
            )
            status = 1
            break
        try:
            try_report(traj)
        except StvsError as exc:
            sys.stderr.write(f"stvs: {exc}\n")
    if bad_width:
        sys.stderr.write(
            f"stvs: dropped {bad_width} row(s) with the wrong number of columns\n"
        )
    if status:
        sys.stderr.write(stop)  # the last line says why the stream stopped
    elif no_signature:
        sys.stderr.write(
            "stvs: the stream ended without a fault signature, so no report "
            "was written; pass --t0\n"
        )
    return status


# -- running a stream ----------------------------------------------------------------


class Feeder:
    """stdin that counts the data rows it has handed out: ``lines`` is a
    list of lines, or the bytes of an input, which are read as UTF-8 with
    each bad byte escaped and with universal newlines, as the CLI reads
    stdin."""

    def __init__(self, lines):
        if isinstance(lines, bytes):
            self._lines = io.TextIOWrapper(
                io.BytesIO(lines), encoding="utf-8", errors="surrogateescape"
            )
        else:
            self._lines = iter(line + "\n" for line in lines)
        self.handed = 0

    def readline(self):
        return next(self._lines, "")

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        self.handed += 1
        return line


class Capture(io.StringIO):
    """stdout that notes how many rows were handed out at each write."""

    def __init__(self, feeder):
        super().__init__()
        self.feeder = feeder
        self.rows_at_write = []

    def write(self, text):
        self.rows_at_write.append(self.feeder.handed)
        return super().write(text)


def stream(argv, lines, command=None):
    """(exit code, stdout, stderr, data rows read at each report) of one run."""
    feeder = Feeder(lines)
    out, err = Capture(feeder), io.StringIO()
    patch = (
        mock.patch.object(cli, "_cmd_stream", command)
        if command
        else contextlib.nullcontext()
    )
    saved = sys.stdin
    sys.stdin = feeder
    try:
        with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), out.rows_at_write


def record_lines(kind, **params):
    buf = io.StringIO()
    write_trajectory(synth_scenario(kind, ScenarioParams(**params)), buf)
    return buf.getvalue().splitlines()


def stream_argv(t0, interval=0.1):
    argv = ["assess", "--stream", "--report-interval", str(interval)]
    return argv + (["--t0", "1.1"] if t0 else [])


def ended_early(err):
    return "stvs: the stream ended " in err and "so no report was written" in err


# -- the oracle ------------------------------------------------------------------------

FAULTS = (
    "nan", "inf", "nonpositive", "short", "order", "jitter", "nan-time", "text",
    "comment", "comment-line", "blank-line", "underscore",
)


def intact_rows(lines):
    """Indices of the lines that are whole data rows of finite numbers."""
    width = len(lines[0].split(","))
    rows = []
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if "#" in line or len(cells) != width:
            continue
        try:
            if all(np.isfinite([float(c) for c in cells])):
                rows.append(r)
        except ValueError:
            continue
    return rows


def inject(lines, fault, where, pick):
    """Damage the intact data row at fraction ``where`` of the record in place.

    Only an intact row is picked, so a second fault never lands on a row or
    a line that the first one made."""
    rows = intact_rows(lines)
    i = int(where * (len(rows) - 1))
    r = rows[i]
    cells = lines[r].split(",")
    names = lines[0].split(",")
    v_cols = [j for j, c in enumerate(names) if c.startswith(VOLTAGE_PREFIX)]
    if fault == "nan":
        cells[v_cols[pick % len(v_cols)]] = "nan"
    elif fault == "inf":
        cells[v_cols[pick % len(v_cols)]] = ("inf", "-inf")[pick % 2]
    elif fault == "nonpositive":
        cells[v_cols[pick % len(v_cols)]] = ("0.0", "-0.4")[pick % 2]
    elif fault == "short":
        cells = cells[:-1]
    elif fault == "order":
        lines.insert(r + 1, lines[rows[max(i - pick % 4, 0)]])  # a duplicate or an earlier row
    elif fault == "nan-time":
        cells[0] = "nan"  # passes the order check, since NaN compares false
    elif fault == "text":
        cells[pick % len(cells)] = ("x", "")[pick % 2]
    elif fault == "comment":
        cells[-1] += (" # note", "#")[pick % 2]
    elif fault == "comment-line":
        lines.insert(r, "# exported by tool X")
    elif fault == "blank-line":
        lines.insert(r, ("", "  ")[pick % 2])
    elif fault == "underscore":  # between two digits, so the value is unchanged
        cell = cells[pick % len(cells)]
        at = next((k for k in range(1, len(cell)) if cell[k - 1:k + 1].isdigit()), None)
        if at is not None:
            cells[pick % len(cells)] = cell[:at] + "_" + cell[at:]
    else:
        dt = float(np.median(np.diff([float(lines[k].split(",")[0]) for k in rows])))
        step = (5e-7, 2e-6, 1e-3, 0.3)[pick % 4]  # under and over the tolerance
        cells[0] = repr(float(cells[0]) + step * dt)
    if fault not in ("order", "comment-line", "blank-line"):
        lines[r] = ",".join(cells)


@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    n_channels=st.integers(1, 3),
    fs=st.sampled_from([25.0, 50.0]),
    post_s=st.floats(0.6, 1.2),
    noise_sigma=st.sampled_from([0.0, 0.002]),  # noise in the fault moves the last dip
    seed=st.integers(0, 2**16),
    faults=st.lists(
        st.tuples(st.sampled_from(FAULTS), st.floats(0, 1), st.integers(0, 7)),
        max_size=2,
    ),
)
@settings(max_examples=40, deadline=None)
def test_stream_writes_what_the_per_row_rebuild_wrote(
    kind, n_channels, fs, post_s, noise_sigma, seed, faults
):
    lines = record_lines(
        kind, n_channels=n_channels, fs=fs, post_s=post_s, noise_sigma=noise_sigma, seed=seed
    )
    for fault, where, pick in faults:
        inject(lines, fault, where, pick)
    for with_t0 in (True, False):
        argv = stream_argv(with_t0)
        want_code, want_out, want_err, _ = stream(argv, lines, oracle_stream)
        code, out, err, _ = stream(argv, lines)
        assert (code, out) == (want_code, want_out)
        if code == 0 and not out and err != want_err:
            # the one line that says why a stream ended without a report is new
            assert err.startswith(want_err)
            assert err[len(want_err):].count("\n") == 1 and ended_early(err)
        else:
            assert err == want_err


def test_stream_reports_every_fault_like_the_per_row_rebuild():
    lines = record_lines("mixed", seed=3)
    cases = [[(fault, where)] for fault in FAULTS for where in (0.0, 0.05, 0.5)]
    # a NaN time stops the stream before a later jitter is seen
    cases.append([("nan-time", 0.3), ("jitter", 0.6)])
    for faults in cases:  # at the first row, before and after t0
        damaged = list(lines)
        for fault, where in faults:
            inject(damaged, fault, where, 3)
        for with_t0 in (True, False):
            argv = stream_argv(with_t0, interval=0.5)
            assert stream(argv, damaged)[:3] == stream(argv, damaged, oracle_stream)[:3]


def test_stream_follows_a_second_fault_like_the_per_row_rebuild():
    lines = record_lines("mixed", post_s=1.5, seed=1)
    shift = float(lines[-1].split(",")[0]) + 0.02
    for line in record_lines("mixed", post_s=3.0, seed=2)[1:]:
        cells = line.split(",")
        cells[0] = repr(float(cells[0]) + shift)
        lines.append(",".join(cells))
    argv = stream_argv(False)
    code, out, err, rows_at_write = stream(argv, lines)
    assert (code, out, err) == stream(argv, lines, oracle_stream)[:3]
    # t0 moves on to the second dip and the report schedule starts over:
    # the first report after the move comes FIRST_REPORT_S after the
    # second clearing, within one row, and one follows every 0.1 s
    latency = [json.loads(doc)["latency_s"] for doc in out.splitlines()]
    moved = next(k for k in range(1, len(latency)) if latency[k] < latency[k - 1])
    assert code == 0
    assert FIRST_REPORT_S <= latency[moved] < FIRST_REPORT_S + 0.02
    assert set(np.diff(rows_at_write[moved:])) == {5}  # 0.1 s at 50 rows/s
    assert rows_at_write[-1] >= len(lines) - 1 - 5


@pytest.mark.parametrize("t0", [1.1, None])
def test_a_monitor_fed_rows_directly_writes_what_the_cli_and_the_oracle_wrote(t0):
    lines = record_lines("mixed", post_s=1.5, noise_sigma=0.001, seed=4)
    notes = []
    monitor = Monitor(lines[0].split(","), AssessmentConfig(), t0, 0.1, notes.append)
    docs = [doc for doc in map(monitor.push, lines[1:]) if doc is not None]
    monitor.finish()
    assert len(docs) >= 5
    argv = stream_argv(t0 is not None)
    _, out, err, _ = stream(argv, lines)
    _, want, want_err, _ = stream(argv, lines, oracle_stream)
    written = [json.dumps(doc, sort_keys=True) for doc in docs]
    assert written == out.splitlines() == want.splitlines()
    assert [f"stvs: {text}" for text in notes] == err.splitlines() == want_err.splitlines()


# -- batch equality --------------------------------------------------------------------


@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    n_channels=st.integers(1, 4),
    fs=st.integers(25, 100),
    post_s=st.floats(0.6, 4.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_final_stream_report_equals_batch_assess(
    tmp_path_factory, kind, n_channels, fs, post_s, seed
):
    lines = record_lines(kind, n_channels=n_channels, fs=float(fs), post_s=post_s, seed=seed)
    for with_t0 in (True, False):
        code, out, err, rows_at_write = stream(stream_argv(with_t0, interval=1.0), lines)
        assert code == 0
        if not out:
            # no fault signature without --t0, or one that shows too late
            assert not with_t0 and ("no fault signature" in err or ended_early(err))
            continue
        final = json.loads(out.splitlines()[-1])
        path = tmp_path_factory.mktemp("batch") / "rows.csv"
        path.write_text("\n".join(lines[: 1 + rows_at_write[-1]]) + "\n")
        batch_argv = ["assess", "--in", str(path)] + (["--t0", "1.1"] if with_t0 else [])
        batch_code, batch_out, _, _ = stream(batch_argv, [])
        assert batch_code == 0
        batch = json.loads(batch_out)
        final.pop("latency_s")
        batch.pop("latency_s")
        assert final == batch


# -- one input contract for a file and a stream ------------------------------------

TOKENS = ("", "nan", "inf", "-0", "1e309", "n/a")  # each written into a field
MUTATIONS = ("cut", "duplicate", "swap", "comment", "comment-line", "underscore", *TOKENS)
STAGED = re.compile(r"stvs: \[(ingest|emd|oscillation|recovery:[^\]]+)\] ")


def mutate(lines, mutation, where, pick):
    """Apply ``mutation`` at the data row at fraction ``where`` of ``lines``."""
    r = 1 + int(where * (len(lines) - 2))
    if mutation == "cut":
        del lines[r]
    elif mutation == "duplicate":
        lines.insert(r, lines[r])
    elif mutation == "swap":
        lines[r], lines[r + 1] = lines[r + 1], lines[r]
    elif mutation in TOKENS:
        cells = lines[r].split(",")
        cells[pick % len(cells)] = mutation
        lines[r] = ",".join(cells)
    else:  # a comment, or "_" inside a number
        inject(lines, mutation, where, pick)


def encode(lines, bom, crlf, bad_byte, blank_tail):
    """The bytes of ``lines``, with the byte-level mutations drawn."""
    data = (("\r\n" if crlf else "\n").join(lines) + "\n").encode("utf-8")
    if bad_byte is not None:
        at = int(bad_byte * len(data))
        data = data[:at] + b"\xff" + data[at:]
    return (b"\xef\xbb\xbf" if bom else b"") + data + b"\n" * blank_tail


def run_checked(argv, data, origin):
    """One run of ``argv`` on stdin ``data``, checked against the contract
    every run keeps; (exit code, stdout, stderr, rows read at each report)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err, rows_at_write = stream(argv, data)
    assert caught == []
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code:
        last = err.splitlines()[-1]
        assert STAGED.match(last), last
        named = rf"\brow \d+|'[^']+'|{re.escape(origin)}|^stvs: \[recovery:"
        assert re.search(named, last), last
        if "--stream" not in argv:
            assert err.count("\n") == 1
    else:
        assert out or err  # never silent
    return code, out, err, rows_at_write


@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    n_channels=st.integers(1, 3),
    post_s=st.floats(0.6, 1.6),
    seed=st.integers(0, 2**16),
    mutations=st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.floats(0, 0.99), st.integers(0, 11)),
        max_size=3,
    ),
    bom=st.booleans(),
    crlf=st.booleans(),
    bad_byte=st.none() | st.floats(0, 1),
    blank_tail=st.integers(0, 2),
    generators=st.sampled_from(["none", "all", "one-without-q"]),
)
@settings(max_examples=80, deadline=None)
def test_a_file_and_a_stream_keep_one_input_contract(
    tmp_path_factory, kind, n_channels, post_s, seed, mutations, bom, crlf, bad_byte,
    blank_tail, generators,
):
    folder = tmp_path_factory.mktemp("fuzz")
    lines = record_lines(
        kind, n_channels=n_channels, fs=25.0, post_s=post_s, noise_sigma=0.001,
        seed=seed, k1=QV_K1, k2=QV_K2,
    )
    flags = []
    if generators != "none":
        ids = [c[2:] for c in lines[0].split(",") if c.startswith(VOLTAGE_PREFIX)]
        (folder / "gens.ini").write_text("".join(
            f"[{cid}]\nxd_prime = {XD_PRIME}\np_active = {P_ACTIVE}\n"
            f"pickup = {pickup_level()}@20\n"
            for cid in ids
        ))
        flags = ["--gen-config", str(folder / "gens.ini")]
        if generators == "one-without-q":
            drop = lines[0].split(",").index(REACTIVE_PREFIX + ids[seed % len(ids)])
            lines = [",".join(c for j, c in enumerate(line.split(",")) if j != drop)
                     for line in lines]
    for mutation, where, pick in mutations:
        mutate(lines, mutation, where, pick)
    data = encode(lines, bom, crlf, bad_byte, blank_tail)
    path = folder / "rec.csv"
    path.write_bytes(data)
    for t0 in (["--t0", "1.1"], []):
        batch_argv = ["assess", "--in", str(path), *t0, *flags]
        batch_code, batch_out, _, _ = run_checked(batch_argv, [], str(path))
        argv = ["assess", "--stream", "--report-interval", "0.5", *t0, *flags]
        code, out, err, rows_at_write = run_checked(argv, data, "<stdin>")
        if batch_code:
            continue
        assert code == 0
        if not out:  # no fault signature, or one too late for a report
            assert not t0 and ("no fault signature" in err or ended_early(err))
            continue
        # batch on the lines the last report had read
        read = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
        (folder / "read.csv").write_text("".join(read[: 1 + rows_at_write[-1]]))
        _, prefix_out, _, _ = run_checked(
            ["assess", "--in", str(folder / "read.csv"), *t0, *flags], [], "read.csv"
        )
        final, batch = json.loads(out.splitlines()[-1]), json.loads(prefix_out)
        final.pop("latency_s")
        batch.pop("latency_s")
        assert final == batch


def with_data_row(lines, row, edit):
    """``lines`` with data row ``row`` replaced by ``edit(row's line)``."""
    return lines[: row + 1] + [edit(lines[row + 1])] + lines[row + 2:]


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: with_data_row(lines, 29, lambda line: "0.5_8" + line[4:]),
        lambda lines: with_data_row(lines, 29, lambda line: line + " # note"),
        lambda lines: lines[:1] + ["# exported by tool X"] + lines[1:],
    ],
    ids=["underscore-in-time", "comment-after-a-row", "comment-line"],
)
def test_a_file_and_a_stream_read_comments_and_underscores_alike(tmp_path, edit):
    lines = record_lines("mixed")
    assert lines[30].startswith("0.58,")  # data row 29
    edited = edit(lines)
    code, out, err, rows_at_write = stream(stream_argv(True), edited)
    # the stream skipped no row, so it wrote what it writes for the record
    assert (code, out, err) == (0, *stream(stream_argv(True), lines)[1:3])
    # batch on the rows the last report had read, with and without the edit
    docs = []
    for name, rows in (("plain", lines), ("edited", edited)):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(rows[: 1 + rows_at_write[-1]]) + "\n")
        code, batch_out, batch_err, _ = stream(["assess", "--in", str(path), "--t0", "1.1"], [])
        assert (code, batch_err) == (0, "")
        docs.append(batch_out)
    assert docs[1] == docs[0]
    final, batch = json.loads(out.splitlines()[-1]), json.loads(docs[1])
    final.pop("latency_s")
    batch.pop("latency_s")
    assert final == batch


def test_a_row_with_a_column_missing_is_named_by_its_row_and_both_counts(tmp_path):
    lines = with_data_row(record_lines("mixed"), 11, lambda line: line.rsplit(",", 1)[0])
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(lines) + "\n")
    assert stream(["assess", "--in", str(path), "--t0", "1.1"], []) == (
        1, "", f"stvs: [ingest] {path}: row 11 has 6 columns (header has 7)\n", []
    )


@pytest.mark.parametrize("lines", [[], [""], ["", *record_lines("mixed")]],
                         ids=["empty", "blank", "blank-then-rows"])
def test_a_stream_without_a_header_says_so(lines):
    # was exit 0 with nothing on stdout or stderr
    assert stream(stream_argv(True), lines) == (
        0, "", "stvs: the stream's first line holds no header, so no report was written\n", []
    )


@pytest.mark.parametrize("with_t0", [True, False])
def test_a_pickup_time_however_late_streams_to_the_batch_verdict(tmp_path, with_t0):
    # the critical signals span the window alone, so no pickup time stops the stream
    gens = tmp_path / "gens.ini"
    gens.write_text("[G1]\nxd_prime = 0.3\np_active = 0.9\npickup = 0.95@1e15\n")
    flags = ["--gen-config", str(gens)] + (["--t0", "1.1"] if with_t0 else [])
    lines = record_lines("mixed")
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    code, batch_out, err, _ = stream(["assess", "--in", str(path), *flags], [])
    assert (code, err) == (0, "")
    code, out, err, _ = stream(["assess", "--stream", *flags], lines)
    assert code == 0
    assert "Traceback" not in err and "Warning" not in err and "[recovery" not in err
    final, batch = json.loads(out.splitlines()[-1]), json.loads(batch_out)
    final.pop("latency_s")
    batch.pop("latency_s")
    assert final == batch
    (g1,) = [g for g in final["generators"] if g["id"] == "G1"]
    assert g1["class"] == "non-trip"


def with_column(lines, name, rows, value):
    """``lines`` with ``name`` set to ``value`` in the data rows ``rows``."""
    col = lines[0].split(",").index(name)
    edited = list(lines)
    for row in rows:
        cells = edited[row + 1].split(",")
        cells[col] = value
        edited[row + 1] = ",".join(cells)
    return edited


def test_a_bad_q_sample_in_a_fixed_window_stops_the_stream_once(tmp_path):
    gens = tmp_path / "gens.ini"
    gens.write_text(
        "[G1]\nxd_prime = 0.25\np_active = 0.85\npickup = 0.9977830363632773@20.0\n"
    )
    lines = with_column(record_lines("mixed"), "Q:G1", range(59, 199), "nan")
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    flags = ["--gen-config", str(gens), "--t0", "1.1"]
    code, out, err, _ = stream(["assess", "--in", str(path), *flags], [])
    line = (
        "stvs: [recovery:G1] Q-V fit is not finite: a V or Q sample is not finite "
        "or too large"
    )
    assert (code, out, err) == (1, "", line + "\n")
    # was the same line on every report-due row, and exit 0
    code, out, err, _ = stream(["assess", "--stream", *flags], lines)
    assert (code, out) == (1, "")
    assert err == f"{line}; no later row can change it, so the stream stops\n"
    # without --t0 the window may still move past the bad samples
    code, out, err, _ = stream(["assess", "--stream", *flags[:2]], lines)
    assert (code, out) == (0, "")
    assert err.count(line) > 1 and "stops" not in err


# -- fault-signature tracking -------------------------------------------------------


def trajectory_of(v):
    return VoltageTrajectory(
        channels=tuple(Channel(id=str(c), voltage=v[:, c]) for c in range(v.shape[1])),
        dt=0.02,
    )


def oracle_detect_fault_clear_index(traj):
    """The per-channel scan the one-pass tracker replaced."""
    best = None
    for ch in traj.channels:
        v = ch.voltage
        low = np.flatnonzero(v[:-3] < FAULT_LEVEL_PU)
        for k in low[::-1]:
            if v[k] < v[k + 1] < v[k + 2] < v[k + 3]:
                best = k + 1 if best is None else max(best, k + 1)
                break
    if best is None:
        raise ValidationError(NO_FAULT_SIGNATURE)
    return best


def detect_or_none(v):
    try:
        return oracle_detect_fault_clear_index(trajectory_of(v))
    except ValidationError:
        return None


def dip_and_rise(depth, step):
    """A sub-0.6 pu dip followed by a monotone rise over 3 samples."""
    return [depth, depth + step, depth + 2 * step, depth + 3 * step]


@st.composite
def histories(draw):
    n_channels = draw(st.integers(1, 3))
    length = draw(st.integers(2, 60))
    level = st.floats(0.2, 1.2)
    v = np.array(draw(st.lists(
        st.lists(level, min_size=n_channels, max_size=n_channels),
        min_size=length, max_size=length,
    )))
    # zero, one or two dips with recovery, so the last dip moves
    for _ in range(draw(st.integers(0, 2))):
        if length >= 4:
            at = draw(st.integers(0, length - 4))
            depth = draw(st.floats(0.1, 0.59))
            v[at:at + 4, draw(st.integers(0, n_channels - 1))] = dip_and_rise(
                depth, draw(st.floats(0.001, 0.2))
            )
    return v


@given(v=histories())
@settings(max_examples=200, deadline=None)
def test_tracker_equals_detection_on_every_prefix(v):
    tracker = FaultClearTracker()
    columns = list(range(v.shape[1]))
    for n in range(2, len(v) + 1):
        assert tracker.update(v[:n], columns) == detect_or_none(v[:n])


@given(
    v=st.integers(1, 3).flatmap(
        lambda n_channels: st.lists(
            # few levels, so that neighbours tie and sit on FAULT_LEVEL_PU
            st.lists(
                st.sampled_from([0.2, 0.3, 0.4, 0.59, FAULT_LEVEL_PU, 0.8, 1.0]),
                min_size=n_channels,
                max_size=n_channels,
            ),
            min_size=2,
            max_size=40,
        )
    ),
    chunks=st.lists(st.integers(1, 6), min_size=1, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_scan_equals_the_per_channel_loop(v, chunks):
    v = np.array(v)
    want = detect_or_none(v)
    if want is None:
        with pytest.raises(ValidationError, match=re.escape(NO_FAULT_SIGNATURE)):
            detect_fault_clear_index(trajectory_of(v))
    else:
        assert detect_fault_clear_index(trajectory_of(v)) == want
    # row by row, and in backlogs of a few rows
    columns = list(range(v.shape[1]))
    for steps in ([1] * len(v), chunks):
        tracker, n = FaultClearTracker(), 2
        for step in steps:
            assert tracker.update(v[:n], columns) == detect_or_none(v[:n])
            if n == len(v):
                break
            n = min(n + step, len(v))


def test_tracker_follows_the_last_dip():
    v = np.full((30, 2), 1.0)
    v[3:7, 0] = dip_and_rise(0.3, 0.1)
    v[18:22, 1] = dip_and_rise(0.4, 0.05)
    tracker = FaultClearTracker()
    seen = [tracker.update(v[:n], [0, 1]) for n in range(2, 31)]
    assert seen == [detect_or_none(v[:n]) for n in range(2, 31)]
    # 0.45 pu at row 19 still rises over 3 samples, onto the 1.0 pu plateau
    assert None in seen and 4 in seen and seen[-1] == 20


def test_tracker_catches_up_on_a_backlog():
    v = np.full((30, 1), 1.0)
    v[10:14, 0] = dip_and_rise(0.3, 0.1)
    tracker = FaultClearTracker()
    assert tracker.update(v[:20], [0]) == 12 == detect_or_none(v[:20])
    assert tracker.update(v, [0]) == 12


# -- work per row ----------------------------------------------------------------------


@pytest.mark.parametrize("with_t0", [True, False])
def test_stream_builds_one_trajectory_per_report_not_per_row(with_t0):
    lines = record_lines("mixed", post_s=3.0, noise_sigma=0.001)
    built = []
    real = stvs.stream.trajectory_from_columns

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    with mock.patch.object(stvs.stream, "trajectory_from_columns", counting):
        code, out, err, _ = stream(stream_argv(with_t0), lines)
    reports = len(out.splitlines())
    assert code == 0 and "stops" not in err
    assert reports >= 20
    assert len(built) <= reports + 1
    assert len(built) < (len(lines) - 1) / 4


def test_stream_checks_each_report_history_once(monkeypatch):
    # one construction of the report's trajectory, with its fault clear
    # sample placed, and one of its window; each checks every voltage
    lines = record_lines("mixed", noise_sigma=0.001)
    built = []
    check = VoltageTrajectory.__post_init__

    def counting(self):
        built.append(self.n_samples)
        check(self)

    monkeypatch.setattr(VoltageTrajectory, "__post_init__", counting)
    code, out, err, _ = stream(stream_argv(True), lines)
    reports = len(out.splitlines())
    assert (code, err) == (0, "")
    assert reports == 26
    assert len(built) == 2 * reports


# -- how a stream ends without a report ------------------------------------------------


def test_stream_stops_once_on_a_t0_before_the_first_row(capsys, tmp_path):
    assert run(["synth", "mixed", "seed=1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    lines = lines[:1] + lines[60:]  # the first 59 data rows cut: t_start 1.18 s
    code, out, err, _ = stream(["assess", "--stream", "--t0", "1.1"], lines)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1  # was one line per row and exit 0
    assert "fault clear time 1.1 s outside the record [1.18," in err
    assert "before the first row, so the stream stops" in err
    path = tmp_path / "cut.csv"
    path.write_text("\n".join(lines) + "\n")
    code = run(["assess", "--in", str(path), "--t0", "1.1"])
    batch = capsys.readouterr()
    assert (code, batch.out, batch.err.count("\n")) == (1, "", 1)
    assert "fault clear time 1.1 s outside the record [1.18," in batch.err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--t0", "0"], "cannot estimate the pre-fault voltage: no samples before the "
         "fault and no explicit value supplied"),
        (["--t0", "1.1", "--window", "0.01"], "window duration 0.01 s yields 0 samples"),
    ],
    ids=["no-pre-fault-rows", "window-under-2-samples"],
)
def test_an_ingest_failure_stops_a_t0_stream_once(flags, named):
    lines = record_lines("mixed", seed=1)
    code, out, err, _ = stream(["assess", "--stream", *flags], lines)
    assert (code, out) == (1, "")  # was one line per row and exit 0
    assert err.startswith(f"stvs: [ingest] {named}")
    assert err.endswith("; no later row can change it, so the stream stops\n")
    assert err.count("\n") == 1


def test_an_ingest_failure_that_a_later_row_can_mend_lets_the_stream_go_on():
    lines = record_lines("mixed", seed=1)
    _, clean, _, _ = stream(stream_argv(False), lines)
    # without --t0: a dip in the first rows puts t0 where no row precedes
    # the fault, until the real fault's dip moves it on
    early = list(lines)
    for row, v in enumerate((0.5, 0.55, 0.6, 0.65), start=1):
        cells = early[row].split(",")
        cells[1] = repr(v)
        early[row] = ",".join(cells)
    code, out, err, _ = stream(stream_argv(False), early)
    assert code == 0
    no_pre_fault = "stvs: [ingest] cannot estimate the pre-fault voltage: no samples"
    assert err.count(no_pre_fault) > 1 and "stops" not in err
    assert out.splitlines()[-1] == clean.splitlines()[-1]
    # with --t0 at 2 rows/s: the first report's window holds one sample,
    # and the next row makes it two
    coarse = record_lines("mixed", fs=2.0, prefault_s=2.0, fault_s=0.5, post_s=4.0)
    code, out, err, _ = stream(["assess", "--stream", "--t0", "2.5"], coarse)
    assert code == 0 and len(out.splitlines()) == 7
    assert err == "stvs: [ingest] window duration 0.5 s yields 1 samples (need >= 2)\n"


def test_a_record_with_under_lookback_s_before_the_fault_gets_a_verdict(tmp_path):
    # 0.3 s before the fault: V_pre is the mean of all 15 samples before
    # the onset, where batch used to exit 1 and the stream to stop
    lines = record_lines("mixed", prefault_s=0.3)
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err, _ = stream(["assess", "--in", str(path), "--t0", "0.4"], [])
    assert (code, err) == (0, "")
    batch = json.loads(out)
    traj = load_trajectory(path).with_fault_clear_time(0.4)
    assert estimate_prefault_voltage(traj) == {
        ch.id: float(np.mean(ch.voltage[:15])) for ch in traj.channels
    }
    code, out, err, _ = stream(["assess", "--stream", "--t0", "0.4"], lines)
    reports = [json.loads(doc) for doc in out.splitlines()]
    assert (code, err, len(reports)) == (0, "", 26)
    reports[-1].pop("latency_s")
    batch.pop("latency_s")
    assert reports[-1] == batch


def epoch_lines(t_start, **params):
    """A CSV record whose times start at ``t_start``."""
    traj = synth_scenario("mixed", ScenarioParams(**params))
    buf = io.StringIO()
    write_trajectory(replace(traj, t_start=t_start), buf)
    return buf.getvalue().splitlines()


def classes(doc):
    return doc["oscillation"]["class"], [g["class"] for g in doc["generators"]]


def test_a_record_in_unix_epoch_seconds_gets_the_verdicts_of_one_at_zero(tmp_path):
    # a float holds 1.7e9 s only to 2.4e-7 s: the rounding alone is 1.2e-5
    # of a 50 Hz step, over DT_REL_TOL
    t_start = 1.7e9
    params = dict(post_s=8.9, noise_sigma=0.001)
    runs = {}
    for start in (0.0, t_start):
        path = tmp_path / f"{start}.csv"
        lines = epoch_lines(start, **params)
        path.write_text("\n".join(lines) + "\n")
        t0 = repr(start + 1.1)
        batch = stream(["assess", "--in", str(path), "--t0", t0], [])
        streamed = stream(["assess", "--stream", "--t0", t0], lines)
        assert batch[0] == streamed[0] == 0 and batch[2] == streamed[2] == ""
        runs[start] = json.loads(batch[1]), [json.loads(d) for d in streamed[1].splitlines()]
    (batch0, reports0), (batch, reports) = runs[0.0], runs[t_start]
    assert classes(batch) == classes(batch0)
    assert len(reports) == len(reports0) == 85
    assert [classes(doc) for doc in reports] == [classes(doc) for doc in reports0]
    # t0 sits 55 steps in, each step read from times rounded to 2.4e-7 s
    bound = 55 * 2 * np.spacing(t_start)
    assert all(
        abs(doc["latency_s"] - doc0["latency_s"]) < bound
        for doc, doc0 in zip(reports, reports0)
    )


def test_a_step_error_over_dt_rel_tol_is_still_refused(tmp_path):
    lines = epoch_lines(0.0)
    cells = lines[8].split(",")  # data row 7
    cells[0] = repr(float(cells[0]) + 2e-6 * 0.02)
    lines[8] = ",".join(cells)
    path = tmp_path / "jitter.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(
        ValidationError, match=r"non-uniform sampling at row 7 \(relative jitter 2e-06\)$"
    ):
        load_trajectory(path)


def test_stream_says_why_a_short_record_got_no_report(capsys, tmp_path):
    assert run(["synth", "mixed", "post_s=0.3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    code, out, err, _ = stream(["assess", "--stream", "--t0", "1.1"], lines)
    assert (code, out) == (0, "")
    assert err == (
        "stvs: the stream ended 0.3 s after fault clearing, so no report was "
        "written; the first report needs 0.5 s\n"
    )
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["assess", "--in", str(path), "--t0", "1.1"]) == 0
    assert "oscillation" in json.loads(capsys.readouterr().out)


def test_a_first_report_at_epoch_times_is_due_within_the_timestamp_slack():
    # data row 80 reads t - t0 as 0.4999999990 at 1e6 s; without the slack
    # on the first report it waited a row, for 25 reports from 0.52 s
    latencies = {}
    for t_start, t0 in ((0.0, "1.1"), (1e6, "1000001.1")):
        lines = epoch_lines(t_start, noise_sigma=0.001, seed=3)
        code, out, err, _ = stream(["assess", "--stream", "--t0", t0], lines)
        assert (code, err) == (0, "")
        latencies[t_start] = [json.loads(line)["latency_s"] for line in out.splitlines()]
    assert len(latencies[1e6]) == len(latencies[0.0]) == 26
    assert latencies[0.0][0] == FIRST_REPORT_S
    assert abs(latencies[1e6][0] - FIRST_REPORT_S) < 1e-6


def test_one_row_at_or_past_t0_is_told_it_needs_two():
    argv = ["assess", "--stream", "--t0", "4.0"]
    for t in ("5.0", "4.0"):
        code, out, err, _ = stream(argv, ["time,V:G1", f"{t},1.0"])
        assert (code, out) == (0, "")
        assert err == (
            "stvs: the stream ended with 1 data row(s), so no report was written; "
            "a record needs at least 2\n"
        )
    code, out, err, _ = stream(argv, ["time,V:G1", "3.0,1.0"])  # before t0
    assert (code, out) == (0, "")
    assert err == (
        "stvs: the stream ended at 3.0 s, before the fault clear time 4.0 s, so no "
        "report was written\n"
    )


def test_stream_says_when_it_ended_before_t0():
    lines = record_lines("mixed")[:40]  # up to 0.76 s; t0 is 1.1 s
    code, out, err, _ = stream(["assess", "--stream", "--t0", "1.1"], lines)
    assert (code, out) == (0, "")
    assert err == (
        "stvs: the stream ended at 0.76 s, before the fault clear time 1.1 s, "
        "so no report was written\n"
    )


def test_an_infinite_voltage_is_named_infinite_in_batch_and_stream(tmp_path):
    lines = record_lines("mixed", seed=3)
    names = lines[0].split(",")
    cells = lines[40].split(",")  # data row 39
    cells[names.index("V:G2")] = "inf"
    lines[40] = ",".join(cells)
    path = tmp_path / "inf.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err, _ = stream(["assess", "--in", str(path), "--t0", "1.1"], [])
    assert (code, out) == (1, "")
    assert err == f"stvs: [ingest] {path}: infinite voltage in 'V:G2' at row 39\n"
    code, out, err, _ = stream(stream_argv(True), lines)
    assert (code, out) == (1, "")
    assert err.startswith("stvs: [ingest] <stdin>: infinite voltage in 'V:G2' at row 39")
    assert err.count("\n") == 1


@pytest.mark.parametrize("with_file", [True, False])
def test_an_infinite_time_is_one_clean_message(tmp_path, with_file):
    lines = ["time,V:A", "0,1", "inf,1", "0.04,1", "0.06,1"]
    path = tmp_path / "inf_time.csv"
    path.write_text("\n".join(lines) + "\n")
    if with_file:
        argv, lines = ["assess", "--in", str(path), "--t0", "0"], []
    else:
        argv = ["assess", "--stream", "--t0", "0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err, _ = stream(argv, lines)
    assert caught == []
    assert (code, out) == (1, "")
    assert "time is not finite at row 1" in err and err.count("\n") == 1


def test_a_utf8_bom_before_the_header_changes_no_report(tmp_path):
    lines = record_lines("mixed", seed=2)
    bom_lines = ["\ufeff" + lines[0]] + lines[1:]
    code, out, err, rows_at_write = stream(stream_argv(True, interval=1.0), bom_lines)
    assert (code, err) == (0, "")
    assert (code, out, err) == stream(stream_argv(True, interval=1.0), lines)[:3]
    # batch on the rows the last report had read, with and without the BOM
    docs = []
    for name, rows in (("plain", lines), ("bom", bom_lines)):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(rows[: 1 + rows_at_write[-1]]) + "\n", encoding="utf-8")
        argv = ["assess", "--in", str(path), "--t0", "1.1"]
        code, batch_out, batch_err, _ = stream(argv, [])
        assert (code, batch_err) == (0, "")
        docs.append(json.loads(batch_out))
    final = json.loads(out.splitlines()[-1])
    assert docs[1] == docs[0]
    final.pop("latency_s")
    docs[1].pop("latency_s")
    assert final == docs[1]


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
def test_a_monitor_rejects_a_non_finite_t0_when_it_is_built(t0):
    with pytest.raises(ValidationError) as exc:
        Monitor(record_lines("mixed")[0].split(","), AssessmentConfig(), t0=t0)
    assert str(exc.value) == f"[ingest] t0 must be a finite time in seconds, got {t0}"


@pytest.mark.parametrize("interval", [0, -1, np.nan, np.inf])
def test_a_monitor_rejects_a_report_interval_that_is_not_positive_and_finite(interval):
    # the CLI's --report-interval rejects the same values
    with pytest.raises(ValidationError) as exc:
        Monitor(record_lines("mixed")[0].split(","), AssessmentConfig(), 1.1, interval)
    assert str(exc.value) == (
        f"report_interval must be a positive, finite time in seconds, got {interval}"
    )


@pytest.mark.parametrize("rows", [False, True], ids=["header-only", "rows"])
@pytest.mark.parametrize("with_t0", [True, False])
def test_a_generator_without_q_stops_the_stream_before_any_row(tmp_path, rows, with_t0):
    (tmp_path / "gens.ini").write_text(
        "[G1]\nxd_prime = 0.3\np_active = 0.9\npickup = 0.95@20\n"
    )
    lines = [",".join(line.split(",")[:4]) for line in record_lines("mixed")]
    assert lines[0] == "time,V:G1,V:G2,V:G3"
    path = tmp_path / "no_q.csv"
    path.write_text("\n".join(lines) + "\n")
    flags = ["--gen-config", str(tmp_path / "gens.ini")] + (["--t0", "1.1"] if with_t0 else [])
    batch = stream(["assess", "--in", str(path), *flags], [])
    code, out, err, _ = stream(["assess", "--stream", *flags], lines if rows else lines[:1])
    assert (code, out) == (1, "")
    assert batch[:3] == (1, "", err)
    assert err == (
        "stvs: [recovery:G1] generator G1: trip prediction needs reactive power "
        "measurements for the Q-V fit\n"
    )


# a header the batch reader rejects for what it lacks, and the line it gives
HEADERS_WITHOUT = [
    ("x,V:G1,Q:G1", "missing 'time' column"),
    ("time,U:G1,Q:G1", "no voltage columns with prefix 'V:'"),
]


@pytest.mark.parametrize("header, named", HEADERS_WITHOUT, ids=["no-time", "no-voltage"])
def test_a_monitor_rejects_a_header_without_time_or_voltage_when_it_is_built(header, named):
    with pytest.raises(ValidationError) as exc:
        Monitor(header.split(","), AssessmentConfig())
    assert str(exc.value) == f"[ingest] <stdin>: {named}"


@pytest.mark.parametrize("rows", [False, True], ids=["header-only", "rows"])
@pytest.mark.parametrize("with_t0", [True, False])
@pytest.mark.parametrize("header, named", HEADERS_WITHOUT, ids=["no-time", "no-voltage"])
def test_a_header_without_time_or_voltage_stops_the_stream_before_any_row(
    tmp_path, header, named, with_t0, rows
):
    lines = record_lines("mixed", n_channels=1)
    assert lines[0] == "time,V:G1,Q:G1"
    lines = [header, *lines[1:]] if rows else [header]
    path = tmp_path / "bad_header.csv"
    path.write_text("\n".join(lines) + "\n")
    flags = ["--t0", "1.1"] if with_t0 else []
    code, out, err, _ = stream(["assess", "--stream", *flags], lines)
    assert (code, out, err) == (1, "", f"stvs: [ingest] <stdin>: {named}\n")
    batch = stream(["assess", "--in", str(path), *flags], [])
    assert batch[:3] == (1, "", f"stvs: [ingest] {path}: {named}\n")


@pytest.mark.parametrize("q", ["none", "flat"])
def test_an_lvrt_only_generator_needs_no_reactive_power(tmp_path, q):
    # an LVRT cap is a voltage level: only pickups read Q, through the Q-V line
    (tmp_path / "lvrt.ini").write_text("[G1]\nlvrt = 0.3@1.0\n")
    rows = [line.split(",") for line in record_lines("mixed", noise_sigma=0.001)]
    assert rows[0] == ["time", "V:G1", "V:G2", "V:G3", "Q:G1", "Q:G2", "Q:G3"]
    if q == "none":
        rows = [row[:4] for row in rows]
    else:
        for row in rows[1:]:
            row[4] = "0.2"
    lines = [",".join(row) for row in rows]
    path = tmp_path / "record.csv"
    path.write_text("\n".join(lines) + "\n")
    flags = ["--gen-config", str(tmp_path / "lvrt.ini"), "--t0", "1.1"]
    code, out, err, _ = stream(["assess", "--in", str(path), *flags], [])
    assert (code, err) == (0, "")
    assert json.loads(out)["generators"][0]["class"] == "non-trip"
    code, out, err, _ = stream(["assess", "--stream", *flags], lines)
    assert (code, err) == (0, "")
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 26
    assert {doc["generators"][0]["class"] for doc in reports} == {"non-trip"}
    code, out, err, _ = stream(["tune", "--in", str(path), *flags], [])
    assert (code, err) == (0, "")
    assert json.loads(out)["generators"] == [
        {"id": "G1", "k1": None, "k2": None, "trivial": "non-trip", "vcaps": [[0.3, 1.0]]}
    ]
