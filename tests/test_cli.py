import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stvs
from conftest import (
    P_ACTIVE,
    QV_K1,
    QV_K2,
    XD_PRIME,
    kl_index_oracle,
    osc_params,
    pickup_level,
)
from stvs import distribution, indices
from stvs.cli import run
from stvs.errors import ValidationError
from stvs.indices import AssessmentConfig, assess
from stvs.ingest import load_trajectory, write_trajectory
from stvs.oel import load_generator_config
from stvs.synth import ScenarioParams, synth_scenario


@pytest.fixture
def stable_case_csv(tmp_path):
    traj = synth_scenario("stable-osc", osc_params(decay=0.4))
    path = tmp_path / "stable.csv"
    write_trajectory(traj, path)
    return str(path)


@pytest.fixture
def gen_config(tmp_path):
    e_i = pickup_level()
    path = tmp_path / "gens.ini"
    lines = []
    for gid in ("G1", "G2", "G3"):
        lines += [
            f"[{gid}]",
            f"xd_prime = {XD_PRIME}",
            f"p_active = {P_ACTIVE}",
            f"pickup = {e_i}@20",
            "",
        ]
    path.write_text("\n".join(lines))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def written_case(tmp_path, kind, **overrides):
    """CSV path of a scenario; the format carries no pre-fault voltage."""
    path = tmp_path / f"{kind}.csv"
    write_trajectory(synth_scenario(kind, osc_params(**overrides)), path)
    return str(path)


def library_assess(path, gen_config=None):
    generators = load_generator_config(gen_config) if gen_config else None
    traj = load_trajectory(path).with_fault_clear_time(1.1)
    return assess(traj, AssessmentConfig(generators=generators))


# -- thresholds -------------------------------------------------------------------

def test_thresholds_reports_critical_value(capsys):
    code, doc = run_json(
        capsys,
        ["thresholds", "--bins", "20", "--lo", "0", "--hi", "1.5", "--gamma2", "10"],
    )
    assert code == 0
    assert doc["imf_critical"] == pytest.approx(2.09, abs=0.05)
    assert len(doc["reference"]["probabilities"]) == 20
    assert sum(doc["reference"]["probabilities"]) == pytest.approx(1.0)


def test_thresholds_prints_the_reference_row_imf_threshold_scored(capsys, monkeypatch):
    scored, read = [], []
    kl_index, reference_table = indices.kl_index, distribution.reference_table

    def keeping(factors, grid, gammas, x_stars):
        scored.append((grid, gammas, x_stars, kl_index(factors, grid, gammas, x_stars)))
        return scored[-1][-1]

    def reading(gammas, x_stars, edges):  # the table kl_index scores against
        read.append((edges, reference_table(gammas, x_stars, edges)))
        return read[-1][-1]

    monkeypatch.setattr(indices, "kl_index", keeping)
    monkeypatch.setattr(distribution, "reference_table", reading)
    indices.imf_threshold.cache_clear()
    argv = ["thresholds", "--bins", "30", "--lo", "0.1", "--hi", "2", "--gamma2", "4"]
    code, doc = run_json(capsys, argv)
    indices.imf_threshold.cache_clear()  # drop the value scored through the wrapper
    assert code == 0
    ((grid, gammas, x_stars, value),) = scored
    ((edges, table),) = read
    assert (grid, gammas, x_stars) == ((30, 0.1, 2.0), [4.0], [1.0])
    assert doc["reference"]["bin_edges"] == edges.tolist()
    assert doc["reference"]["probabilities"] == table[0, 0].tolist()
    assert doc["imf_critical"] == value[0, 0]


# -- assess -----------------------------------------------------------------------

def test_assess_stable_file(capsys, stable_case_csv):
    code, doc = run_json(
        capsys, ["assess", "--in", stable_case_csv, "--t0", "1.1", "--window", "3.0"]
    )
    assert code == 0
    assert doc["oscillation"]["class"] == "stable"
    assert doc["oscillation"]["index"] < doc["oscillation"]["threshold"]
    assert doc["latency_s"] == pytest.approx(3.0)


def test_assess_auto_detects_fault_clearing(capsys, stable_case_csv):
    code, doc = run_json(capsys, ["assess", "--in", stable_case_csv])
    assert code == 0
    assert doc["oscillation"]["class"] == "stable"


def test_assess_with_generator_config(capsys, tmp_path, gen_config):
    traj = synth_scenario(
        "stalled-recovery", osc_params(level=0.7, stall_osc_amp=0.01)
    )
    path = tmp_path / "stalled.csv"
    write_trajectory(traj, path)
    code, doc = run_json(
        capsys,
        ["assess", "--in", str(path), "--t0", "1.1", "--gen-config", gen_config],
    )
    assert code == 0
    assert any(g["class"] == "trip" for g in doc["generators"])


def test_a_flat_reactive_power_is_one_line_and_not_a_trip(capsys, tmp_path):
    # a noise-free stalled record repeats one (V, Q) point, which once
    # fitted a made-up Q-V line and classed G1 a trip with no threshold
    record, config = tmp_path / "s.csv", tmp_path / "g1.ini"
    assert run(["synth", "stalled-recovery", "level=0.95", "--out", str(record)]) == 0
    config.write_text("[G1]\nxd_prime = 0.25\np_active = 0.85\npickup = 1.0@20.0\n")
    capsys.readouterr()
    code = run(
        ["assess", "--in", str(record), "--t0", "1.1", "--gen-config", str(config)]
    )
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        "stvs: [recovery:G1] reactive power has no variance: Q-V fit singular\n"
    )


def test_assess_rejects_nan_file(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("time,V:A\n0.0,1.0\n0.02,nan\n0.04,1.0\n")
    code = run(["assess", "--in", str(path), "--t0", "0.0"])
    assert code == 1
    assert "row 1" in capsys.readouterr().err


def with_nan_time(lines, row):
    """CSV lines with data row ``row``'s time set to NaN."""
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index("time")] = "nan"
    return lines[: row + 1] + [",".join(cells)] + lines[row + 2:]


def test_assess_rejects_a_nan_timestamp(tmp_path, capsys):
    lines = synth_cli_rows(capsys)
    path = tmp_path / "nan_time.csv"
    path.write_text("\n".join(with_nan_time(lines, 90)) + "\n")
    code = run(["assess", "--in", str(path), "--t0", "1.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "time is not a number at row 90" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--t0", "--window", "--lo", "--hi", "--gamma2"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_validation_error(capsys, stable_case_csv, flag, value):
    grid = flag not in ("--t0", "--window")  # only thresholds takes a grid
    command = ["thresholds"] if grid else ["assess", "--in", stable_case_csv]
    code = run([*command, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1
    assert f"argument {flag}: must be a finite number, got {value}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["thresholds", "--gamma2", "inf"], "argument --gamma2: must be a finite number"),
        (["thresholds", "--gamma2", "0"], "argument --gamma2: must be positive"),
        (["thresholds", "--lo", "nan"], "argument --lo: must be a finite number"),
        (["thresholds", "--hi", "x"], "argument --hi: not a number"),
        (["synth", "mixed", "n_channels=abc"], "scenario parameter n_channels: "),
        (["synth", "mixed", "fs=nan"], "scenario parameter fs: must be a finite number"),
        (["synth", "mixed", "post_s=inf"], "scenario parameter post_s: must be a finite"),
        (["synth", "mixed", "decay=x"], "scenario parameter decay: not a number"),
    ],
)
def test_bad_number_is_validation_error_that_names_it(capsys, argv, named):
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert named in captured.err


@pytest.mark.parametrize(
    "entry",
    ["xd_prime = nan", "p_active = inf", "pickup = nan@20", "pickup = 1.8@inf", "lvrt = 0.9@nan"],
)
def test_non_finite_machine_data_is_validation_error(capsys, tmp_path, stable_case_csv, entry):
    key, value = (s.strip() for s in entry.split("="))
    entries = {"xd_prime": "0.3", "p_active": "0.9", "pickup": "1.8@20", key: value}
    path = tmp_path / "gens.ini"
    path.write_text("[G1]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    code = run(["assess", "--in", stable_case_csv, "--t0", "1.1", "--gen-config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("stvs: G1: ")


@pytest.mark.parametrize("key", ["xd_prime", "p_active"])
def test_a_pickup_section_missing_machine_data_is_one_line_exit(
    capsys, tmp_path, stable_case_csv, key
):
    # left out, the key used to read as 0 and could flip G1's verdict
    entries = {"xd_prime": "0.25", "p_active": "0.85", "pickup": "0.9977830363632773@20"}
    del entries[key]
    path = tmp_path / "gens.ini"
    path.write_text("[G1]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    code = run(["assess", "--in", stable_case_csv, "--t0", "1.1", "--gen-config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    (line,) = captured.err.splitlines()
    assert line.startswith(f"stvs: {path} [G1]: ") and key in line


def test_an_lvrt_section_needs_no_machine_data(capsys, tmp_path, stable_case_csv):
    docs = []
    for machine in ("", "xd_prime = 0\np_active = 0\n"):
        path = tmp_path / "lvrt.ini"
        path.write_text(f"[G1]\n{machine}lvrt = 0.9@1.5\n")
        argv = ["assess", "--in", stable_case_csv, "--t0", "1.1", "--gen-config", str(path)]
        docs.append(run_json(capsys, argv))
    assert docs[0] == docs[1] and docs[0][0] == 0
    assert docs[0][1]["generators"][0]["class"] in ("trip", "non-trip")


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["synth", "mixed", "post_s=0.5"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(os.path.abspath(stvs.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "stvs.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == printed and printed.startswith("time,V:G1")


def test_an_infinite_timestamp_prints_one_line_and_no_warning(tmp_path):
    path = tmp_path / "inf_time.csv"
    path.write_text("time,V:A\n0,1\ninf,1\n0.04,1\n0.06,1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(stvs.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "stvs.cli", "assess", "--in", str(path), "--t0", "0"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"stvs: [ingest] {path}: time is not finite at row 1\n"


def test_a_header_without_rows_prints_one_line_and_no_warning(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("time,V:A\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(stvs.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "stvs.cli", "assess", "--in", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"stvs: [ingest] {path}: need at least 2 data rows\n"


def bad_input_files(tmp_path):
    """The files the one-line-exit cases below read, written into ``tmp_path``."""
    write_trajectory(synth_scenario("mixed"), tmp_path / "m.csv")
    rows = (tmp_path / "m.csv").read_bytes().splitlines(keepends=True)
    (tmp_path / "d").mkdir()
    (tmp_path / "ff-header.csv").write_bytes(b"time,V:\xff\n" + b"".join(rows[1:]))
    # far past the first block the reader decodes, so the row parser meets it
    rows[150] = rows[150].replace(b",", b"\xff,", 1)
    (tmp_path / "ff-row.csv").write_bytes(b"".join(rows))
    machine = "xd_prime = 0.3\np_active = 0.9\npickup = 0.95@20\n"
    (tmp_path / "dup.ini").write_text(f"[G1]\n{machine}[G1]\n{machine}")
    (tmp_path / "nohdr.ini").write_text(machine)
    (tmp_path / "interp.ini").write_text("[G1]\nxd_prime = %(x)s\n")
    (tmp_path / "ff.ini").write_bytes(b"[G1]\nxd_prime = 0.3\xff\n")


IS_A_DIRECTORY = "[Errno 21] Is a directory: 'd'"


@pytest.mark.parametrize(
    "argv, stdin, named",
    [
        (["assess", "--in", "d", "--t0", "1.1"], None, "[ingest] d: Is a directory"),
        (["assess", "--in", "missing.csv", "--t0", "1.1"], None,
         "[ingest] missing.csv: No such file or directory"),
        (["assess", "--in", "m.csv", "--t0", "1.1", "--out", "d"], None, IS_A_DIRECTORY),
        (["decompose", "--in", "m.csv", "--t0", "1.1", "--out", "d"], None, IS_A_DIRECTORY),
        (["synth", "mixed", "--out", "d"], None, IS_A_DIRECTORY),
        (["assess", "--in", "ff-header.csv", "--t0", "1.1"], None,
         "[ingest] ff-header.csv: not UTF-8 text (byte 0xff"),
        (["assess", "--in", "ff-row.csv", "--t0", "1.1"], None,
         "[ingest] ff-row.csv: not UTF-8 text (byte 0xff"),
        # stdin is read as UTF-8 in any locale, as a file is
        (["assess", "--stream", "--t0", "1.1"], "ff-header.csv",
         "[ingest] <stdin>: not UTF-8 text (byte 0xff"),
        (["assess", "--in", "m.csv", "--t0", "1.1", "--gen-config", "dup.ini"], None,
         "dup.ini: While reading from 'dup.ini' [line 5]: section 'G1' already exists"),
        (["assess", "--in", "m.csv", "--t0", "1.1", "--gen-config", "nohdr.ini"], None,
         "nohdr.ini: File contains no section headers."),
        (["tune", "--in", "m.csv", "--t0", "1.1", "--gen-config", "interp.ini"], None,
         "interp.ini [G1]: Bad value substitution: option 'xd_prime'"),
        (["assess", "--in", "m.csv", "--t0", "1.1", "--gen-config", "ff.ini"], None,
         "ff.ini: 'utf-8' codec can't decode byte 0xff"),
        (["assess", "--stream", "--in", "m.csv"], None,
         "argument --in: not allowed with argument --stream"),
        (["assess", "--stream", "--out", "s.jsonl"], "m.csv",
         "argument --out: not allowed with argument --stream"),
        (["assess", "--stream", "--t0", "0"], "m.csv",
         "[ingest] cannot estimate the pre-fault voltage"),
        (["assess", "--in", "m.csv", "--t0", "1.1", "--report-interval", "5"], None,
         "argument --report-interval: not allowed without argument --stream"),
    ],
    ids=[
        "in-directory", "missing-in", "assess-out-directory",
        "decompose-out-directory", "synth-out-directory", "not-utf8-header", "not-utf8-row",
        "not-utf8-header-stream",
        "duplicate-section", "no-section-header", "interpolation", "not-utf8-ini",
        "stream-with-in", "stream-with-out", "stream-t0-without-pre-fault-rows",
        "report-interval-without-stream",
    ],
)
def test_a_bad_input_or_output_is_one_line_and_exit_1(tmp_path, argv, stdin, named):
    bad_input_files(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(stvs.__file__)))
    with open(tmp_path / stdin if stdin else os.devnull) as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "stvs.cli", *argv],
            stdin=fh, capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
        )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1  # the one stvs: line
    assert proc.stderr.startswith(f"stvs: {named}")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "s.jsonl").exists()  # --out with --stream writes nothing


def stream_subprocess(stdin_bytes, *flags):
    """Exit code, stdout and stderr of ``stvs assess --stream`` in its own
    process, so that stdin is the console's byte stream."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stvs.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "stvs.cli", "assess", "--stream", *flags],
        input=stdin_bytes, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_a_bad_byte_in_the_stream_loses_no_earlier_row(tmp_path):
    write_trajectory(synth_scenario("mixed"), tmp_path / "m.csv")
    rows = (tmp_path / "m.csv").read_bytes().splitlines(keepends=True)
    flags = ["--t0", "1.1", "--report-interval", "0.1"]
    code, before, err = stream_subprocess(b"".join(rows[:100]), *flags)  # rows 0-98
    assert (code, err, len(before.splitlines())) == (0, "", 4)
    rows[100] = b"\xff" + rows[100]  # data row 99
    code, out, err = stream_subprocess(b"".join(rows), *flags)
    # the 8 KB block that held the byte was lost: 2 reports
    assert (code, out) == (1, before)
    assert err == (
        "stvs: [ingest] <stdin>: not UTF-8 text (byte 0xff: invalid start byte), "
        "so the stream stops\n"
    )


def repro_files(tmp_path):
    """The files the one-line-exit repros below read, written into ``tmp_path``."""
    write_trajectory(synth_scenario("mixed"), tmp_path / "m.csv")
    (tmp_path / "gens.ini").write_text(
        "[G1]\nxd_prime = 0.3\np_active = 0.9\npickup = 0.95@20\n"
    )
    buf = io.StringIO()
    write_trajectory(synth_scenario("mixed", ScenarioParams(n_channels=1)), buf)
    header, *rows = buf.getvalue().splitlines()
    assert header == "time,V:G1,Q:G1"
    for name, header, pick in (
        ("dup.csv", "time,V:G1,V:G1,Q:G1", (0, 1, 1, 2)),
        ("no-id.csv", "time,V:,Q:G1", (0, 1, 2)),
        ("two-times.csv", "time,V:G1,time", (0, 1, 0)),
    ):
        cells = [row.split(",") for row in rows]
        body = [",".join(c[j] for j in pick) for c in cells]
        (tmp_path / name).write_text("\n".join([header, *body]) + "\n")


OUTSIDE = "[ingest] m.csv: fault clear time 1e+308 s outside the record [0.0, 4.1] s"
REPEATED = "repeated column 'V:G1' in the header"
TOO_MANY = "fs x (prefault_s + fault_s + post_s) is"
QV_BROKEN = "give a Q = (V - k2)/k1 that is not finite"


@pytest.mark.parametrize(
    "argv, stdin, named",
    [
        (["assess", "--in", "m.csv", "--t0", "1e308"], None, OUTSIDE),
        (["decompose", "--in", "m.csv", "--t0", "1e308"], None, OUTSIDE),
        (["exponents", "--in", "m.csv", "--t0", "1e308"], None, OUTSIDE),
        (["tune", "--in", "m.csv", "--t0", "1e308", "--gen-config", "gens.ini"], None,
         OUTSIDE),
        (["synth", "mixed", "seed=-1"], None, "seed must not be negative, got -1"),
        (["synth", "mixed", "prefault_s=-1"], None,
         "prefault_s must not be negative, got -1.0"),
        (["synth", "mixed", "fault_s=-1"], None, "fault_s must not be negative, got -1.0"),
        (["synth", "mixed", "fs=1e308"], None, f"{TOO_MANY} inf samples"),
        (["synth", "mixed", "fs=1e300"], None, f"{TOO_MANY} 4.1e+300 samples"),
        (["synth", "mixed", "k1=0"], None, f"k1 = 0.0 and k2 = 0.9 {QV_BROKEN}"),
        (["synth", "mixed", "k1=1e-320"], None, f"k1 = 1e-320 and k2 = 0.9 {QV_BROKEN}"),
        (["synth", "mixed", "k2=1e308"], None, f"k1 = 0.5 and k2 = 1e+308 {QV_BROKEN}"),
        (["synth", "mixed", "noise_sigma=-0.1"], None,
         "noise_sigma must not be negative, got -0.1"),
        (["synth", "growing-osc", "growth=1e3"], None, "the growing-osc voltage is not finite"),
        (["assess", "--in", "dup.csv", "--t0", "1.1"], None,
         f"[ingest] dup.csv: {REPEATED}"),
        (["assess", "--stream", "--t0", "1.1"], "dup.csv", f"[ingest] <stdin>: {REPEATED}"),
        (["assess", "--stream"], "dup.csv", f"[ingest] <stdin>: {REPEATED}"),
        (["assess", "--in", "no-id.csv", "--t0", "1.1"], None,
         "[ingest] no-id.csv: column 'V:' has no channel id"),
        (["assess", "--stream", "--t0", "1.1"], "no-id.csv",
         "[ingest] <stdin>: column 'V:' has no channel id"),
        (["assess", "--in", "two-times.csv", "--t0", "1.1"], None,
         "[ingest] two-times.csv: repeated column 'time' in the header"),
        (["assess", "--stream", "--t0", "1.1"], "two-times.csv",
         "[ingest] <stdin>: repeated column 'time' in the header"),
    ],
    ids=[
        "assess-t0-overflow", "decompose-t0-overflow", "exponents-t0-overflow",
        "tune-t0-overflow", "synth-seed-param", "synth-prefault",
        "synth-fault", "synth-fs-overflow", "synth-fs-too-many-samples",
        "synth-k1-zero", "synth-k1-subnormal", "synth-k2-huge", "synth-negative-noise",
        "synth-growth-overflow",
        "duplicate-column", "duplicate-column-stream", "duplicate-column-stream-no-t0",
        "empty-id", "empty-id-stream", "second-time", "second-time-stream",
    ],
)
@pytest.mark.filterwarnings("error")  # a NumPy warning is not the one line
def test_a_bad_t0_synth_parameter_or_header_is_one_line_and_exit_1(
    monkeypatch, capsys, tmp_path, argv, stdin, named
):
    repro_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    text = (tmp_path / stdin).read_text() if stdin else ""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.count("\n") == 1  # the one stvs: line
    assert captured.err.startswith(f"stvs: {named}")
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--t0", "9.5"], "fault clear time 9.5 s outside the record"),
        ([], "no fault signature found"),
    ],
    ids=["t0", "detection"],
)
def test_placing_the_fault_clear_time_is_an_ingest_error(capsys, tmp_path, argv, named):
    path = tmp_path / "flat.csv"
    path.write_text("time,V:A\n0,1\n0.02,1\n0.04,1\n0.06,1\n")
    code = run(["assess", "--in", str(path), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"stvs: [ingest] {path}: {named}")
    assert captured.err.count("\n") == 1


def test_unknown_flag_is_validation_error(capsys):
    assert run(["assess", "--frobnicate"]) == 1


def test_missing_input_is_validation_error(capsys):
    assert run(["assess"]) == 1


# -- decompose / exponents -----------------------------------------------------------

def test_decompose_emits_imf_columns(capsys, stable_case_csv):
    code = run(["decompose", "--in", stable_case_csv, "--t0", "1.1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "V:G1" in header
    assert any(c.startswith("IMF1:") for c in header)
    assert "R:G1" in header
    assert len(lines) == 1 + 150


def test_decompose_out_file_equals_stdout(capsys, tmp_path, stable_case_csv):
    argv = ["decompose", "--in", stable_case_csv, "--t0", "1.1"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "dec.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_decompose_windows_a_short_record_like_assess(capsys, tmp_path):
    # 2.1 s after --t0: shorter than the default 3 s window
    traj = synth_scenario("stable-osc", ScenarioParams(post_s=2.0))
    path = tmp_path / "short.csv"
    write_trajectory(traj, path)
    code, doc = run_json(capsys, ["assess", "--in", str(path), "--t0", "1.0"])
    assert code == 0
    code = run(["decompose", "--in", str(path), "--t0", "1.0"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = captured.out.strip().splitlines()
    assert len(lines) - 1 == round(doc["latency_s"] / traj.dt)
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert rows[0, 0] == pytest.approx(1.0)
    # IMFs before the band filter: V is their sum plus R
    for cid in traj.channel_ids:
        parts = [j for j, c in enumerate(header) if c.endswith(f":{cid}")]
        v, rest = parts[0], parts[1:]
        assert header[v] == f"V:{cid}" and header[rest[-1]] == f"R:{cid}"
        assert np.allclose(rows[:, rest].sum(axis=1), rows[:, v], atol=1e-12)


def test_exponents_emits_series(capsys, stable_case_csv):
    code = run(["exponents", "--in", stable_case_csv, "--t0", "1.1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "target,k,t,lambda,divergence_factor"
    targets = {ln.split(",")[0] for ln in lines[1:]}
    assert "imf" in targets
    for ln in lines[1:]:
        _, k, t, lam, factor = ln.split(",")
        int(k)
        for cell in (t, lam, factor):
            float(cell)  # plain float literals, not numpy reprs


def test_exponents_print_the_series_assess_scored(capsys, tmp_path):
    # below-nominal record: the pre-fault voltage has to be estimated
    path = written_case(
        tmp_path, "mixed", recovery=0.5, dip=0.3, decay=0.4, nominal=0.95
    )
    code = run(["exponents", "--in", path, "--t0", "1.1"])
    assert code == 0
    rows: dict[str, list[list[str]]] = {}
    for ln in capsys.readouterr().out.strip().splitlines()[1:]:
        target, *cells = ln.split(",")
        rows.setdefault(target, []).append(cells)

    result = library_assess(path)
    assert {t for t in rows if t.startswith("R:")} == {
        f"R:{g.id}" for g in result.per_generator
    }
    for g in result.per_generator:
        series = g.series
        assert rows[f"R:{g.id}"] == [
            [str(k), repr(float(k * series.dt)), repr(float(lam)), repr(float(f))]
            for k, lam, f in zip(
                series.k_offsets, series.lambdas, series.divergence_factors
            )
        ]

    code, doc = run_json(capsys, ["assess", "--in", path, "--t0", "1.1"])
    assert code == 0
    factors = [float(r[3]) for r in rows["imf"]]
    assert kl_index_oracle(factors, (20, 0.0, 1.5), 10.0, 1.0) == doc["oscillation"]["index"]


@pytest.mark.parametrize(
    "kind, overrides",
    [
        ("mixed", dict(recovery=0.5, dip=0.3, decay=0.4)),
        ("stalled-recovery", dict(level=0.7, stall_osc_amp=0.01)),
    ],
    ids=["mixed", "stalled"],
)
def test_tune_prints_the_tuning_assess_ran(capsys, tmp_path, gen_config, kind, overrides):
    path = written_case(tmp_path, kind, **overrides)
    argv = ["--in", path, "--t0", "1.1", "--gen-config", gen_config]
    code, tuned = run_json(capsys, ["tune", *argv])
    assert code == 0
    code, assessed = run_json(capsys, ["assess", *argv])
    assert code == 0
    result = library_assess(path, gen_config)
    assert [e["id"] for e in tuned["generators"]] == [
        g["id"] for g in assessed["generators"]
    ]
    n_tuned = 0
    for entry, doc, g in zip(
        tuned["generators"], assessed["generators"], result.per_generator
    ):
        if g.tuning is None:  # a trivial path, as the stalled G3 takes
            assert doc["threshold"] is None
            assert entry["trivial"] == doc["class"]
            continue
        n_tuned += 1
        assert entry["d_critical_r"] == doc["threshold"]
        assert (entry["gamma1"], entry["x_star"]) == (g.tuning.gamma1, g.tuning.x_star)
    assert n_tuned >= 2


def test_tune_has_no_oscillation_grid_flags(capsys, tmp_path, gen_config):
    path = written_case(tmp_path, "mixed", recovery=0.5, dip=0.3, decay=0.4)
    argv = ["tune", "--in", path, "--t0", "1.1", "--gen-config", gen_config]
    assert run([*argv, "--bins", "3"]) == 1
    assert "--bins" in capsys.readouterr().err


def test_tune_emits_threshold_document(capsys, tmp_path, gen_config):
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    path = tmp_path / "mixed.csv"
    write_trajectory(traj, path)
    code, doc = run_json(
        capsys,
        ["tune", "--in", str(path), "--t0", "1.1", "--gen-config", gen_config],
    )
    assert code == 0
    for entry in doc["generators"]:
        assert entry["d_critical_r"] == pytest.approx(
            0.5 * (entry["d_s1"] + entry["d_s2"])
        )
        assert entry["k1"] == pytest.approx(QV_K1, rel=1e-6)
        assert entry["k2"] == pytest.approx(QV_K2, rel=1e-6)


@pytest.mark.parametrize(
    "lvrt, verdict", [("1.5@1.5", "trip"), ("0.1@1.5", "non-trip")]
)
def test_tune_reports_trivial_generator_like_assess(capsys, tmp_path, lvrt, verdict):
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    path = tmp_path / "mixed.csv"
    write_trajectory(traj, path)
    config = tmp_path / "lvrt.ini"
    config.write_text(f"[G1]\nxd_prime = 0\np_active = 0\nlvrt = {lvrt}\n")
    argv = ["--in", str(path), "--t0", "1.1", "--gen-config", str(config)]
    code, assessed = run_json(capsys, ["assess", *argv])
    assert code == 0
    g1 = next(g for g in assessed["generators"] if g["id"] == "G1")
    assert g1["class"] == verdict
    code, doc = run_json(capsys, ["tune", *argv])
    assert code == 0
    (entry,) = doc["generators"]
    assert entry["id"] == "G1"
    assert entry["trivial"] == verdict
    assert entry["vcaps"] == [[float(v) for v in lvrt.split("@")]]
    assert {"k1", "k2"} <= entry.keys()
    assert "d_critical_r" not in entry


def test_tune_reports_undipped_generator_like_assess(capsys, tmp_path):
    # the voltage is back at 1.0 pu from the clearing instant on: no dip
    rows = ["time,V:G1,Q:G1"]
    for i in range(210):
        t = 0.02 * i
        v = 0.5 if 1.0 <= t < 1.1 else 1.0
        rows.append(f"{t!r},{v!r},{0.2 + 0.01 * i / 210!r}")
    path = tmp_path / "flat.csv"
    path.write_text("\n".join(rows) + "\n")
    config = tmp_path / "lvrt.ini"
    config.write_text("[G1]\nxd_prime = 0\np_active = 0\nlvrt = 0.9@1.5\n")
    argv = ["--in", str(path), "--t0", "1.1", "--gen-config", str(config)]
    code, assessed = run_json(capsys, ["assess", *argv])
    assert code == 0
    assert assessed["generators"][0]["class"] == "non-trip"
    code, doc = run_json(capsys, ["tune", *argv])
    assert code == 0
    assert doc["generators"] == [{"id": "G1", "trivial": "non-trip"}]


# -- synth ------------------------------------------------------------------------------

def test_synth_writes_loadable_scenario(tmp_path, capsys):
    out = tmp_path / "case.csv"
    code = run(
        [
            "synth", "stable-osc",
            "decay=0.4", "freq_hz=4.8", "ambient_amp=0.005", "tr_amp=0.01", "seed=1",
            "--out", str(out),
        ]
    )
    assert code == 0
    code2, doc = run_json(capsys, ["assess", "--in", str(out), "--t0", "1.1"])
    assert code2 == 0
    assert doc["oscillation"]["class"] == "stable"


def test_synth_stdout_equals_the_out_file(tmp_path, capsys):
    argv = ["synth", "mixed", "n_channels=2", "noise_sigma=0.001", "seed=3"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "case.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed == out.read_text(encoding="utf-8")
    assert printed.splitlines()[0] == "time,V:G1,V:G2,Q:G1,Q:G2"


def test_synth_rejects_unknown_parameter(capsys):
    assert run(["synth", "stable-osc", "bogus=1"]) == 1


@pytest.mark.parametrize(
    "tail",
    [
        ["decay=0.4", "n_channels=2", "--out", "{out}"],
        ["--out", "{out}", "decay=0.4", "n_channels=2"],
        ["decay=0.4", "--out", "{out}", "n_channels=2"],
    ],
    ids=["before-option", "after-option", "around-option"],
)
def test_synth_overrides_may_come_before_or_after_an_option(tmp_path, tail):
    out = tmp_path / "case.csv"
    argv = ["synth", "mixed", *(str(out) if t == "{out}" else t for t in tail)]
    assert run_in_process(argv) == (0, "", "", [])
    want = io.StringIO()
    write_trajectory(synth_scenario("mixed", ScenarioParams(decay=0.4, n_channels=2)), want)
    assert out.read_text(encoding="utf-8") == want.getvalue()


@pytest.mark.parametrize(
    "tail, message",
    [
        (["--out", "{out}", "decay=0.4", "bogus"], "unrecognized arguments: bogus"),
        (["bogus", "--out", "{out}"], "scenario parameter must be key=value: 'bogus'"),
        (["--out", "{out}", "--bogus=1"], "unrecognized arguments: --bogus=1"),
        (["--out", "{out}", "bogus=1"], "unknown scenario parameter 'bogus'"),
    ],
    ids=["stray-after-option", "stray-before-option", "unknown-option", "unknown-override"],
)
def test_synth_rejects_a_stray_token_anywhere_with_one_line(tmp_path, tail, message):
    out = tmp_path / "case.csv"
    argv = ["synth", "mixed", *(str(out) if t == "{out}" else t for t in tail)]
    assert run_in_process(argv) == (1, "", f"stvs: {message}\n", [])
    assert not out.exists()


# -- streaming -----------------------------------------------------------------------

def stream_rows(traj):
    cols = ["time"] + [f"V:{ch.id}" for ch in traj.channels]
    cols += [f"Q:{ch.id}" for ch in traj.channels]
    lines = [",".join(cols)]
    t = traj.times()
    for i in range(traj.n_samples):
        row = [repr(float(t[i]))]
        row += [repr(float(ch.voltage[i])) for ch in traj.channels]
        row += [repr(float(ch.reactive_power[i])) for ch in traj.channels]
        lines.append(",".join(row))
    return lines


def run_stream(monkeypatch, capsys, lines, argv_extra=()):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = run(
        ["assess", "--stream", "--t0", "1.1", "--report-interval", "0.1", *argv_extra]
    )
    captured = capsys.readouterr()
    docs = [json.loads(ln) for ln in captured.out.strip().splitlines() if ln]
    return code, docs, captured.err


def test_stream_emits_periodic_reports(monkeypatch, capsys):
    traj = synth_scenario("stable-osc", osc_params(decay=0.4))
    code, docs, _ = run_stream(monkeypatch, capsys, stream_rows(traj))
    assert code == 0
    assert len(docs) >= 25
    assert docs[0]["latency_s"] <= 0.6
    assert all(d["oscillation"]["class"] == "stable" for d in docs if d["latency_s"] >= 0.6)


def test_stream_out_of_order_row_continues(monkeypatch, capsys):
    traj = synth_scenario("stable-osc", osc_params(decay=0.4))
    lines = stream_rows(traj)
    lines.insert(40, lines[20])  # duplicate earlier timestamp
    code, docs, err = run_stream(monkeypatch, capsys, lines)
    assert code == 0
    assert "out-of-order" in err
    assert len(docs) >= 25


@pytest.mark.parametrize("interval", ["0", "-1"])
def test_stream_rejects_nonpositive_report_interval(monkeypatch, capsys, interval):
    traj = synth_scenario("stable-osc", osc_params(decay=0.4))
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(stream_rows(traj)) + "\n"))
    code = run(["assess", "--stream", "--t0", "1.1", "--report-interval", interval])
    captured = capsys.readouterr()
    assert code == 1
    assert "--report-interval" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid", [["--bins", "2"], ["--bins", "1"], ["--lo", "1.2"], ["--hi", "0.9"]]
)
def test_a_bad_oscillation_grid_stops_batch_and_stream_before_any_row(
    monkeypatch, capsys, tmp_path, grid
):
    # assess scores on the paper's grid and takes none
    traj = synth_scenario("mixed", osc_params())
    path = tmp_path / "m.csv"
    write_trajectory(traj, path)
    code = run(["assess", "--in", str(path), "--t0", "1.1", *grid])
    batch = capsys.readouterr()
    assert (code, batch.out) == (1, "")
    assert batch.err == f"stvs: unrecognized arguments: {' '.join(grid)}\n"
    lines = stream_rows(traj)
    for rows in (lines[:1], lines):  # the header only, and every row
        assert run_stream(monkeypatch, capsys, rows, grid) == (1, [], batch.err)
        assert sys.stdin.tell() == 0  # not even the header was read


def test_stream_empty_input_is_success(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run(["assess", "--stream", "--t0", "1.1"]) == 0
    assert capsys.readouterr().out == ""


def test_batch_equals_final_stream(monkeypatch, capsys, tmp_path):
    traj = synth_scenario("stable-osc", osc_params(decay=0.4))
    path = tmp_path / "case.csv"
    write_trajectory(traj, path)
    code, batch = run_json(capsys, ["assess", "--in", str(path), "--t0", "1.1"])
    assert code == 0
    code2, docs, _ = run_stream(monkeypatch, capsys, stream_rows(traj))
    assert code2 == 0
    final = docs[-1]
    final.pop("latency_s")
    batch.pop("latency_s")
    assert final == batch


def test_stream_drops_a_row_with_missing_columns(monkeypatch, capsys):
    traj = synth_scenario("mixed", osc_params())
    lines = stream_rows(traj)
    code, clean, _ = run_stream(monkeypatch, capsys, lines)
    assert code == 0
    middle = len(lines) // 2
    short = lines[middle].rsplit(",", 1)[0]  # the next sample, last column lost
    lines.insert(middle, short)
    code, docs, err = run_stream(monkeypatch, capsys, lines)
    assert code == 0
    assert docs == clean  # every report after the bad row is still written
    assert clean[-1]["latency_s"] > traj.dt * (middle - traj.fault_clear_index)
    assert err.count("dropping row with 6 columns (header has 7)") == 1
    assert "dropped 1 row(s) with the wrong number of columns" in err
    assert "Traceback" not in err


def synth_cli_rows(capsys, kind="mixed", seed=1):
    """Rows as `stvs synth KIND seed=SEED` prints them."""
    assert run(["synth", kind, f"seed={seed}"]) == 0
    return capsys.readouterr().out.strip().splitlines()


def test_stream_with_t0_waits_for_t0(monkeypatch, capsys, tmp_path):
    lines = synth_cli_rows(capsys)
    code, docs, err = run_stream(monkeypatch, capsys, lines)
    assert code == 0
    assert err == ""  # was one "outside the record" line per row before t0
    assert 0.5 <= docs[0]["latency_s"] < 0.52
    path = tmp_path / "case.csv"
    path.write_text("\n".join(lines) + "\n")
    _, batch = run_json(capsys, ["assess", "--in", str(path), "--t0", "1.1"])
    final = docs[-1]
    assert final.pop("latency_s") == pytest.approx(batch.pop("latency_s"), abs=0.02)
    assert final == batch


def test_stream_stops_once_on_a_nan_in_the_history(monkeypatch, capsys):
    lines = synth_cli_rows(capsys)
    _, clean, _ = run_stream(monkeypatch, capsys, lines)
    names = lines[0].split(",")
    row = lines[120].split(",")  # the 120th data row
    row[names.index("V:G1")] = "nan"
    lines[120] = ",".join(row)
    code, docs, err = run_stream(monkeypatch, capsys, lines)
    assert code == 1
    assert err.count("\n") == 1
    assert "NaN voltage in 'V:G1' at row 119" in err
    assert "stream stops" in err
    assert docs and docs == clean[: len(docs)]  # earlier reports stay
    assert docs[-1]["latency_s"] < float(row[0]) - 1.1


def test_stream_stops_once_on_a_nan_timestamp(monkeypatch, capsys):
    lines = synth_cli_rows(capsys)
    _, clean, _ = run_stream(monkeypatch, capsys, lines)
    code, docs, err = run_stream(monkeypatch, capsys, with_nan_time(lines, 90))
    assert code == 1
    assert err.count("\n") == 1
    assert "time is not a number at row 90" in err
    assert "stream stops" in err
    assert docs and docs == clean[: len(docs)]  # no report has a NaN latency


def test_stream_stops_once_on_a_gap_in_the_history(monkeypatch, capsys):
    lines = synth_cli_rows(capsys)
    _, clean, _ = run_stream(monkeypatch, capsys, lines)
    lines[150] = lines[150].rsplit(",", 1)[0]  # the 150th data row loses a column
    code, docs, err = run_stream(monkeypatch, capsys, lines)
    assert code == 1
    assert err.count("non-uniform sampling at row 149") == 1
    assert err.count("dropping row with 6 columns (header has 7)") == 1
    assert "dropped 1 row(s) with the wrong number of columns" in err
    assert len(err.strip().splitlines()) == 3
    assert docs and docs == clean[: len(docs)]


def test_stream_into_a_closed_pipe_exits_quietly(tmp_path):
    # enough reports to fill the pipe after the reader has gone
    traj = synth_scenario("mixed", osc_params(post_s=12.0))
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(stream_rows(traj)) + "\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(stvs.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", "from stvs.cli import main; main()",
            "assess", "--stream", "--t0", "1.1", "--report-interval", "0.1"]
    pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # leaving the block closes both pipes
    with open(path) as stdin, subprocess.Popen(argv, stdin=stdin, **pipes) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert json.loads(first)["latency_s"] >= 0.5
    assert code == 0
    assert "Traceback" not in err and "BrokenPipe" not in err


def run_stream_without_t0(monkeypatch, capsys, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = run(["assess", "--stream", "--report-interval", "0.1"])
    captured = capsys.readouterr()
    docs = [json.loads(ln) for ln in captured.out.strip().splitlines() if ln]
    return code, docs, captured.err


@pytest.mark.parametrize(
    "kind, override, reports",
    [("stable-osc", "freq_hz=4.8", True), ("stalled-recovery", "level=0.85", False)],
)
def test_stream_without_t0_says_once_that_no_fault_signature_was_found(
    monkeypatch, capsys, kind, override, reports
):
    assert run(["synth", kind, override]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    code, docs, err = run_stream_without_t0(monkeypatch, capsys, lines)
    assert code == 0
    assert bool(docs) is reports
    assert err.count("no fault signature found") == 1  # was one line per row
    ended = "the stream ended without a fault signature, so no report was written"
    assert (ended in err) is not reports
    assert len(err.strip().splitlines()) == 1 + (not reports)


# -- numeric flag values ------------------------------------------------------------

@pytest.fixture(scope="module")
def short_record(tmp_path_factory):
    """A short one-channel mixed record, and machine data for its channel."""
    folder = tmp_path_factory.mktemp("short")
    params = ScenarioParams(n_channels=1, post_s=1.5)
    write_trajectory(synth_scenario("mixed", params), folder / "m.csv")
    (folder / "gens.ini").write_text(
        "[G1]\nxd_prime = 0.3\np_active = 0.9\npickup = 0.95@20\n"
    )
    return folder


def run_in_process(argv, stdin=""):
    """Exit code, stdout, stderr and the warnings raised of one ``run``."""
    out, err = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        mock.patch("sys.stdin", io.StringIO(stdin)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        code = run(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def command_argv(command, folder):
    """The argv of ``command`` on the short record, without numeric flags."""
    record = ["--in", str(folder / "m.csv")]
    return {
        "assess": ["assess", *record],
        "stream": ["assess", "--stream"],
        "decompose": ["decompose", *record],
        "exponents": ["exponents", *record],
        "tune": ["tune", *record, "--gen-config", str(folder / "gens.ini")],
        "thresholds": ["thresholds"],
    }[command]


def spaced_and_joined(argv, flags):
    """``argv`` with every (flag, value) as two tokens, and as one ``flag=value``."""
    spaced = argv + [token for pair in flags for token in pair]
    return spaced, argv + [f"{flag}={value}" for flag, value in flags]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("assess", [("--t0", "-1e308")]),
        ("assess", [("--t0", "-inf")]),
        ("decompose", [("--t0", "1.1"), ("--window", "-2.5e-1")]),
        ("exponents", [("--t0", "-.5e1")]),
        ("tune", [("--t0", "1.1"), ("--window", "-1e0")]),
        ("thresholds", [("--lo", "-1e-300")]),
        ("stream", [("--t0", "1.1"), ("--report-interval", "-1e-3")]),
        ("stream", [("--t0", "-1e1")]),
    ],
    ids=[
        "assess-t0", "assess-t0-inf", "decompose-window", "exponents-t0", "tune-window",
        "thresholds-lo", "stream-report-interval", "stream-t0",
    ],
)
def test_a_negative_number_with_an_exponent_is_a_value_as_after_equals(
    short_record, command, flags
):
    stdin = (short_record / "m.csv").read_text() if command == "stream" else ""
    spaced, joined = spaced_and_joined(command_argv(command, short_record), flags)
    got = run_in_process(spaced, stdin)
    assert got == run_in_process(joined, stdin)
    assert "expected one argument" not in got[2]


@pytest.mark.parametrize(
    "command, flags, want",
    [
        ("decompose", ["--t0", "1.1", "--window", "0"], None),
        # assess scores its one grid through the same [oscillation] stage
        ("thresholds", ["--bins", "2"], "need at least 3 bins for the threshold"),
        ("thresholds", ["--bins", "3", "--lo", "0.9", "--hi", "1.1"],
         "grid leaves no room below the unit factor"),
        ("thresholds", ["--lo", "-1e308", "--hi", "1e308"],
         "grid range [-1e+308, 1e+308] is wider than a float can hold"),
    ],
    ids=["decompose-window", "thresholds-bins", "thresholds-grid", "thresholds-width"],
)
def test_decompose_and_thresholds_print_the_staged_line_of_assess(
    short_record, command, flags, want
):
    got = run_in_process(command_argv(command, short_record) + flags)
    if want is None:
        assert got == run_in_process(command_argv("assess", short_record) + flags)
    else:
        assert got[2] == f"stvs: [oscillation] {want}\n"
    code, out, err, caught = got
    assert (code, out, caught) == (1, "", [])
    assert re.fullmatch(r"stvs: \[(ingest|oscillation)\] [^\n]*\n", err)


@pytest.mark.parametrize("flag", [["--bins", "20"], ["--gamma2", "10"], ["--eq0", "1"]])
@pytest.mark.parametrize("command", ["assess", "stream", "decompose", "exponents", "tune"])
def test_only_thresholds_takes_a_grid_and_no_command_an_equilibrium(
    short_record, command, flag
):
    stdin = (short_record / "m.csv").read_text() if command == "stream" else ""
    argv = command_argv(command, short_record) + ["--t0", "1.1", *flag]
    assert run_in_process(argv, stdin) == (
        1, "", f"stvs: unrecognized arguments: {' '.join(flag)}\n", []
    )


NUMERIC_FLAGS = {
    "assess": ("--t0", "--window"),
    "decompose": ("--t0", "--window"),
    "exponents": ("--t0", "--window"),
    "tune": ("--t0", "--window"),
    "thresholds": ("--lo", "--hi", "--gamma2", "--bins"),
}

# Counts far past the bin cap: 8 PB of edges, more than an index can
# address, and far more than a float can hold.
REFUSED_BIN_COUNTS = (10**15, 10**20, 10**400)


def bin_count_literals():
    """Integer literals for --bins: small counts, and counts past the bin
    cap; never one that would really allocate gigabytes."""
    return st.one_of(
        st.integers(min_value=-3, max_value=10**4),
        st.sampled_from(REFUSED_BIN_COUNTS),
    ).map(str)


def numeric_literals():
    """Float literals as a user types them: signed, with and without an
    exponent, and the values at the edges of the float range."""
    mantissa = st.one_of(
        st.integers(min_value=0, max_value=10**6).map(str),
        st.floats(min_value=0, max_value=1e6).map("{:.3f}".format),
        st.sampled_from([".5", "5.", "0.0"]),
    )
    exponent = st.builds(
        "{}{}".format,
        st.sampled_from(["e", "E", "e+", "e-"]),
        st.integers(min_value=0, max_value=400),
    )
    signed = st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "-", "+"]),
        mantissa,
        st.one_of(st.just(""), exponent),
    )
    edges = st.sampled_from(
        ["0", "-0", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e309", "-1e309",
         "1e-300", "-1e-300"]
    )
    return st.one_of(edges, signed)


@given(command=st.sampled_from(sorted(NUMERIC_FLAGS)), data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_numeric_flag_value_ends_in_a_result_or_one_named_line(
    short_record, command, data
):
    names = data.draw(
        st.lists(st.sampled_from(NUMERIC_FLAGS[command]), min_size=1, max_size=2, unique=True)
    )
    literals = {"--bins": bin_count_literals}
    flags = [
        (name, data.draw(literals.get(name, numeric_literals)(), label=name))
        for name in names
    ]
    spaced, joined = spaced_and_joined(command_argv(command, short_record), flags)
    code, out, err, caught = run_in_process(spaced)
    assert (code, out, err, caught) == run_in_process(joined)
    assert code in (0, 1, 2)
    assert caught == []
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert out == ""
        assert re.fullmatch(r"stvs: (argument --|\[)[^\n]*\n", err)


@pytest.mark.parametrize("count", REFUSED_BIN_COUNTS, ids=["1e15", "1e20", "1e400"])
@pytest.mark.parametrize("command", ["thresholds"])  # the one command with --bins
def test_a_bin_count_no_array_can_hold_is_one_oscillation_line(short_record, command, count):
    argv = command_argv(command, short_record) + ["--bins", str(count)]
    assert run_in_process(argv) == (
        1, "", f"stvs: [oscillation] {count} bins: not a count an array can hold\n", []
    )


# distribution.MAX_BINS, the most bins a grid may have
BIN_CAP = 10**6


def test_a_grid_past_the_bin_cap_is_refused_before_any_array_is_asked_for(
    monkeypatch, short_record
):
    asked = []
    linspace = np.linspace

    def guarded(start, stop, num=50, **kwargs):  # refuses what the kernel would kill
        if num > BIN_CAP + 1:
            asked.append(num)
            raise MemoryError(f"{num} edges")
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
    count = 4 * 10**8
    line = f"{count} bins: not a count an array can hold"
    for score in (
        lambda: indices.imf_threshold(count, 0.0, 1.5, 10.0),
        lambda: distribution.kl_index(np.ones(3), (count, 0.0, 1.5), [10.0], [1.0]),
    ):
        with pytest.raises(ValidationError) as err:
            score()
        assert (str(err.value), asked) == (line, [])
    argv = command_argv("thresholds", short_record) + ["--bins", str(count)]
    assert run_in_process(argv) == (1, "", f"stvs: [oscillation] {line}\n", [])
    assert asked == []
    assert distribution.MAX_BINS == BIN_CAP


@pytest.mark.parametrize(
    "entry, threshold",
    [("pickup = 0.95@1e308", 0.6482235041099434), ("lvrt = 0.95@1e308", 0.5499428211515647),
     ("pickup = 0.95@1e15", 0.6482235041099434)],
    ids=["pickup-1e308", "lvrt-1e308", "pickup-1e15"],
)
@pytest.mark.parametrize("command", ["assess", "tune"])
def test_a_pickup_time_however_late_gets_a_verdict(tmp_path, command, entry, threshold):
    # the critical signals span the window alone, so no pickup time is too
    # late to assess; a recovering member settles long before such a time
    record, gens = tmp_path / "m.csv", tmp_path / "gens.ini"
    write_trajectory(synth_scenario("mixed"), record)
    gens.write_text(f"[G1]\nxd_prime = 0.3\np_active = 0.9\n{entry}\n")
    argv = [command, "--in", str(record), "--t0", "1.1", "--gen-config", str(gens)]
    code, out, err, caught = run_in_process(argv)
    assert (code, err, caught) == (0, "", [])
    (g1,) = [g for g in json.loads(out)["generators"] if g["id"] == "G1"]
    if command == "assess":
        assert g1["class"] == "non-trip"
        assert g1["threshold"] == pytest.approx(threshold, rel=1e-9)
    else:
        assert g1["d_critical_r"] == pytest.approx(threshold, rel=1e-9)


def test_a_one_channel_record_assesses(tmp_path):
    # a single channel takes the sifting loop of several
    path = tmp_path / "one.csv"
    write_trajectory(synth_scenario("mixed", ScenarioParams(n_channels=1)), path)
    code, out, err, caught = run_in_process(["assess", "--in", str(path), "--t0", "1.1"])
    assert (code, err, caught) == (0, "", [])
    assert [g["id"] for g in json.loads(out)["generators"]] == ["G1"]


def test_a_critical_signal_that_overflows_is_one_recovery_line_and_exit_2(tmp_path):
    # the record and machine data of the library case in test_oel.py, through the CLI
    params = ScenarioParams(n_channels=1, fs=25.0, noise_sigma=0.003, seed=7)
    write_trajectory(synth_scenario("stable-osc", params), tmp_path / "ovf.csv")
    (tmp_path / "ovf.ini").write_text(
        "[G1]\nxd_prime = 0.25\np_active = 0.85\npickup = 0.9977830363632773@20.0\n"
    )
    code, out, err, caught = run_in_process([
        "assess", "--in", str(tmp_path / "ovf.csv"), "--t0", "1.08", "--window", "0.6",
        "--gen-config", str(tmp_path / "ovf.ini"),
    ])
    assert (code, out, caught) == (2, "", [])
    assert re.fullmatch(
        r"stvs: \[recovery:G1\] recovery exponent [\d.]+/s extrapolates the residual "
        r"past float range within the 21 s horizon\n",
        err,
    )


@pytest.mark.parametrize(
    "param, samples",
    [("fs=1e15", "4.1e+15"), ("post_s=1e15", "5e+16")],
    ids=["fs", "post_s"],
)
def test_a_synth_sample_count_numpy_refuses_is_one_line(param, samples):
    assert run_in_process(["synth", "mixed", param]) == (
        1,
        "",
        f"stvs: fs x (prefault_s + fault_s + post_s) is {samples} samples, not a "
        f"count an array can hold\n",
        [],
    )


def test_a_synth_seed_is_one_key_value_setting(capsys):
    want = io.StringIO()
    write_trajectory(synth_scenario("mixed", ScenarioParams(noise_sigma=0.001, seed=5)), want)
    assert run(["synth", "mixed", "noise_sigma=0.001", "seed=5"]) == 0
    assert capsys.readouterr().out == want.getvalue()
    argv = ["synth", "mixed", "noise_sigma=0.001", "seed=5", "--seed", "1"]
    assert run_in_process(argv) == (1, "", "stvs: unrecognized arguments: --seed 1\n", [])


@pytest.mark.parametrize("command", ["assess", "decompose", "exponents", "tune"])
def test_a_window_whose_sample_count_overflows_is_one_ingest_line(short_record, command):
    argv = command_argv(command, short_record) + ["--t0", "1.1", "--window", "-1e308"]
    assert run_in_process(argv) == (
        1, "", "stvs: [ingest] window duration -1e+308 s yields -inf samples (need >= 2)\n", []
    )


@pytest.mark.parametrize(
    "command, flags, critical",
    [("thresholds", [], lambda doc: doc["imf_critical"])],  # the one command with --lo
    ids=["thresholds"],
)
def test_a_grid_whose_bin_centres_overflow_scores_without_a_warning(
    short_record, command, flags, critical
):
    argv = command_argv(command, short_record) + flags + ["--lo", "-1e308"]
    code, out, err, caught = run_in_process(argv)
    assert (code, err, caught) == (0, "", [])
    value = critical(json.loads(out))
    assert np.isfinite(value)
    assert value == indices.imf_threshold(20, -1e308, 1.5, 10.0)
