import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stvs
from conftest import QV_K1, QV_K2, P_ACTIVE, XD_PRIME, osc_params, pickup_level
from stvs import indices
from stvs.cli import run
from stvs.distribution import gompertz_reference, histogram, kl_divergence
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
    scored = []
    kl = indices.kl_divergence_table

    def keeping(p, q):
        scored.append((q, kl(p, q)))
        return scored[-1][1]

    monkeypatch.setattr(indices, "kl_divergence_table", keeping)
    indices._imf_threshold.cache_clear()
    argv = ["thresholds", "--bins", "30", "--lo", "0.1", "--hi", "2", "--gamma2", "4"]
    code, doc = run_json(capsys, argv)
    indices._imf_threshold.cache_clear()  # drop the value scored through the wrapper
    assert code == 0
    ((row, value),) = scored
    assert doc["reference"]["probabilities"] == row.tolist()
    assert doc["imf_critical"] == value


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


@pytest.mark.parametrize("flag", ["--t0", "--window", "--eq0", "--lo", "--hi", "--gamma2"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_validation_error(capsys, stable_case_csv, flag, value):
    code = run(["assess", "--in", stable_case_csv, f"{flag}={value}"])
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
        (["assess", "--in", "d", "--t0", "1.1"], None, IS_A_DIRECTORY),
        (["assess", "--in", "m.csv", "--t0", "1.1", "--out", "d"], None, IS_A_DIRECTORY),
        (["decompose", "--in", "m.csv", "--t0", "1.1", "--out", "d"], None, IS_A_DIRECTORY),
        (["synth", "mixed", "--out", "d"], None, IS_A_DIRECTORY),
        (["assess", "--in", "ff-header.csv", "--t0", "1.1"], None,
         "[ingest] ff-header.csv: not UTF-8 text (byte 0xff"),
        (["assess", "--in", "ff-row.csv", "--t0", "1.1"], None,
         "[ingest] ff-row.csv: not UTF-8 text (byte 0xff"),
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
    ],
    ids=[
        "in-directory", "assess-out-directory", "decompose-out-directory",
        "synth-out-directory", "not-utf8-header", "not-utf8-row",
        "duplicate-section", "no-section-header", "interpolation", "not-utf8-ini",
        "stream-with-in", "stream-with-out", "stream-t0-without-pre-fault-rows",
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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--t0", "9.5"], "[ingest] fault clear time 9.5 s outside the record"),
        ([], "[ingest] no fault signature found"),
    ],
    ids=["t0", "detection"],
)
def test_placing_the_fault_clear_time_is_an_ingest_error(capsys, tmp_path, argv, named):
    path = tmp_path / "flat.csv"
    path.write_text("time,V:A\n0,1\n0.02,1\n0.04,1\n0.06,1\n")
    code = run(["assess", "--in", str(path), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"stvs: {named}")
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
        series = g.recovery.series
        assert rows[f"R:{g.id}"] == [
            [str(k), repr(float(k * series.dt)), repr(float(lam)), repr(float(f))]
            for k, lam, f in zip(
                series.k_offsets, series.lambdas, series.divergence_factors
            )
        ]

    code, doc = run_json(capsys, ["assess", "--in", path, "--t0", "1.1"])
    assert code == 0
    hist = histogram([float(r[3]) for r in rows["imf"]], 20, 0.0, 1.5)
    ref = gompertz_reference(10.0, 1.0, hist.bin_edges)
    assert kl_divergence(hist, ref) == doc["oscillation"]["index"]


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
            "decay=0.4", "freq_hz=4.8", "ambient_amp=0.005", "tr_amp=0.01",
            "--out", str(out), "--seed", "1",
        ]
    )
    assert code == 0
    code2, doc = run_json(capsys, ["assess", "--in", str(out), "--t0", "1.1"])
    assert code2 == 0
    assert doc["oscillation"]["class"] == "stable"


def test_synth_stdout_equals_the_out_file(tmp_path, capsys):
    argv = ["synth", "mixed", "n_channels=2", "noise_sigma=0.001", "--seed", "3"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "case.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed == out.read_text(encoding="utf-8")
    assert printed.splitlines()[0] == "time,V:G1,V:G2,Q:G1,Q:G2"


def test_synth_rejects_unknown_parameter(capsys):
    assert run(["synth", "stable-osc", "bogus=1"]) == 1


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
    """Rows as `stvs synth KIND --seed SEED` prints them."""
    assert run(["synth", kind, "--seed", str(seed)]) == 0
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
    with open(path) as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-c", "from stvs.cli import main; main()",
             "assess", "--stream", "--t0", "1.1", "--report-interval", "0.1"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
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
