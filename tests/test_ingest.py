import numpy as np
import pytest

from stvs.errors import ValidationError
from stvs.ingest import (
    Channel,
    VoltageTrajectory,
    detect_fault_clear_index,
    estimate_prefault_voltage,
    extract_post_fault_window,
    load_run_config,
    load_trajectory,
    write_trajectory,
)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def three_channel_csv(tmp_path):
    path = tmp_path / "case.csv"
    t = 0.02 * np.arange(100)
    rows = [
        (t[i], 1.0 + 0.01 * np.sin(i), 0.99, 1.01, 0.2, 0.3)
        for i in range(100)
    ]
    write_csv(path, "time,V:A,V:B,V:C,Q:A,Q:B", rows)
    return path


def test_load_three_channel_50hz(three_channel_csv):
    traj = load_trajectory(three_channel_csv)
    assert traj.channel_ids == ("A", "B", "C")
    assert traj.dt == pytest.approx(0.02)
    assert traj.n_samples == 100
    assert traj.channels[0].reactive_power is not None
    assert traj.channels[2].reactive_power is None


def test_load_rejects_nan_with_row_index(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [(0.02 * i, 1.0) for i in range(10)]
    rows[4] = (0.08, float("nan"))
    write_csv(path, "time,V:A", rows)
    with pytest.raises(ValidationError, match="row 4"):
        load_trajectory(path)


def test_load_rejects_negative_voltage(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [(0.02 * i, 1.0) for i in range(10)]
    rows[7] = (0.14, -0.2)
    write_csv(path, "time,V:A", rows)
    with pytest.raises(ValidationError, match="row 7"):
        load_trajectory(path)


def test_load_rejects_jittered_timestamps(tmp_path):
    path = tmp_path / "jitter.csv"
    t = 0.02 * np.arange(50)
    t[20] += 0.02 * 1e-3  # 1e-3 relative jitter
    write_csv(path, "time,V:A", [(t[i], 1.0) for i in range(50)])
    with pytest.raises(ValidationError, match="non-uniform"):
        load_trajectory(path)


def test_load_requires_time_and_voltage_columns(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(path, "t,V:A", [(0.0, 1.0), (0.02, 1.0)])
    with pytest.raises(ValidationError, match="time"):
        load_trajectory(path)
    path2 = tmp_path / "cols2.csv"
    write_csv(path2, "time,voltage", [(0.0, 1.0), (0.02, 1.0)])
    with pytest.raises(ValidationError, match="voltage"):
        load_trajectory(path2)


def test_roundtrip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    n = 64
    ch = (
        Channel(id="A", voltage=1.0 + 0.05 * rng.standard_normal(n)),
        Channel(
            id="B",
            voltage=1.0 + 0.05 * rng.standard_normal(n),
            reactive_power=rng.standard_normal(n),
        ),
    )
    traj = VoltageTrajectory(channels=ch, dt=1.0 / 30.0)
    path = tmp_path / "rt.csv"
    write_trajectory(traj, path)
    back = load_trajectory(path)
    for orig, again in zip(traj.channels, back.channels):
        assert np.array_equal(orig.voltage, again.voltage)
        if orig.reactive_power is not None:
            assert np.array_equal(orig.reactive_power, again.reactive_power)


def test_slice_does_not_mutate_parent():
    v = np.linspace(1.0, 1.1, 50)
    traj = VoltageTrajectory(
        channels=(Channel(id="A", voltage=v.copy()),),
        dt=0.02,
        fault_clear_index=10,
    )
    window = extract_post_fault_window(traj, 0.4)
    window.channels[0].voltage[:] = 99.0
    assert np.array_equal(traj.channels[0].voltage, v)


def test_extract_window_arithmetic():
    n = 2500  # 50 s at 50 Hz
    traj = VoltageTrajectory(
        channels=(Channel(id="A", voltage=np.full(n, 1.0)),),
        dt=0.02,
    ).with_fault_clear_time(1.0)
    window = extract_post_fault_window(traj, 3.0)
    assert window.n_samples == 150
    assert window.fault_clear_index == 0
    assert window.t_start == pytest.approx(1.0)


def test_extract_window_degenerate_duration():
    traj = VoltageTrajectory(
        channels=(Channel(id="A", voltage=np.full(100, 1.0)),), dt=0.02
    )
    with pytest.raises(ValidationError):
        extract_post_fault_window(traj, 0.0)


def test_extract_window_beyond_end_reports_max():
    traj = VoltageTrajectory(
        channels=(Channel(id="A", voltage=np.full(100, 1.0)),),
        dt=0.02,
        fault_clear_index=50,
    )
    with pytest.raises(ValidationError, match="max 1"):
        extract_post_fault_window(traj, 10.0)


def _dipped_trajectory(pre_vals):
    pre = np.asarray(pre_vals, dtype=float)
    fault = np.full(5, 0.3)
    post = np.linspace(0.7, 1.0, 20)
    v = np.concatenate([pre, fault, post])
    return VoltageTrajectory(
        channels=(Channel(id="A", voltage=v),),
        dt=0.02,
        fault_clear_index=len(pre) + len(fault),
    )


def test_prefault_mean_of_constant():
    traj = _dipped_trajectory(np.full(25, 1.0))
    assert estimate_prefault_voltage(traj, 0.3)["A"] == pytest.approx(1.0)


def test_prefault_arithmetic_mean():
    traj = _dipped_trajectory([1.0] * 22 + [0.98, 1.00, 1.02])
    assert estimate_prefault_voltage(traj, 0.06)["A"] == pytest.approx(1.0)


def test_prefault_empty_lookback_rejected():
    traj = _dipped_trajectory(np.full(25, 1.0))
    with pytest.raises(ValidationError):
        estimate_prefault_voltage(traj, 0.0)
    with pytest.raises(ValidationError):
        estimate_prefault_voltage(traj, 10.0)  # does not fit before onset


def test_detect_fault_clear_index():
    traj = _dipped_trajectory(np.full(25, 1.0))
    assert detect_fault_clear_index(traj) == 30


def test_detect_fault_clear_requires_dip():
    traj = VoltageTrajectory(
        channels=(Channel(id="A", voltage=np.full(40, 1.0)),), dt=0.02
    )
    with pytest.raises(ValidationError):
        detect_fault_clear_index(traj)


def test_run_config_roundtrip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("fault_clear_time = 1.1\n# comment\n\n")
    assert load_run_config(path) == {"fault_clear_time": 1.1}


@pytest.mark.parametrize(
    "line, hint",
    [("window_duration=3.0", "--window"), ("lookback = 0.5", "LOOKBACK_S")],
)
def test_run_config_rejects_keys_no_run_reads(tmp_path, line, hint):
    path = tmp_path / "run.conf"
    path.write_text(f"fault_clear_time = 1.1\n# comment\n{line}\n")
    with pytest.raises(ValidationError, match=f"run.conf:3: .*is not read: .*{hint}"):
        load_run_config(path)


def test_run_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("fault_cleer_time = 1.1\n")
    with pytest.raises(ValidationError, match="unknown key"):
        load_run_config(path)
