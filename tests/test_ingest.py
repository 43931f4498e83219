import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stvs.errors import ValidationError
from stvs.ingest import (
    LOOKBACK_S,
    Channel,
    RowChecker,
    VoltageTrajectory,
    detect_fault_clear_index,
    estimate_prefault_voltage,
    extract_post_fault_window,
    fault_clear_index,
    load_trajectory,
    write_columns,
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


def test_a_sampling_error_quotes_the_jitter_of_the_row_it_names(tmp_path):
    path = tmp_path / "jitter.csv"
    t = 0.02 * np.arange(20)
    t[3] += 2e-6  # 1e-4 of a step
    t[7:] += 0.06  # a 0.08 s step: a jitter of 3, past the named row
    write_csv(path, "time,V:A", [(t[i], 1.0) for i in range(20)])
    with pytest.raises(
        ValidationError, match=r"non-uniform sampling at row 3 \(relative jitter 0\.0001\)$"
    ):
        load_trajectory(path)


@pytest.mark.parametrize("row", [0, 1, 2, 30])
def test_load_names_a_nan_time(tmp_path, row):
    path = tmp_path / "nan_time.csv"
    t = 0.02 * np.arange(50)
    t[row] = np.nan
    write_csv(path, "time,V:A", [(t[i], 1.0) for i in range(50)])
    with pytest.raises(ValidationError, match=f"time is not a number at row {row}$"):
        load_trajectory(path)


@pytest.mark.parametrize(
    "value, what", [(np.nan, "NaN"), (np.inf, "infinite"), (-np.inf, "infinite")]
)
def test_load_names_a_non_finite_voltage(tmp_path, value, what):
    path = tmp_path / "bad.csv"
    rows = [(0.02 * i, 1.0, 1.0) for i in range(10)]
    rows[4] = (0.08, 1.0, value)
    write_csv(path, "time,V:A,V:B", rows)
    with pytest.raises(ValidationError, match=f"{what} voltage in 'V:B' at row 4$"):
        load_trajectory(path)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("rows", [(0,), (1,), (2,), (30,), (30, 31)])
def test_load_names_an_infinite_time_without_a_warning(tmp_path, rows, value):
    path = tmp_path / "inf_time.csv"
    t = 0.02 * np.arange(50)
    t[list(rows)] = value
    write_csv(path, "time,V:A", [(t[i], 1.0) for i in range(50)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(
            ValidationError, match=f"time is not finite at row {rows[0]}$"
        ):
            load_trajectory(path)
    assert caught == []


def test_load_reads_a_header_with_a_utf8_bom(tmp_path, three_channel_csv):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + three_channel_csv.read_bytes())
    plain, bom = load_trajectory(three_channel_csv), load_trajectory(path)
    assert bom.channel_ids == plain.channel_ids
    for a, b in zip(plain.channels, bom.channels):
        assert np.array_equal(a.voltage, b.voltage)


def test_load_requires_time_and_voltage_columns(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(path, "t,V:A", [(0.0, 1.0), (0.02, 1.0)])
    with pytest.raises(ValidationError, match="time"):
        load_trajectory(path)
    path2 = tmp_path / "cols2.csv"
    write_csv(path2, "time,voltage", [(0.0, 1.0), (0.02, 1.0)])
    with pytest.raises(ValidationError, match="voltage"):
        load_trajectory(path2)


@pytest.mark.parametrize(
    "header, named",
    [
        ("time,V:A,V:A", "repeated column 'V:A' in the header"),
        ("time,V:A,Q:A,Q:A", "repeated column 'Q:A' in the header"),
        ("time,V:A,time", "repeated column 'time' in the header"),
        ("time,V:,V:A", "column 'V:' has no channel id"),
        ("time,V:A,Q:", "column 'Q:' has no channel id"),
    ],
)
def test_a_repeated_column_or_an_empty_channel_id_is_rejected(tmp_path, header, named):
    names = header.split(",")
    with pytest.raises(ValidationError) as exc:
        RowChecker(names, "<stdin>")
    assert str(exc.value) == f"<stdin>: {named}"
    path = tmp_path / "hdr.csv"
    write_csv(path, header, [(0.02 * i, *[1.0] * (len(names) - 1)) for i in range(5)])
    with pytest.raises(ValidationError) as exc:
        load_trajectory(path)
    assert str(exc.value) == f"{path}: {named}"


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_a_t0_with_no_finite_sample_position_is_outside_the_record(t0):
    outside = re.escape(f"fault clear time {t0} s outside the record [0.0, 1.98] s")
    with pytest.raises(ValidationError, match=outside):
        fault_clear_index(t0, 0.0, 0.02, 100)
    traj = VoltageTrajectory(channels=(Channel(id="A", voltage=np.ones(100)),), dt=0.02)
    with pytest.raises(ValidationError, match=outside):
        traj.with_fault_clear_time(t0)


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


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    n=st.integers(2, 20),
    t_start=st.floats(-100.0, 100.0),
    dt=st.floats(1e-4, 1.0),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_write_columns_load_roundtrip_bit_for_bit(tmp_path_factory, n, t_start, dt, data):
    samples = st.lists(finite, min_size=n, max_size=n)
    v = np.abs(data.draw(samples)) + 5e-324  # positive, subnormals included
    q = np.array(data.draw(samples))
    t = t_start + dt * np.arange(n)
    path = tmp_path_factory.mktemp("cols") / "cols.csv"
    write_columns(path, ["time", "V:A", "Q:A"], [t, v, q])
    back = load_trajectory(path)
    assert (back.t_start, back.dt) == (t[0], t[1] - t[0])
    (ch,) = back.channels
    assert ch.voltage.tobytes() == v.tobytes()
    assert ch.reactive_power.tobytes() == q.tobytes()  # -0.0 stays -0.0


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
    assert estimate_prefault_voltage(traj)["A"] == pytest.approx(1.0)


def test_prefault_arithmetic_mean():
    # LOOKBACK_S at dt 0.02 is the last 25 samples before onset; the
    # five samples before them are left out
    assert round(LOOKBACK_S / 0.02) == 25
    traj = _dipped_trajectory([5.0] * 5 + [1.0] * 22 + [0.98, 1.00, 1.02])
    assert estimate_prefault_voltage(traj)["A"] == pytest.approx(1.0)


def test_prefault_empty_lookback_rejected():
    # the onset at sample 0 leaves no sample to average
    traj = _dipped_trajectory([])
    with pytest.raises(ValidationError, match="no samples before the fault"):
        estimate_prefault_voltage(traj)


def test_detect_fault_clear_index():
    traj = _dipped_trajectory(np.full(25, 1.0))
    assert detect_fault_clear_index(traj) == 30


def test_detect_fault_clear_requires_dip():
    traj = VoltageTrajectory(
        channels=(Channel(id="A", voltage=np.full(40, 1.0)),), dt=0.02
    )
    with pytest.raises(ValidationError):
        detect_fault_clear_index(traj)
