"""Command-line front end for batch and streaming assessment.

Subcommands: assess, decompose, exponents, thresholds, tune, synth.
Results go to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success, 1 invalid input, 2 computation failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import oel, synth
from .emd import decompose, filter_imfs_by_frequency
from .errors import (
    ComputationError,
    StvsError,
    TrivialRecovery,
    TriviallySafe,
    TriviallyTripping,
    ValidationError,
)
from .indices import AssessmentConfig, assess, imf_threshold
from .ingest import (
    VoltageTrajectory,
    detect_fault_clear_index,
    extract_post_fault_window,
    load_run_config,
    load_trajectory,
    trajectory_from_columns,
    write_trajectory,
)
from .lyapunov import fsle_residual_series
from .distribution import gompertz_reference

log = logging.getLogger("stvs")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


@dataclass
class RunConfig:
    """Resolved run parameters, echoed into every JSON output."""

    input: str | None = None
    output: str | None = None
    fault_clear_time: float | None = None
    window: float = 3.0
    bins: int = 20
    lo: float = 0.0
    hi: float = 1.5
    gamma2: float = 10.0
    gen_config: str | None = None
    stream: bool = False
    report_interval: float = 0.1
    seed: int = 0
    eq0: float | None = None
    lookback: float = 0.5

    def validate(self) -> None:
        if self.window <= 0:
            raise ValidationError("--window must be positive")
        if self.bins < 2:
            raise ValidationError("--bins must be >= 2")
        if not self.lo < self.hi:
            raise ValidationError("--lo must be below --hi")
        if self.gamma2 <= 0:
            raise ValidationError("--gamma2 must be positive")
        if self.report_interval <= 0:
            raise ValidationError("--report-interval must be positive")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are validation errors
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stvs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, io=True, grid=True):
        if io:
            p.add_argument("--in", dest="input", help="input CSV path")
            p.add_argument("--out", dest="output", help="output path (default stdout)")
            p.add_argument("--t0", type=float, default=None,
                           help="fault clear time in seconds (auto-detected if omitted)")
            p.add_argument("--window", type=float, default=3.0,
                           help="post-fault analysis window in seconds")
        if grid:
            p.add_argument("--bins", type=int, default=20)
            p.add_argument("--lo", type=float, default=0.0)
            p.add_argument("--hi", type=float, default=1.5)
            p.add_argument("--gamma2", type=float, default=10.0)

    p_assess = sub.add_parser("assess", help="full stability assessment")
    add_common(p_assess)
    p_assess.add_argument("--gen-config", dest="gen_config",
                          help="per-generator machine data (INI)")
    p_assess.add_argument("--stream", action="store_true",
                          help="read rows from stdin, emit JSON lines")
    p_assess.add_argument("--report-interval", dest="report_interval",
                          type=float, default=0.1)
    p_assess.add_argument("--eq0", type=float, default=None,
                          help="explicit post-fault equilibrium voltage")

    p_dec = sub.add_parser("decompose", help="emit IMFs and residual as CSV")
    add_common(p_dec, grid=False)

    p_exp = sub.add_parser("exponents", help="emit exponent series as CSV")
    add_common(p_exp, grid=False)
    p_exp.add_argument("--eq0", type=float, default=None)

    p_thr = sub.add_parser("thresholds", help="print the critical oscillation index")
    add_common(p_thr, io=False)
    p_thr.add_argument("--out", dest="output")

    p_tune = sub.add_parser("tune", help="derive per-generator recovery thresholds")
    add_common(p_tune)
    p_tune.add_argument("--gen-config", dest="gen_config", required=True)
    p_tune.add_argument("--eq0", type=float, default=None)

    p_syn = sub.add_parser("synth", help="write a synthetic scenario CSV")
    p_syn.add_argument("kind", choices=synth.SCENARIO_KINDS)
    p_syn.add_argument("params", nargs="*", metavar="key=value",
                       help="scenario parameter overrides")
    p_syn.add_argument("--out", dest="output")
    p_syn.add_argument("--seed", type=int, default=0)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_input(args) -> VoltageTrajectory:
    if not args.input:
        raise ValidationError("--in is required for this subcommand")
    traj = load_trajectory(args.input)
    t0 = args.t0
    if t0 is None:
        sidecar = args.input + ".conf"
        if os.path.exists(sidecar):
            t0 = load_run_config(sidecar).get("fault_clear_time")
    if t0 is not None:
        traj = traj.with_fault_clear_time(t0)
    else:
        traj = traj.with_fault_clear_time(
            traj.t_start + detect_fault_clear_index(traj) * traj.dt
        )
    return traj


def _assessment_config(args) -> AssessmentConfig:
    generators = None
    if getattr(args, "gen_config", None):
        generators = oel.load_generator_config(args.gen_config)
    return AssessmentConfig(
        window_s=args.window,
        imf_bins=args.bins,
        imf_lo=args.lo,
        imf_hi=args.hi,
        gamma2=args.gamma2,
        eq0=getattr(args, "eq0", None),
        generators=generators,
    )


def _cmd_assess(args) -> int:
    config = _assessment_config(args)
    if args.stream:
        return _cmd_stream(args, config)
    traj = _load_input(args)
    result = assess(traj, config)
    _emit(json.dumps(result.to_dict(), sort_keys=True), args.output)
    return 0


def _cmd_stream(args, config: AssessmentConfig) -> int:
    """Assess a growing window fed row-by-row on stdin.

    Emits one JSON line per report interval once 0.5 s of post-fault
    data has accumulated.  Out-of-order rows are reported on stderr and
    skipped; the stream continues.
    """
    header = sys.stdin.readline()
    if not header.strip():
        return 0
    names = [c.strip() for c in header.split(",")]
    rows: list[list[float]] = []
    last_t = -np.inf
    t_index = names.index("time") if "time" in names else 0
    next_report: float | None = None
    emitted = 0

    def try_report(force: bool = False) -> None:
        nonlocal next_report, emitted
        if len(rows) < 2:
            return
        data = np.array(rows)
        traj = trajectory_from_columns(names, data, origin="<stdin>")
        if args.t0 is not None:
            traj = traj.with_fault_clear_time(args.t0)
        else:
            traj = traj.with_fault_clear_time(
                traj.t_start + detect_fault_clear_index(traj) * traj.dt
            )
        t0_time = traj.t_start + traj.fault_clear_index * traj.dt
        data_time = float(data[-1, t_index]) - t0_time
        if data_time < 0.5:
            return
        if next_report is None:
            next_report = data_time
        if data_time + 1e-9 < next_report and not force:
            return
        doc = assess(traj, config).to_dict()
        doc["latency_s"] = data_time
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        sys.stdout.flush()
        emitted += 1
        next_report = data_time + args.report_interval

    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            vals = [float(v) for v in line.split(",")]
        except ValueError:
            sys.stderr.write(f"stvs: skipping malformed row: {line}\n")
            continue
        if vals[t_index] <= last_t:
            sys.stderr.write(
                f"stvs: out-of-order timestamp {vals[t_index]} (last {last_t}); "
                f"row skipped\n"
            )
            continue
        last_t = vals[t_index]
        rows.append(vals)
        try:
            try_report()
        except StvsError as exc:
            sys.stderr.write(f"stvs: {exc}\n")
    return 0


def _cmd_decompose(args) -> int:
    traj = _load_input(args)
    window = extract_post_fault_window(traj, args.window)
    decomp = decompose(window)
    t = window.times()
    n_imfs = max((decomp.n_imfs(c) for c in range(decomp.n_channels)), default=0)
    cols = ["t"]
    for cid in decomp.channel_ids:
        cols.append(f"V:{cid}")
    for k in range(n_imfs):
        for cid in decomp.channel_ids:
            cols.append(f"IMF{k + 1}:{cid}")
    for cid in decomp.channel_ids:
        cols.append(f"R:{cid}")
    lines = [",".join(cols)]
    v = window.voltage_matrix()
    for i in range(window.n_samples):
        row = [repr(float(t[i]))]
        row += [repr(float(v[i, c])) for c in range(decomp.n_channels)]
        for k in range(n_imfs):
            for c in range(decomp.n_channels):
                val = (
                    decomp.imfs[c][k][i] if k < decomp.n_imfs(c) else 0.0
                )
                row.append(repr(float(val)))
        row += [
            repr(float(decomp.residuals[c][i]))
            for c in range(decomp.n_channels)
        ]
        lines.append(",".join(row))
    _emit("\n".join(lines), args.output)
    return 0


def _exponent_rows(target: str, series, dt: float) -> list[str]:
    """CSV rows `target,k,t,lambda,divergence_factor` of one series."""
    return [
        f"{target},{k},{float(k * dt)!r},{float(lam)!r},{float(f)!r}"
        for k, lam, f in zip(
            series.k_offsets, series.lambdas, series.divergence_factors
        )
    ]


def _cmd_exponents(args) -> int:
    """Emit `target,k,t,lambda,divergence_factor` rows per analysis target."""
    from .indices import _embedding_parameters
    from .embed import augment_rocov, delay_embed, normalize_channels
    from .emd import dominant_imf_frequency
    from .lyapunov import fsle_oscillation_series

    traj = _load_input(args)
    window = extract_post_fault_window(traj, args.window)
    decomp = filter_imfs_by_frequency(decompose(window), (0.0, 10.0))
    prefault = traj.prefault_voltage or {}
    lines = ["target,k,t,lambda,divergence_factor"]

    signals = [
        decomp.oscillatory(c)
        for c in range(decomp.n_channels)
        if decomp.n_imfs(c) and float(np.std(decomp.oscillatory(c))) > 1e-9
    ]
    if signals:
        freq = dominant_imf_frequency(decomp)
        period = max(2, int(round(1.0 / (freq * window.dt)))) if freq else None
        states = augment_rocov(normalize_channels(signals))
        m, tau, theiler = _embedding_parameters(
            len(states), period, 4, signals[0]
        )
        emb = delay_embed(states, m=m, tau=tau, theiler=theiler, dt=window.dt)
        series = fsle_oscillation_series(emb, anchor_window=period)
        lines += _exponent_rows("imf", series, window.dt)

    for c, cid in enumerate(window.channel_ids):
        eq0 = args.eq0 if args.eq0 is not None else prefault.get(cid, 1.0)
        try:
            series = fsle_residual_series(
                decomp.residuals[c], eq0=eq0, dt=window.dt
            )
        except StvsError as exc:
            log.info("residual series for %s skipped: %s", cid, exc)
            continue
        lines += _exponent_rows(f"R:{cid}", series, window.dt)
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_thresholds(args) -> int:
    value = imf_threshold(args.bins, (args.lo, args.hi), args.gamma2)
    edges = np.linspace(args.lo, args.hi, args.bins + 1)
    ref = gompertz_reference(args.gamma2, 1.0, edges)
    doc = {
        "imf_critical": value,
        "bins": args.bins,
        "lo": args.lo,
        "hi": args.hi,
        "gamma2": args.gamma2,
        "reference": {
            "bin_edges": edges.tolist(),
            "probabilities": ref.probabilities.tolist(),
        },
    }
    _emit(json.dumps(doc, sort_keys=True), args.output)
    return 0


def _cmd_tune(args) -> int:
    config = _assessment_config(args)
    traj = _load_input(args)
    window = extract_post_fault_window(traj, args.window)
    decomp = filter_imfs_by_frequency(decompose(window), (0.0, 10.0))
    prefault = traj.prefault_voltage
    if prefault is None:
        from .indices import _resolve_prefault

        prefault = _resolve_prefault(traj, config)
    out = []
    for c, cid in enumerate(window.channel_ids):
        spec = (config.generators or {}).get(cid)
        if spec is None:
            continue
        channel = window.channels[c]
        if channel.reactive_power is None:
            raise ValidationError(f"{cid}: no reactive power column for the Q-V fit")
        v_pre = prefault[cid]
        eq0 = args.eq0 if args.eq0 is not None else v_pre
        residual = decomp.residuals[c]
        try:
            series = fsle_residual_series(residual, eq0=eq0, dt=window.dt)
        except TrivialRecovery as exc:
            log.info("%s: %s", cid, exc)
            out.append({"id": cid, "trivial": "non-trip"})
            continue
        charac = oel.build_characteristic(
            spec, channel.voltage, channel.reactive_power
        )
        entry = {
            "id": cid,
            "k1": charac.k1,
            "k2": charac.k2,
            "vcaps": [list(vt) for vt in charac.vcaps],
        }
        out.append(entry)
        try:
            critical = oel.construct_critical_signals(
                residual, window.dt, eq0, list(charac.vcaps), series
            )
        except (TriviallySafe, TriviallyTripping) as exc:
            log.info("%s: %s", cid, exc)
            entry["trivial"] = "non-trip" if isinstance(exc, TriviallySafe) else "trip"
            continue
        n = critical.window_samples
        tuning = oel.tune_gamma(
            critical.s1[:n], critical.s2[:n], eq0, v_pre, window.dt,
            config.rec_grid(),
            gamma1_grid=config.gamma1_grid(),
            x_star_grid=config.x_star_grid(),
        )
        entry.update(
            gamma1=tuning.gamma1,
            x_star=tuning.x_star,
            d_s1=tuning.d_s1,
            d_s2=tuning.d_s2,
            f_star=tuning.f_star,
            epsilon=tuning.epsilon,
            d_critical_r=tuning.d_critical_r,
        )
    if not out:
        raise ValidationError("no generator in --gen-config matches a channel")
    _emit(json.dumps({"generators": out}, sort_keys=True), args.output)
    return 0


def _cmd_synth(args) -> int:
    overrides: dict = {"seed": args.seed}
    for item in args.params:
        if "=" not in item:
            raise ValidationError(f"scenario parameter must be key=value: {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in synth.ScenarioParams.__dataclass_fields__:
            raise ValidationError(f"unknown scenario parameter {key!r}")
        overrides[key] = int(val) if key in ("n_channels", "seed") else float(val)
    traj = synth.synth_scenario(args.kind, synth.ScenarioParams(**overrides))
    if args.output:
        write_trajectory(traj, args.output)
        return 0
    cols = ["time"] + [f"V:{ch.id}" for ch in traj.channels]
    qch = [ch for ch in traj.channels if ch.reactive_power is not None]
    cols += [f"Q:{ch.id}" for ch in qch]
    lines = [",".join(cols)]
    t = traj.times()
    for i in range(traj.n_samples):
        row = [repr(float(t[i]))]
        row += [repr(float(ch.voltage[i])) for ch in traj.channels]
        row += [repr(float(ch.reactive_power[i])) for ch in qch]
        lines.append(",".join(row))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "assess": _cmd_assess,
    "decompose": _cmd_decompose,
    "exponents": _cmd_exponents,
    "thresholds": _cmd_thresholds,
    "tune": _cmd_tune,
    "synth": _cmd_synth,
}


def run(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("STVS_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="stvs %(levelname)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(f"stvs: {exc}\n")
        return 1
    except (ComputationError, StvsError) as exc:
        sys.stderr.write(f"stvs: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"stvs: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())
