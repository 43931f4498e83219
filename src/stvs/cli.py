"""Command-line front end for batch and streaming assessment.

Subcommands: assess, decompose, exponents, thresholds, tune, synth.
The CLI parses arguments and prints what the library computed: results
go to stdout (or --out), each error is one ``stvs:`` line on stderr.
Exit codes: 0 success, 1 invalid input (a file that cannot be read or
written included), 2 computation failure.  A reader that closes stdout
early (``stvs assess --stream ... | head``) ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace

import numpy as np

from . import oel, synth
from .distribution import reference_table
from .emd import decompose
from .errors import StvsError, ValidationError, stage
from .indices import (
    OSC_X_STAR,
    AssessmentConfig,
    analysis_window_s,
    assess,
    imf_threshold,
)
from .ingest import (
    TIME_COLUMN,
    VOLTAGE_PREFIX,
    NO_FAULT_SIGNATURE,
    FaultClearTracker,
    RowChecker,
    VoltageTrajectory,
    detect_fault_clear_index,
    extract_post_fault_window,
    fault_clear_index,
    load_trajectory,
    trajectory_from_columns,
    write_columns,
    write_trajectory,
)

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are validation errors
        raise ValidationError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="stvs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = AssessmentConfig()

    def add_common(p, *, io=True, grid=True):
        if io:
            p.add_argument("--in", dest="input", help="input CSV path")
            p.add_argument("--out", dest="output", help="output path (default stdout)")
            p.add_argument("--t0", type=_finite_float, default=None,
                           help="fault clear time in seconds (auto-detected if omitted)")
            p.add_argument("--window", type=_finite_float, default=defaults.window_s,
                           help="post-fault analysis window in seconds")
        if grid:
            p.add_argument("--bins", type=int, default=defaults.imf_bins)
            p.add_argument("--lo", type=_finite_float, default=defaults.imf_lo)
            p.add_argument("--hi", type=_finite_float, default=defaults.imf_hi)
            p.add_argument("--gamma2", type=_positive_float, default=defaults.gamma2)

    p_assess = sub.add_parser("assess", help="full stability assessment")
    add_common(p_assess)
    p_assess.add_argument("--gen-config", dest="gen_config",
                          help="per-generator machine data (INI)")
    p_assess.add_argument("--stream", action="store_true",
                          help="read rows from stdin, emit JSON lines")
    p_assess.add_argument("--report-interval", dest="report_interval",
                          type=_positive_float, default=0.1)
    p_assess.add_argument("--eq0", type=_finite_float, default=None,
                          help="explicit post-fault equilibrium voltage")

    p_dec = sub.add_parser(
        "decompose",
        help="emit IMFs and residual as CSV",
        description=(
            "Decompose the post-fault window assess analyses (--window, "
            "shortened to the data after fault clearing) and print every "
            "IMF and the residual per channel: the IMFs are taken before "
            "the frequency-band filter that assess applies, so each "
            "channel's V equals the sum of its IMFs and R."
        ),
    )
    add_common(p_dec, grid=False)

    p_exp = sub.add_parser("exponents", help="emit exponent series as CSV")
    add_common(p_exp, grid=False)
    p_exp.add_argument("--eq0", type=_finite_float, default=None)

    p_thr = sub.add_parser("thresholds", help="print the critical oscillation index")
    add_common(p_thr, io=False)
    p_thr.add_argument("--out", dest="output")

    p_tune = sub.add_parser("tune", help="derive per-generator recovery thresholds")
    add_common(p_tune, grid=False)
    p_tune.add_argument("--gen-config", dest="gen_config", required=True)
    p_tune.add_argument("--eq0", type=_finite_float, default=None)

    p_syn = sub.add_parser("synth", help="write a synthetic scenario CSV")
    p_syn.add_argument("kind", choices=synth.SCENARIO_KINDS)
    p_syn.add_argument("params", nargs="*", metavar="key=value",
                       help="scenario parameter overrides")
    p_syn.add_argument("--out", dest="output")
    p_syn.add_argument("--seed", type=int, default=0)
    return parser


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    target = open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout)
    with target as fh:
        fh.write(text)


def _load_input(args) -> VoltageTrajectory:
    """The --in record with its fault clear sample placed; a failure is
    an ``[ingest]`` error, as inside ``assess``."""
    if not args.input:
        raise ValidationError("--in is required for this subcommand")
    traj = stage("ingest", load_trajectory, args.input)
    if args.t0 is not None:
        return stage("ingest", traj.with_fault_clear_time, args.t0)
    index = stage("ingest", detect_fault_clear_index, traj)
    return replace(traj, fault_clear_index=index)


def _assessment_config(args) -> AssessmentConfig:
    """Assessment settings from the flags the subcommand has."""
    settings = {"window_s": args.window, "eq0": args.eq0}
    if "bins" in args:
        settings.update(
            imf_bins=args.bins, imf_lo=args.lo, imf_hi=args.hi, gamma2=args.gamma2
        )
    if getattr(args, "gen_config", None):
        settings["generators"] = oel.load_generator_config(args.gen_config)
    return AssessmentConfig(**settings)


def _cmd_assess(args) -> int:
    if args.stream and (args.input or args.output):
        flag = "--in" if args.input else "--out"
        raise ValidationError(f"argument {flag}: not allowed with argument --stream")
    config = _assessment_config(args)
    if args.stream:
        return _cmd_stream(args, config)
    traj = _load_input(args)
    result = assess(traj, config)
    _emit(json.dumps(result.to_dict(), sort_keys=True), args.output)
    return 0


def _cmd_stream(args, config: AssessmentConfig) -> int:
    """Assess a growing window fed row-by-row on stdin; reports go to
    stdout, so ``--in`` and ``--out`` are rejected.

    One JSON line per report interval once 0.5 s of post-fault data has
    accumulated.  Each row is parsed once into one buffer and checked
    once, on its own; a trajectory is built only for a row due a report.
    With ``--t0``, rows wait until one at or past t0 arrives, are then
    checked together, and t0 is placed once.  Without it, the fault
    clear sample is tracked row by row; a history with no fault
    signature yet is reported once, and once more at the end if none
    ever showed.
    Out-of-order rows are reported and skipped; the first row with the
    wrong column count is reported, and the number dropped at the end.
    The stream stops with exit 1, after one line, on what no later row
    can mend: a kept row that makes the history invalid (a NaN or
    non-positive voltage, a gap in the sampling), a ``--t0`` before the
    first row and, with ``--t0``, an ``[ingest]`` failure of a report
    (no pre-fault samples, a window under 2 samples).  Any other failing
    report is reported and the stream goes on; the reports written stay.
    A stream that ends before its first report says so and exits 0.
    """
    header = sys.stdin.readline().removeprefix("\ufeff")  # a UTF-8 BOM
    if not header.strip():
        return 0
    names = [c.strip() for c in header.split(",")]
    t_index = names.index(TIME_COLUMN) if TIME_COLUMN in names else 0
    # column-major, so that a column of the history is contiguous
    buf = np.empty((len(names), 256))
    n = 0
    last_t = -np.inf
    checker = RowChecker(names, origin="<stdin>")
    tracker = FaultClearTracker()
    t0_index: int | None = None
    data_time: float | None = None
    next_report: float | None = None
    bad_width = 0
    stop: str | None = None  # why the stream stopped early, if it did
    # the history has had no fault signature so far; once one is found
    # it stays in every longer history
    no_signature = False

    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            vals = [float(v) for v in line.split(",")]
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
        if n == buf.shape[1]:
            buf = np.concatenate([buf, np.empty_like(buf)], axis=1)
        buf[:, n] = vals
        n += 1
        if n < 2 or (args.t0 is not None and last_t < args.t0):
            continue
        data = buf[:, :n].T
        try:
            checker.check(data)
        except ValidationError as exc:
            stop = f"[ingest] {exc}; every later report would contain it"
            break
        if args.t0 is None:
            t0_index = tracker.update(data, checker.voltage_index)
            if t0_index is None:
                if not no_signature:
                    sys.stderr.write(
                        f"stvs: {NO_FAULT_SIGNATURE}; reports start once a "
                        f"later row shows one\n"
                    )
                no_signature = True
                continue
            no_signature = False
        elif t0_index is None:
            try:
                # t_start and dt are fixed and a row at or past t0 is in, so a
                # failure means t0 is before the first row
                t0_index = stage(
                    "ingest", fault_clear_index, args.t0, checker.t_start, checker.dt, n
                )
            except ValidationError as exc:
                stop = f"{exc}; it is before the first row"
                break
        data_time = last_t - (checker.t_start + t0_index * checker.dt)
        if data_time < 0.5:
            continue
        if next_report is None:
            next_report = data_time
        if data_time + 1e-9 < next_report:
            continue
        try:
            traj = trajectory_from_columns(names, data, "<stdin>", checker)
            doc = assess(replace(traj, fault_clear_index=t0_index), config).to_dict()
        except StvsError as exc:
            # with --t0 the rows before t0 and the window are fixed, save a
            # one-sample window (n - t0_index == 2) that the next row lengthens
            fixed = args.t0 is not None and n - t0_index > 2
            if fixed and str(exc).startswith("[ingest]"):
                stop = f"{exc}; no later row can change it"
                break
            sys.stderr.write(f"stvs: {exc}\n")
            continue
        doc["latency_s"] = data_time
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        sys.stdout.flush()
        next_report = data_time + args.report_interval
    if stop:
        sys.stderr.write(f"stvs: {stop}, so the stream stops\n")
    if bad_width:
        sys.stderr.write(
            f"stvs: dropped {bad_width} row(s) with the wrong number of columns\n"
        )
    if no_signature:
        sys.stderr.write(
            "stvs: the stream ended without a fault signature, so no report "
            "was written; pass --t0\n"
        )
    elif stop is None and next_report is None:
        if data_time is not None:
            sys.stderr.write(
                f"stvs: the stream ended {data_time:.3g} s after fault clearing, "
                f"so no report was written; the first report needs 0.5 s\n"
            )
        elif args.t0 is not None and n:
            sys.stderr.write(
                f"stvs: the stream ended at {last_t} s, before the fault clear "
                f"time {args.t0} s, so no report was written\n"
            )
    return 1 if stop else 0


def _cmd_decompose(args) -> int:
    traj = _load_input(args)
    window = extract_post_fault_window(traj, analysis_window_s(traj, args.window))
    decomp = decompose(window)
    ids = decomp.channel_ids
    n_imfs = max((decomp.n_imfs(c) for c in range(decomp.n_channels)), default=0)
    zeros = np.zeros(window.n_samples)
    names = ["t"] + [VOLTAGE_PREFIX + cid for cid in ids]
    columns = [window.times()] + [ch.voltage for ch in window.channels]
    for k in range(n_imfs):
        names += [f"IMF{k + 1}:{cid}" for cid in ids]
        columns += [imfs[k] if k < len(imfs) else zeros for imfs in decomp.imfs]
    names += [f"R:{cid}" for cid in ids]
    columns += decomp.residuals
    write_columns(args.output or sys.stdout, names, columns)
    return 0


def _exponent_rows(target: str, series) -> list[str]:
    """CSV rows `target,k,t,lambda,divergence_factor` of one series."""
    return [
        f"{target},{k},{float(k * series.dt)!r},{float(lam)!r},{float(f)!r}"
        for k, lam, f in zip(
            series.k_offsets, series.lambdas, series.divergence_factors
        )
    ]


def _cmd_exponents(args) -> int:
    """Emit the exponent series `assess` scored, one row per offset.

    Target `imf` is the oscillation series, `R:<id>` the residual
    series of each channel that dipped.
    """
    result = assess(_load_input(args), _assessment_config(args))
    lines = ["target,k,t,lambda,divergence_factor"]
    if result.oscillation.series is not None:
        lines += _exponent_rows("imf", result.oscillation.series)
    for g in result.per_generator:
        if g.recovery.series is not None:
            lines += _exponent_rows(f"R:{g.id}", g.recovery.series)
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_thresholds(args) -> int:
    """Print the critical oscillation index and the reference row it
    was scored against, read from the cache ``imf_threshold`` read."""
    value = imf_threshold(args.bins, (args.lo, args.hi), args.gamma2)
    edges = np.linspace(args.lo, args.hi, args.bins + 1)
    ref = reference_table([args.gamma2], [OSC_X_STAR], edges)[0, 0]
    doc = {
        "imf_critical": value,
        "bins": args.bins,
        "lo": args.lo,
        "hi": args.hi,
        "gamma2": args.gamma2,
        "reference": {
            "bin_edges": edges.tolist(),
            "probabilities": ref.tolist(),
        },
    }
    _emit(json.dumps(doc, sort_keys=True), args.output)
    return 0


def _cmd_tune(args) -> int:
    """Report the recovery-threshold tuning `assess` ran per generator.

    A generator that took a trivial path carries its verdict under
    "trivial" in place of the tuned fields.
    """
    config = _assessment_config(args)
    result = assess(_load_input(args), config)
    out = []
    for g in result.per_generator:
        if g.id not in config.generators:
            continue
        entry = {"id": g.id}
        if g.characteristic is not None:
            entry.update(asdict(g.characteristic))
        if g.tuning is None:
            entry["trivial"] = g.classification
        else:
            entry.update(asdict(g.tuning))
        out.append(entry)
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
        try:
            if key in ("n_channels", "seed"):
                overrides[key] = int(val)
            else:
                overrides[key] = _finite_float(val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"scenario parameter {key}: {exc}") from None
    traj = synth.synth_scenario(args.kind, synth.ScenarioParams(**overrides))
    write_trajectory(traj, args.output or sys.stdout)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader closed stdout early (`stvs ... | head`).  Point stdout
        # at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (StvsError, OSError) as exc:
        sys.stderr.write(f"stvs: {exc}\n")
        return 1 if isinstance(exc, (ValidationError, OSError)) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
