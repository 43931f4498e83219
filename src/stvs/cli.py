"""Command-line front end for batch and streaming assessment.

Subcommands: assess, decompose, exponents, thresholds, tune, synth.
An assessment takes a record, its fault clear time and window, and
generator machine data; it scores on the paper's IMF grid and gamma2,
and ``thresholds``, the one command that takes a grid, prints the
critical value of any grid.  The CLI parses arguments and prints what
the library computed: results go to stdout (or --out), each error is
one ``stvs:`` line on stderr.
``assess --stream`` prints the reports of a ``stvs.stream.Monitor``
fed the rows on stdin, one JSON line each, and its notes on stderr.
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
from itertools import chain

import numpy as np

from . import oel, synth
from .distribution import _bin_edges, reference_table
from .emd import decompose
from .errors import StvsError, ValidationError, stage
from .indices import (
    GAMMA2,
    IMF_GRID,
    OSC_X_STAR,
    AssessmentConfig,
    analysis_window_s,
    assess,
    imf_threshold,
)
from .ingest import (
    VOLTAGE_PREFIX,
    VoltageTrajectory,
    detect_fault_clear_index,
    extract_post_fault_window,
    load_trajectory,
    not_utf8,
    parse_header,
    write_columns,
    write_trajectory,
)
from .stream import Monitor


class _NegativeNumber:
    """The negative-number test of :class:`_Parser`: a token that starts
    with '-' and that ``float`` reads (-1e308, -.5, -inf) is a value."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own private pattern differs between Python releases
        # and, on some, reads -1e308 as an option: `--t0 -1e308` then
        # failed where `--t0=-1e308` did not
        self._negative_number_matcher = _NegativeNumber

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

    def add_common(p):
        p.add_argument("--in", dest="input", help="input CSV path")
        p.add_argument("--out", dest="output", help="output path (default stdout)")
        p.add_argument("--t0", type=_finite_float, default=None,
                       help="fault clear time in seconds (auto-detected if omitted)")
        p.add_argument("--window", type=_finite_float, default=AssessmentConfig.window_s,
                       help="post-fault analysis window in seconds")

    p_assess = sub.add_parser("assess", help="full stability assessment")
    add_common(p_assess)
    p_assess.add_argument("--gen-config", dest="gen_config",
                          help="per-generator machine data (INI)")
    p_assess.add_argument("--stream", action="store_true",
                          help="read rows from stdin, emit JSON lines")
    p_assess.add_argument("--report-interval", dest="report_interval",
                          type=_positive_float, default=None)

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
    add_common(p_dec)

    p_exp = sub.add_parser("exponents", help="emit exponent series as CSV")
    add_common(p_exp)

    # the one command that takes a grid; its defaults are the one assess uses
    p_thr = sub.add_parser("thresholds", help="print the critical oscillation index")
    bins, lo, hi = IMF_GRID
    p_thr.add_argument("--bins", type=int, default=bins)
    p_thr.add_argument("--lo", type=_finite_float, default=lo)
    p_thr.add_argument("--hi", type=_finite_float, default=hi)
    p_thr.add_argument("--gamma2", dest="shape", type=_positive_float, default=GAMMA2,
                       help="shape of the Gompertz reference")
    p_thr.add_argument("--out", dest="output")

    p_tune = sub.add_parser("tune", help="derive per-generator recovery thresholds")
    add_common(p_tune)
    p_tune.add_argument("--gen-config", dest="gen_config", required=True)

    p_syn = sub.add_parser("synth", help="write a synthetic scenario CSV")
    p_syn.add_argument("kind", choices=synth.SCENARIO_KINDS)
    p_syn.add_argument("params", nargs="*", metavar="key=value",
                       help="scenario parameter overrides, anywhere after the kind")
    p_syn.add_argument("--out", dest="output")
    return parser


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    target = open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout)
    with target as fh:
        fh.write(text)


def _load_input(args) -> VoltageTrajectory:
    """The --in record with its fault clear sample placed; a failure is
    an ``[ingest]`` error, as inside ``assess``, that names the file."""
    if not args.input:
        raise ValidationError("--in is required for this subcommand")
    traj = stage("ingest", load_trajectory, args.input)
    try:
        if args.t0 is not None:
            return traj.with_fault_clear_time(args.t0)
        return replace(traj, fault_clear_index=detect_fault_clear_index(traj))
    except ValidationError as exc:
        raise ValidationError(f"[ingest] {args.input}: {exc}") from exc


def _assessment_config(args) -> AssessmentConfig:
    """Assessment settings from the flags the subcommand has."""
    gen_config = getattr(args, "gen_config", None)
    generators = oel.load_generator_config(gen_config) if gen_config else None
    return AssessmentConfig(args.window, generators)


def _cmd_assess(args) -> int:
    if args.stream and (args.input or args.output):
        flag = "--in" if args.input else "--out"
        raise ValidationError(f"argument {flag}: not allowed with argument --stream")
    if not args.stream and args.report_interval is not None:
        raise ValidationError(
            "argument --report-interval: not allowed without argument --stream"
        )
    config = _assessment_config(args)
    if args.stream:
        return _cmd_stream(args, config)
    traj = _load_input(args)
    result = assess(traj, config)
    _emit(json.dumps(result.to_dict(), sort_keys=True), args.output)
    return 0


def _note(text: str) -> None:
    sys.stderr.write(f"stvs: {text}\n")


def _stdin_lines():
    """The lines of stdin, read as UTF-8 like a file; a byte that is
    not UTF-8 is an ``[ingest]`` error once every line before it is
    read."""
    if hasattr(sys.stdin, "reconfigure"):  # the console's stream, unread
        # the text layer decodes blocks of lines at once; a bad byte is
        # kept as an escape, so that it stops the stream at its own line
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    for line in chain([sys.stdin.readline()], sys.stdin):
        if not line.isascii():
            try:  # an escaped byte fails the strict decode
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"[ingest] {not_utf8('<stdin>', exc)}") from exc
        yield line


def _cmd_stream(args, config: AssessmentConfig) -> int:
    """Print the reports of a ``Monitor`` fed the rows on stdin, one
    JSON line each, and its notes as ``stvs:`` lines; ``stvs.stream``
    holds the policy.  A stop is one line, the last, and exit 1."""
    lines = _stdin_lines()
    names = parse_header(next(lines))
    if names is None:  # nothing to assess, as batch says of an empty file
        _note("the stream's first line holds no header, so no report was written")
        return 0
    # unset, the interval is Monitor's default
    interval = {"report_interval": args.report_interval} if args.report_interval else {}
    monitor = Monitor(names, config, args.t0, note=_note, **interval)
    try:
        for line in lines:
            doc = monitor.push(line)
            if doc is not None:
                sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
                sys.stdout.flush()
    except ValidationError as exc:
        monitor.finish(stopped=True)
        _note(f"{exc}, so the stream stops")  # the last line: why it stopped
        return 1
    monitor.finish()
    return 0


def _cmd_decompose(args) -> int:
    traj = _load_input(args)
    window_s = analysis_window_s(traj, args.window)
    window = stage("ingest", extract_post_fault_window, traj, window_s)
    decomp = stage("emd", decompose, window)
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
        if g.series is not None:
            lines += _exponent_rows(f"R:{g.id}", g.series)
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_thresholds(args) -> int:
    """Print the critical oscillation index and the grid and reference
    row it was scored against, read from the caches ``imf_threshold`` read."""
    value = stage("oscillation", imf_threshold, args.bins, args.lo, args.hi, args.shape)
    edges, _ = _bin_edges(args.bins, args.lo, args.hi)
    ref = reference_table([args.shape], [OSC_X_STAR], edges)[0, 0]
    doc = {
        "imf_critical": value,
        "bins": args.bins,
        "lo": args.lo,
        "hi": args.hi,
        "gamma2": args.shape,
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
    overrides: dict = {}
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
        args, extra = parser.parse_known_args(argv)
        if args.command == "synth":  # key=value overrides may follow an option too
            override = [t for t in extra if "=" in t and not t.startswith("-")]
            args.params += override
            extra = [t for t in extra if t not in override]
        if extra:  # parse_args' own message
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader closed stdout early (`stvs ... | head`).  Point stdout
        # at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (StvsError, OSError) as exc:
        _note(str(exc))
        return 1 if isinstance(exc, (ValidationError, OSError)) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
