#!/usr/bin/env python3
"""Benchmark of stvs: batch trip prediction, wide-record EMD, CLI streaming.

Run from the repository root:

    python3 perfbench/run.py --workload trip-3ch --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, one thread):

* ``trip-3ch``    batch ``stvs.indices.assess`` on 3-channel 50 Hz windows
                  with three configured generators (the recovery tuner);
* ``wide-10ch``   batch ``assess`` on 10-channel 200 Hz windows, no
                  generators (EMD);
* ``stream-1gen`` ``stvs.cli.run(["assess", "--stream", ...])`` in process
                  on 10 s records, one configured generator.

``--trace 0`` measures the end-to-end metrics with nothing wrapped, and
states every time and rate at a reference host speed (bench_speed.py).
``--trace 1`` wraps the calls into every layer (see bench_trace.py) and
reports the per-layer metrics.  Every operation is checked against the
recorded reference outputs.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # cold starts per run; setup_s is their median
SPEED_SAMPLES_PER_SETUP = 20  # speed probe samples after each cold start
SPEED_SAMPLES_PER_OP = 2  # speed probe samples after each batch operation
MIN_BATCH_OPS = 20  # timed batch operations per run, however short --seconds
SHOWN_PROBLEMS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "assess_p50_ms": "ms",
    "assess_per_s": "1/s",
    "stream_realtime_x": "x",
    "report_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (kind, span or counter name).  "ms" and "self_ms"
# are per-operation means over traced operations; "calls" and "count"
# come from the first traced pass over the input pool.
PER_LAYER = {
    "oel.tune_gamma_ms": ("ms", "oel.tune_gamma"),
    "oel.tune_gamma_calls": ("calls", "oel.tune_gamma"),
    "oel.critical_signals_ms": ("ms", "oel.critical_signals"),
    "oel.characteristic_ms": ("ms", "oel.characteristic"),
    "distribution.gompertz_reference_calls": ("calls", "distribution.gompertz_reference"),
    "distribution.kl_calls": ("calls", "distribution.kl"),
    "distribution.kl_ms": ("ms", "distribution.kl"),
    "distribution.histogram_calls": ("calls", "distribution.histogram"),
    "emd.decompose_ms": ("ms", "emd.decompose"),
    "emd.decompose_calls": ("calls", "emd.decompose"),
    "emd.imfs": ("count", "emd.imfs"),
    "emd.filter_ms": ("ms", "emd.filter"),
    "indices.assess_self_ms": ("self_ms", "indices.assess"),
    "indices.oscillation_index_ms": ("ms", "indices.oscillation_index"),
    "indices.imf_threshold_ms": ("ms", "indices.imf_threshold"),
    "indices.recovery_index_ms": ("ms", "indices.recovery_index"),
    "embed.delay_embed_ms": ("ms", "embed.delay_embed"),
    "lyapunov.fsle_oscillation_ms": ("ms", "lyapunov.fsle_oscillation"),
    "lyapunov.fsle_residual_ms": ("ms", "lyapunov.fsle_residual"),
    "lyapunov.fsle_residual_calls": ("calls", "lyapunov.fsle_residual"),
    "ingest.window_ms": ("ms", "ingest.window"),
    "ingest.from_columns_calls": ("calls", "ingest.from_columns"),
    "ingest.from_columns_ms": ("ms", "ingest.from_columns"),
    "cli.rows": ("count", "cli.rows"),
    "cli.assess_calls": ("calls", "indices.assess"),
    "cli.reports": ("count", "cli.reports"),
    "cli.distinct_report_ratio": ("ratio", "cli.distinct_reports"),
    "cli.stderr_lines": ("count", "cli.stderr_lines"),
    "cli.self_ms": ("self_ms", "cli.run"),
    "trace.overhead_pct": ("overhead", None),
}
PER_LAYER_UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "calls": "count",
    "count": "count",
    "ratio": "ratio",
    "overhead": "%",
}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


class Outcome:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems[:3])}")

    def fail_check(self, message: str) -> None:
        """A run-level check failed (not one operation's output)."""
        self.problems.append(message)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "note": "shared host: timings include interference from other tenants",
    }


def setup_times(workload: str, seed: int, ini: Path | None, probe) -> list[float]:
    """Cold starts in fresh interpreters, one after another, each followed
    by speed probe samples."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)]
    if ini is not None:
        cmd.append(str(ini))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, cwd=ROOT
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        probe.sample(SPEED_SAMPLES_PER_SETUP)
    return times


# -- batch workloads ---------------------------------------------------------


def check_batch(ctx, inp, doc: dict, tuned) -> list[str]:
    """Problems with one batch output; ``tuned`` None skips the tuner check."""
    import bench_check as check

    want = ctx["ref"]["items"].get(str(inp.item))
    if want is None:
        return [f"no reference output for bank item {inp.item}"]
    problems = check.diff(check.verdict(doc), want["doc"], "doc")
    if doc.get("config") != ctx["ref"]["config"]:
        problems.append("config echo differs from the reference")
    if tuned is not None:
        problems += check.diff([list(t) for t in tuned], want["tuned"], "tuned")
    if ctx["workload"] == "trip-3ch":
        problems += check.ground_truth(inp.kind, doc)
        tripped = check.false_trips(inp.kind, doc)
        if tripped:
            ctx["false_trips"][inp.item] = tripped
    return problems


def tuned_points(tracer, op: int):
    """Tuned (gamma1, x*) points of one operation, None if not observed."""
    if not tracer.installed("oel.tune_gamma"):
        return None
    return tracer.captured.get(op, {}).get("tuned", [])


def assess_doc(assess, inp, config) -> str:
    return json.dumps(assess(inp.traj, config).to_dict(), sort_keys=True)


def record_batch(ctx, outcome: Outcome, inp, doc: str | None, tuned) -> None:
    label = f"item {inp.item}"
    if doc is not None:
        outcome.record(label, check_batch(ctx, inp, json.loads(doc), tuned))


def run_op(outcome: Outcome, inp, fn):
    """``fn()`` with an exception counted as a failed operation."""
    try:
        return fn()
    except Exception as exc:  # a failing operation is counted, not fatal
        outcome.record(f"item {inp.item}", [f"{type(exc).__name__}: {exc}"])
        return None


def tuner_note(ctx, tracer, ops, outcome: Outcome) -> None:
    """Every trip-3ch input is meant to run the tuner on all 3 generators."""
    if ctx["workload"] != "trip-3ch" or not tracer.installed("oel.tune_gamma"):
        return
    seen, short = set(), []
    for op, inp in ops:
        if inp.item in seen:
            continue
        seen.add(inp.item)
        if len(tracer.captured.get(op, {}).get("tuned", [])) != 3:
            short.append(inp.item)
    outcome.notes.append(
        f"tuner on all 3 generators: {len(seen) - len(short)}/{len(seen)} inputs"
        + (f" (bank items {short} take a shortcut)" if short else "")
    )


def tail_note(samples, what: str) -> str:
    """The latency tail, printed but not a bounded metric: it did not
    repeat across runs within a tenth on a shared machine."""
    from bench_stats import tail

    value, pct, n = tail(samples)
    return f"tail: p{pct:.1f} of {n} {what} is {1e3 * value:.1f} ms (10 samples beyond it)"


def batch_untraced(ctx, seconds: float, outcome: Outcome, probe) -> dict:
    """Raw metrics of the timed loop; ``probe`` is sampled after each
    operation and its time is taken out of the wall time."""
    import stvs.indices
    from bench_trace import TUNER, Tracer

    pool, config = ctx["pool"], ctx["config"]
    assess = stvs.indices.assess
    # Only the tuner is wrapped (three calls per assessment), to check
    # the tuned points of every operation.
    capture = Tracer()
    capture.install(TUNER)
    done = []  # (op, input, JSON document)
    assess_s, report_s, window_s = [], [], 0.0
    try:
        capture.current_op = -1  # warm-up, checked but not timed
        done.append((-1, pool[0], run_op(outcome, pool[0], lambda: assess_doc(assess, pool[0], config))))
        k = 0
        t_begin = time.perf_counter()
        while k < MIN_BATCH_OPS or time.perf_counter() - t_begin < seconds:
            inp = pool[k % len(pool)]
            capture.current_op = k
            k += 1
            t0 = time.perf_counter()
            result = run_op(outcome, inp, lambda: assess(inp.traj, config))
            if result is None:
                continue
            t1 = time.perf_counter()
            doc = json.dumps(result.to_dict(), sort_keys=True)
            t2 = time.perf_counter()
            assess_s.append(t1 - t0)
            report_s.append(t2 - t0)
            window_s += result.latency_s
            done.append((k - 1, inp, doc))
            probe.sample(SPEED_SAMPLES_PER_OP)
        wall = time.perf_counter() - t_begin - probe.total_s
    finally:
        capture.uninstall()
    for op, inp, doc in done:
        record_batch(ctx, outcome, inp, doc, tuned_points(capture, op))
    tuner_note(ctx, capture, [(op, inp) for op, inp, _ in done], outcome)

    outcome.notes.append(tail_note(assess_s, "assessments"))
    return {
        "assess_p50_ms": 1e3 * statistics.median(assess_s),
        "assess_per_s": len(assess_s) / wall,
        "stream_realtime_x": window_s / wall,
        "report_p50_ms": 1e3 * statistics.median(report_s),
    }


def batch_traced(ctx, seconds: float, outcome: Outcome, tracer) -> dict:
    """Traced pass over the pool, then traced/untraced pairs for the overhead."""
    import stvs.indices

    pool, config = ctx["pool"], ctx["config"]
    n = len(pool)
    assess = stvs.indices.assess

    def traced(t, c):
        return tracer.call("indices.assess", assess, t, c)

    tracer.install()
    for i, inp in enumerate(pool):
        tracer.current_op = i
        doc = run_op(outcome, inp, lambda: assess_doc(traced, inp, config))
        record_batch(ctx, outcome, inp, doc, tuned_points(tracer, i))
    tuner_note(ctx, tracer, list(enumerate(pool)), outcome)
    timed_ops: list[int] = []
    plain_s = traced_s = 0.0
    k = 0
    t_begin = time.perf_counter()
    try:
        while k < MIN_BATCH_OPS or time.perf_counter() - t_begin < seconds:
            inp = pool[k % n]
            op = n + k
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    tracer.current_op = op
                else:
                    tracer.uninstall()
                fn = traced if with_trace else assess
                t0 = time.perf_counter()
                doc = run_op(outcome, inp, lambda: assess_doc(fn, inp, config))
                elapsed = time.perf_counter() - t0
                if with_trace:
                    traced_s += elapsed
                else:
                    plain_s += elapsed
                record_batch(ctx, outcome, inp, doc, tuned_points(tracer, op) if with_trace else None)
            timed_ops.append(op)
            k += 1
    finally:
        tracer.uninstall()
    return {
        "count_ops": list(range(n)),
        "timed_ops": timed_ops,
        "same_input": {n + j: j % n for j in range(k)},
        "overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }


# -- stream workload ---------------------------------------------------------


def stream_context(ctx, tmp: Path) -> None:
    """Machine data, rows and the batch answer for each record."""
    import bench_check as check
    import bench_inputs as inputs
    import stvs.cli

    ctx["ini"] = tmp / "generators.ini"
    ctx["ini"].write_text(inputs.generator_ini(inputs.STREAM_GENERATORS), encoding="utf-8")
    ctx["argv"] = [*inputs.STREAM_ARGV, "--gen-config", str(ctx["ini"])]
    ctx["lines"] = [inputs.csv_lines(inp.traj) for inp in ctx["pool"]]
    ctx["batch"] = []
    for inp, lines in zip(ctx["pool"], ctx["lines"]):
        csv = tmp / f"record-{inp.item}.csv"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["assess", "--in", str(csv), "--t0", str(inputs.T0),
                "--gen-config", str(ctx["ini"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = stvs.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"batch assess of record {inp.item} exited with {code}")
        ctx["batch"].append(check.verdict(json.loads(out.getvalue())))


def check_stream(ctx, index: int, result, outcome: Outcome) -> None:
    """Each owed report against the reference; the last against batch."""
    import bench_check as check

    inp = ctx["pool"][index]
    want = ctx["ref"]["items"].get(str(inp.item))
    if want is None:
        outcome.record(f"record {inp.item}", ["no reference output"])
        return
    label = f"record {inp.item}"
    if result.exit_code != 0:
        for j in range(len(want["reports"])):
            outcome.record(f"{label} report {j}", [f"exit code {result.exit_code}"])
        return
    got = result.reports
    for j, ref_doc in enumerate(want["reports"]):
        if j >= len(got):
            outcome.record(f"{label} report {j}", ["missing"])
            continue
        problems = check.diff(check.verdict(got[j]), ref_doc, f"report[{j}]")
        if got[j].get("config") != ctx["ref"]["config"]:
            problems.append("config echo differs from the reference")
        if j == len(want["reports"]) - 1:
            final = {k: v for k, v in check.verdict(got[j]).items() if k != "latency_s"}
            batch = {k: v for k, v in ctx["batch"][index].items() if k != "latency_s"}
            if final != batch:
                problems.append("final report differs from batch assess on the same rows")
        outcome.record(f"{label} report {j}", problems)
    for j in range(len(want["reports"]), len(got)):
        outcome.record(f"{label} report {j}", ["unexpected extra report"])


def stream_pass(ctx, index: int, cli_run=None, probe=None):
    import bench_stream
    import stvs.cli

    return bench_stream.run_stream(
        cli_run or stvs.cli.run, ctx["argv"], ctx["lines"][index], probe
    )


def stream_untraced(ctx, seconds: float, outcome: Outcome, probe) -> dict:
    """Raw metrics of whole passes; the feeder samples ``probe`` between rows."""
    import bench_inputs as inputs
    import bench_stream
    import stvs.cli

    # warm-up: the first report of the first record
    lines = ctx["lines"][0]
    n_rows = int(round((inputs.T0 + 0.5) / ctx["pool"][0].traj.dt)) + 1
    bench_stream.run_stream(stvs.cli.run, ctx["argv"], lines[: n_rows + 1])

    # Whole cycles over the records only, so every record weighs the
    # same: stop at the cycle boundary nearest to --seconds.
    n = len(ctx["pool"])
    passes = []
    elapsed = 0.0
    while len(passes) < n or len(passes) % n or elapsed + 0.5 * n * elapsed / len(passes) < seconds:
        index = len(passes) % n
        passes.append((index, stream_pass(ctx, index, probe=probe)))
        elapsed += passes[-1][1].wall_s
    latencies, wall, record_s, reports = [], 0.0, 0.0, 0
    for index, result in passes:
        check_stream(ctx, index, result, outcome)
        latencies += result.latencies_s
        wall += result.wall_s
        record_s += result.record_s
        reports += len(result.reports)
    outcome.notes.append(tail_note(latencies, "reports"))
    p50 = 1e3 * statistics.median(latencies)
    return {
        "assess_p50_ms": p50,
        "assess_per_s": reports / wall,
        "stream_realtime_x": record_s / wall,
        "report_p50_ms": p50,
    }


def stream_traced(ctx, seconds: float, outcome: Outcome, tracer) -> dict:
    """One traced pass per record, then traced/untraced pass pairs."""
    import stvs.cli

    n = len(ctx["pool"])
    tracer.install()

    def traced_run(argv):
        return tracer.call("cli.run", stvs.cli.run, argv)

    def traced_pass(op: int, index: int):
        tracer.current_op = op
        result = stream_pass(ctx, index, traced_run)
        distinct = {
            json.dumps({k: v for k, v in r.items() if k != "latency_s"}, sort_keys=True)
            for r in result.reports
        }
        tracer.counts.setdefault(op, Counter()).update(
            {
                "cli.rows": result.rows,
                "cli.reports": len(result.reports),
                "cli.stderr_lines": result.stderr_lines,
                "cli.distinct_reports": len(distinct),
            }
        )
        return result

    for i in range(n):
        check_stream(ctx, i, traced_pass(i, i), outcome)
    timed_ops: list[int] = []
    plain_s = traced_s = 0.0
    k = 0
    try:
        # whole pairs of passes, stopping at the boundary nearest --seconds
        while k < 1 or (plain_s + traced_s) * (1 + 0.5 / k) < seconds:
            index, op = k % n, n + k
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    result = traced_pass(op, index)
                    traced_s += result.wall_s
                else:
                    tracer.uninstall()
                    result = stream_pass(ctx, index)
                    plain_s += result.wall_s
                check_stream(ctx, index, result, outcome)
            timed_ops.append(op)
            k += 1
    finally:
        tracer.uninstall()
    return {
        "count_ops": list(range(n)),
        "timed_ops": timed_ops,
        "same_input": {n + j: j % n for j in range(k)},
        "overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }


# -- reference speed -----------------------------------------------------------

RATES = ("assess_per_s", "stream_realtime_x")


def at_reference_speed(raw: dict, run_factor: float, setup_factor: float) -> dict:
    """Times multiplied, rates divided by the speed factor of their phase."""
    scaled = {}
    for name, value in raw.items():
        factor = setup_factor if name == "setup_s" else run_factor
        scaled[name] = value / factor if name in RATES else value * factor
    return scaled


# -- per-layer aggregation ---------------------------------------------------


def per_layer_metrics(tracer, plan: dict, outcome: Outcome) -> dict:
    from bench_trace import op_summary, self_times

    summary = op_summary(tracer, self_times(tracer.start, tracer.end, tracer.parent))
    empty = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(), "counts": Counter()}

    def exact(op: int) -> Counter:
        s = summary.get(op, empty)
        return s["calls"] + s["counts"]

    for op, ref_op in plan["same_input"].items():
        if exact(op) != exact(ref_op):
            changed = sorted(
                k for k in set(exact(op)) | set(exact(ref_op)) if exact(op)[k] != exact(ref_op)[k]
            )
            outcome.fail_check(f"counts differ between passes over one input: {changed}")
            break

    count_ops = [summary.get(op, empty) for op in plan["count_ops"]]
    timed_ops = [summary.get(op, empty) for op in plan["timed_ops"]]
    metrics = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind == "ms":
            value = 1e3 * statistics.fmean(s["total_s"][key] for s in timed_ops)
        elif kind == "self_ms":
            value = 1e3 * statistics.fmean(s["self_s"][key] for s in timed_ops)
        elif kind == "calls":
            value = statistics.fmean(s["calls"][key] for s in count_ops)
        elif kind == "count":
            value = statistics.fmean(s["counts"][key] for s in count_ops)
        elif kind == "ratio":
            reports = sum(s["counts"]["cli.reports"] for s in count_ops)
            value = sum(s["counts"][key] for s in count_ops) / reports if reports else 0.0
        else:
            value = plan["overhead_pct"]
        metrics[name] = value
    return metrics


# -- entry point -------------------------------------------------------------


def parse_args(argv):
    import bench_inputs as inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_stvs() -> None:
    """Put the checkout's own sources first and make sure they are used."""
    if not (SRC / "stvs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stvs sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import stvs

    if Path(stvs.__file__).resolve().parent != (SRC / "stvs").resolve():
        raise SystemExit(f"perfbench: imported stvs from {stvs.__file__}, not {SRC}")


def run(args) -> dict:
    import bench_check as check
    import bench_inputs as inputs
    from bench_speed import REFERENCE_S, SpeedProbe
    from bench_trace import Tracer

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    outcome = Outcome()
    ctx = {
        "workload": args.workload,
        "ref": check.load_reference(args.workload),
        "pool": inputs.make_pool(args.workload, args.seed),
    }
    print(
        f"workload {args.workload}, seed {args.seed}: bank items "
        f"{[inp.item for inp in ctx['pool']]}"
    )
    ctx["false_trips"] = {}
    stream = args.workload == "stream-1gen"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if stream:
            stream_context(ctx, Path(tmp))
        else:
            ctx["config"] = inputs.assessment_config(args.workload)
        if args.trace:
            tracer = Tracer()
            plan = (stream_traced if stream else batch_traced)(ctx, args.seconds, outcome, tracer)
            metrics = per_layer_metrics(tracer, plan, outcome)
            if not stream:
                metrics["cli.assess_calls"] = 0.0  # the batch root span is not a CLI call
            if tracer.missing:
                outcome.notes.append(f"not instrumented (absent): {tracer.missing}")
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            outcome.notes.append(f"{len(tracer)} spans written to {spans_path.relative_to(ROOT)}")
            units = {name: PER_LAYER_UNITS[kind] for name, (kind, _) in PER_LAYER.items()}
        else:
            setup_probe, run_probe = SpeedProbe(), SpeedProbe()
            setup = setup_times(args.workload, args.seed, ctx.get("ini"), setup_probe)
            raw = (stream_untraced if stream else batch_untraced)(
                ctx, args.seconds, outcome, run_probe
            )
            raw["setup_s"] = statistics.median(setup)
            metrics = at_reference_speed(raw, run_probe.factor(), setup_probe.factor())
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            outcome.notes.append(f"setup_s is the median of {[round(s, 4) for s in setup]} (raw)")
            outcome.notes.append(
                f"host speed: probe median {1e3 * statistics.median(setup_probe.samples):.3f} ms "
                f"in set-up, {1e3 * statistics.median(run_probe.samples):.3f} ms in the timed "
                f"loop ({len(run_probe.samples)} samples); reference {1e3 * REFERENCE_S} ms"
            )
            outcome.notes.append("raw (host speed as measured): " + json.dumps(raw, sort_keys=True))
            units = END_TO_END_UNITS
    for item, gens in sorted(ctx["false_trips"].items()):
        outcome.notes.append(
            f"finding: bank item {item} is a recovering mixed record predicted to trip on {gens}"
        )
    for note in outcome.notes:
        print(note)
    print(f"error_rate: {outcome.failed}/{outcome.attempted}")
    for problem in outcome.problems[:SHOWN_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    pin_threads()
    import_stvs()
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
