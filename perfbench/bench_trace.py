"""Spans around the calls into each stvs layer, recorded from outside.

The tracer replaces module attributes (for example
``stvs.indices.decompose``) with thin wrappers that record one span per
call: name, start, end, parent span and the operation id shared by all
spans of one operation.  The library looks these names up at call time,
so the wrappers see every call without a change to the library.  Spans
stay in memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter

# (module, attribute, span name).  A name patched in two modules is the
# same layer call seen from two callers.
INSTRUMENTS = (
    ("stvs.indices", "extract_post_fault_window", "ingest.window"),
    ("stvs.indices", "decompose", "emd.decompose"),
    ("stvs.indices", "filter_imfs_by_frequency", "emd.filter"),
    ("stvs.indices", "oscillation_index", "indices.oscillation_index"),
    ("stvs.indices", "imf_threshold", "indices.imf_threshold"),
    ("stvs.indices", "recovery_index", "indices.recovery_index"),
    ("stvs.indices", "delay_embed", "embed.delay_embed"),
    ("stvs.indices", "fsle_oscillation_series", "lyapunov.fsle_oscillation"),
    ("stvs.indices", "fsle_residual_series", "lyapunov.fsle_residual"),
    ("stvs.oel", "fsle_residual_series", "lyapunov.fsle_residual"),
    ("stvs.indices", "histogram", "distribution.histogram"),
    ("stvs.oel", "histogram", "distribution.histogram"),
    ("stvs.indices", "gompertz_reference", "distribution.gompertz_reference"),
    ("stvs.oel", "gompertz_reference", "distribution.gompertz_reference"),
    ("stvs.indices", "kl_divergence", "distribution.kl"),
    ("stvs.oel", "kl_divergence", "distribution.kl"),
    ("stvs.oel", "build_characteristic", "oel.characteristic"),
    ("stvs.oel", "construct_critical_signals", "oel.critical_signals"),
    ("stvs.oel", "tune_gamma", "oel.tune_gamma"),
    ("stvs.cli", "trajectory_from_columns", "ingest.from_columns"),
    ("stvs.cli", "assess", "indices.assess"),
)

TUNER = (("stvs.oel", "tune_gamma", "oel.tune_gamma"),)

NO_PARENT = -1


def _count_imfs(decomp) -> int:
    return sum(decomp.n_imfs(c) for c in range(decomp.n_channels))


def _tuned_point(result) -> tuple[float, float]:
    return (result.gamma1, result.x_star)


# Values taken from a layer's result: counted per operation, or kept.
COUNTERS = {"emd.decompose": ("emd.imfs", _count_imfs)}
CAPTURES = {"oel.tune_gamma": ("tuned", _tuned_point)}


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.current_op = 0
        self.counts: dict[int, Counter] = {}
        self.captured: dict[int, dict[str, list]] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._installed: set[str] = set()

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrapper(name, fn)(*args, **kwargs)

    def _after(self, name: str):
        """What to take from the result of a ``name`` call, if anything."""
        if name in COUNTERS:
            key, measure = COUNTERS[name]

            def count(result):
                self.counts.setdefault(self.current_op, Counter())[key] += measure(result)

            return count
        if name in CAPTURES:
            key, take = CAPTURES[name]

            def capture(result):
                self.captured.setdefault(self.current_op, {}).setdefault(key, []).append(
                    take(result)
                )

            return capture
        return None

    def _wrapper(self, name: str, fn):
        # Bound methods are looked up once here: the wrapper runs about
        # ten thousand times per trip-3ch assessment.
        name_id = self._intern(name)
        after = self._after(name)
        add_name, add_parent = self.name_id.append, self.parent.append
        add_op, add_end, add_start = self.op.append, self.end.append, self.start.append
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(name_id)
            add_parent(stack[-1] if stack else NO_PARENT)
            add_op(self.current_op)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, instruments=INSTRUMENTS) -> None:
        """Wrap every instrumented attribute; missing ones are listed."""
        if self._saved:
            return
        self.missing = []
        for mod_name, attr, span_name in instruments:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._installed.add(span_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(span_name, fn))

    def installed(self, span_name: str) -> bool:
        """Whether calls named ``span_name`` are seen, installed or not now."""
        return span_name in self._installed

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def op_spans(self) -> dict[int, list[int]]:
        by_op: dict[int, list[int]] = {}
        for i, op in enumerate(self.op):
            by_op.setdefault(op, []).append(i)
        return by_op

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def write(self, path) -> None:
        """Dump every span as gzip CSV: op,id,parent,name,start_s,end_s."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{self.name_of(i)},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so time is never subtracted twice.
    """
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] != NO_PARENT:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(start[c], start[i]), min(end[c], end[i])) for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end[i] - start[i]) - covered)
    return out


def op_summary(tracer: Tracer, self_t: list[float]) -> dict[int, dict]:
    """Per operation: span count, total and self seconds by span name.

    Totals count only the outermost span of a name, so a layer that
    calls itself is not counted twice.
    """
    summary: dict[int, dict] = {}
    for op, idxs in tracer.op_spans().items():
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i in idxs:
            name = tracer.name_of(i)
            calls[name] += 1
            own[name] += self_t[i]
            p = tracer.parent[i]
            while p != NO_PARENT and tracer.name_id[p] != tracer.name_id[i]:
                p = tracer.parent[p]
            if p == NO_PARENT:
                total[name] += tracer.end[i] - tracer.start[i]
        summary[op] = {
            "calls": calls,
            "total_s": total,
            "self_s": own,
            "counts": tracer.counts.get(op, Counter()),
        }
    return summary
