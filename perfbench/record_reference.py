#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py [WORKLOAD ...]

For every bank item of each workload it writes the assessment document
(batch) or every stream report (stream-1gen), plus the tuned
(gamma1, x*) points, to perfbench/reference/<workload>.json.  Re-record
only when a change to stvs is meant to change its results.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def record_batch(workload: str) -> dict:
    import bench_check as check
    import bench_inputs as inputs
    import stvs.indices
    from bench_trace import Tracer

    config = inputs.assessment_config(workload)
    tracer = Tracer()
    tracer.install()
    items, echo = {}, None
    try:
        for item in range(inputs.BANKS[workload].size):
            inp = inputs.make_input(workload, item)
            tracer.current_op = item
            doc = json.loads(
                run.assess_doc(
                    lambda t, c: tracer.call("indices.assess", stvs.indices.assess, t, c),
                    inp,
                    config,
                )
            )
            echo = doc["config"]
            tuned = tracer.captured.get(item, {}).get("tuned", [])
            items[str(item)] = {
                "kind": inp.kind,
                "doc": check.verdict(doc),
                "tuned": [list(t) for t in tuned],
            }
    finally:
        tracer.uninstall()
    return {"config": echo, "items": items}


def record_stream(workload: str) -> dict:
    import bench_check as check
    import bench_inputs as inputs
    import bench_stream
    import stvs.cli

    items, echo = {}, None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        ini = f"{tmp}/generators.ini"
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(inputs.generator_ini(inputs.STREAM_GENERATORS))
        argv = [*inputs.STREAM_ARGV, "--gen-config", ini]
        for item in range(inputs.BANKS[workload].size):
            inp = inputs.make_input(workload, item)
            result = bench_stream.run_stream(stvs.cli.run, argv, inputs.csv_lines(inp.traj))
            if result.exit_code != 0:
                raise RuntimeError(f"record {item}: exit code {result.exit_code}")
            print(f"{workload} item {item}: {len(result.reports)} reports in {result.wall_s:.1f} s")
            echo = result.reports[0]["config"]
            items[str(item)] = {
                "kind": inp.kind,
                "reports": [check.verdict(r) for r in result.reports],
            }
    return {"config": echo, "items": items}


def write(workload: str, ref: dict) -> None:
    import bench_check as check

    path = check.REFERENCE_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    items = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in ref["items"].items()
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"config": {json.dumps(ref["config"], sort_keys=True)},\n"items": {{\n')
        fh.write(items + "\n}}\n")


def main(argv) -> int:
    run.pin_threads()
    run.import_stvs()
    import bench_inputs as inputs

    for workload in argv or inputs.WORKLOADS:
        recorder = record_stream if workload == "stream-1gen" else record_batch
        write(workload, recorder(workload))
        print(f"recorded {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
