"""Time one cold start of stvs in a fresh interpreter.

Usage: setup_probe.py SRC_DIR WORKLOAD SEED [GEN_CONFIG_INI]

Set-up is importing stvs, building the assessment configuration (batch)
or letting the CLI parse --gen-config (stream), and the first, cold
assessment.  Making the input is excluded.  Prints {"setup_s": ...}.
"""

import time

_T_START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import stvs.indices  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[2], int(sys.argv[3])
    import bench_inputs as inputs

    if workload == "stream-1gen":
        import bench_stream
        from stvs.cli import run as cli_run

        t_ready = time.perf_counter()
        first = inputs.make_pool(workload, seed)[0]
        lines = inputs.csv_lines(first.traj)
        # rows up to the first report: 0.5 s of post-fault data
        n_rows = int(round((inputs.T0 + 0.5) / first.traj.dt)) + 1
        argv = [*inputs.STREAM_ARGV, "--gen-config", sys.argv[4]]
        t_input = time.perf_counter()
        result = bench_stream.run_stream(cli_run, argv, lines[: n_rows + 1])
        t_done = time.perf_counter()
        if result.exit_code != 0 or len(result.reports) != 1:
            print(f"cold stream produced {len(result.reports)} reports", file=sys.stderr)
            return 1
    else:
        config = inputs.assessment_config(workload)
        t_ready = time.perf_counter()
        first = inputs.make_pool(workload, seed)[0]
        t_input = time.perf_counter()
        stvs.indices.assess(first.traj, config)
        t_done = time.perf_counter()
    setup = (t_ready - _T_START) + (t_done - t_input)
    print('{"setup_s": %r}' % setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
