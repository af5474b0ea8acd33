"""One workload repetition in a fresh process: `python3 worker.py SPEC T0`.

SPEC is a JSON file written by run.py with the CLI calls, the mode
("setup", "run" or "trace") and where to write the result; T0 is the
monotonic clock reading taken just before this process was started.
The process imports the program and resolves every call's configuration
(set-up), then makes the calls through `vmstab.cli.main` (the timed
region), and writes its measurements.  In "trace" mode the tracer's
wrappers are installed before the timed region and the spans are written
afterwards.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _argv(call, out_dir):
    argv = [call["command"], "--out", str(out_dir)]
    for item in call["overrides"]:
        argv += ["--set", item]
    return argv


def _run_call(cli_main, argv) -> int:
    try:
        return int(cli_main(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is exit status 1 for a real CLI
        traceback.print_exc()
        return 1


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from vmstab.cli import main as cli_main
    from vmstab.config import validate_config

    for call in spec["calls"]:
        validate_config(None, call["overrides"])
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"setup_s": setup_end - float(sys.argv[2])}
    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            import tracer as tracing
            tracer = tracing.install()
            cli_main = sys.modules["vmstab.cli"].main
        out_dirs = [Path(spec["work"]) / f"call{i}"
                    for i in range(len(spec["calls"]))]
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        codes = [_run_call(cli_main, _argv(call, out))
                 for call, out in zip(spec["calls"], out_dirs)]
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
        result.update({
            "wall_s": wall1 - wall0,
            "cpu_s": cpu1 - cpu0,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "exit_codes": codes,
            "out_dirs": [str(p) for p in out_dirs],
            "artifact_bytes": sum(f.stat().st_size for p in out_dirs
                                  if p.is_dir() for f in p.iterdir()),
        })
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(
                tracer, spec.get("reference_blocks"))
            roots = [s for s in tracer.spans if s[0] == "cli.main"]
            own = tracing.self_times(tracer.spans)
            result["self_time_sum_s"] = float(sum(own))
            result["root_span_s"] = float(sum(s[2] - s[1] for s in roots))
            result["inf_blocks"] = [
                tracing.inf_blocks(r) for i, a, r in tracer.kept
                if tracer.spans[i][0] == "operators.assemble"
                and r.T == float("inf")]
            Path(spec["trace_path"]).write_text(json.dumps({
                "spans": [{"name": n, "start": s - wall0, "end": e - wall0,
                           "parent": p} for n, s, e, p in tracer.spans],
                "self_s": own,
                "steps": {k: {"calls": v[0], "node_steps": v[1],
                              "seconds": v[2]}
                          for k, v in tracer.steps.items()},
            }))
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
