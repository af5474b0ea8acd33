"""Benchmark entry point for `vmstab`, run from the repository root.

    python3 perfbench/run.py --workload verdict-well --seed 0 \
        --seconds 32 --trace 0

Each workload repetition is a fresh `python3 perfbench/worker.py`
process that imports the program from `src/`, resolves its
configuration and makes the workload's CLI calls through
`vmstab.cli.main` with one averaging thread and one BLAS thread.

Each run first starts one unmeasured process (it fills the bytecode and
file caches).  --trace 0 then starts SETUP_PROBES processes that only
set up, then whole repetitions one after another until the next one
would end after --seconds (at least one).  It reports the end-to-end
metrics as medians over those processes.  --trace 1 runs one plain and
one traced repetition side by side and reports the per-layer metrics of
the traced one; trace.overhead_s is the difference of their wall times.

Every repetition's answers are checked against the committed expected
answers and quarter-step references in expected/.  The last line of
standard output is one JSON object: correct, attempted (CLI calls made),
failed (calls that exited non-zero or whose discrete answer differs from
the expected one) and metrics.  A record with the machine description,
every repetition's raw numbers and the metrics is written to
.bench_out/, next to the traced run's spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0       # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed program call)."""


def expected_path(size: str, workload: str, instance: int) -> Path:
    return HERE / "expected" / f"{size}-{workload}-{instance}.json"


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for key in THREAD_ENV:
        env[key] = "1"
    return env


class Worker:
    """One worker process: started on construction, collected by result()."""

    def __init__(self, calls, mode: str, work: Path, reference_blocks=None):
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps({
            "calls": calls, "mode": mode, "work": str(work),
            "result_path": str(work / "result.json"),
            "trace_path": str(work / "trace.json"),
            "reference_blocks": reference_blocks}))
        self.log = open(work / "worker.log", "w")
        self.t0 = _monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             repr(self.t0)], stdout=self.log, stderr=subprocess.STDOUT,
            env=_child_env(), cwd=ROOT)

    def result(self, timeout: float) -> dict:
        """Wait for the process and return what it measured."""
        try:
            code = self.proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {timeout:.0f} s") from None
        finally:
            self.stop()
        elapsed = _monotonic() - self.t0
        result_path = self.work / "result.json"
        if code != 0 or not result_path.exists():
            tail = (self.work / "worker.log").read_text()[-2000:]
            raise BenchError(f"worker exited with {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["process_s"] = elapsed
        result["work"] = str(self.work)
        return result

    def stop(self) -> None:
        """Kill the process if it still runs, and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def check_rep(workload: str, calls, rep: dict, expected: dict):
    """Failed calls of one repetition and its result_err."""
    failed = 0
    out_dirs = [Path(p) for p in rep["out_dirs"]]
    for call, code, out, want in zip(calls, rep["exit_codes"], out_dirs,
                                     expected["calls"]):
        if code != 0:
            failed += 1
            continue
        try:
            got = answers.discrete_answer(call["command"], out)
        except (OSError, KeyError, ValueError):
            failed += 1
            continue
        if json.loads(json.dumps(got)) != want:
            failed += 1
    try:
        value = answers.published_value(workload, out_dirs)
        err = answers.result_error(workload, value,
                                   expected["reference"]["value"])
    except (OSError, KeyError, ValueError):
        err = 1.0
    return failed, err


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def machine_info(load_at_start) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vmstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "blas_threads": {key: "1" for key in THREAD_ENV},
        "loadavg_at_start": list(load_at_start),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def metric_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str, expected: dict, work_root: Path, started: float):
    """Run the processes of one benchmark run.

    Returns the calls, the repetitions' results and the set-up samples.
    """
    instance = workloads.instance_for_seed(seed)
    calls = workloads.calls(workload, instance, size)

    def remaining() -> float:
        return RUN_LIMIT_S - (_monotonic() - started)

    counter = itertools.count()

    def start(mode: str, **kw) -> Worker:
        if remaining() <= 0.0:
            raise BenchError(f"out of time after {RUN_LIMIT_S:.0f} s")
        return Worker(calls, mode, work_root / f"p{next(counter)}", **kw)

    def process(mode: str) -> dict:
        return start(mode).result(remaining())

    process("setup")  # warm-up, not measured
    if trace:
        # side by side, so that both see the same load from the rest of
        # the machine; their wall-time difference is the tracing overhead
        pair = [start("run")]
        try:
            pair.append(start("trace", reference_blocks=expected[
                "reference"]["inf_blocks"]))
            return calls, [w.result(remaining()) for w in pair], []
        finally:
            for w in pair:
                w.stop()
    setups = [process("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    begin = _monotonic()
    while True:
        reps.append(process("run"))
        last = reps[-1]["process_s"]
        elapsed = _monotonic() - begin
        if elapsed + last > seconds or 1.5 * last > remaining():
            break
    return calls, reps, setups + [r["setup_s"] for r in reps]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny grids for the self-test")
    parser.add_argument("--expected", metavar="PATH", default=None,
                        help="expected-answer file to check against "
                             "instead of the committed one")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vmstab" / "cli.py").is_file():
        print(f"no vmstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = _monotonic()
    load_at_start = os.getloadavg()
    instance = workloads.instance_for_seed(args.seed)
    expected_file = Path(args.expected) if args.expected else \
        expected_path(args.size, args.workload, instance)
    expected = json.loads(expected_file.read_text())
    work_root = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    try:
        calls, reps, setups = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.size, expected,
                                      work_root, started)
        checks = [check_rep(args.workload, calls, r, expected) for r in reps]
        if args.trace:
            plain, traced = reps
            metrics = dict(traced["layers"])
            metrics["cli.artifact_bytes"] = traced["artifact_bytes"]
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            shutil.copy(Path(traced["work"]) / "trace.json",
                        out_root / f"trace-{args.workload}-seed{args.seed}"
                                   f".json")
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r["wall_s"] for r in reps),
                "cpu_s": statistics.median(r["cpu_s"] for r in reps),
                "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                                  for r in reps),
                "result_err": max(err for _, err in checks),
            }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    units = metric_units(args.trace)
    failed = sum(f for f, _ in checks)
    worst = max(err for _, err in checks)
    tolerance = workloads.ACCURACY_TOL[args.size]
    result = {
        "correct": failed == 0 and worst <= tolerance,
        "attempted": len(calls) * len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "instance": instance, "size": args.size,
              "trace": args.trace, "machine": machine_info(load_at_start),
              "calls": calls, "setup_samples": setups,
              "repetitions": [{k: v for k, v in r.items()
                               if k not in ("layers", "inf_blocks")}
                              for r in reps],
              "result_err": [err for _, err in checks], "result": result}
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"machine": record["machine"]}))
    for i, r in enumerate(reps):
        print(f"repetition {i}: wall {r['wall_s']:.3f} s, cpu "
              f"{r['cpu_s']:.3f} s, rss {r['peak_rss_mib']:.1f} MiB, "
              f"exit codes {r['exit_codes']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
