"""Self-test of the benchmark at tiny size: `python3 perfbench/selftest.py`.

For every workload it checks that
- a --trace 0 run and a --trace 1 run are correct and emit exactly the
  metrics BENCHMARK.json names, each with its declared unit;
- two --trace 1 runs report identical work counters;
- the span self times of the traced run add up to its traced wall time;
- a deliberately wrong expected answer raises `failed`.
Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

COUNTERS = (
    "trajectories.step_calls", "trajectories.node_steps",
    "trajectories.orbit_table_calls", "trajectories.orbits_closed_share",
    "averaging.fallback_nodes", "averaging.pack_calls.finite",
    "averaging.pack_calls.inf", "averaging.points_calls",
    "operators.assemble_calls.finite", "operators.assemble_calls.inf",
    "operators.truncate_calls", "spectrum.crossing_probes",
    "equilibrium.build_calls",
)


def bench(workload: str, seed: int, trace: int, expected=None) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    if expected is not None:
        argv += ["--expected", str(expected)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, seed: int, trace: int) -> dict:
    path = run.ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _wrong(expected: dict) -> dict:
    """A copy of an expected-answer file with its first answer changed."""
    bad = json.loads(json.dumps(expected))
    first = bad["calls"][0]
    key = next(iter(first))
    value = first[key]
    first[key] = (not value) if isinstance(value, bool) else [value]
    return bad


def main() -> int:
    problems = []

    def check(ok: bool, what: str) -> None:
        print(("ok      " if ok else "FAILED  ") + what, flush=True)
        if not ok:
            problems.append(what)

    scratch = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                out = bench(workload, 1, trace)
                units = run.metric_units(trace)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                check(got == units, f"{workload} --trace {trace}: every "
                      f"metric emitted once with its unit")
                check(out["correct"] and out["failed"] == 0
                      and out["attempted"] >= 1,
                      f"{workload} --trace {trace}: correct, 0 failed")
            traced = _record(workload, 1, 1)["repetitions"][1]
            check(abs(traced["self_time_sum_s"] - traced["root_span_s"])
                  <= 1e-6 * traced["root_span_s"]
                  and traced["root_span_s"] <= traced["wall_s"]
                  and traced["root_span_s"] >= 0.99 * traced["wall_s"],
                  f"{workload}: self times add up to the traced wall time")
            again = bench(workload, 1, 1)["metrics"]
            counters_a = {k: out["metrics"][k]["value"] for k in COUNTERS}
            counters_b = {k: again[k]["value"] for k in COUNTERS}
            check(counters_a == counters_b,
                  f"{workload}: work counters repeat exactly")
            instance = workloads.instance_for_seed(1)
            expected = json.loads(run.expected_path(
                "tiny", workload, instance).read_text())
            wrong = scratch / f"{workload}-wrong.json"
            wrong.write_text(json.dumps(_wrong(expected)))
            out = bench(workload, 1, 0, expected=wrong)
            check(out["failed"] >= 1 and not out["correct"],
                  f"{workload}: a wrong expected answer raises failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
