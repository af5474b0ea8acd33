"""Regenerate the committed expected answers and quarter-step references.

    python3 perfbench/regen.py --size full --workload verdict-well \
        --instance 0 1

For each workload and instance, one repetition runs at the workload's
step and one traced repetition at a quarter of it.  The discrete answers
of the two must agree, or nothing is written: they become the expected
answers.  The quarter-step run's published value and its T = inf
operator blocks become the reference.  Each pair is written to
expected/<size>-<workload>-<instance>.json.  The full size takes about
six minutes per instance on one core, most of it in crossing-well.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import answers
import run
import workloads


def regenerate(size: str, workload: str, instance: int, work: Path) -> dict:
    found = {}
    for label, scale, mode in (("step", 1.0, "run"),
                               ("reference", 0.25, "trace")):
        calls = workloads.calls(workload, instance, size, dt_scale=scale)
        rep = run.Worker(calls, mode, work / label).result(timeout=3600.0)
        if any(rep["exit_codes"]):
            raise SystemExit(f"{workload} {label} run exited with "
                             f"{rep['exit_codes']}")
        outs = [Path(p) for p in rep["out_dirs"]]
        found[label] = {
            "calls": [answers.discrete_answer(c["command"], out)
                      for c, out in zip(calls, outs)],
            "value": answers.published_value(workload, outs),
            "inf_blocks": rep.get("inf_blocks"),
        }
    step, ref = found["step"], found["reference"]
    if json.dumps(step["calls"]) != json.dumps(ref["calls"]):
        raise SystemExit(f"{workload} instance {instance}: discrete answers "
                         f"differ between step and quarter step:\n"
                         f"{step['calls']}\n{ref['calls']}")
    dt = workloads.step(size, workload)
    return {
        "workload": workload, "instance": instance, "size": size,
        "step": dt, "reference_step": 0.25 * dt,
        "calls": step["calls"],
        "reference": {"value": ref["value"],
                      "inf_blocks": ref["inf_blocks"][0]},
        "result_err_at_step": answers.result_error(workload, step["value"],
                                                   ref["value"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--instance", nargs="+", type=int,
                        choices=workloads.INSTANCES,
                        default=list(workloads.INSTANCES))
    args = parser.parse_args(argv)
    work = run.ROOT / ".bench_work" / f"regen-{os.getpid()}"
    try:
        for workload in args.workload:
            for instance in args.instance:
                data = regenerate(args.size, workload, instance,
                                  work / f"{workload}-{instance}")
                path = run.expected_path(args.size, workload, instance)
                path.parent.mkdir(exist_ok=True)
                path.write_text(json.dumps(data, indent=1) + "\n")
                print(f"wrote {path.relative_to(run.ROOT)}: result_err "
                      f"{data['result_err_at_step']:.3e}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
