"""Workload definitions: which `vmstab` CLI calls one repetition makes.

A workload is a fixed list of CLI calls run in one fresh process.  Its
inputs come from the seed through `instance_for_seed`: even seeds run the
base instance (the settings in README.md), odd seeds run the held-out
instance, whose species are perturbed slightly.  Both instances have
committed expected answers and quarter-step references under `expected/`.

`size="tiny"` shrinks every grid so the self-test finishes in seconds; the
benchmark itself always runs `size="full"`.
"""

from __future__ import annotations

from typing import Dict, List

WORKLOADS = ("verdict-well", "crossing-well", "free-tour")
INSTANCES = (0, 1)
SIZES = ("full", "tiny")

# The held-out instance shifts the species' p_shift by 0.1%.  That moves
# every answer but no orbit, since orbits depend on the fields alone: the
# step counts stay those of the base instance, and so does the erratic
# part of the averaging error (it depends on each orbit period modulo dt),
# which keeps result_err steady from seed to seed.
_P_SHIFT = {0: "2.0", 1: "2.002"}

_WELL = ["equilibrium.preset=weibel-well", "equilibrium.b_amp=0.4",
         "equilibrium.nx=16", "operators.sym_tol=0.3", "averaging.threads=1"]
_FREE = ["equilibrium.preset=bimaxwellian-pair", "equilibrium.nx=16",
         "operators.quad_nv=8", "operators.quad_v_max=7.5",
         "operators.n_x=8", "averaging.threads=1", "sweep.n=5",
         "sweep.T_grid=1e-3,1,inf"]

# the step each workload measures at; references use a quarter of it
_DT = {
    ("full", "verdict-well"): 5e-3,
    ("full", "crossing-well"): 1e-2,
    ("full", "free-tour"): 5e-3,
    ("tiny", "verdict-well"): 5e-2,
    ("tiny", "crossing-well"): 5e-2,
    ("tiny", "free-tour"): 5e-2,
}

# the largest result_err a correct run may show
ACCURACY_TOL = {"full": 1e-6, "tiny": 1e-4}

# tiny grids: 6 x-nodes instead of 8 (384 nodes per species, which still
# keeps one crossing in the well's bracket), coarse steps, coarser
# first-return detection and shorter finite-horizon windows
_TINY = ["operators.n_x=6", "averaging.orbit_dt=0.1",
         "averaging.epsilon_tail=1e-5"]
_TINY_ERGODIC = ["ergodic.N=64", "ergodic.T_points=41",
                 "ergodic.l2sigma_points=4"]


def instance_for_seed(seed: int) -> int:
    """The committed instance a seed runs: 0 for even seeds, 1 for odd."""
    return seed % len(INSTANCES)


def step(size: str, workload: str) -> float:
    return _DT[(size, workload)]


def _call(command: str, overrides: List[str]) -> Dict[str, object]:
    return {"command": command, "overrides": list(overrides)}


def calls(workload: str, instance: int, size: str = "full",
          dt_scale: float = 1.0) -> List[Dict[str, object]]:
    """The CLI calls of one repetition, each as a command and overrides.

    dt_scale multiplies averaging.dt only; the reference runs use 0.25.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if instance not in INSTANCES or size not in SIZES:
        raise ValueError(f"unknown instance {instance!r} or size {size!r}")
    dt = [f"averaging.dt={step(size, workload) * dt_scale!r}"]
    tiny = _TINY if size == "tiny" else []
    species = [f"equilibrium.p_shift={_P_SHIFT[instance]}"]
    if workload == "verdict-well":
        return [_call("criterion", _WELL + species + dt + tiny)]
    if workload == "crossing-well":
        return [_call("mode", _WELL + species + dt + tiny)]
    free = _FREE + species + dt + tiny
    ergodic = ["ergodic.case=all"] + (_TINY_ERGODIC if size == "tiny" else [])
    return [_call("criterion", free), _call("sweep", free),
            _call("ergodic", ergodic)]
