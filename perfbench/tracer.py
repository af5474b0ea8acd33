"""Spans and counters recorded around `vmstab`'s public functions.

`install()` replaces module attributes with timing wrappers, so it runs
only in a traced worker process and leaves the program's files alone.
Each wrapper records a span (name, start, end, parent) in memory; a span
is named after the module that defines the function, which is its layer.
The `make_stepper` wrappers count step calls and batch widths and time
each step without recording a span per step.  A few return values are
kept so that accuracy metrics can be computed after the timed region.

A span's self time is its duration minus the time its direct children
cover, so the self times under each root `cli.main` span add up to the
root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

clock = time.perf_counter

# (module, attribute, span name); span names are "<layer>.<function>"
_WRAPPED = [
    ("cli", "main", "cli.main"),
    ("cli", "preset_equilibrium", "equilibrium.preset_equilibrium"),
    ("cli", "assemble", "operators.assemble"),
    ("cli", "check_criterion", "spectrum.check_criterion"),
    ("cli", "infinity_count_identity", "spectrum.infinity_count_identity"),
    ("cli", "sweep", "spectrum.sweep"),
    ("cli", "find_crossing", "spectrum.find_crossing"),
    ("cli", "orbit_summary", "averaging.orbit_summary"),
    ("cli", "weighted_eigs", "ergodic_lab.weighted_eigs"),
    ("cli", "weighted_norm_series", "ergodic_lab.weighted_norm_series"),
    ("cli", "l2sigma_norm_series", "ergodic_lab.l2sigma_norm_series"),
    ("cli", "ergodic_norm_L2sigma", "ergodic_lab.ergodic_norm_L2sigma"),
    ("cli", "projector_demo", "ergodic_lab.projector_demo"),
    ("spectrum", "assemble", "operators.assemble"),
    ("spectrum", "truncate", "operators.truncate"),
    ("spectrum", "crossing_search", "spectrum.crossing_search"),
    ("spectrum", "reconstruct_mode", "spectrum.reconstruct_mode"),
    ("spectrum", "apply_QT_points", "averaging.apply_QT_points"),
    ("operators", "average_symbol_pack", "averaging.average_symbol_pack"),
    ("averaging", "orbit_summary", "averaging.orbit_summary"),
    ("averaging", "orbit_table", "trajectories.orbit_table"),
]
_STEPPER_MODULES = ("averaging", "trajectories", "spectrum")

# names whose results feed the accuracy metrics
_KEEP = {"operators.assemble", "operators.truncate",
         "spectrum.check_criterion", "spectrum.crossing_search",
         "spectrum.find_crossing", "averaging.average_symbol_pack",
         "trajectories.orbit_table", "ergodic_lab.weighted_norm_series"}


class Tracer:
    """In-memory spans, step counters and kept results of one process."""

    def __init__(self):
        self.spans: List[list] = []      # [name, start, end, parent]
        self.stack: List[int] = []
        # innermost span name -> [step calls, node-steps, seconds]
        self.steps: Dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        self.kept: List[tuple] = []      # (span index, args, result)

    def wrap(self, fn, name: str):
        spans, stack, kept = self.spans, self.stack, self.kept
        keep = name in _KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                kept.append((index, args, result))
            return result

        return traced

    def wrap_make_stepper(self, make_stepper):
        spans, stack, steps = self.spans, self.stack, self.steps

        @functools.wraps(make_stepper)
        def counting_make_stepper(*args, **kwargs):
            step = make_stepper(*args, **kwargs)

            def counted(Y, h):
                t0 = clock()
                out = step(Y, h)
                elapsed = clock() - t0
                tally = steps[spans[stack[-1]][0] if stack else "-"]
                tally[0] += 1
                tally[1] += Y.shape[1]
                tally[2] += elapsed
                return out

            return counted

        return counting_make_stepper


def install() -> Tracer:
    """Wrap every traced attribute of the `vmstab` modules in place."""
    import importlib

    tracer = Tracer()
    for mod_name, attr, name in _WRAPPED:
        module = importlib.import_module(f"vmstab.{mod_name}")
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    for mod_name in _STEPPER_MODULES:
        module = importlib.import_module(f"vmstab.{mod_name}")
        module.make_stepper = tracer.wrap_make_stepper(module.make_stepper)
    return tracer


# ---------------------------------------------------------------------------
# after the timed region


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _sum_self(spans, own, names, where=None) -> float:
    return float(sum(t for i, (s, t) in enumerate(zip(spans, own))
                     if s[0] in names and (where is None or where(i))))


def _count(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def _margin(matrix) -> float:
    """Smallest |lambda| / eps_zero over eigenvalues outside the zero band."""
    from vmstab.spectrum import zero_threshold
    eps = zero_threshold(matrix)
    mags = np.abs(np.linalg.eigvalsh(matrix))
    mags = mags[mags > eps]
    return float(np.min(mags) / eps) if mags.size and eps > 0 else np.inf


def _free_streaming_error(args, result):
    """Max relative error and bound/error ratio of a zero-field pack.

    With zero fields the backward average of z^k = e^{ik w x} is exactly
    e^{ik w x} / (1 + ik w vhat1 T), the vhat2 z^k rows carry the same
    factor, and the vhat1 row is invariant.
    """
    pack, T, grid = args[0], args[1], args[2]
    g = np.sqrt(1.0 + grid.V1 ** 2 + grid.V2 ** 2)
    vh1, vh2 = grid.V1 / g, grid.V2 / g
    omega = 2.0 * np.pi / pack.period
    k = np.arange(pack.k_max + 1)[:, None]
    zk = np.exp(1j * omega * k * grid.X) / (1.0 + 1j * omega * k * vh1 * T)
    rows = [zk]
    if pack.with_v2:
        rows.append(zk * vh2)
    if pack.with_v1:
        rows.append(vh1[None, :])
    expected = np.concatenate(rows, axis=0).astype(complex)
    err = np.abs(result.values - expected)
    rel = float(np.max(err[:pack.k_max + 1] / np.abs(zk)))
    bound = result.quad_bound + result.tail_bound
    return rel, bound / float(np.max(err))


def layer_metrics(tracer: Tracer, reference_blocks=None) -> Dict[str, float]:
    """Per-layer metrics from the spans, step counters and kept results.

    reference_blocks holds the quarter-step T = inf blocks (A1_full, A2,
    B, l) for operators.entry_err.inf, or None to report 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    m: Dict[str, float] = {}

    # trajectories
    calls = sum(t[0] for t in tracer.steps.values())
    node_steps = sum(t[1] for t in tracer.steps.values())
    step_s = sum(t[2] for t in tracer.steps.values())
    tables = [r for i, a, r in tracer.kept
              if spans[i][0] == "trajectories.orbit_table"]
    nodes = sum(r.found.size for r in tables)
    closed = sum(int(np.sum(r.found)) for r in tables)
    taus = np.concatenate([r.tau[r.found] for r in tables]) if tables \
        else np.zeros(0)
    m["trajectories.orbit_table_s"] = _sum_self(
        spans, own, {"trajectories.orbit_table"})
    m["trajectories.orbit_table_calls"] = len(tables)
    m["trajectories.orbits_closed_share"] = closed / nodes if nodes else 0.0
    m["trajectories.tau_median"] = float(np.median(taus)) if taus.size else 0.0
    m["trajectories.tau_max"] = float(np.max(taus)) if taus.size else 0.0
    m["trajectories.step_calls"] = calls
    m["trajectories.node_steps"] = node_steps
    m["trajectories.mean_batch"] = node_steps / calls if calls else 0.0
    m["trajectories.step_s"] = step_s
    m["trajectories.ns_per_node_step"] = (1e9 * step_s / node_steps
                                         if node_steps else 0.0)

    # averaging
    packs = [(i, a, r) for i, a, r in tracer.kept
             if spans[i][0] == "averaging.average_symbol_pack"]
    pack_names = {"averaging.average_symbol_pack"}
    inf_packs = {i for i, a, _ in packs if np.isinf(a[1])}
    m["averaging.pack_s.finite"] = _sum_self(
        spans, own, pack_names, lambda i: i not in inf_packs)
    m["averaging.pack_s.inf"] = _sum_self(
        spans, own, pack_names, lambda i: i in inf_packs)
    m["averaging.pack_calls.finite"] = sum(
        1 for _, a, _ in packs if not np.isinf(a[1]))
    m["averaging.pack_calls.inf"] = sum(1 for _, a, _ in packs
                                        if np.isinf(a[1]))
    pack_nodes = tracer.steps["averaging.average_symbol_pack"][1] \
        if "averaging.average_symbol_pack" in tracer.steps else 0
    m["averaging.pack_step_share"] = (pack_nodes / node_steps
                                      if node_steps else 0.0)
    summaries = _count(spans, "averaging.orbit_summary")
    m["averaging.orbit_cache_hit_share"] = (
        (summaries - len(tables)) / summaries if summaries else 0.0)
    m["averaging.points_s"] = _sum_self(spans, own,
                                        {"averaging.apply_QT_points"})
    m["averaging.points_calls"] = _count(spans, "averaging.apply_QT_points")
    m["averaging.quad_bound_max"] = max(
        [r.quad_bound for _, _, r in packs], default=0.0)
    m["averaging.tail_bound_max"] = max(
        [r.tail_bound for _, _, r in packs], default=0.0)
    m["averaging.fallback_nodes"] = nodes - closed
    oracle = [_free_streaming_error(a, r) for _, a, r in packs
              if not np.isinf(a[1]) and a[4].is_zero]
    m["averaging.oracle_err"] = max((o[0] for o in oracle), default=0.0)
    m["averaging.bound_over_err"] = min((o[1] for o in oracle), default=0.0)

    # operators
    ops = [r for i, a, r in tracer.kept if spans[i][0] == "operators.assemble"]
    m["operators.assemble_s"] = _sum_self(spans, own, {"operators.assemble"})
    m["operators.assemble_calls.finite"] = sum(1 for o in ops
                                               if not np.isinf(o.T))
    m["operators.assemble_calls.inf"] = sum(1 for o in ops if np.isinf(o.T))
    m["operators.truncate_s"] = _sum_self(spans, own, {"operators.truncate"})
    m["operators.truncate_calls"] = _count(spans, "operators.truncate")
    m["operators.asymmetry_max"] = max((o.asymmetry_residual for o in ops),
                                       default=0.0)
    m["operators.entry_err.inf"] = 0.0
    inf_ops = [o for o in ops if np.isinf(o.T)]
    if reference_blocks is not None and inf_ops:
        m["operators.entry_err.inf"] = max(
            entry_error(inf_blocks(o), reference_blocks) for o in inf_ops)

    # spectrum
    m["spectrum.criterion_s"] = _sum_self(
        spans, own, {"spectrum.check_criterion",
                     "spectrum.infinity_count_identity"})
    m["spectrum.sweep_s"] = _sum_self(spans, own, {"spectrum.sweep"})
    m["spectrum.crossing_s"] = _sum_self(spans, own,
                                         {"spectrum.crossing_search"})
    crossings = [r for i, a, r in tracer.kept
                 if spans[i][0] == "spectrum.crossing_search"]
    m["spectrum.crossing_probes"] = sum(r.evaluations for r in crossings)
    m["spectrum.crossing_by_eigenvalue"] = sum(
        1 for r in crossings if r.converged_by == "eigenvalue")
    m["spectrum.mode_s"] = _sum_self(
        spans, own, {"spectrum.find_crossing", "spectrum.reconstruct_mode"})
    m["spectrum.min_zero_margin"] = _min_zero_margin(tracer)
    reports = [r for i, a, r in tracer.kept
               if spans[i][0] == "spectrum.find_crossing"]
    m["spectrum.eigen_residual"] = max((r.eigen_residual for r in reports),
                                       default=0.0)
    m["spectrum.vlasov_residual"] = max(
        (r.mode.vlasov_residual for r in reports), default=0.0)

    # ergodic_lab
    m["ergodic_lab.eigs_s"] = _sum_self(spans, own,
                                        {"ergodic_lab.weighted_eigs"})
    m["ergodic_lab.weighted_series_s"] = _sum_self(
        spans, own, {"ergodic_lab.weighted_norm_series"})
    m["ergodic_lab.l2sigma_series_s"] = _sum_self(
        spans, own, {"ergodic_lab.l2sigma_norm_series",
                     "ergodic_lab.ergodic_norm_L2sigma"})
    m["ergodic_lab.projector_s"] = _sum_self(spans, own,
                                             {"ergodic_lab.projector_demo"})
    series = [r for i, a, r in tracer.kept
              if spans[i][0] == "ergodic_lab.weighted_norm_series"]
    m["ergodic_lab.slope_err"] = max(
        (abs(r[0].decay_fit_exponent + 1.0) for r in series), default=0.0)

    # equilibrium and cli
    m["equilibrium.build_s"] = _sum_self(
        spans, own, {"equilibrium.preset_equilibrium"})
    m["equilibrium.build_calls"] = _count(spans,
                                          "equilibrium.preset_equilibrium")
    m["cli.self_s"] = _sum_self(spans, own, {"cli.main"})
    return m


def _min_zero_margin(tracer: Tracer) -> float:
    """Closest approach of a counted eigenvalue to the zero band.

    Covers the truncations whose counts are published (sweep, count
    identity, and the two bracket ends of each crossing search) and the
    two matrices the criterion counts.  The secant probes of a crossing
    search are left out: they approach zero by design.
    """
    from vmstab.operators import schur_infty
    spans = tracer.spans
    margins = []
    seen_in_crossing: Dict[int, int] = defaultdict(int)
    for i, a, r in tracer.kept:
        name = spans[i][0]
        if name == "operators.truncate":
            crossing = _ancestor(spans, i, "spectrum.crossing_search")
            if crossing >= 0:
                seen_in_crossing[crossing] += 1
                if seen_in_crossing[crossing] > 2:
                    continue
            margins.append(_margin(r.M_n))
        elif name == "spectrum.check_criterion":
            ops_inf = a[0]
            margins.append(_margin(ops_inf.A1_full))
            margins.append(_margin(schur_infty(ops_inf)))
    finite = [x for x in margins if np.isfinite(x)]
    return min(finite) if finite else 0.0


def _ancestor(spans, index: int, name: str) -> int:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1


def inf_blocks(ops) -> Dict[str, list]:
    """The T = inf operator blocks that the reference comparison uses."""
    return {"A1_full": ops.A1_full.tolist(), "A2": ops.A2.tolist(),
            "B": ops.B.tolist(), "l": float(ops.l)}


def entry_error(blocks: Dict[str, list], reference: Dict[str, list]) -> float:
    """Largest entry deviation from the reference, over its largest entry."""
    got = np.concatenate([np.ravel(blocks[k]) for k in sorted(blocks)])
    ref = np.concatenate([np.ravel(reference[k]) for k in sorted(blocks)])
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
