"""Published answers read back from the artifacts of each CLI call.

`discrete_answer` returns what must match the committed expected answer
exactly: verdicts, counts, count identities, the small-T anchor, change
brackets, the crossing counts with T0 inside the bracket, and the ergodic
slopes inside the acceptance audit's checks 9 and 10.  `published_value`
returns the continuous answer that `result_err` compares with the
committed quarter-step reference.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List

import numpy as np


def _criterion(out: Path) -> dict:
    data = json.loads((out / "criterion.json").read_text())
    crit = data["criterion"]
    identities = []
    for item in data["count_identities"]:
        if "skipped" in item:
            identities.append({"n": item["n"], "skipped": True})
        else:
            identities.append({"n": item["n"], "direct": item["direct"],
                               "holds": item["direct"] == item["formula"]})
    return {"unstable_predicted": crit["unstable_predicted"],
            "counts": {k: crit[k] for k in (
                "kernel_dim", "kernel_is_constant", "condition_i",
                "neg_schur", "neg_a1", "l_positive", "lhs", "rhs")},
            "count_identities": identities}


def _sweep(out: Path) -> dict:
    data = json.loads((out / "sweep.json").read_text())
    return {"counts": data["counts"],
            "anchor_holds": data["counts"][0] == data["anchor_expected"],
            "change_brackets": [[b["T_low"], b["T_high"], b["count_low"],
                                 b["count_high"]]
                                for b in data["change_brackets"]]}


def _mode(out: Path) -> dict:
    data = json.loads((out / "mode.json").read_text())
    echo = dict(line.split(" = ", 1) for line in
                (out / "resolved_config.txt").read_text().splitlines())
    lo, hi = float(echo["mode.bracket_lo"]), float(echo["mode.bracket_hi"])
    return {"count_low": data["count_low"], "count_high": data["count_high"],
            "T0_in_bracket": lo <= data["T0"] <= hi}


def _ergodic(out: Path) -> dict:
    # acceptance check 9: weighted slope within -1 +/- 0.05; check 10:
    # L2-sigma slope <= -1/3 + 0.05, final norm < 0.05, control >= 0.9
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    with open(out / "l2sigma_norms.csv") as fh:
        controls = [float(r["control_norm"]) for r in csv.DictReader(fh)]
    return {"weighted_slope_ok":
            abs(extras["weighted_fitted_slope"] + 1.0) <= 0.05,
            "l2sigma_slope_ok":
            extras["l2sigma_fitted_slope"] <= -1.0 / 3.0 + 0.05,
            "l2sigma_final_ok": extras["l2sigma_final_norm"] < 0.05,
            "control_ok": min(controls) >= 0.9}


def discrete_answer(command: str, out: Path) -> dict:
    if command == "criterion":
        return _criterion(out)
    if command == "sweep":
        return _sweep(out)
    if command == "mode":
        return _mode(out)
    if command == "ergodic":
        return _ergodic(out)
    raise ValueError(f"no answer defined for command {command!r}")


def published_value(workload: str, out_dirs: List[Path]):
    """The continuous answer of a workload, as JSON-ready numbers."""
    if workload == "verdict-well":
        data = json.loads((out_dirs[0] / "criterion.json").read_text())
        return data["criterion"]["l_inf"]
    if workload == "crossing-well":
        return json.loads((out_dirs[0] / "mode.json").read_text())["T0"]
    with open(out_dirs[1] / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    return [[float(v) for k, v in row.items() if k.startswith("lambda_")]
            for row in rows]


def result_error(workload: str, value, reference) -> float:
    """Relative deviation of a published answer from its reference.

    For the sweep, each horizon's largest eigenvalue deviation is divided
    by that horizon's largest eigenvalue magnitude, and the worst horizon
    is reported.
    """
    if workload in ("verdict-well", "crossing-well"):
        return abs(value - reference) / abs(reference)
    return max(float(np.max(np.abs(np.subtract(got, ref)))
                     / np.max(np.abs(ref)))
               for got, ref in zip(value, reference))
