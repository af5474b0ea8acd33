"""Run configuration: dotted key-value text files with a full echo.

A run is described by a flat table of dotted keys, every one of which has
a default; a config file or command-line override may set any of them and
nothing else.  Validation resolves the complete table, so the echo
written next to the artifacts is a byte-exact recipe for the run, and its
hash identifies the run in the manifest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError

COMMANDS = ("equilibrium", "criterion", "sweep", "mode", "ergodic", "demo")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_opt_float(text: str) -> Optional[float]:
    if text.strip().lower() in ("", "auto", "none"):
        return None
    return _parse_float(text)


def _parse_opt_int(text: str) -> Optional[int]:
    if text.strip().lower() in ("", "auto", "none"):
        return None
    return _parse_int(text)


def _parse_float_list(text: str) -> Tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(_parse_float(t) for t in items)


def _parse_int_list(text: str) -> Tuple[int, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ConfigError("expected a comma-separated list of integers")
    return tuple(_parse_int(t) for t in items)


def _parse_str(text: str) -> str:
    return text.strip()


def _choice(*options: str):
    def parse(text: str) -> str:
        value = text.strip()
        if value not in options:
            raise ConfigError(f"expected one of {options}, got {value!r}")
        return value
    return parse


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if value is None:
        return "auto"
    return str(value)


# one row per key: default value and parser; the table is the single
# source of truth for what a run can be told
_SCHEMA: Dict[str, Tuple[object, object]] = {
    "run.label": ("run", _parse_str),

    "equilibrium.preset": ("maxwellian-pair", _choice(
        "maxwellian-pair", "bimaxwellian-pair", "drifting-pair",
        "magnetic-well", "weibel-well")),
    "equilibrium.period": (2.0 * np.pi, _parse_float),
    "equilibrium.nx": (32, _parse_int),
    "equilibrium.nv": (None, _parse_opt_int),
    "equilibrium.v_max": (None, _parse_opt_float),
    "equilibrium.beta": (1.0, _parse_float),
    "equilibrium.amplitude": (1.0, _parse_float),
    "equilibrium.p_shift": (None, _parse_opt_float),
    "equilibrium.p_width": (None, _parse_opt_float),
    "equilibrium.b_amp": (None, _parse_opt_float),

    "operators.k_max": (2, _parse_int),
    "operators.n_x": (8, _parse_int),
    "operators.quad_nv": (8, _parse_int),
    "operators.quad_v_max": (7.5, _parse_float),
    "operators.sym_tol": (5e-2, _parse_float),

    "averaging.dt": (1e-3, _parse_float),
    "averaging.epsilon_tail": (1e-10, _parse_float),
    "averaging.drift_tol": (1e-8, _parse_float),
    "averaging.orbit_dt": (1e-2, _parse_float),
    "averaging.threads": (1, _parse_int),

    "sweep.n": (4, _parse_int),
    "sweep.T_grid": ((1e-3, 1e-2, 1e-1, 1.0, 10.0, np.inf),
                     _parse_float_list),
    "sweep.gap_tol": (1e-6, _parse_float),

    "mode.n": (2, _parse_int),
    "mode.bracket_lo": (0.6, _parse_float),
    "mode.bracket_hi": (1.0, _parse_float),
    "mode.fd_step": (1e-2, _parse_float),

    "ergodic.case": ("weighted", _choice("weighted", "l2sigma",
                                         "projector", "all")),
    "ergodic.beta": (0.0, _parse_float),
    "ergodic.sigma": (1.0, _parse_float),
    "ergodic.T_min": (10.0, _parse_float),
    "ergodic.T_max": (1e4, _parse_float),
    "ergodic.T_points": (201, _parse_int),
    "ergodic.l2sigma_points": (7, _parse_int),
    "ergodic.N": (256, _parse_int),
    "ergodic.L": (1e8, _parse_float),
    "ergodic.gamma": (2.0, _parse_float),
    "ergodic.projector_dim": (64, _parse_int),
    "ergodic.projector_cuts": ((4, 8, 16, 32), _parse_int_list),
}


@dataclass(frozen=True)
class ResolvedConfig:
    """Every key resolved to a typed value, plus its canonical echo."""

    values: Dict[str, object]
    source: str

    def __getitem__(self, key: str):
        return self.values[key]

    def echo(self) -> str:
        lines = [f"{k} = {_fmt(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()


def _validate_values(values: Dict[str, object]) -> None:
    checks = [
        ("equilibrium.nx", lambda v: v >= 4, "needs at least 4 nodes"),
        ("operators.k_max", lambda v: v >= 1, "must be at least 1"),
        ("operators.n_x", lambda v: v >= 2, "needs at least 2 nodes"),
        ("operators.quad_nv", lambda v: v >= 2, "needs at least 2 nodes"),
        ("operators.quad_v_max", lambda v: v > 0.0, "must be positive"),
        ("averaging.dt", lambda v: v > 0.0, "must be positive"),
        ("averaging.threads", lambda v: v >= 1, "must be at least 1"),
        ("sweep.n", lambda v: v >= 1, "must be at least 1"),
        ("mode.n", lambda v: v >= 1, "must be at least 1"),
        ("mode.fd_step", lambda v: v > 0.0, "must be positive"),
        ("ergodic.T_points", lambda v: v >= 2, "needs at least 2 points"),
        ("ergodic.l2sigma_points", lambda v: v >= 2, "needs at least 2 points"),
        ("ergodic.N", lambda v: v >= 16, "needs at least 16 points"),
        ("ergodic.L", lambda v: v > 0.0, "must be positive"),
        ("ergodic.gamma", lambda v: v > 0.0, "must be positive"),
        ("ergodic.sigma", lambda v: v >= 0.0, "must be nonnegative"),
        ("ergodic.projector_dim", lambda v: v >= 2, "needs dimension >= 2"),
    ]
    for key, ok, why in checks:
        if not ok(values[key]):
            raise ConfigError(f"{key} {why}, got {values[key]}")
    lo, hi = values["mode.bracket_lo"], values["mode.bracket_hi"]
    if not 0.0 < lo < hi:
        raise ConfigError(f"mode bracket must satisfy 0 < lo < hi, "
                          f"got ({lo}, {hi})")
    if not 0.0 < values["ergodic.T_min"] < values["ergodic.T_max"]:
        raise ConfigError("ergodic series needs 0 < T_min < T_max")


def _apply(values: Dict[str, object], key: str, raw: str, where: str) -> None:
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    parser = _SCHEMA[key][1]
    try:
        values[key] = parser(raw)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from None


def validate_config(path: Optional[str] = None,
                    overrides: Sequence[str] = ()) -> ResolvedConfig:
    """Resolve a config file plus overrides against the full default table.

    Files hold one `key = value` per line, with blank lines and
    #-comments ignored.  Overrides are `key=value` strings applied after
    the file.  Unknown keys and malformed values are rejected with their
    origin named.
    """
    values = {k: default for k, (default, _) in _SCHEMA.items()}
    source = "defaults"
    if path is not None:
        text = Path(path).read_text()
        source = str(path)
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                                  f"got {line!r}")
            key, raw = body.split("=", 1)
            _apply(values, key.strip(), raw.strip(), f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        _apply(values, key.strip(), raw.strip(), f"override {key.strip()!r}")
    _validate_values(values)
    return ResolvedConfig(values=values, source=source)


@dataclass(frozen=True)
class RunConfig:
    """One batch invocation: command, resolved table, and output target."""

    command: str
    resolved: ResolvedConfig
    out_dir: Path
    threads: int = 1
    emit_plots: bool = False
    overrides: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; "
                              f"choose from {COMMANDS}")
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, "
                              f"got {self.threads}")
