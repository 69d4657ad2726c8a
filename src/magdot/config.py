"""Line-oriented run configuration: `key = value` pairs, `#` comments.

Every physical parameter is scalar, so a flat diff-friendly format beats
nested ones.  Unknown keys, type mismatches and violated invariants raise
ConfigError with the offending line number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .model import ModelParams, ParameterError

__all__ = ["RunConfig", "ConfigError", "parse_config", "parse_sweep"]

ENV_OUT_DIR = "MAGDOT_OUTDIR"


class ConfigError(ValueError):
    def __init__(self, line: int | None, message: str):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class RunConfig:
    n_spins: int = 0                   # required
    temp_bath: float = 0.0             # required
    coupling_g: float = 0.0            # required (0 is legal; see g_given)
    coupling_j: float = 1.0
    gamma: float = 1e-3
    debye_cutoff: float = 100.0
    temp_init: float = math.inf
    m_offset: float = 0.0
    sector: str = "up"
    engine: str = "master"
    init: str = "exact-paramagnet"
    mode: str = "short-memory"
    times: list = field(default_factory=list)
    times_theta: list = field(default_factory=list)
    tol: float = 1e-9
    kernel_tol: float = 1e-8
    cells: int = 2000
    seed: int = 0
    trajectories: int = 10000
    p_wrong_bound: float = 1e-3
    g0: float = 0.0
    g_spread: float = 0.0
    r_up: float = 1.0
    workers: int = 1
    out_dir: str = ""
    sweep_axis: str = ""
    sweep_values: list = field(default_factory=list)

    def model_params(self) -> ModelParams:
        return ModelParams(
            n_spins=self.n_spins,
            temp_bath=self.temp_bath,
            coupling_g=self.coupling_g,
            coupling_j=self.coupling_j,
            temp_init=self.temp_init,
            gamma=self.gamma,
            debye_cutoff=self.debye_cutoff,
            sector=self.sector,
            m_offset=self.m_offset,
        )

    def resolve_times(self, theta: float) -> list:
        _check_times("times", self.times, None)  # command-line overrides too
        _check_times("times_theta", self.times_theta, None)
        if self.times:
            return list(self.times)
        return [x * theta for x in self.times_theta]


_KEY_MAP = {
    "N": ("n_spins", int),
    "T": ("temp_bath", float),
    "g": ("coupling_g", float),
    "J": ("coupling_j", float),
    "gamma": ("gamma", float),
    "Gamma": ("debye_cutoff", float),
    "T0": ("temp_init", float),
    "m0": ("m_offset", float),
    "sector": ("sector", str),
    "engine": ("engine", str),
    "init": ("init", str),
    "mode": ("mode", str),
    "times": ("times", "floatlist"),
    "times_theta": ("times_theta", "floatlist"),
    "tol": ("tol", float),
    "kernel_tol": ("kernel_tol", float),
    "cells": ("cells", int),
    "seed": ("seed", int),
    "trajectories": ("trajectories", int),
    "p_wrong_bound": ("p_wrong_bound", float),
    "g0": ("g0", float),
    "g_spread": ("g_spread", float),
    "r_up": ("r_up", float),
    "workers": ("workers", int),
    "out_dir": ("out_dir", str),
    "sweep": ("sweep", "sweep"),
}

_CHOICES = {
    "sector": ("up", "down"),
    "engine": ("master", "fp"),
    "init": ("exact-paramagnet", "gaussian"),
    "mode": ("short-memory", "full-memory"),
}


def _check_times(key: str, values: list, line: int | None) -> None:
    if not all(math.isfinite(x) and x >= 0.0 for x in values):
        raise ConfigError(line, f"{key} must be finite and >= 0")
    if any(b < a for a, b in zip(values, values[1:])):
        raise ConfigError(line, f"{key} must ascend")


def _parse_float(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _parse_value(kind, raw: str, lineno: int | None, key: str):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return _parse_float(raw)
        if kind is str:
            return raw.strip()
        if kind == "floatlist":
            return [_parse_float(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(lineno, f"cannot parse value {raw!r} for key {key!r}")
    raise AssertionError(kind)


def parse_sweep(spec: str, line: int | None) -> tuple[str, list]:
    """(axis, values) of a `key=v1,v2,...` sweep; errors name `line` unless None."""
    axis, _, vals = spec.partition("=")
    axis = axis.strip()
    if axis not in _KEY_MAP or axis == "sweep":
        raise ConfigError(line, f"unknown sweep axis {axis!r}")
    return axis, _parse_value("floatlist", vals, line, "sweep")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document."""
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected 'key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEY_MAP:
            raise ConfigError(lineno, f"unknown key {key!r}")
        attr, kind = _KEY_MAP[key]
        if key == "sweep":
            cfg.sweep_axis, cfg.sweep_values = parse_sweep(raw, lineno)
            seen.add("sweep")
            continue
        value = _parse_value(kind, raw, lineno, key)
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(
                lineno, f"{key} must be one of {_CHOICES[key]}, got {value!r}")
        # invariants checked against the line that sets the value
        if key == "N" and value < 2:
            raise ConfigError(lineno, f"invariant violated: N >= 2 (got {value})")
        if key == "T" and value <= 0:
            raise ConfigError(lineno, "invariant violated: T > 0")
        if key == "gamma" and value <= 0:
            raise ConfigError(lineno, "invariant violated: gamma > 0")
        if key == "Gamma" and value <= 0:
            raise ConfigError(lineno, "invariant violated: Gamma > 0")
        if key == "cells" and value < 100:
            raise ConfigError(lineno, "invariant violated: cells >= 100")
        if key == "tol" and not (0 < value):
            raise ConfigError(lineno, "invariant violated: tol > 0")
        if key == "seed" and value < 0:
            raise ConfigError(lineno, "invariant violated: seed >= 0")
        if key in ("times", "times_theta"):
            _check_times(key, value, lineno)
        setattr(cfg, attr, value)
        seen.add(key)

    for required in ("N", "T", "g"):
        if required not in seen:
            raise ConfigError(None, f"missing required key {required!r}")
    if cfg.times and cfg.times_theta:
        raise ConfigError(None, "give either times or times_theta, not both")
    if not math.isinf(cfg.temp_init) and cfg.temp_init <= cfg.coupling_j:
        raise ConfigError(None, "invariant violated: finite T0 must exceed J")
    if not cfg.out_dir:
        cfg.out_dir = os.environ.get(ENV_OUT_DIR, ".")
    try:
        cfg.model_params()
    except ParameterError as exc:
        raise ConfigError(None, str(exc)) from exc
    return cfg
