"""Line-oriented run configuration: `key = value` pairs, `#` comments.

Every physical parameter is scalar, so a flat diff-friendly format beats
nested ones.  `_KEY_MAP` is the one place a key's field, parser and domain
live.  Unknown keys, type mismatches and violated invariants raise
ConfigError with the offending line number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

from .fokker_planck import MAX_CELLS
from .model import ModelParams, ParameterError

__all__ = ["RunConfig", "ConfigError", "parse_config", "parse_sweep", "set_key",
           "sweep_configs"]

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
    coupling_g: float = 0.0            # required; 0 is legal
    coupling_j: float = 1.0
    gamma: float = 1e-3
    debye_cutoff: float = 100.0
    temp_init: float = math.inf
    m_offset: float = 0.0
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
    r_up: float = 1.0
    workers: int = 1
    out_dir: str = ""
    sweep_axis: str = ""
    sweep_values: list = field(default_factory=list)

    def model_params(self) -> ModelParams:
        """The model fields, named alike here; delta0 follows from temp_init."""
        return ModelParams(**{f.name: getattr(self, f.name) for f in fields(ModelParams)
                              if f.name != "delta0"})


# key: (RunConfig field, parser[, domain test, its text]).  The parser is int,
# float, str, "floatlist", "sweep" or the tuple of words the key may take; a
# domain is the range that ModelParams, SpinState, evolve or FPConfig would
# enforce later, checked where the line is read.
_KEY_MAP = {
    "N": ("n_spins", int, lambda v: v >= 2, "N >= 2"),
    "T": ("temp_bath", float, lambda v: v > 0, "T > 0"),
    "g": ("coupling_g", float),
    "J": ("coupling_j", float),
    "gamma": ("gamma", float, lambda v: v > 0, "gamma > 0"),
    "Gamma": ("debye_cutoff", float, lambda v: v > 0, "Gamma > 0"),
    "T0": ("temp_init", float),
    "m0": ("m_offset", float, lambda v: -1 <= v <= 1, "-1 <= m0 <= 1"),
    "engine": ("engine", ("master", "fp")),
    "init": ("init", ("exact-paramagnet", "gaussian")),
    "mode": ("mode", ("short-memory", "full-memory")),
    "times": ("times", "floatlist"),
    "times_theta": ("times_theta", "floatlist"),
    "tol": ("tol", float, lambda v: v > 0, "tol > 0"),
    "kernel_tol": ("kernel_tol", float, lambda v: 0 < v <= 1e-2, "0 < kernel_tol <= 1e-2"),
    "cells": ("cells", int, lambda v: 100 <= v <= MAX_CELLS,
              f"cells >= 100 and <= {MAX_CELLS}"),
    "seed": ("seed", int, lambda v: 0 <= v < 2**64, "seed >= 0 and < 2**64"),
    "trajectories": ("trajectories", int, lambda v: 1 <= v < 2**63,
                     "trajectories >= 1 and < 2**63"),
    "p_wrong_bound": ("p_wrong_bound", float, lambda v: v > 0, "p_wrong_bound > 0"),
    "g0": ("g0", float),
    "r_up": ("r_up", float, lambda v: 0 <= v <= 1, "0 <= r_up <= 1"),
    "workers": ("workers", int, lambda v: v >= 1, "workers >= 1"),
    "out_dir": ("out_dir", str),
    "sweep": ("sweep", "sweep"),
}


def _check_times(key: str, values: list, line: int | None) -> None:
    if not all(math.isfinite(x) and x >= 0.0 for x in values):
        raise ConfigError(line, f"{key} must be finite and >= 0")
    if any(b < a for a, b in zip(values, values[1:])):
        raise ConfigError(line, f"{key} must ascend")


def _parse_value(kind, raw: str, lineno: int | None, key: str):
    try:
        if kind is int or kind is float:
            return kind(raw)
        if kind is str or isinstance(kind, tuple):
            return raw.strip()
        if kind == "floatlist":
            return [float(x) for x in raw.split(",") if x.strip()]
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


def set_key(cfg: RunConfig, key: str, raw: str, lineno: int | None) -> None:
    """Parse `key = raw` into cfg; errors and the key's own invariants name
    lineno.  Every float is finite but T0, which may be +inf (a full quench)."""
    attr, kind, *domain = _KEY_MAP[key]
    value = _parse_value(kind, raw, lineno, key)
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(lineno, f"{key} must be one of {kind}, got {value!r}")
    if kind is float and not math.isfinite(value) and (key, value) != ("T0", math.inf):
        allowed = "finite or inf" if key == "T0" else "finite"
        raise ConfigError(lineno, f"{key} must be {allowed}, got {value}")
    if domain and not domain[0](value):
        raise ConfigError(lineno, f"invariant violated: {domain[1]} (got {value})")
    if kind == "floatlist":
        _check_times(key, value, lineno)
    setattr(cfg, attr, value)


def _check_joint(cfg: RunConfig) -> None:
    """Invariants that tie keys together; their errors name no line."""
    if cfg.times and cfg.times_theta:
        raise ConfigError(None, "give either times or times_theta, not both")
    if not math.isinf(cfg.temp_init) and cfg.temp_init <= cfg.coupling_j:
        raise ConfigError(None, "invariant violated: finite T0 must exceed J")
    try:
        cfg.model_params()
    except ParameterError as exc:
        raise ConfigError(None, str(exc)) from exc


def sweep_configs(cfg: RunConfig, axis: str, values: list,
                  line: int | None) -> list[RunConfig]:
    """One copy of cfg per sweep value, with `axis` set to it and validated.

    An invalid value raises ConfigError naming the value, and `line`, the
    config's `sweep =` line, unless it is None.
    """
    cfgs = []
    for v in values:
        try:
            c = replace(cfg)
            set_key(c, axis, "%.17g" % v, None)  # 17 digits read back to v
            _check_joint(c)
        except ConfigError as exc:
            raise ConfigError(line, f"sweep value {axis}={v:g}: {exc}") from None
        cfgs.append(c)
    return cfgs


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document, sweep values included."""
    cfg = RunConfig()
    seen: set[str] = set()
    sweep_line = None
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
        if key == "sweep":
            cfg.sweep_axis, cfg.sweep_values = parse_sweep(raw, lineno)
            sweep_line = lineno
        else:
            set_key(cfg, key, raw, lineno)
        seen.add(key)

    for required in ("N", "T", "g"):
        if required not in seen:
            raise ConfigError(None, f"missing required key {required!r}")
    if not cfg.out_dir:
        cfg.out_dir = os.environ.get(ENV_OUT_DIR, ".")
    _check_joint(cfg)
    if sweep_line is not None:
        sweep_configs(cfg, cfg.sweep_axis, cfg.sweep_values, sweep_line)
    return cfg
