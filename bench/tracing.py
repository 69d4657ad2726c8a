"""Spans around calls into magdot's public functions, recorded by the benchmark.

`install` replaces each function listed in TRACED, in every loaded magdot
module that binds it, by a wrapper that records one span: name, start, end
and the index of the enclosing span.  Re-imported names are wrapped too, so
a call to `measurement.evolve` or `master.windowed_spectral` is recorded
under the function's home module.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import process_time

import numpy as np

# module -> public functions whose calls are recorded
TRACED = {
    "master": ("evolve", "transition_rates", "initial_distribution"),
    "fokker_planck": ("solve_fp", "gaussian_field"),
    "bath": ("windowed_spectral", "spectral_density"),
    "kmc": ("sample_trajectories",),
    "measurement": ("run_measurement",),
    "analytic": ("time_scales", "classify_regime"),
    "model": ("fixed_points", "derived_scales"),
    "config": ("parse_config",),
    "cli": ("command_surface",),
    "snapshots": ("write_long_csv",),
}


def _observe_evolve(counters, args, kwargs, result):
    counters["master.evolve.steps"] += result.n_steps
    counters["master.evolve.rejected"] += result.n_rejected
    start = args[0] if args else kwargs["dist"]
    drift = abs(result.final.total() - start.total())
    counters["master.mass_drift"] = max(counters["master.mass_drift"], drift)


def _observe_csv(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["snapshots.write_long_csv.bytes"] += os.path.getsize(path)


def _observe_kmc(counters, args, kwargs, result):
    counters["kmc.walkers"] += result.n_traj


OBSERVERS = {
    "master.evolve": _observe_evolve,
    "snapshots.write_long_csv": _observe_csv,
    "kmc.sample_trajectories": _observe_kmc,
}


def _array_bytes(obj, seen) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return _array_bytes(vars(obj), seen)
    return 0


def array_bytes(obj) -> int:
    """Bytes of the distinct numpy arrays reachable from obj, from their sizes."""
    return _array_bytes(obj, set())


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, process_time(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                self._stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            self.counters["arrays.result_bytes"] = max(
                self.counters["arrays.result_bytes"], array_bytes(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a magdot module binds it."""
        for mod_name in TRACED:
            importlib.import_module(f"magdot.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "magdot" or name.startswith("magdot."))]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"magdot.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str, origin: float) -> None:
        """Spans as JSON rows [name, start_s, end_s, parent], times from origin."""
        rows = [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)
