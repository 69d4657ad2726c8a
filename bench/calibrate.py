"""Machine-speed probe that the benchmark's CPU times are scaled by.

On a shared VM the time one piece of work takes drifts in two ways.  The
host deschedules the VM's cores (steal time): that inflates wall-clock time
but not the process's CPU time, so the benchmark measures CPU time.  And
neighbours slow a core down while it runs, by up to a factor of two over
minutes: that inflates CPU time too, and this probe tracks it.

`drift.json` holds series of identical small master, KMC and
kernel-quadrature timings, each taken beside the probe.  A series' summary
gives, for 25 s windows, the quartile spread of the window medians as a
share of their median: wall-clock, CPU time, and CPU time divided by the
probe.  Add a 300 s series with

    python3 bench/calibrate.py

The probe does a fixed mix of the operations the solvers spend their time
in, uses numpy only, and never calls magdot, so a change to magdot cannot
move it.  Its arrays are short (at most 4096 elements), so it adds nothing
to the peak memory of a process that also runs a solver.  A time t measured
while the probe takes c seconds is reported as t * REFERENCE_S / c: seconds
on a machine where the probe takes REFERENCE_S.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

# a round figure near the probe's time on the 2-core Xeon VM the baseline
# was taken on
REFERENCE_S = 0.25

DRIFT_FILE = Path(__file__).resolve().parent / "drift.json"
SERIES_S = 300.0    # length of one drift series
WINDOW_S = 25.0     # the benchmark's run_seconds


def probe() -> float:
    """CPU seconds spent on the fixed operation mix."""
    rng = np.random.default_rng(0)
    up = np.linspace(0.1, 1.0, 1001)
    down = up[::-1].copy()
    x = np.linspace(-50.0, 50.0, 4096) + 1e-3
    start = process_time()
    # small-array stencil steps, as in the explicit master and FP integrators
    p = np.full(1001, 1e-3)
    for _ in range(8000):
        dp = -(up + down) * p
        dp[1:] += up[:-1] * p[:-1]
        dp[:-1] += down[1:] * p[1:]
        p = p + 1e-3 * dp
    # gathers and random draws on a block of walkers, as in the KMC sampler
    k = rng.integers(0, 1001, 4096)
    for _ in range(800):
        rng.standard_exponential(4096) / up[k]
        k = np.clip(k + np.where(rng.random(4096) < 0.5, 1, -1), 0, 1000)
    # special functions on short arrays, as in the windowed-kernel quadrature
    for _ in range(640):
        (np.exp(-np.abs(x) / 100.0) * x / np.expm1(x) * np.sinc(x)).sum()
    return process_time() - start


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    """Time fixed magdot units beside the probe and add the series to drift.json."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from magdot import bath, kmc, master, model

    pm = model.ModelParams(n_spins=200, temp_bath=0.65, coupling_g=0.05, debye_cutoff=1e6)
    tm = 0.5 * model.derived_scales(pm).theta
    init = master.initial_distribution(pm)
    pk = model.ModelParams(n_spins=100, temp_bath=0.65, coupling_g=0.05 * math.sqrt(10.0),
                           debye_cutoff=1e6)
    tk = 2.0 * model.derived_scales(pk).theta
    spec = bath.KernelSpec(0.65, 100.0)
    units = {
        "master": lambda: master.evolve(init, pm, tm),
        "kmc": lambda: kmc.sample_trajectories(pk, 2**14, tk, seed=1),
        "bath": lambda: [bath.windowed_spectral(spec, w, 2.0) for w in np.linspace(-1, 1, 50)],
    }

    rows = []
    start = time.monotonic()
    while time.monotonic() - start < SERIES_S:
        row = [time.monotonic() - start, probe()]
        walls = []
        for unit in units.values():
            t0, c0 = perf_counter(), process_time()
            unit()
            row.append(process_time() - c0)
            walls.append(perf_counter() - t0)
        rows.append(row + walls)

    windows: dict[int, list] = {}
    for row in rows:
        windows.setdefault(int(row[0] // WINDOW_S), []).append(row)
    summary = {}
    for i, name in enumerate(units, start=2):
        def window_spread(value) -> float:
            return spread([statistics.median(value(r) for r in w) for w in windows.values()])
        summary[name] = {"wall_spread": window_spread(lambda r: r[i + len(units)]),
                         "cpu_spread": window_spread(lambda r: r[i]),
                         "scaled_spread": window_spread(lambda r: r[i] / r[1]),
                         "wall_min_s": min(r[i + len(units)] for r in rows),
                         "wall_max_s": max(r[i + len(units)] for r in rows)}
        print(f"{name:7s} {WINDOW_S:.0f} s window medians: spread wall "
              f"{summary[name]['wall_spread']:.3f}, CPU {summary[name]['cpu_spread']:.3f}, "
              f"CPU probe-scaled {summary[name]['scaled_spread']:.3f}")
    series = {"command": "python3 bench/calibrate.py",
              "probe": "calibrate.probe", "clock": "CPU time; *_wall columns wall-clock",
              "window_s": WINDOW_S, "windows": len(windows), "summary": summary,
              "columns": ["t_s", "probe_s", *units, *(f"{u}_wall" for u in units)],
              "rows": [[float(f"{v:.5g}") for v in row] for row in rows]}
    record = json.loads(DRIFT_FILE.read_text()) if DRIFT_FILE.is_file() else {"series": []}
    record["series"].append(series)
    DRIFT_FILE.write_text(json.dumps(record) + "\n")
    print(f"added a series of {len(rows)} rows in {len(windows)} windows to {DRIFT_FILE}")


if __name__ == "__main__":
    main()
