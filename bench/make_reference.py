"""Generate the committed references the benchmark gates compare against.

Run once, from the repository root, on a commit whose solvers are trusted:

    python3 bench/make_reference.py [workload ...]

Each reference is computed at tighter tolerances than the benchmark runs
with, and is written to bench/reference/<workload>.json together with the
command, git sha, and Python/numpy/scipy versions that produced it.
Re-running it on the code under test would defeat the gates; do so only
when the physics of a workload is meant to change.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as W  # noqa: E402
from magdot import cli, master, model  # noqa: E402
from run import git_sha  # noqa: E402

REF_TOL = 1e-11
REF_KERNEL_TOL = 1e-10
MEMORY_REF_STEP = 0.01  # hbar/J; full-memory rates are frozen over each step


def meta(how: str) -> dict:
    return {
        "command": "python3 bench/make_reference.py",
        "method": how,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "date": datetime.date.today().isoformat(),
    }


def registration() -> dict:
    p = model.ModelParams(**W.FIG1)
    theta = model.derived_scales(p).theta
    times = [f * theta for f in W.CAPTION_THETA]
    res = master.evolve(master.initial_distribution(p), p, times[-1],
                        snapshot_times=times, tol=REF_TOL)
    return {"meta": meta(f"master.evolve short-memory, tol={REF_TOL}"),
            "times_theta": list(W.CAPTION_THETA),
            "weights": [s.weights.tolist() for s in res.snapshots]}


def memory_onset() -> dict:
    p = model.ModelParams(**W.MEMORY)
    n = int(round(W.MEMORY_T_END / MEMORY_REF_STEP))
    stops = [W.MEMORY_T_END * k / n for k in range(1, n + 1)]
    res = master.evolve(master.initial_distribution(p), p, W.MEMORY_T_END,
                        mode="full-memory", tol=REF_TOL, kernel_tol=REF_KERNEL_TOL,
                        snapshot_times=stops)
    return {"meta": meta(f"master.evolve full-memory, tol={REF_TOL}, kernel_tol="
                         f"{REF_KERNEL_TOL}, rates rebuilt every {MEMORY_REF_STEP}"),
            "t_end": W.MEMORY_T_END, "steps": res.n_steps,
            "weights": res.final.weights.tolist()}


def kmc_ensemble() -> dict:
    p = model.ModelParams(**W.KMC)
    t_end = W.KMC_T_THETA * model.derived_scales(p).theta
    res = master.evolve(master.initial_distribution(p), p, t_end, tol=REF_TOL)
    return {"meta": meta(f"master.evolve short-memory, tol={REF_TOL}"),
            "t_end": t_end, "weights": res.final.weights.tolist()}


def measure_sweep() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "sweep.cfg")
        with open(cfg, "w") as fh:
            fh.write(W.SWEEP_CONFIG + f"tol = {REF_TOL}\n")
        code = cli.command_surface(["sweep", "-c", cfg, "--axis", W.SWEEP_AXIS,
                                    "--workers", "1", "--out-dir", tmp])
        if code != 0:
            raise SystemExit(f"reference sweep exited with {code}")
        with open(os.path.join(tmp, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
    return {"meta": meta(f"magdot sweep with tol = {REF_TOL}"),
            "header": lines[0].split(","),
            "rows": [line.split(",") for line in lines[1:]]}


BUILDERS = {"registration": registration, "memory_onset": memory_onset,
            "kmc_ensemble": kmc_ensemble, "measure_sweep": measure_sweep}


def main(names) -> None:
    W.REF_DIR.mkdir(exist_ok=True)
    for name in names or BUILDERS:
        data = BUILDERS[name]()
        with open(W.REF_DIR / f"{name}.json", "w") as fh:
            json.dump(data, fh)
            fh.write("\n")
        print(f"wrote {W.REF_DIR / f'{name}.json'}")


if __name__ == "__main__":
    main(sys.argv[1:])
