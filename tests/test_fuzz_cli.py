"""Seeded fuzzing of the command surface: the exit-code contract for any input.

Random configs at N <= 40, t <= theta/2 and workers = 1 go in-process through
every run command, with up to four keys set to values on or beyond their
domain (nan, inf, 1e300, 1e-300, negatives, huge integers, unknown words).
Whatever the input, a command exits 0, 1, 2 or 3 with no exception, and
after exit 0 every number it printed or wrote is finite.  `fuzz` runs any
number of configs, for a longer search than Tier-1's:

    PYTHONPATH=src:tests python -c "import test_fuzz_cli as f, tempfile, pathlib; \\
        print(f.fuzz(1000, 7, pathlib.Path(tempfile.mkdtemp())))"
"""

import contextlib
import io
import re

import numpy as np

from magdot.cli import command_surface

EDGES = {
    "N": ["-1", "0", "1", "2", "40", "2.5", "nan"],
    "T": ["0", "-1", "nan", "inf", "1e300", "1e-300", "1", "1.3", "0.2"],
    "g": ["0", "-0.1", "nan", "inf", "1e300", "1e-300", "0.5"],
    "J": ["-1", "0", "nan", "inf", "1e300", "2", "0.5"],
    "gamma": ["0", "-1", "nan", "inf", "1e300", "1e-300", "0.5"],
    "Gamma": ["0", "nan", "inf", "1e300", "1e-300", "1e6"],
    "T0": ["nan", "inf", "-inf", "0.5", "1e300", "2"],
    "m0": ["nan", "-1", "1", "1.5", "0.3", "inf"],
    "engine": ["master", "fp", "warp"],
    "init": ["exact-paramagnet", "gaussian", "other"],
    "mode": ["short-memory", "full-memory", "none"],
    "tol": ["0", "nan", "inf", "1e-300", "1", "1e300", "1e-4"],
    "kernel_tol": ["0", "nan", "inf", "1e-2", "0.5", "1e-300", "-1"],
    "cells": ["-1", "99", "100", "1000000000000", "1e3"],
    "seed": ["-1", "0", str(2**64), str(2**64 - 1), "x"],
    "trajectories": ["0", "1", str(2**63), str(2**63 - 1), "-5"],
    "p_wrong_bound": ["-1", "0", "nan", "inf", "1"],
    "g0": ["nan", "inf", "-1", "1e300"],
    "r_up": ["-0.5", "0", "0.5", "1", "2", "nan"],
    "times_theta": ["0", "0.5", "0,0.25", "0.5,0.1", "nan", "-1", ""],
    "times": ["0", "1", "nan", "-1", "1,0"],
    "workers": ["0", "-1", "x"],
    # sweep.csv echoes each value, so the axis keeps to finite ones (T0 = inf,
    # the one infinity a config may hold, is a full quench, not a result)
    "sweep": ["g=0.02,0.08", "T0=2,1e300", "r_up=0.5,nan", "cells=100,1e12", "N=1"],
}
COMMANDS = ("fixed-points", "simulate", "analytic", "sample", "measure", "sweep")
NONFINITE = re.compile(r"(?i)\b(nan|inf)\b")


def draw(rng) -> tuple[str, str]:
    """(command, config text): a small run with up to four keys at an edge."""
    lines = {"N": str(rng.integers(2, 41)), "T": "%.3g" % rng.uniform(0.3, 0.9),
             "g": "%.3g" % rng.uniform(0.0, 0.1),
             "gamma": "%g" % rng.choice([1e-3, 1e-2, 0.1]),
             "times_theta": "%.3g" % rng.uniform(0.0, 0.5), "cells": "200",
             "trajectories": "1000", "workers": "1", "sweep": "g=0.02,0.08"}
    for key in rng.choice(sorted(EDGES), size=rng.integers(0, 5), replace=False):
        if key == "times":  # an absolute time replaces the theta-scaled one
            lines.pop("times_theta")
        lines[key] = str(rng.choice(EDGES[key]))
    return str(rng.choice(COMMANDS)), "".join(f"{k} = {v}\n" for k, v in lines.items())


def run(command: str, text: str, tmp) -> tuple[int, str, str]:
    """Exit code, stderr, and stdout with every file the command wrote."""
    cfg, out = tmp / "run.cfg", tmp / "out"
    cfg.write_text(text)
    argv = [command, "-c", str(cfg)]
    if command != "fixed-points":
        argv += ["--snapshot-dir" if command == "simulate" else "--out-dir", str(out)]
    if command == "analytic":
        argv += ["--points", "101"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = command_surface(argv)
    written = stdout.getvalue()
    if out.exists():
        for f in sorted(out.iterdir()):
            written += f.read_text()
            f.unlink()
    return code, stderr.getvalue(), written


def fuzz(n_configs: int, seed: int, tmp) -> list[str]:
    """Each of n_configs seeded draws that breaks the contract, described."""
    rng = np.random.default_rng(seed)
    broken = []
    for _ in range(n_configs):
        command, text = draw(rng)
        case = f"{command} on {text!r}"
        try:
            code, err, written = run(command, text, tmp)
        except Exception as exc:  # the contract allows none to escape
            broken.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            broken.append(f"{case}: exit {code}, stderr {err!r}")
        elif code == 0 and NONFINITE.search(written):
            broken.append(f"{case}: non-finite number in {written!r}")
    return broken


def test_random_configs_keep_the_exit_code_contract(tmp_path):
    assert fuzz(100, 2021, tmp_path) == []
