"""`import magdot` and every solver and CLI path load numpy only.

scipy is imported inside the closed-form oracles that need it,
numpy.polynomial is not loaded by `import magdot`, and neither
concurrent.futures nor logging by `import magdot.cli`.  Each check runs in a
fresh interpreter, so a module imported by another test cannot hide an
import.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import magdot

SRC = str(Path(magdot.__file__).resolve().parent.parent)


def run_fresh(code: str) -> str:
    """Run `code` in a new interpreter with magdot on the path; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_solver_and_cli_paths_load_no_scipy(tmp_path):
    out = run_fresh(f"""
        import os, sys
        import magdot
        from magdot import (FPConfig, ModelParams, evolve, gaussian_field,
                            initial_distribution, sample_trajectories, solve_fp,
                            stationary_distribution)
        from magdot.cli import command_surface

        p = ModelParams(n_spins=40, temp_bath=0.65, coupling_g=0.05, debye_cutoff=1e6)
        init = initial_distribution(p)
        evolve(init, p, 500.0, mode="short-memory")
        evolve(init, p, 1.0, mode="full-memory")
        fpc = FPConfig(cells=200)
        solve_fp(p, gaussian_field(p, fpc), [500.0], fpc)
        sample_trajectories(p, 100, 500.0, seed=1)
        stationary_distribution(p)

        cfg = os.path.join({str(tmp_path)!r}, "run.cfg")
        fp_cfg = os.path.join({str(tmp_path)!r}, "fp.cfg")
        text = ("N = 60\\nT = 0.65\\ng = 0.08\\nGamma = 1e6\\n"
                "times_theta = 0.5\\ncells = 200\\ntrajectories = 200\\n")
        for path, extra in ((cfg, ""), (fp_cfg, "engine = fp\\n")):
            with open(path, "w") as fh:
                fh.write(text + extra)
        out = os.path.join({str(tmp_path)!r}, "out")
        for argv in (["simulate", "-c", cfg, "--snapshot-dir", out],
                     ["simulate", "-c", cfg, "--engine", "fp", "--snapshot-dir", out],
                     ["sample", "-c", cfg, "--out-dir", out],
                     ["measure", "-c", cfg, "--out-dir", out],
                     ["measure", "-c", fp_cfg, "--out-dir", out],
                     ["sweep", "-c", cfg, "--axis", "g=0.04,0.08", "--out-dir", out]):
            assert command_surface(argv) == 0, argv
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    assert out.splitlines()[-1] == "[]"


def test_cli_import_loads_no_process_pool_or_logging():
    """concurrent.futures (and the logging it pulls in) is imported only
    where `sweep --workers` makes a pool."""
    out = run_fresh("""
        import sys
        import magdot.cli
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("concurrent", "logging")))
    """)
    assert out.splitlines()[-1] == "[]"


def test_import_loads_no_numpy_polynomial():
    out = run_fresh("""
        import sys
        import magdot
        print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
    """)
    assert out.splitlines()[-1] == "[]"


def test_oracles_import_scipy_where_used():
    """The oracles that use scipy still give their values from a fresh process."""
    out = run_fresh("""
        from magdot import (CharMap, ModelParams, derived_scales, width_maximum,
                            suzuki_second_max_onset)
        p = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=0.05, debye_cutoff=1e6)
        cm = CharMap(p)
        print(repr([cm.inverse(0.5, 2000.0), cm.inverse(-0.3, 500.0),
                    *width_maximum(p), *suzuki_second_max_onset(p),
                    derived_scales(p).theta]))
    """)
    values = ast.literal_eval(out.splitlines()[-1])
    inv1, inv2, t_max, delta_max, m2, alpha2, t2, theta = values
    assert [inv1, inv2] == pytest.approx([0.21702445826189365, -0.2785046544243003],
                                         rel=1e-13)
    # the width search stops at xatol = 1e-9 theta
    assert t_max == pytest.approx(4865.545218409724, abs=1e-8 * theta)
    assert delta_max == pytest.approx(5.759609089141864, rel=1e-12)
    assert [m2, alpha2, t2] == pytest.approx(
        [-0.5897476258957342, 0.3398698996681666, 10151.34559706036], rel=1e-13)


def test_no_module_imports_a_private_name_of_another():
    """A `_`-prefixed name stays inside its module: no sibling imports it."""
    found = []
    for path in sorted(Path(magdot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("magdot")):
                found += [f"{path.name}: {a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert found == []


def test_sampler_imports_nothing_from_the_integrator():
    """The jump-process sampler checks the integrator, so kmc imports no name
    and no module from integrator; the Poisson weights that both cut come
    from `special`, and each cut is tested against an outside reference."""
    tree = ast.parse((Path(magdot.__file__).parent / "kmc.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [f"{module}: {a.name}" for a in node.names
                      if "integrator" in (module + "." + a.name).split(".")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if "integrator" in a.name.split(".")]
    assert found == []
