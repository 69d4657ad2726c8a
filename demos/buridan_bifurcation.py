"""Unbiased bifurcation: the magnet hesitates between both branches.

With g = 0 the relaxation passes through macroscopically flat
distributions before two symmetric peaks condense; the scaling profile
describes the flat stage and the final split is exactly half/half.
Compares the simulated profile at the flat time against the scaling
form, and a kinetic Monte Carlo ensemble against the deterministic
solver.

Run:  python demos/buridan_bifurcation.py [out_dir]
"""

import sys

import numpy as np

from magdot import (
    ModelParams,
    derived_scales,
    evolve,
    initial_distribution,
    sample_trajectories,
    suzuki_alpha,
    suzuki_profile,
    time_scales,
)
from magdot.svgplot import line_plot_svg

out_dir = sys.argv[1] if len(sys.argv) > 1 else "."

params = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=0.0)
scales = derived_scales(params)
theta = scales.theta
ts = time_scales(params)
print(f"flat stage at t = {ts.t_flat / theta:.3f} theta, "
      f"peaks at +-0.95 m_F by {ts.tau_relax / theta:.3f} theta")

fracs = [0.0, 1.0, ts.t_flat / theta, 3.0, 10.0]
run = evolve(initial_distribution(params, "exact-paramagnet"), params,
             10 * theta, snapshot_times=[f * theta for f in fracs])

flat = run.snapshots[2]
prof = suzuki_profile(params, flat.grid, flat.time)
print(f"scaling variable alpha^2 = {suzuki_alpha(params, flat.time)**2:.3f} "
      f"at the flat stage")
for frac in (0.5, 0.6, 0.7):
    m = frac * scales.m_ferro
    sim = np.interp(m, flat.grid, flat.density()) \
        / np.interp(0.0, flat.grid, flat.density())
    ana = suzuki_profile(params, m, flat.time) / suzuki_profile(params, 0.0, flat.time)
    print(f"  P({frac:.1f} m_F)/P(0): simulated {sim:.3f}, scaling form {ana:.3f}")

final = run.snapshots[-1]
print(f"final split: below 0 = {final.mass_below(0.0):.9f}")

ens = sample_trajectories(params, 20000, 10 * theta, seed=2)
print(f"20000 stochastic runs: up fraction = {ens.up_fraction:.4f}")

curves = [(f"t/theta={f:.3g}", s.grid, s.density())
          for f, s in zip(fracs, run.snapshots)]
curves.append(("scaling form", flat.grid, prof))
line_plot_svg(f"{out_dir}/bifurcation.svg", curves,
              title="Symmetric bifurcation through the flat stage",
              xlabel="m", ylabel="P(m,t)")
print(f"wrote {out_dir}/bifurcation.svg")
