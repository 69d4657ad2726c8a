"""Biased registration run: a weak field picks the ferromagnetic branch.

Walks through the standard diagnostics of a driven relaxation at
N=1000, T=0.65J, g=0.05J: fixed points, the pointer distribution at a
ladder of times, the transported-center trajectory against the drift
characteristic, and the transient width bump against its next-order
prediction.  Writes a CSV of the distribution snapshots plus an SVG with
the curves.

Run:  python demos/registration_run.py [out_dir]
"""

import math
import sys

import numpy as np

from magdot import (
    CharMap,
    ModelParams,
    derived_scales,
    evolve,
    fixed_points,
    initial_distribution,
    local_width_delta,
    time_scales,
)
from magdot.snapshots import write_long_csv
from magdot.svgplot import line_plot_svg

out_dir = sys.argv[1] if len(sys.argv) > 1 else "."

params = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=0.05)
scales = derived_scales(params)
theta = scales.theta

print("fixed points of the mean-field flow:")
for fp in fixed_points(params):
    kind = "stable" if fp.stable else "unstable"
    print(f"  m = {fp.m:+.6f}  ({kind})")
print(f"theta = {theta:g}, bias b = {scales.bias_b:.4f}, "
      f"lambda = {scales.lam:.3f}")

ts = time_scales(params)
print(f"registration expected at tau_reg = {ts.tau_reg / theta:.3f} theta")

fracs = [0.0, 0.5, 1.0, 2.25, 3.0, 4.0, 5.0]
run = evolve(initial_distribution(params, "exact-paramagnet"), params,
             5 * theta, snapshot_times=[f * theta for f in fracs])

cm = CharMap(params)
print("\n t/theta   center    characteristic   width*sqrt(N)   next order")
for frac, snap in zip(fracs, run.snapshots):
    center = snap.median()
    char = cm.forward(0.0, frac * theta) if frac > 0 else 0.0
    width = snap.local_width() * math.sqrt(1000)
    pred = local_width_delta(params, frac * theta)
    print(f"  {frac:5.2f}   {center:+.4f}      {char:+.4f}          {width:.3f}"
          f"           {pred:.3f}")

write_long_csv(f"{out_dir}/registration_snapshots.csv", run.snapshots)
curves = [(f"t/theta={f:g}", s.grid, s.density())
          for f, s in zip(fracs, run.snapshots)]
line_plot_svg(f"{out_dir}/registration.svg", curves,
              title="Registration of the up outcome",
              xlabel="m", ylabel="P(m,t)")
print(f"\nwrote {out_dir}/registration_snapshots.csv and "
      f"{out_dir}/registration.svg")
