"""Full two-sector measurement: Born weights, time scales, faithfulness.

Runs both spin sectors for a mixed input state, prints the per-sector
registration statistics, the coherence-decay scales, and how the verdict
flips as the coupling grows through the Buridan window.

Run:  python demos/measurement_verdict.py
"""

from magdot import (
    ModelParams,
    SpinState,
    derived_scales,
    offdiagonal_scales,
    run_measurement,
    split_probabilities,
)

params = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=0.05)
theta = derived_scales(params).theta

spin = SpinState(r_up=0.7, offdiag_mag=0.25)
report = run_measurement(spin, params, t_end=6 * theta)

print(f"regime: {report.regime.classification} "
      f"(lambda = {report.regime.lam:.3f})")
for name, sec in report.sectors.items():
    print(f"sector {name}: Born weight {sec.born_weight:.2f}, "
          f"peak at {sec.peak_m:+.4f}, wrong-branch mass {sec.p_wrong:.4f}")
print(f"Born bookkeeping drift: {report.born_check:.2e} "
      f"(one run serves both sectors from m = 0: {report.n_terms} products)")
print(f"coherence magnitude {report.offdiag_mag} decays on the "
      f"tau_red scale below; no coherence trajectory is computed")

od = report.offdiag
print(f"tau_red = {od.tau_red:.4f}, recurrence at {od.t_recurrence:.2f}, "
      f"bath suppression ratio {od.bath_suppression_ratio:.3g}")
print(f"scale ordering tau_red < theta < tau_reg: {od.ordering_ok}")
print(f"verdict: conclusive={report.conclusive}, faithful={report.faithful}")

print("\ncoupling sweep (analytic wrong-branch mass):")
for g in (0.005, 0.02, 0.05, 0.1, 0.2):
    p = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=g)
    _, p_minus = split_probabilities(p)
    lam = derived_scales(p).lam
    print(f"  g = {g:5.3f}: lambda = {lam:6.3f}, wrong mass = {p_minus:.2e}")
