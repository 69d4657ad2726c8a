"""Composition of the two diagonal sectors into a full measurement run.

The measured spin acts on the magnet only through the coupling: its up state
is the field +g and its down state -g, and this module alone names them.
The up sector relaxes under +g weighted by the spin's r_up population, the
down sector under -g weighted by 1 - r_up; their conditional pointer
distributions must each conserve their Born weight.  The measured spin's s_z
is conserved, so no hop connects the sectors, and the magnet has no bias of
its own: the down sector under -g is the up sector's chain seen in the
mirror m -> -m, run from the mirrored start.  Off-diagonal (coherence)
dynamics is reported only through its time scales and suppression ratios;
no coherence trajectory is computed here.  hbar = 1: times are in hbar/J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import fokker_planck, master
from .analytic import RegimeReport, classify_regime, time_scales
from .fokker_planck import FPConfig
from .integrator import integrate
from .model import ModelParams, derived_scales, positive_g_frame, repeller

__all__ = [
    "SpinState",
    "SectorOutcome",
    "OffdiagonalScales",
    "MeasurementReport",
    "run_measurement",
    "offdiagonal_scales",
]

@dataclass(frozen=True)
class SpinState:
    """Initial state of the measured spin: diagonal populations and coherence."""

    r_up: float  # the down population is 1 - r_up
    # keyword only, so that a call SpinState(r_up, r_down) fails, not sets it
    offdiag_mag: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        if not 0.0 <= self.r_up <= 1.0:
            raise ValueError("r_up must lie in [0, 1]")
        bound = math.sqrt(self.r_up * (1.0 - self.r_up))
        if self.offdiag_mag < 0 or self.offdiag_mag > bound + 1e-12:
            raise ValueError("coherence magnitude violates the Cauchy-Schwarz bound")


@dataclass
class SectorOutcome:
    born_weight: float
    p_correct: float
    p_wrong: float
    peak_m: float
    mass_drift: float
    final: master.DiscreteDistribution  # on the levels (master) or the cells (fp)


@dataclass(frozen=True)
class OffdiagonalScales:
    tau_red: float
    t_recurrence: float
    bath_suppression_ratio: float
    spread_suppression_ratio: float
    theta: float
    tau_reg: float
    ordering_ok: bool  # tau_red < theta < tau_reg


@dataclass
class MeasurementReport:
    sectors: dict
    born_check: float
    offdiag: OffdiagonalScales | None
    offdiag_mag: float  # carried through; decays on the tau_red scale
    regime: RegimeReport
    conclusive: bool
    faithful: bool | None  # None when the run ended before the horizon
    n_steps: int  # report points, summed over the one or two runs of the up chain
    n_terms: int  # Poisson counts summed, over all their series


def _sectors(params: ModelParams) -> dict:
    """The parameters of each sector by name: the field +g, and -g."""
    return {"up": params, "down": replace(params, coupling_g=-params.coupling_g)}


def run_measurement(spin: SpinState, params: ModelParams, t_end: float,
                    engine: str = "master", tol: float = 1e-9,
                    fp_config: FPConfig = FPConfig(),
                    p_wrong_bound: float = 1e-3,
                    g0: float = 0.0,
                    init: str = "exact-paramagnet") -> MeasurementReport:
    """Run both diagonal sectors and assemble the measurement verdict.

    Faithfulness requires all of: every sector's wrong-peak mass below
    `p_wrong_bound`, the pre-measurement bias ratio below 1, and the
    coupling ratio above 1.  A run shorter than the registration/relaxation
    horizon is flagged inconclusive (faithful is None) rather than
    unfaithful.  Both engines start each sector from `init`, a start kind
    of `master.initial_distribution` (`fokker_planck.initial_field` takes
    its continuum form); a start off the origin costs a second run
    (`_evolve_sectors`).
    """
    params.require_ferromagnetic()
    finals, n_steps, n_terms = _evolve_sectors(params, t_end, engine, tol,
                                               fp_config, init)
    sectors = {}
    horizon = 0.0
    for (name, sp), weight in zip(_sectors(params).items(),
                                  (spin.r_up, 1.0 - spin.r_up)):
        final = finals[name]
        x = repeller(sp)
        below = final.mass_below(x)
        # the grid is symmetric about 0: the mass above x, summed directly
        # so that a small one keeps its digits, is the mirror's below -x
        above = replace(final, weights=final.weights[::-1]).mass_below(-x)
        # at g = 0 the sectors are symmetric and the labels bookkeeping only
        correct, wrong = (above, below) if sp.coupling_g >= 0 else (below, above)
        sectors[name] = SectorOutcome(
            born_weight=weight, p_correct=correct, p_wrong=wrong,
            peak_m=final.peak(), mass_drift=abs(final.total() - 1.0), final=final,
        )
        ts = time_scales(positive_g_frame(sp)[0])
        horizon = max(horizon, min(ts.tau_reg, ts.tau_relax))

    born_check = max(s.mass_drift for s in sectors.values())
    # the scales are read in the frame of g >= 0, the stray field g0 mirrored too
    frame = positive_g_frame(params)[0]
    regime = classify_regime(frame, g0=g0 if params.coupling_g >= 0 else -g0)
    offd = offdiagonal_scales(frame) if frame.coupling_g > 0 else None
    conclusive = t_end >= horizon
    if not conclusive:
        faithful = None
    else:
        faithful = (
            all(s.p_wrong < p_wrong_bound for s in sectors.values())
            and regime.stray_bias_ratio < 1.0
            and regime.coupling_ratio > 1.0
        )
    return MeasurementReport(
        sectors=sectors,
        born_check=born_check,
        offdiag=offd,
        offdiag_mag=spin.offdiag_mag,
        regime=regime,
        conclusive=conclusive,
        faithful=faithful,
        n_steps=n_steps,
        n_terms=n_terms,
    )


def _evolve_sectors(params: ModelParams, t_end: float, engine: str, tol: float,
                    fp_config: FPConfig, init: str):
    """Advance the up and down sectors of `params` on `engine` ("master" or
    "fp") from t = 0 to t_end; returns each sector's final state by name,
    and the report points and Poisson counts summed over the runs.

    Only the up sector's chain is built.  Under m -> -m the down sector's
    rates are the up sector's, so its state is the up chain run from the
    mirrored start, read mirrored.  A start at m0 = 0 is its own mirror
    image, and its one run serves both sectors; any other start runs the up
    chain twice.  Each run conserves its own unit mass, and each sector's
    state lies within tol in L1 of the exact one.
    """
    if engine == "master":
        start = master.initial_distribution(params, init)
        gen = master.transition_rates(params)
    elif engine == "fp":
        start = fokker_planck.initial_field(params, init, fp_config)
        gen = fokker_planck.generator(params, fp_config)
    else:
        raise ValueError("engine must be 'master' or 'fp'")
    symmetric = master.start_params(params, init).m_offset == 0.0
    flip = lambda d: replace(d, weights=d.weights[::-1].copy())
    starts = [start] if symmetric else [start, flip(start)]
    runs = [integrate(gen, s, [t_end], tol) for s in starts]
    (up,), (down,) = runs[0][0], runs[-1][0]
    return ({"up": up, "down": flip(down)},
            sum(r[1] for r in runs), sum(r[2] for r in runs))


def offdiagonal_scales(params: ModelParams, g_spread: float = 0.0
                       ) -> OffdiagonalScales:
    """Coherence-decay time scales and the two recurrence-suppression ratios.

    tau_red = hbar/(sqrt(2N) g); recurrences at pi hbar/(2g) are harmless
    when the bath ratio gamma N hbar^2 Gamma^2 / g^2 or the coupling-spread
    ratio (dg/g) sqrt(N) is large.  Also reports whether the scale ordering
    tau_red < theta < tau_reg holds.
    """
    g = params.coupling_g
    if g <= 0:
        raise ValueError("offdiagonal scales need a positive coupling g")
    if g_spread < 0:
        raise ValueError("g_spread must be nonnegative")
    n = params.n_spins
    tau_red = 1.0 / (math.sqrt(2.0 * n) * g)
    t_rec = math.pi / (2.0 * g)
    # a product, not **, so that a huge cutoff overflows to inf, not OverflowError
    bath_ratio = params.gamma * n * (params.debye_cutoff * params.debye_cutoff) / (g * g)
    spread_ratio = g_spread / g * math.sqrt(n) if g_spread > 0 else 0.0
    if params.temp_bath < params.coupling_j:
        theta = derived_scales(params).theta
        tau_reg = time_scales(params).tau_reg
    else:
        theta = math.inf
        tau_reg = math.inf
    ordering = tau_red < theta < tau_reg
    return OffdiagonalScales(
        tau_red=tau_red,
        t_recurrence=t_rec,
        bath_suppression_ratio=bath_ratio,
        spread_suppression_ratio=spread_ratio,
        theta=theta,
        tau_reg=tau_reg,
        ordering_ok=ordering,
    )
