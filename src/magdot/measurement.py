"""Composition of the two diagonal sectors into a full measurement run.

The up sector relaxes under +g weighted by the spin's r_up population, the
down sector under -g weighted by r_down; their conditional pointer
distributions must each conserve their Born weight.  The measured spin's s_z
is conserved, so no hop connects the sectors: both are advanced together as
one block-diagonal birth-death chain.  Off-diagonal (coherence)
dynamics is reported only through its time scales and suppression ratios;
no coherence trajectory is computed here.  hbar = 1: times are in hbar/J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import fokker_planck, master
from .analytic import RegimeReport, classify_regime, time_scales
from .fokker_planck import FPConfig
from .integrator import Generator, integrate, join_chains
from .model import ModelParams, derived_scales, repeller

__all__ = [
    "SpinState",
    "SectorOutcome",
    "OffdiagonalScales",
    "MeasurementReport",
    "run_measurement",
    "offdiagonal_scales",
]

SECTORS = ("up", "down")


@dataclass(frozen=True)
class SpinState:
    """Initial state of the measured spin: diagonal populations and coherence."""

    r_up: float
    r_down: float
    offdiag_mag: float = 0.0

    def __post_init__(self):
        if self.r_up < 0 or self.r_down < 0:
            raise ValueError("populations must be nonnegative")
        if abs(self.r_up + self.r_down - 1.0) > 1e-12:
            raise ValueError("populations must sum to 1")
        bound = math.sqrt(self.r_up * self.r_down)
        if self.offdiag_mag < 0 or self.offdiag_mag > bound + 1e-12:
            raise ValueError("coherence magnitude violates the Cauchy-Schwarz bound")


@dataclass
class SectorOutcome:
    sector: str
    born_weight: float
    p_correct: float
    p_wrong: float
    peak_m: float
    mass_drift: float
    final: object  # DiscreteDistribution or ContinuumField


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
    n_steps: int  # report points of the joint run of both sectors
    n_terms: int  # products with P over all its Poisson series


def _mirrored_for_scales(params: ModelParams) -> ModelParams:
    """Frame with nonnegative effective coupling, for toward-target scales."""
    if params.g_eff >= 0:
        return params
    return replace(params, sector="up", coupling_g=-params.g_eff,
                   m_offset=-params.m_offset)


def run_measurement(spin: SpinState, params: ModelParams, t_end: float,
                    engine: str = "master", tol: float = 1e-9,
                    fp_config: FPConfig | None = None,
                    p_wrong_bound: float = 1e-3,
                    g0: float = 0.0,
                    g_spread: float = 0.0,
                    init_kind: str | None = None) -> MeasurementReport:
    """Run both diagonal sectors and assemble the measurement verdict.

    Faithfulness requires all of: every sector's wrong-peak mass below
    `p_wrong_bound`, the pre-measurement bias ratio below 1, and the
    coupling ratio above 1.  A run shorter than the registration/relaxation
    horizon is flagged inconclusive (faithful is None) rather than
    unfaithful.  With `init_kind` None each engine starts from its own
    state: the exact paramagnet on "master", the Gaussian on "fp".
    """
    params.require_ferromagnetic()
    if engine not in ("master", "fp"):
        raise ValueError("engine must be 'master' or 'fp'")
    finals, n_steps, n_terms = _evolve_sectors(params, t_end, engine, tol,
                                               fp_config, init_kind)
    sectors = {}
    horizon = 0.0
    for name, weight in zip(SECTORS, (spin.r_up, spin.r_down)):
        sp = replace(params, sector=name)
        final = finals[name]
        below = final.mass_below(repeller(sp))
        above = final.total() - below
        # at g = 0 the sectors are symmetric and the labels bookkeeping only
        correct, wrong = (above, below) if sp.g_eff >= 0 else (below, above)
        sectors[name] = SectorOutcome(
            sector=name, born_weight=weight, p_correct=correct, p_wrong=wrong,
            peak_m=final.peak(), mass_drift=abs(final.total() - 1.0), final=final,
        )
        ts = time_scales(_mirrored_for_scales(sp))
        horizon = max(horizon, min(ts.tau_reg, ts.tau_relax))

    born_check = max(s.mass_drift for s in sectors.values())
    regime = classify_regime(params, g0=g0)
    offd = offdiagonal_scales(params, g_spread) if params.coupling_g > 0 else None
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
                    fp_config: FPConfig | None, init_kind: str | None):
    """Advance the up and down sectors of `params` from t = 0 to t_end as one
    block-diagonal chain (`join_chains`); returns each sector's final state
    by name, and the report points and products with P of the joint run.

    Mirror symmetry gives both sectors the same uniformization rate, so
    their common clock costs no extra product.  The L1 bound tol of a
    report point holds for both together, hence for each; `integrate`
    checks each sector's own mass.
    """
    sps = [replace(params, sector=name) for name in SECTORS]
    if engine == "master":
        kind = init_kind or "exact-paramagnet"
        chains = [master.chain(master.initial_distribution(sp, kind),
                               Generator(rt.up, rt.down))
                  for sp, rt in zip(sps, map(master.transition_rates, sps))]
    else:
        cfg = fp_config or FPConfig()
        chains = [fokker_planck.chain(sp, init_kind or "gaussian", cfg) for sp in sps]
    joint = join_chains(chains)
    states, n_steps, n_terms = integrate(joint, 0.0, [t_end], tol)
    return dict(zip(SECTORS, joint.wrap(states[-1], t_end))), n_steps, n_terms


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
    bath_ratio = params.gamma * n * params.debye_cutoff**2 / (g * g)
    spread_ratio = g_spread / g * math.sqrt(n) if g_spread > 0 else 0.0
    if params.temp_bath < params.coupling_j:
        ds = derived_scales(_mirrored_for_scales(params))
        theta = ds.theta
        tau_reg = time_scales(_mirrored_for_scales(params)).tau_reg
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
