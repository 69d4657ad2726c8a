"""Relaxation dynamics of a mean-field Ising magnet used as a measurement
pointer: exact discrete master equation, continuum Fokker-Planck solver,
kinetic Monte Carlo sampling, and the closed-form oracle layer."""

from .model import (
    ModelParams,
    DerivedScales,
    FixedPoint,
    ParameterError,
    field_h,
    drift_v,
    diffusion_w,
    omega_pm,
    fixed_points,
    derived_scales,
    repeller,
)
from .bath import KernelSpec, spectral_density, windowed_spectral, autocorrelation
from .master import (
    DiscreteDistribution,
    FreeEnergyReport,
    EvolveResult,
    initial_distribution,
    transition_rates,
    evolve,
    stationary_distribution,
    free_energy,
)
from .kmc import TrajectoryEnsemble, sample_trajectories
from .fokker_planck import (
    FPConfig,
    solve_fp,
    equilibrium_profile,
    gaussian_field,
)
from .analytic import (
    CharMap,
    CharacteristicsError,
    RegimeReport,
    TimeScales,
    closed_form_P,
    local_width_delta,
    width_maximum,
    suzuki_profile,
    suzuki_alpha,
    suzuki_second_max_onset,
    split_probabilities,
    time_scales,
    classify_regime,
)
from .special import erfc
from .measurement import (
    SpinState,
    MeasurementReport,
    OffdiagonalScales,
    run_measurement,
    offdiagonal_scales,
)
from .config import RunConfig, ConfigError, parse_config

__version__ = "0.1.0"
