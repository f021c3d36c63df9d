"""Numerical laboratory for a derivative nonlinear Schroedinger family.

Spectral grids and norms, closed-form solitary waves, integrating-factor
time stepping, scattering diagnostics, the gauge link to the standard
derivative NLS, and boundedness probes for the linear estimates.
"""

__version__ = "0.1.0"

from .grid import (ComplexField, GridSpec, ParameterError, ResolutionError, Trajectory,
                   gaussian_field)
from .spectral import (
    MixedNormSpec,
    fractional_derivative,
    free_propagate,
    l2_norm,
    lebesgue_norm,
    mixed_norm,
    rescale,
    sobolev_norm,
    spatial_derivative,
    xt_norm,
)
from .quadrature import QuadratureError, QuadratureResult, integrate_halfline
from .solitons import (
    SolitonParams,
    amplitude,
    endpoint_rate,
    endpoint_sequence,
    endpoint_slope,
    full_wave,
    hsc_norm,
    l2_mass_closed,
    pc_mass_closed,
    soliton_grid,
    virial_ratio,
)
from .evolve import ConservedReport, EvolutionConfig, StabilityError
from .scattering import (
    ScatterAccumulator,
    ScatterReport,
    decay_exponent,
    decay_tracker,
    pullback_cauchy,
    xt_accumulate,
)
from .gauge import FORWARD, INVERSE, gauge_transform
from .probes import (
    ProbeEnsemble,
    ProbeReport,
    default_ensemble,
    leibniz_probe,
    maximal_probe,
    smoothing_probe,
    strichartz_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
