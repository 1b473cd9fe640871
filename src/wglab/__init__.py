"""Desk-scale numerics for the smooth Wishart-to-GOE phase transition.

Estimates the finite-n total variation distance between the Wishart ensemble
W(n, d) and the moment-matched GOE ensemble sqrt(d) * GOE + d * I by Monte
Carlo over the exact density ratio, and checks convergence in the critical
scaling d / n^3 -> c to the closed-form limit Erf(1 / (4 sqrt(3) sqrt(c))).
"""

from .densities import (AlphaBreakdown, TaylorCoeffs, alpha_exact,
                        alpha_from_densities, in_q, log_gamma,
                        log_goe_density, log_wishart_density,
                        s_decomposition, taylor_coeffs)
from .ensembles import (SymmetricMatrix, sample_goe, sample_wishart,
                        shift_scale_goe)
from .errors import (ConfigError, DomainError, EigensolverError,
                     InvalidParameterError)
from .experiments import (ExperimentConfig, SweepRow, emit_csv,
                          emit_figure1_svg, parse_config, run_sweep)
from .limit_theory import (CovMatrix2, LimitEstimate, LimitParams,
                           asymptotic_tail, clt_covariance_estimate,
                           limiting_tv_closed_form, limiting_tv_mc,
                           limiting_tv_quadrature, s_limit_vector)
from .rng import RngState
from .spectral import (NormalizedSpectrum, Spectrum, empirical_moment,
                       normalize_spectrum, semicircle_moment,
                       symmetric_eigenvalues)
from .tv_mc import (TvEstimate, tv_estimate_goe_side,
                    tv_estimate_wishart_side, tv_profile)

__all__ = [
    "AlphaBreakdown", "ConfigError", "CovMatrix2", "DomainError",
    "EigensolverError", "ExperimentConfig", "InvalidParameterError",
    "LimitEstimate", "LimitParams", "NormalizedSpectrum", "RngState",
    "Spectrum", "SweepRow", "SymmetricMatrix", "TaylorCoeffs", "TvEstimate",
    "alpha_exact",
    "alpha_from_densities", "asymptotic_tail", "clt_covariance_estimate",
    "emit_csv", "emit_figure1_svg", "empirical_moment", "in_q",
    "limiting_tv_closed_form", "limiting_tv_mc", "limiting_tv_quadrature",
    "log_gamma", "log_goe_density", "log_wishart_density",
    "normalize_spectrum", "parse_config", "run_sweep", "s_decomposition",
    "s_limit_vector", "sample_goe", "sample_wishart", "semicircle_moment",
    "shift_scale_goe", "symmetric_eigenvalues", "taylor_coeffs",
    "tv_estimate_goe_side", "tv_estimate_wishart_side", "tv_profile",
]

__version__ = "0.1.0"
