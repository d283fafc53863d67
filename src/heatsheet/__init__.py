"""heatsheet: a desk-scale laboratory for the stochastic heat equation.

The field driven by space-time white noise is represented both through
closed-form covariances and through Monte Carlo integrals against sampled
Brownian sheets; fractional time operators, a boundary-drift functional,
a weak-form residual, and a spatial SDE are all cross-checked against
independent oracles.  See the README for the map of checks.
"""

from .grid import TimeGrid, TestFunction, antisym_extend
from .kernels import laplace_g, l_nu, l_nu_laplace
from .fracops import (SpectralPlan, frac_laplacian, op_A1, op_A2,
                      halfroot_conv, a1_a2_residual)
from .gaussfield import (cov_u, cov_u_cross, cov_u_apply, cov_v_apply,
                         cov_u_gram, cov_v_gram, SheetLattice, SheetSample,
                         sheet_sample, sheet_rng, drift_variance_exact,
                         cameron_martin_laplace, cameron_martin_target,
                         TensorTestFunction, WeakformPlan, coverage_halfwidth,
                         ResourceError)
from .sde import (FieldState, EvolveConfig, EvolveResult, noise_draw,
                  stationary_basis, StationarySampler, evolve, stability_limit,
                  spectral_radius, InstabilityError)
from .stats import (VerificationReport, mean_se, var_se, z_test,
                    matrix_compare, residual_report)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "TestFunction", "antisym_extend",
    "laplace_g", "l_nu", "l_nu_laplace",
    "SpectralPlan", "frac_laplacian", "op_A1", "op_A2", "halfroot_conv",
    "a1_a2_residual",
    "cov_u", "cov_u_cross", "cov_u_apply", "cov_v_apply", "cov_u_gram",
    "cov_v_gram", "SheetLattice", "SheetSample", "sheet_sample", "sheet_rng",
    "drift_variance_exact", "cameron_martin_laplace", "cameron_martin_target",
    "TensorTestFunction", "WeakformPlan", "coverage_halfwidth",
    "ResourceError",
    "FieldState", "EvolveConfig", "EvolveResult", "noise_draw",
    "stationary_basis", "StationarySampler", "evolve", "stability_limit",
    "spectral_radius", "InstabilityError",
    "VerificationReport", "mean_se", "var_se", "z_test", "matrix_compare",
    "residual_report",
]
