"""Weighted regularized least-squares approximation on the unit sphere.

Reconstructs smooth functions from noisy point samples over a spherical
polynomial basis, with cubature-exact discrete analysis, closed-form
Tikhonov-style degree filtering, automatic regularization-parameter choice
by the balancing principle, and a posteriori penalization-weight selection.
"""

from .approx import (
    FilterSpec,
    HarmonicCoefficients,
    NormBound,
    PenalizationWeights,
    SampleSet,
    analyze,
    evaluate,
    evaluate_grid,
    evaluate_kernel_form,
    filtered_approx,
    kernel_section,
    load_coefficients,
    operator_norm_bound,
    penalized_functional,
    regularized_fit,
    regularized_fit_via_solver,
    rkhs_norm_sq,
    save_coefficients,
)
from .cubature import (
    CubatureRule,
    gauss_legendre_nodes,
    gauss_legendre_rule,
    load_rule,
    probe_grid,
    save_rule,
)
from .experiments import (
    ExperimentReport,
    NoiseSpec,
    SggModel,
    add_noise,
    franke_cap_eval,
    relative_error_l2,
    rerun_from_config,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
    sgg_generate,
    sgg_recover,
)
from .harmonics import sph_harm_matrix
from .params import (
    BalancingConfig,
    BalancingResult,
    KernelParams,
    KernelSelectResult,
    RandomSearchConfig,
    balancing_principle,
    kernel_select,
    save_bp_trace,
    weights_from_kernel_params,
    weights_laplace_beltrami,
    weights_ones,
    weights_sgg_apriori,
)

__version__ = "0.1.0"
