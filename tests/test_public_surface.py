import os
import subprocess
import sys
from pathlib import Path

import spherefit

# Adding or dropping a public name is a deliberate edit of this list.
PUBLIC_NAMES = {
    # submodules
    "approx", "cubature", "experiments", "harmonics", "params",
    # approx
    "FilterSpec", "HarmonicCoefficients", "NormBound", "PenalizationWeights", "SampleSet",
    "analyze", "evaluate", "evaluate_grid", "evaluate_kernel_form", "filtered_approx",
    "kernel_section", "load_coefficients", "operator_norm_bound", "penalized_functional",
    "regularized_fit", "regularized_fit_via_solver", "rkhs_norm_sq", "save_coefficients",
    # cubature
    "CubatureRule", "gauss_legendre_nodes", "gauss_legendre_rule", "integrate", "load_rule",
    "probe_grid", "save_rule",
    # experiments
    "ExperimentReport", "NoiseSpec", "SggModel", "add_noise", "franke_cap_eval",
    "relative_error_l2", "rerun_from_config", "run_experiment_1", "run_experiment_2",
    "run_experiment_3", "sgg_generate", "sgg_recover",
    # harmonics
    "SpherePoint", "sph_harm_matrix",
    # params
    "BalancingConfig", "BalancingResult", "KernelParams", "KernelSelectResult",
    "RandomSearchConfig", "balancing_principle", "kernel_select", "save_bp_trace",
    "weights_from_kernel_params", "weights_laplace_beltrami", "weights_ones",
    "weights_sgg_apriori",
}


def test_public_names_are_pinned():
    # a fresh interpreter: other tests import submodules such as spherefit.cli,
    # which would add them to the package namespace here
    src = Path(spherefit.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import spherefit; print(*(n for n in dir(spherefit) if not n.startswith('_')))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert len(PUBLIC_NAMES) == 56
    assert set(out.split()) == PUBLIC_NAMES
