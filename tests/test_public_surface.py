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
    "CubatureRule", "gauss_legendre_nodes", "gauss_legendre_rule", "load_rule",
    "probe_grid", "save_rule",
    # experiments
    "ExperimentReport", "NoiseSpec", "SggModel", "add_noise", "franke_cap_eval",
    "relative_error_l2", "rerun_from_config", "run_experiment_1", "run_experiment_2",
    "run_experiment_3", "sgg_generate", "sgg_recover",
    # harmonics
    "sph_harm_matrix",
    # params
    "BalancingConfig", "BalancingResult", "KernelParams", "KernelSelectResult",
    "RandomSearchConfig", "balancing_principle", "kernel_select", "save_bp_trace",
    "weights_from_kernel_params", "weights_laplace_beltrami", "weights_ones",
    "weights_sgg_apriori",
}


def run_fresh(code: str, *args: str) -> str:
    """stdout of `code` run in a new interpreter that imports spherefit from this tree."""
    src = Path(spherefit.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout


def test_public_names_are_pinned():
    # a fresh interpreter: other tests import submodules such as spherefit.cli,
    # which would add them to the package namespace here
    out = run_fresh(
        "import spherefit; print(*(n for n in dir(spherefit) if not n.startswith('_')))"
    )
    assert len(PUBLIC_NAMES) == 54
    assert set(out.split()) == PUBLIC_NAMES


# numpy is the only dependency: scipy cannot be imported, yet the package,
# the CLI and the dense-solver cross-check all run
NO_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import numpy as np
import spherefit, spherefit.cli
rule = spherefit.gauss_legendre_rule(2)
samples = spherefit.SampleSet(rule, np.ones(rule.n_points))
beta = spherefit.PenalizationWeights(2, np.ones(3))
spherefit.regularized_fit_via_solver(samples, 2, 0.1, beta)
assert spherefit.cli.main(["gen-rule", "--degree", "2", "--out", sys.argv[1]]) == 0
print("scipy modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_numpy_is_the_only_dependency(tmp_path):
    out = run_fresh(NO_SCIPY, str(tmp_path / "rule.csv"))
    assert "wrote 18 nodes" in out
    assert out.splitlines()[-1] == "scipy modules:"


# the ring transform is two matrix products: a ring fit, its balancing walk
# with the `grid` sup norm and the synthesis on the probe grid load no FFT
RING_FIT = """
import sys
import numpy as np
import spherefit
M = 6
rule = spherefit.gauss_legendre_rule(M)
samples = spherefit.SampleSet(rule, np.cos(3 * rule.points[:, 0]))
beta = spherefit.weights_laplace_beltrami(M)
cfg = spherefit.BalancingConfig(alpha0=1.0, q=0.5, L=4, omega=1.0, delta=0.1)
alpha = spherefit.balancing_principle(samples, M, beta, cfg).alpha_star
fit = spherefit.regularized_fit(samples, M, alpha, beta)
spherefit.evaluate_grid(fit, spherefit.probe_grid(2 * M))
print("fft modules:", *sorted(m for m in sys.modules if m.startswith("numpy.fft")))
"""


def test_ring_fit_loads_no_fft():
    assert run_fresh(RING_FIT).splitlines()[-1] == "fft modules:"
