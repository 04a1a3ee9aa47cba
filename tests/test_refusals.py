import contextlib
import io

import numpy as np
import pytest

from spherefit import (
    CubatureRule, HarmonicCoefficients, NoiseSpec, PenalizationWeights,
    SampleSet, SggModel, gauss_legendre_nodes, gauss_legendre_rule, load_coefficients,
    relative_error_l2, rkhs_norm_sq, sgg_recover, weights_sgg_apriori,
)
from spherefit import cli
from spherefit.approx import filter_factors, weighted_abs_legendre_sums

_RULE, _BETA = gauss_legendre_rule(2), PenalizationWeights(2, [1.0, 2.0, 3.0])
_MODEL = SggModel(2, [1.0, 0.5, 0.25], HarmonicCoefficients.zeros(2))
_POINTS = _RULE.points[:2]


def _coefficients_file(*pairs) -> str:
    """A coefficient CSV of the (k, j) `pairs`, each with value 1."""
    with open("coefficients.csv", "w") as fh:
        fh.write("k,j,value\n" + "".join(f"{k},{j},1\n" for k, j in pairs))
    return "coefficients.csv"


def _cli(*argv):
    """Run the CLI, which must exit 2 with one `error:` line on stderr, and
    raise that line as a ValueError, so CLI and library refusals share one
    table."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    (line,) = err.getvalue().splitlines()
    assert code == 2 and line.startswith("error: ")
    raise ValueError(line)


def _fit_with_kernel_beta(spec):
    """`fit` at degree 0 on samples of its generated rule (2 nodes), with `spec`
    as --beta."""
    with open("samples.csv", "w") as fh:
        fh.write("value\n1\n1\n")
    _cli("fit", "--degree", "0", "--samples", "samples.csv", "--alpha", "1", "--beta", spec)


# Each refusal that no other test reaches: (call, message of its ValueError).
# The calls run in an empty directory, where they may write their files.
_REFUSALS = {
    "coefficients-nan": (
        lambda: HarmonicCoefficients(1, [0.0, np.nan, 0.0, 0.0]), "coefficients must be finite"
    ),
    "samples-nan": (
        lambda: SampleSet(_RULE, np.full(_RULE.n_points, np.nan)), "sample values must be finite"
    ),
    "weights-length": (lambda: PenalizationWeights(2, [1.0, 2.0]), "need 3 weights for degree 2"),
    "weights-inf": (
        lambda: PenalizationWeights(2, [1.0, 2.0, np.inf]), "penalization weights must be finite"
    ),
    "filter-negative-alpha": (lambda: filter_factors(2, -0.1, _BETA), "must be >= 0, got -0.1"),
    "rkhs-degree": (
        lambda: rkhs_norm_sq(HarmonicCoefficients.zeros(3), _BETA),
        "weights degree 2 does not match coefficients degree 3",
    ),
    "abs-sums-no-probes": (
        lambda: weighted_abs_legendre_sums(_RULE, 2, np.empty((0, 3))),
        "need at least one probe point",
    ),
    "load-row-count": (
        lambda: load_coefficients(_coefficients_file((0, 1), (1, 1), (1, 2))),
        "3 rows is not a full coefficient set",
    ),
    "load-repeated-pair": (
        lambda: load_coefficients(_coefficients_file((0, 1), (1, 1), (1, 1), (1, 3))),
        "do not enumerate a complete coefficient set",
    ),
    "rule-count-mismatch": (
        lambda: CubatureRule(0, _POINTS, np.full(3, 4 * np.pi / 3)), "2 points but 3 weights"
    ),
    "rule-weights-nan": (
        lambda: CubatureRule(0, _POINTS, [np.nan, 4 * np.pi]), "weights must be finite"
    ),
    "gauss-legendre-no-nodes": (lambda: gauss_legendre_nodes(0), "need at least one node"),
    "sgg-damping-length": (
        lambda: SggModel(2, [1.0, 0.5], HarmonicCoefficients.zeros(2)),
        "need 3 damping factors, got 2",
    ),
    "sgg-damping-zero": (
        lambda: SggModel(2, [1.0, 0.5, 0.0], HarmonicCoefficients.zeros(2)),
        "damping factors must be positive and finite",
    ),
    "sgg-truth-degree": (
        lambda: SggModel(2, [1.0, 0.5, 0.25], HarmonicCoefficients.zeros(3)),
        "ground-truth coefficients must match the model degree",
    ),
    "noise-kind": (lambda: NoiseSpec("laplace", 0.1), "unknown noise kind 'laplace'"),
    "noise-level": (lambda: NoiseSpec("gaussian", -0.1), "noise level must be non-negative"),
    "sgg-recover-degree": (
        lambda: sgg_recover(HarmonicCoefficients.zeros(3), _MODEL),
        "coefficients of degree 3 do not match model degree 2",
    ),
    "relative-error-degree": (
        lambda: relative_error_l2(HarmonicCoefficients.zeros(3), HarmonicCoefficients.zeros(2)),
        "coefficient vectors must have the same degree",
    ),
    "sgg-weights-length": (
        lambda: weights_sgg_apriori(2, [1.0, 0.5]), "need 3 damping factors for degree 2, got 2"
    ),
    "cli-alpha-and-bp": (
        lambda: _cli("fit", "--samples", "samples.csv", "--alpha", "1", "--bp"),
        "error: pass either --alpha or --bp, not both",
    ),
    "cli-fit-without-samples": (
        lambda: _cli("fit", "--alpha", "1"), "error: fit needs a samples file"
    ),
    "cli-gen-rule-without-out": (
        lambda: _cli("gen-rule", "--degree", "1"), "error: gen-rule needs an output path"
    ),
    "cli-kernel-beta-one-value": (
        lambda: _fit_with_kernel_beta("kernel:1"), "error: bad kernel weight spec 'kernel:1'"
    ),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_refused(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, message = _REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
