"""Output audit: one sha256 per file the CLI writes on the reference inputs,
so two trees can be checked for byte-identical outputs by diffing two runs.

Into OUT_DIR it writes, through `spherefit.cli.main`:
  exp<N>_seed<S>/  experiments 1-3 for each seed (default simulation counts)
  rule.csv         gen-rule at the reference degree
  fit-<bound>/     fit --bp with each norm bound (grid, grid-abs, crude, l2)
  fit-fixed/       fit at a fixed alpha
The fits use the reference data: the Franke-plus-cap function at the degree-30
rule's nodes, Gaussian noise of sigma 0.5 (seed 1), Laplace-Beltrami weights.
Every file is then hashed and printed as `<sha256>  <path>`, after one line
naming the BLAS thread setting (`_support.blas_setting`); no output records
OUT_DIR, so two runs into different directories list the same hashes, and a
diff of two listings shows a thread-setting mismatch.

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root, once per tree under one BLAS thread setting
(`OPENBLAS_NUM_THREADS`), and diff the two listings:

    PYTHONPATH=src python tests/output_audit.py /tmp/audit-a --seeds 0 1 2 3 4
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
from pathlib import Path

from _support import blas_setting

from spherefit import cli, experiments, gauss_legendre_rule

DEGREE = 30
DATA_SEED = 1
FIXED_ALPHA = 1e-4
BOUNDS = ("grid", "grid-abs", "crude", "l2")


def run(argv: list[str]) -> None:
    """One CLI call, its "wrote ..." lines kept off the hash listing."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"spherefit {' '.join(argv)} failed")


def write_outputs(out: Path, seeds) -> None:
    for seed in seeds:
        for which in (1, 2, 3):
            run(["experiment", "--which", str(which), "--seed", str(seed),
                 "--out", str(out / f"exp{which}_seed{seed}")])
    run(["gen-rule", "--degree", str(DEGREE), "--out", str(out / "rule.csv")])

    rule = gauss_legendre_rule(DEGREE)
    clean = experiments.franke_cap_eval(rule.points)
    sigma = experiments.DEFAULTS["gaussian_sigma"]
    noisy, delta = experiments.add_noise(clean, experiments.NoiseSpec("gaussian", sigma, DATA_SEED))
    samples = out / "samples.csv"
    samples.write_text("value\n" + "".join(f"{v:.17g}\n" for v in noisy))
    fit = ["fit", "--degree", str(DEGREE), "--samples", str(samples), "--beta", "laplace-beltrami"]
    bp = fit + ["--bp", "--noise-level", repr(delta)]
    for bound in BOUNDS:
        run(bp + ["--bp-norm-bound", bound, "--out", str(out / f"fit-{bound}")])
    run(fit + ["--alpha", repr(FIXED_ALPHA), "--out", str(out / "fit-fixed")])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory (made if absent)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1], help="experiment seeds")
    args = parser.parse_args()
    out = args.out.resolve()
    print(blas_setting())
    write_outputs(out, args.seeds)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
