"""spherefit benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Closed loop, one op at a time from this single process; each op runs in a
fresh child interpreter (`child.py`), so the package's caches start cold
and peak RSS belongs to that op alone.  The run first starts a few children
that only time `import spherefit` (`setup_s`), then starts ops while the
next one is expected to end within `--seconds`.  Op i works on data set i,
derived from `--seed` and i, so a run's median covers several data sets
and the same seed always gives the same inputs.

With `--trace 0` no op is traced and the last stdout line holds the
end-to-end metrics.  With `--trace 1` an untraced and a traced op run on
each data set in turn; the last line holds the per-layer metrics of the traced ops,
CPU time of the untraced ones and the tracing overhead.  `--smoke` runs the
same workload at a tiny size in seconds, for the benchmark's own tests.
Workload choice and the layer-to-metric map are in README.md.

A full record, with the machine it ran on, is written to
`.bench_work/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_PROBES = 3
# a child that runs longer is killed and counted as failed
OP_TIME_LIMIT_S = 90.0
# past this, a run stops even short of its minimum op count, so that a run
# of hung ops still ends within 60 + 90 s
GIVE_UP_S = 60.0

# rel_error is the median over the first data sets, so it is fixed for a seed
REL_ERROR_DATASETS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# machine record (read-only: /proc, the interpreter and the libraries)


def _meminfo_kb(key: str):
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _openblas_threads():
    """Thread count of the OpenBLAS loaded by numpy, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit():
    """Commit of the checkout from .git, without calling git (which may search upward)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": _meminfo_kb("MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# children


def run_child(work: Path, name: str, op_spec: dict | None = None, traced: bool = False) -> dict:
    """Start one child, wait for it within the time limit, return its record.

    Without `op_spec` the child is a set-up probe that only imports the package.
    """
    result_path = work / f"{name}.result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path)]
    if op_spec is not None:
        spec_path = work / f"{name}.json"
        spec_path.write_text(json.dumps(op_spec))
        cmd += [str(spec_path), str(int(traced))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=OP_TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": f"timed out after {OP_TIME_LIMIT_S} s", "wall_s": time.perf_counter() - t0}
    record = json.loads(result_path.read_text()) if result_path.is_file() else {}
    record["wall_s"] = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = (err.strip().splitlines() or [""])[-1]
        record.setdefault("error", f"exit code {proc.returncode}: {tail}")
        record["ok"] = False
    elif Path(record["module"]).resolve() != (SRC / "spherefit" / "__init__.py").resolve():
        record.update(ok=False, error=f"imported spherefit from {record['module']}, not {SRC}")
    return record


def run_ops(spec: dict, seconds: float, trace: bool, build_inputs):
    """Set-up probes, then ops until the next one would overrun `seconds`.

    Op i works on data set i of the run; with tracing, an untraced and a
    traced op share each data set, so their difference is the overhead.
    """
    work = Path(spec["work"])
    start = time.perf_counter()
    probes = [run_child(work, f"probe{i}") for i in range(SETUP_PROBES)]
    bad = [p for p in probes if not p.get("ok", True)]
    if bad:
        raise RuntimeError(f"set-up probe failed: {bad[0]['error']}")
    ops = []
    while True:
        i = len(ops)
        traced = trace and i % 2 == 1
        op_spec = build_inputs(spec, i // 2 if trace else i, i)
        ops.append(dict(run_child(work, f"op{i}", op_spec, traced), dataset=op_spec["dataset"], traced=traced))
        elapsed = time.perf_counter() - start
        enough = len(ops) >= (2 if trace else REL_ERROR_DATASETS)
        if (enough and elapsed + ops[-1]["wall_s"] > seconds) or elapsed > GIVE_UP_S:
            return probes, ops


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(probes, ops) -> dict:
    good = [o for o in ops if o["ok"]]
    first = [o["rel_error"] for o in good if o["dataset"] < REL_ERROR_DATASETS]
    return {
        "op_s": {"value": _median([o["op_s"] for o in good]), "unit": "s"},
        "setup_s": {"value": _median([r["setup_s"] for r in probes + ops if "setup_s" in r]), "unit": "s"},
        "peak_rss_mb": {"value": _median([o["maxrss_mb"] for o in good]), "unit": "MB"},
        "rel_error": {"value": _median(first), "unit": "ratio"},
        "ok_ratio": {"value": len(good) / len(ops), "unit": "ratio"},
    }


def per_layer(ops) -> dict:
    """Counts from the first data set's traced op, times as medians over ops."""
    plain = {o["dataset"]: o for o in ops if o["ok"] and not o["traced"]}
    traced = {o["dataset"]: o for o in ops if o["ok"] and o["traced"]}
    metrics = {}
    if traced:
        first = traced[min(traced)]["layers"]
        for name, value in first.items():
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(o["layers"][name] for o in traced.values()), "unit": "s"}
            else:
                metrics[name] = {"value": value, "unit": "count"}
    metrics["op.cpu_s"] = {"value": _median([o["cpu_s"] for o in plain.values()]), "unit": "s"}
    pairs = [traced[d]["op_s"] - plain[d]["op_s"] for d in traced if d in plain]
    metrics["trace.overhead_s"] = {"value": _median(pairs), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spherefit" / "__init__.py").is_file():
        print(f"error: no spherefit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ops as workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        spec = workloads.make_spec(args.workload, args.seed, args.smoke, work)
        probes, ops = run_ops(spec, args.seconds, bool(args.trace), workloads.build_inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in ops if not o["ok"]]
    metrics = per_layer(ops) if args.trace else end_to_end(probes, ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_record(args.seed),
        "metrics": metrics,
        "ops": ops,
        "setup_probes": probes,
    }
    results = WORK_ROOT / "results"
    results.mkdir(exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops ({len(failed)} failed), record in {result_path}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for o in failed:
        print(f"failed op on data set {o['dataset']}: {o['error']}")
    print(f"  {'fail_ratio':<44} {len(failed) / len(ops):.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
