"""Run one benchmark op in a fresh interpreter.

    python3 bench/child.py RESULT_JSON [OP_SPEC_JSON TRACED]

Without an op spec the child only times `import spherefit` (a set-up
probe).  Otherwise it times the import, prepares and runs the op (under the
span tracer when TRACED is 1), reads its peak RSS and CPU time, then checks
the output.  Either way it writes one JSON record to RESULT_JSON.

A fresh interpreter per op means the package's LRU caches start cold, as
they do for a CLI user, and the peak RSS is that op's alone.  Only the
standard library is loaded before the timed import.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

# a runaway op fails with MemoryError instead of exhausting the machine
ADDRESS_SPACE_LIMIT = 6 << 30


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    result_path = Path(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    t0 = time.perf_counter()
    import spherefit

    record = {"setup_s": time.perf_counter() - t0, "module": spherefit.__file__}
    if len(sys.argv) > 2:
        record.update(run_op(json.loads(Path(sys.argv[2]).read_text()), sys.argv[3] == "1"))
    result_path.write_text(json.dumps(record))
    return 0 if record.get("ok", True) else 1


def run_op(spec: dict, traced: bool) -> dict:
    import ops

    op = ops.prepare(spec)
    tracer = None
    if traced:
        from tracer import ROOT, Tracer

        tracer = Tracer(spec["op"])
        tracer.install()
    cpu0 = _cpu_s()
    try:
        t0 = time.perf_counter()
        result = tracer.call(ROOT, op) if tracer else op()
        op_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    record = {
        "op_s": op_s,
        "cpu_s": _cpu_s() - cpu0,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": traced,
    }
    if tracer:
        record["layers"] = tracer.layer_metrics()
    try:
        record["rel_error"] = ops.check(spec, result)
        record["ok"] = True
    except ops.CheckFailed as exc:
        record.update(ok=False, error=f"check failed: {exc}")
    return record


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        # the parent counts the op as failed from the exit code and this text
        traceback.print_exc()
        sys.exit(1)
