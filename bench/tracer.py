"""Outside-in span tracer for the spherefit package.

Wraps selected public functions and records one span per call: name, start,
end, parent span and op id.  The package binds many functions by name
(`from .approx import analyze`), so patching only the defining module would
miss most internal calls; `install` therefore rebinds the wrapper in every
`spherefit.*` namespace that holds the original object.  Spans stay in
memory until the op ends.  Nothing here is imported by the timed, untraced
ops.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (module, function) pairs wrapped in a traced op: the public entry point of
# every layer whose work the benchmark attributes
TRACED = (
    ("harmonics", "legendre_matrix"),
    ("harmonics", "sph_harm_matrix"),
    ("params", "balancing_principle"),
    ("params", "kernel_select"),
    ("approx", "operator_norm_bound"),
    ("approx", "weighted_abs_legendre_sums"),
    ("approx", "analyze"),
    ("approx", "regularized_fit"),
    ("approx", "evaluate_grid"),
    ("approx", "penalized_functional"),
    ("approx", "save_coefficients"),
    ("cubature", "gauss_legendre_rule"),
    ("cubature", "probe_grid"),
    ("experiments", "run_experiment_3"),
    ("experiments", "franke_cap_eval"),
    ("experiments", "add_noise"),
    ("cli", "main"),
)

# counters taken from a function's result, summed over its calls
RESULT_COUNTERS = {
    "harmonics.legendre_matrix": {"values": lambda r: r.size},
    "harmonics.sph_harm_matrix": {"bytes": lambda r: r.nbytes},
    "params.balancing_principle": {
        "steps": lambda r: len(r.trace),
        "triggered": lambda r: int(r.triggered),
    },
}

ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    counters: dict | None = None


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`, child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
        counters = RESULT_COUNTERS.get(name)
        if counters:
            # reduce to numbers now: holding the arrays would inflate peak memory
            span.counters = {c: int(count(result)) for c, count in counters.items()}
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Rebind a wrapper for each TRACED function in every spherefit namespace."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {m: importlib.import_module(f"spherefit.{m}") for m, _ in TRACED}
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spherefit"]
        for mod_name, fn_name in TRACED:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound name to its original function."""
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and result counters per wrapped function.

        `params.kernel_select.candidates` counts the balancing calls made
        directly under each kernel_select span.  Every wrapped function is
        reported, with zeros when the op never reached it.
        """
        out: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            for counter in RESULT_COUNTERS.get(name, {}):
                out[f"{name}.{counter}"] = 0
            if name == "params.kernel_select":
                out[f"{name}.candidates"] = 0
        for s, self_s in zip(self.spans, self.self_times()):
            if s.name == ROOT:
                continue
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += self_s
            for counter, value in (s.counters or {}).items():
                out[f"{s.name}.{counter}"] += value
            if s.name == "params.balancing_principle" and s.parent is not None:
                if self.spans[s.parent].name == "params.kernel_select":
                    out["params.kernel_select.candidates"] += 1
        return out
