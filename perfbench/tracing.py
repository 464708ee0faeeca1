"""Spans around the public calls into each umot layer, recorded from outside.

Nothing in ``umot`` changes.  ``Tracer.installed()`` rebinds the public
functions of each layer in the namespaces of the modules that call them
(``umot``, ``umot.pipeline``, ``umot.nonlinear``, ...) and wraps the scipy
entry points umot solves with (``splu``, ``spsolve``, ``cg``); leaving the
block restores every original.  A span records its name, start, end and
parent.  Spans stay in memory until the run writes them out.

Span names are ``<layer>.<call>``.  A layer's self time is the time its spans
cover minus the time their child spans cover, so the self times of all layers
in one task add up to the task's root span.  Work the tracer does for itself
(reading the LU fill off a factor) is a span of the ``trace`` layer, which
keeps that cost visible instead of charging it to a umot layer.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from contextlib import contextmanager

import scipy.sparse.linalg as spla

import umot
import umot.constant_bg
import umot.ellipticity
import umot.fileio
import umot.forward
import umot.linearized
import umot.nonlinear
import umot.pipeline
import umot.scenario

LAYERS = (
    "task",
    "scenario",
    "pipeline",
    "fileio",
    "forward",
    "ellipticity",
    "linearized",
    "constant_bg",
    "nonlinear",
    "solvers",
    "trace",
)

# Values read off results; each repeats exactly for the same code and seed.
EXACT = (
    "forward.build_bundle_calls",
    "ellipticity.margin",
    "linearized.solve_normal_calls",
    "linearized.unknowns",
    "linearized.nnz",
    "nonlinear.sweeps",
    "nonlinear.halvings",
    "pipeline.artifact_writes",
    "pipeline.artifact_bytes",
    "solvers.factorizations",
    "solvers.lu_fill_nnz",
    "solvers.lu_solves",
    "solvers.cg_calls",
    "solvers.cg_iterations",
    "solvers.spsolve_calls",
)

# metric name -> span whose summed duration it reports
SPAN_TIMES = {
    "forward.build_bundle_s": "forward.build_bundle",
    "ellipticity.certify_s": "ellipticity.certify_field",
    "linearized.assemble_s": "linearized.assemble_system",
    "linearized.solve_normal_s": "linearized.solve_normal_equations",
    "linearized.injectivity_probe_s": "linearized.injectivity_probe",
    "constant_bg.preprocess_s": "constant_bg.preprocess_data",
    "constant_bg.solve_s": "constant_bg.solve_constant_bg",
    "nonlinear.reconstruct_s": "nonlinear.reconstruct",
    "pipeline.run_s": "pipeline.run_pipeline",
    "solvers.factor_s": "solvers.splu",
    "solvers.lu_solve_s": "solvers.lu_solve",
    "solvers.cg_s": "solvers.cg",
    "solvers.spsolve_s": "solvers.spsolve",
}

_UMOT_MODULES = (
    umot,
    umot.scenario,
    umot.pipeline,
    umot.forward,
    umot.ellipticity,
    umot.linearized,
    umot.constant_bg,
    umot.nonlinear,
)


class _LUProxy:
    """Stands in for a SuperLU factor so that each triangular solve is a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solvers.lu_solve"):
            x = self._lu.solve(*args, **kwargs)
        self._tracer.add("solvers.lu_solves", 1)
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` holds ``(name, start, end, parent)`` tuples, where ``parent`` is
    the index of the enclosing span or -1.  ``values`` holds counts and values
    read off results, keyed by metric name.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_ = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_)

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def start_task(self) -> int:
        """Forget the values of the previous task; spans are kept for the run."""
        self.values = {}
        return len(self.spans)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _after_certify(self, report, args, kwargs):
        self.values["ellipticity.margin"] = float(report.global_margin)

    def _after_assemble(self, system, args, kwargs):
        self.values["linearized.unknowns"] = int(system.A.matrix.shape[1])
        self.values["linearized.nnz"] = int(system.A.matrix.nnz)

    def _after_reconstruct(self, result, args, kwargs):
        history = result.history
        base = history[0].damping
        self.add("nonlinear.sweeps", len(history) - 1)
        self.add(
            "nonlinear.halvings",
            sum(round(math.log2(base / r.damping)) for r in history[1:]),
        )

    def _after_write(self, out, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.add("pipeline.artifact_writes", 1)
        self.add("pipeline.artifact_bytes", os.path.getsize(path))

    def _splu(self, orig):
        def splu(*args, **kwargs):
            with self.span("solvers.splu"):
                lu = orig(*args, **kwargs)
            with self.span("trace.lu_fill"):
                self.add("solvers.lu_fill_nnz", int(lu.L.nnz + lu.U.nnz))
            self.add("solvers.factorizations", 1)
            return _LUProxy(lu, self)

        return splu

    def _cg(self, orig):
        def cg(A, b, *args, callback=None, **kwargs):
            iterations = 0

            def count(xk):
                nonlocal iterations
                iterations += 1
                if callback is not None:
                    callback(xk)

            with self.span("solvers.cg"):
                out = orig(A, b, *args, callback=count, **kwargs)
            self.add("solvers.cg_calls", 1)
            self.add("solvers.cg_iterations", iterations)
            return out

        return cg

    def _spsolve(self, orig):
        def spsolve(*args, **kwargs):
            with self.span("solvers.spsolve"):
                x = orig(*args, **kwargs)
            self.add("solvers.spsolve_calls", 1)
            return x

        return spsolve

    @contextmanager
    def installed(self):
        """Rebind the traced entry points for the duration of the block."""
        def count(key):
            return lambda out, args, kwargs: self.add(key, 1)

        targets = [
            (umot.scenario.parse_scenario, "scenario.parse_scenario", None),
            (umot.pipeline.run_pipeline, "pipeline.run_pipeline", None),
            (umot.forward.build_bundle, "forward.build_bundle",
             count("forward.build_bundle_calls")),
            (umot.ellipticity.certify_field, "ellipticity.certify_field",
             self._after_certify),
            (umot.linearized.assemble_system, "linearized.assemble_system",
             self._after_assemble),
            (umot.linearized.solve_normal_equations,
             "linearized.solve_normal_equations",
             count("linearized.solve_normal_calls")),
            (umot.linearized.injectivity_probe, "linearized.injectivity_probe", None),
            (umot.linearized.normal_residual, "linearized.normal_residual", None),
            (umot.constant_bg.preprocess_data, "constant_bg.preprocess_data", None),
            (umot.constant_bg.solve_constant_bg, "constant_bg.solve_constant_bg", None),
            (umot.nonlinear.reconstruct, "nonlinear.reconstruct",
             self._after_reconstruct),
        ]
        saved = []

        def rebind(module, name, new):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, new)

        for fn, span_name, after in targets:
            wrapper = self._wrap(span_name, fn, after)
            for module in _UMOT_MODULES:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        rebind(module, name, wrapper)
        # The pipeline's artifact writes; fileio's own internal calls stay
        # unwrapped so that each artifact is counted once.
        for name in ("dump_json", "write_field_json", "write_field_csv"):
            fn = getattr(umot.fileio, name)
            rebind(umot.pipeline, name,
                   self._wrap(f"fileio.{name}", fn, self._after_write))
        rebind(spla, "splu", self._splu(spla.splu))
        rebind(spla, "cg", self._cg(spla.cg))
        rebind(spla, "spsolve", self._spsolve(spla.spsolve))
        try:
            yield self
        finally:
            for module, name, value in reversed(saved):
                setattr(module, name, value)

    # ------------------------------------------------------------- summary

    def summarize(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the task whose root span has index ``first``."""
        spans = self.spans[first:]
        if not spans or spans[0][3] != -1 or any(s[3] < first for s in spans[1:]):
            raise RuntimeError("task spans are not rooted in one task span")
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans[1:]:
            child_time[parent - first] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        by_name: dict[str, float] = {}
        for (name, start, end, _), inner in zip(spans, child_time):
            dur = end - start
            out[f"{name.split('.')[0]}.self_s"] += dur - inner
            by_name[name] = by_name.get(name, 0.0) + dur
        for metric, span_name in SPAN_TIMES.items():
            out[metric] = by_name.get(span_name, 0.0)
        out["pipeline.artifact_write_s"] = sum(
            by_name.get(f"fileio.{n}", 0.0)
            for n in ("dump_json", "write_field_json", "write_field_csv")
        )
        for key in EXACT:
            out[key] = self.values.get(key, 0)
        root = spans[0]
        out["trace.task_s"] = root[2] - root[1]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times_account(metrics: dict[str, float], rel: float = 1e-9) -> bool:
    """True when the per-layer self times add up to the traced task time."""
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    return abs(total - metrics["trace.task_s"]) <= rel * metrics["trace.task_s"]
