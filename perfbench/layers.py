"""Traced run: spans around the public functions of each jacobisplit module.

``Instrumentation`` replaces every binding of a traced function in the
package's modules (``cli`` imports ``integrate``, ``reduce`` and
``check_splitting`` by name, ``splitting`` and ``comparison`` import
``singular_events``, and so on) with a span-recording wrapper, and puts it
all back on ``restore``. Nothing under ``src/`` is edited. Methods are
wrapped on their class; the ``svals``/``dets``/``stacked_scale`` caches of
``JacobiTrajectory`` are replaced by a descriptor that counts first and
repeat accesses.

``per_layer_metrics`` turns the recorded spans and counters into the
per-layer metrics named in ``BENCHMARK.json``; ``EXPECTED_SPANS`` names the
workloads on which each span must fire.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from spans import SpanRecorder

PACKAGE = "jacobisplit"
MODULES = ("symlin", "curvature", "jacobi", "splitting", "comparison", "reduction", "cli")

# span name -> (module, function names); each function is wrapped wherever
# a module of the package binds it.
FUNCTIONS = {
    "curvature.ric_k_floor": ("curvature", ("ric_k_floor",)),
    "jacobi.integrate": ("jacobi", ("integrate",)),
    "jacobi.singular_events": ("jacobi", ("singular_events",)),
    "jacobi.riccati_series": ("jacobi", ("riccati_series",)),
    "symlin.spectrum": ("symlin", ("spectrum",)),
    "symlin.orthonormal_columns": ("symlin", ("orthonormal_columns",)),
    "splitting.check_splitting": ("splitting", ("check_splitting",)),
    "splitting.boundary_eigenvalue_gate": ("splitting", ("boundary_eigenvalue_gate",)),
    "splitting.span": ("splitting", ("parallel_span", "sine_span", "vanishing_span")),
    "splitting.self_adjoint_gate": ("splitting", ("self_adjoint_gate",)),
    "comparison.rigidity_check": ("comparison", ("rigidity_check",)),
    "comparison.scalar_traces": ("comparison", ("scalar_traces",)),
    "reduction.reduce": ("reduction", ("reduce",)),
    "reduction.hce_residual": ("reduction", ("hce_residual",)),
    "reduction.recovered_curvature_deviation": ("reduction", ("recovered_curvature_deviation",)),
    "reduction.reduced_boundary_check": ("reduction", ("reduced_boundary_check",)),
    "reduction.export_reduction_csv": ("reduction", ("export_reduction_csv",)),
    "cli.run_scenario": ("cli", ("run_scenario",)),
    "cli.config_load": ("cli", ("scenario_from_config",)),
    # the CLI's trace writer is private but bound by name in cli only
    "cli.traces": ("cli", ("_write_traces",)),
}
# span name -> (module, class, method)
METHODS = {
    "curvature.matrix": ("curvature", "CurvatureField", "matrix"),
    "jacobi.interpolate": ("jacobi", "JacobiTrajectory", "interpolate"),
    "cli.report_json": ("cli", "RunReport", "to_json"),
}
CACHED = ("svals", "dets", "stacked_scale")
CACHE_SPAN = "jacobi.cache"
ROOT_SPAN = "bench.scenario"

ALL_WORKLOADS = frozenset({"builtin-sweep", "fine-grid", "reduction-traces"})
BUILTIN_AND_CLI = frozenset({"builtin-sweep", "reduction-traces"})
# span name -> workloads on which it must fire; a traced run on one of them
# that records no call is an error.
EXPECTED_SPANS = {
    ROOT_SPAN: ALL_WORKLOADS,
    CACHE_SPAN: ALL_WORKLOADS,
    "curvature.matrix": ALL_WORKLOADS,
    "curvature.ric_k_floor": ALL_WORKLOADS,
    "jacobi.integrate": ALL_WORKLOADS,
    "jacobi.singular_events": ALL_WORKLOADS,
    "jacobi.interpolate": ALL_WORKLOADS,
    "jacobi.riccati_series": BUILTIN_AND_CLI,
    "symlin.spectrum": ALL_WORKLOADS,
    "symlin.orthonormal_columns": ALL_WORKLOADS,
    "splitting.check_splitting": ALL_WORKLOADS,
    "splitting.boundary_eigenvalue_gate": ALL_WORKLOADS,
    "splitting.span": ALL_WORKLOADS,
    "splitting.self_adjoint_gate": ALL_WORKLOADS,
    "comparison.rigidity_check": ALL_WORKLOADS,
    "comparison.scalar_traces": frozenset({"reduction-traces"}),
    "reduction.reduce": BUILTIN_AND_CLI,
    "reduction.hce_residual": BUILTIN_AND_CLI,
    "reduction.recovered_curvature_deviation": BUILTIN_AND_CLI,
    "reduction.reduced_boundary_check": BUILTIN_AND_CLI,
    "reduction.export_reduction_csv": frozenset({"reduction-traces"}),
    "cli.run_scenario": ALL_WORKLOADS,
    "cli.config_load": frozenset({"reduction-traces"}),
    "cli.traces": frozenset({"reduction-traces"}),
    "cli.report_json": BUILTIN_AND_CLI,
}

# (per-layer metric, span, statistic); statistic is per traced pass
SPAN_METRICS = (
    ("curvature.matrix.calls", "curvature.matrix", "calls"),
    ("curvature.matrix.s", "curvature.matrix", "self_s"),
    ("curvature.ric_k_floor.calls", "curvature.ric_k_floor", "calls"),
    ("curvature.ric_k_floor.s", "curvature.ric_k_floor", "self_s"),
    ("jacobi.integrate.calls", "jacobi.integrate", "calls"),
    ("jacobi.integrate.s", "jacobi.integrate", "self_s"),
    ("jacobi.singular_events.calls", "jacobi.singular_events", "calls"),
    ("jacobi.singular_events.s", "jacobi.singular_events", "self_s"),
    ("jacobi.interpolate.calls", "jacobi.interpolate", "calls"),
    ("jacobi.riccati_series.s", "jacobi.riccati_series", "self_s"),
    ("jacobi.cache.s", CACHE_SPAN, "self_s"),
    ("symlin.spectrum.calls", "symlin.spectrum", "calls"),
    ("symlin.spectrum.s", "symlin.spectrum", "self_s"),
    ("symlin.orthonormal_columns.calls", "symlin.orthonormal_columns", "calls"),
    ("splitting.check_splitting.s", "splitting.check_splitting", "self_s"),
    ("splitting.boundary_eigenvalue_gate.s", "splitting.boundary_eigenvalue_gate", "self_s"),
    ("splitting.span.s", "splitting.span", "self_s"),
    ("splitting.self_adjoint_gate.s", "splitting.self_adjoint_gate", "self_s"),
    ("comparison.rigidity_check.s", "comparison.rigidity_check", "self_s"),
    ("comparison.scalar_traces.s", "comparison.scalar_traces", "self_s"),
    ("reduction.reduce.calls", "reduction.reduce", "calls"),
    ("reduction.reduce.s", "reduction.reduce", "self_s"),
    ("reduction.hce_residual.s", "reduction.hce_residual", "self_s"),
    ("reduction.recovered_curvature_deviation.s", "reduction.recovered_curvature_deviation", "self_s"),
    ("reduction.reduced_boundary_check.s", "reduction.reduced_boundary_check", "self_s"),
    ("reduction.export_reduction_csv.s", "reduction.export_reduction_csv", "self_s"),
    ("cli.run_scenario.s", "cli.run_scenario", "self_s"),
    ("cli.config_load.s", "cli.config_load", "self_s"),
    ("cli.report_json.s", "cli.report_json", "self_s"),
    ("cli.traces.s", "cli.traces", "self_s"),
)


class _CountingCache:
    """Data descriptor standing in for a ``cached_property``: it serves the
    value stored in the instance dict (a repeat access) or computes and
    stores it inside a span (a first access)."""

    def __init__(self, attr: str, compute, counters: dict):
        self.attr = attr
        self.compute = compute
        self.counters = counters

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        store = obj.__dict__
        if self.attr in store:
            self.counters["cache_repeat"] += 1
            return store[self.attr]
        self.counters["cache_first"] += 1
        value = self.compute(obj)
        store[self.attr] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.attr] = value


def _trajectory_digest(traj) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(traj.times).tobytes())
    h.update(np.ascontiguousarray(traj.y).tobytes())
    return h.digest()


class Instrumentation:
    """Span wrappers and waste counters installed on the loaded package."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.counters = {
            "cache_first": 0,
            "cache_repeat": 0,
            "integrate_steps": 0,
            "report_json_bytes": 0,
            "traces_bytes": 0,
        }
        self.runs = 0
        self.reduce_keys: set[tuple[int, bytes, bytes]] = set()
        self._undo: list[tuple[object, str, object]] = []

    def run_job(self, fn):
        """Run one scenario job inside the root span."""
        self.runs += 1
        return self.recorder.record(ROOT_SPAN, fn)

    # after-hooks, called with (result, args, kwargs) once a span closes
    def _after_integrate(self, traj, args, kwargs):
        self.counters["integrate_steps"] += traj.n_nodes - 1

    def _after_reduce(self, rs, args, kwargs):
        traj = args[0] if args else kwargs["traj"]
        psi = args[1] if len(args) > 1 else kwargs["psi_basis"]
        key = np.ascontiguousarray(np.asarray(psi, dtype=float)).tobytes()
        self.reduce_keys.add((self.runs, _trajectory_digest(traj), key))

    def _after_report_json(self, text, args, kwargs):
        self.counters["report_json_bytes"] += len(text.encode("utf-8"))

    def _after_traces(self, paths, args, kwargs):
        self.counters["traces_bytes"] += sum(Path(p).stat().st_size for p in paths)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
        after = {
            "jacobi.integrate": self._after_integrate,
            "reduction.reduce": self._after_reduce,
            "cli.traces": self._after_traces,
            "cli.report_json": self._after_report_json,
        }
        for span, (home, funcs) in FUNCTIONS.items():
            home_mod = sys.modules[f"{PACKAGE}.{home}"]
            for fname in funcs:
                fn = getattr(home_mod, fname)
                wrapped = self.recorder.wrap(span, fn, after.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapped)
        for span, (home, cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{home}"], cls_name)
            self._set(cls, meth, self.recorder.wrap(span, vars(cls)[meth], after.get(span)))
        traj_cls = sys.modules[f"{PACKAGE}.jacobi"].JacobiTrajectory
        for attr in CACHED:
            compute = self.recorder.wrap(CACHE_SPAN, vars(traj_cls)[attr].func)
            self._set(traj_cls, attr, _CountingCache(attr, compute, self.counters))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def per_layer_metrics(table: dict, inst: Instrumentation, passes: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the self-time table."""

    def stat(span: str, key: str) -> float:
        return table.get(span, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric, span, key in SPAN_METRICS:
        out[metric] = stat(span, key) / passes
    c = inst.counters
    steps = c["integrate_steps"]
    out["jacobi.integrate.us_per_step"] = stat("jacobi.integrate", "self_s") / steps * 1e6 if steps else 0.0
    accesses = c["cache_first"] + c["cache_repeat"]
    out["jacobi.cache.hit_ratio"] = c["cache_repeat"] / accesses if accesses else 0.0
    out["cli.report_json.bytes"] = c["report_json_bytes"] / passes
    out["cli.traces.bytes"] = c["traces_bytes"] / passes
    runs = inst.runs
    out["cli.integrate_per_run"] = stat("jacobi.integrate", "calls") / runs if runs else 0.0
    keys = len(inst.reduce_keys)
    out["cli.reduce_per_psi"] = stat("reduction.reduce", "calls") / keys if keys else 0.0
    return out


def missing_spans(table: dict, workload: str) -> list[str]:
    """Spans expected on ``workload`` that recorded no call."""
    return sorted(
        span
        for span, workloads in EXPECTED_SPANS.items()
        if workload in workloads and table.get(span, {}).get("calls", 0) == 0
    )
