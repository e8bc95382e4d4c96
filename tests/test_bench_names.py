"""The traced benchmark (``perfbench/layers.py``) wraps package functions,
methods and caches by name; every name it lists must still resolve, and
the fine-grid families it runs must still build."""

import importlib
import importlib.util
import json
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return _load


def test_traced_names_resolve(perfbench):
    layers = perfbench("layers")
    for span, (module, names) in layers.FUNCTIONS.items():
        mod = importlib.import_module(f"{layers.PACKAGE}.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{span}: {module}.{name}"
    for span, (module, cls, method) in layers.METHODS.items():
        owner = getattr(importlib.import_module(f"{layers.PACKAGE}.{module}"), cls)
        assert callable(getattr(owner, method, None)), f"{span}: {cls}.{method}"
    traj_cls = importlib.import_module(f"{layers.PACKAGE}.jacobi").JacobiTrajectory
    for name in layers.CACHED:
        assert isinstance(traj_cls.__dict__.get(name), cached_property), name


def test_fine_grid_families_build(perfbench):
    families = perfbench("families")
    expected = json.loads((PERFBENCH / "expected_verdicts.json").read_text())
    built = families.fine_grid_families(np.random.default_rng([1, 0]), expected, "1-0")
    names = [f"{kind}-1-0-{i}" for i, kind in enumerate(families.FAMILY_KINDS)]
    assert [sc.name for sc in built] == names


def test_a_traced_pass_fires_every_expected_span(perfbench, monkeypatch, tmp_path):
    # one traced pass of each workload, as the traced benchmark runs it: the
    # trajectory tap beneath the span wrappers and each job's check inside
    # them; the reduction-traces jobs read the example config from the root
    monkeypatch.chdir(PERFBENCH.parent)
    worker = perfbench("worker")
    for name in ("builtin-sweep", "fine-grid", "reduction-traces"):
        recorder = worker.SpanRecorder()
        inst = worker.Instrumentation(recorder)
        tap = worker.TrajectoryTap()
        tap.install()
        runner = worker.Runner(worker.WORKLOADS[name](3, tap, tmp_path / name))
        worker.under_tap(tap, inst.install)
        runner.instrumentation = inst
        try:
            runner.run_pass(0)
        finally:
            worker.under_tap(tap, inst.restore)
            tap.restore()
        assert runner.errors == [], name
        assert worker.missing_spans(recorder.table(), name) == [], name
