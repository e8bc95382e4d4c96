"""Instrumentation bookkeeping: span coverage, metric names, install/restore."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import jacobisplit
import jacobisplit.cli as cli
import jacobisplit.jacobi as jacobi
import jacobisplit.splitting as splitting
from layers import (
    ALL_WORKLOADS,
    CACHE_SPAN,
    EXPECTED_SPANS,
    FUNCTIONS,
    METHODS,
    ROOT_SPAN,
    SPAN_METRICS,
    Instrumentation,
    missing_spans,
    per_layer_metrics,
)
from spans import SpanRecorder
from worker import end_to_end_metrics, pooled_tail

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_every_span_must_fire_on_some_workload():
    spans = set(FUNCTIONS) | set(METHODS) | {CACHE_SPAN, ROOT_SPAN}
    assert set(EXPECTED_SPANS) == spans
    for span, workloads in EXPECTED_SPANS.items():
        assert workloads, span
        assert workloads <= ALL_WORKLOADS, span
    assert {w["name"] for w in BENCHMARK["workloads"]} == ALL_WORKLOADS


def test_span_metrics_refer_to_known_spans():
    for _, span, key in SPAN_METRICS:
        assert span in EXPECTED_SPANS
        assert key in ("calls", "self_s")


def test_per_layer_metric_names_match_benchmark_json():
    inst = Instrumentation(SpanRecorder())
    names = set(per_layer_metrics({}, inst, 1)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


def test_end_to_end_metric_names_match_benchmark_json():
    samples = [("a", 0.5), ("b", 0.1), ("a", 0.7), ("b", 0.3), ("c", 0.2)]
    got = end_to_end_metrics([1.0, 1.2], samples, 360, [1e-12])
    assert set(got) | {"setup_s"} == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert got["wall_s"] == pytest.approx(1.1)
    # per-scenario medians are a: 0.6, b: 0.2, c: 0.2
    assert got["scenario_ms_p50"] == pytest.approx(200.0)
    assert got["scenario_ms_tail"] == pytest.approx(600.0)
    assert got["node_throughput"] == pytest.approx(360 / 1.8)
    assert got["accuracy_digits"] == pytest.approx(12.0)


def test_latency_summary_ignores_the_gap_between_scenarios():
    # two equal clusters: a pooled median would sit between them
    samples = [("fast", 0.1 + 1e-3 * i) for i in range(15)] + [("slow", 1.0 + 1e-3 * i) for i in range(15)]
    got = end_to_end_metrics([1.1], samples, 1, [1e-12])
    assert got["scenario_ms_p50"] == pytest.approx((107.0 + 1007.0) / 2)
    assert got["scenario_ms_tail"] == pytest.approx(1007.0)
    assert pooled_tail(samples) == {"samples": 30, "percentile": 50.0, "ms": pytest.approx(114.0)}
    assert pooled_tail(samples[:19])["percentile"] is None


def test_missing_spans_is_an_error_only_where_expected():
    table = {span: {"calls": 1} for span in EXPECTED_SPANS}
    assert missing_spans(table, "fine-grid") == []
    del table["cli.traces"]
    assert missing_spans(table, "fine-grid") == []
    assert missing_spans(table, "reduction-traces") == ["cli.traces"]


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    original = jacobi.integrate
    original_matrix = jacobisplit.CurvatureField.matrix
    inst = Instrumentation(SpanRecorder())
    inst.install()
    try:
        for mod in (jacobisplit, jacobi, cli):
            assert mod.integrate is not original
            assert mod.integrate.__wrapped__ is original
        assert splitting.singular_events is jacobi.singular_events
        report = inst.run_job(lambda: cli.run_scenario("sphere-zero"))
        assert report.all_matched
    finally:
        inst.restore()
    for mod in (jacobisplit, jacobi, cli):
        assert mod.integrate is original
    assert jacobisplit.CurvatureField.matrix is original_matrix
    assert isinstance(vars(jacobi.JacobiTrajectory)["svals"], type(vars(jacobi.JacobiTrajectory)["scale"]))

    table = inst.recorder.table()
    assert table[ROOT_SPAN]["calls"] == 1
    assert table["jacobi.integrate"]["calls"] == 1
    assert table["splitting.check_splitting"]["calls"] == 1
    assert table["comparison.rigidity_check"]["calls"] == 1
    metrics = per_layer_metrics(table, inst, 1)
    assert metrics["cli.integrate_per_run"] == 1.0
    assert inst.counters["integrate_steps"] == report.n_nodes - 1
    assert 0.0 < metrics["jacobi.cache.hit_ratio"] < 1.0
    assert math.isfinite(metrics["jacobi.integrate.us_per_step"])


def test_reduce_per_psi_counts_repeats_within_a_run():
    inst = Instrumentation(SpanRecorder())
    inst.install()
    try:
        inst.run_job(lambda: cli.run_scenario("hopf-holonomy"))
        inst.run_job(lambda: cli.run_scenario("hopf-holonomy"))
    finally:
        inst.restore()
    metrics = per_layer_metrics(inst.recorder.table(), inst, 2)
    # the hce and reduced-boundary checks each reduce the same psi
    assert metrics["reduction.reduce.calls"] == 2.0
    assert metrics["cli.reduce_per_psi"] == 2.0
    assert np.isclose(metrics["cli.integrate_per_run"], 1.0)
