"""Tests of the benchmark's tracer: exact counts on known calls, binding
sites, self time, the traced CLI child, the per-op metrics of each op kind
of a traced run, and the metric names that BENCHMARK.json lists."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import (KIND_METRICS, PER_LAYER, Tracer, instrument,  # noqa: E402
                     layer_metrics, traced_metrics)
from workloads import WORKLOADS  # noqa: E402

import leafwise  # noqa: E402
from leafwise import catalog, functionals as fl, patch, suppliers  # noqa: E402


def traced(fn):
    tracer = Tracer()
    with instrument(tracer):
        out = fn()
    return tracer, out


def test_supplier_compile_counts():
    tracer, _ = traced(catalog.sheared_torus4)
    assert tracer.counts["suppliers.kernels"] == 80
    assert tracer.calls["suppliers.compile"] == 1
    tracer, _ = traced(lambda: catalog.sphere(n=4))
    assert tracer.counts["suppliers.kernels"] == 175


def test_catalog_dict_binding_counts_once():
    tracer, _ = traced(lambda: catalog.build("sheared-torus-3", m1=4, m2=4, m3=4))
    assert tracer.calls["catalog.build"] == 1
    assert tracer.counts["suppliers.kernels"] == 80


def test_el_residual_geometry_counts():
    tube = catalog.tube4()
    tracer, res = traced(lambda: fl.el_residual(fl.w_nps(3), tube))
    assert res.shape == (32,)
    assert tracer.calls["patch.geometry"] == 63
    assert tracer.counts["patch.geometry_points"] == 2008
    assert tracer.counts["operators.result_points"] == 32
    metrics = layer_metrics(tracer.summary())
    assert metrics["operators.geometry_points_per_result_point"] == 2008 / 32


def test_binding_sites_wrapped_and_restored():
    originals = (fl.evaluate, suppliers.normal_jets, catalog.CATALOG["sphere"],
                 patch.FoliatedPatch.geometry)
    sphere = catalog.sphere(m_polar=8, m_azimuth=8)
    tracer = Tracer()
    with instrument(tracer):
        assert leafwise.evaluate is fl.evaluate is not originals[0]
        assert patch.normal_jets is suppliers.normal_jets is not originals[1]
        assert catalog.CATALOG["sphere"] is catalog.sphere is not originals[2]
        value = leafwise.evaluate(fl.w_nps(2), sphere)
    assert (fl.evaluate, suppliers.normal_jets, catalog.CATALOG["sphere"],
            patch.FoliatedPatch.geometry) == originals
    assert leafwise.evaluate is originals[0]
    assert value == fl.evaluate(fl.w_nps(2), sphere)
    assert tracer.calls["functionals.evaluate"] == 1
    assert tracer.calls["patch.geometry"] == 1
    assert tracer.calls["suppliers.normal_jets"] == 1
    assert tracer.counts["patch.geometry_points"] == 64
    # jets r, d1, d2 of an order-2 jet in R^3: 3 + 6 + 12 doubles per point
    assert tracer.counts["suppliers.jets_bytes"] == 64 * 21 * 8


def test_self_time_excludes_children_and_reentry_is_transparent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return tracer.call("b", lambda: 1)

    out = tracer.call("a", lambda: tracer.call("a", inner))
    assert out == 1
    assert tracer.calls == {"a": 1, "b": 1}
    assert tracer.total["a"] == 3 and tracer.self_time["a"] == 2
    assert tracer.total["b"] == 1 and tracer.self_time["b"] == 1


def test_cli_child_reports_spans(tmp_path):
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({"surface": {"id": "sphere",
                                              "params": {"m_polar": 8, "m_azimuth": 8}}}))
    summary = tmp_path / "summary.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "cli_child.py"), str(summary), "eval",
         "--config", str(config), "--out-dir", str(tmp_path / "out")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    child = json.loads(summary.read_text())
    assert child["import_s"] > 0
    assert child["trace"]["calls"]["functionals.evaluate"] == 2  # value and refined grid
    assert child["trace"]["counts"]["suppliers.kernels"] == 2 * 30


def test_traced_metrics_per_op_of_each_kind():
    tracers = {kind: Tracer() for kind in KIND_METRICS}
    for (kind, tracer), ops in zip(tracers.items(), (1, 2, 1)):
        for _ in range(ops):
            tracer.record("op.untraced", 1.0)
            tracer.record("op.traced", 1.5)
            tracer.record("patch.geometry", 0.5)
            tracer.count("patch.geometry_points", 100)
    tracers["cli-suite"].record("varcheck.evolution", 3.0)
    metrics = traced_metrics({kind: t.summary() for kind, t in tracers.items()})
    for kind in KIND_METRICS:
        assert metrics[f"{kind}.patch.geometry_calls"] == 1
        assert metrics[f"{kind}.patch.geometry_points"] == 100
        assert metrics[f"{kind}.trace.overhead_ratio"] == 1.5
    assert metrics["cli-suite.varcheck.evolution_s"] == 3.0
    assert "family-sweep.varcheck.evolution_s" not in metrics
    assert "grid-energy.suppliers.compile_s" not in metrics


def test_traced_run_reports_the_names_benchmark_json_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    reported = traced_metrics({kind: Tracer().summary() for kind in KIND_METRICS})
    assert list(reported) == [m["name"] for m in spec["per_layer"]]
    assert list(PER_LAYER) == list(reported)
