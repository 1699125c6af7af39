"""Every package name the benchmark's tracer wraps must still resolve.

``benchmarks/tracing.py`` wraps package functions by the names their
callers look them up under. A name that no longer resolves turns every
per-layer metric that depends on it into ``"missing": true``, so a
rename or deletion must fail here first. The tracer is only read, never
changed.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    if not TRACING.exists():
        pytest.skip("benchmarks/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("uavmarket_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_layer_metric_is_missing():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracing.layer_metrics(tracer, 1)
    finally:
        tracer.uninstall()
    missing = sorted(name for name, metric in metrics.items() if metric.get("missing"))
    assert metrics and not missing, f"metrics without a wrapped name: {missing}"
