"""The benchmark's tracer still wraps, and its hooks still read, the package.

``benchmarks/tracing.py`` wraps package functions by the names their
callers look them up under. A name that no longer resolves turns every
per-layer metric that depends on it into ``"missing": true``, so a
rename or deletion must fail here first. A hook that reads an attribute
of a wrapped call's result (``result.ladder``, ``.calibration_log``,
``.feasible``, ``.checks``) would break only traced runs, so the hooks
run here on every command of the command line. The tracer is only read,
never changed.
"""

import pytest

from conftest import load_benchmark
from uavmarket import cli
from uavmarket.pipeline import prepare, run_match
from uavmarket.scenario import fixture_path, load_scenario


def test_no_layer_metric_is_missing():
    tracing = load_benchmark("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracing.layer_metrics(tracer, 1)
    finally:
        tracer.uninstall()
    missing = sorted(name for name, metric in metrics.items() if metric.get("missing"))
    assert metrics and not missing, f"metrics without a wrapped name: {missing}"


COMMANDS = (
    ["contract"],
    ["match"],
    ["verify"],
    ["sweep", "--param", "seed", "--from", "0", "--to", "1", "--steps", "2"],
)


@pytest.mark.parametrize("name", ["table3.scn", "physical.scn"])
def test_the_hooks_count_every_command(name, tmp_path, capsys):
    path = fixture_path(name)
    scenario = load_scenario(path)
    built = prepare(scenario)
    menus = len(built.published)
    rungs = sum(len(menu.ladder) for menu in built.published.values())
    screen_pass = sum(report.feasible for report in built.feasibility.values())
    events = len(run_match(scenario).match.calibration_log)

    tracing = load_benchmark("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in COMMANDS:
            out = tmp_path / argv[0]
            assert cli.main([*argv, "--scenario", str(path), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    # every command builds the menus once per market pass: contract,
    # match and verify once each, the sweep once per step
    counts = tracer.counts
    assert counts["menus"] == 5 * menus > 0
    assert counts["rungs"] == 5 * rungs
    assert counts["screen_pass"] == 5 * screen_pass
    assert counts["calibration_events"] == 4 * events  # every pass but contract's matches
    assert counts["sweep_points"] == 2
    # ic_matrix.csv is written without _write_csv, which the tracer counts
    written = [p for p in tmp_path.rglob("*.csv") if p.name != "ic_matrix.csv"]
    assert counts["emit_bytes"] == sum(p.stat().st_size for p in written) > 0
    # the sweep reads the raw document, past the wrapped load_scenario
    assert counts["scenario_bytes"] == 3 * path.stat().st_size
