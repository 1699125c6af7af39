"""Extreme finite numbers either run to finite artifacts or fail with a path.

Each example plants one extreme finite value (the largest doubles, the
smallest subnormal, zero or negative zero) in one numeric field of a
bundled fixture and runs ``contract``, ``match`` and ``verify`` through
``main``. No command may raise; each must exit with a documented code;
and a command that exits 0 must not have written ``nan`` or ``inf``
into any CSV. The rule that makes this hold is in ``pipeline.prepare``:
a cost vector, marginal cost, menu reward or owner revenue that is not
finite, or a data scale ``mu * data_volume`` that is not a finite normal
float, is a scenario error with a field path.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uavmarket.cli import main
from uavmarket.scenario import fixture_path

# fig6: declared types and a reference fixed reward; table3: a fixed
# reward value and a derived traversal cost; physical: hardware profiles
FIXTURES = {
    name: json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for name in ("fig6.scn", "table3.scn", "physical.scn")
}
EXTREMES = [1.7e308, -1.7e308, 5e-324, 0.0, -0.0]
NOT_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def numeric_sites(node, where=()):
    """Every path to a number in a JSON document, in document order."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from numeric_sites(child, where + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from numeric_sites(child, where + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield where


SITES = [(name, where) for name, doc in FIXTURES.items() for where in numeric_sites(doc)]


def planted(name, where, value):
    doc = json.loads(json.dumps(FIXTURES[name]))
    node = doc
    for part in where[:-1]:
        node = node[part]
    node[where[-1]] = value
    return doc


def run(command, scenario, out):
    extra = ["--grid-points", "101"] if command == "verify" else []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--scenario", str(scenario), "--out", str(out), *extra])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(SITES), value=st.sampled_from(EXTREMES))
def test_extreme_value_runs_finite_or_fails_with_a_path(site, value):
    name, where = site
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / name
        scenario.write_text(json.dumps(planted(name, where, value)), encoding="utf-8")
        for command in ("contract", "match", "verify"):
            out = Path(tmp) / command
            code, stdout, stderr = run(command, scenario, out)
            assert code in (0, 1, 2, 3), (command, code, stderr)
            if code == 1:
                assert re.search(r"^  \$\S*: ", stderr, re.MULTILINE), stderr
            if code == 0:
                assert not NOT_FINITE.search(stdout), (command, stdout)
                for csv in out.glob("*.csv"):
                    text = csv.read_text(encoding="utf-8")
                    assert not NOT_FINITE.search(text), (command, csv.name)


def test_fig6_overflowing_marginal_cost_fails_with_the_uav_path(tmp_path):
    doc = planted("fig6.scn", ("uavs", 0, "alpha"), 1.7e308)
    doc["uavs"][0]["beta"] = 1.7e308
    scenario = tmp_path / "fig6.scn"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("contract", "match", "verify"):
        code, _, stderr = run(command, scenario, tmp_path / command)
        assert code == 1
        assert "$.uavs[0]: subregion 's1': " in stderr


def test_fig6_overflowing_owner_revenue_fails_with_the_economy_path(tmp_path):
    scenario = tmp_path / "fig6.scn"
    scenario.write_text(json.dumps(planted("fig6.scn", ("economy", "sigma"), 1.7e308)))
    for command in ("contract", "match", "verify"):
        code, _, stderr = run(command, scenario, tmp_path / command)
        assert code == 1
        assert "$.economy: subregion 's1': " in stderr


@pytest.mark.parametrize(
    "economy",
    [{}, {"sigma": 1.7e308}, {"mu": 5e-324}],
    ids=["alone", "with-overflowing-revenue", "with-underflowing-scale"],
)
def test_fig6_first_failing_marginal_cost_in_announcement_order_is_reported(tmp_path, economy):
    # u2 fails at s3 and u4 at s2; the menu of s1 is built and checked
    # first and that of s2 next, but announcements run UAV by UAV, so u2
    # is the one reported
    doc = json.loads(json.dumps(FIXTURES["fig6.scn"]))
    doc["economy"].update(economy)
    sub_ids = [sub["id"] for sub in doc["subregions"]]
    for index, bad in ((1, "s3"), (3, "s2")):
        uav = doc["uavs"][index]
        for name in ("alpha", "beta"):
            uav[name] = {sid: 1.7e308 if sid == bad else uav[name] for sid in sub_ids}
    scenario = tmp_path / "fig6.scn"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("contract", "match", "verify"):
        code, _, stderr = run(command, scenario, tmp_path / command)
        assert code == 1
        assert "$.uavs[1]: subregion 's3': marginal cost phi * (alpha + beta)" in stderr
        assert "$.uavs[3]" not in stderr


@pytest.mark.parametrize(
    "mu, data_volume",
    [(1e-200, 1e-200), (5e-324, None), (1.7e308, None)],
    ids=["product-zero", "product-subnormal", "product-inf"],
)
def test_fig6_data_scale_out_of_the_normal_range_fails_with_the_subregion_path(
    tmp_path, mu, data_volume
):
    doc = planted("fig6.scn", ("economy", "mu"), mu)
    if data_volume is not None:
        for sub in doc["subregions"]:
            sub["data_volume"] = data_volume
    scenario = tmp_path / "fig6.scn"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("contract", "match", "verify"):
        code, _, stderr = run(command, scenario, tmp_path / command)
        assert code == 1, (command, stderr)
        assert "$.subregions[0]: economy.mu * data_volume is " in stderr
        assert "outside the normal float range" in stderr


def test_fig6_tiny_normal_data_scale_verifies(tmp_path):
    # mu * data_volume is a normal float, but sigma / (N * mu * data_volume)
    # overflows; the coverage oracle must not scan nan at theta = 0
    scenario = tmp_path / "fig6.scn"
    scenario.write_text(json.dumps(planted("fig6.scn", ("economy", "mu"), 3e-308)))
    for command in ("contract", "match", "verify"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, stderr = run(command, scenario, tmp_path / command)
        assert code == 0, (command, stdout, stderr)
        assert "FAIL" not in stdout
        assert not NOT_FINITE.search(stdout), (command, stdout)


def test_physical_screen_overflow_leaves_stderr_empty(tmp_path):
    # u1's base leg is finite, but its traversal energy overflows in the
    # screen's array arithmetic: u1 fails every battery check with no
    # numpy warning, as it would in Python floats
    doc = planted("physical.scn", ("uavs", 0, "base"), [1e308, 1e308, -1e308])
    scenario = tmp_path / "physical.scn"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("contract", "match", "verify"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(command, scenario, tmp_path / command)
        assert (code, stderr) == (0, ""), (command, stdout)
        assert not NOT_FINITE.search(stdout), (command, stdout)
    assert "match: u1 -> UNMATCHED" in run("match", scenario, tmp_path / "again")[1]
