"""Brute-force oracle tests: grid scan, misreport matrix, enumeration."""

import numpy as np
import pytest

from conftest import (
    coverage_payoff,
    demo_econ,
    demo_subregion,
    random_matching_instance,
    random_schedule,
)
from uavmarket.contract import build_schedule, optimal_coverage
from uavmarket.core import CostVector
from uavmarket.errors import ScenarioError
from uavmarket.matching import PreferenceList, gs_match
from uavmarket.pipeline import run_verify
from uavmarket.scenario import fixture_path, load_scenario
from uavmarket.verification import (
    MAX_ENUM_SIZE,
    diagonal_dominant,
    enumerate_stable_matchings,
    grid_oracle_coverage,
    ic_matrix,
    is_subregion_optimal,
    random_coverage_draw,
)


class TestGridOracle:
    # the demo subregion holds a data volume of 10
    def test_agrees_with_closed_form_on_worked_examples(self):
        econ = demo_econ()
        upsilons = [13.5, 47.25]
        scanned = grid_oracle_coverage(upsilons, 10.0, econ)
        assert len(scanned) == 2
        closed = optimal_coverage(upsilons, 10.0, econ)
        for theta, value, expected in zip(scanned, closed, (0.64074, 0.11164)):
            assert theta == pytest.approx(expected, abs=2e-4)
            assert theta == pytest.approx(value, abs=2e-4)

    def test_vanishing_revenue_drives_coverage_to_zero(self):
        scanned = grid_oracle_coverage([13.5], 10.0, demo_econ(sigma=1e-6))
        assert scanned == [0.0]

    def test_payoff_is_unimodal_along_grid(self):
        rng = np.random.default_rng(5)
        thetas = np.linspace(0.0, 1.0, 2001)
        for _ in range(20):
            upsilon, volume, econ = random_coverage_draw(rng)
            values = coverage_payoff(thetas, upsilon, volume, econ)
            increases = np.diff(values) > 0
            # once the payoff starts falling it never rises again
            switched = np.diff(increases.astype(int))
            assert np.all(switched <= 0) or np.count_nonzero(switched == 1) == 0

    def test_random_draws_are_interior(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            upsilon, volume, econ = random_coverage_draw(rng)
            (value,) = optimal_coverage((upsilon,), volume, econ)
            assert 0.0 < value < 1.0

    def test_grid_config(self):
        with pytest.raises(ScenarioError) as err:
            run_verify(load_scenario(fixture_path("demo_grid.scn")), grid_points=2)
        assert err.value.problems == [("--grid-points", "must be >= 3")]
        econ = demo_econ()
        assert grid_oracle_coverage([13.5], 10.0, econ, grid_points=3) == [0.5]
        assert grid_oracle_coverage([13.5], 10.0, econ, grid_points=10001) == [0.6407]

    def test_grid_numpy_cannot_allocate_is_refused_before_the_market_runs(self, monkeypatch):
        def no_market(scenario):
            raise AssertionError("the market ran before the grid was checked")

        monkeypatch.setattr("uavmarket.pipeline.run_match", no_market)
        with pytest.raises(ScenarioError) as err:
            run_verify(load_scenario(fixture_path("demo_grid.scn")), grid_points=2**62)
        ((where, message),) = err.value.problems
        assert where == "--grid-points"
        assert message.startswith(f"numpy cannot allocate a grid of {2**62} points: ")


class TestIcMatrix:
    def test_two_type_worked_matrix(self):
        announcements = {
            "cheap": CostVector(250.0, 20.0, 0.0, 0.0),
            "dear": CostVector(875.0, 70.0, 0.0, 0.0),
        }
        schedule = build_schedule(announcements, demo_subregion(), demo_econ())
        matrix = ic_matrix(schedule)
        assert matrix[0, 0] == pytest.approx(3.767857, abs=1e-6)
        assert matrix[0, 1] == pytest.approx(3.767857, abs=1e-6)
        assert matrix[1, 0] == pytest.approx(-17.857143, abs=1e-6)
        assert matrix[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert diagonal_dominant(matrix)

    def test_demo_grid_worst_row_negative(self, demo_grid_schedule):
        matrix = ic_matrix(demo_grid_schedule)
        off_diagonal = np.delete(matrix[5], 5)
        assert np.all(off_diagonal < 0)

    def test_single_item_matrix(self):
        schedule = build_schedule(
            {"only": CostVector(250.0, 20.0, 0.0, 0.0)}, demo_subregion(), demo_econ()
        )
        matrix = ic_matrix(schedule)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] >= -1e-12

    def test_dominance_agrees_with_audit(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            schedule, _, _ = random_schedule(rng)
            assert diagonal_dominant(ic_matrix(schedule)) == schedule.audit.ic_ok


class TestEnumeration:
    def test_single_pair_single_stable_matching(self):
        sub_prefs = {"s1": PreferenceList("s1", ("u1",), (1.0,))}
        uav_prefs = {"u1": PreferenceList("u1", ("s1",), (2.0,))}
        stable = enumerate_stable_matchings(sub_prefs, uav_prefs)
        assert stable == [{"s1": "u1"}]

    def test_opposed_two_by_two_has_two_stable_matchings(self):
        sub_prefs = {
            "s1": PreferenceList("s1", ("a", "b"), (1.0, 2.0)),
            "s2": PreferenceList("s2", ("b", "a"), (1.0, 2.0)),
        }
        uav_prefs = {
            "a": PreferenceList("a", ("s2", "s1"), (9.0, 4.0)),
            "b": PreferenceList("b", ("s1", "s2"), (9.0, 4.0)),
        }
        stable = enumerate_stable_matchings(sub_prefs, uav_prefs)
        assert len(stable) == 2
        gs = gs_match(sub_prefs, uav_prefs).subregion_assignment()
        assert gs in stable
        assert gs == {"s1": "a", "s2": "b"}
        assert is_subregion_optimal(gs, stable, sub_prefs)
        other = next(m for m in stable if m != gs)
        assert not is_subregion_optimal(other, stable, sub_prefs)

    def test_gs_always_lands_in_stable_set(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            sub_prefs, uav_prefs = random_matching_instance(rng)
            stable = enumerate_stable_matchings(sub_prefs, uav_prefs)
            gs = gs_match(sub_prefs, uav_prefs).subregion_assignment()
            assert gs in stable
            assert is_subregion_optimal(gs, stable, sub_prefs)

    def test_cap_enforced(self):
        assert MAX_ENUM_SIZE == 8
        sub_prefs = {
            f"s{i}": PreferenceList(f"s{i}", (), ()) for i in range(MAX_ENUM_SIZE + 1)
        }
        with pytest.raises(ValueError, match="cap"):
            enumerate_stable_matchings(sub_prefs, {})

    def test_ties_refused(self):
        sub_prefs = {"s1": PreferenceList("s1", ("a", "b"), (1.0, 1.0))}
        uav_prefs = {
            "a": PreferenceList("a", ("s1",), (1.0,)),
            "b": PreferenceList("b", ("s1",), (1.0,)),
        }
        with pytest.raises(ValueError, match="ties"):
            enumerate_stable_matchings(sub_prefs, uav_prefs)
