"""Scenario file parsing, validation, and round-trip tests."""

import json
import math

import pytest

from uavmarket.errors import ScenarioError
from uavmarket.scenario import (
    DirectUavTypes,
    fixture_path,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)

FIXTURES = ["demo_grid.scn", "fig6.scn", "fig7.scn", "fig8.scn", "table3.scn", "physical.scn"]


def minimal_doc(**overrides):
    doc = {
        "format_version": 1,
        "economy": {"phi": 0.05, "mu": 1.0, "sigma": 100.0},
        "fl": {
            "lipschitz": 4.0,
            "strong_convexity": 2.0,
            "xi": 0.3333333333333333,
            "delta": 0.25,
            "local_accuracy": 0.6,
            "update_size": 8e6,
        },
        "subregions": [
            {
                "id": "s1",
                "center": [0.0, 0.0, 0.0],
                "full_distance": 1000.0,
                "data_volume": 10.0,
                "rate_factor": 1.0,
            }
        ],
        "uavs": [
            {"id": "u1", "mode": "direct", "alpha": 250.0, "beta": 20.0, "psi": 10.0}
        ],
    }
    doc.update(overrides)
    return doc


class TestLoading:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_bundled_fixtures_load(self, name):
        scenario = load_scenario(fixture_path(name))
        assert scenario.subregions and scenario.uavs
        assert scenario.economy.n_subregions == len(scenario.subregions)

    def test_fig6_shape(self):
        scenario = load_scenario(fixture_path("fig6.scn"))
        assert len(scenario.subregions) == 6
        assert len(scenario.uavs) == 6
        assert scenario.reward_hat_policy.reward_hat_for("s1", 0.05) == pytest.approx(35.0)

    def test_table3_shape(self):
        scenario = load_scenario(fixture_path("table3.scn"))
        assert [u.id for u in scenario.uavs] == ["u1", "u2", "u3", "u4", "u5"]
        u5 = scenario.uavs[4]
        assert isinstance(u5, DirectUavTypes)
        assert u5.psi_for(scenario.subregion("s3")) == pytest.approx(0.0)

    def test_defaults_applied(self):
        scenario = scenario_from_dict(minimal_doc())
        assert scenario.theta_hat == 0.8
        assert scenario.seed == 0
        assert scenario.calibration.delta_mode == "relative"
        assert math.isinf(scenario.subregions[0].deadline)


class TestValidation:
    def test_empty_uavs_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(minimal_doc(uavs=[]))
        assert any("uavs" in path for path, _ in err.value.problems)

    def test_unknown_field_paths_reported(self):
        doc = minimal_doc()
        doc["mystery"] = 1
        doc["economy"]["bonus"] = 2.0
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        paths = [path for path, _ in err.value.problems]
        assert "$.mystery" in paths and "$.economy.bonus" in paths

    def test_all_violations_collected(self):
        doc = minimal_doc()
        doc["theta_hat"] = 2.0
        doc["subregions"][0]["full_distance"] = -5.0
        doc["uavs"][0]["alpha"] = -1.0
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert len(err.value.problems) >= 3

    def test_parse_error_reports_location(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text('{"format_version": 1,\n  "oops"\n}')
        with pytest.raises(ScenarioError, match=r"JSON parse error at line 3, column 1"):
            load_scenario(bad)

    def test_wrong_format_version(self):
        with pytest.raises(ScenarioError, match="format_version"):
            scenario_from_dict(minimal_doc(format_version=2))

    def test_duplicate_ids(self):
        doc = minimal_doc()
        doc["uavs"].append(dict(doc["uavs"][0]))
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_dict(doc)

    def test_direct_map_must_cover_all_subregions(self):
        doc = minimal_doc()
        doc["subregions"].append(
            {
                "id": "s2",
                "center": [5.0, 5.0, 0.0],
                "full_distance": 1000.0,
                "data_volume": 10.0,
                "rate_factor": 1.0,
            }
        )
        doc["uavs"][0]["psi"] = {"s1": 10.0}
        with pytest.raises(ScenarioError, match="missing value"):
            scenario_from_dict(doc)

    def test_direct_needs_psi_or_flight_parameters(self):
        doc = minimal_doc()
        del doc["uavs"][0]["psi"]
        with pytest.raises(ScenarioError, match="psi"):
            scenario_from_dict(doc)
        doc["uavs"][0].update({"base": [0.0, 0.0, 0.0], "velocity": 10.0, "power": 5.0})
        scenario = scenario_from_dict(doc)
        assert scenario.uavs[0].psi_for(scenario.subregions[0]) == pytest.approx(0.0)

    def test_booleans_are_not_numbers(self):
        doc = minimal_doc()
        doc["economy"]["phi"] = True
        with pytest.raises(ScenarioError, match="expected a number"):
            scenario_from_dict(doc)

    def test_top_level_must_be_object(self):
        with pytest.raises(ScenarioError, match="top level"):
            scenario_from_dict([1, 2, 3])


NON_FINITE = [math.nan, math.inf, -math.inf]


def load_json_fixture(name):
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def physical_doc():
    return load_json_fixture("physical.scn")


def with_calibration():
    return minimal_doc(calibration={"delta_value": 0.01})


def with_reward_hat_values():
    return minimal_doc(reward_hat_policy={"mode": "fixed", "values": {"s1": 1.0}})


# (document builder, where the bad value goes, reported field path)
NON_FINITE_SITES = [
    (minimal_doc, ("economy", "sigma"), "$.economy.sigma"),
    (minimal_doc, ("theta_hat",), "$.theta_hat"),
    (minimal_doc, ("subregions", 0, "deadline"), "$.subregions[0].deadline"),
    (minimal_doc, ("subregions", 0, "data_volume"), "$.subregions[0].data_volume"),
    (minimal_doc, ("subregions", 0, "center", 1), "$.subregions[0].center"),
    (minimal_doc, ("uavs", 0, "alpha"), "$.uavs[0].alpha"),
    (minimal_doc, ("uavs", 0, "psi"), "$.uavs[0].psi"),
    (with_calibration, ("calibration", "delta_value"), "$.calibration.delta_value"),
    (with_reward_hat_values, ("reward_hat_policy", "values", "s1"), "$.reward_hat_policy.values"),
    (physical_doc, ("uavs", 0, "energy_capacity"), "$.uavs[0].energy_capacity"),
    (physical_doc, ("uavs", 0, "base", 0), "$.uavs[0].base"),
    (physical_doc, ("uavs", 0, "velocity"), "$.uavs[0].velocity"),
]


def _plant(builder, where, value):
    doc = builder()
    node = doc
    for part in where[:-1]:
        node = node[part]
    node[where[-1]] = value
    return doc


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "builder,where,field", NON_FINITE_SITES, ids=[site[2] for site in NON_FINITE_SITES]
    )
    def test_rejected_with_field_path(self, builder, where, field, value):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_plant(builder, where, value))
        assert field in [path for path, _ in err.value.problems]

    @pytest.mark.parametrize("name", ["alpha", "beta", "psi", "zeta"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_rejected_inside_per_subregion_maps(self, name, value):
        doc = minimal_doc()
        doc["uavs"][0][name] = {"s1": value}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        expected = (f"$.uavs[0].{name}", f"subregion 's1': expected a finite number, got {value!r}")
        assert expected in err.value.problems

    def test_power_coefficients_rejected(self):
        doc = physical_doc()
        entry = doc["uavs"][0]
        del entry["power"]
        entry["power_coefficients"] = [0.5, math.nan]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert "$.uavs[0].power_coefficients" in [path for path, _ in err.value.problems]

    def test_integer_beyond_float_range_rejected(self):
        doc = minimal_doc()
        doc["economy"]["sigma"] = 10**400
        with pytest.raises(ScenarioError, match="out-of-range integer"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_load_scenario_rejects_json_constants(self, tmp_path, value):
        # Python's JSON writer and reader both accept NaN and +-Infinity
        doc = load_json_fixture("fig6.scn")
        doc["economy"]["sigma"] = value
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [
            ("$.economy.sigma", f"expected a finite number, got {value!r}")
        ]

    def test_invalid_energy_capacity_is_reported_not_raised(self):
        doc = physical_doc()
        doc["uavs"][0]["energy_capacity"] = "full"
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert [path for path, _ in err.value.problems] == ["$.uavs[0].energy_capacity"]

    def test_omitted_deadline_and_capacity_still_default_to_infinity(self):
        doc = physical_doc()
        for sub in doc["subregions"]:
            sub.pop("deadline", None)
        for uav in doc["uavs"]:
            uav.pop("energy_capacity", None)
        scenario = scenario_from_dict(doc)
        assert all(math.isinf(sub.deadline) for sub in scenario.subregions)
        assert all(math.isinf(uav.energy_capacity) for uav in scenario.uavs)


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_write_then_load_is_identity(self, tmp_path, name):
        original = load_scenario(fixture_path(name))
        out = tmp_path / name
        write_scenario(original, out)
        assert load_scenario(out) == original

    def test_dict_round_trip_stable(self):
        scenario = scenario_from_dict(minimal_doc())
        once = scenario_to_dict(scenario)
        again = scenario_to_dict(scenario_from_dict(json.loads(json.dumps(once))))
        assert once == again
