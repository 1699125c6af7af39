"""Scenario file parsing and validation tests."""

import json
import math

import pytest

from conftest import minimal_doc
from uavmarket.core import DEFAULT_THETA_HAT
from uavmarket.errors import ScenarioError
from uavmarket.matching import CalibrationPolicy
from uavmarket.scenario import (
    DirectUavTypes,
    Scenario,
    fixture_path,
    load_scenario,
    scenario_from_dict,
)

FIXTURES = ["demo_grid.scn", "fig6.scn", "fig7.scn", "fig8.scn", "table3.scn", "physical.scn"]


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
        assert scenario.reward_hats == dict.fromkeys([f"s{k}" for k in range(1, 7)], 35.0)

    def test_table3_shape(self):
        scenario = load_scenario(fixture_path("table3.scn"))
        assert [u.id for u in scenario.uavs] == ["u1", "u2", "u3", "u4", "u5"]
        u5 = scenario.uavs[4]
        assert isinstance(u5, DirectUavTypes)
        assert list(u5.costs) == [sub.id for sub in scenario.subregions]
        assert u5.costs["s3"].psi == pytest.approx(0.0)

    def test_defaults_applied(self):
        scenario = scenario_from_dict(minimal_doc())
        assert scenario.theta_hat == 0.8
        assert scenario.seed == 0
        assert scenario.calibration.delta_mode == "relative"
        assert math.isinf(scenario.subregions[0].deadline)

    def test_omitted_fields_take_the_model_defaults(self):
        scenario = scenario_from_dict(minimal_doc())
        assert scenario.theta_hat == DEFAULT_THETA_HAT
        assert scenario.theta_hat == Scenario.__dataclass_fields__["theta_hat"].default
        assert scenario.calibration == CalibrationPolicy()
        partial = scenario_from_dict(minimal_doc(calibration={"delta_mode": "absolute"}))
        assert partial.calibration == CalibrationPolicy(delta_mode="absolute")


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

    def test_subregion_nodes_is_an_unknown_field(self):
        doc = minimal_doc()
        doc["subregions"][0]["nodes"] = [[0.0, 0.0, 0.0]]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [("$.subregions[0].nodes", "unknown field")]

    def test_economy_log_base_is_an_unknown_field(self):
        doc = minimal_doc()
        doc["economy"]["log_base"] = "natural"
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [("$.economy.log_base", "unknown field")]

    def test_relative_calibration_step_above_one_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(minimal_doc(calibration={"delta_value": 1.5}))
        assert err.value.problems == [("$.calibration", "delta_value must be <= 1 in relative mode")]
        absolute = minimal_doc(calibration={"delta_mode": "absolute", "delta_value": 1.5})
        assert scenario_from_dict(absolute).calibration.delta_value == 1.5

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
        assert scenario.uavs[0].costs["s1"].psi == pytest.approx(0.0)

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


# physical.scn's u2 uses power_coefficients; each override makes one of
# the per-UAV constants computed at construction unusable
BAD_UAV_CONSTANTS = {
    "power_underflows_to_zero": (
        {"power_coefficients": [1e-320, 0.0], "velocity": 0.001},
        "propulsion power must be finite and > 0, got 0.0",
    ),
    "velocity_cubed_overflows": ({"velocity": 1e120}, "propulsion power overflows"),
    "power_is_infinite": (
        {"power_coefficients": [1e300, 0.0], "velocity": 1000.0},
        "propulsion power must be finite and > 0, got inf",
    ),
    "cpu_frequency_squared_overflows": ({"cpu_frequency": 1e200}, "cpu_frequency**2 overflows"),
}

# training tasks whose derived round count overflows or divides by zero
BAD_TRAINING_TASKS = {
    "round_scale_overflows": {
        "lipschitz": 1e200, "strong_convexity": 1.0, "xi": 1e-200, "delta": 1e-200,
    },
    "round_scale_divides_by_zero": {
        "lipschitz": 1e-200, "strong_convexity": 1e-200, "xi": 1.0, "delta": 0.25,
    },
}


class TestDerivedConstants:
    @pytest.mark.parametrize("override,message", BAD_UAV_CONSTANTS.values(), ids=BAD_UAV_CONSTANTS)
    def test_unusable_uav_constant_reported_with_field_path(self, override, message):
        doc = physical_doc()
        doc["uavs"][1].update(override)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [("$.uavs[1]", f"uav u2: {message}")]

    @pytest.mark.parametrize("fl", BAD_TRAINING_TASKS.values(), ids=BAD_TRAINING_TASKS)
    def test_overflowing_round_count_reported_with_field_path(self, fl):
        doc = physical_doc()
        doc["fl"].update(fl)
        doc["fl"].pop("rounds_override", None)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [("$.fl", "the training-round counts overflow")]


class TestRewardHatPolicy:
    @pytest.mark.parametrize(
        "policy,field,message",
        [
            ({"mode": "fixed", "value": -50.0}, "value", "must be >= 0"),
            ({"mode": "fixed", "values": {"s1": -0.5}}, "values", "'s1': must be >= 0"),
            ({"mode": "reference", "psi_ref": -5000.0}, "psi_ref", "must be >= 0"),
            ({"mode": "reference", "zeta_ref": -1.0}, "zeta_ref", "must be >= 0"),
        ],
        ids=["value", "values", "psi_ref", "zeta_ref"],
    )
    def test_negative_number_rejected_with_field_path(self, policy, field, message):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(minimal_doc(reward_hat_policy=policy))
        assert err.value.problems == [(f"$.reward_hat_policy.{field}", message)]

    @pytest.mark.parametrize(
        "policy",
        [
            {"mode": "fixed", "value": 0.0},
            {"mode": "fixed", "values": {"s1": 0}},
            {"mode": "reference", "psi_ref": 0.0, "zeta_ref": 0.0},
        ],
    )
    def test_zero_accepted(self, policy):
        scenario = scenario_from_dict(minimal_doc(reward_hat_policy=policy))
        assert scenario.reward_hats == {"s1": 0.0}
