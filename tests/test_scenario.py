"""Scenario file parsing and validation tests."""

import ast
import json
import math
import re
from pathlib import Path

import pytest

from conftest import minimal_doc
from uavmarket import scenario as scenario_module
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
    (minimal_doc, "economy.sigma", "$.economy.sigma"),
    (minimal_doc, "theta_hat", "$.theta_hat"),
    (minimal_doc, "subregions.0.deadline", "$.subregions[0].deadline"),
    (minimal_doc, "subregions.0.data_volume", "$.subregions[0].data_volume"),
    (minimal_doc, "subregions.0.center.1", "$.subregions[0].center"),
    (minimal_doc, "uavs.0.alpha", "$.uavs[0].alpha"),
    (minimal_doc, "uavs.0.psi", "$.uavs[0].psi"),
    (with_calibration, "calibration.delta_value", "$.calibration.delta_value"),
    (with_reward_hat_values, "reward_hat_policy.values.s1", "$.reward_hat_policy.values"),
    (physical_doc, "uavs.0.energy_capacity", "$.uavs[0].energy_capacity"),
    (physical_doc, "uavs.0.base.0", "$.uavs[0].base"),
    (physical_doc, "uavs.0.velocity", "$.uavs[0].velocity"),
]


DROP = object()


def edit(builder, changes):
    """``builder()`` with each dotted path in ``changes`` set, or removed for ``DROP``."""
    doc = builder()
    for where, value in changes.items():
        *parents, last = [int(p) if p.isdigit() else p for p in where.split(".")]
        node = doc
        for part in parents:
            node = node[part]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return doc


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "builder,where,field", NON_FINITE_SITES, ids=[site[2] for site in NON_FINITE_SITES]
    )
    def test_rejected_with_field_path(self, builder, where, field, value):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(edit(builder, {where: value}))
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


def two_subregions():
    doc = minimal_doc()
    doc["subregions"].append(dict(doc["subregions"][0], id="s2", center=[5.0, 5.0, 0.0]))
    return doc


def every_section_doc():
    """One problem in every section, written in the reverse of the order they are read."""
    return edit(
        two_subregions,
        {
            "mystery": True,
            "uavs.0.zeta": -1.0,
            "calibration": {"max_rounds": 0},
            "reward_hat_policy": {"values": {"s1": -1.0}},
            "fl.update_size": 0.0,
            "economy.mu": "one",
            "subregions.1.rate_factor": 0.0,
            "theta_hat": 1.5,
            "seed": -1,
            "format_version": 0,
        },
    )


def repeated_keys_doc():
    """Keys repeated at the top level, in a section, in an entry and in a per-subregion map.

    Parsed as ``read_document`` parses a file, so each object lists the
    keys it repeats.
    """
    text = json.dumps(edit(two_subregions, {"uavs.0.alpha": {"s1": 250.0, "s2": 250.0}}))
    for first, repeated in (
        ('"format_version": 1', '"format_version": 2, "format_version": 1'),
        ('"economy": {', '"economy": {"sigma": 1, '),
        ('"data_volume": 10.0', '"data_volume": 9.0, "data_volume": 10.0'),
        ('"alpha": {"s1": 250.0', '"alpha": {"s1": 1.0, "s1": 250.0, "s1": 3.0'),
    ):
        assert first in text
        text = text.replace(first, repeated, 1)
    return json.loads(text, object_pairs_hook=scenario_module._JsonObject)


# Every refusal of the loader, one case per branch: the exact problem list
# of each malformed document, in the order the loader reports it.
REFUSALS = {
    # the top level and its fields
    "top_level_not_an_object": ([1, 2, 3], [("$", "top level must be a JSON object")]),
    "format_version_missing": (
        edit(minimal_doc, {"format_version": DROP}),
        [("$.format_version", "required field is missing")],
    ),
    "format_version_not_an_integer": (
        edit(minimal_doc, {"format_version": "1"}),
        [("$.format_version", "expected an integer, got str")],
    ),
    "format_version_unsupported": (
        edit(minimal_doc, {"format_version": 2}),
        [("$.format_version", "unsupported format_version 2")],
    ),
    "seed_not_an_integer": (
        edit(minimal_doc, {"seed": 1.5}),
        [("$.seed", "expected an integer, got float")],
    ),
    "seed_negative": (edit(minimal_doc, {"seed": -1}), [("$.seed", "must be >= 0")]),
    "theta_hat_not_a_number": (
        edit(minimal_doc, {"theta_hat": "high"}),
        [("$.theta_hat", "expected a number, got str")],
    ),
    "theta_hat_out_of_range_integer": (
        edit(minimal_doc, {"theta_hat": 10**400}),
        [("$.theta_hat", "expected a finite number, got an out-of-range integer")],
    ),
    "theta_hat_outside_unit_interval": (
        edit(minimal_doc, {"theta_hat": 0.0}),
        [("$.theta_hat", "theta_hat must be in (0, 1]")],
    ),
    "unknown_top_level_field": (
        edit(minimal_doc, {"mystery": 1}),
        [("$.mystery", "unknown field")],
    ),
    # subregions
    "subregions_missing": (
        edit(minimal_doc, {"subregions": DROP}),
        [("$.subregions", "required field is missing")],
    ),
    "subregions_not_a_list": (
        edit(minimal_doc, {"subregions": {"s1": {}}}),
        [("$.subregions", "expected a list")],
    ),
    "subregions_empty": (
        edit(minimal_doc, {"subregions": []}),
        [("$.subregions", "at least one subregion is required")],
    ),
    "subregion_not_an_object": (
        edit(minimal_doc, {"subregions.0": "s1"}),
        [("$.subregions[0]", "expected an object")],
    ),
    "subregion_id_not_a_string": (
        edit(minimal_doc, {"subregions.0.id": 1}),
        [("$.subregions[0].id", "expected a string, got int")],
    ),
    "subregion_center_missing": (
        edit(minimal_doc, {"subregions.0.center": DROP}),
        [("$.subregions[0].center", "required field is missing")],
    ),
    "subregion_center_too_short": (
        edit(minimal_doc, {"subregions.0.center": [1.0]}),
        [("$.subregions[0].center", "expected [x, y] or [x, y, z] finite numbers")],
    ),
    "subregion_center_not_a_list": (
        edit(minimal_doc, {"subregions.0.center": "origin"}),
        [("$.subregions[0].center", "expected [x, y] or [x, y, z] finite numbers")],
    ),
    "subregion_deadline_not_a_number": (
        edit(minimal_doc, {"subregions.0.deadline": "soon"}),
        [("$.subregions[0].deadline", "expected a number, got str")],
    ),
    "subregion_full_distance_zero": (
        edit(minimal_doc, {"subregions.0.full_distance": 0.0}),
        [("$.subregions[0]", "subregion s1: full_distance must be > 0")],
    ),
    "subregion_duplicate_id": (
        edit(two_subregions, {"subregions.1.id": "s1"}),
        [("$.subregions[1]", "duplicate subregion id 's1'")],
    ),
    "subregion_unknown_field": (
        edit(minimal_doc, {"subregions.0.nodes": []}),
        [("$.subregions[0].nodes", "unknown field")],
    ),
    # economy
    "economy_missing": (
        edit(minimal_doc, {"economy": DROP}),
        [("$.economy", "required field is missing")],
    ),
    "economy_not_an_object": (
        edit(minimal_doc, {"economy": [0.05, 1.0, 100.0]}),
        [("$.economy", "expected an object")],
    ),
    "economy_phi_not_a_number": (
        edit(minimal_doc, {"economy.phi": "cheap"}),
        [("$.economy.phi", "expected a number, got str")],
    ),
    "economy_phi_zero": (
        edit(minimal_doc, {"economy.phi": 0.0}),
        [("$.economy", "phi must be > 0")],
    ),
    # fl
    "fl_missing": (edit(minimal_doc, {"fl": DROP}), [("$.fl", "required field is missing")]),
    "fl_not_an_object": (edit(minimal_doc, {"fl": 4.0}), [("$.fl", "expected an object")]),
    "fl_xi_missing": (
        edit(minimal_doc, {"fl.xi": DROP}),
        [("$.fl.xi", "required field is missing")],
    ),
    "fl_rounds_override_not_an_integer": (
        edit(minimal_doc, {"fl.rounds_override": 2.5}),
        [("$.fl.rounds_override", "expected an integer, got float")],
    ),
    "fl_rounds_override_beyond_the_float_range": (
        edit(minimal_doc, {"fl.rounds_override": 10**400}),
        [("$.fl.rounds_override", "expected a finite number, got an out-of-range integer")],
    ),
    "fl_rounds_override_zero": (
        edit(minimal_doc, {"fl.rounds_override": 0}),
        [("$.fl", "rounds_override must be a positive integer")],
    ),
    "fl_lipschitz_negative": (
        edit(minimal_doc, {"fl.lipschitz": -4.0}),
        [("$.fl", "lipschitz must be > 0")],
    ),
    "fl_delta_too_large": (
        edit(minimal_doc, {"fl.delta": 0.5}),
        [("$.fl", "(2 - lipschitz*delta) * delta * strong_convexity must be > 0")],
    ),
    # reward_hat_policy
    "reward_hat_policy_not_an_object": (
        edit(minimal_doc, {"reward_hat_policy": 35.0}),
        [("$.reward_hat_policy", "expected an object")],
    ),
    "reward_hat_mode_not_a_string": (
        edit(minimal_doc, {"reward_hat_policy": {"mode": 3}}),
        [("$.reward_hat_policy.mode", "expected a string, got int")],
    ),
    "reward_hat_mode_unknown": (
        edit(minimal_doc, {"reward_hat_policy": {"mode": "auction"}}),
        [("$.reward_hat_policy.mode", "mode must be 'fixed' or 'reference'")],
    ),
    "reward_hat_value_not_a_number": (
        edit(minimal_doc, {"reward_hat_policy": {"value": "35"}}),
        [("$.reward_hat_policy.value", "expected a number, got str")],
    ),
    "reward_hat_value_negative": (
        edit(minimal_doc, {"reward_hat_policy": {"value": -1.0}}),
        [("$.reward_hat_policy.value", "must be >= 0")],
    ),
    "reward_hat_value_and_values": (
        edit(minimal_doc, {"reward_hat_policy": {"value": 35.0, "values": {"s1": 0.0}}}),
        [("$.reward_hat_policy", "give value or values, not both")],
    ),
    "reward_hat_values_not_a_map": (
        edit(minimal_doc, {"reward_hat_policy": {"values": [1.0]}}),
        [("$.reward_hat_policy.values", "expected a map of subregion id to number")],
    ),
    "reward_hat_values_entry_missing": (
        edit(two_subregions, {"reward_hat_policy": {"values": {"s2": 1.0}}}),
        [("$.reward_hat_policy.values", "missing value for subregion(s) ['s1']")],
    ),
    "reward_hat_values_entry_unknown": (
        edit(minimal_doc, {"reward_hat_policy": {"values": {"s1": 1.0, "s9": 2.0}}}),
        [("$.reward_hat_policy.values", "unknown subregion id(s) ['s9']")],
    ),
    "reward_hat_values_entry_negative": (
        edit(two_subregions, {"reward_hat_policy": {"values": {"s1": -1.0, "s2": -2.0}}}),
        [
            ("$.reward_hat_policy.values", "'s1': must be >= 0"),
            ("$.reward_hat_policy.values", "'s2': must be >= 0"),
        ],
    ),
    "reward_hat_values_entry_not_a_number": (
        edit(minimal_doc, {"reward_hat_policy": {"values": {"s1": "x"}}}),
        [("$.reward_hat_policy.values", "subregion 's1': expected a number, got str")],
    ),
    "reward_hat_psi_ref_negative": (
        edit(minimal_doc, {"reward_hat_policy": {"mode": "reference", "psi_ref": -1.0}}),
        [("$.reward_hat_policy.psi_ref", "must be >= 0")],
    ),
    "reward_hat_reference_field_in_fixed_mode": (
        edit(minimal_doc, {"reward_hat_policy": {"psi_ref": 700.0}}),
        [("$.reward_hat_policy.psi_ref", "unknown field")],
    ),
    # calibration
    "calibration_not_an_object": (
        edit(minimal_doc, {"calibration": "relative"}),
        [("$.calibration", "expected an object")],
    ),
    "calibration_delta_mode_not_a_string": (
        edit(minimal_doc, {"calibration": {"delta_mode": 1}}),
        [("$.calibration.delta_mode", "expected a string, got int")],
    ),
    "calibration_delta_mode_unknown": (
        edit(minimal_doc, {"calibration": {"delta_mode": "halving"}}),
        [("$.calibration", "delta_mode must be 'relative' or 'absolute'")],
    ),
    "calibration_delta_value_zero": (
        edit(minimal_doc, {"calibration": {"delta_value": 0.0}}),
        [("$.calibration", "delta_value must be > 0")],
    ),
    "calibration_max_rounds_not_an_integer": (
        edit(minimal_doc, {"calibration": {"max_rounds": 5.0}}),
        [("$.calibration.max_rounds", "expected an integer, got float")],
    ),
    "calibration_max_rounds_zero": (
        edit(minimal_doc, {"calibration": {"max_rounds": 0}}),
        [("$.calibration", "max_rounds must be a positive integer")],
    ),
    # uavs
    "uavs_missing": (edit(minimal_doc, {"uavs": DROP}), [("$.uavs", "required field is missing")]),
    "uavs_not_a_list": (edit(minimal_doc, {"uavs": {"u1": {}}}), [("$.uavs", "expected a list")]),
    "uavs_empty": (edit(minimal_doc, {"uavs": []}), [("$.uavs", "at least one uav is required")]),
    "uav_not_an_object": (
        edit(minimal_doc, {"uavs.0": "u1"}),
        [("$.uavs[0]", "expected an object")],
    ),
    "uav_id_not_a_string": (
        edit(minimal_doc, {"uavs.0.id": 1}),
        [("$.uavs[0].id", "expected a string, got int")],
    ),
    "uav_mode_not_a_string": (
        edit(minimal_doc, {"uavs.0.mode": 3}),
        [
            ("$.uavs[0].mode", "expected a string, got int"),
            ("$.uavs[0].alpha", "unknown field"),
            ("$.uavs[0].beta", "unknown field"),
            ("$.uavs[0].psi", "unknown field"),
        ],
    ),
    "uav_mode_unknown": (
        edit(minimal_doc, {"uavs.0.mode": "hybrid"}),
        [
            ("$.uavs[0].mode", "mode must be 'physical' or 'direct'"),
            ("$.uavs[0].alpha", "unknown field"),
            ("$.uavs[0].beta", "unknown field"),
            ("$.uavs[0].psi", "unknown field"),
        ],
    ),
    "uav_duplicate_id": (
        edit(physical_doc, {"uavs.1.id": "u1"}),
        [("$.uavs[1]", "duplicate uav id 'u1'")],
    ),
    # physical UAVs
    "physical_base_missing": (
        edit(physical_doc, {"uavs.0.base": DROP}),
        [("$.uavs[0].base", "required field is missing")],
    ),
    "physical_base_too_long": (
        edit(physical_doc, {"uavs.0.base": [0.0, 0.0, 0.0, 0.0]}),
        [("$.uavs[0].base", "expected [x, y] or [x, y, z] finite numbers")],
    ),
    "physical_velocity_not_a_number": (
        edit(physical_doc, {"uavs.0.velocity": "fast"}),
        [("$.uavs[0].velocity", "expected a number, got str")],
    ),
    "physical_power_coefficients_not_a_pair": (
        edit(physical_doc, {"uavs.1.power_coefficients": [1.0]}),
        [
            ("$.uavs[1].power_coefficients", "expected [c_drag, c_lift] finite numbers"),
        ],
    ),
    "physical_power_not_a_number": (
        edit(physical_doc, {"uavs.0.power": "high"}),
        [("$.uavs[0].power", "expected a number, got str")],
    ),
    "physical_power_and_coefficients": (
        edit(physical_doc, {"uavs.1.power": 20.0}),
        [("$.uavs[1]", "uav u2: set exactly one of power / power_coefficients")],
    ),
    "physical_velocity_zero": (
        edit(physical_doc, {"uavs.0.velocity": 0.0}),
        [("$.uavs[0]", "uav u1: velocity must be > 0")],
    ),
    "physical_declared_cost_field": (
        edit(physical_doc, {"uavs.0.alpha": 250.0}),
        [("$.uavs[0].alpha", "unknown field")],
    ),
    # direct UAVs: typed reads and per-subregion maps
    "direct_alpha_missing": (
        edit(minimal_doc, {"uavs.0.alpha": DROP}),
        [("$.uavs[0].alpha", "required field is missing")],
    ),
    "direct_alpha_not_a_number": (
        edit(minimal_doc, {"uavs.0.alpha": "250"}),
        [("$.uavs[0].alpha", "expected a number or per-subregion map, got str")],
    ),
    "direct_alpha_out_of_range_integer": (
        edit(minimal_doc, {"uavs.0.alpha": 10**400}),
        [("$.uavs[0].alpha", "expected a finite number, got an out-of-range integer")],
    ),
    "direct_psi_map_entry_not_a_number": (
        edit(minimal_doc, {"uavs.0.psi": {"s1": True}}),
        [
            ("$.uavs[0].psi", "subregion 's1': expected a number, got bool"),
        ],
    ),
    "direct_psi_map_entry_missing": (
        edit(two_subregions, {"uavs.0.psi": {"s1": 10.0}}),
        [
            ("$.uavs[0].psi", "missing value for subregion(s) ['s2']"),
        ],
    ),
    "direct_psi_map_entry_unknown": (
        edit(minimal_doc, {"uavs.0.psi": {"s1": 10.0, "s9": 1.0, "s8": 2.0}}),
        [
            ("$.uavs[0].psi", "unknown subregion id(s) ['s9', 's8']"),
        ],
    ),
    "direct_base_not_a_position": (
        edit(minimal_doc, {"uavs.0.base": "home"}),
        [("$.uavs[0].base", "expected [x, y] or [x, y, z] finite numbers")],
    ),
    "direct_velocity_not_a_number": (
        edit(minimal_doc, {"uavs.0.velocity": [10.0]}),
        [("$.uavs[0].velocity", "expected a number, got list")],
    ),
    "direct_derivation_power_not_a_number": (
        edit(
            minimal_doc,
            {"uavs.0.psi": DROP, "uavs.0.base": [0.0, 0.0], "uavs.0.velocity": 10.0,
             "uavs.0.power": "high"},
        ),
        [("$.uavs[0].power", "expected a number, got str")],
    ),
    "direct_needs_psi_or_flight": (
        edit(minimal_doc, {"uavs.0.psi": DROP, "uavs.0.velocity": 10.0}),
        [("$.uavs[0]", "direct mode needs psi, or base+velocity+power to derive it")],
    ),
    "direct_derived_psi_overflows": (
        edit(
            minimal_doc,
            {"uavs.0.psi": DROP, "uavs.0.base": [1e300, 0.0], "uavs.0.velocity": 1e-300,
             "uavs.0.power": 1.0},
        ),
        [("$.uavs[0]", "subregion 's1': cost vector field psi must be finite and >= 0")],
    ),
    # direct UAVs: sign rules
    "direct_alpha_zero": (
        edit(minimal_doc, {"uavs.0.alpha": 0.0}),
        [("$.uavs[0].alpha", "must be > 0")],
    ),
    "direct_beta_negative_in_a_map": (
        edit(two_subregions, {"uavs.0.beta": {"s1": 20.0, "s2": -20.0}}),
        [("$.uavs[0].beta", "must be > 0")],
    ),
    "direct_psi_negative": (
        edit(minimal_doc, {"uavs.0.psi": -1.0}),
        [("$.uavs[0].psi", "must be >= 0")],
    ),
    "direct_zeta_negative_in_a_map": (
        edit(minimal_doc, {"uavs.0.zeta": {"s1": -0.5}}),
        [("$.uavs[0].zeta", "must be >= 0")],
    ),
    "direct_velocity_zero": (
        edit(
            minimal_doc,
            {"uavs.0.base": [0.0, 0.0], "uavs.0.velocity": 0.0, "uavs.0.power": 5.0},
        ),
        [("$.uavs[0]", "velocity must be > 0")],
    ),
    "direct_power_negative": (
        edit(minimal_doc, {"uavs.0.power": -5.0}),
        [("$.uavs[0]", "power must be > 0")],
    ),
    # a key repeated within one object, reported once however often it repeats
    "repeated_keys": (
        repeated_keys_doc(),
        [
            ("$.subregions[0].data_volume", "duplicate key"),
            ("$.economy.sigma", "duplicate key"),
            ("$.uavs[0].alpha.s1", "duplicate key"),
            ("$.format_version", "duplicate key"),
        ],
    ),
    # one problem in every section, in the order the loader reads them
    "every_section": (
        every_section_doc(),
        [
            ("$.format_version", "unsupported format_version 0"),
            ("$.seed", "must be >= 0"),
            ("$.theta_hat", "theta_hat must be in (0, 1]"),
            ("$.subregions[1]", "subregion s2: rate_factor must be > 0"),
            ("$.economy.mu", "expected a number, got str"),
            ("$.fl", "update_size must be > 0"),
            ("$.reward_hat_policy.values", "'s1': must be >= 0"),
            ("$.calibration", "max_rounds must be a positive integer"),
            ("$.uavs[0].zeta", "must be >= 0"),
            ("$.mystery", "unknown field"),
        ],
    ),

}


class TestRefusals:
    @pytest.mark.parametrize("doc,problems", REFUSALS.values(), ids=REFUSALS)
    def test_exact_problem_list(self, doc, problems):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == problems

    @pytest.mark.parametrize(
        "changes,problem",
        [
            ({"economy": None}, ("$.economy", "expected an object")),
            ({"fl": None}, ("$.fl", "expected an object")),
            ({"reward_hat_policy": None}, ("$.reward_hat_policy", "expected an object")),
            ({"calibration": None}, ("$.calibration", "expected an object")),
            ({"subregions": None}, ("$.subregions", "expected a list")),
            ({"uavs": None}, ("$.uavs", "expected a list")),
            (
                {"uavs.0.base": None},
                ("$.uavs[0].base", "expected [x, y] or [x, y, z] finite numbers"),
            ),
            (
                {"reward_hat_policy": {"values": None}},
                ("$.reward_hat_policy.values", "expected a map of subregion id to number"),
            ),
        ],
        ids=[
            "economy", "fl", "reward_hat_policy", "calibration", "subregions", "uavs",
            "uavs.0.base", "reward_hat_policy.values",
        ],
    )
    def test_null_is_refused_like_any_other_wrong_type(self, changes, problem):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(edit(minimal_doc, changes))
        assert err.value.problems == [problem]

    def test_empty_cost_map_without_subregions_is_reported_not_raised(self):
        doc = edit(minimal_doc, {"subregions": [], "uavs.0.alpha": {}})
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.problems == [("$.subregions", "at least one subregion is required")]


def refusal_patterns() -> list[str]:
    """A regular expression for each refusal message written in ``scenario.py``.

    A message is the constant text of a string or f-string passed to an
    ``error(...)`` call, appended to a problem list as a ``(path,
    message)`` pair, returned by a problem rule, or given to ``_expect``;
    each formatted field matches anything.
    """
    tree = ast.parse(Path(scenario_module.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Return):
            found.append(node.value)
        elif isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "error":
                found.append(node.args[0])
            elif name == "append" and isinstance(node.args[0], ast.Tuple):
                found.append(node.args[0].elts[1])
            elif name == "_expect":
                found.append(node.args[1])
    patterns = []
    for message in found:
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            parts = message.value.split("{}")
        elif isinstance(message, ast.JoinedStr):
            parts = [""]
            for piece in message.values:
                if isinstance(piece, ast.Constant):
                    parts[-1] += piece.value
                else:
                    parts.append("")
        else:
            continue
        patterns.append(".*".join(map(re.escape, parts)))
    return patterns


def test_every_refusal_message_has_a_case_in_the_table():
    messages = [message for _, problems in REFUSALS.values() for _, message in problems]
    patterns = refusal_patterns()
    assert len(patterns) >= 25  # the scan still finds the messages
    assert [p for p in patterns if not any(re.fullmatch(p, m) for m in messages)] == []
