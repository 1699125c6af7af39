"""End-to-end pipeline and CLI tests over the bundled fixtures."""

import json
import time

import pytest

from uavmarket.cli import main
from uavmarket.economics import model_accuracy, payoff
from uavmarket.errors import OptionError, ScenarioError
from uavmarket.pipeline import (
    VerifyCheck,
    VerifyReport,
    prepare,
    run_contract,
    run_match,
    run_sweep,
    run_verify,
    sweep_values,
    verify_schedule,
)
from uavmarket.scenario import fixture_path, load_scenario, scenario_from_dict

FIG6_ASSIGNMENT = {"u1": "s6", "u2": "s1", "u3": "s3", "u4": "s2", "u5": "s5", "u6": "s4"}


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestRunContract:
    def test_demo_grid_outputs(self, tmp_path):
        scenario = load_scenario(fixture_path("demo_grid.scn"))
        run_contract(scenario, tmp_path)
        header, rows = read_csv(tmp_path / "coverage.csv")
        assert header == ["subregion", "rank", "upsilon", "theta"]
        thetas = [float(r[3]) for r in rows]
        assert thetas == sorted(thetas, reverse=True)
        assert rows[0][3] == "0.640740740741"  # 12 significant digits
        header, rows = read_csv(tmp_path / "rewards.csv")
        rewards = [float(r[2]) for r in rows]
        assert rewards == sorted(rewards, reverse=True)
        header, rows = read_csv(tmp_path / "profit.csv")
        profits = [float(r[2]) for r in rows]
        assert profits == sorted(profits, reverse=True)
        assert "\r" not in (tmp_path / "coverage.csv").read_bytes().decode()

    def test_ic_matrix_file_is_square_per_subregion(self, tmp_path):
        scenario = load_scenario(fixture_path("fig6.scn"))
        run_contract(scenario, tmp_path)
        _, rows = read_csv(tmp_path / "ic_matrix.csv")
        assert len(rows) == 6 * 36
        _, cov_rows = read_csv(tmp_path / "coverage.csv")
        assert len(cov_rows) == 36


class TestRunMatch:
    def test_fig6_assignment_row_for_row(self, tmp_path):
        scenario = load_scenario(fixture_path("fig6.scn"))
        report = run_match(scenario, tmp_path)
        assert report.match.assignment == FIG6_ASSIGNMENT
        _, rows = read_csv(tmp_path / "assignment.csv")
        assert {(r[0], r[1]) for r in rows} == set(FIG6_ASSIGNMENT.items())
        _, stability_rows = read_csv(tmp_path / "stability.csv")
        assert stability_rows == []
        _, calibration_rows = read_csv(tmp_path / "calibration.csv")
        assert calibration_rows == []

    def test_fig7_rescaling_leaves_assignment_unchanged(self):
        report = run_match(load_scenario(fixture_path("fig7.scn")))
        assert report.match.assignment == FIG6_ASSIGNMENT

    def test_fig8_larger_fleet(self, tmp_path):
        report = run_match(load_scenario(fixture_path("fig8.scn")), tmp_path)
        assert report.match.assignment["u7"] == "s6"
        assert report.match.assignment["u1"] == "s1"
        assert report.match.assignment["u2"] == "s5"
        assert "u6" not in report.match.assignment
        _, rows = read_csv(tmp_path / "assignment.csv")
        unmatched = [r for r in rows if r[1] == "UNMATCHED"]
        assert [r[0] for r in unmatched] == ["u6"]

    def test_table3_calibration_resolves_to_nearest(self, tmp_path):
        report = run_match(load_scenario(fixture_path("table3.scn")), tmp_path)
        assignment = report.match.assignment
        assert assignment == {"u1": "s2", "u2": "s1", "u4": "s3"}
        assert report.blocking_pairs == []
        assert any(e.subregion_id == "s3" for e in report.match.calibration_log)
        _, rows = read_csv(tmp_path / "calibration.csv")
        assert rows, "calibration log should not be empty"
        for row in rows:
            assert float(row[4]) < float(row[3])

    def test_physical_feasibility_gate(self):
        scenario = load_scenario(fixture_path("physical.scn"))
        report = run_match(scenario)
        s2 = [sub.id for sub in scenario.subregions].index("s2")
        screen = report.feasibility["u3"]
        assert not screen.time_ok[s2] and not screen.passes[s2]
        assert screen.feasible  # u3 still passes elsewhere
        announced_s2 = report.published["s2"].ladder
        assert "u3" not in announced_s2 and "u1" in announced_s2
        assert "u3" not in report.sub_prefs["s2"].ranked
        assert report.match.assignment == {"u1": "s1", "u2": "s2"}

        def realized(uav_id):
            # the paid item against the costs on its rung
            schedule = report.schedules[report.match.assignment[uav_id]]
            item = schedule.item_for(uav_id)
            costs = schedule.costs[schedule.rank_of(uav_id) - 1]
            phi = scenario.economy.phi
            return payoff(item.theta, item.coverage_reward, item.fixed_reward, costs, phi)

        # u3 stays unmatched and realizes nothing; u1's fixed costs equal
        # the reference-priced fixed reward, so it accepts at exact break-even
        assert "u3" not in report.match.assignment
        assert realized("u1") == 0.0
        assert realized("u2") > 0.0

    def test_costs_derived_only_for_pairs_that_pass_screening(self, monkeypatch):
        import uavmarket.pipeline as pipeline

        derive = pipeline.derive_cost_vector
        calls = []

        def counting(sub, profile, fl):
            calls.append((profile.id, sub.id))
            return derive(sub, profile, fl)

        monkeypatch.setattr(pipeline, "derive_cost_vector", counting)
        report = prepare(load_scenario(fixture_path("physical.scn")))
        sub_ids = [sub.id for sub in report.scenario.subregions]
        screened = [
            (uav_id, sub_id, passes)
            for uav_id, screen in report.feasibility.items()
            for sub_id, passes in zip(sub_ids, screen.passes, strict=True)
        ]
        feasible = [(u, s) for u, s, passes in screened if passes]
        assert len(feasible) < len(screened)
        assert calls == feasible

    def test_profit_recomputable_from_parts(self):
        scenario = load_scenario(fixture_path("fig6.scn"))
        report = run_match(scenario)
        econ = scenario.economy
        items = {
            sub_id: report.schedules[sub_id].item_for(uav_id)
            for sub_id, uav_id in report.match.subregion_assignment().items()
        }
        coverages = [
            (items[sub.id].theta if sub.id in items else 0.0, sub.data_volume)
            for sub in scenario.subregions
        ]
        recomputed = econ.sigma * model_accuracy(coverages, econ.mu) - sum(
            item.total_reward for item in items.values()
        )
        assert report.owner_profit == pytest.approx(recomputed)

    def test_csv_outputs_byte_identical_across_runs(self, tmp_path):
        scenario = load_scenario(fixture_path("table3.scn"))
        run_match(scenario, tmp_path / "a")
        run_match(scenario, tmp_path / "b")
        for name in ("assignment.csv", "calibration.csv", "stability.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_subregion_without_announcers_is_unmatched(self):
        doc = json.loads(fixture_path("physical.scn").read_text())
        doc["subregions"].append(
            {
                "id": "s3",
                "center": [0.0, 0.0, 0.0],
                "full_distance": 2000.0,
                "data_volume": 8e6,
                "rate_factor": 1e4,
                "deadline": 1.0,
            }
        )
        report = run_match(scenario_from_dict(doc))
        assert "s3" not in report.match.assignment.values()
        assert report.match.assignment == {"u1": "s1", "u2": "s2"}


class TestRunVerify:
    @pytest.mark.parametrize(
        "name", ["demo_grid.scn", "fig6.scn", "fig8.scn", "table3.scn", "physical.scn"]
    )
    def test_fixtures_verify_clean(self, name):
        report = run_verify(load_scenario(fixture_path(name)))
        assert report.ok, [c for c in report.checks if not c.passed]

    def test_report_is_deterministic(self):
        scenario = load_scenario(fixture_path("fig6.scn"))
        a = run_verify(scenario, seed=7)
        b = run_verify(scenario, seed=7)
        assert a.checks == b.checks and a.seed == b.seed == 7

    def test_corrupted_rewards_detected(self, demo_grid_schedule):
        rewards = list(demo_grid_schedule.coverage_rewards)
        rewards[0] -= 1.0
        tampered = demo_grid_schedule.with_coverage_rewards(rewards)
        check = verify_schedule(tampered)
        assert not check.passed
        assert check.magnitude > 1e-9

    def test_verify_csv_written(self, tmp_path):
        scenario = load_scenario(fixture_path("demo_grid.scn"))
        run_verify(scenario, out_dir=tmp_path)
        header, rows = read_csv(tmp_path / "verify.csv")
        assert header == ["check", "status", "magnitude", "detail"]
        assert all(row[1] == "pass" for row in rows)


class TestSweep:
    def test_empty_range_writes_header_only(self, tmp_path):
        doc = json.loads(fixture_path("demo_grid.scn").read_text())
        rows = run_sweep(doc, "economy.sigma", [], tmp_path / "sweep.csv")
        assert rows == []
        header, body = read_csv(tmp_path / "sweep.csv")
        assert header == ["param_value", "metric", "value"] and body == []

    def test_reward_hat_sweep_finds_first_responder(self):
        doc = json.loads(fixture_path("demo_grid.scn").read_text())
        doc["reward_hat_policy"] = {"mode": "fixed", "value": 0.0}
        values = sweep_values(0.0, 15.0, 7)
        rows = run_sweep(doc, "reward_hat_policy.value", values)
        responders = {v: x for v, m, x in rows if m == "responders[s1]"}
        assert responders[0.0] == 0.0
        first = min(v for v, count in responders.items() if count > 0)
        assert first == pytest.approx(2.5)

    def test_distance_sweep_decreases_utility(self):
        doc = json.loads(fixture_path("table3.scn").read_text())
        values = sweep_values(100.0, 1100.0, 6)
        rows = run_sweep(doc, "uavs.0.base.0", values)
        series = [x for v, m, x in rows if m == "utility[u1,s2]"]
        assert len(series) == 6
        assert all(a > b for a, b in zip(series, series[1:]))

    def test_unknown_parameter_rejected(self):
        doc = json.loads(fixture_path("demo_grid.scn").read_text())
        with pytest.raises(ScenarioError, match="unknown parameter"):
            run_sweep(doc, "economy.nonexistent", [1.0])

    @pytest.mark.parametrize(
        "param,message",
        [
            ("subregions.first.full_distance", "bad list index 'first'"),
            ("subregions.9.full_distance", "bad list index '9'"),
            ("economy.sigma.0", "cannot descend into float"),
            ("subregions.0.id", "parameter is not numeric"),
        ],
    )
    def test_bad_parameter_path_rejected(self, param, message):
        doc = json.loads(fixture_path("demo_grid.scn").read_text())
        with pytest.raises(OptionError) as err:
            run_sweep(doc, param, [1.0])
        assert err.value.problems == [("--param", f"{param}: {message}")]

    def test_sweep_values_endpoints(self):
        assert sweep_values(0.0, 1.0, 3) == [0.0, 0.5, 1.0]
        assert sweep_values(2.0, 2.0, 1) == [2.0]
        # one step never reads the width, which would overflow here
        assert sweep_values(1e308, -1e308, 1) == [1e308]
        assert sweep_values(0.0, 1.7976931348623157e308, 3)[-1] == 1.7976931348623157e308

    @pytest.mark.parametrize("steps", [0, -3])
    def test_fewer_than_one_step_rejected(self, steps):
        with pytest.raises(OptionError) as err:
            sweep_values(0.0, 1.0, steps)
        assert err.value.problems == [("--steps", "must be >= 1")]


class TestCli:
    def test_contract_and_match_and_verify_exit_zero(self, tmp_path, capsys):
        scn = str(fixture_path("demo_grid.scn"))
        assert main(["contract", "--scenario", scn, "--out", str(tmp_path / "c")]) == 0
        assert main(["match", "--scenario", scn, "--out", str(tmp_path / "m")]) == 0
        assert (
            main(["verify", "--scenario", scn, "--out", str(tmp_path / "v"),
                  "--grid-points", "2001", "--seed", "3"]) == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out and "u1 -> s1" in out

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text('{"format_version": 1}')
        code = main(["contract", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["match", "verify"])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, command):
        doc = json.loads(fixture_path("fig6.scn").read_text(encoding="utf-8"))
        doc["economy"]["sigma"] = float("nan")
        bad = tmp_path / "nan.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "--scenario", str(bad), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "$.economy.sigma: expected a finite number, got nan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["match", "verify"])
    @pytest.mark.parametrize(
        "policy,field",
        [
            ({"mode": "fixed", "value": -50}, "value"),
            ({"mode": "reference", "psi_ref": -5000}, "psi_ref"),
        ],
        ids=["value", "psi_ref"],
    )
    def test_negative_fixed_reward_exits_one(self, tmp_path, capsys, policy, field, command):
        doc = json.loads(fixture_path("fig6.scn").read_text(encoding="utf-8"))
        doc["reward_hat_policy"] = policy
        bad = tmp_path / "negative.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "--scenario", str(bad), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert f"$.reward_hat_policy.{field}: must be >= 0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["contract", "match", "verify"])
    def test_fixed_value_and_values_together_exit_one(self, tmp_path, capsys, command):
        # neither may silently win: with every entry of values at 0.0, the
        # menus would pay no fixed reward and value would go unread
        doc = json.loads(fixture_path("fig6.scn").read_text(encoding="utf-8"))
        zeros = {sub["id"]: 0.0 for sub in doc["subregions"]}
        doc["reward_hat_policy"] = {"mode": "fixed", "value": 35.0, "values": zeros}
        bad = tmp_path / "both.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "--scenario", str(bad), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "invalid scenario:\n  $.reward_hat_policy: give value or values, not both\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--out", "o", "--grid-points", "abc"],
             "argument --grid-points: invalid int value: 'abc'"),
            (["match", "--out", "o"], "the following arguments are required: --scenario"),
            (["sweep", "--out", "o", "--param", "economy.sigma", "--from", "1", "--to", "2",
              "--steps", "x"], "argument --steps: invalid int value: 'x'"),
        ],
        ids=["verify-grid-points", "match-no-scenario", "sweep-steps"],
    )
    def test_usage_error_exits_one_with_the_usage_text(self, tmp_path, capsys, argv, message):
        # exit 2 is a verification failure; a bad option is invalid input
        if argv[0] != "match":
            argv = [*argv, "--scenario", str(fixture_path("fig6.scn"))]
        with pytest.raises(SystemExit) as done:
            main(argv)
        captured = capsys.readouterr()
        assert done.value.code == 1
        assert captured.err.startswith(f"usage: uavmarket {argv[0]} [-h] --scenario SCENARIO")
        assert captured.err.endswith(f"\nuavmarket {argv[0]}: error: {message}\n")
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["match", "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: uavmarket match [-h]")

    @pytest.mark.parametrize("command", ["contract", "match", "verify"])
    @pytest.mark.parametrize(
        "override,message",
        [
            ({"power_coefficients": [1e-320, 0.0], "velocity": 0.001}, "must be finite and > 0"),
            ({"velocity": 1e120}, "propulsion power overflows"),
            ({"cpu_frequency": 1e200}, "cpu_frequency**2 overflows"),
        ],
        ids=["zero_power", "power_overflow", "frequency_overflow"],
    )
    def test_unusable_propulsion_or_frequency_exits_one(
        self, tmp_path, capsys, override, message, command
    ):
        doc = json.loads(fixture_path("physical.scn").read_text(encoding="utf-8"))
        doc["uavs"][1].update(override)
        bad = tmp_path / "power.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "--scenario", str(bad), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "$.uavs[1]: uav u2: " in captured.err and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["contract", "match", "verify", "sweep"])
    @pytest.mark.parametrize("fixture", ["physical.scn", "fig6.scn"])
    def test_overflowing_pair_cost_exits_one(self, tmp_path, capsys, fixture, command):
        # finite inputs whose base-to-centre leg overflows: psi comes out inf
        doc = json.loads(fixture_path(fixture).read_text(encoding="utf-8"))
        u1 = doc["uavs"][0]
        if fixture == "physical.scn":
            # no battery and no deadlines, so the pair passes both gates
            u1["base"] = [1.7e308, 1.7e308, 1.7e308]
            del u1["energy_capacity"]
            for sub in doc["subregions"]:
                del sub["deadline"]
        else:
            del u1["psi"]  # derived from base, velocity and power instead
            u1.update(base=[1.7e308, 1.7e308, 0.0], velocity=10.0, power=20.0)
        bad = tmp_path / "overflow.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--scenario", str(bad), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--param", "economy.sigma", "--from", "100", "--to", "100", "--steps", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "$.uavs[0]: subregion 's1': cost vector field psi must be finite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_earlier_marginal_cost_is_reported_before_a_later_pair_cost(self, tmp_path, capsys):
        # uavs[0] announces an overflowing marginal cost; uavs[2]'s cost
        # vector fails later, while announcements are still being gathered
        doc = json.loads(fixture_path("physical.scn").read_text(encoding="utf-8"))
        far = doc["uavs"][1]
        far["base"] = [1.7e308, 1.7e308, 1.7e308]
        del far["energy_capacity"]
        for sub in doc["subregions"]:
            del sub["deadline"]
        doc["uavs"].insert(
            0, {"id": "d0", "mode": "direct", "alpha": 1.7e308, "beta": 1.7e308, "psi": 10.0}
        )
        bad = tmp_path / "mixed.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["match", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "$.uavs[0]: subregion 's1': marginal cost" in captured.err
        assert "$.uavs[2]" not in captured.err

    @pytest.mark.parametrize(
        "marginal_cost_first,message",
        [
            (True, "alpha, beta, and phi must be > 0"),
            (False, "cost vector field psi must be finite and >= 0"),
        ],
        ids=["marginal-cost-first", "cost-vector-first"],
    )
    def test_a_physical_uav_reports_its_first_failing_subregion(
        self, tmp_path, capsys, marginal_cost_first, message
    ):
        # u1 flies at 100 m/s on 20 W and passes every screen. Over a
        # 5e-324 m sweep its alpha underflows to 0: the cost vector holds
        # but the marginal cost is refused. At a centre 1.7e308 m away its
        # psi overflows: the cost vector itself is refused.
        doc = json.loads(fixture_path("physical.scn").read_text(encoding="utf-8"))
        for sub in doc["subregions"]:
            del sub["deadline"]
        u1 = doc["uavs"][0]
        del u1["energy_capacity"]
        u1["velocity"] = 100.0
        first, later = doc["subregions"] if marginal_cost_first else doc["subregions"][::-1]
        first["full_distance"] = 5e-324
        later["center"] = [1.7e308, 1.7e308, 1.7e308]
        bad = tmp_path / "order.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["match", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"invalid scenario:\n  $.uavs[0]: subregion 's1': {message}\n"

    def test_far_uav_that_fails_screening_is_not_an_error(self):
        doc = json.loads(fixture_path("physical.scn").read_text(encoding="utf-8"))
        doc["uavs"][0]["base"] = [1.7e308, 1.7e308, 1.7e308]
        report = run_match(scenario_from_dict(doc))
        screen = report.feasibility["u1"]
        assert not screen.feasible and not any(screen.passes)
        assert "u1" not in report.match.assignment

    def test_upload_rate_underflow_exits_one_at_the_uav(self, tmp_path, capsys):
        # 1e-200 * 1e-200 is 0 in float64: the upload time would divide by 0
        doc = json.loads(fixture_path("physical.scn").read_text(encoding="utf-8"))
        doc["subregions"][0]["rate_factor"] = 1e-200
        doc["uavs"][0]["transmit_power"] = 1e-200
        bad = tmp_path / "slow.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("contract", "match", "verify"):
            code = main([command, "--scenario", str(bad), "--out", str(tmp_path / command)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == (
                "invalid scenario:\n"
                "  $.uavs[0]: subregion 's1': rate_factor * transmit_power underflows to 0\n"
            )

    def test_verify_grid_points_below_three_exits_one(self, tmp_path, capsys):
        scn = str(fixture_path("demo_grid.scn"))
        code = main(["verify", "--scenario", scn, "--out", str(tmp_path), "--grid-points", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "invalid option --grid-points:\n  --grid-points: must be >= 3\n"
        assert "Traceback" not in captured.err

    def test_verify_grid_numpy_cannot_allocate_exits_one(self, tmp_path, capsys):
        # 2**62 float64s overflow numpy's size limit, so nothing is reserved;
        # never test a size numpy could actually reserve
        scn = str(fixture_path("demo_grid.scn"))
        argv = ["verify", "--scenario", scn, "--out", str(tmp_path), "--grid-points", str(2**62)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(
            "invalid option --grid-points:\n"
            f"  --grid-points: numpy cannot allocate a grid of {2**62} points: array is too big"
        )
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_in_the_file_exits_one_with_its_path(self, tmp_path, capsys):
        doc = json.loads(fixture_path("fig6.scn").read_text(encoding="utf-8"))
        doc["seed"] = -5
        bad = tmp_path / "negative.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("match", "verify"):
            code = main([command, "--scenario", str(bad), "--out", str(tmp_path / command)])
            captured = capsys.readouterr()
            assert code == 1
            assert "$.seed: must be >= 0" in captured.err
            assert "Traceback" not in captured.err

    def test_verify_negative_seed_flag_exits_one(self, tmp_path, capsys):
        scn = str(fixture_path("fig6.scn"))
        code = main(["verify", "--scenario", scn, "--out", str(tmp_path), "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "invalid option --seed:\n  --seed: must be >= 0\n"
        assert "Traceback" not in captured.err

    def test_reward_sum_overflow_exits_one(self, tmp_path, capsys):
        doc = json.loads(fixture_path("fig6.scn").read_text(encoding="utf-8"))
        doc["reward_hat_policy"] = {"mode": "fixed", "value": 1e308}
        scn = tmp_path / "huge.scn"
        scn.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["match", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "$.reward_hat_policy: the menus' top total rewards sum to inf" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command,make",
        [
            ("match", lambda path: None),
            ("sweep", lambda path: None),
            ("match", lambda path: path.mkdir()),
            ("contract", lambda path: path.write_bytes(b"\xff\xfe{}")),
        ],
        ids=["match-missing-file", "sweep-missing-file", "directory", "not-utf8"],
    )
    def test_unreadable_scenario_exits_one_at_its_path(self, tmp_path, capsys, command, make):
        scn = tmp_path / "input.scn"
        make(scn)
        argv = [command, "--scenario", str(scn), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--param", "seed", "--from", "0", "--to", "1", "--steps", "2"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert f"$: cannot read {scn}: " in captured.err
        assert "Traceback" not in captured.err

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["match", "--scenario", str(fixture_path("fig6.scn")), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        heading = f"invalid option --out:\n  --out: cannot create directory {out}: "
        assert captured.err.startswith(heading)
        assert "invalid scenario" not in captured.err
        assert "Traceback" not in captured.err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("not json")
        code = main(["match", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value,problem",
        [
            ("--steps", "-3", "--steps: must be >= 1"),
            ("--param", "economy.nope",
             "--param: economy.nope: unknown parameter (no field 'nope')"),
        ],
        ids=["steps", "param"],
    )
    def test_bad_sweep_option_exits_one_under_its_name(
        self, tmp_path, capsys, option, value, problem
    ):
        options = {"--param": "economy.sigma", "--from": "50", "--to": "150", "--steps": "3"}
        options[option] = value
        argv = ["sweep", "--scenario", str(fixture_path("demo_grid.scn")), "--out", str(tmp_path)]
        code = main(argv + [part for pair in options.items() for part in pair])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"invalid option {option}:\n  {problem}\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.filterwarnings("error")  # a numpy warning fails the test
    @pytest.mark.parametrize(
        "changes,option,problem",
        [
            ({"--from": "nan"}, "--from", "--from: must be a finite number, got nan\n"),
            ({"--to": "-inf"}, "--to", "--to: must be a finite number, got -inf\n"),
            (
                {"--from": "1e308", "--to": "-1e308"},
                "--to",
                "--to: the range from 1e+308 to -1e+308 overflows\n",
            ),
            # 2**62 float64s overflow numpy's size limit, so nothing is reserved;
            # never test a count numpy could actually reserve
            ({"--steps": str(2**62)}, "--steps", f"--steps: numpy cannot allocate {2**62} values: "),
        ],
        ids=["from-nan", "to-inf", "range-overflows", "steps-numpy-refuses"],
    )
    def test_unusable_sweep_range_exits_one_under_its_option(
        self, tmp_path, capsys, changes, option, problem
    ):
        options = {"--param": "economy.sigma", "--from": "50", "--to": "150", "--steps": "3"}
        options.update(changes)
        argv = ["sweep", "--scenario", str(fixture_path("demo_grid.scn")), "--out", str(tmp_path)]
        code = main(argv + [f"{name}={value}" for name, value in options.items()])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"invalid option {option}:\n  {problem}")
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("{\n  \"seed\": 0,\n}")
        argv = ["sweep", "--scenario", str(bad), "--out", str(tmp_path / "o"),
                "--param", "seed", "--from", "0", "--to", "1", "--steps", "2"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "$: JSON parse error at line 3, column 1" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["contract", "match", "verify", "sweep"])
    @pytest.mark.parametrize(
        "first,repeated,path",
        [
            ('"economy": {', '"economy": {"sigma": 1, ', "$.economy.sigma"),
            ('"fl": {', '"fl": {"lipschitz": 1}, "fl": {', "$.fl"),
        ],
        ids=["value-in-a-section", "whole-section"],
    )
    def test_repeated_key_exits_one_at_its_path(
        self, tmp_path, capsys, command, first, repeated, path
    ):
        # json.loads alone keeps the last value and drops the other silently
        text = fixture_path("fig6.scn").read_text(encoding="utf-8")
        assert first in text
        bad = tmp_path / "repeated.scn"
        bad.write_text(text.replace(first, repeated, 1), encoding="utf-8")
        out = tmp_path / "o"
        argv = [command, "--scenario", str(bad), "--out", str(out)]
        if command == "sweep":
            argv += ["--param", "economy.sigma", "--from", "1", "--to", "2", "--steps", "2"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"invalid scenario:\n  {path}: duplicate key\n"
        assert list(out.iterdir()) == []

    def test_unresolved_tie_exits_three(self, tmp_path, capsys):
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
            "reward_hat_policy": {"mode": "fixed", "value": 50.0},
            "calibration": {"delta_mode": "relative", "delta_value": 0.01, "max_rounds": 40},
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
                {"id": "a", "mode": "direct", "alpha": 250.0, "beta": 20.0, "psi": 10.0},
                {"id": "b", "mode": "direct", "alpha": 250.0, "beta": 20.0, "psi": 10.0},
            ],
        }
        scn = tmp_path / "tie.scn"
        scn.write_text(json.dumps(doc))
        code = main(["match", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "tie unresolved" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,delta", [("relative", 1e-17), ("absolute", 1e-300)], ids=["relative", "absolute"]
    )
    def test_a_calibration_step_that_changes_no_reward_exits_three_at_once(
        self, tmp_path, capsys, mode, delta
    ):
        doc = json.loads(fixture_path("table3.scn").read_text(encoding="utf-8"))
        doc["calibration"] = {"delta_mode": mode, "delta_value": delta, "max_rounds": 10**7}
        scn = tmp_path / "stuck.scn"
        scn.write_text(json.dumps(doc), encoding="utf-8")
        started = time.perf_counter()
        code = main(["match", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        elapsed = time.perf_counter() - started
        captured = capsys.readouterr()
        assert code == 3
        assert "tie unresolved after 0 calibration rounds" in captured.err
        assert "Traceback" not in captured.err
        assert elapsed < 5.0

    def test_verify_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        import uavmarket.cli as cli

        failing = VerifyReport(seed=0, checks=[VerifyCheck("forced", False, 1.0, "")])
        monkeypatch.setattr(cli, "run_verify", lambda *a, **k: failing)
        scn = str(fixture_path("demo_grid.scn"))
        code = main(["verify", "--scenario", scn, "--out", str(tmp_path / "v")])
        assert code == 2
        assert "FAIL forced" in capsys.readouterr().out

    def test_sweep_cli(self, tmp_path):
        scn = str(fixture_path("demo_grid.scn"))
        code = main(
            ["sweep", "--scenario", scn, "--out", str(tmp_path),
             "--param", "economy.sigma", "--from", "50", "--to", "150", "--steps", "3"]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["param_value", "metric", "value"]
        assert any(r[1] == "owner_profit" for r in rows)

    def test_sweep_unknown_param_exits_one(self, tmp_path, capsys):
        scn = str(fixture_path("demo_grid.scn"))
        code = main(
            ["sweep", "--scenario", scn, "--out", str(tmp_path),
             "--param", "economy.zzz", "--from", "0", "--to", "1", "--steps", "2"]
        )
        assert code == 1
        assert "unknown parameter" in capsys.readouterr().err
