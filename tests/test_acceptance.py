"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in the captured output); a failure reads as the criterion number.
Randomized criteria use fixed seeds recorded in the printed line.
"""

import numpy as np
import pytest

from conftest import (
    demo_econ,
    demo_subregion,
    grid_announcements,
    random_matching_instance,
    random_schedule,
)
from uavmarket.contract import build_schedule, optimal_coverage
from uavmarket.core import FlHyperParams, fl_rounds
from uavmarket.economics import owner_profit
from uavmarket.matching import gs_match, stability_audit
from uavmarket.pipeline import run_match
from uavmarket.scenario import fixture_path, load_scenario
from uavmarket.verification import (
    enumerate_stable_matchings,
    grid_oracle_coverage,
    ic_matrix,
    is_subregion_optimal,
    random_coverage_draw,
)

FIG6_ASSIGNMENT = {"u1": "s6", "u2": "s1", "u3": "s3", "u4": "s2", "u5": "s5", "u6": "s4"}


def report(n, text):
    print(f"[acceptance] criterion {n:2d}: PASS  {text}")


@pytest.fixture(scope="module")
def six_type_schedule():
    """The ascending six-type menu at sigma=100, mu=1, volume=10, N=1."""
    return build_schedule(grid_announcements(), demo_subregion(), demo_econ(), 0.0)


def test_criterion_01_training_round_constants_exact():
    fl = FlHyperParams(
        lipschitz=4.0,
        strong_convexity=2.0,
        xi=1.0 / 3.0,
        delta=0.25,
        local_accuracy=0.6,
        update_size=1.0,
    )
    rounds = fl_rounds(fl)
    assert rounds.local_iterations == 4.0
    assert rounds.round_scale == 24.0
    report(1, "local_iterations == 4.0 and round_scale == 24.0, exact in floating point")


def test_criterion_02_contract_monotonicity(six_type_schedule):
    thetas, rewards = six_type_schedule.thetas, six_type_schedule.coverage_rewards
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert all(a > b for a, b in zip(rewards, rewards[1:]))
    assert 0.0 < thetas[0] < 1.0 and 0.0 < thetas[-1] < 1.0
    report(2, "coverage and rewards strictly decreasing over ranks 1..6")


def test_criterion_03_incentive_compatibility(six_type_schedule):
    matrix = ic_matrix(six_type_schedule)
    diag = np.diag(matrix)
    assert np.all(matrix - diag[:, None] <= 1e-9)
    worst_row = np.delete(matrix[5], 5)
    assert np.all(worst_row < 0)
    assert abs(diag[5]) <= 1e-9
    report(3, "dominant diagonal (tol 1e-9), worst row negative, worst-type break-even")


def test_criterion_04_profit_ordering(six_type_schedule):
    econ, menu = demo_econ(), six_type_schedule
    profits = [
        owner_profit([(theta, 10.0)], [reward + menu.fixed_reward], econ)
        for theta, reward in zip(menu.thetas, menu.coverage_rewards)
    ]
    assert all(a > b for a, b in zip(profits, profits[1:]))
    report(4, "hypothetical owner profit strictly decreasing in winner rank")


def test_criterion_05_closed_form_vs_grid_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        upsilon, volume, econ = random_coverage_draw(rng)
        (closed,) = optimal_coverage((upsilon,), volume, econ)
        (scanned,) = grid_oracle_coverage((upsilon,), volume, econ, grid_points=10001)
        worst = max(worst, abs(closed - scanned))
    assert worst <= 2e-4
    report(5, f"1000 draws (seed 2024), max |closed - oracle| = {worst:.2e} <= 2e-4")


def test_criterion_06_fixture_assignment_and_stability():
    scenario = load_scenario(fixture_path("fig6.scn"))
    rep = run_match(scenario)
    assert rep.match.assignment == FIG6_ASSIGNMENT
    assert rep.blocking_pairs == []
    report(6, "fig6 assignment exact {u1-s6, u2-s1, u3-s3, u4-s2, u5-s5, u6-s4}, stable")


def test_criterion_07_per_subregion_rescaling_invariance():
    rep = run_match(load_scenario(fixture_path("fig7.scn")))
    assert rep.match.assignment == FIG6_ASSIGNMENT
    report(7, "per-subregion rescaling of (size, data) leaves the assignment unchanged")


def test_criterion_08_larger_fleet_displacement():
    rep = run_match(load_scenario(fixture_path("fig8.scn")))
    assignment = rep.match.assignment
    assert assignment["u7"] == "s6"
    assert "u6" not in assignment
    assert assignment["u1"] == "s1"  # u1's second choice
    assert assignment["u2"] == "s5"  # u2's third choice
    report(8, "u7 takes s6, u1 second choice, u2 third choice (s5), u6 unmatched")


def test_criterion_09_preference_table_reproduced():
    uav_prefs = run_match(load_scenario(fixture_path("table3.scn"))).published_uav_prefs
    expected = {
        "u1": ("s2", "s3", "s1"),
        "u2": ("s1", "s3", "s2"),
        "u3": ("s3", "s2", "s1"),
        "u4": ("s3", "s2", "s1"),
        "u5": ("s3",),
    }
    for uav_id, ranked in expected.items():
        assert uav_prefs[uav_id].ranked == ranked, uav_id
    report(9, "all five preference rows reproduced, including the singleton list")


def test_criterion_10_stability_and_proposer_optimality():
    rng = np.random.default_rng(777)
    for _ in range(200):
        sub_prefs, uav_prefs = random_matching_instance(rng, max_side=8)
        state = gs_match(sub_prefs, uav_prefs)
        assert stability_audit(state, sub_prefs, uav_prefs) == []
        stable = enumerate_stable_matchings(sub_prefs, uav_prefs)
        assignment = state.subregion_assignment()
        assert assignment in stable
        assert is_subregion_optimal(assignment, stable, sub_prefs)
    report(10, "200 instances (seed 777) up to 8x8: in stable set and subregion-optimal")


def test_criterion_11_coverage_reward_comonotonicity():
    rng = np.random.default_rng(4242)
    for _ in range(200):
        schedule, _, _ = random_schedule(rng)
        thetas, rewards = schedule.thetas, schedule.coverage_rewards
        for i in range(len(thetas)):
            for k in range(len(thetas)):
                assert (thetas[i] < thetas[k]) == (rewards[i] < rewards[k])
    report(11, "200 schedules (seed 4242): theta_i < theta_k iff reward_i < reward_k")


def test_criterion_12_reward_minimality():
    rng = np.random.default_rng(555)
    checked = 0
    for _ in range(50):
        schedule, _, _ = random_schedule(rng)
        base = list(schedule.coverage_rewards)
        for i in range(len(base)):
            perturbed = list(base)
            perturbed[i] -= 1e-3 * perturbed[i]
            audit = schedule.with_coverage_rewards(perturbed).audit
            assert not (audit.ir_ok and audit.ic_ok), f"rank {i + 1} underpayable"
            checked += 1
    report(12, f"50 schedules (seed 555), {checked} single-reward cuts all break IR or IC")


def test_criterion_13_fixed_reward_invariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        base_schedule, sub, econ = random_schedule(rng, reward_hat=0.0)
        announcements = dict(zip(base_schedule.ladder, base_schedule.costs))
        reference = None
        for rhat in (0.0, 1.0, 1e3):
            schedule = build_schedule(announcements, sub, econ, reward_hat=rhat)
            assert schedule.audit.ic_ok
            # full payoff: coverage-linked part plus the common shift; rows
            # carry exact ties (binding constraints), so compare the argmax
            # set at the audit tolerance rather than a single index
            matrix = ic_matrix(schedule) + rhat
            argmax_rows = tuple(
                frozenset(np.flatnonzero(row >= row.max() - 1e-9)) for row in matrix
            )
            for i, positions in enumerate(argmax_rows):
                assert i in positions  # own item always among the best responses
            if reference is None:
                reference = argmax_rows
            assert argmax_rows == reference
    report(13, "common fixed rewards in {0, 1, 1000} leave ic_ok and row argmax unchanged")
