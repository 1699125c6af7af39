"""Contract ladder, coverage, rewards, and audit tests.

The two-type and six-type expectations are frozen from an independent
backward-recursion evaluation; menu properties are checked on random
instances as well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import demo_econ, demo_subregion, grid_announcements, random_schedule
from uavmarket.contract import (
    AuxiliaryType,
    ContractSchedule,
    build_schedule,
    iron_schedule,
    marginal_cost,
    optimal_coverage,
    reward_schedule,
    sort_ladder,
)
from uavmarket.core import CostVector
from uavmarket.economics import EconomyParams


def menu_utility(schedule: ContractSchedule, rank: int, item_rank: int) -> float:
    """Coverage-linked payoff of the type at ``rank`` taking the item at ``item_rank``."""
    aux = schedule.ladder[rank - 1]
    item = schedule.items[item_rank - 1]
    return item.coverage_reward - aux.upsilon * item.theta


def select_winner(schedule: ContractSchedule) -> list[AuxiliaryType]:
    """The cheapest rung(s) of the ladder: every rung tied at the minimum upsilon."""
    best = schedule.ladder[0].upsilon
    return [aux for aux in schedule.ladder if aux.upsilon == best]


def two_type_schedule(reward_hat=0.0):
    announcements = {
        "cheap": CostVector(250.0, 20.0, 0.0, 0.0),
        "dear": CostVector(875.0, 70.0, 0.0, 0.0),
    }
    return build_schedule(announcements, demo_subregion(), demo_econ(), reward_hat)


class TestMarginalCost:
    def test_demo_grid_endpoints(self):
        assert marginal_cost(250.0, 20.0, 0.05) == pytest.approx(13.5)
        assert marginal_cost(875.0, 70.0, 0.05) == pytest.approx(47.25)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            marginal_cost(0.0, 20.0, 0.05)
        with pytest.raises(ValueError):
            AuxiliaryType(rank=1, uav_id="x", upsilon=0.0, costs=CostVector(1.0, 1.0, 0.0, 0.0))


class TestSortLadder:
    def test_demo_grid_order(self):
        ladder = sort_ladder(grid_announcements(), phi=0.05)
        assert [aux.rank for aux in ladder] == [1, 2, 3, 4, 5, 6]
        assert [aux.upsilon for aux in ladder] == pytest.approx(
            [13.5, 20.25, 27.0, 33.75, 40.5, 47.25]
        )
        assert [aux.uav_id for aux in ladder] == [f"u{k}" for k in range(1, 7)]

    def test_single_announcer(self):
        ladder = sort_ladder({"only": CostVector(100.0, 10.0, 0.0, 0.0)}, phi=0.05)
        assert len(ladder) == 1 and ladder[0].rank == 1

    def test_tie_broken_by_traversal_cost(self):
        # traversal cost decides before upload cost
        near = CostVector(100.0, 10.0, 5.0, 9.0)
        far = CostVector(100.0, 10.0, 50.0, 0.0)
        ladder = sort_ladder({"far": far, "near": near}, phi=0.05)
        assert [aux.uav_id for aux in ladder] == ["near", "far"]
        assert [aux.costs for aux in ladder] == [near, far]

    def test_full_tie_broken_by_mapping_order(self):
        same = CostVector(100.0, 10.0, 5.0, 1.0)
        ladder = sort_ladder({"b": same, "a": same}, phi=0.05)
        assert [aux.uav_id for aux in ladder] == ["b", "a"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sort_ladder({}, phi=0.05)


class TestOptimalCoverage:
    # the demo subregion holds a data volume of 10
    def test_cheap_type(self):
        (value,) = optimal_coverage((13.5,), 10.0, demo_econ())
        assert value == pytest.approx((100.0 / 13.5 - 1.0) / 10.0)
        assert value == pytest.approx(0.64074, abs=1e-5)

    def test_dear_type(self):
        (value,) = optimal_coverage((47.25,), 10.0, demo_econ())
        assert value == pytest.approx(0.11164, abs=1e-5)

    def test_clamping(self):
        assert optimal_coverage((13.5,), 10.0, demo_econ(sigma=10.0)) == [0.0]
        assert optimal_coverage((13.5,), 10.0, demo_econ(sigma=1e6)) == [1.0]


class TestIronSchedule:
    def test_monotone_input_unchanged(self):
        assert iron_schedule([1.0, 0.8, 0.5]) == [1.0, 0.8, 0.5]

    def test_simple_pool(self):
        assert iron_schedule([0.5, 0.8]) == pytest.approx([0.65, 0.65])

    def test_pool_then_check_backwards(self):
        assert iron_schedule([0.9, 0.2, 0.7]) == pytest.approx([0.9, 0.45, 0.45])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_output_monotone_sum_preserved_idempotent(self, values):
        ironed = iron_schedule(values)
        assert all(b <= a + 1e-12 for a, b in zip(ironed, ironed[1:]))
        assert sum(ironed) == pytest.approx(sum(values))
        assert iron_schedule(ironed) == pytest.approx(ironed)


class TestRewardSchedule:
    def test_two_type_recursion(self):
        schedule = two_type_schedule()
        rewards = [item.coverage_reward for item in schedule.items]
        assert rewards[1] == pytest.approx(5.2750, abs=1e-4)
        assert rewards[0] == pytest.approx(12.4178, abs=1e-4)

    def test_backward_recursion_against_hand_loop(self):
        schedule, _, _ = random_schedule(np.random.default_rng(7))
        ups = [aux.upsilon for aux in schedule.ladder]
        thetas = [item.theta for item in schedule.items]
        expected = [0.0] * len(ups)
        expected[-1] = ups[-1] * thetas[-1]
        for i in range(len(ups) - 2, -1, -1):
            expected[i] = expected[i + 1] + ups[i] * (thetas[i] - thetas[i + 1])
        assert [item.coverage_reward for item in schedule.items] == pytest.approx(expected)

    def test_single_type_break_even(self):
        only = {"only": CostVector(250.0, 20.0, 0.0, 0.0)}
        (aux,) = sort_ladder(only, phi=0.05)
        items = reward_schedule([aux.upsilon], [0.4], reward_hat=0.0)
        assert items[0].coverage_reward == pytest.approx(13.5 * 0.4)
        assert menu_utility(
            build_schedule(only, demo_subregion(), demo_econ()),
            1,
            1,
        ) == pytest.approx(0.0, abs=1e-12)

    def test_equal_coverages_equal_rewards(self):
        upsilons = [aux.upsilon for aux in sort_ladder(grid_announcements(), phi=0.05)]
        items = reward_schedule(upsilons, [0.3] * 6, reward_hat=1.0)
        rewards = {item.coverage_reward for item in items}
        assert len(rewards) == 1

    def test_non_monotone_rejected(self):
        upsilons = [aux.upsilon for aux in sort_ladder(grid_announcements(), phi=0.05)[:2]]
        with pytest.raises(ValueError):
            reward_schedule(upsilons, [0.2, 0.5], reward_hat=0.0)


class TestBuildSchedule:
    def test_demo_grid_strictly_monotone(self, demo_grid_schedule):
        thetas = [item.theta for item in demo_grid_schedule.items]
        rewards = [item.coverage_reward for item in demo_grid_schedule.items]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
        assert all(a > b for a, b in zip(rewards, rewards[1:]))

    def test_audit_attached_and_clean(self, demo_grid_schedule):
        audit = demo_grid_schedule.audit
        assert audit.ir_ok and audit.ic_ok and audit.monotone_ok
        assert audit.worst_ic_violation <= 1e-9
        assert audit.binding_ir_rank == 6

    def test_random_schedules_always_audit_clean(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            schedule, _, _ = random_schedule(rng)
            audit = schedule.audit
            assert audit.ir_ok and audit.ic_ok and audit.monotone_ok

    def test_preclamp_coverage_decreasing_makes_ironing_noop(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            schedule, sub, econ = random_schedule(rng)
            upsilons = [aux.upsilon for aux in schedule.ladder]
            raw = optimal_coverage(upsilons, sub.data_volume, econ)
            assert iron_schedule(raw) == raw

    @settings(max_examples=300, deadline=None)
    @given(
        upsilons=st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=12),
        ties=st.lists(st.sampled_from(["none", "exact", "ulp"]), min_size=12, max_size=12),
        sigma=st.floats(1e-3, 1e7),
        mu=st.floats(1e-6, 1e3),
        volume=st.floats(1e-3, 1e9),
        n_subregions=st.integers(1, 50),
    )
    def test_closed_form_coverages_are_non_increasing_bit_for_bit(
        self, upsilons, ties, sigma, mu, volume, n_subregions
    ):
        # Correctly rounded division and subtraction are monotone and the
        # clamp keeps order, so an ascending ladder, ties and 1-ulp steps
        # included, gets non-increasing coverages that need no pooling.
        ladder_upsilons = sorted(upsilons)
        for i, tie in enumerate(ties[1 : len(ladder_upsilons)], start=1):
            if tie == "exact":
                ladder_upsilons[i] = ladder_upsilons[i - 1]
            elif tie == "ulp":
                ladder_upsilons[i] = math.nextafter(ladder_upsilons[i - 1], math.inf)
        ladder_upsilons.sort()  # a 1-ulp step can pass a later duplicate
        econ = EconomyParams(phi=0.05, mu=mu, sigma=sigma, n_subregions=n_subregions)
        raw = optimal_coverage(ladder_upsilons, volume, econ)
        assert all(a >= b for a, b in zip(raw, raw[1:]))
        assert iron_schedule(raw) == raw


class TestAuditSchedule:
    def test_two_type_worked_values(self):
        schedule = two_type_schedule()
        assert menu_utility(schedule, 1, 1) == pytest.approx(3.767857142857, abs=1e-9)
        assert menu_utility(schedule, 1, 2) == pytest.approx(3.767857142857, abs=1e-9)
        assert menu_utility(schedule, 2, 1) == pytest.approx(-17.857142857142858)
        assert menu_utility(schedule, 2, 2) == pytest.approx(0.0, abs=1e-12)
        audit = schedule.audit
        assert audit.ir_ok and audit.ic_ok and audit.monotone_ok
        assert audit.worst_ic_violation <= 1e-9
        assert audit.binding_ir_rank == 2

    def test_underpaying_top_rank_breaks_selection(self):
        schedule = two_type_schedule()
        rewards = list(schedule.coverage_rewards())
        rewards[0] -= 1.0
        tampered = schedule.with_coverage_rewards(rewards)
        assert not tampered.audit.ic_ok
        assert tampered.audit.worst_ic_violation == pytest.approx(1.0)

    def test_worst_type_never_gains_by_imitating(self, demo_grid_schedule):
        for k in range(1, 6):
            assert menu_utility(demo_grid_schedule, 6, k) < 0

    def test_reward_coverage_comonotone(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            schedule, _, _ = random_schedule(rng)
            thetas = [item.theta for item in schedule.items]
            rewards = [item.coverage_reward for item in schedule.items]
            for i in range(len(thetas)):
                for k in range(len(thetas)):
                    assert (thetas[i] < thetas[k]) == (rewards[i] < rewards[k])

    def test_items_with_different_fixed_rewards_are_refused(self):
        # the audit leaves the fixed reward out as common to every item;
        # here rank 1 would get 3.77 from its own item and 53.77 from the other
        schedule = two_type_schedule()
        items = (schedule.items[0], schedule.items[1]._replace(fixed_reward=50.0))
        with pytest.raises(ValueError, match="items must share one fixed reward"):
            ContractSchedule(schedule.subregion_id, schedule.ladder, items, schedule.audit)

    def test_fixed_reward_invariance(self):
        base = two_type_schedule(reward_hat=0.0)
        for rhat in (1.0, 1000.0):
            shifted = two_type_schedule(reward_hat=rhat)
            assert shifted.audit.ic_ok == base.audit.ic_ok
            assert shifted.audit.worst_ic_violation == pytest.approx(
                base.audit.worst_ic_violation, abs=1e-12
            )


class TestSelectWinner:
    def test_demo_grid_winner(self, demo_grid_schedule):
        winners = select_winner(demo_grid_schedule)
        assert len(winners) == 1
        assert winners[0].uav_id == "u1" and winners[0].upsilon == pytest.approx(13.5)

    def test_tied_winners_surfaced(self):
        announcements = {
            "a": CostVector(250.0, 20.0, 1.0, 0.0),
            "b": CostVector(250.0, 20.0, 2.0, 0.0),
            "c": CostVector(500.0, 40.0, 0.0, 0.0),
        }
        schedule = build_schedule(announcements, demo_subregion(), demo_econ())
        winners = select_winner(schedule)
        assert [w.uav_id for w in winners] == ["a", "b"]
