"""Deferred-acceptance engine, calibration, and stability audit tests."""

import time

import numpy as np
import pytest

from conftest import demo_econ, demo_subregion, random_matching_instance
from uavmarket.contract import build_schedule
from uavmarket.core import CostVector, Position, Subregion
from uavmarket.economics import EconomyParams
from uavmarket.errors import UnresolvedTieError
from uavmarket.matching import (
    CalibrationPolicy,
    Market,
    PreferenceList,
    build_subregion_preferences,
    build_uav_preferences,
    gs_match,
    rewards_calibration,
    stability_audit,
)

BASELINE_UAV_PREFS = {
    "u1": ("s6", "s1", "s5", "s2", "s3", "s4"),
    "u2": ("s6", "s1", "s5", "s3", "s2", "s4"),
    "u3": ("s3", "s4", "s5", "s1", "s2", "s6"),
    "u4": ("s2", "s5", "s6", "s1", "s3", "s4"),
    "u5": ("s2", "s5", "s3", "s4", "s1", "s6"),
    "u6": ("s1", "s5", "s3", "s6", "s4", "s2"),
}
EXPECTED_BASELINE_MATCH = {
    "u1": "s6", "u2": "s1", "u3": "s3", "u4": "s2", "u5": "s5", "u6": "s4"
}
UPSILONS = (13.5, 20.25, 27.0, 33.75, 40.5, 47.25)


def baseline_preferences():
    sub_prefs = {
        f"s{i}": PreferenceList(
            f"s{i}", tuple(f"u{j}" for j in range(1, 7)), UPSILONS
        )
        for i in range(1, 7)
    }
    uav_prefs = {
        uav: PreferenceList(uav, ranked, tuple(30.0 - 5.0 * k for k in range(6)))
        for uav, ranked in BASELINE_UAV_PREFS.items()
    }
    return sub_prefs, uav_prefs


def tie_market(
    psi_by_uav_sub, alpha=250.0, beta=20.0, reward_hat=0.0, sigma=100.0, zeta_by_uav_sub=None
):
    """A small market of declared types; equal (alpha, beta) everywhere, zeta 0 by default."""
    zeta_by_uav_sub = zeta_by_uav_sub or {}
    uav_ids = sorted({u for u, _ in psi_by_uav_sub})
    sub_ids = sorted({s for _, s in psi_by_uav_sub})
    econ = EconomyParams(phi=0.05, mu=1.0, sigma=sigma, n_subregions=len(sub_ids))
    subs = {
        s: Subregion(id=s, center=Position(0, 0, 0), full_distance=1000.0,
                     data_volume=10.0, rate_factor=1.0)
        for s in sub_ids
    }
    schedules = {}
    for s in sub_ids:
        announcements = {
            u: CostVector(alpha, beta, psi_by_uav_sub[(u, s)], zeta_by_uav_sub.get((u, s), 0.0))
            for u in uav_ids
            if (u, s) in psi_by_uav_sub
        }
        schedules[s] = build_schedule(announcements, subs[s], econ, reward_hat)
    return Market(schedules, econ)


class TestPreferenceBuilders:
    def test_subregion_preferences_ascend_with_tiebreak(self):
        announcements = {
            "slow": CostVector(500.0, 40.0, 0.0, 0.0),
            "far": CostVector(250.0, 20.0, 50.0, 0.0),
            "near": CostVector(250.0, 20.0, 5.0, 0.0),
        }
        schedule = build_schedule(announcements, demo_subregion(), demo_econ())
        pref = build_subregion_preferences(schedule)
        assert pref.owner == "s1"
        assert pref.ranked == ("near", "far", "slow")
        assert pref.scores == pytest.approx((13.5, 13.5, 27.0))

    def test_uav_preferences_rank_by_payoff_and_drop_negative(self):
        psi = {("a", "s1"): 10.0, ("a", "s2"): 40.0, ("b", "s1"): 10.0, ("b", "s2"): 10.0}
        market = tie_market(psi, reward_hat=3.0)
        pref = build_uav_preferences(market, ["a"])["a"]
        assert pref.ranked == ("s1", "s2")
        assert pref.scores[0] > pref.scores[1] >= 0.0
        # a's traversal cost at s2 high enough to go negative
        market = tie_market({**psi, ("a", "s2"): 500.0}, reward_hat=3.0)
        prefs = build_uav_preferences(market, ["b", "a"])
        assert list(prefs) == ["b", "a"]  # the order asked for
        assert prefs["a"].ranked == ("s1",)
        assert prefs["b"].ranked == ("s1", "s2")

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            PreferenceList("s1", ("a", "a"), (1.0, 2.0))


class TestGsMatch:
    def test_baseline_fixture_assignment(self):
        sub_prefs, uav_prefs = baseline_preferences()
        state = gs_match(sub_prefs, uav_prefs)
        assert state.assignment == EXPECTED_BASELINE_MATCH
        assert set(state.assignment.values()) == set(sub_prefs)
        assert stability_audit(state, sub_prefs, uav_prefs) == []

    def test_single_pair(self):
        sub_prefs = {"s1": PreferenceList("s1", ("u1",), (10.0,))}
        uav_prefs = {"u1": PreferenceList("u1", ("s1",), (5.0,))}
        state = gs_match(sub_prefs, uav_prefs)
        assert state.assignment == {"u1": "s1"}

    def test_opposed_two_by_two_gives_proposer_optimum(self):
        sub_prefs = {
            "s1": PreferenceList("s1", ("a", "b"), (1.0, 2.0)),
            "s2": PreferenceList("s2", ("b", "a"), (1.0, 2.0)),
        }
        uav_prefs = {
            "a": PreferenceList("a", ("s2", "s1"), (9.0, 4.0)),
            "b": PreferenceList("b", ("s1", "s2"), (9.0, 4.0)),
        }
        state = gs_match(sub_prefs, uav_prefs)
        assert state.assignment == {"a": "s1", "b": "s2"}

    def test_displacement_returns_subregion_to_pool(self):
        # s2 reaches u1 first, then s1 displaces it; s2 settles for u2
        sub_prefs = {
            "s1": PreferenceList("s1", ("u1",), (1.0,)),
            "s2": PreferenceList("s2", ("u1", "u2"), (2.0, 3.0)),
        }
        uav_prefs = {
            "u1": PreferenceList("u1", ("s1", "s2"), (8.0, 5.0)),
            "u2": PreferenceList("u2", ("s2",), (2.0,)),
        }
        state = gs_match(sub_prefs, uav_prefs)
        assert state.assignment == {"u1": "s1", "u2": "s2"}

    def test_unmatched_outcomes_are_results(self):
        sub_prefs = {
            "s1": PreferenceList("s1", ("u1", "u2"), (1.0, 2.0)),
            "s2": PreferenceList("s2", ("u1",), (1.0,)),
        }
        uav_prefs = {
            "u1": PreferenceList("u1", ("s1",), (3.0,)),  # s2 unacceptable
            "u2": PreferenceList("u2", (), ()),           # signs nothing
        }
        state = gs_match(sub_prefs, uav_prefs)
        assert state.assignment == {"u1": "s1"}
        assert "s2" not in state.assignment.values()

    def test_one_to_one_and_stable_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            sub_prefs, uav_prefs = random_matching_instance(rng)
            state = gs_match(sub_prefs, uav_prefs)
            subs = list(state.assignment.values())
            assert len(subs) == len(set(subs))
            assert stability_audit(state, sub_prefs, uav_prefs) == []


def no_outside(uav):
    return 0.0


class TestRewardsCalibration:
    def test_single_candidate_untouched(self):
        market = tie_market({("a", "s1"): 10.0})
        before = market.rewards["s1"]
        survivor = rewards_calibration("s1", ["a"], market, CalibrationPolicy(), no_outside)
        assert survivor == "a"
        assert market.rewards["s1"] == before
        assert market.calibration_log == []

    def test_better_outside_option_leaves_first(self):
        # both start ahead of their alternatives; "a" is squeezed out as
        # the rewards fall because its alternative is nearly as good
        market = tie_market(
            {("a", "s1"): 2.0, ("b", "s1"): 4.0, ("a", "s2"): 5.0, ("b", "s2"): 400.0},
            reward_hat=2.0,
        )
        before = market.rewards["s1"]
        outside = {
            "a": market.utility("a", "s2"),
            "b": market.utility("b", "s2"),
        }
        assert market.utility("a", "s1") > outside["a"]  # nobody pre-dominated
        survivor = rewards_calibration(
            "s1", ["a", "b"], market, CalibrationPolicy(), outside.__getitem__
        )
        assert survivor == "b"
        after = market.rewards["s1"]
        assert all(x < y for x, y in zip(after, before))
        assert len(market.calibration_log) == 1
        event = market.calibration_log[0]
        assert event.subregion_id == "s1" and event.before == before and event.after == after

    def test_floor_tiebreak_by_input_order_in_absolute_mode(self):
        # identical candidates, no alternatives, pay kept positive by the
        # fixed reward, so the vector walks all the way down to zero
        market = tie_market(
            {("a", "s1"): 10.0, ("b", "s1"): 10.0}, reward_hat=50.0
        )
        policy = CalibrationPolicy(delta_mode="absolute", delta_value=1.0, max_rounds=500)
        survivor = rewards_calibration("s1", ["b", "a"], market, policy, no_outside)
        assert survivor == "b"  # identical costs: first offered wins
        assert all(r == 0.0 for r in market.rewards["s1"])

    def test_relative_mode_unresolvable_tie_raises(self):
        market = tie_market(
            {("a", "s1"): 10.0, ("b", "s1"): 10.0}, reward_hat=50.0
        )
        policy = CalibrationPolicy(delta_mode="relative", delta_value=0.01, max_rounds=40)
        with pytest.raises(UnresolvedTieError, match="s1"):
            rewards_calibration("s1", ["a", "b"], market, policy, no_outside)

    @pytest.mark.parametrize(
        "mode,delta", [("relative", 1e-17), ("absolute", 1e-300)], ids=["relative", "absolute"]
    )
    def test_a_step_that_changes_no_reward_raises_at_once(self, mode, delta):
        # 1 - 1e-17 == 1.0 and r - 1e-300 == r: every step would repeat the last
        market = tie_market({("a", "s1"): 10.0, ("b", "s1"): 10.0}, reward_hat=50.0)
        before = market.rewards["s1"]
        policy = CalibrationPolicy(delta_mode=mode, delta_value=delta, max_rounds=10**7)
        started = time.perf_counter()
        with pytest.raises(UnresolvedTieError, match="after 0 calibration rounds"):
            rewards_calibration("s1", ["a", "b"], market, policy, no_outside)
        assert time.perf_counter() - started < 5.0
        assert market.rewards["s1"] is before
        assert market.calibration_log == []

    def test_other_subregions_untouched(self):
        market = tie_market(
            {("a", "s1"): 10.0, ("b", "s1"): 12.0, ("a", "s2"): 5.0, ("b", "s2"): 400.0},
            reward_hat=2.0,
        )
        before_s2 = market.rewards["s2"]
        rewards_calibration(
            "s1", ["a", "b"], market, CalibrationPolicy(),
            {"a": market.utility("a", "s2"), "b": market.utility("b", "s2")}.__getitem__,
        )
        assert market.rewards["s2"] == before_s2

    def test_gs_match_calibrates_head_ties(self):
        # same layout as above, driven through the full engine
        market = tie_market(
            {("a", "s1"): 10.0, ("b", "s1"): 12.0, ("a", "s2"): 5.0, ("b", "s2"): 400.0},
            reward_hat=2.0,
        )
        sub_prefs = {s: build_subregion_preferences(market.schedules[s]) for s in ("s1", "s2")}
        uav_prefs = build_uav_preferences(market, ("a", "b"))
        state = gs_match(sub_prefs, uav_prefs, CalibrationPolicy(), market)
        assert state.assignment == {"a": "s2", "b": "s1"}
        assert {e.subregion_id for e in state.calibration_log} <= {"s1", "s2"}
        final_prefs = build_uav_preferences(market, ("a", "b"))
        assert stability_audit(state, sub_prefs, final_prefs) == []

    @pytest.mark.parametrize(
        "psi,zeta",
        [
            ({("a", "s1"): 20.0, ("b", "s1"): 10.0}, {}),
            ({("a", "s1"): 10.0, ("b", "s1"): 10.0}, {("a", "s1"): 6.0, ("b", "s1"): 3.0}),
        ],
        ids=["lower-psi", "equal-psi-lower-zeta"],
    )
    def test_gs_match_breaks_a_tie_at_the_floor_in_ladder_order(self, psi, zeta):
        # equal alpha and beta tie exactly on upsilon; the fixed reward keeps
        # both payoffs positive, so the rewards walk to zero with the tie
        # intact. "b", announced second, is cheaper to fly or to upload from,
        # so the ladder lists it first and it wins.
        market = tie_market(psi, reward_hat=50.0, zeta_by_uav_sub=zeta)
        sub_prefs = {"s1": build_subregion_preferences(market.schedules["s1"])}
        assert sub_prefs["s1"].ranked == ("b", "a")
        assert sub_prefs["s1"].scores[0] == sub_prefs["s1"].scores[1]
        uav_prefs = build_uav_preferences(market, ("a", "b"))
        policy = CalibrationPolicy(delta_mode="absolute", delta_value=1.0, max_rounds=500)
        state = gs_match(sub_prefs, uav_prefs, policy, market)
        assert state.assignment == {"b": "s1"}
        assert all(r == 0.0 for r in market.rewards["s1"])
        assert [e.subregion_id for e in state.calibration_log] == ["s1"]


class TestMarket:
    def test_final_schedules_bake_in_reductions(self):
        market = tie_market({("a", "s1"): 10.0, ("b", "s1"): 12.0})
        policy = CalibrationPolicy(delta_mode="absolute", delta_value=0.5)
        market.rewards["s1"] = policy.step(market.rewards["s1"])
        final = market.final_schedules()["s1"]
        assert final.coverage_rewards == market.rewards["s1"]
        assert final.audit is not None
        assert market.schedules["s1"].coverage_rewards != final.coverage_rewards

    def test_absolute_reduction_floors_at_zero(self):
        market = tie_market({("a", "s1"): 10.0})
        policy = CalibrationPolicy(delta_mode="absolute", delta_value=1e9)
        assert policy.step(market.rewards["s1"]) == (0.0,)


class TestStabilityAudit:
    def test_swapping_partners_creates_block(self):
        sub_prefs, uav_prefs = baseline_preferences()
        state = gs_match(sub_prefs, uav_prefs)
        state.assignment["u1"], state.assignment["u2"] = (
            state.assignment["u2"],
            state.assignment["u1"],
        )
        pairs = stability_audit(state, sub_prefs, uav_prefs)
        assert ("u1", "s6") in pairs

    def test_everyone_unmatched_blocks_everywhere(self):
        sub_prefs = {
            "s1": PreferenceList("s1", ("a", "b"), (1.0, 2.0)),
            "s2": PreferenceList("s2", ("a",), (1.0,)),
        }
        uav_prefs = {
            "a": PreferenceList("a", ("s1", "s2"), (5.0, 4.0)),
            "b": PreferenceList("b", ("s1",), (3.0,)),
        }
        from uavmarket.matching import MatchState

        state = MatchState(assignment={})
        pairs = set(stability_audit(state, sub_prefs, uav_prefs))
        assert pairs == {("a", "s1"), ("b", "s1"), ("a", "s2")}
