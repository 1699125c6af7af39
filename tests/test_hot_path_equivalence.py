"""The fast market paths against plain reference computations.

``contract._audit`` checks self-selection with one array broadcast;
``Market.utility`` prices a pair from the item's parts; ``rank_of`` is a
dict lookup. Each must agree exactly (``==``, not approximately) with
the straightforward computation it replaces, so that fixture outputs
and every audit flag stay bit-identical.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import demo_subregion
from uavmarket.contract import (
    AUDIT_TOLERANCE,
    Announcement,
    AuditReport,
    AuxiliaryType,
    _audit,
    build_schedule,
)
from uavmarket.core import CostVector
from uavmarket.economics import ContractItem, EconomyParams, uav_utility
from uavmarket.matching import CalibrationPolicy, Market

PHI = 0.05


def reference_audit(ladder, items, tolerance):
    """Pairwise misreport scan in plain Python, one (type, item) pair at a time."""
    n = len(ladder)
    own = [items[i].coverage_reward - ladder[i].upsilon * items[i].theta for i in range(n)]
    ir_ok = all(u >= -tolerance for u in own)
    worst = 0.0 if n <= 1 else -float("inf")
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            cross = items[k].coverage_reward - ladder[i].upsilon * items[k].theta
            worst = max(worst, cross - own[i])
    thetas = [item.theta for item in items]
    rewards = [item.coverage_reward for item in items]
    monotone_ok = all(b <= a + tolerance for a, b in zip(thetas, thetas[1:])) and all(
        b <= a + tolerance for a, b in zip(rewards, rewards[1:])
    )
    return AuditReport(
        ir_ok=ir_ok,
        ic_ok=worst <= tolerance,
        monotone_ok=monotone_ok,
        worst_ic_violation=worst,
        binding_ir_rank=min(range(1, n + 1), key=lambda r: own[r - 1]) if n else 0,
    )


def assert_same_report(fast, slow):
    # field by field, so a failure names the field
    for name in ("ir_ok", "ic_ok", "monotone_ok", "worst_ic_violation", "binding_ir_rank"):
        assert getattr(fast, name) == getattr(slow, name), name
    assert type(fast.worst_ic_violation) is float


costs_st = st.floats(1.0, 2000.0, allow_nan=False)


@st.composite
def built_menus(draw):
    """A menu from ``build_schedule`` over 1..40 random declared types."""
    n = draw(st.integers(1, 40))
    announcements = [
        Announcement(
            uav_id=f"u{i}",
            alpha=draw(costs_st),
            beta=draw(costs_st),
            psi=draw(st.floats(0.0, 500.0)),
            zeta=draw(st.floats(0.0, 500.0)),
        )
        for i in range(n)
    ]
    econ = EconomyParams(
        phi=PHI,
        mu=draw(st.floats(0.1, 5.0)),
        sigma=draw(st.floats(1.0, 20000.0)),
        n_subregions=draw(st.integers(1, 4)),
    )
    sub = demo_subregion(data_volume=draw(st.floats(1.0, 50.0)))
    reward_hat = draw(st.floats(0.0, 50.0))
    return build_schedule(announcements, sub, econ, reward_hat)


def calibrated(rewards, mode, delta, steps):
    """Reward vector after ``steps`` calibration steps, along the market's float path."""
    rewards = list(rewards)
    for _ in range(steps):
        if mode == "relative":
            rewards = [r * (1.0 - delta) for r in rewards]
        else:
            rewards = [max(0.0, r - delta) for r in rewards]
    return rewards


@st.composite
def reward_vectors(draw, schedule):
    """The built rewards, a tampered copy, or a calibrated copy."""
    rewards = list(schedule.coverage_rewards())
    kind = draw(st.sampled_from(["built", "tampered", "relative", "absolute"]))
    if kind == "tampered":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(rewards) - 1))
            rewards[i] = draw(st.floats(0.0, 2.0 * max(rewards) + 1.0))
    elif kind == "relative":
        rewards = calibrated(rewards, kind, draw(st.floats(0.001, 0.5)), draw(st.integers(1, 60)))
    elif kind == "absolute":
        rewards = calibrated(rewards, kind, draw(st.floats(0.001, 5.0)), draw(st.integers(1, 60)))
    return rewards


tolerances = st.sampled_from([0.0, AUDIT_TOLERANCE, 1e-3])


class TestVectorisedAudit:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), tolerance=tolerances)
    def test_matches_reference_on_built_tampered_and_calibrated_menus(self, data, tolerance):
        schedule = data.draw(built_menus())
        rewards = data.draw(reward_vectors(schedule))
        items = [item.with_coverage_reward(r) for item, r in zip(schedule.items, rewards)]
        assert_same_report(
            _audit(schedule.ladder, items, tolerance),
            reference_audit(schedule.ladder, items, tolerance),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.floats(0.01, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 100.0)),
            min_size=1,
            max_size=40,
        ),
        tolerance=tolerances,
    )
    def test_matches_reference_on_arbitrary_ladders(self, rows, tolerance):
        # no ordering at all: exercises the monotone_ok and ir_ok failures too
        ladder = [
            AuxiliaryType(rank=i + 1, uav_id=f"u{i}", alpha=1.0, beta=1.0, upsilon=ups)
            for i, (ups, _, _) in enumerate(rows)
        ]
        items = [ContractItem(theta=theta, coverage_reward=r) for _, theta, r in rows]
        assert_same_report(
            _audit(ladder, items, tolerance), reference_audit(ladder, items, tolerance)
        )

    def test_reaudit_after_reward_change_matches_reference(self):
        announcements = [Announcement(f"u{i}", 100.0 + 40.0 * i, 20.0) for i in range(12)]
        econ = EconomyParams(phi=PHI, mu=1.0, sigma=400.0, n_subregions=1)
        schedule = build_schedule(announcements, demo_subregion(), econ, 5.0)
        rewards = list(schedule.coverage_rewards())
        rewards[3] += 0.5  # makes rank 4's item attractive to its neighbours
        redone = schedule.with_coverage_rewards(rewards)
        assert not redone.audit.ic_ok
        assert_same_report(
            redone.audit, reference_audit(redone.ladder, redone.items, AUDIT_TOLERANCE)
        )


class TestRankLookup:
    @given(schedule=built_menus())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_ladder_scan(self, schedule):
        for aux in schedule.ladder:
            assert schedule.rank_of(aux.uav_id) == aux.rank
        assert schedule.rank_of("absent") is None
        assert schedule.item_for("absent") is None


@st.composite
def markets(draw):
    """A market of 1..4 subregions over up to 12 declared UAVs, some screened out."""
    n_subs = draw(st.integers(1, 4))
    n_uavs = draw(st.integers(1, 12))
    econ = EconomyParams(
        phi=PHI, mu=1.0, sigma=draw(st.floats(50.0, 5000.0)), n_subregions=n_subs
    )
    schedules, costs = {}, {f"u{j}": {} for j in range(n_uavs)}
    for s in range(n_subs):
        sub = demo_subregion(sub_id=f"s{s}", data_volume=draw(st.floats(1.0, 20.0)))
        announcements = []
        for j in range(n_uavs):
            if not draw(st.booleans()) and j:
                continue  # u0 always announces, so no menu is empty
            vector = CostVector.declared(
                alpha=draw(costs_st),
                beta=draw(costs_st),
                psi=draw(st.floats(0.0, 500.0)),
                zeta=draw(st.floats(0.0, 500.0)),
            )
            costs[f"u{j}"][sub.id] = vector
            announcements.append(
                Announcement(f"u{j}", vector.alpha, vector.beta, vector.psi, vector.zeta)
            )
        schedules[sub.id] = build_schedule(
            announcements, sub, econ, draw(st.floats(0.0, 40.0))
        )
    return Market(schedules, costs, econ)


def assert_utilities_match_items(market):
    for uav_id, by_sub in market.costs.items():
        for sub_id in market.subregion_ids():
            if sub_id not in by_sub:
                assert market.item_for(uav_id, sub_id) is None
                with pytest.raises(KeyError):
                    market.utility(uav_id, sub_id)
                continue
            item = market.item_for(uav_id, sub_id)
            expected = uav_utility(item, by_sub[sub_id], market.econ)
            assert market.utility(uav_id, sub_id) == expected


class TestMarketUtility:
    @settings(max_examples=60, deadline=None)
    @given(
        market=markets(),
        steps=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["relative", "absolute"]),
                st.floats(0.001, 0.9),
            ),
            max_size=8,
        ),
    )
    def test_equals_uav_utility_of_the_live_item(self, market, steps):
        assert_utilities_match_items(market)
        sub_ids = market.subregion_ids()
        for index, mode, delta in steps:
            policy = CalibrationPolicy(delta_mode=mode, delta_value=delta)
            market.reduce_rewards(sub_ids[index % len(sub_ids)], policy)
            assert_utilities_match_items(market)
