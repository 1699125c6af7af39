"""The fast market paths against plain reference computations.

``contract._audit`` checks self-selection with one array broadcast;
``Market.utility`` prices a pair from the item's parts; every UAV's list
is built in one walk over the menus' rungs, and a calibration step is
``CalibrationPolicy.step`` on one reward column; ``rank_of`` is a dict
lookup; the screen and the cost derivation read the training rounds
and the propulsion power computed once per task and per UAV, from one
per-pair body, ``core._pair_terms``, which the screen runs on numpy
columns to check one UAV against every subregion at once; the loader
resolves each declared UAV's cost vectors and each subregion's fixed
reward once; deferred acceptance prices a tied candidate's outside
option only down to the first published score it cannot beat; the grid
oracle scans one revenue curve per menu; ``ic_matrix.csv`` is written
one block of rows per menu; the closed-form coverage is priced once per
menu, ironing returns monotone coverages without pooling, the ladder
prices each pair inline and falls back to ``marginal_cost`` only for its
message, and the audit takes the columns the menu build holds. A menu is
one record of aligned columns, which must equal, published and paid, the
per-rung records the build made before, and its audit is read off those
columns, however the menu was made. Each must agree exactly (``==``, not approximately) with the straightforward
computation it replaces, so that fixture outputs and every audit flag
stay bit-identical.
"""

import csv
import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uavmarket.contract as contract_module
from conftest import coverage_payoff, demo_subregion, load_benchmark
from uavmarket.contract import (
    AUDIT_TOLERANCE,
    AuditReport,
    ContractSchedule,
    _audit,
    build_schedule,
    iron_schedule,
    marginal_cost,
    optimal_coverage,
    sort_ladder,
)
from uavmarket.core import (
    DEFAULT_THETA_HAT,
    CostVector,
    FeasibilityReport,
    FlHyperParams,
    Position,
    Subregion,
    SubregionColumns,
    TrainingRounds,
    UavProfile,
    _pair_terms,
    _require,
    check_feasibility,
    derive_cost_vector,
)
from uavmarket.economics import ContractItem, EconomyParams
from uavmarket.errors import UnresolvedTieError
from uavmarket.matching import (
    CalibrationEvent,
    CalibrationPolicy,
    Market,
    MatchState,
    PreferenceList,
    _leading_tie,
    build_subregion_preferences,
    build_uav_preferences,
    gs_match,
    stability_audit,
)
from uavmarket.pipeline import prepare, run_contract, run_match, run_sweep
from uavmarket.scenario import fixture_path, load_scenario, scenario_from_dict
from uavmarket.verification import grid_oracle_coverage, ic_matrix

PHI = 0.05


def reference_audit(upsilons, thetas, rewards, tolerance):
    """Pairwise misreport scan in plain Python, one (type, item) pair at a time."""
    n = len(upsilons)
    own = [rewards[i] - upsilons[i] * thetas[i] for i in range(n)]
    ir_ok = all(u >= -tolerance for u in own)
    worst = 0.0 if n <= 1 else -float("inf")
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            cross = rewards[k] - upsilons[i] * thetas[k]
            worst = max(worst, cross - own[i])
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


def uav_utility(item, costs, econ):
    """Full payoff of a UAV that signs ``item``: reward minus the whole energy bill."""
    return (
        item.coverage_reward
        - econ.phi * (costs.alpha + costs.beta) * item.theta
        + item.fixed_reward
        - econ.phi * (costs.psi + costs.zeta)
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
    announcements = {
        f"u{i}": CostVector(
            alpha=draw(costs_st),
            beta=draw(costs_st),
            psi=draw(st.floats(0.0, 500.0)),
            zeta=draw(st.floats(0.0, 500.0)),
        )
        for i in range(n)
    }
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
    rewards = list(schedule.coverage_rewards)
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
        columns = schedule.upsilons, schedule.thetas, data.draw(reward_vectors(schedule))
        assert_same_report(_audit(*columns, tolerance), reference_audit(*columns, tolerance))

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
        columns = [list(column) for column in zip(*rows)]
        assert_same_report(_audit(*columns, tolerance), reference_audit(*columns, tolerance))

    def test_reaudit_after_reward_change_matches_reference(self):
        announcements = {f"u{i}": CostVector(100.0 + 40.0 * i, 20.0, 0.0, 0.0) for i in range(12)}
        econ = EconomyParams(phi=PHI, mu=1.0, sigma=400.0, n_subregions=1)
        schedule = build_schedule(announcements, demo_subregion(), econ, 5.0)
        rewards = list(schedule.coverage_rewards)
        rewards[3] += 0.5  # makes rank 4's item attractive to its neighbours
        redone = schedule.with_coverage_rewards(rewards)
        assert not redone.audit.ic_ok
        assert redone.coverage_rewards == tuple(rewards)
        columns = redone.upsilons, redone.thetas, redone.coverage_rewards
        assert_same_report(redone.audit, reference_audit(*columns, AUDIT_TOLERANCE))


class TestRankLookup:
    @given(schedule=built_menus())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_ladder_scan(self, schedule):
        for rank, uav_id in enumerate(schedule.ladder, start=1):
            assert schedule.rank_of(uav_id) == rank
        assert schedule.rank_of("absent") is None
        assert schedule.item_for("absent") is None

    def test_a_repeated_id_keeps_its_cheapest_rank(self):
        announcements = {f"u{i}": CostVector(100.0 + 40.0 * i, 20.0, 0.0, 0.0) for i in range(3)}
        econ = EconomyParams(phi=PHI, mu=1.0, sigma=400.0, n_subregions=1)
        schedule = build_schedule(announcements, demo_subregion(), econ)
        repeated = dataclasses.replace(schedule, ladder=("a", "b", "a"))
        assert repeated.rank_of("a") == 1
        assert repeated.item_for("a") == schedule.item_for("u0")


@st.composite
def markets(draw):
    """A market of 1..4 subregions over up to 12 declared UAVs, some screened out.

    Returns the market and what was announced, subregion -> uav -> costs.
    """
    n_subs = draw(st.integers(1, 4))
    n_uavs = draw(st.integers(1, 12))
    econ = EconomyParams(
        phi=PHI, mu=1.0, sigma=draw(st.floats(50.0, 5000.0)), n_subregions=n_subs
    )
    schedules, announced = {}, {}
    for s in range(n_subs):
        sub = demo_subregion(sub_id=f"s{s}", data_volume=draw(st.floats(1.0, 20.0)))
        announcements = announced[sub.id] = {}
        for j in range(n_uavs):
            if not draw(st.booleans()) and j:
                continue  # u0 always announces, so no menu is empty
            announcements[f"u{j}"] = CostVector(
                alpha=draw(costs_st),
                beta=draw(costs_st),
                psi=draw(st.floats(0.0, 500.0)),
                zeta=draw(st.floats(0.0, 500.0)),
            )
        schedules[sub.id] = build_schedule(
            announcements, sub, econ, draw(st.floats(0.0, 40.0))
        )
    return Market(schedules, econ), announced


# ``build_uav_preferences`` and ``Market.reduce_rewards`` as they were
# before the market held one reward column per menu: one list per UAV,
# each menu probed with ``rank_of`` and each pair priced by
# ``Market.utility``, and a step that rewrote the live rewards in place.
# Kept verbatim apart from the names and from the step storing a tuple in
# ``market.rewards``.


def reference_uav_preferences(uav_id: str, market: Market) -> PreferenceList:
    entries = []
    for sub_id, schedule in market.schedules.items():
        if schedule.rank_of(uav_id) is None:
            continue
        u = market.utility(uav_id, sub_id)
        if u < 0.0:
            continue
        entries.append((sub_id, u))
    entries.sort(key=lambda e: -e[1])
    return PreferenceList(
        owner=uav_id,
        ranked=tuple(s for s, _ in entries),
        scores=tuple(u for _, u in entries),
    )


def reference_reduce_rewards(market: Market, sub_id: str, policy: CalibrationPolicy) -> None:
    vector = market.rewards[sub_id]
    if policy.delta_mode == "relative":
        market.rewards[sub_id] = tuple(r * (1.0 - policy.delta_value) for r in vector)
    else:
        delta = policy.delta_value
        # same value as max(0.0, r - delta), -0.0 and nan included
        market.rewards[sub_id] = tuple(r - delta if r - delta > 0.0 else 0.0 for r in vector)


def reference_lists(market: Market, uav_ids) -> dict[str, PreferenceList]:
    """Every UAV's list, built one UAV at a time."""
    return {u: reference_uav_preferences(u, market) for u in uav_ids}


def assert_utilities_match_items(market, announced):
    uav_ids = sorted({u for by_uav in announced.values() for u in by_uav}) + ["absent"]
    for uav_id in uav_ids:
        for sub_id, schedule in market.schedules.items():
            rank = schedule.rank_of(uav_id)
            if uav_id not in announced[sub_id]:
                assert rank is None
                with pytest.raises(KeyError):
                    market.utility(uav_id, sub_id)
                continue
            live_reward = market.rewards[sub_id][rank - 1]
            item = schedule.item_for(uav_id)._replace(coverage_reward=live_reward)
            expected = uav_utility(item, announced[sub_id][uav_id], market.econ)
            assert market.utility(uav_id, sub_id) == expected


class TestMarketUtility:
    @settings(max_examples=60, deadline=None)
    @given(
        built=markets(),
        steps=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["relative", "absolute"]),
                st.floats(0.001, 0.9),
            ),
            max_size=8,
        ),
    )
    def test_equals_uav_utility_of_the_live_item(self, built, steps):
        market, announced = built
        assert_utilities_match_items(market, announced)
        sub_ids = list(market.schedules)
        for index, mode, delta in steps:
            policy = CalibrationPolicy(delta_mode=mode, delta_value=delta)
            reference_reduce_rewards(market, sub_ids[index % len(sub_ids)], policy)
            assert_utilities_match_items(market, announced)


# The per-pair screen and cost derivation as they were before the task and
# UAV constants moved into construction: each call recomputes the training
# rounds and the propulsion power. Kept verbatim apart from the names and
# the phase records, which are plain tuples here, as the reference for the
# single-body ``core._pair_terms``.


def reference_propulsion_power(profile: UavProfile) -> float:
    if profile.power is not None:
        return profile.power
    c1, c2 = profile.power_coefficients
    p = c1 * profile.velocity**3 + c2 / profile.velocity
    if p <= 0:
        raise ValueError(f"uav {profile.id}: propulsion power must be > 0, got {p}")
    return p


def reference_traversal_phase(theta, sub, profile):
    _require(0.0 <= theta <= 1.0, f"theta must be in [0, 1], got {theta}")
    p = reference_propulsion_power(profile)
    base_leg = profile.base.distance_to(sub.center)
    duration = (theta * sub.full_distance + base_leg) / profile.velocity
    alpha = p * sub.full_distance / profile.velocity
    psi = p * base_leg / profile.velocity
    return (duration, alpha * theta + psi, alpha, psi)


def reference_fl_rounds(fl: FlHyperParams) -> TrainingRounds:
    L, gamma = fl.lipschitz, fl.strong_convexity
    denom = (2 - L * fl.delta) * fl.delta * gamma
    if denom <= 0:
        raise ValueError("(2 - lipschitz*delta) * delta * strong_convexity must be > 0")
    local_iterations = 2.0 / denom
    round_scale = 2.0 * L * L / (gamma * gamma * fl.xi)
    if fl.rounds_override is not None:
        rounds = fl.rounds_override
    else:
        rounds = math.ceil(round_scale / (1.0 - fl.local_accuracy))
    return TrainingRounds(local_iterations, round_scale, rounds)


def reference_computation_phase(theta, sub, profile, fl):
    _require(0.0 <= theta <= 1.0, f"theta must be in [0, 1], got {theta}")
    v_iter, _, rounds = reference_fl_rounds(fl)
    work = fl.local_accuracy
    cycles_full = profile.cycles_per_bit * sub.data_volume * v_iter * math.log2(1.0 / work)
    duration = rounds * cycles_full * theta / profile.cpu_frequency
    beta = profile.capacitance * rounds * cycles_full * profile.cpu_frequency**2
    return (duration, beta * theta, beta)


def reference_transmission_phase(sub, profile, fl):
    _, _, rounds = reference_fl_rounds(fl)
    duration = rounds * fl.update_size / (sub.rate_factor * profile.transmit_power)
    zeta = rounds * fl.update_size / sub.rate_factor
    return (duration, zeta)


def reference_derive_cost_vector(sub, profile, fl):
    _, _, alpha, psi = reference_traversal_phase(1.0, sub, profile)
    _, _, beta = reference_computation_phase(1.0, sub, profile, fl)
    _, zeta = reference_transmission_phase(sub, profile, fl)
    return CostVector(alpha=alpha, beta=beta, psi=psi, zeta=zeta)


@dataclass(frozen=True)
class ReferenceReport:
    time_ok: bool
    energy_ok: bool
    total_time: float
    total_energy: float


def reference_check_feasibility(sub, profile, fl, theta_hat=DEFAULT_THETA_HAT):
    if not 0.0 < theta_hat <= 1.0:
        raise ValueError(f"theta_hat must be in (0, 1], got {theta_hat}")
    trav_time, trav_energy, _, _ = reference_traversal_phase(theta_hat, sub, profile)
    comp_time, comp_energy, _ = reference_computation_phase(theta_hat, sub, profile, fl)
    tx_time, zeta = reference_transmission_phase(sub, profile, fl)
    total_time = trav_time + comp_time + tx_time
    total_energy = trav_energy + comp_energy + zeta
    return ReferenceReport(
        time_ok=total_time <= sub.deadline,
        energy_ok=total_energy <= profile.energy_capacity,
        total_time=total_time,
        total_energy=total_energy,
    )


def spread(lo, hi):
    """Positive floats over several orders of magnitude."""
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


coordinate_st = st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False)
# a height off the ground plane, so that the base leg is a 3-D ``math.dist``
height_st = coordinate_st.filter(lambda z: z != 0.0)
position_st = st.builds(Position, coordinate_st, coordinate_st, height_st)
# "at_total" puts the limit exactly on the reference screening total
limit_st = st.sampled_from(["inf", "finite", "at_total"])


@st.composite
def subregions(draw):
    return Subregion(
        id="s1",
        center=draw(position_st),
        full_distance=draw(spread(1e-2, 1e5)),
        data_volume=draw(spread(1e-2, 1e9)),
        rate_factor=draw(spread(1e-3, 1e6)),
        deadline=draw(st.just(math.inf) | spread(1e-2, 1e6)),
    )


@st.composite
def profiles(draw):
    if draw(st.booleans()):
        power = {"power": draw(spread(1e-2, 1e3))}
    else:
        c_drag, c_lift = draw(
            st.tuples(st.just(0.0) | spread(1e-6, 1.0), st.just(0.0) | spread(1e-3, 1e3)).filter(
                lambda c: c != (0.0, 0.0)
            )
        )
        power = {"power": None, "power_coefficients": (c_drag, c_lift)}
    return UavProfile(
        id="u1",
        base=draw(position_st),
        velocity=draw(spread(1e-1, 1e2)),
        cycles_per_bit=draw(spread(1e-1, 1e3)),
        cpu_frequency=draw(spread(1e6, 1e10)),
        capacitance=draw(spread(1e-30, 1e-24)),
        transmit_power=draw(spread(1e-2, 1e2)),
        energy_capacity=draw(st.just(math.inf) | spread(1e-2, 1e8)),
        **power,
    )


@st.composite
def training_tasks(draw):
    lipschitz = draw(spread(1e-1, 1e1))
    gamma = draw(spread(1e-1, 1e1))
    return FlHyperParams(
        lipschitz=lipschitz,
        strong_convexity=gamma,
        xi=draw(spread(1e-2, 1.0)) * gamma / lipschitz,
        delta=draw(spread(1e-2, 0.99)) * 2.0 / lipschitz,
        local_accuracy=draw(spread(1e-2, 0.99)),
        update_size=draw(spread(1e-2, 1e9)),
        rounds_override=draw(st.none() | st.integers(1, 500)),
    )


def assert_same_screen(subs, profile, fl, theta_hat):
    """The one-UAV screen against the reference applied pair by pair, field by field."""
    fast = check_feasibility(SubregionColumns.of(subs), profile, fl, theta_hat)
    slow = [reference_check_feasibility(sub, profile, fl, theta_hat) for sub in subs]
    assert type(fast) is FeasibilityReport
    for name in ("time_ok", "energy_ok", "total_time", "total_energy"):
        assert getattr(fast, name) == tuple(getattr(r, name) for r in slow), name
    assert fast.passes == tuple(r.time_ok and r.energy_ok for r in slow)
    assert fast.feasible == any(fast.passes)
    return slow


class TestPairScreen:
    @settings(max_examples=300, deadline=None)
    @given(
        subs=st.lists(st.tuples(subregions(), limit_st), min_size=1, max_size=6),
        profile=profiles(),
        fl=training_tasks(),
        theta_hat=st.floats(0.0, 1.0, exclude_min=True),
        theta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        capacity=limit_st,
        capacity_at=st.integers(0, 5),
    )
    def test_screen_costs_and_phases_equal_the_per_call_reference(
        self, subs, profile, fl, theta_hat, theta, capacity, capacity_at
    ):
        assert fl.training == reference_fl_rounds(fl)
        assert profile.cruise_power == reference_propulsion_power(profile)
        # each subregion draws its own deadline mode; the one battery can be
        # set exactly on the energy total of one of them
        limited = []
        for j, (sub, deadline) in enumerate(subs):
            sub = dataclasses.replace(sub, id=f"s{j}")
            slow = reference_check_feasibility(sub, profile, fl, theta_hat)
            if deadline == "at_total":
                sub = dataclasses.replace(sub, deadline=slow.total_time)
            elif deadline == "inf":
                sub = dataclasses.replace(sub, deadline=math.inf)
            limited.append((sub, deadline))
        at = limited[capacity_at % len(limited)][0]
        if capacity == "at_total":
            energy = reference_check_feasibility(at, profile, fl, theta_hat).total_energy
            profile = dataclasses.replace(profile, energy_capacity=energy)
        elif capacity == "inf":
            profile = dataclasses.replace(profile, energy_capacity=math.inf)
        subs = [sub for sub, _ in limited]
        slow = assert_same_screen(subs, profile, fl, theta_hat)
        for (sub, deadline), report in zip(limited, slow):
            if deadline == "at_total":
                assert report.time_ok  # the deadline gate is inclusive
            if capacity == "at_total" and sub is at:
                assert report.energy_ok

        for sub in subs:
            fast_costs = derive_cost_vector(sub, profile, fl)
            slow_costs = reference_derive_cost_vector(sub, profile, fl)
            for name in ("alpha", "beta", "psi", "zeta"):
                assert getattr(fast_costs, name) == getattr(slow_costs, name), name

            base_leg = profile.base.distance_to(sub.center)
            terms = _pair_terms(theta, sub, base_leg, profile, fl)
            assert terms[:4] == reference_traversal_phase(theta, sub, profile)
            assert terms[4:7] == reference_computation_phase(theta, sub, profile, fl)
            assert terms[7:] == reference_transmission_phase(sub, profile, fl)

    def test_limits_exactly_on_the_totals_pass_both_gates(self):
        sub = Subregion("s1", Position(0.0, 0.0, 25.0), 2000.0, 8e6, 1e5)
        far = Subregion("s2", Position(-7000.0, 2000.0, 60.0), 2000.0, 8e6, 1e5)
        profile = UavProfile(
            "u1", Position(3000.0, 4000.0, 120.0), 10.0, 10.0, 2e9, 1e-28, 8.0,
            power=None, power_coefficients=(0.01, 100.0),
        )
        fl = FlHyperParams(4.0, 2.0, 1.0 / 3.0, 0.25, 0.6, 8e6)
        totals = reference_check_feasibility(sub, profile, fl)
        sub = dataclasses.replace(sub, deadline=totals.total_time)
        far = dataclasses.replace(far, deadline=totals.total_time)
        profile = dataclasses.replace(profile, energy_capacity=totals.total_energy)
        report = check_feasibility(SubregionColumns.of([sub, far]), profile, fl)
        assert report.time_ok == (True, False) and report.energy_ok == (True, False)
        assert (report.total_time[0], report.total_energy[0]) == (
            totals.total_time, totals.total_energy
        )
        assert report.passes == (True, False) and report.feasible
        assert_same_screen([sub, far], profile, fl, DEFAULT_THETA_HAT)


# A declared UAV and the fixed-reward policy as they were before the
# loader resolved them: each run re-read the scalar-or-map fields per
# pair and the policy per subregion. ``costs_for`` and ``reward_hat_for``
# are kept verbatim.
@dataclass(frozen=True)
class ReferenceDirectUav:
    id: str
    alpha: float | Mapping[str, float]
    beta: float | Mapping[str, float]
    psi: float | Mapping[str, float] | None = None
    zeta: float | Mapping[str, float] = 0.0
    base: Position | None = None
    velocity: float | None = None
    power: float | None = None

    def costs_for(self, sub: Subregion) -> CostVector:
        """The cost vector this UAV announces to ``sub``."""

        def value(v: float | Mapping[str, float]) -> float:
            return float(v[sub.id]) if isinstance(v, Mapping) else float(v)

        if self.psi is not None:
            psi = value(self.psi)
        else:
            # derived traversal: fly the base-to-center leg at cruise power
            psi = self.power * self.base.distance_to(sub.center) / self.velocity
        return CostVector(value(self.alpha), value(self.beta), psi, value(self.zeta))


@dataclass(frozen=True)
class ReferenceRewardHatPolicy:
    mode: str = "fixed"
    value: float = 0.0
    values: Mapping[str, float] | None = None
    psi_ref: float = 0.0
    zeta_ref: float = 0.0

    def reward_hat_for(self, sub_id: str, phi: float) -> float:
        if self.mode == "reference":
            return phi * (self.psi_ref + self.zeta_ref)
        if self.values is not None:
            return float(self.values[sub_id])
        return self.value


coord_st = st.floats(-5000.0, 5000.0)


@st.composite
def scalar_or_map(draw, sub_ids, low, high):
    """A declared field: one number, or one number per subregion."""
    if draw(st.booleans()):
        return draw(st.floats(low, high))
    return {sid: draw(st.floats(low, high)) for sid in sub_ids}


@st.composite
def declared_documents(draw):
    """A scenario of declared UAVs with every field form and reward policy form."""
    sub_ids = [f"s{k + 1}" for k in range(draw(st.integers(1, 4)))]
    subregions = [
        {
            "id": sid,
            "center": [draw(coord_st), draw(coord_st), draw(st.floats(0.0, 100.0))],
            "full_distance": 1000.0,
            "data_volume": 10.0,
            "rate_factor": 1.0,
        }
        for sid in sub_ids
    ]
    uavs = []
    for i in range(draw(st.integers(1, 4))):
        uav = {
            "id": f"u{i + 1}",
            "mode": "direct",
            "alpha": draw(scalar_or_map(sub_ids, 1.0, 1000.0)),
            "beta": draw(scalar_or_map(sub_ids, 1.0, 100.0)),
        }
        if draw(st.booleans()):
            uav["zeta"] = draw(scalar_or_map(sub_ids, 0.0, 500.0))
        if draw(st.booleans()):
            uav["psi"] = draw(scalar_or_map(sub_ids, 0.0, 2000.0))
        else:
            uav["base"] = [draw(coord_st), draw(coord_st)]
            uav["velocity"] = draw(st.floats(0.5, 30.0))
            uav["power"] = draw(st.floats(0.5, 300.0))
        uavs.append(uav)
    rhat = st.floats(0.0, 1000.0)
    policy = draw(
        st.sampled_from(["absent", "fixed-empty", "value", "values", "reference", "reference-empty"])
    )
    doc = {
        "format_version": 1,
        "economy": {"phi": draw(st.floats(0.001, 2.0)), "mu": 1.0, "sigma": 100.0},
        "fl": {
            "lipschitz": 4.0,
            "strong_convexity": 2.0,
            "xi": 1.0 / 3.0,
            "delta": 0.25,
            "local_accuracy": 0.6,
            "update_size": 8e6,
        },
        "subregions": subregions,
        "uavs": uavs,
    }
    if policy == "fixed-empty":
        doc["reward_hat_policy"] = {"mode": "fixed"}
    elif policy == "value":
        doc["reward_hat_policy"] = {"mode": "fixed", "value": draw(rhat)}
    elif policy == "values":
        doc["reward_hat_policy"] = {"values": {sid: draw(rhat) for sid in sub_ids}}
    elif policy == "reference":
        doc["reward_hat_policy"] = {"mode": "reference", "psi_ref": draw(rhat), "zeta_ref": draw(rhat)}
    elif policy == "reference-empty":
        doc["reward_hat_policy"] = {"mode": "reference"}
    return doc


def reference_uav(entry: dict) -> ReferenceDirectUav:
    """The parent loader's record for a declared entry: floats, maps and a base position."""

    def field(v):
        return {sid: float(x) for sid, x in v.items()} if isinstance(v, dict) else float(v)

    base = entry.get("base")
    return ReferenceDirectUav(
        id=entry["id"],
        alpha=field(entry["alpha"]),
        beta=field(entry["beta"]),
        psi=field(entry["psi"]) if "psi" in entry else None,
        zeta=field(entry.get("zeta", 0.0)),
        base=Position(*base, 0.0) if base is not None else None,
        velocity=entry.get("velocity"),
        power=entry.get("power"),
    )


def reference_policy(raw: dict | None) -> ReferenceRewardHatPolicy:
    raw = raw or {}
    if raw.get("mode", "fixed") == "reference":
        return ReferenceRewardHatPolicy(
            mode="reference", psi_ref=raw.get("psi_ref", 0.0), zeta_ref=raw.get("zeta_ref", 0.0)
        )
    return ReferenceRewardHatPolicy(value=raw.get("value", 0.0), values=raw.get("values"))


class TestLoadTimeResolution:
    @settings(max_examples=200, deadline=None)
    @given(doc=declared_documents())
    def test_loader_equals_the_per_run_resolution(self, doc):
        scenario = scenario_from_dict(doc)
        for entry, uav in zip(doc["uavs"], scenario.uavs):
            reference = reference_uav(entry)
            assert list(uav.costs) == [sub.id for sub in scenario.subregions]
            for sub in scenario.subregions:
                assert uav.costs[sub.id] == reference.costs_for(sub), (uav.id, sub.id)
        policy = reference_policy(doc.get("reward_hat_policy"))
        phi = scenario.economy.phi
        assert scenario.reward_hats == {
            sub.id: policy.reward_hat_for(sub.id, phi) for sub in scenario.subregions
        }


# Deferred acceptance and the calibration tie rule as they were before the
# outside option stopped at the first published score it cannot beat, the
# still-open test became a set lookup and each round priced each
# candidate once. Kept verbatim apart from the names and from reading and
# stepping ``market.rewards`` through ``reference_reduce_rewards``, never
# through ``CalibrationPolicy.step``.


def reference_rewards_calibration(
    sub_id: str,
    tied: Sequence[str],
    market: Market,
    policy: CalibrationPolicy,
    outside_utility: Callable[[str], float],
) -> str:
    """Separate candidates tied at a subregion's lowest marginal cost.

    The subregion's reward vector is stepped downward; after every step
    each remaining candidate's payoff here is compared with its outside
    option (its best alternative, floored at the zero payoff of staying
    unmatched), and candidates whose outside option weakly dominates drop
    out. The survivor is proposed to and the reduced vector remains in
    force. If the vector hits zero with the tie intact, the tie breaks
    deterministically by lower traversal cost, then lower upload cost,
    then candidate order. Raises after ``policy.max_rounds`` steps.
    """
    candidates = list(tied)
    if len(candidates) == 1:
        return candidates[0]
    outside = {u: max(outside_utility(u), 0.0) for u in candidates}

    schedule = market.schedules[sub_id]
    costs = dict(zip(schedule.ladder, schedule.costs))
    order = {u: i for i, u in enumerate(candidates)}

    def margin(uav: str) -> float:
        return market.utility(uav, sub_id) - outside[uav]

    def fallback_key(uav: str):
        return (costs[uav].psi, costs[uav].zeta, order[uav])

    before = market.rewards[sub_id]
    rounds = 0
    survivor: str | None = None
    while survivor is None:
        alive = [u for u in candidates if margin(u) > 0.0]
        if len(alive) == 1:
            survivor = alive[0]
        elif not alive:
            # A step (or the initial offer) lost every candidate at once;
            # keep the one that held on longest.
            best = max(margin(u) for u in candidates)
            survivor = min(
                (u for u in candidates if margin(u) == best), key=fallback_key
            )
        else:
            candidates = alive
            if all(r == 0.0 for r in market.rewards[sub_id]):
                survivor = min(candidates, key=fallback_key)
                break
            if rounds >= policy.max_rounds:
                raise UnresolvedTieError(sub_id, rounds)
            reference_reduce_rewards(market, sub_id, policy)
            rounds += 1
    if market.rewards[sub_id] != before:
        market.calibration_log.append(CalibrationEvent(sub_id, before, market.rewards[sub_id]))
    return survivor



def reference_gs_match(
    sub_prefs: Mapping[str, PreferenceList],
    uav_prefs: Mapping[str, PreferenceList],
    policy: CalibrationPolicy | None = None,
    market: Market | None = None,
) -> MatchState:
    """Deferred acceptance with subregions proposing.

    Each round, every unmatched subregion proposes to the best candidate
    remaining on its list (calibrating first if the head of the list is
    tied); each proposed-to UAV keeps the best offer among its current
    hold and the new proposals and rejects the rest; rejected subregions
    strike that UAV and re-enter the pool. Runs until every subregion is
    matched or has exhausted its list. Without a ``market``, payoffs are
    frozen at the scores in ``uav_prefs`` and ties cannot be calibrated.
    """
    policy = policy or CalibrationPolicy()
    remaining = {sub: list(pref.ranked) for sub, pref in sub_prefs.items()}
    acceptable = {uav: set(pref.ranked) for uav, pref in uav_prefs.items()}
    uav_order = list(uav_prefs)

    def live_utility(uav: str, sub: str) -> float:
        if market is not None:
            return market.utility(uav, sub)
        return uav_prefs[uav].score_of(sub)

    def outside_for(uav: str, sub: str) -> float:
        best = 0.0
        pref = uav_prefs.get(uav)
        for alt in pref.ranked if pref is not None else ():
            if alt == sub or uav not in remaining.get(alt, ()):
                continue
            best = max(best, live_utility(uav, alt))
        return best

    state = MatchState()
    hold: dict[str, str] = {}  # uav -> subregion it currently holds
    pool = [s for s in sub_prefs]
    exhausted: set[str] = set()

    while pool:
        proposals: dict[str, list[str]] = {}
        for sub in pool:
            cands = remaining[sub]
            if not cands:
                exhausted.add(sub)
                continue
            tie = _leading_tie(sub_prefs[sub], cands)
            if len(tie) > 1:
                if market is None:
                    raise UnresolvedTieError(sub, 0)
                target = reference_rewards_calibration(
                    sub, tie, market, policy, lambda u, s=sub: outside_for(u, s)
                )
            else:
                target = tie[0]
            proposals.setdefault(target, []).append(sub)

        returned: list[str] = []
        resolve_order = [u for u in uav_order if u in proposals]
        resolve_order += sorted(u for u in proposals if u not in uav_prefs)
        for uav in resolve_order:
            ok = acceptable.get(uav, set())
            incumbent = hold.get(uav)
            best_sub = incumbent
            best_u = live_utility(uav, incumbent) if incumbent is not None else None
            rejected: list[str] = []
            for sub in proposals[uav]:
                if sub not in ok:
                    rejected.append(sub)
                    continue
                u = live_utility(uav, sub)
                if u < 0.0:
                    # an offer calibrated below break-even is declined
                    rejected.append(sub)
                    continue
                if best_u is None or u > best_u:
                    if best_sub is not None:
                        rejected.append(best_sub)
                    best_sub, best_u = sub, u
                else:
                    rejected.append(sub)
            for sub in rejected:
                remaining[sub].remove(uav)
                returned.append(sub)
            if best_sub is not None:
                hold[uav] = best_sub

        held = set(hold.values())
        next_pool = [s for s in pool if s not in held and s not in exhausted]
        for sub in returned:
            if sub not in next_pool and sub not in held:
                next_pool.append(sub)
        pool = next_pool

    state.assignment = dict(sorted(hold.items()))
    if market is not None:
        state.calibration_log = list(market.calibration_log)
    return state


@st.composite
def tie_markets(draw):
    """A market of 1..4 subregions over 2..10 declared UAVs, heavy in ties.

    Every cost is drawn from a few values, so many UAVs tie on marginal
    cost somewhere; each UAV may also be an exact twin of the one before.
    ``alpha`` and ``psi`` vary by subregion, so neither side shares one
    order. Some pairs do not announce.
    """
    n_subs = draw(st.integers(1, 4))
    n_uavs = draw(st.integers(2, 10))
    econ = EconomyParams(
        phi=PHI, mu=1.0, sigma=draw(st.sampled_from([60.0, 150.0, 400.0])), n_subregions=n_subs
    )
    subs = [
        demo_subregion(sub_id=f"s{s}", data_volume=draw(st.sampled_from([5.0, 10.0])))
        for s in range(n_subs)
    ]
    announced: dict[str, dict[str, CostVector]] = {sub.id: {} for sub in subs}
    previous = None
    for j in range(n_uavs):
        if previous is not None and draw(st.booleans()):
            costs = previous  # an exact twin of the UAV before
        else:
            costs = {
                sub.id: CostVector(
                    alpha=draw(st.sampled_from([250.0, 375.0, 500.0])),
                    beta=20.0,
                    psi=draw(st.sampled_from([0.0, 100.0, 200.0, 400.0])),
                    zeta=draw(st.sampled_from([0.0, 50.0])),
                )
                for sub in subs
                if draw(st.integers(0, 4))  # about one pair in five stays silent
            }
        for sub_id, c in costs.items():
            announced[sub_id][f"u{j}"] = c
        previous = costs
    reward_hat = draw(st.sampled_from([0.0, 5.0, 20.0]))
    schedules = {
        sub.id: build_schedule(announced[sub.id], sub, econ, reward_hat)
        for sub in subs
        if announced[sub.id]
    }
    uav_ids = [f"u{j}" for j in range(n_uavs)]
    if draw(st.booleans()):
        policy = CalibrationPolicy("relative", draw(st.sampled_from([0.01, 0.05, 0.2])), 300)
    else:
        policy = CalibrationPolicy("absolute", draw(st.sampled_from([0.05, 0.5, 3.0])), 300)
    return schedules, econ, uav_ids, policy


def run_tie_market(match, lists, schedules, econ, uav_ids, policy):
    """One market pass as ``run_match`` makes it, with ``match`` as the engine.

    ``lists(market, uav_ids)`` builds the UAVs' lists, published and final.
    """
    market = Market(schedules, econ)
    sub_prefs = {s: build_subregion_preferences(schedule) for s, schedule in schedules.items()}
    published = lists(market, uav_ids)
    try:
        state = match(sub_prefs, published, policy, market)
    except UnresolvedTieError as exc:
        return market, published, ("unresolved", str(exc))
    final = lists(market, uav_ids)
    return market, published, (
        state.assignment,
        [(e.subregion_id, e.before, e.after) for e in state.calibration_log],
        stability_audit(state, sub_prefs, final),
        dict(market.rewards),
    )


class TestDeferredAcceptance:
    @settings(max_examples=300, deadline=None)
    @given(instance=tie_markets())
    def test_matches_the_full_outside_scan_on_tie_heavy_markets(self, instance):
        market, published, outcome = run_tie_market(gs_match, build_uav_preferences, *instance)
        _, _, expected = run_tie_market(reference_gs_match, reference_lists, *instance)
        assert outcome == expected
        # the pruning's premise: no live payoff exceeds its published score
        for uav, pref in published.items():
            for sub in pref.ranked:
                assert market.utility(uav, sub) <= pref.score_of(sub), (uav, sub)

    def test_a_tie_market_job_prices_each_pair_a_bounded_number_of_times(self, monkeypatch):
        # 3655 Market.utility calls when every tied candidate's outside
        # option priced its whole list; 1827 once the scan stops early;
        # 1027 once the UAVs' lists are priced in one walk over the rungs
        calls = 0
        utility = Market.utility

        def counted(self, uav_id, sub_id):
            nonlocal calls
            calls += 1
            return utility(self, uav_id, sub_id)

        monkeypatch.setattr(Market, "utility", counted)
        corpus = Path(__file__).resolve().parent / "corpus"
        report = run_match(load_scenario(corpus / "ties-abs-0.scn"))
        assert report.match.calibration_log
        assert calls <= 1100


@st.composite
def priced_markets(draw):
    """A fresh market, its UAV ids in a drawn order plus one that announced nowhere, and its step.

    The market is a benchmark family's at 1..12 per side or a tie-heavy one;
    either comes with a relative or an absolute step. Its menus come in a
    drawn order, so that declaration order and id order differ.
    """
    if draw(st.booleans()):
        scenario = draw(generated_markets())
        schedules, econ = prepare(scenario).published, scenario.economy
        uav_ids, policy = [uav.id for uav in scenario.uavs], scenario.calibration
    else:
        schedules, econ, uav_ids, policy = draw(tie_markets())
    schedules = dict(draw(st.permutations(list(schedules.items()))))
    uav_ids = draw(st.permutations(uav_ids + ["absent"]))
    return Market(schedules, econ), uav_ids, policy


def as_plain(prefs: dict[str, PreferenceList]) -> list:
    return [(uav, pref.owner, pref.ranked, pref.scores) for uav, pref in prefs.items()]


special_rewards = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.049]),
    st.floats(),
)


class TestOneWalkPreferences:
    @settings(max_examples=150, deadline=None)
    @given(priced=priced_markets(), steps=st.lists(st.integers(0, 11), max_size=6))
    def test_equals_the_per_uav_build_before_and_after_calibration_steps(self, priced, steps):
        market, uav_ids, policy = priced
        assert as_plain(build_uav_preferences(market, uav_ids)) == as_plain(
            reference_lists(market, uav_ids)
        )
        sub_ids = list(market.schedules)
        for index in steps if sub_ids else ():
            sub_id = sub_ids[index % len(sub_ids)]
            market.rewards[sub_id] = policy.step(market.rewards[sub_id])
            assert as_plain(build_uav_preferences(market, uav_ids)) == as_plain(
                reference_lists(market, uav_ids)
            )

    @settings(max_examples=300, deadline=None)
    @given(
        rewards=st.lists(special_rewards, max_size=8),
        policy=st.one_of(
            st.builds(
                CalibrationPolicy,
                st.just("relative"),
                st.one_of(st.sampled_from([1e-17, 0.01, 0.5, 1.0]), st.floats(1e-300, 1.0)),
            ),
            st.builds(
                CalibrationPolicy,
                st.just("absolute"),
                st.one_of(st.sampled_from([1e-300, 5e-324, 0.05, 3.0]), st.floats(5e-324, 1e6)),
            ),
        ),
    )
    def test_the_step_rule_equals_the_market_step_it_replaced_bit_for_bit(self, rewards, policy):
        market = SimpleNamespace(rewards={"s1": tuple(rewards)})
        reference_reduce_rewards(market, "s1", policy)
        assert repr(policy.step(rewards)) == repr(market.rewards["s1"])

    def test_the_lists_are_built_without_a_utility_or_rank_lookup(self, monkeypatch):
        gen = load_benchmark("gen")
        markets = []
        for scenario in (
            load_scenario(fixture_path("table3.scn")),
            scenario_from_dict(gen.physical(30, 30, 0)),
        ):
            market = Market(prepare(scenario).published, scenario.economy)
            markets.append((market, [uav.id for uav in scenario.uavs]))
        calls = []
        monkeypatch.setattr(Market, "utility", lambda *args: calls.append(args))
        monkeypatch.setattr(ContractSchedule, "rank_of", lambda *args: calls.append(args))
        for market, uav_ids in markets:
            prefs = build_uav_preferences(market, uav_ids)
            assert list(prefs) == uav_ids and any(pref.ranked for pref in prefs.values())
        assert calls == []


def counted_audits(monkeypatch) -> list:
    """Wrap ``contract._audit`` so that each call appends to the list returned."""
    calls = []
    audit = contract_module._audit

    def counted(*args):
        calls.append(args)
        return audit(*args)

    monkeypatch.setattr(contract_module, "_audit", counted)
    return calls


class TestAuditOnlyWhenRead:
    def test_a_match_audits_no_menu(self, monkeypatch):
        calls = counted_audits(monkeypatch)
        report = run_match(load_scenario(fixture_path("table3.scn")))
        assert report.match.calibration_log  # paid menus differ from the published ones
        gen = load_benchmark("gen")
        run_match(scenario_from_dict(gen.direct(40, 40, 0)))
        assert calls == []

    def test_a_sweep_audits_no_menu(self, monkeypatch):
        calls = counted_audits(monkeypatch)
        doc = json.loads(fixture_path("table3.scn").read_text(encoding="utf-8"))
        rows = run_sweep(doc, "uavs.0.base.0", [100.0, 1100.0])
        assert rows and calls == []

    def test_each_menu_is_audited_once_however_often_it_is_read(self, monkeypatch):
        calls = counted_audits(monkeypatch)
        report = run_contract(load_scenario(fixture_path("fig6.scn")))
        assert calls == []
        for _ in range(2):
            audits = [schedule.audit for schedule in report.schedules.values()]
        assert len(calls) == len(report.schedules) == 6
        assert all(audit.ic_ok for audit in audits)


@st.composite
def coverage_menus(draw):
    """The upsilon column of a 1..40 rung ladder, its subregion and economy, and a grid size."""
    upsilons = sorted(draw(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=40)))
    econ = EconomyParams(
        phi=PHI,
        mu=draw(st.floats(1e-3, 1e3)),
        sigma=draw(st.floats(1e-3, 1e6)),
        n_subregions=draw(st.integers(1, 8)),
    )
    sub = demo_subregion(data_volume=draw(st.floats(1e-2, 1e4)))
    grid_points = draw(st.sampled_from([3, 4, 101, 10001]))
    return upsilons, sub, econ, grid_points


class TestMenuGridOracle:
    @settings(max_examples=200, deadline=None)
    @given(menu=coverage_menus())
    def test_equals_one_payoff_scan_per_rung(self, menu):
        upsilons, sub, econ, grid_points = menu
        thetas = np.linspace(0.0, 1.0, grid_points)
        expected = []
        for upsilon in upsilons:
            payoff = coverage_payoff(thetas, upsilon, sub.data_volume, econ)
            expected.append(float(thetas[int(np.argmax(payoff))]))
        assert grid_oracle_coverage(upsilons, sub.data_volume, econ, grid_points) == expected


def reference_cell(value):
    """One CSV cell: floats at 12 significant digits, anything else as ``str``."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def reference_write_ic_matrix_csv(path, report):
    """``ic_matrix.csv`` one ``csv.writer`` row per matrix entry, every cell formatted alone."""
    rows = []
    for sub in report.scenario.subregions:
        schedule = report.schedules.get(sub.id)
        if schedule is None:
            continue
        matrix = ic_matrix(schedule)
        for i in range(len(schedule.ladder)):
            for k in range(len(schedule.ladder)):
                rows.append((sub.id, i + 1, k + 1, float(matrix[i, k])))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("subregion", "i", "k", "utility"))
        for row in rows:
            writer.writerow([reference_cell(v) for v in row])


FIXTURES = ("demo_grid.scn", "fig6.scn", "fig7.scn", "fig8.scn", "physical.scn", "table3.scn")
# subregion ids the csv module must quote, or that only look as if it might,
# and the start of their first ic_matrix.csv row
ODD_IDS = {
    's,1 "q"': '"s,1 ""q""",1,1,',
    "  s1  ": "  s1  ,1,1,",
    "Ωμ-区域": "Ωμ-区域,1,1,",
    "s\n1": '"s\n1",1,1,',
    "s%d1": "s%d1,1,1,",
}


def fig6_with_s1_renamed(sub_id: str):
    text = fixture_path("fig6.scn").read_text(encoding="utf-8")
    return scenario_from_dict(json.loads(text.replace('"s1"', json.dumps(sub_id))))


class TestIcMatrixCsv:
    def assert_same_bytes(self, scenario, tmp_path):
        report = run_contract(scenario, tmp_path / "fast")
        reference_write_ic_matrix_csv(tmp_path / "reference.csv", report)
        produced = (tmp_path / "fast" / "ic_matrix.csv").read_bytes()
        assert produced == (tmp_path / "reference.csv").read_bytes()
        return produced.decode("utf-8")

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_bytes_equal_the_row_by_row_writer(self, name, tmp_path):
        self.assert_same_bytes(load_scenario(fixture_path(name)), tmp_path)

    @pytest.mark.parametrize("sub_id", sorted(ODD_IDS))
    def test_odd_subregion_ids_are_quoted_as_the_row_by_row_writer_quotes_them(
        self, sub_id, tmp_path
    ):
        text = self.assert_same_bytes(fig6_with_s1_renamed(sub_id), tmp_path)
        assert f"\n{ODD_IDS[sub_id]}" in text


def reference_optimal_coverage(upsilon, sub, econ):
    """One rung's closed-form coverage, priced one call per rung."""
    raw = (econ.sigma / (econ.n_subregions * upsilon) - 1.0) / (econ.mu * sub.data_volume)
    return min(1.0, max(0.0, raw))


def reference_iron_schedule(coverages):
    """Pooling of adjacent violators, with no shortcut for monotone input."""
    blocks = []  # (sum, count), earliest first
    for value in coverages:
        total, count = float(value), 1
        while blocks and blocks[-1][0] * count < total * blocks[-1][1]:
            prev_total, prev_count = blocks.pop()
            total += prev_total
            count += prev_count
        blocks.append((total, count))
    out = []
    for total, count in blocks:
        out.extend([total / count] * count)
    return out


def reference_marginal_cost(alpha, beta, phi):
    if alpha <= 0 or beta <= 0 or phi <= 0:
        raise ValueError("alpha, beta, and phi must be > 0")
    upsilon = phi * (alpha + beta)
    if not 0 < upsilon < math.inf:
        raise ValueError(f"marginal cost phi * (alpha + beta) must be finite and > 0, got {upsilon}")
    return upsilon


def reference_sort_ladder(announcements, phi):
    """``(rank, uav id, upsilon, costs)`` per rung, every pair priced by ``reference_marginal_cost``."""
    if not announcements:
        raise ValueError("at least one announcement is required")
    keyed = sorted(
        (reference_marginal_cost(c.alpha, c.beta, phi), c.psi, c.zeta, i, uav_id, c)
        for i, (uav_id, c) in enumerate(announcements.items())
    )
    return [
        (rank, uav_id, upsilon, c)
        for rank, (upsilon, _, _, _, uav_id, c) in enumerate(keyed, start=1)
    ]


def bits(values):
    """Each float's repr, so that 0.0 and -0.0 differ."""
    return [repr(v) for v in values]


def outcome(function, *args):
    """``function(*args)``, or the message of the ``ValueError`` it raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def coverage_ladders(draw):
    """1..60 rungs whose closed forms fall below 0, inside [0, 1] and above 1.

    Each rung is drawn as its ratio ``sigma / (N * upsilon)``: below 1 it
    clamps to 0, above ``1 + mu * D`` to 1. The data scale ``mu * D`` runs
    from 1e-300 to 1e300.
    """
    n_subregions = draw(st.integers(1, 50))
    sigma = draw(st.floats(1e-3, 1e6))
    mu = draw(st.floats(1e-3, 1e3))
    scale = draw(st.sampled_from([1e-300, 1e-12, 1.0, 1e12, 1e300]) | st.floats(1e-300, 1e300))
    ratios = draw(st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 1e3]) | st.floats(1e-3, 1e3), min_size=1, max_size=60
    ))
    upsilons = sorted(sigma / (n_subregions * ratio) for ratio in ratios)
    econ = EconomyParams(phi=PHI, mu=mu, sigma=sigma, n_subregions=n_subregions)
    return upsilons, demo_subregion(data_volume=scale / mu), econ


@st.composite
def priced_announcements(draw):
    """Announcements in which some pairs cannot be priced, and a phi that may be bad too."""
    kinds = draw(st.lists(
        st.sampled_from(["good", "good", "alpha 0", "beta 0", "overflow", "tiny"]),
        min_size=1,
        max_size=8,
    ))
    announcements = {}
    for i, kind in enumerate(kinds):
        alpha, beta = {
            "good": (draw(st.floats(1.0, 1000.0)), draw(st.sampled_from([10.0, 20.0]))),
            "alpha 0": (0.0, 10.0),
            "beta 0": (10.0, 0.0),
            "overflow": (1.5e308, 1.5e308),  # alpha + beta is inf
            "tiny": (1e-10, 1e-10),  # phi * (alpha + beta) underflows to 0 at phi 5e-324
        }[kind]
        psi, zeta = draw(st.sampled_from([0.0, 1.0])), draw(st.sampled_from([0.0, 1.0]))
        announcements[f"u{i}"] = CostVector(alpha, beta, psi, zeta)
    phi = draw(st.sampled_from([0.05, 0.0, -1.0, math.nan, 5e-324]) | st.floats(1e-3, 10.0))
    return announcements, phi


class TestMenuBuildPieces:
    @settings(max_examples=300, deadline=None)
    @given(menu=coverage_ladders())
    def test_ladder_coverage_equals_the_per_rung_formula(self, menu):
        upsilons, sub, econ = menu
        fast = optimal_coverage(upsilons, sub.data_volume, econ)
        slow = [reference_optimal_coverage(u, sub, econ) for u in upsilons]
        assert fast == slow
        assert bits(fast) == bits(slow)

    def test_ladder_coverage_clamps_at_both_ends_at_every_scale(self):
        econ = EconomyParams(phi=PHI, mu=1.0, sigma=120.0, n_subregions=2)
        # ratios 0.5, 1, 1.5, 3 and 1e9 at sigma / N = 60
        upsilons = [6e-8, 20.0, 40.0, 60.0, 120.0]
        for scale in (1e-300, 1e-12, 1.0, 1e12, 1e300):
            sub = demo_subregion(data_volume=scale)
            fast = optimal_coverage(upsilons, scale, econ)
            assert bits(fast) == bits([reference_optimal_coverage(u, sub, econ) for u in upsilons])
            assert fast[-1] == 0.0 and fast[-2] == 0.0  # ratio 0.5 and exactly 1
            if scale <= 1.0:
                assert fast[0] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1]) | st.floats(0.0, 1.0), max_size=30
        ),
        monotone=st.booleans(),
    )
    def test_iron_schedule_equals_pooling(self, values, monotone):
        if monotone:
            # stable, so equal neighbours keep their order: 0.0 before -0.0 or after it
            values = sorted(values, reverse=True)
        assert bits(iron_schedule(values)) == bits(reference_iron_schedule(values))

    @settings(max_examples=300, deadline=None)
    @given(market=priced_announcements())
    def test_sort_ladder_raises_for_the_first_bad_pair_in_announcement_order(self, market):
        announcements, phi = market
        fast = outcome(sort_ladder, announcements, phi)
        slow = outcome(reference_sort_ladder, announcements, phi)
        if isinstance(slow, str):
            assert fast == slow
        else:
            ids, upsilons, costs = fast
            assert list(zip(range(1, len(ids) + 1), ids, upsilons, costs)) == slow


# The menu build as it was when each rung was an ``AuxiliaryType`` and each
# item a ``ContractItem``, kept verbatim apart from the names: the
# reference that the column record must equal. ``Rung`` and
# ``RungMenu`` stand in for the records, without their checks.


class Rung(NamedTuple):
    rank: int
    uav_id: str
    upsilon: float
    costs: CostVector


class RungMenu(NamedTuple):
    subregion_id: str
    ladder: tuple
    items: tuple
    audit: AuditReport


def rung_sort_ladder(announcements, phi):
    if not announcements:
        raise ValueError("at least one announcement is required")
    keyed = []
    for i, (uav_id, c) in enumerate(announcements.items()):
        upsilon = phi * (c.alpha + c.beta)
        if not (c.alpha > 0 and c.beta > 0 and 0 < upsilon < math.inf):
            upsilon = marginal_cost(c.alpha, c.beta, phi)  # raises with the reason
        # the position i is unique, so the ids and vectors are never compared
        keyed.append((upsilon, c.psi, c.zeta, i, uav_id, c))
    keyed.sort()
    return [
        Rung(rank, uav_id, upsilon, c)
        for rank, (upsilon, _, _, _, uav_id, c) in enumerate(keyed, start=1)
    ]


def rung_reward_schedule(upsilons, coverages, reward_hat):
    if len(upsilons) != len(coverages):
        raise ValueError("upsilons and coverages must have equal length")
    if any(b > a + 1e-12 for a, b in zip(coverages, coverages[1:])):
        raise ValueError("coverages must be non-increasing; run iron_schedule first")
    n = len(upsilons)
    rewards = [0.0] * n
    rewards[-1] = upsilons[-1] * coverages[-1]
    for i in range(n - 2, -1, -1):
        rewards[i] = rewards[i + 1] + upsilons[i] * (coverages[i] - coverages[i + 1])
    return [ContractItem(theta, r, reward_hat) for theta, r in zip(coverages, rewards)]


def rung_build_schedule(announcements, sub, econ, reward_hat=0.0):
    ladder = tuple(rung_sort_ladder(announcements, econ.phi))
    upsilons = [aux.upsilon for aux in ladder]
    coverages = iron_schedule(optimal_coverage(upsilons, sub.data_volume, econ))
    items = tuple(rung_reward_schedule(upsilons, coverages, reward_hat))
    rewards = [item.coverage_reward for item in items]
    audit = _audit(upsilons, coverages, rewards, AUDIT_TOLERANCE)
    return RungMenu(sub.id, ladder, items, audit)


def rung_with_coverage_rewards(schedule, rewards):
    """``ContractSchedule.with_coverage_rewards`` as it was, on the per-rung record."""
    if len(rewards) != len(schedule.items):
        raise ValueError("reward vector length mismatch")
    items = tuple(
        ContractItem(item.theta, r, item.fixed_reward) for item, r in zip(schedule.items, rewards)
    )
    thetas = [item.theta for item in items]
    audit = _audit([aux.upsilon for aux in schedule.ladder], thetas, rewards, AUDIT_TOLERANCE)
    return RungMenu(schedule.subregion_id, schedule.ladder, items, audit)


def assert_columns_are_the_records(menu: ContractSchedule, records: RungMenu):
    assert menu.subregion_id == records.subregion_id
    assert menu.ladder == tuple(aux.uav_id for aux in records.ladder)
    assert menu.upsilons == tuple(aux.upsilon for aux in records.ladder)
    assert menu.costs == tuple(aux.costs for aux in records.ladder)
    assert menu.thetas == tuple(item.theta for item in records.items)
    assert menu.coverage_rewards == tuple(item.coverage_reward for item in records.items)
    assert {item.fixed_reward for item in records.items} == {menu.fixed_reward}
    assert menu.audit == records.audit
    for aux, item in zip(records.ladder, records.items):
        assert menu.rank_of(aux.uav_id) == aux.rank
        assert type(menu.item_for(aux.uav_id)) is ContractItem
        assert menu.item_for(aux.uav_id) == item
    assert menu.item_for("absent") is None


def announced_to(report, j: int, sub: Subregion) -> dict[str, CostVector]:
    """What each UAV announced to ``sub``, the ``j``-th subregion, in announcement order."""
    scenario = report.scenario
    announced = {}
    for uav in scenario.uavs:
        if not isinstance(uav, UavProfile):
            announced[uav.id] = uav.costs[sub.id]
        elif report.feasibility[uav.id].passes[j]:
            announced[uav.id] = derive_cost_vector(sub, uav, scenario.fl)
    return announced


@st.composite
def generated_markets(draw):
    """A benchmark family's document at 1..12 per side, calibrated in either step mode."""
    gen = load_benchmark("gen")
    family = draw(st.sampled_from(sorted(gen.FAMILIES)))
    doc = gen.FAMILIES[family](draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(
        st.integers(0, 10**6)
    ))
    if draw(st.booleans()):
        doc["calibration"] = {"delta_mode": "relative", "delta_value": draw(
            st.sampled_from([0.01, 0.2])
        )}
    else:
        doc["calibration"] = {"delta_mode": "absolute", "delta_value": draw(
            st.sampled_from([0.1, 2.0])
        )}
    return scenario_from_dict(doc)


class TestColumnsAreTheRecords:
    @settings(max_examples=60, deadline=None)
    @given(scenario=generated_markets(), data=st.data())
    def test_published_and_paid_menus_equal_the_per_rung_build(self, scenario, data):
        try:
            report = run_match(scenario)
            log = report.match.calibration_log
        except UnresolvedTieError:
            report, log = prepare(scenario), []  # the published menus still compare
        for j, sub in enumerate(scenario.subregions):
            menu = report.published.get(sub.id)
            announced = announced_to(report, j, sub)
            assert (menu is None) == (not announced)
            if menu is None:
                continue
            reward_hat = scenario.reward_hats[sub.id]
            records = rung_build_schedule(announced, sub, scenario.economy, reward_hat)
            assert_columns_are_the_records(menu, records)
            # the menu as paid: the last calibrated vector, re-audited
            events = [event for event in log if event.subregion_id == sub.id]
            if events:
                records = rung_with_coverage_rewards(records, events[-1].after)
            paid = report.schedules[sub.id]
            assert_columns_are_the_records(paid, records)
            # the published menu's audit is already cached here, and the
            # tampered copy still audits its own rewards: none is stale
            rewards = list(menu.coverage_rewards)
            rank = data.draw(st.integers(0, len(rewards) - 1))
            rewards[rank] = data.draw(st.floats(0.0, 2.0 * max(rewards) + 1.0))
            tampered = dataclasses.replace(menu, coverage_rewards=rewards)
            for schedule in (menu, paid, tampered):
                columns = schedule.upsilons, schedule.thetas, schedule.coverage_rewards
                assert_same_report(schedule.audit, reference_audit(*columns, AUDIT_TOLERANCE))
