"""Two-sided assignment of UAVs to subregions by deferred acceptance.

Subregions propose, walking down their marginal-cost-ordered candidate
lists; UAVs hold their best offer so far and reject the rest. When a
subregion's best remaining candidates are tied on marginal cost, the
subregion calibrates its published rewards downward until all but one
tied candidate would rather take an outside option; the reduced rewards
stick and are what the eventual partner is paid.

Unmatched outcomes are first-class results, not errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .contract import Announcement, ContractSchedule, sort_ladder
from .core import CostVector
from .economics import ContractItem, EconomyParams, payoff
from .errors import UnresolvedTieError

UPSILON_TIE_TOLERANCE = 0.0  # marginal costs tie only on exact equality


@dataclass(frozen=True)
class PreferenceList:
    """One side's ranked counterparts, most preferred first.

    ``scores`` align with ``ranked``: marginal costs (ascending) for a
    subregion's list, hypothetical payoffs (descending) for a UAV's list.
    """

    owner: str
    ranked: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranked", tuple(self.ranked))
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        if len(self.ranked) != len(self.scores):
            raise ValueError("ranked and scores must have equal length")
        index = {c: i for i, c in enumerate(self.ranked)}
        if len(index) != len(self.ranked):
            raise ValueError(f"duplicate entries in preference list of {self.owner!r}")
        object.__setattr__(self, "_index", index)

    def __contains__(self, counterpart: str) -> bool:
        return counterpart in self._index

    def score_of(self, counterpart: str) -> float:
        return self.scores[self._index[counterpart]]


@dataclass(frozen=True)
class CalibrationPolicy:
    """Step rule for downward rewards calibration.

    Relative mode multiplies the reward vector by ``1 - delta_value`` per
    step; absolute mode subtracts ``delta_value``, floored at zero.
    """

    delta_mode: str = "relative"
    delta_value: float = 0.01
    max_rounds: int = 500

    def __post_init__(self):
        if self.delta_mode not in ("relative", "absolute"):
            raise ValueError("delta_mode must be 'relative' or 'absolute'")
        if self.delta_value <= 0:
            raise ValueError("delta_value must be > 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be a positive integer")


@dataclass(frozen=True)
class CalibrationEvent:
    subregion_id: str
    before: tuple[float, ...]
    after: tuple[float, ...]


@dataclass
class MatchState:
    """Final (or evolving) assignment plus the calibration history."""

    assignment: dict[str, str] = field(default_factory=dict)  # uav -> subregion
    unmatched_subregions: set[str] = field(default_factory=set)
    exhausted: set[str] = field(default_factory=set)
    calibration_log: list[CalibrationEvent] = field(default_factory=list)

    def subregion_assignment(self) -> dict[str, str]:
        inverted = {}
        for uav, sub in self.assignment.items():
            if sub in inverted:
                raise ValueError(f"two UAVs assigned to subregion {sub!r}")
            inverted[sub] = uav
        return inverted


class Market:
    """Live pricing view used while a match runs.

    Holds the built schedules, each UAV's cost vector per subregion, and
    the current (possibly calibrated-down) reward vectors. Utilities are
    always computed against the current vectors, so every participant sees
    a reduction as soon as it happens.
    """

    def __init__(
        self,
        schedules: Mapping[str, ContractSchedule],
        costs: Mapping[str, Mapping[str, CostVector]],
        econ: EconomyParams,
    ):
        self.schedules = dict(schedules)
        self.costs = {u: dict(by_sub) for u, by_sub in costs.items()}
        self.econ = econ
        self._rewards: dict[str, list[float]] = {
            sub_id: list(s.coverage_rewards()) for sub_id, s in self.schedules.items()
        }
        self.calibration_log: list[CalibrationEvent] = []

    def subregion_ids(self) -> list[str]:
        return list(self.schedules)

    def uav_ids(self) -> list[str]:
        return list(self.costs)

    def coverage_rewards(self, sub_id: str) -> tuple[float, ...]:
        return tuple(self._rewards[sub_id])

    def item_for(self, uav_id: str, sub_id: str) -> ContractItem | None:
        schedule = self.schedules[sub_id]
        rank = schedule.rank_of(uav_id)
        if rank is None:
            return None
        base = schedule.items[rank - 1]
        return base.with_coverage_reward(self._rewards[sub_id][rank - 1])

    def utility(self, uav_id: str, sub_id: str) -> float:
        """Hypothetical payoff of ``uav_id`` serving ``sub_id`` at current rewards."""
        schedule = self.schedules[sub_id]
        rank = schedule.rank_of(uav_id)
        if rank is None:
            raise KeyError(f"uav {uav_id!r} is not on the ladder of {sub_id!r}")
        item = schedule.items[rank - 1]
        return payoff(
            item.theta,
            self._rewards[sub_id][rank - 1],
            item.fixed_reward,
            self.costs[uav_id][sub_id],
            self.econ.phi,
        )

    def reduce_rewards(self, sub_id: str, policy: CalibrationPolicy) -> None:
        vector = self._rewards[sub_id]
        if policy.delta_mode == "relative":
            self._rewards[sub_id] = [r * (1.0 - policy.delta_value) for r in vector]
        else:
            self._rewards[sub_id] = [max(0.0, r - policy.delta_value) for r in vector]

    def at_floor(self, sub_id: str) -> bool:
        return all(r == 0.0 for r in self._rewards[sub_id])

    def record_calibration(self, sub_id: str, before: tuple[float, ...]) -> None:
        self.calibration_log.append(
            CalibrationEvent(sub_id, before, self.coverage_rewards(sub_id))
        )

    def final_schedules(self) -> dict[str, ContractSchedule]:
        """Schedules with calibrated reward vectors baked in and re-audited."""
        out = {}
        for sub_id, schedule in self.schedules.items():
            rewards = self.coverage_rewards(sub_id)
            if rewards == schedule.coverage_rewards():
                out[sub_id] = schedule
            else:
                out[sub_id] = schedule.with_coverage_rewards(rewards)
        return out


def build_subregion_preferences(
    sub_id: str, announcements: Sequence[Announcement], phi: float
) -> PreferenceList:
    """Candidate list of one subregion over the UAVs that passed screening.

    Ascending marginal cost, same tie-break as the contract ladder. An
    empty announcement set yields an empty list (the subregion will simply
    exhaust immediately).
    """
    if not announcements:
        return PreferenceList(owner=sub_id, ranked=(), scores=())
    ladder = sort_ladder(announcements, phi)
    return PreferenceList(
        owner=sub_id,
        ranked=tuple(aux.uav_id for aux in ladder),
        scores=tuple(aux.upsilon for aux in ladder),
    )


def build_uav_preferences(uav_id: str, market: Market) -> PreferenceList:
    """Subregions ranked by the payoff the UAV would get if matched there.

    Built under the assumption of being matched, since a UAV cannot know
    the outcome in advance. Subregions where the hypothetical payoff is
    negative are dropped: staying unmatched pays zero and dominates them.
    Descending payoff; ties keep subregion declaration order.
    """
    entries = []
    for sub_id in market.subregion_ids():
        if market.schedules[sub_id].rank_of(uav_id) is None:
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


def rewards_calibration(
    sub_id: str,
    tied: Sequence[str],
    market: Market,
    policy: CalibrationPolicy,
    outside_utility: Mapping[str, float] | Callable[[str], float],
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
    if callable(outside_utility):
        outside = {u: outside_utility(u) for u in candidates}
    else:
        outside = {u: outside_utility.get(u, 0.0) for u in candidates}
    outside = {u: max(v, 0.0) for u, v in outside.items()}

    ladder = {aux.uav_id: aux for aux in market.schedules[sub_id].ladder}
    order = {u: i for i, u in enumerate(candidates)}

    def margin(uav: str) -> float:
        return market.utility(uav, sub_id) - outside[uav]

    def fallback_key(uav: str):
        return (ladder[uav].psi, ladder[uav].zeta, order[uav])

    before = market.coverage_rewards(sub_id)
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
            if market.at_floor(sub_id):
                survivor = min(candidates, key=fallback_key)
                break
            if rounds >= policy.max_rounds:
                raise UnresolvedTieError(sub_id, rounds)
            market.reduce_rewards(sub_id, policy)
            rounds += 1
    if market.coverage_rewards(sub_id) != before:
        market.record_calibration(sub_id, before)
    return survivor


def _leading_tie(pref: PreferenceList, remaining: Sequence[str]) -> list[str]:
    head = remaining[0]
    head_score = pref.score_of(head)
    tie = [head]
    for uav in remaining[1:]:
        if abs(pref.score_of(uav) - head_score) <= UPSILON_TIE_TOLERANCE:
            tie.append(uav)
        else:
            break
    return tie


def gs_match(
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
                target = rewards_calibration(
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
    matched_subs = set(hold.values())
    state.unmatched_subregions = {s for s in sub_prefs if s not in matched_subs}
    state.exhausted = exhausted
    if market is not None:
        state.calibration_log = list(market.calibration_log)
    return state


def stability_audit(
    state: MatchState,
    sub_prefs: Mapping[str, PreferenceList],
    uav_prefs: Mapping[str, PreferenceList],
) -> list[tuple[str, str]]:
    """Exhaustive blocking-pair scan; an empty result certifies stability.

    A pair blocks when both sides strictly prefer each other to what they
    have: strictly lower marginal cost for the subregion, strictly higher
    payoff (or any positive payoff if unmatched) for the UAV. Only
    mutually acceptable pairs can block.
    """
    sub_of = dict(state.assignment)
    uav_of = state.subregion_assignment()
    blocking = []
    for sub, pref in sub_prefs.items():
        current = uav_of.get(sub)
        current_score = pref.score_of(current) if current is not None else None
        for uav in pref.ranked:
            if uav == current:
                continue
            if uav not in uav_prefs or sub not in uav_prefs[uav]:
                continue
            # subregion side: strictly cheaper than its current partner
            if current_score is not None and pref.score_of(uav) >= current_score:
                continue
            # uav side: strictly better than its current outcome
            offered = uav_prefs[uav].score_of(sub)
            assigned = sub_of.get(uav)
            threshold = (
                uav_prefs[uav].score_of(assigned) if assigned is not None else 0.0
            )
            if offered > threshold:
                blocking.append((uav, sub))
    return blocking
