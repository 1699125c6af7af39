"""Two-sided assignment of UAVs to subregions by deferred acceptance.

Subregions propose, walking down their candidates in ladder order; UAVs
hold their best offer so far and reject the rest. When a subregion's best
remaining candidates are tied on marginal cost, the subregion calibrates
its published rewards downward until all but one tied candidate would
rather take an outside option; the reduced rewards stick and are what the
eventual partner is paid. A tie still intact at zero rewards goes to the
first tied candidate in ladder order. The live ``Market`` holds one reward
column per menu, which each calibration step replaces, and every UAV's
list is built in one walk over the menus' rungs.

Unmatched outcomes are first-class results, not errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .contract import ContractSchedule
from .economics import EconomyParams, payoff
from .errors import UnresolvedTieError

# Exact ties only: the calibration fallback takes the first tied candidate in
# ladder order, and the ladder orders by psi and zeta only among equal upsilons.
UPSILON_TIE_TOLERANCE = 0.0


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
    step, so its ``delta_value`` is at most 1; absolute mode subtracts
    ``delta_value``, floored at zero.
    """

    delta_mode: str = "relative"
    delta_value: float = 0.01
    max_rounds: int = 500

    def __post_init__(self):
        if self.delta_mode not in ("relative", "absolute"):
            raise ValueError("delta_mode must be 'relative' or 'absolute'")
        if self.delta_value <= 0:
            raise ValueError("delta_value must be > 0")
        if self.delta_mode == "relative" and self.delta_value > 1:
            raise ValueError("delta_value must be <= 1 in relative mode")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be a positive integer")

    def step(self, rewards: Sequence[float]) -> tuple[float, ...]:
        """The reward column one calibration step below ``rewards``."""
        if self.delta_mode == "relative":
            return tuple(r * (1.0 - self.delta_value) for r in rewards)
        delta = self.delta_value
        # same value as max(0.0, r - delta), -0.0 and nan included
        return tuple(r - delta if r - delta > 0.0 else 0.0 for r in rewards)


@dataclass(frozen=True)
class CalibrationEvent:
    subregion_id: str
    before: tuple[float, ...]
    after: tuple[float, ...]


@dataclass
class MatchState:
    """Final (or evolving) assignment plus the calibration history."""

    assignment: dict[str, str] = field(default_factory=dict)  # uav -> subregion
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

    Holds the built schedules, whose ``costs`` column carries each
    announcer's cost vector, and ``rewards``, one reward column per menu:
    the menu's own ``coverage_rewards`` until a calibration step replaces
    it. Utilities are always computed against the current columns, so
    every participant sees a reduction as soon as it happens.
    """

    def __init__(self, schedules: Mapping[str, ContractSchedule], econ: EconomyParams):
        self.schedules = dict(schedules)
        self.econ = econ
        self.rewards: dict[str, tuple[float, ...]] = {
            sub_id: s.coverage_rewards for sub_id, s in self.schedules.items()
        }
        self.calibration_log: list[CalibrationEvent] = []

    def utility(self, uav_id: str, sub_id: str) -> float:
        """Hypothetical payoff of ``uav_id`` serving ``sub_id`` at current rewards."""
        schedule = self.schedules[sub_id]
        rank = schedule.rank_of(uav_id)
        if rank is None:
            raise KeyError(f"uav {uav_id!r} is not on the ladder of {sub_id!r}")
        i = rank - 1
        theta, costs = schedule.thetas[i], schedule.costs[i]
        return payoff(theta, self.rewards[sub_id][i], schedule.fixed_reward, costs, self.econ.phi)

    def final_schedules(self) -> dict[str, ContractSchedule]:
        """Schedules with the calibrated reward columns baked in."""
        out = {}
        for sub_id, schedule in self.schedules.items():
            rewards = self.rewards[sub_id]
            if rewards == schedule.coverage_rewards:
                out[sub_id] = schedule
            else:
                out[sub_id] = schedule.with_coverage_rewards(rewards)
        return out


def build_subregion_preferences(schedule: ContractSchedule) -> PreferenceList:
    """Candidate list of one subregion over the UAVs that passed screening.

    It is the menu's ladder as it stands: ascending marginal cost, with
    the ladder's tie-break, scored by each rung's upsilon.
    """
    return PreferenceList(schedule.subregion_id, schedule.ladder, schedule.upsilons)


def build_uav_preferences(market: Market, uav_ids: Iterable[str]) -> dict[str, PreferenceList]:
    """Each UAV's subregions, ranked by the payoff it would get if matched there.

    Built under the assumption of being matched, since a UAV cannot know
    the outcome in advance. Subregions where the hypothetical payoff is
    negative are dropped: staying unmatched pays zero and dominates them.
    Descending payoff; ties keep subregion declaration order. One walk
    over every menu's rungs at the market's current rewards prices each
    listed pair once; the lists come back in ``uav_ids`` order, the order
    in which deferred acceptance resolves proposals.
    """
    entries: dict[str, list[tuple[str, float]]] = {uav_id: [] for uav_id in uav_ids}
    phi = market.econ.phi
    for sub_id, schedule in market.schedules.items():
        fixed = schedule.fixed_reward
        rungs = zip(schedule.ladder, schedule.thetas, market.rewards[sub_id], schedule.costs)
        for uav_id, theta, reward, costs in rungs:
            if uav_id in entries and not (u := payoff(theta, reward, fixed, costs, phi)) < 0.0:
                entries[uav_id].append((sub_id, u))
    prefs = {}
    for uav_id, listed in entries.items():
        listed.sort(key=lambda e: -e[1])
        prefs[uav_id] = PreferenceList(uav_id, [s for s, _ in listed], [u for _, u in listed])
    return prefs


def rewards_calibration(
    sub_id: str,
    tied: Sequence[str],
    market: Market,
    policy: CalibrationPolicy,
    outside_utility: Callable[[str], float],
) -> str:
    """Separate candidates tied at a subregion's lowest marginal cost.

    The subregion's column in ``market.rewards`` is stepped downward by
    ``policy.step``; after every step each remaining candidate's payoff
    here is compared with its outside option (its best alternative,
    floored at the zero payoff of staying unmatched), and candidates whose
    outside option weakly dominates drop out. The survivor is proposed to
    and the reduced column remains in force. If it hits zero with the tie
    intact, or one step loses every candidate at once, the first candidate
    left (with the best margin) wins. Raises after ``policy.max_rounds``
    steps, or at a step that would change no reward. A changed column is
    logged as one ``CalibrationEvent`` on the market.

    ``tied`` must come in ladder order. Ties are exact and ``sort_ladder``
    orders equal marginal costs by lower traversal cost, then lower upload
    cost, then announcement order, so the first is the lowest of those.
    """
    candidates = list(tied)
    if len(candidates) == 1:
        return candidates[0]
    outside = {u: max(outside_utility(u), 0.0) for u in candidates}
    before = rewards = market.rewards[sub_id]
    rounds = 0
    survivor: str | None = None
    while survivor is None:
        margins = {u: market.utility(u, sub_id) - outside[u] for u in candidates}
        alive = [u for u in candidates if margins[u] > 0.0]
        if len(alive) == 1:
            survivor = alive[0]
        elif not alive:
            # A step (or the initial offer) lost every candidate at once;
            # keep the one that held on longest.
            best = max(margins.values())
            survivor = next(u for u in candidates if margins[u] == best)
        else:
            candidates = alive
            if all(r == 0.0 for r in rewards):
                survivor = candidates[0]
                break
            stepped = policy.step(rewards)
            # a step too small to move any reward would repeat until max_rounds
            if rounds >= policy.max_rounds or stepped == rewards:
                raise UnresolvedTieError(sub_id, rounds)
            market.rewards[sub_id] = rewards = stepped
            rounds += 1
    if rewards != before:
        market.calibration_log.append(CalibrationEvent(sub_id, before, rewards))
    return survivor


def _leading_tie(pref: PreferenceList, candidates: Iterable[str]) -> list[str]:
    """The head of ``candidates`` and every candidate tied with it, in order."""
    walk = iter(candidates)
    tie = [next(walk)]
    score = pref.score_of(tie[0])
    for uav in walk:
        if not abs(pref.score_of(uav) - score) <= UPSILON_TIE_TOLERANCE:
            break
        tie.append(uav)
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

    Every candidate on a subregion's list must have a list in
    ``uav_prefs``, possibly empty; ``run_match`` gives every UAV one.

    With a ``market``, the scores in ``uav_prefs`` must be that market's
    payoffs before any calibration (``build_uav_preferences`` on the
    fresh market). Calibration only lowers rewards and a payoff rises
    with the reward, so each score bounds the live utility from above;
    the outside option relies on this to stop at the first score it
    cannot beat.
    """
    policy = policy or CalibrationPolicy()
    # each subregion's open candidates in list order; a rejection strikes one
    candidates = {sub: dict.fromkeys(pref.ranked) for sub, pref in sub_prefs.items()}
    utility = market.utility if market is not None else lambda u, s: uav_prefs[u].score_of(s)

    def outside_for(uav: str, sub: str) -> float:
        best = 0.0
        pref = uav_prefs[uav]
        for alt, score in zip(pref.ranked, pref.scores):
            if score <= best:
                break  # scores descend and bound live utilities from above
            if alt == sub or uav not in candidates.get(alt, ()):
                continue
            best = max(best, utility(uav, alt))
        return best

    hold: dict[str, str] = {}  # uav -> subregion it currently holds
    pool = [s for s in sub_prefs if candidates[s]]

    while pool:
        proposals: dict[str, list[str]] = {}
        for sub in pool:
            tie = _leading_tie(sub_prefs[sub], candidates[sub])
            if len(tie) > 1:
                if market is None:
                    raise UnresolvedTieError(sub, 0)
                target = rewards_calibration(
                    sub, tie, market, policy, lambda u, s=sub: outside_for(u, s)
                )
            else:
                target = tie[0]
            proposals.setdefault(target, []).append(sub)

        returned: list[str] = []  # in uav_prefs order, which orders the next round
        for uav in filter(proposals.__contains__, uav_prefs):
            best_sub = hold.get(uav)  # the incumbent
            best_u = utility(uav, best_sub) if best_sub is not None else None
            rejected: list[str] = []
            for sub in proposals[uav]:
                # unacceptable, or an offer calibrated below break-even
                if sub not in uav_prefs[uav] or (u := utility(uav, sub)) < 0.0:
                    rejected.append(sub)
                elif best_u is None or u > best_u:
                    if best_sub is not None:
                        rejected.append(best_sub)
                    best_sub, best_u = sub, u
                else:
                    rejected.append(sub)
            for sub in rejected:
                del candidates[sub][uav]
                returned.append(sub)
            if best_sub is not None:
                hold[uav] = best_sub

        held = set(hold.values())
        pool = [s for s in dict.fromkeys(pool + returned) if s not in held and candidates[s]]

    log = list(market.calibration_log) if market is not None else []
    return MatchState(dict(sorted(hold.items())), log)


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
            if sub not in uav_prefs[uav]:
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
