"""Per-subregion contract construction and self-selection auditing.

The owner cannot observe UAV cost types, so it publishes a menu of
(coverage, reward) items built so that each announced type picks the item
meant for it. Types are collapsed onto a one-dimensional ladder ordered by
the marginal cost of coverage ``upsilon = phi * (alpha + beta)``, priced
once per announcement; coverage targets come from a closed form evaluated
over the whole ladder, monotonicity is repaired by pooling if needed, and
rewards are set by a backward recursion that leaves the costliest type
exactly at break-even. Every step after the sort reads only the
ladder's upsilon column. A menu, ``ContractSchedule``, holds its ladder
as aligned columns, one entry per rank, and one fixed reward; the one
``ContractItem`` a matched pair is paid, and the menu's self-selection
audit, are computed from those columns on demand.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import CostVector, Subregion
from .economics import ContractItem, EconomyParams

AUDIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AuditReport:
    """Result of checking a schedule's participation and self-selection logic.

    ``worst_ic_violation`` is the largest gain any type could get by taking
    another type's item; at or below tolerance means no profitable misreport.
    ``binding_ir_rank`` is the rank whose own-item payoff is smallest.
    """

    ir_ok: bool
    ic_ok: bool
    monotone_ok: bool
    worst_ic_violation: float
    binding_ir_rank: int


@dataclass(frozen=True)
class ContractSchedule:
    """The published menu for one subregion as aligned columns.

    Entry ``i`` of each column belongs to the type at rank ``i + 1``:
    ``ladder`` holds the announcers' ids, cheapest first, ``upsilons``
    their marginal costs, ``costs`` the cost vectors they announced, and
    ``thetas`` and ``coverage_rewards`` the item meant for them. Every
    item carries the one ``fixed_reward``; the audit leaves it out. The
    checks are ``ContractItem``'s, plus an upsilon that is finite and > 0.
    """

    subregion_id: str
    ladder: tuple[str, ...]
    upsilons: tuple[float, ...]
    costs: tuple[CostVector, ...]
    thetas: tuple[float, ...]
    coverage_rewards: tuple[float, ...]
    fixed_reward: float

    def __post_init__(self):
        columns = ("ladder", "upsilons", "costs", "thetas", "coverage_rewards")
        for name in columns:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len({len(getattr(self, name)) for name in columns}) > 1:
            raise ValueError("menu columns must have equal length")
        fixed = self.fixed_reward
        for upsilon, theta, reward in zip(self.upsilons, self.thetas, self.coverage_rewards):
            # each chain is false for NaN; upsilon's also for <= 0 and inf
            if not (0 < upsilon < math.inf and 0.0 <= theta <= 1.0 and reward + fixed >= 0):
                if not 0 < upsilon < math.inf:
                    shown = "> 0" if upsilon <= 0 else f"finite, got {upsilon}"
                    raise ValueError(f"upsilon must be {shown}")
                if not 0.0 <= theta <= 1.0:
                    raise ValueError(f"theta must be in [0, 1], got {theta}")
                raise ValueError("total reward must be >= 0")
        # reversed, so a repeated id keeps its first (cheapest) rank
        ranks = dict(zip(reversed(self.ladder), range(len(self.ladder), 0, -1)))
        object.__setattr__(self, "_ranks", ranks)

    @cached_property
    def audit(self) -> AuditReport:
        """The menu's self-selection audit, computed from its columns on first read."""
        return _audit(self.upsilons, self.thetas, self.coverage_rewards, AUDIT_TOLERANCE)

    def rank_of(self, uav_id: str) -> int | None:
        return self._ranks.get(uav_id)

    def item_for(self, uav_id: str) -> ContractItem | None:
        """The item ``uav_id`` is meant to sign, or None when it is not on the ladder."""
        i = self._ranks.get(uav_id, 0) - 1
        if i < 0:
            return None
        return ContractItem(self.thetas[i], self.coverage_rewards[i], self.fixed_reward)

    def with_coverage_rewards(self, rewards: Sequence[float]) -> "ContractSchedule":
        """Same menu with a replaced reward column, checked as any menu is and not yet audited."""
        return dataclasses.replace(self, coverage_rewards=rewards)


def marginal_cost(alpha: float, beta: float, phi: float) -> float:
    """Energy bill of one extra unit of coverage: ``phi * (alpha + beta)``.

    Positive inputs can still overflow to inf or underflow to 0; either
    is rejected, since no menu can be priced from it.
    """
    if alpha <= 0 or beta <= 0 or phi <= 0:
        raise ValueError("alpha, beta, and phi must be > 0")
    upsilon = phi * (alpha + beta)
    if not 0 < upsilon < math.inf:
        raise ValueError(f"marginal cost phi * (alpha + beta) must be finite and > 0, got {upsilon}")
    return upsilon


def sort_ladder(
    announcements: Mapping[str, CostVector], phi: float
) -> tuple[tuple[str, ...], tuple[float, ...], tuple[CostVector, ...]]:
    """Order announcers by ascending marginal cost of coverage.

    ``announcements`` maps each UAV id to the costs it announced, in
    announcement order. Returns the ladder's columns: the ids, their
    marginal costs and their cost vectors, cheapest first. Ties are
    broken by lower traversal cost, then lower upload cost, then the
    mapping's order, so ladders are deterministic.
    """
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
    upsilons, _, _, _, ids, costs = zip(*keyed)
    return ids, upsilons, costs


def optimal_coverage(
    upsilons: Sequence[float], data_volume: float, econ: EconomyParams
) -> list[float]:
    """Closed-form coverage target per marginal cost in ``upsilons``, clamped into [0, 1].

    ``(sigma / (N * upsilon) - 1) / (mu * D)``, with ``D`` the subregion's
    ``data_volume``, maximises the owner's per-subregion coverage payoff
    ``sigma / (N * mu * D) * ln(1 + mu * theta * D) - upsilon * theta``
    (the objective ``verification.grid_oracle_coverage`` scans), not
    ``economics.owner_profit``; cheap types are asked to cover more. The
    data scale ``mu * D`` is computed once for the menu.
    """
    sigma, n, scale = econ.sigma, econ.n_subregions, econ.mu * data_volume
    coverages = []
    for upsilon in upsilons:
        raw = (sigma / (n * upsilon) - 1.0) / scale
        # min(1.0, max(0.0, raw)) without the calls, NaN and -0.0 included
        coverages.append(1.0 if raw > 1.0 else raw if raw > 0.0 else 0.0)
    return coverages


def iron_schedule(coverages: Sequence[float]) -> list[float]:
    """Repair a coverage ladder into non-increasing order by pooling.

    Adjacent entries that violate the order are replaced by their
    arithmetic mean, repeatedly, until the whole sequence is monotone.
    Already monotone input, which the closed-form coverages always are,
    comes back as floats without pooling.
    """
    if all(a >= b for a, b in zip(coverages, coverages[1:])):
        return [float(v) for v in coverages]
    blocks: list[tuple[float, int]] = []  # (sum, count), earliest first
    for value in coverages:
        total, count = float(value), 1
        # a later block must not average above an earlier one
        while blocks and blocks[-1][0] * count < total * blocks[-1][1]:
            prev_total, prev_count = blocks.pop()
            total += prev_total
            count += prev_count
        blocks.append((total, count))
    out: list[float] = []
    for total, count in blocks:
        out.extend([total / count] * count)
    return out


def reward_schedule(upsilons: Sequence[float], coverages: Sequence[float]) -> list[float]:
    """Backward reward recursion over a ladder's upsilon and monotone coverage columns.

    Returns the coverage-reward column. The costliest rung is paid
    exactly its coverage-linked cost; every rung above is paid the next
    rung's reward plus its own marginal cost on the extra coverage it
    takes on. Requires non-increasing coverages.
    """
    if len(upsilons) != len(coverages):
        raise ValueError("upsilons and coverages must have equal length")
    if any(b > a + 1e-12 for a, b in zip(coverages, coverages[1:])):
        raise ValueError("coverages must be non-increasing; run iron_schedule first")
    n = len(upsilons)
    rewards = [0.0] * n
    rewards[-1] = upsilons[-1] * coverages[-1]
    for i in range(n - 2, -1, -1):
        rewards[i] = rewards[i + 1] + upsilons[i] * (coverages[i] - coverages[i + 1])
    return rewards


def build_schedule(
    announcements: Mapping[str, CostVector],
    sub: Subregion,
    econ: EconomyParams,
    reward_hat: float = 0.0,
) -> ContractSchedule:
    """Full pipeline: ladder, coverage targets, pooling, rewards.

    ``reward_hat`` is the menu's fixed reward, the same on every item.
    The audit is left to the first reader of ``ContractSchedule.audit``.
    """
    ids, upsilons, costs = sort_ladder(announcements, econ.phi)
    coverages = iron_schedule(optimal_coverage(upsilons, sub.data_volume, econ))
    rewards = reward_schedule(upsilons, coverages)
    return ContractSchedule(sub.id, ids, upsilons, costs, coverages, rewards, reward_hat)


def _audit(
    upsilons: Sequence[float],
    thetas: Sequence[float],
    rewards: Sequence[float],
    tolerance: float,
) -> AuditReport:
    """Self-selection audit of a menu from its rungs' upsilon, theta and reward columns."""
    n = len(upsilons)
    upsilons, thetas, rewards = (np.array(c, dtype=float) for c in (upsilons, thetas, rewards))
    # payoff[i, k]: coverage-linked payoff of the type at rank i + 1
    # taking the item meant for rank k + 1; the diagonal is its own item.
    # Every item carries the same fixed reward, so it cancels out of each
    # comparison and is left out.
    payoff = rewards[None, :] - upsilons[:, None] * thetas[None, :]
    own = payoff.diagonal()
    if n <= 1:
        worst = 0.0
    else:
        gain = payoff - own[:, None]
        np.fill_diagonal(gain, -np.inf)
        worst = float(gain.max())
    monotone_ok = bool(
        np.all(thetas[1:] <= thetas[:-1] + tolerance)
        and np.all(rewards[1:] <= rewards[:-1] + tolerance)
    )
    return AuditReport(
        ir_ok=bool(np.all(own >= -tolerance)),
        ic_ok=worst <= tolerance,
        monotone_ok=monotone_ok,
        worst_ic_violation=worst,
        binding_ir_rank=int(np.argmin(own)) + 1 if n else 0,
    )
