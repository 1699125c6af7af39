"""Per-subregion contract construction and self-selection auditing.

The owner cannot observe UAV cost types, so it publishes a menu of
(coverage, reward) items built so that each announced type picks the item
meant for it. Types are collapsed onto a one-dimensional ladder ordered by
the marginal cost of coverage ``upsilon = phi * (alpha + beta)``, priced
once per announcement; coverage targets come from a closed form evaluated
over the whole ladder, monotonicity is repaired by pooling if needed, and
rewards are set by a backward recursion that leaves the costliest type
exactly at break-even. The audit takes the menu's upsilon, coverage and
reward columns; the build hands it the coverages it computed. A rung,
``AuxiliaryType``, is a validated named tuple, like ``CostVector`` and
``ContractItem``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import CostVector, Subregion, _validated_make
from .economics import ContractItem, EconomyParams

AUDIT_TOLERANCE = 1e-9


class _RungFields(NamedTuple):
    rank: int            # 1-based, 1 = cheapest coverage
    uav_id: str
    upsilon: float
    costs: CostVector


class AuxiliaryType(_RungFields):
    """A ladder rung: one announcer at its position in the marginal-cost order.

    ``costs`` is the cost vector the UAV announced to this subregion.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, rank: int, uav_id: str, upsilon: float, costs: CostVector):
        if not 0 < upsilon < math.inf:  # one comparison chain: false for <= 0, inf and NaN
            shown = "> 0" if upsilon <= 0 else f"finite, got {upsilon}"
            raise ValueError(f"upsilon must be {shown}")
        return tuple.__new__(cls, (rank, uav_id, upsilon, costs))


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
    """The published menu for one subregion, plus its audit.

    ``ladder`` and ``items`` are aligned: item ``i`` is meant for the type
    at rank ``i + 1``. All items share the same fixed reward.
    """

    subregion_id: str
    ladder: tuple[AuxiliaryType, ...]
    items: tuple[ContractItem, ...]
    audit: AuditReport

    def __post_init__(self):
        if len(self.ladder) != len(self.items):
            raise ValueError("ladder and items must have equal length")
        object.__setattr__(self, "ladder", tuple(self.ladder))
        object.__setattr__(self, "items", tuple(self.items))
        # reversed, so a repeated id keeps its first (cheapest) rank
        object.__setattr__(
            self, "_ranks", {aux.uav_id: aux.rank for aux in reversed(self.ladder)}
        )

    def rank_of(self, uav_id: str) -> int | None:
        return self._ranks.get(uav_id)

    def item_for(self, uav_id: str) -> ContractItem | None:
        rank = self.rank_of(uav_id)
        return None if rank is None else self.items[rank - 1]

    def coverage_rewards(self) -> tuple[float, ...]:
        return tuple(item.coverage_reward for item in self.items)

    def with_coverage_rewards(self, rewards: Sequence[float]) -> "ContractSchedule":
        """Same menu with a replaced reward vector, re-audited."""
        if len(rewards) != len(self.items):
            raise ValueError("reward vector length mismatch")
        items = tuple(
            item.with_coverage_reward(r) for item, r in zip(self.items, rewards)
        )
        thetas = [item.theta for item in items]
        audit = _audit([aux.upsilon for aux in self.ladder], thetas, rewards, AUDIT_TOLERANCE)
        return ContractSchedule(self.subregion_id, self.ladder, items, audit)


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


def sort_ladder(announcements: Mapping[str, CostVector], phi: float) -> list[AuxiliaryType]:
    """Order announcers by ascending marginal cost of coverage.

    ``announcements`` maps each UAV id to the costs it announced, in
    announcement order. Ties are broken by lower traversal cost, then
    lower upload cost, then the mapping's order, so ladders are
    deterministic.
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
    return [
        AuxiliaryType(rank, uav_id, upsilon, c)
        for rank, (upsilon, _, _, _, uav_id, c) in enumerate(keyed, start=1)
    ]


def optimal_coverage(
    ladder: Sequence[AuxiliaryType], sub: Subregion, econ: EconomyParams
) -> list[float]:
    """Closed-form coverage target per rung of ``ladder``, clamped into [0, 1].

    ``(sigma / (N * upsilon) - 1) / (mu * D)``, with ``D`` the subregion's
    data volume, maximises the owner's per-subregion coverage payoff
    ``sigma / (N * mu * D) * ln(1 + mu * theta * D) - upsilon * theta``
    (the objective ``verification.grid_oracle_coverage`` scans), not
    ``economics.owner_profit``; cheap types are asked to cover more. The
    data scale ``mu * D`` is computed once for the menu.
    """
    sigma, n, scale = econ.sigma, econ.n_subregions, econ.mu * sub.data_volume
    coverages = []
    for aux in ladder:
        raw = (sigma / (n * aux.upsilon) - 1.0) / scale
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


def reward_schedule(
    ladder: Sequence[AuxiliaryType],
    coverages: Sequence[float],
    reward_hat: float,
) -> list[ContractItem]:
    """Backward reward recursion over a monotone coverage ladder.

    The costliest rung is paid exactly its coverage-linked cost; every
    rung above is paid the next rung's reward plus its own marginal cost
    on the extra coverage it takes on. Requires non-increasing coverages.
    """
    if len(ladder) != len(coverages):
        raise ValueError("ladder and coverages must have equal length")
    if any(b > a + 1e-12 for a, b in zip(coverages, coverages[1:])):
        raise ValueError("coverages must be non-increasing; run iron_schedule first")
    n = len(ladder)
    rewards = [0.0] * n
    rewards[-1] = ladder[-1].upsilon * coverages[-1]
    for i in range(n - 2, -1, -1):
        rewards[i] = rewards[i + 1] + ladder[i].upsilon * (coverages[i] - coverages[i + 1])
    return [ContractItem(theta, r, reward_hat) for theta, r in zip(coverages, rewards)]


def build_schedule(
    announcements: Mapping[str, CostVector],
    sub: Subregion,
    econ: EconomyParams,
    reward_hat: float = 0.0,
) -> ContractSchedule:
    """Full pipeline: ladder, coverage targets, pooling, rewards, audit."""
    ladder = tuple(sort_ladder(announcements, econ.phi))
    coverages = iron_schedule(optimal_coverage(ladder, sub, econ))
    items = tuple(reward_schedule(ladder, coverages, reward_hat))
    rewards = [item.coverage_reward for item in items]
    audit = _audit([aux.upsilon for aux in ladder], coverages, rewards, AUDIT_TOLERANCE)
    return ContractSchedule(sub.id, ladder, items, audit)


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
