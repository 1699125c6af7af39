"""Utility, accuracy, and profit accounting for UAVs and the task owner.

A UAV's payoff is its contract reward minus its energy bill at the unit
energy price ``phi``. The owner values coverage through a concave
accuracy proxy and pays the contract rewards out of the resulting profit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import CostVector

@dataclass(frozen=True)
class ContractItem:
    """One rung of a contract: a coverage fraction and its two-part pay.

    ``coverage_reward`` compensates the coverage-linked sensing and
    computation costs; ``fixed_reward`` compensates the coverage-independent
    traversal and upload costs.
    """

    theta: float
    coverage_reward: float
    fixed_reward: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.total_reward < 0:
            raise ValueError("total reward must be >= 0")

    @property
    def total_reward(self) -> float:
        return self.coverage_reward + self.fixed_reward

    def with_coverage_reward(self, value: float) -> "ContractItem":
        return ContractItem(self.theta, value, self.fixed_reward)


@dataclass(frozen=True)
class EconomyParams:
    """Market-level constants shared by every contract in a scenario.

    ``phi``  unit price of energy (currency per joule)
    ``mu``   data-to-accuracy curvature inside the log proxy
    ``sigma`` conversion from accuracy to owner revenue
    ``n_subregions`` number of subregions the owner runs in parallel
    """

    phi: float
    mu: float
    sigma: float
    n_subregions: int

    def __post_init__(self):
        for name in ("phi", "mu", "sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.n_subregions < 1:
            raise ValueError("n_subregions must be a positive integer")


def payoff(
    theta: float,
    coverage_reward: float,
    fixed_reward: float,
    costs: CostVector,
    phi: float,
) -> float:
    """UAV payoff from an item's parts: ``(R - phi(alpha+beta)theta) + fixed - phi(psi+zeta)``.

    The revised utility plus the fixed-cost settlement, which equals reward
    minus the total energy bill. Taking the parts instead of a
    ``ContractItem`` lets the live market price calibrated rewards without
    building an item per query.
    """
    return (
        coverage_reward
        - phi * (costs.alpha + costs.beta) * theta
        + fixed_reward
        - phi * (costs.psi + costs.zeta)
    )


def model_accuracy(coverages: Sequence[tuple[float, float]], mu: float) -> float:
    """Accuracy proxy: mean of ``ln(1 + mu * theta * data_volume)`` over subregions."""
    if not coverages:
        raise ValueError("coverages must not be empty")
    total = 0.0
    for theta, volume in coverages:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        if volume <= 0:
            raise ValueError("data volume must be > 0")
        total += math.log(1.0 + mu * theta * volume)
    return total / len(coverages)


def owner_profit(
    coverages: Sequence[tuple[float, float]],
    rewards: Iterable[float],
    econ: EconomyParams,
) -> float:
    """Owner payoff: revenue from accuracy minus the rewards paid out."""
    rewards = list(rewards)
    if len(rewards) != len(coverages):
        raise ValueError(
            f"got {len(coverages)} coverages but {len(rewards)} rewards"
        )
    accuracy = model_accuracy(coverages, econ.mu)
    return econ.sigma * accuracy - sum(rewards)
