"""The cost and item records as the frozen dataclasses they used to be.

``CostVector`` and ``ContractItem`` are now validated named tuples, and
the ladder rung record is gone: a menu holds its upsilons as a column of
``ContractSchedule``, which keeps the rung's upsilon refusals (see
``test_records.py``). These copies of the dataclasses they replaced are the
reference that ``test_records.py`` holds them to: the same inputs
accepted and refused with the same message, the same fields, equality,
hash and repr. The classes sit at module level so that their
``__qualname__``, which the dataclass repr prints, is the bare class name,
and so that pickle can find them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_COST_FIELDS = ("alpha", "beta", "psi", "zeta")


@dataclass(frozen=True)
class CostVector:
    alpha: float
    beta: float
    psi: float
    zeta: float

    def __post_init__(self):
        values = (self.alpha, self.beta, self.psi, self.zeta)
        for name, v in zip(_COST_FIELDS, values):
            # one comparison chain per field: false for negatives, inf and NaN
            if not 0 <= v < math.inf:
                raise ValueError(f"cost vector field {name} must be finite and >= 0")


@dataclass(frozen=True)
class ContractItem:
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
