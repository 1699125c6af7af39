"""Physical, geometric, and training-cost model for UAV sensing tasks.

Every quantity the contract and matching layers consume is derived here
from first principles, for one (UAV, subregion) pair at a time:

* traversal and sensing flight time / energy, which is linear in the
  coverage fraction ``theta``: ``E = alpha * theta + psi``;
* on-board model-training time / energy over the training rounds, also
  linear in coverage: ``E = beta * theta``;
* parameter-upload time / energy, independent of coverage.

All functions are pure and all types are immutable after construction, so
values can be shared freely across threads. Units are metres, seconds,
joules, and watts throughout; data volume and upload size use whatever
data unit the scenario author picked, consistently per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

DEFAULT_THETA_HAT = 0.8


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class Position:
    """A point in 3-D space, metres. Coordinates must be finite."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        _require(
            all(math.isfinite(v) for v in (self.x, self.y, self.z)),
            "position coordinates must be finite",
        )

    def distance_to(self, other: "Position") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class Subregion:
    """A sensing area with a stipulated set of nodes to visit.

    ``full_distance`` is the route length that covers every node, so a
    coverage fraction ``theta`` corresponds to ``theta * full_distance``
    metres of sensing flight. ``data_volume`` is the data collected at
    full coverage. ``rate_factor`` scales a UAV's transmit power into an
    upload rate (dimensionless multiplier). ``deadline`` bounds the total
    task duration; it defaults to unconstrained.
    """

    id: str
    center: Position
    full_distance: float
    data_volume: float
    rate_factor: float
    deadline: float = math.inf
    nodes: tuple[Position, ...] | None = None

    def __post_init__(self):
        _require(self.full_distance > 0, f"subregion {self.id}: full_distance must be > 0")
        _require(self.data_volume > 0, f"subregion {self.id}: data_volume must be > 0")
        _require(self.rate_factor > 0, f"subregion {self.id}: rate_factor must be > 0")
        _require(self.deadline > 0, f"subregion {self.id}: deadline must be > 0")
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(self.nodes))


@dataclass(frozen=True)
class UavProfile:
    """Hardware parameters of one UAV.

    Propulsion is given either as a direct constant ``power`` in watts or
    as a coefficient pair ``power_coefficients = (c_drag, c_lift)`` from
    which the cruise power ``c_drag * v**3 + c_lift / v`` is computed.
    Exactly one of the two must be set.
    """

    id: str
    base: Position
    velocity: float
    cycles_per_bit: float
    cpu_frequency: float
    capacitance: float
    transmit_power: float
    power: float | None = None
    power_coefficients: tuple[float, float] | None = None
    energy_capacity: float = math.inf

    def __post_init__(self):
        tag = f"uav {self.id}"
        _require(self.velocity > 0, f"{tag}: velocity must be > 0")
        _require(self.cycles_per_bit > 0, f"{tag}: cycles_per_bit must be > 0")
        _require(self.cpu_frequency > 0, f"{tag}: cpu_frequency must be > 0")
        _require(self.capacitance > 0, f"{tag}: capacitance must be > 0")
        _require(self.transmit_power > 0, f"{tag}: transmit_power must be > 0")
        _require(self.energy_capacity > 0, f"{tag}: energy_capacity must be > 0")
        if (self.power is None) == (self.power_coefficients is None):
            raise ValueError(f"{tag}: set exactly one of power / power_coefficients")
        if self.power is not None:
            _require(self.power > 0, f"{tag}: power must be > 0")
        else:
            c1, c2 = self.power_coefficients
            object.__setattr__(self, "power_coefficients", (float(c1), float(c2)))
            _require(c1 >= 0 and c2 >= 0, f"{tag}: power coefficients must be >= 0")
            _require(c1 > 0 or c2 > 0, f"{tag}: power coefficients must not both be zero")


@dataclass(frozen=True)
class FlHyperParams:
    """Hyper-parameters of the collaborative training task.

    The loss is ``lipschitz``-smooth and ``strong_convexity``-strongly
    convex; ``local_accuracy`` in (0, 1) is the tolerated residual ratio
    of each local solve (larger means rougher local solutions). ``xi``
    and ``delta`` are step-size constants constrained so the derived
    iteration counts are positive and finite. ``update_size`` is the
    per-round upload, in the scenario's data units. ``rounds_override``
    pins the number of global rounds instead of deriving it.
    """

    lipschitz: float
    strong_convexity: float
    xi: float
    delta: float
    local_accuracy: float
    update_size: float
    rounds_override: int | None = None

    def __post_init__(self):
        _require(self.lipschitz > 0, "lipschitz must be > 0")
        _require(self.strong_convexity > 0, "strong_convexity must be > 0")
        _require(0 < self.local_accuracy < 1, "local_accuracy must be in (0, 1)")
        _require(
            0 < self.xi <= self.strong_convexity / self.lipschitz,
            "xi must satisfy 0 < xi <= strong_convexity / lipschitz",
        )
        _require(self.update_size > 0, "update_size must be > 0")
        if (2 - self.lipschitz * self.delta) * self.delta * self.strong_convexity <= 0:
            raise ValueError(
                "(2 - lipschitz*delta) * delta * strong_convexity must be > 0"
            )
        if self.rounds_override is not None:
            _require(self.rounds_override > 0, "rounds_override must be a positive integer")


_COST_FIELDS = ("alpha", "beta", "psi", "zeta", "traversal_time_full",
                "computation_time_full", "transmission_time")


@dataclass(frozen=True)
class CostVector:
    """Per-(UAV, subregion) cost quadruple plus full-coverage durations.

    ``alpha`` and ``beta`` are joules per unit coverage (sensing flight and
    computation); ``psi`` and ``zeta`` are the coverage-independent joules
    for base-to-subregion traversal and for parameter upload. Durations
    are seconds at full coverage. Declared-type vectors carry zero
    durations because no physical profile exists to derive them from.
    """

    alpha: float
    beta: float
    psi: float
    zeta: float
    traversal_time_full: float = 0.0
    computation_time_full: float = 0.0
    transmission_time: float = 0.0

    def __post_init__(self):
        values = (self.alpha, self.beta, self.psi, self.zeta, self.traversal_time_full,
                  self.computation_time_full, self.transmission_time)
        for name, v in zip(_COST_FIELDS, values):
            # one comparison chain per field: false for negatives, inf and NaN
            if not 0 <= v < math.inf:
                raise ValueError(f"cost vector field {name} must be finite and >= 0")

    @classmethod
    def declared(cls, alpha: float, beta: float, psi: float, zeta: float) -> "CostVector":
        """Wrap directly declared type values, passed through unchanged."""
        return cls(alpha=alpha, beta=beta, psi=psi, zeta=zeta)

    def energy(self, theta: float) -> float:
        """Total energy at coverage ``theta``: (alpha + beta) linear part plus fixed costs."""
        return self.alpha * theta + self.psi + self.beta * theta + self.zeta


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the screening a UAV runs before announcing its type."""

    time_ok: bool
    energy_ok: bool
    total_time: float
    total_energy: float

    @property
    def feasible(self) -> bool:
        return self.time_ok and self.energy_ok


class TraversalPhase(NamedTuple):
    duration: float
    energy: float
    alpha: float
    psi: float


class TrainingRounds(NamedTuple):
    local_iterations: float   # lower bound per round, before the accuracy factor
    round_scale: float        # numerator of the global-round count
    rounds: int


class ComputationPhase(NamedTuple):
    duration: float
    energy: float
    beta: float


class TransmissionPhase(NamedTuple):
    duration: float
    zeta: float


def propulsion_power(profile: UavProfile) -> float:
    """Cruise propulsion power in watts.

    Direct mode returns the declared constant; coefficient mode evaluates
    ``c_drag * v**3 + c_lift / v`` at the profile's cruise velocity.
    """
    if profile.power is not None:
        return profile.power
    c1, c2 = profile.power_coefficients
    p = c1 * profile.velocity**3 + c2 / profile.velocity
    if p <= 0:
        raise ValueError(f"uav {profile.id}: propulsion power must be > 0, got {p}")
    return p


def traversal_phase(theta: float, sub: Subregion, profile: UavProfile) -> TraversalPhase:
    """Flight time and energy to reach the subregion and sense a fraction of it.

    The flown distance is ``theta * full_distance + base_to_center`` and the
    energy decomposes exactly as ``alpha * theta + psi`` with
    ``alpha = p * full_distance / v`` and ``psi = p * base_to_center / v``.
    """
    _require(0.0 <= theta <= 1.0, f"theta must be in [0, 1], got {theta}")
    p = propulsion_power(profile)
    base_leg = profile.base.distance_to(sub.center)
    duration = (theta * sub.full_distance + base_leg) / profile.velocity
    alpha = p * sub.full_distance / profile.velocity
    psi = p * base_leg / profile.velocity
    return TraversalPhase(duration=duration, energy=alpha * theta + psi, alpha=alpha, psi=psi)


def fl_rounds(fl: FlHyperParams) -> TrainingRounds:
    """Iteration counts of the training task.

    The per-round local-iteration lower bound is
    ``2 / ((2 - L*delta) * delta * gamma)`` and the number of global rounds
    is ``ceil(round_scale / (1 - local_accuracy))`` with
    ``round_scale = 2 * L**2 / (gamma**2 * xi)``, unless overridden.
    """
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


def computation_phase(
    theta: float, sub: Subregion, profile: UavProfile, fl: FlHyperParams
) -> ComputationPhase:
    """On-board training time and energy for the data gathered at ``theta``.

    Both scale with the processed data ``theta * data_volume`` and the local
    iteration count; energy additionally scales with the square of the CPU
    frequency, time with its inverse. The energy is exactly
    ``beta * theta``.
    """
    _require(0.0 <= theta <= 1.0, f"theta must be in [0, 1], got {theta}")
    v_iter, _, rounds = fl_rounds(fl)
    work = fl.local_accuracy
    cycles_full = profile.cycles_per_bit * sub.data_volume * v_iter * math.log2(1.0 / work)
    duration = rounds * cycles_full * theta / profile.cpu_frequency
    beta = profile.capacitance * rounds * cycles_full * profile.cpu_frequency**2
    return ComputationPhase(duration=duration, energy=beta * theta, beta=beta)


def transmission_phase(sub: Subregion, profile: UavProfile, fl: FlHyperParams) -> TransmissionPhase:
    """Upload time and energy across all training rounds.

    The upload size per round is fixed, so neither quantity depends on the
    coverage fraction or the data volume; the transmit power cancels out of
    the energy, leaving ``zeta = rounds * update_size / rate_factor``.
    """
    _, _, rounds = fl_rounds(fl)
    duration = rounds * fl.update_size / (sub.rate_factor * profile.transmit_power)
    zeta = rounds * fl.update_size / sub.rate_factor
    return TransmissionPhase(duration=duration, zeta=zeta)


def derive_cost_vector(sub: Subregion, profile: UavProfile, fl: FlHyperParams) -> CostVector:
    """Compose the three phases into one cost record for this pair."""
    trav = traversal_phase(1.0, sub, profile)
    comp = computation_phase(1.0, sub, profile, fl)
    tx = transmission_phase(sub, profile, fl)
    return CostVector(
        alpha=trav.alpha,
        beta=comp.beta,
        psi=trav.psi,
        zeta=tx.zeta,
        traversal_time_full=trav.duration,
        computation_time_full=comp.duration,
        transmission_time=tx.duration,
    )


def check_feasibility(
    sub: Subregion,
    profile: UavProfile,
    fl: FlHyperParams,
    theta_hat: float = DEFAULT_THETA_HAT,
) -> FeasibilityReport:
    """Screen a UAV against the subregion's deadline and its own battery.

    Evaluated at the announced screening coverage ``theta_hat``; a UAV
    announces its type to the subregion only when both checks pass. Both
    inequalities are inclusive.
    """
    if not 0.0 < theta_hat <= 1.0:
        raise ValueError(f"theta_hat must be in (0, 1], got {theta_hat}")
    trav = traversal_phase(theta_hat, sub, profile)
    comp = computation_phase(theta_hat, sub, profile, fl)
    tx = transmission_phase(sub, profile, fl)
    total_time = trav.duration + comp.duration + tx.duration
    total_energy = trav.energy + comp.energy + tx.zeta
    return FeasibilityReport(
        time_ok=total_time <= sub.deadline,
        energy_ok=total_energy <= profile.energy_capacity,
        total_time=total_time,
        total_energy=total_energy,
    )
