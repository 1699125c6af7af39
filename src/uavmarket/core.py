"""Physical, geometric, and training-cost model for UAV sensing tasks.

Every quantity the contract and matching layers consume is derived here
from first principles, per (UAV, subregion) pair:

* traversal and sensing flight time / energy, which is linear in the
  coverage fraction ``theta``: ``E = alpha * theta + psi``;
* on-board model-training time / energy over the training rounds, also
  linear in coverage: ``E = beta * theta``;
* parameter-upload time / energy, independent of coverage.

What depends on one side of a pair only is computed once, when that side
is built: ``FlHyperParams`` holds its ``TrainingRounds`` and ``UavProfile``
its cruise propulsion power and squared CPU frequency. Every per-pair
formula is written once, in ``_pair_terms``, which runs both on one
``Subregion`` of floats and on ``SubregionColumns`` of numpy arrays:
``check_feasibility`` screens one UAV against every subregion at once,
and ``derive_cost_vector`` prices one pair that passed. numpy rounds each
elementwise float64 operation as Python does, so the two see
bit-identical numbers.

All functions are pure and all types are immutable after construction, so
values can be shared freely across threads. ``CostVector``, made once per
announced pair, is a validated named tuple, cheaper to build than a frozen
dataclass. Units are metres, seconds, joules, and watts throughout; data
volume and upload size use whatever data unit the scenario author picked,
consistently per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_THETA_HAT = 0.8


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _validated_make(cls, iterable):
    """A validated named tuple's ``_make``: through ``__new__``, so ``_replace`` checks too."""
    return cls(*iterable)


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

    def __post_init__(self):
        _require(self.full_distance > 0, f"subregion {self.id}: full_distance must be > 0")
        _require(self.data_volume > 0, f"subregion {self.id}: data_volume must be > 0")
        _require(self.rate_factor > 0, f"subregion {self.id}: rate_factor must be > 0")
        _require(self.deadline > 0, f"subregion {self.id}: deadline must be > 0")


@dataclass(frozen=True)
class UavProfile:
    """Hardware parameters of one UAV.

    Propulsion is given either as a direct constant ``power`` in watts or
    as a coefficient pair ``power_coefficients = (c_drag, c_lift)`` from
    which the cruise power ``c_drag * v**3 + c_lift / v`` is computed.
    Exactly one of the two must be set. The resulting ``cruise_power`` and
    ``cpu_frequency_sq`` are computed once here and must be positive and
    finite.
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
    cruise_power: float = field(init=False, repr=False, compare=False)
    cpu_frequency_sq: float = field(init=False, repr=False, compare=False)

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
            p = self.power
        else:
            c1, c2 = (float(c) for c in self.power_coefficients)
            object.__setattr__(self, "power_coefficients", (c1, c2))
            _require(c1 >= 0 and c2 >= 0, f"{tag}: power coefficients must be >= 0")
            _require(c1 > 0 or c2 > 0, f"{tag}: power coefficients must not both be zero")
            try:
                p = c1 * self.velocity**3 + c2 / self.velocity
            except OverflowError:
                raise ValueError(f"{tag}: propulsion power overflows") from None
        # one comparison chain: false for <= 0 (0 also after an underflow), inf and NaN
        _require(0 < p < math.inf, f"{tag}: propulsion power must be finite and > 0, got {p}")
        object.__setattr__(self, "cruise_power", p)
        try:
            object.__setattr__(self, "cpu_frequency_sq", self.cpu_frequency**2)
        except OverflowError:
            raise ValueError(f"{tag}: cpu_frequency**2 overflows") from None


@dataclass(frozen=True)
class FlHyperParams:
    """Hyper-parameters of the collaborative training task.

    The loss is ``lipschitz``-smooth and ``strong_convexity``-strongly
    convex; ``local_accuracy`` in (0, 1) is the tolerated residual ratio
    of each local solve (larger means rougher local solutions). ``xi``
    and ``delta`` are step-size constants constrained so the derived
    iteration counts are positive and finite. ``update_size`` is the
    per-round upload, in the scenario's data units. ``rounds_override``
    pins the number of global rounds instead of deriving it. ``training``
    holds the task's ``fl_rounds``, computed once here.
    """

    lipschitz: float
    strong_convexity: float
    xi: float
    delta: float
    local_accuracy: float
    update_size: float
    rounds_override: int | None = None
    training: TrainingRounds = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require(self.lipschitz > 0, "lipschitz must be > 0")
        _require(self.strong_convexity > 0, "strong_convexity must be > 0")
        _require(0 < self.local_accuracy < 1, "local_accuracy must be in (0, 1)")
        _require(
            0 < self.xi <= self.strong_convexity / self.lipschitz,
            "xi must satisfy 0 < xi <= strong_convexity / lipschitz",
        )
        _require(self.update_size > 0, "update_size must be > 0")
        try:
            object.__setattr__(self, "training", fl_rounds(self))
        except (OverflowError, ZeroDivisionError):
            raise ValueError("the training-round counts overflow") from None
        if self.rounds_override is not None:
            _require(self.rounds_override > 0, "rounds_override must be a positive integer")


class _CostFields(NamedTuple):
    alpha: float
    beta: float
    psi: float
    zeta: float


class CostVector(_CostFields):
    """Per-(UAV, subregion) cost quadruple.

    ``alpha`` and ``beta`` are joules per unit coverage (sensing flight and
    computation); ``psi`` and ``zeta`` are the coverage-independent joules
    for base-to-subregion traversal and for parameter upload.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, alpha: float, beta: float, psi: float, zeta: float):
        # one comparison chain: false as soon as a field is negative, inf or NaN
        if not 0 <= alpha < math.inf > beta >= 0 <= psi < math.inf > zeta >= 0:
            values = (alpha, beta, psi, zeta)
            name = next(n for n, v in zip(cls._fields, values) if not 0 <= v < math.inf)
            raise ValueError(f"cost vector field {name} must be finite and >= 0")
        return tuple.__new__(cls, (alpha, beta, psi, zeta))


@dataclass(frozen=True)
class SubregionColumns:
    """The subregions' screening inputs, one column per field, in scenario order.

    ``centers`` holds each centre as an ``(x, y, z)`` tuple for
    ``math.dist``; the numeric fields are float64 arrays.
    """

    ids: tuple[str, ...]
    centers: tuple[tuple[float, float, float], ...]
    full_distance: np.ndarray
    data_volume: np.ndarray
    rate_factor: np.ndarray
    deadline: np.ndarray

    @classmethod
    def of(cls, subs: Sequence[Subregion]) -> SubregionColumns:
        def column(name):
            return np.array([getattr(sub, name) for sub in subs], dtype=float)

        return cls(
            ids=tuple(sub.id for sub in subs),
            centers=tuple((sub.center.x, sub.center.y, sub.center.z) for sub in subs),
            full_distance=column("full_distance"),
            data_volume=column("data_volume"),
            rate_factor=column("rate_factor"),
            deadline=column("deadline"),
        )


class FeasibilityReport(NamedTuple):
    """Outcome of the screening one UAV runs before announcing its type.

    Each field is a tuple with one plain Python value per subregion, in
    the order of the ``SubregionColumns`` screened against; ``passes``
    marks where both checks hold, so where the UAV announces.
    """

    time_ok: tuple[bool, ...]
    energy_ok: tuple[bool, ...]
    total_time: tuple[float, ...]
    total_energy: tuple[float, ...]
    passes: tuple[bool, ...]

    @property
    def feasible(self) -> bool:
        """Whether the UAV can announce to some subregion."""
        return any(self.passes)


class TrainingRounds(NamedTuple):
    local_iterations: float   # lower bound per round, before the accuracy factor
    round_scale: float        # numerator of the global-round count
    rounds: int


def fl_rounds(fl: FlHyperParams) -> TrainingRounds:
    """Iteration counts of the training task.

    The per-round local-iteration lower bound is
    ``2 / ((2 - L*delta) * delta * gamma)`` and the number of global rounds
    is ``ceil(round_scale / (1 - local_accuracy))`` with
    ``round_scale = 2 * L**2 / (gamma**2 * xi)``, unless overridden.
    ``FlHyperParams`` stores the result as ``fl.training``.
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


def _pair_terms(theta, sub, base_leg, profile: UavProfile, fl: FlHyperParams):
    """Every per-pair term of the cost model at coverage ``theta``, phase by phase.

    ``sub`` is a ``Subregion`` or ``SubregionColumns`` and ``base_leg``
    the matching base-to-centre distance, a float or an array; only
    ``full_distance``, ``data_volume`` and ``rate_factor`` are read, so
    the same operations, in the same order, give floats or columns.
    Returns the flat tuple ``(traversal duration, energy, alpha, psi,
    computation duration, energy, beta, transmission duration, zeta)``:
    slices ``[:4]``, ``[4:7]`` and ``[7:]`` are the traversal, computation
    and transmission phases. Traversal flies
    ``theta * full_distance + base_leg`` metres, so its energy is
    ``alpha * theta + psi`` with ``alpha = p * full_distance / v`` and
    ``psi = p * base_leg / v``.
    Training processes ``theta * data_volume`` over the local iterations of
    every round: time scales with the inverse CPU frequency, energy
    ``beta * theta`` with its square. The per-round upload is fixed, so
    transmission does not depend on coverage, and the transmit power
    cancels out of ``zeta = rounds * update_size / rate_factor``.
    """
    v = profile.velocity
    p = profile.cruise_power
    alpha = p * sub.full_distance / v
    psi = p * base_leg / v
    v_iter, _, rounds = fl.training
    cycles_full = (
        profile.cycles_per_bit * sub.data_volume * v_iter * math.log2(1.0 / fl.local_accuracy)
    )
    beta = profile.capacitance * rounds * cycles_full * profile.cpu_frequency_sq
    upload = rounds * fl.update_size
    return (
        (theta * sub.full_distance + base_leg) / v,
        alpha * theta + psi,
        alpha,
        psi,
        rounds * cycles_full * theta / profile.cpu_frequency,
        beta * theta,
        beta,
        upload / (sub.rate_factor * profile.transmit_power),
        upload / sub.rate_factor,
    )


def derive_cost_vector(sub: Subregion, profile: UavProfile, fl: FlHyperParams) -> CostVector:
    """Compose the three phases into one cost record for this pair."""
    base_leg = profile.base.distance_to(sub.center)
    _, _, alpha, psi, _, _, beta, _, zeta = _pair_terms(1.0, sub, base_leg, profile, fl)
    return CostVector(alpha, beta, psi, zeta)


def check_feasibility(
    subs: SubregionColumns,
    profile: UavProfile,
    fl: FlHyperParams,
    theta_hat: float = DEFAULT_THETA_HAT,
) -> FeasibilityReport:
    """Screen a UAV against every subregion's deadline and its own battery.

    Evaluated at the announced screening coverage ``theta_hat``; a UAV
    announces its type to a subregion only when both checks pass. Both
    inequalities are inclusive. An amount that overflows becomes ``inf``
    without a warning, as it does in Python float arithmetic; an upload
    rate ``rate_factor * transmit_power`` that underflows to 0 is a
    ``ValueError`` naming the first such subregion.
    """
    if not 0.0 < theta_hat <= 1.0:
        raise ValueError(f"theta_hat must be in (0, 1], got {theta_hat}")
    base = (profile.base.x, profile.base.y, profile.base.z)
    base_leg = np.array([math.dist(base, center) for center in subs.centers])
    with np.errstate(all="ignore"):
        rate = subs.rate_factor * profile.transmit_power
        if not rate.all():
            sub_id = subs.ids[int(np.argmin(rate))]
            raise ValueError(f"subregion {sub_id!r}: rate_factor * transmit_power underflows to 0")
        trav_time, trav_energy, _, _, comp_time, comp_energy, _, tx_time, zeta = _pair_terms(
            theta_hat, subs, base_leg, profile, fl
        )
        total_time = trav_time + comp_time + tx_time
        total_energy = trav_energy + comp_energy + zeta
        time_ok = total_time <= subs.deadline
        energy_ok = total_energy <= profile.energy_capacity
    return FeasibilityReport(
        time_ok=tuple(time_ok.tolist()),
        energy_ok=tuple(energy_ok.tolist()),
        total_time=tuple(total_time.tolist()),
        total_energy=tuple(total_energy.tolist()),
        passes=tuple((time_ok & energy_ok).tolist()),
    )
