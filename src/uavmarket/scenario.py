"""Scenario files: the package's one external input format.

A scenario is a single JSON document (UTF-8, ``format_version: 1``) that
declares the economy, the training task, the subregions, and the UAV
fleet. Unknown fields anywhere are errors so that fixtures double as
regression goldens. Validation collects every problem with its field
path before failing.

UAV entries come in two modes:

* ``"mode": "physical"`` gives hardware parameters; every cost is derived
  from them and the screening gate (deadline, battery) applies.
* ``"mode": "direct"`` declares the cost quadruple outright, globally or
  per subregion; such UAVs are assumed to satisfy the task constraints.
  The traversal cost may be left out and derived from ``base``,
  ``velocity``, and ``power`` instead.

Units are whatever the scenario author picked, used consistently within
the file; nothing is converted implicitly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .core import FlHyperParams, Position, Subregion, UavProfile
from .economics import EconomyParams
from .errors import ScenarioError
from .matching import CalibrationPolicy

FORMAT_VERSION = 1

_MISSING = object()


@dataclass(frozen=True)
class DirectUavTypes:
    """A UAV that announces declared cost values instead of hardware."""

    id: str
    alpha: float | Mapping[str, float]
    beta: float | Mapping[str, float]
    psi: float | Mapping[str, float] | None = None
    zeta: float | Mapping[str, float] = 0.0
    base: Position | None = None
    velocity: float | None = None
    power: float | None = None

    def value_for(self, name: str, sub_id: str) -> float:
        v = getattr(self, name)
        if isinstance(v, Mapping):
            return float(v[sub_id])
        return float(v)

    def psi_for(self, sub: Subregion) -> float:
        if self.psi is not None:
            return self.value_for("psi", sub.id)
        # derived traversal: fly the base-to-center leg at cruise power
        distance = self.base.distance_to(sub.center)
        return self.power * distance / self.velocity


@dataclass(frozen=True)
class RewardHatPolicy:
    """How the per-subregion fixed compensation is chosen.

    ``fixed`` uses an explicit value (one global or one per subregion);
    ``reference`` prices a reference traversal-and-upload cost pair at the
    scenario's energy price.
    """

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


@dataclass(frozen=True)
class Scenario:
    """A fully validated simulation input."""

    economy: EconomyParams
    fl: FlHyperParams
    subregions: tuple[Subregion, ...]
    uavs: tuple[UavProfile | DirectUavTypes, ...]
    theta_hat: float = 0.8
    reward_hat_policy: RewardHatPolicy = field(default_factory=RewardHatPolicy)
    calibration: CalibrationPolicy = field(default_factory=CalibrationPolicy)
    seed: int = 0

    def subregion(self, sub_id: str) -> Subregion:
        for sub in self.subregions:
            if sub.id == sub_id:
                return sub
        raise KeyError(sub_id)


def _number_error(raw: Any) -> str | None:
    """Why ``raw`` is not a finite JSON number, or None when it is one.

    Python's JSON reader accepts ``NaN``, ``Infinity`` and ``-Infinity``;
    they are rejected here so that they never reach the model as numbers.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return f"expected a number, got {type(raw).__name__}"
    try:
        finite = math.isfinite(raw)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        shown = repr(raw) if isinstance(raw, float) else "an out-of-range integer"
        return f"expected a finite number, got {shown}"
    return None


class _Node:
    """A mapping under validation: tracks consumed keys and problems."""

    def __init__(self, mapping: Mapping[str, Any], path: str, problems: list):
        self.mapping = mapping
        self.path = path
        self.problems = problems
        self._seen: set[str] = set()

    def error(self, message: str, key: str | None = None) -> None:
        where = f"{self.path}.{key}" if key else self.path
        self.problems.append((where, message))

    def take(self, key: str, default: Any = _MISSING) -> Any:
        self._seen.add(key)
        if key in self.mapping:
            return self.mapping[key]
        if default is _MISSING:
            self.error("required field is missing", key)
            return None
        return default

    def _absent(self, key: str, default: Any):
        """Handle a key that is not in the mapping; returns (handled, value)."""
        self._seen.add(key)
        if default is _MISSING:
            self.error("required field is missing", key)
            return None
        return default

    def number(self, key: str, default: Any = _MISSING) -> float | None:
        if key not in self.mapping:
            return self._absent(key, default)
        raw = self.take(key)
        problem = _number_error(raw)
        if problem:
            self.error(problem, key)
            return None
        return float(raw)

    def integer(self, key: str, default: Any = _MISSING) -> int | None:
        if key not in self.mapping:
            return self._absent(key, default)
        raw = self.take(key)
        if isinstance(raw, bool) or not isinstance(raw, int):
            self.error(f"expected an integer, got {type(raw).__name__}", key)
            return None
        return raw

    def string(self, key: str, default: Any = _MISSING) -> str | None:
        if key not in self.mapping:
            return self._absent(key, default)
        raw = self.take(key)
        if not isinstance(raw, str):
            self.error(f"expected a string, got {type(raw).__name__}", key)
            return None
        return raw

    def close(self) -> None:
        for key in sorted(set(self.mapping) - self._seen):
            self.problems.append((f"{self.path}.{key}", "unknown field"))


def _position(raw: Any, path: str, problems: list) -> Position | None:
    if (
        not isinstance(raw, (list, tuple))
        or not 2 <= len(raw) <= 3
        or any(_number_error(v) for v in raw)
    ):
        problems.append((path, "expected [x, y] or [x, y, z] finite numbers"))
        return None
    coords = [float(v) for v in raw] + [0.0] * (3 - len(raw))
    try:
        return Position(*coords)
    except ValueError as exc:
        problems.append((path, str(exc)))
        return None


def _number_or_map(node: _Node, key: str, sub_ids: list[str], default: Any = _MISSING):
    if key not in node.mapping:
        return node._absent(key, default)
    raw = node.take(key)
    if isinstance(raw, Mapping):
        out = {}
        for sub_id, v in raw.items():
            problem = _number_error(v)
            if problem:
                node.error(f"subregion {sub_id!r}: {problem}", key)
                return None
            out[str(sub_id)] = float(v)
        missing = [s for s in sub_ids if s not in out]
        unknown = [s for s in out if s not in sub_ids]
        if missing:
            node.error(f"missing value for subregion(s) {missing}", key)
        if unknown:
            node.error(f"unknown subregion id(s) {unknown}", key)
        return None if (missing or unknown) else out
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        node.error(f"expected a number or per-subregion map, got {type(raw).__name__}", key)
        return None
    problem = _number_error(raw)
    if problem:
        node.error(problem, key)
        return None
    return float(raw)


def scenario_from_dict(data: Any) -> Scenario:
    """Validate a parsed JSON document into a ``Scenario``.

    Raises ``ScenarioError`` carrying every violation found.
    """
    problems: list[tuple[str, str]] = []
    if not isinstance(data, Mapping):
        raise ScenarioError([("$", "top level must be a JSON object")])
    root = _Node(data, "$", problems)

    version = root.integer("format_version")
    if version is not None and version != FORMAT_VERSION:
        root.error(f"unsupported format_version {version}", "format_version")

    seed = root.integer("seed", 0)
    theta_hat = root.number("theta_hat", 0.8)
    if theta_hat is not None and not 0.0 < theta_hat <= 1.0:
        root.error("theta_hat must be in (0, 1]", "theta_hat")

    # subregions first: direct-type maps refer to their ids
    sub_raw = root.take("subregions")
    subregions: list[Subregion] = []
    sub_ids: list[str] = []
    if isinstance(sub_raw, list):
        if not sub_raw:
            root.error("at least one subregion is required", "subregions")
        for i, entry in enumerate(sub_raw):
            path = f"$.subregions[{i}]"
            if not isinstance(entry, Mapping):
                problems.append((path, "expected an object"))
                continue
            node = _Node(entry, path, problems)
            sid = node.string("id")
            center = _position(node.take("center"), f"{path}.center", problems)
            full_distance = node.number("full_distance")
            data_volume = node.number("data_volume")
            rate_factor = node.number("rate_factor")
            deadline = node.number("deadline", math.inf)
            nodes_raw = node.take("nodes", None)
            nodes = None
            if nodes_raw is not None:
                if not isinstance(nodes_raw, list):
                    node.error("expected a list of positions", "nodes")
                else:
                    parsed = [
                        _position(p, f"{path}.nodes[{k}]", problems)
                        for k, p in enumerate(nodes_raw)
                    ]
                    nodes = tuple(p for p in parsed if p is not None)
            node.close()
            if None in (sid, center, full_distance, data_volume, rate_factor, deadline):
                continue
            try:
                sub = Subregion(
                    id=sid,
                    center=center,
                    full_distance=full_distance,
                    data_volume=data_volume,
                    rate_factor=rate_factor,
                    deadline=deadline,
                    nodes=nodes,
                )
            except ValueError as exc:
                problems.append((path, str(exc)))
                continue
            if sid in sub_ids:
                problems.append((path, f"duplicate subregion id {sid!r}"))
                continue
            subregions.append(sub)
            sub_ids.append(sid)
    elif sub_raw is not None:
        root.error("expected a list", "subregions")

    economy = None
    econ_raw = root.take("economy")
    if isinstance(econ_raw, Mapping):
        node = _Node(econ_raw, "$.economy", problems)
        phi = node.number("phi")
        mu = node.number("mu")
        sigma = node.number("sigma")
        log_base = node.string("log_base", "natural")
        node.close()
        if None not in (phi, mu, sigma, log_base) and subregions:
            try:
                economy = EconomyParams(
                    phi=phi,
                    mu=mu,
                    sigma=sigma,
                    n_subregions=len(subregions),
                    log_base=log_base,
                )
            except ValueError as exc:
                problems.append(("$.economy", str(exc)))
    elif econ_raw is not None:
        root.error("expected an object", "economy")

    fl = None
    fl_raw = root.take("fl")
    if isinstance(fl_raw, Mapping):
        node = _Node(fl_raw, "$.fl", problems)
        kwargs = dict(
            lipschitz=node.number("lipschitz"),
            strong_convexity=node.number("strong_convexity"),
            xi=node.number("xi"),
            delta=node.number("delta"),
            local_accuracy=node.number("local_accuracy"),
            update_size=node.number("update_size"),
            rounds_override=node.integer("rounds_override", None),
        )
        node.close()
        if None not in (v for k, v in kwargs.items() if k != "rounds_override"):
            try:
                fl = FlHyperParams(**kwargs)
            except ValueError as exc:
                problems.append(("$.fl", str(exc)))
    elif fl_raw is not None:
        root.error("expected an object", "fl")

    policy_raw = root.take("reward_hat_policy", None)
    reward_policy = RewardHatPolicy()
    if isinstance(policy_raw, Mapping):
        node = _Node(policy_raw, "$.reward_hat_policy", problems)
        mode = node.string("mode", "fixed")
        if mode == "fixed":
            value = node.number("value", 0.0)
            values_raw = node.take("values", None)
            values = None
            if values_raw is not None:
                values = {}
                if not isinstance(values_raw, Mapping):
                    node.error("expected a map of subregion id to number", "values")
                    values = None
                else:
                    for sid, v in values_raw.items():
                        problem = _number_error(v)
                        if problem:
                            node.error(f"{sid!r}: {problem}", "values")
                        elif sid not in sub_ids:
                            node.error(f"unknown subregion id {sid!r}", "values")
                        else:
                            values[str(sid)] = float(v)
                    if values is not None and set(values) != set(sub_ids):
                        missing = sorted(set(sub_ids) - set(values))
                        if missing:
                            node.error(f"missing value for subregion(s) {missing}", "values")
            reward_policy = RewardHatPolicy(mode="fixed", value=value or 0.0, values=values)
        elif mode == "reference":
            psi_ref = node.number("psi_ref", 0.0)
            zeta_ref = node.number("zeta_ref", 0.0)
            reward_policy = RewardHatPolicy(
                mode="reference", psi_ref=psi_ref or 0.0, zeta_ref=zeta_ref or 0.0
            )
        else:
            node.error("mode must be 'fixed' or 'reference'", "mode")
        node.close()
    elif policy_raw is not None:
        root.error("expected an object", "reward_hat_policy")

    calibration = CalibrationPolicy()
    cal_raw = root.take("calibration", None)
    if isinstance(cal_raw, Mapping):
        node = _Node(cal_raw, "$.calibration", problems)
        kwargs = dict(
            delta_mode=node.string("delta_mode", "relative"),
            delta_value=node.number("delta_value", 0.01),
            max_rounds=node.integer("max_rounds", 500),
        )
        node.close()
        if None not in kwargs.values():
            try:
                calibration = CalibrationPolicy(**kwargs)
            except ValueError as exc:
                problems.append(("$.calibration", str(exc)))
    elif cal_raw is not None:
        root.error("expected an object", "calibration")

    uav_raw = root.take("uavs")
    uavs: list[UavProfile | DirectUavTypes] = []
    uav_ids: list[str] = []
    if isinstance(uav_raw, list):
        if not uav_raw:
            root.error("at least one uav is required", "uavs")
        for i, entry in enumerate(uav_raw):
            path = f"$.uavs[{i}]"
            if not isinstance(entry, Mapping):
                problems.append((path, "expected an object"))
                continue
            node = _Node(entry, path, problems)
            uid = node.string("id")
            mode = node.string("mode", "physical")
            parsed: UavProfile | DirectUavTypes | None = None
            if mode == "physical":
                base = _position(node.take("base"), f"{path}.base", problems)
                coeffs_raw = node.take("power_coefficients", None)
                coeffs = None
                if coeffs_raw is not None:
                    if (
                        not isinstance(coeffs_raw, list)
                        or len(coeffs_raw) != 2
                        or any(_number_error(v) for v in coeffs_raw)
                    ):
                        node.error(
                            "expected [c_drag, c_lift] finite numbers", "power_coefficients"
                        )
                    else:
                        coeffs = (float(coeffs_raw[0]), float(coeffs_raw[1]))
                kwargs = dict(
                    velocity=node.number("velocity"),
                    cycles_per_bit=node.number("cycles_per_bit"),
                    cpu_frequency=node.number("cpu_frequency"),
                    capacitance=node.number("capacitance"),
                    transmit_power=node.number("transmit_power"),
                    power=node.number("power", None),
                    energy_capacity=node.number("energy_capacity", math.inf),
                )
                node.close()
                required = (
                    uid,
                    base,
                    kwargs["velocity"],
                    kwargs["cycles_per_bit"],
                    kwargs["cpu_frequency"],
                    kwargs["capacitance"],
                    kwargs["transmit_power"],
                    kwargs["energy_capacity"],
                )
                if None not in required:
                    try:
                        parsed = UavProfile(
                            id=uid, base=base, power_coefficients=coeffs, **kwargs
                        )
                    except ValueError as exc:
                        problems.append((path, str(exc)))
            elif mode == "direct":
                alpha = _number_or_map(node, "alpha", sub_ids)
                beta = _number_or_map(node, "beta", sub_ids)
                psi = _number_or_map(node, "psi", sub_ids, None)
                zeta = _number_or_map(node, "zeta", sub_ids, 0.0)
                base_raw = node.take("base", None)
                base = (
                    _position(base_raw, f"{path}.base", problems)
                    if base_raw is not None
                    else None
                )
                velocity = node.number("velocity", None)
                power = node.number("power", None)
                node.close()
                ok = True
                if psi is None and None in (base, velocity, power):
                    problems.append(
                        (path, "direct mode needs psi, or base+velocity+power to derive it")
                    )
                    ok = False
                if velocity is not None and velocity <= 0:
                    problems.append((path, "velocity must be > 0"))
                    ok = False
                if power is not None and power <= 0:
                    problems.append((path, "power must be > 0"))
                    ok = False
                for name, value, strict in (
                    ("alpha", alpha, True),
                    ("beta", beta, True),
                    ("psi", psi, False),
                    ("zeta", zeta, False),
                ):
                    if value is None:
                        continue
                    entries = value.values() if isinstance(value, Mapping) else [value]
                    low = min(entries)
                    if strict and low <= 0:
                        problems.append((f"{path}.{name}", "must be > 0"))
                        ok = False
                    elif not strict and low < 0:
                        problems.append((f"{path}.{name}", "must be >= 0"))
                        ok = False
                if ok and None not in (uid, alpha, beta) and zeta is not None:
                    parsed = DirectUavTypes(
                        id=uid,
                        alpha=alpha,
                        beta=beta,
                        psi=psi,
                        zeta=zeta,
                        base=base,
                        velocity=velocity,
                        power=power,
                    )
            else:
                node.error("mode must be 'physical' or 'direct'", "mode")
                node.close()
            if parsed is None:
                continue
            if uid in uav_ids:
                problems.append((path, f"duplicate uav id {uid!r}"))
                continue
            uavs.append(parsed)
            uav_ids.append(uid)
    elif uav_raw is not None:
        root.error("expected a list", "uavs")

    root.close()
    if problems:
        raise ScenarioError(problems)
    return Scenario(
        economy=economy,
        fl=fl,
        subregions=tuple(subregions),
        uavs=tuple(uavs),
        theta_hat=theta_hat,
        reward_hat_policy=reward_policy,
        calibration=calibration,
        seed=seed,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [("$", f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")]
        ) from exc
    return scenario_from_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialise a scenario back to its file form.

    Omits fields that hold their defaults where the format allows, so a
    loaded file and a re-written one stay equivalent.
    """
    out: dict[str, Any] = {"format_version": FORMAT_VERSION, "seed": scenario.seed}
    out["theta_hat"] = scenario.theta_hat
    econ = scenario.economy
    out["economy"] = {"phi": econ.phi, "mu": econ.mu, "sigma": econ.sigma}
    if econ.log_base != "natural":
        out["economy"]["log_base"] = econ.log_base
    fl = scenario.fl
    out["fl"] = {
        "lipschitz": fl.lipschitz,
        "strong_convexity": fl.strong_convexity,
        "xi": fl.xi,
        "delta": fl.delta,
        "local_accuracy": fl.local_accuracy,
        "update_size": fl.update_size,
    }
    if fl.rounds_override is not None:
        out["fl"]["rounds_override"] = fl.rounds_override
    policy = scenario.reward_hat_policy
    if policy.mode == "reference":
        out["reward_hat_policy"] = {
            "mode": "reference",
            "psi_ref": policy.psi_ref,
            "zeta_ref": policy.zeta_ref,
        }
    elif policy.values is not None:
        out["reward_hat_policy"] = {"mode": "fixed", "values": dict(policy.values)}
    else:
        out["reward_hat_policy"] = {"mode": "fixed", "value": policy.value}
    cal = scenario.calibration
    out["calibration"] = {
        "delta_mode": cal.delta_mode,
        "delta_value": cal.delta_value,
        "max_rounds": cal.max_rounds,
    }
    out["subregions"] = []
    for sub in scenario.subregions:
        entry: dict[str, Any] = {
            "id": sub.id,
            "center": [sub.center.x, sub.center.y, sub.center.z],
            "full_distance": sub.full_distance,
            "data_volume": sub.data_volume,
            "rate_factor": sub.rate_factor,
        }
        if math.isfinite(sub.deadline):
            entry["deadline"] = sub.deadline
        if sub.nodes is not None:
            entry["nodes"] = [[p.x, p.y, p.z] for p in sub.nodes]
        out["subregions"].append(entry)
    out["uavs"] = []
    for uav in scenario.uavs:
        if isinstance(uav, UavProfile):
            entry = {
                "id": uav.id,
                "mode": "physical",
                "base": [uav.base.x, uav.base.y, uav.base.z],
                "velocity": uav.velocity,
                "cycles_per_bit": uav.cycles_per_bit,
                "cpu_frequency": uav.cpu_frequency,
                "capacitance": uav.capacitance,
                "transmit_power": uav.transmit_power,
            }
            if uav.power is not None:
                entry["power"] = uav.power
            else:
                entry["power_coefficients"] = list(uav.power_coefficients)
            if math.isfinite(uav.energy_capacity):
                entry["energy_capacity"] = uav.energy_capacity
        else:
            entry = {"id": uav.id, "mode": "direct"}
            for name in ("alpha", "beta", "psi", "zeta"):
                v = getattr(uav, name)
                if v is None:
                    continue
                entry[name] = dict(v) if isinstance(v, Mapping) else v
            if uav.base is not None:
                entry["base"] = [uav.base.x, uav.base.y, uav.base.z]
            if uav.velocity is not None:
                entry["velocity"] = uav.velocity
            if uav.power is not None:
                entry["power"] = uav.power
        out["uavs"].append(entry)
    return out


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n", encoding="utf-8"
    )


def fixture_path(name: str) -> Path:
    """Path of a bundled example scenario, e.g. ``fixture_path('fig6.scn')``."""
    return Path(resources.files("uavmarket").joinpath("fixtures", name))
