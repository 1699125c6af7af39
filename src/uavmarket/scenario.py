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

The loader resolves what the market reads once: a declared UAV becomes
one cost vector per subregion, and the reward policy becomes one fixed
reward per subregion.

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

from .core import (
    DEFAULT_THETA_HAT,
    CostVector,
    FlHyperParams,
    Position,
    Subregion,
    UavProfile,
)
from .economics import EconomyParams
from .errors import ScenarioError
from .matching import CalibrationPolicy

FORMAT_VERSION = 1

_MISSING = object()


@dataclass(frozen=True)
class DirectUavTypes:
    """A UAV that announces declared cost values instead of hardware.

    ``costs`` maps each subregion id, in the scenario's subregion order,
    to the cost vector the UAV announces there.
    """

    id: str
    costs: Mapping[str, CostVector]


@dataclass(frozen=True)
class Scenario:
    """A fully validated simulation input."""

    economy: EconomyParams
    fl: FlHyperParams
    subregions: tuple[Subregion, ...]
    uavs: tuple[UavProfile | DirectUavTypes, ...]
    # the fixed reward of each subregion's menu, in subregion order
    reward_hats: Mapping[str, float]
    theta_hat: float = DEFAULT_THETA_HAT
    calibration: CalibrationPolicy = field(default_factory=CalibrationPolicy)
    seed: int = 0


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

    def number(self, key: str, default: Any = _MISSING) -> float | None:
        if key not in self.mapping:
            return self.take(key, default)
        raw = self.take(key)
        problem = _number_error(raw)
        if problem:
            self.error(problem, key)
            return None
        return float(raw)

    def integer(self, key: str, default: Any = _MISSING) -> int | None:
        if key not in self.mapping:
            return self.take(key, default)
        raw = self.take(key)
        if isinstance(raw, bool) or not isinstance(raw, int):
            self.error(f"expected an integer, got {type(raw).__name__}", key)
            return None
        return raw

    def string(self, key: str, default: Any = _MISSING) -> str | None:
        if key not in self.mapping:
            return self.take(key, default)
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


def _reward_number(node: _Node, key: str) -> float | None:
    """A ``reward_hat_policy`` number: optional, 0 by default, never below 0.

    A negative fixed reward could push an item's total reward below 0.
    """
    value = node.number(key, 0.0)
    if value is not None and value < 0:
        node.error("must be >= 0", key)
    return value


def _subregion_map(node: _Node, key: str, raw: Mapping, sub_ids: list[str]):
    """A map with one finite number per subregion, in subregion order, or None."""
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
    return None if (missing or unknown) else {s: out[s] for s in sub_ids}


def _number_or_map(node: _Node, key: str, sub_ids: list[str], default: Any = _MISSING):
    if key not in node.mapping:
        return node.take(key, default)
    raw = node.take(key)
    if isinstance(raw, Mapping):
        return _subregion_map(node, key, raw, sub_ids)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        node.error(f"expected a number or per-subregion map, got {type(raw).__name__}", key)
        return None
    problem = _number_error(raw)
    if problem:
        node.error(problem, key)
        return None
    return float(raw)


def _reward_values(node: _Node, sub_ids: list[str]) -> dict[str, float] | None:
    """The optional per-subregion ``values`` of a fixed reward policy."""
    raw = node.take("values", None)
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        node.error("expected a map of subregion id to number", "values")
        return None
    values = _subregion_map(node, "values", raw, sub_ids)
    if values is None:
        return None
    negative = [sid for sid, v in values.items() if v < 0]
    for sid in negative:
        node.error(f"{sid!r}: must be >= 0", "values")
    return None if negative else values


def _declared_costs(
    path: str, fields: dict, flight: tuple, subregions: list[Subregion], problems: list
) -> dict[str, CostVector] | None:
    """A declared UAV's cost vector for each subregion, in subregion order.

    ``fields`` holds alpha, beta, psi and zeta, each a number or a map in
    subregion order; a psi of None is derived from ``flight`` = (base,
    velocity, power) as the base-to-centre leg flown at cruise power.
    """
    base, velocity, power = flight

    def column(value) -> list:
        if value is None:
            return [power * base.distance_to(s.center) / velocity for s in subregions]
        return list(value.values()) if isinstance(value, Mapping) else [value] * len(subregions)

    costs = {}
    for sub, *values in zip(subregions, *map(column, fields.values())):
        try:
            costs[sub.id] = CostVector(*values)
        except ValueError as exc:
            problems.append((path, f"subregion {sub.id!r}: {exc}"))
            return None
    return costs


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
    theta_hat = root.number("theta_hat", DEFAULT_THETA_HAT)
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
            kwargs = dict(
                id=node.string("id"),
                center=_position(node.take("center"), f"{path}.center", problems),
                full_distance=node.number("full_distance"),
                data_volume=node.number("data_volume"),
                rate_factor=node.number("rate_factor"),
                deadline=node.number("deadline", math.inf),
            )
            node.close()
            if None in kwargs.values():
                continue
            try:
                sub = Subregion(**kwargs)
            except ValueError as exc:
                problems.append((path, str(exc)))
                continue
            sid = sub.id
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
        node.close()
        if None not in (phi, mu, sigma) and subregions:
            try:
                economy = EconomyParams(phi, mu, sigma, n_subregions=len(subregions))
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
    reward_hats = dict.fromkeys(sub_ids, 0.0)
    if isinstance(policy_raw, Mapping):
        node = _Node(policy_raw, "$.reward_hat_policy", problems)
        mode = node.string("mode", "fixed")
        if mode == "fixed":
            value = _reward_number(node, "value")
            values = _reward_values(node, sub_ids)
            if values is not None:
                reward_hats = values
            elif value is not None:
                reward_hats = dict.fromkeys(sub_ids, value)
        elif mode == "reference":
            # a reference traversal-and-upload cost pair at the energy price
            psi_ref = _reward_number(node, "psi_ref")
            zeta_ref = _reward_number(node, "zeta_ref")
            if None not in (economy, psi_ref, zeta_ref):
                reward_hats = dict.fromkeys(sub_ids, economy.phi * (psi_ref + zeta_ref))
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
            delta_mode=node.string("delta_mode", calibration.delta_mode),
            delta_value=node.number("delta_value", calibration.delta_value),
            max_rounds=node.integer("max_rounds", calibration.max_rounds),
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
                required = [v for k, v in kwargs.items() if k != "power"]
                if None not in (uid, base, *required):
                    try:
                        parsed = UavProfile(
                            id=uid, base=base, power_coefficients=coeffs, **kwargs
                        )
                    except ValueError as exc:
                        problems.append((path, str(exc)))
            elif mode == "direct":
                fields = {
                    name: _number_or_map(node, name, sub_ids, default)
                    for name, default in (
                        ("alpha", _MISSING), ("beta", _MISSING), ("psi", None), ("zeta", 0.0)
                    )
                }
                base_raw = node.take("base", None)
                base = None if base_raw is None else _position(base_raw, f"{path}.base", problems)
                flight = (base, node.number("velocity", None), node.number("power", None))
                node.close()
                found = len(problems)
                if fields["psi"] is None and None in flight:
                    problems.append(
                        (path, "direct mode needs psi, or base+velocity+power to derive it")
                    )
                for name, value in zip(("velocity", "power"), flight[1:]):
                    if value is not None and value <= 0:
                        problems.append((path, f"{name} must be > 0"))
                for name, value in fields.items():
                    if value is None:
                        continue
                    low = min(value.values() if isinstance(value, Mapping) else [value])
                    if name in ("alpha", "beta") and low <= 0:
                        problems.append((f"{path}.{name}", "must be > 0"))
                    elif low < 0:
                        problems.append((f"{path}.{name}", "must be >= 0"))
                required = (uid, fields["alpha"], fields["beta"], fields["zeta"])
                if len(problems) == found and None not in required:
                    costs = _declared_costs(path, fields, flight, subregions, problems)
                    if costs is not None:
                        parsed = DirectUavTypes(id=uid, costs=costs)
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
        reward_hats=reward_hats,
        theta_hat=theta_hat,
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


def fixture_path(name: str) -> Path:
    """Path of a bundled example scenario, e.g. ``fixture_path('fig6.scn')``."""
    return Path(resources.files("uavmarket").joinpath("fixtures", name))
