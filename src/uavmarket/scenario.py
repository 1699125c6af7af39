"""Scenario files: the package's one external input format.

A scenario is a single JSON document (UTF-8, ``format_version: 1``) that
declares the economy, the training task, the subregions, and the UAV
fleet. Unknown fields anywhere are errors so that fixtures double as
regression goldens. Validation collects every problem with its field
path before failing, and reports each problem once.

The validator walks the document with one rule per kind of thing it
reads: ``read`` takes a typed field (number, integer, string, position,
coefficient pair), ``child`` an object section, ``entries`` each object
of a list section, and ``build`` makes a record from the values read,
reporting the record's own ``ValueError`` at the object's path. A file
that cannot be read, decoded or parsed fails at ``$``, and a key that
one object repeats fails at its own path.

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
from collections import Counter
from collections.abc import Iterator, Mapping
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


class _JsonObject(dict):
    """A parsed JSON object that lists the keys it repeats; each keeps its last value."""

    duplicates: tuple[str, ...] = ()

    def __init__(self, pairs=()):
        super().__init__(pairs)
        if len(self) < len(pairs):
            self.duplicates = tuple(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)


def _number_error(raw: Any) -> str | None:
    """Why ``raw`` is not a finite JSON number, or None when it is one.

    Python's JSON reader accepts ``NaN``, ``Infinity`` and ``-Infinity``;
    they are rejected here so that they never reach the model as numbers.
    """
    if type(raw) is float and -math.inf < raw < math.inf:  # the common case, first
        return None
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


def _expect(kind: type, message: str):
    """A ``problem`` rule: ``message``, given the value's type name, unless it is a ``kind``."""

    def problem(raw: Any) -> str | None:
        if isinstance(raw, bool) or not isinstance(raw, kind):
            return message.format(type(raw).__name__)
        return None

    return problem


_integer_error = _expect(int, "expected an integer, got {}")
_string_error = _expect(str, "expected a string, got {}")
_object_error = _expect(Mapping, "expected an object")
_list_error = _expect(list, "expected a list")
_values_error = _expect(Mapping, "expected a map of subregion id to number")


def _count_error(raw: Any) -> str | None:
    """Why ``raw`` is not an integer that converts to a float, or None."""
    return _integer_error(raw) or _number_error(raw)


def _position_error(raw: Any) -> str | None:
    if not isinstance(raw, (list, tuple)) or not 2 <= len(raw) <= 3 or any(map(_number_error, raw)):
        return "expected [x, y] or [x, y, z] finite numbers"
    return None


def _pair_error(raw: Any) -> str | None:
    if not isinstance(raw, list) or len(raw) != 2 or any(map(_number_error, raw)):
        return "expected [c_drag, c_lift] finite numbers"
    return None


def _cost_error(raw: Any) -> str | None:
    if isinstance(raw, Mapping):
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return f"expected a number or per-subregion map, got {type(raw).__name__}"
    return _number_error(raw)


def _position(raw: list) -> Position:
    return Position(*map(float, raw))  # z defaults to 0


def _same(raw: Any) -> Any:
    return raw


class _Node:
    """A JSON object under validation: tracks consumed keys and problems.

    There is one rule per kind of thing the loader reads: ``read`` a
    typed field, ``child`` an object section, ``entries`` the objects of
    a list section, and ``build`` a record from the values read.
    """

    def __init__(self, mapping: Mapping[str, Any], path: str, problems: list):
        self.mapping = mapping
        self.path = path
        self.problems = problems
        self._seen: set[str] = set()

    def error(self, message: str, key: str | None = None) -> None:
        where = f"{self.path}.{key}" if key else self.path
        self.problems.append((where, message))

    def read(self, key: str, default: Any = _MISSING, problem=_number_error, convert=float) -> Any:
        """``convert`` of the value at ``key``, or ``default`` when it is absent.

        A missing required value, or a value that ``problem`` finds at
        fault, is reported at the key's path and read as None.
        """
        self._seen.add(key)
        if key not in self.mapping:
            if default is _MISSING:
                self.error("required field is missing", key)
                return None
            return default
        raw = self.mapping[key]
        message = problem(raw)
        if message:
            self.error(message, key)
            return None
        return convert(raw)

    def integer(self, key: str, default: Any = _MISSING) -> int | None:
        return self.read(key, default, _integer_error, int)

    def string(self, key: str, default: Any = _MISSING) -> str | None:
        return self.read(key, default, _string_error, str)

    def child(self, key: str, default: Any = _MISSING) -> _Node | None:
        """The object section at ``key``, read as ``default`` when absent, or None."""
        raw = self.read(key, default, _object_error, _same)
        return None if raw is None else _Node(raw, f"{self.path}.{key}", self.problems)

    def entries(self, key: str, what: str) -> Iterator[_Node]:
        """A node for each object in the required, non-empty list at ``key``."""
        raw = self.read(key, _MISSING, _list_error, _same)
        if raw is None:
            return
        if not raw:
            self.error(f"at least one {what} is required", key)
        for i, entry in enumerate(raw):
            path = f"{self.path}.{key}[{i}]"
            if isinstance(entry, Mapping):
                yield _Node(entry, path, self.problems)
            else:
                self.problems.append((path, "expected an object"))

    def build(self, cls, optional=(), **kwargs):
        """Close the node, then ``cls(**kwargs)`` once every value parsed.

        An ``optional`` value may be absent instead; one that is present
        but failed to parse blocks the record, as a required one does, so
        that a bad field draws its own message only. A ``ValueError`` from
        the constructor is reported at the node's path.
        """
        self.close()
        if any(
            value is None and (key not in optional or key in self.mapping)
            for key, value in kwargs.items()
        ):
            return None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            self.error(str(exc))
            return None

    def close(self) -> None:
        for key in getattr(self.mapping, "duplicates", ()):
            self.error("duplicate key", key)
        for key in sorted(set(self.mapping) - self._seen):
            self.problems.append((f"{self.path}.{key}", "unknown field"))


def _subregion_column(node: _Node, key: str, raw: Mapping, subs: Mapping) -> list[float] | None:
    """A map's finite number for each subregion, in subregion order, or None."""
    for sub_id in getattr(raw, "duplicates", ()):
        node.error("duplicate key", f"{key}.{sub_id}")
    values = {}
    for sub_id, v in raw.items():
        problem = _number_error(v)
        if problem:
            node.error(f"subregion {sub_id!r}: {problem}", key)
            return None
        values[str(sub_id)] = float(v)
    missing = [s for s in subs if s not in values]
    unknown = [s for s in values if s not in subs]
    if missing:
        node.error(f"missing value for subregion(s) {missing}", key)
    if unknown:
        node.error(f"unknown subregion id(s) {unknown}", key)
    return None if (missing or unknown) else [values[s] for s in subs]


def _cost_column(node: _Node, key: str, default: Any, subs: Mapping) -> list[float] | None:
    """A declared cost, a number or a per-subregion map, as one value per subregion."""
    raw = node.read(key, default, _cost_error, _same)
    if isinstance(raw, Mapping):
        return _subregion_column(node, key, raw, subs)
    # a number is every subregion's value; with no subregion parsed, one copy
    # still carries it to the sign check
    return None if raw is None else [float(raw)] * max(len(subs), 1)


def _reward_number(node: _Node, key: str) -> float | None:
    """A ``reward_hat_policy`` number: optional, 0 by default, never below 0.

    A negative fixed reward could push an item's total reward below 0.
    """
    value = node.read(key, 0.0)
    if value is not None and value < 0:
        node.error("must be >= 0", key)
    return value


def _reward_values(node: _Node, subs: Mapping) -> dict[str, float] | None:
    """The optional per-subregion ``values`` of a fixed reward policy."""
    raw = node.read("values", None, _values_error, _same)
    column = None if raw is None else _subregion_column(node, "values", raw, subs)
    if column is None:
        return None
    negative = [sid for sid, v in zip(subs, column) if v < 0]
    for sid in negative:
        node.error(f"{sid!r}: must be >= 0", "values")
    return None if negative else dict(zip(subs, column))


def _declared_uav(node: _Node, uid: str | None, subs: Mapping) -> DirectUavTypes | None:
    """A direct-mode UAV, each declared cost read as one column over the subregions.

    An omitted psi is derived from ``base``, ``velocity`` and ``power``
    as the base-to-centre leg flown at cruise power.
    """
    columns = {
        name: _cost_column(node, name, default, subs)
        for name, default in (
            ("alpha", _MISSING), ("beta", _MISSING), ("psi", None), ("zeta", 0.0)
        )
    }
    base = node.read("base", None, _position_error, _position)
    velocity, power = node.read("velocity", None), node.read("power", None)
    node.close()
    found = len(node.problems)
    # psi, or what derives it; only an absent field draws the record's message
    derived = "psi" not in node.mapping
    source = (base, velocity, power) if derived else (columns["psi"],)
    if derived and not {"base", "velocity", "power"} <= node.mapping.keys():
        node.error("direct mode needs psi, or base+velocity+power to derive it")
    for name, value in (("velocity", velocity), ("power", power)):
        if value is not None and value <= 0:
            node.error(f"{name} must be > 0")
    for name, column in columns.items():
        if not column:  # unreadable or derived, or an empty map
            continue
        low = min(column)
        if name in ("alpha", "beta") and low <= 0:
            node.error("must be > 0", name)
        elif low < 0:
            node.error("must be >= 0", name)
    required = (uid, columns["alpha"], columns["beta"], columns["zeta"], *source)
    if len(node.problems) > found or None in required:
        return None
    if derived:
        columns["psi"] = [power * base.distance_to(s.center) / velocity for s in subs.values()]
    costs = {}
    for sub_id, *values in zip(subs, *columns.values()):
        try:
            costs[sub_id] = CostVector(*values)
        except ValueError as exc:
            node.error(f"subregion {sub_id!r}: {exc}")
            return None
    return DirectUavTypes(id=uid, costs=costs)


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
    if seed is not None and seed < 0:
        root.error("must be >= 0", "seed")
    theta_hat = root.read("theta_hat", DEFAULT_THETA_HAT)
    if theta_hat is not None and not 0.0 < theta_hat <= 1.0:
        root.error("theta_hat must be in (0, 1]", "theta_hat")

    # subregions first: direct-type maps refer to their ids
    subs: dict[str, Subregion] = {}
    for node in root.entries("subregions", "subregion"):
        sub = node.build(
            Subregion,
            id=node.string("id"),
            center=node.read("center", _MISSING, _position_error, _position),
            full_distance=node.read("full_distance"),
            data_volume=node.read("data_volume"),
            rate_factor=node.read("rate_factor"),
            deadline=node.read("deadline", math.inf),
        )
        if sub is not None and sub.id in subs:
            node.error(f"duplicate subregion id {sub.id!r}")
        elif sub is not None:
            subs[sub.id] = sub

    economy = None
    node = root.child("economy")
    if node is not None:
        economy = node.build(
            EconomyParams,
            phi=node.read("phi"),
            mu=node.read("mu"),
            sigma=node.read("sigma"),
            n_subregions=len(subs) or None,
        )

    fl = None
    node = root.child("fl")
    if node is not None:
        fl = node.build(
            FlHyperParams,
            optional=("rounds_override",),
            lipschitz=node.read("lipschitz"),
            strong_convexity=node.read("strong_convexity"),
            xi=node.read("xi"),
            delta=node.read("delta"),
            local_accuracy=node.read("local_accuracy"),
            update_size=node.read("update_size"),
            rounds_override=node.read("rounds_override", None, _count_error, int),
        )

    reward_hats = dict.fromkeys(subs, 0.0)
    node = root.child("reward_hat_policy", {})
    if node is not None:
        mode = node.string("mode", "fixed")
        if mode == "fixed":
            if "value" in node.mapping and "values" in node.mapping:
                node.error("give value or values, not both")
            value = _reward_number(node, "value")
            values = _reward_values(node, subs)
            if values is not None:
                reward_hats = values
            elif value is not None:
                reward_hats = dict.fromkeys(subs, value)
        elif mode == "reference":
            # a reference traversal-and-upload cost pair at the energy price
            psi_ref = _reward_number(node, "psi_ref")
            zeta_ref = _reward_number(node, "zeta_ref")
            if None not in (economy, psi_ref, zeta_ref):
                reward_hats = dict.fromkeys(subs, economy.phi * (psi_ref + zeta_ref))
        elif mode is not None:
            node.error("mode must be 'fixed' or 'reference'", "mode")
        node.close()

    calibration = CalibrationPolicy()
    node = root.child("calibration", {})
    if node is not None:
        calibration = node.build(
            CalibrationPolicy,
            delta_mode=node.string("delta_mode", calibration.delta_mode),
            delta_value=node.read("delta_value", calibration.delta_value),
            max_rounds=node.integer("max_rounds", calibration.max_rounds),
        )

    uavs: dict[str, UavProfile | DirectUavTypes] = {}
    for node in root.entries("uavs", "uav"):
        uid = node.string("id")
        mode = node.string("mode", "physical")
        parsed: UavProfile | DirectUavTypes | None = None
        if mode == "physical":
            parsed = node.build(
                UavProfile,
                optional=("power", "power_coefficients"),
                id=uid,
                base=node.read("base", _MISSING, _position_error, _position),
                power_coefficients=node.read("power_coefficients", None, _pair_error, tuple),
                velocity=node.read("velocity"),
                cycles_per_bit=node.read("cycles_per_bit"),
                cpu_frequency=node.read("cpu_frequency"),
                capacitance=node.read("capacitance"),
                transmit_power=node.read("transmit_power"),
                power=node.read("power", None),
                energy_capacity=node.read("energy_capacity", math.inf),
            )
        elif mode == "direct":
            parsed = _declared_uav(node, uid, subs)
        else:
            if mode is not None:
                node.error("mode must be 'physical' or 'direct'", "mode")
            node.close()
        if parsed is not None and uid in uavs:
            node.error(f"duplicate uav id {uid!r}")
        elif parsed is not None:
            uavs[uid] = parsed

    root.close()
    if problems:
        raise ScenarioError(problems)
    return Scenario(
        economy=economy,
        fl=fl,
        subregions=tuple(subs.values()),
        uavs=tuple(uavs.values()),
        reward_hats=reward_hats,
        theta_hat=theta_hat,
        calibration=calibration,
        seed=seed,
    )


def read_document(path: str | Path) -> Any:
    """Parse a scenario file's JSON, unvalidated.

    A file that cannot be read or decoded as UTF-8, and a syntax error,
    fail at ``$``; a repeated key is left for the validator to report.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError([("$", f"cannot read {path}: {exc.strerror or exc}")]) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError([("$", f"cannot read {path}: {exc}")]) from exc
    try:
        return json.loads(text, object_pairs_hook=_JsonObject)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [("$", f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")]
        ) from exc


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    return scenario_from_dict(read_document(path))


def fixture_path(name: str) -> Path:
    """Path of a bundled example scenario, e.g. ``fixture_path('fig6.scn')``."""
    return Path(resources.files("uavmarket").joinpath("fixtures", name))
