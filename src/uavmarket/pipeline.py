"""Scenario execution: contract runs, matching runs, verification, sweeps.

This is the glue between a validated ``Scenario`` and the model layers.
One market pass makes one ``RunReport``: ``prepare`` screens the fleet,
collects the announcements and builds one contract menu per subregion;
``run_match`` runs deferred acceptance on those menus and fills in the
preferences, the match, its stability audit and the owner's profit.
``run_verify`` and ``run_sweep`` read the report; the ``run_*`` entry
points also emit deterministic CSV artifacts.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .contract import ContractSchedule, build_schedule, marginal_cost, optimal_coverage
from .core import (
    CostVector,
    FeasibilityReport,
    SubregionColumns,
    UavProfile,
    check_feasibility,
    derive_cost_vector,
)
from .economics import model_accuracy, owner_profit
from .errors import OptionError, ScenarioError
from .matching import (
    Market,
    MatchState,
    PreferenceList,
    build_subregion_preferences,
    build_uav_preferences,
    gs_match,
    stability_audit,
)
from .scenario import Scenario, scenario_from_dict
from .verification import (
    MAX_ENUM_SIZE,
    RANDOM_DRAWS,
    diagonal_dominant,
    enumerate_stable_matchings,
    grid_oracle_coverage,
    ic_matrix,
    is_subregion_optimal,
    random_coverage_draw,
)


@dataclass
class RunReport:
    """One market pass: the screen, the menus, and (after ``run_match``) the match.

    ``feasibility`` maps each physical UAV to its screening report, whose
    fields run over ``scenario.subregions`` in order. ``published`` holds
    the menus as built and ``schedules`` the menus as paid; the two differ
    only after a calibration event.
    """

    scenario: Scenario
    feasibility: dict[str, FeasibilityReport]
    published: dict[str, ContractSchedule]
    schedules: dict[str, ContractSchedule]
    sub_prefs: dict[str, PreferenceList] = field(default_factory=dict)
    # UAV lists at the rewards paid after calibration, and at the menus
    # as published; the two differ only after a calibration event
    uav_prefs: dict[str, PreferenceList] = field(default_factory=dict)
    published_uav_prefs: dict[str, PreferenceList] = field(default_factory=dict)
    match: MatchState | None = None
    blocking_pairs: list[tuple[str, str]] = field(default_factory=list)
    owner_profit: float | None = None


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    magnitude: float
    detail: str = ""


@dataclass
class VerifyReport:
    seed: int
    checks: list[VerifyCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def prepare(scenario: Scenario) -> RunReport:
    """Screen the fleet, gather announcements, and build every menu.

    Physical UAVs run the time/energy gate at the scenario's screening
    coverage and announce only where they pass; declared-type UAVs carry
    the cost vectors the loader resolved and are assumed feasible
    everywhere. The report returned holds each menu both as published
    and as paid; ``run_match`` replaces the paid ones.

    Finite inputs that multiply out to an amount that is not finite fail
    here, so that no artifact holds ``nan`` or ``inf``: a bad cost vector,
    marginal cost or upload rate on its UAV, a data scale
    ``mu * data_volume`` that is not a finite normal float on its
    subregion, a menu's top reward on the reward policy, and the owner
    revenue at a menu's top coverage on the economy. Each pair's marginal
    cost is priced as it announces, so a bad one is reported at the first
    UAV and subregion in announcement order, before any menu is built.
    """
    econ = scenario.economy
    subs = scenario.subregions
    feasibility: dict[str, FeasibilityReport] = {}
    announcements: dict[str, dict[str, CostVector]] = {s.id: {} for s in subs}
    schedules: dict[str, ContractSchedule] = {}
    columns = None  # built for the first physical UAV, if there is one
    for i, uav in enumerate(scenario.uavs):
        physical = isinstance(uav, UavProfile)
        announcing = subs
        if physical:
            if columns is None:
                columns = SubregionColumns.of(subs)
            try:
                report = feasibility[uav.id] = check_feasibility(
                    columns, uav, scenario.fl, scenario.theta_hat
                )
            except ValueError as exc:
                raise ScenarioError([(f"$.uavs[{i}]", str(exc))]) from None
            announcing = itertools.compress(subs, report.passes)
        # a pair that fails the screen never announces, so its cost vector
        # is derived, and its marginal cost priced, only once it passes
        for sub in announcing:
            try:
                costs = derive_cost_vector(sub, uav, scenario.fl) if physical else uav.costs[sub.id]
                marginal_cost(costs.alpha, costs.beta, econ.phi)
            except ValueError as exc:
                raise ScenarioError([(f"$.uavs[{i}]", f"subregion {sub.id!r}: {exc}")]) from None
            announcements[sub.id][uav.id] = costs
    for j, sub in enumerate(subs):
        if not announcements[sub.id]:
            continue  # nobody responded; the subregion stays without a menu
        # the closed-form coverage and the owner's objective divide by it
        scale = econ.mu * sub.data_volume
        if not sys.float_info.min <= scale < math.inf:
            raise ScenarioError([(
                f"$.subregions[{j}]",
                f"economy.mu * data_volume is {scale!r}, outside the normal float range",
            )])
        schedule = schedules[sub.id] = build_schedule(
            announcements[sub.id], sub, econ, scenario.reward_hats[sub.id]
        )
        top_reward = schedule.coverage_rewards[0] + schedule.fixed_reward  # rank 1: the largest
        revenue = econ.sigma * model_accuracy([(schedule.thetas[0], sub.data_volume)], econ.mu)
        for path, what, value in (
            ("$.reward_hat_policy", "the top total reward", top_reward),
            ("$.economy", "the owner revenue at the top coverage", revenue),
        ):
            if not math.isfinite(value):
                raise ScenarioError([(path, f"subregion {sub.id!r}: {what} is not finite")])
    if not math.isfinite(sum(m.coverage_rewards[0] + m.fixed_reward for m in schedules.values())):
        raise ScenarioError([("$.reward_hat_policy", "the menus' top total rewards sum to inf")])
    return RunReport(
        scenario=scenario, feasibility=feasibility, published=schedules, schedules=schedules
    )


def run_contract(scenario: Scenario, out_dir: str | Path | None = None) -> RunReport:
    """Build every subregion's menu and emit the contract-side artifacts."""
    report = prepare(scenario)
    if out_dir is not None:
        _write_contract_csvs(report, Path(out_dir))
    return report


def run_match(scenario: Scenario, out_dir: str | Path | None = None) -> RunReport:
    """Run one market pass: menus, deferred acceptance, audit and payouts.

    This is the only place the chain runs. Without ``out_dir`` it is the
    library entry point and writes nothing; ``run_verify`` and
    ``run_sweep`` read their checks and rows off the report it returns.
    """
    report = prepare(scenario)
    market = Market(report.published, scenario.economy)
    sub_prefs = report.sub_prefs = {
        sub_id: build_subregion_preferences(schedule)
        for sub_id, schedule in report.published.items()
    }
    uav_ids = [uav.id for uav in scenario.uavs]
    published_uav_prefs = report.published_uav_prefs = build_uav_preferences(market, uav_ids)
    state = report.match = gs_match(
        sub_prefs, published_uav_prefs, scenario.calibration, market
    )
    report.schedules = market.final_schedules()

    # audit stability against the rewards actually on offer at the end;
    # rewards move only through calibration, so without a calibration
    # event the published lists are already the final ones
    report.uav_prefs = published_uav_prefs
    if state.calibration_log:
        report.uav_prefs = build_uav_preferences(market, uav_ids)
    report.blocking_pairs = stability_audit(state, sub_prefs, report.uav_prefs)

    # an unmatched subregion gets zero coverage and pays nothing
    assigned = state.subregion_assignment()
    accuracy_terms, paid = [], []
    for sub in scenario.subregions:
        uav_id = assigned.get(sub.id)
        item = None if uav_id is None else report.schedules[sub.id].item_for(uav_id)
        accuracy_terms.append((0.0 if item is None else item.theta, sub.data_volume))
        paid.append(0.0 if item is None else item.total_reward)
    report.owner_profit = owner_profit(accuracy_terms, paid, scenario.economy)
    if out_dir is not None:
        _write_match_csvs(report, Path(out_dir))
    return report


def run_verify(
    scenario: Scenario,
    grid_points: int = 10001,
    seed: int | None = None,
    out_dir: str | Path | None = None,
) -> VerifyReport:
    """Certify the scenario's analytic outputs against the brute-force oracles.

    The coverage oracle scans ``grid_points`` evenly spaced coverages. A
    grid numpy cannot allocate is refused before the market runs. A
    menu's row certifies the coverages it publishes.
    """
    if grid_points < 3:
        raise OptionError("--grid-points", "must be >= 3")
    _reserve("--grid-points", grid_points, f"a grid of {grid_points} points")
    if seed is not None and seed < 0:
        raise OptionError("--seed", "must be >= 0")
    used_seed = scenario.seed if seed is None else seed
    report = VerifyReport(seed=used_seed)
    run = run_match(scenario)
    step = 1.0 / (grid_points - 1)

    def coverage_check(name: str, claimed, scanned, detail: str) -> VerifyCheck:
        worst = max(0.0, *(abs(c - s) for c, s in zip(claimed, scanned)))
        return VerifyCheck(f"coverage_oracle[{name}]", worst <= 2 * step, worst, detail)

    for sub in scenario.subregions:
        schedule = run.published.get(sub.id)
        if schedule is None:
            continue
        upsilons, thetas = schedule.upsilons, schedule.thetas
        scanned = grid_oracle_coverage(upsilons, sub.data_volume, scenario.economy, grid_points)
        detail = f"max |closed form - grid argmax| over {len(upsilons)} ranks"
        report.checks += [coverage_check(sub.id, thetas, scanned, detail), verify_schedule(schedule)]

    rng = np.random.default_rng(used_seed)
    closed, scanned = [], []
    for _ in range(RANDOM_DRAWS):
        upsilon, volume, econ = random_coverage_draw(rng)
        scanned += grid_oracle_coverage((upsilon,), volume, econ, grid_points)
        closed += optimal_coverage((upsilon,), volume, econ)
    detail = f"{RANDOM_DRAWS} random interior draws, seed {used_seed}"
    report.checks.append(coverage_check("random_sweep", closed, scanned, detail))

    state, sub_prefs, final_uav_prefs = run.match, run.sub_prefs, run.uav_prefs
    blocking = run.blocking_pairs
    detail = str(blocking) if blocking else "assignment is stable"
    report.checks.append(VerifyCheck("no_blocking_pairs", not blocking, float(len(blocking)), detail))

    enum_prefs_ok = all(
        len(set(p.scores)) == len(p.scores)
        for p in list(sub_prefs.values()) + list(final_uav_prefs.values())
    )
    within_cap = len(sub_prefs) <= MAX_ENUM_SIZE and len(final_uav_prefs) <= MAX_ENUM_SIZE
    if enum_prefs_ok and within_cap and not state.calibration_log:
        stable_set = enumerate_stable_matchings(sub_prefs, final_uav_prefs)
        gs_assignment = state.subregion_assignment()
        member = gs_assignment in stable_set
        optimal = member and is_subregion_optimal(gs_assignment, stable_set, sub_prefs)
        report.checks += [
            VerifyCheck("gs_in_stable_set", member, float(len(stable_set)),
                        f"{len(stable_set)} stable assignment(s) enumerated"),
            VerifyCheck("gs_subregion_optimal", optimal, 0.0,
                        "proposer-side optimality over the enumerated set"),
        ]
    else:
        tied = not (enum_prefs_ok and not state.calibration_log)
        why = "ties or calibration present" if tied else "instance above enumeration cap"
        report.checks.append(VerifyCheck("gs_in_stable_set", True, 0.0, f"skipped: {why}"))

    if out_dir is not None:
        _write_csv(
            Path(out_dir) / "verify.csv",
            ("check", "status", "magnitude", "detail"),
            [
                (c.name, "pass" if c.passed else "FAIL", c.magnitude, c.detail)
                for c in report.checks
            ],
        )
    return report


def verify_schedule(schedule: ContractSchedule) -> VerifyCheck:
    """Cross-check the audit flags against the misreport-matrix oracle."""
    matrix = ic_matrix(schedule)
    dominant = diagonal_dominant(matrix)
    agree = dominant == schedule.audit.ic_ok
    healthy = schedule.audit.ir_ok and schedule.audit.ic_ok and schedule.audit.monotone_ok
    return VerifyCheck(
        name=f"ic_agreement[{schedule.subregion_id}]",
        passed=agree and healthy,
        magnitude=float(np.max(matrix - np.diag(matrix)[:, None])),
        detail="audit flags vs misreport matrix",
    )


def _reserve(option: str, count: int, what: str) -> None:
    """Refuse a ``count`` of floats that numpy cannot allocate, as an error in ``option``."""
    try:
        np.empty(count)  # reserved, never written: numpy's own size and memory checks
    except (ValueError, MemoryError) as exc:
        raise OptionError(option, f"numpy cannot allocate {what}: {exc}") from None


def sweep_values(start: float, stop: float, steps: int) -> list[float]:
    """``steps`` evenly spaced values from ``start`` to ``stop``; an unusable range is refused."""
    if steps < 1:
        raise OptionError("--steps", "must be >= 1")
    for option, value in (("--from", start), ("--to", stop)):
        if not math.isfinite(value):
            raise OptionError(option, f"must be a finite number, got {value}")
    if steps == 1:
        return [float(start)]  # np.linspace(1e308, -1e308, 1) is [nan]
    _reserve("--steps", steps, f"{steps} values")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(start, stop, steps)
    if not np.isfinite(values).all():
        raise OptionError("--to", f"the range from {start} to {stop} overflows")
    return values.tolist()


def run_sweep(
    raw_scenario: Mapping[str, Any],
    param: str,
    values: Sequence[float],
    out_path: str | Path | None = None,
) -> list[tuple[float, str, float]]:
    """Re-run contract + match per parameter value; long-format rows.

    ``param`` is a dotted path into the scenario document, with integer
    segments indexing lists (for example ``economy.sigma`` or
    ``subregions.0.center.0``). Emitted metrics per value: owner profit,
    matched count, per-subregion responder counts, per-pair hypothetical
    payoffs at the published (pre-calibration) menus, and per-UAV matched
    flags.
    """
    _locate(raw_scenario, param)  # fail early on unknown parameters
    rows: list[tuple[float, str, float]] = []
    for value in values:
        doc = copy.deepcopy(raw_scenario)
        parent, key = _locate(doc, param)
        current = parent[key]
        parent[key] = (
            int(value) if isinstance(current, int) and float(value).is_integer() else float(value)
        )
        run = run_match(scenario_from_dict(doc))
        scenario, published = run.scenario, run.published_uav_prefs
        for uav in scenario.uavs:
            for sub_id, score in zip(published[uav.id].ranked, published[uav.id].scores):
                rows.append((value, f"utility[{uav.id},{sub_id}]", score))
        for sub in scenario.subregions:
            responders = sum(1 for uav in scenario.uavs if sub.id in published[uav.id])
            rows.append((value, f"responders[{sub.id}]", float(responders)))
        assignment = run.match.assignment
        rows.append((value, "matched_count", float(len(assignment))))
        for uav in scenario.uavs:
            rows.append((value, f"matched[{uav.id}]", 1.0 if uav.id in assignment else 0.0))
        rows.append((value, "owner_profit", run.owner_profit))
    if out_path is not None:
        _write_csv(Path(out_path), ("param_value", "metric", "value"), rows)
    return rows


def _locate(doc: Any, param: str) -> tuple[Any, Any]:
    """The container of the numeric field at dotted path ``param``, and its key or index."""
    node = doc
    for segment in param.split("."):
        if isinstance(node, Mapping):
            if segment not in node:
                raise OptionError("--param", f"{param}: unknown parameter (no field {segment!r})")
            key = segment
        elif isinstance(node, list):
            try:
                key = int(segment)
                node[key]  # an index out of range fails here
            except (ValueError, IndexError):
                raise OptionError("--param", f"{param}: bad list index {segment!r}") from None
        else:
            raise OptionError("--param", f"{param}: cannot descend into {type(node).__name__}")
        parent, node = node, node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise OptionError("--param", f"{param}: parameter is not numeric")
    return parent, key


# ---------------------------------------------------------------------------
# CSV emission: comma separated, '.' decimal point, LF endings, header row,
# floats at 12 significant digits.
# ---------------------------------------------------------------------------


FLOAT_FORMAT = "%.12g"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def _csv_writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _csv_cell(text: str) -> str:
    """``text`` as one cell of a row of several, quoted as ``_write_csv`` quotes it."""
    buf = io.StringIO()
    _csv_writer(buf).writerow((text, ""))
    return buf.getvalue()[:-2]  # drop the empty second cell's comma and the line end


def _write_ic_matrix_csv(path: Path, schedules: Iterable[tuple[str, ContractSchedule]]) -> None:
    """Every menu's misreport matrix, one block of rows per menu.

    A menu's block is one ``%`` template, the row heads ``<id>,<i>,<k>,``
    written out with a ``FLOAT_FORMAT`` slot after each, filled from the
    matrix in one pass. The bytes are those ``_write_csv`` writes for the
    rows ``(subregion, i, k, utility)``; only one menu's rows exist at a
    time.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    slot = FLOAT_FORMAT + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _csv_writer(fh).writerow(("subregion", "i", "k", "utility"))
        for sub_id, schedule in schedules:
            subregion = _csv_cell(sub_id).replace("%", "%%")  # a literal % in the template
            ranks = range(1, len(schedule.ladder) + 1)
            ks = [f"{k}," for k in ranks]
            heads = (f"{subregion},{i}," for i in ranks)
            template = "".join(head + (slot + head).join(ks) + slot for head in heads)
            fh.write(template % tuple(ic_matrix(schedule).ravel().tolist()))


def _write_contract_csvs(report: RunReport, out_dir: Path) -> None:
    scenario = report.scenario
    econ = scenario.economy
    coverage_rows, reward_rows, profit_rows = [], [], []
    menus = []
    for sub in scenario.subregions:
        schedule = report.schedules.get(sub.id)
        if schedule is None:
            continue
        menus.append((sub.id, schedule))
        fixed = schedule.fixed_reward
        columns = zip(schedule.upsilons, schedule.thetas, schedule.coverage_rewards)
        for rank, (upsilon, theta, reward) in enumerate(columns, start=1):
            coverage_rows.append((sub.id, rank, upsilon, theta))
            reward_rows.append((sub.id, rank, reward, fixed, reward + fixed))
            # owner payoff if this rank were the one matched, other
            # subregions held at zero coverage and zero reward
            revenue = (
                econ.sigma
                * model_accuracy([(theta, sub.data_volume)], econ.mu)
                / econ.n_subregions
            )
            profit_rows.append((sub.id, rank, revenue - (reward + fixed)))
    _write_csv(out_dir / "coverage.csv", ("subregion", "rank", "upsilon", "theta"), coverage_rows)
    _write_csv(
        out_dir / "rewards.csv",
        ("subregion", "rank", "coverage_reward", "fixed_reward", "total_reward"),
        reward_rows,
    )
    _write_ic_matrix_csv(out_dir / "ic_matrix.csv", menus)
    _write_csv(out_dir / "profit.csv", ("subregion", "winner_rank", "profit"), profit_rows)


def _write_match_csvs(report: RunReport, out_dir: Path) -> None:
    state = report.match
    versions: dict[str, int] = {}
    for event in state.calibration_log:
        versions[event.subregion_id] = versions.get(event.subregion_id, 0) + 1
    assignment_rows = []
    for uav in report.scenario.uavs:
        sub_id = state.assignment.get(uav.id)
        assignment_rows.append(
            (
                uav.id,
                sub_id if sub_id is not None else "UNMATCHED",
                versions.get(sub_id, 0) if sub_id is not None else "",
            )
        )
    _write_csv(
        out_dir / "assignment.csv",
        ("uav", "subregion", "rtilde_version"),
        assignment_rows,
    )
    calibration_rows = []
    for event_index, event in enumerate(state.calibration_log):
        for rank, (before, after) in enumerate(zip(event.before, event.after), start=1):
            calibration_rows.append(
                (event.subregion_id, event_index, rank, before, after)
            )
    _write_csv(
        out_dir / "calibration.csv",
        ("subregion", "event", "rank", "reward_before", "reward_after"),
        calibration_rows,
    )
    _write_csv(out_dir / "stability.csv", ("uav", "subregion"), report.blocking_pairs)
