"""Scenario execution: contract runs, matching runs, verification, sweeps.

This is the glue between a validated ``Scenario`` and the model layers:
screen the fleet, collect announcements, build one contract menu per
subregion, run the assignment, and emit deterministic CSV artifacts.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .contract import (
    Announcement,
    ContractSchedule,
    build_schedule,
    optimal_coverage,
)
from .core import (
    CostVector,
    FeasibilityReport,
    UavProfile,
    check_feasibility,
    derive_cost_vector,
)
from .economics import model_accuracy, owner_profit, uav_utility
from .errors import ScenarioError
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
    OracleConfig,
    diagonal_dominant,
    enumerate_stable_matchings,
    grid_oracle_coverage,
    ic_matrix,
    is_subregion_optimal,
    random_coverage_draw,
)


@dataclass
class MarketSetup:
    """Everything derived from a scenario before any matching runs."""

    scenario: Scenario
    costs: dict[str, dict[str, CostVector]]
    feasibility: dict[str, dict[str, FeasibilityReport]]
    announcements: dict[str, list[Announcement]]
    reward_hats: dict[str, float]
    schedules: dict[str, ContractSchedule]


@dataclass
class RunReport:
    """Outcome of one contract or match run."""

    scenario: Scenario
    setup: MarketSetup
    schedules: dict[str, ContractSchedule]
    sub_prefs: dict[str, PreferenceList] = field(default_factory=dict)
    uav_prefs: dict[str, PreferenceList] = field(default_factory=dict)
    match: MatchState | None = None
    blocking_pairs: list[tuple[str, str]] = field(default_factory=list)
    owner_profit: float | None = None
    realized_utilities: dict[str, float] = field(default_factory=dict)
    paid_rewards: dict[str, float] = field(default_factory=dict)
    coverages: dict[str, float] = field(default_factory=dict)


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


def prepare(scenario: Scenario) -> MarketSetup:
    """Screen the fleet, gather announcements, and build every menu.

    Physical UAVs run the time/energy gate at the scenario's screening
    coverage and announce only where they pass; declared-type UAVs are
    assumed feasible everywhere.
    """
    econ = scenario.economy
    costs: dict[str, dict[str, CostVector]] = {}
    feasibility: dict[str, dict[str, FeasibilityReport]] = {}
    announcements: dict[str, list[Announcement]] = {s.id: [] for s in scenario.subregions}
    for uav in scenario.uavs:
        costs[uav.id] = {}
        if isinstance(uav, UavProfile):
            feasibility[uav.id] = {}
        for sub in scenario.subregions:
            if isinstance(uav, UavProfile):
                vector = derive_cost_vector(sub, uav, scenario.fl)
                report = check_feasibility(sub, uav, scenario.fl, scenario.theta_hat)
                feasibility[uav.id][sub.id] = report
                if not report.feasible:
                    continue
            else:
                vector = CostVector.declared(
                    alpha=uav.value_for("alpha", sub.id),
                    beta=uav.value_for("beta", sub.id),
                    psi=uav.psi_for(sub),
                    zeta=uav.value_for("zeta", sub.id),
                )
            costs[uav.id][sub.id] = vector
            announcements[sub.id].append(
                Announcement(
                    uav_id=uav.id,
                    alpha=vector.alpha,
                    beta=vector.beta,
                    psi=vector.psi,
                    zeta=vector.zeta,
                )
            )
    reward_hats = {
        sub.id: scenario.reward_hat_policy.reward_hat_for(sub.id, econ.phi)
        for sub in scenario.subregions
    }
    schedules = {}
    for sub in scenario.subregions:
        if not announcements[sub.id]:
            continue  # nobody responded; the subregion stays without a menu
        schedules[sub.id] = build_schedule(
            announcements[sub.id], sub, econ, reward_hats[sub.id]
        )
    return MarketSetup(
        scenario=scenario,
        costs=costs,
        feasibility=feasibility,
        announcements=announcements,
        reward_hats=reward_hats,
        schedules=schedules,
    )


def make_market(setup: MarketSetup) -> Market:
    costs = {
        uav_id: {s: v for s, v in by_sub.items() if s in setup.schedules}
        for uav_id, by_sub in setup.costs.items()
    }
    return Market(setup.schedules, costs, setup.scenario.economy)


def build_preferences(
    setup: MarketSetup, market: Market
) -> tuple[dict[str, PreferenceList], dict[str, PreferenceList]]:
    phi = setup.scenario.economy.phi
    sub_prefs = {
        sub.id: build_subregion_preferences(sub.id, setup.announcements[sub.id], phi)
        for sub in setup.scenario.subregions
        if sub.id in setup.schedules
    }
    uav_prefs = {
        uav.id: build_uav_preferences(uav.id, market) for uav in setup.scenario.uavs
    }
    return sub_prefs, uav_prefs


def _final_uav_prefs(
    scenario: Scenario,
    market: Market,
    state: MatchState,
    uav_prefs: dict[str, PreferenceList],
) -> dict[str, PreferenceList]:
    """UAV preference lists at the rewards on offer after matching.

    Rewards move only through calibration, so without a calibration event
    the lists built before matching are already the final ones.
    """
    if not state.calibration_log:
        return uav_prefs
    return {uav.id: build_uav_preferences(uav.id, market) for uav in scenario.uavs}


def run_contract(scenario: Scenario, out_dir: str | Path | None = None) -> RunReport:
    """Build every subregion's menu and emit the contract-side artifacts."""
    setup = prepare(scenario)
    report = RunReport(scenario=scenario, setup=setup, schedules=dict(setup.schedules))
    if out_dir is not None:
        _write_contract_csvs(report, Path(out_dir))
    return report


def run_match(scenario: Scenario, out_dir: str | Path | None = None) -> RunReport:
    """Run the full pipeline through assignment and emit match artifacts."""
    setup = prepare(scenario)
    market = make_market(setup)
    sub_prefs, uav_prefs = build_preferences(setup, market)
    state = gs_match(sub_prefs, uav_prefs, scenario.calibration, market)
    silent = {sub.id for sub in scenario.subregions if sub.id not in setup.schedules}
    state.unmatched_subregions |= silent
    state.exhausted |= silent
    final_schedules = market.final_schedules()

    # audit stability against the rewards actually on offer at the end
    final_uav_prefs = _final_uav_prefs(scenario, market, state, uav_prefs)
    blocking = stability_audit(state, sub_prefs, final_uav_prefs)

    econ = scenario.economy
    coverages: dict[str, float] = {}
    paid: dict[str, float] = {}
    realized: dict[str, float] = {u.id: 0.0 for u in scenario.uavs}
    assigned = state.subregion_assignment()
    for sub in scenario.subregions:
        uav_id = assigned.get(sub.id)
        if uav_id is None:
            coverages[sub.id] = 0.0
            continue
        item = final_schedules[sub.id].item_for(uav_id)
        coverages[sub.id] = item.theta
        paid[sub.id] = item.total_reward
        realized[uav_id] = uav_utility(item, setup.costs[uav_id][sub.id], econ)
    accuracy_terms = [
        (coverages[sub.id], sub.data_volume) for sub in scenario.subregions
    ]
    profit = owner_profit(
        accuracy_terms, [paid.get(sub.id, 0.0) for sub in scenario.subregions], econ
    )

    report = RunReport(
        scenario=scenario,
        setup=setup,
        schedules=final_schedules,
        sub_prefs=sub_prefs,
        uav_prefs=final_uav_prefs,
        match=state,
        blocking_pairs=blocking,
        owner_profit=profit,
        realized_utilities=realized,
        paid_rewards=paid,
        coverages=coverages,
    )
    if out_dir is not None:
        _write_match_csvs(report, Path(out_dir))
    return report


def run_verify(
    scenario: Scenario,
    config: OracleConfig = OracleConfig(),
    seed: int | None = None,
    draws: int = 200,
    out_dir: str | Path | None = None,
) -> VerifyReport:
    """Certify the scenario's analytic outputs against the brute-force oracles."""
    used_seed = scenario.seed if seed is None else seed
    report = VerifyReport(seed=used_seed)
    setup = prepare(scenario)
    econ = scenario.economy
    step = config.grid_step

    for sub in scenario.subregions:
        schedule = setup.schedules.get(sub.id)
        if schedule is None:
            continue
        worst = 0.0
        for aux in schedule.ladder:
            closed = optimal_coverage(aux, sub, econ)
            scanned = grid_oracle_coverage(
                aux, sub, econ, setup.reward_hats[sub.id], config
            )
            worst = max(worst, abs(closed - scanned))
        report.checks.append(
            VerifyCheck(
                name=f"coverage_oracle[{sub.id}]",
                passed=worst <= 2 * step,
                magnitude=worst,
                detail=f"max |closed form - grid argmax| over {len(schedule.ladder)} ranks",
            )
        )
        report.checks.append(verify_schedule(schedule, config.tolerance))

    rng = np.random.default_rng(used_seed)
    worst = 0.0
    for _ in range(draws):
        aux, sub, draw_econ = random_coverage_draw(rng)
        closed = optimal_coverage(aux, sub, draw_econ)
        scanned = grid_oracle_coverage(aux, sub, draw_econ, 0.0, config)
        worst = max(worst, abs(closed - scanned))
    report.checks.append(
        VerifyCheck(
            name="coverage_oracle[random_sweep]",
            passed=worst <= 2 * step,
            magnitude=worst,
            detail=f"{draws} random interior draws, seed {used_seed}",
        )
    )

    market = make_market(setup)
    sub_prefs, uav_prefs = build_preferences(setup, market)
    state = gs_match(sub_prefs, uav_prefs, scenario.calibration, market)
    final_uav_prefs = _final_uav_prefs(scenario, market, state, uav_prefs)
    blocking = stability_audit(state, sub_prefs, final_uav_prefs)
    report.checks.append(
        VerifyCheck(
            name="no_blocking_pairs",
            passed=not blocking,
            magnitude=float(len(blocking)),
            detail=str(blocking) if blocking else "assignment is stable",
        )
    )

    enum_prefs_ok = all(
        len(set(p.scores)) == len(p.scores)
        for p in list(sub_prefs.values()) + list(final_uav_prefs.values())
    )
    within_cap = (
        len(sub_prefs) <= config.max_enum_size
        and len(final_uav_prefs) <= config.max_enum_size
    )
    if enum_prefs_ok and within_cap and not state.calibration_log:
        stable_set = enumerate_stable_matchings(sub_prefs, final_uav_prefs, config)
        gs_assignment = state.subregion_assignment()
        member = gs_assignment in stable_set
        optimal = member and is_subregion_optimal(gs_assignment, stable_set, sub_prefs)
        report.checks.append(
            VerifyCheck(
                name="gs_in_stable_set",
                passed=member,
                magnitude=float(len(stable_set)),
                detail=f"{len(stable_set)} stable assignment(s) enumerated",
            )
        )
        report.checks.append(
            VerifyCheck(
                name="gs_subregion_optimal",
                passed=optimal,
                magnitude=0.0,
                detail="proposer-side optimality over the enumerated set",
            )
        )
    else:
        why = "ties or calibration present" if not (enum_prefs_ok and not state.calibration_log) else "instance above enumeration cap"
        report.checks.append(
            VerifyCheck(
                name="gs_in_stable_set",
                passed=True,
                magnitude=0.0,
                detail=f"skipped: {why}",
            )
        )

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


def verify_schedule(schedule: ContractSchedule, tolerance: float = 1e-9) -> VerifyCheck:
    """Cross-check the audit flags against the misreport-matrix oracle."""
    matrix = ic_matrix(schedule)
    dominant = diagonal_dominant(matrix, tolerance)
    agree = dominant == schedule.audit.ic_ok
    healthy = schedule.audit.ir_ok and schedule.audit.ic_ok and schedule.audit.monotone_ok
    return VerifyCheck(
        name=f"ic_agreement[{schedule.subregion_id}]",
        passed=agree and healthy,
        magnitude=float(np.max(matrix - np.diag(matrix)[:, None])),
        detail="audit flags vs misreport matrix",
    )


def sweep_values(start: float, stop: float, steps: int) -> list[float]:
    if steps <= 0:
        return []
    if steps == 1:
        return [float(start)]
    return [float(v) for v in np.linspace(start, stop, steps)]


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
    _resolve_path(raw_scenario, param)  # fail early on unknown parameters
    rows: list[tuple[float, str, float]] = []
    for value in values:
        doc = copy.deepcopy(raw_scenario)
        _assign_path(doc, param, value)
        scenario = scenario_from_dict(doc)
        setup = prepare(scenario)
        market = make_market(setup)
        sub_prefs, uav_prefs = build_preferences(setup, market)
        for uav in scenario.uavs:
            for sub_id, score in zip(
                uav_prefs[uav.id].ranked, uav_prefs[uav.id].scores
            ):
                rows.append((value, f"utility[{uav.id},{sub_id}]", score))
        for sub in scenario.subregions:
            responders = sum(
                1
                for uav in scenario.uavs
                if sub.id in uav_prefs[uav.id]
            )
            rows.append((value, f"responders[{sub.id}]", float(responders)))
        state = gs_match(sub_prefs, uav_prefs, scenario.calibration, market)
        rows.append((value, "matched_count", float(len(state.assignment))))
        for uav in scenario.uavs:
            rows.append(
                (value, f"matched[{uav.id}]", 1.0 if uav.id in state.assignment else 0.0)
            )
        final = market.final_schedules()
        assigned = state.subregion_assignment()
        coverages, rewards = [], []
        for sub in scenario.subregions:
            uav_id = assigned.get(sub.id)
            if uav_id is None:
                coverages.append((0.0, sub.data_volume))
                rewards.append(0.0)
                continue
            item = final[sub.id].item_for(uav_id)
            coverages.append((item.theta, sub.data_volume))
            rewards.append(item.total_reward)
        rows.append(
            (value, "owner_profit", owner_profit(coverages, rewards, scenario.economy))
        )
    if out_path is not None:
        _write_csv(Path(out_path), ("param_value", "metric", "value"), rows)
    return rows


def _resolve_path(doc: Any, param: str) -> Any:
    node = doc
    for segment in param.split("."):
        if isinstance(node, Mapping):
            if segment not in node:
                raise ScenarioError([(param, f"unknown parameter (no field {segment!r})")])
            node = node[segment]
        elif isinstance(node, list):
            try:
                node = node[int(segment)]
            except (ValueError, IndexError):
                raise ScenarioError([(param, f"bad list index {segment!r}")]) from None
        else:
            raise ScenarioError([(param, f"cannot descend into {type(node).__name__}")])
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioError([(param, "parameter is not numeric")])
    return node


def _assign_path(doc: Any, param: str, value: float) -> None:
    segments = param.split(".")
    node = doc
    for segment in segments[:-1]:
        node = node[segment] if isinstance(node, Mapping) else node[int(segment)]
    last = segments[-1]
    current = node[last] if isinstance(node, Mapping) else node[int(last)]
    coerced = int(value) if isinstance(current, int) and float(value).is_integer() else float(value)
    if isinstance(node, Mapping):
        node[last] = coerced
    else:
        node[int(last)] = coerced


# ---------------------------------------------------------------------------
# CSV emission: comma separated, '.' decimal point, LF endings, header row,
# floats at 12 significant digits.
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_contract_csvs(report: RunReport, out_dir: Path) -> None:
    scenario = report.scenario
    econ = scenario.economy
    coverage_rows, reward_rows, ic_rows, profit_rows = [], [], [], []
    for sub in scenario.subregions:
        schedule = report.schedules.get(sub.id)
        if schedule is None:
            continue
        matrix = ic_matrix(schedule)
        for aux, item in zip(schedule.ladder, schedule.items):
            coverage_rows.append((sub.id, aux.rank, aux.upsilon, item.theta))
            reward_rows.append(
                (sub.id, aux.rank, item.coverage_reward, item.fixed_reward, item.total_reward)
            )
        for i in range(len(schedule.ladder)):
            for k in range(len(schedule.ladder)):
                ic_rows.append((sub.id, i + 1, k + 1, float(matrix[i, k])))
        for aux, item in zip(schedule.ladder, schedule.items):
            # owner payoff if this rank were the one matched, other
            # subregions held at zero coverage and zero reward
            revenue = (
                econ.sigma
                * model_accuracy([(item.theta, sub.data_volume)], econ.mu, econ.log_base)
                / econ.n_subregions
            )
            profit_rows.append((sub.id, aux.rank, revenue - item.total_reward))
    _write_csv(out_dir / "coverage.csv", ("subregion", "rank", "upsilon", "theta"), coverage_rows)
    _write_csv(
        out_dir / "rewards.csv",
        ("subregion", "rank", "coverage_reward", "fixed_reward", "total_reward"),
        reward_rows,
    )
    _write_csv(out_dir / "ic_matrix.csv", ("subregion", "i", "k", "utility"), ic_rows)
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
