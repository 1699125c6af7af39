"""uavmarket: contract design and stable assignment for UAV task markets.

A simulation library for a data-collection market: a task owner splits a
sensing region into subregions, screens a fleet of independently owned
UAVs against time and energy budgets, publishes per-subregion incentive
menus that make cost types self-select, and assigns one UAV per subregion
by deferred acceptance with a downward rewards calibration as the tie
rule. A verification layer re-derives the analytic pieces by brute force.
"""

from .contract import (
    AuditReport,
    ContractSchedule,
    build_schedule,
    iron_schedule,
    marginal_cost,
    optimal_coverage,
    reward_schedule,
    sort_ladder,
)
from .core import (
    CostVector,
    FeasibilityReport,
    FlHyperParams,
    Position,
    Subregion,
    SubregionColumns,
    UavProfile,
    check_feasibility,
    derive_cost_vector,
    fl_rounds,
)
from .economics import (
    ContractItem,
    EconomyParams,
    model_accuracy,
    owner_profit,
)
from .errors import OptionError, ScenarioError, UavMarketError, UnresolvedTieError
from .matching import (
    CalibrationEvent,
    CalibrationPolicy,
    Market,
    MatchState,
    PreferenceList,
    build_subregion_preferences,
    build_uav_preferences,
    gs_match,
    rewards_calibration,
    stability_audit,
)
from .pipeline import (
    RunReport,
    VerifyCheck,
    VerifyReport,
    run_contract,
    run_match,
    run_sweep,
    run_verify,
)
from .scenario import (
    DirectUavTypes,
    Scenario,
    fixture_path,
    load_scenario,
    scenario_from_dict,
)
from .verification import (
    enumerate_stable_matchings,
    grid_oracle_coverage,
    ic_matrix,
)

__version__ = "0.1.0"
