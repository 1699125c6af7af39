"""Independent brute-force oracles for the analytic components.

Nothing here reuses the closed forms or the matching engine it certifies:
coverage targets are re-derived by dense grid scan of the owner's
coverage payoff, self-selection by evaluating the full misreport matrix,
and matching stability by enumerating every injective assignment and
filtering on blocking pairs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .contract import ContractSchedule
from .economics import EconomyParams
from .matching import PreferenceList


ORACLE_TOLERANCE = 1e-9  # largest misreport gain still read as no gain
MAX_ENUM_SIZE = 8  # stable matchings are enumerated up to this many agents per side
RANDOM_DRAWS = 200  # random interior parameter sets in the coverage oracle's sweep


def grid_oracle_coverage(
    upsilons: Sequence[float],
    data_volume: float,
    econ: EconomyParams,
    grid_points: int = 10001,
) -> list[float]:
    """Per marginal cost in ``upsilons``, the grid coverage that maximises the owner's payoff.

    The grid is ``grid_points`` evenly spaced coverages over [0, 1].

    The payoff of asking a type of marginal cost ``upsilon`` for coverage
    ``theta`` is ``sigma / N * ln(1 + mu * D * theta) / (mu * D) -
    upsilon * theta``, ``D`` being ``data_volume``: the accuracy revenue
    is normalised by the data scale ``mu * D`` so that one unit of
    coverage trades against ``upsilon`` one for one. This is the objective
    whose maximiser the closed-form coverage claims to be; a fixed reward,
    constant in ``theta``, cannot move it and is left out.

    The grid and the revenue curve are computed once for the menu; each
    rung then costs one subtraction and one argmax. Ties resolve to the
    smallest grid point; ``np.argmax`` already returns the first
    maximiser.
    """
    thetas = np.linspace(0.0, 1.0, grid_points)
    scale = econ.mu * data_volume
    # dividing the log by the scale, not sigma, keeps a tiny normal scale
    # from overflowing the factor to inf and turning theta = 0 into nan
    revenue = econ.sigma / econ.n_subregions * (np.log1p(scale * thetas) / scale)
    return [float(thetas[(revenue - upsilon * thetas).argmax()]) for upsilon in upsilons]


def ic_matrix(schedule: ContractSchedule) -> np.ndarray:
    """Full misreport matrix: entry (i, k) is type i's payoff on item k.

    Both indices are zero-based rank positions. A self-selecting menu has a
    weakly dominant diagonal in every row.
    """
    upsilons = np.array(schedule.upsilons)
    thetas = np.array(schedule.thetas)
    rewards = np.array(schedule.coverage_rewards)
    return rewards[None, :] - upsilons[:, None] * thetas[None, :]


def diagonal_dominant(matrix: np.ndarray) -> bool:
    """True when no row gains more than ``ORACLE_TOLERANCE`` off its diagonal."""
    diag = np.diag(matrix)
    return bool(np.all(matrix - diag[:, None] <= ORACLE_TOLERANCE))


def enumerate_stable_matchings(
    sub_prefs: Mapping[str, PreferenceList],
    uav_prefs: Mapping[str, PreferenceList],
) -> list[dict[str, str]]:
    """All stable assignments of an instance, as subregion-to-UAV maps.

    Walks every injective partial assignment (depth-first over subregions,
    each taking one still-free acceptable UAV or staying unmatched) and
    keeps those with no blocking pair. Prefixes already containing a
    blocking pair among decided participants are cut early; pairs
    involving a still-free UAV are checked at the leaves. Preference lists
    must be tie-free. Instances above ``MAX_ENUM_SIZE`` per side are
    refused.
    """
    subs = list(sub_prefs)
    uavs = list(uav_prefs)
    if len(subs) > MAX_ENUM_SIZE or len(uavs) > MAX_ENUM_SIZE:
        raise ValueError(
            f"instance {len(uavs)}x{len(subs)} exceeds enumeration cap {MAX_ENUM_SIZE}"
        )
    for prefs in (sub_prefs, uav_prefs):
        for pref in prefs.values():
            if len(set(pref.scores)) != len(pref.scores):
                raise ValueError(f"preference list of {pref.owner!r} has ties")

    srank = {n: {j: k for k, j in enumerate(sub_prefs[n].ranked)} for n in subs}
    urank = {j: {n: k for k, n in enumerate(uav_prefs[j].ranked)} for j in uavs}
    mutual = {
        n: [j for j in sub_prefs[n].ranked if n in urank.get(j, {})] for n in subs
    }

    assignment: dict[str, str] = {}
    used: set[str] = set()
    results: list[dict[str, str]] = []

    def prefix_blocked(n: str, j: str | None) -> bool:
        my_rank = srank[n].get(j, len(uavs) + 1) if j is not None else len(uavs) + 1
        for n2, j2 in assignment.items():
            if j2 is not None:
                # does j2 want n more than its partner, and n want j2 more?
                if (
                    n in urank[j2]
                    and urank[j2][n] < urank[j2][n2]
                    and j2 in srank[n]
                    and srank[n][j2] < my_rank
                ):
                    return True
            if j is not None and n2 in urank[j] and urank[j][n2] < urank[j][n]:
                # j prefers the earlier subregion n2; does n2 prefer j back?
                j2_rank = (
                    srank[n2].get(j2, len(uavs) + 1) if j2 is not None else len(uavs) + 1
                )
                if j in srank[n2] and srank[n2][j] < j2_rank:
                    return True
        return False

    def leaf_blocked() -> bool:
        for j in uavs:
            if j in used:
                continue
            for n in uav_prefs[j].ranked:
                if j not in srank[n]:
                    continue
                partner = assignment.get(n)
                if partner is None:
                    return True  # mutually acceptable and both unmatched
                if srank[n][j] < srank[n][partner]:
                    return True
        return False

    def walk(t: int) -> None:
        if t == len(subs):
            if not leaf_blocked():
                results.append({n: j for n, j in assignment.items() if j is not None})
            return
        n = subs[t]
        for j in mutual[n] + [None]:
            if j is not None and j in used:
                continue
            if prefix_blocked(n, j):
                continue
            assignment[n] = j
            if j is not None:
                used.add(j)
            walk(t + 1)
            if j is not None:
                used.discard(j)
            del assignment[n]

    walk(0)
    return results


def is_subregion_optimal(
    candidate: dict[str, str],
    stable_set: list[dict[str, str]],
    sub_prefs: Mapping[str, PreferenceList],
) -> bool:
    """Every subregion weakly prefers ``candidate`` over any stable alternative."""
    for other in stable_set:
        for n, pref in sub_prefs.items():
            ranks = {j: k for k, j in enumerate(pref.ranked)}
            mine = ranks.get(candidate.get(n), len(ranks) + 1)
            theirs = ranks.get(other.get(n), len(ranks) + 1)
            if mine > theirs:
                return False
    return True


def random_coverage_draw(rng: np.random.Generator) -> tuple[float, float, EconomyParams]:
    """A random ``(upsilon, data_volume, econ)`` whose closed-form coverage is strictly interior.

    The revenue scale is back-solved from a target coverage drawn in
    (0.02, 0.95), which keeps the optimum away from the clamp boundaries.
    """
    phi = rng.uniform(0.01, 1.0)
    alpha = rng.uniform(1.0, 1000.0)
    beta = rng.uniform(1.0, 100.0)
    upsilon = phi * (alpha + beta)
    mu = rng.uniform(0.1, 10.0)
    volume = rng.uniform(1.0, 100.0)
    n_subregions = int(rng.integers(1, 9))
    target = rng.uniform(0.02, 0.95)
    sigma = n_subregions * upsilon * (1.0 + mu * volume * target)
    return upsilon, volume, EconomyParams(phi=phi, mu=mu, sigma=sigma, n_subregions=n_subregions)
