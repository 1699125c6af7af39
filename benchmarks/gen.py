"""Seeded scenario generator for the benchmark.

Every family returns a plain scenario document (the JSON form that
``uavmarket.scenario.load_scenario`` reads). The output depends only on
(family, size, seed): each document draws from its own
``random.Random`` seeded with a string of those three values, so two
runs with the same arguments write byte-identical files.

Families:

* ``direct``   declared types, one ``psi`` per subregion, no exact ties
  in the marginal cost ``upsilon = phi * (alpha + beta)``.
* ``ties``     like ``direct``, but a fixed share of the fleet is an
  exact copy of the UAV before it, which forces the calibration tie rule.
* ``physical`` hardware profiles with a deadline on every subregion,
  spread over a square whose side sets the share of pairs that pass
  screening.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

PHI = 0.05

_FL = {
    "lipschitz": 4.0,
    "strong_convexity": 2.0,
    "xi": 0.3333333333333333,
    "delta": 0.25,
    "local_accuracy": 0.6,
    "update_size": 8000000.0,
    "rounds_override": 24,
}


def _rng(family: str, n_uavs: int, n_subs: int, seed: int) -> random.Random:
    return random.Random(f"{family}:{n_uavs}x{n_subs}:{seed}")


_RELATIVE_STEPS = {"delta_mode": "relative", "delta_value": 0.01, "max_rounds": 500}


def _document(
    seed: int, economy: dict, reward_hat: dict, calibration: dict, subregions: list, uavs: list
) -> dict:
    return {
        "format_version": 1,
        "seed": seed,
        "theta_hat": 0.8,
        "economy": economy,
        "fl": dict(_FL),
        "reward_hat_policy": reward_hat,
        "calibration": calibration,
        "subregions": subregions,
        "uavs": uavs,
    }


def _declared(
    family: str, n_uavs: int, n_subs: int, seed: int, twin_every: int, calibration: dict
) -> dict:
    """Declared-type market on a unit square of bases and centres.

    ``psi`` grows with the base-to-centre distance, so every UAV has a
    different favourite. ``sigma`` scales with the subregion count so
    that closed-form coverage stays interior at every size. When
    ``twin_every`` is positive, every ``twin_every``-th UAV copies the
    one before it exactly.
    """
    rng = _rng(family, n_uavs, n_subs, seed)
    centres = [(rng.random(), rng.random()) for _ in range(n_subs)]
    subregions = [
        {
            "id": f"s{k + 1}",
            "center": [round(1000.0 * x, 3), round(1000.0 * y, 3), 0.0],
            "full_distance": 1000.0,
            "data_volume": 10.0,
            "rate_factor": 1.0,
        }
        for k, (x, y) in enumerate(centres)
    ]
    uavs: list[dict] = []
    upsilons: set[float] = set()
    while len(uavs) < n_uavs:
        i = len(uavs)
        if twin_every and i % twin_every == twin_every - 1:
            twin = dict(uavs[-1])
            twin["id"] = f"u{i + 1}"
            uavs.append(twin)
            continue
        alpha = round(rng.uniform(200.0, 900.0), 3)
        beta = round(rng.uniform(15.0, 80.0), 3)
        upsilon = PHI * (alpha + beta)
        if upsilon in upsilons:
            continue  # keep distinct types distinct; only twins tie
        upsilons.add(upsilon)
        bx, by = rng.random(), rng.random()
        psi = {
            f"s{k + 1}": round(100.0 + 1400.0 * math.hypot(bx - x, by - y), 3)
            for k, (x, y) in enumerate(centres)
        }
        uavs.append(
            {"id": f"u{i + 1}", "mode": "direct", "alpha": alpha, "beta": beta, "psi": psi, "zeta": 0.0}
        )
    economy = {"phi": PHI, "mu": 1.0, "sigma": 60.0 * n_subs}
    reward_hat = {"mode": "reference", "psi_ref": 700.0, "zeta_ref": 0.0}
    return _document(seed, economy, reward_hat, calibration, subregions, uavs)


def direct(n_uavs: int, n_subs: int, seed: int) -> dict:
    """Tie-free declared types: no two UAVs share a marginal cost."""
    return _declared("direct", n_uavs, n_subs, seed, twin_every=0, calibration=_RELATIVE_STEPS)


def ties(n_uavs: int, n_subs: int, seed: int) -> dict:
    """Declared types where every second UAV is an exact twin of the one before.

    Calibration steps down by an absolute 0.1. Coverage rewards stay
    below 25 here, so every reward vector reaches the zero floor, where
    the tie rule falls back to a fixed order, within 250 of the 500
    allowed rounds: no tie is left unresolved.
    """
    steps = {"delta_mode": "absolute", "delta_value": 0.1, "max_rounds": 500}
    return _declared("ties", n_uavs, n_subs, seed, twin_every=2, calibration=steps)


# Screening at theta_hat = 0.8 spends about 405 s on sensing, training
# and upload, so a UAV flying at v m/s passes a subregion whose centre is
# within about v * (deadline - 405) m of its base. With v in [8, 12] and a
# 1000 s deadline that radius is about 6 km; a square of side
# radius * sqrt(pi / PASS_RATE) lets about PASS_RATE of pairs through
# (a little less, because reach discs are cut at the edges).
_DEADLINE = 1000.0
_REACH = 10.0 * (_DEADLINE - 405.0)
PASS_RATE = 0.05


def physical(n_uavs: int, n_subs: int, seed: int) -> dict:
    """Hardware profiles on a square sized so that about PASS_RATE of pairs pass."""
    rng = _rng("physical", n_uavs, n_subs, seed)
    side = _REACH * math.sqrt(math.pi / PASS_RATE)
    subregions = [
        {
            "id": f"s{k + 1}",
            "center": [round(rng.uniform(0.0, side), 3), round(rng.uniform(0.0, side), 3), 0.0],
            "full_distance": 2000.0,
            "data_volume": 8000000.0,
            "rate_factor": 100000.0,
            "deadline": _DEADLINE,
        }
        for k in range(n_subs)
    ]
    uavs = [
        {
            "id": f"u{i + 1}",
            "mode": "physical",
            "base": [round(rng.uniform(0.0, side), 3), round(rng.uniform(0.0, side), 3), 0.0],
            "velocity": round(rng.uniform(8.0, 12.0), 4),
            "power": round(rng.uniform(15.0, 25.0), 4),
            "cycles_per_bit": round(rng.uniform(8.0, 12.0), 4),
            "cpu_frequency": 2000000000.0,
            "capacitance": 1e-28,
            "transmit_power": round(rng.uniform(6.0, 10.0), 4),
            "energy_capacity": 1000000.0,
        }
        for i in range(n_uavs)
    ]
    # upsilon is about 0.05 * (4000 + 2300) = 315 per unit coverage
    economy = {"phi": PHI, "mu": 1e-06, "sigma": 4.0 * 315.0 * n_subs}
    reward_hat = {"mode": "reference", "psi_ref": 12000.0, "zeta_ref": 1920.0}
    return _document(seed, economy, reward_hat, _RELATIVE_STEPS, subregions, uavs)


FAMILIES = {"direct": direct, "ties": ties, "physical": physical}


def write(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
