"""Shared builders for the test suite."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from uavmarket.contract import build_schedule
from uavmarket.core import CostVector, Position, Subregion
from uavmarket.economics import EconomyParams
from uavmarket.matching import PreferenceList

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark(name: str):
    """``benchmarks/<name>.py`` as a module, read only; skips when the file is absent."""
    path = BENCHMARKS / f"{name}.py"
    if not path.exists():
        pytest.skip("benchmarks/ is not in this checkout")
    spec = importlib.util.spec_from_file_location(f"uavmarket_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRID_ALPHAS = [250.0 + 125.0 * k for k in range(6)]
GRID_BETAS = [20.0 + 10.0 * k for k in range(6)]


def demo_subregion(data_volume=10.0, sub_id="s1"):
    return Subregion(
        id=sub_id,
        center=Position(0.0, 0.0, 0.0),
        full_distance=1000.0,
        data_volume=data_volume,
        rate_factor=1.0,
    )


def demo_econ(sigma=100.0, n_subregions=1, mu=1.0, phi=0.05):
    return EconomyParams(phi=phi, mu=mu, sigma=sigma, n_subregions=n_subregions)


def coverage_payoff(theta, upsilon, data_volume, econ, reward_hat=0.0):
    """Owner's per-subregion payoff of asking a type of marginal cost ``upsilon`` for ``theta``.

    The reference for ``verification.grid_oracle_coverage``, which must
    pick, rung by rung, the grid point this maximises first at no fixed
    reward.
    """
    scale = econ.mu * data_volume
    revenue = econ.sigma / econ.n_subregions * (np.log1p(scale * theta) / scale)
    return revenue - reward_hat - upsilon * theta


def minimal_doc(**overrides):
    doc = {
        "format_version": 1,
        "economy": {"phi": 0.05, "mu": 1.0, "sigma": 100.0},
        "fl": {
            "lipschitz": 4.0,
            "strong_convexity": 2.0,
            "xi": 0.3333333333333333,
            "delta": 0.25,
            "local_accuracy": 0.6,
            "update_size": 8e6,
        },
        "subregions": [
            {
                "id": "s1",
                "center": [0.0, 0.0, 0.0],
                "full_distance": 1000.0,
                "data_volume": 10.0,
                "rate_factor": 1.0,
            }
        ],
        "uavs": [
            {"id": "u1", "mode": "direct", "alpha": 250.0, "beta": 20.0, "psi": 10.0}
        ],
    }
    doc.update(overrides)
    return doc


def grid_announcements():
    return {
        f"u{k + 1}": CostVector(a, b, 0.0, 0.0)
        for k, (a, b) in enumerate(zip(GRID_ALPHAS, GRID_BETAS))
    }


@pytest.fixture
def demo_grid_schedule():
    """The six-type ascending-cost demo menu on a single subregion."""
    return build_schedule(grid_announcements(), demo_subregion(), demo_econ(), reward_hat=0.0)


def random_schedule(rng: np.random.Generator, reward_hat=0.0):
    """A random menu with distinct marginal costs and interior worst-type coverage."""
    m = int(rng.integers(2, 9))
    upsilons = np.sort(rng.uniform(1.0, 60.0, size=m))
    while len(np.unique(upsilons)) != m:
        upsilons = np.sort(rng.uniform(1.0, 60.0, size=m))
    phi = 0.05
    announcements = {
        f"u{i}": CostVector(
            alpha=float(u / phi - 10.0),
            beta=10.0,
            psi=float(rng.uniform(0.0, 500.0)),
            zeta=float(rng.uniform(0.0, 500.0)),
        )
        for i, u in enumerate(upsilons)
    }
    volume = float(rng.uniform(1.0, 50.0))
    mu = float(rng.uniform(0.1, 5.0))
    sigma = float(upsilons[-1] * rng.uniform(1.05, 4.0))
    sub = demo_subregion(data_volume=volume)
    econ = demo_econ(sigma=sigma, mu=mu, phi=phi)
    return build_schedule(announcements, sub, econ, reward_hat=reward_hat), sub, econ


def random_matching_instance(rng: np.random.Generator, max_side=8, p_accept=0.85):
    """A tie-free bare-preferences instance for the assignment engine."""
    n_subs = int(rng.integers(1, max_side + 1))
    n_uavs = int(rng.integers(1, max_side + 1))
    subs = [f"s{i}" for i in range(n_subs)]
    uavs = [f"u{j}" for j in range(n_uavs)]
    sub_prefs, uav_prefs = {}, {}
    for s in subs:
        chosen = [u for u in uavs if rng.random() < p_accept]
        rng.shuffle(chosen)
        scores = np.sort(rng.uniform(1.0, 50.0, size=len(chosen)))
        while len(np.unique(scores)) != len(chosen):
            scores = np.sort(rng.uniform(1.0, 50.0, size=len(chosen)))
        sub_prefs[s] = PreferenceList(s, tuple(chosen), tuple(float(x) for x in scores))
    for u in uavs:
        chosen = [s for s in subs if rng.random() < p_accept]
        rng.shuffle(chosen)
        scores = -np.sort(-rng.uniform(0.5, 40.0, size=len(chosen)))
        while len(np.unique(scores)) != len(chosen):
            scores = -np.sort(-rng.uniform(0.5, 40.0, size=len(chosen)))
        uav_prefs[u] = PreferenceList(u, tuple(chosen), tuple(float(x) for x in scores))
    return sub_prefs, uav_prefs
