"""Utility, accuracy, and profit accounting tests."""

import math

import pytest
from hypothesis import given, strategies as st

from uavmarket.core import CostVector
from uavmarket.economics import (
    ContractItem,
    EconomyParams,
    model_accuracy,
    owner_profit,
    uav_utility,
)


def revised_utility(item: ContractItem, alpha: float, beta: float, phi: float) -> float:
    """Payoff net of coverage-linked costs only: ``R - phi*(alpha+beta)*theta``.

    This is the quantity the self-selection analysis runs on; the fixed
    traversal and upload legs are settled separately.
    """
    return item.coverage_reward - phi * (alpha + beta) * item.theta


ECON = EconomyParams(phi=0.05, mu=1.0, sigma=100.0, n_subregions=1)

finite = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestUavUtility:
    def test_worked_example(self):
        # fixed reward priced exactly at the fixed costs, so they cancel
        costs = CostVector(alpha=250.0, beta=20.0, psi=100.0, zeta=100.0)
        item = ContractItem(theta=0.6407, coverage_reward=12.416, fixed_reward=0.05 * 200.0)
        assert uav_utility(item, costs, ECON) == pytest.approx(12.416 - 0.05 * 270 * 0.6407)
        assert uav_utility(item, costs, ECON) == pytest.approx(3.76655)

    def test_pure_compensation_is_zero(self):
        costs = CostVector(alpha=250.0, beta=20.0, psi=100.0, zeta=100.0)
        item = ContractItem(theta=0.0, coverage_reward=0.0, fixed_reward=0.05 * 200.0)
        assert uav_utility(item, costs, ECON) == 0.0

    def test_uncompensated_fixed_costs_bite(self):
        costs = CostVector(alpha=250.0, beta=20.0, psi=100.0, zeta=100.0)
        theta = 0.5
        item = ContractItem(
            theta=theta, coverage_reward=0.05 * 270 * theta, fixed_reward=0.0
        )
        assert uav_utility(item, costs, ECON) == pytest.approx(-0.05 * 200.0)

    @given(
        theta=st.floats(0.0, 1.0),
        reward=finite,
        rhat=finite,
        alpha=st.floats(1.0, 1e3),
        beta=st.floats(1.0, 1e3),
        psi=finite,
        zeta=finite,
    )
    def test_decomposition_identity_exact(self, theta, reward, rhat, alpha, beta, psi, zeta):
        item = ContractItem(theta=theta, coverage_reward=reward, fixed_reward=rhat)
        costs = CostVector(alpha=alpha, beta=beta, psi=psi, zeta=zeta)
        lhs = uav_utility(item, costs, ECON)
        rhs = revised_utility(item, alpha, beta, ECON.phi) + rhat - ECON.phi * (psi + zeta)
        assert lhs == rhs

    def test_fixed_terms_cancel_in_comparisons(self):
        costs = CostVector(alpha=300.0, beta=30.0, psi=250.0, zeta=40.0)
        a = ContractItem(theta=0.7, coverage_reward=14.0, fixed_reward=5.0)
        b = ContractItem(theta=0.2, coverage_reward=4.0, fixed_reward=5.0)
        full_gap = uav_utility(a, costs, ECON) - uav_utility(b, costs, ECON)
        revised_gap = revised_utility(a, 300.0, 30.0, ECON.phi) - revised_utility(
            b, 300.0, 30.0, ECON.phi
        )
        assert full_gap == pytest.approx(revised_gap, abs=1e-12)


class TestRevisedUtility:
    def test_binding_at_worst_type(self):
        item = ContractItem(theta=0.1116, coverage_reward=5.273)
        assert revised_utility(item, 875.0, 70.0, 0.05) == pytest.approx(0.0, abs=1e-3)

    def test_zero_everything(self):
        assert revised_utility(ContractItem(0.0, 0.0), 875.0, 70.0, 0.05) == 0.0

    @given(theta=st.floats(0.0, 1.0), reward=finite)
    def test_algebraic_identity(self, theta, reward):
        item = ContractItem(theta=theta, coverage_reward=reward)
        value = revised_utility(item, 250.0, 20.0, 0.05)
        assert value + 0.05 * 270.0 * theta == pytest.approx(reward, abs=1e-9)


class TestModelAccuracy:
    def test_worked_example(self):
        value = model_accuracy([(1.0, 10.0), (0.5, 10.0)], mu=1.0)
        assert value == pytest.approx((math.log(11) + math.log(6)) / 2)
        assert value == pytest.approx(2.0948, abs=1e-4)

    def test_zero_coverage_is_zero(self):
        assert model_accuracy([(0.0, 10.0), (0.0, 5.0)], mu=2.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            model_accuracy([], mu=1.0)

    @given(st.floats(0.01, 0.98), st.floats(0.001, 0.02))
    def test_increasing_and_concave(self, theta, step):
        lo = model_accuracy([(theta, 10.0)], mu=1.0)
        mid = model_accuracy([(theta + step / 2, 10.0)], mu=1.0)
        hi = model_accuracy([(theta + step, 10.0)], mu=1.0)
        assert lo < mid < hi
        assert mid >= (lo + hi) / 2 - 1e-12


class TestOwnerProfit:
    def test_worked_example(self):
        coverages = [(1.0, 10.0), (0.5, 10.0)]
        econ = EconomyParams(phi=0.05, mu=1.0, sigma=100.0, n_subregions=2)
        expected = 100.0 * (math.log(11) + math.log(6)) / 2 - 50.0
        assert owner_profit(coverages, [30.0, 20.0], econ) == pytest.approx(expected)
        assert owner_profit(coverages, [30.0, 20.0], econ) == pytest.approx(159.48, abs=0.01)

    def test_zero_coverage_zero_rewards(self):
        assert owner_profit([(0.0, 10.0)], [0.0], ECON) == 0.0

    def test_linear_in_rewards(self):
        coverages = [(0.3, 10.0), (0.6, 20.0)]
        econ = EconomyParams(phi=0.05, mu=1.0, sigma=100.0, n_subregions=2)
        base = owner_profit(coverages, [5.0, 7.0], econ)
        bumped = owner_profit(coverages, [5.0, 10.5], econ)
        assert bumped == pytest.approx(base - 3.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            owner_profit([(0.3, 10.0)], [1.0, 2.0], ECON)

    def test_increasing_in_coverage(self):
        low = owner_profit([(0.2, 10.0)], [5.0], ECON)
        high = owner_profit([(0.4, 10.0)], [5.0], ECON)
        assert high > low


class TestParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            EconomyParams(phi=0.0, mu=1.0, sigma=1.0, n_subregions=1)
        with pytest.raises(ValueError):
            EconomyParams(phi=1.0, mu=1.0, sigma=1.0, n_subregions=0)

    def test_item_theta_domain(self):
        with pytest.raises(ValueError):
            ContractItem(theta=1.5, coverage_reward=1.0)
