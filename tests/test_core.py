"""Physical and training-cost model tests.

Expected values are frozen from independent hand evaluation of the
formulas; identities are property-tested.
"""

import math

import pytest
from hypothesis import given, strategies as st

from conftest import minimal_doc
from uavmarket.core import (
    CostVector,
    FlHyperParams,
    Position,
    Subregion,
    SubregionColumns,
    UavProfile,
    _pair_terms,
    check_feasibility,
    derive_cost_vector,
    fl_rounds,
)
from uavmarket.scenario import scenario_from_dict


def make_profile(**overrides):
    kwargs = dict(
        id="u1",
        base=Position(1000.0, 0.0, 0.0),
        velocity=10.0,
        cycles_per_bit=10.0,
        cpu_frequency=2e9,
        capacitance=1e-28,
        transmit_power=8.0,
        power=20.0,
    )
    kwargs.update(overrides)
    return UavProfile(**kwargs)


def make_sub(**overrides):
    kwargs = dict(
        id="s1",
        center=Position(0.0, 0.0, 0.0),
        full_distance=2000.0,
        data_volume=8e6,
        rate_factor=1e4,
    )
    kwargs.update(overrides)
    return Subregion(**kwargs)


def make_fl(**overrides):
    kwargs = dict(
        lipschitz=4.0,
        strong_convexity=2.0,
        xi=1.0 / 3.0,
        delta=0.25,
        local_accuracy=0.6,
        update_size=8e6,
        rounds_override=24,
    )
    kwargs.update(overrides)
    return FlHyperParams(**kwargs)


def phases(theta, sub=None, profile=None, fl=None):
    """``_pair_terms`` cut into its traversal, computation and transmission slices.

    Traversal is (duration, energy, alpha, psi), computation (duration,
    energy, beta) and transmission (duration, zeta).
    """
    sub, profile = sub or make_sub(), profile or make_profile()
    base_leg = profile.base.distance_to(sub.center)
    terms = _pair_terms(theta, sub, base_leg, profile, fl or make_fl())
    return terms[:4], terms[4:7], terms[7:]


def screen(subs, profile=None, theta_hat=0.8):
    """One UAV's screen against ``subs``, in order."""
    return check_feasibility(
        SubregionColumns.of(subs), profile or make_profile(), make_fl(), theta_hat
    )


class TestPropulsionPower:
    def test_direct_mode_passes_through(self):
        assert make_profile(power=20.0).cruise_power == 20.0

    def test_coefficient_mode(self):
        profile = make_profile(power=None, power_coefficients=(0.01, 100.0))
        # 0.01 * 10**3 + 100 / 10
        assert profile.cruise_power == pytest.approx(20.0)

    def test_both_zero_coefficients_rejected(self):
        with pytest.raises(ValueError, match="both"):
            make_profile(power=None, power_coefficients=(0.0, 0.0))

    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            make_profile(power=20.0, power_coefficients=(0.01, 100.0))
        with pytest.raises(ValueError):
            make_profile(power=None, power_coefficients=None)


class TestTraversalPhase:
    def test_worked_example(self):
        duration, energy, alpha, psi = phases(0.5)[0]
        assert duration == pytest.approx(200.0)
        assert energy == pytest.approx(4000.0)
        assert alpha == pytest.approx(4000.0)
        assert psi == pytest.approx(2000.0)

    def test_zero_theta_at_center_is_free(self):
        profile = make_profile(base=Position(0.0, 0.0, 0.0))
        duration, energy, _, _ = phases(0.0, profile=profile)[0]
        assert duration == 0.0
        assert energy == 0.0

    def test_theta_domain(self):
        # the screen is the one public call that takes a coverage
        with pytest.raises(ValueError):
            screen([make_sub()], theta_hat=1.2)
        with pytest.raises(ValueError):
            screen([make_sub()], theta_hat=-0.1)

    @given(theta=st.floats(0.0, 1.0))
    def test_energy_decomposition_is_exact(self, theta):
        _, energy, alpha, psi = phases(theta)[0]
        assert energy - (alpha * theta + psi) == 0.0

    @given(theta=st.floats(0.0, 1.0))
    def test_energy_matches_duration_times_power(self, theta):
        profile = make_profile()
        duration, energy, _, _ = phases(theta, profile=profile)[0]
        assert energy == pytest.approx(duration * profile.cruise_power)


class TestFlRounds:
    def test_local_iterations_table_value(self):
        rounds = fl_rounds(make_fl(rounds_override=None))
        assert rounds.local_iterations == 4.0

    def test_round_scale_exact(self):
        rounds = fl_rounds(make_fl(rounds_override=None))
        assert rounds.round_scale == 24.0

    def test_derived_round_count(self):
        assert fl_rounds(make_fl(rounds_override=None)).rounds == 60

    def test_override_round_count(self):
        assert fl_rounds(make_fl(rounds_override=24)).rounds == 24

    def test_bad_step_size_rejected(self):
        # delta = 0.5 makes (2 - L*delta) zero for L = 4
        with pytest.raises(ValueError):
            make_fl(delta=0.5)

    def test_xi_bound(self):
        with pytest.raises(ValueError):
            make_fl(xi=0.6)  # above strong_convexity / lipschitz = 0.5


class TestComputationPhase:
    def test_worked_example(self):
        duration, energy, _ = phases(1.0)[1]
        expected_duration = 24 * 4 * 10.0 * 8e6 * math.log2(1 / 0.6) / 2e9
        expected_energy = 24 * 1e-28 * 10.0 * 8e6 * 4 * math.log2(1 / 0.6) * (2e9) ** 2
        assert duration == pytest.approx(expected_duration)
        assert duration == pytest.approx(2.8299478815982315)
        assert energy == pytest.approx(expected_energy)
        assert energy == pytest.approx(2.263958305278586)

    def test_zero_theta(self):
        duration, energy, _ = phases(0.0)[1]
        assert duration == 0.0
        assert energy == 0.0

    def test_cpu_frequency_scaling(self):
        slow = phases(0.7)[1]
        fast = phases(0.7, profile=make_profile(cpu_frequency=4e9))[1]
        assert fast[1] == pytest.approx(4 * slow[1])
        assert fast[0] == pytest.approx(slow[0] / 2)
        assert derive_cost_vector(
            make_sub(), make_profile(cpu_frequency=4e9), make_fl()
        ).beta == pytest.approx(4 * slow[2])

    @given(theta=st.floats(1e-6, 1.0))
    def test_energy_linear_in_theta(self, theta):
        _, energy, beta = phases(theta)[1]
        assert energy / theta == pytest.approx(beta)
        assert beta == derive_cost_vector(make_sub(), make_profile(), make_fl()).beta


class TestTransmissionPhase:
    def test_worked_example(self):
        duration, zeta = phases(1.0)[2]
        assert duration == pytest.approx(2400.0)
        assert zeta == pytest.approx(19200.0)

    @pytest.mark.parametrize("rho", [2.0, 8.0, 18.0])
    def test_transmit_power_cancels_in_energy(self, rho):
        vector = derive_cost_vector(make_sub(), make_profile(transmit_power=rho), make_fl())
        assert vector.zeta * make_sub().rate_factor == pytest.approx(24 * 8e6)

    def test_rate_factor_inverse_proportionality(self):
        base = phases(1.0)[2]
        doubled = phases(1.0, sub=make_sub(rate_factor=2e4))[2]
        assert doubled[0] == pytest.approx(base[0] / 2)
        assert doubled[1] == pytest.approx(base[1] / 2)


class TestCostVector:
    def test_composition_matches_phases(self):
        sub, profile, fl = make_sub(), make_profile(), make_fl()
        vector = derive_cost_vector(sub, profile, fl)
        (_, _, alpha, psi), (_, _, beta), (_, zeta) = phases(1.0, sub, profile, fl)
        assert (vector.alpha, vector.beta, vector.psi, vector.zeta) == (alpha, beta, psi, zeta)

    def test_base_position_only_moves_psi(self):
        near = derive_cost_vector(make_sub(), make_profile(), make_fl())
        far = derive_cost_vector(
            make_sub(), make_profile(base=Position(3000.0, 0.0, 0.0)), make_fl()
        )
        assert far.psi == pytest.approx(3 * near.psi)
        assert far.alpha == near.alpha
        assert far.beta == near.beta
        assert far.zeta == near.zeta

    def test_declared_values_pass_through(self):
        doc = minimal_doc()
        doc["uavs"][0].update(alpha=250.0, beta={"s1": 20.0}, psi=100.0, zeta=50.0)
        (uav,) = scenario_from_dict(doc).uavs
        assert uav.costs == {"s1": CostVector(250.0, 20.0, 100.0, 50.0)}

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            CostVector(alpha=-1.0, beta=20.0, psi=0.0, zeta=0.0)

    def test_ranking_preserved_across_subregions(self):
        profiles = [
            make_profile(id="a", power=20.0, velocity=10.0),
            make_profile(id="b", power=35.0, velocity=20.0),
            make_profile(id="c", power=12.0, velocity=15.0),
        ]
        fl = make_fl()
        near = make_sub(id="n1", full_distance=1200.0, data_volume=5e6)
        far = make_sub(id="n2", full_distance=2000.0, data_volume=8e6)
        for field in ("alpha", "beta"):
            order_near = sorted(
                profiles, key=lambda p: getattr(derive_cost_vector(near, p, fl), field)
            )
            order_far = sorted(
                profiles, key=lambda p: getattr(derive_cost_vector(far, p, fl), field)
            )
            assert [p.id for p in order_near] == [p.id for p in order_far]


class TestFeasibility:
    def test_unconstrained_passes(self):
        report = screen([make_sub()])
        assert report.time_ok == report.energy_ok == report.passes == (True,)
        assert report.feasible

    def test_composite_totals(self):
        # traversal 260 s / 5200 J, computation 2.2640 s / 1.8112 J,
        # transmission 2400 s / 19200 J at the screening coverage 0.8
        report = screen([make_sub(), make_sub(deadline=2700.0), make_sub(deadline=2600.0)])
        expected_time = 260.0 + 0.8 * 2.8299478815982315 + 2400.0
        expected_energy = 5200.0 + 0.8 * 2.263958305278586 + 19200.0
        assert report.total_time == pytest.approx((expected_time,) * 3)
        assert report.total_energy == pytest.approx((expected_energy,) * 3)
        assert report.time_ok == report.passes == (True, True, False)
        assert report.feasible

    def test_fields_are_plain_values_aligned_with_the_subregions(self):
        far = make_sub(id="s2", center=Position(0.0, 3e5, 40.0))
        report = screen([make_sub(), far, make_sub(id="s3", deadline=1.0)])
        kinds = dict(time_ok=bool, energy_ok=bool, total_time=float, total_energy=float, passes=bool)
        assert tuple(kinds) == report._fields
        for name, kind in kinds.items():
            values = getattr(report, name)
            assert type(values) is tuple and len(values) == 3, name
            assert all(type(v) is kind for v in values), name
        # the far centre only lengthens the flight
        assert report.total_time[1] > report.total_time[0] == report.total_time[2]
        assert report.passes == (True, True, False)

    def test_deadline_boundary_is_inclusive(self):
        (total_time,) = screen([make_sub()]).total_time
        bounded = screen([make_sub(deadline=total_time)])
        assert bounded.time_ok == (True,)

    def test_energy_gate(self):
        report = screen([make_sub(), make_sub(id="s2")], make_profile(energy_capacity=1000.0))
        assert report.energy_ok == report.passes == (False, False)
        assert report.time_ok == (True, True)
        assert not report.feasible

    def test_battery_boundary_is_inclusive(self):
        (total_energy,) = screen([make_sub()]).total_energy
        bounded = screen([make_sub()], make_profile(energy_capacity=total_energy))
        assert bounded.energy_ok == (True,)

    def test_theta_hat_domain(self):
        with pytest.raises(ValueError):
            screen([make_sub()], theta_hat=0.0)
        with pytest.raises(ValueError):
            screen([make_sub()], theta_hat=1.1)

    def test_upload_rate_underflow_names_the_first_subregion(self):
        # 1e-200 * 1e-200 and 1e-300 * 1e-200 both underflow to 0
        subs = [make_sub(), make_sub(id="s2", rate_factor=1e-200)]
        subs.append(make_sub(id="s3", rate_factor=1e-300))
        with pytest.raises(ValueError, match="subregion 's2': rate_factor \\* transmit_power"):
            screen(subs, make_profile(transmit_power=1e-200))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_costs_monotone_in_theta(self, t1, t2):
        lo, hi = sorted((t1, t2))
        (trav_lo, comp_lo, _), (trav_hi, comp_hi, _) = phases(lo), phases(hi)
        assert trav_lo[0] <= trav_hi[0]  # duration
        assert trav_lo[1] <= trav_hi[1]  # energy
        assert comp_lo[0] <= comp_hi[0]
        assert comp_lo[1] <= comp_hi[1]


class TestTypeInvariants:
    def test_position_must_be_finite(self):
        with pytest.raises(ValueError):
            Position(math.nan, 0.0, 0.0)

    def test_subregion_positives(self):
        with pytest.raises(ValueError):
            make_sub(full_distance=0.0)
        with pytest.raises(ValueError):
            make_sub(data_volume=-1.0)

    def test_accuracy_bounds(self):
        with pytest.raises(ValueError):
            make_fl(local_accuracy=1.0)
        with pytest.raises(ValueError):
            make_fl(local_accuracy=0.0)
