"""Radial action, closed-form H(I), frequencies, and closure prediction."""

import math

import numpy as np
import pytest

import conedyn as cd
from conedyn import bertrand
from conedyn.errors import DomainError, StructuralError
from helpers import RATIONAL_S, bound_energy, kepler_params, midwell_point, oscillator_params


class TestRadialAction:
    def test_kepler_closed_form_inversion(self):
        # I2 = kappa*sqrt(m/(-2E)) - J/s = 2 - 1 at E = -1/8
        i2 = cd.radial_action(kepler_params(), -0.125, 1.0)
        assert i2 == pytest.approx(1.0, rel=1e-9)

    def test_circular_level_is_zero(self):
        assert cd.radial_action(kepler_params(), -0.5, 1.0) == 0.0

    def test_oscillator_closed_form_inversion(self):
        # I2 = (E/omega - J/s)/2 = 0.5 at E = 2
        i2 = cd.radial_action(oscillator_params(), 2.0, 1.0)
        assert i2 == pytest.approx(0.5, rel=1e-9)

    def test_general_potential_supported(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.PowerLaw(amplitude=1.0, exponent=1.0),
        )
        _, e_c = cd.circular_orbit(params, 1.0)
        assert cd.radial_action(params, e_c + 0.5, 1.0) > 0.0


class TestHamiltonianFromActions:
    def test_kepler_direct(self):
        assert cd.hamiltonian_from_actions(kepler_params(), 1.0, 1.0) == pytest.approx(-0.125)

    def test_oscillator_direct(self):
        assert cd.hamiltonian_from_actions(oscillator_params(), 1.0, 0.5) == pytest.approx(2.0)

    def test_kepler_scaled_geometry(self):
        val = cd.hamiltonian_from_actions(kepler_params(2, 3), 1.0, 0.0)
        assert val == pytest.approx(-2.0 / 9.0, rel=1e-12)

    def test_sign_of_i1_irrelevant(self):
        a = cd.hamiltonian_from_actions(kepler_params(), 1.0, 0.3)
        b = cd.hamiltonian_from_actions(kepler_params(), -1.0, 0.3)
        assert a == b

    def test_unsupported_potential(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.LogPotential(strength=1.0, r0=1.0),
        )
        with pytest.raises(StructuralError):
            cd.hamiltonian_from_actions(params, 1.0, 0.5)

    def test_negative_radial_action_rejected(self):
        with pytest.raises(DomainError):
            cd.hamiltonian_from_actions(kepler_params(), 1.0, -0.1)


class TestFrequencies:
    def test_flat_kepler_degenerate(self):
        data = cd.frequencies(kepler_params(), -0.375, 1.0)
        assert data.ratio == pytest.approx(1.0, abs=1e-9)
        assert data.rational_approx is not None
        assert (data.rational_approx.p, data.rational_approx.q) == (1, 1)

    def test_kepler_two_thirds(self):
        data = cd.frequencies(kepler_params(2, 3), -0.15, 1.0)
        assert data.ratio == pytest.approx(1.5, abs=1e-9)
        assert (data.rational_approx.p, data.rational_approx.q) == (3, 2)

    def test_oscillator_three_quarters(self):
        params = oscillator_params(3, 4)
        data = cd.frequencies(params, bound_energy(params, 1.0, 0.4), 1.0)
        assert data.ratio == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert (data.rational_approx.p, data.rational_approx.q) == (2, 3)

    def test_circular_level_uses_harmonic_limit(self):
        data = cd.frequencies(kepler_params(), -0.5, 1.0)
        assert data.i2 == 0.0
        assert data.ratio == pytest.approx(1.0, rel=1e-10)

    def test_one_turning_point_solve_per_level(self, monkeypatch):
        # the radial action, period and apsidal angle share one well
        calls = []
        solve = bertrand._turning_points
        monkeypatch.setattr(bertrand, "_turning_points",
                            lambda *args: calls.append(args) or solve(*args))
        power = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=0.8),
                          potential=cd.PowerLaw(amplitude=1.0, exponent=1.0))
        for params, E in ((kepler_params(2, 3), -0.15), (power, 2.5)):
            calls.clear()
            cd.frequencies(params, E, 1.0)
            assert len(calls) == 1

    def test_period_frequency_consistency(self):
        params = kepler_params(3, 4)
        E, J = bound_energy(params, 1.1, 0.3), 1.1
        data = cd.frequencies(params, E, J)
        assert data.omega2 * cd.radial_period(params, E, J) == pytest.approx(
            2 * math.pi, rel=1e-10
        )

    def test_roundtrip_across_geometries(self):
        rng = np.random.default_rng(6)
        s_list = RATIONAL_S + [(77, 100)]
        for k, n in s_list:
            for build in (kepler_params, oscillator_params):
                params = build(k, n)
                for _ in range(4):
                    J = float(rng.uniform(0.5, 1.5)) * (1 if rng.uniform() < 0.5 else -1)
                    E = bound_energy(params, abs(J), float(rng.uniform(0.1, 0.7)))
                    i2 = cd.radial_action(params, E, J)
                    back = cd.hamiltonian_from_actions(params, J, i2)
                    assert back == pytest.approx(E, rel=1e-8)

    def test_ratio_constant_across_levels(self):
        params = oscillator_params(2, 3, omega=0.8)
        ratios = [
            cd.frequencies(params, bound_energy(params, J, f), J).ratio
            for J in (0.6, 1.0, 1.4)
            for f in (0.15, 0.45, 0.75)
        ]
        assert max(ratios) - min(ratios) < 1e-8

    def test_numeric_dh_di2_matches_omega2(self):
        # finite difference of E with respect to I2 at fixed I1, via the
        # monotone map E -> I2(E)
        params = kepler_params(2, 3)
        E, J = -0.15, 1.0
        data = cd.frequencies(params, E, J)
        dE = 1e-5
        i2_hi = cd.radial_action(params, E + dE, J)
        i2_lo = cd.radial_action(params, E - dE, J)
        fd = 2 * dE / (i2_hi - i2_lo)
        assert fd == pytest.approx(data.omega2, rel=1e-5)


class TestPredictClosure:
    def test_kepler_two_thirds(self):
        assert cd.predict_closure(kepler_params(2, 3), -0.15, 1.0) == (3, 2)

    def test_flat_oscillator(self):
        params = oscillator_params()
        assert cd.predict_closure(params, 1.5, 1.0) == (1, 2)

    def test_irrational_scale_rejected(self):
        params = kepler_params(s=1.0 / math.sqrt(2.0))
        E = bound_energy(params, 1.0, 0.3)
        assert cd.predict_closure(params, E, 1.0) is None

    def test_agrees_with_detected_closure(self):
        rng = np.random.default_rng(8)
        cases = [(kepler_params(2, 3), 1), (oscillator_params(1, 2), 2),
                 (kepler_params(3, 4), 3), (oscillator_params(3, 4), 4)]
        for params, _ in cases:
            J = float(rng.uniform(0.8, 1.2))
            E = bound_energy(params, J, float(rng.uniform(0.2, 0.5)))
            predicted = cd.predict_closure(params, E, J)
            assert predicted is not None
            T = cd.radial_period(params, E, J)
            steps_per_period = 20000
            n = int((predicted[1] + 0.6) * steps_per_period)
            n -= n % 50
            traj = cd.integrate(params, midwell_point(params, E, J),
                                T / steps_per_period, n, 50)
            info = cd.detect_closure(traj, tol=1e-6)
            assert info is not None
            assert info.radial_periods == predicted[1]
