"""Geometry, potentials, phase points, and chart conversions."""

import math

import numpy as np
import pytest

import conedyn as cd
from conedyn import dynamics
from conedyn.errors import DomainError

TWO_PI = 2.0 * math.pi


class TestConeGeometry:
    def test_rational_construction(self):
        geo = cd.ConeGeometry.from_rational(2, 3)
        assert geo.s == 2 / 3
        assert geo.rational == (2, 3)

    def test_from_rational_reduces(self):
        assert cd.ConeGeometry.from_rational(4, 6).rational == (2, 3)

    def test_unreduced_pair_rejected(self):
        with pytest.raises(DomainError):
            cd.ConeGeometry(s=0.5, rational=(2, 4))

    def test_mismatched_pair_rejected(self):
        with pytest.raises(DomainError):
            cd.ConeGeometry(s=0.5, rational=(2, 3))

    def test_nonpositive_pair_rejected(self):
        with pytest.raises(DomainError,
                           match=r"^rational form needs positive integers, got \(0, 1\)$"):
            cd.ConeGeometry(s=1.0, rational=(0, 1))

    def test_nonpositive_s_rejected(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                cd.ConeGeometry(s=bad)


class TestPotentials:
    def test_kepler_value(self):
        assert cd.Kepler(kappa=1.0).value(2.0) == pytest.approx(-0.5)

    def test_oscillator_value(self):
        assert cd.Oscillator(omega=1.0).value(2.0, m=1.0) == pytest.approx(2.0)

    def test_log_value(self):
        pot = cd.LogPotential(strength=1.0, r0=1.0)
        assert pot.value(math.e) == pytest.approx(1.0)

    def test_log_value_is_the_c_library_log(self):
        # math.log per element, whatever numpy's CPU dispatch; np.log's
        # values at 0, below it and at NaN, with no exception
        pot = cd.LogPotential(strength=1.0, r0=1.0)
        r = np.random.default_rng(3).uniform(1e-3, 1e3, 1000)
        assert pot.value(r).tobytes() == np.array([math.log(x) for x in r.tolist()]).tobytes()
        assert type(pot.value(2.5)) is float and pot.value(2.5) == math.log(2.5)
        special = pot.value(np.array([0.0, -0.0, -1.0, math.nan, math.inf]))
        assert special.tolist()[:2] == [-math.inf, -math.inf] and special[4] == math.inf
        assert np.isnan(special[2:4]).all()
        assert pot.value(np.empty((0, 3))).shape == (0, 3)

    def test_nonpositive_radius_rejected(self):
        params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0), potential=cd.Kepler(kappa=1.0))
        with pytest.raises(DomainError):
            cd.effective_potential(params, 1.0, 0.0)
        with pytest.raises(DomainError):
            cd.effective_potential(params, 1.0, -1.0)

    def test_power_law_exponent_bound(self):
        with pytest.raises(DomainError):
            cd.PowerLaw(amplitude=1.0, exponent=-2.0)

    def test_derivatives_match_finite_differences(self):
        # the lane evaluator's slope U_eff'(r) against a central difference of
        # U_eff (the stepper's force is checked bit for bit against a
        # reference loop in test_dynamics)
        pots = [
            cd.Kepler(kappa=1.0),
            cd.Oscillator(omega=1.3),
            cd.PowerLaw(amplitude=-1.0, exponent=-0.5),
            cd.PowerLaw(amplitude=0.8, exponent=1.7),
            cd.LogPotential(strength=1.2, r0=0.7),
        ]
        cases = [(cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0), potential=pot), 1.0)
                 for pot in pots]
        cases.append((cd.Params(m=1.7, geometry=cd.ConeGeometry(s=0.6), potential=pots[3]), 2.9))
        rng = np.random.default_rng(2)
        for params, J in cases:
            r = rng.uniform(0.3, 5.0, size=20)
            h = 1e-6 * r
            fd = (cd.effective_potential(params, J, r + h)
                  - cd.effective_potential(params, J, r - h)) / (2 * h)
            _, du, _ = dynamics._effective_potential_lanes(params, J, r)
            assert fd == pytest.approx(du, rel=1e-8)

    def test_free_particle_amplitude_allowed(self):
        pot = cd.PowerLaw(amplitude=0.0, exponent=1.0)
        assert pot.value(3.0) == 0.0

    def test_power_law_amplitude_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match=rf"^amplitude must be finite, got {bad}$"):
                cd.PowerLaw(amplitude=bad, exponent=1.0)


class TestPhasePoint:
    def test_phi_reduced(self):
        pt = cd.PhasePoint(r=1.0, phi=7.0, p_r=0.0, J=1.0)
        assert 0.0 <= pt.phi < TWO_PI
        assert pt.phi == pytest.approx(7.0 - TWO_PI)
        neg = cd.PhasePoint(r=1.0, phi=-0.1, p_r=0.0, J=1.0)
        assert neg.phi == pytest.approx(TWO_PI - 0.1)

    def test_tip_excluded(self):
        with pytest.raises(DomainError):
            cd.PhasePoint(r=0.0, phi=0.0, p_r=0.0, J=1.0)
        for bad in ({"p_r": math.nan}, {"p_r": -math.inf}, {"J": math.nan}, {"J": math.inf}):
            with pytest.raises(DomainError):
                cd.PhasePoint(**{"r": 1.0, "phi": 0.0, "p_r": 0.0, "J": 1.0, **bad})

    def test_params_mass_positive(self):
        geo = cd.ConeGeometry(s=1.0)
        with pytest.raises(DomainError):
            cd.Params(m=0.0, geometry=geo, potential=cd.Kepler(kappa=1.0))
