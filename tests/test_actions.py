"""Radial action, closed-form H(I), frequencies, and closure prediction."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import conedyn as cd
from conedyn import actions, bertrand
from conedyn.cli import main
from conedyn.dynamics import _escape_energy
from conedyn.errors import ConeDynError, DomainError, StructuralError
from helpers import RATIONAL_S, bound_energy, kepler_params, midwell_point, oscillator_params

# one potential of each kind, with and without a top to the well
_LANE_PARAMS = {
    "kepler": kepler_params(2, 3),
    "oscillator": oscillator_params(3, 4),
    "power-law": cd.Params(m=1.0, geometry=cd.ConeGeometry(s=0.8),
                           potential=cd.PowerLaw(amplitude=-1.0, exponent=-0.5)),
    "log": cd.Params(m=1.0, geometry=cd.ConeGeometry.from_rational(1, 2),
                     potential=cd.LogPotential(strength=1.0, r0=1.0)),
}


def _lane_levels(params):
    """(E, J) levels that meet every way a level ends: bound levels of both
    rotation senses from near the bottom to near the top, a circular level,
    J = 0, E below the bottom and, where the well has a top, E at and above
    it."""
    top = _escape_energy(params)
    levels = []
    for J in (1.0, -0.7):
        _, e_c = cd.circular_orbit(params, J)
        depth = top - e_c if math.isfinite(top) else 10.0 * max(abs(e_c), 1.0)
        levels += [(e_c + f * depth, J) for f in (1e-6, 0.1, 0.5, 0.9)]
        levels += [(e_c, J), (e_c - 1.0, J)]
        if math.isfinite(top):
            levels += [(top, J), (top + 1.0, J)]
    levels.append((levels[1][0], 0.0))
    return levels


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

    @pytest.mark.parametrize("name", sorted(_LANE_PARAMS))
    def test_zero_j_is_domain_error_in_every_level_function(self, name):
        # J = 0 has no well to integrate over: each of the four level
        # functions says so by name before building one, whatever E is
        # (-0.15 is bound on the Kepler well and below the oscillator's)
        for func, what in ((cd.radial_action, "radial action"),
                           (cd.radial_period, "radial period"),
                           (cd.apsidal_angle, "apsidal angle"),
                           (cd.frequencies, "frequency analysis")):
            with pytest.raises(DomainError, match=rf"^{what} requires J != 0$"):
                func(_LANE_PARAMS[name], -0.15, 0.0)

    def test_array_level_is_domain_error_in_every_level_function(self, monkeypatch):
        # each level function takes one level set: an array E or J is
        # rejected by name before any turning point is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("turning points solved")

        monkeypatch.setattr(bertrand, "_turning_points", no_solve)
        params = kepler_params(2, 3)
        for func, E, J, shapes in (
                (cd.radial_action, np.array([-0.15, -0.1]), 1.0, r"\(2,\) and \(\)"),
                (cd.radial_period, -0.15, np.array([1.0, 1.1]), r"\(\) and \(2,\)"),
                (cd.apsidal_angle, np.array([-0.15]), 1.0, r"\(1,\) and \(\)"),
                (cd.frequencies, np.full((2, 2), -0.15), 1.0, r"\(2, 2\) and \(\)")):
            with pytest.raises(DomainError, match=rf"^{func.__name__} takes one level set: "
                                                  rf"E and J must be floats, got shapes {shapes}$"):
                func(params, E, J)


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

    def test_kepler_needs_positive_total_action(self):
        with pytest.raises(DomainError, match=r"^Kepler closed form needs \|I1\|/s \+ I2 > 0$"):
            cd.hamiltonian_from_actions(kepler_params(), 0.0, 0.0)

    def test_negative_radial_action_rejected(self):
        with pytest.raises(DomainError):
            cd.hamiltonian_from_actions(kepler_params(), 1.0, -0.1)

    @pytest.mark.parametrize("I1, I2", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0),
                                        (-math.inf, 1.0)])
    def test_non_finite_action_rejected(self, I1, I2):
        with pytest.raises(DomainError, match=rf"^actions must be finite and I2 nonnegative, "
                                              rf"got I1={I1}, I2={I2}$"):
            cd.hamiltonian_from_actions(kepler_params(), I1, I2)


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

    @pytest.mark.parametrize("name", sorted(_LANE_PARAMS))
    def test_lanes_equal_one_lane_calls(self, name, caplog):
        # every lane of one batch has the bits, the error and the log records
        # of its own frequencies call
        params = _LANE_PARAMS[name]
        E, J = np.array(_lane_levels(params)).T.copy()
        caplog.set_level("DEBUG", logger="conedyn")
        errors: dict = {}
        lanes = actions._frequency_lanes(params, E, J, 1e-10, 6, errors)
        lanes += (lanes[1] / lanes[2],)
        batch_records = Counter(r.getMessage() for r in caplog.records)
        caplog.clear()
        ends = Counter()
        for k, (e, j) in enumerate(zip(E.tolist(), J.tolist())):
            try:
                data = cd.frequencies(params, e, j)
            except ConeDynError as exc:
                assert (type(errors[k]), str(errors[k])) == (type(exc), str(exc))
                assert all(math.isnan(lane[k]) for lane in lanes)
                ends[type(exc).__name__] += 1
                continue
            assert k not in errors
            one_lane = np.array([data.i2, data.omega1, data.omega2, data.ratio])
            assert np.array([lane[k] for lane in lanes]).tobytes() == one_lane.tobytes()
            ends["circular" if data.i2 == 0.0 else "ok"] += 1
        assert Counter(r.getMessage() for r in caplog.records) == batch_records
        expected = {"ok": 8, "circular": 2, "ForbiddenEnergyError": 2, "DomainError": 1}
        if math.isfinite(_escape_energy(params)):
            expected["UnboundedMotionError"] = 4
        assert ends == expected

    def test_actions_run_solves_turning_points_once(self, tmp_path, monkeypatch, capsys):
        # all levels of an actions run, failed ones included, share one well
        calls = []
        solve = bertrand._turning_points
        monkeypatch.setattr(bertrand, "_turning_points",
                            lambda *args: calls.append(args) or solve(*args))
        levels = [{"E": E, "J": J} for E, J in _lane_levels(kepler_params(2, 3))]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "params": {"m": 1.0, "geometry": {"k": 2, "n": 3},
                       "potential": {"kind": "kepler", "kappa": 1.0}},
            "levels": levels}))
        assert main(["actions", "--config", str(config),
                     "--output", str(tmp_path / "a.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["records_ok"] == 10
        assert len(calls) == 1
        assert calls[0][1].size == len(levels)

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
