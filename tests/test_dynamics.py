"""Hamiltonian, turning points, the leapfrog stepper, and closure detection."""

import decimal
import itertools
import math

import numpy as np
import pytest

import conedyn as cd
from conedyn import dynamics
from conedyn.errors import (
    DomainError,
    ForbiddenEnergyError,
    QuadratureError,
    StructuralError,
    TipCollisionError,
    UnboundedMotionError,
)
from helpers import (
    RATIONAL_S,
    bound_energy,
    kepler_params,
    midwell_point,
    oscillator_params,
    perigee_point,
    steps_to_collision,
)


class TestEnergy:
    def test_free_motion_on_half_cone(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry.from_rational(1, 2),
            potential=cd.PowerLaw(amplitude=0.0, exponent=1.0),
        )
        pt = cd.PhasePoint(r=2.0, phi=0.0, p_r=1.0, J=1.0)
        assert cd.energy(params, pt) == pytest.approx(1.0)

    def test_pure_potential(self):
        params = kepler_params()
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=0.0)
        assert cd.energy(params, pt) == pytest.approx(-1.0)

    def test_circular_oscillator(self):
        params = oscillator_params()
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0)
        assert cd.energy(params, pt) == pytest.approx(1.0)


class TestEffectivePotential:
    def test_values(self):
        params = kepler_params()
        assert cd.effective_potential(params, 1.0, 1.0) == pytest.approx(-0.5)
        assert cd.effective_potential(params, 1.0, 2.0) == pytest.approx(-0.375)

    def test_zero_j_reduces_to_potential(self):
        params = oscillator_params(omega=1.3)
        r = np.linspace(0.2, 3.0, 7)
        assert np.allclose(
            cd.effective_potential(params, 0.0, r), params.potential.value(r, 1.0)
        )

    def test_domain_error(self):
        for r in (0.0, -1.0, np.array([1.0, 0.0]), np.array([2.0, -1.0, 3.0])):
            with pytest.raises(DomainError):
                cd.effective_potential(kepler_params(), 1.0, r)


def _root_one_lane(f, a, b, rtol):
    """dynamics._root on one lane of the scalar function f: its root, or its
    error raised."""
    roots, failed = dynamics._root(lambda x, _: np.array([f(v) for v in x.tolist()]),
                                   np.array([a]), np.array([b]), rtol)
    if failed:
        raise failed[0]
    return roots[0]


class TestTurningPoints:
    def test_kepler_quadratic_roots(self):
        tp = cd.turning_points(kepler_params(), -0.375, 1.0)
        assert tp.r_min == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert tp.r_max == pytest.approx(2.0, rel=1e-12)

    def test_circular_levels(self):
        tp = cd.turning_points(kepler_params(), -0.5, 1.0)
        assert tp.r_min == tp.r_max == pytest.approx(1.0, rel=1e-12)
        tpo = cd.turning_points(oscillator_params(), 1.0, 1.0)
        assert tpo.r_min == tpo.r_max == pytest.approx(1.0, rel=1e-12)

    def test_forbidden_energy(self):
        with pytest.raises(ForbiddenEnergyError):
            cd.turning_points(kepler_params(), -0.7, 1.0)

    def test_unbounded_energy(self):
        with pytest.raises(UnboundedMotionError):
            cd.turning_points(kepler_params(), 0.1, 1.0)
        with pytest.raises(UnboundedMotionError):
            cd.turning_points(kepler_params(), 0.0, 1.0)

    def test_no_minimum_is_structural(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.PowerLaw(amplitude=0.0, exponent=1.0),
        )
        with pytest.raises(StructuralError):
            cd.turning_points(params, 1.0, 1.0)

    @pytest.mark.parametrize("J", [1e-6, 1e-4, 1e4, 1e6])
    def test_extreme_angular_momentum(self, J):
        # circular radius and turning points against their closed forms, with
        # r_c spanning 24 decades and well depths down to 1e-13
        for (k, n), (m, kappa, omega) in itertools.product(
            ((1, 1), (2, 3)), ((1.0, 1.0, 1.0), (1.5, 2.0, 0.5))
        ):
            ms2 = m * (k / n) ** 2
            kep = kepler_params(k, n, kappa=kappa, m=m)
            r_c, _ = cd.circular_orbit(kep, J)
            assert r_c == pytest.approx(J * J / (ms2 * kappa), rel=1e-14)
            # U_eff = a u^2 - kappa u in u = 1/r
            E = bound_energy(kep, J, 0.3)
            a = J * J / (2.0 * ms2)
            q = kappa + math.sqrt(kappa * kappa + 4.0 * a * E)
            tp = cd.turning_points(kep, E, J)
            assert tp.r_min == pytest.approx(2.0 * a / q, rel=1e-12)
            assert tp.r_max == pytest.approx(q / (-2.0 * E), rel=1e-12)

            osc = oscillator_params(k, n, omega=omega, m=m)
            r_c, _ = cd.circular_orbit(osc, J)
            assert r_c == pytest.approx((J * J / (m * ms2 * omega**2)) ** 0.25, rel=1e-14)
            # U_eff = J^2/(2 m s^2 w) + m omega^2 w / 2 in w = r^2
            E = bound_energy(osc, J, 0.3)
            q = E + math.sqrt(E * E - omega**2 * J * J * m / ms2)
            tp = cd.turning_points(osc, E, J)
            assert tp.r_max == pytest.approx(math.sqrt(q / (m * omega**2)), rel=1e-12)
            assert tp.r_min == pytest.approx(math.sqrt(J * J / (ms2 * q)), rel=1e-12)

    def test_root_failures_are_typed(self):
        with pytest.raises(QuadratureError, match="not bracketed"):
            _root_one_lane(lambda x: x, 1.0, 2.0, 1e-13)
        with pytest.raises(QuadratureError, match="non-finite"):
            _root_one_lane(lambda x: x - 1.5 if x in (1.0, 2.0) else math.nan, 1.0, 2.0, 1e-13)
        # a tolerance below the float spacing cannot be met
        with pytest.raises(QuadratureError, match="did not converge"):
            _root_one_lane(lambda x: x * x - 2.0, 1.0, 2.0, 0.0)

    def test_root_edge_values(self):
        # f(a) * f(b) underflows to 0 here; the sign change is still found
        x = _root_one_lane(lambda x: (x - 1.5) * 1e-200, 1.0, 2.0, 1e-13)
        assert x == pytest.approx(1.5, rel=1e-13)
        # an infinite value at the end kept to the last step gives no NaN
        x = _root_one_lane(lambda x: math.inf if x <= 1.0 else -1.0, 1.0, 2.0, 1e-13)
        assert x == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(QuadratureError, match="not bracketed"):
            _root_one_lane(lambda x: x - 1.5, 1.0, math.inf, 1e-13)

    def test_float_range_is_structural(self):
        # r_c = 2^10000 overflows; r_c = 1e-200^2 leaves J^2/r_c^2 infinite
        far = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                        potential=cd.PowerLaw(amplitude=-1.0, exponent=-1.9999))
        for params, J in ((far, 2.0), (kepler_params(), 1e-100)):
            with pytest.raises(StructuralError, match="float range"):
                cd.turning_points(params, -1.0, J)

    def test_consistency_with_energy(self):
        rng = np.random.default_rng(4)
        for params in (kepler_params(2, 3), oscillator_params(3, 4, omega=0.8)):
            for _ in range(10):
                J = float(rng.uniform(0.5, 1.5))
                E = bound_energy(params, J, float(rng.uniform(0.1, 0.7)))
                tp = cd.turning_points(params, E, J)
                for r in (tp.r_min, tp.r_max):
                    u = float(cd.effective_potential(params, J, r))
                    assert abs(u - E) <= 1e-10 * abs(E)


def _reference_level(params, f, J):
    """The float E nearest U_0 + f |U_0|, its turning points and
    e = sqrt((E - U_0)/|U_0|), to 50 digits in decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        m, s, J = D(params.m), D(params.geometry.s), D(J)
        a = J * J / (2 * m * s * s)  # U_eff = a/r^2 + V(r)
        if isinstance(params.potential, cd.Kepler):
            kappa = D(params.potential.kappa)
            u0 = -kappa * kappa / (4 * a)
        else:
            beta = m * D(params.potential.omega) ** 2
            u0 = (2 * a * beta).sqrt()
        E = float(u0 + D(f) * abs(u0))
        e = ((D(E) - u0) / abs(u0)).sqrt()
        if isinstance(params.potential, cd.Kepler):
            q = kappa + (kappa * kappa + 4 * a * D(E)).sqrt()
            return E, 2 * a / q, q / (-2 * D(E)), float(e)
        w = (D(E) + (D(E) * D(E) - u0 * u0).sqrt()) / beta
        return E, (2 * a / beta / w).sqrt(), w.sqrt(), float(e)


TP_FRACTIONS = [10.0 ** -k for k in range(12, 0, -1)] + [0.3, 0.5, 0.9, 0.99, 0.999999]


class TestTurningPointArrays:
    @pytest.mark.parametrize("extended", [np.longdouble, np.float64], ids=["longdouble", "double"])
    @pytest.mark.parametrize("build", [kepler_params, oscillator_params],
                             ids=["kepler", "oscillator"])
    def test_closed_forms_against_decimal_reference(self, build, extended, monkeypatch):
        # E - U_0 from 1e-12 to 0.999999 of |U_0| (and, for the oscillator's
        # topless well, up to 1e6 |U_0|): within 2e-15 from 1e-2 up, and
        # within 8 eps/e, the conditioning of the level set, below; also
        # where numpy's longdouble is plain double
        monkeypatch.setattr(dynamics, "_EXTENDED", extended)
        eps = np.finfo(float).eps
        fractions = TP_FRACTIONS + ([10.0, 1e3, 1e6] if build is oscillator_params else [])
        for (k, n), m, J in itertools.product(RATIONAL_S, (1.0, 1.7), (1e-6, 1.0, 1e6)):
            params = build(k, n, m=m)
            for f in fractions:
                E, want_min, want_max, e = _reference_level(params, f, J)
                bound = 2e-15 if f >= 1e-2 else 8.0 * eps / e
                tp = cd.turning_points(params, E, J)
                for got, want in ((tp.r_min, want_min), (tp.r_max, want_max)):
                    err = float(abs(decimal.Decimal(got) - want) / want)
                    assert err <= bound, (k, n, m, J, f, err)

    def test_array_equals_scalar_calls(self):
        # closed forms elementwise, root finding per lane: each lane's bits
        # are those of the scalar call, a circular lane included
        rng = np.random.default_rng(21)
        log = cd.Params(m=1.3, geometry=cd.ConeGeometry(s=0.7),
                        potential=cd.LogPotential(strength=0.8, r0=1.5))
        power = cd.Params(m=1.0, geometry=cd.ConeGeometry.from_rational(2, 3),
                          potential=cd.PowerLaw(amplitude=1.0, exponent=0.5))
        for params in (kepler_params(2, 3, m=1.7), oscillator_params(3, 4, omega=0.8),
                       kepler_params(1, 1), log, power):
            J = rng.uniform(-2.0, 2.0, 40)
            _, e_c = cd.circular_orbit(params, J)
            # above the bottom, below escape (at 0) where there is one
            E = e_c + rng.uniform(0.0, 0.9, 40) * np.abs(e_c)
            E[3] = e_c[3]
            tp = cd.turning_points(params, E, J)
            lanes = [cd.turning_points(params, e, j) for e, j in zip(E.tolist(), J.tolist())]
            assert tp.r_min.tobytes() == np.array([t.r_min for t in lanes]).tobytes()
            assert tp.r_max.tobytes() == np.array([t.r_max for t in lanes]).tobytes()
            assert tp.r_min[3] == tp.r_max[3]
            assert type(lanes[0].r_min) is float and type(lanes[0].r_max) is float

    def test_typed_errors_name_the_first_bad_lane(self):
        kep = kepler_params()
        power = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                          potential=cd.PowerLaw(amplitude=-1.0, exponent=-0.5))
        J = np.ones(4)
        for params in (kep, power):  # closed form, and root finding per lane
            _, e_c = cd.circular_orbit(params, 1.0)
            for lane, value, error in ((2, 2.0 * e_c, ForbiddenEnergyError),
                                       (1, 1.0, UnboundedMotionError)):
                E = np.full(4, 0.5 * e_c)
                E[lane] = E[3] = value
                with pytest.raises(error, match=rf"\(lane {lane}\)$"):
                    cd.turning_points(params, E, J)
        for J_bad, match in ((1e-100, "float range"), (0.0, "no interior minimum")):
            with pytest.raises(StructuralError, match=rf"{match}.* \(lane 2\)$"):
                cd.turning_points(kep, np.full(3, -0.3), np.array([1.0, 1.0, J_bad]))
        log = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                        potential=cd.LogPotential(strength=0.8, r0=1.5))
        for params in (kep, oscillator_params(), power, log):
            # non-finite energies: one typed error for every potential
            _, e_c = cd.circular_orbit(params, 1.0)
            for value, error in ((math.nan, DomainError), (-math.inf, ForbiddenEnergyError),
                                 (math.inf, UnboundedMotionError)):
                with pytest.raises(error) as info:
                    cd.turning_points(params, value, 1.0)
                assert "lane" not in str(info.value)
                E = np.full(4, e_c + 0.1 * abs(e_c))
                E[1] = E[3] = value
                with pytest.raises(error, match=r"\(lane 1\)$"):
                    cd.turning_points(params, E, J)
        with pytest.raises(ForbiddenEnergyError) as info:
            cd.turning_points(kep, -0.7, 1.0)
        assert "lane" not in str(info.value)


class TestStep:
    def test_reversibility(self):
        params = kepler_params()
        pt = cd.PhasePoint(r=0.8, phi=0.3, p_r=0.4, J=1.0)
        fwd = cd.step(params, pt, 1e-3)
        back = cd.step(params, fwd, -1e-3)
        assert back.r == pytest.approx(pt.r, abs=1e-12)
        assert back.p_r == pytest.approx(pt.p_r, abs=1e-12)
        assert back.phi == pytest.approx(pt.phi, abs=1e-12)

    def test_circular_orbit_fixed_point(self):
        params = kepler_params()
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0)
        for _ in range(1000):
            pt = cd.step(params, pt, 1e-3)
        assert pt.r == pytest.approx(1.0, abs=1e-10)

    def test_free_radial_motion(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.PowerLaw(amplitude=0.0, exponent=1.0),
        )
        traj = cd.integrate(
            params, cd.PhasePoint(r=1.0, phi=0.0, p_r=1.0, J=0.0), 1e-3, 1000, 1000
        )
        assert traj.r[-1] == pytest.approx(2.0, abs=1e-9)

    def test_tip_collision(self):
        # J = 0 radial plunge into the Kepler center; the failing step lies
        # inside a block of 7 sampled steps, so the index counts every step
        params = kepler_params()
        pt = cd.PhasePoint(r=0.5, phi=0.0, p_r=-1.0, J=0.0)
        expected = steps_to_collision(params, pt, 1e-2)
        assert expected % 7 not in (0, 6)
        with pytest.raises(TipCollisionError) as err:
            cd.integrate(params, pt, 1e-2, 700, 7)
        assert err.value.step_index == expected

    def test_zero_dt_rejected(self):
        with pytest.raises(DomainError):
            cd.step(kepler_params(), cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0), 0.0)


def _reference_kdk(params, pt, dt, n_steps, sample_every):
    """The stepper loop as first written: two force evaluations per step and
    a modulo test for sampling.  Returns sampled (r, p_r, unwrapped phi)."""
    vprime = dynamics._vprime(params)
    m, s = params.m, params.geometry.s
    ms2 = m * s * s
    r, p_r, phi, J = pt.r, pt.p_r, pt.phi, pt.J
    cent = (J * J) / ms2
    half_dt = 0.5 * dt
    samples = [(r, p_r, phi)]
    for i in range(n_steps):
        p_r = p_r + half_dt * (cent / (r * r * r) - vprime(r))
        r_new = r + dt * (p_r / m)
        assert r_new > 0.0
        r_mid = 0.5 * (r + r_new)
        phi = phi + dt * (J / (ms2 * (r_mid * r_mid)))
        r = r_new
        p_r = p_r + half_dt * (cent / (r * r * r) - vprime(r))
        if (i + 1) % sample_every == 0:
            samples.append((r, p_r, phi))
    return np.array(samples).T


class TestIntegrate:
    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.0),
        cd.PowerLaw(amplitude=0.8, exponent=1.5),
        cd.LogPotential(strength=1.0, r0=1.0),
    ], ids=["kepler", "oscillator", "power_law", "log"])
    def test_kernel_bitwise_equals_reference_loop(self, potential):
        for (k, n), dt, J, sample_every in itertools.product(
            ((1, 1), (2, 3)), (2e-3, -2e-3), (1.0, -1.0), (1, 7)
        ):
            params = cd.Params(m=1.0, geometry=cd.ConeGeometry.from_rational(k, n),
                               potential=potential)
            pt = cd.PhasePoint(r=1.0, phi=0.3, p_r=0.2, J=J)
            traj = cd.integrate(params, pt, dt, 1400, sample_every)
            ref_r, ref_pr, ref_phi = _reference_kdk(params, pt, dt, 1400, sample_every)
            assert traj.r.tobytes() == ref_r.tobytes()
            assert traj.p_r.tobytes() == ref_pr.tobytes()
            assert traj.phi_unwrapped.tobytes() == ref_phi.tobytes()

    def test_j_series_bitwise_constant(self):
        params = kepler_params(2, 3)
        traj = cd.integrate(params, perigee_point(params, -0.15, 1.0), 1e-3, 5000, 50)
        assert np.all(traj.series_J == traj.series_J[0])

    def test_energy_drift_reference_orbit(self):
        # e = 0.5 Kepler orbit; dt calibrated so the bounded leapfrog
        # oscillation sits below 1e-8 (drift scales as dt^2)
        params = kepler_params()
        traj = cd.integrate(params, perigee_point(params, -0.375, 1.0), 1.5e-4, 100000, 100)
        drift = np.abs(traj.series_H - traj.series_H[0]).max() / abs(traj.series_H[0])
        assert drift < 1e-8

    def test_harmonic_circular_radius_constant(self):
        params = oscillator_params()
        traj = cd.integrate(
            params, cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0), 1e-3, 10000, 10
        )
        assert np.abs(traj.r - 1.0).max() < 1e-10

    def test_forward_backward_round_trip(self):
        params = kepler_params()
        pt0 = perigee_point(params, -0.375, 1.0, phi=0.2)
        n = 20000
        fwd = cd.integrate(params, pt0, 1e-3, n, n)
        end = fwd.point(len(fwd) - 1)
        back = cd.integrate(params, end, -1e-3, n, n)
        assert back.r[-1] == pytest.approx(pt0.r, abs=1e-10)
        assert back.p_r[-1] == pytest.approx(pt0.p_r, abs=1e-10)

    def test_symplectic_energy_error_bounded_not_secular(self):
        # random bound orbits whose radial periods resolve dt = 1e-3; the
        # |dH| envelope must stay bounded (oscillatory) with no secular ramp
        rng = np.random.default_rng(7)
        kinds = ["kepler", "osc"] * 3
        for kind in kinds:
            J = float(rng.uniform(0.6, 1.4))
            if kind == "kepler":
                params = kepler_params()
                E = bound_energy(params, J, float(rng.uniform(0.03, 0.12)))
            else:
                params = oscillator_params(omega=float(rng.uniform(0.2, 0.5)))
                E = bound_energy(params, J, float(rng.uniform(0.05, 0.25)))
            T = cd.radial_period(params, E, J)
            n = round(max(2.0, round(100.0 / T)) * T / 1e-3)
            n -= n % 100
            traj = cd.integrate(params, perigee_point(params, E, J), 1e-3, n, 100)
            dh = np.abs(traj.series_H - traj.series_H[0])
            assert dh.max() / abs(traj.series_H[0]) < 1e-7
            # fit after the first radial period: the t=0 sample is exactly 0
            mask = traj.times >= T
            slope = abs(np.polyfit(traj.times[mask], dh[mask], 1)[0])
            assert slope < 1e-12

    def test_backend_compat_names(self):
        # the benchmark harness reads these two names; "python" is the only stepper
        assert dynamics.HAVE_COMPILED_KERNEL is False
        params = kepler_params(2, 3)
        pt0 = perigee_point(params, -0.15, 1.0)
        a = cd.integrate(params, pt0, 1e-3, 2000, 100, backend="python")
        b = cd.integrate(params, pt0, 1e-3, 2000, 100)
        for name in ("r", "p_r", "phi_unwrapped", "series_H"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        with pytest.raises(DomainError, match="backend"):
            cd.integrate(params, pt0, 1e-3, 2000, 100, backend="compiled")

    def test_trajectory_invariants(self):
        params = kepler_params()
        traj = cd.integrate(params, perigee_point(params, -0.375, 1.0), 1e-3, 2000, 20)
        n = len(traj)
        assert n == len(traj.times) == len(traj.r) == len(traj.series_H)
        # reduced angle consistent with the unwrapped accumulator
        wrapped = traj.phi_unwrapped % (2 * math.pi)
        assert np.abs(wrapped - traj.phi).max() < 1e-9
        with pytest.raises(ValueError):
            traj.r[0] = 99.0  # arrays frozen

    def test_sample_alignment_required(self):
        params = kepler_params()
        pt = perigee_point(params, -0.375, 1.0)
        with pytest.raises(DomainError):
            cd.integrate(params, pt, 1e-3, 1001, 10)
        # counts must be integers: no float, bool or numeric string
        for n_steps, sample_every in ((1000.0, 10), (1000, 10.0), (True, 1),
                                      (1000, True), ("1000", 10)):
            with pytest.raises(DomainError, match="integer"):
                cd.integrate(params, pt, 1e-3, n_steps, sample_every)
        assert len(cd.integrate(params, pt, 1e-3, np.int64(100), np.int64(10))) == 11

    def test_integrate_is_iterated_step(self):
        params = oscillator_params(2, 3, omega=0.7)
        pt = cd.PhasePoint(r=1.4, phi=0.5, p_r=0.2, J=1.0)
        traj = cd.integrate(params, pt, 1e-3, 50, 1)
        walked = pt
        for i in range(1, 51):
            walked = cd.step(params, walked, 1e-3)
            assert walked.r == traj.r[i]
            assert walked.p_r == traj.p_r[i]


class TestDetectClosure:
    def _trajectory(self, params, E, J, n_periods, steps_per_period=20000, sample_every=50):
        T = cd.radial_period(params, E, J)
        dt = T / steps_per_period
        n = int(n_periods * steps_per_period)
        n -= n % sample_every
        return cd.integrate(params, midwell_point(params, E, J), dt, n, sample_every)

    def test_flat_kepler_closes_after_one_period(self):
        params = kepler_params()
        traj = self._trajectory(params, -0.375, 1.0, 1.6)
        info = cd.detect_closure(traj, tol=1e-6)
        assert info is not None and info.radial_periods == 1

    def test_two_thirds_kepler_closes_after_two_periods(self):
        # per radial period the angle advances 2*pi/s = 3*pi, so the orbit
        # closes after two periods with three full turns
        params = kepler_params(2, 3)
        traj = self._trajectory(params, -0.15, 1.0, 2.6)
        info = cd.detect_closure(traj, tol=1e-6)
        assert info is not None and info.radial_periods == 2
        i_close = int(np.searchsorted(traj.times, info.closure_time))
        advance = traj.phi_unwrapped[i_close] - traj.phi_unwrapped[0]
        assert advance == pytest.approx(6 * math.pi, abs=0.05)

    def test_irrational_s_never_closes(self):
        params = kepler_params(s=1.0 / math.sqrt(2.0))
        E = bound_energy(params, 1.0, 0.3)
        traj = self._trajectory(params, E, 1.0, 12.5, steps_per_period=10000)
        assert cd.detect_closure(traj, tol=1e-6) is None

    def test_backward_orbit_closes_as_mirror_image(self):
        # from a perigee at phi = 0, the run with -dt is the forward run under
        # (t, p_r, phi) -> (-t, -p_r, -phi): same closure, at negative time
        params = kepler_params(2, 3)
        pt0 = perigee_point(params, -0.15, 1.0)
        fwd = cd.integrate(params, pt0, 2e-3, 50000, 50)
        bwd = cd.integrate(params, pt0, -2e-3, 50000, 50)
        assert bwd.r.tobytes() == fwd.r.tobytes()
        assert np.array_equal(bwd.p_r, -fwd.p_r)
        info_f = cd.detect_closure(fwd, tol=1e-6)
        info_b = cd.detect_closure(bwd, tol=1e-6)
        assert info_f.radial_periods == info_b.radial_periods == 2
        assert info_f.closure_time == pytest.approx(76.476, abs=1e-3)
        assert info_b.closure_time == pytest.approx(-info_f.closure_time, rel=1e-12)
        ev_f, ev_b = cd.trajectory_apsides(fwd), cd.trajectory_apsides(bwd)
        assert [e.kind for e in ev_b] == [e.kind for e in ev_f]
        for a, b in zip(ev_f, ev_b):
            assert b.time == pytest.approx(-a.time, rel=1e-12)
            assert b.r == pytest.approx(a.r, rel=1e-12)
            assert b.phi_unwrapped == pytest.approx(-a.phi_unwrapped, rel=1e-12)
        for a, b in zip(cd.measure_apsidal_advance(fwd), cd.measure_apsidal_advance(bwd)):
            assert b == pytest.approx(a, rel=1e-12)

    def test_golden_section_terminates_below_float_spacing(self):
        # at t ~ 1e7 the requested xatol is below one ulp of t
        from conedyn.dynamics import _golden_min

        t0, h = 1e7, 0.01
        t_star = _golden_min(lambda x: (x - t0 - 0.003) ** 2, t0, t0 + 2 * h,
                             xatol=2 * h * 1e-10)
        assert t_star == pytest.approx(t0 + 0.003, abs=1e-7)

    def test_zero_j_rejected(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.PowerLaw(amplitude=0.0, exponent=1.0),
        )
        traj = cd.integrate(params, cd.PhasePoint(r=1.0, phi=0.0, p_r=1.0, J=0.0),
                            1e-3, 1000, 10)
        with pytest.raises(DomainError):
            cd.detect_closure(traj)


class TestApsidalMeasurement:
    def test_measured_advance_matches_quadrature(self):
        params = kepler_params()
        E, J = -0.375, 1.0
        T = cd.radial_period(params, E, J)
        dt = T / 80000
        n = int(2.2 * 80000)
        n -= n % 40
        traj = cd.integrate(params, midwell_point(params, E, J), dt, n, 40)
        dphi, t_meas = cd.measure_apsidal_advance(traj)
        assert dphi == pytest.approx(math.pi, abs=1e-6)
        assert t_meas == pytest.approx(T, rel=1e-6)
        events = cd.trajectory_apsides(traj)
        kinds = [e.kind for e in events]
        assert kinds[0] == "apogee"  # launched outward from mid-well
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
