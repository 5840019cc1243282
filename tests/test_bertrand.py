"""Apsidal-angle quadrature, harmonic limits, width law, and the exponent scan."""

import hashlib
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import conedyn as cd
from conedyn import bertrand, dynamics
from conedyn.dynamics import _effective_d2
from conedyn.actions import radial_action
from conedyn.bertrand import _Well, _gauss_legendre
from conedyn.errors import CircularOrbitError, ConeDynError, DomainError, QuadratureError
from helpers import bound_energy, kepler_params, midwell_point, oscillator_params

PI = math.pi


class TestApsidalAngle:
    def test_kepler_flat(self):
        res = cd.apsidal_angle(kepler_params(), -0.375, 1.0)
        assert res.delta_phi == pytest.approx(PI, abs=1e-9)

    def test_oscillator_flat(self):
        res = cd.apsidal_angle(oscillator_params(), 1.5, 1.0)
        assert res.delta_phi == pytest.approx(PI / 2, abs=1e-9)

    def test_kepler_half_cone(self):
        res = cd.apsidal_angle(kepler_params(1, 2), -0.09, 1.0)
        assert res.delta_phi == pytest.approx(2 * PI, abs=1e-9)

    def test_circular_input_degenerate(self):
        with pytest.raises(CircularOrbitError):
            cd.apsidal_angle(kepler_params(), -0.5, 1.0)

    def test_sign_of_j_irrelevant(self):
        a = cd.apsidal_angle(kepler_params(), -0.375, 1.0).delta_phi
        b = cd.apsidal_angle(kepler_params(), -0.375, -1.0).delta_phi
        assert a == pytest.approx(b, rel=1e-12)
        assert b > 0.0

    def test_independent_of_energy_and_j(self):
        # constancy over a level grid for the two degenerate potentials
        for params, expect in ((kepler_params(2, 3), PI / (2 / 3)),
                               (oscillator_params(3, 4), PI / (2 * 3 / 4))):
            values = []
            for J in np.linspace(0.6, 1.4, 4):
                for f in np.linspace(0.1, 0.8, 4):
                    E = bound_energy(params, float(J), float(f))
                    values.append(cd.apsidal_angle(params, E, float(J)).delta_phi)
            assert max(values) - min(values) < 1e-8
            assert values[0] == pytest.approx(expect, abs=1e-8)

    def test_scale_factor_scaling_law(self):
        # dphi at scale s equals (1/s) * dphi at s=1 with J replaced by J/s
        s = 0.77
        params_s = kepler_params(s=s)
        params_1 = kepler_params()
        E, J = -0.21, 0.9
        a = cd.apsidal_angle(params_s, E, J).delta_phi
        b = cd.apsidal_angle(params_1, E, J / s).delta_phi
        assert a == pytest.approx(b / s, rel=1e-10)

    def test_near_circular_limit(self):
        # a potential whose apsidal angle genuinely varies with E; the
        # near-circular value is approached linearly in the energy offset
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=0.9),
            potential=cd.PowerLaw(amplitude=1.0, exponent=1.0),
        )
        limit = cd.small_oscillation_freq(params, 1.0).apsidal_limit
        _, e_c = cd.circular_orbit(params, 1.0)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            res = cd.apsidal_angle(params, e_c + eps, 1.0)
            errs.append(abs(res.delta_phi - limit))
        assert errs[0] < 2e-3
        assert errs[1] < 0.15 * errs[0]
        assert errs[2] < 0.15 * errs[1]

    def test_matches_trajectory_measurement(self):
        params = oscillator_params(2, 3, omega=0.9)
        E, J = bound_energy(params, 1.1, 0.35), 1.1
        quad = cd.apsidal_angle(params, E, J).delta_phi
        T = cd.radial_period(params, E, J)
        dt = T / 80000
        n = int(2.2 * 80000)
        n -= n % 40
        traj = cd.integrate(params, midwell_point(params, E, J), dt, n, 40)
        measured, t_meas = cd.measure_apsidal_advance(traj)
        assert measured == pytest.approx(quad, abs=1e-6)
        assert t_meas == pytest.approx(T, rel=1e-6)


class TestRadialPeriod:
    def test_oscillator_period_energy_independent(self):
        params = oscillator_params()
        for E, J in ((1.5, 1.0), (3.0, 0.7), (2.2, 1.3)):
            assert cd.radial_period(params, E, J) == pytest.approx(PI, abs=1e-9)

    def test_kepler_closed_form(self):
        # T = 2*pi*kappa*sqrt(m)*(-2E)^(-3/2) = 16*pi at E = -1/8
        T = cd.radial_period(kepler_params(), -0.125, 1.0)
        assert T == pytest.approx(16 * PI, rel=1e-9)

    def test_near_circular_harmonic_limit(self):
        params = kepler_params()
        r_c, e_c = cd.circular_orbit(params, 1.0)
        omega_r = math.sqrt(float(_effective_d2(params, 1.0, r_c)) / params.m)
        T = cd.radial_period(params, e_c + 1e-5, 1.0)
        assert T == pytest.approx(2 * PI / omega_r, rel=1e-4)

    def test_cross_checked_against_trajectory(self):
        params = kepler_params()
        E, J = -0.125, 1.0
        T = cd.radial_period(params, E, J)
        dt = T / 80000
        n = int(2.2 * 80000)
        n -= n % 40
        traj = cd.integrate(params, midwell_point(params, E, J), dt, n, 40)
        _, t_meas = cd.measure_apsidal_advance(traj)
        assert t_meas == pytest.approx(T, rel=1e-6)


_POWER_HALF = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                        potential=cd.PowerLaw(amplitude=1.0, exponent=0.5))


class TestRefinementPaths:
    """Each way the order doubling can end, pinned bit for bit: float.hex of
    (radial_period, apsidal_angle, radial_action) at E - U_0 = frac |U_0|,
    J = 1, and the log records that name the path (the radial action at
    1e-4 converges before it stagnates)."""

    @pytest.mark.parametrize("params, frac, kwargs, record, pinned", [
        (kepler_params(), 1e-2, {}, ("", 0),
         ("0x1.983b64b52931ap+2", "0x1.921fb5442c130p+1", "0x1.4a2883c8174e3p-8")),
        (kepler_params(), 1e-4, {}, ("quadrature stagnated at", 2),
         ("0x1.922f27046959dp+2", "0x1.921fb57da1ac8p+1", "0x1.a3763c7354c77p-15")),
        (_POWER_HALF, 1e-8, {}, ("order 256 breached the endpoint floor", 3),
         ("0x1.bac95a2299879p+2", "0x1.fca0cea0ce258p+0", "0x1.0fa338ac464d7p-26")),
        (kepler_params(), 1e-2, {"max_refinements": 0}, ("quadrature did not reach", 3),
         ("0x1.983b64b53ad6ap+2", "0x1.921fb5444561cp+1", "0x1.4a2883c8174e9p-8")),
    ], ids=["converged", "stagnated", "endpoint-breach", "no-refinement"])
    def test_pinned(self, caplog, params, frac, kwargs, record, pinned):
        _, u0 = cd.circular_orbit(params, 1.0)
        E = u0 + frac * abs(u0)
        caplog.set_level("DEBUG", logger="conedyn")
        got = (cd.radial_period(params, E, 1.0, **kwargs),
               cd.apsidal_angle(params, E, 1.0, **kwargs).delta_phi,
               radial_action(params, E, 1.0, **kwargs))
        assert tuple(v.hex() for v in got) == pinned
        prefix, count = record
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == count and all(m.startswith(prefix) for m in messages)

    def test_first_order_failure_raises(self):
        # at 1e-10 of the well depth the first order already meets the
        # rounding floor of E - U_eff, and nothing is kept
        params = kepler_params()
        _, u0 = cd.circular_orbit(params, 1.0)
        E = u0 + 1e-10 * abs(u0)
        for f in (cd.radial_period, cd.apsidal_angle, radial_action):
            with pytest.raises(QuadratureError, match="not positive"):
                f(params, E, 1.0)

    def test_mixed_batch_equals_one_lane_calls(self, caplog):
        # one well holds a converged, a stagnated, an endpoint-breach and a
        # first-order-failure lane (Kepler at these fractions of its depth):
        # each lane's value, error estimate, error and log records are those
        # of its own one-lane call, in either lane order
        params = kepler_params()
        _, u0 = cd.circular_orbit(params, 1.0)
        E = u0 + np.array([1e-2, 1e-4, 3e-8, 1e-10]) * abs(u0)
        caplog.set_level("DEBUG", logger="conedyn")

        def swept(lanes):
            caplog.clear()
            errors: dict = {}
            value, err = _Well(params, E[lanes], np.ones(len(lanes)), errors).swept_angle(1e-10, 6)
            return (value.tolist(), err.tolist(), {k: repr(e) for k, e in errors.items()},
                    Counter(r.getMessage() for r in caplog.records))

        alone = [swept([lane]) for lane in range(E.size)]
        assert [a[3] for a in alone] == [
            Counter(), Counter({"quadrature stagnated at 7.1e-09 (order 256)": 1}),
            Counter({"order 256 breached the endpoint floor; keeping 9.2e-06": 1}), Counter()]
        assert alone[3][2] == {0: "QuadratureError('transformed integrand not positive: "
                                  "turning points inconsistent')"}
        for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
            value, err, errors, records = swept(order)
            for i, lane in enumerate(order):
                assert value[i].hex() == alone[lane][0][0].hex()
                assert err[i].hex() == alone[lane][1][0].hex()
                assert errors.get(i) == alone[lane][2].get(0)
            assert records == sum((a[3] for a in alone), Counter())


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_exact_to_degree_2n_minus_1(self, n):
        # sum w P_j(x) = 0 for 1 <= j <= 2n - 1 (P_j by the recurrence) and
        # sum w = 2; the nodes are symmetric, sorted, inside (-1, 1)
        x, w = _gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and np.all(w > 0.0)
        assert abs(w.sum() - 2.0) <= 4 * np.spacing(2.0)
        p0, p1, worst = np.ones_like(x), x.copy(), 0.0
        for j in range(1, 2 * n):
            worst = max(worst, abs((w * p1).sum()))
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        assert worst <= 2e-15

    def test_cost_at_4096(self):
        best = math.inf
        for _ in range(7):
            start = time.process_time()
            _gauss_legendre(4096)
            best = min(best, time.process_time() - start)
        assert best < 0.3


class TestCircularOrbit:
    def test_kepler(self):
        r_c, e_c = cd.circular_orbit(kepler_params(), 1.0)
        assert (r_c, e_c) == pytest.approx((1.0, -0.5), rel=1e-12)

    def test_oscillator(self):
        r_c, e_c = cd.circular_orbit(oscillator_params(), 1.0)
        assert (r_c, e_c) == pytest.approx((1.0, 1.0), rel=1e-12)

    def test_kepler_half_cone(self):
        r_c, e_c = cd.circular_orbit(kepler_params(1, 2), 1.0)
        assert (r_c, e_c) == pytest.approx((4.0, -0.125), rel=1e-12)

    def test_zero_j_rejected(self):
        with pytest.raises(DomainError):
            cd.circular_orbit(kepler_params(), 0.0)

    def test_power_law_lanes_equal_float_evaluation(self):
        # every lane of an array call has the bits of r_c and U_eff(r_c)
        # evaluated on Python floats, which numpy's power misses in a few
        # percent of lanes; the scalar call agrees
        m, s = 1.3, 0.7
        J = np.random.default_rng(8).uniform(0.2, 5.0, 2000)
        for alpha in (-1.5, -0.5, 0.3, 1.0, 2.7):
            amp = 1.0 if alpha > 0 else -1.0
            params = cd.Params(m=m, geometry=cd.ConeGeometry(s=s),
                               potential=cd.PowerLaw(amplitude=amp, exponent=alpha))
            r_c, u0 = cd.circular_orbit(params, J)
            want = []
            for j in J.tolist():
                rc = (j * j / (m * s * s * (amp * alpha))) ** (1.0 / (alpha + 2.0))
                want.append((rc.hex(), (j * j / (2.0 * m * s * s * rc * rc)
                                        + amp * rc ** alpha).hex()))
            assert [(a.hex(), b.hex()) for a, b in zip(r_c.tolist(), u0.tolist())] == want
            assert [tuple(v.hex() for v in cd.circular_orbit(params, j))
                    for j in J[:20].tolist()] == want[:20]


class TestSmallOscillation:
    def test_power_law_family(self):
        # omega^2 = alpha + 2 for any amplitude and J
        rng = np.random.default_rng(5)
        for _ in range(10):
            alpha = float(rng.uniform(-1.8, 3.0))
            if abs(alpha) < 0.05:
                continue
            amp = float(rng.uniform(0.5, 2.0)) * (1.0 if alpha > 0 else -1.0)
            params = cd.Params(
                m=1.0,
                geometry=cd.ConeGeometry(s=1.0),
                potential=cd.PowerLaw(amplitude=amp, exponent=alpha),
            )
            J = float(rng.uniform(0.5, 1.5))
            assert cd.small_oscillation_freq(params, J).omega_sq == pytest.approx(
                alpha + 2.0, rel=1e-9
            )

    def test_kepler(self):
        so = cd.small_oscillation_freq(kepler_params(1, 2), 1.0)
        assert so.omega_sq == pytest.approx(1.0, rel=1e-10)
        assert so.apsidal_limit == pytest.approx(PI / 0.5, rel=1e-10)

    def test_log_potential(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.LogPotential(strength=1.0, r0=1.0),
        )
        so = cd.small_oscillation_freq(params, 1.0)
        assert so.omega_sq == pytest.approx(2.0, rel=1e-10)
        assert so.apsidal_limit == pytest.approx(PI / math.sqrt(2.0), rel=1e-10)


class TestWidthLaw:
    def test_kepler_exact(self):
        # U(x) is a parabola: width = 2*sqrt(2/m)*sqrt(U-U0) exactly
        res = cd.width_law_check(kepler_params(), 1.0)
        assert res.max_residual < 1e-8
        assert res.a_fit == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)

    def test_oscillator_exact(self):
        res = cd.width_law_check(oscillator_params(), 1.0)
        assert res.max_residual < 1e-8
        assert res.a_fit == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_log_potential_violates(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.LogPotential(strength=1.0, r0=1.0),
        )
        assert cd.width_law_check(params, 1.0).max_residual > 1e-2

    def test_generic_power_law_violates(self):
        params = cd.Params(
            m=1.0,
            geometry=cd.ConeGeometry(s=1.0),
            potential=cd.PowerLaw(amplitude=1.0, exponent=1.0),
        )
        assert cd.width_law_check(params, 1.0).max_residual > 1e-3

    @pytest.mark.parametrize("potential", [cd.LogPotential(strength=1.0, r0=1.0),
                                           cd.PowerLaw(amplitude=1.0, exponent=1.0)],
                             ids=["log", "power"])
    def test_well_minimum_found_once(self, monkeypatch, potential):
        # the circular orbit's minimum serves every level, and each level's
        # turning points keep the bits of a turning_points call
        finds, solves = [], []
        find, solve = dynamics._find_ueff_minimum, bertrand._turning_points

        def spy_find(params, J, errors):
            finds.append(J.size)
            return find(params, J, errors)

        def spy_solve(*args):
            radii = solve(*args)
            solves.append((args[1], args[2], radii))
            return radii

        monkeypatch.setattr(dynamics, "_find_ueff_minimum", spy_find)
        monkeypatch.setattr(bertrand, "_find_ueff_minimum", spy_find)
        monkeypatch.setattr(bertrand, "_turning_points", spy_solve)
        params = cd.Params(m=1.3, geometry=cd.ConeGeometry(s=0.7), potential=potential)
        cd.width_law_check(params, 0.8)
        assert finds == [1]
        (E, J, (r_min, r_max)), = solves
        monkeypatch.undo()
        tp = cd.turning_points(params, E, J)
        assert r_min.tobytes() == tp.r_min.tobytes()
        assert r_max.tobytes() == tp.r_max.tobytes()


class TestBertrandScan:
    def test_degenerate_exponents_pass(self):
        report = cd.bertrand_scan(
            kepler_params(), [-1.0, 2.0], [0.2, 0.4, 0.6], [0.8, 1.2]
        )
        assert report.passing() == [-1.0, 2.0]
        by_param = {v.family_param: v for v in report.verdicts}
        assert by_param[-1.0].constant == pytest.approx(PI, abs=1e-6)
        assert by_param[2.0].constant == pytest.approx(PI / 2, abs=1e-6)

    def test_linear_exponent_fails_with_near_circular_value(self):
        report = cd.bertrand_scan(kepler_params(), [1.0], [0.005, 0.3, 0.6], [1.0])
        verdict = report.verdicts[0]
        assert verdict.verdict == "fail"
        assert verdict.flatness > 1e-3
        # the lowest-energy cell sits near the circular limit pi/sqrt(3)
        low_cell = min(
            (c for c in report.cells if c.status == "ok"), key=lambda c: c.E
        )
        assert low_cell.s_delta_phi == pytest.approx(PI / math.sqrt(3.0), abs=2e-2)

    def test_infeasible_cells_flagged(self):
        report = cd.bertrand_scan(kepler_params(), [0.0], [0.3], [1.0])
        assert report.verdicts[0].verdict == "infeasible"
        assert all(c.status != "ok" for c in report.cells)

    def test_scanned_quantity_independent_of_geometry(self):
        # s*dphi depends only on (E, lam): the same lam grid gives the same
        # cells whatever cone the base parameters carry
        a = cd.bertrand_scan(kepler_params(), [-1.0], [0.3], [1.0])
        b = cd.bertrand_scan(kepler_params(1, 2), [-1.0], [0.3], [1.0])
        assert a.cells[0].s_delta_phi == pytest.approx(b.cells[0].s_delta_phi, rel=1e-10)
        assert b.verdicts[0].constant == pytest.approx(PI, abs=1e-6)

    def test_float_range_cells_infeasible(self):
        # r_c overflows (alpha near -2), or U_eff overflows on the way to the
        # outer turning point (alpha = 100, huge lam): infeasible, not fatal
        for alpha, lam in ((-1.9999, 2.0), (-1.99, 50.0), (100.0, 1e150)):
            report = cd.bertrand_scan(kepler_params(2, 3), [alpha], [0.05, 0.5], [lam])
            assert report.verdicts[0].verdict == "infeasible"
            assert all("float range" in c.status for c in report.cells)

    def test_cells_equal_one_lane_calls(self, caplog):
        # each exponent's cells are the lanes of one batch: every cell has
        # the bits, status and log records of its own apsidal_angle call.
        # The grid meets every way a cell ends: no well (alpha = 0), a well
        # bottom out of float range (alpha = -1.9999, lam = 2), a circular
        # level (1e-16), a root solve that does not converge (Kepler at
        # lam = 1e150), U_eff out of float range (alpha = 100, lam = 1e150),
        # and the stagnation and endpoint-breach guards (1e-8, 1e-4)
        params = kepler_params(2, 3)
        caplog.set_level("DEBUG", logger="conedyn")
        report = cd.bertrand_scan(params, [0.0, -1.9999, -1.0, 0.5, 100.0],
                                  [1e-16, 1e-8, 1e-4, 0.3], [2.0, 1.0, 1e150])
        scan_records = Counter(r.getMessage() for r in caplog.records)
        caplog.clear()
        s = params.geometry.s
        for cell in report.cells:
            if math.isnan(cell.E):
                continue
            alpha = cell.family_param
            pot = cd.PowerLaw(amplitude=1.0 if alpha > 0 else -1.0, exponent=alpha)
            try:
                res = cd.apsidal_angle(replace(params, potential=pot), cell.E, cell.lam * s)
            except ConeDynError as exc:
                assert cell.status == f"infeasible: {exc}"
                continue
            assert cell.status == "ok"
            assert cell.s_delta_phi.hex() == (res.delta_phi * s).hex()
        assert Counter(r.getMessage() for r in caplog.records) == scan_records
        assert sum(n for m, n in scan_records.items() if m.startswith("quadrature stagnated")) == 7
        assert sum(n for m, n in scan_records.items() if "breached the endpoint" in m) == 3
        # the statuses and bits of the cells before batching
        status = {"o": "ok",
                  "m": "effective potential has no interior minimum for these parameters",
                  "f": "minimum of U_eff lies outside the float range",
                  "c": "level set is circular (r_min = r_max within tolerance); "
                       "use small_oscillation_freq for the degenerate limit",
                  "r": "root solve in [1.0010415475915504e+154, 1.244603055572228e+240] "
                       "did not converge",
                  "u": "U_eff(1669.5468984228312) is outside the float range"}
        codes = "mmmm mmmm mmmm ffff ffff ffff cooo cooo crrr cooo cooo cooo cooo cooo cuuu"
        assert [c.status for c in report.cells] == [
            status[k] if k == "o" else f"infeasible: {status[k]}" for k in codes.replace(" ", "")]
        bits = repr([(c.E.hex(), c.s_delta_phi and c.s_delta_phi.hex()) for c in report.cells])
        assert hashlib.sha256(bits.encode()).hexdigest() == (
            "df29a3377a84cacfc23c23139161e8979c9366c3c861260cb1f0d77d15cc7534")

    def test_exponents_at_or_below_minus_two_rejected(self, monkeypatch):
        # a DomainError before any cell is evaluated, not a math error
        def evaluated(*args, **kwargs):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr("conedyn.bertrand._scan_energy", evaluated)
        for exponents in ([-2.5], [-2.0], [-1.0, 2.0, -2.0]):
            with pytest.raises(DomainError, match="exponent must be > -2"):
                cd.bertrand_scan(kepler_params(), exponents, [0.3], [1.0])

    def test_cells_independent_of_the_batch(self):
        # an exponent's cells have the same bits and statuses scanned alone
        # or among others, in any order (0.0 has no well)
        params = kepler_params(2, 3)
        grid = ([0.05, 0.3, 0.8], [0.6, 1.0, 1.7])

        def cells(report, alpha):
            return [(c.E.hex(), c.lam, c.s_delta_phi and c.s_delta_phi.hex(), c.status)
                    for c in report.cells if c.family_param == alpha]

        exponents = [-1.0, 2.0, 0.5, 0.0]
        alone = {a: cells(cd.bertrand_scan(params, [a], *grid), a) for a in exponents}
        for order in (exponents, exponents[::-1], [0.5, -1.0, 0.0, 2.0]):
            report = cd.bertrand_scan(params, order, *grid)
            assert [v.family_param for v in report.verdicts] == order
            for a in order:
                assert cells(report, a) == alone[a]

    def test_well_minimum_found_once(self, monkeypatch):
        # the scan's energies and its turning points share one minimum
        calls = []
        find = dynamics._find_ueff_minimum

        def spy(*args):
            calls.append(args)
            return find(*args)

        monkeypatch.setattr(dynamics, "_find_ueff_minimum", spy)
        monkeypatch.setattr(bertrand, "_find_ueff_minimum", spy)
        report = cd.bertrand_scan(kepler_params(), [-1.0, 0.5, 2.0], [0.2, 0.6], [0.8, 1.2])
        assert len(calls) == 1
        assert [c.status for c in report.cells] == ["ok"] * 12

    def test_programming_errors_propagate(self, monkeypatch):
        # only a ConeDynError marks a cell infeasible; anything else is a bug
        def broken(*args, **kwargs):
            raise TypeError("bug in the quadrature")

        monkeypatch.setattr("conedyn.bertrand._apsidal_lanes", broken)
        with pytest.raises(TypeError, match="bug in the quadrature"):
            cd.bertrand_scan(kepler_params(), [-1.0], [0.3], [1.0])


class TestVerdictClassification:
    def test_three_way_classification(self):
        from conedyn.bertrand import _classify_flatness

        assert _classify_flatness(1e-8, PI, PI) == "pass"
        assert _classify_flatness(1e-8, PI + 1e-4, PI) == "inconclusive"
        assert _classify_flatness(1e-4, PI, PI) == "inconclusive"
        assert _classify_flatness(1e-2, PI, PI) == "fail"

