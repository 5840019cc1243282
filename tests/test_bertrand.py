"""Apsidal-angle quadrature, harmonic limits, width law, and the exponent scan."""

import hashlib
import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import conedyn as cd
from conedyn import bertrand, dynamics
from conedyn.actions import radial_action
from conedyn.bertrand import _Well, _gauss_legendre
from conedyn.cli import main
from conedyn.sampling import draw_bound_points
from conedyn.errors import (
    ConeDynError,
    DomainError,
    QuadratureError,
    StructuralError,
)
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
        # a circular level is one more lane: it sweeps the near-circular limit
        res = cd.apsidal_angle(kepler_params(), -0.5, 1.0)
        assert res.delta_phi == pytest.approx(PI, rel=2e-15)

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
        _, e_c = cd.circular_orbit(params, 1.0)
        limit = cd.apsidal_angle(params, e_c, 1.0).delta_phi
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
        _, e_c = cd.circular_orbit(params, 1.0)
        # the period of the circular level, the harmonic limit, is approached
        T = cd.radial_period(params, e_c + 1e-5, 1.0)
        assert T == pytest.approx(cd.radial_period(params, e_c, 1.0), rel=1e-4)

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


# r ** alpha is np.float_power, the C library's pow with no CPU-dispatched
# loop, so the power-law pins (the no-refinement level's period, the scan
# cells' digest and records) hold one value on every numpy dispatch
_POWER_HALF = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                        potential=cd.PowerLaw(amplitude=1.0, exponent=0.5))


class TestRefinementPaths:
    """Each way the order doubling can end, pinned bit for bit: float.hex of
    (radial_period, apsidal_angle, radial_action) at E - U_0 = frac |U_0|,
    J = 1, and the prefixes of the log records that name the path, in order
    (the radial action at 1e-4 converges before it stagnates; with no
    refinement past order 64, the first test is the last)."""

    @pytest.mark.parametrize("params, frac, kwargs, record, pinned", [
        (kepler_params(), 1e-2, {}, (),
         ("0x1.983b64b53ad6ap+2", "0x1.921fb5444561cp+1", "0x1.4a2883c8174e9p-8")),
        (kepler_params(), 1e-4, {}, ("quadrature stagnated at",) * 2,
         ("0x1.922f26d519194p+2", "0x1.921fb54d7fc5ap+1", "0x1.a3763c7354e13p-15")),
        (_POWER_HALF, 1e-9, {},
         ("order 128 breached the endpoint floor", "quadrature did not reach") * 3,
         ("0x1.bac50005b9e9ep+2", "0x1.fc9bcf783dd7ap+0", "0x1.b29ebe5da52cdp-30")),
        (_POWER_HALF, 10.0, {"max_refinements": 0}, ("quadrature did not reach",) * 3,
         ("0x1.d97506afb5cc5p+7", "0x1.97159149e169fp+0", "0x1.db0e63867bc4bp+7")),
    ], ids=["converged", "stagnated", "endpoint-breach", "no-refinement"])
    def test_pinned(self, caplog, params, frac, kwargs, record, pinned):
        _, u0 = cd.circular_orbit(params, 1.0)
        E = u0 + frac * abs(u0)
        caplog.set_level("DEBUG", logger="conedyn")
        got = (cd.radial_period(params, E, 1.0, **kwargs),
               cd.apsidal_angle(params, E, 1.0, **kwargs).delta_phi,
               radial_action(params, E, 1.0, **kwargs))
        assert tuple(v.hex() for v in got) == pinned
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == len(record)
        assert all(m.startswith(prefix) for m, prefix in zip(messages, record))

    def test_first_order_failure_raises(self):
        # at 1e-10 of the well depth the first order already meets the
        # rounding floor of E - U_eff, and nothing is kept
        params = kepler_params()
        _, u0 = cd.circular_orbit(params, 1.0)
        E = u0 + 1e-10 * abs(u0)
        for f in (cd.radial_period, cd.apsidal_angle, radial_action):
            with pytest.raises(QuadratureError, match="not positive"):
                f(params, E, 1.0)

    @pytest.mark.parametrize("frac, order", [(1e-12, 32), (1e-10, 64)])
    def test_breach_before_a_test_fails(self, caplog, frac, order):
        # no sum is kept without an estimate: at 1e-12 of the depth the
        # 32-node integrand meets the rounding floor of E - U_eff; at 1e-10
        # it is positive, but the 64-node one meets that floor before the
        # two sums were compared
        params = kepler_params()
        _, u0 = cd.circular_orbit(params, 1.0)
        caplog.set_level("DEBUG", logger="conedyn")
        errors: dict = {}
        well = _Well(params, np.array([u0 + frac * abs(u0)]), np.ones(1), errors, "apsidal angle")
        (value,), (err,) = well.integral([well.swept_angle], 1e-10, 6)
        assert math.isnan(value[0]) and err[0] == math.inf
        assert {k: str(e) for k, e in errors.items()} == {
            0: f"transformed integrand not positive at order {order}, before any error estimate"}
        assert isinstance(errors[0], QuadratureError) and not caplog.records

    def test_breach_after_a_test_warns(self, caplog):
        # at 1e-9 of the depth the 128-node integrand meets that floor after
        # the 32- and 64-node sums were compared: the lane keeps its 64-node
        # sum and warns with their change, as a lane out of orders does
        params = kepler_params()
        _, u0 = cd.circular_orbit(params, 1.0)
        caplog.set_level("WARNING", logger="conedyn")
        res = cd.apsidal_angle(params, u0 + 1e-9 * abs(u0), 1.0)
        est = res.quadrature_error_estimate
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"quadrature did not reach 1.0e-10 (last change {est:.1e})")]
        assert 1e-10 < est < 1e-3 and abs(res.delta_phi / PI - 1.0) <= est

    def test_mixed_batch_equals_one_lane_calls(self, caplog):
        # one well holds a converged, a stagnated, an endpoint-breach, a
        # breach-before-the-first-test, a circular and another stagnated lane
        # (Kepler at these fractions of its depth): each lane's value, error
        # estimate, error and log records are those of its own one-lane
        # call, in either lane order; so are those of the three integrands
        # of one pass, each against its own one-integrand calls
        params = kepler_params()
        _, u0 = cd.circular_orbit(params, 1.0)
        E = u0 + np.array([1e-2, 1e-4, 1e-9, 1e-10, 0.0, 4e-9]) * abs(u0)
        caplog.set_level("DEBUG", logger="conedyn")

        def integral(lanes, names=("angle",)):
            caplog.clear()
            errors: dict = {}
            well = _Well(params, E[lanes], np.ones(len(lanes)), errors, "apsidal angle")
            integrands = {"angle": well.swept_angle, "period": well.period,
                          "action": well.action}
            value, err = well.integral([integrands[name] for name in names], 1e-10, 6)
            return (value.tolist(), err.tolist(), {k: repr(e) for k, e in errors.items()},
                    Counter(r.getMessage() for r in caplog.records))

        names = ("action", "period", "angle")
        single = {name: [integral([lane], (name,)) for lane in range(E.size)]
                  for name in names}
        alone = single["angle"]
        assert [a[3] for a in alone] == [
            Counter(), Counter({"quadrature stagnated at 1.6e-09 (order 128)": 1}),
            Counter({"order 128 breached the endpoint floor; keeping 5.0e-05": 1,
                     "quadrature did not reach 1.0e-10 (last change 5.0e-05)": 1}),
            Counter(), Counter(), Counter({"quadrature stagnated at 1.4e-04 (order 128)": 1})]
        # at 1e-4 of the depth the action converges at order 64 and the
        # other two refine to 128; at 4e-9 they stop at 128, and the action
        # goes on to breach the endpoint at 256, where only it warns
        assert single["action"][1][1][0][0] <= 1e-10 < single["period"][1][1][0][0]
        assert single["action"][5][3] == Counter({
            "order 256 breached the endpoint floor; keeping 2.0e-09": 1,
            "quadrature did not reach 1.0e-10 (last change 2.0e-09)": 1})
        assert alone[3][2] == {0: "QuadratureError('transformed integrand not positive at "
                                  "order 64, before any error estimate')"}
        # the circular lane holds the limit, and converges at the first test:
        # its 32- and 64-node sums differ by the rounding of their weights
        assert alone[4][0][0][0] == pytest.approx(PI, rel=2e-15)
        assert alone[4][1][0][0] < 1e-15 and alone[4][2] == {}
        for order, case in (([0, 1, 2, 3, 4, 5], ("angle",)), ([3, 4, 1, 5, 0, 2], ("angle",)),
                            ([0, 1, 2, 3, 4, 5], names), ([3, 4, 1, 5, 0, 2], names)):
            value, err, errors, records = integral(order, case)
            for j, name in enumerate(case):
                for i, lane in enumerate(order):
                    one = single[name][lane]
                    assert value[j][i].hex() == one[0][0][0].hex()
                    assert err[j][i].hex() == one[1][0][0].hex()
                    assert errors.get(i) == one[2].get(0)
            assert records == sum((single[name][lane][3] for name in case
                                   for lane in order), Counter())


def _node_blocks(monkeypatch) -> list:
    """The (lanes, order) shape of each block of quadrature nodes evaluated
    from here on."""
    shapes = []
    evaluate = bertrand._effective_potential_terms  # the nodes' only caller of it

    def spy(params, J, r, lanes=None):
        shapes.append(r.shape)
        return evaluate(params, J, r, lanes)

    monkeypatch.setattr(bertrand, "_effective_potential_terms", spy)
    return shapes


class TestNodeEffectivePotential:
    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.3),
        cd.LogPotential(strength=1.3, r0=0.7),
        cd.PowerLaw(amplitude=0.8, exponent=1.37),
        None,  # the scan's batch, one (A, alpha) per lane
    ], ids=["kepler", "oscillator", "log", "power_law", "power_law_lanes"])
    def test_nodes_take_the_lane_evaluators_u_eff(self, monkeypatch, potential):
        # the node matrices' U_eff, with their per-lane (A, alpha) picked by
        # a (lanes, 1) index, has the bits of the lane evaluator at each node
        blocks = []
        evaluate = bertrand._effective_potential_terms

        def spy(params, J, r, lanes=None):
            cent, v = evaluate(params, J, r, lanes)
            blocks.append((params, J, r, lanes, cent + v))
            return cent, v

        monkeypatch.setattr(bertrand, "_effective_potential_terms", spy)
        if potential is None:
            report = cd.bertrand_scan(kepler_params(2, 3), [-0.5, 1.37, 3.3], [0.2, 0.6],
                                      [1.0, 1.4])
            assert report.status == ["ok"] * 12
        else:
            params = cd.Params(m=1.7, geometry=cd.ConeGeometry(s=0.8), potential=potential)
            _, u0 = cd.circular_orbit(params, 1.1)
            cd.apsidal_angle(params, u0 + 0.3 * max(abs(u0), 1.0), 1.1)
        assert blocks
        for params, J, r, lanes, u in blocks:
            want, _, _ = dynamics._effective_potential_lanes(
                params, np.broadcast_to(J, r.shape).ravel(), r.ravel(),
                np.broadcast_to(lanes, r.shape).ravel())
            assert u.tobytes() == want.tobytes()


# The apsidal angle at J = 1 as commit 9b39e75 computed it, whose doubling
# started at order 64: (potential, k, n, level) -> (relative error against
# pi n/k, or pi n/(2k) for the oscillator, and node evaluations).  A level
# is ("depth", f), E = U_0 + f |U_0|, or ("ratio", q), E = q U_0.
_AT_ORDER_64 = {
    ("kepler", 1, 1, ("depth", 1e-2)): (1.317e-11, 192),
    ("kepler", 1, 1, ("depth", 1e-4)): (8.504e-09, 448),
    ("kepler", 1, 1, ("depth", 1e-06)): (7.297e-07, 448),
    ("kepler", 1, 1, ("ratio", 1e-2)): (1.369e-11, 192),
    ("kepler", 1, 1, ("ratio", 1e-4)): (1.456e-08, 4032),
    ("kepler", 1, 1, ("ratio", 1e-06)): (3.279e-06, 448),
    ("kepler", 1, 1, ("ratio", 1e-07)): (1.789e-06, 8128),
    ("kepler", 2, 3, ("depth", 1e-2)): (2.316e-11, 192),
    ("kepler", 2, 3, ("depth", 1e-4)): (1.465e-08, 448),
    ("kepler", 2, 3, ("depth", 1e-06)): (2.109e-06, 448),
    ("kepler", 2, 3, ("ratio", 1e-2)): (8.822e-12, 192),
    ("kepler", 2, 3, ("ratio", 1e-4)): (2.320e-09, 1984),
    ("kepler", 2, 3, ("ratio", 1e-06)): (3.279e-06, 448),
    ("kepler", 2, 3, ("ratio", 1e-07)): (8.728e-07, 8128),
    ("oscillator", 1, 1, ("depth", 1e-2)): (1.017e-11, 192),
    ("oscillator", 1, 1, ("depth", 1e-4)): (1.391e-08, 448),
    ("oscillator", 1, 1, ("depth", 1e-06)): (1.320e-06, 448),
    ("oscillator", 1, 1, ("ratio", 1e2)): (8.326e-12, 192),
    ("oscillator", 1, 1, ("ratio", 1e4)): (1.077e-09, 960),
    ("oscillator", 1, 1, ("ratio", 1e6)): (9.545e-08, 4032),
    ("oscillator", 1, 1, ("ratio", 1e7)): (7.925e-07, 4032),
    ("oscillator", 2, 3, ("depth", 1e-2)): (1.334e-11, 192),
    ("oscillator", 2, 3, ("depth", 1e-4)): (4.997e-09, 448),
    ("oscillator", 2, 3, ("depth", 1e-06)): (1.457e-06, 448),
    ("oscillator", 2, 3, ("ratio", 1e2)): (5.167e-12, 192),
    ("oscillator", 2, 3, ("ratio", 1e4)): (2.885e-10, 960),
    ("oscillator", 2, 3, ("ratio", 1e6)): (8.982e-08, 4032),
    ("oscillator", 2, 3, ("ratio", 1e7)): (5.000e-07, 4032),
}


class TestQuadratureBudget:
    """The quadrature's cost in node evaluations, and its accuracy against
    the orders it started from before (``_AT_ORDER_64``).

    The pinned values were printed at commit 9b39e75, from the repository
    root, with ``_AT_ORDER_64``'s keys copied in as ``keys``, by the script
    below, which then counted the nodes at ``_Well._effective_potential``;
    the nodes now take U_eff's terms from ``_effective_potential_terms``::

        import math, sys
        sys.path[:0] = ["src", "tests"]
        import conedyn as cd
        from conedyn import bertrand
        from helpers import kepler_params, oscillator_params
        nodes, evaluate = [0], bertrand._effective_potential_terms
        def counted(params, J, r, lanes=None):
            nodes[0] += r.size
            return evaluate(params, J, r, lanes)
        bertrand._effective_potential_terms = counted
        for name, k, n, (kind, x) in keys:
            params = (kepler_params if name == "kepler" else oscillator_params)(k, n)
            _, u0 = cd.circular_orbit(params, 1.0)
            E = u0 + x * abs(u0) if kind == "depth" else x * u0
            nodes[0] = 0
            phi = cd.apsidal_angle(params, E, 1.0).delta_phi
            exact = math.pi * n / k / (1.0 if name == "kepler" else 2.0)
            print((name, k, n, (kind, x)), (f"{abs(phi / exact - 1.0):.3e}", nodes[0]))
    """

    def test_shipped_scan_budget(self, monkeypatch, tmp_path):
        # the 126 lanes of the shipped scan took 24,192 node evaluations
        # when the doubling started at order 64
        blocks = _node_blocks(monkeypatch)
        config = Path(__file__).resolve().parent.parent / "configs" / "bertrand_scan.json"
        assert main(["bertrand", "--config", str(config),
                     "--output", str(tmp_path / "scan.csv")]) == 0
        assert 0 < sum(lanes * order for lanes, order in blocks) <= 0.6 * 24_192

    def test_shipped_actions_budget(self, monkeypatch, tmp_path):
        # the 4 levels of the shipped actions config stop at order 64, and
        # the radial action, period and angle share their nodes: 1,152 node
        # evaluations when each integral made its own pass
        blocks = _node_blocks(monkeypatch)
        config = Path(__file__).resolve().parent.parent / "configs" / "actions_kepler_s23.json"
        assert main(["actions", "--config", str(config),
                     "--output", str(tmp_path / "actions.jsonl")]) == 0
        assert 0 < sum(lanes * order for lanes, order in blocks) <= 384

    @pytest.mark.parametrize("key", list(_AT_ORDER_64),
                             ids=lambda key: "{}-{}/{}-{}-{:g}".format(*key[:3], *key[3]))
    def test_no_less_accurate_for_at_most_32_more_nodes(self, monkeypatch, key):
        # the bottom (1e-2 to 1e-6 of the depth), the top of the Kepler well
        # and eccentric oscillator levels; at 1e-8 of the depth and below
        # the nodes near the turning points sit on the rounding floor of
        # E - U_eff at every order, and the error there is that noise
        name, k, n, (kind, x) = key
        params = (kepler_params if name == "kepler" else oscillator_params)(k, n)
        _, u0 = cd.circular_orbit(params, 1.0)
        E = u0 + x * abs(u0) if kind == "depth" else x * u0
        blocks = _node_blocks(monkeypatch)
        phi = cd.apsidal_angle(params, E, 1.0).delta_phi
        exact = PI * n / k / (1.0 if name == "kepler" else 2.0)
        err, nodes_before = _AT_ORDER_64[key]
        assert abs(phi / exact - 1.0) <= 1.1 * err + 1e-13
        assert sum(lanes * order for lanes, order in blocks) <= nodes_before + 32

    @pytest.mark.parametrize("max_refinements", [0, 1, 6])
    def test_deepest_order(self, monkeypatch, max_refinements):
        # Kepler at 1e-7 U_0 refines to the last order it is given: from 32
        # up to 64 * 2**max_refinements, 4096 at the default 6
        blocks = _node_blocks(monkeypatch)
        params = kepler_params()
        _, u0 = cd.circular_orbit(params, 1.0)
        cd.apsidal_angle(params, 1e-7 * u0, 1.0, max_refinements=max_refinements)
        assert blocks == [(1, 32 << i) for i in range(max_refinements + 2)]

    @pytest.mark.parametrize("controls, match", [
        ({"tolerance": math.nan}, r"quadrature tolerance must be positive, got nan"),
        ({"tolerance": 0.0}, r"quadrature tolerance must be positive, got 0\.0"),
        ({"tolerance": -1e-10}, r"quadrature tolerance must be positive, got -1e-10"),
        ({"max_refinements": -1}, r"max_refinements must be an integer >= 0, got -1"),
        ({"max_refinements": True}, r"max_refinements must be an integer >= 0, got True"),
        ({"max_refinements": 2.0}, r"max_refinements must be an integer >= 0, got 2\.0"),
    ], ids=["nan", "zero", "negative", "minus-one", "bool", "float"])
    def test_controls_rejected(self, monkeypatch, controls, match):
        # a control outside its domain is an error before any node is
        # evaluated, on every path into the quadrature
        blocks = _node_blocks(monkeypatch)
        params = kepler_params(2, 3)
        for call in (lambda: cd.apsidal_angle(params, -0.15, 1.0, **controls),
                     lambda: cd.radial_period(params, -0.15, 1.0, **controls),
                     lambda: radial_action(params, -0.15, 1.0, **controls),
                     lambda: cd.frequencies(params, -0.15, 1.0, **controls),
                     lambda: cd.bertrand_scan(params, [-1.0, 2.0], [0.5], [1.0], **controls)):
            with pytest.raises(DomainError, match=rf"^{match}$"):
                call()
        assert blocks == []


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

    @pytest.mark.parametrize("J", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["turning_points", "circular_orbit", "apsidal_angle",
                                      "radial_action", "width_law_check"])
    def test_non_finite_j_rejected(self, name, J):
        # every well path finds the minimum of U_eff, which names the bad J
        call = {"turning_points": lambda: cd.turning_points(kepler_params(), -0.4, J),
                "circular_orbit": lambda: cd.circular_orbit(kepler_params(), J),
                "apsidal_angle": lambda: cd.apsidal_angle(kepler_params(), -0.4, J),
                "radial_action": lambda: radial_action(kepler_params(), -0.4, J),
                "width_law_check": lambda: cd.width_law_check(kepler_params(), J)}[name]
        with pytest.raises(DomainError, match=rf"^angular momentum J={J} is not finite$"):
            call()

    def test_non_finite_j_lane_named(self):
        with pytest.raises(DomainError, match=r"^angular momentum J=nan is not finite "
                                              r"\(lane 1\)$"):
            cd.turning_points(kepler_params(), np.full(3, -0.4), np.array([1.0, np.nan, 1.0]))

    def test_power_law_lanes_equal_float_evaluation(self):
        # every lane of an array call has the bits of r_c and U_eff(r_c)
        # evaluated on Python floats (np.float_power gives them, np.power
        # misses a few percent of lanes); the scalar call agrees
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


def _assert_circular_limits(params, J, alpha):
    """The apsidal angle, radial period, radial action and frequencies at
    the circular level of J against their small-oscillation closed forms."""
    r_c, e_c = cd.circular_orbit(params, J)
    m, s = params.m, params.geometry.s
    root = math.sqrt(alpha + 2.0)
    assert cd.apsidal_angle(params, e_c, J).delta_phi == pytest.approx(
        PI / (s * root), rel=2e-15)
    assert cd.radial_period(params, e_c, J) == pytest.approx(
        2 * PI * m * s * r_c * r_c / (abs(J) * root), rel=2e-15)
    assert radial_action(params, e_c, J) == 0.0
    data = cd.frequencies(params, e_c, J)
    assert data.i2 == 0.0
    assert data.omega2 / data.omega1 == pytest.approx(s * root, rel=2e-15)


class TestSmallOscillation:
    """The level functions on a circular level give the small-oscillation
    limit: the apsidal angle pi / (s sqrt(alpha + 2)), the radial period
    2 pi m s r_c^2 / (|J| sqrt(alpha + 2)), a zero radial action and
    omega2 / omega1 = s sqrt(alpha + 2)."""

    def test_power_law_family(self):
        # any amplitude, m, s and J
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha = float(rng.uniform(-1.8, 3.0))
            amp = float(rng.uniform(0.5, 2.0)) * (1.0 if alpha > 0 else -1.0)
            params = cd.Params(
                m=float(rng.uniform(0.2, 5.0)),
                geometry=cd.ConeGeometry(s=float(rng.uniform(0.1, 3.0))),
                potential=cd.PowerLaw(amplitude=amp, exponent=alpha),
            )
            _assert_circular_limits(params, float(rng.uniform(0.1, 5.0)), alpha)

    def test_kepler(self):
        _assert_circular_limits(kepler_params(m=1.7, s=0.6), 2.9, -1.0)

    def test_oscillator(self):
        _assert_circular_limits(oscillator_params(omega=0.7, m=1.7, s=0.6), 2.9, 2.0)

    def test_log_potential(self):
        params = cd.Params(
            m=1.7,
            geometry=cd.ConeGeometry(s=0.6),
            potential=cd.LogPotential(strength=1.2, r0=0.7),
        )
        _assert_circular_limits(params, 2.9, 0.0)

    def test_needs_a_well_bottom(self):
        # without a well bottom there is no circular level to take the limit at
        repulsive = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                              potential=cd.PowerLaw(amplitude=1.0, exponent=-1.0))
        for func in (cd.apsidal_angle, cd.radial_period, radial_action, cd.frequencies):
            with pytest.raises(StructuralError, match="no interior minimum"):
                func(repulsive, 0.5, 1.0)


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

    def test_zero_j_rejected(self):
        with pytest.raises(DomainError, match=r"^width law requires J != 0$"):
            cd.width_law_check(kepler_params(), 0.0)

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
        ok = [i for i, status in enumerate(report.status) if status == "ok"]
        low_cell = min(ok, key=lambda i: report.E[i])
        assert report.s_delta_phi[low_cell] == pytest.approx(PI / math.sqrt(3.0), abs=2e-2)

    def test_infeasible_cells_flagged(self):
        report = cd.bertrand_scan(kepler_params(), [0.0], [0.3], [1.0])
        assert report.verdicts[0].verdict == "infeasible"
        assert all(status != "ok" for status in report.status)
        assert np.isnan(report.s_delta_phi).all()

    def test_zero_lambda_cells_carry_their_own_error(self):
        # a J = 0 cell fails as its own apsidal_angle call does, not with the
        # missing-minimum error of the energy grid; the other cells go on
        report = cd.bertrand_scan(kepler_params(), [-1.0, 0.5], [0.3], [0.0, 1.0])
        with pytest.raises(DomainError) as one_lane:
            cd.apsidal_angle(kepler_params(), -0.1, 0.0)
        assert str(one_lane.value) == "apsidal angle requires J != 0"
        assert report.status == [f"infeasible: {one_lane.value}", "ok"] * 2
        assert np.isnan(report.s_delta_phi[::2]).all()
        assert np.isfinite(report.s_delta_phi[1::2]).all()
        assert report.verdicts[0].verdict == "pass"

    def test_scanned_quantity_independent_of_geometry(self):
        # s*dphi depends only on (E, lam): the same lam grid gives the same
        # cells whatever cone the base parameters carry
        a = cd.bertrand_scan(kepler_params(), [-1.0], [0.3], [1.0])
        b = cd.bertrand_scan(kepler_params(1, 2), [-1.0], [0.3], [1.0])
        assert a.s_delta_phi[0] == pytest.approx(b.s_delta_phi[0], rel=1e-10)
        assert b.verdicts[0].constant == pytest.approx(PI, abs=1e-6)

    def test_float_range_cells_infeasible(self):
        # r_c overflows (alpha near -2), or the outer turning point does
        # (alpha = 0.001 at six times U_0: r_max near 6^1000 r_c):
        # infeasible, not fatal
        for alpha, lam, fractions in ((-1.9999, 2.0, [0.05, 0.5]), (-1.99, 50.0, [0.05, 0.5]),
                                      (0.001, 1.0, [0.5])):
            report = cd.bertrand_scan(kepler_params(2, 3), [alpha], fractions, [lam])
            assert report.verdicts[0].verdict == "infeasible"
            assert all("float range" in status for status in report.status)
        with pytest.raises(StructuralError, match="turning points of E=.* float range"):
            cd.turning_points(replace(kepler_params(2, 3), potential=cd.PowerLaw(1.0, 0.001)),
                              report.E[0], 2.0 / 3.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_eccentric_cell_is_not_a_wrong_ok(self):
        # alpha = 0.003 at 0.05 of ten depths: r_max is near 1.5e60 against
        # r_min near 1, no theta node comes near r_min, where the integrand
        # lives, and the sums agree on the tail.  The cell must fail, or
        # read between the oscillator's pi/2 and its own bottom limit
        report = cd.bertrand_scan(kepler_params(2, 3), [0.003], [0.05], [1.0])
        value = report.s_delta_phi[0]
        assert report.status[0] != "ok" or PI / 2 <= value <= PI / math.sqrt(2.003)

    def test_overflow_beyond_the_turning_point_is_a_bracket_end(self, monkeypatch):
        # alpha = 100 at lam = 2e154: E = 1.19e303 puts r_max near 1074, but
        # the solve meets a point where r^100 overflows; that point lies
        # beyond r_max and closes the bracket, so the cell equals its lam = 2
        # twin, whose E is U_0 (1 + 10 fraction) on another scale
        overflowed = []
        evaluate = dynamics._effective_potential_lanes

        def spy(*args):
            u, du, raised = evaluate(*args)
            overflowed.extend(args[2][raised].tolist())
            return u, du, raised

        monkeypatch.setattr(dynamics, "_effective_potential_lanes", spy)
        report = cd.bertrand_scan(kepler_params(2, 3), [100.0], [0.5], [2.0, 2e154])
        assert overflowed and min(overflowed) > 1074.0
        assert report.status == ["ok", "ok"]
        assert report.s_delta_phi[1] == pytest.approx(report.s_delta_phi[0], rel=1e-8)

    def test_cells_equal_one_lane_calls(self, caplog):
        # each exponent's cells are the lanes of one batch: every cell has
        # the bits, status and log records of its own apsidal_angle call.
        # The grid meets every way a cell ends: no well (alpha = 0), a well
        # bottom out of float range (alpha = -1.9999, lam = 2), a circular
        # level (1e-16: the small-oscillation limit, or a limit out of float
        # range for Kepler at lam = 1e150), a root solve that does not
        # converge (Kepler at lam = 1e150), wells next to the float range
        # (alpha = 100, lam = 1e150), the stagnation guard (1e-8, 1e-4), the
        # endpoint-breach guard (1e-9, and 1e-10 on the wider alpha = 0.5
        # well) and a breach before the first test (Kepler at 1e-10)
        params = kepler_params(2, 3)
        caplog.set_level("DEBUG", logger="conedyn")
        report = cd.bertrand_scan(params, [0.0, -1.9999, -1.0, 0.5, 100.0],
                                  [1e-16, 1e-10, 1e-9, 1e-8, 1e-4, 0.3], [2.0, 1.0, 1e150])
        scan_records = Counter(r.getMessage() for r in caplog.records)
        caplog.clear()
        s = params.geometry.s
        for alpha, E, lam, value, status in zip(*(c.tolist() for c in report[:4]),
                                                report.status):
            if math.isnan(E):
                continue
            pot = cd.PowerLaw(amplitude=1.0 if alpha > 0 else -1.0, exponent=alpha)
            try:
                res = cd.apsidal_angle(replace(params, potential=pot), E, lam * s)
            except ConeDynError as exc:
                assert status == f"infeasible: {exc}"
                assert math.isnan(value)
                continue
            assert status == "ok"
            assert value.hex() == (res.delta_phi * s).hex()
        assert Counter(r.getMessage() for r in caplog.records) == scan_records
        stagnated, breached = 17, 7
        assert sum(n for m, n in scan_records.items()
                   if m.startswith("quadrature stagnated")) == stagnated
        assert sum(n for m, n in scan_records.items() if "breached the endpoint" in m) == breached
        assert sum(n for m, n in scan_records.items()
                   if m.startswith("quadrature did not")) == breached
        # the statuses and bits of the cells before batching
        status = {"o": "ok",
                  "m": "effective potential has no interior minimum for these parameters",
                  "f": "minimum of U_eff lies outside the float range",
                  "c": "circular limit U_eff''(r_c)/m = 0.0 is outside the float range",
                  "r": "root solve in [0.0, 6.223015277861141e+239] did not converge",
                  "p": "transformed integrand not positive at order 64, before any error estimate"}
        codes = ("mmmmmm mmmmmm mmmmmm ffffff ffffff ffffff opoooo opoooo crrrrr oooooo oooooo "
                 "oooooo oooooo oooooo oooooo")
        assert report.status == [
            status[k] if k == "o" else f"infeasible: {status[k]}" for k in codes.replace(" ", "")]
        # alpha = 100 scales: at lam = 2 and 1e150, |U_0| > 1 and every E is
        # U_0 (1 + 10 fraction), so the cells agree but at 1e-10 to 1e-8,
        # where both meet the rounding floor of E - U_eff
        values = report.s_delta_phi[-18:].reshape(3, 6)
        assert values[2, [0, 4, 5]] == pytest.approx(values[0, [0, 4, 5]], rel=1e-8)
        # a failed cell's NaN is hashed as None, which keeps the pinned digest
        bits = repr([(E.hex(), None if math.isnan(v) else v.hex())
                     for E, v in zip(report.E.tolist(), report.s_delta_phi.tolist())])
        assert hashlib.sha256(bits.encode()).hexdigest() == (
            "daaa6638aaed6d19d336ad0eebb0e3b9adda6252f56d428549e23fba03d653ff")

    def test_exponents_at_or_below_minus_two_rejected(self, monkeypatch):
        # a DomainError before any cell is evaluated, not a math error
        def evaluated(*args, **kwargs):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr("conedyn.bertrand._well_levels", evaluated)
        for exponents, bad in (([-2.5], -2.5), ([-2.0], -2.0), ([-1.0, 2.0, -2.0], -2.0)):
            with pytest.raises(DomainError, match=rf"^exponent must be > -2, got {bad}$"):
                cd.bertrand_scan(kepler_params(), exponents, [0.3], [1.0])

    def test_every_cell_is_its_one_lane_call(self):
        # every cell, from the bottom of the well to three quarters up, has
        # the bits of its own apsidal_angle call
        params = kepler_params(2, 3)
        report = cd.bertrand_scan(params, [-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0],
                                  [1e-6, 0.1, 0.45, 0.75], [0.7, 1.0, 1.4])
        s = params.geometry.s
        assert report.status == ["ok"] * 84
        for alpha, E, lam, value in zip(*(c.tolist() for c in report[:4])):
            pot = cd.PowerLaw(amplitude=1.0 if alpha > 0 else -1.0, exponent=alpha)
            res = cd.apsidal_angle(replace(params, potential=pot), E, lam * s)
            assert value.hex() == (res.delta_phi * s).hex(), (alpha, E, lam)

    def test_cells_independent_of_the_batch(self):
        # an exponent's cells have the same bits and statuses scanned alone
        # or among others, in any order (0.0 has no well)
        params = kepler_params(2, 3)
        grid = ([0.05, 0.3, 0.8], [0.6, 1.0, 1.7])

        def cells(report, alpha):
            return [(E.hex(), lam, value.hex(), status)
                    for a, E, lam, value, status in zip(*(c.tolist() for c in report[:4]),
                                                        report.status)
                    if a == alpha]

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
        assert report.status == ["ok"] * 12

    def test_one_power_law_built(self, monkeypatch):
        # the scan builds its one batch law, and the well geometry reads each
        # potential's power-law form from its own fields: no PowerLaw per call
        built = []
        check = cd.PowerLaw.__post_init__

        def spy(law):
            built.append(law)
            check(law)

        monkeypatch.setattr(cd.PowerLaw, "__post_init__", spy)
        report = cd.bertrand_scan(kepler_params(), [-1.0, 0.5, 2.0], [0.2, 0.6], [0.8, 1.2])
        assert len(built) == 1 and report.status == ["ok"] * 12
        built.clear()
        for build in (kepler_params, oscillator_params):
            assert draw_bound_points(np.random.default_rng(3), build(2, 3), 50).shape == (4, 50)
        assert not built

    def test_programming_errors_propagate(self, monkeypatch):
        # only a ConeDynError marks a cell infeasible; anything else is a bug
        def broken(*args, **kwargs):
            raise TypeError("bug in the quadrature")

        monkeypatch.setattr(_Well, "swept_angle", broken)
        with pytest.raises(TypeError, match="bug in the quadrature"):
            cd.bertrand_scan(kepler_params(), [-1.0], [0.3], [1.0])


class TestVerdictClassification:
    def test_three_way_classification(self):
        from conedyn.bertrand import _classify_flatness

        assert _classify_flatness(1e-8, PI, PI) == "pass"
        assert _classify_flatness(1e-8, PI + 1e-4, PI) == "inconclusive"
        assert _classify_flatness(1e-4, PI, PI) == "inconclusive"
        assert _classify_flatness(1e-2, PI, PI) == "fail"

