"""Hamiltonian, turning points, the leapfrog stepper, and closure detection."""

import dataclasses
import decimal
import itertools
import math
import re
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import conedyn as cd
from conedyn import dynamics
from conedyn.cli import main
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
    one_step,
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

    def test_non_finite_energy_is_domain_error(self):
        # r ** 3 overflows, and r * r underflows under J^2/(2 m s^2 r^2)
        power = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                          potential=cd.PowerLaw(amplitude=0.8, exponent=3.0))
        for params, r in ((power, 1e200), (kepler_params(), 1e-200)):
            pt = cd.PhasePoint(r=r, phi=0.0, p_r=0.0, J=1.0)
            with pytest.raises(DomainError,
                               match=f"^{re.escape(f'energy at r={r} is not finite (H=inf)')}$"):
                cd.energy(params, pt)

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
        # a radius that is not positive and finite is named, for every class
        # (at r = inf Kepler's U_eff is 0.0, the oscillator's inf)
        for params in (kepler_params(), oscillator_params()):
            for r, bad in ((0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"),
                           (np.array([1.0, 0.0]), "0.0"), (np.array([2.0, -1.0, 3.0]), "-1.0"),
                           (np.array([2.0, math.nan, -1.0]), "nan")):
                with pytest.raises(DomainError, match=rf"^effective potential evaluated at "
                                                      rf"r={bad}, not a positive finite radius$"):
                    cd.effective_potential(params, 1.0, r)
            with pytest.raises(DomainError, match=r"^expected floats or 1-D arrays, "
                                                  r"got shapes \(\), \(1, 2\)$"):
                cd.effective_potential(params, 1.0, np.array([[1.0, 2.0]]))

    def test_term_outside_the_float_range_is_domain_error(self):
        # V overflows: a typed error naming r, not inf with a warning, and
        # the same for the oscillator as for the power law that equals it
        for potential in (cd.PowerLaw(amplitude=0.8, exponent=3.0),
                          cd.PowerLaw(amplitude=0.5, exponent=2.0), cd.Oscillator(omega=1.0)):
            params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0), potential=potential)
            for r in (1e200, np.array([2.0, 1e200, 3e200])):
                with pytest.raises(DomainError, match=r"^effective potential at r=1e\+200 is "
                                                      r"outside the float range$"):
                    cd.effective_potential(params, 1.0, r)

    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.3),
        cd.LogPotential(strength=1.3, r0=0.7),
        cd.PowerLaw(amplitude=0.8, exponent=1.37),
        cd.PowerLaw(amplitude=np.array([0.8, -1.0, 2.0]), exponent=np.array([1.37, -0.5, 3.3])),
    ], ids=["kepler", "oscillator", "log", "power_law", "power_law_lanes"])
    def test_hamiltonian_at_rest_is_u_eff_bit_for_bit(self, potential):
        # both read K and V from one function: H(r, 0, J) = (0 + K) + V = U_eff
        params = cd.Params(m=1.7, geometry=cd.ConeGeometry(s=0.8), potential=potential)
        r, J = np.array([0.37, 1.3, 4.1]), 1.1
        h = dynamics.hamiltonian(params, r, 0.0, J)
        assert h.tobytes() == cd.effective_potential(params, J, r).tobytes()
        if np.ndim(potential.value(1.0)) == 0:  # one potential: Python floats too
            for x in r.tolist():
                u = cd.effective_potential(params, J, x)
                assert float(dynamics.hamiltonian(params, x, 0.0, J)).hex() == u.hex()

    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.3),
        cd.PowerLaw(amplitude=0.8, exponent=1.37),
        cd.LogPotential(strength=1.3, r0=0.7),
    ], ids=["kepler", "oscillator", "power_law", "log"])
    def test_scalar_call_returns_float(self, potential):
        params = cd.Params(m=1.7, geometry=cd.ConeGeometry(s=0.8), potential=potential)
        for J, r in ((1.0, 1.3), (np.float64(1.0), np.float64(1.3))):
            assert type(cd.effective_potential(params, J, r)) is float
        u = cd.effective_potential(params, 1.0, np.array([1.3]))
        assert isinstance(u, np.ndarray) and u.shape == (1,)


def _per_class_escape_energy(pot):
    """The escape energy as each potential class gave it before the
    power-law form did."""
    if isinstance(pot, cd.Kepler):
        return 0.0
    if isinstance(pot, (cd.Oscillator, cd.LogPotential)):
        return math.inf
    a, alpha = pot.amplitude, pot.exponent
    return np.select([(alpha < 0.0) | (a == 0.0), alpha == 0.0], [0.0, a],
                     np.copysign(math.inf, a))


class TestEscapeEnergy:
    def test_every_class(self):
        for pot in (cd.Kepler(kappa=1.3), cd.Oscillator(omega=0.7),
                    cd.LogPotential(strength=1.2, r0=0.5)):
            params = cd.Params(m=1.7, geometry=cd.ConeGeometry(s=0.6), potential=pot)
            top = dynamics._escape_energy(params)
            assert type(top) is float and top == _per_class_escape_energy(pot)

    def test_power_law_lanes(self):
        # every sign of A and alpha, and both zeros of A, as the lanes of one
        # batch: the per-class value on every lane that has a well minimum;
        # the others (A = 0 or alpha = 0 among them) fail before any caller
        # reads the escape energy.  A one-law call gives its lane as a float
        a, alpha = (v.ravel() for v in np.meshgrid([-1.5, -0.0, 0.0, 2.0],
                                                   [-1.5, -0.5, 0.0, 0.5, 3.0]))
        params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=0.6),
                           potential=cd.PowerLaw(amplitude=a, exponent=alpha))
        errors: dict = {}
        dynamics._find_ueff_minimum(params, np.ones(a.size), errors)
        well = ~np.isin(np.arange(a.size), list(errors))
        assert well.tolist() == (a * alpha > 0.0).tolist() and well.sum() == 4
        top, old = dynamics._escape_energy(params), _per_class_escape_energy(params.potential)
        assert top[well].tolist() == old[well].tolist()
        assert ((top == old) | (a == 0.0) | (alpha == 0.0)).all()
        for k in range(a.size):
            one = dataclasses.replace(params, potential=cd.PowerLaw(a[k].item(), alpha[k].item()))
            assert dynamics._escape_energy(one) == top[k]


def _root_one_lane(f, df, a, b, rtol, start=None):
    """dynamics._root on one lane of the scalar function f with derivative
    df, in the bracket [a, b], from ``start`` (the midpoint by default): its
    root, or its error raised."""
    def fdf(x, _):
        return np.array([f(v) for v in x.tolist()]), np.array([df(v) for v in x.tolist()])

    x = 0.5 * (a + b) if start is None else start
    roots, failed = dynamics._root(fdf, *(np.array([v]) for v in (x, a, b, f(a), f(b))), rtol)
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
            _root_one_lane(lambda x: x, lambda x: 1.0, 1.0, 2.0, 1e-13)
        with pytest.raises(QuadratureError, match="not bracketed"):
            _root_one_lane(lambda x: x - 1.5, lambda x: 1.0, 1.0, math.nan, 1e-13, start=1.2)
        with pytest.raises(QuadratureError, match="non-finite"):
            _root_one_lane(lambda x: x - 1.5 if x in (1.0, 2.0) else math.nan,
                           lambda x: 1.0, 1.0, 2.0, 1e-13)
        # a step with f' = 0 leaves bisection alone, which needs about a
        # thousand halvings to come down from 1e300
        with pytest.raises(QuadratureError, match="did not converge"):
            _root_one_lane(lambda x: 1.0 if x > 1.5 else -1.0, lambda x: 0.0,
                           1e-300, 1e300, 1e-13)

    def test_root_edge_values(self):
        # f(a) * f(b) underflows to 0 here; the sign change is still found
        x = _root_one_lane(lambda x: (x - 1.5) * 1e-200, lambda x: 1e-200, 1.0, 2.0, 1e-13)
        assert x == pytest.approx(1.5, rel=1e-13)
        # an infinite value at an end, and f' = 0 everywhere: bisection
        # narrows the bracket to two floats and gives no NaN
        x = _root_one_lane(lambda x: math.inf if x <= 1.0 else -1.0, lambda x: 0.0,
                           1.0, 2.0, 1e-13)
        assert x == pytest.approx(1.0, rel=1e-15)
        # an infinite end is open: twice the finite end until f changes sign
        x = _root_one_lane(lambda x: x - 37.5, lambda x: 1.0, 1.0, math.inf, 1e-13, start=0.5)
        assert x == 37.5

    def test_root_keeps_the_bracket(self):
        # Newton's method on atan diverges from |x| > 1.39; the bracket turns
        # each step that leaves it into a bisection, and the root is exact
        atan, slope = math.atan, lambda x: 1.0 / (1.0 + x * x)
        assert _root_one_lane(atan, slope, -1.0, 20.0, 1e-9, start=10.0) == 0.0
        # a start outside the bracket is replaced by the bisection point
        x = _root_one_lane(lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.0, 2.0, 1e-9, start=5.0)
        assert x == pytest.approx(math.sqrt(2.0), rel=1e-15)

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

    @pytest.mark.parametrize("build", [kepler_params, oscillator_params],
                             ids=["kepler", "oscillator"])
    def test_solved_radii_against_closed_forms(self, build):
        # no reference values: the root solve on Kepler and the oscillator as
        # power laws (alpha = -1 and 2), against their closed forms, from
        # 1e-12 to 0.99 of the well depth and J from 2^-20 to 2^20: within
        # eps/e, the conditioning of the level set (e = sqrt(fraction)), and
        # 2 eps where that is smaller (worst measured: 6.4 eps at 1e-2, 2.0
        # eps from 0.1 up, and 0.58 eps/e below 1e-2)
        eps = np.finfo(float).eps
        fraction, J = (v.ravel() for v in np.meshgrid(
            [f for f in TP_FRACTIONS if f <= 0.99], 2.0 ** np.arange(-20, 21, 5)))
        bound = eps * np.maximum(2.0, 1.0 / np.sqrt(fraction))
        for (k, n), m in itertools.product(RATIONAL_S, (1.0, 1.7)):
            closed = build(k, n, m=m)
            pot = closed.potential
            twin = (cd.PowerLaw(-pot.kappa, -1.0) if isinstance(pot, cd.Kepler)
                    else cd.PowerLaw(0.5 * pot.beta(m), 2.0))
            power = dataclasses.replace(closed, potential=twin)
            errors: dict = {}
            r_c, u0 = dynamics._find_ueff_minimum(power, J, errors)
            E = u0 + fraction * np.abs(u0)
            r_min, r_max, failed = dynamics._solved_turning_points(power, E, J, r_c, u0,
                                                                   np.arange(J.size))
            assert not errors and not failed
            for got, want in zip((r_min, r_max), dynamics._closed_form_radii(closed, E, J)):
                err = np.abs(got - want) / want
                assert (err <= bound).all(), (k, n, m, (err / bound).max())

    # (kind, A or B, alpha or r0, E, r_min, r_max) at m = 1.3, s = 0.7, J =
    # 1.1, with E at 1e-3, 0.3 and 0.9 of the well depth above U_0
    SOLVED_REFERENCES = [
        ("power", -0.8, -1.5, -0.05037341660129291,
         "2.442763611642853215695712247195400628511", "2.57226242154117845512838724888677729356"),
        ("power", -0.8, -1.5, -0.03529668830921425,
         "1.747542842888524434475410952637571521795", "4.732872813020658017397886906369722485709"),
        ("power", -0.8, -1.5, -0.0050423840441734605,
         "1.440691439861043550391972535768739867386", "24.39945607964706315727260194109057647728"),
        ("power", -0.8, -0.5, -0.35660554320795435,
         "2.703888705002561711699916820536353010195", "2.956991162567894058831615759016212206316"),
        ("power", -0.8, -0.5, -0.2498737539995676,
         "1.558756667472433688526437447915151067375", "9.426672462820194045622209595324460823973"),
        ("power", -0.8, -0.5, -0.03569625057136677,
         "1.158603147886948650574363819320510469971", "502.1611707383194357472045476026434731885"),
        ("power", 0.6, 1.3, 1.40717163034035,
         "1.273888590331733680448635470594337901473", "1.346542347954128792562065413926085603882"),
        ("power", 0.6, 1.3, 1.8274956238186364,
         "0.8387289482218630990755536579714641093719", "2.148759292641013302692930251563530901424"),
        ("power", 0.6, 1.3, 2.6709551425041607,
         "0.637530693138554824618240099627929661463", "3.061520840541948555948012623845075761697"),
        ("power", 0.6, 3.0, 1.5507771607557763,
         "0.9924806705786485484118283267228899411005", "1.029387938071577065614493675392035159532"),
        ("power", 0.6, 3.0, 2.0139963126698395,
         "0.7304262607317789867817599964178953584195", "1.356576325475111244348932767799037168704"),
        ("power", 0.6, 3.0, 2.9435330723636115,
         "0.5796556724078585326611714424679184869259", "1.627142295807140083784079260687559560959"),
        ("log", 0.9, 1.7, 0.3088780679468976,
         "1.426295449825066335261799662753977960905", "1.480107303175918177268193867357652198382"),
        ("log", 0.9, 1.7, 0.4011403479829839,
         "1.08729216637610939963116638008087678899", "2.080212064477339329336723078298570876712"),
        ("log", 0.9, 1.7, 0.5862820470520534,
         "0.9088235282532954361718483356593931907685", "2.868544859749948968410859810535849900776"),
    ]

    def test_solved_radii_against_references(self):
        """Power laws and the log potential, where no closed form exists,
        against 40-digit references from mpmath (not a dependency), within
        1e-14 relative.  The references were made with::

            import conedyn as cd, mpmath as mp
            mp.mp.dps = 50
            m, s, J = 1.3, 0.7, 1.1
            for kind, x, y in [("power", -0.8, -1.5), ("power", -0.8, -0.5),
                               ("power", 0.6, 1.3), ("power", 0.6, 3.0),
                               ("log", 0.9, 1.7)]:
                pot = cd.PowerLaw(x, y) if kind == "power" else cd.LogPotential(x, y)
                params = cd.Params(m=m, geometry=cd.ConeGeometry(s=s), potential=pot)
                r_c, u0 = cd.circular_orbit(params, J)
                for f in (1e-3, 0.3, 0.9):
                    E = u0 + f * abs(u0)
                    def U(r):  # U_eff(r) - E, every float taken exactly
                        v = (mp.mpf(x) * r ** mp.mpf(y) if kind == "power"
                             else mp.mpf(x) * mp.log(r / mp.mpf(y)))
                        return (mp.mpf(J) ** 2 / (2 * mp.mpf(m) * mp.mpf(s) ** 2 * r ** 2)
                                + v - mp.mpf(E))
                    ends = []
                    for factor in (mp.mpf(1) / 2, mp.mpf(2)):  # inward, outward
                        a = b = mp.mpf(r_c)
                        while U(b) < 0:
                            a, b = b, b * factor
                        ends.append(mp.findroot(U, (a, b), solver="anderson"))
                    print((kind, x, y, E, *(mp.nstr(r, 40) for r in ends)))
        """
        geometry = cd.ConeGeometry(s=0.7)
        for kind, x, y, E, r_min, r_max in self.SOLVED_REFERENCES:
            pot = cd.PowerLaw(x, y) if kind == "power" else cd.LogPotential(x, y)
            tp = cd.turning_points(cd.Params(m=1.3, geometry=geometry, potential=pot), E, 1.1)
            for got, want in ((tp.r_min, decimal.Decimal(r_min)),
                              (tp.r_max, decimal.Decimal(r_max))):
                err = float(abs(decimal.Decimal(got) - want) / want)
                assert err <= 1e-14, (kind, x, y, E, err)

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

    def test_per_lane_power_laws_equal_their_own_calls(self):
        # one (A, alpha) per lane: each lane has the bits of a call with its
        # own power law, whatever the other lanes' exponents are
        rng = np.random.default_rng(5)
        alpha = np.repeat([-1.5, -1.0, 0.5, 2.0, 3.0], 8)
        amp = np.where(alpha > 0.0, 1.3, -0.7)
        J = rng.uniform(0.3, 2.0, alpha.size)
        geometry = cd.ConeGeometry.from_rational(2, 3)
        batch = cd.Params(m=1.1, geometry=geometry, potential=cd.PowerLaw(amp, alpha))
        _, e_c = cd.circular_orbit(batch, J)
        E = e_c + rng.uniform(0.05, 0.9, alpha.size) * np.abs(e_c)
        tp = cd.turning_points(batch, E, J)
        for k, (a, p) in enumerate(zip(amp.tolist(), alpha.tolist())):
            params = cd.Params(m=1.1, geometry=geometry, potential=cd.PowerLaw(a, p))
            one = cd.turning_points(params, E[k].item(), J[k].item())
            assert (tp.r_min[k].item(), tp.r_max[k].item()) == (one.r_min, one.r_max)

    def test_float_pow_per_lane_exponents(self):
        # np.float_power, the power of every r ** alpha, is Python's ** lane
        # by lane; where ** raises (overflow, zero to a negative power) the
        # lane holds a signed inf
        x = [2.5, 0.3, 7.0, 1e200, -1e200, 0.0, -0.0, -0.0, 1e-300, 2.0]
        p = [2.0, -1.0, 0.5, 2.0, 3.0, -1.5, -1.0, -1.5, -2.0, 1.0 / 3.0]
        want = [math.inf, -math.inf, math.inf, -math.inf, math.inf, math.inf]
        with np.errstate(all="ignore"):
            got = np.float_power(np.array(x), np.array(p)).tolist()
        for v, q, g in zip(x, p, got):
            try:
                w = v ** q
            except ArithmeticError:
                w = want.pop(0)
            assert g.hex() == w.hex(), (v, q)
        assert not want
        assert np.float_power(np.array(x[:3]), 2.0).tolist() == [v ** 2.0 for v in x[:3]]

    def test_float_pow_is_python_power_bit_for_bit(self):
        # 1e5 lanes of log-uniform bases (negative ones with whole exponents):
        # per-lane exponents, Python-float, np.float64 and int scalars
        rng = np.random.default_rng(18)
        n = 100_000
        x = 10.0 ** rng.uniform(-50.0, 50.0, n)
        p = rng.uniform(-5.0, 5.0, n)
        whole = rng.random(n) < 0.2
        p[whole] = np.round(p[whole])
        x[whole & (rng.random(n) < 0.5)] *= -1.0
        cases = [(x, p, [v ** q for v, q in zip(x.tolist(), p.tolist())])]
        base = np.abs(x)
        for q in (1.0 / 3.0, np.float64(-0.7), 2):
            cases.append((base, q, [v ** q for v in base.tolist()]))
        # one overflowing lane holds inf and every other lane keeps its bits
        x_over, p_over = x.copy(), p.copy()
        x_over[777], p_over[777] = 1e300, 2.0
        want = cases[0][2].copy()
        want[777] = math.inf
        cases.append((x_over, p_over, want))
        for xs, q, want in cases:
            with np.errstate(all="ignore"):
                got = np.float_power(xs, q)
            assert got.dtype == np.float64 and got.tobytes() == np.array(want, float).tobytes()

    def test_each_point_evaluated_once(self, monkeypatch):
        # U_eff is evaluated at most once per (lane, r); at r_c only by the
        # minimum, whose value the root solve reuses
        rng = np.random.default_rng(9)
        alpha = np.repeat([-1.5, -1.0, 0.5, 3.0], 10)
        power = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=0.8),
                          potential=cd.PowerLaw(np.where(alpha > 0.0, 1.0, -1.0), alpha))
        log = cd.Params(m=1.3, geometry=cd.ConeGeometry(s=0.7),
                        potential=cd.LogPotential(strength=0.8, r0=1.5))
        evaluate = dynamics._effective_potential_lanes
        seen = Counter()

        def spy(params, J, r, lanes=None):
            seen.update(zip(J.tolist(), r.tolist()))  # J tells the lanes apart
            return evaluate(params, J, r, lanes)

        monkeypatch.setattr(dynamics, "_effective_potential_lanes", spy)
        for params in (power, log):
            J = rng.uniform(0.5, 2.0, alpha.size)
            r_c, e_c = cd.circular_orbit(params, J)
            E = e_c + rng.uniform(0.05, 0.9, alpha.size) * np.abs(e_c)
            seen.clear()
            cd.turning_points(params, E, J)
            assert max(seen.values()) == 1
            assert [seen[point] for point in zip(J.tolist(), r_c.tolist())] == [1] * J.size

    def test_evaluation_budget(self, tmp_path, monkeypatch):
        # U_eff evaluations per turning point, the start and any doubling
        # included, over the shipped bertrand config: its 126 scan cells and
        # the 50 levels of its log width-law check; a solve that falls back
        # to bisection would take dozens
        solve, evaluate = dynamics._solved_turning_points, dynamics._effective_potential_lanes
        calls, counts = [], Counter()

        def counted_solve(params, E, J, r_c, u0, lanes):
            calls.append((lanes.size, r_c))
            return solve(params, E, J, r_c, u0, lanes)

        def counted(params, J, r, lanes=None):
            if lanes is not None:  # not the minimum's U_0
                # an end is its lane and its side of r_c, which no point reaches
                r_c = calls[-1][1][lanes]
                counts.update(zip([len(calls)] * r.size, lanes.tolist(), (r > r_c).tolist()))
            return evaluate(params, J, r, lanes)

        monkeypatch.setattr(dynamics, "_solved_turning_points", counted_solve)
        monkeypatch.setattr(dynamics, "_effective_potential_lanes", counted)
        config = Path(__file__).resolve().parent.parent / "configs" / "bertrand_scan.json"
        assert main(["bertrand", "--config", str(config),
                     "--output", str(tmp_path / "scan.csv")]) == 0
        assert [size for size, _ in calls] == [126, 50] and len(counts) == 2 * (126 + 50)
        per_end = sorted(counts.values())
        assert per_end[len(per_end) // 2] <= 7 and per_end[-1] <= 14

    def test_both_ends_failing_report_the_outward_error(self, monkeypatch):
        # lane 0 fails outward and inward, lane 1 inward only: each reports
        # the first error of a solve that takes the outward end first
        params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                           potential=cd.PowerLaw(amplitude=-1.0, exponent=-1.0))
        J = np.array([1.0, 1.3])
        r_c, e_c = cd.circular_orbit(params, J)
        E = 0.5 * e_c
        evaluate = dynamics._effective_potential_lanes
        first = {}  # (lane, outward) -> the first radius that failed

        def failing(params, J, r, lanes):
            u, du, raised = evaluate(params, J, r, lanes)
            bad = ((lanes == 0) & (r > 1.5 * r_c[lanes])) | (r < r_c[lanes] / 1.5)
            for k, x in zip(lanes[bad].tolist(), r[bad].tolist()):
                first.setdefault((k, x > r_c[k]), x)  # the outward end's points lie above r_c
            return np.where(bad, math.nan, u), du, raised

        monkeypatch.setattr(dynamics, "_effective_potential_lanes", failing)
        *_, failed = dynamics._solved_turning_points(params, E, J, r_c, e_c, np.arange(2))
        assert set(first) == {(0, True), (0, False), (1, False)}
        assert {k: str(exc) for k, exc in failed.items()} == {
            0: f"root solve met the non-finite value nan at {first[0, True]}",
            1: f"root solve met the non-finite value nan at {first[1, False]}"}
        assert all(isinstance(exc, QuadratureError) for exc in failed.values())

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
        # lanes are 1-D: a 2-D argument names no lane, it is the call's error
        two_thirds = kepler_params(2, 3)
        with pytest.raises(DomainError, match=r"^expected floats or 1-D arrays, "
                                              r"got shapes \(1, 2\), \(\)$"):
            cd.turning_points(two_thirds, np.array([[-0.2, 1.0]]), 1.0)
        with pytest.raises(DomainError, match=r"^expected floats or 1-D arrays, "
                                              r"got shapes \(1, 2\)$"):
            cd.circular_orbit(two_thirds, np.array([[1.0, 0.0]]))


class TestStep:
    def test_reversibility(self):
        params = kepler_params()
        pt = cd.PhasePoint(r=0.8, phi=0.3, p_r=0.4, J=1.0)
        fwd = one_step(params, pt, 1e-3)
        back = one_step(params, fwd, -1e-3)
        assert back.r == pytest.approx(pt.r, abs=1e-12)
        assert back.p_r == pytest.approx(pt.p_r, abs=1e-12)
        assert back.phi == pytest.approx(pt.phi, abs=1e-12)

    def test_circular_orbit_fixed_point(self):
        params = kepler_params()
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0)
        for _ in range(1000):
            pt = one_step(params, pt, 1e-3)
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

    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.0),
        cd.PowerLaw(amplitude=0.8, exponent=1.5),  # r ** 0.5 turns complex past the tip
        cd.LogPotential(strength=1.0, r0=1.0),
    ], ids=["kepler", "oscillator", "power_law", "log"])
    def test_tip_collision_at_block_edges(self, potential, monkeypatch):
        # the tip is checked once per block of steps, so a crossing may be
        # found after the loop ran on: on the first step, on the last step
        # of a block and on the first step of the next one
        monkeypatch.setattr(dynamics, "_BLOCK", 64)
        params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0), potential=potential)
        pt, dt = cd.PhasePoint(r=0.5, phi=0.0, p_r=-1.0, J=0.0), 1e-3
        total = steps_to_collision(params, pt, dt)
        plunge = cd.integrate(params, pt, dt, total, 1)
        for step in (0, 63, 64):
            start = plunge.point(total - step)
            assert steps_to_collision(params, start, dt) == step
            # numpy scalars in the start point take the same path, with no warning
            as_numpy = cd.PhasePoint(*map(np.float64, dataclasses.astuple(start)))
            for pt, sample_every in itertools.product((start, as_numpy), (1, 8)):
                with pytest.raises(TipCollisionError) as err:
                    cd.integrate(params, pt, dt, 128, sample_every)
                assert err.value.step_index == step

    def test_opening_force_overflow_is_domain_error(self):
        # r ** -2.5 leaves the float range before step 0 stores a radius
        params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                           potential=cd.PowerLaw(amplitude=1.0, exponent=-1.5))
        with pytest.raises(DomainError, match="step 0 is outside the float range"):
            cd.integrate(params, cd.PhasePoint(r=1e-150, phi=0.0, p_r=0.0, J=0.0), 1e-3, 10)

    def test_numpy_scalar_arguments_take_the_float_path(self):
        # dt, m, s and the potential's constants as numpy scalars run the loop
        # on Python floats: the same bits, and a force past the float range
        # still raises at its step instead of warning
        f = np.float64
        pt = cd.PhasePoint(r=1.0, phi=0.3, p_r=0.2, J=1.0)
        as_float = cd.integrate(kepler_params(m=1.7, s=2 / 3), pt, 2e-3, 700, 7)
        as_numpy = cd.integrate(cd.Params(m=f(1.7), geometry=cd.ConeGeometry(s=f(2 / 3)),
                                          potential=cd.Kepler(kappa=f(1.0))),
                                pt, f(2e-3), 700, 7)
        for name in ("r", "p_r", "phi_unwrapped"):
            assert getattr(as_numpy, name).tobytes() == getattr(as_float, name).tobytes()
        params = cd.Params(m=f(1.0), geometry=cd.ConeGeometry(s=1.0),
                           potential=cd.PowerLaw(amplitude=f(1.0), exponent=f(-1.5)))
        with pytest.raises(DomainError, match="step 0 is outside the float range"):
            cd.integrate(params, cd.PhasePoint(r=1e-150, phi=0.0, p_r=0.0, J=0.0), f(1e-3), 10)

    def test_zero_dt_rejected(self):
        with pytest.raises(DomainError):
            one_step(kepler_params(), cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0), 0.0)


def _kdk_oracle(params, pt, dt, n_steps, sample_every):
    """The stepper loop as first written, in kick-drift-kick form: p_r is
    carried, two force evaluations per step, a modulo test for sampling, the
    angle summed step by step and V' written out per potential class, apart
    from the stepper's force source.  Returns sampled (r, p_r, unwrapped
    phi)."""
    pot = params.potential
    m, s = params.m, params.geometry.s

    def v_prime(r):
        if isinstance(pot, cd.Kepler):
            return pot.kappa / (r * r)
        if isinstance(pot, cd.Oscillator):
            return pot.beta(m) * r
        if isinstance(pot, cd.PowerLaw):
            a = pot.exponent
            return pot.amplitude * a * r ** (a - 1.0)
        return pot.strength / r

    ms2 = m * s * s
    r, p_r, phi, J = pt.r, pt.p_r, pt.phi, pt.J
    cent = (J * J) / ms2
    half_dt = 0.5 * dt
    samples = [(r, p_r, phi)]
    for i in range(n_steps):
        p_r = p_r + half_dt * (cent / (r * r * r) - v_prime(r))
        r_new = r + dt * (p_r / m)
        assert r_new > 0.0
        r_mid = 0.5 * (r + r_new)
        phi = phi + dt * (J / (ms2 * (r_mid * r_mid)))
        r = r_new
        p_r = p_r + half_dt * (cent / (r * r * r) - v_prime(r))
        if (i + 1) % sample_every == 0:
            samples.append((r, p_r, phi))
    return np.array(samples).T


def _reference_kdk(params, pt, dt, n_steps, sample_every):
    """The stepper loop written plainly, in drift form: the drift q = dt *
    p_r / m of the next step is carried, the force -U_eff' comes scaled by
    dt * dt / m, a sample reads p_r off the mean of the drifts into and out
    of it and changes nothing, and the angle is summed step by step.
    Returns sampled (r, p_r, unwrapped phi)."""
    pot = params.potential
    m, s = params.m, params.geometry.s
    ms2 = m * s * s
    r, p_r, phi, J = pt.r, pt.p_r, pt.phi, pt.J
    w = dt * dt / m
    cent = (J * J) / ms2 * w

    def force(r):
        if isinstance(pot, cd.Kepler):
            return (cent / r - pot.kappa * w) / (r * r)
        if isinstance(pot, cd.Oscillator):
            return cent / (r * r * r) - pot.beta(m) * w * r
        if isinstance(pot, cd.PowerLaw):
            a = pot.exponent
            return cent / (r * r * r) - pot.amplitude * a * w * r ** (a - 1.0)
        return cent / (r * r * r) - pot.strength * w / r

    kick = force(r)
    q = dt * (p_r / m) + 0.5 * kick
    samples = [(r, p_r, phi)]
    for i in range(n_steps):
        r_new = r + q
        assert r_new > 0.0
        r_mid = 0.5 * (r + r_new)
        phi = phi + dt * (J / (ms2 * (r_mid * r_mid)))
        r = r_new
        q_in, q = q, q + force(r)
        if (i + 1) % sample_every == 0:
            samples.append((r, (q_in + q) * (0.5 * (m / dt)), phi))
    return np.array(samples).T


def _assert_equals_reference(params, pt, dt, n_steps, sample_every):
    traj = cd.integrate(params, pt, dt, n_steps, sample_every)
    ref_r, ref_pr, ref_phi = _reference_kdk(params, pt, dt, n_steps, sample_every)
    assert traj.r.tobytes() == ref_r.tobytes()
    assert traj.p_r.tobytes() == ref_pr.tobytes()
    assert traj.phi_unwrapped.tobytes() == ref_phi.tobytes()


class TestIntegrate:
    def test_counts_must_be_positive(self):
        pt = cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0)
        for n_steps, sample_every in ((0, 1), (10, 0), (-10, -1)):
            with pytest.raises(DomainError, match=r"^n_steps and sample_every must be >= 1$"):
                cd.integrate(kepler_params(), pt, 1e-3, n_steps, sample_every)

    def test_unsupported_potential(self):
        class Cubic:  # a potential class with no force source and no power-law form
            def value(self, r, m=1.0):
                return r ** 3

        params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0), potential=Cubic())
        with pytest.raises(StructuralError, match=r"^unsupported potential Cubic$"):
            cd.integrate(params, cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0), 1e-3, 10)
        with pytest.raises(StructuralError, match=r"^unsupported potential Cubic$"):
            dynamics._escape_energy(params)

    def test_misaligned_arrays_rejected(self):
        params = kepler_params(2, 3)
        traj = cd.integrate(params, perigee_point(params, -0.15, 1.0), 2e-3, 200, 10)
        with pytest.raises(DomainError, match=r"^trajectory array 'p_r' misaligned$"):
            dataclasses.replace(traj, p_r=traj.p_r[:-1])

    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.0),
        cd.PowerLaw(amplitude=0.8, exponent=1.5),
        cd.LogPotential(strength=1.0, r0=1.0),
    ], ids=["kepler", "oscillator", "power_law", "log"])
    def test_kernel_bitwise_equals_reference_loop(self, potential, monkeypatch):
        # m = 1.7 makes p_r / m inexact
        for (k, n), dt, J, sample_every, m in itertools.product(
            ((1, 1), (2, 3)), (2e-3, -2e-3), (1.0, -1.0), (1, 7), (1.0, 1.7)
        ):
            params = cd.Params(m=m, geometry=cd.ConeGeometry.from_rational(k, n),
                               potential=potential)
            _assert_equals_reference(params, cd.PhasePoint(r=1.0, phi=0.3, p_r=0.2, J=J),
                                     dt, 1400, sample_every)
        # the angle is summed per block of steps: cross block boundaries with
        # several samples per block and with samples split across blocks
        params = cd.Params(m=1.7, geometry=cd.ConeGeometry.from_rational(2, 3),
                           potential=potential)
        pt = cd.PhasePoint(r=1.0, phi=0.3, p_r=0.2, J=1.0)
        _assert_equals_reference(params, pt, 2e-3, 140_000, 70_000)
        monkeypatch.setattr(dynamics, "_BLOCK", 64)
        for sample_every in (1, 7, 150):
            _assert_equals_reference(params, pt, 2e-3, 1050, sample_every)
        # and with unit mass
        params = cd.Params(m=1.0, geometry=params.geometry, potential=potential)
        for sample_every in (1, 7, 150):
            _assert_equals_reference(params, pt, 2e-3, 1050, sample_every)

    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.0),
        cd.PowerLaw(amplitude=0.8, exponent=1.5),
        cd.LogPotential(strength=1.0, r0=1.0),
    ], ids=["kepler", "oscillator", "power_law", "log"])
    def test_drift_form_is_the_kick_drift_kick_scheme(self, potential):
        """The drift form and the kick-drift-kick loop are one map in exact
        arithmetic, so they part by rounding only: each column stays within
        2e-13 of the oracle relative to its largest value.  Measured worst
        case over these runs: 4.6e-14, on Kepler's p_r (r 1.1e-14, phi
        5.1e-15); a wrong half-kick or drift would be off by ~1e-3."""
        for dt, m, sample_every in itertools.product((2e-3, -2e-3), (1.0, 1.7), (1, 7)):
            params = cd.Params(m=m, geometry=cd.ConeGeometry.from_rational(2, 3),
                               potential=potential)
            pt = cd.PhasePoint(r=1.0, phi=0.3, p_r=0.2, J=1.0)
            traj = cd.integrate(params, pt, dt, 1400, sample_every)
            oracle = _kdk_oracle(params, pt, dt, 1400, sample_every)
            for got, want in zip((traj.r, traj.p_r, traj.phi_unwrapped), oracle):
                assert np.abs(got - want).max() <= 2e-13 * np.abs(want).max()

    @pytest.mark.parametrize("potential", [
        cd.Kepler(kappa=1.0),
        cd.Oscillator(omega=1.0),
        cd.PowerLaw(amplitude=0.8, exponent=1.5),
        cd.LogPotential(strength=1.0, r0=1.0),
    ], ids=["kepler", "oscillator", "power_law", "log"])
    @pytest.mark.parametrize("block", [None, 64], ids=["default_block", "block_64"])
    def test_samples_are_read_outs_of_one_run(self, potential, block, monkeypatch):
        # sampling changes no state: a run sampled every k-th step holds
        # exactly every k-th state of the run sampled at every step, however
        # the steps fall into blocks
        if block is not None:
            monkeypatch.setattr(dynamics, "_BLOCK", block)
        pt = cd.PhasePoint(r=1.0, phi=0.3, p_r=0.2, J=1.0)
        for dt, m in itertools.product((2e-3, -2e-3), (1.0, 1.7)):
            params = cd.Params(m=m, geometry=cd.ConeGeometry.from_rational(2, 3),
                               potential=potential)
            every = cd.integrate(params, pt, dt, 1050, 1)
            for sample_every in (1, 7, 150):
                traj = cd.integrate(params, pt, dt, 1050, sample_every)
                for name in ("r", "p_r", "phi_unwrapped"):
                    want = getattr(every, name)[::sample_every]
                    assert getattr(traj, name).tobytes() == want.tobytes()

    def test_angle_past_float_range_equals_reference_loop(self):
        # r_mid * r_mid overflows to inf, so every angle increment is 0, as
        # Python floats give it, and numpy warns about nothing
        params = kepler_params(2, 3)
        pt = cd.PhasePoint(r=1e160, phi=0.3, p_r=-1e153, J=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for sample_every in (1, 9):
                _assert_equals_reference(params, pt, 1e5, 90, sample_every)

    def test_memory_bounded_by_one_block(self):
        # five blocks of steps: without blocks, even one array of doubles
        # per step would need 2.6 MB
        params = kepler_params()
        pt = perigee_point(params, -0.375, 1.0)
        cd.integrate(params, pt, 1e-3, 10, 10)  # compile the loop outside the trace
        tracemalloc.start()
        try:
            cd.integrate(params, pt, 1e-3, 327_680, 327_680)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

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


def _reference_detect_closure(traj, tol):
    """detect_closure as first written: the candidate samples are found by a
    scan of one sample at a time."""
    r, p, t = traj.r, traj.p_r, traj.times
    amp_r = float(r.max() - r.min())
    amp_p = max(float(p.max() - p.min()), 1e-300)
    r0, p0, phi0 = float(r[0]), float(p[0]), float(traj.phi_unwrapped[0])
    d = np.maximum(np.abs(r - r0) / amp_r, np.abs(p - p0) / amp_p)
    departed = np.nonzero(d > 0.35)[0]
    if len(departed) == 0:
        return None
    start = int(departed[0])
    r_h, p_h, phi_h = dynamics._interpolants(traj)

    def dist_sq(x):
        dr = (r_h(x) - r0) / amp_r
        dp = (p_h(x) - p0) / amp_p
        return dr * dr + dp * dp

    periods = 0
    for i in range(start + 1, len(d) - 1):
        if not (d[i] <= 0.2 and d[i] <= d[i - 1] and d[i] < d[i + 1]):
            continue
        periods += 1
        a, b = sorted((float(t[i - 1]), float(t[i + 1])))
        t_star = dynamics._golden_min(dist_sq, a, b, xatol=(b - a) * 1e-10)
        d_rp = max(abs(r_h(t_star) - r0) / amp_r, abs(p_h(t_star) - p0) / amp_p)
        winding = (phi_h(t_star) - phi0) / (2 * math.pi)
        d_phi = abs(winding - round(winding))
        if d_rp <= tol and d_phi <= tol:
            return cd.ClosureInfo(closure_time=t_star, radial_periods=periods)
    return None


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

    def test_equals_reference_scan(self):
        kep, irr = kepler_params(2, 3), kepler_params(s=1.0 / math.sqrt(2.0))
        pt = perigee_point(kep, -0.15, 1.0)
        fwd = cd.integrate(kep, pt, 2e-3, 50000, 50)
        cases = [fwd, cd.integrate(kep, pt, -2e-3, 50000, 50),
                 self._trajectory(irr, bound_energy(irr, 1.0, 0.3), 1.0, 12.5, 10000)]
        cases.append(cd.integrate(irr, perigee_point(irr, -0.15, 1.0), -2e-3, 20000, 50))
        # one sample per half radial period from mid-well: start is sample 1,
        # and the first candidate, sample 2, is the closure
        flat = kepler_params()
        half = cd.radial_period(flat, -0.375, 1.0) / 2
        cases.append(cd.integrate(flat, midwell_point(flat, -0.375, 1.0), half / 5000,
                                  30000, 5000))
        infos = [cd.detect_closure(traj, tol=1e-6) for traj in cases]
        assert infos == [_reference_detect_closure(traj, tol=1e-6) for traj in cases]
        assert infos[0].radial_periods == infos[1].radial_periods == 2
        assert infos[2] is None
        assert infos[4].radial_periods == 1

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

    def test_tolerance_must_be_positive(self):
        # every comparison with a tolerance of 0, below 0 or NaN fails: that
        # gave None, as for an orbit that never closes
        params = kepler_params()
        traj = cd.integrate(params, midwell_point(params, bound_energy(params, 1.0, 0.3), 1.0),
                            1e-2, 1000, 10)
        for tol in (0.0, -1e-6, math.nan):
            with pytest.raises(DomainError, match=rf"^closure tolerance must be positive, "
                                                  rf"got {tol}$"):
                cd.detect_closure(traj, tol)


class TestApsidalMeasurement:
    def test_hermite_slope_is_the_cubic_derivative(self):
        # samples of a cubic with exact derivatives: the interpolant is that
        # cubic, and its slope (the apsis solve's f') is the cubic's
        rng = np.random.default_rng(12)
        t = np.sort(rng.uniform(-3.0, 5.0, 9))
        c = rng.uniform(-2.0, 2.0, 4)
        y, dy = np.polyval(c, t), np.polyval(np.polyder(c), t)
        interp = dynamics._Hermite(t, y, dy)
        for x in np.linspace(t[0], t[-1], 101).tolist():
            assert interp(x) == pytest.approx(np.polyval(c, x), rel=1e-12, abs=1e-12)
            assert interp.slope(x) == pytest.approx(np.polyval(np.polyder(c), x),
                                                    rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("column", ["r", "p_r"])
    def test_non_finite_sample_rejected(self, column):
        # a NaN r or p_r makes the interpolants NaN around it, and every
        # closure distance NaN: a typed error in each analysis
        params = kepler_params(2, 3)
        traj = cd.integrate(params, perigee_point(params, -0.15, 1.0), 2e-3, 20_000, 50)
        bad = getattr(traj, column).copy()
        bad[7] = np.nan
        traj = dataclasses.replace(traj, **{column: bad})
        for analyse in (cd.trajectory_apsides, cd.measure_apsidal_advance, cd.detect_closure):
            with pytest.raises(DomainError, match="^trajectory analysis requires finite r and "
                                                  "p_r$"):
                analyse(traj)

    def test_slope_outside_the_float_range_rejected(self):
        # r ** 3 overflows at a finite sample: U_eff' has no float value there
        params = cd.Params(m=1.0, geometry=cd.ConeGeometry(s=1.0),
                           potential=cd.PowerLaw(amplitude=0.8, exponent=3.0))
        traj = cd.integrate(params, cd.PhasePoint(r=1.0, phi=0.0, p_r=0.0, J=1.0), 1e-3, 2000, 10)
        r = traj.r.copy()
        r[7] = 1e200
        traj = dataclasses.replace(traj, r=r)
        for analyse in (cd.trajectory_apsides, cd.measure_apsidal_advance, cd.detect_closure):
            with pytest.raises(DomainError, match="^U_eff' along the trajectory is outside the "
                                                  "float range$"):
                analyse(traj)

    def test_too_short_trajectory_rejected(self):
        # half a radial period from mid-well passes one apsis
        params = kepler_params()
        E, J = -0.375, 1.0
        T = cd.radial_period(params, E, J)
        traj = cd.integrate(params, midwell_point(params, E, J), T / 8000, 4000, 40)
        with pytest.raises(DomainError, match=r"^trajectory too short: fewer than three "
                                              r"apsis passages$"):
            cd.measure_apsidal_advance(traj)

    def test_zero_sample_between_opposite_signs_is_the_apsis(self):
        params = kepler_params(2, 3)
        traj = cd.integrate(params, perigee_point(params, -0.15, 1.0), 2e-3, 50_000, 50)
        events = cd.trajectory_apsides(traj)
        assert len(events) == 5 and traj.p_r[0] == 0.0  # from perigee: no event at 0
        k = int(np.argmin(np.abs(traj.times - events[1].time)))
        assert traj.p_r[k - 1] * traj.p_r[k + 1] < 0.0
        p_r = traj.p_r.copy()
        p_r[k] = 0.0
        zeroed = dataclasses.replace(traj, p_r=p_r)
        got = cd.trajectory_apsides(zeroed)
        assert got[1] == (traj.times[k], events[1].kind, traj.r[k], traj.phi_unwrapped[k])
        assert got[:1] + got[2:] == events[:1] + events[2:]
        # the sample lies within half a sample spacing of the apsis
        (angle, period), (want_angle, want_period) = (cd.measure_apsidal_advance(zeroed),
                                                      cd.measure_apsidal_advance(traj))
        assert period == want_period and angle == pytest.approx(want_angle, abs=0.05)
        # samples of opposite signs whose product underflows still bracket it
        p_r = traj.p_r.copy()
        p_r[k], p_r[k + 1] = np.copysign(1e-200, p_r[k - 1]), np.copysign(1e-200, p_r[k + 1])
        got = cd.trajectory_apsides(dataclasses.replace(traj, p_r=p_r))
        assert [e.kind for e in got] == [e.kind for e in events]
        assert traj.times[k] <= got[1].time < traj.times[k + 1]
        # a zero at the last sample, or between samples of one sign, is no event
        for k in (len(traj) - 1, k + 20):
            p_r = traj.p_r.copy()
            assert k == len(traj) - 1 or traj.p_r[k - 1] * traj.p_r[k + 1] > 0.0
            p_r[k] = 0.0
            assert cd.trajectory_apsides(dataclasses.replace(traj, p_r=p_r)) == events

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
