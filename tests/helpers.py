"""Shared builders for the test suite."""

import math

import conedyn as cd
from conedyn.errors import TipCollisionError

RATIONAL_S = [(1, 1), (1, 2), (2, 3), (3, 4)]


def kepler_params(k=1, n=1, kappa=1.0, m=1.0, s=None):
    geo = cd.ConeGeometry(s=s) if s is not None else cd.ConeGeometry.from_rational(k, n)
    return cd.Params(m=m, geometry=geo, potential=cd.Kepler(kappa=kappa))


def oscillator_params(k=1, n=1, omega=1.0, m=1.0, s=None):
    geo = cd.ConeGeometry(s=s) if s is not None else cd.ConeGeometry.from_rational(k, n)
    return cd.Params(m=m, geometry=geo, potential=cd.Oscillator(omega=omega))


def bound_energy(params, J, f):
    """Energy at fraction f of the well above the circular energy."""
    _, e_c = cd.circular_orbit(params, J)
    if isinstance(params.potential, cd.Kepler):
        return e_c * (1.0 - f)
    return e_c * (1.0 + 2.0 * f)


def perigee_point(params, E, J, phi=0.0):
    """Phase point at the inner turning point of the (E, J) level set."""
    tp = cd.turning_points(params, E, J)
    return cd.PhasePoint(r=tp.r_min, phi=phi, p_r=0.0, J=J)


def midwell_point(params, E, J, phi=0.0):
    """Phase point at the well midpoint, moving outward."""
    tp = cd.turning_points(params, E, J)
    r0 = 0.5 * (tp.r_min + tp.r_max)
    kin = E - float(cd.effective_potential(params, J, r0))
    return cd.PhasePoint(r=r0, phi=phi, p_r=math.sqrt(2.0 * params.m * kin), J=J)


def one_step(params, pt, dt):
    """The phase point one kick-drift-kick step of dt after pt."""
    return cd.integrate(params, pt, dt, 1, 1).point(1)


def steps_to_collision(params, pt, dt):
    """Index of the step that hits the cone tip, counted by one-by-one steps."""
    n = 0
    while True:
        try:
            pt = one_step(params, pt, dt)
        except TipCollisionError:
            return n
        n += 1
