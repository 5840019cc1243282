"""Mechanical similarity as an oracle over the whole bound domain.

A similarity maps solutions to solutions (Landau & Lifshitz, Mechanics,
3rd ed., sec. 10).  With power-of-two factors every + - * / and sqrt
commutes with the map exactly, so wherever no pow takes a scaled base and
nothing leaves the normal range, the image of a result is the result of the
image, bit for bit.  No reference values are needed.

- Amplitude, every class: (A, E, J) -> (4A, 4E, 2J), that is kappa -> 4
  kappa, omega -> 2 omega and B -> 4 B.  U_eff scales by 4 at every r, so
  the turning points and the apsidal angle are unchanged, the radial period
  halves and the radial action doubles.
- Length, Kepler: (r, E, J, t, p_r) -> (4^k r, 4^-k E, 2^k J, 8^k t, 2^-k
  p_r), and the angle is unchanged.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import conedyn as cd
from conedyn.bertrand import _Well
from conedyn.dynamics import _escape_energy
from helpers import kepler_params

SCALES = [1.0, 2.0 / 3.0, 0.7, 1.5]
ALPHAS = [-1.5, -1.0, -0.5, 0.5, 1.3, 2.0, 3.0]
_LEVELS = 15  # per potential class and scale; the power law takes 5 per alpha


def _amplified(pot):
    """The potential of the amplitude map: V -> 4 V."""
    if isinstance(pot, cd.Kepler):
        return cd.Kepler(kappa=4.0 * pot.kappa)
    if isinstance(pot, cd.Oscillator):
        return cd.Oscillator(omega=2.0 * pot.omega)
    if isinstance(pot, cd.LogPotential):
        return cd.LogPotential(strength=4.0 * pot.strength, r0=pot.r0)
    return cd.PowerLaw(amplitude=4.0 * pot.amplitude, exponent=pot.exponent)


def _sweep():
    """(params, E, J) batches: the four classes at each scale factor, with
    seeded constants, J log-uniform in 2^-20..2^20 with either sign, and
    levels log-uniform from 1e-6 to 0.9 of the well (of ten centrifugal
    energies at r_c for a confining one)."""
    rng = np.random.default_rng(28)
    for s in SCALES:
        alpha = np.repeat(ALPHAS, 5)
        amplitude = np.where(alpha > 0.0, 1.0, -1.0) * rng.uniform(0.5, 2.0, alpha.size)
        for pot in (cd.Kepler(kappa=rng.uniform(0.5, 2.0)),
                    cd.Oscillator(omega=rng.uniform(0.5, 2.0)),
                    cd.LogPotential(strength=rng.uniform(0.5, 2.0), r0=rng.uniform(0.5, 2.0)),
                    cd.PowerLaw(amplitude=amplitude, exponent=alpha)):
            params = cd.Params(m=rng.uniform(0.5, 2.0), geometry=cd.ConeGeometry(s=s),
                               potential=pot)
            n = alpha.size if isinstance(pot, cd.PowerLaw) else _LEVELS
            J = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-20.0, 20.0, n)
            fraction = 10.0 ** rng.uniform(-6.0, math.log10(0.9), n)
            r_c, u0 = cd.circular_orbit(params, J)
            top = _escape_energy(params)
            width = np.where(np.isfinite(top), top - u0,
                             10.0 * J * J / (2.0 * params.m * s * s * r_c * r_c))
            yield params, u0 + fraction * width, J


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values).tolist()]


def _levels(params, E, J) -> dict:
    """Every level function of the lanes (E, J), as bits, and their errors."""
    errors: dict = {}
    r_c, u0 = cd.circular_orbit(params, J)
    r_min, r_max = cd.turning_points(params, E, J)
    well = _Well(params, E, J, errors, "similarity")
    tolerance, refinements = 1e-10, 6
    (angle, period, action), (err, _, _) = well.integral(
        [well.swept_angle, well.period, well.action], tolerance, refinements)
    return {"r_c": r_c, "u0": u0, "r_min": r_min, "r_max": r_max,
            "delta_phi": angle / params.geometry.s, "err": err, "period": period,
            "action": action / math.pi,
            "errors": {lane: repr(exc) for lane, exc in errors.items()}}


def test_amplitude_map_is_exact_on_every_level():
    # the image of each level gives the same turning points, angle and error
    # estimate, half the period and twice the action, bit for bit
    levels = 0
    for params, E, J in _sweep():
        image = replace(params, potential=_amplified(params.potential))
        base, mapped = _levels(params, E, J), _levels(image, 4.0 * E, 2.0 * J)
        assert mapped.pop("errors") == base.pop("errors") == {}
        want = dict(base, u0=4.0 * base["u0"], period=0.5 * base["period"],
                    action=2.0 * base["action"])
        for name, values in want.items():
            assert _hex(mapped[name]) == _hex(values), (params.potential, name)
        levels += E.size
    assert levels == len(SCALES) * (3 * _LEVELS + 5 * len(ALPHAS))


def _kepler_run(k: int):
    """240,000 steps of a Kepler orbit on s = 2/3 at E = 0.6 U_0, J = 1,
    under the length map with factor 2^k: the trajectory, its apsides and
    its closure."""
    params = kepler_params(2, 3)
    E, J = 0.6 * cd.circular_orbit(params, 1.0)[1], 1.0
    r_min, _ = cd.turning_points(params, E, J)
    dt = 2.5 * cd.radial_period(params, E, J) / 240_000
    start = cd.PhasePoint(r=math.ldexp(r_min, 2 * k), phi=0.3, p_r=0.0, J=math.ldexp(J, k))
    traj = cd.integrate(params, start, math.ldexp(dt, 3 * k), 240_000, 20)
    return traj, cd.trajectory_apsides(traj), cd.detect_closure(traj)


@pytest.mark.parametrize("k", [1, 40, -40])
def test_kepler_length_map_is_exact_on_the_stepper(k):
    # r, p_r, phi, H and t of every sample, every apsis and the closure are
    # the images of the unscaled run's
    (traj, apsides, closure), (image, image_apsides, image_closure) = (
        _kepler_run(0), _kepler_run(k))
    assert closure is not None and closure.radial_periods == 2
    for got, want, e in ((image.r, traj.r, 2 * k), (image.p_r, traj.p_r, -k),
                         (image.phi_unwrapped, traj.phi_unwrapped, 0),
                         (image.series_H, traj.series_H, -2 * k),
                         (image.times, traj.times, 3 * k),
                         ([a.r for a in image_apsides], [a.r for a in apsides], 2 * k),
                         ([a.time for a in image_apsides], [a.time for a in apsides], 3 * k),
                         ([a.phi_unwrapped for a in image_apsides],
                          [a.phi_unwrapped for a in apsides], 0)):
        assert _hex(got) == _hex(np.ldexp(want, e))
    assert [a.kind for a in image_apsides] == [a.kind for a in apsides]
    assert image_closure.radial_periods == closure.radial_periods
    assert image_closure.closure_time.hex() == math.ldexp(closure.closure_time, 3 * k).hex()
