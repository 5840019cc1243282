"""Seeded sampling: the batched draw and its one-point facade."""

import itertools
import math

import numpy as np
import pytest

import conedyn as cd
from conedyn.dynamics import _escape_energy, _solved_turning_points
from conedyn.sampling import draw_bound_point, draw_bound_points
from helpers import RATIONAL_S, kepler_params, oscillator_params


def _reference_point(rng, params):
    """The sampler before batching: five scalar draws per point, and turning
    points from the bracketed root finder."""
    J = float(rng.uniform(0.5, 1.5))
    r_c, e_c = cd.circular_orbit(params, J)
    top = _escape_energy(params)
    f = float(rng.uniform(0.1, 0.7))
    if math.isfinite(top):
        E = e_c + f * (top - e_c)
    else:
        E = e_c + f * 2.0 * max(abs(e_c), 1.0)
    (r_min,), (r_max,), _ = _solved_turning_points(params, *np.array([[E], [J], [r_c]]))
    u = float(rng.uniform(0.05, 0.95))
    r = r_min + u * (r_max - r_min)
    kinetic = E - float(cd.effective_potential(params, J, r))
    p_r = math.copysign(math.sqrt(max(2.0 * params.m * kinetic, 0.0)), rng.uniform(-1.0, 1.0))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    return r, phi, p_r, J


@pytest.mark.parametrize("build", [kepler_params, oscillator_params],
                         ids=["kepler", "oscillator"])
def test_batch_equals_successive_points(build):
    # one (n, 5) block is the stream of n successive one-point draws, and
    # every point gets the bits of its own draw (n = 4,100 spans a block
    # of the verify-algebra table)
    for (k, n), m in itertools.product(RATIONAL_S, (1.0, 1.7)):
        params = build(k, n, m=m)
        for count in (1, 4, 7, 100, 4100):
            batch_rng, point_rng = np.random.default_rng(count), np.random.default_rng(count)
            coords = draw_bound_points(batch_rng, params, count)
            pts = [draw_bound_point(point_rng, params) for _ in range(count)]
            assert coords.shape == (4, count)
            for row, field in zip(coords, ("r", "phi", "p_r", "J")):
                assert row.tobytes() == np.array([getattr(p, field) for p in pts]).tobytes()
            assert batch_rng.random() == point_rng.random()


def test_points_lie_inside_their_wells():
    rng = np.random.default_rng(5)
    for params in (kepler_params(2, 3), oscillator_params(3, 4, m=1.7)):
        r, phi, p_r, J = draw_bound_points(rng, params, 500, j_range=(0.2, 3.0))
        assert ((0.2 <= J) & (J < 3.0)).all()
        assert ((0.0 <= phi) & (phi < 2.0 * np.pi)).all()
        tp = cd.turning_points(params, cd.dynamics.hamiltonian(params, r, p_r, J), J)
        width = tp.r_max - tp.r_min
        assert (r - tp.r_min > 0.04 * width).all() and (tp.r_max - r > 0.04 * width).all()
        assert (p_r > 0.0).any() and (p_r < 0.0).any()


@pytest.mark.parametrize("build", [kepler_params, oscillator_params],
                         ids=["kepler", "oscillator"])
def test_matches_the_scalar_sampler(build):
    # the same stream: J and phi keep their bits; r and p_r move only by
    # the last bits of the closed-form turning points
    for k, n in ((1, 2), (2, 3), (3, 4)):
        params = build(k, n)
        coords = draw_bound_points(np.random.default_rng(k + n), params, 250)
        rng = np.random.default_rng(k + n)
        r, phi, p_r, J = np.array([_reference_point(rng, params) for _ in range(250)]).T
        assert coords[1].tobytes() == phi.tobytes() and coords[3].tobytes() == J.tobytes()
        assert np.allclose(coords[0], r, rtol=1e-13, atol=0.0)
        assert np.allclose(coords[2], p_r, rtol=1e-13, atol=0.0)
