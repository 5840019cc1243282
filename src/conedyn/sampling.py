"""Seeded sampling of phase points on bound level sets.

Used by the verify-algebra command and by the test suite.  Every draw comes
from an explicit source with a numpy-style ``uniform(low, high, size)``: a
:class:`UniformSource` in the CLI, or a numpy Generator, so runs are
reproducible.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .bertrand import circular_orbit
from .core import TWO_PI, Params, PhasePoint
from .dynamics import _escape_energy, effective_potential, turning_points


class UniformSource:
    """Uniform draws from Python's ``random.Random(seed)``, the source of the
    CLI's points.

    ``uniform(low, high, size)`` is ``low + (high - low) * u``, numpy's
    ``Generator.uniform`` formula, where ``u`` holds the next values of
    ``random.Random(seed).random()`` in row-major order.  Python keeps that
    sequence for a given seed across versions, which numpy does not promise
    for its Generator methods (NEP 19); and this source needs no
    ``numpy.random``.
    """

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)

    def uniform(self, low, high, size: tuple[int, ...]) -> np.ndarray:
        n = math.prod(size)
        # random() is (a >> 5) * 2**26 + (b >> 6) over 2**53, for the next two
        # 32-bit outputs a, b of the generator; getrandbits(64 n) holds 2n
        # successive outputs, the first in the lowest 32 bits
        words = np.frombuffer(self._random.getrandbits(64 * n).to_bytes(8 * n, "little"),
                              dtype="<u4")
        u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
        low = np.asarray(low, dtype=float)
        return low + (np.asarray(high, dtype=float) - low) * u.reshape(size)


def draw_bound_points(
    rng: UniformSource | np.random.Generator,
    params: Params,
    n: int,
    j_range: tuple[float, float] = (0.5, 1.5),
    depth_range: tuple[float, float] = (0.1, 0.7),
) -> np.ndarray:
    """n random phase points on random bound, non-circular level sets.

    Returns the coordinates (r, phi, p_r, J), shaped (4, n).  ``rng`` is any
    source with a numpy-style ``uniform(low, high, size)``, such as a
    :class:`UniformSource` or a numpy Generator.  One ``rng.uniform`` call
    draws an (n, 5) block whose columns are, per point:
    J, uniform in ``j_range``; the fraction of the well above its bottom at
    which E sits, uniform in ``depth_range`` (the well reaches up to escape
    for potentials with one, up to twice the circular energy scale for
    confining ones); the fraction u in [0.05, 0.95] of [r_min, r_max] at
    which r sits; the sign of p_r; and phi in [0, 2*pi).  The draws are those
    of n successive points, so the first k of n points do not depend on n.
    """
    lo = (j_range[0], depth_range[0], 0.05, -1.0, 0.0)
    hi = (j_range[1], depth_range[1], 0.95, 1.0, TWO_PI)
    J, f, u, sign, phi = rng.uniform(lo, hi, size=(n, 5)).T
    _, e_c = circular_orbit(params, J)
    top = _escape_energy(params)
    if math.isfinite(top):
        E = e_c + f * (top - e_c)
    else:
        E = e_c + f * 2.0 * np.maximum(np.abs(e_c), 1.0)
    tp = turning_points(params, E, J)
    r = tp.r_min + u * (tp.r_max - tp.r_min)
    kinetic = E - effective_potential(params, J, r)
    p_r = np.copysign(np.sqrt(np.maximum(2.0 * params.m * kinetic, 0.0)), sign)
    return np.array([r, phi, p_r, J])


def draw_bound_point(
    rng: UniformSource | np.random.Generator,
    params: Params,
    j_range: tuple[float, float] = (0.5, 1.5),
    depth_range: tuple[float, float] = (0.1, 0.7),
) -> PhasePoint:
    """:func:`draw_bound_points` for one point, as a PhasePoint."""
    r, phi, p_r, J = draw_bound_points(rng, params, 1, j_range, depth_range)[:, 0].tolist()
    return PhasePoint(r=r, phi=phi, p_r=p_r, J=J)
