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

from .core import TWO_PI, Params, PhasePoint
from .dynamics import _raise_first, _turning_points, _well_levels, effective_potential
from .errors import DomainError

# the bounds of a point's uniform draws: J, the fraction of the well, the
# fraction of [r_min, r_max], the sign of p_r, and phi
_LOW = (0.5, 0.1, 0.05, -1.0, 0.0)
_HIGH = (1.5, 0.7, 0.95, 1.0, TWO_PI)


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


def draw_bound_points(rng: UniformSource | np.random.Generator, params: Params,
                      n: int) -> np.ndarray:
    """n random phase points on random bound, non-circular level sets.

    Returns the coordinates (r, phi, p_r, J), shaped (4, n).  ``rng`` is any
    source with a numpy-style ``uniform(low, high, size)``, such as a
    :class:`UniformSource` or a numpy Generator.  One ``rng.uniform`` call
    draws an (n, 5) block whose columns are, per point:
    J, uniform in [0.5, 1.5); the fraction of the well above its bottom at
    which E sits, uniform in [0.1, 0.7) (the well reaches up to escape for
    potentials with one, up to twice the circular energy scale for confining
    ones); the fraction u in [0.05, 0.95] of [r_min, r_max] at which r sits;
    the sign of p_r; and phi in [0, 2*pi).  The draws are those of n
    successive points, so the first k of n points do not depend on n.  An n
    that is not an integer >= 0 is a DomainError.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"number of points must be an integer >= 0, got {n!r}")
    J, f, u, sign, phi = rng.uniform(_LOW, _HIGH, size=(n, 5)).T
    errors: dict = {}
    E, minimum = _well_levels(params, J, f, 2.0, errors)
    r_min, r_max = _turning_points(params, E, J, errors, minimum)
    _raise_first(errors, name_lane=True)
    r = r_min + u * (r_max - r_min)
    kinetic = E - effective_potential(params, J, r)
    p_r = np.copysign(np.sqrt(np.maximum(2.0 * params.m * kinetic, 0.0)), sign)
    return np.array([r, phi, p_r, J])


def draw_bound_point(rng: UniformSource | np.random.Generator, params: Params) -> PhasePoint:
    """:func:`draw_bound_points` for one point, as a PhasePoint."""
    r, phi, p_r, J = draw_bound_points(rng, params, 1)[:, 0].tolist()
    return PhasePoint(r=r, phi=phi, p_r=p_r, J=J)
