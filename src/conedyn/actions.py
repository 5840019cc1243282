"""Action-angle layer: radial action, closed-form H(I), frequencies, closure.

On a bound level set the two action variables are the angular momentum
itself, I1 = J, and the radial action

    I2 = (1/pi) * integral_{r_min}^{r_max} sqrt(2 m (E - U_eff(r))) dr,

computed with the same singularity-removing quadrature as the apsidal
machinery.  For the two degenerate potentials the Hamiltonian has a closed
form in the actions,

    Kepler:      H = -m kappa^2 / (2 (|I1|/s + I2)^2)
    oscillator:  H = omega (|I1|/s + 2 I2),

which make the frequency ratio omega1/omega2 equal to 1/s and 1/(2s)
respectively, independent of the level set.  |I1| enters so both rotation
senses give the same energy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bertrand import _one_level, _Well
from .core import TWO_PI, Kepler, Oscillator, Params
from .dynamics import _raise_first
from .errors import DomainError, StructuralError

# continued-fraction test of a frequency ratio: largest denominator, and the
# distance from p/q within which the ratio counts as rational
Q_MAX = 64
RATIONAL_TOL = 1e-9


class RationalApprox(NamedTuple):
    """Continued-fraction rational approximation p/q accepted for a ratio."""

    p: int
    q: int
    error: float


class ActionData(NamedTuple):
    """Actions, frequencies and rationality data for one (E, J) level set."""

    i1: float
    i2: float
    omega1: float
    omega2: float
    ratio: float
    rational_approx: RationalApprox | None


def radial_action(
    params: Params,
    E: float,
    J: float,
    tolerance: float = 1e-10,
    max_refinements: int = 6,
) -> float:
    """Radial action I2 of the bound level set (E, J).

    Works for any potential variant, not just the two with closed-form H(I);
    a circular level set has I2 = 0 exactly, as its integrand vanishes.
    """
    errors: dict = {}
    well = _Well(params, *_one_level("radial_action", E, J), errors, "radial action")
    (integral,), _ = well.integral([well.action], tolerance, max_refinements)
    _raise_first(errors, name_lane=False)
    return (integral / math.pi).item()


def hamiltonian_from_actions(params: Params, I1: float, I2: float) -> float:
    """Closed-form H(I1, I2); only the Kepler and oscillator potentials have one."""
    if not (math.isfinite(I1) and 0.0 <= I2 < math.inf):
        raise DomainError(f"actions must be finite and I2 nonnegative, got I1={I1}, I2={I2}")
    s = params.geometry.s
    pot = params.potential
    if isinstance(pot, Kepler):
        total = abs(I1) / s + I2
        if total <= 0.0:
            raise DomainError("Kepler closed form needs |I1|/s + I2 > 0")
        return -params.m * pot.kappa**2 / (2.0 * total * total)
    if isinstance(pot, Oscillator):
        return pot.omega * (abs(I1) / s + 2.0 * I2)
    raise StructuralError(
        f"no closed-form H(I) for {type(pot).__name__}; only Kepler and Oscillator"
    )


def frequencies(
    params: Params,
    E: float,
    J: float,
    tolerance: float = 1e-10,
    max_refinements: int = 6,
) -> ActionData:
    """Actions, frequencies and the rationality verdict of a level set.

    omega2 = 2*pi / T_r from the radial period; omega1 = omega2 * dphi / pi
    from the apsidal angle (the angle advances 2*dphi per radial period).  On
    a circular level set the three integrals take their small-oscillation
    limits, so I2 = 0 and omega2 = omega1 s sqrt(alpha + 2).  The ratio is
    tested for rationality by continued fractions with denominator bound
    :data:`Q_MAX` and acceptance tolerance :data:`RATIONAL_TOL`; floats
    cannot certify rationality, so this is the operational criterion.  One
    lane of :func:`_frequency_lanes`.
    """
    errors: dict = {}
    lanes = _frequency_lanes(params, *_one_level("frequencies", E, J), tolerance,
                             max_refinements, errors)
    _raise_first(errors, name_lane=False)
    i2, omega1, omega2 = (lane.item() for lane in lanes)
    ratio = omega1 / omega2
    return ActionData(J, i2, omega1, omega2, ratio, _rationalize(ratio))


def _frequency_lanes(params: Params, E: np.ndarray, J: np.ndarray, tolerance: float,
                     max_refinements: int, errors: dict):
    """(I2, omega1, omega2) of :func:`frequencies` per lane of the 1-D arrays
    E and J, from one well; a failed lane holds NaN and records its error in
    ``errors``.  The three integrals share one pass over the well's nodes."""
    well = _Well(params, E, J, errors, "frequency analysis")
    (action, period, angle), _ = well.integral(
        [well.action, well.period, well.swept_angle], tolerance, max_refinements)
    omega2 = TWO_PI / period
    return action / math.pi, omega2 * (angle / params.geometry.s) / math.pi, omega2


def _rationalize(x: float) -> RationalApprox | None:
    """Best rational p/q with q <= Q_MAX; accepted only within RATIONAL_TOL of x."""
    from fractions import Fraction  # its only use: kept off the package's start-up

    frac = Fraction(x).limit_denominator(Q_MAX)
    err = abs(x - frac.numerator / frac.denominator)
    if err > RATIONAL_TOL:
        return None
    return RationalApprox(p=frac.numerator, q=frac.denominator, error=err)


def predict_closure(params: Params, E: float, J: float) -> tuple[int, int] | None:
    """Reduced integer pair (n1, n2) with omega1/omega2 = n1/n2, if accepted.

    A bound orbit closes exactly when the ratio is rational; it then closes
    after n2 radial periods (and n1 angular turns).  Returns None when the
    continued-fraction criterion rejects the ratio.
    """
    data = frequencies(params, E, J)
    if data.rational_approx is None:
        return None
    return data.rational_approx.p, data.rational_approx.q
