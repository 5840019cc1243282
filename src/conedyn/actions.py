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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bertrand import _Well, circular_orbit
from .core import TWO_PI, Kepler, Oscillator, Params
from .dynamics import _as_lanes, _effective_d2, _float_pow, _raise_first
from .errors import CircularOrbitError, DomainError, StructuralError

# continued-fraction test of a frequency ratio: largest denominator, and the
# distance from p/q within which the ratio counts as rational
Q_MAX = 64
RATIONAL_TOL = 1e-9


@dataclass(frozen=True)
class RationalApprox:
    """Continued-fraction rational approximation p/q accepted for a ratio."""

    p: int
    q: int
    error: float


@dataclass(frozen=True)
class ActionData:
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
    a circular level set has I2 = 0 exactly.
    """
    errors: dict = {}
    well = _Well(params, *_as_lanes(E, J)[1], errors)
    if isinstance(errors.get(0), CircularOrbitError):
        return 0.0
    i2 = _radial_action(well, tolerance, max_refinements)
    _raise_first(errors, name_lane=False)
    return i2.item()


def _radial_action(well: _Well, tolerance: float, max_refinements: int) -> np.ndarray:
    """Radial action I2 per lane of the well."""
    m = well.params.m
    rho_sq = _float_pow(well.rho, 2)  # the bits of rho**2 on one float
    value, _ = well.integral(
        lambda theta, r, g, k: m * rho_sq[k, None] * np.sin(theta) ** 2 * np.sqrt(g),
        tolerance, max_refinements,
    )
    return value / math.pi


def hamiltonian_from_actions(params: Params, I1: float, I2: float) -> float:
    """Closed-form H(I1, I2); only the Kepler and oscillator potentials have one."""
    if I2 < 0.0:
        raise DomainError(f"radial action must be nonnegative, got {I2}")
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
    a circular level set both come from the harmonic limit instead.  The
    ratio is tested for rationality by continued fractions with denominator
    bound :data:`Q_MAX` and acceptance tolerance :data:`RATIONAL_TOL`; floats
    cannot certify rationality, so this is the operational criterion.
    """
    if J == 0.0:
        raise DomainError("frequency analysis requires J != 0")
    m, s = params.m, params.geometry.s
    # one well for the three integrals: its turning points are solved once
    errors: dict = {}
    well = _Well(params, *_as_lanes(E, J)[1], errors)
    if isinstance(errors.get(0), CircularOrbitError):
        r_c, _ = circular_orbit(params, J)
        i2 = 0.0
        omega2 = math.sqrt(float(_effective_d2(params, J, r_c)) / m)
        omega1 = abs(J) / (m * s * s * r_c * r_c)
    else:
        i2 = _radial_action(well, tolerance, max_refinements).item()
        t_r = well.period(tolerance, max_refinements).item()
        dphi = well.swept_angle(tolerance, max_refinements)[0].item()
        _raise_first(errors, name_lane=False)
        omega2 = TWO_PI / t_r
        omega1 = omega2 * dphi / math.pi
    ratio = omega1 / omega2
    return ActionData(
        i1=J,
        i2=i2,
        omega1=omega1,
        omega2=omega2,
        ratio=ratio,
        rational_approx=_rationalize(ratio),
    )


def _rationalize(x: float) -> RationalApprox | None:
    """Best rational p/q with q <= Q_MAX; accepted only within RATIONAL_TOL of x."""
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
