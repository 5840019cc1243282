"""Apsidal-angle quadrature, circular-orbit analysis, and the closed-orbit scan.

The apsidal angle of a bound level set (E, J) is

    s * dphi = integral_{r_min}^{r_max} (lam / (m r^2)) dr
               / sqrt((2/m) (E - lam^2/(2 m r^2) - V(r))),   lam = J / s,

whose integrand has inverse-square-root singularities at both turning
points.  Substituting r = r_mid - rho*cos(theta) (r_mid, rho the midpoint
and half-width of [r_min, r_max]) absorbs both: the factor
(r - r_min)(r_max - r) under the root equals rho^2 sin^2(theta) exactly and
cancels the Jacobian, leaving a smooth integrand on [0, pi] that fixed-order
Gauss-Legendre resolves spectrally.  The same transform serves the radial
period and (in the actions module) the radial action.

Everything here is s-free once expressed in lam: the geometry enters only
through lam = J/s and the final division of the integral by s.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import Params, PowerLaw
from .dynamics import (
    _effective_potential,
    _escape_energy,
    _find_ueff_minimum,
    _raise_at,
    turning_points,
)
from .errors import (
    CircularOrbitError,
    ConeDynError,
    DomainError,
    QuadratureError,
)

log = logging.getLogger("conedyn")

PASS_FLATNESS = 1e-6
FAIL_FLATNESS = 1e-3
_START_ORDER = 64
_WIDTH_LEVELS = 50  # energy levels of the width-law fit


@lru_cache(maxsize=32)
def _gauss_theta(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w


class _Well:
    """Geometry of one bound well: turning points and the transformed integrand."""

    def __init__(self, params: Params, E: float, J: float):
        tp = turning_points(params, E, J)
        self.r_mid = 0.5 * (tp.r_min + tp.r_max)
        self.rho = 0.5 * (tp.r_max - tp.r_min)
        if self.rho <= 1e-8 * self.r_mid:
            raise CircularOrbitError(
                "level set is circular (r_min = r_max within tolerance); "
                "use small_oscillation_freq for the degenerate limit"
            )
        self.params = params
        self.E = E
        self.J = J

    def integral(
        self,
        integrand: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        tolerance: float,
        max_refinements: int,
    ) -> tuple[float, float]:
        """Gauss-Legendre sum over theta in [0, pi] of integrand(theta, r, g),
        doubling the order until successive sums agree.

        Here r = r_mid - rho*cos(theta), and g = (2/m)(E - U_eff(r)) /
        (rho*sin(theta))^2 is smooth and positive across the well.  Returns
        (value, relative change at the last doubling).  Two guards keep deep
        refinement from degrading nearly-circular wells, where the innermost
        nodes approach the rounding floor of E - U_eff near the turning
        points: refinement stops once the successive change stagnates (the
        noise floor), and an endpoint breach at a deeper order falls back to
        the last good sum.  A genuinely inconsistent well still fails at the
        first order.
        """
        params, E, J, rho = self.params, self.E, self.J, self.rho
        order, value, err = _START_ORDER, math.nan, math.inf
        for refinement in range(1 + max(max_refinements, 0)):
            theta, w = _gauss_theta(order)
            # the nodes lie strictly inside (r_min, r_max): no radius check
            r = self.r_mid - rho * np.cos(theta)
            d = (2.0 / params.m) * (E - _effective_potential(params, J, r))
            g = d / (rho * np.sin(theta)) ** 2
            if not (g.min() > 0.0 and g.max() < math.inf):
                if refinement == 0:
                    raise QuadratureError(
                        "transformed integrand not positive: turning points inconsistent"
                    )
                log.debug("order %d breached the endpoint floor; keeping %.1e", order, err)
                return value, err
            new = float(w @ integrand(theta, r, g))
            if refinement:
                prev_err, err = err, abs(new - value) / max(abs(new), 1e-300)
                if err <= tolerance:
                    return new, err
                if err >= 0.5 * prev_err:
                    # spectral convergence would cut the change by orders of
                    # magnitude per doubling; stalling means rounding noise
                    log.debug("quadrature stagnated at %.1e (order %d)", err, order)
                    return new, err
            value = new
            order *= 2
        log.warning("quadrature did not reach %.1e (last change %.1e)", tolerance, err)
        return value, err


@dataclass(frozen=True)
class ApsidalResult:
    """Perigee-to-apogee angle of a bound level set.

    ``lam`` is the angular momentum rescaled to the unrolled plane (J/s);
    ``delta_phi`` is always reported positive regardless of the rotation
    sense.
    """

    delta_phi: float
    lam: float
    E: float
    quadrature_error_estimate: float


def apsidal_angle(
    params: Params,
    E: float,
    J: float,
    tolerance: float = 1e-10,
    max_refinements: int = 6,
) -> ApsidalResult:
    """Angle swept between adjacent perigee and apogee, by quadrature.

    Evaluates the transformed integral described in the module docstring and
    divides by s.  Circular input raises :class:`CircularOrbitError`.
    """
    if J == 0.0:
        raise DomainError("apsidal angle requires J != 0")
    s = params.geometry.s
    lam_mag = abs(J) / s  # magnitude: the swept angle is reported positive
    m = params.m
    integral, err = _Well(params, E, J).integral(
        lambda theta, r, g: lam_mag / (m * r * r) / np.sqrt(g), tolerance, max_refinements
    )
    return ApsidalResult(
        delta_phi=integral / s, lam=J / s, E=E, quadrature_error_estimate=err
    )


def radial_period(
    params: Params,
    E: float,
    J: float,
    tolerance: float = 1e-10,
    max_refinements: int = 6,
) -> float:
    """Full period of the radial oscillation at (E, J).

    Twice the half-period integral of dr / sqrt((2/m)(E - U_eff)), with the
    same singularity-removing substitution as :func:`apsidal_angle`.
    """
    period, _ = _Well(params, E, J).integral(
        lambda theta, r, g: 2.0 / np.sqrt(g), tolerance, max_refinements
    )
    return period


def circular_orbit(params: Params, J: float) -> tuple[float, float]:
    """Radius and energy of the circular orbit at angular momentum J.

    Closed form of U_eff'(r_c) = 0: r_c = (J^2/(m s^2 A alpha))^(1/(alpha+2))
    for V = A r^alpha (Kepler and the oscillator included) and
    r_c = |J|/(s sqrt(m B)) for the log potential; E_c = U_eff(r_c).  J may
    be an array, giving arrays.
    """
    _raise_at(np.equal(J, 0.0), DomainError, "circular orbit requires J != 0")
    return _find_ueff_minimum(params, J)


@dataclass(frozen=True)
class SmallOscillation:
    """Harmonic data of the near-circular limit.

    ``omega_sq`` is the dimensionless squared frequency of the reduced 1D
    motion measured against the swept angle (3 + r_c V''/V' at the circular
    radius); the near-circular apsidal angle is pi / (s * sqrt(omega_sq)).
    """

    omega_sq: float
    apsidal_limit: float


def small_oscillation_freq(params: Params, J: float) -> SmallOscillation:
    """Near-circular frequency and apsidal angle at angular momentum J."""
    r_c, _ = circular_orbit(params, J)
    v1 = float(params.potential.d1(r_c, params.m))
    v2 = float(params.potential.d2(r_c, params.m))
    if v1 == 0.0:
        raise DomainError("V'(r_c) vanished: harmonic analysis degenerate")
    omega_sq = 3.0 + r_c * v2 / v1
    if omega_sq <= 0.0:
        raise DomainError(f"circular orbit unstable (omega^2 = {omega_sq})")
    return SmallOscillation(
        omega_sq=omega_sq,
        apsidal_limit=math.pi / (params.geometry.s * math.sqrt(omega_sq)),
    )


# --- Width law ---

@dataclass(frozen=True)
class WidthLawResult:
    """Least-squares fit of the well width against sqrt(energy above bottom)."""

    a_fit: float
    max_residual: float


def width_law_check(params: Params, J: float) -> WidthLawResult:
    """Test whether the reduced well width grows exactly like sqrt(U - U0).

    The reduced 1D potential in the variable x = lam/(m r) is
    U(x) = m x^2 / 2 + V(lam/(m x)), which equals U_eff(r) identically.  So
    its minimum sits at x0 = lam/(m r_c) with U0 = U_eff(r_c), and the well
    width at level U is (lam/m)(1/r_min - 1/r_max) from the turning points
    of that level.  An energy-independent oscillation period is equivalent
    to the width law x2(U) - x1(U) = a*sqrt(U - U0) holding exactly; the
    returned maximum relative residual certifies or refutes it.  The fit
    takes 50 levels up to ten well depths above U0, or up to 0.98 of the way
    to a finite escape energy.
    """
    if J == 0.0:
        raise DomainError("width law requires J != 0")
    scale = abs(J) / (params.geometry.s * params.m)  # lam/m
    _, u0 = _find_ueff_minimum(params, J)

    u_cap = u0 + 10.0 * (abs(u0) if u0 != 0.0 else 1.0)
    # x -> 0 is r -> infinity: a finite escape energy caps the left branch.
    u_left_sup = _escape_energy(params)
    if u_cap >= u_left_sup:
        u_cap = u0 + 0.98 * (u_left_sup - u0)

    levels = u0 + (np.arange(1, _WIDTH_LEVELS + 1) / _WIDTH_LEVELS) * (u_cap - u0)
    tp = turning_points(params, levels, J)
    widths = scale * (1.0 / tp.r_min - 1.0 / tp.r_max)

    sqrt_du = np.sqrt(levels - u0)
    a_fit = float(widths @ sqrt_du / (sqrt_du @ sqrt_du))
    residuals = np.abs(widths - a_fit * sqrt_du) / widths
    return WidthLawResult(a_fit=a_fit, max_residual=float(residuals.max()))


# --- Exponent scan ---

@dataclass(frozen=True)
class ScanCell:
    """One (exponent, E, lam) evaluation of the scanned quantity s*dphi."""

    family_param: float
    E: float
    lam: float
    s_delta_phi: float | None
    status: str


@dataclass(frozen=True)
class FamilyVerdict:
    """Aggregate over the (E, lam) grid for one exponent.

    ``verdict`` is "pass" (flat within 1e-6 and the constant matches the
    near-circular value pi/sqrt(alpha+2) to 1e-6), "fail" (flatness above
    1e-3), "inconclusive" (the gap in between), or "infeasible".
    """

    family_param: float
    flatness: float | None
    constant: float | None
    expected_constant: float
    verdict: str


@dataclass(frozen=True)
class ScanReport:
    """Closed-orbit candidate scan over a family of power-law exponents."""

    family: str
    cells: list[ScanCell]
    verdicts: list[FamilyVerdict]

    def passing(self) -> list[float]:
        return [v.family_param for v in self.verdicts if v.verdict == "pass"]


def _classify_flatness(flatness: float, constant: float, expected: float) -> str:
    """Verdict for one scanned family: "pass" below the flatness threshold
    with the right constant, "fail" above the failure threshold, and
    "inconclusive" in the gap between the two."""
    if flatness < PASS_FLATNESS and abs(constant - expected) < 1e-6:
        return "pass"
    if flatness > FAIL_FLATNESS:
        return "fail"
    return "inconclusive"


def _scan_energy(params: Params, J: float, fraction: float) -> float:
    """Energy at the given fraction of the bound well above its bottom."""
    _, u0 = _find_ueff_minimum(params, J)
    top = _escape_energy(params)
    if math.isfinite(top):
        return u0 + fraction * (top - u0)
    return u0 + fraction * 10.0 * max(abs(u0), 1.0)


def bertrand_scan(
    params_base: Params,
    exponents: Sequence[float],
    e_fractions: Sequence[float],
    lambdas: Sequence[float],
    tolerance: float = 1e-10,
    max_refinements: int = 6,
) -> ScanReport:
    """Scan s*dphi over an (E, lam) grid for each power-law exponent.

    For each exponent alpha the attractive sign is chosen automatically
    (A = -1 for alpha < 0, A = +1 for alpha > 0).  Energies are specified as
    fractions of the bound well (bottom to escape, or ten well depths for
    confining potentials), which keeps every exponent's grid inside its own
    bounded-motion region.  A cell that raises a ConeDynError (alpha = 0 has
    no well at all) is flagged infeasible; any other error propagates.
    """
    s = params_base.geometry.s
    cells: list[ScanCell] = []
    verdicts: list[FamilyVerdict] = []
    for alpha in exponents:
        expected = math.pi / math.sqrt(alpha + 2.0)
        values: list[float] = []
        pot = PowerLaw(amplitude=(1.0 if alpha > 0 else -1.0), exponent=alpha)
        params = replace(params_base, potential=pot)
        for lam in lambdas:
            J = lam * s
            for f in e_fractions:
                E = math.nan  # reported when the well itself is infeasible
                try:
                    E = _scan_energy(params, J, f)
                    res = apsidal_angle(params, E, J, tolerance, max_refinements)
                except ConeDynError as exc:  # per-cell failures are recorded
                    cells.append(ScanCell(alpha, E, lam, None, f"infeasible: {exc}"))
                    continue
                sdphi = res.delta_phi * s
                values.append(sdphi)
                cells.append(ScanCell(alpha, E, lam, sdphi, "ok"))
        if not values:
            verdicts.append(FamilyVerdict(alpha, None, None, expected, "infeasible"))
            continue
        flatness = max(values) - min(values)
        constant = sum(values) / len(values)
        verdicts.append(FamilyVerdict(
            alpha, flatness, constant, expected,
            _classify_flatness(flatness, constant, expected),
        ))
    return ScanReport(family="power_law", cells=cells, verdicts=verdicts)
