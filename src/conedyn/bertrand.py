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
period and (in the actions module) the radial action.  On a circular level
(r_min = r_max, so rho = 0) the integrand takes its rho -> 0 limit, which is
constant in theta: the apsidal angle is pi / (s sqrt(alpha + 2)), the
radial period 2 pi m s r_c^2 / (|J| sqrt(alpha + 2)) and the radial action 0.

Everything here is s-free once expressed in lam: the geometry enters only
through lam = J/s and the final division of the integral by s.

The Gauss-Legendre rule is computed here (Newton's method on the Legendre
recurrence), and each lane's sum is a numpy row sum: neither LAPACK nor
BLAS is called, so the quadrature bits do not depend on the BLAS build.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Params, PowerLaw
from .dynamics import (
    _alive,
    _as_lanes,
    _effective_potential_terms,
    _escape_energy,
    _find_ueff_minimum,
    _power_law_form,
    _raise_first,
    _record,
    _turning_points,
    _well_levels,
)
from .errors import DomainError, QuadratureError

log = logging.getLogger("conedyn")

PASS_FLATNESS = 1e-6
FAIL_FLATNESS = 1e-3
_START_ORDER = 32  # the first convergence test compares orders 32 and 64
_RESOLVED = 1e-3  # a change below this may be rounding noise; above it, not
_NODE_BLOCK = 1 << 13  # lanes x nodes evaluated at once: bounds a batch's memory
_WIDTH_LEVELS = 50  # energy levels of the width-law fit


def _legendre(n: int, x: np.ndarray, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence.  ``exact`` takes
    j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2} with integer coefficients;
    otherwise P_j = x P_{j-1} + (j - 1)/j (x P_{j-1} - P_{j-2}) saves an
    operation, but its rounded (j - 1)/j scale P_n by some sqrt(n) ulp,
    which moves no root."""
    p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(2, n + 1):
        np.multiply(x, p1, out=t)
        if exact:
            t *= 2 * j - 1
            p0 *= j - 1
            t -= p0
            t /= j
            p0, p1, t = p1, t, p0
        else:
            p0 -= t
            p0 *= (1.0 - j) / j
            p0 += t
            p0, p1 = p1, p0
    return p1, p0


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], for
    an even n.

    Newton's method on P_n, started from Tricomi's guess, moves the
    nonnegative nodes until a step is below 1e-14 (the next one would be
    below rounding); the weights are 2 / ((1 - x^2) P_n'(x)^2) at the final
    nodes, and the negative half mirrors the positive one."""
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(20):
        p, q = _legendre(n, x, exact=False)
        dx = p * (x - 1.0) * (x + 1.0) / (n * (x * p - q))  # P_n / P_n'
        x -= dx
        if np.abs(dx).max() <= 1e-14:
            break
    p, q = _legendre(n, x, exact=True)
    dp = n * (x * p - q) / ((x - 1.0) * (x + 1.0))
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate([-x[:n // 2], x[::-1]]), np.concatenate([w[:n // 2], w[::-1]])


def _one_level(name: str, E, J) -> list[np.ndarray]:
    """The one-lane arrays of the level set (E, J) of the function ``name``,
    which takes floats: an array E or J is a DomainError naming it."""
    if np.ndim(E) or np.ndim(J):
        raise DomainError(f"{name} takes one level set: E and J must be floats, "
                          f"got shapes {np.shape(E)} and {np.shape(J)}")
    return _as_lanes(E, J)[1]


@lru_cache(maxsize=32)
def _gauss_theta(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, pi]."""
    x, w = _gauss_legendre(order)
    return 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w


class _Well:
    """Geometry of bound wells, one lane per level set (E[k], J[k]) of the
    1-D arrays E and J: turning points and the transformed integrand.  A
    lane that fails records its first error in ``errors`` (lane -> error)
    and the other lanes carry on; a J = 0 lane has no well, and its error
    names ``what`` the well is for.  A power law may hold one (A, alpha) per
    lane (the scan's batch): lane k reads the pair at index k, in the same
    numpy calls as every other lane.  ``minimum`` is the (r_c, U_0) of the
    lanes' wells, if the caller has it already (see :func:`_turning_points`)."""

    def __init__(self, params: Params, E: np.ndarray, J: np.ndarray, errors: dict,
                 what: str, minimum=None):
        _record(errors, J == 0.0, DomainError, f"{what} requires J != 0")
        r_min, r_max = _turning_points(params, E, J, errors, minimum)
        self.r_mid = 0.5 * (r_min + r_max)
        self.rho = 0.5 * (r_max - r_min)
        self.params, self.E, self.J, self.errors = params, E, J, errors
        # g's rho -> 0 limit U_eff''(r_c)/m, for the lanes _turning_points
        # found circular (rho = 0); r_mid ** 2 may leave the float range
        with np.errstate(all="ignore"):
            self.g_c = (_power_law_form(params)[1] + 2.0) * (
                J / (params.m * params.geometry.s * self.r_mid ** 2)) ** 2
        _record(errors, (self.rho == 0.0) & ~((self.g_c > 0.0) & (self.g_c < math.inf)),
                QuadratureError, "circular limit U_eff''(r_c)/m = {} is outside the float range",
                self.g_c)

    def integral(
        self,
        integrands: Sequence[Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                                      np.ndarray]],
        tolerance: float,
        max_refinements: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre sums over theta in [0, pi] of each integrand(theta,
        r, g, k), doubling the order of each lane until its successive sums
        agree.

        The orders run from 32 to 64 * 2**max_refinements: the first test of
        a lane compares its 32- and 64-node sums, and each refinement past
        order 64 doubles it once more.  For an analytic integrand two Gauss
        sums that agree at orders n and 2n bound the error of the 2n sum far
        below their gap (Trefethen, SIAM Review 50, 2008), and a lane keeps
        the sum of the higher order.

        Every integrand gets the rows k (an index array) of the lanes still
        refining, with r = r_mid - rho*cos(theta) and g = (2/m)(E - U_eff(r))
        / (rho*sin(theta))^2, which is smooth and positive across the well,
        as (len(k), order) matrices formed once per order for all the
        integrands.  A circular lane (rho = 0) takes g's limit U_eff''(r_c)/m
        on every node, so its sums agree at the first test.  Each lane's sum
        is the numpy row sum of integrand * w, which sums every row pairwise
        on its own and calls no BLAS, so a lane has the bits of a one-lane
        call whatever the batch or the BLAS kernel.  Each (integrand, lane)
        pair converges and stagnates on its own, so a sum stops at the order
        it would stop at alone, and a lane refines until all its sums have
        stopped.  Returns each pair's last sum and its relative change at the
        last test, both (len(integrands), lanes): NaN and inf in a failed
        lane.

        Two guards keep deep refinement from degrading nearly-circular wells,
        where the innermost nodes approach the rounding floor of E - U_eff
        near the turning points: a sum stops once its successive change
        stagnates below 1e-3 (the noise floor; a larger change that does not
        fall is a sum not yet resolved), and a lane whose endpoint is breached
        after its first test keeps the last sums, logs a debug line that names
        the order, and warns for each sum still refining as for an unconverged
        one (its change is still above the tolerance).  No sum is kept without
        an estimate: a lane whose g is not positive at order 32 or 64, before
        its first test, fails with a QuadratureError in ``errors``.  A
        tolerance that is not positive, or a max_refinements that is not an
        integer >= 0, is a DomainError before any lane is evaluated.
        """
        if not tolerance > 0.0:  # NaN too
            raise DomainError(f"quadrature tolerance must be positive, got {tolerance}")
        if (isinstance(max_refinements, bool) or not isinstance(max_refinements, (int, np.integer))
                or max_refinements < 0):
            raise DomainError(f"max_refinements must be an integer >= 0, got {max_refinements!r}")
        params, E, rho, errors = self.params, self.E, self.rho, self.errors
        shape = (len(integrands), E.size)
        value, err = np.full(shape, math.nan), np.full(shape, math.inf)  # last sum and change
        refining = np.repeat(_alive(errors, E.size)[None], len(integrands), axis=0)
        order = _START_ORDER
        for refinement in range(2 + max_refinements):
            active = np.flatnonzero(refining.any(axis=0))
            if not active.size:
                break
            theta, w = _gauss_theta(order)
            cos, sin = np.cos(theta), np.sin(theta)
            new, positive = np.empty((len(integrands), active.size)), np.empty(active.size, bool)
            rows = max(1, _NODE_BLOCK // order)
            for start in range(0, active.size, rows):
                k, block = active[start:start + rows], slice(start, start + rows)
                with np.errstate(all="ignore"):
                    # the nodes lie strictly inside (r_min, r_max): no radius check
                    r = self.r_mid[k, None] - rho[k, None] * cos
                    cent, v = _effective_potential_terms(params, self.J[k, None], r, k[:, None])
                    u = cent + v
                    d = (2.0 / params.m) * (E[k, None] - u)
                    g = d / (rho[k, None] * sin) ** 2
                    circular = rho[k] == 0.0
                    g[circular] = self.g_c[k[circular], None]
                    for i, integrand in enumerate(integrands):
                        new[i, block] = (integrand(theta, r, g, k) * w).sum(axis=1)
                positive[block] = (g.min(axis=1) > 0.0) & (g.max(axis=1) < math.inf)
            stopped = active[~positive]
            if refinement < 2:
                _record(errors, ~positive, QuadratureError,
                        "transformed integrand not positive at order {}, before any error "
                        "estimate", order, lanes=active)
                value[:, stopped] = math.nan  # drops an order-32 sum
            else:
                for e in err[:, stopped][refining[:, stopped]].tolist():
                    log.debug("order %d breached the endpoint floor; keeping %.1e", order, e)
                    log.warning("quadrature did not reach %.1e (last change %.1e)", tolerance, e)
            refining[:, stopped] = False
            active, new = active[positive], new[:, positive]
            if refinement:
                with np.errstate(all="ignore"):
                    change = np.abs(new - value[:, active]) / np.maximum(np.abs(new), 1e-300)
                # spectral convergence would cut the change by orders of magnitude
                # per doubling; stalling means rounding noise, unless the last
                # change was still large: a sum not yet resolved (an eccentric well)
                live, last = refining[:, active], err[:, active]
                converged = change <= tolerance
                stagnated = ~converged & (change >= 0.5 * last) & (last < _RESOLVED)
                for c in change[stagnated & live].tolist():
                    log.debug("quadrature stagnated at %.1e (order %d)", c, order)
                value[:, active] = np.where(live, new, value[:, active])
                err[:, active] = np.where(live, change, last)
                refining[:, active] = live & ~(converged | stagnated)
            else:
                value[:, active] = new
            order *= 2
        for e in err[refining].tolist():
            log.warning("quadrature did not reach %.1e (last change %.1e)", tolerance, e)
        return value, err

    def swept_angle(self, theta, r, g, k):
        """Integrand of s times the perigee-to-apogee angle delta_phi."""
        s = self.params.geometry.s
        # magnitude: the swept angle is reported positive
        return np.abs(self.J[k, None]) / s / (self.params.m * r * r) / np.sqrt(g)

    def period(self, theta, r, g, k):
        """Integrand of the full radial period."""
        return 2.0 / np.sqrt(g)

    def action(self, theta, r, g, k):
        """Integrand of pi times the radial action I2."""
        rho = self.rho[k, None]
        # rho * rho is correctly rounded, unlike a libm pow(rho, 2)
        return self.params.m * (rho * rho) * np.sin(theta) ** 2 * np.sqrt(g)


class ApsidalResult(NamedTuple):
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

    Evaluates the transformed integral described in the module docstring,
    one lane of :meth:`_Well.integral` over :meth:`_Well.swept_angle`, and
    divides it by s.  A circular level gives the near-circular limit
    pi / (s sqrt(alpha + 2)).
    """
    errors: dict = {}
    well = _Well(params, *_one_level("apsidal_angle", E, J), errors, "apsidal angle")
    (integral,), (err,) = well.integral([well.swept_angle], tolerance, max_refinements)
    _raise_first(errors, name_lane=False)
    return ApsidalResult(delta_phi=(integral / params.geometry.s).item(),
                         lam=J / params.geometry.s, E=E, quadrature_error_estimate=err.item())


def radial_period(
    params: Params,
    E: float,
    J: float,
    tolerance: float = 1e-10,
    max_refinements: int = 6,
) -> float:
    """Full period of the radial oscillation at (E, J).

    Twice the half-period integral of dr / sqrt((2/m)(E - U_eff)), with the
    same singularity-removing substitution as :func:`apsidal_angle`.  A
    circular level gives the harmonic limit 2 pi m s r_c^2 / (|J| sqrt(alpha
    + 2)).
    """
    errors: dict = {}
    well = _Well(params, *_one_level("radial_period", E, J), errors, "radial period")
    (period,), _ = well.integral([well.period], tolerance, max_refinements)
    _raise_first(errors, name_lane=False)
    return period.item()


def circular_orbit(params: Params, J: float) -> tuple[float, float]:
    """Radius and energy of the circular orbit at angular momentum J.

    Closed form of U_eff'(r_c) = 0: r_c = (J^2/(m s^2 A alpha))^(1/(alpha+2))
    for V = A r^alpha (Kepler and the oscillator included) and
    r_c = |J|/(s sqrt(m B)) for the log potential; E_c = U_eff(r_c).  J may
    be an array, giving arrays.
    """
    scalar, (J,) = _as_lanes(J)
    errors: dict = {}
    _record(errors, J == 0.0, DomainError, "circular orbit requires J != 0")
    r_c, u0 = _find_ueff_minimum(params, J, errors)
    _raise_first(errors, name_lane=not scalar)
    return (r_c.item(), u0.item()) if scalar else (r_c, u0)


# --- Width law ---

class WidthLawResult(NamedTuple):
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
    r_c, u0 = circular_orbit(params, J)

    u_cap = u0 + 10.0 * (abs(u0) if u0 != 0.0 else 1.0)
    # x -> 0 is r -> infinity: a finite escape energy caps the left branch.
    u_left_sup = _escape_energy(params)
    if u_cap >= u_left_sup:
        u_cap = u0 + 0.98 * (u_left_sup - u0)

    levels = u0 + (np.arange(1, _WIDTH_LEVELS + 1) / _WIDTH_LEVELS) * (u_cap - u0)
    # every level shares the well minimum found above
    J_lanes, r_c_lanes, u0_lanes = (np.full(_WIDTH_LEVELS, float(v)) for v in (J, r_c, u0))
    errors: dict = {}
    r_min, r_max = _turning_points(params, levels, J_lanes, errors, (r_c_lanes, u0_lanes))
    _raise_first(errors, name_lane=True)
    widths = scale * (1.0 / r_min - 1.0 / r_max)

    sqrt_du = np.sqrt(levels - u0)
    a_fit = float(widths @ sqrt_du / (sqrt_du @ sqrt_du))
    residuals = np.abs(widths - a_fit * sqrt_du) / widths
    return WidthLawResult(a_fit=a_fit, max_residual=float(residuals.max()))


# --- Exponent scan ---

class FamilyVerdict(NamedTuple):
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


class ScanReport(NamedTuple):
    """Closed-orbit candidate scan over a family of power-law exponents.

    The first five fields are columns with one entry per (exponent, E, lam)
    cell, exponent by exponent, then lam by lam: ``s_delta_phi`` is NaN
    where the cell failed, and ``status`` is "ok" or "infeasible: <error>".
    ``verdicts`` holds one entry per exponent.
    """

    family_param: np.ndarray
    E: np.ndarray
    lam: np.ndarray
    s_delta_phi: np.ndarray
    status: list[str]
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
    (A = -1 for alpha < 0, A = +1 for alpha > 0); an exponent at or below -2
    is a DomainError, raised before any cell is evaluated.  Energies are
    specified as fractions of the bound well (bottom to escape, or ten well
    depths for confining potentials), which keeps every exponent's grid
    inside its own bounded-motion region.  The cells of all exponents are
    the lanes of one batch, a power law with one (A, alpha) per lane, and
    each has the bits of its own :func:`apsidal_angle` call; the verdicts
    are taken per exponent on slices of the batch.  A cell that fails with
    a ConeDynError (alpha = 0 has no well at all) is flagged infeasible; any
    other error propagates.
    """
    s = params_base.geometry.s
    n = len(lambdas) * len(e_fractions)
    family_param = np.repeat(np.asarray(exponents, dtype=float), n)
    lam = np.tile(np.repeat(np.asarray(lambdas, dtype=float), len(e_fractions)),
                  len(exponents))
    fractions = np.tile(np.asarray(e_fractions, dtype=float), len(lambdas) * len(exponents))
    params = replace(params_base, potential=PowerLaw(
        amplitude=np.where(family_param > 0.0, 1.0, -1.0), exponent=family_param))
    J = lam * s
    errors: dict = {}
    # each cell carries the error of its own apsidal_angle call
    _record(errors, J == 0.0, DomainError, "apsidal angle requires J != 0")
    E, minimum = _well_levels(params, J, fractions, 10.0, errors)  # NaN where the well fails
    well = _Well(params, E, J, errors, "apsidal angle", minimum)
    (integral,), _ = well.integral([well.swept_angle], tolerance, max_refinements)
    status = ["ok"] * J.size
    for k, exc in errors.items():  # per-cell failures are recorded; their value is NaN
        status[k] = f"infeasible: {exc}"
    # s times apsidal_angle's delta_phi, with its bits
    s_delta_phi, ok = integral / s * s, _alive(errors, J.size)
    verdicts: list[FamilyVerdict] = []
    for g, alpha in enumerate(exponents):
        expected = math.pi / math.sqrt(alpha + 2.0)
        cells = slice(g * n, (g + 1) * n)
        values = s_delta_phi[cells][ok[cells]].tolist()
        if not values:
            verdicts.append(FamilyVerdict(alpha, None, None, expected, "infeasible"))
            continue
        flatness = max(values) - min(values)
        constant = sum(values) / len(values)
        verdicts.append(FamilyVerdict(
            alpha, flatness, constant, expected,
            _classify_flatness(flatness, constant, expected),
        ))
    return ScanReport(family_param, E, lam, s_delta_phi, status, verdicts)
