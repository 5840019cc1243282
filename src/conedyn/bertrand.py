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
    _effective_potential,
    _escape_energy,
    _find_ueff_minimum,
    _raise_first,
    _record,
    _turning_points,
)
from .errors import (
    CircularOrbitError,
    DomainError,
    QuadratureError,
)

log = logging.getLogger("conedyn")

PASS_FLATNESS = 1e-6
FAIL_FLATNESS = 1e-3
_START_ORDER = 64
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
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n, started from Tricomi's guess, moves the
    nonnegative nodes until a step is below 1e-14 (the next one would be
    below rounding); the weights are 2 / ((1 - x^2) P_n'(x)^2) at the final
    nodes, and the negative half mirrors the positive one."""
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x = np.append(x, 0.0)
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


@lru_cache(maxsize=32)
def _gauss_theta(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, pi]."""
    x, w = _gauss_legendre(order)
    return 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w


class _Well:
    """Geometry of bound wells, one lane per level set (E[k], J[k]) of the
    1-D arrays E and J: turning points and the transformed integrand.  A
    lane that fails records its first error in ``errors`` (lane -> error)
    and the other lanes carry on.  ``minimum`` is the (r_c, U_0) of the
    lanes' wells, if the caller has it already (see :func:`_turning_points`)."""

    def __init__(self, params: Params, E: np.ndarray, J: np.ndarray, errors: dict,
                 minimum=None):
        r_min, r_max = _turning_points(params, E, J, errors, minimum)
        self.r_mid = 0.5 * (r_min + r_max)
        self.rho = 0.5 * (r_max - r_min)
        _record(errors, self.rho <= 1e-8 * self.r_mid, CircularOrbitError,
                "level set is circular (r_min = r_max within tolerance); "
                "use small_oscillation_freq for the degenerate limit")
        self.params, self.E, self.J, self.errors = params, E, J, errors
        # the batch's potentials, and the one of each lane: a power law with
        # one (A, alpha) per lane is split into its distinct pairs, so that
        # each is evaluated with Python-float constants as in a one-lane call
        pot = params.potential
        if isinstance(pot, PowerLaw) and np.ndim(pot.exponent):
            # each pair's bits as one complex A + i alpha, which np.unique sorts fast
            pairs = np.column_stack([pot.amplitude, pot.exponent]).view(complex)[:, 0]
            pairs, self.group = np.unique(pairs, return_inverse=True)
            self.parts = [replace(params, potential=PowerLaw(pair.real, pair.imag))
                          for pair in pairs.tolist()]
        else:
            self.group, self.parts = np.zeros(E.size, dtype=int), [params]

    def _effective_potential(self, r: np.ndarray, k: np.ndarray) -> np.ndarray:
        """U_eff at the nodes r of the lanes k, one evaluation per potential."""
        group = self.group[k]
        u = np.empty_like(r)
        for g in set(group.tolist()):
            rows = group == g
            u[rows] = _effective_potential(self.parts[g], self.J[k[rows], None], r[rows])
        return u

    def integral(
        self,
        integrand: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        tolerance: float,
        max_refinements: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre sums over theta in [0, pi] of integrand(theta, r, g,
        k), doubling the order of each lane until its successive sums agree.

        The integrand gets the rows k (an index array) of the lanes still
        refining, with r = r_mid - rho*cos(theta) and g = (2/m)(E - U_eff(r))
        / (rho*sin(theta))^2, which is smooth and positive across the well,
        as (len(k), order) matrices.  Each lane's sum is the numpy row sum of
        integrand * w, which sums every row pairwise on its own and calls no
        BLAS, so a lane has the bits of a one-lane call whatever the batch or
        the BLAS kernel; convergence, stagnation, breach and failure are masks
        over the lanes still refining.  Returns the values and the relative
        changes at the last doubling, NaN in failed lanes.  Two guards keep
        deep refinement from degrading nearly-circular wells, where the
        innermost nodes approach the rounding floor of E - U_eff near the
        turning points: a lane stops once its successive change stagnates
        (the noise floor), and an endpoint breach at a deeper order falls back
        to its last good sum.  A genuinely inconsistent well still fails at
        the first order, with a QuadratureError in ``errors``.
        """
        params, E, rho, errors = self.params, self.E, self.rho, self.errors
        n = E.size
        value, err = np.full(n, math.nan), np.full(n, math.inf)  # per lane: last sum and change
        out_value, out_err = np.full(n, math.nan), np.full(n, math.nan)
        active = np.flatnonzero(_alive(errors, n))
        order = _START_ORDER
        for refinement in range(1 + max(max_refinements, 0)):
            if not active.size:
                break
            theta, w = _gauss_theta(order)
            cos, sin = np.cos(theta), np.sin(theta)
            new, positive = np.empty(active.size), np.empty(active.size, dtype=bool)
            rows = max(1, _NODE_BLOCK // order)
            for start in range(0, active.size, rows):
                k, block = active[start:start + rows], slice(start, start + rows)
                with np.errstate(all="ignore"):
                    # the nodes lie strictly inside (r_min, r_max): no radius check
                    r = self.r_mid[k, None] - rho[k, None] * cos
                    u = self._effective_potential(r, k)
                    d = (2.0 / params.m) * (E[k, None] - u)
                    g = d / (rho[k, None] * sin) ** 2
                    new[block] = (integrand(theta, r, g, k) * w).sum(axis=1)
                positive[block] = (g.min(axis=1) > 0.0) & (g.max(axis=1) < math.inf)
            if refinement == 0:
                _record(errors, ~positive, QuadratureError,
                        "transformed integrand not positive: turning points inconsistent",
                        lanes=active)
            else:
                breached = active[~positive]
                for e in err[breached].tolist():
                    log.debug("order %d breached the endpoint floor; keeping %.1e", order, e)
                out_value[breached], out_err[breached] = value[breached], err[breached]
            active, new = active[positive], new[positive]
            if refinement:
                with np.errstate(all="ignore"):
                    change = np.abs(new - value[active]) / np.maximum(np.abs(new), 1e-300)
                # spectral convergence would cut the change by orders of magnitude
                # per doubling; stalling means rounding noise
                converged = change <= tolerance
                stagnated = ~converged & (change >= 0.5 * err[active])
                for c in change[stagnated].tolist():
                    log.debug("quadrature stagnated at %.1e (order %d)", c, order)
                err[active] = change
                done = converged | stagnated
                out_value[active[done]], out_err[active[done]] = new[done], change[done]
                active, new = active[~done], new[~done]
            value[active] = new
            order *= 2
        for e in err[active].tolist():
            log.warning("quadrature did not reach %.1e (last change %.1e)", tolerance, e)
        out_value[active], out_err[active] = value[active], err[active]
        return out_value, out_err

    def swept_angle(self, tolerance: float, max_refinements: int):
        """Perigee-to-apogee angle delta_phi per lane, and its error estimate."""
        s, m = self.params.geometry.s, self.params.m
        lam_mag = np.abs(self.J) / s  # magnitude: the swept angle is reported positive
        integral, err = self.integral(
            lambda theta, r, g, k: lam_mag[k, None] / (m * r * r) / np.sqrt(g),
            tolerance, max_refinements,
        )
        return integral / s, err

    def period(self, tolerance: float, max_refinements: int) -> np.ndarray:
        """Full radial period per lane."""
        period, _ = self.integral(lambda theta, r, g, k: 2.0 / np.sqrt(g),
                                  tolerance, max_refinements)
        return period


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

    Evaluates the transformed integral described in the module docstring and
    divides by s, as one lane of :func:`_apsidal_lanes`.  Circular input
    raises :class:`CircularOrbitError`.
    """
    errors: dict = {}
    delta_phi, err = _apsidal_lanes(params, *_as_lanes(E, J)[1], tolerance,
                                    max_refinements, errors)
    _raise_first(errors, name_lane=False)
    return ApsidalResult(delta_phi=delta_phi.item(), lam=J / params.geometry.s, E=E,
                         quadrature_error_estimate=err.item())


def _apsidal_lanes(params: Params, E: np.ndarray, J: np.ndarray, tolerance: float,
                   max_refinements: int, errors: dict, minimum=None):
    """delta_phi and its quadrature error estimate per lane of the 1-D arrays
    E and J; a failed lane holds NaN and records its error in ``errors``.
    ``minimum`` is passed on to :class:`_Well`."""
    _record(errors, J == 0.0, DomainError, "apsidal angle requires J != 0")
    return _Well(params, E, J, errors, minimum).swept_angle(tolerance, max_refinements)


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
    errors: dict = {}
    period = _Well(params, *_as_lanes(E, J)[1], errors).period(tolerance, max_refinements)
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


class SmallOscillation(NamedTuple):
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

class ScanCell(NamedTuple):
    """One (exponent, E, lam) evaluation of the scanned quantity s*dphi."""

    family_param: float
    E: float
    lam: float
    s_delta_phi: float | None
    status: str


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


def _scan_energy(params: Params, J: np.ndarray, fractions: np.ndarray, errors: dict):
    """Energies at the given fractions of the bound wells above their
    bottoms, per lane, NaN where the well itself fails; and the wells'
    minimum (r_c, U_0) of :func:`_find_ueff_minimum`."""
    minimum = _find_ueff_minimum(params, J, errors)
    u0 = minimum[1]
    top = _escape_energy(params)
    with np.errstate(invalid="ignore"):  # inf - inf in the lanes not taken
        return np.where(np.isfinite(top), u0 + fractions * (top - u0),
                        u0 + fractions * 10.0 * np.maximum(np.abs(u0), 1.0)), minimum


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
    laws = [PowerLaw(amplitude=(1.0 if alpha > 0 else -1.0), exponent=alpha)
            for alpha in exponents]
    s = params_base.geometry.s
    lam_cells = [lam for lam in lambdas for _ in e_fractions]
    n = len(lam_cells)
    J = np.tile(np.array(lam_cells, dtype=float) * s, len(laws))
    fractions = np.tile(np.asarray(e_fractions, dtype=float), len(lambdas) * len(laws))
    params = replace(params_base, potential=PowerLaw(
        amplitude=np.repeat([law.amplitude for law in laws], n),
        exponent=np.repeat(np.asarray(exponents, dtype=float), n)))
    errors: dict = {}
    E, minimum = _scan_energy(params, J, fractions, errors)  # NaN where the well fails
    delta_phi, _ = _apsidal_lanes(params, E, J, tolerance, max_refinements, errors, minimum)
    s_delta_phi, status = (delta_phi * s).tolist(), ["ok"] * J.size
    for k, exc in errors.items():  # per-cell failures are recorded
        s_delta_phi[k], status[k] = None, f"infeasible: {exc}"
    cells = list(map(ScanCell, [alpha for alpha in exponents for _ in range(n)], E.tolist(),
                     lam_cells * len(exponents), s_delta_phi, status))
    verdicts: list[FamilyVerdict] = []
    for g, alpha in enumerate(exponents):
        expected = math.pi / math.sqrt(alpha + 2.0)
        values = [v for v in s_delta_phi[g * n:(g + 1) * n] if v is not None]
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
