"""Hamiltonian evaluation, turning points, symplectic integration, closure.

The time integration works in the reduced polar coordinates (r, p_r): J is a
parameter of the reduced flow and conserved exactly by construction, and phi
is reconstructed by quadrature alongside.  The kick-drift-kick stepper is
second order and symplectic in (r, p_r); it is one pure-Python loop that
keeps its whole state in locals.  It evaluates the radial force once per
step: the closing half-kick's force is reused as the next opening one (the
first-same-as-last property of Stormer-Verlet), which is bit-identical to
evaluating it twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TWO_PI,
    Kepler,
    LogPotential,
    Oscillator,
    Params,
    PhasePoint,
    PowerLaw,
    as_power_law,
)
from .errors import (
    ConeDynError,
    DomainError,
    ForbiddenEnergyError,
    QuadratureError,
    StructuralError,
    TipCollisionError,
    UnboundedMotionError,
)

# No compiled stepper exists; the name stays for the benchmark harness (ROADMAP item 6).
HAVE_COMPILED_KERNEL = False


# --- Energies ---

def hamiltonian(params: Params, r, p_r, J):
    """H = p_r^2/(2m) + J^2/(2 m s^2 r^2) + V(r) on raw coordinates, given
    as floats or as numpy arrays (elementwise)."""
    m, s = params.m, params.geometry.s
    return (
        p_r * p_r / (2.0 * m)
        + J * J / (2.0 * m * s * s * r * r)
        + params.potential.value(r, m)
    )


def energy(params: Params, pt: PhasePoint) -> float:
    """Hamiltonian H at one phase point."""
    return float(hamiltonian(params, pt.r, pt.p_r, pt.J))


def effective_potential(params: Params, J: float, r):
    """Reduced radial potential U_eff(r) = J^2/(2 m s^2 r^2) + V(r).

    Accepts scalar or array r; raises on any non-positive radius.
    """
    if np.count_nonzero(np.asarray(r) <= 0.0):
        raise DomainError("effective potential evaluated at non-positive radius")
    return _effective_potential(params, J, r)


def _effective_potential(params: Params, J: float, r):
    """U_eff without the radius check, for radii already known to be positive."""
    m, s = params.m, params.geometry.s
    return J * J / (2.0 * m * s * s * r * r) + params.potential.value(r, m)


def _effective_d2(params: Params, J: float, r):
    m, s = params.m, params.geometry.s
    return 3.0 * J * J / (m * s * s * r * r * r * r) + params.potential.d2(r, m)


def _radial_force(params: Params, J: float, r):
    """-dU_eff/dr, the force driving the reduced radial motion."""
    m, s = params.m, params.geometry.s
    return J * J / (m * s * s * r * r * r) - params.potential.d1(r, m)


def _escape_energy(params: Params) -> float:
    """lim U_eff(r) as r -> infinity; energies at or above it are unbounded."""
    pot = params.potential
    if isinstance(pot, Kepler):
        return 0.0
    if isinstance(pot, (Oscillator, LogPotential)):
        return math.inf
    if isinstance(pot, PowerLaw):
        if pot.exponent < 0.0 or pot.amplitude == 0.0:
            return 0.0
        if pot.exponent == 0.0:
            return pot.amplitude
        return math.inf if pot.amplitude > 0.0 else -math.inf
    raise StructuralError(f"unsupported potential {type(pot).__name__}")


# --- Turning points ---

def _float_pow(x: np.ndarray, p) -> np.ndarray:
    """x ** p lane by lane as Python floats compute it (numpy's pow may round
    differently); a lane that overflows gives a signed inf."""
    out = []
    for v in x.tolist():
        try:
            out.append(v ** p)
        except OverflowError:
            out.append(math.copysign(math.inf, v) ** p)
    return np.array(out)


def _raise_at(bad, error, message: str, *values) -> None:
    """Raise ``error`` if any lane of ``bad`` (a bool or a boolean array) is
    set.  The message is formatted with each of ``values`` at the first such
    lane and, unless ``bad`` is a scalar, names that lane."""
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    i = int(np.argmax(bad)) if np.ndim(bad) else ()
    text = message.format(*(np.asarray(v)[i] if np.ndim(v) else v for v in values))
    raise error(text if i == () else f"{text} (lane {i})")


def _find_ueff_minimum(params: Params, J):
    """Location and value of the minimum of U_eff, in closed form.

    For V = A r^alpha, U_eff' = 0 reduces to r^(alpha+2) = J^2/(m s^2 A alpha):
    the critical point is unique, and a minimum exactly when A alpha > 0.
    B ln(r/r0) enters as the alpha -> 0 limit with A alpha = B.  J is a
    float, giving floats, or an array, giving arrays; an error names the
    first bad lane.
    """
    m, s = params.m, params.geometry.s
    if isinstance(params.potential, LogPotential):
        a_alpha, alpha = params.potential.strength, 0.0
    else:
        law = as_power_law(params.potential, m)
        a_alpha, alpha = law.amplitude * law.exponent, law.exponent
    no_minimum = "effective potential has no interior minimum for these parameters"
    off_range = "minimum of U_eff lies outside the float range"
    p = 1.0 / (alpha + 2.0)
    if np.ndim(J) == 0:  # Python floats, cheap for the per-cell scan
        J = float(J)
        if J == 0.0 or a_alpha <= 0.0:
            raise StructuralError(no_minimum)
        try:
            r_c = float((J * J / (m * s * s * a_alpha)) ** p)
            u0 = float(_effective_potential(params, J, r_c))
        except ArithmeticError:  # r_c or U_eff(r_c) is not a float
            r_c = u0 = math.nan
        if not (r_c > 0.0 and math.isfinite(r_c) and math.isfinite(u0)):
            raise StructuralError(off_range)
        return r_c, u0
    _raise_at((J == 0.0) | (a_alpha <= 0.0), StructuralError, no_minimum)
    with np.errstate(all="ignore"):
        r_c = _float_pow(J * J / (m * s * s * a_alpha), p)
        u0 = _effective_potential(params, J, r_c)
    _raise_at(~((r_c > 0.0) & np.isfinite(r_c) & np.isfinite(u0)), StructuralError, off_range)
    return r_c, u0


def _root(f, a: float, b: float, rtol: float) -> float:
    """Root of f in a finite [a, b] where f(a) and f(b) have opposite signs.

    Regula falsi with the Illinois modification (the weight of an end kept
    twice in a row is halved), bisecting when the secant point leaves the
    bracket.  The sign change is always kept; once the bracket is within
    rtol (relative), a last secant step on the unweighted ends gives the root.
    """
    fa, fb = f(a), f(b)
    # signs are compared, not multiplied: a product of tiny values underflows
    if not (math.isfinite(a) and math.isfinite(b) and (fa < 0.0 < fb or fb < 0.0 < fa)):
        raise QuadratureError(f"root not bracketed in [{a}, {b}]")
    ga = fa  # the Illinois-weighted value at a
    for _ in range(200):
        x = (a * fb - b * ga) / (fb - ga)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        fx = f(x)
        if math.isnan(fx):
            raise QuadratureError(f"root solve met the non-finite value {fx} at {x}")
        if fx == 0.0:
            return x
        if (fx < 0.0) != (fb < 0.0):
            a, fa, ga = b, fb, fb
        else:
            ga *= 0.5
        b, fb = x, fx
        if abs(b - a) <= rtol * abs(b):
            x = (a * fb - b * fa) / (fb - fa)
            return x if math.isfinite(x) else 0.5 * (a + b)  # f(a) or f(b) infinite
    raise QuadratureError(f"root solve in [{a}, {b}] did not converge")


@dataclass(frozen=True)
class TurningPoints:
    """Inner and outer radii where U_eff(r) = E for a bound level set:
    floats, or arrays for arrays of (E, J)."""

    r_min: float | np.ndarray
    r_max: float | np.ndarray


def turning_points(params: Params, E, J) -> TurningPoints:
    """Solve U_eff(r) = E for the two radii bracketing the bound motion.

    E and J are floats or 1-D arrays (broadcast together).  Every level is
    classified here, for all potentials, in this order: a NaN energy is a
    DomainError; one below the minimum U_0 = U_eff(r_c) (E = -inf included)
    is forbidden; one at or above the escape energy (E = +inf included) is
    unbounded; one at U_0 within its rounding floor gives the degenerate
    pair (r_c, r_c).  On arrays each error names its first bad lane.

    Kepler and the oscillator have closed forms in which the only
    subtraction is E - U_0 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 1.8):

        Kepler:      1/r = (1 +/- e)/r_c,  e = sqrt((E - U_0)/|U_0|), with
                     1 - e = (E/U_0)/(1 + e) so that nothing cancels
                     near escape
        Oscillator:  r_max^2 = (E + sqrt((E - U_0)(E + U_0)))/beta, and
                     r_min^2 r_max^2 = J^2/(m s^2 beta), beta = m omega^2

    They are evaluated elementwise in extended precision (see
    :func:`_closed_form_radii`), so an array gives each lane the bits of a
    scalar call.  The power law and the log potential solve each
    non-circular lane with :func:`_solved_turning_points`.
    """
    scalar = np.ndim(E) == 0 and np.ndim(J) == 0
    if scalar:  # Python floats: the scan makes one call per cell
        E, J, maximum = float(E), float(J), max
    else:
        E, J = np.broadcast_arrays(np.asarray(E, dtype=float), np.asarray(J, dtype=float))
        maximum = np.maximum
    m, s = params.m, params.geometry.s
    r_c, u0 = _find_ueff_minimum(params, J)
    _raise_at(E != E, DomainError, "energy is NaN")  # NaN != NaN, for floats and arrays
    # rounding floor of E - U_eff near r_c, scaled by E and the terms of U_eff;
    # infinite at E = -inf, which is tested on its own
    k_c = J * J / (2.0 * m * s ** 2 * r_c * r_c)
    tol_circ = 1e-13 * maximum(maximum(abs(u0), abs(E)), k_c)
    _raise_at((E < u0 - tol_circ) | (E == -math.inf), ForbiddenEnergyError,
              "E={} lies below the effective-potential minimum {}", E, u0)
    top = _escape_energy(params)
    _raise_at(E >= top, UnboundedMotionError, "E={} at or above the escape energy {}", E, top)
    circular = E - u0 <= tol_circ
    if isinstance(params.potential, (Kepler, Oscillator)):
        r_min, r_max = _closed_form_radii(params, E, J)
        r_min = np.where(circular, r_c, r_min)
        r_max = np.where(circular, r_c, r_max)
        _raise_at(np.logical_not((r_min > 0.0) & (r_max < math.inf)), StructuralError,
                  "turning points of E={} lie outside the float range", E)
    else:  # one root solve per non-circular lane; its radii lie in (0, inf)
        lanes = [(E, J, r_c, circular)] if scalar else zip(
            E.tolist(), J.tolist(), r_c.tolist(), circular.tolist())
        radii = []
        for i, (e, j, c, circ) in enumerate(lanes):
            try:
                radii.append((c, c) if circ else _solved_turning_points(params, e, j, c))
            except ConeDynError as exc:
                if scalar:
                    raise
                raise type(exc)(f"{exc} (lane {i})") from exc
        r_min, r_max = radii[0] if scalar else np.array(radii).reshape(-1, 2).T
    if scalar:
        return TurningPoints(r_min=float(r_min), r_max=float(r_max))
    return TurningPoints(r_min=r_min, r_max=r_max)


# x87 80-bit on x86-64; plain double on some platforms, where the closed
# forms keep the double's error bounds
_EXTENDED = np.longdouble


def _closed_form_radii(params: Params, E, J):
    """Kepler and oscillator turning points (see :func:`turning_points`) in
    :data:`_EXTENDED` precision.  With 64-bit significands the rounding of
    E - U_0 drops from 2^-53 to 2^-64 relative, and the radii come out
    correctly rounded but for rare ties.  Lanes with E - U_0 <= 0 give NaN."""
    ld = _EXTENDED
    E, J = np.asarray(E, dtype=ld), np.asarray(J, dtype=ld)
    m, s = ld(params.m), ld(params.geometry.s)
    with np.errstate(all="ignore"):
        if isinstance(params.potential, Kepler):
            kappa = ld(params.potential.kappa)
            r_c = J * J / (m * s * s * kappa)
            u0 = -kappa / (2 * r_c)
            e = np.sqrt((E - u0) / -u0)
            r_min = r_c / (1 + e)
            r_max = r_c * (1 + e) / (E / u0)  # 1 - e = (E/U_0)/(1 + e)
        else:
            omega = ld(params.potential.omega)
            beta = m * omega * omega
            w_c2 = J * J / (m * s * s * beta)  # r_c^4 = r_min^2 r_max^2
            u0 = beta * np.sqrt(w_c2)
            w_max = (E + np.sqrt((E - u0) * (E + u0))) / beta
            r_min = np.sqrt(w_c2 / w_max)
            r_max = np.sqrt(w_max)
        return r_min.astype(float), r_max.astype(float)


def _solved_turning_points(params: Params, E: float, J: float, r_c: float) -> tuple[float, float]:
    """(r_min, r_max) of one non-circular, bound level set by bracketed root
    finding, for potentials without a closed form: from the circular radius
    r_c the root is bracketed by doubling (outward) or halving (inward) the
    radius, then solved to 1e-13 relative."""

    def f(r: float) -> float:
        # r is r_c times a power of 2 or inside a positive bracket: no check needed
        try:
            return float(_effective_potential(params, J, r)) - E
        except ArithmeticError as exc:
            raise QuadratureError(f"U_eff({r}) is outside the float range") from exc

    def far_end(factor: float) -> float:
        # terminates both ways: J != 0 makes U_eff blow up at the tip, and E
        # is below the escape energy
        r = r_c * factor
        while f(r) <= 0.0:
            r *= factor
        return r

    r_max = _root(f, r_c, far_end(2.0), rtol=1e-13)
    r_min = _root(f, far_end(0.5), r_c, rtol=1e-13)
    return r_min, r_max


# --- Time integration ---

@dataclass(eq=False)
class Trajectory:
    """Sampled solution of the reduced flow plus conserved-quantity series.

    Arrays are aligned sample-by-sample and frozen after construction.
    ``phi_unwrapped`` accumulates the full angle; the reduced angle of each
    sample point equals it mod 2*pi by construction.
    """

    params: Params
    dt: float
    sample_every: int
    times: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    p_r: np.ndarray
    phi_unwrapped: np.ndarray
    series_H: np.ndarray
    series_J: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("r", "phi", "p_r", "phi_unwrapped", "series_H", "series_J"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise DomainError(f"trajectory array {name!r} misaligned")
            arr.flags.writeable = False
        self.times.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(
            r=float(self.r[i]),
            phi=float(self.phi[i]),
            p_r=float(self.p_r[i]),
            J=float(self.series_J[i]),
        )


def _vprime(params: Params):
    """V'(r) for the stepper: one closure per potential, constants bound."""
    pot = params.potential
    if isinstance(pot, Kepler):
        kappa = pot.kappa

        def vprime(x):
            return kappa / (x * x)
    elif isinstance(pot, Oscillator):
        beta = pot.beta(params.m)

        def vprime(x):
            return beta * x
    elif isinstance(pot, PowerLaw):
        a_alpha, alpha_m1 = pot.amplitude * pot.exponent, pot.exponent - 1.0

        def vprime(x):
            return a_alpha * x ** alpha_m1
    elif isinstance(pot, LogPotential):
        strength = pot.strength

        def vprime(x):
            return strength / x
    else:
        raise StructuralError(f"unsupported potential {type(pot).__name__}")
    return vprime


def _run_kernel(params: Params, pt: PhasePoint, dt: float, n_steps: int, sample_every: int):
    """Advance ``n_steps`` kick-drift-kick steps from ``pt``, sampling every
    ``sample_every``; sample 0 is the initial state.

    Returns the sampled (r, p_r, unwrapped phi) arrays.  A drift that leaves
    the r > 0 half-line (or gives NaN) raises TipCollisionError with its
    step index.
    """
    if dt == 0.0 or not math.isfinite(dt):
        raise DomainError(f"dt must be nonzero and finite, got {dt}")
    for name, count in (("n_steps", n_steps), ("sample_every", sample_every)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {count!r}")
    if n_steps < 1 or sample_every < 1:
        raise DomainError("n_steps and sample_every must be >= 1")
    if n_steps % sample_every != 0:
        raise DomainError("n_steps must be a multiple of sample_every")
    vprime = _vprime(params)

    n_samples = n_steps // sample_every + 1
    out_r = np.empty(n_samples)
    out_pr = np.empty(n_samples)
    out_phi = np.empty(n_samples)
    r, p_r, phi, J = pt.r, pt.p_r, pt.phi, pt.J
    m, s = params.m, params.geometry.s
    ms2 = m * s * s
    cent = (J * J) / ms2
    half_dt = 0.5 * dt
    out_r[0] = r
    out_pr[0] = p_r
    out_phi[0] = phi

    # The closing half-kick's force is the next step's opening force (same
    # expression at the same r), so each step evaluates it once.
    force = cent / (r * r * r) - vprime(r)
    for k in range(1, n_samples):
        first = (k - 1) * sample_every
        for i in range(first, first + sample_every):
            p_r = p_r + half_dt * force
            r_new = r + dt * (p_r / m)
            if not (r_new > 0.0):
                raise TipCollisionError(step_index=i)
            r_mid = 0.5 * (r + r_new)
            phi = phi + dt * (J / (ms2 * (r_mid * r_mid)))
            r = r_new
            force = cent / (r * r * r) - vprime(r)
            p_r = p_r + half_dt * force
        out_r[k] = r
        out_pr[k] = p_r
        out_phi[k] = phi
    return out_r, out_pr, out_phi


def step(params: Params, pt: PhasePoint, dt: float) -> PhasePoint:
    """One kick-drift-kick step of the reduced system.

    Half-kick p_r, drift r (advancing phi with the drift-midpoint radius),
    half-kick p_r.  J is untouched.  Negative dt is allowed; the scheme is
    exactly time-reversible up to rounding.
    """
    out_r, out_pr, out_phi = _run_kernel(params, pt, dt, 1, 1)
    return PhasePoint(r=float(out_r[1]), phi=float(out_phi[1]),
                      p_r=float(out_pr[1]), J=pt.J)


def integrate(
    params: Params,
    pt0: PhasePoint,
    dt: float,
    n_steps: int,
    sample_every: int = 1,
    backend: str = "python",
) -> Trajectory:
    """Advance ``n_steps`` kick-drift-kick steps of ``dt`` from ``pt0`` and
    record every ``sample_every``-th state; sample 0 is ``pt0``.

    ``n_steps`` and ``sample_every`` are positive integers, and ``n_steps``
    a multiple of ``sample_every`` so the final state is always sampled.
    Each step equals one :func:`step` call bit for bit.  A negative ``dt``
    runs backward, with decreasing sample times.  A tip collision
    propagates with its failing step index.
    """
    # "python" is the only stepper; the parameter goes with ROADMAP item 6.
    if backend != "python":
        raise DomainError(f"unknown backend {backend!r}; the only stepper is 'python'")
    out_r, out_pr, out_phi = _run_kernel(params, pt0, dt, n_steps, sample_every)
    n_samples = len(out_r)
    times = dt * sample_every * np.arange(n_samples)
    series_h = hamiltonian(params, out_r, out_pr, pt0.J)
    return Trajectory(
        params=params,
        dt=dt,
        sample_every=sample_every,
        times=times,
        r=out_r,
        phi=out_phi % TWO_PI,
        p_r=out_pr,
        phi_unwrapped=out_phi,
        series_H=np.asarray(series_h, dtype=float),
        series_J=np.full(n_samples, pt0.J),
    )


# --- Trajectory analysis: interpolation, apsides, closure ---

class _Hermite:
    """Piecewise-cubic interpolant through samples with known derivatives.

    Derivative data comes straight from the equations of motion, so the
    interpolation error is O(h^4) in the sample spacing.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, dy: np.ndarray):
        self.t = t
        self.y = y
        self.dy = dy

    def __call__(self, x: float) -> float:
        i = int(np.searchsorted(self.t, x, side="right")) - 1
        i = min(max(i, 0), len(self.t) - 2)
        t0, t1 = self.t[i], self.t[i + 1]
        h = t1 - t0
        u = (x - t0) / h
        u2, u3 = u * u, u * u * u
        return (
            (2.0 * u3 - 3.0 * u2 + 1.0) * self.y[i]
            + (u3 - 2.0 * u2 + u) * h * self.dy[i]
            + (-2.0 * u3 + 3.0 * u2) * self.y[i + 1]
            + (u3 - u2) * h * self.dy[i + 1]
        )


def _interpolants(traj: Trajectory):
    """Hermite interpolants for r, p_r and the unwrapped angle.

    A backward run (dt < 0) has decreasing times; its samples are taken in
    reverse so that the interpolants always see increasing times.
    """
    params = traj.params
    J = float(traj.series_J[0])
    m, s = params.m, params.geometry.s
    dr = traj.p_r / m
    dp = np.asarray(_radial_force(params, J, traj.r), dtype=float)
    dphi = J / (m * s * s * traj.r * traj.r)
    order = slice(None, None, -1) if traj.dt < 0.0 else slice(None)
    t = traj.times[order]
    return (
        _Hermite(t, traj.r[order], dr[order]),
        _Hermite(t, traj.p_r[order], dp[order]),
        _Hermite(t, traj.phi_unwrapped[order], dphi[order]),
    )


@dataclass(frozen=True)
class ApsisEvent:
    """A refined p_r zero crossing: perigee (r minimum) or apogee (r maximum)."""

    time: float
    kind: str
    r: float
    phi_unwrapped: float


def trajectory_apsides(traj: Trajectory) -> list[ApsisEvent]:
    """Locate apsis passages by root-finding p_r on the Hermite interpolant.

    Events are listed in sample order, which is decreasing time for a
    backward run (dt < 0).
    """
    r_h, p_h, phi_h = _interpolants(traj)
    p = traj.p_r
    t = traj.times
    forward = traj.dt > 0.0
    events: list[ApsisEvent] = []
    for i in range(len(p) - 1):
        if p[i] == 0.0 or p[i] * p[i + 1] >= 0.0:
            continue
        t_star = _root(p_h, float(t[i]), float(t[i + 1]), rtol=1e-15)
        # r falls before a perigee in sample order: p_r < 0 forward, > 0 backward
        kind = "perigee" if (p[i] < 0.0) == forward else "apogee"
        events.append(
            ApsisEvent(time=float(t_star), kind=kind,
                       r=float(r_h(t_star)), phi_unwrapped=float(phi_h(t_star)))
        )
    return events


def measure_apsidal_advance(traj: Trajectory) -> tuple[float, float]:
    """(apsidal angle, radial period) measured directly from the trajectory.

    The apsidal angle is the unwrapped-phi advance between the first two
    adjacent apsis events; the radial period is the spacing of like events.
    Needs at least three apsis passages in the trajectory.
    """
    events = trajectory_apsides(traj)
    if len(events) < 3:
        raise DomainError("trajectory too short: fewer than three apsis passages")
    delta_phi = abs(events[1].phi_unwrapped - events[0].phi_unwrapped)
    period = abs(events[2].time - events[0].time)
    return delta_phi, period


def _golden_min(f, a: float, b: float, xatol: float) -> float:
    """Minimizer of a unimodal f on [a, b] by golden-section search."""
    shrink = 0.5 * (math.sqrt(5.0) - 1.0)
    # below a few ulps the interior points round onto the ends
    xatol = max(xatol, 4.0 * math.ulp(max(abs(a), abs(b))))
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= xatol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class ClosureInfo:
    """First detected return to the initial phase-space point."""

    closure_time: float
    radial_periods: int


def detect_closure(traj: Trajectory, tol: float = 1e-6) -> ClosureInfo | None:
    """Find the first return of (r, p_r) to its initial value with the
    unwrapped angle advanced by an integer multiple of 2*pi.

    Both conditions are tested within ``tol`` in amplitude-normalized
    distance (the angle is normalized by 2*pi), with Hermite interpolation
    between samples.  Radial periods are counted as successive (r, p_r)
    returns, which the reduced dynamics produces exactly once per period.
    A backward run (dt < 0) reports a negative closure time.  Returns None
    when no closure occurs within the trajectory.
    """
    if float(traj.series_J[0]) == 0.0:
        raise DomainError("closure detection requires J != 0")
    r, p, t = traj.r, traj.p_r, traj.times
    amp_r = float(r.max() - r.min())
    amp_p = max(float(p.max() - p.min()), 1e-300)
    if amp_r <= 1e-9 * max(float(r.mean()), 1e-300):
        raise DomainError("no measurable radial oscillation in this trajectory")

    r0, p0, phi0 = float(r[0]), float(p[0]), float(traj.phi_unwrapped[0])
    d = np.maximum(np.abs(r - r0) / amp_r, np.abs(p - p0) / amp_p)

    departed = np.nonzero(d > 0.35)[0]
    if len(departed) == 0:
        return None
    start = int(departed[0])

    r_h, p_h, phi_h = _interpolants(traj)

    def dist_sq(x: float) -> float:
        dr = (r_h(x) - r0) / amp_r
        dp = (p_h(x) - p0) / amp_p
        return dr * dr + dp * dp

    periods = 0
    for i in range(start + 1, len(d) - 1):
        if not (d[i] <= 0.2 and d[i] <= d[i - 1] and d[i] < d[i + 1]):
            continue
        periods += 1
        a, b = sorted((float(t[i - 1]), float(t[i + 1])))
        t_star = _golden_min(dist_sq, a, b, xatol=(b - a) * 1e-10)
        d_rp = max(abs(r_h(t_star) - r0) / amp_r, abs(p_h(t_star) - p0) / amp_p)
        winding = (phi_h(t_star) - phi0) / TWO_PI
        d_phi = abs(winding - round(winding))
        if d_rp <= tol and d_phi <= tol:
            return ClosureInfo(closure_time=t_star, radial_periods=periods)
    return None
