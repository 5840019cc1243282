"""Hamiltonian evaluation, turning points, symplectic integration, closure.

The time integration works in the reduced polar coordinates (r, p_r): J is a
parameter of the reduced flow and conserved exactly by construction, and phi
is reconstructed by quadrature alongside.  The stepper is Stormer-Verlet,
second order and symplectic in (r, p_r).  It is one pure-Python loop
source, compiled once per potential class with that class's force written
in, that keeps its whole state in locals.  It runs in the two-step (drift)
form, in exact arithmetic the same map as kick-drift-kick: it carries the
drift q = dt * p_r / m of the next step and adds one force to it per step.
The loop only stores each step's drift and does nothing at a sample:
sampling is a read-out of the run.  Per block of steps, numpy forms the
rest from the drifts, so memory stays at one block: the radii, by a running
sum with the bits of the loop's own r += q; the tip check, one test that
finds the first radius that is not positive, the step a per-step test would
have stopped at; the angle increments, summed in order, bit-identical to
the running sum; and at each sample p_r = (q_in + q_out) m / (2 dt), from
the drifts into and out of it.

U_eff's two terms, J^2/(2 m s^2 r^2) and V(r), are formed in one function,
:func:`_effective_potential_terms`, for the lane evaluator
:func:`_effective_potential_lanes` (U_eff, U_eff', and the lanes where U_eff
is not finite, for every class), the quadrature nodes and
:func:`hamiltonian`.  Only the stepper's force -U_eff'(r) is apart, compiled
into its Python-float loop, where an evaluator call would cost 70 steps.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    TWO_PI,
    Kepler,
    LogPotential,
    Oscillator,
    Params,
    PhasePoint,
    PowerLaw,
)
from .errors import (
    DomainError,
    ForbiddenEnergyError,
    QuadratureError,
    StructuralError,
    TipCollisionError,
    UnboundedMotionError,
)

# No compiled stepper exists; the name stays while perfbench/worker.py's
# kernel-throughput probe reads it (ROADMAP item 8).
HAVE_COMPILED_KERNEL = False


# --- Energies ---

def hamiltonian(params: Params, r, p_r, J):
    """H = p_r^2/(2m) + J^2/(2 m s^2 r^2) + V(r) on raw coordinates, given
    as floats or as numpy arrays (elementwise), summed as (T + K) + V with
    K and V from :func:`_effective_potential_terms`."""
    k, v = _effective_potential_terms(params, J, r)
    return (p_r * p_r / (2.0 * params.m) + k) + v


def energy(params: Params, pt: PhasePoint) -> float:
    """Hamiltonian H at one phase point; a DomainError where H is not finite
    (a term of it outside the float range)."""
    with np.errstate(all="ignore"):
        h = float(hamiltonian(params, np.float64(pt.r), pt.p_r, pt.J))
    if not math.isfinite(h):
        raise DomainError(f"energy at r={pt.r} is not finite (H={h})")
    return h


def effective_potential(params: Params, J, r):
    """Reduced radial potential U_eff(r) = J^2/(2 m s^2 r^2) + V(r), by
    :func:`_effective_potential_lanes`: a float for scalar J and r, else an
    array.  A radius that is not positive and finite (NaN included), or one
    where U_eff is not finite, is a DomainError naming r."""
    bad = ~((np.asarray(r) > 0.0) & (np.asarray(r) < math.inf))
    if np.count_nonzero(bad):
        raise DomainError(f"effective potential evaluated at r={np.extract(bad, r)[0]}, "
                          "not a positive finite radius")
    scalar, (J, r) = _as_lanes(J, r)
    u, _, raised = _effective_potential_lanes(params, J, r)
    if np.count_nonzero(raised):
        raise DomainError(f"effective potential at r={r[raised][0]} is outside the float range")
    return u.item() if scalar else u


def _escape_energy(params: Params):
    """lim U_eff(r) as r -> infinity; energies at or above it are unbounded.
    From the power-law form (A alpha, alpha): 0 where alpha < 0, else
    infinite with the sign of A alpha (every well with a minimum has A alpha
    > 0).  A float, or an array for a power law with one (A, alpha) per lane."""
    a_alpha, alpha = _power_law_form(params)
    top = np.where(alpha < 0.0, 0.0, np.copysign(math.inf, a_alpha))
    return top if top.ndim else top.item()


# --- Turning points ---
#
# The well geometry works on lanes: 1-D arrays with one level set (E, J) per
# element.  A lane that fails holds NaN and records its first error in an
# ``errors`` dict (lane -> ConeDynError) while the other lanes carry on, and
# each lane does exactly the float operations of a one-lane call, so its
# bits do not depend on the batch around it.  A power law may hold one
# (A, alpha) per lane, which reaches a lane only through an index array into
# the batch (the ``lanes`` of :func:`_effective_potential_lanes`): a batch
# of potentials takes the same path as one potential.

def _as_lanes(*values):
    """(scalar, lanes): whether every value is a scalar, and the values as
    1-D float arrays broadcast together.  A value of more than one dimension
    is a DomainError."""
    if any(np.ndim(v) > 1 for v in values):
        raise DomainError("expected floats or 1-D arrays, got shapes "
                          + ", ".join(str(np.shape(v)) for v in values))
    scalar = all(np.ndim(v) == 0 for v in values)
    return scalar, np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                         for v in values))


def _record(errors: dict, bad: np.ndarray, error, message: str, *values, lanes=None) -> None:
    """Record ``error`` for each set element i of the boolean array ``bad``,
    at lane ``lanes[i]`` (or lane i), unless that lane has an error already.
    The message is formatted with each of ``values`` (arrays aligned with
    ``bad``, or scalars) at i, as Python floats."""
    if not np.count_nonzero(bad):
        return
    for i in bad.nonzero()[0].tolist():
        lane = i if lanes is None else int(lanes[i])
        if lane not in errors:
            errors[lane] = error(message.format(
                *(v[i].item() if isinstance(v, np.ndarray) else v for v in values)))


def _alive(errors: dict, n: int) -> np.ndarray:
    """Mask of the lanes among n that have no error recorded."""
    alive = np.ones(n, dtype=bool)
    alive[list(errors)] = False
    return alive


def _raise_first(errors: dict, name_lane: bool) -> None:
    """Raise the error of the first failed lane, if any; ``name_lane`` adds
    the lane to its message (for array calls)."""
    if errors:
        lane = min(errors)
        exc = errors[lane]
        raise type(exc)(f"{exc} (lane {lane})") if name_lane else exc


def _effective_potential_terms(params: Params, J, r, lanes=None):
    """(K, V): U_eff(r) = K + V(r)'s centrifugal term K = J^2/(2 m s^2 r^2)
    and potential, on floats or arrays, under the caller's np.errstate.  A
    power law's r ** alpha is ``np.float_power`` (the C library's pow, as
    Python's ** calls it); ``lanes``, an index array broadcast against r,
    picks r's (A, alpha) from a power law with one pair per lane."""
    m, s = params.m, params.geometry.s
    pot = params.potential
    if lanes is not None and isinstance(pot, PowerLaw) and np.ndim(pot.exponent):
        v = pot.amplitude[lanes] * np.float_power(r, pot.exponent[lanes])
    else:
        v = pot.value(r, m)
    return J * J / (2.0 * m * s * s * r * r), v


def _effective_potential_lanes(params: Params, J: np.ndarray, r: np.ndarray, lanes=None):
    """U_eff(r) = K + V and U_eff'(r) = (r V' - 2K)/r from the terms of
    :func:`_effective_potential_terms` (``lanes`` as there), with the bits
    of one call per lane on Python floats: r V' is alpha V, with the alpha
    of :func:`_power_law_form`, and B for the log potential.  Also returns
    the mask of lanes where U_eff is not finite (a zero divisor, a term out
    of the float range); they hold NaN."""
    with np.errstate(all="ignore"):
        k, v = _effective_potential_terms(params, J, r, lanes)
        b, alpha = _power_law_form(params)
        if lanes is not None and np.ndim(alpha):
            alpha = alpha[lanes]
        r_dv = b if isinstance(params.potential, LogPotential) else alpha * v
        u, du = k + v, (r_dv - 2.0 * k) / r
        raised = ~np.isfinite(u)
    if np.count_nonzero(raised):
        np.copyto(u, math.nan, where=raised)
        np.copyto(du, math.nan, where=raised)
    return u, du, raised


def _power_law_form(params: Params):
    """(A alpha, alpha) of V = A r^alpha, with B ln(r/r0) as its alpha -> 0
    limit (A alpha = B): floats, or arrays for a power law with one
    (A, alpha) per lane.  The one table of the potential classes' forms."""
    pot = params.potential
    if isinstance(pot, Kepler):
        return pot.kappa, -1.0
    if isinstance(pot, Oscillator):
        return 0.5 * pot.beta(params.m) * 2.0, 2.0  # the bits of A alpha
    if isinstance(pot, LogPotential):
        return pot.strength, 0.0
    if isinstance(pot, PowerLaw):
        return pot.amplitude * pot.exponent, pot.exponent
    raise StructuralError(f"unsupported potential {type(pot).__name__}")


def _find_ueff_minimum(params: Params, J: np.ndarray, errors: dict):
    """Location r_c and value U_0 = U_eff(r_c) of the minimum of U_eff, in
    closed form, per lane of J.

    With (A alpha, alpha) of :func:`_power_law_form`, U_eff' = 0 reduces to
    r^(alpha+2) = J^2/(m s^2 A alpha): the critical point is unique, and a
    minimum exactly when A alpha > 0.  Both are evaluated with
    ``np.float_power``, so each lane has the bits of a one-lane call;
    failed lanes hold NaN.
    """
    m, s = params.m, params.geometry.s
    a_alpha, alpha = _power_law_form(params)
    _record(errors, ~np.isfinite(J), DomainError, "angular momentum J={} is not finite", J)
    _record(errors, (J == 0.0) | (a_alpha <= 0.0), StructuralError,
            "effective potential has no interior minimum for these parameters")
    with np.errstate(all="ignore"):
        # NaN where A alpha <= 0: a negative base has no real power
        base = np.where(a_alpha > 0.0, J * J / (m * s * s * a_alpha), math.nan)
        r_c = np.float_power(base, 1.0 / (alpha + 2.0))
    u0, *_ = _effective_potential_lanes(params, J, r_c)
    bad = ~((r_c > 0.0) & np.isfinite(r_c) & np.isfinite(u0))
    _record(errors, bad, StructuralError, "minimum of U_eff lies outside the float range")
    np.copyto(r_c, math.nan, where=bad)
    np.copyto(u0, math.nan, where=bad)
    return r_c, u0


def _well_levels(params: Params, J: np.ndarray, fractions: np.ndarray, depths: float,
                 errors: dict):
    """Energies at the given fractions of the bound wells above their
    bottoms U_0, per lane of J: of the way up to a finite escape energy, or
    of ``depths`` times max(|U_0|, 1) in a confining well.  NaN where the
    well itself fails.  Also returns the wells' minimum (r_c, U_0) of
    :func:`_find_ueff_minimum`, to pass on to :func:`_turning_points`."""
    minimum = _find_ueff_minimum(params, J, errors)
    u0 = minimum[1]
    top = _escape_energy(params)
    with np.errstate(invalid="ignore"):  # inf - inf in the lanes not taken
        return np.where(np.isfinite(top), u0 + fractions * (top - u0),
                        u0 + fractions * depths * np.maximum(np.abs(u0), 1.0)), minimum


def _root(f, x: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
          rtol: float):
    """Roots of f by Newton's method safeguarded by a bracket ("rtsafe",
    Numerical Recipes, 3rd ed., sec. 9.4), one lane per element of the 1-D
    arrays: start points x, and brackets [a, b] where the given values fa
    and fb of f have opposite signs; b may be +inf, an open end (a is then
    positive).  f(x, i) gives f and f' at the points x of the lanes i (an
    index array).

    Each evaluated point replaces the end of its sign.  A Newton step (or
    start point) that does not land strictly inside the bracket is replaced
    by its midpoint, or by 2a while b is infinite.  A lane stops once its
    Newton step, with a finite f', is within rtol of its point (relative):
    the point minus that step is its root, within about rtol^2 of the true
    one by quadratic convergence.  Where rounding keeps the steps larger, a
    lane stops once its bracket is two ulps wide.  A lane does exactly the
    float operations of a solve on its own.  Returns the roots (NaN where a
    lane failed) and the QuadratureError of each failed lane, by lane.
    """
    roots = np.full(np.shape(x), math.nan)
    failed: dict = {}
    i = np.arange(roots.size)
    with np.errstate(all="ignore"):
        # signs are compared, not multiplied: a product of tiny values underflows
        ok = ~np.isnan(a + b) & (((fa < 0.0) & (0.0 < fb)) | ((fb < 0.0) & (0.0 < fa)))
        _record(failed, ~ok, QuadratureError, "root not bracketed in [{}, {}]", a, b)
        # the bracket as lo < hi, and whether f rises from lo to hi
        i, x, lo, hi, rising = (i[ok], x[ok], np.minimum(a, b)[ok], np.maximum(a, b)[ok],
                                ((fa < 0.0) == (a < b))[ok])

        def next_point(x):
            mid = np.where(np.isinf(hi), 2.0 * lo, 0.5 * (lo + hi))
            return np.where((lo < x) & (x < hi), x, mid)

        x = next_point(x)
        for _ in range(200):
            if not i.size:
                break
            fx, dfx = f(x, i)
            above = (fx > 0.0) == rising  # x lies above the root
            np.copyto(hi, x, where=above)
            np.copyto(lo, x, where=~above)
            step = fx / dfx  # 0 at an exact zero
            nxt = next_point(x - step)
            ax = np.abs(x)
            newton = (np.abs(step) <= rtol * ax) & np.isfinite(dfx)
            # a bracket two ulps wide holds at most one float between its ends
            bad, done = np.isnan(fx), newton | (hi - lo <= 2.0 * math.ulp(1.0) * ax)
            stop = bad | done
            if np.count_nonzero(stop):
                _record(failed, bad, QuadratureError,
                        "root solve met the non-finite value {} at {}", fx, x, lanes=i)
                done &= ~bad
                roots[i[done]] = np.where(newton, x - step, nxt)[done]
                keep = ~stop
                i, lo, hi, rising, nxt = i[keep], lo[keep], hi[keep], rising[keep], nxt[keep]
            x = nxt
        _record(failed, np.ones(i.size, dtype=bool), QuadratureError,
                "root solve in [{}, {}] did not converge", lo, hi, lanes=i)
    return roots, failed


class TurningPoints(NamedTuple):
    """Inner and outer radii where U_eff(r) = E for a bound level set:
    floats, or arrays for arrays of (E, J)."""

    r_min: float | np.ndarray
    r_max: float | np.ndarray


def turning_points(params: Params, E, J) -> TurningPoints:
    """Solve U_eff(r) = E for the two radii bracketing the bound motion.

    E and J are floats, giving floats, or 1-D arrays (broadcast together),
    giving arrays whose lanes have the bits of scalar calls.  Every level is
    classified, for all potentials, in this order: a NaN energy is a
    DomainError; one below the minimum U_0 = U_eff(r_c) (E = -inf included)
    is forbidden; one at or above the escape energy (E = +inf included) is
    unbounded; one at U_0 within its rounding floor gives the degenerate
    pair (r_c, r_c).  An array call raises the error of its first failing
    lane, as a scalar call on that lane raises it, and names the lane.

    Kepler and the oscillator have closed forms in which the only
    subtraction is E - U_0 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 1.8):

        Kepler:      1/r = (1 +/- e)/r_c,  e = sqrt((E - U_0)/|U_0|), with
                     1 - e = (E/U_0)/(1 + e) so that nothing cancels
                     near escape
        Oscillator:  r_max^2 = (E + sqrt((E - U_0)(E + U_0)))/beta, and
                     r_min^2 r_max^2 = J^2/(m s^2 beta), beta = m omega^2

    They are evaluated elementwise in extended precision (see
    :func:`_closed_form_radii`).  The power law and the log potential solve
    all non-circular lanes at once with :func:`_solved_turning_points`.
    """
    scalar, (E, J) = _as_lanes(E, J)
    errors: dict = {}
    r_min, r_max = _turning_points(params, E, J, errors)
    _raise_first(errors, name_lane=not scalar)
    if scalar:
        return TurningPoints(r_min=float(r_min[0]), r_max=float(r_max[0]))
    return TurningPoints(r_min=r_min, r_max=r_max)


def _turning_points(params: Params, E: np.ndarray, J: np.ndarray, errors: dict,
                    minimum=None):
    """(r_min, r_max) of :func:`turning_points` on lanes: failed lanes hold
    NaN and record their error in ``errors``.  ``minimum`` is the (r_c, U_0)
    of :func:`_find_ueff_minimum` for J and ``errors``, if the caller has it
    already."""
    m, s = params.m, params.geometry.s
    r_c, u0 = _find_ueff_minimum(params, J, errors) if minimum is None else minimum
    _record(errors, E != E, DomainError, "energy is NaN")  # NaN != NaN
    top = _escape_energy(params)
    with np.errstate(all="ignore"):
        # rounding floor of E - U_eff near r_c, scaled by E and the terms of
        # U_eff; infinite at E = -inf, which is tested on its own
        k_c = J * J / (2.0 * m * s ** 2 * r_c * r_c)
        tol_circ = 1e-13 * np.maximum(np.maximum(abs(u0), abs(E)), k_c)
        _record(errors, (E < u0 - tol_circ) | (E == -math.inf), ForbiddenEnergyError,
                "E={} lies below the effective-potential minimum {}", E, u0)
        _record(errors, E >= top, UnboundedMotionError,
                "E={} at or above the escape energy {}", E, top)
        circular = E - u0 <= tol_circ
    if isinstance(params.potential, (Kepler, Oscillator)):
        r_min, r_max = _closed_form_radii(params, E, J)
        r_min = np.where(circular, r_c, r_min)
        r_max = np.where(circular, r_c, r_max)
    else:  # one batched root solve for the non-circular lanes
        r_min, r_max = r_c.copy(), r_c.copy()
        lanes = np.flatnonzero(~circular & _alive(errors, E.size))
        r_min[lanes], r_max[lanes], failed = _solved_turning_points(params, E, J, r_c, u0, lanes)
        errors.update(failed)
    _record(errors, ~((r_min > 0.0) & (r_max < math.inf)), StructuralError,
            "turning points of E={} lie outside the float range", E)
    if errors:
        alive = _alive(errors, E.size)
        r_min, r_max = np.where(alive, r_min, math.nan), np.where(alive, r_max, math.nan)
    return r_min, r_max


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


def _solved_turning_points(params: Params, E: np.ndarray, J: np.ndarray, r_c: np.ndarray,
                           u0: np.ndarray, lanes: np.ndarray):
    """(r_min, r_max, failed) of non-circular, bound level sets, for
    potentials without a closed form, at the lanes ``lanes`` (an index
    array into the 1-D arrays E, J, r_c and u0): both ends of every lane in
    one :func:`_root` on f = U_eff - E, stopped at a Newton step of 1e-9
    relative (an error of order 1e-18, below the rounding of f).

    Each end starts at the harmonic estimate r_c (1 + q) outward and
    r_c / (1 + q) inward (the same to first order, positive for every q,
    and exact for Kepler), with q = sqrt(2 delta/(alpha + 2)), delta =
    (E - U_0)/K and K = A alpha r_c^alpha, which at the minimum equals
    J^2/(m s^2 r_c^2) and is taken so, without a power.  The bracket runs
    from r_c, where f = U_0 - E < 0 is known (``u0`` as the minimum computed
    it), to the far side, where f > 0 as r -> 0, and as r -> inf below the
    escape energy: until a point there is found, a step that leaves the
    bracket doubles the radius outward and halves it inward.  f and f' come
    from one :func:`_effective_potential_lanes` evaluation per point.
    ``failed`` maps each failed lane (of the batch) to its QuadratureError;
    where both ends of a lane fail, the outward end's error wins, as if that
    end were solved first."""
    n = lanes.size
    lane = np.tile(lanes, 2)  # by end: end k < n is lanes[k] outward, end n + k inward
    m, s = params.m, params.geometry.s
    alpha = np.broadcast_to(_power_law_form(params)[1], E.shape)[lane]
    E, J, r_c, u0 = E[lane], J[lane], r_c[lane], u0[lane]  # one per end
    with np.errstate(all="ignore"):
        # out of the float range the start is inf or NaN, and _root bisects
        q = np.sqrt(2.0 * (E - u0) / ((alpha + 2.0) * (J * J / (m * s * s * r_c * r_c))))
        start = np.where(np.arange(2 * n) < n, r_c * (1.0 + q), r_c / (1.0 + q))

    def f(r, ends):
        u, du, raised = _effective_potential_lanes(params, J[ends], r, lane[ends])
        # with J != 0 and alpha > -2, U_eff -> +inf at both ends of the
        # radius, and a point where a term of it overflows lies beyond a
        # turning point: it is the bracket's far end, and _root bisects
        np.copyto(u, math.inf, where=raised)
        return u - E[ends], du

    radii, failed = _root(f, start, r_c, np.repeat([math.inf, 0.0], n), u0 - E,
                          np.full(2 * n, math.inf), rtol=1e-9)
    by_lane: dict = {}
    for end in sorted(failed):  # outward ends first
        by_lane.setdefault(int(lane[end]), failed[end])
    return radii[n:], radii[:n], by_lane


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
        """Sample i as a phase point.  A run restarted from it agrees with
        the run it came from only to rounding: its p_r is read off the
        drifts around the sample (see :func:`integrate`)."""
        return PhasePoint(
            r=float(self.r[i]),
            phi=float(self.phi[i]),
            p_r=float(self.p_r[i]),
            J=float(self.series_J[i]),
        )


# -U_eff'(r) of each potential class as source, compiled into the stepper
# loop only (outside it the slope is _effective_potential_lanes'), with
# cent = J^2/(m s^2) and V's constants c = A alpha, p = alpha - 1 from
# _power_law_form, both scaled by dt * dt / m.
_FORCE = {
    Kepler: "(cent / r - c) / (r * r)",
    Oscillator: "cent / (r * r * r) - c * r",
    PowerLaw: "cent / (r * r * r) - c * r ** p",
    LogPotential: "cent / (r * r * r) - c / r",
}

# Steps per angle block: bounds the stepper's buffers at about 1 MB whatever
# n_steps and sample_every are.
_BLOCK = 1 << 16

_LOOP = """\
def run(r, p_r, phi, J, m, ms2, c, p, dt, n_steps, sample_every, block,
        out_r, out_pr, out_phi):
    w = dt * dt / m
    cent, c = (J * J) / ms2 * w, c * w
    # r before a block, the drift of each of its steps and the drift after
    # it; once spent, the block's angle increments
    drifts = np.empty(block + 2)
    store = memoryview(drifts)  # item stores cheaper than numpy's or array's
    radii = np.empty(block + 1)  # r before and after each step of a block
    i = 0  # steps before the current block
    j = 0  # drifts stored in it; the opening force belongs to step 0
    try:
        q = dt * (p_r / m) + 0.5 * ({force})  # the drift of the next step
        while i < n_steps:
            n = min(block, n_steps - i)
            store[0] = r
            for j in range(1, n + 1):
                store[j] = q
                r += q
                q += {force}
            rb = _block_radii(drifts[:n + 1], radii, i)
            store[n + 1] = q  # real: every radius of the block is positive
            # samples lo..hi-1 fall in the block, at its steps ``at``
            lo, hi = i // sample_every + 1, (i + n) // sample_every + 1
            at = slice(lo * sample_every - i, n + 1, sample_every)
            out_r[lo:hi] = rb[at]
            with np.errstate(all="ignore"):
                # p_r from the mean of the drifts into and out of a sample
                pr = out_pr[lo:hi]
                np.add(drifts[at], drifts[at.start + 1:n + 2:sample_every], out=pr)
                pr *= 0.5 * (m / dt)
                # phi += dt * (J / (ms2 * (r_mid * r_mid))) per step, summed in order
                d = drifts[1:n + 1]
                np.add(rb[:n], rb[1:], out=d)
                d *= 0.5
                d *= d
                d *= ms2
                np.divide(J, d, out=d)
                d *= dt
            drifts[0] = phi
            np.add.accumulate(drifts[:n + 1], out=drifts[:n + 1])
            phi = float(drifts[n])
            out_phi[lo:hi] = drifts[at]
            i += n
    except (ArithmeticError, TypeError) as exc:
        # past the tip the block runs on into 1/0, overflow, or a complex q,
        # which its store rejects (TypeError): drifts 1..j, or 1..j-1, are stored
        _block_radii(drifts[:j + 1 - isinstance(exc, TypeError)], radii, i)
        if isinstance(exc, TypeError):
            raise
        raise DomainError(f"radial force at step {i + max(j - 1, 0)} is outside the float "
                          f"range (r={r!r})") from exc
"""


def _block_radii(drifts: np.ndarray, radii: np.ndarray, i: int) -> np.ndarray:
    """The radii of a block of steps, in ``radii``, from r before it and the
    drifts of its steps: a running sum with the bits of the stepper's r += q.
    The first radius after a step that is not positive (or is NaN) raises
    TipCollisionError at that step; i is the steps before the block."""
    out = radii[:drifts.size]
    with np.errstate(all="ignore"):
        np.add.accumulate(drifts, out=out)
    if not out[1:].min(initial=math.inf) > 0.0:
        raise TipCollisionError(step_index=i + int(np.argmin(out[1:] > 0.0)))
    return out


@functools.cache
def _stepper(kind: type):
    """The stepper loop of potential class ``kind``, with its :data:`_FORCE`
    source spliced in, compiled once per class (as dataclasses builds
    ``__init__``)."""
    base = next((k for k in kind.__mro__ if k in _FORCE), None)
    if base is None:
        raise StructuralError(f"unsupported potential {kind.__name__}")
    namespace = {"np": np, "DomainError": DomainError, "_block_radii": _block_radii}
    source = _LOOP.replace("{force}", _FORCE[base])
    exec(compile(source, f"<conedyn stepper: {kind.__name__}>", "exec"), namespace)
    return namespace["run"]


def integrate(
    params: Params,
    pt0: PhasePoint,
    dt: float,
    n_steps: int,
    sample_every: int = 1,
    backend: str = "python",
) -> Trajectory:
    """Advance ``n_steps`` Stormer-Verlet steps of ``dt`` from ``pt0`` and
    record every ``sample_every``-th state; sample 0 is ``pt0``.

    ``n_steps`` and ``sample_every`` are positive integers, and ``n_steps``
    a multiple of ``sample_every`` so the final state is always sampled.
    Each step drifts r by the carried q = dt * p_r / m, then adds dt^2/m
    times the force at the new r to q (see the module docstring); in exact
    arithmetic that is one kick-drift-kick step.  phi advances with the
    midpoint radius of each drift; J is untouched.  Sampling is a read-out:
    the samples are exactly every ``sample_every``-th state of the run that
    samples every step, whatever the blocks, with p_r = (q_in + q_out) m /
    (2 dt) from the drifts into and out of the sample (in exact arithmetic
    (q - F/2) m / dt, F the scaled force there).  A run restarted from a
    sample agrees with the whole run only to rounding.  A negative ``dt``
    runs backward, with decreasing sample times, and the scheme is
    time-reversible up to rounding.  A start point with a non-finite H is a
    DomainError, and so is a force outside the float range, with its step
    index.  A drift that leaves the r > 0 half-line (or gives NaN) raises
    TipCollisionError with its step index.
    """
    # "python" is the only stepper; the parameter stays while
    # perfbench/worker.py's kernel-throughput probe passes it (ROADMAP item 8)
    if backend != "python":
        raise DomainError(f"unknown backend {backend!r}; the only stepper is 'python'")
    if dt == 0.0 or not math.isfinite(dt):
        raise DomainError(f"dt must be nonzero and finite, got {dt}")
    for name, count in (("n_steps", n_steps), ("sample_every", sample_every)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {count!r}")
    if n_steps < 1 or sample_every < 1:
        raise DomainError("n_steps and sample_every must be >= 1")
    if n_steps % sample_every != 0:
        raise DomainError("n_steps must be a multiple of sample_every")
    run = _stepper(type(params.potential))
    with np.errstate(all="ignore"):
        h0 = hamiltonian(params, np.float64(pt0.r), pt0.p_r, pt0.J)
    if not np.isfinite(h0):
        raise DomainError(f"start point has non-finite energy H={h0}")

    n_samples = n_steps // sample_every + 1
    out_r, out_pr, out_phi = np.empty((3, n_samples))
    out_r[0], out_pr[0], out_phi[0] = pt0.r, pt0.p_r, pt0.phi
    m, s = params.m, params.geometry.s
    c, alpha = _power_law_form(params)
    n_steps, sample_every = int(n_steps), int(sample_every)
    # Python floats: numpy scalars past the tip would warn, not raise or go complex
    run(float(pt0.r), float(pt0.p_r), pt0.phi, float(pt0.J),
        *map(float, (m, m * s * s, c, alpha - 1.0, dt)), n_steps, sample_every,
        min(_BLOCK, n_steps), out_r, out_pr, out_phi)
    times = dt * sample_every * np.arange(n_samples)
    with np.errstate(over="ignore"):  # r * r past the float range: the term is 0
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
    interpolation error is O(h^4) in the sample spacing.  The samples are
    kept as memoryviews, so an evaluation runs on Python floats: the bits of
    numpy's float64 scalars at a fraction of their cost.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, dy: np.ndarray):
        self.t, self.y, self.dy = (memoryview(np.ascontiguousarray(a, dtype=float))
                                   for a in (t, y, dy))

    def _cell(self, x: float):
        """(i, h, u): the interval [t_i, t_i + h] of x, and x's place u in it."""
        i = min(max(bisect.bisect_right(self.t, x) - 1, 0), len(self.t) - 2)
        t0, t1 = self.t[i], self.t[i + 1]
        h = t1 - t0
        return i, h, (x - t0) / h

    def __call__(self, x: float) -> float:
        i, h, u = self._cell(x)
        u2, u3 = u * u, u * u * u
        return (
            (2.0 * u3 - 3.0 * u2 + 1.0) * self.y[i]
            + (u3 - 2.0 * u2 + u) * h * self.dy[i]
            + (-2.0 * u3 + 3.0 * u2) * self.y[i + 1]
            + (u3 - u2) * h * self.dy[i + 1]
        )

    def slope(self, x: float) -> float:
        """The interpolant's derivative at x, exact for its cubic."""
        i, h, u = self._cell(x)
        return (6.0 * (u * u - u) * (self.y[i] - self.y[i + 1]) / h
                + (3.0 * u * u - 4.0 * u + 1.0) * self.dy[i]
                + (3.0 * u * u - 2.0 * u) * self.dy[i + 1])


def _interpolants(traj: Trajectory):
    """Hermite interpolants for r, p_r (dp_r/dt = -U_eff') and the unwrapped angle.

    A backward run (dt < 0) has decreasing times; its samples are taken in
    reverse so that the interpolants always see increasing times.  A
    non-finite r, p_r or U_eff' is a DomainError.
    """
    if not (np.isfinite(traj.r).all() and np.isfinite(traj.p_r).all()):
        raise DomainError("trajectory analysis requires finite r and p_r")
    params = traj.params
    J = float(traj.series_J[0])
    m, s = params.m, params.geometry.s
    _, du, _ = _effective_potential_lanes(params, J, traj.r)
    if not np.isfinite(du).all():
        raise DomainError("U_eff' along the trajectory is outside the float range")
    dr = traj.p_r / m
    dphi = J / (m * s * s * traj.r * traj.r)
    order = slice(None, None, -1) if traj.dt < 0.0 else slice(None)
    t = traj.times[order]
    return (
        _Hermite(t, traj.r[order], dr[order]),
        _Hermite(t, traj.p_r[order], -du[order]),
        _Hermite(t, traj.phi_unwrapped[order], dphi[order]),
    )


class ApsisEvent(NamedTuple):
    """A refined p_r zero crossing: perigee (r minimum) or apogee (r maximum)."""

    time: float
    kind: str
    r: float
    phi_unwrapped: float


def trajectory_apsides(traj: Trajectory) -> list[ApsisEvent]:
    """Locate apsis passages by root-finding p_r on the Hermite interpolant.

    A sample whose p_r is exactly 0 between samples of opposite signs is
    the apsis itself; a zero at either end of the trajectory, or between
    samples of one sign, is none.  Events are listed in sample order, which
    is decreasing time for a backward run (dt < 0).  A non-finite r or p_r
    is a DomainError.
    """
    r_h, p_h, phi_h = _interpolants(traj)
    p, t = traj.p_r, traj.times
    sign = np.sign(p)  # signs are multiplied, not the values: those may underflow
    # an event per sign change of p_r in sample order: one root-solve lane
    # between two nonzero samples of opposite signs, started at their secant
    # point, and the sample itself where p_r is exactly 0 between samples of
    # opposite signs
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    zeros = np.flatnonzero((sign[1:-1] == 0.0) & (sign[:-2] * sign[2:] < 0.0)) + 1
    a, b, fa, fb = t[i], t[i + 1], p[i], p[i + 1]
    roots, failed = _root(
        lambda x, _: (np.array([p_h(v) for v in x.tolist()]),
                      np.array([p_h.slope(v) for v in x.tolist()])),
        (a * fb - b * fa) / (fb - fa), a, b, fa, fb, rtol=1e-15)
    _raise_first(failed, name_lane=False)
    # by the sample before each event; r falls before a perigee in sample
    # order: p_r < 0 forward, > 0 backward
    before = np.concatenate((i, zeros - 1))
    times = np.concatenate((roots, t[zeros]))
    order = np.argsort(before)
    forward = traj.dt > 0.0
    return [ApsisEvent(time=t_star, kind="perigee" if (p[k] < 0.0) == forward else "apogee",
                       r=float(r_h(t_star)), phi_unwrapped=float(phi_h(t_star)))
            for k, t_star in zip(before[order].tolist(), times[order].tolist())]


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


class ClosureInfo(NamedTuple):
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
    when no closure occurs within the trajectory; a non-finite r or p_r, or
    a ``tol`` that is not positive (NaN included), is a DomainError.
    """
    if not tol > 0.0:
        raise DomainError(f"closure tolerance must be positive, got {tol}")
    if float(traj.series_J[0]) == 0.0:
        raise DomainError("closure detection requires J != 0")
    r, p, t = traj.r, traj.p_r, traj.times
    r_h, p_h, phi_h = _interpolants(traj)
    amp_r = float(r.max() - r.min())
    amp_p = max(float(p.max() - p.min()), 1e-300)
    if amp_r <= 1e-9 * max(float(r.mean()), 1e-300):
        raise DomainError("no measurable radial oscillation in this trajectory")

    r0, p0, phi0 = float(r[0]), float(p[0]), float(traj.phi_unwrapped[0])
    d = np.maximum(np.abs(r - r0) / amp_r, np.abs(p - p0) / amp_p)

    # the sample farthest from r0 in r has d >= 0.5: some sample departs
    start = int(np.argmax(d > 0.35))

    def dist_sq(x: float) -> float:
        dr = (r_h(x) - r0) / amp_r
        dp = (p_h(x) - p0) / amp_p
        return dr * dr + dp * dp

    # candidates: local minima of d at or below 0.2, from sample start + 1 on
    mid = d[1:-1]
    near = (mid <= 0.2) & (mid <= d[:-2]) & (mid < d[2:])
    near[:start] = False
    for periods, i in enumerate((np.flatnonzero(near) + 1).tolist(), start=1):
        a, b = sorted((float(t[i - 1]), float(t[i + 1])))
        t_star = _golden_min(dist_sq, a, b, xatol=(b - a) * 1e-10)
        d_rp = max(abs(r_h(t_star) - r0) / amp_r, abs(p_h(t_star) - p0) / amp_p)
        winding = (phi_h(t_star) - phi0) / TWO_PI
        d_phi = abs(winding - round(winding))
        if d_rp <= tol and d_phi <= tol:
            return ClosureInfo(closure_time=t_star, radial_periods=periods)
    return None
