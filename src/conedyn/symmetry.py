"""Hidden-symmetry layer: conserved complex invariants and their bracket algebra.

For the Kepler and oscillator potentials on the cone the reduced dynamics
conserves, besides H and J, a complex combination

    C = (A - i B) * exp(i c s phi),      c = 1 (Kepler), c = 2 (oscillator),

with A, B real functions of (r, p_r, J).  C is single-valued on the cone
only when s is an integer.  For rational s = k/n the power Z = C^n carries
the phase exp(i c k phi) with integer winding and is a globally defined
integral of motion.  H, J, Z, Zbar close under the Poisson bracket into a
finite W-algebra (polynomial right-hand sides), verified here numerically.

Bracket convention: the canonical bracket in (r, phi; p_r, J),

    {f, g} = f_r g_pr - f_pr g_r + f_phi g_J - f_J g_phi.

Since J generates rotations and Z carries the phase exp(i c k phi), the
charge relations read {J, Z} = -i c k Z and {J, Zbar} = +i c k Zbar; the
i-absorbed convention (matching the quantum commutator normalization
[J, Z] = c k Z) drops the -i.  Reports carry both so the convention is
always explicit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import TWO_PI, Kepler, Oscillator, Params, PhasePoint
from .dynamics import _float_pow, hamiltonian
from .errors import DomainError, IrrationalScaleError, StructuralError

_ZERO_FLOOR = 1e-12  # relative comparisons switch to absolute below this


# --- Invariants on coordinates ---

def _charge(params: Params) -> int:
    """Phase multiplier c: 1 for the Kepler potential, 2 for the oscillator."""
    if isinstance(params.potential, Kepler):
        return 1
    if isinstance(params.potential, Oscillator):
        return 2
    raise StructuralError(
        f"no conserved complex invariant for {type(params.potential).__name__}"
    )


def _kind(params: Params) -> str:
    return "kepler" if _charge(params) == 1 else "oscillator"


def _cmul(a_re, a_im, b_re, b_im):
    """Complex product on real and imaginary parts, formed as CPython forms
    it, so arrays and Python complex numbers give the same bits."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _cdiv(re, im, d):
    """(re + i im) / d for a real d > 0, as CPython divides by complex(d, 0).
    The zero products keep CPython's signs of zero, which the 17-digit
    output renders as 0 or -0."""
    return (re + im * 0.0) / d, (im - re * 0.0) / d


class Invariants(NamedTuple):
    """H, A, B and Z = z_re + i z_im, each a float or an array."""

    h: object
    a: object
    b: object
    z_re: object
    z_im: object


def phase_invariants(params: Params, r, phi, p_r, J) -> Invariants:
    """H, A, B and Z = (A - iB)^n exp(i c k phi) at raw coordinates.

    The coordinates are floats or numpy arrays, taken elementwise; phi is
    reduced mod 2*pi first, as PhasePoint stores it.

        Kepler:      A = J^2/(m s^2 r) - kappa      B = J p_r/(m s)
        Oscillator:  A = J^2/(m s^2 r^2) - H        B = p_r J/(m s r)

    Z needs s = k/n exactly; z_re and z_im are None when the geometry has
    no rational form.  The power is taken by repeated squaring in CPython's
    order, so for n <= 100 (where CPython squares too) Z equals
    ``complex(A, -B)**n * cmath.exp(1j*c*k*phi)`` bit for bit.
    """
    c = _charge(params)
    m, s = params.m, params.geometry.s
    h = hamiltonian(params, r, p_r, J)
    if c == 1:
        a = J * J / (m * s * s * r) - params.potential.kappa
        b = J * p_r / (m * s)
    else:
        a = J * J / (m * s * s * r * r) - h
        b = p_r * J / (m * s * r)
    if params.geometry.rational is None:
        return Invariants(h, a, b, None, None)
    k, n = params.geometry.rational
    z_re, z_im = 1.0, 0.0
    p_re, p_im = a, -b
    while True:
        if n & 1:
            z_re, z_im = _cmul(z_re, z_im, p_re, p_im)
        n >>= 1
        if not n:
            break
        p_re, p_im = _cmul(p_re, p_im, p_re, p_im)
    angle = float(c * k) * (phi % TWO_PI)
    z_re, z_im = _cmul(z_re, z_im, np.cos(angle), np.sin(angle))
    return Invariants(h, a, b, z_re, z_im)


@dataclass(frozen=True)
class InvariantValue:
    """Value of the complex invariant at one phase point.

    ``power`` is the power of C that was taken (1 for the local invariant);
    ``k`` is the integer phase winding when the geometry is rational, else
    None.  ``multivalued`` marks values that change under phi -> phi + 2*pi.
    """

    re: float
    im: float
    kind: str
    power: int
    k: int | None
    multivalued: bool

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


def local_invariant(params: Params, pt: PhasePoint) -> InvariantValue:
    """Locally defined invariant C = (A - iB) exp(i c s phi).

    Conserved by the flow, but single-valued on the cone only for integer s;
    the ``multivalued`` flag records that.  The stored (reduced) phi is used.
    """
    inv = phase_invariants(params, pt.r, pt.phi, pt.p_r, pt.J)
    val = complex(inv.a, -inv.b) * cmath.exp(1j * _charge(params) * params.geometry.s * pt.phi)
    rational = params.geometry.rational
    integer_s = rational is not None and rational[1] == 1
    return InvariantValue(
        re=val.real,
        im=val.imag,
        kind=_kind(params),
        power=1,
        k=rational[0] if rational is not None else None,
        multivalued=not integer_s,
    )


def global_invariant(params: Params, pt: PhasePoint) -> InvariantValue:
    """Globally defined invariant Z = C^n = (A - iB)^n exp(i c k phi), s = k/n.

    Single-valued under phi -> phi + 2*pi by construction.  Requires the
    geometry to carry its exact rational form; for irrational s only the
    local invariant exists.
    """
    rational = params.geometry.rational
    if rational is None:
        raise IrrationalScaleError(
            "geometry has no rational form: only the local invariant is defined"
        )
    inv = phase_invariants(params, pt.r, pt.phi, pt.p_r, pt.J)
    return InvariantValue(
        re=float(inv.z_re),
        im=float(inv.z_im),
        kind=_kind(params),
        power=rational[1],
        k=rational[0],
        multivalued=False,
    )


def norm_identity_residual(params: Params, pt: PhasePoint) -> float:
    """Relative residual of the invariant-norm identity at one point.

    A^2 + B^2 equals 2 H J^2/(m s^2) + kappa^2 (Kepler) or
    H^2 - omega^2 J^2 / s^2 (oscillator); both follow from the definitions by
    direct algebra, so the residual should sit at machine precision.
    """
    inv = phase_invariants(params, pt.r, pt.phi, pt.p_r, pt.J)
    lhs = inv.a * inv.a + inv.b * inv.b
    m, s, h = params.m, params.geometry.s, inv.h
    if isinstance(params.potential, Kepler):
        kappa = params.potential.kappa
        rhs = 2.0 * h * pt.J * pt.J / (m * s * s) + kappa * kappa
    else:
        omega = params.potential.omega
        rhs = h * h - omega * omega * pt.J * pt.J / (s * s)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


# --- Finite-difference Poisson brackets ---

def _steps(x: np.ndarray, h: float) -> np.ndarray:
    """Difference steps for the coordinates x = (r, phi, p_r, J), shaped
    (4, N): h * max(1, |coordinate|) for the steps h and h/2, shaped
    (2, 4, N).  Raises DomainError naming the first point whose stencil
    would reach r <= 0."""
    if not h > 0.0:
        raise DomainError(f"finite-difference step must be positive, got {h}")
    delta = np.array([h, 0.5 * h])[:, None, None] * np.maximum(1.0, np.abs(x))
    bad = np.flatnonzero(~(x[0] - delta[:, 0] > 0.0).all(axis=0))
    if bad.size:
        raise DomainError(
            f"finite difference would cross r = 0 at point {bad[0]}; reduce h"
        )
    return delta


def _stencil(x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference stencils at N points for the steps h and h/2.

    ``x`` holds the coordinates (r, phi, p_r, J), shaped (4, N).  Returns the
    coordinates of the shifted points, shaped (4, 16, N) with the 16 in
    (step, coordinate, +/-) order, and the divisors 2*delta shaped (2, 4, N).
    """
    delta = _steps(x, h)
    points = np.empty((4, 2, 4, 2, x.shape[1]))
    points[...] = x[:, None, None, None]
    for c in range(4):
        points[c, :, c, 0] = x[c] + delta[:, c]
        points[c, :, c, 1] = x[c] - delta[:, c]
    return points.reshape(4, 16, -1), 2.0 * delta


def _brackets(re: np.ndarray, im: np.ndarray, den: np.ndarray,
              pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Brackets {f_i, f_j} for each pair (i, j) of fields sampled on the stencils.

    ``re`` and ``im`` hold each field's parts on the stencils of N points,
    shaped (fields, 16, N); the result's parts are shaped (pairs, N).  Each
    bracket is the Richardson extrapolation (4 b(h/2) - b(h)) / 3 of the two
    step sizes, accurate to O(h^4) for smooth fields.  The complex arithmetic
    is spelled out on real and imaginary parts in CPython's order, so the
    values equal complex-number evaluation bit for bit.
    """
    re = re.reshape(-1, 2, 4, 2, re.shape[-1])
    im = im.reshape(-1, 2, 4, 2, im.shape[-1])
    p_re, p_im = _cdiv(re[:, :, :, 0] - re[:, :, :, 1], im[:, :, :, 0] - im[:, :, :, 1], den)
    f, g = (np.array(side) for side in zip(*pairs))
    fr, fphi, fp, fj = ((p_re[f, :, i], p_im[f, :, i]) for i in range(4))
    gr, gphi, gp, gj = ((p_re[g, :, i], p_im[g, :, i]) for i in range(4))
    terms = [_cmul(*fr, *gp), _cmul(*fp, *gr), _cmul(*fphi, *gj), _cmul(*fj, *gphi)]
    b_re = terms[0][0] - terms[1][0] + terms[2][0] - terms[3][0]
    b_im = terms[0][1] - terms[1][1] + terms[2][1] - terms[3][1]
    x_re, x_im = _cmul(4.0, 0.0, b_re[:, 1], b_im[:, 1])
    return _cdiv(x_re - b_re[:, 0], x_im - b_im[:, 0], 3.0)


def poisson_bracket(f: Callable, g: Callable, pt: PhasePoint, h: float = 1e-5) -> complex:
    """Canonical bracket {f, g} at pt by central differences.

    f and g take the coordinate arrays ``(r, phi, p_r, J)`` of the stencil
    points and return one real or complex value per point; phi is passed
    unreduced.  One Richardson halving is applied, so the value is accurate
    to O(h^4) for smooth arguments.
    """
    coords, den = _stencil(np.array([[pt.r], [pt.phi], [pt.p_r], [pt.J]]), h)
    values = np.array([f(*coords), g(*coords)])
    b_re, b_im = _brackets(values.real, values.imag, den, [(0, 1)])
    return complex(b_re[0, 0], b_im[0, 0])


# --- W-algebra verification ---

_I_ABSORBED = "i-absorbed (commutator-normalized) convention"

# The eight rows of a W-algebra check: name, role, note.  Role "check" must
# hold; "finding" is recorded for adjudication.
W_ALGEBRA_ROWS = (
    ("{J,Z}", "check", "canonical bracket: -i * charge * Z"),
    ("{J,Z} i-absorbed", "finding", _I_ABSORBED),
    ("{J,Zbar}", "check", "canonical bracket: +i * charge * Zbar"),
    ("{J,Zbar} i-absorbed", "finding", _I_ABSORBED),
    ("{H,Z}", "check", "Z is a constant of motion; error scaled by |Z|"),
    ("{H,J}", "check", "central force conserves J; error scaled by |J|"),
    ("{Z,Zbar} energy-in-base", "finding", "power base A^2+B^2 (contains H)"),
    ("{Z,Zbar} energy-free-base", "finding", "power base without H"),
)
CHECK_ROWS = tuple(i for i, (_, role, _) in enumerate(W_ALGEBRA_ROWS) if role == "check")
_ZZBAR_MATCH = np.array(["neither", "energy_in_base", "energy_free_base", "both"])


class WAlgebraTable(NamedTuple):
    """The rows of :data:`W_ALGEBRA_ROWS` at N points.

    Every field but ``zzbar_match`` is shaped (8, N), one row per bracket
    row; ``zzbar_match`` is shaped (N,).
    """

    value_re: np.ndarray
    value_im: np.ndarray
    expected_re: np.ndarray
    expected_im: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    zzbar_match: np.ndarray


def _ctimes(c: complex, re, im):
    """Python complex constant c times re + i im, in CPython's order."""
    return _cmul(c.real, c.imag, re, im)


def _pick(a, b):
    """Elementwise max(a, b) as Python's max picks it: b only if b > a."""
    return np.where(b > a, b, a)


def w_algebra_table(params: Params, r, phi, p_r, J, h: float = 1e-5) -> WAlgebraTable:
    """Evaluate the W-algebra brackets at N points and compare with the closed forms.

    The coordinates are floats or 1-D arrays of one length N; phi is reduced
    mod 2*pi first, as PhasePoint stores it.  Checked relations (canonical
    bracket, charge c = 1 Kepler / 2 oscillator):

        {J, Z} = -i c k Z        {J, Zbar} = +i c k Zbar
        {H, Z} = 0               {H, J} = 0

    The i-absorbed versions (+/- c k without the i) are reported alongside as
    findings, as are both candidate closed forms for {Z, Zbar}:

        Kepler:      (4 i n^3/(m k)) J H * base^(n-1)
                     with base either A^2+B^2 = 2 n^2 J^2 H/(m k^2) + kappa^2
                     (energy in the base) or 2 n^2 J^2/(m k^2) + kappa^2
                     (energy-free base); they differ for n > 1.
        Oscillator:  -(4 i n^3/k) omega^2 J * (H^2 - omega^2 n^2 J^2/k^2)^(n-1),
                     whose base already equals A^2+B^2.

    The finite-difference value is the ground truth; ``zzbar_match`` states
    which candidate it supports at 1e-5 relative: "energy_in_base",
    "energy_free_base", "both" (they coincide, e.g. n = 1 or any oscillator
    case), or "neither".  J, H, Z and Zbar are evaluated once on the 16-point
    stencils of all points.  The right sides are formed as Python complex
    arithmetic forms them, so each entry equals the scalar complex-number
    evaluation bit for bit.  A point at which a bracket or a right side
    leaves the float range (an overflowing power base, say) gets NaN values
    and errors in all eight rows.
    """
    rational = params.geometry.rational
    if rational is None:
        raise IrrationalScaleError(
            "W-algebra verification needs an exact rational scale factor"
        )
    k, n = rational
    c, m = _charge(params), params.m
    charge = c * k
    x = np.array([r, phi, p_r, J], dtype=float).reshape(4, -1)
    x[1] %= TWO_PI
    r, phi, p_r, J = x
    inv = phase_invariants(params, r, phi, p_r, J)
    z_re, z_im = inv.z_re, inv.z_im

    # fields J, H, Z, Zbar on the stencils, evaluated once
    coords, den = _stencil(x, h)
    on = phase_invariants(params, *coords)
    flat = np.zeros_like(on.h)
    v_re, v_im = _brackets(
        np.array([coords[3], on.h, on.z_re, on.z_re]),
        np.array([flat, flat, on.z_im, -on.z_im]),
        den, [(0, 2), (0, 3), (1, 2), (1, 0), (2, 3)],
    )
    rows = [0, 0, 1, 1, 2, 3, 4, 4]  # bracket of each row: jz, jzb, hz, hj, zzb

    norm_sq = inv.a * inv.a + inv.b * inv.b
    if c == 1:
        kappa = params.potential.kappa
        pref = _cmul(*_ctimes(4j * n**3 / (m * k), J, 0.0), inv.h, 0.0)
        free = 2.0 * n * n * J * J / (m * k * k) + kappa * kappa
    else:
        omega = params.potential.omega
        pref = _ctimes(-4j * n**3 / k * omega * omega, J, 0.0)
        free = inv.h * inv.h - omega * omega * n * n * J * J / (k * k)
    cand_energy = _cmul(*pref, _float_pow(norm_sq, n - 1), 0.0)
    cand_free = _cmul(*pref, _float_pow(free, n - 1), 0.0)
    zero = np.zeros_like(z_re)
    expected = [
        _ctimes(-1j * charge, z_re, z_im),
        _ctimes(complex(charge), z_re, z_im),
        _ctimes(1j * charge, z_re, -z_im),
        _ctimes(complex(-charge), z_re, -z_im),
        (zero, zero), (zero, zero), cand_energy, cand_free,
    ]
    e_re = np.array([e[0] for e in expected])
    e_im = np.array([e[1] for e in expected])
    scale_zz = 0.01 * _pick(np.hypot(*cand_energy), np.hypot(*cand_free))
    scale = np.array([zero, zero, zero, zero, np.hypot(z_re, z_im), np.abs(J),
                      scale_zz, scale_zz])

    value_re, value_im = v_re[rows], v_im[rows]
    # a point whose brackets or right sides left the float range has no
    # bracket values: NaN in every row, so its errors are NaN too
    lost = ~np.isfinite([value_re, value_im, e_re, e_im]).all(axis=(0, 1))
    value_re[:, lost] = value_im[:, lost] = np.nan
    abs_err = np.hypot(value_re - e_re, value_im - e_im)
    rel_err = abs_err / _pick(_pick(np.hypot(e_re, e_im), scale), _ZERO_FLOOR)
    match = (rel_err[6] < 1e-5).astype(int) + 2 * (rel_err[7] < 1e-5)
    return WAlgebraTable(value_re, value_im, e_re, e_im, abs_err, rel_err,
                         _ZZBAR_MATCH[match])


@dataclass(frozen=True)
class BracketRow:
    """One numerically evaluated bracket against one candidate right side."""

    name: str
    value: complex
    expected: complex
    abs_err: float
    rel_err: float
    role: str  # "check": must hold; "finding": recorded for adjudication
    note: str = ""


@dataclass(frozen=True)
class BracketReport:
    """All verified brackets at one phase point (see :func:`w_algebra_table`)."""

    rows: list[BracketRow]
    h: float
    point: PhasePoint
    kind: str
    k: int
    n: int
    zzbar_match: str

    def worst_check_error(self) -> float:
        """Largest check-row relative error; NaN if any of them is NaN."""
        return float(np.max([row.rel_err for row in self.rows if row.role == "check"]))


def verify_w_algebra(params: Params, pt: PhasePoint, h: float = 1e-5) -> BracketReport:
    """:func:`w_algebra_table` at one phase point, as a report of eight rows."""
    t = w_algebra_table(params, pt.r, pt.phi, pt.p_r, pt.J, h)
    cols = zip(*(c[:, 0].tolist() for c in t[:6]))
    rows = [
        BracketRow(name=name, value=complex(v_re, v_im), expected=complex(e_re, e_im),
                   abs_err=abs_err, rel_err=rel_err, role=role, note=note)
        for (name, role, note), (v_re, v_im, e_re, e_im, abs_err, rel_err)
        in zip(W_ALGEBRA_ROWS, cols)
    ]
    k, n = params.geometry.rational
    return BracketReport(rows=rows, h=h, point=pt, kind=_kind(params), k=k, n=n,
                         zzbar_match=str(t.zzbar_match[0]))
