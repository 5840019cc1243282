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
from .dynamics import hamiltonian
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

def _stencil(pt: PhasePoint, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference stencil at pt for the steps h and h/2.

    Returns the coordinates (r, phi, p_r, J), shaped (4, 16), of the shifted
    points in (step, coordinate, +/-) order, and the divisors 2*delta shaped
    (2, 4).  The step per coordinate is h * max(1, |coordinate|), and
    differencing must stay inside r > 0.
    """
    x = np.array([pt.r, pt.phi, pt.p_r, pt.J])
    delta = np.array([[h], [0.5 * h]]) * np.maximum(1.0, np.abs(x))
    if np.any(x[0] - delta[:, 0] <= 0.0):
        raise DomainError("finite difference would cross r = 0; reduce h")
    points = np.tile(x, (2, 4, 2, 1))
    axis = np.arange(4)
    points[:, axis, 0, axis] = x + delta
    points[:, axis, 1, axis] = x - delta
    return points.reshape(16, 4).T, 2.0 * delta


def _brackets(re: np.ndarray, im: np.ndarray, den: np.ndarray,
              pairs: list[tuple[int, int]]) -> list[complex]:
    """Brackets {f_i, f_j} for each pair (i, j) of fields sampled on the stencil.

    ``re`` and ``im`` hold each field's parts at the 16 stencil points,
    shaped (fields, 16).  Each bracket is the Richardson extrapolation
    (4 b(h/2) - b(h)) / 3 of the two step sizes, accurate to O(h^4) for
    smooth fields.  The complex arithmetic is spelled out on real and
    imaginary parts in CPython's order, so the values equal complex-number
    evaluation bit for bit.
    """
    re = re.reshape(-1, 2, 4, 2)
    im = im.reshape(-1, 2, 4, 2)
    p_re, p_im = _cdiv(re[..., 0] - re[..., 1], im[..., 0] - im[..., 1], den)
    f, g = (np.array(side) for side in zip(*pairs))
    fr, fphi, fp, fj = ((p_re[f, :, i], p_im[f, :, i]) for i in range(4))
    gr, gphi, gp, gj = ((p_re[g, :, i], p_im[g, :, i]) for i in range(4))
    terms = [_cmul(*fr, *gp), _cmul(*fp, *gr), _cmul(*fphi, *gj), _cmul(*fj, *gphi)]
    b_re = terms[0][0] - terms[1][0] + terms[2][0] - terms[3][0]
    b_im = terms[0][1] - terms[1][1] + terms[2][1] - terms[3][1]
    x_re, x_im = _cmul(4.0, 0.0, b_re[:, 1], b_im[:, 1])
    v_re, v_im = _cdiv(x_re - b_re[:, 0], x_im - b_im[:, 0], 3.0)
    return [complex(a, b) for a, b in zip(v_re.tolist(), v_im.tolist())]


def poisson_bracket(f: Callable, g: Callable, pt: PhasePoint, h: float = 1e-5) -> complex:
    """Canonical bracket {f, g} at pt by central differences.

    f and g take the coordinate arrays ``(r, phi, p_r, J)`` of the stencil
    points and return one real or complex value per point; phi is passed
    unreduced.  One Richardson halving is applied, so the value is accurate
    to O(h^4) for smooth arguments.
    """
    coords, den = _stencil(pt, h)
    values = np.array([f(*coords), g(*coords)])
    return _brackets(values.real, values.imag, den, [(0, 1)])[0]


# --- W-algebra verification ---

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
    """All verified brackets at one phase point.

    ``zzbar_match`` records which {Z, Zbar} candidate right side the numeric
    bracket supports: "energy_in_base", "energy_free_base", "both" (they
    coincide, e.g. n = 1 or any oscillator case), or "neither".
    """

    rows: list[BracketRow]
    h: float
    point: PhasePoint
    kind: str
    k: int
    n: int
    zzbar_match: str

    def worst_check_error(self) -> float:
        return max(row.rel_err for row in self.rows if row.role == "check")


def _rel_err(value: complex, expected: complex, scale: float) -> float:
    return abs(value - expected) / max(abs(expected), scale, _ZERO_FLOOR)


_I_ABSORBED = "i-absorbed (commutator-normalized) convention"


def verify_w_algebra(params: Params, pt: PhasePoint, h: float = 1e-5) -> BracketReport:
    """Evaluate the W-algebra brackets at pt and compare with the closed forms.

    Checked relations (canonical bracket, charge c = 1 Kepler / 2 oscillator):

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
    which candidate it supports at 1e-5 relative.
    """
    rational = params.geometry.rational
    if rational is None:
        raise IrrationalScaleError(
            "W-algebra verification needs an exact rational scale factor"
        )
    k, n = rational
    inv = phase_invariants(params, pt.r, pt.phi, pt.p_r, pt.J)
    kind = _kind(params)
    z = complex(inv.z_re, inv.z_im)
    hval, m, charge = inv.h, params.m, _charge(params) * k

    # fields J, H, Z, Zbar on the stencil, evaluated once
    coords, den = _stencil(pt, h)
    on = phase_invariants(params, *coords)
    zero = np.zeros(16)
    jz, jzb, hz, hj, zzb = _brackets(
        np.array([coords[3], on.h, on.z_re, on.z_re]),
        np.array([zero, zero, on.z_im, -on.z_im]),
        den, [(0, 2), (0, 3), (1, 2), (1, 0), (2, 3)],
    )

    norm_sq = inv.a * inv.a + inv.b * inv.b
    if kind == "kepler":
        kappa = params.potential.kappa
        pref = 4j * n**3 / (m * k) * pt.J * hval
        cand_energy = pref * norm_sq ** (n - 1)
        cand_free = pref * (2.0 * n * n * pt.J * pt.J / (m * k * k) + kappa * kappa) ** (n - 1)
    else:
        omega = params.potential.omega
        pref = -4j * n**3 / k * omega * omega * pt.J
        cand_energy = pref * norm_sq ** (n - 1)
        cand_free = pref * (hval * hval - omega * omega * n * n * pt.J * pt.J / (k * k)) ** (n - 1)
    scale_zz = 0.01 * max(abs(cand_energy), abs(cand_free))

    table = (  # name, bracket, expected right side, error scale floor, role, note
        ("{J,Z}", jz, -1j * charge * z, 0.0, "check", "canonical bracket: -i * charge * Z"),
        ("{J,Z} i-absorbed", jz, charge * z, 0.0, "finding", _I_ABSORBED),
        ("{J,Zbar}", jzb, 1j * charge * z.conjugate(), 0.0, "check",
         "canonical bracket: +i * charge * Zbar"),
        ("{J,Zbar} i-absorbed", jzb, -charge * z.conjugate(), 0.0, "finding", _I_ABSORBED),
        ("{H,Z}", hz, 0.0, abs(z), "check", "Z is a constant of motion; error scaled by |Z|"),
        ("{H,J}", hj, 0.0, abs(pt.J), "check", "central force conserves J; error scaled by |J|"),
        ("{Z,Zbar} energy-in-base", zzb, cand_energy, scale_zz, "finding",
         "power base A^2+B^2 (contains H)"),
        ("{Z,Zbar} energy-free-base", zzb, cand_free, scale_zz, "finding",
         "power base without H"),
    )
    rows = [
        BracketRow(name=name, value=value, expected=expected,
                   abs_err=abs(value - expected), rel_err=_rel_err(value, expected, scale),
                   role=role, note=note)
        for name, value, expected, scale, role, note in table
    ]
    match_energy = rows[6].rel_err < 1e-5
    match_free = rows[7].rel_err < 1e-5
    if match_energy and match_free:
        zzbar_match = "both"
    elif match_energy:
        zzbar_match = "energy_in_base"
    elif match_free:
        zzbar_match = "energy_free_base"
    else:
        zzbar_match = "neither"

    return BracketReport(
        rows=rows, h=h, point=pt, kind=kind, k=k, n=n, zzbar_match=zzbar_match
    )
