"""Geometry, potentials, and phase-space types for central motion on a cone.

Every other module depends only on the definitions here.  All types are
immutable value objects and all functions are pure, so everything is safe to
share across threads.

Conventions: the cone is charted by polar coordinates (r, phi) with the polar
angle rescaled so that phi covers [0, 2*pi).  The canonical momentum J
conjugate to phi is stored *signed* (orientation of the rotation); formulas
that need the magnitude take |J| explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, StructuralError

TWO_PI = 2.0 * math.pi


# --- Geometry ---

@dataclass(frozen=True)
class ConeGeometry:
    """Cone described by the angular scale factor s.

    s is the ratio of the cone's angular range to 2*pi: s < 1 is a pointed
    cone obtained by removing a wedge (deficit angle 2*pi*(1-s)) from the
    plane, s = 1 is the plane itself, and s > 1 is an excess-angle surface
    (allowed; it has no embedding as a pointed cone).

    The optional ``rational`` pair (k, n) asserts s = k/n exactly; it is what
    makes the globally defined symmetry integral possible.  It must be
    user-supplied (use :meth:`from_rational`) and is never inferred from the
    float value of s: sniffing rationals out of floats is unsound.
    """

    s: float
    rational: tuple[int, int] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise DomainError(f"scale factor must be finite and positive, got {self.s}")
        if self.rational is not None:
            k, n = self.rational
            if k < 1 or n < 1:
                raise DomainError(f"rational form needs positive integers, got ({k}, {n})")
            if math.gcd(k, n) != 1:
                raise DomainError(f"rational form must be reduced, got ({k}, {n})")
            if self.s != k / n:
                raise DomainError(
                    f"s={self.s!r} does not equal {k}/{n}; build via ConeGeometry.from_rational"
                )

    @classmethod
    def from_rational(cls, k: int, n: int) -> ConeGeometry:
        """Geometry with s = k/n exactly; the pair is reduced automatically."""
        if k < 1 or n < 1:
            raise DomainError(f"rational form needs positive integers, got ({k}, {n})")
        g = math.gcd(k, n)
        k, n = k // g, n // g
        return cls(s=k / n, rational=(k, n))


# --- Potentials ---

@dataclass(frozen=True)
class Kepler:
    """Attractive inverse-distance potential V(r) = -kappa/r, kappa > 0."""

    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise DomainError(f"kappa must be positive, got {self.kappa}")

    def value(self, r, m: float = 1.0):
        return -self.kappa / r

    def d1(self, r, m: float = 1.0):
        return self.kappa / (r * r)

    def d2(self, r, m: float = 1.0):
        return -2.0 * self.kappa / (r * r * r)


@dataclass(frozen=True)
class Oscillator:
    """Isotropic harmonic potential V(r) = m*omega^2*r^2/2.

    Only the frequency is stored; the stiffness beta = m*omega^2 depends on
    the particle mass and is derived where needed.
    """

    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise DomainError(f"omega must be positive, got {self.omega}")

    def beta(self, m: float) -> float:
        return m * self.omega * self.omega

    def value(self, r, m: float = 1.0):
        return 0.5 * self.beta(m) * r * r

    def d1(self, r, m: float = 1.0):
        return self.beta(m) * r

    def d2(self, r, m: float = 1.0):
        return self.beta(m) + 0.0 * r


@dataclass(frozen=True)
class PowerLaw:
    """Power-law potential V(r) = A * r**alpha with alpha > -2.

    A = 0 is accepted as the free-particle limit (bound-motion operations
    will fail on it with a structural error, as they should).
    """

    amplitude: float
    exponent: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be finite, got {self.amplitude}")
        if not (math.isfinite(self.exponent) and self.exponent > -2.0):
            raise DomainError(f"exponent must be > -2, got {self.exponent}")

    def value(self, r, m: float = 1.0):
        return self.amplitude * r ** self.exponent

    def d1(self, r, m: float = 1.0):
        a = self.exponent
        return self.amplitude * a * r ** (a - 1.0)

    def d2(self, r, m: float = 1.0):
        a = self.exponent
        return self.amplitude * a * (a - 1.0) * r ** (a - 2.0)


@dataclass(frozen=True)
class LogPotential:
    """Logarithmic potential V(r) = B * ln(r/r0), B > 0."""

    strength: float
    r0: float

    def __post_init__(self):
        if not (math.isfinite(self.strength) and self.strength > 0.0):
            raise DomainError(f"strength must be positive, got {self.strength}")
        if not (math.isfinite(self.r0) and self.r0 > 0.0):
            raise DomainError(f"r0 must be positive, got {self.r0}")

    def value(self, r, m: float = 1.0):
        return self.strength * np.log(r / self.r0)

    def d1(self, r, m: float = 1.0):
        return self.strength / r

    def d2(self, r, m: float = 1.0):
        return -self.strength / (r * r)


PotentialSpec = Union[Kepler, Oscillator, PowerLaw, LogPotential]


def as_power_law(pot: PotentialSpec, m: float = 1.0) -> PowerLaw:
    """Equivalent PowerLaw form: Kepler(kappa) -> (-kappa, -1), Oscillator ->
    (m*omega^2/2, 2).  PowerLaw passes through; the log potential has none."""
    if isinstance(pot, Kepler):
        return PowerLaw(amplitude=-pot.kappa, exponent=-1.0)
    if isinstance(pot, Oscillator):
        return PowerLaw(amplitude=0.5 * pot.beta(m), exponent=2.0)
    if isinstance(pot, PowerLaw):
        return pot
    raise StructuralError(f"{type(pot).__name__} has no power-law form")


# --- Phase space ---

@dataclass(frozen=True)
class PhasePoint:
    """Canonical state (r, phi, p_r, J) on the cone.

    r is strictly positive (the tip is excluded); phi is stored reduced to
    [0, 2*pi); trajectories carry the unwrapped angle separately.  J is the
    canonical momentum conjugate to phi and keeps its sign.
    """

    r: float
    phi: float
    p_r: float
    J: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise DomainError(f"r must be finite and positive, got {self.r}")
        if not (math.isfinite(self.phi) and math.isfinite(self.p_r) and math.isfinite(self.J)):
            raise DomainError(
                f"phi, p_r and J must be finite, got ({self.phi}, {self.p_r}, {self.J})"
            )
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class Params:
    """Mass, geometry and potential bundled as one immutable system definition."""

    m: float
    geometry: ConeGeometry
    potential: PotentialSpec

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"mass must be positive, got {self.m}")
