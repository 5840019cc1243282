"""Exception hierarchy shared by all conedyn modules."""


class ConeDynError(Exception):
    """Base class for every error raised by conedyn."""


class DomainError(ConeDynError, ValueError):
    """An argument lies outside the mathematical domain (e.g. r <= 0)."""


class StructuralError(ConeDynError, TypeError):
    """The requested operation does not exist for this potential/geometry."""


class ForbiddenEnergyError(ConeDynError):
    """Energy below the bottom of the effective potential well."""


class UnboundedMotionError(ConeDynError):
    """The (E, J) level set has no outer turning point."""


class CircularOrbitError(ConeDynError):
    """Degenerate level set r_min = r_max; use the small-oscillation limit."""


class TipCollisionError(ConeDynError):
    """A time step drove the radius through the cone tip r = 0."""

    def __init__(self, step_index: int, message: str | None = None):
        self.step_index = step_index
        if message is None:
            message = (
                f"radius crossed r = 0 at step {step_index}; "
                "reduce the time step or avoid J = 0 attractive runs"
            )
        super().__init__(message)


class IrrationalScaleError(ConeDynError):
    """A globally defined integral was requested for a geometry without an
    exact rational scale factor; only the locally defined invariant exists."""


class QuadratureError(ConeDynError):
    """A quadrature failed to produce a finite, positive integrand, or a
    bracketed root solve failed to converge."""


class ConfigError(ConeDynError, ValueError):
    """A run configuration failed validation."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
