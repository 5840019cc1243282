"""conedyn: central-force dynamics on a cone.

Simulation and analysis of a point mass bound to the tip of a cone by a
central potential: symplectic integration of the reduced radial system,
apsidal-angle quadrature and the closed-orbit exponent scan, action-angle
data with closed-form checks for the Kepler and oscillator cases, and
numerical verification of the conserved complex invariants and their
finite W-algebra of Poisson brackets.
"""

from .core import (
    ConeGeometry,
    Kepler,
    LogPotential,
    Oscillator,
    Params,
    PhasePoint,
    PotentialSpec,
    PowerLaw,
)
from .dynamics import (
    ClosureInfo,
    Trajectory,
    TurningPoints,
    detect_closure,
    effective_potential,
    energy,
    integrate,
    measure_apsidal_advance,
    trajectory_apsides,
    turning_points,
)
from .bertrand import (
    ApsidalResult,
    ScanReport,
    WidthLawResult,
    apsidal_angle,
    bertrand_scan,
    circular_orbit,
    radial_period,
    width_law_check,
)
from .actions import (
    ActionData,
    RationalApprox,
    frequencies,
    hamiltonian_from_actions,
    predict_closure,
    radial_action,
)
from .symmetry import (
    BracketReport,
    BracketRow,
    InvariantValue,
    WAlgebraTable,
    global_invariant,
    local_invariant,
    norm_identity_residual,
    phase_invariants,
    verify_w_algebra,
    w_algebra_table,
)
from . import errors

__version__ = "0.1.0"
