"""Best-approximation projection dynamics for coupled monotone inclusions.

A small numpy library around one construction: a two-cut projection of an
anchor point drives both an autonomous flow and, under unit-step Euler
discretization, a strongly convergent best-approximation iteration for
Kuhn-Tucker pairs of the inclusion ``0 in A p + L* B L p``.
"""

from .diagnostics import (
    check_cap_invariance,
    check_outward_drift,
    check_projection_conditions,
    check_unique_zero,
    sample_cap,
)
from .dynamics import (
    NonFiniteError,
    Trajectory,
    VectorField,
    build_field,
    euler_eval,
    integrate_field,
    solve,
)
from .geometry import (
    Cap,
    EmptyIntersectionError,
    GEOM_TOL,
    cap_membership,
    haugazeau_projection,
    project_onto_halfspaces,
)
from .operators import (
    BallNormalCone,
    BoxNormalCone,
    L1,
    LinearMap,
    LinearMonotone,
    MonotoneOperator,
    Quadratic,
    Zero,
)
from .problems import (
    builtin_tags,
    get_instance,
    lasso_instance,
    quadratic_instance,
)
from .space import PDPoint, as_vector
from .splitting import (
    ProblemInstance,
    kt_operator,
    kt_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BallNormalCone",
    "BoxNormalCone",
    "Cap",
    "EmptyIntersectionError",
    "GEOM_TOL",
    "L1",
    "LinearMap",
    "LinearMonotone",
    "MonotoneOperator",
    "NonFiniteError",
    "PDPoint",
    "ProblemInstance",
    "Quadratic",
    "Trajectory",
    "VectorField",
    "Zero",
    "as_vector",
    "build_field",
    "builtin_tags",
    "cap_membership",
    "check_cap_invariance",
    "check_outward_drift",
    "check_projection_conditions",
    "check_unique_zero",
    "euler_eval",
    "get_instance",
    "haugazeau_projection",
    "integrate_field",
    "kt_operator",
    "kt_residual",
    "lasso_instance",
    "project_onto_halfspaces",
    "quadratic_instance",
    "sample_cap",
    "solve",
]
