"""Mixed finite elements for the 2D stationary Stokes equations.

The primary discretization couples a nonconforming linear velocity
(edge-midpoint degrees of freedom) with a continuous linear pressure, next to
three comparison pairs: the classic nonconforming-linear/constant pair and
the pressure-projection stabilized variants.
"""

from .analysis import (
    ConvergenceRecord,
    ErrorReport,
    InfSupEstimate,
    consistency_error,
    convergence_rates,
    error_norms,
    estimate_infsup,
    ih_projection,
)
from .assembly import (
    DirichletBC,
    ReducedSystem,
    SaddleSystem,
    apply_constraints,
    assemble_divergence,
    assemble_load,
    assemble_pressure_mass,
    assemble_stabilization,
    assemble_stiffness,
    build_saddle_system,
    dirichlet_from_field,
)
from .cli import main, run_convergence_study, solve_on_mesh, write_vtk
from .femspace import (
    DofMap,
    FieldCoefficients,
    QuadratureRule,
    SpaceKind,
    build_dofmap,
    interpolate,
    quadrature,
)
from .mesh import Mesh, build_edge_table, build_structured_mesh, read_mesh, write_mesh
from .pairs import PairId, parse_pair
from .problems import ProblemSpec, cavity_problem, make_problem, mms_problem
from .solver import Factorization, SolutionField, divergence_residual, solve_saddle

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRecord",
    "DirichletBC",
    "DofMap",
    "ErrorReport",
    "Factorization",
    "FieldCoefficients",
    "InfSupEstimate",
    "Mesh",
    "PairId",
    "ProblemSpec",
    "QuadratureRule",
    "ReducedSystem",
    "SaddleSystem",
    "SolutionField",
    "SpaceKind",
    "apply_constraints",
    "assemble_divergence",
    "assemble_load",
    "assemble_pressure_mass",
    "assemble_stabilization",
    "assemble_stiffness",
    "build_dofmap",
    "build_edge_table",
    "build_saddle_system",
    "build_structured_mesh",
    "cavity_problem",
    "consistency_error",
    "convergence_rates",
    "dirichlet_from_field",
    "divergence_residual",
    "error_norms",
    "estimate_infsup",
    "ih_projection",
    "interpolate",
    "main",
    "make_problem",
    "mms_problem",
    "parse_pair",
    "quadrature",
    "read_mesh",
    "run_convergence_study",
    "solve_on_mesh",
    "solve_saddle",
    "write_mesh",
    "write_vtk",
]
