"""jetsigma: twisted joint prolongations of vector-field sets on jet bundles,
common differential invariants, and order reduction of invariant ODE systems."""

from .exprs import (
    Expr,
    SymbolTable,
    ZeroVerdict,
    CheckResult,
    parse,
    normalize,
    is_zero,
    diff,
    substitute,
    eval_numeric,
    print_expr,
)
from .jets import JetContext, VectorField, VectorFieldSet, lie_bracket, total_derivative
from .linalg import ExprMatrix, linear_solve
from .prolong import (
    SigmaMatrix,
    check_prolongation_commutation,
    chi_prolong,
    lambda_prolong,
    mu_prolong_vertical,
    sigma_prolong,
    standard_prolong,
)
from .involution import check_involution_transfer, close_under_bracket, structure_functions
from .invariants import generate_invariants, ibdp_step, independence_check, verify_invariant
from .equivalence import (
    gauge_transform_sigma,
    mu_sigma_bridge,
    sigma_from_A,
    standardizing_roundtrip,
    theta_from_mu,
    transform_fields,
    verify_A_sigma,
)
from .reduction import (
    CoordinateChange,
    ODESystem,
    reconstruction_check,
    reduce_system,
    restrict,
    solve_for_highest,
    symmetry_residuals,
    verify_sigma_symmetry,
)
from .determining import Ansatz, collect_coefficients, generate_determining
from .oracle import Trajectory, integrate, invariant_along_trajectory, sample_jet_point

__version__ = "0.1.0"
