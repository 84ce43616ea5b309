"""Relating twisted sets to standardly prolonged generators of the same module:
twist matrices from transformation matrices, gauge changes, and the bridge to
the dependent-index form of the twist."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .exprs import CheckResult, Expr, ExprError, print_expr
from .involution import StructureFunctions
from .jets import JetContext, VectorField, VectorFieldSet
from .linalg import ExprMatrix
from .prolong import SigmaMatrix, sigma_prolong, standard_prolong

__all__ = [
    "Convention",
    "sigma_from_A",
    "verify_A_sigma",
    "transform_fields",
    "standardizing_roundtrip",
    "RoundtripReport",
    "gauge_transform_sigma",
    "theta_from_mu",
    "mu_sigma_bridge",
    "BridgeResult",
]

# The two ways a transformation matrix A on the base can induce a twist:
#   "inverse_dx":  sigma = A^-1 (D_x A)   -- the standard generators are A * (twisted set)
#   "dx_inverse":  sigma = A (D_x A^-1)   -- the twisted set is A * (standard generators)
Convention = Literal["inverse_dx", "dx_inverse"]


def _check_base_matrix(A: ExprMatrix, ctx: JetContext, what: str = "transformation matrix"):
    for row in A.entries:
        for e in row:
            if ctx.jet_order_of(e) > 0:
                raise ExprError(f"{what} must live on the base (x, u): entry {print_expr(e)}")


def sigma_from_A(A: ExprMatrix, ctx: JetContext, convention: Convention = "inverse_dx") -> SigmaMatrix:
    """Twist matrix induced by an invertible matrix of base functions."""
    _check_base_matrix(A, ctx)
    if convention == "inverse_dx":
        raw = A.inverse() @ A.total_derivative(ctx)
    elif convention == "dx_inverse":
        raw = A @ A.inverse().total_derivative(ctx)
    else:
        raise ExprError(f"unknown convention {convention!r}")
    return SigmaMatrix(ctx, raw.entries)


def verify_A_sigma(
    A: ExprMatrix, sigma: SigmaMatrix, ctx: JetContext, trials: int = 20, seed: int = 0
) -> CheckResult:
    """Check D_x A = A sigma; the residuals are the entries of D_x A - A sigma,
    keyed by (row, column)."""
    return _entry_checks(ExprMatrix.combination([(1, A.total_derivative(ctx), None), (-1, A, sigma)]), trials, seed)


def _entry_checks(M: ExprMatrix, trials: int, seed: int) -> CheckResult:
    residuals = {(i, j): e for i, row in enumerate(M.entries) for j, e in enumerate(row)}
    return CheckResult.test(residuals, trials=trials, seed=seed)


def transform_fields(A: ExprMatrix, Vs: VectorFieldSet) -> VectorFieldSet:
    """New generators of the same module: (result)_i = sum_j A[i][j] V_j."""
    if A.ncols != len(Vs):
        raise ExprError(f"matrix has {A.ncols} columns but the set has {len(Vs)} fields")
    ctx, n = Vs.ctx, Vs.order + 1
    rows = (A @ ExprMatrix([V.components() for V in Vs])).entries
    return VectorFieldSet(
        VectorField(ctx, Vs.order, row[0], [row[1 + a * n : 1 + (a + 1) * n] for a in range(ctx.p)]) for row in rows
    )


@dataclass
class RoundtripReport:
    sigma: SigmaMatrix
    transformed: VectorFieldSet  # A-combinations of the standard prolongations
    twisted: VectorFieldSet  # twisted prolongations of the A-combined base fields
    check: CheckResult  # keyed by (field index, coefficient index)


def standardizing_roundtrip(
    Ws: VectorFieldSet,
    A: ExprMatrix,
    n: int,
    convention: Convention = "inverse_dx",
    trials: int = 20,
    seed: int = 0,
    deny: Sequence[Expr] = (),
) -> RoundtripReport:
    """The commuting square behind the equivalence of twisted and standard
    generators: combining standard prolongations with the matrix P equals the
    twisted prolongation (with sigma = P D_x(P^-1), which is sigma_from_A(A,
    convention)) of the P-combined fields.
    P is A itself under the "dx_inverse" convention and A^-1 under
    "inverse_dx"."""
    sigma = sigma_from_A(A, Ws.ctx, convention)
    P = A if convention == "dx_inverse" else A.inverse()
    Zs = VectorFieldSet([standard_prolong(W, n) for W in Ws])
    transformed = transform_fields(P, Zs)
    Xs = transform_fields(P, Ws)
    twisted = sigma_prolong(Xs, sigma, n)
    residuals = {
        (i, k): c
        for i, (lhs, rhs) in enumerate(zip(transformed, twisted))
        for k, c in enumerate(lhs.minus(rhs).components())
    }
    check = CheckResult.test(residuals, trials=trials, seed=seed, deny=deny)
    return RoundtripReport(sigma, transformed, twisted, check)


def gauge_transform_sigma(B: ExprMatrix, sigma: SigmaMatrix, ctx: JetContext) -> SigmaMatrix:
    """Twist under a change of module generators: B sigma B^-1 + B D_x(B^-1)."""
    _check_base_matrix(B, ctx, "gauge matrix")
    Binv = B.inverse()
    raw = ExprMatrix.combination([(1, B @ sigma, Binv), (1, B, Binv.total_derivative(ctx))])
    return SigmaMatrix(ctx, raw.entries)


def theta_from_mu(A: ExprMatrix, Ys: VectorFieldSet, mu: StructureFunctions) -> StructureFunctions:
    """Structure functions of the transformed set Z_i = A[i][j] Y_j:

        theta[i][j][k] = (A[i][m] mu[m][l][h] A[j][l]
                          + A[i][m] Y_m(A[j][h]) - A[j][m] Y_m(A[i][h])) Ainv[h][k]

    that is, theta_ij = (T_h[i][j] over h) Ainv, with Mu_h the mu[m][l][h] over
    (m, l), G_h the Y_m(A[j][h]) over (m, j) and T_h = A Mu_h A^T + A G_h - (A G_h)^T.
    """
    r = len(Ys)
    if mu.r != r or A.nrows != r or A.ncols != r:
        raise ExprError("dimension mismatch between matrix, set, and structure functions")
    Ainv = A.inverse()
    T = []
    for h in range(r):
        Mu_h = ExprMatrix([[mu[m, l, h] for l in range(r)] for m in range(r)])
        AG = A @ ExprMatrix([[Y.apply(A[j, h]) for j in range(r)] for Y in Ys])
        T.append(ExprMatrix.combination([(1, A @ Mu_h, A.transpose()), (1, AG, None), (-1, AG.transpose(), None)]))
    upper = {
        (i, j): (ExprMatrix([[T_h[i, j] for T_h in T]]) @ Ainv).row(0) for i in range(r) for j in range(i + 1, r)
    }
    return StructureFunctions.from_upper(r, upper)


@dataclass
class BridgeResult:
    S: ExprMatrix
    M: ExprMatrix
    lift: CheckResult  # the commutator entries, keyed by (row, column)


def mu_sigma_bridge(
    Phi: ExprMatrix,
    ctx: JetContext,
    S: ExprMatrix | None = None,
    M: ExprMatrix | None = None,
    trials: int = 20,
    seed: int = 0,
) -> BridgeResult:
    """Translate between the set-index twist (via S) and the dependent-index
    twist (via M) for a component matrix Phi of base vector fields:

        M = Phi S^T Phi^-1        S^T = Phi^-1 M Phi

    and the two induced prolongation twists agree on the first jet bundle iff
    [Phi^-1 (D_x Phi), S^T] = 0 (the lift check)."""
    if not Phi.is_square:
        raise ExprError("component matrix must be square (as many fields as dependents)")
    if (S is None) == (M is None):
        raise ExprError("exactly one of S and M must be given")
    Phinv = Phi.inverse()
    if S is not None:
        M = Phi @ S.transpose() @ Phinv
    else:
        S = (Phinv @ M @ Phi).transpose()
    st = S.transpose()
    core = Phinv @ Phi.total_derivative(ctx)
    return BridgeResult(S, M, _entry_checks(ExprMatrix.combination([(1, core, st), (-1, st, core)]), trials, seed))
