"""Standard and twisted prolongation operators for vector fields on jet bundles.

Every operator here iterates one step.  For a set of r fields with
coefficients psi[i][a][k] (field i, dependent a, order k), a p x p matrix
Lambda acting on the dependent index and an r x r matrix S acting on the set
index, the step is

    psi[i][a][k+1] = D_x psi[i][a][k] - u^a_{k+1} D_x xi_i
                     + sum_b Lambda[a][b] psi[i][b][k]
                     + sum_j S[i][j] (psi[j][a][k] - u^a_{k+1} xi_j)

With Psi_k the r x p matrix of the order-k coefficients, Xi the column of the
xi_i and U the row of the u^a_{k+1}, it is one matrix expression,

    Psi_{k+1} = D_x Psi_k - (D_x Xi) U + Psi_k Lambda^T + S (Psi_k - Xi U),

and the public functions fix its parts:

    standard_prolong      one field, Lambda = 0, S = 0
    lambda_prolong        one field, Lambda = 0, S = (lambda)
    sigma_prolong         Lambda = 0, S = sigma (the joint twist)
    mu_prolong_vertical   vertical fields, S = 0
    chi_prolong           vertical fields, S = -Theta^T

Iterating the step from the fields on the base produces the higher
prolongations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exprs import CheckResult, Expr, ExprError, print_expr
from .jets import JetContext, VectorField, VectorFieldSet, total_derivative
from .linalg import ExprMatrix

__all__ = [
    "SigmaMatrix",
    "ChiData",
    "NonVerticalFieldError",
    "standard_prolong",
    "lambda_prolong",
    "sigma_prolong",
    "mu_prolong_vertical",
    "chi_prolong",
    "check_prolongation_commutation",
]


class NonVerticalFieldError(ExprError):
    """An operation restricted to vertical fields received one with xi != 0."""


class SigmaMatrix(ExprMatrix):
    """Square matrix of twist functions; every entry must live on the first
    jet bundle (depend only on x, u^a, u^a_1)."""

    def __init__(self, ctx: JetContext, entries: Sequence[Sequence[Expr]]):
        super().__init__(entries)
        if not self.is_square:
            raise ExprError(f"twist matrix must be square, got {self.nrows}x{self.ncols}")
        for row in self.entries:
            for e in row:
                if ctx.jet_order_of(e) > 1:
                    raise ExprError(
                        f"twist entry depends on a jet coordinate of order >= 2: {print_expr(e)}"
                    )
        self.ctx = ctx

    @staticmethod
    def zero(ctx: JetContext, r: int) -> "SigmaMatrix":
        return SigmaMatrix(ctx, ExprMatrix.zero(r, r).entries)

    @staticmethod
    def scalar(ctx: JetContext, lam: Expr, r: int = 1) -> "SigmaMatrix":
        z = Expr.number(0)
        return SigmaMatrix(ctx, [[lam if i == j else z for j in range(r)] for i in range(r)])

    @property
    def r(self) -> int:
        return self.nrows


@dataclass(frozen=True)
class ChiData:
    """Data for the combined twist: a p x p matrix acting on the dependent
    index (entries on the base) and an r x r matrix acting on the set index."""

    Lambda: ExprMatrix
    Theta: ExprMatrix


def _prolong(
    Xs: Sequence[VectorField], n: int, Lambda: ExprMatrix | None = None, S: ExprMatrix | None = None
) -> list[VectorField]:
    """Iterate the matrix step of the module docstring from the fields on the
    base to order n; a missing matrix is the zero matrix."""
    for X in Xs:
        if X.order != 0:
            raise ExprError("prolongation starts from fields on the base (order 0)")
    ctx = Xs[0].ctx
    Xi = ExprMatrix([[X.xi] for X in Xs])
    dXi = Xi.total_derivative(ctx)
    Psis = [ExprMatrix([[X.phi(a) for a in range(ctx.p)] for X in Xs])]
    for k in range(n):
        Psi = Psis[-1]
        U = ExprMatrix([[Expr(ctx.coord(a, k + 1)) for a in range(ctx.p)]])
        step = Psi.total_derivative(ctx) - dXi @ U
        if Lambda is not None:
            step = step + Psi @ Lambda.transpose()
        if S is not None:
            step = step + S @ (Psi - Xi @ U)
        Psis.append(step)
    out_ctx = ctx if ctx.max_order >= n else ctx.extended(n)
    return [
        VectorField(out_ctx, n, X.xi, [[Psi[i, a] for Psi in Psis] for a in range(ctx.p)])
        for i, X in enumerate(Xs)
    ]


def standard_prolong(X: VectorField, n: int) -> VectorField:
    """Untwisted prolongation."""
    return _prolong([X], n)[0]


def lambda_prolong(X: VectorField, lam: Expr, n: int) -> VectorField:
    """Scalar twist by a function on the first jet bundle."""
    return _prolong([X], n, S=SigmaMatrix.scalar(X.ctx, lam))[0]


def sigma_prolong(Xs: VectorFieldSet, sigma: SigmaMatrix, n: int) -> VectorFieldSet:
    """Joint twisted prolongation of the whole set."""
    if len(Xs) != sigma.r:
        raise ExprError(f"twist matrix is {sigma.r}x{sigma.r} but the set has {len(Xs)} fields")
    return VectorFieldSet(_prolong(list(Xs), n, S=sigma))


def mu_prolong_vertical(Xs: VectorFieldSet, Lambda: ExprMatrix, n: int) -> VectorFieldSet:
    """Per-field twist acting on the dependent index; vertical fields only."""
    ctx = Xs.ctx
    if not Xs.is_vertical:
        raise NonVerticalFieldError("the dependent-index twist is defined for vertical fields only")
    if not (Lambda.is_square and Lambda.nrows == ctx.p):
        raise ExprError(f"dependent-index twist matrix must be {ctx.p}x{ctx.p}")
    return VectorFieldSet(_prolong(list(Xs), n, Lambda=Lambda))


def chi_prolong(Xs: VectorFieldSet, chi: ChiData, n: int) -> VectorFieldSet:
    """Combined twist on vertical fields: Lambda on the dependent index and
    Theta on the set index, entering the step as S = -Theta^T."""
    ctx = Xs.ctx
    r = len(Xs)
    if not Xs.is_vertical:
        raise NonVerticalFieldError("the combined twist is defined for vertical fields only")
    if not (chi.Lambda.is_square and chi.Lambda.nrows == ctx.p):
        raise ExprError(f"dependent-index part must be {ctx.p}x{ctx.p}")
    if not (chi.Theta.is_square and chi.Theta.nrows == r):
        raise ExprError(f"set-index part must be {r}x{r}")
    S = chi.Theta.transpose().scaled(-1)
    return VectorFieldSet(_prolong(list(Xs), n, Lambda=chi.Lambda, S=S))


# ---------------------------------------------------------------------------
# the commutation identity characterizing jointly twisted sets
# ---------------------------------------------------------------------------


def check_prolongation_commutation(
    Ys: VectorFieldSet, sigma: SigmaMatrix, trials: int = 20, seed: int = 0
) -> CheckResult:
    """Check, coordinatewise, the operator identity obeyed exactly by jointly
    twisted sets:

        [Y_i, D_x](c) = sum_j sigma[i][j] Y_j(c)
                        - (D_x xi_i + sum_j sigma[i][j] xi_j) D_x(c)

    for c ranging over x and the jet coordinates of order <= n-1.  Both sides
    are derivations, so agreement on the coordinates settles the identity.
    With C the row of those coordinates, Xi the column of the xi_i and Y C
    the r x m matrix of the Y_i(c), the residuals are the entries of

        R = Y(D_x C) - D_x(Y C) - sigma (Y C) + (D_x Xi + sigma Xi) (D_x C),

    keyed by (field index, coordinate name)."""
    ctx = Ys.ctx
    n = Ys.order
    if n < 1:
        raise ExprError("the commutation identity needs order >= 1")
    if len(Ys) != sigma.r:
        raise ExprError("twist matrix size does not match the set")
    coords = [ctx.x] + [ctx.coord(a, k) for a in range(ctx.p) for k in range(n)]
    C = [Expr(c) for c in coords]
    dC = ExprMatrix([[total_derivative(c, ctx) for c in C]])
    YC = ExprMatrix([[Y.apply(c) for c in C] for Y in Ys])
    YdC = ExprMatrix([[Y.apply(dc) for dc in dC.row(0)] for Y in Ys])
    Xi = ExprMatrix([[Y.xi] for Y in Ys])
    R = YdC - YC.total_derivative(ctx) - sigma @ YC + (Xi.total_derivative(ctx) + sigma @ Xi) @ dC
    residuals = {(i, str(c)): R[i, m] for i in range(len(Ys)) for m, c in enumerate(coords)}
    return CheckResult.test(residuals, trials=trials, seed=seed)
