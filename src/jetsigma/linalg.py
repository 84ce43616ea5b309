"""Exact linear algebra over the expression field, and small symbolic matrices.

Every elimination goes through one routine, ``_lift``: the entries are
already elements of the one ambient differential field of ``exprs`` (the
symbols plus the kernel and opaque atoms as generators), so they become a
``DomainMatrix`` over that field's domain as they are, sympy's ``rref``,
``det`` or ``inv`` runs there, and each result is an ``Expr`` again with no
conversion.  The exp generators form a basis of their arguments, so the
field obeys exp(a)*exp(b) = exp(a + b): the determinant of
[[exp(u), exp(u + v)], [1, exp(v)]] is zero there, and so is that of
[[exp(1/(u + 1)), exp(1)], [1, exp(u/(u + 1))]].  A pivot is an exact
nonzero test in that field.  Nothing is sampled, so no verdict depends on a
seed or on the size of a value.  Identities outside the normal form's
rewrite set are not seen: sin^2 + cos^2 - 1 is a nonzero pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from .exprs import ZERO, Expr, ExprError, _field_values, _sum_quotients, normalize, print_expr

__all__ = [
    "ExprMatrix",
    "LinearSolveResult",
    "SingularMatrixError",
    "linear_solve",
]


class SingularMatrixError(ExprError):
    """A matrix required to be invertible has identically vanishing determinant."""


def _lift(rows: Sequence[Sequence[Expr]]) -> DomainMatrix:
    """The entries as a DomainMatrix over the ambient field."""
    ncols = len(rows[0])
    elems = _field_values([normalize(e) for row in rows for e in row])
    return DomainMatrix(
        [elems[i : i + ncols] for i in range(0, len(elems), ncols)],
        (len(rows), ncols),
        elems[0].field.to_domain(),
    )


@dataclass
class LinearSolveResult:
    status: str  # "solved" | "inconsistent" | "underdetermined"
    solution: list[Expr] | None = None
    free_indices: list[int] = field(default_factory=list)
    witness: Expr | None = None  # the contradictory reduced equation (0 = witness)

    @property
    def ok(self) -> bool:
        return self.status != "inconsistent"


def linear_solve(mat: Sequence[Sequence[Expr]], rhs: Sequence[Expr]) -> LinearSolveResult:
    """Solve M x = b exactly by reducing [M | b] to reduced row echelon form.

    Returns the unique solution, an inconsistency witness (the reduced
    equation with zero coefficients and nonzero right side; in reduced row
    echelon form that right side is 1), or an underdetermined result whose
    particular solution sets the free variables to zero.  Pivot columns are
    the first columns that are independent over the expression field.  No
    equations, ragged rows and a right side of another length all raise.
    """
    if not mat:
        raise ExprError("a linear system needs at least one equation")
    n = len(mat[0])
    if any(len(row) != n for row in mat):
        raise ExprError("ragged matrix")
    if len(rhs) != len(mat):
        raise ExprError(f"{len(mat)} equation(s) but {len(rhs)} right side(s)")
    reduced, pivots = _lift([[*row, b] for row, b in zip(mat, rhs)]).rref()
    rows = reduced.to_list()
    if n in pivots:
        return LinearSolveResult("inconsistent", witness=Expr._of(rows[len(pivots) - 1][n]))
    solution = [Expr.number(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = Expr._of(rows[i][n])
    free = [c for c in range(n) if c not in pivots]
    if free:
        return LinearSolveResult("underdetermined", solution, free)
    return LinearSolveResult("solved", solution, [])


class ExprMatrix:
    """A rectangular matrix of expressions."""

    def __init__(self, entries: Sequence[Sequence[Expr]]):
        rows = tuple(tuple(normalize(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ExprError("matrix must be nonempty")
        ncols = len(rows[0])
        if any(len(row) != ncols for row in rows):
            raise ExprError("ragged matrix")
        self.entries = rows

    @staticmethod
    def identity(n: int) -> "ExprMatrix":
        return ExprMatrix(
            [[Expr.number(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(nrows: int, ncols: int) -> "ExprMatrix":
        z = Expr.number(0)
        return ExprMatrix([[z] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij) -> Expr:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> list[Expr]:
        return list(self.entries[i])

    def map(self, fn: Callable[[Expr], Expr]) -> "ExprMatrix":
        return ExprMatrix([[fn(e) for e in row] for row in self.entries])

    def transpose(self) -> "ExprMatrix":
        return ExprMatrix(
            [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def _zip(self, other: "ExprMatrix", op) -> "ExprMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ExprError("matrix shapes differ")
        return ExprMatrix([[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __add__(self, other: "ExprMatrix") -> "ExprMatrix":
        return self._zip(other, Expr.__add__)

    def __sub__(self, other: "ExprMatrix") -> "ExprMatrix":
        return self._zip(other, Expr.__sub__)

    def __matmul__(self, other: "ExprMatrix") -> "ExprMatrix":
        if self.ncols != other.nrows:
            raise ExprError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )

        def entry(row, col) -> Expr:
            # only the nonzero products enter the subfield union
            factors = [x for a, b in zip(row, col) if not (a.is_rational_zero or b.is_rational_zero) for x in (a, b)]
            if not factors:
                return ZERO
            values = _field_values(factors)
            pairs = [(a.numer * b.numer, a.denom * b.denom) for a, b in zip(values[::2], values[1::2])]
            return Expr._of(_sum_quotients(values[0].field, pairs))

        return ExprMatrix([[entry(row, col) for col in zip(*other.entries)] for row in self.entries])

    def scaled(self, factor: Expr | int) -> "ExprMatrix":
        f = normalize(factor)
        return self.map(lambda e: f * e)

    def det(self) -> Expr:
        if not self.is_square:
            raise ExprError("determinant of a non-square matrix")
        return Expr._of(_lift(self.entries).det())

    def inverse(self) -> "ExprMatrix":
        """Exact inverse over the expression field; the determinant must not
        vanish identically."""
        if not self.is_square:
            raise ExprError("inverse of a non-square matrix")
        try:
            inv = _lift(self.entries).inv()
        except DMNonInvertibleMatrixError:
            raise SingularMatrixError("matrix determinant vanishes identically") from None
        return ExprMatrix([[Expr._of(e) for e in row] for row in inv.to_list()])

    def pivot_columns(self) -> list[int]:
        """Indices of the columns outside the span of the columns before them."""
        return list(_lift(self.entries).rref()[1])

    def total_derivative(self, ctx) -> "ExprMatrix":
        from .jets import total_derivative

        return self.map(lambda e: total_derivative(e, ctx))

    def __eq__(self, other):
        return isinstance(other, ExprMatrix) and self.entries == other.entries

    def __repr__(self):
        rows = "; ".join(", ".join(print_expr(e) for e in row) for row in self.entries)
        return f"ExprMatrix[{rows}]"

