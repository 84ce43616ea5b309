"""Exact linear algebra over the expression field, and small symbolic matrices.

Every elimination goes through one routine, ``_lift``: the entries become a
``DomainMatrix`` over the rational-function field QQ(symbols, atoms), whose
generators are the free symbols plus the kernel and opaque applications and
the constants e and pi (atomized into fresh symbols), and sympy's ``rref``,
``det`` or ``inv`` runs there.  The exp atoms are first rewritten as
monomials in exponentials of Q-independent arguments
(``exprs.exp_monomials``), so the field obeys the rewrite
exp(a)*exp(b) = exp(a + b) of the normal form: exp(u)*exp(v) - exp(u + v) is
zero there, and so is the determinant of [[exp(u), exp(u + v)], [1, exp(v)]].
A pivot is an exact nonzero test in that field.  Nothing is sampled, so no
verdict depends on a seed or on the size of a value.  Identities that the
normal form does not apply either are not seen: sin^2 + cos^2 - 1 is a
nonzero pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from .exprs import Expr, ExprError, atomize, exp_monomials, normalize, print_expr

__all__ = [
    "ExprMatrix",
    "LinearSolveResult",
    "SingularMatrixError",
    "linear_solve",
]


class SingularMatrixError(ExprError):
    """A matrix required to be invertible has identically vanishing determinant."""


def _lift(rows: Sequence[Sequence[Expr]]) -> tuple[DomainMatrix, Callable[..., Expr]]:
    """The entries as a DomainMatrix over QQ(symbols, atoms), and the map from
    an element of that field back to an Expr."""
    ncols = len(rows[0])
    flat, restore = atomize(normalize(e).sym for row in rows for e in row)
    subs = exp_monomials(restore)
    if subs:
        flat = [e.xreplace(subs) for e in flat]
    gens = sorted(set().union(*(e.free_symbols for e in flat)), key=sp.default_sort_key)
    K = QQ.frac_field(*gens) if gens else QQ
    elems = [K.from_sympy(e) for e in flat]
    dm = DomainMatrix(
        [elems[i : i + ncols] for i in range(0, len(elems), ncols)], (len(rows), ncols), K
    )
    return dm, lambda el: Expr(K.to_sympy(el).xreplace(restore))


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
    the first columns that are independent over the expression field.
    """
    m = len(mat)
    if m == 0:
        return LinearSolveResult("underdetermined", [], [])
    n = len(mat[0])
    aug, decode = _lift([[*row, b] for row, b in zip(mat, rhs)])
    reduced, pivots = aug.rref()
    rows = reduced.to_list()
    if n in pivots:
        return LinearSolveResult("inconsistent", witness=decode(rows[len(pivots) - 1][n]))
    solution = [Expr.number(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = decode(rows[i][n])
    free = [c for c in range(n) if c not in pivots]
    if free:
        return LinearSolveResult("underdetermined", solution, free)
    return LinearSolveResult("solved", solution, [])


class ExprMatrix:
    """A rectangular matrix of expressions, optionally tagged with the domain
    its entries are required to live on ("base" for functions of (x, u^a))."""

    def __init__(self, entries: Sequence[Sequence[Expr]], domain: str | None = None):
        rows = tuple(tuple(normalize(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ExprError("matrix must be nonempty")
        ncols = len(rows[0])
        if any(len(row) != ncols for row in rows):
            raise ExprError("ragged matrix")
        self.entries = rows
        self.domain = domain

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

    def __add__(self, other: "ExprMatrix") -> "ExprMatrix":
        self._shape_check(other)
        return ExprMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "ExprMatrix") -> "ExprMatrix":
        self._shape_check(other)
        return ExprMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __matmul__(self, other: "ExprMatrix") -> "ExprMatrix":
        if self.ncols != other.nrows:
            raise ExprError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = sp.S.Zero
                for k in range(self.ncols):
                    acc = acc + self.entries[i][k].sym * other.entries[k][j].sym
                row.append(Expr(acc))
            out.append(row)
        return ExprMatrix(out)

    def scaled(self, factor: Expr | int) -> "ExprMatrix":
        f = normalize(factor)
        return self.map(lambda e: f * e)

    def _shape_check(self, other: "ExprMatrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ExprError("matrix shapes differ")

    def det(self) -> Expr:
        if not self.is_square:
            raise ExprError("determinant of a non-square matrix")
        dm, decode = _lift(self.entries)
        return decode(dm.det())

    def inverse(self) -> "ExprMatrix":
        """Exact inverse over the expression field; the determinant must not
        vanish identically."""
        if not self.is_square:
            raise ExprError("inverse of a non-square matrix")
        dm, decode = _lift(self.entries)
        try:
            inv = dm.inv()
        except DMNonInvertibleMatrixError:
            raise SingularMatrixError("matrix determinant vanishes identically") from None
        return ExprMatrix([[decode(e) for e in row] for row in inv.to_list()])

    def pivot_columns(self) -> list[int]:
        """Indices of the columns outside the span of the columns before them."""
        return list(_lift(self.entries)[0].rref()[1])

    def total_derivative(self, ctx) -> "ExprMatrix":
        from .jets import total_derivative

        return self.map(lambda e: total_derivative(e, ctx))

    def is_zero_matrix(self) -> bool:
        return all(e.is_rational_zero for row in self.entries for e in row)

    def __eq__(self, other):
        return isinstance(other, ExprMatrix) and self.entries == other.entries

    def __repr__(self):
        rows = "; ".join(", ".join(print_expr(e) for e in row) for row in self.entries)
        return f"ExprMatrix[{rows}]"

