"""Exact linear algebra over the expression field, and small symbolic matrices.

Every elimination goes through one routine, ``_lift``: the entries are
elements of the one ambient field of ``exprs``, so each row goes over the
lcm of its denominators (``exprs._on_lcm``) into a ``DomainMatrix`` over
that field's polynomial ring, sympy's fraction-free ``rref_den`` or ``det``
runs there with no cancel, and each result is one quotient formed by the
quotient rule of ``exprs``.  Every other matrix formula is a signed sum of
products whose entries that rule forms once each, ``ExprMatrix.combination``,
with ``+``, ``-`` and ``@`` its one- and two-term cases.  The exp generators
form a basis of their arguments, so the field obeys exp(a)*exp(b) =
exp(a + b): the determinant of [[exp(u), exp(u + v)], [1, exp(v)]] is zero
there, and so is that of [[exp(1/(u + 1)), exp(1)], [1, exp(u/(u + 1))]].
A pivot is an exact nonzero test in that field.  Nothing is sampled, so no
verdict depends on a seed or on the size of a value.  Identities outside the
normal form's rewrite set are not seen: sin^2 + cos^2 - 1 is a nonzero pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from sympy.polys.matrices import DomainMatrix

from .exprs import ZERO, Expr, ExprError, _field_values, _on_lcm, _sum_quotients, _times, normalize, print_expr

__all__ = [
    "ExprMatrix",
    "LinearSolveResult",
    "SingularMatrixError",
    "linear_solve",
]


class SingularMatrixError(ExprError):
    """A matrix required to be invertible has identically vanishing determinant."""


def _lift(rows: Sequence[Sequence[Expr]]) -> tuple:
    """The entries, each row over the lcm of its denominators, as a
    DomainMatrix over the ambient ring; the quotient n/d in that field; the lcms."""
    ncols = len(rows[0])
    elems = _field_values([normalize(e) for row in rows for e in row])
    field, pairs = elems[0].field, [(f.numer, f.denom) for f in elems]
    cleared = [_on_lcm(field.ring, pairs[i : i + ncols]) for i in range(0, len(pairs), ncols)]
    matrix = DomainMatrix([r for r, _ in cleared], (len(rows), ncols), field.ring.to_domain())
    return matrix, lambda n, d: Expr._of(_sum_quotients(field, [(n, d)])), [d for _, d in cleared]


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
    matrix, quotient, _ = _lift([[*row, b] for row, b in zip(mat, rhs)])
    reduced, den, pivots = matrix.rref_den()
    rows = reduced.to_list()
    if n in pivots:
        return LinearSolveResult("inconsistent", witness=quotient(rows[len(pivots) - 1][n], den))
    solution = [Expr.number(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = quotient(rows[i][n], den)
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

    def transpose(self) -> "ExprMatrix":
        return ExprMatrix(
            [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    @staticmethod
    def combination(terms: Sequence[tuple[int, "ExprMatrix", "ExprMatrix | None"]]) -> "ExprMatrix":
        """The sum of sign*A*B over the (sign, A, B) ``terms`` (sign*A where B
        is None; each sign 1 or -1), each entry formed once from its nonzero
        products by the quotient rule of ``exprs``; a lone plain entry as it is."""
        for _, A, B in terms:
            if B is not None and A.ncols != B.nrows:
                raise ExprError(f"cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}")
        shapes = {(A.nrows, (A if B is None else B).ncols) for _, A, B in terms}
        if len(shapes) != 1:
            raise ExprError("matrix shapes differ")
        ((nrows, ncols),) = shapes
        rows = [[] for _ in range(nrows)]
        for i in range(nrows):
            for j in range(ncols):
                products = [  # (sign, factors) of each nonzero product
                    (sign, factors)
                    for sign, A, B in terms
                    for factors in ([(A.entries[i][j],)] if B is None else zip(A.entries[i], (r[j] for r in B.entries)))
                    if not any(x.is_rational_zero for x in factors)
                ]
                if len(products) < 2 and all(len(factors) == 1 for _, factors in products):
                    sign, (e,) = products[0] if products else (1, (ZERO,))
                    rows[i].append(e if sign > 0 else -e)
                    continue
                values, pairs = iter(_field_values([x for _, factors in products for x in factors])), []
                for sign, factors in products:
                    f, *g = [next(values) for _ in factors]
                    n, d = (_times(f.numer, g[0].numer), _times(f.denom, g[0].denom)) if g else (f.numer, f.denom)
                    pairs.append((n if sign > 0 else -n, d))
                rows[i].append(Expr._of(_sum_quotients(f.field, pairs)))
        return ExprMatrix(rows)

    def __add__(self, other: "ExprMatrix") -> "ExprMatrix":
        return ExprMatrix.combination([(1, self, None), (1, other, None)])

    def __sub__(self, other: "ExprMatrix") -> "ExprMatrix":
        return ExprMatrix.combination([(1, self, None), (-1, other, None)])

    def __matmul__(self, other: "ExprMatrix") -> "ExprMatrix":
        return ExprMatrix.combination([(1, self, other)])

    def det(self) -> Expr:
        if not self.is_square:
            raise ExprError("determinant of a non-square matrix")
        matrix, quotient, lcms = _lift(self.entries)
        return quotient(matrix.det(), math.prod(lcms))

    def inverse(self) -> "ExprMatrix":
        """Exact inverse over the expression field, the right half of the
        reduced form of [A | I]; the determinant must not vanish identically."""
        if not self.is_square:
            raise ExprError("inverse of a non-square matrix")
        n = self.nrows
        matrix, quotient, _ = _lift([[*a, *e] for a, e in zip(self.entries, ExprMatrix.identity(n).entries)])
        reduced, den, pivots = matrix.rref_den()
        if pivots != tuple(range(n)):
            raise SingularMatrixError("matrix determinant vanishes identically")
        return ExprMatrix([[quotient(e, den) for e in row[n:]] for row in reduced.to_list()])

    def pivot_columns(self) -> list[int]:
        """Indices of the columns outside the span of the columns before them."""
        return list(_lift(self.entries)[0].rref_den()[2])

    def total_derivative(self, ctx) -> "ExprMatrix":
        from .jets import total_derivative

        return ExprMatrix([[total_derivative(e, ctx) for e in row] for row in self.entries])

    def __eq__(self, other):
        return isinstance(other, ExprMatrix) and self.entries == other.entries

    def __repr__(self):
        rows = "; ".join(", ".join(print_expr(e) for e in row) for row in self.entries)
        return f"ExprMatrix[{rows}]"

