"""Jet-space coordinates, the total derivative, and vector fields on jet bundles.

Both derivations here are ``exprs.derivation`` over an image map built once:
the total derivative reads its symbol table's ``dx_images`` (x -> 1,
u_k -> u_{k+1}, shared by every ``extended`` context) and keeps each result
on its expression, and each vector field maps its coordinates to its
nonzero coefficients when it is built."""

from __future__ import annotations

from typing import Mapping, Sequence

import sympy as sp

from .exprs import Expr, ExprError, SymbolTable, derivation, normalize, print_expr

__all__ = ["JetContext", "VectorField", "VectorFieldSet", "total_derivative", "lie_bracket"]


class JetContext:
    """Coordinates (x, u^a_k) on the order-n jet bundle over the phase space of
    one independent and p dependent variables.  Two contexts with equal
    declarations and order are equal."""

    def __init__(
        self,
        independent: str = "x",
        dependents: Sequence[str] = ("u",),
        max_order: int = 2,
        parameters: Sequence[str] = (),
        functions: Mapping[str, int] | None = None,
    ):
        if max_order < 0:
            raise ExprError("max_order must be >= 0")
        if not dependents:
            raise ExprError("at least one dependent variable is required")
        self.table = SymbolTable(independent, dependents, parameters, functions)
        self.independent = independent
        self.dependents = tuple(dependents)
        self.max_order = max_order

    @property
    def p(self) -> int:
        return len(self.dependents)

    @property
    def x(self) -> sp.Symbol:
        return sp.Symbol(self.independent)

    def coord(self, a: int | str, k: int) -> sp.Symbol:
        name = self.dependents[a] if isinstance(a, int) else a
        return self.table.jet_symbol(name, k)

    def extended(self, max_order: int) -> "JetContext":
        if max_order == self.max_order:
            return self
        ctx = JetContext.__new__(JetContext)
        ctx.table = self.table
        ctx.independent = self.independent
        ctx.dependents = self.dependents
        ctx.max_order = max_order
        return ctx

    def jet_order_of(self, e: Expr) -> int:
        return e.jet_order(self.table)

    def parse(self, text: str) -> Expr:
        from .exprs import parse as _parse

        return _parse(text, self.table)

    def __eq__(self, other):
        return isinstance(other, JetContext) and (self.table, self.max_order) == (other.table, other.max_order)

    def __hash__(self):
        return hash((self.table, self.max_order))

    def __repr__(self):
        return f"JetContext({self.independent}; {','.join(self.dependents)}; order={self.max_order})"


def total_derivative(e: Expr, ctx: JetContext) -> Expr:
    """D_x e = d_x e + sum over present coordinates of u^a_{k+1} * de/du^a_k,
    through the image map of ``ctx``'s symbol table, which every
    ``ctx.extended(n)`` shares.  The result is kept on ``e`` with that map,
    and returned again while the map is the same object."""
    images, kept = ctx.table.dx_images, e._dx
    if kept is None or kept[0] is not images:
        kept = (images, derivation(e, images))
        object.__setattr__(e, "_dx", kept)
    return kept[1]


class VectorField:
    """A vector field xi*d/dx + sum_a,k psi[a][k]*d/du^a_k on the order-n jet
    bundle.  Its image map for ``derivation`` (each coordinate with a nonzero
    coefficient to that coefficient) is built once, with the field."""

    def __init__(self, ctx: JetContext, order: int, xi: Expr, psi: Sequence[Sequence[Expr]]):
        if order < 0:
            raise ExprError("vector field order must be >= 0")
        if len(psi) != ctx.p:
            raise ExprError(f"expected {ctx.p} coefficient rows, got {len(psi)}")
        psi = tuple(tuple(normalize(c) for c in row) for row in psi)
        for row in psi:
            if len(row) != order + 1:
                raise ExprError(f"expected {order + 1} coefficients per dependent, got {len(row)}")
        self.ctx = ctx
        self.order = order
        self.xi = normalize(xi)
        self.psi = psi
        coefficients = zip(self.coordinates(), self.components())
        self._images = {c: e for c, e in coefficients if not e.is_rational_zero}

    @staticmethod
    def on_base(ctx: JetContext, xi: Expr | int, phis: Sequence[Expr]) -> "VectorField":
        return VectorField(ctx, 0, normalize(xi), [[normalize(p)] for p in phis])

    @staticmethod
    def from_coefficients(ctx: JetContext, coeffs: Mapping, order: int, xi: Expr | int = 0) -> "VectorField":
        """Build from a {(dep name, k): Expr} mapping; absent entries are zero."""
        zero = Expr.number(0)
        psi = [[normalize(coeffs.get((dep, k), zero)) for k in range(order + 1)] for dep in ctx.dependents]
        return VectorField(ctx, order, normalize(xi), psi)

    @property
    def is_vertical(self) -> bool:
        return self.xi.is_rational_zero

    def phi(self, a: int) -> Expr:
        return self.psi[a][0]

    def coefficient(self, a: int | str, k: int) -> Expr:
        if isinstance(a, str):
            a = self.ctx.dependents.index(a)
        return self.psi[a][k]

    def apply(self, e: Expr) -> Expr:
        """Act as a derivation: xi*d_x e + sum psi[a][k]*de/du^a_k."""
        order = self.ctx.jet_order_of(e)
        if order > self.order:
            raise ExprError(
                f"expression of jet order {order} cannot be acted on by an order-{self.order} field"
            )
        return derivation(e, self._images)

    def __call__(self, e: Expr) -> Expr:
        return self.apply(e)

    def truncated(self, order: int) -> "VectorField":
        if order > self.order:
            raise ExprError("cannot truncate to a higher order")
        return VectorField(self.ctx, order, self.xi, [row[: order + 1] for row in self.psi])

    # -- algebra -------------------------------------------------------------
    def scaled(self, factor: Expr | int) -> "VectorField":
        f = normalize(factor)
        return VectorField(
            self.ctx,
            self.order,
            f * self.xi,
            [[f * c for c in row] for row in self.psi],
        )

    def plus(self, other: "VectorField") -> "VectorField":
        self._check_compatible(other)
        return VectorField(
            self.ctx,
            self.order,
            self.xi + other.xi,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.psi, other.psi)],
        )

    def minus(self, other: "VectorField") -> "VectorField":
        return self.plus(other.scaled(-1))

    def _check_compatible(self, other: "VectorField"):
        if self.ctx.table != other.ctx.table or self.order != other.order:
            raise ExprError("vector fields live on different jet spaces")

    def components(self) -> list[Expr]:
        """Coefficient vector in the fixed coordinate order (x first)."""
        return [self.xi] + [self.psi[a][k] for a in range(self.ctx.p) for k in range(self.order + 1)]

    def coordinates(self) -> list[sp.Symbol]:
        """The coordinates in the order of ``components``."""
        ctx = self.ctx
        return [ctx.x] + [ctx.coord(a, k) for a in range(ctx.p) for k in range(self.order + 1)]

    def coordinate_labels(self) -> list[str]:
        return [f"d/d{c}" for c in self.coordinates()]

    def is_zero_field(self) -> bool:
        return all(c.is_rational_zero for c in self.components())

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.order == other.order
            and self.xi == other.xi
            and self.psi == other.psi
        )

    def __hash__(self):
        return hash((self.order, self.xi, self.psi))

    def __str__(self):
        parts = []
        for c, label in zip(self.components(), self.coordinate_labels()):
            if c.is_rational_zero:
                continue
            cs = print_expr(c)
            if cs == "1":
                parts.append(label)
            elif cs == "-1":
                parts.append(f"-{label}")
            else:
                if c.sym.is_Add:
                    cs = f"({cs})"
                parts.append(f"{cs}*{label}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"VectorField({self})"


class VectorFieldSet:
    """An ordered, nonempty list of vector fields sharing one context and order."""

    def __init__(self, fields: Sequence[VectorField]):
        fields = tuple(fields)
        if not fields:
            raise ExprError("a vector field set must be nonempty")
        for f in fields[1:]:
            fields[0]._check_compatible(f)
        self.fields = fields
        self.ctx = fields[0].ctx
        self.order = fields[0].order

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i) -> VectorField:
        return self.fields[i]

    @property
    def is_vertical(self) -> bool:
        return all(f.is_vertical for f in self.fields)

    def __eq__(self, other):
        return isinstance(other, VectorFieldSet) and self.fields == other.fields

    def __repr__(self):
        inner = "; ".join(str(f) for f in self.fields)
        return f"VectorFieldSet[{inner}]"


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]: the coefficient for each coordinate c is v(w_c) - w(v_c)."""
    v._check_compatible(w)
    xi = v.apply(w.xi) - w.apply(v.xi)
    psi = [
        [v.apply(w.psi[a][k]) - w.apply(v.psi[a][k]) for k in range(v.order + 1)]
        for a in range(v.ctx.p)
    ]
    return VectorField(v.ctx, v.order, xi, psi)
