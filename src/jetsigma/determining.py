"""Symmetry determining equations for a given system under a coefficient
ansatz: residual generation, and coefficient collection for parameter-only
templates.  A concrete (fields, twist) pair is checked with
``reduction.verify_sigma_symmetry``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import sympy as sp

from .exprs import Expr, ExprError, _generators, _name_symbol, _opaque_applications, _sum_quotients
from .jets import JetContext, VectorField, VectorFieldSet
from .prolong import SigmaMatrix
from .reduction import ODESystem, symmetry_residuals

__all__ = [
    "Ansatz",
    "NotPolynomialInVarsError",
    "generate_determining",
    "DeterminingResult",
    "collect_coefficients",
]


class NotPolynomialInVarsError(ExprError):
    """The residual is not polynomial in the requested collection variables."""


@dataclass
class Ansatz:
    """Coefficient templates over declared parameters and opaque functions.
    phi[i][a] is the coefficient of d/du^a for field i (the fields are
    vertical); the twist template is a full matrix.  Templates compare by
    their context and entries."""

    ctx: JetContext
    phi: list[list[Expr]]
    sigma: SigmaMatrix

    def __hash__(self):
        return hash((self.ctx, tuple(map(tuple, self.phi))))

    def __post_init__(self):
        r = len(self.phi)
        if self.sigma.r != r:
            raise ExprError("twist template size does not match the number of fields")
        for row in self.phi:
            if len(row) != self.ctx.p:
                raise ExprError("phi template row length does not match the dependents")
        legal = [Expr(self.ctx.x)] + [Expr(self.ctx.coord(a, k)) for a in range(self.ctx.p) for k in (0, 1)]
        for e in self._templates():
            for atom in _opaque_applications(e):
                for arg in atom.args:
                    if not any(arg == c for c in legal):
                        raise ExprError(f"opaque template argument {arg} is not a coordinate of order <= 1")

    def _templates(self) -> list[Expr]:
        r = self.sigma.r
        return [e for row in self.phi for e in row] + [self.sigma[i, j] for i in range(r) for j in range(r)]

    def fields(self) -> VectorFieldSet:
        return VectorFieldSet([VectorField.on_base(self.ctx, Expr.number(0), list(row)) for row in self.phi])

    def has_opaque(self) -> bool:
        return any(next(_opaque_applications(e), None) is not None for e in self._templates())


@dataclass
class DeterminingResult:
    residuals: dict[tuple[int, int], Expr]  # (field, equation) -> residual on shell
    coefficient_equations: list[Expr] | None  # collected when templates are parameter-only


def generate_determining(
    sys: ODESystem, ansatz: Ansatz, collect_vars: Sequence[sp.Symbol | str] | None = None
) -> DeterminingResult:
    """Flow the ansatz through the twisted prolongation, apply each field to
    each equation, and restrict to the solution manifold.  For parameter-only
    templates the residuals are additionally decomposed into coefficient
    equations, one per monomial in the jet coordinates outside the template
    argument lists.  No residual is zero-tested here."""
    residuals = symmetry_residuals(ansatz.fields(), ansatz.sigma, sys)
    coeff_eqs: list[Expr] | None = None
    if not ansatz.has_opaque():
        if collect_vars is None:
            collect_syms = _default_collect_vars(residuals.values(), ansatz.ctx)
        else:
            table = ansatz.ctx.table
            collect_syms = [table.lookup(v) if isinstance(v, str) else v for v in collect_vars]
        coeff_eqs = []
        for key in sorted(residuals):
            coeff_eqs.extend(collect_coefficients(residuals[key], collect_syms))
        # dedupe equal equations, preserving order
        unique: list[Expr] = []
        for e in coeff_eqs:
            if not e.is_rational_zero and not any(e == u for u in unique):
                unique.append(e)
        coeff_eqs = unique
    return DeterminingResult(residuals, coeff_eqs)


def _default_collect_vars(residuals, ctx: JetContext) -> list[sp.Symbol]:
    """Jet coordinates of order >= 1 that occur polynomially (outside every
    kernel/opaque argument) in the residuals."""
    candidates: set[sp.Symbol] = set()
    hidden: set[sp.Symbol] = set()
    for r in residuals:
        for _, g, atom in _generators(r._field()):
            if atom is not None:
                hidden |= atom.free_symbols
                continue
            index = ctx.table.jet_index(g)
            if index is not None and index[1] >= 1:
                candidates.add(g)
    return sorted(candidates - hidden, key=lambda s: s.name)


def collect_coefficients(residual: Expr, collect_vars: Sequence[sp.Symbol | str]) -> list[Expr]:
    """Coefficients of the residual as a polynomial in the given coordinates
    (kernel and opaque applications count as part of the coefficients); their
    joint vanishing is equivalent to the residual vanishing identically in
    those variables.  They are read off the numerator's terms, in decreasing
    lex order of their exponents in the coordinates.  A string names a
    coordinate by its canonical name or an alias (``u_1`` or ``u_x``)."""
    syms = [_name_symbol(v) if isinstance(v, str) else v for v in collect_vars]
    if residual.is_rational_zero or not syms:
        return []
    f = residual._field()
    field, numer, denom = f.field, f.numer, f.denom
    den = Expr._of(field.raw_new(denom, field.ring.one))
    if den.free_symbols & set(syms):
        raise NotPolynomialInVarsError(f"residual denominator {den} involves the collection variables")
    for _, s, atom in _generators(f):
        if atom is not None and atom.free_symbols & set(syms):
            raise NotPolynomialInVarsError(
                f"collection variable occurs inside the non-polynomial term {Expr(s)}"
            )
    slots = [field.symbols.index(s) for s in syms if s in field.symbols]
    groups: dict[tuple, dict] = {}
    for monom, c in numer.iterterms():
        rest = tuple(0 if i in slots else k for i, k in enumerate(monom))
        groups.setdefault(tuple(monom[i] for i in slots), {})[rest] = c
    return [Expr._of(_sum_quotients(field, [(field.ring(groups[k]), denom)])) for k in sorted(groups, reverse=True)]
