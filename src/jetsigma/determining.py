"""Symmetry determining equations for a given system under a coefficient
ansatz: residual generation, candidate verification, and coefficient
collection for parameter-only templates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import sympy as sp

from .exprs import _AMBIENT, Expr, ExprError, _used
from .jets import JetContext, VectorField, VectorFieldSet
from .prolong import SigmaMatrix
from .reduction import ODESystem, SymmetryReport, verify_sigma_symmetry

__all__ = [
    "Ansatz",
    "NotPolynomialInVarsError",
    "generate_determining",
    "DeterminingResult",
    "verify_candidate",
    "collect_coefficients",
]


class NotPolynomialInVarsError(ExprError):
    """The residual is not polynomial in the requested collection variables."""


@dataclass
class Ansatz:
    """Coefficient templates over declared parameters and opaque functions.
    phi[i][a] is the coefficient of d/du^a for field i; the twist template is
    a full matrix; xi templates default to zero (vertical fields)."""

    ctx: JetContext
    phi: list[list[Expr]]
    sigma: SigmaMatrix
    xi: list[Expr] | None = None
    xi_zero: bool = True

    def __post_init__(self):
        r = len(self.phi)
        if self.sigma.r != r:
            raise ExprError("twist template size does not match the number of fields")
        for row in self.phi:
            if len(row) != self.ctx.p:
                raise ExprError("phi template row length does not match the dependents")
        if self.xi is None:
            self.xi = [Expr.number(0)] * r
        if self.xi_zero and any(not x.is_rational_zero for x in self.xi):
            raise ExprError("xi templates must vanish when xi_zero is set")
        for row in self.phi:
            for e in row:
                self._check_args(e)
        for i in range(r):
            for j in range(r):
                self._check_args(self.sigma[i, j])

    def _check_args(self, e: Expr):
        from .exprs import _opaque_atoms  # internal, deliberate

        legal = {self.ctx.x} | {
            self.ctx.coord(a, k) for a in range(self.ctx.p) for k in (0, 1)
        }
        for node in _opaque_atoms(e.sym):
            for arg in node.args:
                if not (arg.is_Symbol and arg in legal):
                    raise ExprError(
                        f"opaque template argument {arg} is not a coordinate of order <= 1"
                    )

    def fields(self) -> VectorFieldSet:
        return VectorFieldSet(
            [
                VectorField.on_base(self.ctx, self.xi[i], list(self.phi[i]))
                for i in range(len(self.phi))
            ]
        )

    def has_opaque(self) -> bool:
        from .exprs import _opaque_atoms

        for row in self.phi:
            for e in row:
                if _opaque_atoms(e.sym):
                    return True
        for i in range(self.sigma.r):
            for j in range(self.sigma.r):
                if _opaque_atoms(self.sigma[i, j].sym):
                    return True
        return False


@dataclass
class DeterminingResult:
    residuals: dict[tuple[int, int], Expr]  # (field, equation) -> residual on shell
    coefficient_equations: list[Expr] | None  # collected when templates are parameter-only


def generate_determining(
    sys: ODESystem, ansatz: Ansatz, collect_vars: Sequence[sp.Symbol | str] | None = None, seed: int = 0
) -> DeterminingResult:
    """Flow the ansatz through the twisted prolongation, apply each field to
    each equation, and restrict to the solution manifold.  For parameter-only
    templates the residuals are additionally decomposed into coefficient
    equations, one per monomial in the jet coordinates outside the template
    argument lists."""
    report = verify_sigma_symmetry(
        ansatz.fields(), ansatz.sigma, sys, trials=1, seed=seed
    )
    residuals = dict(report.residuals)
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
        # dedupe identical equations, preserving order
        seen = set()
        unique = []
        for e in coeff_eqs:
            if not e.is_rational_zero and e.sym not in seen:
                seen.add(e.sym)
                unique.append(e)
        coeff_eqs = unique
    return DeterminingResult(residuals, coeff_eqs)


def verify_candidate(
    sys: ODESystem,
    Xs: VectorFieldSet,
    sigma: SigmaMatrix,
    trials: int = 20,
    seed: int = 0,
    deny: Sequence[Expr] = (),
) -> SymmetryReport:
    """Check a concrete (fields, twist) pair against the system; the report
    carries one residual per (field, equation) pair."""
    return verify_sigma_symmetry(Xs, sigma, sys, trials=trials, seed=seed, deny=deny)


def _default_collect_vars(residuals, ctx: JetContext) -> list[sp.Symbol]:
    """Jet coordinates of order >= 1 that occur polynomially (outside every
    kernel/opaque argument) in the residuals."""
    candidates: set[sp.Symbol] = set()
    hidden: set[sp.Symbol] = set()
    for r in residuals:
        f = r._field()
        for i in _used(f):
            g = f.field.symbols[i]
            atom = _AMBIENT.atoms.get(g)
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
    coordinate by its canonical name (``u_1``, not the alias ``u_x``);
    ``generate_determining`` resolves aliases through the symbol table."""
    syms = [sp.Symbol(v) if isinstance(v, str) else v for v in collect_vars]
    if residual.is_rational_zero or not syms:
        return []
    f = residual._field()
    field, numer, denom = f.field, f.numer, f.denom
    if Expr._of(field.raw_new(denom, field.ring.one)).free_symbols & set(syms):
        raise NotPolynomialInVarsError(
            f"residual denominator {denom.as_expr()} involves the collection variables"
        )
    for atom in filter(None, (_AMBIENT.atoms.get(field.symbols[i]) for i in _used(f))):
        if atom.free_symbols & set(syms):
            raise NotPolynomialInVarsError(
                f"collection variable occurs inside the non-polynomial term {atom.tree}"
            )
    slots = [field.symbols.index(s) for s in syms if s in field.symbols]
    groups: dict[tuple, dict] = {}
    for monom, c in numer.iterterms():
        rest = tuple(0 if i in slots else k for i, k in enumerate(monom))
        groups.setdefault(tuple(monom[i] for i in slots), {})[rest] = c
    return [Expr._of(field.new(field.ring(groups[k]), denom)) for k in sorted(groups, reverse=True)]
