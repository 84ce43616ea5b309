"""Seeded random generators shared by the property tests."""

from __future__ import annotations

import random
from fractions import Fraction

import sympy as sp

from jetsigma.exprs import Expr
from jetsigma.jets import JetContext, VectorField, VectorFieldSet
from jetsigma.prolong import SigmaMatrix


def random_polynomial(rng: random.Random, symbols, degree: int = 2, terms: int = 2) -> Expr:
    """Sparse random polynomial with small integer coefficients."""
    acc = sp.Integer(rng.randint(-3, 3))
    for _ in range(terms):
        coeff = rng.choice([-2, -1, 1, 2, 3])
        monomial = sp.Integer(coeff)
        for _ in range(rng.randint(1, degree)):
            monomial *= rng.choice(symbols)
        acc += monomial
    return Expr(acc)


def random_vertical_pair(rng: random.Random, ctx: JetContext) -> VectorFieldSet:
    """Two vertical fields with degree-<=2 polynomial coefficients on the base."""
    base = [ctx.x] + [ctx.coord(a, 0) for a in range(ctx.p)]
    fields = []
    for _ in range(2):
        phis = [random_polynomial(rng, base) for _ in range(ctx.p)]
        fields.append(VectorField.on_base(ctx, Expr.number(0), phis))
    return VectorFieldSet(fields)


def random_sigma(rng: random.Random, ctx: JetContext, r: int = 2) -> SigmaMatrix:
    """Polynomial twist entries of degree <= 2 on the first jet bundle."""
    syms = [ctx.x] + [ctx.coord(a, k) for a in range(ctx.p) for k in (0, 1)]
    entries = [[random_polynomial(rng, syms) for _ in range(r)] for _ in range(r)]
    return SigmaMatrix(ctx, entries)


def random_unimodular(rng: random.Random, ctx: JetContext):
    """Product of two polynomial shear matrices: invertible with polynomial
    inverse, so the induced twist stays polynomial."""
    from jetsigma.linalg import ExprMatrix

    base = [ctx.x] + [ctx.coord(a, 0) for a in range(ctx.p)]
    one = Expr.number(1)
    zero = Expr.number(0)
    p = random_polynomial(rng, base, degree=1, terms=1)
    q = random_polynomial(rng, base, degree=1, terms=1)
    upper = ExprMatrix([[one, p], [zero, one]])
    lower = ExprMatrix([[one, zero], [q, one]])
    return upper @ lower


def random_expr(rng: random.Random, symbols, depth: int = 3, kernels: bool = True) -> Expr:
    """Random expression over +, *, integer powers, quotients, and (unless
    ``kernels`` is false) the five kernels, kept numerically mild."""

    def build(d: int) -> sp.Expr:
        if d == 0 or rng.random() < 0.3:
            if rng.random() < 0.35:
                return sp.Rational(rng.randint(-4, 4), rng.randint(1, 4))
            return rng.choice(symbols)
        op = rng.random()
        if op < 0.35:
            return build(d - 1) + build(d - 1)
        if op < 0.6:
            return build(d - 1) * build(d - 1)
        if op < 0.7:
            return build(d - 1) ** rng.randint(2, 3)
        if op < 0.78 or not kernels:
            denom = build(d - 1)
            return build(d - 1) / (denom**2 + 1)
        kernel = rng.choice([sp.exp, sp.sin, sp.cos, sp.atan, sp.log])
        arg = build(d - 1)
        if arg.has(sp.atan) or (kernel is sp.exp and arg.has(sp.log)) or not arg.free_symbols:
            # trig of arctan auto-evaluates to square roots and exp of
            # rational log multiples to fractional powers, both outside the
            # supported fragment
            arg = rng.choice(symbols)
        if kernel is sp.log:
            arg = arg**2 + 1
        if kernel is sp.exp:
            # keep exponents mild so numeric evaluation stays finite
            arg = arg / (1 + arg**2)
        return kernel(arg)

    return Expr(build(depth))


def random_point(rng: random.Random, symbols) -> dict:
    return {
        str(s): Fraction(rng.randint(1, 8), rng.randint(4, 9)) * rng.choice([-1, 1])
        for s in symbols
    }
