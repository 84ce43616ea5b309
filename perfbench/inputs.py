"""Seeded input generators owned by the benchmark.

They are modelled on the property-test generators and on the perturbation of
the commutation-identity acceptance criterion, but live here so that edits to
the test suite cannot change the benchmark's load.  Every generator takes a
``random.Random`` built from the run's seed; the library only ever sees the
objects they return.

A commutation trial belongs to one of ``STRUCTURES`` classes.  The class
fixes which symbols each monomial uses (drawn once from a generator of its
own, the same for every run seed); the run's seed draws the coefficients and
the perturbation.  Trials cycle through the classes, so every run meets the
same mix of structures however its seed falls, and each class is met several
times in one run.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy as sp

from jetsigma.exprs import Expr
from jetsigma.jets import JetContext, VectorField, VectorFieldSet
from jetsigma.prolong import SigmaMatrix

COEFFICIENTS = (-2, -1, 1, 2, 3)
# Each polynomial is a nonzero constant plus one linear and one quadratic
# monomial.  The tests draw the degrees at random too; fixing them keeps the
# cost of one commutation trial within a narrow band.
MONOMIAL_DEGREES = (1, 2)
STRUCTURES = 4


def structure_rng(k: int) -> random.Random:
    """The symbol choices of commutation structure ``k``; a fresh generator
    per trial, so that every trial of the class draws the same symbols."""
    return random.Random(f"commutation structure {k}")


def polynomial(rng: random.Random, symbols, shape: random.Random) -> Expr:
    """Coefficients from ``rng``, symbols from ``shape``."""
    acc = sp.Integer(rng.choice(COEFFICIENTS))
    for degree in MONOMIAL_DEGREES:
        monomial = sp.Integer(rng.choice(COEFFICIENTS))
        for _ in range(degree):
            monomial *= shape.choice(symbols)
        acc += monomial
    return Expr(acc)


def commutation_context() -> JetContext:
    return JetContext("x", ["u", "v"], 2)


def vertical_pair(rng: random.Random, ctx: JetContext, shape: random.Random) -> VectorFieldSet:
    """Two vertical fields with polynomial coefficients on the base."""
    base = [ctx.x] + [ctx.coord(a, 0) for a in range(ctx.p)]
    fields = []
    for _ in range(2):
        phis = [polynomial(rng, base, shape) for _ in range(ctx.p)]
        fields.append(VectorField.on_base(ctx, Expr.number(0), phis))
    return VectorFieldSet(fields)


def twist(rng: random.Random, ctx: JetContext, shape: random.Random, r: int = 2) -> SigmaMatrix:
    """Polynomial twist entries on the first jet bundle."""
    syms = [ctx.x] + [ctx.coord(a, k) for a in range(ctx.p) for k in (0, 1)]
    return SigmaMatrix(ctx, [[polynomial(rng, syms, shape) for _ in range(r)] for _ in range(r)])


def perturbed(rng: random.Random, Ys: VectorFieldSet) -> VectorFieldSet:
    """Add a nonzero bump to one prolonged coefficient of one field, which
    breaks the commutation identity."""
    ctx = Ys.ctx
    i = rng.randrange(len(Ys))
    a = rng.randrange(ctx.p)
    k = rng.randint(1, Ys.order)
    bump = Expr(ctx.coord(a, 0) ** 2 + 1)
    fields = []
    for idx, Y in enumerate(Ys):
        if idx != i:
            fields.append(Y)
            continue
        psi = [list(row) for row in Y.psi]
        psi[a][k] = psi[a][k] + bump
        fields.append(VectorField(ctx, Y.order, Y.xi, psi))
    return VectorFieldSet(fields)


def _near(rng: random.Random, centre: Fraction, spread: int) -> Fraction:
    """A rational within ``spread`` hundredths of ``centre``."""
    return centre + Fraction(rng.randint(-spread, spread), 100)


# Initial data of the numeric cross-check: each system's acceptance-test
# initial point, moved by at most a tenth in every coordinate.  Within that
# box the trajectories stay smooth on [0, 0.5], away from the singular sets
# u = 0 and w = 0, and the reduced equations hold to 1e-5 in sup norm.
CROSSCHECK_CENTRES = {
    "exp_coupled_pair": {"u": 0, "v": 0, "u_1": 1, "v_1": 1},
    "scaling_pair": {"u": 1, "v": 0, "u_1": Fraction(1, 2), "v_1": Fraction(1, 2)},
    "partial_rank_triple": {
        "u": 1,
        "v": Fraction(1, 2),
        "w": 1,
        "u_1": Fraction(3, 10),
        "v_1": Fraction(1, 5),
        "w_1": Fraction(1, 10),
    },
}


def initial_data(rng: random.Random, system: str) -> dict[str, Fraction]:
    return {name: _near(rng, Fraction(c), 10) for name, c in CROSSCHECK_CENTRES[system].items()}
