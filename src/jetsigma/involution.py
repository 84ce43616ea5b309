"""Structure functions of vector-field sets, closure under the Lie bracket,
and the conditions on twist matrices that preserve involution relations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import sympy as sp

from .exprs import CheckResult, Expr, ExprError, _field_values, _generators, print_expr
from .jets import VectorField, VectorFieldSet, lie_bracket
from .linalg import ExprMatrix, linear_solve
from .prolong import SigmaMatrix, sigma_prolong

__all__ = [
    "StructureFunctions",
    "NotInvolutiveError",
    "ClosureExceededError",
    "structure_functions",
    "close_under_bracket",
    "ClosureReport",
    "check_involution_transfer",
    "InvolutionTransferReport",
    "expand_in_basis",
]


class NotInvolutiveError(ExprError):
    """A pairwise bracket leaves the pointwise span of the set."""

    def __init__(self, i: int, j: int, bracket: VectorField, detail: str):
        super().__init__(f"bracket of fields {i + 1} and {j + 1} leaves the span: {detail}")
        self.pair = (i, j)
        self.bracket = bracket
        self.detail = detail


class ClosureExceededError(ExprError):
    """Bracket closure did not terminate within the allowed number of new fields."""


@dataclass
class StructureFunctions:
    """Coefficients mu[i][j][k] with [V_i, V_j] = sum_k mu[i][j][k] V_k,
    antisymmetric in (i, j)."""

    r: int
    mu: list[list[list[Expr]]]
    domain: str = "jet"

    @staticmethod
    def from_upper(r: int, upper: dict[tuple[int, int], list[Expr]], domain: str = "jet") -> "StructureFunctions":
        zero = Expr.number(0)
        mu = [[[zero] * r for _ in range(r)] for _ in range(r)]
        for (i, j), coeffs in upper.items():
            for k in range(r):
                mu[i][j][k] = coeffs[k]
                mu[j][i][k] = -coeffs[k]
        return StructureFunctions(r, mu, domain)

    def __getitem__(self, ijk) -> Expr:
        i, j, k = ijk
        return self.mu[i][j][k]

    def is_zero(self) -> bool:
        return all(e.is_rational_zero for plane in self.mu for row in plane for e in row)

    def __repr__(self):
        parts = []
        for i in range(self.r):
            for j in range(i + 1, self.r):
                coeffs = ", ".join(print_expr(self.mu[i][j][k]) for k in range(self.r))
                parts.append(f"mu[{i + 1}{j + 1}] = ({coeffs})")
        return "StructureFunctions(" + "; ".join(parts) + ")"


def _denominator_factors(values) -> set:
    """Irreducible factors of the denominators of field elements that share
    one subfield, leaving out exp generators, which never vanish."""
    out = set()
    for f in values:
        gens = f.field.ring.gens
        exps = {gens[i] for i, _, atom in _generators(f) if atom is not None and atom.head == "exp"}
        out.update(base for base, _ in f.denom.factor_list()[1] if base not in exps)
    return out


def _constant_expansion(bracket: VectorField, basis: Sequence[VectorField]) -> list[Expr] | None:
    """Rational constants c with bracket = sum_k c_k basis[k], or None.

    Component by component, the r + 1 entries N_k/D_k are brought over the
    lcm L of their denominators; then every monomial coefficient of
    sum_k c_k N_k (L/D_k) - N_T (L/D_T) in the field generators must vanish,
    one linear system over Q for all components together, each distinct
    equation once."""
    r = len(basis)
    comps = [f.components() for f in [*basis, bracket]]
    ncomp = len(comps[-1])
    values = _field_values([c for cs in comps for c in cs])
    equations: dict[tuple[int, ...], None] = {}
    for comp in range(ncomp):
        entries = values[comp::ncomp]
        lcm = entries[0].denom
        for f in entries[1:]:
            lcm = lcm.lcm(f.denom)
        polys = [f.numer * lcm.exquo(f.denom) for f in entries]
        for monom in set().union(*polys):
            equations[tuple(int(p.get(monom, 0)) for p in polys)] = None
    if not equations:
        return [Expr.number(0)] * r
    result = linear_solve(
        [[Expr.number(c) for c in eq[:r]] for eq in equations], [Expr.number(eq[r]) for eq in equations]
    )
    return result.solution if result.ok else None


def expand_in_basis(bracket: VectorField, basis: Sequence[VectorField], restrict_singularities: bool = False):
    """Express a field in the pointwise span of a basis.

    Constant coefficients are looked for first, by one exact linear solve
    over Q; when none exist, the expansion is solved for over the expression
    field.  Both solves are exact, so no answer depends on a seed; free
    coefficients are set to zero.  With restrict_singularities (the span
    test of bracket closure), the field solve is skipped, and the answer is
    None, when the fields' coefficients exceed COMPLEXITY_BUDGET terms in
    all, and coefficients singular at points where the fields themselves
    are regular are rejected; otherwise the generic pointwise answer is
    accepted.  Returns the coefficient list, or None when no admissible
    expansion exists."""
    constant = _constant_expansion(bracket, basis)
    if constant is not None:
        return constant
    if restrict_singularities and sum(map(_field_size, [*basis, bracket])) > COMPLEXITY_BUDGET:
        return None
    vec = bracket.components()
    mat = [[f.components()[comp] for f in basis] for comp in range(len(vec))]
    result = linear_solve(mat, vec)
    if result.status == "inconsistent":
        return None
    coeffs = result.solution
    if restrict_singularities:
        # admissible coefficients are singular only where the fields already are
        values = _field_values([*coeffs, *(c for f in [*basis, bracket] for c in f.components())])
        if not _denominator_factors(values[: len(coeffs)]) <= _denominator_factors(values[len(coeffs) :]):
            return None
    return coeffs


def structure_functions(Vs: VectorFieldSet) -> StructureFunctions:
    """Solve [V_i, V_j] = sum_k mu[i][j][k] V_k for every pair; raises
    NotInvolutiveError with the offending bracket when a pair leaves the span."""
    r = len(Vs)
    upper: dict[tuple[int, int], list[Expr]] = {}
    max_jet = 0
    for i in range(r):
        for j in range(i + 1, r):
            bracket = lie_bracket(Vs[i], Vs[j])
            if bracket.is_zero_field():
                upper[(i, j)] = [Expr.number(0)] * r
                continue
            coeffs = expand_in_basis(bracket, list(Vs))
            if coeffs is None:
                labels = bracket.coordinate_labels()
                comps = bracket.components()
                desc = ", ".join(
                    f"{print_expr(c)}*{lab}" for c, lab in zip(comps, labels) if not c.is_rational_zero
                )
                raise NotInvolutiveError(i, j, bracket, desc)
            upper[(i, j)] = coeffs
            for c in coeffs:
                max_jet = max(max_jet, Vs.ctx.jet_order_of(c))
    domain = "base" if max_jet == 0 else "jet"
    return StructureFunctions.from_upper(r, upper, domain)


# ---------------------------------------------------------------------------
# closure under the bracket
# ---------------------------------------------------------------------------


@dataclass
class ClosureReport:
    added: list[VectorField]
    stripped_factors: list[Expr]
    structure: StructureFunctions


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def _rational_factor(t: sp.Expr) -> Fraction:
    """The rational-number factor of a product (1 for a non-product)."""
    rat = sp.Mul(*[a for a in t.args if a.is_Rational]) if t.is_Mul else (t if t.is_Rational else sp.S.One)
    return Fraction(int(sp.numer(rat)), int(sp.denom(rat)))


def _coefficient_content(e: sp.Expr) -> Fraction:
    """The rational-number content of a normalized expression's terms."""
    num, den = sp.fraction(e)
    content = Fraction(0)
    for t in num.args if num.is_Add else (num,):
        fr = _rational_factor(t)
        content = fr if content == 0 else _fraction_gcd(content, fr)
    if den.is_Rational and den != 1:
        content = content / Fraction(int(den))
    return content


def _strip_rational_content(f: VectorField) -> tuple[VectorField, Expr]:
    """Divide out the common rational-number content of the coefficients."""
    contents = []
    leading = None
    for c in f.components():
        if c.is_rational_zero:
            continue
        if leading is None:
            num, _ = sp.fraction(c.sym)
            leading = _rational_factor(num.args[0] if num.is_Add else num)
        contents.append(abs(_coefficient_content(c.sym)))
    if not contents:
        return f, Expr.number(1)
    g = contents[0]
    for fr in contents[1:]:
        g = _fraction_gcd(g, fr)
    if leading is not None and leading < 0:
        g = -g
    if g in (0, 1):
        return f, Expr.number(1)
    return f.scaled(Expr.number(1 / g)), Expr.number(g)


def _nonzero_count(f: VectorField) -> int:
    return sum(1 for c in f.components() if not c.is_rational_zero)


def _reduce_against(residual: VectorField, base: Sequence[VectorField]) -> VectorField:
    """Subtract constant multiples of the original generators when doing so
    strictly simplifies the residual (fewer nonzero components); this keeps
    adjoined generators in their cleanest form.  The pivot is the first
    component of the generator that is nonzero in the field; any pivot gives
    a valid subtraction, which the component count then accepts or not."""
    for g in base:
        piv = next((k for k, c in enumerate(g.components()) if not c.is_rational_zero), None)
        if piv is None:
            continue
        num = residual.components()[piv]
        if num.is_rational_zero:
            continue
        ratio = num / g.components()[piv]
        f = ratio._field()
        if f and f.numer.is_ground and f.denom.is_ground:
            tentative = residual.minus(g.scaled(ratio))
            if _nonzero_count(tentative) < _nonzero_count(residual):
                residual = tentative
    return residual


# the closure adjoins at most this many fields; it gives up on brackets and
# generators whose coefficients are larger than this in all (``_size``), and
# skips the field solve of a span check whose entries are.  The bundled
# closures that terminate stay at or below 9 per bracket and 33 per span
# check; the standard prolongation of radial_quotient's fields grows to
# brackets of 107, then 156
MAX_NEW_FIELDS = 8
COMPLEXITY_BUDGET = 150


def _size(e: Expr) -> int:
    """The terms of a field element's numerator and denominator, with those
    of the arguments of each atom it uses."""
    f = e._field()
    args = [a for _, _, atom in _generators(f) if atom is not None for a in atom.args]
    return len(f.numer) + len(f.denom) + sum(map(_size, args))


def _field_size(f: VectorField) -> int:
    return sum(_size(c) for c in f.components())


def close_under_bracket(Vs: VectorFieldSet) -> tuple[VectorFieldSet, ClosureReport]:
    """Adjoin bracket residuals (reduced against the original generators and
    stripped of rational content) until the set is involutive.  Wildly growing
    coefficient complexity aborts the closure instead of grinding."""

    def in_span(f: VectorField, basis: list[VectorField]) -> bool:
        return expand_in_basis(f, basis, restrict_singularities=True) is not None

    base = list(Vs)
    gens = list(Vs)
    added: list[VectorField] = []
    factors: list[Expr] = []
    for _round in range(MAX_NEW_FIELDS + 2):
        new_fields: list[VectorField] = []
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                bracket = lie_bracket(gens[i], gens[j])
                if bracket.is_zero_field():
                    continue
                if _field_size(bracket) > COMPLEXITY_BUDGET:
                    raise ClosureExceededError(
                        "closure brackets grow beyond the complexity budget"
                    )
                # span checks run against the round-start set so independent
                # residuals discovered in one round are all adjoined together
                if in_span(bracket, gens):
                    continue
                residual = _reduce_against(bracket, base)
                residual, factor = _strip_rational_content(residual)
                if residual.is_zero_field() or any(residual == nf for nf in new_fields):
                    continue
                if in_span(residual, gens + new_fields):
                    continue
                if _field_size(residual) > COMPLEXITY_BUDGET:
                    raise ClosureExceededError(
                        "closure generators grow beyond the complexity budget"
                    )
                new_fields.append(residual)
                factors.append(factor)
        if not new_fields:
            structure = structure_functions(VectorFieldSet(gens))
            return VectorFieldSet(gens), ClosureReport(added, factors, structure)
        gens.extend(new_fields)
        added.extend(new_fields)
        if len(added) > MAX_NEW_FIELDS:
            raise ClosureExceededError(
                f"closure needed more than {MAX_NEW_FIELDS} new fields ({len(added)} so far)"
            )
    raise ClosureExceededError(f"closure did not terminate within {MAX_NEW_FIELDS + 2} rounds")


# ---------------------------------------------------------------------------
# involution transfer under the joint twist
# ---------------------------------------------------------------------------


@dataclass
class InvolutionTransferReport:
    mu: StructureFunctions
    Q: dict[tuple[int, int], list[Expr]]
    Q_contracted: dict[tuple[int, int], list[Expr]]
    pointwise: CheckResult  # the sufficient condition: R[i][j][k], keyed by (i, j, k)
    contracted: CheckResult  # necessary and sufficient: sum_k R[i][j][k] phi^a_k, keyed by (i, j, a)


def check_involution_transfer(
    Xs: VectorFieldSet, sigma: SigmaMatrix, trials: int = 20, seed: int = 0
) -> InvolutionTransferReport:
    """Evaluate the conditions under which the jointly twisted prolongations
    satisfy the same involution relations as the base fields.

    Uses only the first prolongations: with mu the base structure functions,

        Q[i][j][k] = Y_i(sigma[j][k]) - Y_j(sigma[i][k])
        R[i][j][k] = Q[i][j][k] + D_x mu[i][j][k]
                     + sum_m (sigma[i][m] mu[m][j][k] - sigma[j][m] mu[m][i][k]
                              - mu[i][j][m] sigma[m][k])

    or, with the rows Q_ij, R_ij and mu_ij over k, sigma_i the i-th row of
    sigma and M_j the r x r matrix of the mu[m][j][k] over (m, k),

        R_ij = Q_ij + D_x mu_ij + sigma_i M_j - sigma_j M_i - mu_ij sigma.

    The strong condition (``pointwise``) asks every R entry to vanish; the
    weak one (``contracted``) only asks the contractions R_ij Phi, with Phi
    the r x p matrix of the phi^a_k, to vanish."""
    ctx = Xs.ctx
    r = len(Xs)
    if sigma.r != r:
        raise ExprError("twist matrix size does not match the set")
    mu = structure_functions(Xs)
    Ys = sigma_prolong(Xs, sigma, 1)
    Phi = ExprMatrix([[X.phi(a) for a in range(ctx.p)] for X in Xs])
    M = [ExprMatrix([[mu[m, j, k] for k in range(r)] for m in range(r)]) for j in range(r)]
    sigma_rows = [ExprMatrix([row]) for row in sigma.entries]
    Q, q_contracted, R, contracted = {}, {}, {}, {}
    for i in range(r):
        for j in range(i + 1, r):
            Q_ij = ExprMatrix([[Ys[i].apply(sigma[j, k]) - Ys[j].apply(sigma[i, k]) for k in range(r)]])
            mu_ij = ExprMatrix([mu.mu[i][j]])
            R_ij = Q_ij + mu_ij.total_derivative(ctx) + sigma_rows[i] @ M[j] - sigma_rows[j] @ M[i] - mu_ij @ sigma
            Q[(i, j)] = Q_ij.row(0)
            q_contracted[(i, j)] = (Q_ij @ Phi).row(0)
            R.update(((i, j, k), e) for k, e in enumerate(R_ij.row(0)))
            contracted.update(((i, j, a), e) for a, e in enumerate((R_ij @ Phi).row(0)))
    return InvolutionTransferReport(
        mu,
        Q,
        q_contracted,
        CheckResult.test(R, trials=trials, seed=seed),
        CheckResult.test(contracted, trials=trials, seed=seed),
    )
