"""Structure functions of vector-field sets, closure under the Lie bracket,
and the conditions on twist matrices that preserve involution relations."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import sympy as sp

from .exprs import Expr, ExprError, atomize, exp_monomials, is_zero, print_expr
from .jets import VectorField, VectorFieldSet, lie_bracket, total_derivative
from .linalg import linear_solve
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


def _sample_rational_point(symbols, rng: random.Random):
    return {
        s: sp.Rational((-1 if rng.random() < 0.5 else 1) * rng.randint(1, 19), rng.randint(1, 7))
        for s in symbols
    }


def _denominator_factors(exprs) -> set:
    """Irreducible factors occurring in the denominators of the expressions."""
    out = set()
    for e in exprs:
        _, den = sp.fraction(e.sym)
        if den == 1:
            continue
        try:
            _, factors = sp.factor_list(den)
        except sp.PolynomialError:
            factors = [(den, 1)]
        for base, _mult in factors:
            out.add(sp.factor(base))
    return out


def _admissible_coefficients(coeffs: Sequence[Expr], allowed: set) -> bool:
    """Structure coefficients may only be singular where the fields already
    are: every denominator factor must come from the basis or the bracket."""
    for c in coeffs:
        _, den = sp.fraction(c.sym)
        if den == 1 or den.is_Rational:
            continue
        try:
            _, factors = sp.factor_list(den)
        except sp.PolynomialError:
            factors = [(den, 1)]
        for base, _mult in factors:
            if sp.factor(base) not in allowed:
                return False
    return True


def expand_in_basis(
    bracket: VectorField,
    basis: Sequence[VectorField],
    seed: int = 0,
    restrict_singularities: bool = False,
    complexity_budget: int | None = None,
):
    """Express a field in the pointwise span of a basis.

    Tries a constant-coefficient expansion first (sampled exactly over Q, then
    certified symbolically); falls back to symbolic elimination over the
    expression field.  With restrict_singularities, coefficients singular at
    points where the fields themselves are regular are rejected (used during
    bracket closure); otherwise the generic pointwise answer is accepted.
    Returns the coefficient list, or None when no admissible expansion
    exists."""
    r = len(basis)
    allowed = _denominator_factors(
        [c for f in list(basis) + [bracket] for c in f.components()]
    )
    # fast path: constant coefficients, confirmed symbolically
    comps = [f.components() for f in [*basis, bracket]]
    flat, restore = atomize(c.sym for cs in comps for c in cs)
    # related exp atoms get related sample values, so a point of the
    # pointwise pre-check below lies on the actual field
    subs = exp_monomials(restore)
    flat = [e.xreplace(subs) for e in flat]
    it = iter(flat)
    *basis_syms, bracket_syms = [[next(it) for _ in cs] for cs in comps]
    symbols = sorted({s for e in flat for s in e.free_symbols}, key=lambda s: s.name)
    rng = random.Random(seed)
    rows: list[list[Expr]] = []
    rhs: list[Expr] = []
    points = 0
    attempts = 0
    while points < max(3, r) and attempts < 40:
        attempts += 1
        pt = _sample_rational_point(symbols, rng)
        new_rows = [
            [basis_syms[k][comp].xreplace(pt) for k in range(r)] for comp in range(len(bracket_syms))
        ]
        new_rhs = [b.xreplace(pt) for b in bracket_syms]
        if not all(v.is_Rational for row in new_rows + [new_rhs] for v in row):
            continue
        rows.extend([Expr(v) for v in row] for row in new_rows)
        rhs.extend(Expr(b) for b in new_rhs)
        points += 1
    if points >= 3:
        candidate = linear_solve(rows, rhs)
        if candidate.ok and _expansion_residual_is_zero(bracket, basis, candidate.solution):
            return candidate.solution
        # pointwise rank pre-check: if the expansion is inconsistent at a
        # sample point, no expansion can exist and the costly symbolic
        # elimination is skipped
        ncomp = len(bracket_syms)
        for block in range(0, len(rows), ncomp):
            if not linear_solve(rows[block : block + ncomp], rhs[block : block + ncomp]).ok:
                return None
    # symbolic path
    mat = [[basis[k].components()[comp] for k in range(r)] for comp in range(len(bracket.components()))]
    vec = bracket.components()
    if complexity_budget is not None:
        size = sum(sp.count_ops(e.sym) for row in mat for e in row)
        size += sum(sp.count_ops(e.sym) for e in vec)
        if size > complexity_budget:
            return None
    result = linear_solve(mat, vec)
    if result.status == "inconsistent":
        return None
    coeffs = result.solution
    if restrict_singularities and not _admissible_coefficients(coeffs, allowed):
        return None
    if _expansion_residual_is_zero(bracket, basis, coeffs):
        return coeffs
    return None


def _expansion_residual_is_zero(bracket, basis, coeffs) -> bool:
    residual = bracket
    for c, g in zip(coeffs, basis):
        residual = residual.minus(g.scaled(c))
    return residual.is_zero_field()


def structure_functions(Vs: VectorFieldSet, seed: int = 0) -> StructureFunctions:
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
            coeffs = expand_in_basis(bracket, list(Vs), seed=seed)
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


def _pivot_coordinate(f: VectorField, seed: int) -> int | None:
    for idx, c in enumerate(f.components()):
        if c.is_rational_zero:
            continue
        verdict = is_zero(c, trials=6, seed=seed + idx)
        if verdict.is_nonzero:
            return idx
    return None


def _coefficient_content(e: sp.Expr) -> Fraction:
    """The rational-number content of a normalized expression's terms."""
    num, den = sp.fraction(e)
    terms = num.args if num.is_Add else (num,)
    content = Fraction(0)
    for t in terms:
        rat = sp.S.One
        if t.is_Mul:
            rat = sp.Mul(*[a for a in t.args if a.is_Rational])
        elif t.is_Rational:
            rat = t
        fr = Fraction(int(sp.numer(rat)), int(sp.denom(rat)))
        content = (
            fr
            if content == 0
            else Fraction(
                __import__("math").gcd(content.numerator * fr.denominator, fr.numerator * content.denominator),
                content.denominator * fr.denominator,
            )
        )
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
        fr = _coefficient_content(c.sym)
        if leading is None:
            num, _ = sp.fraction(c.sym)
            lead = num.args[0] if num.is_Add else num
            rat = sp.Mul(*[a for a in lead.args if a.is_Rational]) if lead.is_Mul else (lead if lead.is_Rational else sp.S.One)
            leading = Fraction(int(sp.numer(rat)), int(sp.denom(rat)))
        contents.append(abs(fr))
    if not contents:
        return f, Expr.number(1)
    g = contents[0]
    for fr in contents[1:]:
        g = Fraction(
            __import__("math").gcd(g.numerator * fr.denominator, fr.numerator * g.denominator),
            g.denominator * fr.denominator,
        )
    if leading is not None and leading < 0:
        g = -g
    if g in (0, 1):
        return f, Expr.number(1)
    return f.scaled(Expr.number(1 / g)), Expr.number(g)


def _nonzero_count(f: VectorField) -> int:
    return sum(1 for c in f.components() if not c.is_rational_zero)


def _reduce_against(residual: VectorField, base: Sequence[VectorField], seed: int) -> VectorField:
    """Subtract constant multiples of the original generators when doing so
    strictly simplifies the residual (fewer nonzero components); this keeps
    adjoined generators in their cleanest form."""
    for g in base:
        piv = _pivot_coordinate(g, seed)
        if piv is None:
            continue
        num = residual.components()[piv]
        if num.is_rational_zero:
            continue
        ratio = num / g.components()[piv]
        if ratio.sym.is_Rational and not ratio.is_rational_zero:
            tentative = residual.minus(g.scaled(ratio))
            if _nonzero_count(tentative) < _nonzero_count(residual):
                residual = tentative
    return residual


def close_under_bracket(
    Vs: VectorFieldSet, max_new: int = 8, seed: int = 0, complexity_budget: int = 600
) -> tuple[VectorFieldSet, ClosureReport]:
    """Adjoin bracket residuals (reduced against the original generators and
    stripped of rational content) until the set is involutive.  Wildly growing
    coefficient complexity aborts the closure instead of grinding."""
    if max_new < 0:
        raise ExprError("max_new must be >= 0")
    base = list(Vs)
    gens = list(Vs)
    added: list[VectorField] = []
    factors: list[Expr] = []
    for _round in range(max_new + 2):
        new_fields: list[VectorField] = []
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                bracket = lie_bracket(gens[i], gens[j])
                if bracket.is_zero_field():
                    continue
                if sum(sp.count_ops(c.sym) for c in bracket.components()) > complexity_budget:
                    raise ClosureExceededError(
                        "closure brackets grow beyond the complexity budget"
                    )
                # span checks run against the round-start set so independent
                # residuals discovered in one round are all adjoined together
                if (
                    expand_in_basis(
                        bracket,
                        gens,
                        seed=seed,
                        restrict_singularities=True,
                        complexity_budget=complexity_budget,
                    )
                    is not None
                ):
                    continue
                residual = _reduce_against(bracket, base, seed)
                residual, factor = _strip_rational_content(residual)
                if residual.is_zero_field() or any(residual == nf for nf in new_fields):
                    continue
                if (
                    expand_in_basis(
                        residual,
                        gens + new_fields,
                        seed=seed,
                        restrict_singularities=True,
                        complexity_budget=complexity_budget,
                    )
                    is not None
                ):
                    continue
                if sum(sp.count_ops(c.sym) for c in residual.components()) > complexity_budget:
                    raise ClosureExceededError(
                        "closure generators grow beyond the complexity budget"
                    )
                new_fields.append(residual)
                factors.append(factor)
        if not new_fields:
            structure = structure_functions(VectorFieldSet(gens), seed=seed)
            return VectorFieldSet(gens), ClosureReport(added, factors, structure)
        gens.extend(new_fields)
        added.extend(new_fields)
        if len(added) > max_new:
            raise ClosureExceededError(
                f"closure needed more than {max_new} new fields ({len(added)} so far)"
            )
    raise ClosureExceededError(f"closure did not terminate within {max_new + 2} rounds")


# ---------------------------------------------------------------------------
# involution transfer under the joint twist
# ---------------------------------------------------------------------------


@dataclass
class InvolutionTransferReport:
    mu: StructureFunctions
    Q: dict[tuple[int, int], list[Expr]]
    R: dict[tuple[int, int], list[Expr]]
    contracted: dict[tuple[int, int], list[Expr]]  # sum_k R[i][j][k] * phi^a_k, per a
    Q_contracted: dict[tuple[int, int], list[Expr]]
    holds_pointwise: bool  # the sufficient condition: every R entry vanishes
    holds_contracted: bool  # the weaker necessary-and-sufficient contracted form

    def __str__(self):
        lines = [
            f"pointwise twist condition: {'holds' if self.holds_pointwise else 'fails'}",
            f"contracted twist condition: {'holds' if self.holds_contracted else 'fails'}",
        ]
        for (i, j), q in sorted(self.Q.items()):
            lines.append(
                f"  Q[{i + 1}{j + 1}] = (" + ", ".join(print_expr(e) for e in q) + ")"
            )
        return "\n".join(lines)


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

    The strong condition asks every R entry to vanish; the weak one only asks
    the contractions sum_k R[i][j][k] phi^a_k to vanish."""
    ctx = Xs.ctx
    r = len(Xs)
    if sigma.r != r:
        raise ExprError("twist matrix size does not match the set")
    mu = structure_functions(Xs, seed=seed)
    Ys = sigma_prolong(Xs, sigma, 1)
    Q: dict[tuple[int, int], list[Expr]] = {}
    R: dict[tuple[int, int], list[Expr]] = {}
    contracted: dict[tuple[int, int], list[Expr]] = {}
    q_contracted: dict[tuple[int, int], list[Expr]] = {}
    holds_pointwise = True
    holds_contracted = True
    for i in range(r):
        for j in range(i + 1, r):
            q_row = []
            r_row = []
            for k in range(r):
                q = Ys[i].apply(sigma[j, k]) - Ys[j].apply(sigma[i, k])
                extra = total_derivative(mu[i, j, k], ctx)
                for m in range(r):
                    extra = (
                        extra
                        + sigma[i, m] * mu[m, j, k]
                        - sigma[j, m] * mu[m, i, k]
                        - mu[i, j, m] * sigma[m, k]
                    )
                q_row.append(q)
                r_row.append(q + extra)
            Q[(i, j)] = q_row
            R[(i, j)] = r_row
            con = []
            qcon = []
            for a in range(ctx.p):
                acc = Expr.number(0)
                qacc = Expr.number(0)
                for k in range(r):
                    acc = acc + r_row[k] * Xs[k].phi(a)
                    qacc = qacc + q_row[k] * Xs[k].phi(a)
                con.append(acc)
                qcon.append(qacc)
            contracted[(i, j)] = con
            q_contracted[(i, j)] = qcon
            if any(not is_zero(e, trials=trials, seed=seed).is_zero for e in r_row):
                holds_pointwise = False
            if any(not is_zero(e, trials=trials, seed=seed).is_zero for e in con):
                holds_contracted = False
    return InvolutionTransferReport(
        mu, Q, R, contracted, q_contracted, holds_pointwise, holds_contracted
    )
