"""Common differential invariants: verification, generation by the
invariants-by-differentiation step, and functional independence."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import sympy as sp

from .exprs import CheckResult, Expr, ExprError, ZeroVerdict, diff, normalize, print_expr
from .jets import JetContext, VectorFieldSet, total_derivative
from .linalg import ExprMatrix

__all__ = [
    "InvariantTable",
    "DegenerateBaseError",
    "SeedNotInvariantError",
    "DependentSeedsError",
    "UnknownVerdictError",
    "verify_invariant",
    "ibdp_step",
    "generate_invariants",
    "independence_check",
    "IndependenceReport",
]


class DegenerateBaseError(ExprError):
    """The base invariant has identically vanishing total derivative."""


class SeedNotInvariantError(ExprError):
    def __init__(self, seed_expr: Expr, field_index: int, verdict: ZeroVerdict):
        super().__init__(
            f"seed {print_expr(seed_expr)} is not annihilated by field "
            f"{field_index + 1}: {verdict}"
        )
        self.seed = seed_expr
        self.field_index = field_index
        self.verdict = verdict


class DependentSeedsError(ExprError):
    """The supplied seeds are functionally dependent."""


class UnknownVerdictError(ExprError):
    """A required zero test came back Unknown; refusing to certify numerically."""


def verify_invariant(
    Ys: VectorFieldSet, e: Expr, trials: int = 20, seed: int = 0, deny: Sequence[Expr] = ()
) -> CheckResult:
    """Apply every field of the set to e; the residuals are keyed by field
    index.  Unknown verdicts are surfaced, never silently treated as zero."""
    residuals = {i: Y.apply(e) for i, Y in enumerate(Ys)}
    return CheckResult.test(residuals, trials=trials, seed=seed, deny=deny)


def ibdp_step(eta: Expr, zeta: Expr, ctx: JetContext) -> Expr:
    """One invariants-by-differentiation step: D_x zeta / D_x eta."""
    d_eta = total_derivative(eta, ctx)
    if d_eta.is_rational_zero:
        raise DegenerateBaseError(
            f"total derivative of the base invariant {print_expr(eta)} vanishes identically"
        )
    return total_derivative(zeta, ctx) / d_eta


@dataclass
class InvariantTable:
    """Verified common invariants organized as one differentiation chain per
    seed: chains[j][0] is the seed, chains[j][i] its i-th derived invariant."""

    eta: Expr
    chains: list[list[Expr]]
    provenance: list[list[str]]  # "seed" | "ibdp-derived", parallel to chains
    extra_base: list[Expr] = field(default_factory=list)  # additional order-0 invariants

    def all_entries(self) -> list[Expr]:
        out = [self.eta, *self.extra_base]
        for chain in self.chains:
            out.extend(chain)
        return out

    def __repr__(self):
        lines = [f"eta = {print_expr(self.eta)}"]
        for b in self.extra_base:
            lines.append(f"base invariant: {print_expr(b)}")
        for j, chain in enumerate(self.chains):
            for i, e in enumerate(chain):
                lines.append(f"zeta[{j + 1}][{i}] = {print_expr(e)} ({self.provenance[j][i]})")
        return "InvariantTable(\n  " + "\n  ".join(lines) + "\n)"


def generate_invariants(
    Ys: VectorFieldSet,
    eta: Expr,
    seeds: Sequence[Expr],
    target_order: int,
    extra_base: Sequence[Expr] = (),
    trials: int = 20,
    seed: int = 0,
    deny: Sequence[Expr] = (),
) -> InvariantTable:
    """Generate levels of common invariants by repeated differentiation steps.

    The base invariant, any extra order-0 invariants, and every seed are first
    verified against the whole set; every generated entry is re-verified, and
    functional independence of the full table is checked."""
    ctx = Ys.ctx
    if target_order < 2:
        raise ExprError("generation requires target order q > 1")
    for s in list(extra_base) + [eta] + list(seeds):
        if ctx.jet_order_of(s) > 1:
            raise ExprError(f"seed {print_expr(s)} has jet order > 1")

    def certify(candidate: Expr, what: str):
        failure = verify_invariant(Ys, candidate, trials, seed, deny).failure
        if failure is None:
            return
        if failure.verdict.is_nonzero:
            raise SeedNotInvariantError(candidate, failure.key, failure.verdict)
        raise UnknownVerdictError(
            f"cannot certify {what} {print_expr(candidate)} under field "
            f"{failure.key + 1}: zero test is Unknown"
        )

    for candidate in [eta, *extra_base, *seeds]:
        certify(candidate, "seed")
    chains: list[list[Expr]] = []
    provenance: list[list[str]] = []
    for s in seeds:
        chain = [normalize(s)]
        prov = ["seed"]
        guard = 0
        while ctx.jet_order_of(chain[-1]) < target_order:
            guard += 1
            if guard > target_order + 2:
                raise ExprError(
                    f"differentiation chain of {print_expr(s)} does not reach order "
                    f"{target_order}"
                )
            nxt = ibdp_step(eta, chain[-1], ctx)
            certify(nxt, "generated invariant")
            chain.append(nxt)
            prov.append("ibdp-derived")
        chains.append(chain)
        provenance.append(prov)
    table = InvariantTable(normalize(eta), chains, provenance, list(extra_base))
    report = independence_check(table.all_entries(), ctx)
    if report.dependent:
        raise DependentSeedsError(
            f"table entries {sorted(i + 1 for i in report.dependent)} are functionally "
            "dependent on the others"
        )
    return table


@dataclass
class IndependenceReport:
    rank: int
    dependent: list[int]  # indices of expressions in the span of the ones before them


def independence_check(exprs: Sequence[Expr], ctx: JetContext) -> IndependenceReport:
    """Symbolic rank of the Jacobian with respect to x and all jet coordinates.
    An expression is functionally dependent when its Jacobian row lies in the
    span of the rows of the expressions before it."""
    exprs = [normalize(e) for e in exprs]
    if not exprs:
        return IndependenceReport(0, [])
    max_order = max([ctx.jet_order_of(e) for e in exprs] + [ctx.max_order])
    coords: list[sp.Symbol] = [ctx.x] + [
        ctx.coord(a, k) for a in range(ctx.p) for k in range(max_order + 1)
    ]
    jac_t = ExprMatrix([[diff(e, c) for e in exprs] for c in coords])
    pivots = jac_t.pivot_columns()
    return IndependenceReport(len(pivots), [i for i in range(len(exprs)) if i not in pivots])
