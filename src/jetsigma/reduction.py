"""ODE systems on jet space, restriction to the solution manifold, twisted
symmetry verification, and order reduction through invariant coordinates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import sympy as sp

from .exprs import CheckResult, Expr, ExprError, diff, is_zero, normalize, print_expr, substitute
from .jets import JetContext, VectorFieldSet, total_derivative
from .linalg import linear_solve
from .prolong import SigmaMatrix, sigma_prolong

__all__ = [
    "ODESystem",
    "CoordinateChange",
    "NoSolvedFormError",
    "NonAffineInHighestError",
    "SingularJacobianError",
    "ResidualOldCoordinateError",
    "restrict",
    "solve_for_highest",
    "symmetry_residuals",
    "verify_sigma_symmetry",
    "reduce_system",
    "ReductionReport",
    "reconstruction_check",
]


class NoSolvedFormError(ExprError):
    """The operation needs a system with designated solved highest derivatives."""


class NonAffineInHighestError(ExprError):
    """An equation is not affine in the coordinates being solved for."""


class SingularJacobianError(ExprError):
    """The coefficient matrix of the highest derivatives is identically singular."""


class ResidualOldCoordinateError(ExprError):
    """An old coordinate survives the substitution into invariant coordinates."""


class ODESystem:
    """m implicit equations F^h = 0 of order q, optionally with a solved form
    assigning each designated highest derivative an expression free of every
    designated coordinate.  Systems with equal contexts, orders, equations
    and solved forms are equal."""

    def __init__(
        self,
        ctx: JetContext,
        order: int,
        equations: Sequence[Expr],
        solved: Mapping | None = None,
        validate: bool = True,
    ):
        if order < 1:
            raise ExprError("system order must be >= 1")
        if not equations:
            raise ExprError("a system needs at least one equation")
        self.ctx = ctx
        self.order = order
        self.equations = tuple(normalize(e) for e in equations)
        for e in self.equations:
            if ctx.jet_order_of(e) > order:
                raise ExprError(
                    f"equation {print_expr(e)} exceeds the declared order {order}"
                )
        if solved is not None:
            solved = {
                (ctx.table.lookup(k) if isinstance(k, str) else k): normalize(v)
                for k, v in solved.items()
            }
            for key in solved:
                if ctx.table.jet_index(key) is None:
                    raise ExprError(f"solved coordinate {key} is not a jet coordinate")
            designated = set(solved)
            for key, rhs in solved.items():
                for s in rhs.free_symbols:
                    if s in designated:
                        raise ExprError(
                            f"solved right side for {key} contains designated coordinate {s}"
                        )
            if validate:
                for e in self.equations:
                    res = restrict_with(e, solved, ctx, order)
                    if not res.is_rational_zero:
                        verdict = is_zero(res)
                        if not verdict.is_zero:
                            holds = "does not satisfy" if verdict.is_nonzero else "is not proved to satisfy"
                            raise ExprError(
                                f"solved form {holds} equation "
                                f"{print_expr(e)}: residual {print_expr(res)} [{verdict}]"
                            )
        self.solved = solved

    def solved_orders(self) -> dict[str, int]:
        """Order of the designated solved coordinate per dependent variable."""
        if self.solved is None:
            return {}
        out: dict[str, int] = {}
        for key in self.solved:
            dep, k = self.ctx.table.jet_index(key)
            if dep in out:
                raise ExprError(f"two solved coordinates for dependent '{dep}'")
            out[dep] = k
        return out

    def __eq__(self, other):
        return isinstance(other, ODESystem) and (self.ctx, self.order, self.equations, self.solved) == (
            other.ctx, other.order, other.equations, other.solved
        )

    def __hash__(self):
        return hash((self.ctx, self.order, self.equations))

    def __repr__(self):
        eqs = "; ".join(f"{print_expr(e)} = 0" for e in self.equations)
        return f"ODESystem[{eqs}]"


def restrict_with(
    e: Expr, solved: Mapping[sp.Symbol, Expr], ctx: JetContext, order: int
) -> Expr:
    """Substitute solved coordinates (and, on demand, their higher total
    derivatives) until a fixed point; capped at order+3 passes."""
    table = ctx.table
    by_dep: dict[str, tuple[int, Expr]] = {}
    for key, rhs in solved.items():
        dep, q = table.jet_index(key)
        by_dep[dep] = (q, rhs)
    derivative_cache: dict[sp.Symbol, Expr] = dict(solved)

    def rule_for(sym: sp.Symbol) -> Expr | None:
        if sym in derivative_cache:
            return derivative_cache[sym]
        index = table.jet_index(sym)
        if index is None or index[0] not in by_dep:
            return None
        dep, k = index
        q, rhs = by_dep[dep]
        if k < q:
            return None
        expr = rhs
        for _ in range(k - q):
            expr = total_derivative(expr, ctx)
        derivative_cache[sym] = expr
        return expr

    current = normalize(e)
    for _pass in range(order + 3):
        mapping = {}
        for s in sorted(current.free_symbols, key=lambda t: t.name):
            r = rule_for(s)
            if r is not None:
                mapping[s] = r
        if not mapping:
            return current
        current = substitute(current, mapping)
    # a well-formed solved form always reaches a fixed point: each pass lowers
    # the highest restrictable order present
    for s in current.free_symbols:
        if rule_for(s) is not None:
            raise ExprError("restriction did not reach a fixed point (malformed solved form)")
    return current


def restrict(e: Expr, sys: ODESystem) -> Expr:
    if sys.solved is None:
        raise NoSolvedFormError("restriction needs a solved form")
    return restrict_with(e, sys.solved, sys.ctx, sys.order)


def solve_for_highest(sys: ODESystem, targets: Sequence[sp.Symbol | str] | None = None) -> ODESystem:
    """Solve the equations for the designated highest derivatives (by default
    the order-q coordinate of every dependent); the equations must be affine
    in those coordinates."""
    if sys.solved is not None and targets is None:
        return sys
    ctx = sys.ctx
    if targets is None:
        target_syms = [ctx.coord(a, sys.order) for a in range(ctx.p)]
    else:
        target_syms = [ctx.table.lookup(t) if isinstance(t, str) else t for t in targets]
    m = len(sys.equations)
    if m != len(target_syms):
        raise ExprError(f"{m} equations cannot determine {len(target_syms)} coordinates")
    rows = []
    consts = []
    for e in sys.equations:
        row = []
        for t in target_syms:
            coeff = diff(e, t)
            for t2 in target_syms:
                if t2 in coeff.free_symbols:
                    raise NonAffineInHighestError(
                        f"equation {print_expr(e)} is not affine in {t}"
                    )
            row.append(coeff)
        rest = substitute(e, {t: Expr.number(0) for t in target_syms})
        for t2 in target_syms:
            if t2 in rest.free_symbols:
                raise NonAffineInHighestError(f"equation {print_expr(e)} is not affine")
        rows.append(row)
        consts.append(-rest)
    result = linear_solve(rows, consts)
    if result.status == "inconsistent":
        raise SingularJacobianError(
            f"equations are inconsistent in the highest derivatives: 0 = {print_expr(result.witness)}"
        )
    if result.status == "underdetermined":
        raise SingularJacobianError(
            "coefficient matrix of the highest derivatives is singular"
        )
    solved = {t: sol for t, sol in zip(target_syms, result.solution)}
    return ODESystem(sys.ctx, sys.order, sys.equations, solved, validate=False)


def symmetry_residuals(
    Xs: VectorFieldSet, sigma: SigmaMatrix, sys: ODESystem
) -> dict[tuple[int, int], Expr]:
    """Prolong the set to the system order with the twist and restrict each
    field applied to each equation to the solution manifold; keyed by
    (field index, equation index)."""
    solved_sys = solve_for_highest(sys)
    Ys = sigma_prolong(Xs, sigma, sys.order)
    return {
        (i, h): restrict(Y.apply(F), solved_sys)
        for i, Y in enumerate(Ys)
        for h, F in enumerate(sys.equations)
    }


def verify_sigma_symmetry(
    Xs: VectorFieldSet,
    sigma: SigmaMatrix,
    sys: ODESystem,
    trials: int = 20,
    seed: int = 0,
    deny: Sequence[Expr] = (),
) -> CheckResult:
    """Check that each twisted prolonged field maps each equation to zero on
    the solution manifold: one zero test per symmetry residual."""
    return CheckResult.test(symmetry_residuals(Xs, sigma, sys), trials=trials, seed=seed, deny=deny)


# ---------------------------------------------------------------------------
# change to invariant coordinates and reduction
# ---------------------------------------------------------------------------


class CoordinateChange:
    """New coordinates z_j defined by invariant expressions, optional retained
    old dependents, and user-supplied inverse bindings old -> new (verified at
    construction: composing a binding with the forward definitions returns the
    old coordinate).  Changes with equal contexts, definitions, inverse
    bindings and retained dependents are equal."""

    def __init__(
        self,
        old_ctx: JetContext,
        new: Mapping[str, Expr],
        inverse: Mapping,
        retained: Sequence[str] = (),
        order: int | None = None,
    ):
        self.old_ctx = old_ctx
        self.new = {name: normalize(e) for name, e in new.items()}
        self.retained = tuple(retained)
        for r in self.retained:
            if r not in old_ctx.dependents:
                raise ExprError(f"retained coordinate '{r}' is not an old dependent")
        order = old_ctx.max_order if order is None else order
        self.new_ctx = JetContext(
            old_ctx.independent,
            [*self.new.keys(), *self.retained],
            order,
            parameters=old_ctx.table.parameters,
            functions=old_ctx.table.functions,
        )
        self.inverse = {
            (old_ctx.table.lookup(k) if isinstance(k, str) else k): normalize(v)
            for k, v in inverse.items()
        }
        forward = self.forward_map(order)
        for old_sym, binding in self.inverse.items():
            residual = substitute(binding, forward) - Expr(old_sym)
            verdict = is_zero(residual)
            if not verdict.is_zero:
                inverts = "does not invert" if verdict.is_nonzero else "is not proved to invert"
                raise ExprError(
                    f"inverse binding for {old_sym} {inverts} the "
                    f"definitions: residual {print_expr(residual)} [{verdict}]"
                )

    def forward_map(self, order: int) -> dict[sp.Symbol, Expr]:
        """New jet coordinates expressed in old coordinates: the level-k
        coordinate of z_j is the k-th total derivative of its definition."""
        out: dict[sp.Symbol, Expr] = {}
        for name, definition in self.new.items():
            expr = definition
            out[self.new_ctx.coord(name, 0)] = expr
            for k in range(1, order + 1):
                expr = total_derivative(expr, self.old_ctx)
                out[self.new_ctx.coord(name, k)] = expr
        return out

    def invariant_names(self) -> list[str]:
        return list(self.new.keys())

    def _key(self) -> tuple:
        return self.old_ctx, self.new_ctx, self.retained, self.new, self.inverse

    def __eq__(self, other):
        return isinstance(other, CoordinateChange) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key()[:3])


def _split_content(numer: sp.Expr):
    """Split an expanded numerator into (always-nonzero content, symbol-power
    content, core): exponential atoms and rational constants never vanish;
    plain symbol powers are generically nonzero and are recorded."""
    terms = numer.args if numer.is_Add else (numer,)
    power_maps = []
    for t in terms:
        powers = {}
        factors = t.args if t.is_Mul else (t,)
        for f in factors:
            if f.is_Rational:
                continue
            base, exp = (f.base, f.exp) if f.is_Pow and f.exp.is_Integer else (f, sp.S.One)
            powers[base] = powers.get(base, 0) + int(exp)
        power_maps.append(powers)
    common: dict = dict(power_maps[0]) if power_maps else {}
    for fm in power_maps[1:]:
        for base in list(common):
            common[base] = min(common[base], fm.get(base, 0))
            if common[base] <= 0:
                del common[base]
    exp_content = sp.S.One
    sym_content = sp.S.One
    for base, e in common.items():
        if isinstance(base, sp.exp):
            exp_content *= base**e
        elif base.is_Symbol:
            sym_content *= base**e
    core = sp.cancel(numer / (exp_content * sym_content))
    return exp_content, sym_content, core


@dataclass
class ReductionReport:
    stripped: list[Expr]  # per equation, the removed nonvanishing factor
    denominators: list[Expr]  # per equation, the cleared denominator
    orders: dict[str, int]  # resulting max derivative order per new variable
    dropped: list[str]  # variables whose order went below the original q
    targets: list[sp.Symbol]  # the highest coordinate of each new variable of order > 0


def reduce_system(
    sys: ODESystem,
    table,
    change: CoordinateChange,
) -> tuple[ODESystem, ReductionReport]:
    """Rewrite each equation over the invariant coordinates via the inverse
    bindings, strip overall nonvanishing factors, and emit the reduced system.

    Every invariant coordinate must come out at derivative order <= q-1; an
    old coordinate surviving the substitution (outside stripped generic
    factors) is an error."""
    old = change.old_ctx
    new_ctx = change.new_ctx
    q = sys.order
    if table is not None:
        for name, definition in change.new.items():
            found = any((definition - entry).is_rational_zero for entry in table.all_entries())
            if not found:
                raise ExprError(
                    f"definition of '{name}' is not an entry of the invariant table"
                )
    new_equations = []
    stripped: list[Expr] = []
    denominators: list[Expr] = []
    old_syms = {old.x} | {old.coord(a, k) for a in range(old.p) for k in range(q + 2)}
    allowed = {new_ctx.x} | {
        new_ctx.coord(name, k) for name in new_ctx.dependents for k in range(q + 1)
    }
    retained_syms = {old.coord(r, k) for r in change.retained for k in range(q + 1)}
    for F in sys.equations:
        sub = substitute(F, change.inverse)
        numer, denom = sp.fraction(sub.sym)
        exp_content, sym_content, core = _split_content(sp.expand(numer))
        survivors = [
            s
            for s in core.free_symbols
            if s in old_syms and s not in allowed and s not in retained_syms
        ]
        if survivors:
            raise ResidualOldCoordinateError(
                f"old coordinate(s) {sorted(map(str, survivors))} survive the "
                f"substitution of equation {print_expr(F)}: the system is not "
                "expressible in the supplied invariants"
            )
        new_equations.append(Expr(core))
        stripped.append(Expr(exp_content * sym_content))
        denominators.append(Expr(denom))
    orders = dict.fromkeys(new_ctx.dependents, 0)
    for e in new_equations:
        for dep, k in filter(None, map(new_ctx.table.jet_index, e.free_symbols)):
            orders[dep] = max(orders[dep], k)
    for name in change.invariant_names():
        # coordinates defined by first-order invariants must drop an order;
        # order-zero-defined coordinates behave like base variables and may
        # legitimately keep the full order (partial reduction)
        limit = q - 1 if old.jet_order_of(change.new[name]) >= 1 else q
        if orders[name] > limit:
            raise ExprError(
                f"invariant coordinate '{name}' still appears at order {orders[name]}"
            )
    dropped = [n for n in new_ctx.dependents if orders[n] <= q - 1]
    targets = [new_ctx.coord(name, k) for name, k in orders.items() if k > 0]
    new_order = max(max(orders.values()), 1)
    reduced = ODESystem(new_ctx.extended(new_order) if new_ctx.max_order < new_order else new_ctx,
                        new_order, new_equations, solved=None)
    return reduced, ReductionReport(stripped, denominators, orders, dropped, targets)


def reconstruction_check(
    change: CoordinateChange,
    reduced_traj,
    full_traj,
    tol: float = 1e-6,
):
    """Along matching numeric trajectories, check that each reduced coordinate
    equals its defining invariant evaluated on the full jet samples; returns
    (verdict, max residual)."""
    import numpy as np

    from .oracle import GridMismatchError, invariant_along_trajectory

    if not full_traj.same_grid(reduced_traj):
        raise GridMismatchError("trajectories do not share a grid")
    worst = 0.0
    for name, definition in change.new.items():
        values, _ = invariant_along_trajectory(definition, full_traj)
        got = reduced_traj.samples[name]
        worst = max(worst, float(np.max(np.abs(values - got))))
    return worst <= tol, worst
