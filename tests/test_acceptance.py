"""Acceptance suite: every bundled case study reproduced end to end, the two
property populations, and the numeric cross-validations, one criterion per
test with a printed pass/fail line."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from jetsigma import gallery
from jetsigma.determining import Ansatz, generate_determining
from jetsigma.equivalence import (
    sigma_from_A,
    standardizing_roundtrip,
    transform_fields,
    verify_A_sigma,
)
from jetsigma.exprs import (
    Expr,
    SingularPointError,
    diff,
    eval_numeric,
    is_zero,
    normalize,
    substitute,
)
from jetsigma.invariants import generate_invariants, independence_check, verify_invariant
from jetsigma.involution import (
    NotInvolutiveError,
    check_involution_transfer,
    close_under_bracket,
    structure_functions,
)
from jetsigma.jets import JetContext, VectorField, VectorFieldSet, lie_bracket, total_derivative
from jetsigma.oracle import integrate, invariant_along_trajectory, sample_jet_point
from jetsigma.prolong import (
    SigmaMatrix,
    check_prolongation_commutation,
    sigma_prolong,
    standard_prolong,
)
from jetsigma.reduction import (
    ODESystem,
    reduce_system,
    restrict,
    solve_for_highest,
    verify_sigma_symmetry,
)

import cases
from fuzzing import random_expr, random_point, random_polynomial, random_sigma, random_unimodular, random_vertical_pair


def _report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def _certified_zero(e: Expr, ctx, deny=(), seed=0) -> bool:
    """Symbolic zero, re-evaluated below 1e-9 at 20 sampled jet points."""
    if not is_zero(e, seed=seed).is_zero:
        return False
    order = max(ctx.jet_order_of(e), 1)
    for t in range(20):
        pt = sample_jet_point(ctx, seed=977 + 13 * t + seed, deny=deny, order=order, bound=8)
        try:
            if abs(eval_numeric(e, pt)) > 1e-9:
                return False
        except SingularPointError:
            continue
    return True


def test_c01_exp_coupled_pair_end_to_end():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    ok = Ys == cases.expected_prolonged(case)
    ok = ok and lie_bracket(Ys[0], Ys[1]).is_zero_field()
    transfer = check_involution_transfer(case.fields, case.sigma)
    ok = ok and transfer.pointwise.holds
    table = generate_invariants(Ys, case.eta, case.seeds, 2)
    for entry in [e for chain in table.chains for e in chain]:
        for Y in Ys:
            ok = ok and _certified_zero(Y.apply(entry), case.ctx)
    reduced, report = reduce_system(case.system, table, case.change)
    ok = ok and not cases.reduced_rhs_mismatches(case, reduced, report)
    _report("C1 coupled exponential pair end-to-end", ok)


def test_c02_scaling_pair_end_to_end():
    case = gallery.scaling_pair()
    ctx = case.ctx
    P = ctx.parse
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    ok = Ys == cases.expected_prolonged(case)
    sf = structure_functions(Ys)
    ok = ok and sf[0, 1, 0].sym == 0 and sf[0, 1, 1].sym == 1
    table = generate_invariants(Ys, case.eta, case.seeds, 2, deny=case.deny)
    second = [chain[1] for chain in table.chains]
    expected_second = [
        P("exp(-v)*(u*u_2 - u_1^2 - u*u_1*v_1)/u^2"),
        P(
            "2*(u_1^2 - u^3*u_1 - u*u_2 + u^2*v_2"
            " + exp(-v)*(u*u_2 - u_1^2 - u*u_1*v_1))/u^2"
        ),
    ]
    for got, want in zip(second, expected_second):
        ok = ok and (got - want).sym == 0
    system = solve_for_highest(case.system)
    reduced, report = reduce_system(system, table, case.change)
    ok = ok and not cases.reduced_rhs_mismatches(case, reduced, report)
    _report("C2 scaling/transvection pair end-to-end", ok)


def test_c03_transposed_twist_cases():
    ok = True
    for case in gallery.transpose_twist_cases():
        Ys = sigma_prolong(case.fields, case.sigma, 1)
        ok = ok and Ys == cases.expected_first_prolongation(case)
        try:
            structure_functions(Ys)
            ok = False
        except NotInvolutiveError:
            pass
        closed, report = close_under_bracket(Ys)
        ok = ok and report.added == cases.expected_added(case)
        sf = report.structure
        r = len(closed)
        table = cases.expected_table(case)
        for i in range(r):
            for j in range(i + 1, r):
                row = table.get((i, j), {})
                for k in range(r):
                    want = row.get(k, Expr.number(0))
                    ok = ok and (sf[i, j, k] - want).sym == 0
        transfer = check_involution_transfer(case.fields, case.sigma)
        ok = ok and not transfer.pointwise.holds and not transfer.contracted.holds
        for got, want in zip(transfer.Q[(0, 1)], cases.expected_Q(case)):
            ok = ok and (got - want).sym == 0
        for got, want in zip(transfer.Q_contracted[(0, 1)], cases.expected_Q_contracted(case)):
            ok = ok and (got - want).sym == 0
    _report("C3 transposed-twist cases: closure, tables, Q values", ok)


def test_c04_module_equivalence_cases():
    ok = True
    # the quotient-twist transport equation has two bundled solutions
    quot = gallery.identity_twist_quotient()
    okA = verify_A_sigma(quot.matrices["A"], quot.sigma, quot.ctx).holds
    okB = verify_A_sigma(quot.matrices["B"], quot.sigma, quot.ctx).holds
    ok = ok and okA and okB
    # roundtrips under each case's pinned convention
    bil = gallery.bilinear_mixing()
    rt = standardizing_roundtrip(bil.fields, bil.matrices["A"], 1, "inverse_dx", deny=bil.deny)
    ok = ok and rt.check.holds
    induced = sigma_from_A(bil.matrices["A"], bil.ctx, "inverse_dx")
    ok = ok and all(
        (induced[i, j] - bil.sigma[i, j]).sym == 0 for i in range(2) for j in range(2)
    )
    for maker in (gallery.radial_quotient, gallery.radial_polynomial):
        case = maker()
        rt = standardizing_roundtrip(
            case.fields, case.matrices["A"], 1, "dx_inverse", deny=case.deny
        )
        ok = ok and rt.check.holds
        induced = sigma_from_A(case.matrices["A"], case.ctx, "dx_inverse")
        ok = ok and all(
            (induced[i, j] - case.sigma[i, j]).sym == 0 for i in range(2) for j in range(2)
        )
    # invariant sets of the two standardized generator pairs
    ctx = quot.ctx
    P = ctx.parse
    za = VectorFieldSet(
        [
            VectorField.from_coefficients(ctx, {("u", 0): P("u"), ("u", 1): P("u_1")}, 1),
            VectorField.from_coefficients(ctx, {("v", 0): P("1")}, 1),
        ]
    )
    for inv in (P("v_1"), P("u_1/u")):
        ok = ok and verify_invariant(za, inv, deny=quot.deny).holds
    zb = VectorFieldSet(
        [
            VectorField.from_coefficients(ctx, {("v", 0): P("u"), ("v", 1): P("u_1")}, 1),
            VectorField.from_coefficients(ctx, {("u", 0): P("1")}, 1),
            VectorField.from_coefficients(ctx, {("v", 0): P("-1")}, 1),
        ]
    )
    ok = ok and verify_invariant(zb, P("u_1")).holds
    # shared first-order invariants of the bilinear pair, and their failure
    # under the out-of-module twisted pair
    Zs = VectorFieldSet([standard_prolong(W, 1) for W in bil.fields])
    Pinv = P("(u_1^2 + v_1^2)/(u^2 + v^2)")
    Q = P("arctan(u_1/v_1) - arctan(u/v)")
    deny = [P("1 - u*v"), P("v"), P("v_1")]
    for Z in Zs:
        for inv in (Pinv, Q):
            verdict = is_zero(Z.apply(inv), deny=deny)
            numeric_ok = verdict.status == "unknown" and _numeric_below(
                Z.apply(inv), ctx, deny, 1e-9
            )
            ok = ok and (verdict.is_zero or numeric_ok)
    for Y in gallery.bilinear_mixing_foreign_fields():
        for inv in (Pinv, Q):
            ok = ok and is_zero(Y.apply(inv), deny=deny).is_nonzero
    _report("C4 module-equivalence cases: transport, roundtrips, invariants", ok)


def _numeric_below(e, ctx, deny, tol):
    for t in range(20):
        pt = sample_jet_point(ctx, seed=31 * t + 5, deny=deny, order=1, bound=8)
        try:
            if abs(eval_numeric(e, pt)) > tol:
                return False
        except SingularPointError:
            continue
    return True


def test_c05_three_component_chain():
    case = gallery.three_component_chain()
    ctx = case.ctx
    P = ctx.parse
    solved = solve_for_highest(case.system)
    ok = all(restrict(F, solved).sym == 0 for F in case.system.equations)
    for t in range(10):
        pt = sample_jet_point(ctx, seed=100 + t, deny=case.deny, order=1, bound=5, threshold=0.25)
        full = dict(pt)
        for key, rhs in solved.solved.items():
            full[str(key)] = eval_numeric(rhs, pt)
        ok = ok and all(abs(eval_numeric(F, full)) < 1e-6 for F in case.system.equations)
    rep = verify_sigma_symmetry(case.fields, case.sigma, solved, deny=case.deny)
    ok = ok and rep.holds
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(
        Ys, case.eta, case.seeds, 2, extra_base=case.extra_base, deny=case.deny
    )
    expected_second = [
        P("exp(-(u-v-w))*(u_2 + w_2 + u_1*v_1 + v_1*w_1 - u_1^2 + w_1^2)"),
        P("exp(-(u+w))*(u_2 - v_2 - w_2 + u_1*v_1 + v_1*w_1 - u_1^2 + w_1^2)"),
        P("u_2 - v_2"),
    ]
    for got, want in zip([chain[1] for chain in table.chains], expected_second):
        ok = ok and (got - want).sym == 0
    reduced, report = reduce_system(solved, table, case.change)
    ok = ok and report.orders == {"xi": 2, "z1": 1, "z2": 1}
    ok = ok and not cases.reduced_rhs_mismatches(case, reduced, report)
    _report("C5 three-component chain: solve, symmetry, invariants, mixed reduction", ok)


def test_c06_partial_rank_triple():
    case = gallery.partial_rank_triple()
    ctx = case.ctx
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    br = lie_bracket(Ys[0], Ys[1])
    ok = br.minus(Ys[1]).is_zero_field()
    basis = gallery.partial_rank_invariant_basis()
    rep = independence_check(basis, ctx)
    ok = ok and rep.rank == 7 and not rep.dependent
    table = generate_invariants(Ys, case.eta, case.seeds, 2, deny=case.deny)
    # the differentiation chains: each derived entry is the total derivative
    # of its predecessor and a verified invariant
    for chain in table.chains:
        for prev, nxt in zip(chain, chain[1:]):
            ok = ok and (total_derivative(prev, ctx) - nxt).sym == 0
    ok = ok and len(table.all_entries()) == 8
    reduced, report = reduce_system(case.system, table, case.change)
    ok = ok and report.orders == {"xi": 2, "eta": 1, "rho": 1}
    ok = ok and not cases.reduced_rhs_mismatches(case, reduced, report)
    _report("C6 partial-rank triple: structure, rank-7 basis, chain, reduction", ok)


def test_c07_commutation_identity_population():
    ctx = JetContext("x", ["u", "v"], 2)
    rng = random.Random(2024)
    false_verdicts = 0
    for trial in range(50):
        Xs = random_vertical_pair(rng, ctx)
        sigma = random_sigma(rng, ctx)
        Ys = sigma_prolong(Xs, sigma, 2)
        if not check_prolongation_commutation(Ys, sigma, seed=trial).holds:
            false_verdicts += 1
        perturbed = _perturb(rng, Ys)
        rep = check_prolongation_commutation(perturbed, sigma, seed=trial)
        if rep.holds or not any(r.verdict.is_nonzero for r in rep.witnesses):
            false_verdicts += 1
    _report("C7 commutation identity: 50 twisted sets pass, 50 perturbations fail", false_verdicts == 0)


def _perturb(rng, Ys):
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


def test_c08_derived_invariants_population():
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    rng = random.Random(4096)
    W = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("1"), P("0")]), VectorField.on_base(ctx, 0, [P("0"), P("1")])]
    )
    failures = 0
    for trial in range(50):
        A = random_unimodular(rng, ctx)
        sigma = sigma_from_A(A, ctx, "dx_inverse")
        Xs = transform_fields(A, W)
        Ys = sigma_prolong(Xs, sigma, 2)
        zeta = random_polynomial(rng, [ctx.x, ctx.coord(0, 1), ctx.coord(1, 1)])
        if not verify_invariant(Ys, zeta, seed=trial).holds:
            failures += 1
            continue
        derived = total_derivative(zeta, ctx)  # the base invariant is x
        if not verify_invariant(Ys, derived, seed=trial).holds:
            failures += 1
    _report("C8 derived invariants re-verify on 50 twisted sets", failures == 0)


def test_c09_determining_equations():
    ctx, system, ansatz = gallery.constant_coefficient_ansatz()
    P = ctx.parse
    from test_determining import _printed_equations

    result = generate_determining(system, ansatz)
    unit = P("-exp(u + v)")
    printed = _printed_equations(P)
    ok = all(
        is_zero(result.residuals[key] * unit - printed[key], trials=12).is_zero
        for key in sorted(result.residuals)
    )
    # the concrete candidate against the bundled sign variant
    case = gallery.exp_coupled_pair()
    rep = verify_sigma_symmetry(case.fields, case.sigma, case.system)
    ok = ok and rep.holds and all(r.sym == 0 for r in rep.residuals.values())
    # the opposite variant is also a symmetry; the reduction pins the bundled
    # one through the sign of the first reduced equation
    plus = ODESystem(
        case.ctx,
        2,
        [P2 for P2 in system.equations],
        solved=system.solved,
    )
    ok = ok and verify_sigma_symmetry(case.fields, case.sigma, plus).holds
    dz1 = total_derivative(case.ctx.parse("exp(-u)*v_1"), case.ctx)
    prod = case.ctx.parse("exp(-u)*v_1") * case.ctx.parse("exp(-v)*u_1")
    ok = ok and (restrict(dz1, case.system) + prod).sym == 0
    ok = ok and (restrict(dz1, plus) - prod).sym == 0
    _report("C9 determining equations: displayed system and candidate checks", ok)


def test_c10_numeric_cross_validation():
    ok = True
    # coupled exponential pair
    case1 = gallery.exp_coupled_pair()
    traj = integrate(case1.system, {"u": 0, "v": 0, "u_1": 1, "v_1": 1}, (0.0, 0.5), 1e-3)
    z1, dz1 = invariant_along_trajectory(case1.ctx.parse("exp(-u)*v_1"), traj)
    z2, dz2 = invariant_along_trajectory(case1.ctx.parse("exp(-v)*u_1"), traj)
    ok = ok and np.max(np.abs(dz1 + (z1 * z2)[1:-1])) < 1e-5
    ok = ok and np.max(np.abs(dz2 - (z1 * z2)[1:-1])) < 1e-5
    # scaling pair
    case2 = gallery.scaling_pair()
    sys2 = solve_for_highest(case2.system)
    traj2 = integrate(
        sys2, {"u": 1, "v": 0, "u_1": Fraction(1, 2), "v_1": Fraction(1, 2)}, (0.0, 0.5), 1e-3
    )
    w1, dw1 = invariant_along_trajectory(case2.seeds[0], traj2)
    w2, dw2 = invariant_along_trajectory(case2.seeds[1], traj2)
    ok = ok and np.max(np.abs(dw1 - (w2 * w2)[1:-1])) < 1e-5
    ok = ok and np.max(np.abs(dw2 - (w1 * w2)[1:-1])) < 1e-5
    # partial-rank triple
    case3 = gallery.partial_rank_triple()
    traj3 = integrate(
        case3.system,
        {"u": 1, "v": Fraction(1, 2), "w": 1, "u_1": Fraction(3, 10), "v_1": Fraction(1, 5), "w_1": Fraction(1, 10)},
        (0.0, 0.5),
        1e-3,
    )
    xi, _ = invariant_along_trajectory(case3.seeds[0], traj3)
    eta, deta = invariant_along_trajectory(case3.seeds[1], traj3)
    rho, drho = invariant_along_trajectory(case3.seeds[2], traj3)
    xid, dxid = invariant_along_trajectory(
        total_derivative(case3.seeds[0], case3.ctx), traj3
    )
    ok = ok and np.max(np.abs(dxid - 2 * rho[1:-1])) < 1e-5
    ok = ok and np.max(np.abs(drho - eta[1:-1])) < 1e-5
    ok = ok and np.max(np.abs(deta - (xid - xi)[1:-1])) < 1e-5
    # self-convergence of the integrator
    initial = {"u": 0, "v": 0, "u_1": 1, "v_1": 1}
    finest = integrate(case1.system, initial, (0.0, 0.5), 5e-4)
    coarse = integrate(case1.system, initial, (0.0, 0.5), 2e-3)
    fine = integrate(case1.system, initial, (0.0, 0.5), 1e-3)
    err_c = max(abs(coarse.samples[n][-1] - finest.samples[n][-1]) for n in coarse.samples)
    err_f = max(abs(fine.samples[n][-1] - finest.samples[n][-1]) for n in fine.samples)
    ratio = err_c / err_f
    ok = ok and 12 <= ratio <= 20
    _report("C10 numeric cross-validation of the three reductions + RK4 convergence", ok)


def test_c11_kernel_suite():
    rng = random.Random(77)
    syms = [sp.Symbol(s) for s in ("x", "u", "v", "u_1", "v_1")]
    ok = True
    fd_checked = 0
    for trial in range(1000):
        e = random_expr(rng, syms, depth=3)
        # normalization idempotence, node for node
        ok = ok and normalize(e) == e
        if trial % 2 == 0:
            f = random_expr(rng, syms, depth=2)
            s = rng.choice(syms)
            ok = ok and diff(e + f, s) == diff(e, s) + diff(f, s)
            ok = ok and diff(e * f, s) == diff(e, s) * f + e * diff(f, s)
        # zero-test soundness: a Zero verdict must re-evaluate below 1e-6
        verdict = is_zero(e, trials=4, seed=trial)
        if verdict.is_zero:
            for t in range(5):
                pt = random_point(rng, syms)
                try:
                    ok = ok and abs(eval_numeric(e, pt)) <= 1e-6
                except SingularPointError:
                    continue
        if trial % 5 == 0 and fd_checked < 150:
            s = rng.choice(syms)
            de = diff(e, s)
            pt = random_point(rng, syms)
            h = Fraction(1, 10**6)
            up, dn = dict(pt), dict(pt)
            up[str(s)] = pt[str(s)] + h
            dn[str(s)] = pt[str(s)] - h
            try:
                fd = (eval_numeric(e, up) - eval_numeric(e, dn)) / (2e-6)
                sym_val = eval_numeric(de, pt)
            except SingularPointError:
                continue
            scale = max(abs(fd), abs(sym_val), 1.0)
            ok = ok and abs(fd - sym_val) <= 1e-4 * scale
            fd_checked += 1
        if not ok:
            break
    ok = ok and fd_checked >= 100
    _report("C11 kernel suite: 1000 fuzzed expressions", ok)


if __name__ == "__main__":
    import sys

    raise SystemExit(pytest.main([__file__, "-v", "-s"] + sys.argv[1:]))
