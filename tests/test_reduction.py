import pytest
import sympy as sp

import cases
from jetsigma import gallery
from jetsigma.exprs import Expr, ExprError, is_zero
from jetsigma.jets import JetContext, VectorField, VectorFieldSet, total_derivative
from jetsigma.prolong import SigmaMatrix, sigma_prolong
from jetsigma.invariants import generate_invariants
from jetsigma.reduction import (
    CoordinateChange,
    NonAffineInHighestError,
    NoSolvedFormError,
    ODESystem,
    ResidualOldCoordinateError,
    SingularJacobianError,
    reduce_system,
    restrict,
    solve_for_highest,
    verify_sigma_symmetry,
)


def test_system_validates_solved_form():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    with pytest.raises(Exception):
        ODESystem(ctx, 2, [P("u_2 - u_1")], solved={"u_2": P("u_1 + 1")})


def test_validation_message_follows_the_verdict():
    """A residual that sampling cannot tell from zero is "not proved" to
    hold; only a NonZero witness says the solved form or inverse is wrong."""
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    with pytest.raises(ExprError, match=r"solved form is not proved to satisfy equation .*\[Unknown\]"):
        ODESystem(ctx, 1, [P("u_1 - sin(u)^2 - cos(u)^2")], solved={"u_1": P("1")})
    with pytest.raises(ExprError, match=r"solved form does not satisfy equation .*\[NonZero"):
        ODESystem(ctx, 1, [P("u_1 - u")], solved={"u_1": P("1")})
    z1 = sp.Symbol("z1")
    with pytest.raises(ExprError, match=r"inverse binding for u is not proved to invert .*\[Unknown\]"):
        CoordinateChange(ctx, new={"z1": P("u")}, inverse={"u": Expr(z1 * (sp.sin(z1) ** 2 + sp.cos(z1) ** 2))})
    with pytest.raises(ExprError, match=r"inverse binding for u does not invert .*\[NonZero"):
        CoordinateChange(ctx, new={"z1": P("u")}, inverse={"u": Expr(2 * z1)})


def test_restrict_defining_equation_vanishes():
    case = gallery.exp_coupled_pair()
    for F in case.system.equations:
        assert restrict(F, case.system).sym == 0


def test_restrict_iterates_higher_derivatives():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2 - u_1")], solved={"u_2": P("u_1")})
    u3 = total_derivative(P("u_2"), ctx)
    assert restrict(u3, sys) == P("u_1")


def test_restrict_requires_solved_form():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2 - u_1")])
    with pytest.raises(NoSolvedFormError):
        restrict(P("u_2"), sys)


def test_solve_for_highest_three_component():
    case = gallery.three_component_chain()
    solved = solve_for_highest(case.system)
    for F in case.system.equations:
        assert restrict(F, solved).sym == 0
    # numeric cross-check at random nonsingular jet points
    from jetsigma.exprs import eval_numeric
    from jetsigma.oracle import sample_jet_point

    for t in range(10):
        pt = sample_jet_point(
            case.ctx, seed=100 + t, deny=case.deny, order=1, bound=5, threshold=0.25
        )
        full = dict(pt)
        for key, rhs in solved.solved.items():
            full[str(key)] = eval_numeric(rhs, pt)
        for F in case.system.equations:
            assert abs(eval_numeric(F, full)) < 1e-6


def test_solve_for_highest_fixed_point():
    case = gallery.exp_coupled_pair()
    assert solve_for_highest(case.system) is case.system


def test_solve_for_highest_contradictory():
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2 - v_2"), P("u_2 - v_2 - 1")])
    with pytest.raises(SingularJacobianError):
        solve_for_highest(sys)


def test_solve_for_highest_nonaffine():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2^2 - u_1")])
    with pytest.raises(NonAffineInHighestError):
        solve_for_highest(sys)


def test_symmetry_coupled_pair():
    case = gallery.exp_coupled_pair()
    rep = verify_sigma_symmetry(case.fields, case.sigma, case.system)
    assert rep.holds


def test_symmetry_requires_twist():
    case = gallery.exp_coupled_pair()
    rep = verify_sigma_symmetry(
        case.fields, SigmaMatrix.zero(case.ctx, 2), case.system
    )
    assert not rep.holds
    assert any(v.is_nonzero for v in rep.verdicts.values())


def test_symmetry_scaling_pair():
    case = gallery.scaling_pair()
    rep = verify_sigma_symmetry(case.fields, case.sigma, case.system, deny=case.deny)
    assert rep.holds


def test_symmetry_three_component():
    case = gallery.three_component_chain()
    rep = verify_sigma_symmetry(case.fields, case.sigma, case.system, deny=case.deny)
    assert rep.holds


def test_symmetry_invariant_under_rescaling():
    """Scaling an equation by a nonzero factor of lower order does not change
    the on-shell residual verdicts."""
    case = gallery.exp_coupled_pair()
    P = case.ctx.parse
    scaled = ODESystem(
        case.ctx,
        2,
        [case.system.equations[0] * P("exp(u)"), case.system.equations[1]],
        solved=case.system.solved,
        validate=False,
    )
    rep = verify_sigma_symmetry(case.fields, case.sigma, scaled)
    assert rep.holds


def test_reduce_coupled_pair():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(Ys, case.eta, case.seeds, 2)
    reduced, report = reduce_system(case.system, table, case.change)
    assert cases.reduced_rhs_mismatches(case, reduced, report) == []
    assert report.orders == {"z1": 1, "z2": 1}
    # no invariant coordinate keeps the original order
    assert all(k <= 1 for k in report.orders.values())


def test_reduce_scaling_pair():
    case = gallery.scaling_pair()
    system = solve_for_highest(case.system)
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(Ys, case.eta, case.seeds, 2, deny=case.deny)
    reduced, report = reduce_system(system, table, case.change)
    assert cases.reduced_rhs_mismatches(case, reduced, report) == []


def test_reduce_three_component_mixed_orders():
    case = gallery.three_component_chain()
    system = solve_for_highest(case.system)
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(
        Ys, case.eta, case.seeds, 2, extra_base=case.extra_base, deny=case.deny
    )
    reduced, report = reduce_system(system, table, case.change)
    assert report.orders == {"xi": 2, "z1": 1, "z2": 1}
    assert cases.reduced_rhs_mismatches(case, reduced, report) == []


def test_reduce_partial_rank_triple():
    case = gallery.partial_rank_triple()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(Ys, case.eta, case.seeds, 2, deny=case.deny)
    reduced, report = reduce_system(case.system, table, case.change)
    assert report.orders == {"xi": 2, "eta": 1, "rho": 1}
    assert cases.reduced_rhs_mismatches(case, reduced, report) == []


def test_reduce_rejects_residual_old_coordinate():
    """A system not expressible in the invariants leaves an old coordinate
    behind."""
    case = gallery.exp_coupled_pair()
    ctx = case.ctx
    P = ctx.parse
    bad = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1 + exp(-u)) - u"), P("v_2 - u_1*v_1*(1 - exp(-v))")],
        solved={
            "u_2": P("u_1*v_1*(1 + exp(-u)) + u"),
            "v_2": P("u_1*v_1*(1 - exp(-v))"),
        },
    )
    with pytest.raises(ResidualOldCoordinateError):
        reduce_system(bad, None, case.change)


def test_change_validates_inverse():
    case = gallery.exp_coupled_pair()
    ctx = case.ctx
    z1, z2 = sp.symbols("z1 z2")
    u = sp.Symbol("u")
    with pytest.raises(Exception):
        CoordinateChange(
            ctx,
            new={"z1": ctx.parse("exp(-u)*v_1"), "z2": ctx.parse("exp(-v)*u_1")},
            inverse={"v_1": Expr(sp.exp(u) * z2)},  # wrong coordinate
        )


def test_reconstruction_check():
    import numpy as np

    from jetsigma.oracle import integrate
    from jetsigma.reduction import reconstruction_check

    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(Ys, case.eta, case.seeds, 2)
    reduced, report = reduce_system(case.system, table, case.change)
    solved = solve_for_highest(reduced, targets=report.targets)
    full = integrate(case.system, {"u": 0, "v": 0, "u_1": 1, "v_1": 1}, (0.0, 1.0), 1e-3)
    matched = integrate(solved, {"z1": 1.0, "z2": 1.0}, (0.0, 1.0), 1e-3)
    ok, worst = reconstruction_check(case.change, matched, full)
    assert ok and worst < 1e-6
    # mismatched initial data stays bounded away from zero
    wrong = integrate(solved, {"z1": 1.5, "z2": 1.0}, (0.0, 1.0), 1e-3)
    bad, worst_bad = reconstruction_check(case.change, wrong, full)
    assert not bad and worst_bad > 1e-3
