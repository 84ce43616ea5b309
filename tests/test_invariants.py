import random

import pytest

from jetsigma import gallery
from jetsigma.exprs import Expr, is_zero
from jetsigma.invariants import (
    DegenerateBaseError,
    InvariantTable,
    SeedNotInvariantError,
    generate_invariants,
    ibdp_step,
    independence_check,
    verify_invariant,
)
from jetsigma.jets import JetContext, VectorField, VectorFieldSet
from jetsigma.prolong import sigma_prolong, standard_prolong
from jetsigma.equivalence import sigma_from_A, transform_fields

from fuzzing import random_polynomial, random_unimodular


def test_verify_invariant_coupled_pair():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    assert verify_invariant(Ys, case.ctx.parse("exp(-u)*v_1")).holds
    # x is a common invariant of any vertical set
    assert verify_invariant(Ys, case.ctx.parse("x")).holds


def test_verify_invariant_scaling_pair():
    case = gallery.scaling_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    zeta2 = case.ctx.parse("2*v_1 - u^2 - 2*(1 - exp(-v))*u_1/u")
    assert verify_invariant(Ys, zeta2).holds


def test_verify_invariant_surfaces_nonzero():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    check = verify_invariant(Ys, case.ctx.parse("exp(-u)*v_1 + u"))
    assert any(v.is_nonzero for v in check.verdicts.values())


def test_ibdp_step_examples():
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    assert ibdp_step(P("x"), P("exp(-u)*v_1"), ctx) == P("exp(-u)*(v_2 - u_1*v_1)")
    eta = P("u + x")
    assert ibdp_step(eta, eta, ctx).sym == 1


def test_ibdp_step_quotient_base():
    ctx = JetContext("x", ["u", "v", "w"], 2)
    P = ctx.parse
    assert ibdp_step(P("x"), P("w/u"), ctx) == P("(u*w_1 - u_1*w)/u^2")


def test_ibdp_degenerate_base():
    ctx = JetContext("x", ["u"], 2)
    with pytest.raises(DegenerateBaseError):
        ibdp_step(ctx.parse("3/4"), ctx.parse("u"), ctx)


def test_generate_invariants_coupled_pair():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(Ys, case.eta, case.seeds, 2)
    P = case.ctx.parse
    assert [chain[1] for chain in table.chains] == [P("exp(-u)*(v_2 - u_1*v_1)"), P("exp(-v)*(u_2 - u_1*v_1)")]
    # rank-n set over n dependents: qn + 1 independent invariants up to order q
    assert len(table.all_entries()) == 2 * 2 + 1


def test_generate_invariants_three_component():
    case = gallery.three_component_chain()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    table = generate_invariants(
        Ys, case.eta, case.seeds, 2, extra_base=case.extra_base, deny=case.deny
    )
    P = case.ctx.parse
    assert [chain[1] for chain in table.chains] == [
        P("exp(-(u-v-w))*(u_2 + w_2 + u_1*v_1 + v_1*w_1 - u_1^2 + w_1^2)"),
        P("exp(-(u+w))*(u_2 - v_2 - w_2 + u_1*v_1 + v_1*w_1 - u_1^2 + w_1^2)"),
        P("u_2 - v_2"),
    ]


def test_generate_invariants_rejects_bad_seed():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    bad = case.ctx.parse("exp(-u)*v_1 + u")
    with pytest.raises(SeedNotInvariantError):
        generate_invariants(Ys, case.eta, [case.seeds[0], bad], 2)


def test_generate_invariants_rejects_dependent_seeds():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    from jetsigma.invariants import DependentSeedsError

    with pytest.raises(DependentSeedsError):
        generate_invariants(Ys, case.eta, [case.seeds[0], case.seeds[0] * 2], 2)


def test_independence_examples():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    rep = independence_check([P("exp(-u)*v_1"), P("exp(-v)*u_1")], ctx)
    assert rep.rank == 2 and not rep.dependent
    rep2 = independence_check([P("u"), P("2*u")], ctx)
    assert rep2.rank == 1 and rep2.dependent == [1]
    # every sampled Jacobian entry is below 1e-9; the rank is still exact
    rep3 = independence_check([P("u/10^15")], ctx)
    assert rep3.rank == 1 and not rep3.dependent
    # exp(2u) + exp(2v) + 2 exp(u + v) is the square of exp(u) + exp(v)
    rep4 = independence_check([P("exp(u) + exp(v)"), P("exp(2*u) + exp(2*v) + 2*exp(u + v)")], ctx)
    assert rep4.rank == 1 and rep4.dependent == [1]
    rep5 = independence_check([P("exp(u/2)"), P("exp(u/3)"), P("exp(u)*v")], ctx)
    assert rep5.rank == 2 and rep5.dependent == [1]


def test_independence_seven_invariant_basis():
    basis = gallery.partial_rank_invariant_basis()
    ctx = JetContext("x", ["u", "v", "w"], 2)
    rep = independence_check(basis, ctx)
    assert rep.rank == 7 and not rep.dependent


def test_ibdp_closure_fuzzed():
    """Twisted sets built by mixing translation fields with a unimodular
    polynomial matrix keep x, u_1, v_1 as invariants; every differentiation
    step of a verified invariant re-verifies."""
    ctx = JetContext("x", ["u", "v"], 2)
    rng = random.Random(23)
    P = ctx.parse
    W = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("1"), P("0")]), VectorField.on_base(ctx, 0, [P("0"), P("1")])]
    )
    for _ in range(5):
        A = random_unimodular(rng, ctx)
        sigma = sigma_from_A(A, ctx, "dx_inverse")
        Xs = transform_fields(A, W)
        Ys = sigma_prolong(Xs, sigma, 2)
        zeta = random_polynomial(rng, [ctx.x, ctx.coord(0, 1), ctx.coord(1, 1)])
        assert verify_invariant(Ys, zeta).holds
        derived = ibdp_step(P("x"), zeta, ctx)
        assert verify_invariant(Ys, derived).holds
