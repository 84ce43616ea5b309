import random

import pytest

import cases
from jetsigma import gallery
from jetsigma.exprs import Expr, _field_values, eval_numeric, is_zero
from jetsigma.jets import JetContext, VectorField, VectorFieldSet, lie_bracket
from jetsigma.involution import (
    ClosureExceededError,
    NotInvolutiveError,
    check_involution_transfer,
    close_under_bracket,
    _denominator_factors,
    _size,
    expand_in_basis,
    structure_functions,
)
from jetsigma.prolong import SigmaMatrix, sigma_prolong


def _ctx1():
    return JetContext("x", ["u", "v"], 1)


def test_structure_functions_scaling_pair():
    ctx = _ctx1()
    P = ctx.parse
    Xs = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("u"), P("0")]), VectorField.on_base(ctx, 0, [P("0"), P("-u")])]
    )
    sf = structure_functions(Xs)
    assert sf[0, 1, 0].sym == 0 and sf[0, 1, 1].sym == 1
    assert sf.domain == "base"


def test_structure_functions_commuting():
    ctx = _ctx1()
    P = ctx.parse
    Xs = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("1"), P("0")]), VectorField.on_base(ctx, 0, [P("0"), P("1")])]
    )
    assert structure_functions(Xs).is_zero()


def test_structure_functions_antisymmetry():
    ctx = _ctx1()
    P = ctx.parse
    Xs = VectorFieldSet(
        [
            VectorField.on_base(ctx, 0, [P("u"), P("v")]),
            VectorField.on_base(ctx, 0, [P("v"), P("0")]),
        ]
    )
    try:
        sf = structure_functions(Xs)
    except NotInvolutiveError:
        return
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert (sf[i, j, k] + sf[j, i, k]).sym == 0


def test_structure_functions_where_the_basis_degenerates():
    """(u - 14) d/dv vanishes at u = 14; the expansion is decided exactly,
    not at sample points, so that point does not matter."""
    ctx = _ctx1()
    P = ctx.parse
    d_v = VectorField.on_base(ctx, 0, [P("0"), P("1")])
    shifted = VectorField.on_base(ctx, 0, [P("0"), P("u - 14")])
    sf = structure_functions(VectorFieldSet([VectorField.on_base(ctx, 0, [P("1"), P("0")]), shifted]))
    assert [sf[0, 1, k] for k in range(2)] == [P("0"), P("1/(u - 14)")]
    assert expand_in_basis(d_v, [shifted]) == [P("1/(u - 14)")]


def test_not_involutive_witness():
    case = gallery.transpose_twist_cases()[0]
    Ys = sigma_prolong(case.fields, case.sigma, 1)
    with pytest.raises(NotInvolutiveError) as err:
        structure_functions(Ys)
    assert err.value.bracket == cases.expected_added(case)[0]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_closure_reproduces_generators_and_tables(index):
    case = gallery.transpose_twist_cases()[index]
    Ys = sigma_prolong(case.fields, case.sigma, 1)
    closed, report = close_under_bracket(Ys)
    assert report.added == cases.expected_added(case)
    sf = report.structure
    r = len(closed)
    table = cases.expected_table(case)
    for i in range(r):
        for j in range(i + 1, r):
            expected_row = table.get((i, j), {})
            for k in range(r):
                want = expected_row.get(k, Expr.number(0))
                assert (sf[i, j, k] - want).sym == 0, (i, j, k)


def test_closure_fixed_point():
    ctx = _ctx1()
    P = ctx.parse
    Xs = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("1"), P("0")]), VectorField.on_base(ctx, 0, [P("0"), P("1")])]
    )
    closed, report = close_under_bracket(Xs)
    assert closed == Xs and not report.added


def test_closure_quotient_case():
    case = gallery.identity_twist_quotient()
    Ys = sigma_prolong(case.fields, case.sigma, 1)
    closed, report = close_under_bracket(Ys)
    ctx = case.ctx
    P = ctx.parse
    assert len(report.added) == 1
    assert report.added[0] == VectorField.from_coefficients(ctx, {("v", 1): P("u_1/u^3")}, 1)
    sf = report.structure
    # the added direction closes with a base-function coefficient
    assert (sf[1, 2, 2] - P("-3/u^2")).sym == 0
    assert (sf[0, 2, 0]).sym == 0


def test_closure_budget():
    case = gallery.radial_quotient()
    from jetsigma.prolong import standard_prolong

    Zs = VectorFieldSet([standard_prolong(W, 1) for W in case.fields])
    with pytest.raises(ClosureExceededError):
        close_under_bracket(Zs)


def test_transfer_coupled_pair_holds():
    case = gallery.exp_coupled_pair()
    rep = check_involution_transfer(case.fields, case.sigma)
    assert rep.pointwise.holds and rep.contracted.holds
    assert rep.mu.is_zero()


def test_transfer_scaling_pair_holds():
    case = gallery.scaling_pair()
    rep = check_involution_transfer(case.fields, case.sigma)
    assert rep.pointwise.holds and rep.contracted.holds
    assert rep.mu[0, 1, 1].sym == 1


@pytest.mark.parametrize("index", [0, 1, 2])
def test_transfer_fails_for_transposed_cases(index):
    case = gallery.transpose_twist_cases()[index]
    rep = check_involution_transfer(case.fields, case.sigma)
    assert not rep.pointwise.holds and not rep.contracted.holds
    got_Q = rep.Q[(0, 1)]
    got_contracted = rep.Q_contracted[(0, 1)]
    for got, want in zip(got_Q, cases.expected_Q(case)):
        assert (got - want).sym == 0
    for got, want in zip(got_contracted, cases.expected_Q_contracted(case)):
        assert (got - want).sym == 0


def test_transfer_soundness_on_fixtures():
    """When the transfer condition holds the prolonged set keeps the base
    structure functions; when it fails the prolonged set leaves the span."""
    good = gallery.exp_coupled_pair()
    Ys = sigma_prolong(good.fields, good.sigma, 2)
    assert structure_functions(Ys).is_zero()
    good2 = gallery.scaling_pair()
    Ys2 = sigma_prolong(good2.fields, good2.sigma, 2)
    sf2 = structure_functions(Ys2)
    assert sf2[0, 1, 0].sym == 0 and sf2[0, 1, 1].sym == 1
    bad = gallery.transpose_twist_cases()[0]
    with pytest.raises(NotInvolutiveError):
        structure_functions(sigma_prolong(bad.fields, bad.sigma, 1))


def test_transfer_constant_twist_with_commuting_fields():
    """Commuting base fields and a constant twist satisfy both conditions
    (annihilated by every derivation, zero structure functions)."""
    ctx = _ctx1()
    P = ctx.parse
    Xs = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("1"), P("0")]), VectorField.on_base(ctx, 0, [P("0"), P("1")])]
    )
    sigma = SigmaMatrix(ctx, [[P("1"), P("2")], [P("3"), P("5/2")]])
    rep = check_involution_transfer(Xs, sigma)
    assert rep.pointwise.holds and rep.contracted.holds


def test_pointwise_condition_implies_contracted():
    for maker in (gallery.exp_coupled_pair, gallery.scaling_pair):
        case = maker()
        rep = check_involution_transfer(case.fields, case.sigma)
        if rep.pointwise.holds:
            assert rep.contracted.holds


def test_expand_in_basis_rejects_new_singularities():
    ctx = _ctx1()
    P = ctx.parse
    y1 = VectorField.from_coefficients(ctx, {("u", 0): P("1"), ("v", 1): P("u_1")}, 1)
    y2 = VectorField.from_coefficients(ctx, {("v", 0): P("1"), ("u", 1): P("v_1")}, 1)
    y3 = VectorField.from_coefficients(ctx, {("u", 1): P("u_1"), ("v", 1): P("-v_1")}, 1)
    y4 = VectorField.from_coefficients(ctx, {("v", 1): P("u_1")}, 1)
    target = VectorField.from_coefficients(ctx, {("u", 1): P("v_1")}, 1)
    # generically in the span, but only with coefficients singular on u_1 = 0
    assert expand_in_basis(target, [y1, y2, y3, y4], restrict_singularities=True) is None
    assert expand_in_basis(target, [y1, y2, y3, y4]) is not None


def test_expand_in_basis_with_related_exp_atoms():
    ctx = _ctx1()
    P = ctx.parse
    y1 = VectorField.on_base(ctx, 0, [P("exp(u + v)"), P("exp(v)")])
    # exp(u) * y1; the sampled pre-check must not treat exp(u + v), exp(v)
    # and exp(2u + v) as independent values
    target = VectorField.on_base(ctx, 0, [P("exp(2*u + v)"), P("exp(u + v)")])
    assert expand_in_basis(target, [y1]) == [P("exp(u)")]


def test_denominator_factors_are_read_from_the_field():
    """The irreducible factors of the denominators of values in one subfield;
    an exp generator never vanishes and is left out, a constant is no factor."""
    P = _ctx1().parse
    texts = ["1/(u*(u + v)^2)", "exp(-u)/(v - 1)", "u/3", "u", "u + v", "v - 1"]
    *values, u, uv, v1 = _field_values([P(t) for t in texts])
    assert _denominator_factors(values) == {u.numer, uv.numer, v1.numer}


def test_closure_size_counts_field_terms_and_atom_arguments():
    P = _ctx1().parse
    assert _size(P("3")) == 2
    assert _size(P("(u + 1)/(v - 2)")) == 4
    # one numerator term over 1, and the argument u + v over 1
    assert _size(P("u*sin(u + v)")) == 5
    assert _size(P("exp(u)/(1 + exp(u))")) == 5


def test_transfer_on_rational_fields_that_are_not_vertical():
    """Three fields, two of them not vertical, whose coefficients lie over
    distinct denominators: their structure functions are quotients of tens
    of terms, whose products the contractions sum over denominators that
    share factors.  With the zero twist the check takes seconds; both
    conditions fail, each with a witness that reproduces.  The same fields
    with a twist that has rational entries take several times longer and
    are not run in this suite."""
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    Xs = VectorFieldSet(
        [
            VectorField.on_base(ctx, P("1/(x + 1)"), [P("u*exp(v)"), P("2")]),
            VectorField.on_base(ctx, P("x"), [P("u"), P("1/(u - 2)")]),
            VectorField.on_base(ctx, P("0"), [P("v"), P("x/(v + 3)")]),
        ]
    )
    rep = check_involution_transfer(Xs, SigmaMatrix.zero(ctx, 3))
    values = []
    for check in (rep.pointwise, rep.contracted):
        failure = check.failure
        assert failure.verdict.is_nonzero
        value = eval_numeric(failure.expr, failure.verdict.witness)
        assert value == failure.verdict.value
        values.append(value)
    assert values == [pytest.approx(1.8698, rel=1e-4), pytest.approx(13.991, rel=1e-4)]
