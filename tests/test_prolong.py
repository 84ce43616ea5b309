import random

import pytest
import sympy as sp

import cases
from jetsigma import gallery
from jetsigma.exprs import Expr, is_zero
from jetsigma.jets import JetContext, VectorField, VectorFieldSet, total_derivative
from jetsigma.linalg import ExprMatrix
from jetsigma.prolong import (
    ChiData,
    NonVerticalFieldError,
    SigmaMatrix,
    check_prolongation_commutation,
    chi_prolong,
    lambda_prolong,
    mu_prolong_vertical,
    sigma_prolong,
    standard_prolong,
)

from fuzzing import random_sigma, random_vertical_pair


@pytest.fixture
def ctx():
    return JetContext("x", ["u", "v"], 2)


def test_standard_prolongation_of_scaling_rotation():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    W1 = VectorField.on_base(ctx, 0, [P("u"), P("v")])
    Z1 = standard_prolong(W1, 1)
    assert Z1 == VectorField.from_coefficients(
        ctx, {("u", 0): P("u"), ("v", 0): P("v"), ("u", 1): P("u_1"), ("v", 1): P("v_1")}, 1
    )


def test_standard_prolongation_constant_field(ctx):
    X = VectorField.on_base(ctx, 0, [ctx.parse("1"), ctx.parse("0")])
    Y = standard_prolong(X, 2)
    assert Y.coefficient("u", 1).sym == 0 and Y.coefficient("u", 2).sym == 0


def test_standard_prolongation_quotient_coefficient():
    """First prolongation of h(x,u)/(u^2+v^2) d/du carries the quotient-rule
    numerator rho*D_x h - h*D_x rho over rho^2."""
    ctx = JetContext("x", ["u", "v"], 1, functions={"h": 2})
    P = ctx.parse
    rho = P("u^2 + v^2")
    W = VectorField.on_base(ctx, P("0"), [P("h(x,u)") / rho, P("0")])
    Z = standard_prolong(W, 1)
    h = P("h(x,u)")
    expected = (rho * total_derivative(h, ctx) - h * total_derivative(rho, ctx)) / (rho * rho)
    assert Z.coefficient("u", 1) == expected


def test_scalar_twist_degenerations(ctx):
    rng = random.Random(11)
    for trial in range(5):
        Xs = random_vertical_pair(rng, ctx)
        X = Xs[0]
        assert lambda_prolong(X, Expr.number(0), 2) == standard_prolong(X, 2)
        lam = ctx.parse("u_1 + x")
        single = lambda_prolong(X, lam, 2)
        joint = sigma_prolong(VectorFieldSet([X]), SigmaMatrix.scalar(ctx, lam), 2)
        assert single == joint[0]


def test_scalar_twist_explicit(ctx):
    X = VectorField.on_base(ctx, 0, [ctx.parse("1"), ctx.parse("0")])
    Y = lambda_prolong(X, ctx.parse("u_1"), 1)
    assert Y == VectorField.from_coefficients(
        ctx, {("u", 0): ctx.parse("1"), ("u", 1): ctx.parse("u_1")}, 1
    )
    rep = check_prolongation_commutation(
        VectorFieldSet([Y]), SigmaMatrix.scalar(ctx, ctx.parse("u_1"))
    )
    assert rep.holds


def test_joint_twist_zero_is_standard(ctx):
    rng = random.Random(12)
    for trial in range(5):
        Xs = random_vertical_pair(rng, ctx)
        Ys = sigma_prolong(Xs, SigmaMatrix.zero(ctx, 2), 2)
        for X, Y in zip(Xs, Ys):
            assert Y == standard_prolong(X, 2)


def test_joint_twist_coupled_pair_coefficients():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    assert Ys == cases.expected_prolonged(case)


def test_joint_twist_scaling_pair_coefficients():
    case = gallery.scaling_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    assert Ys == cases.expected_prolonged(case)


def test_telescoping(ctx):
    """Prolonging to order k+1 equals one step applied on top of order k."""
    rng = random.Random(13)
    Xs = random_vertical_pair(rng, ctx)
    sigma = random_sigma(rng, ctx)
    full = sigma_prolong(Xs, sigma, 2)
    half = sigma_prolong(Xs, sigma, 1)
    for i in range(2):
        for a in range(2):
            u_next = Expr(ctx.coord(a, 2))
            step = total_derivative(half[i].coefficient(a, 1), ctx)
            for j in range(2):
                step = step + sigma[i, j] * (half[j].coefficient(a, 1) - u_next * Xs[j].xi)
            assert step == full[i].coefficient(a, 2)


def test_dependent_index_twist_degenerations(ctx):
    rng = random.Random(14)
    Xs = random_vertical_pair(rng, ctx)
    assert mu_prolong_vertical(Xs, ExprMatrix.zero(2, 2), 2) == VectorFieldSet(
        [standard_prolong(X, 2) for X in Xs]
    )


def test_dependent_index_twist_scalar_case():
    """On one dependent variable, a 1x1 dependent-index twist is the scalar
    twist."""
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    lam = P("u + x")
    X = VectorField.on_base(ctx, 0, [P("u^2")])
    via_matrix = mu_prolong_vertical(
        VectorFieldSet([X]), ExprMatrix([[lam]]), 2
    )
    assert via_matrix[0] == lambda_prolong(X, lam, 2)


def test_dependent_index_twist_first_step(ctx):
    rng = random.Random(15)
    Xs = random_vertical_pair(rng, ctx)
    base = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    from fuzzing import random_polynomial

    Lambda = ExprMatrix([[random_polynomial(rng, base) for _ in range(2)] for _ in range(2)])
    out = mu_prolong_vertical(VectorFieldSet([Xs[0]]), Lambda, 1)
    for a in range(2):
        expected = total_derivative(Xs[0].phi(a), ctx)
        for b in range(2):
            expected = expected + Lambda[a, b] * Xs[0].phi(b)
        assert out[0].coefficient(a, 1) == expected


def test_dependent_index_twist_rejects_nonvertical(ctx):
    X = VectorField.on_base(ctx, ctx.parse("1"), [ctx.parse("u"), ctx.parse("0")])
    with pytest.raises(NonVerticalFieldError):
        mu_prolong_vertical(VectorFieldSet([X, X]), ExprMatrix.zero(2, 2), 1)


def test_combined_twist_degenerations(ctx):
    rng = random.Random(16)
    Xs = random_vertical_pair(rng, ctx)
    sigma = random_sigma(rng, ctx)
    zero_p = ExprMatrix.zero(2, 2)
    # set-index part alone, with Theta = -sigma^T, reproduces the joint twist
    chi = ChiData(zero_p, sigma.transpose().scaled(-1))
    assert chi_prolong(Xs, chi, 2) == sigma_prolong(Xs, sigma, 2)
    # dependent-index part alone reproduces the per-field twist
    base = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    from fuzzing import random_polynomial

    Lambda = ExprMatrix([[random_polynomial(rng, base) for _ in range(2)] for _ in range(2)])
    chi2 = ChiData(Lambda, ExprMatrix.zero(2, 2))
    assert chi_prolong(Xs, chi2, 2) == mu_prolong_vertical(Xs, Lambda, 2)
    # both off: standard prolongation
    chi3 = ChiData(zero_p, ExprMatrix.zero(2, 2))
    assert chi_prolong(Xs, chi3, 2) == VectorFieldSet([standard_prolong(X, 2) for X in Xs])


def test_combined_twist_both_parts(ctx):
    """With both parts nonzero the combined twist follows its recursion,
    written out here order by order."""
    rng = random.Random(18)
    Xs = random_vertical_pair(rng, ctx)
    base = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    from fuzzing import random_polynomial

    Lambda = ExprMatrix([[random_polynomial(rng, base) for _ in range(2)] for _ in range(2)])
    Theta = random_sigma(rng, ctx)
    assert Lambda != ExprMatrix.zero(2, 2) and Theta != ExprMatrix.zero(Theta.r, Theta.r)
    out = chi_prolong(Xs, ChiData(Lambda, Theta), 2)
    psi = [[[X.phi(a)] for a in range(2)] for X in Xs]
    for k in range(2):
        for i in range(2):
            for a in range(2):
                step = total_derivative(psi[i][a][k], ctx)
                for b in range(2):
                    step = step + Lambda[a, b] * psi[i][b][k]
                for j in range(2):
                    step = step - Theta[j, i] * psi[j][a][k]
                psi[i][a].append(step)
    for i in range(2):
        assert out[i] == VectorField(ctx, 2, Expr.number(0), psi[i])


def test_commutation_identity_fixture():
    case = gallery.exp_coupled_pair()
    Ys = sigma_prolong(case.fields, case.sigma, 2)
    assert check_prolongation_commutation(Ys, case.sigma).holds
    # untwisted prolongations satisfy the identity with the zero twist
    Zs = VectorFieldSet([standard_prolong(X, 2) for X in case.fields])
    assert check_prolongation_commutation(Zs, SigmaMatrix.zero(case.ctx, 2)).holds
    # the transposed twist breaks the identity
    ctx = case.ctx
    P = ctx.parse
    wrong = SigmaMatrix(ctx, [[P("0"), P("u_1")], [P("v_1"), P("0")]])
    rep = check_prolongation_commutation(Ys, wrong)
    assert not rep.holds and rep.witnesses


def test_commutation_biconditional_fuzzed(ctx):
    """The identity holds exactly on jointly twisted sets and fails on
    perturbations of them."""
    rng = random.Random(17)
    for trial in range(6):
        Xs = random_vertical_pair(rng, ctx)
        sigma = random_sigma(rng, ctx)
        Ys = sigma_prolong(Xs, sigma, 2)
        assert check_prolongation_commutation(Ys, sigma).holds
        perturbed = _perturb(rng, Ys)
        assert not check_prolongation_commutation(perturbed, sigma).holds


def _perturb(rng, Ys):
    ctx = Ys.ctx
    i = rng.randrange(len(Ys))
    a = rng.randrange(ctx.p)
    k = rng.randint(1, Ys.order)
    bump = Expr(ctx.coord(0, 0) ** 2 + 1)
    fields = []
    for idx, Y in enumerate(Ys):
        if idx != i:
            fields.append(Y)
            continue
        psi = [list(row) for row in Y.psi]
        psi[a][k] = psi[a][k] + bump
        fields.append(VectorField(ctx, Y.order, Y.xi, psi))
    return VectorFieldSet(fields)


def test_twist_matrix_rejects_second_order(ctx):
    with pytest.raises(Exception):
        SigmaMatrix(ctx, [[ctx.parse("u_2"), ctx.parse("0")], [ctx.parse("0"), ctx.parse("0")]])


def test_joint_twist_dimension_mismatch(ctx):
    Xs = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [ctx.parse("1"), ctx.parse("0")])]
    )
    with pytest.raises(Exception):
        sigma_prolong(Xs, SigmaMatrix.zero(ctx, 2), 1)
