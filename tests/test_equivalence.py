import random

import pytest
import sympy as sp

from jetsigma import gallery
from jetsigma.equivalence import (
    gauge_transform_sigma,
    mu_sigma_bridge,
    sigma_from_A,
    standardizing_roundtrip,
    theta_from_mu,
    transform_fields,
    verify_A_sigma,
)
from jetsigma.exprs import Expr, is_zero
from jetsigma.involution import structure_functions
from jetsigma.jets import JetContext, VectorField, VectorFieldSet
from jetsigma.linalg import ExprMatrix, SingularMatrixError
from jetsigma.prolong import SigmaMatrix, sigma_prolong, standard_prolong

from fuzzing import random_polynomial, random_unimodular


def _sigma_eq(a: SigmaMatrix, b: SigmaMatrix) -> bool:
    return all(
        (a[i, j] - b[i, j]).sym == 0 for i in range(a.r) for j in range(a.r)
    )


def test_sigma_from_identity():
    ctx = JetContext("x", ["u", "v"], 1)
    assert sigma_from_A(ExprMatrix.identity(2), ctx) == ExprMatrix.zero(2, 2)


def test_sigma_from_A_bilinear():
    case = gallery.bilinear_mixing()
    out = sigma_from_A(case.matrices["A"], case.ctx, "inverse_dx")
    assert _sigma_eq(out, case.sigma)


def test_sigma_from_A_radial_polynomial():
    case = gallery.radial_polynomial()
    out = sigma_from_A(case.matrices["A"], case.ctx, "dx_inverse")
    assert _sigma_eq(out, case.sigma)


def test_sigma_from_A_radial_quotient():
    case = gallery.radial_quotient()
    out = sigma_from_A(case.matrices["A"], case.ctx, "dx_inverse")
    assert _sigma_eq(out, case.sigma)


def test_sigma_from_singular_matrix():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    with pytest.raises(SingularMatrixError):
        sigma_from_A(ExprMatrix([[P("u"), P("u")], [P("v"), P("v")]]), ctx)


def test_verify_transport_equation():
    case = gallery.identity_twist_quotient()
    okA = verify_A_sigma(case.matrices["A"], case.sigma, case.ctx).holds
    okB = verify_A_sigma(case.matrices["B"], case.sigma, case.ctx).holds
    assert okA and okB
    # identity matrix against a nonzero twist leaves the negated twist
    check = verify_A_sigma(ExprMatrix.identity(2), case.sigma, case.ctx)
    assert not check.holds
    assert all((r + case.sigma[i, j]).is_rational_zero for (i, j), r in check.residuals.items())


def test_transform_fields_identity():
    case = gallery.exp_coupled_pair()
    out = transform_fields(ExprMatrix.identity(2), case.fields)
    assert out == case.fields


def test_transform_fields_quotient_case():
    """The diagonal solution of the transport equation maps the twisted pair
    to standard prolongations."""
    case = gallery.identity_twist_quotient()
    ctx = case.ctx
    P = ctx.parse
    Ys = sigma_prolong(case.fields, case.sigma, 1)
    ZB = transform_fields(case.matrices["B"], Ys)
    assert ZB[0] == VectorField.from_coefficients(
        ctx, {("v", 0): P("u"), ("v", 1): P("u_1")}, 1
    )
    assert ZB[1] == VectorField.from_coefficients(ctx, {("u", 0): P("1")}, 1)
    # both are standard prolongations of their base parts
    assert ZB[0] == standard_prolong(ZB[0].truncated(0), 1)
    assert ZB[1] == standard_prolong(ZB[1].truncated(0), 1)


def test_roundtrip_bilinear():
    case = gallery.bilinear_mixing()
    rt = standardizing_roundtrip(
        case.fields, case.matrices["A"], 1, "inverse_dx", deny=case.deny
    )
    assert rt.check.holds
    assert _sigma_eq(rt.sigma, case.sigma)
    assert rt.sigma == sigma_from_A(case.matrices["A"], case.ctx, "inverse_dx")


def test_roundtrip_radial_quotient_opaque():
    case = gallery.radial_quotient()
    rt = standardizing_roundtrip(
        case.fields, case.matrices["A"], 1, "dx_inverse", deny=case.deny
    )
    assert rt.check.holds
    assert rt.sigma == sigma_from_A(case.matrices["A"], case.ctx, "dx_inverse")


def test_roundtrip_radial_polynomial():
    case = gallery.radial_polynomial()
    rt = standardizing_roundtrip(
        case.fields, case.matrices["A"], 1, "dx_inverse", deny=case.deny
    )
    assert rt.check.holds


def test_roundtrip_identity_matrix():
    case = gallery.exp_coupled_pair()
    rt = standardizing_roundtrip(case.fields, ExprMatrix.identity(2), 2)
    assert rt.check.holds and rt.sigma == ExprMatrix.zero(2, 2)
    for lhs, rhs in zip(rt.transformed, [standard_prolong(X, 2) for X in case.fields]):
        assert lhs == rhs


def test_roundtrip_then_transport_fuzzed():
    ctx = JetContext("x", ["u", "v"], 1)
    rng = random.Random(31)
    for _ in range(4):
        A = random_unimodular(rng, ctx)
        sigma = sigma_from_A(A, ctx, "inverse_dx")
        assert verify_A_sigma(A, sigma, ctx).holds


def test_gauge_identity_and_zero():
    case = gallery.bilinear_mixing()
    ctx = case.ctx
    assert _sigma_eq(
        gauge_transform_sigma(ExprMatrix.identity(2), case.sigma, ctx), case.sigma
    )
    A = case.matrices["A"]
    gauged_zero = gauge_transform_sigma(A, SigmaMatrix.zero(ctx, 2), ctx)
    assert _sigma_eq(gauged_zero, sigma_from_A(A, ctx, "dx_inverse"))


def test_gauge_cocycle_fuzzed():
    ctx = JetContext("x", ["u", "v"], 1)
    rng = random.Random(32)
    for _ in range(3):
        B1 = random_unimodular(rng, ctx)
        B2 = random_unimodular(rng, ctx)
        sigma = sigma_from_A(random_unimodular(rng, ctx), ctx, "inverse_dx")
        twice = gauge_transform_sigma(B2, gauge_transform_sigma(B1, sigma, ctx), ctx)
        once = gauge_transform_sigma(B2 @ B1, sigma, ctx)
        assert _sigma_eq(twice, once)


def test_theta_identity_transport():
    case = gallery.scaling_pair()
    mu = structure_functions(case.fields)
    theta = theta_from_mu(ExprMatrix.identity(2), case.fields, mu)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert (theta[i, j, k] - mu[i, j, k]).sym == 0


def test_theta_constant_matrix_zero_mu():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    Xs = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("1"), P("0")]), VectorField.on_base(ctx, 0, [P("0"), P("1")])]
    )
    mu = structure_functions(Xs)
    A = ExprMatrix([[P("2"), P("1")], [P("1"), P("1")]])
    theta = theta_from_mu(A, Xs, mu)
    assert all(theta[i, j, k].sym == 0 for i in range(2) for j in range(2) for k in range(2))


def test_theta_matches_direct_brackets():
    case = gallery.bilinear_mixing()
    Zs = VectorFieldSet([standard_prolong(W, 1) for W in case.fields])
    mu = structure_functions(Zs)
    assert mu.is_zero()
    A = case.matrices["A"]
    theta = theta_from_mu(A, Zs, mu)
    direct = structure_functions(transform_fields(A, Zs))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert (theta[i, j, k] - direct[i, j, k]).sym == 0


def test_module_rank_preserved_at_points():
    """Transforming the generators preserves the pointwise span."""
    from fuzzing import random_point

    case = gallery.bilinear_mixing()
    Zs = VectorFieldSet([standard_prolong(W, 1) for W in case.fields])
    Vs = transform_fields(case.matrices["A"], Zs)
    from fractions import Fraction

    from jetsigma.exprs import eval_numeric

    rng = random.Random(33)
    names = ["x", "u", "v", "u_1", "v_1"]
    import numpy as np

    for _ in range(5):
        pt = {n: Fraction(rng.randint(1, 5), rng.randint(2, 7)) for n in names}
        m1 = np.array([[eval_numeric(c, pt) for c in f.components()] for f in Zs])
        m2 = np.array([[eval_numeric(c, pt) for c in f.components()] for f in Vs])
        assert np.linalg.matrix_rank(m1, tol=1e-8) == np.linalg.matrix_rank(m2, tol=1e-8)


def test_foreign_twisted_generators_break_shared_invariants():
    """The bundled out-of-module twisted pair does not annihilate the shared
    invariants of the standard generators (their module is genuinely
    different)."""
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    deny = [P("1 - u*v"), P("v"), P("v_1")]
    Pinv = P("(u_1^2 + v_1^2)/(u^2 + v^2)")
    Q = P("arctan(u_1/v_1) - arctan(u/v)")
    case = gallery.bilinear_mixing()
    Zs = VectorFieldSet([standard_prolong(W, 1) for W in case.fields])
    for Z in Zs:
        assert Z.apply(Pinv).sym == 0
        assert Z.apply(Q).sym == 0
    for Y in gallery.bilinear_mixing_foreign_fields():
        assert is_zero(Y.apply(Pinv), deny=deny).is_nonzero
        assert is_zero(Y.apply(Q), deny=deny).is_nonzero


def test_bridge_identity_components():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    S = ExprMatrix([[P("u"), P("1")], [P("0"), P("v")]])
    out = mu_sigma_bridge(ExprMatrix.identity(2), ctx, S=S)
    assert out.M == S.transpose()


def test_bridge_trivial_transformation():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    Phi = ExprMatrix([[P("u"), P("1")], [P("1"), P("v")]])
    out = mu_sigma_bridge(Phi, ctx, S=ExprMatrix.identity(2))
    assert out.M == ExprMatrix.identity(2)
    assert out.lift.holds


def test_bridge_diagonal_lift():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    Phi = ExprMatrix([[P("u"), P("0")], [P("0"), P("v")]])
    S = ExprMatrix([[P("u + x"), P("0")], [P("0"), P("v^2")]])
    out = mu_sigma_bridge(Phi, ctx, S=S)
    assert out.lift.holds  # diagonal matrices commute
    # recovering S back from M closes the loop
    back = mu_sigma_bridge(Phi, ctx, M=out.M)
    assert back.S == S


def test_bridge_requires_exactly_one():
    ctx = JetContext("x", ["u", "v"], 1)
    with pytest.raises(Exception):
        mu_sigma_bridge(ExprMatrix.identity(2), ctx)
