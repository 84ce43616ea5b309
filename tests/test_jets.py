import random

import pytest
import sympy as sp

from jetsigma import exprs
from jetsigma.exprs import Expr, ExprError, derivation, eval_numeric
from jetsigma.jets import JetContext, VectorField, VectorFieldSet, lie_bracket, total_derivative

from fuzzing import random_expr, random_polynomial


@pytest.fixture
def ctx():
    return JetContext("x", ["u", "v"], 2)


def test_total_derivative_examples(ctx):
    P = ctx.parse
    assert total_derivative(P("exp(-u)*v_1"), ctx) == P("exp(-u)*(v_2 - u_1*v_1)")
    assert total_derivative(P("x"), ctx).sym == 1
    assert total_derivative(P("exp(-v)*u_1"), ctx) == P("exp(-v)*(u_2 - u_1*v_1)")


def test_total_derivative_extends_order(ctx):
    # applying at the top order emits the next coordinate rather than failing
    e = total_derivative(ctx.parse("u_2"), ctx)
    assert e.sym == sp.Symbol("u_3")


def test_total_derivative_has_no_order_bound(ctx):
    assert total_derivative(ctx.parse("u_9"), ctx) == ctx.parse("u_10")


def test_extended_contexts_share_the_total_derivative_images(ctx):
    wider = ctx.extended(5)
    assert wider.table.dx_images is ctx.table.dx_images
    assert total_derivative(wider.parse("v_4"), wider) == ctx.parse("v_5")
    assert ctx.table.dx_images[sp.Symbol("v_4")] == ctx.parse("v_5")


@pytest.mark.parametrize("first", ["dependent", "parameter"])
def test_a_kept_total_derivative_belongs_to_one_image_map(first):
    """One Expr(u), differentiated where u is a dependent (D_x u = u_1) and
    where u is a parameter (D_x u = 0), in either order and back: each
    table's image map gets its own result."""
    contexts = {"dependent": JetContext("x", ["u"], 1), "parameter": JetContext("x", ["v"], 1, parameters=["u"])}
    expected = {"dependent": Expr(sp.Symbol("u_1")), "parameter": Expr.number(0)}
    u = Expr(sp.Symbol("u"))
    second = "parameter" if first == "dependent" else "dependent"
    for kind in (first, second, first):
        assert total_derivative(u, contexts[kind]) == expected[kind], kind


def test_a_kept_total_derivative_survives_exp_retirement():
    """D_x exp(rdx) is kept before exp(rdx/2) retires the generator exp(rdx)
    for exp(rdx/2)^2; the kept result still equals a fresh derivation."""
    ctx = JetContext("x", ["rdx"], 2)
    e = ctx.parse("exp(rdx)")
    kept = total_derivative(e, ctx)
    (generator,) = e._frac.field.symbols
    half = ctx.parse("exp(rdx/2)")
    assert generator in exprs._AMBIENT.retired
    assert total_derivative(e, ctx) is kept
    assert kept == derivation(e, ctx.table.dx_images) == ctx.parse("rdx_1") * half**2


def test_apply_uses_the_coefficients_of_a_derived_field(ctx):
    P = ctx.parse
    V = VectorField.from_coefficients(ctx, {("u", 0): P("v"), ("u", 1): P("u")}, 1, xi=P("1"))
    W = VectorField.from_coefficients(ctx, {("u", 0): P("-v"), ("v", 0): P("x")}, 1)
    e = P("x*u + u_1*v")
    assert V.apply(e) == P("u + x*v + u*v")
    assert V.scaled(P("u")).apply(e) == P("u*(u + x*v + u*v)")
    assert V.plus(W).apply(e) == P("u + u*v + x*u_1")
    assert V.truncated(0).apply(P("x*u*v")) == P("u*v + x*v^2")
    # a coefficient the sum cancels no longer acts
    assert V.plus(W).apply(P("u")) == P("0")


def test_apply_examples(ctx):
    P = ctx.parse
    y1 = VectorField.from_coefficients(
        ctx,
        {("u", 0): P("1"), ("v", 1): P("v_1"), ("u", 2): P("u_1*v_1"), ("v", 2): P("v_2")},
        2,
    )
    assert y1.apply(P("exp(-u)*v_1")).sym == 0
    assert y1.apply(P("5/7")).sym == 0
    du = VectorField.on_base(ctx, 0, [P("1"), P("0")])
    assert du.apply(P("u*v")) == P("v")


def test_apply_rejects_higher_order(ctx):
    du = VectorField.on_base(ctx, 0, [ctx.parse("1"), ctx.parse("0")])
    with pytest.raises(Exception):
        du.apply(ctx.parse("u_1"))


def test_bracket_antisymmetry_on_self(ctx):
    P = ctx.parse
    V = VectorField.from_coefficients(ctx, {("u", 0): P("u*v"), ("v", 1): P("u_1 + x")}, 1)
    W = V.truncated(1)
    assert lie_bracket(W, W).is_zero_field()


def test_bracket_quotient_case():
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    y1 = VectorField.from_coefficients(ctx, {("v", 0): P("1"), ("v", 1): P("u_1/u")}, 1)
    y2 = VectorField.from_coefficients(ctx, {("u", 0): P("1/u")}, 1)
    br = lie_bracket(y1, y2)
    expected = VectorField.from_coefficients(ctx, {("v", 1): P("u_1/u^3")}, 1)
    assert br == expected


def test_equal_contexts_are_compatible():
    """Fields on two separately built but equal contexts combine, and bracket
    as fields on one context do; contexts with other declarations do not."""

    def fields(ctx):
        P = ctx.parse
        V = VectorField.on_base(ctx, P("x"), [P("u*v"), P("1")])
        W = VectorField.on_base(ctx, P("0"), [P("v"), P("u^2")])
        return V, W

    one, other = JetContext("x", ["u", "v"], 2), JetContext("x", ["u", "v"], 2)
    assert one is not other and one.table is not other.table and one == other
    V, W = fields(one)
    V2, W2 = fields(other)
    assert lie_bracket(V, W2) == lie_bracket(V, W) == lie_bracket(V2, W)
    assert VectorFieldSet([V, W2]) == VectorFieldSet([V2, W])
    assert V.plus(W2) == V.plus(W)
    for declared in (JetContext("x", ["u", "w"], 2), JetContext("x", ["u", "v"], 2, parameters=["c"])):
        U = VectorField.on_base(declared, 0, [declared.parse("u"), declared.parse("x")])
        with pytest.raises(ExprError, match="different jet spaces"):
            lie_bracket(V, U)
        with pytest.raises(ExprError, match="different jet spaces"):
            VectorFieldSet([U, V])


def test_jacobi_identity_fuzzed():
    ctx = JetContext("x", ["u", "v"], 0)
    rng = random.Random(5)
    base = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    for _ in range(6):
        fields = [
            VectorField.on_base(
                ctx,
                random_polynomial(rng, base, degree=1, terms=1),
                [random_polynomial(rng, base) for _ in range(2)],
            )
            for _ in range(3)
        ]
        a, b, c = fields
        total = lie_bracket(lie_bracket(a, b), c).plus(
            lie_bracket(lie_bracket(b, c), a)
        ).plus(lie_bracket(lie_bracket(c, a), b))
        assert total.is_zero_field()


def test_total_derivative_product_rule(ctx):
    rng = random.Random(6)
    syms = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0), ctx.coord(0, 1)]
    for _ in range(10):
        e = random_expr(rng, syms, depth=2)
        f = random_expr(rng, syms, depth=2)
        lhs = total_derivative(e * f, ctx)
        rhs = total_derivative(e, ctx) * f + e * total_derivative(f, ctx)
        assert lhs == rhs


def test_apply_is_derivation(ctx):
    rng = random.Random(7)
    syms = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    base = syms
    for _ in range(10):
        V = VectorField.on_base(
            ctx,
            random_polynomial(rng, base, degree=1, terms=1),
            [random_polynomial(rng, base) for _ in range(2)],
        )
        e = random_expr(rng, syms, depth=2)
        f = random_expr(rng, syms, depth=2)
        assert V.apply(e * f) == V.apply(e) * f + e * V.apply(f)


def test_total_derivative_matches_dynamics(ctx):
    """Along a numeric solution, the evaluated total derivative of an
    expression equals the time derivative of its evaluation."""
    import numpy as np

    from jetsigma.oracle import integrate, invariant_along_trajectory
    from jetsigma.reduction import ODESystem

    P = ctx.parse
    sys = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1 + exp(-u))"), P("v_2 - u_1*v_1*(1 - exp(-v))")],
        solved={"u_2": P("u_1*v_1*(1 + exp(-u))"), "v_2": P("u_1*v_1*(1 - exp(-v))")},
    )
    traj = integrate(sys, {"u": 0, "v": 0, "u_1": 1, "v_1": 1}, (0.0, 0.4), 1e-3)
    e = P("x*u + v_1^2")
    from jetsigma.reduction import restrict

    de = restrict(total_derivative(e, ctx), sys)
    vals, dvals = invariant_along_trajectory(e, traj)
    dexp, _ = invariant_along_trajectory(de, traj)
    rel = np.max(np.abs(dvals - dexp[1:-1])) / max(1.0, np.max(np.abs(dexp)))
    assert rel < 1e-4


def test_field_printing(ctx):
    P = ctx.parse
    f = VectorField.from_coefficients(ctx, {("u", 0): P("u"), ("v", 1): P("-u*u_1")}, 1, xi=P("x"))
    assert str(f) == "x*d/dx + u*d/du - u*u_1*d/dv_1"


def test_set_requires_shared_order(ctx):
    a = VectorField.on_base(ctx, 0, [ctx.parse("1"), ctx.parse("0")])
    b = VectorField.from_coefficients(ctx, {("u", 0): ctx.parse("1")}, 1)
    with pytest.raises(Exception):
        VectorFieldSet([a, b])
    with pytest.raises(Exception):
        VectorFieldSet([])
