import random

import pytest
import sympy as sp

from jetsigma import gallery
from jetsigma.determining import (
    Ansatz,
    NotPolynomialInVarsError,
    collect_coefficients,
    generate_determining,
)
from jetsigma.exprs import Expr, ExprError, UndeclaredSymbolError, is_zero, substitute
from jetsigma.jets import JetContext, VectorField, VectorFieldSet
from jetsigma.prolong import SigmaMatrix
from jetsigma.reduction import ODESystem, verify_sigma_symmetry


def _printed_equations(P):
    return {
        (0, 0): P(
            "A(u_1,v_1)*exp(v)*(-B(u_1,v_1)*c1*exp(u) + (1+exp(u))*(k2*u_1 + k1*v_1))"
            " - (D(A,0,1)(u_1,v_1)*exp(u)*(1+exp(v))*k1"
            " + exp(v)*(c1 + D(A,1,0)(u_1,v_1)*(1+exp(u))*k1))*u_1*v_1"
        ),
        (0, 1): P(
            "A(u_1,v_1)*exp(u)*(-B(u_1,v_1)*c2*exp(v) + (1+exp(v))*(k2*u_1 + k1*v_1))"
            " - (c2*exp(u) + D(A,1,0)(u_1,v_1)*(1+exp(u))*exp(v)*k2"
            " + D(A,0,1)(u_1,v_1)*exp(u)*(1+exp(v))*k2)*u_1*v_1"
        ),
        (1, 0): P(
            "B(u_1,v_1)*exp(v)*(-A(u_1,v_1)*exp(u)*k1 + (1+exp(u))*(c2*u_1 + c1*v_1))"
            " - (D(B,0,1)(u_1,v_1)*c1*exp(u)*(1+exp(v))"
            " + exp(v)*(D(B,1,0)(u_1,v_1)*c1*(1+exp(u)) + k1))*u_1*v_1"
        ),
        (1, 1): P(
            "B(u_1,v_1)*exp(u)*(-A(u_1,v_1)*exp(v)*k2 + (1+exp(v))*(c2*u_1 + c1*v_1))"
            " - (D(B,1,0)(u_1,v_1)*c2*(1+exp(u))*exp(v)"
            " + D(B,0,1)(u_1,v_1)*c2*exp(u)*(1+exp(v)) + exp(u)*k2)*u_1*v_1"
        ),
    }


def test_opaque_residuals_match_displayed_equations():
    ctx, system, ansatz = gallery.constant_coefficient_ansatz()
    P = ctx.parse
    result = generate_determining(system, ansatz)
    unit = P("-exp(u + v)")
    printed = _printed_equations(P)
    for key in sorted(result.residuals):
        assert is_zero(result.residuals[key] * unit - printed[key], trials=12).is_zero


def test_candidate_verifies_against_both_sign_variants():
    """The coupled translation pair with its cross twist is a symmetry of both
    exponential sign variants; the reduction, not the symmetry check, pins the
    bundled variant."""
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    X1 = VectorField.on_base(ctx, 0, [P("1"), P("0")])
    X2 = VectorField.on_base(ctx, 0, [P("0"), P("1")])
    Xs = VectorFieldSet([X1, X2])
    sig = SigmaMatrix(ctx, [[P("0"), P("v_1")], [P("u_1"), P("0")]])
    minus = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1+exp(-u))"), P("v_2 - u_1*v_1*(1-exp(-v))")],
        solved={"u_2": P("u_1*v_1*(1+exp(-u))"), "v_2": P("u_1*v_1*(1-exp(-v))")},
    )
    plus = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1+exp(-u))"), P("v_2 - u_1*v_1*(1+exp(-v))")],
        solved={"u_2": P("u_1*v_1*(1+exp(-u))"), "v_2": P("u_1*v_1*(1+exp(-v))")},
    )
    assert verify_sigma_symmetry(Xs, sig, minus).holds
    assert verify_sigma_symmetry(Xs, sig, plus).holds
    # the restriction of the derived invariant distinguishes the variants
    from jetsigma.jets import total_derivative
    from jetsigma.reduction import restrict

    dz1 = total_derivative(P("exp(-u)*v_1"), ctx)
    r_minus = restrict(dz1, minus)
    r_plus = restrict(dz1, plus)
    assert (r_minus + P("exp(-u)*v_1") * P("exp(-v)*u_1")).sym == 0
    assert (r_plus - P("exp(-u)*v_1") * P("exp(-v)*u_1")).sym == 0


def test_zero_fields_vacuous():
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2"), P("v_2")], solved={"u_2": P("0"), "v_2": P("0")})
    Xs = VectorFieldSet(
        [VectorField.on_base(ctx, 0, [P("0"), P("0")]) for _ in range(2)]
    )
    rep = verify_sigma_symmetry(Xs, SigmaMatrix.zero(ctx, 2), sys)
    assert rep.holds
    assert all(r.sym == 0 for r in rep.residuals.values())


def test_classical_symmetry_recovered():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2")], solved={"u_2": P("0")})
    ansatz = Ansatz(ctx, phi=[[P("1")]], sigma=SigmaMatrix.zero(ctx, 1))
    result = generate_determining(sys, ansatz)
    assert all(r.sym == 0 for r in result.residuals.values())


def test_collect_coefficients_direct_reading():
    ctx = JetContext("x", ["u"], 2, parameters=["c", "d"])
    P = ctx.parse
    out = collect_coefficients(P("c*u_1 + d*u_1^2"), ["u_1"])
    assert set(e.sym for e in out) == {sp.Symbol("c"), sp.Symbol("d")}
    assert collect_coefficients(P("0"), ["u_1"]) == []
    assert collect_coefficients(P("c*u_1 + d*u_1^2"), ["u_x"]) == out


def test_collect_vars_resolved_through_symbol_table():
    """String collection variables go through the symbol table: an alias
    collects like its canonical name, an undeclared name raises."""
    ctx = JetContext("x", ["u", "v"], 2, parameters=["c1", "c2", "k1", "k2", "p1", "p2", "q1", "q2"])
    P = ctx.parse
    system = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1+exp(-u))"), P("v_2 - u_1*v_1*(1+exp(-v))")],
        solved={"u_2": P("u_1*v_1*(1+exp(-u))"), "v_2": P("u_1*v_1*(1+exp(-v))")},
    )
    ansatz = Ansatz(
        ctx,
        phi=[[P("c1"), P("c2")], [P("k1"), P("k2")]],
        sigma=SigmaMatrix(ctx, [[P("0"), P("p1*u_1 + p2*v_1")], [P("q1*u_1 + q2*v_1"), P("0")]]),
    )
    canonical = generate_determining(system, ansatz, ["u_1", "v_1"]).coefficient_equations
    alias = generate_determining(system, ansatz, ["u_x", "v_x"]).coefficient_equations
    assert len(canonical) > 4
    assert alias == canonical
    with pytest.raises(UndeclaredSymbolError):
        generate_determining(system, ansatz, ["w_1"])


def test_collect_coefficients_rejects_hidden_variable():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    with pytest.raises(NotPolynomialInVarsError):
        collect_coefficients(P("exp(u_1) + u_1"), ["u_1"])
    with pytest.raises(NotPolynomialInVarsError):
        collect_coefficients(P("1/u_1"), ["u_1"])
    # the message prints the denominator in the grammar, atoms included
    with pytest.raises(NotPolynomialInVarsError, match=r"denominator u_1 \+ exp\(u\) involves"):
        collect_coefficients(P("1/(u_1 + exp(u))"), ["u_1"])


def test_ansatz_templates_are_walked_in_the_field():
    """Opaque applications are found inside kernel arguments too, and each
    of their arguments must be a coordinate of order <= 1."""
    ctx = JetContext("x", ["u"], 2, parameters=["c"], functions={"A": 1})
    P = ctx.parse
    zero = SigmaMatrix.zero(ctx, 1)
    assert not Ansatz(ctx, phi=[[P("c*exp(u)")]], sigma=zero).has_opaque()
    assert Ansatz(ctx, phi=[[P("c")]], sigma=SigmaMatrix(ctx, [[P("exp(A(u_1))")]])).has_opaque()
    assert Ansatz(ctx, phi=[[P("sin(1 + A(x))")]], sigma=zero).has_opaque()
    for bad in ("A(u_2)", "A(u + x)", "exp(A(2*u))"):
        with pytest.raises(ExprError, match="opaque template argument"):
            Ansatz(ctx, phi=[[P(bad)]], sigma=zero)


def test_coefficient_equations_deduplicated_by_value():
    """Two equal templates give equal residuals; their coefficient equations
    are kept once, in first-seen order."""
    ctx = JetContext("x", ["u"], 1, parameters=["a", "b"])
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1 - u^2")], solved={"u_1": P("u^2")})
    phi = [[P("a*u + b")], [P("a*u + b")]]
    ansatz = Ansatz(ctx, phi=phi, sigma=SigmaMatrix.zero(ctx, 2))
    eqs = generate_determining(sys, ansatz, ["u"]).coefficient_equations
    assert eqs == [P("-a"), P("-2*b")]


def test_linear_ansatz_admits_known_solution():
    ctx = JetContext(
        "x", ["u", "v"], 2, parameters=["c1", "c2", "k1", "k2", "p1", "p2", "q1", "q2"]
    )
    P = ctx.parse
    system = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1+exp(-u))"), P("v_2 - u_1*v_1*(1+exp(-v))")],
        solved={"u_2": P("u_1*v_1*(1+exp(-u))"), "v_2": P("u_1*v_1*(1+exp(-v))")},
    )
    ansatz = Ansatz(
        ctx,
        phi=[[P("c1"), P("c2")], [P("k1"), P("k2")]],
        sigma=SigmaMatrix(
            ctx, [[P("0"), P("p1*u_1 + p2*v_1")], [P("q1*u_1 + q2*v_1"), P("0")]]
        ),
    )
    result = generate_determining(system, ansatz)
    assert result.coefficient_equations
    solution = {"p1": 0, "p2": 1, "q1": 1, "q2": 0, "c1": 1, "c2": 0, "k1": 0, "k2": 1}
    for eq in result.coefficient_equations:
        assert substitute(eq, solution).sym == 0
    for r in result.residuals.values():
        assert substitute(r, solution).sym == 0


def test_concrete_ansatz_agrees_with_symmetry_check():
    """A fully concrete ansatz reduces the determining residuals to the plain
    symmetry residuals."""
    case = gallery.exp_coupled_pair()
    ctx = case.ctx
    P = ctx.parse
    ansatz = Ansatz(
        ctx,
        phi=[[P("1"), P("0")], [P("0"), P("1")]],
        sigma=case.sigma,
    )
    result = generate_determining(case.system, ansatz)
    direct = verify_sigma_symmetry(case.fields, case.sigma, case.system)
    for key in result.residuals:
        assert (result.residuals[key] - direct.residuals[key]).sym == 0


def test_residuals_linear_in_field_templates():
    """With the twist fixed, residuals are additive in the field coefficients."""
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    sys = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1"), P("v_2 - u_1*v_1")],
        solved={"u_2": P("u_1*v_1"), "v_2": P("u_1*v_1")},
    )
    sig = SigmaMatrix(ctx, [[P("0"), P("v_1")], [P("u_1"), P("0")]])
    rng = random.Random(41)
    from fuzzing import random_polynomial

    base = [ctx.x, ctx.coord(0, 0), ctx.coord(1, 0)]
    for _ in range(3):
        phi_a = [[random_polynomial(rng, base) for _ in range(2)] for _ in range(2)]
        phi_b = [[random_polynomial(rng, base) for _ in range(2)] for _ in range(2)]
        phi_sum = [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(phi_a, phi_b)
        ]
        outs = []
        for phi in (phi_a, phi_b, phi_sum):
            ansatz = Ansatz(ctx, phi=[list(r) for r in phi], sigma=sig)
            outs.append(generate_determining(sys, ansatz).residuals)
        for key in outs[0]:
            assert (outs[0][key] + outs[1][key] - outs[2][key]).sym == 0


def test_generate_determining_runs_no_zero_test(monkeypatch):
    """Residual generation reports no verdict, so it samples nothing; the
    counter sees the zero tests of verify_sigma_symmetry on the same input
    (run by ``CheckResult.test`` in ``exprs``)."""
    import jetsigma.exprs
    import jetsigma.reduction

    calls = []
    real = jetsigma.exprs.is_zero

    def counting(e, *args, **kwargs):
        calls.append(e)
        return real(e, *args, **kwargs)

    for module in (jetsigma.exprs, jetsigma.reduction):
        monkeypatch.setattr(module, "is_zero", counting)
    ctx, system, ansatz = gallery.constant_coefficient_ansatz()
    result = generate_determining(system, ansatz)
    assert calls == []
    verify_sigma_symmetry(ansatz.fields(), ansatz.sigma, system)
    assert len(calls) == len(result.residuals) == 4
