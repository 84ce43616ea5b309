"""A gallery of fully worked twisted-symmetry case studies.

Each constructor returns a small bundle holding the jet context, the base
fields, the twist matrix, and whatever else the case carries (an invariant
ODE system, seed invariants, a change to invariant coordinates with verified
inverse bindings, expected reduced equations).  The demo scripts walk through
them narratively; the test suite pins their every printed quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import sympy as sp

from .exprs import Expr
from .jets import JetContext, VectorField, VectorFieldSet
from .linalg import ExprMatrix
from .prolong import SigmaMatrix
from .reduction import CoordinateChange, ODESystem, solve_for_highest

__all__ = [
    "CaseStudy",
    "TwistCase",
    "exp_coupled_pair",
    "scaling_pair",
    "transpose_twist_cases",
    "identity_twist_quotient",
    "bilinear_mixing",
    "bilinear_mixing_foreign_fields",
    "radial_quotient",
    "radial_polynomial",
    "three_component_chain",
    "partial_rank_triple",
    "partial_rank_invariant_basis",
    "constant_coefficient_ansatz",
]


@dataclass
class CaseStudy:
    name: str
    ctx: JetContext
    fields: VectorFieldSet
    sigma: SigmaMatrix | None = None
    system: ODESystem | None = None
    eta: Expr | None = None
    seeds: list[Expr] = field(default_factory=list)
    extra_base: list[Expr] = field(default_factory=list)
    change: CoordinateChange | None = None
    expected_prolonged: VectorFieldSet | None = None
    expected_reduced_rhs: dict[str, Expr] = field(default_factory=dict)
    reduced_targets: list[str] = field(default_factory=list)
    deny: list[Expr] = field(default_factory=list)
    matrices: dict[str, ExprMatrix] = field(default_factory=dict)
    notes: str = ""


@dataclass
class TwistCase:
    name: str
    ctx: JetContext
    fields: VectorFieldSet
    sigma: SigmaMatrix
    expected_first_prolongation: VectorFieldSet
    expected_added: list[VectorField]
    expected_table: dict[tuple[int, int], dict[int, Expr]]  # (i,j) -> {k: coeff}
    expected_Q: list[Expr]
    expected_Q_contracted: list[Expr]


def _fields(ctx, *phi_rows, xi=None):
    xi = xi or ["0"] * len(phi_rows)
    return VectorFieldSet(
        [
            VectorField.on_base(ctx, ctx.parse(x), [ctx.parse(c) for c in row])
            for x, row in zip(xi, phi_rows)
        ]
    )


def _sigma(ctx, rows):
    return SigmaMatrix(ctx, [[ctx.parse(e) for e in row] for row in rows])


def _matrix(ctx, rows):
    return ExprMatrix([[ctx.parse(e) for e in row] for row in rows])


def _vf(ctx, order, coeffs, xi="0"):
    return VectorField.from_coefficients(
        ctx, {k: ctx.parse(v) for k, v in coeffs.items()}, order, ctx.parse(xi)
    )


def exp_coupled_pair() -> CaseStudy:
    """Two translation fields on a pair of exponentially coupled second-order
    equations; the off-diagonal twist uses the opposite first derivatives.
    Full reduction to two first-order equations."""
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    fields = _fields(ctx, ["1", "0"], ["0", "1"])
    sigma = _sigma(ctx, [["0", "v_1"], ["u_1", "0"]])
    system = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1 + exp(-u))"), P("v_2 - u_1*v_1*(1 - exp(-v))")],
        solved={"u_2": P("u_1*v_1*(1 + exp(-u))"), "v_2": P("u_1*v_1*(1 - exp(-v))")},
    )
    expected = VectorFieldSet(
        [
            _vf(ctx, 2, {("u", 0): "1", ("v", 1): "v_1", ("u", 2): "u_1*v_1", ("v", 2): "v_2"}),
            _vf(ctx, 2, {("v", 0): "1", ("u", 1): "u_1", ("u", 2): "u_2", ("v", 2): "u_1*v_1"}),
        ]
    )
    u, v = sp.symbols("u v")
    z1, z2, z1_1, z2_1 = sp.symbols("z1 z2 z1_1 z2_1")
    change = CoordinateChange(
        ctx,
        new={"z1": P("exp(-u)*v_1"), "z2": P("exp(-v)*u_1")},
        inverse={
            "v_1": Expr(sp.exp(u) * z1),
            "u_1": Expr(sp.exp(v) * z2),
            "u_2": Expr(sp.exp(v) * z2_1 + sp.exp(u + v) * z1 * z2),
            "v_2": Expr(sp.exp(u) * z1_1 + sp.exp(u + v) * z1 * z2),
        },
    )
    return CaseStudy(
        name="exp_coupled_pair",
        ctx=ctx,
        fields=fields,
        sigma=sigma,
        system=system,
        eta=P("x"),
        seeds=[P("exp(-u)*v_1"), P("exp(-v)*u_1")],
        change=change,
        expected_prolonged=expected,
        expected_reduced_rhs={"z1_1": Expr(-z1 * z2), "z2_1": Expr(z1 * z2)},
        reduced_targets=["z1_1", "z2_1"],
    )


def scaling_pair() -> CaseStudy:
    """A scaling field and a transvection field with a base-and-derivative
    twist; the system couples exponentially in v and reduces to first order."""
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    fields = _fields(ctx, ["u", "0"], ["0", "-u"])
    sigma = _sigma(ctx, [["0", "-u"], ["-u_1", "0"]])
    system = ODESystem(
        ctx,
        2,
        [
            P(
                "u*u_2 - ((4*exp(-v) - 7)*u_1^2 + (9*u*v_1 - 4*u^3)*u_1"
                " + exp(v)*(u^6 + 4*(u_1^2 + u^2*v_1^2 + u^3*u_1 - u^4*v_1 - 2*u*u_1*v_1)))"
            ),
            P(
                "u^2*v_2 - (u^3*u_1 + (exp(-2*v) - 1)*u_1^2 + u*u_2"
                " - exp(-v)*(u*u_2 - 2*u*u_1*v_1 + 1/2*u^3*u_1))"
            ),
        ],
    )
    expected = VectorFieldSet(
        [
            _vf(
                ctx,
                2,
                {
                    ("u", 0): "u",
                    ("u", 1): "u_1",
                    ("v", 1): "u^2",
                    ("u", 2): "u_2 + u^2*u_1",
                    ("v", 2): "3*u*u_1",
                },
            ),
            _vf(
                ctx,
                2,
                {
                    ("v", 0): "-u",
                    ("u", 1): "-u*u_1",
                    ("v", 1): "-u_1",
                    ("u", 2): "-(u*u_2 + 2*u_1^2)",
                    ("v", 2): "-(u_2 + u^2*u_1)",
                },
            ),
        ]
    )
    u, v = sp.symbols("u v")
    z1, z2, z1_1, z2_1 = sp.symbols("z1 z2 z1_1 z2_1")
    ev = sp.exp(v)
    change = CoordinateChange(
        ctx,
        new={"z1": P("exp(-v)*u_1/u"), "z2": P("2*v_1 - u^2 - 2*(1 - exp(-v))*u_1/u")},
        inverse={
            "u_1": Expr(u * z1 * ev),
            "v_1": Expr(u**2 / 2 + z1 * ev - z1 + z2 / 2),
            "u_2": Expr(u * (u**2 * z1 + 4 * z1**2 * ev - 2 * z1**2 + z1 * z2 + 2 * z1_1) * ev / 2),
            "v_2": Expr(
                sp.Rational(3, 2) * u**2 * z1 * ev
                + z1**2 * sp.exp(2 * v)
                - z1**2 * ev
                + z1 * z2 * ev / 2
                + z1_1 * ev
                - z1_1
                + z2_1 / 2
            ),
        },
    )
    return CaseStudy(
        name="scaling_pair",
        ctx=ctx,
        fields=fields,
        sigma=sigma,
        system=system,
        eta=P("x"),
        seeds=[P("exp(-v)*u_1/u"), P("2*v_1 - u^2 - 2*(1 - exp(-v))*u_1/u")],
        change=change,
        expected_prolonged=expected,
        expected_reduced_rhs={"z1_1": Expr(z2**2), "z2_1": Expr(z1 * z2)},
        reduced_targets=["z1_1", "z2_1"],
        deny=[P("u")],
    )


def transpose_twist_cases() -> list[TwistCase]:
    """Three sets whose twist matrices are transposes of working ones; the
    first prolongations then fail to stay in involution and the closure
    adjoins extra generators."""
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    cases = []

    fields1 = _fields(ctx, ["1", "0"], ["0", "1"])
    cases.append(
        TwistCase(
            name="translations_transposed",
            ctx=ctx,
            fields=fields1,
            sigma=_sigma(ctx, [["0", "u_1"], ["v_1", "0"]]),
            expected_first_prolongation=VectorFieldSet(
                [
                    _vf(ctx, 1, {("u", 0): "1", ("v", 1): "u_1"}),
                    _vf(ctx, 1, {("v", 0): "1", ("u", 1): "v_1"}),
                ]
            ),
            expected_added=[
                _vf(ctx, 1, {("u", 1): "u_1", ("v", 1): "-v_1"}),
                _vf(ctx, 1, {("v", 1): "u_1"}),
                _vf(ctx, 1, {("u", 1): "v_1"}),
            ],
            expected_table={
                (0, 1): {2: P("1")},
                (0, 2): {3: P("-2")},
                (0, 4): {2: P("1")},
                (1, 2): {4: P("2")},
                (1, 3): {2: P("-1")},
                (2, 3): {3: P("2")},
                (2, 4): {4: P("-2")},
                (3, 4): {2: P("1")},
            },
            expected_Q=[P("u_1"), P("-v_1")],
            expected_Q_contracted=[P("u_1"), P("-v_1")],
        )
    )

    fields2 = _fields(ctx, ["u", "0"], ["0", "-u"])
    cases.append(
        TwistCase(
            name="scaling_transposed",
            ctx=ctx,
            fields=fields2,
            sigma=_sigma(ctx, [["0", "u_1"], ["u", "0"]]),
            expected_first_prolongation=VectorFieldSet(
                [
                    _vf(ctx, 1, {("u", 0): "u", ("u", 1): "u_1", ("v", 1): "-u*u_1"}),
                    _vf(ctx, 1, {("v", 0): "-u", ("u", 1): "u^2", ("v", 1): "-u_1"}),
                ]
            ),
            expected_added=[_vf(ctx, 1, {("v", 1): "u^3"})],
            expected_table={
                (0, 1): {1: P("1"), 2: P("1")},
                (0, 2): {2: P("3")},
            },
            expected_Q=[P("u"), P("-u^2")],
            expected_Q_contracted=[P("u^2"), P("u^3")],
        )
    )

    fields3 = _fields(ctx, ["1", "0"], ["0", "1"])
    cases.append(
        TwistCase(
            name="translations_mixed",
            ctx=ctx,
            fields=fields3,
            sigma=_sigma(ctx, [["0", "u_1"], ["u", "0"]]),
            expected_first_prolongation=VectorFieldSet(
                [
                    _vf(ctx, 1, {("u", 0): "1", ("v", 1): "u_1"}),
                    _vf(ctx, 1, {("v", 0): "1", ("u", 1): "u"}),
                ]
            ),
            expected_added=[
                _vf(ctx, 1, {("u", 1): "1", ("v", 1): "-u"}),
                _vf(ctx, 1, {("v", 1): "1"}),
            ],
            expected_table={
                (0, 1): {2: P("1")},
                (0, 2): {3: P("-2")},
            },
            expected_Q=[P("1"), P("-u")],
            expected_Q_contracted=[P("1"), P("-u")],
        )
    )
    return cases


def identity_twist_quotient() -> CaseStudy:
    """A scalar quotient twist u_1/u times the identity: the induced matrix
    equation has a whole family of solutions, two of which are bundled."""
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    fields = _fields(ctx, ["0", "1"], ["1/u", "0"])
    sigma = _sigma(ctx, [["u_1/u", "0"], ["0", "u_1/u"]])
    case = CaseStudy(
        name="identity_twist_quotient",
        ctx=ctx,
        fields=fields,
        sigma=sigma,
        deny=[P("u")],
        matrices={
            "A": _matrix(ctx, [["0", "u"], ["u", "0"]]),
            "B": _matrix(ctx, [["u", "0"], ["0", "u"]]),
        },
    )
    return case


def bilinear_mixing() -> CaseStudy:
    """Mixing a scaling and a rotation with a symmetric base matrix; the
    induced twist carries the determinant denominator 1 - u*v."""
    ctx = JetContext("x", ["u", "v"], 1)
    P = ctx.parse
    fields = _fields(ctx, ["u", "v"], ["-v", "u"])  # the standardly prolonged generators' bases
    case = CaseStudy(
        name="bilinear_mixing",
        ctx=ctx,
        fields=fields,
        deny=[P("1 - u*v"), P("v_1"), P("v")],
        matrices={"A": _matrix(ctx, [["u", "1"], ["1", "v"]])},
    )
    case.sigma = _sigma(
        ctx,
        [
            ["-v*u_1/(1 - u*v)", "v_1/(1 - u*v)"],
            ["u_1/(1 - u*v)", "-u*v_1/(1 - u*v)"],
        ],
    )
    return case


def bilinear_mixing_foreign_fields() -> VectorFieldSet:
    """A hand-picked twisted-looking pair over the same base points that does
    NOT lie in the module of the standard generators: the shared invariants of
    the standard pair all fail under these fields, illustrating that module
    equality is a property of matched twists, never automatic."""
    ctx = JetContext("x", ["u", "v"], 1)
    y1 = _vf(
        ctx,
        1,
        {
            ("u", 0): "(1-u)*v/(1-u*v)",
            ("v", 0): "(1-v)*u/(1-u*v)",
            ("u", 1): "(v_1 - v*u_1)/(1-u*v)",
            ("v", 1): "(u_1 - u*v_1)/(1-u*v)",
        },
    )
    y2 = _vf(
        ctx,
        1,
        {
            ("u", 0): "(u + v^2)/(1-u*v)",
            ("v", 0): "-(u^2 + v)/(1-u*v)",
            ("u", 1): "(u_1 + v*v_1)/(1-u*v)",
            ("v", 1): "-(v_1 + u*u_1)/(1-u*v)",
        },
    )
    return VectorFieldSet([y1, y2])


def radial_quotient() -> CaseStudy:
    """Fields scaled by 1/(u^2+v^2) with an opaque profile function h; the
    rotation-like base matrix induces a twist on the first jet bundle."""
    ctx = JetContext("x", ["u", "v"], 1, functions={"h": 2})
    P = ctx.parse
    rho = P("u^2 + v^2")
    fields = VectorFieldSet(
        [
            VectorField.on_base(ctx, P("0"), [P("h(x,u)") / rho, P("0")]),
            VectorField.on_base(ctx, P("0"), [P("0"), P("h(x,v)") / rho]),
        ]
    )
    case = CaseStudy(
        name="radial_quotient",
        ctx=ctx,
        fields=fields,
        deny=[rho],
        matrices={"A": _matrix(ctx, [["-v", "-u"], ["u", "-v"]])},
    )
    case.sigma = _sigma(
        ctx,
        [
            ["-(u*u_1 + v*v_1)/(u^2 + v^2)", "(u*v_1 - v*u_1)/(u^2 + v^2)"],
            ["(-u*v_1 + v*u_1)/(u^2 + v^2)", "-(u*u_1 + v*v_1)/(u^2 + v^2)"],
        ],
    )
    return case


def radial_polynomial() -> CaseStudy:
    """The same radial profile fields pushed through a polynomially scaled
    rotation matrix rho^2 R; the induced twist gains a factor of five on the
    diagonal."""
    ctx = JetContext("x", ["u", "v"], 1, functions={"h": 2})
    P = ctx.parse
    rho = P("u^2 + v^2")
    fields = VectorFieldSet(
        [
            VectorField.on_base(ctx, P("0"), [P("h(x,u)") / rho, P("0")]),
            VectorField.on_base(ctx, P("0"), [P("0"), P("h(x,v)") / rho]),
        ]
    )
    case = CaseStudy(
        name="radial_polynomial",
        ctx=ctx,
        fields=fields,
        deny=[rho],
        matrices={
            "A": _matrix(
                ctx,
                [
                    ["(u^2 + v^2)^2*v", "-(u^2 + v^2)^2*u"],
                    ["(u^2 + v^2)^2*u", "(u^2 + v^2)^2*v"],
                ],
            )
        },
    )
    case.sigma = _sigma(
        ctx,
        [
            ["-5*(u*u_1 + v*v_1)/(u^2 + v^2)", "-(u*v_1 - v*u_1)/(u^2 + v^2)"],
            ["-(-u*v_1 + v*u_1)/(u^2 + v^2)", "-5*(u*u_1 + v*v_1)/(u^2 + v^2)"],
        ],
    )
    return case


def three_component_chain() -> CaseStudy:
    """Three implicit second-order equations in (u, v, w) invariant under two
    commuting translation combinations with a first-derivative twist; a rank-2
    set over three dependents, so the reduction is mixed-order."""
    ctx = JetContext("x", ["u", "v", "w"], 2)
    P = ctx.parse
    fields = _fields(ctx, ["1", "1", "-1"], ["1", "1", "0"])
    sigma = _sigma(ctx, [["0", "u_1 + w_1"], ["u_1 - v_1 - w_1", "0"]])
    system = ODESystem(
        ctx,
        2,
        [
            P(
                "exp(-(u+w))*(u_2 - v_2)*(u_1 - v_1 - w_1)"
                " - (u - v)*(-u_1^2 + u_2 + u_1*v_1 + v_1*w_1 + w_1^2 + w_2)/(u_1 + w_1)"
            ),
            P(
                "exp(-(u-v-w))*(u_1 - v_1)*(u_2 + w_2 - u_1^2 + u_1*v_1 + v_1*w_1 + w_1^2)"
                " - (u - v)*(-u_1^2 + u_2 + u_1*v_1 - v_2 + v_1*w_1 + w_1^2 - w_2)"
                "/(u_1 - v_1 - w_1)"
            ),
            P(
                "(u - v) - exp(-(u+w))*(u_1 - v_1)"
                "*(u_2 - v_2 - w_2 - u_1^2 + u_1*v_1 + v_1*w_1 + w_1^2)"
            ),
        ],
    )
    u, v, w = sp.symbols("u v w")
    xi, xi_1, xi_2 = sp.symbols("xi xi_1 xi_2")
    z1, z1_1, z2, z2_1 = sp.symbols("z1 z1_1 z2 z2_1")
    E = sp.exp
    change = CoordinateChange(
        ctx,
        new={
            "xi": P("u - v"),
            "z1": P("exp(-(u-v-w))*(u_1 + w_1)"),
            "z2": P("exp(-(u+w))*(u_1 - v_1 - w_1)"),
        },
        inverse={
            "v": Expr(u - xi),
            "u_1": Expr(E(xi - w) * z1 - xi_1 + E(u + w) * z2),
            "v_1": Expr(E(xi - w) * z1 - 2 * xi_1 + E(u + w) * z2),
            "w_1": Expr(xi_1 - E(u + w) * z2),
            "u_2": Expr(E(xi - w) * z1_1 + 2 * E(u + xi) * z1 * z2 - xi_2 + E(u + w) * z2_1),
            "v_2": Expr(E(xi - w) * z1_1 + 2 * E(u + xi) * z1 * z2 - 2 * xi_2 + E(u + w) * z2_1),
            "w_2": Expr(xi_2 - E(u + w) * z2_1 - E(u + xi) * z1 * z2),
        },
    )
    return CaseStudy(
        name="three_component_chain",
        ctx=ctx,
        fields=fields,
        sigma=sigma,
        system=system,
        eta=P("x"),
        seeds=[
            P("exp(-(u-v-w))*(u_1 + w_1)"),
            P("exp(-(u+w))*(u_1 - v_1 - w_1)"),
            P("u_1 - v_1"),
        ],
        extra_base=[P("u - v")],
        change=change,
        expected_reduced_rhs={
            "xi_2": Expr(xi**3 / (xi_1**2 * z1 * z2**2)),
            "z1_1": Expr(xi**2 / (xi_1**2 * z2)),
            "z2_1": Expr(xi / xi_1),
        },
        reduced_targets=["xi_2", "z1_1", "z2_1"],
        deny=[P("u_1 + w_1"), P("u_1 - v_1 - w_1"), P("u_1 - v_1")],
    )


def partial_rank_triple() -> CaseStudy:
    """A scaling field and a transvection on three dependents with a nilpotent
    twist: seven joint invariants beside x, and a reduction to one second-order
    and two first-order equations."""
    ctx = JetContext("x", ["u", "v", "w"], 2)
    P = ctx.parse
    fields = _fields(ctx, ["u", "0", "w"], ["0", "-u", "0"])
    sigma = _sigma(ctx, [["0", "u_1"], ["0", "0"]])
    from .jets import total_derivative

    zeta1 = P("w/u")
    zeta2 = P("u_1/u")
    zeta3 = P("v_1 + u*u_1/2 - u_1*v/u")
    system = solve_for_highest(
        ODESystem(
            ctx,
            2,
            [
                total_derivative(zeta2, ctx) - total_derivative(zeta1, ctx) + zeta1,
                total_derivative(zeta3, ctx) - zeta2,
                total_derivative(total_derivative(zeta1, ctx), ctx) - zeta3 * 2,
            ],
        )
    )
    u, v, w = sp.symbols("u v w")
    xi, xi_1, xi_2 = sp.symbols("xi xi_1 xi_2")
    eta, eta_1, rho, rho_1 = sp.symbols("eta eta_1 rho rho_1")
    change = CoordinateChange(
        ctx,
        new={"xi": zeta1, "eta": zeta2, "rho": zeta3},
        inverse={
            "w": Expr(u * xi),
            "u_1": Expr(eta * u),
            "v_1": Expr(-eta * u**2 / 2 + eta * v + rho),
            "w_1": Expr(eta * u * xi + u * xi_1),
            "u_2": Expr(eta**2 * u + eta_1 * u),
            "v_2": Expr(
                -sp.Rational(3, 2) * eta**2 * u**2
                + eta**2 * v
                + eta * rho
                - eta_1 * u**2 / 2
                + eta_1 * v
                + rho_1
            ),
            "w_2": Expr(eta**2 * u * xi + 2 * eta * u * xi_1 + eta_1 * u * xi + u * xi_2),
        },
    )
    return CaseStudy(
        name="partial_rank_triple",
        ctx=ctx,
        fields=fields,
        sigma=sigma,
        system=system,
        eta=P("x"),
        seeds=[zeta1, zeta2, zeta3],
        change=change,
        expected_reduced_rhs={
            "xi_2": Expr(2 * rho),
            "rho_1": Expr(eta),
            "eta_1": Expr(xi_1 - xi),
        },
        reduced_targets=["xi_2", "rho_1", "eta_1"],
        deny=[P("u"), P("w")],
    )


def partial_rank_invariant_basis() -> list[Expr]:
    """The simple seven-invariant basis for the partial-rank case."""
    ctx = JetContext("x", ["u", "v", "w"], 2)
    P = ctx.parse
    return [
        P("w/u"),
        P("w_1/u"),
        P("w_2/u"),
        P("u_1/u"),
        P("u_2/u"),
        P("v_1 + u*u_1/2 - u_1*v/u"),
        P("v_2 + u_1^2 + u*u_2/2 - u_2*v/u"),
    ]


def constant_coefficient_ansatz():
    """The determining-equation case: the exponentially coupled system with
    constant field templates and opaque off-diagonal twist entries."""
    from .determining import Ansatz

    ctx = JetContext(
        "x", ["u", "v"], 2, parameters=["c1", "c2", "k1", "k2"], functions={"A": 2, "B": 2}
    )
    P = ctx.parse
    system = ODESystem(
        ctx,
        2,
        [P("u_2 - u_1*v_1*(1 + exp(-u))"), P("v_2 - u_1*v_1*(1 + exp(-v))")],
        solved={"u_2": P("u_1*v_1*(1 + exp(-u))"), "v_2": P("u_1*v_1*(1 + exp(-v))")},
    )
    ansatz = Ansatz(
        ctx,
        phi=[[P("c1"), P("c2")], [P("k1"), P("k2")]],
        sigma=_sigma(ctx, [["0", "A(u_1,v_1)"], ["B(u_1,v_1)", "0"]]),
    )
    return ctx, system, ansatz
