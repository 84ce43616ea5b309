"""A gallery of fully worked twisted-symmetry case studies.

The bundled session files (``jetsigma/sessions/*.session``) define the cases:
each constructor loads its session and adds only the values the case is
expected to produce (the prolonged set, the reduced right sides).  The few
cases without a session file (the second and third transposed twists, the
foreign fields of the bilinear mixing, the partial-rank invariant basis) are
built here.  The demo scripts walk through them narratively; the test suite
pins their every printed quantity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields as dataclass_fields

import sympy as sp

from .exprs import Expr
from .jets import JetContext, VectorField, VectorFieldSet
from .prolong import SigmaMatrix
from .session import Session, load_session

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

_SESSIONS = os.path.join(os.path.dirname(__file__), "sessions")


@dataclass
class CaseStudy(Session):
    """A bundled session with the values its case study is expected to give."""

    name: str = ""
    expected_prolonged: VectorFieldSet | None = None
    expected_reduced_rhs: dict[str, Expr] = field(default_factory=dict)
    reduced_targets: list[str] = field(default_factory=list)


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


def _session(name: str) -> Session:
    return load_session(os.path.join(_SESSIONS, f"{name}.session"))


def _case(name: str, **expected) -> CaseStudy:
    """The bundled session `name` as a case study with the expected values."""
    session = _session(name)
    data = {f.name: getattr(session, f.name) for f in dataclass_fields(Session) if f.init}
    return CaseStudy(**data, name=name, **expected)


def _fields(ctx, *phi_rows):
    return VectorFieldSet(
        [VectorField.on_base(ctx, Expr.number(0), [ctx.parse(c) for c in row]) for row in phi_rows]
    )


def _sigma(ctx, rows):
    return SigmaMatrix(ctx, [[ctx.parse(e) for e in row] for row in rows])


def _vf(ctx, order, coeffs, xi="0"):
    return VectorField.from_coefficients(
        ctx, {k: ctx.parse(v) for k, v in coeffs.items()}, order, ctx.parse(xi)
    )


def exp_coupled_pair() -> CaseStudy:
    """Two translation fields on a pair of exponentially coupled second-order
    equations; the off-diagonal twist uses the opposite first derivatives.
    Full reduction to two first-order equations."""
    z1, z2 = sp.symbols("z1 z2")
    case = _case(
        "exp_coupled_pair",
        expected_reduced_rhs={"z1_1": Expr(-z1 * z2), "z2_1": Expr(z1 * z2)},
        reduced_targets=["z1_1", "z2_1"],
    )
    ctx = case.ctx
    case.expected_prolonged = VectorFieldSet(
        [
            _vf(ctx, 2, {("u", 0): "1", ("v", 1): "v_1", ("u", 2): "u_1*v_1", ("v", 2): "v_2"}),
            _vf(ctx, 2, {("v", 0): "1", ("u", 1): "u_1", ("u", 2): "u_2", ("v", 2): "u_1*v_1"}),
        ]
    )
    return case


def scaling_pair() -> CaseStudy:
    """A scaling field and a transvection field with a base-and-derivative
    twist; the system couples exponentially in v and reduces to first order."""
    z1, z2 = sp.symbols("z1 z2")
    case = _case(
        "scaling_pair",
        expected_reduced_rhs={"z1_1": Expr(z2**2), "z2_1": Expr(z1 * z2)},
        reduced_targets=["z1_1", "z2_1"],
    )
    ctx = case.ctx
    case.expected_prolonged = VectorFieldSet(
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
    return case


def transpose_twist_cases() -> list[TwistCase]:
    """Three sets whose twist matrices are transposes of working ones; the
    first prolongations then fail to stay in involution and the closure
    adjoins extra generators."""
    session = _session("transposed_twist")
    ctx = session.ctx
    P = ctx.parse
    cases = []

    cases.append(
        TwistCase(
            name="translations_transposed",
            ctx=ctx,
            fields=session.fields,
            sigma=session.sigma,
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
    return _case("identity_twist_quotient")


def bilinear_mixing() -> CaseStudy:
    """Mixing a scaling and a rotation with a symmetric base matrix; the
    induced twist carries the determinant denominator 1 - u*v."""
    case = _case("bilinear_mixing")
    # the shared invariant arctan(u_1/v_1) - arctan(u/v) of the pair divides
    # by v and v_1, so sampled points keep off both
    case.deny += [case.ctx.parse("v_1"), case.ctx.parse("v")]
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
    return _case("radial_quotient")


def radial_polynomial() -> CaseStudy:
    """The same radial profile fields pushed through a polynomially scaled
    rotation matrix rho^2 R; the induced twist gains a factor of five on the
    diagonal."""
    return _case("radial_polynomial")


def three_component_chain() -> CaseStudy:
    """Three implicit second-order equations in (u, v, w) invariant under two
    commuting translation combinations with a first-derivative twist; a rank-2
    set over three dependents, so the reduction is mixed-order."""
    xi, xi_1 = sp.symbols("xi xi_1")
    z1, z2 = sp.symbols("z1 z2")
    return _case(
        "three_component_chain",
        expected_reduced_rhs={
            "xi_2": Expr(xi**3 / (xi_1**2 * z1 * z2**2)),
            "z1_1": Expr(xi**2 / (xi_1**2 * z2)),
            "z2_1": Expr(xi / xi_1),
        },
        reduced_targets=["xi_2", "z1_1", "z2_1"],
    )


def partial_rank_triple() -> CaseStudy:
    """A scaling field and a transvection on three dependents with a nilpotent
    twist: seven joint invariants beside x, and a reduction to one second-order
    and two first-order equations."""
    xi, xi_1 = sp.symbols("xi xi_1")
    eta, rho = sp.symbols("eta rho")
    case = _case(
        "partial_rank_triple",
        expected_reduced_rhs={
            "xi_2": Expr(2 * rho),
            "rho_1": Expr(eta),
            "eta_1": Expr(xi_1 - xi),
        },
        reduced_targets=["xi_2", "rho_1", "eta_1"],
    )
    # the order-0 invariant w/u is the first seed here, and callers integrate
    # the system, so it comes solved
    case.seeds = case.extra_base + case.seeds
    case.extra_base = []
    case.system = case.solved_system()
    return case


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
    session = _session("determining_ansatz")
    return session.ctx, session.system, session.ansatz
