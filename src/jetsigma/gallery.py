"""A gallery of fully worked twisted-symmetry case studies.

The bundled session files (``jetsigma/sessions/*.session``) define the cases:
each builder loads its session and returns it, named after the file.  The few
inputs without a session file (the second and third transposed twists, the
foreign fields of the bilinear mixing, the partial-rank invariant basis) are
built here.  No builder carries an expected value; the tests keep those
(``tests/cases.py``), and the demo scripts walk through the cases
narratively.
"""

from __future__ import annotations

import os

from .exprs import Expr
from .jets import JetContext, VectorField, VectorFieldSet
from .prolong import SigmaMatrix
from .session import Session, load_session

__all__ = [
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


def _session(name: str) -> Session:
    return load_session(os.path.join(_SESSIONS, f"{name}.session"))


def exp_coupled_pair() -> Session:
    """Two translation fields on a pair of exponentially coupled second-order
    equations; the off-diagonal twist uses the opposite first derivatives.
    Full reduction to two first-order equations."""
    return _session("exp_coupled_pair")


def scaling_pair() -> Session:
    """A scaling field and a transvection field with a base-and-derivative
    twist; the system couples exponentially in v and reduces to first order."""
    return _session("scaling_pair")


def transpose_twist_cases() -> list[Session]:
    """Three sets whose twist matrices are transposes of working ones; the
    first prolongations then fail to stay in involution and the closure
    adjoins extra generators.  The first is the bundled transposed_twist
    session; each is named after its fields."""
    first = _session("transposed_twist")
    first.name = "translations_transposed"
    ctx = first.ctx
    P = ctx.parse

    def fields(*phi_rows):
        return VectorFieldSet([VectorField.on_base(ctx, 0, [P(c) for c in row]) for row in phi_rows])

    sigma = SigmaMatrix(ctx, [[P("0"), P("u_1")], [P("u"), P("0")]])
    return [
        first,
        Session(ctx, name="scaling_transposed", fields=fields(["u", "0"], ["0", "-u"]), sigma=sigma),
        Session(ctx, name="translations_mixed", fields=fields(["1", "0"], ["0", "1"]), sigma=sigma),
    ]


def identity_twist_quotient() -> Session:
    """A scalar quotient twist u_1/u times the identity: the induced matrix
    equation has a whole family of solutions, two of which are bundled."""
    return _session("identity_twist_quotient")


def bilinear_mixing() -> Session:
    """Mixing a scaling and a rotation with a symmetric base matrix; the
    induced twist carries the determinant denominator 1 - u*v."""
    return _session("bilinear_mixing")


def bilinear_mixing_foreign_fields() -> VectorFieldSet:
    """A hand-picked twisted-looking pair over the same base points that does
    NOT lie in the module of the standard generators: the shared invariants of
    the standard pair all fail under these fields, illustrating that module
    equality is a property of matched twists, never automatic."""
    ctx = JetContext("x", ["u", "v"], 1)
    coefficients = [
        {("u", 0): "(1-u)*v/(1-u*v)", ("v", 0): "(1-v)*u/(1-u*v)",
         ("u", 1): "(v_1 - v*u_1)/(1-u*v)", ("v", 1): "(u_1 - u*v_1)/(1-u*v)"},
        {("u", 0): "(u + v^2)/(1-u*v)", ("v", 0): "-(u^2 + v)/(1-u*v)",
         ("u", 1): "(u_1 + v*v_1)/(1-u*v)", ("v", 1): "-(v_1 + u*u_1)/(1-u*v)"},
    ]
    return VectorFieldSet(
        [VectorField.from_coefficients(ctx, {k: ctx.parse(v) for k, v in c.items()}, 1) for c in coefficients]
    )


def radial_quotient() -> Session:
    """Fields scaled by 1/(u^2+v^2) with an opaque profile function h; the
    rotation-like base matrix induces a twist on the first jet bundle."""
    return _session("radial_quotient")


def radial_polynomial() -> Session:
    """The same radial profile fields pushed through a polynomially scaled
    rotation matrix rho^2 R; the induced twist gains a factor of five on the
    diagonal."""
    return _session("radial_polynomial")


def three_component_chain() -> Session:
    """Three implicit second-order equations in (u, v, w) invariant under two
    commuting translation combinations with a first-derivative twist; a rank-2
    set over three dependents, so the reduction is mixed-order."""
    return _session("three_component_chain")


def partial_rank_triple() -> Session:
    """A scaling field and a transvection on three dependents with a nilpotent
    twist: seven joint invariants beside x, and a reduction to one second-order
    and two first-order equations."""
    case = _session("partial_rank_triple")
    # the order-0 invariant w/u is the first seed here, and callers integrate
    # the system, so it comes solved; in the session file this would change
    # the file's ibdp report
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
