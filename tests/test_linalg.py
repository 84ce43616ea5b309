import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.rings import PolyElement

from jetsigma.exprs import Expr, ExprError
from jetsigma.jets import JetContext, VectorField, VectorFieldSet, lie_bracket
from jetsigma.linalg import ExprMatrix, SingularMatrixError, linear_solve


@pytest.fixture
def ctx():
    return JetContext("x", ["u", "v"], 2)


def test_identity_system(ctx):
    P = ctx.parse
    b = [P("u_1*v"), P("exp(-u)")]
    result = linear_solve([[P("1"), P("0")], [P("0"), P("1")]], b)
    assert result.status == "solved"
    assert result.solution == b


def test_linear_solve_without_equations_raises():
    """With no rows the number of unknowns is unknown; no answer is made up."""
    with pytest.raises(ExprError, match="at least one equation"):
        linear_solve([], [])


@pytest.mark.parametrize(
    "mat, rhs, message",
    [
        ([[1, 0], [0, 1]], [2], r"2 equation\(s\) but 1 right side"),
        ([[1]], [1, 5], r"1 equation\(s\) but 2 right side"),
        ([[1, 0], [1]], [1, 2], "ragged matrix"),
    ],
)
def test_linear_solve_checks_its_shapes(mat, rhs, message):
    """A right side of another length than the system, or rows of unequal
    length, are refused rather than paired off until the shorter runs out."""
    with pytest.raises(ExprError, match=message):
        linear_solve([[Expr(c) for c in row] for row in mat], [Expr(b) for b in rhs])


def test_bracket_expansion_coefficients(ctx):
    """Expressing a bracket in the set's own basis gives (0, 1) for the
    scaling/transvection pair."""
    from jetsigma.prolong import SigmaMatrix, sigma_prolong

    P = ctx.parse
    X1 = VectorField.on_base(ctx, 0, [P("u"), P("0")])
    X2 = VectorField.on_base(ctx, 0, [P("0"), P("-u")])
    sig = SigmaMatrix(ctx, [[P("0"), P("-u")], [P("-u_1"), P("0")]])
    Ys = sigma_prolong(VectorFieldSet([X1, X2]), sig, 2)
    br = lie_bracket(Ys[0], Ys[1])
    mat = [[Ys[k].components()[c] for k in range(2)] for c in range(len(br.components()))]
    result = linear_solve(mat, br.components())
    assert result.status == "solved"
    assert [s.sym for s in result.solution] == [0, 1]


def test_inconsistent_witness(ctx):
    P = ctx.parse
    result = linear_solve([[P("1")], [P("1")]], [P("u"), P("u + 1")])
    assert result.status == "inconsistent"
    assert result.witness is not None
    # the rows of [[exp(u), exp(u + v)], [1, exp(v)]] are proportional
    mat = [[P("exp(u)"), P("exp(u + v)")], [P("1"), P("exp(v)")]]
    assert linear_solve(mat, [P("1"), P("1")]).status == "inconsistent"


def test_underdetermined_free_indices(ctx):
    P = ctx.parse
    result = linear_solve([[P("1"), P("u")]], [P("v")])
    assert result.status == "underdetermined"
    assert result.free_indices == [1]
    assert result.solution[0] == P("v") and result.solution[1].sym == 0
    mat = [[P("exp(u)"), P("exp(u + v)")], [P("1"), P("exp(v)")]]
    result = linear_solve(mat, [P("exp(u)"), P("1")])
    assert result.status == "underdetermined"
    assert result.free_indices == [1]
    assert result.solution[0] == P("1")


def test_solve_with_expression_pivots(ctx):
    P = ctx.parse
    mat = [[P("u"), P("1")], [P("1"), P("v")]]
    rhs = [P("u^2 + 1"), P("u + v")]
    result = linear_solve(mat, rhs)
    assert result.status == "solved"
    assert result.solution[0] == P("u")
    assert result.solution[1] == P("1")


def test_matrix_inverse_and_det(ctx):
    P = ctx.parse
    A = ExprMatrix([[P("u"), P("1")], [P("1"), P("v")]])
    assert A.det() == P("u*v - 1")
    Ainv = A.inverse()
    assert (A @ Ainv) == ExprMatrix.identity(2)
    assert (Ainv @ A) == ExprMatrix.identity(2)
    # a pivot is decided exactly, never by the size of sampled values
    tiny = ExprMatrix([[P("u/10^15")]])
    assert tiny.det() == P("u/10^15")
    assert tiny.inverse() == ExprMatrix([[P("10^15/u")]])


def test_singular_matrix_rejected(ctx):
    P = ctx.parse
    A = ExprMatrix([[P("u"), P("u")], [P("v"), P("v")]])
    with pytest.raises(SingularMatrixError):
        A.inverse()
    # exp(u)*exp(v) = exp(u + v): the rows are proportional
    B = ExprMatrix([[P("exp(u)"), P("exp(u + v)")], [P("1"), P("exp(v)")]])
    assert B.det().sym == 0
    with pytest.raises(SingularMatrixError):
        B.inverse()
    C = ExprMatrix([[P("exp(u/2)"), P("exp(u)")], [P("1"), P("exp(u/2)")]])
    with pytest.raises(SingularMatrixError):
        C.inverse()
    # exp(1) is the constant e, and exp(u + 1) = e*exp(u)
    D = ExprMatrix([[P("exp(u + 1)"), P("exp(1)*exp(u)")], [P("1"), P("1")]])
    with pytest.raises(SingularMatrixError):
        D.inverse()


_ENTRIES = ["0", "1", "-2", "1/3", "u", "v", "2*u", "u/v", "1/(u + 1)", "u*v - 1", "(u - v)/(u + v)"]
_SQUARE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from(_ENTRIES), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(_SQUARE)
def test_inverse_is_two_sided_or_singular(texts):
    """M @ M^-1 = M^-1 @ M = I, or SingularMatrixError exactly when det(M)
    is 0."""
    P = JetContext("x", ["u", "v"], 2).parse
    M = ExprMatrix([[P(t) for t in row] for row in texts])
    if M.det().is_rational_zero:
        with pytest.raises(SingularMatrixError):
            M.inverse()
    else:
        Minv = M.inverse()
        identity = ExprMatrix.identity(M.nrows)
        assert M @ Minv == identity and Minv @ M == identity


def test_matmul_cancels_once_per_entry(ctx, monkeypatch):
    P = ctx.parse
    A = ExprMatrix([[P("1/u"), P("v/(u + 1)")], [P("u_1"), P("1/(u*v)")]])
    B = ExprMatrix([[P("u"), P("1/v")], [P("(u + 1)/v"), P("u + v")]])
    calls = []
    cancel = PolyElement.cancel
    monkeypatch.setattr(PolyElement, "cancel", lambda p, q: calls.append(q) or cancel(p, q))
    product = A @ B
    assert len(calls) <= 4
    monkeypatch.setattr(PolyElement, "cancel", cancel)
    assert product == ExprMatrix(
        [
            [P("2"), P("1/(u*v) + v*(u + v)/(u + 1)")],
            [P("u*u_1 + (u + 1)/(u*v^2)"), P("u_1/v + (u + v)/(u*v)")],
        ]
    )


def test_matrix_algebra(ctx):
    P = ctx.parse
    A = ExprMatrix([[P("u"), P("0")], [P("0"), P("v")]])
    B = ExprMatrix([[P("1"), P("2")], [P("3"), P("4")]])
    assert (A @ B)[0, 1] == P("2*u")
    assert (A + B)[1, 1] == P("v + 4")
    assert (A - B).transpose()[0, 1] == P("-3")
    assert A.total_derivative(ctx)[0, 0] == P("u_1")


def test_exp_basis_comes_from_the_arguments(ctx):
    """exp(1/(u + 1))*exp(u/(u + 1)) = exp(1): the exp generators come from
    the arguments' field elements, not a term-by-term expansion."""
    P = ctx.parse
    M = ExprMatrix([[P("exp(1/(u+1))"), P("exp(1)")], [P("1"), P("exp(u/(u+1))")]])
    assert M.det().is_rational_zero
    with pytest.raises(SingularMatrixError):
        M.inverse()
    result = linear_solve([list(M.row(0)), list(M.row(1))], [P("1"), P("0")])
    assert result.status == "inconsistent"
