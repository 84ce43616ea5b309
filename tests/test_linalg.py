import sys

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.polys.rings import PolyElement

from jetsigma import exprs
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
    calls.clear()
    chain = ExprMatrix.combination([(1, A, None), (1, B, A), (-1, B, None), (-1, A, B)])
    assert len(calls) <= 4
    monkeypatch.setattr(PolyElement, "cancel", cancel)
    assert product == ExprMatrix(
        [
            [P("2"), P("1/(u*v) + v*(u + v)/(u + 1)")],
            [P("u*u_1 + (u + 1)/(u*v^2)"), P("u_1/v + (u + v)/(u*v)")],
        ]
    )
    assert chain == A + B @ A - B - A @ B


def test_matrix_algebra(ctx):
    P = ctx.parse
    A = ExprMatrix([[P("u"), P("0")], [P("0"), P("v")]])
    B = ExprMatrix([[P("1"), P("2")], [P("3"), P("4")]])
    assert (A @ B)[0, 1] == P("2*u")
    assert (A + B)[1, 1] == P("v + 4")
    assert (A - B).transpose()[0, 1] == P("-3")
    assert A.total_derivative(ctx)[0, 0] == P("u_1")
    C = ExprMatrix([[P("1/u"), P("exp(v)")], [P("u_1"), P("0")]])
    terms = [(1, A, B), (-1, C, None), (1, C, C), (-1, B, A), (1, A, None)]
    fused = ExprMatrix.combination(terms)
    assert fused == A @ B - C + C @ C - B @ A + A

    def entry(i, j):  # the same sum formed with Expr operators, one link at a time
        total = Expr.number(0)
        for sign, X, Y in terms:
            value = X[i, j] if Y is None else sum((X[i, k] * Y[k, j] for k in range(X.ncols)), Expr.number(0))
            total = total + sign * value
        return total

    assert fused == ExprMatrix([[entry(i, j) for j in range(2)] for i in range(2)])
    assert ExprMatrix.combination([(-1, C, None)]) == ExprMatrix.zero(2, 2) - C
    assert ExprMatrix.combination([(1, A, None), (-1, A, None)]) == ExprMatrix.zero(2, 2)
    row = ExprMatrix([[P("u"), P("v")]])
    with pytest.raises(ExprError, match="matrix shapes differ"):
        ExprMatrix.combination([(1, A, None), (1, row, None)])
    with pytest.raises(ExprError, match="matrix shapes differ"):
        ExprMatrix.combination([(1, A, B), (1, row, B)])
    with pytest.raises(ExprError, match="cannot multiply 2x2 by 1x2"):
        ExprMatrix.combination([(1, A, row)])


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


# The elimination the library ran before it went fraction-free, kept here
# only as the reference: a DomainMatrix over the field's own domain, where
# every entry operation of sympy's rref, inv and det takes one cancel.


def _field_domain_matrix(rows) -> DomainMatrix:
    ncols = len(rows[0])
    elems = exprs._field_values([e for row in rows for e in row])
    return DomainMatrix(
        [elems[i : i + ncols] for i in range(0, len(elems), ncols)], (len(rows), ncols), elems[0].field.to_domain()
    )


def _reference_solve(mat, rhs) -> tuple:
    n = len(mat[0])
    reduced, pivots = _field_domain_matrix([[*row, b] for row, b in zip(mat, rhs)]).rref()
    rows = reduced.to_list()
    if n in pivots:
        return "inconsistent", None, [], Expr._of(rows[len(pivots) - 1][n])
    solution = [Expr.number(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = Expr._of(rows[i][n])
    free = [c for c in range(n) if c not in pivots]
    return "underdetermined" if free else "solved", solution, free, None


_P = JetContext("x", ["u", "v"], 2).parse
# denominators that share factors (u, u + 1, u^2 + u, u*v + u), exp atoms
# whose products are exp atoms again, and constants
_POOL = [
    _P(t)
    for t in [
        "0", "1", "-2", "1/3", "v", "1/u", "1/(u + 1)", "v/(u^2 + u)", "(u - v)/(u*v + u)",
        "exp(u)", "exp(-u)", "exp(v)/u", "exp(u + v)", "u*exp(-v)/(u + 1)",
    ]
]
_ZERO = Expr.number(0)


@st.composite
def _systems(draw):
    """[M | b] of 1 to 3 rows and columns: the rows drawn, but for at most
    one, which is zero or a sum of multiples of the rows before it; b drawn
    (often inconsistent then) or M x for a drawn x."""
    ncols, nrows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.sampled_from(_POOL)
    special, dependent = draw(st.sampled_from([None, None, *range(nrows)])), draw(st.booleans())
    mat = []
    for i in range(nrows):
        if i != special:
            mat.append([draw(entry) for _ in range(ncols)])
        elif dependent and mat:
            coeffs = [draw(entry) for _ in mat]
            mat.append([sum((c * row[j] for c, row in zip(coeffs, mat)), _ZERO) for j in range(ncols)])
        else:
            mat.append([_ZERO] * ncols)
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), _ZERO) for row in mat]
    else:
        rhs = [draw(entry) for _ in mat]
    return mat, rhs


_SINGULAR = [[_P("exp(u)"), _P("exp(u + v)")], [_P("1"), _P("exp(v)")]]


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(_systems())
@example((_SINGULAR, [_P("1"), _P("1")]))
@example((_SINGULAR, [_P("exp(u)"), _P("1")]))
def test_eliminations_match_the_field_domain_reference(system):
    """linear_solve, pivot_columns, det and inverse agree with the rref, det
    and inv of a DomainMatrix over the field itself."""
    mat, rhs = system
    result = linear_solve(mat, rhs)
    assert (result.status, result.solution, result.free_indices, result.witness) == _reference_solve(mat, rhs)
    M = ExprMatrix(mat)
    reference = _field_domain_matrix(mat)
    assert M.pivot_columns() == list(reference.rref()[1])
    if M.is_square:
        assert M.det() == Expr._of(reference.det())
        try:
            inverse = ExprMatrix([[Expr._of(e) for e in row] for row in reference.inv().to_list()])
        except DMNonInvertibleMatrixError:
            with pytest.raises(SingularMatrixError):
                M.inverse()
        else:
            assert M.inverse() == inverse


def _cancels(monkeypatch, call) -> tuple[int, int]:
    """The cancels ``call()`` makes in all, and those made from inside
    ``sympy.polys.matrices``."""
    counts = [0, 0]
    cancel = PolyElement.cancel

    def counting(p, q):
        counts[0] += 1
        frame = sys._getframe(1)
        while frame is not None and not frame.f_globals.get("__name__", "").startswith("sympy.polys.matrices"):
            frame = frame.f_back
        counts[1] += frame is not None
        return cancel(p, q)

    monkeypatch.setattr(PolyElement, "cancel", counting)
    call()
    monkeypatch.setattr(PolyElement, "cancel", cancel)
    return tuple(counts)


def test_eliminations_cancel_only_their_results(ctx, monkeypatch):
    """An elimination runs in the polynomial ring: no cancel is made inside
    sympy's matrices, and at most one per result entry."""
    P = ctx.parse
    mat = [[P("1/u"), P("v/(u + 1)"), P("u")], [P("u_1"), P("1/(u*v)"), P("1/(u^2 + u)")], [P("2"), P("u/v"), P("1/3")]]
    rhs = [P("1/(u + 1)"), P("v"), P("u/(u - v)")]
    M = ExprMatrix(mat)
    for call, results in [(lambda: linear_solve(mat, rhs), 3), (M.inverse, 9), (M.det, 1), (M.pivot_columns, 0)]:
        total, inside = _cancels(monkeypatch, call)
        assert inside == 0 and total <= results
