"""Grammar-level property tests: text drawn from the parser's productions
(numbers, coordinates with their ``_x`` aliases, the four operators, ``^``
with negative integer exponents, the five kernels, opaque applications and
their ``D(F, i, j)`` partials) must parse, print and parse back to the same
Expr, or raise a documented ``ExprError``."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetsigma.exprs import Expr, ExprError, SymbolTable, parse, print_expr

TABLE = SymbolTable("x", ["u", "v"], parameters=["c1"], functions={"A": 2, "F": 1})
NAMES = ["x", "c1", "u", "v", "u_0", "u_1", "v_2", "u_x", "v_xx", "u_xxx"]
KERNELS = ["exp", "log", "sin", "cos", "arctan"]


def _grammar_text():
    leaf = st.one_of(st.integers(0, 12).map(str), st.sampled_from(NAMES))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda a: f"-({a})"),
            st.tuples(st.sampled_from(KERNELS), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, inner).map(lambda t: f"A({t[0]},{t[1]})"),
            inner.map(lambda a: f"F({a})"),
            st.tuples(st.integers(0, 2), st.integers(0, 2), inner, inner).map(
                lambda t: f"D(A,{t[0]},{t[1]})({t[2]},{t[3]})"
            ),
            st.tuples(st.integers(0, 2), inner).map(lambda t: f"D(F,{t[0]})({t[1]})"),
        )

    return st.recursive(leaf, extend, max_leaves=10)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_grammar_text())
@example("arctan(1)")
@example("exp(1)")
@example("exp(u + 1)")
@example("exp(u)*exp(1 - u)")
@example("cos(arctan(u))")
@example("exp(log(u))")
@example("exp(2*log(u))")
@example("log(2*u)")
@example("log((256*u^4 + 512*u^2 + 81*v^2 + 256)/(256*u^4 + 512*u^2 + 256))")
@example("exp(1/(u + 1))*exp(u/(u + 1))")
@example("sin(-u) + sin(u)")
@example("1/(u + exp(u - v))")
@example("D(A,1,0)(u_1,v_xx)^-2")
@example("1/(u - u)")
def test_parse_print_round_trip(text):
    try:
        e = parse(text, TABLE)
    except ExprError:
        return  # a documented failure, such as a division by zero
    printed = print_expr(e)
    again = parse(printed, TABLE)
    assert again == e and hash(again) == hash(e)
    # normalization is idempotent, and the tree edge reads back the element
    assert print_expr(again) == printed
    assert Expr(e.sym) == e
