"""Grammar-level property tests: text drawn from the parser's productions
(numbers, coordinates with their ``_x`` aliases, the four operators, ``^``
with negative integer exponents, the five kernels, opaque applications and
their ``D(F, i, j)`` partials) must parse, print and parse back to the same
Expr, or raise a documented ``ExprError``, and ``parse`` must give the value
that applying the ``Expr`` operators production by production gives."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetsigma import exprs
from jetsigma.exprs import Expr, ExprError, SymbolTable, parse, print_expr

TABLE = SymbolTable("x", ["u", "v"], parameters=["c1"], functions={"A": 2, "F": 1})
NAMES = ["x", "c1", "u", "v", "u_0", "u_1", "v_2", "u_x", "v_xx", "u_xxx"]
KERNELS = ["exp", "log", "sin", "cos", "arctan"]


def _grammar_text():
    """Leaves are coordinates three times in four, and the arithmetic
    productions are drawn twice as often as the kernel and opaque ones, so
    most drawn values depend on a coordinate.  Each weight is a separate
    strategy object: ``one_of`` drops repeats of one object."""
    leaf = st.one_of(*(st.sampled_from(NAMES) for _ in range(3)), st.integers(0, 12).map(str))

    def extend(inner):
        def arithmetic():
            return [
                st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
                st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
                inner.map(lambda a: f"-({a})"),
            ]

        return st.one_of(
            *arithmetic(),
            *arithmetic(),
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
@example("exp(1/u)*exp(-1/(u + 1)) - exp(1/(u^2 + u))").xfail(
    reason="ROADMAP item 2: exp terms over denominators that share a factor are not reduced against "
    "each other, so the element is nonzero but prints as text that parses to 0",
    raises=AssertionError,
)
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


class _OperatorReference:
    """Grammar text read production by production with the ``Expr``
    operators, each operation forming its own quotient: the path ``parse``
    took before it fed the tree reader, kept as its reference.  Only
    well-formed text is read; the parser's error paths have their own tests."""

    def __init__(self, text: str):
        self.tokens, self.i = exprs._tokenize(text), 0

    def next(self) -> str:
        self.i += 1
        return self.tokens[self.i - 1][1]

    def accept(self, ops: str) -> str | None:
        kind, text, _ = self.tokens[self.i]
        if kind == "op" and text in ops:
            self.i += 1
            return text
        return None

    def value(self) -> Expr:
        e = self.sum()
        assert self.tokens[self.i][0] == "end"
        return e

    def sum(self) -> Expr:
        e = self.product()
        while op := self.accept("+-"):
            e = e + self.product() if op == "+" else e - self.product()
        return e

    def product(self) -> Expr:
        e = self.factor()
        while op := self.accept("*/"):
            e = e * self.factor() if op == "*" else e / self.factor()
        return e

    def factor(self) -> Expr:
        sign = self.accept("+-")
        if sign:
            inner = self.factor()
            return inner if sign == "+" else -inner
        base = self.primary()
        if self.accept("^"):
            return base ** int(self.factor()._field().numer.LC)
        return base

    def args(self) -> tuple[Expr, ...]:
        self.accept("(")
        out = [self.sum()]
        while self.accept(","):
            out.append(self.sum())
        self.accept(")")
        return tuple(out)

    def primary(self) -> Expr:
        kind, text, _ = self.tokens[self.i]
        self.next()
        if kind == "num":
            return Expr.number(int(text))
        if text == "(":
            e = self.sum()
            self.accept(")")
            return e
        if text == "D":
            self.accept("(")
            name, orders = self.next(), []
            while self.accept(","):
                orders.append(int(self.next()))
            self.accept(")")
            return exprs._atom(exprs._opaque_class(name, len(orders), tuple(orders)), self.args())
        if text in exprs._KERNELS:
            return exprs._kernel(text, *self.args())
        if text in TABLE.functions:
            return exprs._atom(exprs._opaque_class(text, TABLE.functions[text]), self.args())
        return Expr(TABLE.lookup(text))


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_grammar_text())
@example("1/(u - u)")
@example("(0)^-2")
@example("(u - u)^0")
@example("exp(2*u - 3*v + 1)")
@example("exp(u/2)*exp(u) - exp(v/3)^-2")
@example("-(u)^-2/(v - 1) + 3/(u*v) - x/2")
@example("D(A,1,0)(u_1,v_xx)^-2 + F(u/(u + 1))")
@example("exp(1/u)*exp(-1/(u + 1)) - exp(1/(u^2 + u))")
@example("sin(-u)*cos(-v) + sin(u)/arctan(-(u - v))")
def test_parse_matches_the_operator_reference(text):
    try:
        expected = _OperatorReference(text).value()
    except ExprError:
        with pytest.raises(ExprError):
            parse(text, TABLE)
        return
    e = parse(text, TABLE)
    assert e == expected and hash(e) == hash(expected)
    assert print_expr(e) == print_expr(expected)
