"""The sympy tree reader (``exprs._from_tree``): drawn trees read to the same
element, hash and printed text as sympy's own rebuild of the tree in the
field, which cancels at every sum and product and is kept here only as the
reference; the reader's errors keep their text; a polynomial tree takes no
cancel and a tree with one denominator at most one."""

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.rings import PolyElement

from jetsigma import exprs
from jetsigma.exprs import Expr, ExprError, print_expr

# symbols of this module only: a drawn exp(ru/2) retires the generator
# exp(ru), which no other module's expressions then meet
U, V, X = sp.symbols("ru rv rx")
F = exprs._opaque_class("F", 1)
A = exprs._opaque_class("A", 2)


def _rebuild_read(tree):
    """The reference: the symbols and atoms of ``tree`` interned as the
    reader interns them, kernel and opaque arguments read by this function,
    then sympy's rebuild of the tree's sums, products and integer powers in
    the field, with the sign a negative power leaves made canonical."""
    values = {}

    def scan(e):
        if e in values or e.is_Rational:
            return
        if e.is_Symbol:
            values[e] = Expr._of(exprs._AMBIENT.gen(e))
        elif e is sp.E:
            values[e] = exprs._kernel("exp", exprs.ONE)
        elif e.func in exprs._KERNEL_OF_TREE:
            values[e] = exprs._kernel(exprs._KERNEL_OF_TREE[e.func], Expr._of(_rebuild_read(e.args[0])))
        elif exprs._is_opaque(e):
            values[e] = exprs._atom(type(e), tuple(Expr._of(_rebuild_read(a)) for a in e.args))
        elif e.is_Add or e.is_Mul or e.is_Pow and e.exp.is_Integer:
            for a in e.args:
                scan(a)
        else:
            raise ExprError(f"{e} is outside the supported expression fragment")

    scan(tree)
    fracs = exprs._field_values([exprs.ONE, *values.values()])
    field = fracs[0].field
    try:
        return exprs._signed(field.field_new(field._rebuild_expr(tree, dict(zip(values, fracs[1:])))))
    except ZeroDivisionError:
        raise ExprError(f"division by zero in {tree}") from None


def _trees():
    """Symbols (repeated), E, integer and rational coefficients; evaluated
    and unevaluated sums, products and integer powers, positive and
    negative; the five kernels and two opaque functions of any subtree."""
    number = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4)).map(sp.Rational)
    leaf = st.one_of(*(st.sampled_from([U, V, X]) for _ in range(3)), number, st.just(sp.E))
    kernels = [sp.exp, sp.log, sp.sin, sp.cos, sp.atan]

    def extend(inner):
        some = st.lists(inner, min_size=2, max_size=3)
        return st.one_of(
            some.map(lambda a: sp.Add(*a)),
            some.map(lambda a: sp.Add(*a, evaluate=False)),
            some.map(lambda a: sp.Mul(*a)),
            some.map(lambda a: sp.Mul(*a, evaluate=False)),
            st.tuples(inner, st.integers(-3, 3)).map(lambda t: sp.Pow(*t)),
            # the rebuild cannot read an unevaluated power 1 (see below)
            st.tuples(inner, st.sampled_from([-3, -2, -1, 0, 2, 3])).map(lambda t: sp.Pow(*t, evaluate=False)),
            st.tuples(st.sampled_from(kernels), inner).map(lambda t: t[0](t[1])),
            inner.map(F),
            st.tuples(inner, inner).map(lambda t: A(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=10)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_trees())
@example(3 * U**2 * V - 2 * X * U + 1)
@example(sp.Rational(2, 3) * U + V / 4)
@example(sp.Pow(U + V, -2, evaluate=False) * (U + 1))
@example(sp.Mul(2, U + V, sp.Pow(U, -1), U, evaluate=False))
@example(sp.Pow(sp.Mul(-2, U, V, evaluate=False), 3, evaluate=False))
@example(sp.Pow(sp.Rational(2, 3), -2, evaluate=False) * U)
@example(sp.Pow(sp.E, 3, evaluate=False) * sp.exp(U + 1))
@example(sp.exp(U / 2) * sp.exp(U + V) - sp.exp(-U) / sp.exp(V))
@example(sp.sin(-U - V) * sp.cos(-U) + sp.atan(-V) / sp.log(U + 1))
@example(F(U + V) * A(U, 1 / (V + 1)) - F(U + V) ** -2)
@example(sp.Pow(sp.Add(U, -U, evaluate=False), -1, evaluate=False))
@example(sp.Mul(0, U, evaluate=False) + V)
def test_reader_matches_the_rebuild(tree):
    try:
        expected = Expr._of(_rebuild_read(tree))
    except ExprError as error:
        with pytest.raises(ExprError) as raised:
            exprs._from_tree(tree)
        assert str(raised.value) == str(error)
        return
    got = Expr._of(exprs._from_tree(tree))
    a, b = exprs._field_values([got, expected])
    assert (a.numer, a.denom) == (b.numer, b.denom)
    assert got == expected and hash(got) == hash(expected)
    assert print_expr(got) == print_expr(expected)


@pytest.mark.parametrize(
    "tree, message",
    [
        (sp.Pow(0, -1, evaluate=False), "division by zero in 1/0"),
        (sp.Pow(sp.Add(U, -U, evaluate=False), -1, evaluate=False), "division by zero in 1/(-ru + ru)"),
        (sp.Float(0.5) * U, "0.500000000000000 is outside the supported expression fragment"),
        (sp.sqrt(U), "sqrt(ru) is outside the supported expression fragment"),
        (sp.I * U, "I is outside the supported expression fragment"),
        (sp.pi * U, "pi is outside the supported expression fragment"),
        (sp.oo, "oo is outside the supported expression fragment"),
    ],
)
def test_reader_errors_keep_their_text(tree, message):
    with pytest.raises(ExprError) as raised:
        Expr(tree)
    assert str(raised.value) == message


def test_unevaluated_first_power_is_its_base():
    """sympy's rebuild raised CoercionFailed on an unevaluated power 1."""
    tree = sp.Add(U, sp.Pow(U + V, 1, evaluate=False), evaluate=False)
    assert print_expr(Expr(tree)) == "2*ru + rv"


@pytest.mark.parametrize(
    "tree",
    [
        sp.Pow(sp.Add(U, -U, evaluate=False), 0, evaluate=False),
        sp.Pow(sp.Mul(0, U, evaluate=False), 0, evaluate=False),
        sp.Pow(0, 0, evaluate=False),
        sp.Pow(U + V, 0, evaluate=False),
    ],
)
def test_zeroth_power_is_one(tree):
    """sympy's ring raised ValueError('0**0') on a zero sum to the power 0."""
    assert Expr(tree) == exprs.ONE


def test_zero_denominator_is_caught_before_any_quotient(monkeypatch):
    def no_quotient(*args, **kwargs):
        raise AssertionError("a quotient was formed")

    monkeypatch.setattr(exprs, "_sum_quotients", no_quotient)
    for tree in (
        sp.Pow(0, -1, evaluate=False),
        U + sp.Pow(sp.Add(U, -U, evaluate=False), -2, evaluate=False),
        sp.Mul(V, sp.Pow(sp.Mul(0, U, evaluate=False), -1, evaluate=False), evaluate=False),
    ):
        with pytest.raises(ExprError, match="division by zero"):
            exprs._from_tree(tree)


def _cancels(monkeypatch, trees) -> list[int]:
    """The number of cancels each tree's read makes."""
    counts = []
    cancel = PolyElement.cancel
    monkeypatch.setattr(PolyElement, "cancel", lambda p, q: counts.append(None) or cancel(p, q))
    out = []
    for tree in trees:
        counts.clear()
        exprs._from_tree(tree)
        out.append(len(counts))
    monkeypatch.setattr(PolyElement, "cancel", cancel)
    return out


def test_polynomial_trees_take_no_cancel(monkeypatch):
    trees = [
        -2 + 3 * U * V + X * U**2,
        sp.Mul(2, U + V, sp.Pow(U - 1, 2, evaluate=False), evaluate=False) - V**3,
        sp.Mul(U, sp.Pow(U, -1, evaluate=False), V + 1, evaluate=False),
        sp.Integer(7),
    ]
    assert _cancels(monkeypatch, trees) == [0] * len(trees)


def test_one_denominator_takes_at_most_one_cancel(monkeypatch):
    trees = [
        (U**2 + V) / (U * V + 1),
        3 * U + 1 / (U + 1) - V**2 / (U + 1),
        U / 2 + V / 3,
        sp.Pow(U * V + X, -2, evaluate=False) * (U + 1) ** 2,
    ]
    assert all(n <= 1 for n in _cancels(monkeypatch, trees))
