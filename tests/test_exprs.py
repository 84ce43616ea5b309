import random
import re
from fractions import Fraction
from itertools import count, permutations
from math import isclose, isfinite

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement

from jetsigma import exprs
from jetsigma.exprs import (
    ArityMismatchError,
    CheckResult,
    Expr,
    ExprError,
    ExprSyntaxError,
    SingularPointError,
    SymbolTable,
    UndeclaredSymbolError,
    derivation,
    diff,
    eval_numeric,
    is_zero,
    normalize,
    parse,
    print_expr,
    substitute,
)
from jetsigma.jets import JetContext, total_derivative

from fuzzing import random_expr, random_point
from test_grammar import TABLE as GRAMMAR_TABLE, _grammar_text

GRAMMAR_CTX = JetContext(
    GRAMMAR_TABLE.independent, GRAMMAR_TABLE.dependents, 2, GRAMMAR_TABLE.parameters, GRAMMAR_TABLE.functions
)


@pytest.fixture
def table():
    return SymbolTable("x", ["u", "v"], parameters=["c1"], functions={"A": 2})


def test_parse_kernel_product(table):
    e = parse("exp(-u)*v_1", table)
    assert e.sym == sp.exp(-sp.Symbol("u")) * sp.Symbol("v_1")


def test_parse_zero_literal(table):
    assert parse("0", table).sym == 0


def test_parse_alias_identity(table):
    assert parse("u_x", table) == parse("u_1", table)
    assert parse("u_xx", table) == parse("u_2", table)
    assert parse("u_xxx", table) == parse("u_3", table)


def test_parse_errors_carry_offsets(table):
    with pytest.raises(ExprSyntaxError) as err:
        parse("u + ", table)
    assert err.value.offset == 4
    with pytest.raises(UndeclaredSymbolError):
        parse("u + q", table)
    with pytest.raises(ArityMismatchError):
        parse("A(u)", table)
    with pytest.raises(ArityMismatchError):
        parse("exp(u, v)", table)
    with pytest.raises(ExprSyntaxError):
        parse("u ^ v", table)  # exponents must be integers


def test_normalize_exp_merge(table):
    assert parse("exp(u)*exp(v)", table) == parse("exp(u + v)", table)
    assert parse("exp(0)", table).sym == 1
    assert parse("log(1)", table).sym == 0
    assert parse("sin(0)", table).sym == 0
    assert parse("cos(0)", table).sym == 1
    assert parse("arctan(0)", table).sym == 0


def test_normalize_commutativity(table):
    assert parse("u*v - v*u", table).sym == 0


def test_normalize_unit_factor(table):
    assert parse("exp(-u)*v_1 - exp(-u)*v_1*(1)", table).sym == 0


def test_normalize_single_fraction(table):
    e = parse("u/(1 - u*v) + v/(1 - u*v)^2", table)
    num, den = sp.fraction(e.sym)
    assert den != 1
    assert num.is_Add or num.is_Mul or num.is_Symbol


def test_normalize_gcd_cancellation(table):
    assert parse("(u^2 - v^2)/(u - v)", table) == parse("u + v", table)


def test_diff_chain_rule(table):
    e = parse("exp(-u)*v_1", table)
    assert diff(e, "u", table) == parse("-exp(-u)*v_1", table)


def test_diff_opaque_formal_derivative(table):
    e = parse("A(u_1, v_1)", table)
    d = diff(e, "u_1", table)
    assert print_expr(d) == "D(A,1,0)(u_1,v_1)"
    # mixed partials are order-insensitive
    d2a = diff(diff(e, "u_1", table), "v_1", table)
    d2b = diff(diff(e, "v_1", table), "u_1", table)
    assert d2a == d2b


def test_diff_absent_symbol(table):
    assert diff(parse("x*u", table), "v", table).sym == 0


def test_table_free_names_resolve_aliases(table):
    """Without a symbol table, u_x, u_xx and u_xxx still name u_1, u_2, u_3."""
    e = parse("u_1^2*v + u_3", table)
    assert diff(e, "u_x") == diff(e, "u_1") == parse("2*u_1*v", table)
    assert diff(e, "u_xxx") == parse("1", table)
    assert substitute(parse("u_1*v", table), {"u_x": 3}) == parse("3*v", table)
    assert substitute(parse("u_2", table), {"u_xx": parse("v", table)}) == parse("v", table)
    assert eval_numeric(parse("u_1*v_2", table), {"u_x": 2, "v_xx": 3}) == 6.0


def test_substitute_simultaneous(table):
    e = parse("u + v", table)
    assert substitute(e, {"u": parse("v", table), "v": parse("u", table)}) == e


def test_substitute_empty_is_normalize(table):
    e = parse("u*v - v*u + u_1", table)
    assert substitute(e, {}) == normalize(e)


def test_substitute_then_normalized(table):
    e = parse("u_2", table)
    rhs = parse("u_1*v_1*(1 + exp(-u))", table)
    assert substitute(e, {"u_2": rhs}) == rhs


def test_eval_exponential(table):
    assert eval_numeric(parse("exp(-u)*v_1", table), {"u": 0, "v_1": 2}) == pytest.approx(2.0)


def test_eval_exact_rational(table):
    v = eval_numeric(parse("u_1*v_1", table), {"u_1": Fraction(1, 2), "v_1": Fraction(1, 3)})
    assert v == pytest.approx(1 / 6, abs=1e-15)


def test_eval_singular_pole(table):
    with pytest.raises(SingularPointError):
        eval_numeric(parse("1/(1 - u*v)", table), {"u": 1, "v": 1})


def test_eval_log_domain(table):
    with pytest.raises(SingularPointError):
        eval_numeric(parse("log(u)", table), {"u": -2})
    # a log of a negative value is singular inside another kernel too, even
    # where a complex branch would come back real
    with pytest.raises(SingularPointError):
        eval_numeric(parse("exp(2*log(u))", table), {"u": -2})


def _poly_at_by_terms(p, point):
    """``exprs._poly_at`` without its power table: each power is taken anew
    in every term."""
    total = Fraction(0)
    for monom, c in p.iterterms():
        term = Fraction(int(c))
        for i, k in enumerate(monom):
            if k:
                term *= point[i] ** k
        total += term
    return total


def test_poly_at_power_table_keeps_every_bit(table):
    """Taking each power once changes no exact value and no bit of a
    30-digit one, on Fraction, mpf and mixed points."""
    p = parse("3*u^4*v^2 - 5*u^2*v^3*x + u*v*x^2 - 7*u^4 + x^3*v^2 - 2", table)._field().numer
    mp = exprs._MP
    points = [
        [Fraction(2, 3), Fraction(-5, 7), Fraction(11, 4)],
        [mp.mpf(2) / 3, mp.exp(mp.mpf(-5) / 7), mp.mpf(11) / 10],
        [Fraction(2, 3), mp.sin(mp.mpf(3) / 7), Fraction(-9, 8)],
    ]
    for values in points:
        point = dict(enumerate(values))
        got, expected = exprs._poly_at(p, point), _poly_at_by_terms(p, point)
        assert type(got) is type(expected)
        assert getattr(got, "_mpf_", got) == getattr(expected, "_mpf_", expected)


def test_is_zero_verdicts(table):
    assert is_zero(parse("exp(u)*exp(v) - exp(u + v)", table)).is_zero
    nz = is_zero(parse("u_1 - v_1", table))
    assert nz.is_nonzero and nz.witness is not None and abs(nz.value) > 1e-9


def test_is_zero_pythagorean_is_unknown(table):
    # the rewrite system deliberately has no trig addition rules: the identity
    # normalizes to a nonzero polynomial in the kernel atoms but every sample
    # vanishes numerically
    verdict = is_zero(parse("sin(u)^2 + cos(u)^2 - 1", table))
    assert verdict.status == "unknown"


def test_check_result_fold_order(table):
    """NonZero beats Unknown beats Zero, whatever the order of the members;
    an empty set is Zero."""
    zero, nonzero, unknown = (parse(t, table) for t in ("u - u", "u_1 - v_1", "sin(u)^2 + cos(u)^2 - 1"))
    empty = CheckResult.test({})
    assert empty.verdict.is_zero and empty.holds and empty.witnesses == [] and empty.failure is None
    assert CheckResult.test({"a": zero, "b": zero}).holds
    for members in ([zero, unknown], [unknown, zero]):
        check = CheckResult.test(dict(enumerate(members)))
        assert check.verdict.status == "unknown" and not check.holds
        assert [w.key for w in check.witnesses] == [members.index(unknown)]
    for members in ([unknown, nonzero, zero], [zero, nonzero, unknown], [nonzero, unknown]):
        check = CheckResult.test(dict(enumerate(members)))
        assert check.verdict.is_nonzero and check.verdict is check.verdicts[members.index(nonzero)]
        assert check.failure.key == members.index(nonzero) and check.failure.expr == nonzero
        assert [w.key for w in check.witnesses] == [i for i, m in enumerate(members) if m is not zero]
    # the first NonZero member decides, not the last
    check = CheckResult.test({"p": nonzero, "q": parse("u_1 - 2*v_1", table)})
    assert check.failure.key == "p"


def test_is_zero_deterministic(table):
    e = parse("u_1 - v_1", table)
    assert is_zero(e, seed=7).witness == is_zero(e, seed=7).witness


@pytest.mark.parametrize("text", ["u", "exp(u)"])
def test_is_zero_deny_binds_its_own_symbols(table, text):
    """A deny expression over symbols the value does not use is evaluated at
    the same sample point, so the point binds them too."""
    verdict = is_zero(parse(text, table), deny=[parse("v", table), parse("u_1*w", table.extended(["w"]))])
    assert verdict.is_nonzero
    assert {"u", "v", "u_1", "w"} <= verdict.witness.keys()
    assert abs(verdict.witness["v"]) > 1e-3


def test_is_zero_opaque_atoms_sampled(table):
    verdict = is_zero(parse("D(A,1,0)(u_1,v_1) - D(A,0,1)(u_1,v_1)", table))
    assert verdict.is_nonzero


OPAQUE_TABLE = SymbolTable("x", ["u", "v"], functions={"A": 1})


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("A(u) - A(v)", "NonZero[10.2 at _atom0=9, _atom1=-63/52]"),
        ("A(u)*exp(u) - v", "NonZero[2.05 at _atom0=9, u=-63/52, v=39/62]"),
        ("exp(-60*u^2)", "NonZero[9.04e-05 at u=-13/33]"),
        ("log(u) - v", "NonZero[3.41 at u=9, v=-63/52]"),
    ],
)
def test_is_zero_witnesses_are_pinned(text, verdict):
    """Opaque applications are named atom0, atom1, ... in the order of their
    trees and drawn with the symbols in the order of their names."""
    assert str(is_zero(parse(text, OPAQUE_TABLE), seed=0)) == verdict


def test_overflow_is_a_singular_point(table):
    """A value too large for a float is a singular point, not inf: the zero
    test skips it (seed 0 draws u = 9 first)."""
    with pytest.raises(SingularPointError):
        eval_numeric(parse("exp(u^2)", table), {"u": 64})
    verdict = is_zero(parse("exp(u)^200", table))
    assert verdict.is_nonzero and isfinite(verdict.value) and verdict.witness["u"] != 9


def test_hash_survives_exp_generator_retirement():
    """exp(ret/2) retires the generator exp(ret) for exp(ret/2)^2, which
    relabels the monomials of exp(exp(ret)) but keeps its coefficients."""
    table = SymbolTable("x", ["ret"])
    before = parse("exp(exp(ret))", table)
    h = hash(before)
    retired = len(exprs._AMBIENT.retired)
    parse("exp(ret/2)", table)
    assert len(exprs._AMBIENT.retired) == retired + 1
    after = parse("exp(exp(ret))", table)
    assert before == after and hash(before) == hash(after) == h


def test_zero_test_evaluation_and_hash_build_no_tree(monkeypatch):
    """Fresh values with kernel and opaque atoms are zero-tested, evaluated
    and hashed without one call of the tree builder."""
    opaque = [parse(t, OPAQUE_TABLE) for t in ("A(u) - A(v)", "A(u)*exp(u) - v", "sin(A(u))/(1 + cos(v))")]
    kernel = [parse(t, OPAQUE_TABLE) for t in ("exp(-60*u^2)", "log(u) - arctan(v)/u")]
    assert all(e._sym is None for e in opaque + kernel)
    calls = []
    tree = exprs._tree
    monkeypatch.setattr(exprs, "_tree", lambda f: calls.append(f) or tree(f))
    point = {"u": Fraction(1, 3), "v": Fraction(-2, 5)}
    for e in opaque + kernel:
        is_zero(e)
        hash(e)
    for e in kernel:
        eval_numeric(e, point)
    assert calls == []


def test_numbers_skip_the_tree_reader(monkeypatch):
    """An int or a Fraction becomes a field element without sympy, equal to
    what the tree reader makes of it; a bool is not a number here."""
    u = Expr(sp.Symbol("u"))
    read = exprs._from_tree
    expected = [Expr._of(read(sp.Integer(3))), Expr._of(read(sp.Rational(-1, 2))), u + Expr._of(read(sp.Integer(1)))]
    calls = []
    monkeypatch.setattr(exprs, "_from_tree", lambda tree: calls.append(tree) or read(tree))
    got = [Expr(3), Expr(Fraction(-1, 2)), u + 1]
    assert calls == []
    assert got == expected and [str(e) for e in got] == ["3", "-1/2", "1 + u"]
    with pytest.raises(TypeError):
        Expr(True)


def _tree_value(e: Expr, point) -> float | None:
    """The reference: evalf of the tree at 30 digits; None where singular."""
    try:
        value = float(e.sym.xreplace({s: sp.Rational(v.numerator, v.denominator) for s, v in point.items()}).evalf(30))
    except TypeError:  # a complex value, or zoo
        return None
    return value if isfinite(value) else None


# every kernel, so most drawn values carry a kernel atom
_KERNEL_TAILS = ["0", "exp(u*v)/(v_2 + 2)", "sin(v)/(u^2 + 1)", "log(u)*cos(x)", "arctan(u_1)/(u - v)"]


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_grammar_text(), st.sampled_from(_KERNEL_TAILS), st.randoms(use_true_random=False))
def test_eval_numeric_matches_the_tree(text, tail, rng):
    """Over grammar text without opaque applications, the generator walk
    agrees with the tree to a relative 1e-12, or both find the point
    singular."""
    try:
        e = parse(f"({text}) + {tail}", GRAMMAR_TABLE)
    except ExprError:
        return  # a documented failure, such as a division by zero
    if next(exprs._opaque_applications(e), None) is not None:
        return
    point = {s: exprs._sample_fraction(rng) for s in e.free_symbols}
    try:
        got = eval_numeric(e, point)
    except SingularPointError:
        got = None
    expected = _tree_value(e, point)
    assert (got is None) == (expected is None)
    assert got is None or isclose(got, expected, rel_tol=1e-12)


def test_roundtrip_parse_print(table):
    texts = [
        "exp(-u)*v_1",
        "1/2*u + 3/4",
        "(u + v)^2/(u*v)",
        "u_1/(1 - u*v)",
        "D(A,1,0)(u_1,v_1)*u - 2/3",
        "arctan(u_1/v_1) - arctan(u/v)",
        "-u*v_1^3/(x^2*exp(u))",
        "c1*x - u_2^2/7",
        "sin(u)*cos(v) - log(1 + u^2)",
    ]
    for t in texts:
        e = parse(t, table)
        assert parse(print_expr(e), table) == e


def test_roundtrip_fuzzed(table):
    rng = random.Random(42)
    syms = [sp.Symbol(s) for s in ("x", "u", "v", "u_1", "v_1")]
    for _ in range(60):
        e = random_expr(rng, syms)
        assert parse(print_expr(e), table) == e


def test_idempotence_fuzzed(table):
    rng = random.Random(1)
    syms = [sp.Symbol(s) for s in ("x", "u", "v", "u_1", "v_1")]
    for _ in range(60):
        e = random_expr(rng, syms)
        assert normalize(e) == e


def test_derivation_laws_fuzzed(table):
    rng = random.Random(2)
    syms = [sp.Symbol(s) for s in ("x", "u", "v")]
    for _ in range(30):
        a = random_expr(rng, syms, depth=2)
        b = random_expr(rng, syms, depth=2)
        s = rng.choice(syms)
        assert diff(a + b, s) == diff(a, s) + diff(b, s)
        assert diff(a * b, s) == diff(a, s) * b + a * diff(b, s)


# grammar text with a tail over several symbols: each operand gets one with
# a nonconstant denominator, and each coefficient one with a kernel atom over
# a denominator of its own, so the terms of a derivation do not share one
_OPERAND_TAILS = ["u*v/(x + 1)", "(u_1 - v)/(u + c1)", "x*v_2 + u^2", "exp(u*v)/(v_2 + 2)", "A(u,v)/(x - u)"]
_COEFFICIENT_TAILS = ["exp(u)/(v + 2)", "sin(v)/(u^2 + 1)", "log(u)/(x + 3)", "arctan(u_1)/(u - v)", "F(v)/(u_1 + 1)"]
_TERM_SYMBOLS = [sp.Symbol(n) for n in ("x", "u", "v", "u_1", "v_2", "c1")]
_OPERAND = st.tuples(_grammar_text(), st.sampled_from(_OPERAND_TAILS))
ZERO = Expr.number(0)
_IMAGES = st.dictionaries(
    st.sampled_from(_TERM_SYMBOLS),
    st.tuples(_grammar_text(), st.sampled_from(_COEFFICIENT_TAILS)),
    min_size=2,
    max_size=3,
)


def _grammar_value(text_tail):
    return parse("({}) + {}".format(*text_tail), GRAMMAR_TABLE)


_EXAMPLE_IMAGES = {sp.Symbol("u"): ("v", "0"), sp.Symbol("x"): ("1", "1/(u + 2)")}


def _operand_example(a: str, b: str):
    return example((a, "0"), (b, "0"), _EXAMPLE_IMAGES, _EXAMPLE_IMAGES, Fraction(-3, 2))


@settings(derandomize=True, max_examples=30, database=None, deadline=None)
@given(_OPERAND, _OPERAND, _IMAGES, _IMAGES, st.fractions(-5, 5, max_denominator=7))
@_operand_example("1/(u*(u + 1))", "v/(u*(u + 2))")  # denominators sharing a factor
@_operand_example("u/(v + 1)", "v_1/(u + 2)")  # coprime denominators
@_operand_example("(u - v)/(x^2 - 1)", "(u + 1)/(2*x + 2)")  # one divides the other, up to a constant
@_operand_example("0", "u/(x + 1)")  # zero operands
@_operand_example("exp(u)/(v + 3)", "0")
@_operand_example("3/4", "-5")  # numbers
@_operand_example("u*v/(x + 1)", "-2")  # division by a negative constant
@_operand_example("-x/(u + 1)", "-3/7")
def test_derivation_laws_over_grammar_text(a, b, t1, t2, q):
    """Linearity in e, additivity in the image map and the Leibniz rule,
    for derivations with 2-3 images that carry denominators and kernel
    atoms; the operators on the two operands, the reflected ones too,
    against sympy's own rational-function operators on the same elements;
    and the total derivative kept on each value: asked again, it is the same
    object, equal to a fresh derivation over the table's image map."""
    try:
        a, b = _grammar_value(a), _grammar_value(b)
        T1, T2 = ({s: _grammar_value(c) for s, c in t.items()} for t in (t1, t2))
    except ExprError:
        return  # a documented failure, such as a division by zero
    fa, fb = exprs._field_values((a, b))
    assert a + b == Expr._of(fa + fb) and a - b == Expr._of(fa - fb) and a * b == Expr._of(fa * fb)
    assert 2 + a == Expr._of(2 + fa) and 2 - a == Expr._of(2 - fa) and 2 * a == Expr._of(2 * fa)
    for x, y, fx, fy in ((a, b, fa, fb), (2, a, 2, fa)):
        if y.is_rational_zero:
            with pytest.raises(ExprError, match="division by zero"):
                x / y
        else:
            assert x / y == Expr._of(fx / fy)
    q = Expr.number(q)
    T12 = {s: T1.get(s, ZERO) + T2.get(s, ZERO) for s in T1.keys() | T2.keys()}
    assert derivation(a + q * b, T1) == derivation(a, T1) + q * derivation(b, T1)
    assert derivation(a, T12) == derivation(a, T1) + derivation(a, T2)
    assert derivation(a * b, T1) == derivation(a, T1) * b + a * derivation(b, T1)
    for e in (a, b, a * b):
        kept = total_derivative(e, GRAMMAR_CTX)
        assert total_derivative(e, GRAMMAR_CTX) is kept
        assert kept == derivation(e, GRAMMAR_CTX.table.dx_images)


@settings(derandomize=True, max_examples=30, database=None, deadline=None)
@given(_grammar_text(), _IMAGES)
def test_derivation_is_the_sum_of_its_partials(text, images):
    """derivation(e, images) is the sum of c*diff(e, s) over the images,
    for grammar text with kernel and opaque atoms, a symbol absent from e
    and a zero image among them."""
    try:
        e = parse(text, GRAMMAR_TABLE)
        images = {s: _grammar_value(c) for s, c in images.items()}
    except ExprError:
        return  # a documented failure, such as a division by zero
    images[sp.Symbol("w")] = Expr(sp.Symbol("u"))
    images[sp.Symbol("x")] = ZERO
    expected = ZERO
    for s, c in images.items():
        expected += c * diff(e, s)
    assert derivation(e, images) == expected


def test_a_lone_symbol_maps_to_its_image(monkeypatch):
    """A lone symbol's derivation is its image, the very object, or 0 when
    it has none, with no pass over generators; exp(u), F(u) and 2*u still
    take the chain rule."""
    P = lambda text: parse(text, GRAMMAR_TABLE)  # noqa: E731
    image = P("v/(x + 1)")
    images = {sp.Symbol("u"): image}
    chained = {"exp(u)": image * P("exp(u)"), "F(u)": image * P("D(F,1)(u)"), "2*u": 2 * image}
    walks = []
    generators = exprs._generators
    monkeypatch.setattr(exprs, "_generators", lambda f: walks.append(f) or generators(f))
    assert derivation(P("u"), images) is image and derivation(P("v"), images) == ZERO
    assert walks == []
    for text, expected in chained.items():
        assert derivation(P(text), images) == expected, text
        assert walks, text
        walks.clear()
    assert diff(P("u"), "u") == Expr.number(1) and diff(P("v"), "u") == ZERO


def test_exp_monomials_take_no_cancel(monkeypatch):
    """exp of a sum is a monomial over a monomial in the exp generators,
    formed with no gcd."""
    table = SymbolTable("x", ["ecu", "ecv"])
    calls = []
    cancel = PolyElement.cancel
    monkeypatch.setattr(PolyElement, "cancel", lambda p, q: calls.append(q) or cancel(p, q))
    e = parse("exp(2*ecu - 3*ecv + 1)", table)
    assert calls == []
    monkeypatch.setattr(PolyElement, "cancel", cancel)
    assert e == parse("exp(ecu)^2*exp(1)/exp(ecv)^3", table)
    assert str(e) == "exp(1 + 2*ecu - 3*ecv)"


def test_cancel_runs_once_per_result(table, monkeypatch):
    """No gcd for polynomial results, one per derivation otherwise, and a
    symbol becomes a generator without a tree."""
    def P(text):
        return parse(text, table)

    a, b, quotient = P("u^2*v - 3*x*u_1 + 1"), P("v^3 + u*v_1 - c1"), P("(u^2 + v)/(u*v + 1)")
    u, v = sp.Symbol("u"), sp.Symbol("v")
    terms = {sp.Symbol("x"): P("1"), u: P("u_1"), v: P("v_1")}
    calls = []
    cancel = PolyElement.cancel
    monkeypatch.setattr(PolyElement, "cancel", lambda p, q: calls.append(q) or cancel(p, q))
    results = [derivation(a, terms), a + b, a - b, a * b, derivation(a * b, terms)]
    assert calls == []
    assert results[-1] == results[0] * b + a * derivation(b, terms)
    calls.clear()
    dq = derivation(quotient, terms)
    assert len(calls) <= 1
    monkeypatch.setattr(PolyElement, "cancel", cancel)
    assert dq == (P("2*u*u_1 + v_1") * P("u*v + 1") - P("u^2 + v") * P("u_1*v + u*v_1")) / P("(u*v + 1)^2")

    def no_tree(tree):
        raise AssertionError(f"{tree} went through the tree path")

    monkeypatch.setattr(exprs, "_from_tree", no_tree)
    assert Expr(u) == P("u")
    assert Expr(sp.Symbol("u_1")) == P("u_x")


def test_sum_goes_over_the_lcm_of_the_denominators(table, monkeypatch):
    """Denominators u*(u + 1) and u*(u + 2) share the factor u: the sum is
    formed over their lcm, of degree 3, not over their product, of degree 4,
    and cancelled once."""
    a, b = parse("1/(u*(u + 1))", table), parse("1/(u*(u + 2))", table)
    calls = []
    cancel = PolyElement.cancel
    monkeypatch.setattr(PolyElement, "cancel", lambda p, q: calls.append(q) or cancel(p, q))
    total = a + b
    assert [q.degree() for q in calls] == [3]
    monkeypatch.setattr(PolyElement, "cancel", cancel)
    assert total == parse("(2*u + 3)/(u*(u + 1)*(u + 2))", table)


def test_finite_difference_agreement(table):
    rng = random.Random(3)
    syms = [sp.Symbol(s) for s in ("x", "u", "v")]
    checked = 0
    for _ in range(40):
        e = random_expr(rng, syms, depth=2)
        s = rng.choice(syms)
        de = diff(e, s)
        pt = random_point(rng, syms)
        h = Fraction(1, 10**6)
        up = dict(pt)
        dn = dict(pt)
        up[str(s)] = pt[str(s)] + h
        dn[str(s)] = pt[str(s)] - h
        try:
            fd = (eval_numeric(e, up) - eval_numeric(e, dn)) / (2 * float(h))
            sym_val = eval_numeric(de, pt)
        except SingularPointError:
            continue
        scale = max(abs(fd), abs(sym_val), 1.0)
        assert abs(fd - sym_val) <= 1e-4 * scale
        checked += 1
    assert checked >= 20


def _reference(tree: sp.Expr) -> sp.Expr:
    """sympy's own normal form of a tree, independent of jetsigma's field:
    ``cancel(together(.))``, with ``powsimp`` merging exp products first.
    Logs are held fixed, since ``cancel`` would split log(13/4), a rewrite
    outside the normal form's set."""
    logs = {node: sp.Dummy() for node in tree.atoms(sp.log)}
    tree = tree.xreplace(logs)
    if tree.has(sp.exp):
        tree = sp.powsimp(tree, combine="exp")
    return sp.cancel(sp.together(tree)).xreplace({d: node for node, d in logs.items()})


def _vanishes(tree: sp.Expr) -> bool:
    """sympy's verdict that a tree is 0: each product's exps merged by
    ``powsimp`` with their arguments cancelled, then ``cancel``."""
    merged = sp.powsimp(sp.expand(tree), combine="exp")
    merged = merged.replace(lambda e: isinstance(e, sp.exp), lambda e: sp.exp(sp.cancel(e.args[0])))
    return sp.cancel(sp.together(merged)) == 0


def _differing(cases):
    """The (result, tree) cases whose result is not the reference value, or
    not ==, or does not hash equal, to the Expr of the reference tree."""
    out = []
    for got, tree in cases:
        reference = _reference(tree)
        expected = Expr(reference)
        if not (_vanishes(got.sym - reference) and got == expected and hash(got) == hash(expected)):
            out.append((got.sym, reference))
    return out


def test_normal_form_matches_cancel_reference():
    """The normal form against sympy's ``cancel(together(.))``: each raw tree
    and its reference give the same Expr, and the difference of their trees
    cancels to 0 in sympy.  An exp keeps its argument's cancelled form, and a
    log argument is stored cancelled and never split."""
    syms = [sp.Symbol(s) for s in ("x", "u", "v", "u_1", "v_1")]
    x, u, v, u_1, v_1 = syms
    A = exprs._opaque_class("A", 2)
    rng = random.Random(0)
    cases = []
    for _ in range(60):
        a = random_expr(rng, syms + [A(u, v_1)]).sym
        b = random_expr(rng, syms + [A(u, v_1)]).sym
        for raw in (a + b, a * b, a / (b**2 + 1)):
            cases.append((Expr(raw), raw))
    assert _differing(cases) == []
    exp_arg_u = (u**2 * u_1 + u_1) / (u**4 + 2 * u**2 + u_1**2 + 1)
    exp_arg_v = (-12 * v**2 - 12) / (16 * v**4 + 32 * v**2 + 25)
    exp_sum = sp.exp(exp_arg_u) + sp.exp(exp_arg_v)
    log_arg = (256 * u**4 + 512 * u**2 + 81 * v**2 + 256) / (256 * u**4 + 512 * u**2 + 256)
    shapes = [exp_sum, exp_sum * (u * x * sp.sin(u) + u * sp.sin(u)), sp.log(log_arg)]
    assert _differing([(Expr(t), t) for t in shapes]) == []
    assert Expr(exp_sum).sym == sp.exp(sp.cancel(exp_arg_u)) + sp.exp(sp.cancel(exp_arg_v))
    logged = Expr(sp.log(log_arg)).sym
    assert logged.args[0] == Expr(log_arg).sym and not logged.has(sp.log(2))


def test_generators_are_the_ones_an_element_uses(table):
    e = parse("v*exp(u) + sin(x)", table)
    gens = exprs._generators(e._field())
    assert [(s, atom is None) for _, s, atom in gens][0] == (sp.Symbol("v"), True)
    # heads and arguments, not printed generators: once any read of exp(u/2)
    # has retired the generator exp(u), its square stands for exp(u)
    atoms = sorted((atom.head, [print_expr(a) for a in atom.args]) for _, _, atom in gens if atom is not None)
    assert atoms == [("exp", ["u"]), ("sin", ["x"])]
    assert all(e._field().field.symbols[i] == s for i, s, _ in gens)
    # a zero numerator uses no generator, whatever its subfield
    assert exprs._generators((e - e)._field()) == []
    assert exprs._generators(Expr.number(3)._field()) == []


def test_float_rejected():
    with pytest.raises(Exception):
        Expr(sp.Float(0.5) * sp.Symbol("u"))


def test_exp_normal_form_is_canonical(table):
    """Equal values have one normal form: the exp generators form a basis of
    their arguments, so exp(u - v) is exp(u)/exp(v) and both quotients are
    one field element."""
    a = parse("1/(u + exp(u - v))", table)
    b = parse("exp(v)/(u*exp(v) + exp(u))", table)
    assert (a - b).sym == 0
    assert a == b


# ---------------------------------------------------------------------------
# arithmetic in the field against sympy's cancel(together(.))
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11])
def test_field_path_matches_tree_path(seed):
    """Every field + - * / neg pow, diff and sum of c*de/ds on seeded
    kernel-free inputs gives the value, and the Expr, of sympy's
    cancel(together(<same tree operation>))."""
    rng = random.Random(seed)
    syms = [sp.Symbol(s) for s in ("x", "u", "v", "u_1", "v_1")]
    corpus = [random_expr(rng, syms, depth=2, kernels=False) for _ in range(24)]
    differing = []
    for _ in range(40):
        a, b, c = (rng.choice(corpus) for _ in range(3))
        s, t = rng.sample(syms, 2)
        ab = a * b  # a field-born operand
        cases = [
            (ab, a.sym * b.sym),
            (a + b, a.sym + b.sym),
            (a - b, a.sym - b.sym),
            (3 - a, 3 - a.sym),
            (a * Fraction(2, 3), a.sym * sp.Rational(2, 3)),
            (-ab, -ab.sym),
            (ab - c, ab.sym - c.sym),
            (a**2, a.sym**2),
            (diff(a, s), sp.diff(a.sym, s)),
            (diff(ab, t), sp.diff(ab.sym, t)),
            (derivation(a, {s: b, t: c}), b.sym * sp.diff(a.sym, s) + c.sym * sp.diff(a.sym, t)),
            (derivation(ab, {s: c, t: Expr.number(1)}), c.sym * sp.diff(ab.sym, s) + sp.diff(ab.sym, t)),
        ]
        if not b.is_rational_zero:
            cases += [(a / b, a.sym / b.sym), (b**-2, b.sym**-2), (1 / b, 1 / b.sym)]
        differing += _differing(cases)
    assert differing == []


def test_field_path_edge_cases():
    x, u, v, w, u_1 = (sp.Symbol(n) for n in ("x", "u", "v", "w", "u_1"))
    X, U, V, W = (Expr(s) for s in (x, u, v, w))
    base = U * V + X
    held = set(exprs._AMBIENT.keys)
    cases = [(base, u * v + x)]
    # symbols first seen after the field holds others, sorting before,
    # among and after its generators
    for prefix in ("x", "u_", "zz"):
        fresh = next(s for s in (sp.Symbol(f"{prefix}{i}") for i in count(7)) if s not in held)
        F = Expr(fresh)
        assert F.sym == fresh and print_expr(F) == fresh.name
        cases += [(base * F + F, (u * v + x) * fresh + fresh), (F - U, fresh - u)]
    U_1 = Expr(u_1)
    assert U_1.sym == u_1
    cases += [
        (base + 1, u * v + x + 1),  # built before the field grew
        (U_1 * X, u_1 * x),
        # the sign of a quotient follows the generator order
        ((U - V) / (V - W), (u - v) / (v - w)),
        ((V - U) / (W - V), (v - u) / (w - v)),
        ((W - U) / (U - V), (w - u) / (u - v)),
        (1 / (X - U), 1 / (x - u)),
        ((U - X) ** -3, (u - x) ** -3),
        # rational coefficients
        (U / 2 + 1, u / 2 + 1),
        (U * Fraction(1, 2) + 1, u / 2 + 1),
        ((2 * U + 3) / 6, (2 * u + 3) / 6),
        (-U / 3 - V / 6, -u / 3 - v / 6),
        ((U / 4 + V / 6) / (U / 2 - W / 3), (u / 4 + v / 6) / (u / 2 - w / 3)),
        (derivation(U**2 / (V - W), {u: V / 2, w: 1 / U}),
         v / 2 * sp.diff(u**2 / (v - w), u) + 1 / u * sp.diff(u**2 / (v - w), w)),
    ]
    # generators whose _sort_gens keys tie (a leading zero in the digit
    # suffix, or no suffix against 0) take one order, whichever is seen first
    for first, second in (("a1", "a01"), ("b01", "b1"), ("u_1", "u_01"), ("x0", "x")):
        s1, s2 = sp.Symbol(first), sp.Symbol(second)
        S1, S2 = Expr(s1), Expr(s2)
        cases += [
            (1 / (S1 - S2), 1 / (s1 - s2)),
            (1 / (S2 - S1), 1 / (s2 - s1)),
            ((S1 + 1) / (S2 - S1), (s1 + 1) / (s2 - s1)),
            (derivation(1 / (S1 - S2), {s1: S2}), s2 * sp.diff(1 / (s1 - s2), s1)),
        ]
    assert _differing(cases) == []
    # kernel-free operands combined with an exp operand
    E = Expr(sp.exp(u))
    mixed = [
        (U + E, u + sp.exp(u)),
        (E * (U - V), sp.exp(u) * (u - v)),
        ((U - V) / E, (u - v) / sp.exp(u)),
        (diff(E * U, u), sp.diff(sp.exp(u) * u, u)),
        (derivation(U * V, {u: E, v: U}), sp.exp(u) * v + u * u),
        (derivation(E, {u: U / 2}), u / 2 * sp.exp(u)),
    ]
    assert _differing(mixed) == []


def test_tied_generator_order_ignores_hash_seed():
    """Symbol sets iterate in an order set by PYTHONHASHSEED; the normal form
    of a quotient over tied generators must not follow it."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "import sympy as sp; from jetsigma.exprs import Expr, print_expr; "
        "a1, a01, x, x0 = sp.symbols('a1 a01 x x0'); "
        "print(print_expr(Expr(1/(a1 - a01))), print_expr(Expr(1/(x - x0))))"
    )
    printed = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
        ).stdout
        for seed in (1, 3, 5)
    }
    assert len(printed) == 1


def test_field_and_tree_born_values_are_interchangeable():
    u, v = sp.symbols("u v")
    field_born = Expr(u) * Expr(v) + 1
    tree_born = Expr(u * v + 1)
    assert isinstance(field_born._frac, FracElement)
    assert field_born == tree_born and tree_born == field_born
    assert hash(field_born) == hash(tree_born)
    table = {tree_born: "value"}
    assert table[field_born] == "value"
    assert len({field_born, tree_born}) == 1
    assert field_born.free_symbols == tree_born.free_symbols == {u, v}
    assert (field_born - tree_born).is_rational_zero
    with pytest.raises(AttributeError):
        field_born.sym = u
    with pytest.raises(AttributeError):
        field_born._frac = None


def test_field_growth_from_threads():
    """Threads that bring in new symbols at once lose none of them, and each
    result still matches the Expr of the same tree."""
    import sys
    import threading

    held = set(exprs._AMBIENT.keys)
    fresh = (f"th{k}" for k in count() if sp.Symbol(f"th{k}") not in held)
    names = [next(fresh) for _ in range(48)]
    groups = [names[i::4] for i in range(4)]
    failures = []

    def work(group):
        syms = [sp.Symbol(n) for n in group]
        for s, t in zip(syms, syms[1:]):
            got = (Expr(s) - Expr(t)) / (Expr(t) + 1)
            if got != Expr((s - t) / (t + 1)):
                failures.append((s, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(g,)) for g in groups]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert failures == []
    assert {sp.Symbol(n) for n in names} <= set(exprs._AMBIENT.keys)


# ---------------------------------------------------------------------------
# kernels are built unevaluated, with only the documented rewrites
# ---------------------------------------------------------------------------

UNEVALUATED = [
    ("arctan(1)", "arctan(1)"),
    ("exp(1)", "exp(1)"),
    ("exp(u + 1)", "exp(1 + u)"),
    ("exp(u)*exp(1 - u)", "exp(1)"),
    ("cos(arctan(u))", "cos(arctan(u))"),
    ("exp(log(u))", "exp(log(u))"),
    ("exp(2*log(u))", "exp(2*log(u))"),
    ("log(2*u)", "log(2*u)"),
]


@pytest.mark.parametrize("text, printed", UNEVALUATED)
def test_kernels_stay_unevaluated_and_round_trip(table, text, printed):
    e = parse(text, table)
    assert print_expr(e) == printed
    assert parse(printed, table) == e


def test_kernels_are_not_rewritten(table):
    P = lambda t: parse(t, table)  # noqa: E731
    assert P("exp(log(u))") != P("u")
    assert P("exp(2*log(u))") != P("u^2")
    assert P("log(2*u)") != P("log(2) + log(u)")
    assert P("exp(u + 1)") == P("exp(1)*exp(u)")


def test_log_argument_is_stored_cancelled(table):
    """A log's argument is its normal form, one cancelled fraction, with no
    log(2) split off."""
    arg = "(256*u^4 + 512*u^2 + 81*v^2 + 256)/(256*u^4 + 512*u^2 + 256)"
    e = parse(f"log({arg})", table)
    assert e.sym.args[0] == parse(arg, table).sym
    assert print_expr(e) == f"log({print_expr(parse(arg, table))})"
    assert parse("log((u^2 - 1)/(u - 1))", table) == parse("log(u + 1)", table)


def test_odd_and_even_kernel_rewrites(table):
    """sin and arctan are odd and cos is even, decided by the sign of the
    argument's leading coefficient; nothing else is rewritten."""
    P = lambda t: parse(t, table)  # noqa: E731
    assert print_expr(P("sin(-u)")) == "-sin(u)"
    assert print_expr(P("arctan(-u)")) == "-arctan(u)"
    assert print_expr(P("cos(-u)")) == "cos(u)"
    assert (P("sin(-u)") + P("sin(u)")).is_rational_zero
    assert (P("arctan(v - u)") + P("arctan(u - v)")).is_rational_zero
    assert P("cos(v - u)") == P("cos(u - v)")


# ---------------------------------------------------------------------------
# exact zero test on the rational fragment
# ---------------------------------------------------------------------------


def test_is_zero_exact_on_tiny_values(table):
    """A value without atoms is decided in the field: its numerator is
    nonzero at an exact rational witness, whatever its size."""
    for text in ("u/10^15", "u/10^12", "(u - v)/10^30"):
        e = parse(text, table)
        verdict = is_zero(e)
        assert verdict.is_nonzero, text
        at = substitute(e, {k: Expr(v) for k, v in verdict.witness.items()})
        assert at.free_symbols == frozenset() and not at.is_rational_zero


def test_is_zero_verdict_is_scale_free():
    rng = random.Random(4)
    syms = [sp.Symbol(s) for s in ("x", "u", "v", "u_1")]
    for _ in range(30):
        e = random_expr(rng, syms, depth=2, kernels=False)
        status = is_zero(e).status
        for scale in (Fraction(1, 10**15), Fraction(10**15)):
            assert is_zero(e * scale).status == status


# ---------------------------------------------------------------------------
# subfield moves
# ---------------------------------------------------------------------------

MOVE_TABLE = SymbolTable("x", ["u", "v", "w"], parameters=["k"])
_MOVE_SYMBOLS = ["x", "u", "v", "w"]
# generators a move may add: every symbol of the table, and atoms over them
_MOVE_POOL = [sp.Symbol(n) for n in (*_MOVE_SYMBOLS, "k")] + [
    s for _, s, atom in exprs._generators(parse("sin(u) + exp(x*w) + log(v + 2)", MOVE_TABLE)._field()) if atom
]


def _rational_text():
    """A quotient of two sums of products over x, u, v and w, whose factors
    are symbols (three times in five), small integers, and exp or log of a
    sum, product or quotient of two symbols, so most values use 3-4
    symbols and an atom.  Each weight is a separate strategy object:
    ``one_of`` drops repeats of one object."""
    symbol = st.sampled_from(_MOVE_SYMBOLS)
    argument = st.tuples(symbol, st.sampled_from("+-*/"), symbol, st.integers(1, 3)).map(
        lambda t: f"{t[0]} {t[1]} ({t[2]} + {t[3]})"
    )
    atom = st.tuples(st.sampled_from(["exp", "log"]), argument).map(lambda t: f"{t[0]}({t[1]})")
    symbols = (st.sampled_from(_MOVE_SYMBOLS) for _ in range(3))
    factor = st.one_of(*symbols, st.integers(2, 5).map(str), atom)
    total = st.lists(st.lists(factor, min_size=1, max_size=3).map("*".join), min_size=2, max_size=3).map(" + ".join)
    return st.tuples(total, total).map(lambda t: f"({t[0]})/({t[1]})")


def _rebuilt(f, field, targets=None):
    """The reference move, one exponent list per monomial: generator i of
    ``f``'s subfield becomes generator targets[i][0] of ``field`` raised to
    the power targets[i][1] (by default itself, to the power 1)."""
    at = [(field.symbols.index(s), power) for s, power in targets or [(s, 1) for s in f.field.symbols]]

    def rebuild(p):
        terms = {}
        for monom, c in p.items():
            m = [0] * field.ngens
            for (i, power), k in zip(at, monom):
                m[i] += k * power
            terms[tuple(m)] = c
        return field.ring(terms)

    return field.raw_new(rebuild(f.numer), rebuild(f.denom))


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_rational_text(), st.lists(st.sampled_from(_MOVE_POOL), min_size=1, max_size=4))
def test_move_into_a_larger_subfield(text, extra):
    """A value moved into a subfield over its generators and some others is
    the reference rebuild, and the same Expr with the same hash."""
    try:
        e = parse(text, MOVE_TABLE)
    except ExprError:
        return  # a documented failure, such as a division by zero
    f = e._field()
    target = exprs._AMBIENT.field({*f.field.symbols, *extra})
    moved = exprs._AMBIENT.convert(f, target)
    assert moved.field is target and moved == _rebuilt(f, target)
    assert Expr._of(moved) == e and hash(Expr._of(moved)) == hash(e)


@pytest.mark.parametrize("order", list(permutations([1, 2, 6])))
def test_retired_exp_generators_refresh_to_equal_values(order):
    """exp(w), exp(w/2) and exp(w/6), first met in any order, end as powers
    of the one generator exp(w/6): a value built before a retirement
    refreshes to the reference rebuild and equals the value built after."""
    w = "r" + "".join(map(str, order))  # a fresh exp basis for each order
    table = SymbolTable("x", [w])
    texts = {k: f"exp({w}/{k})*(x + exp({w}/{k})) + 1/(x - exp({w}/{k}))" for k in order}
    raw = {k: parse(texts[k], table)._frac for k in order}
    ambient = exprs._AMBIENT
    for k in order:
        after = parse(texts[k], table)
        successors = []
        for s in raw[k].field.symbols:
            power = 1
            while s in ambient.retired:
                s, step = ambient.retired[s]
                power *= step
            successors.append((s, power))
        refreshed = ambient.refresh(raw[k])
        assert refreshed == _rebuilt(raw[k], refreshed.field, successors)
        assert Expr._of(raw[k]) == after and hash(Expr._of(raw[k])) == hash(after)
    sixth = parse(f"exp({w}/6)", table)
    assert parse(f"exp({w})", table) == sixth**6 and parse(f"exp({w}/2)", table) == sixth**3


def test_a_number_moves_with_no_move_map():
    """A value with no generator enters any subfield as it is, from the
    subfield of numbers or from a larger one: no move map is built."""
    ambient = exprs._AMBIENT
    over_u = ambient.field([sp.Symbol("u")])
    numbers = [Expr.number(-3, 4)._field(), over_u.raw_new(over_u.ring(2), over_u.ring.one), over_u.zero]
    target = ambient.field([sp.Symbol("nm1"), sp.Symbol("nm2")])
    moves = len(ambient.moves)
    moved = [ambient.convert(f, target) for f in numbers]
    assert len(ambient.moves) == moves
    assert all(f.field is target for f in moved)
    assert [Expr._of(f) for f in moved] == [Expr.number(-3, 4), Expr.number(2), ZERO]


def test_move_into_a_subfield_without_a_generator_is_an_error(table):
    """A move that would drop a generator is refused, naming it."""
    f = parse("u*exp(v) + x", table)._field()
    for name in ("u", "exp(v)"):
        kept = [s for _, s, atom in exprs._generators(f) if str(atom.tree if atom else s) != name]
        with pytest.raises(ExprError, match=f"generator {re.escape(name)}$"):
            exprs._AMBIENT.convert(f, exprs._AMBIENT.field(kept))


# ---------------------------------------------------------------------------
# derivations over denominators that are constants other than 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text", ["u/2", "(u_1 - v)/3", "-u/(v + 1)", "-(x*u_1 - 3)/(2*v^2 + 4)", "exp(u)/6", "-log(v)/(u + 1)"]
)
def test_derivatives_over_constant_and_negative_denominators(text):
    """``diff`` and ``total_derivative`` against sympy's cancel(diff(tree))
    where the denominator is a constant other than 1 or the numerator leads
    with a negative coefficient."""
    ctx = JetContext("x", ["u", "v"], 2)
    e = ctx.parse(text)
    tree = e.sym
    for name in ("x", "u", "v", "u_1"):
        s = sp.Symbol(name)
        assert diff(e, s) == Expr(sp.cancel(sp.diff(tree, s))), name
    coordinates = [s for s in tree.free_symbols if ctx.table.jet_index(s)]
    dx = sp.diff(tree, ctx.x) + sum(
        sp.diff(tree, s) * ctx.table.jet_symbol(dep, k + 1) for s in coordinates for dep, k in [ctx.table.jet_index(s)]
    )
    assert total_derivative(e, ctx) == Expr(sp.cancel(dx))
