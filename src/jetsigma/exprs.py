"""Immutable symbolic expressions over jet coordinates, parameters and opaque
function kernels.

Expressions are stored in a rational normal form: a single numerator/denominator
pair of expanded polynomials over the commutative ring generated by the declared
symbols and the kernel atoms (``exp``, ``log``, ``sin``, ``cos``, ``arctan``
applications and opaque function applications, each treated as a fresh variable
once its argument is recursively normalized).  Rational constants use exact
arbitrary-precision arithmetic throughout; no floats ever enter a symbolic
expression.

An expression without kernel or opaque atoms carries its value as an element
of one ambient sparse rational-function field (``sympy.polys.fields``) whose
generators are every symbol seen so far; ``+ - * /``, integer powers, ``diff``
and ``derivation`` (a sum of c * de/ds) stay in that field, and the
sympy tree is built only when asked for (printing, hashing and equality,
``lambdify``, numeric evaluation).  Any operand with atoms takes the tree
path: the operation is applied to the sympy trees and the result normalized,
with the gcd cancellation again in a sparse field.  Both paths give the same
tree for the same value.  Everything visible to callers goes through the small
surface below.
"""

from __future__ import annotations

import random
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField, sfield
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens

__all__ = [
    "Expr",
    "SymbolTable",
    "ZeroVerdict",
    "parse",
    "normalize",
    "atomize",
    "exp_monomials",
    "is_zero",
    "diff",
    "derivation",
    "substitute",
    "eval_numeric",
    "print_expr",
    "opaque",
    "ExprError",
    "ExprSyntaxError",
    "UndeclaredSymbolError",
    "ArityMismatchError",
    "SingularPointError",
    "SingularDomainError",
]


class ExprError(Exception):
    """Base class for expression-kernel failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UndeclaredSymbolError(ExprError):
    def __init__(self, name: str, offset: int = -1):
        at = f" (at byte {offset})" if offset >= 0 else ""
        super().__init__(f"undeclared symbol '{name}'{at}")
        self.name = name
        self.offset = offset


class ArityMismatchError(ExprError):
    def __init__(self, name: str, expected: int, got: int, offset: int = -1):
        at = f" (at byte {offset})" if offset >= 0 else ""
        super().__init__(f"function '{name}' expects {expected} argument(s), got {got}{at}")
        self.name = name


class SingularPointError(ExprError):
    """Numeric evaluation hit a pole, a log of a nonpositive value, or overflow."""


class SingularDomainError(ExprError):
    """Random sampling could not find a nonsingular evaluation point."""


_KERNELS: dict[str, Callable] = {
    "exp": sp.exp,
    "log": sp.log,
    "sin": sp.sin,
    "cos": sp.cos,
    "arctan": sp.atan,
}
_KERNEL_NAMES = frozenset(_KERNELS)
_RESERVED = _KERNEL_NAMES | {"D"}


# ---------------------------------------------------------------------------
# opaque functions and their formal partial derivatives
# ---------------------------------------------------------------------------

_opaque_registry: dict[tuple[str, int, tuple[int, ...]], type] = {}


def _opaque_class(name: str, arity: int, orders: tuple[int, ...] | None = None):
    """sympy Function subclass for an opaque symbol, or one of its formal
    partial derivatives (multi-index ``orders``, one entry per argument slot)."""
    if orders is None:
        orders = (0,) * arity
    key = (name, arity, orders)
    cls = _opaque_registry.get(key)
    if cls is not None:
        return cls
    if any(orders):
        clsname = name + "__d" + "_".join(str(o) for o in orders)
    else:
        clsname = name

    def fdiff(self, argindex=1):
        new_orders = list(type(self)._opaque_orders)
        new_orders[argindex - 1] += 1
        dcls = _opaque_class(type(self)._opaque_base, type(self)._opaque_arity, tuple(new_orders))
        return dcls(*self.args)

    cls = type(
        clsname,
        (sp.Function,),
        {
            "_opaque_base": name,
            "_opaque_arity": arity,
            "_opaque_orders": orders,
            "nargs": arity,
            "fdiff": fdiff,
        },
    )
    _opaque_registry[key] = cls
    return cls


def _is_opaque(node) -> bool:
    return isinstance(node, sp.Function) and hasattr(type(node), "_opaque_base")


def _opaque_atoms(e: sp.Expr):
    return sorted((a for a in e.atoms(sp.Function) if _is_opaque(a)), key=sp.default_sort_key)


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")
_ALIASES = {"x": 1, "xx": 2, "xxx": 3}


class SymbolTable:
    """Registry of declared names: the independent variable, dependent
    variables (whose jet coordinates ``u_k`` exist for every k >= 0),
    parameters, and opaque functions with fixed arity."""

    def __init__(
        self,
        independent: str = "x",
        dependents: Sequence[str] = (),
        parameters: Sequence[str] = (),
        functions: Mapping[str, int] | None = None,
    ):
        functions = dict(functions or {})
        names = [independent, *dependents, *parameters, *functions]
        for n in names:
            if not _NAME_RE.match(n):
                raise ExprError(f"invalid name '{n}'")
            if n in _RESERVED:
                raise ExprError(f"name '{n}' is reserved")
        if len(set(names)) != len(names):
            raise ExprError("colliding declarations in symbol table")
        for n, ar in functions.items():
            if ar < 1:
                raise ExprError(f"opaque function '{n}' must have arity >= 1")
        self.independent = independent
        self.dependents = tuple(dependents)
        self.parameters = tuple(parameters)
        self.functions = functions

    def extended(self, parameters: Sequence[str] = (), functions: Mapping[str, int] | None = None) -> "SymbolTable":
        return SymbolTable(
            self.independent,
            self.dependents,
            (*self.parameters, *parameters),
            {**self.functions, **(functions or {})},
        )

    def jet_symbol(self, dep: str, k: int) -> sp.Symbol:
        if dep not in self.dependents:
            raise UndeclaredSymbolError(dep)
        if k < 0:
            raise ExprError("jet order must be >= 0")
        return sp.Symbol(dep if k == 0 else f"{dep}_{k}")

    def base_symbol(self, name: str) -> sp.Symbol:
        if name == self.independent or name in self.dependents or name in self.parameters:
            return sp.Symbol(name)
        raise UndeclaredSymbolError(name)

    def lookup(self, text: str, offset: int = -1) -> sp.Symbol:
        """Resolve a (possibly subscripted) coordinate name to its symbol."""
        base, sep, sub = text.partition("_")
        if not sep:
            return self.base_symbol(text)
        if base not in self.dependents:
            raise UndeclaredSymbolError(text, offset)
        if sub in _ALIASES:
            return self.jet_symbol(base, _ALIASES[sub])
        if sub.isdigit():
            k = int(sub)
            if k == 0:
                return self.jet_symbol(base, 0)
            return self.jet_symbol(base, k)
        raise UndeclaredSymbolError(text, offset)

    def opaque(self, name: str, *args: "Expr | sp.Expr") -> "Expr":
        if name not in self.functions:
            raise UndeclaredSymbolError(name)
        arity = self.functions[name]
        if len(args) != arity:
            raise ArityMismatchError(name, arity, len(args))
        return Expr(_opaque_class(name, arity)(*[_sym(a) for a in args]))

    def __repr__(self):
        return (
            f"SymbolTable(independent={self.independent!r}, dependents={self.dependents!r}, "
            f"parameters={self.parameters!r}, functions={self.functions!r})"
        )


def opaque(name: str, arity: int, *args) -> "Expr":
    """Opaque application without a table, for internal fixture construction."""
    return Expr(_opaque_class(name, arity)(*[_sym(a) for a in args]))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _gen_order(gens) -> tuple:
    """Generators in one total order: ``_sort_gens`` order, with ties (such as
    ``a1`` and ``a01``, or ``x`` and ``x0``) broken by name.  ``cancel`` fixes
    a fraction's sign by the leading term, so both normal-form paths must
    order generators alike."""
    return _sort_gens(sorted(gens, key=str))


def _fracnorm(e: sp.Expr) -> sp.Expr:
    """Single-fraction rational normal form over the atom ring."""
    if e.is_Atom:
        return e
    try:
        field, frac = sfield(e)
        gens = _gen_order(field.symbols)
        if gens != field.symbols:
            field, frac = sfield(e, *gens)
    except (sp.PolynomialError, ZeroDivisionError, AttributeError):
        return sp.together(sp.expand(e))
    if not field.gens:
        return e.expand()
    return frac.numer.as_expr() / frac.denom.as_expr()


def _canon_atoms(e: sp.Expr) -> sp.Expr:
    """Recursively normalize the arguments of kernel and opaque applications."""
    if e.is_Atom:
        return e
    if _is_opaque(e) or e.func in (sp.exp, sp.log, sp.sin, sp.cos, sp.atan):
        return e.func(*[_normal(a) for a in e.args])
    return e.func(*[_canon_atoms(a) for a in e.args])


def _merge_exp(e: sp.Expr) -> sp.Expr:
    """Rewrite products of exponentials as a single exponential, bottom-up."""

    def pred(node):
        return node.is_Mul and sum(1 for a in node.args if isinstance(a, sp.exp)) >= 2

    def merge(node):
        exps = [a for a in node.args if isinstance(a, sp.exp)]
        rest = [a for a in node.args if not isinstance(a, sp.exp)]
        arg = _fracnorm(sp.Add(*[a.args[0] for a in exps]))
        return sp.Mul(*rest) * sp.exp(arg)

    prev = None
    while prev != e:
        prev = e
        e = e.replace(pred, merge)
    return e


def _normal(raw: sp.Expr) -> sp.Expr:
    e = sp.sympify(raw)
    if e.is_Rational:
        return e
    for f in e.atoms(sp.Float):
        raise ExprError(f"float constant {f} is not allowed in symbolic expressions")
    e = _canon_atoms(e)
    e = _fracnorm(e)
    e = _merge_exp(e)
    for p in e.atoms(sp.Pow):
        if not p.exp.is_Integer:
            raise ExprError(
                f"non-integer power {p} is outside the supported expression fragment"
            )
    return e


# ---------------------------------------------------------------------------
# the ambient rational-function field
# ---------------------------------------------------------------------------


class _AmbientField:
    """The one sparse field QQ(s1, ..., sn) whose generators are every symbol
    seen so far, built as the fraction field of ZZ[s1, ..., sn]: the domain
    ``sfield`` picks for a tree's integer numerator and denominator, where
    ``cancel`` needs no round trip from QQ.  The generators are kept in
    ``_gen_order``, the order ``_fracnorm`` gives a tree's symbols, so
    ``cancel`` fixes signs exactly as the tree path does.  A new symbol
    replaces the field by a larger one; elements of an earlier field are moved
    in when next used.  ``state`` is the field and its symbol -> generator
    index, swapped as one value."""

    def __init__(self):
        self._lock = threading.Lock()
        self.state = self._state(())

    @staticmethod
    def _state(symbols):
        return FracField(symbols, ZZ, lex), {s: i for i, s in enumerate(symbols)}

    def grow(self, symbols: Iterable[sp.Symbol]):
        """The state, first grown to hold ``symbols``."""
        symbols = list(symbols)
        if all(s in self.state[1] for s in symbols):
            return self.state
        with self._lock:
            field, index = self.state
            new = dict.fromkeys(s for s in symbols if s not in index)
            if new:
                self.state = self._state(_gen_order([*field.symbols, *new]))
            return self.state

    def value(self, e: sp.Expr):
        """The element of a normalized tree, or False if it has kernel or
        opaque atoms.  Constants and symbols are built without ``cancel``."""
        if e.is_Rational:
            field = self.state[0]
            return field.raw_new(field.ring.ground_new(e.p), field.ring.ground_new(e.q))
        if e.is_Symbol:
            field, index = self.grow((e,))
            return field.gens[index[e]]
        if not _is_rational_tree(e):
            return False
        field, _ = self.grow(e.free_symbols)
        numer, denom = e.as_numer_denom()
        return field.new(field.ring.from_expr(numer), field.ring.from_expr(denom))


def _is_rational_tree(e: sp.Expr) -> bool:
    if e.is_Symbol or e.is_Rational:
        return True
    if e.is_Add or e.is_Mul:
        return all(_is_rational_tree(a) for a in e.args)
    return e.is_Pow and e.exp.is_Integer and _is_rational_tree(e.base)


_AMBIENT = _AmbientField()


def _field_values(exprs: Sequence["Expr"]):
    """The elements of ``exprs``, all in the current ambient field, and that
    field's generator index; None when one of them has kernel or opaque
    atoms."""
    while True:
        field, index = _AMBIENT.state
        values = []
        for x in exprs:
            f = x._field()
            if f is False:
                return None
            values.append(f)
        if all(f.field is field for f in values):
            return values, index
        # converting an operand grew the field: move the others in too


def _pow(f, n: int):
    """f**n; f is nonzero when n < 0.  For n < 0 sympy swaps numerator and
    denominator as they are, so the sign ``cancel`` would give is restored."""
    g = f**n
    if g.denom.LC < 0:
        return g.raw_new(-g.numer, -g.denom)
    return g


# ---------------------------------------------------------------------------
# the Expr wrapper
# ---------------------------------------------------------------------------


def _sym(v) -> sp.Expr:
    if isinstance(v, Expr):
        return v.sym
    if isinstance(v, Fraction):
        return sp.Rational(v.numerator, v.denominator)
    if isinstance(v, (int, sp.Expr)):
        return sp.sympify(v)
    raise TypeError(f"cannot interpret {v!r} as an expression")


def _operand(v) -> "Expr | None":
    """An arithmetic operand as an Expr when that needs no normalization."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)) or isinstance(v, sp.Expr) and (v.is_Rational or v.is_Symbol):
        return Expr._wrapped(_sym(v))
    return None


class Expr:
    """An immutable symbolic expression, always kept in normal form.

    A kernel-free value lives in the ambient field (``_frac``) and its tree
    (``sym``) is built on first use; a value with kernel or opaque atoms is a
    normalized tree only.  ``_frac`` is None until first needed and False for
    a tree with atoms."""

    __slots__ = ("_sym", "_frac")

    def __init__(self, raw):
        if isinstance(raw, Expr):
            sym, frac = raw._sym, raw._frac
        else:
            sym, frac = _sym(raw), None
            if not (sym.is_Symbol or sym.is_Rational):
                sym = _normal(sym)
        object.__setattr__(self, "_sym", sym)
        object.__setattr__(self, "_frac", frac)

    @staticmethod
    def _wrapped(normalized: sp.Expr) -> "Expr":
        e = object.__new__(Expr)
        object.__setattr__(e, "_sym", normalized)
        object.__setattr__(e, "_frac", None)
        return e

    @staticmethod
    def _of(frac) -> "Expr":
        e = object.__new__(Expr)
        object.__setattr__(e, "_sym", None)
        object.__setattr__(e, "_frac", frac)
        return e

    @staticmethod
    def number(p: int | Fraction, q: int = 1) -> "Expr":
        if isinstance(p, Fraction):
            return Expr._wrapped(sp.Rational(p.numerator, p.denominator))
        return Expr._wrapped(sp.Rational(p, q))

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    @property
    def sym(self) -> sp.Expr:
        """The normalized sympy tree."""
        s = self._sym
        if s is None:
            f = self._frac
            s = f.numer.as_expr() / f.denom.as_expr()
            object.__setattr__(self, "_sym", s)
        return s

    def _field(self):
        """The element in the current ambient field, or False."""
        f = self._frac
        if f is None:
            f = _AMBIENT.value(self._sym)
        else:
            field = _AMBIENT.state[0]
            if f is False or f.field is field:
                return f
            f = field.raw_new(f.numer.set_ring(field.ring), f.denom.set_ring(field.ring))
        object.__setattr__(self, "_frac", f)
        return f

    def _pair(self, other):
        b = _operand(other)
        values = None if b is None else _field_values((self, b))
        return None if values is None else values[0]

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        p = self._pair(other)
        if p is not None:
            return Expr._of(p[0] + p[1])
        return Expr(self.sym + _sym(other))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._pair(other)
        if p is not None:
            return Expr._of(p[0] - p[1])
        return Expr(self.sym - _sym(other))

    def __rsub__(self, other):
        p = self._pair(other)
        if p is not None:
            return Expr._of(p[1] - p[0])
        return Expr(_sym(other) - self.sym)

    def __mul__(self, other):
        p = self._pair(other)
        if p is not None:
            return Expr._of(p[0] * p[1])
        return Expr(self.sym * _sym(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._pair(other)
        if p is not None and p[1]:
            return Expr._of(p[0] / p[1])
        return Expr(self.sym / _sym(other))

    def __rtruediv__(self, other):
        p = self._pair(other)
        if p is not None and p[0]:
            return Expr._of(p[1] / p[0])
        return Expr(_sym(other) / self.sym)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("only integer powers are supported")
        f = self._field()
        if f is not False and (n >= 0 or f):
            return Expr._of(_pow(f, n))
        return Expr(self.sym ** n)

    def __neg__(self):
        f = self._field()
        if f is not False:
            return Expr._of(-f)
        return Expr(-self.sym)

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Expr) and self.sym == other.sym

    def __hash__(self):
        return hash(self.sym)

    @property
    def is_rational_zero(self) -> bool:
        f = self._frac
        if f is not None and f is not False:
            return not f
        return self.sym is sp.S.Zero or self.sym == 0 and self.sym.is_Rational

    @property
    def free_symbols(self) -> frozenset:
        f = self._frac
        if f is None or f is False:
            return frozenset(self.sym.free_symbols)
        return frozenset(
            s
            for s, dn, dd in zip(f.field.symbols, f.numer.degrees(), f.denom.degrees())
            if dn > 0 or dd > 0
        )

    def jet_order(self, table: SymbolTable) -> int:
        """Highest jet order among the coordinates appearing in the expression."""
        order = 0
        for s in self.free_symbols:
            base, sep, sub = s.name.partition("_")
            if sep and base in table.dependents and sub.isdigit():
                order = max(order, int(sub))
        return order

    def __str__(self):
        return print_expr(self)

    def __repr__(self):
        return f"Expr({print_expr(self)})"


ZERO = Expr.number(0)
ONE = Expr.number(1)


def normalize(e: Expr | sp.Expr | int) -> Expr:
    """Total; an Expr is already in normal form and is returned unchanged."""
    if isinstance(e, Expr):
        return e
    return Expr(e)


def atomize(exprs: Iterable[sp.Expr]) -> tuple[list[sp.Expr], dict[sp.Symbol, sp.Expr]]:
    """Replace kernel and opaque applications, and the constants e and pi,
    by fresh symbols ``a0, a1, ...``, numbered in order of first appearance
    (within one expression, in ``default_sort_key`` order).  Returns the
    replaced expressions and the map from each fresh symbol back to its
    application."""
    exprs = list(exprs)
    atom_map: dict[sp.Expr, sp.Symbol] = {}
    for e in exprs:
        for node in sorted(e.atoms(sp.Function, sp.NumberSymbol), key=sp.default_sort_key):
            if node not in atom_map:
                atom_map[node] = sp.Dummy(f"a{len(atom_map)}")
    return [e.xreplace(atom_map) for e in exprs], {v: k for k, v in atom_map.items()}


def exp_monomials(restore: dict[sp.Symbol, sp.Expr]) -> dict[sp.Symbol, sp.Expr]:
    """Rewrite the exp atoms of an ``atomize`` map as monomials in
    exponentials of Q-independent arguments, so that exp(u)*exp(v) and
    exp(u + v) become the same monomial, as the normal form makes them the
    same expression.  Arguments are compared term by term after ``expand``.
    Extends ``restore`` with any new base exponential and returns the
    substitution of the atom symbols; empty when the arguments are already
    independent."""
    exps = [
        (s, sp.S.One if a is sp.E else a.args[0])
        for s, a in restore.items()
        if a is sp.E or isinstance(a, sp.exp)
    ]
    if len(exps) < 2:
        return {}
    coeffs = []
    for _, arg in exps:
        terms: dict[sp.Expr, sp.Rational] = {}
        for t in sp.Add.make_args(sp.expand(arg)):
            c, m = t.as_coeff_Mul()
            terms[m] = terms.get(m, sp.S.Zero) + c
        coeffs.append(terms)
    monomials = list(dict.fromkeys(m for terms in coeffs for m in terms))
    # columns are the arguments; rref expresses each non-pivot argument in
    # the pivot arguments before it
    cols = DomainMatrix(
        [[QQ.from_sympy(terms.get(m, sp.S.Zero)) for terms in coeffs] for m in monomials],
        (len(monomials), len(exps)),
        QQ,
    )
    reduced, pivots = cols.rref()
    if len(pivots) == len(exps):
        return {}
    rel = reduced.to_Matrix()
    subs: dict[sp.Symbol, sp.Expr] = {}
    bases = []  # (symbol, power): exp(pivot argument) = symbol**power
    for i, p in enumerate(pivots):
        sym, arg = exps[p]
        # the base exp(arg/scale) makes every exponent below an integer
        scale = sp.ilcm(1, *(rel[i, k].q for k in range(len(exps))))
        if scale != 1:
            base = sp.Dummy(f"{sym.name}_{scale}")
            restore[base] = sp.exp(arg / scale)
            subs[sym] = base**scale
            sym = base
        bases.append((sym, scale))
    for k, (sym, _) in enumerate(exps):
        if k not in pivots:
            subs[sym] = sp.Mul(*(b ** (rel[i, k] * s) for i, (b, s) in enumerate(bases)))
    return subs


def diff(e: Expr, s: str | sp.Symbol, table: SymbolTable | None = None) -> Expr:
    """Formal partial derivative with respect to one symbol."""
    if isinstance(s, str):
        s = table.lookup(s) if table is not None else sp.Symbol(s)
    return derivation(e, [(s, ONE)])


def derivation(e: Expr, terms: Iterable[tuple[sp.Symbol, Expr]]) -> Expr:
    """The sum of c * de/ds over the (s, c) pairs of ``terms``.  When e and
    every c are kernel-free it is computed in the ambient field; otherwise the
    summed tree is normalized once."""
    terms = [(s, c) for s, c in terms if not c.is_rational_zero]
    values = _field_values([e, *(c for _, c in terms)])
    if values is None:
        return Expr(sp.Add(*[c.sym * sp.diff(e.sym, s) for s, c in terms]))
    (f, *coeffs), index = values
    acc = f.field.zero
    for (s, _), c in zip(terms, coeffs):
        i = index.get(s)
        if i is not None:
            acc += c * f.diff(f.field.gens[i])
    return Expr._of(acc)


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution of symbols, then renormalization."""
    mapping = {}
    for key, val in bindings.items():
        ks = sp.Symbol(key) if isinstance(key, str) else key
        if not isinstance(ks, sp.Symbol):
            raise ExprError(f"substitution key {key!r} is not a symbol")
        mapping[ks] = _sym(val)
    return Expr(e.sym.xreplace(mapping))


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


def _to_rational(v) -> sp.Rational:
    if isinstance(v, Fraction):
        return sp.Rational(v.numerator, v.denominator)
    if isinstance(v, (int, sp.Rational)):
        return sp.Rational(v)
    if isinstance(v, float):
        return sp.Rational(Fraction(v).limit_denominator(10**12))
    raise ExprError(f"point component {v!r} is not rational")


def _finalize_numeric(val: sp.Expr) -> float:
    v = val.evalf(20)
    if v.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        raise SingularPointError("evaluation produced a pole or indeterminate value")
    if v.free_symbols:
        raise ExprError(f"unbound symbols in numeric evaluation: {sorted(map(str, v.free_symbols))}")
    if not v.is_real:
        im = abs(sp.im(v))
        if im > sp.Float(1e-30):
            raise SingularPointError("evaluation left the real domain (log of a nonpositive value?)")
        v = sp.re(v)
    try:
        return float(v)
    except (OverflowError, TypeError) as exc:
        raise SingularPointError(f"evaluation overflowed: {exc}") from exc


def eval_numeric(
    e: Expr,
    point: Mapping,
    opaque_defs: Mapping[str, Callable] | None = None,
) -> float:
    """Evaluate at a rational point: exact rational arithmetic everywhere,
    floats only at the final kernel/opaque evaluations."""
    opaque_defs = opaque_defs or {}
    sub = {}
    for key, val in point.items():
        ks = sp.Symbol(key) if isinstance(key, str) else key
        sub[ks] = _to_rational(val)
    val = e.sym.xreplace(sub)
    for node in _opaque_atoms(val):
        cls = type(node)
        key = cls.__name__
        fn = opaque_defs.get(key) or opaque_defs.get(cls._opaque_base if not any(cls._opaque_orders) else key)
        if fn is None:
            raise ExprError(f"no definition supplied for opaque application '{key}'")
        args = [_finalize_numeric(sp.sympify(a)) for a in node.args]
        val = val.xreplace({node: sp.Float(fn(*args), 20)})
    missing = val.free_symbols
    if missing:
        raise ExprError(f"unbound symbols in numeric evaluation: {sorted(map(str, missing))}")
    return _finalize_numeric(val)


# ---------------------------------------------------------------------------
# probabilistic zero testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroVerdict:
    status: str  # "zero" | "nonzero" | "unknown"
    witness: dict | None = None
    value: float | None = None

    @property
    def is_zero(self) -> bool:
        return self.status == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.status == "nonzero"

    def __str__(self):
        if self.status == "nonzero" and self.witness is not None:
            pt = ", ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
            return f"NonZero[{self.value:.3g} at {pt}]"
        return {"zero": "Zero", "nonzero": "NonZero", "unknown": "Unknown"}[self.status]


ZERO_VERDICT = ZeroVerdict("zero")


def _sample_fraction(rng: random.Random) -> Fraction:
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * rng.randint(1, 64), rng.randint(1, 64))


def is_zero(
    e: Expr,
    trials: int = 20,
    seed: int = 0,
    deny: Sequence[Expr] = (),
) -> ZeroVerdict:
    """Zero iff the normal form is the rational constant 0; otherwise sample
    random rational points, skipping singular ones.  A value above 1e-9 in
    magnitude is a nonzero witness; if every sampled value vanishes the result
    is Unknown (a possible identity outside the rewrite system)."""
    if trials < 1:
        raise ExprError("trials must be >= 1")
    if e.is_rational_zero:
        return ZERO_VERDICT
    # opaque applications act as independent unknowns: a smooth function and
    # its formal derivatives are jointly unconstrained at a point
    atom_map = {}
    for node in _opaque_atoms(e.sym):
        atom_map[node] = sp.Dummy(f"atom{len(atom_map)}")
    probe = e.sym.xreplace(atom_map)
    symbols = sorted(probe.free_symbols, key=lambda s: s.name)
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 10 * trials:
            raise SingularDomainError(
                f"no nonsingular sample point found in {attempts - 1} attempts"
            )
        assignment = {s: _sample_fraction(rng) for s in symbols}
        try:
            if any(
                abs(
                    eval_numeric(
                        Expr._wrapped(d.sym.xreplace(atom_map)), assignment
                    )
                )
                <= 1e-3
                for d in deny
            ):
                continue
            value = eval_numeric(Expr._wrapped(probe), assignment)
        except SingularPointError:
            continue
        if abs(value) > 1e-9:
            witness = {str(k): v for k, v in assignment.items()}
            return ZeroVerdict("nonzero", witness=witness, value=value)
        done += 1
    return ZeroVerdict("unknown")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*(?:_(?:\d+|x{1,3}))?)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: SymbolTable):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.next()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", offset)

    def parse(self) -> sp.Expr:
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", offset)
        return e

    def expr(self) -> sp.Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if text == "+" else e - rhs
            else:
                return e

    def term(self) -> sp.Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.factor()
                e = e * rhs if text == "*" else e / rhs
            else:
                return e

    def factor(self) -> sp.Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            inner = self.factor()
            return inner if text == "+" else -inner
        return self.power()

    def power(self) -> sp.Expr:
        base = self.primary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            _, _, off = self.peek()
            exponent = self.factor()
            exponent = sp.sympify(exponent)
            if not exponent.is_Integer:
                raise ExprSyntaxError("exponent must be an integer", off)
            return base ** int(exponent)
        return base

    def primary(self) -> sp.Expr:
        kind, text, offset = self.next()
        if kind == "num":
            return sp.Integer(int(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            if text == "D":
                return self.derivative_node(offset)
            if text in _KERNEL_NAMES:
                args = self.call_args()
                if len(args) != 1:
                    raise ArityMismatchError(text, 1, len(args), offset)
                return _KERNELS[text](args[0])
            if text in self.table.functions:
                args = self.call_args()
                arity = self.table.functions[text]
                if len(args) != arity:
                    raise ArityMismatchError(text, arity, len(args), offset)
                return _opaque_class(text, arity)(*args)
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                raise UndeclaredSymbolError(text, offset)
            return self.table.lookup(text, offset)
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)

    def call_args(self) -> list[sp.Expr]:
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        return args

    def derivative_node(self, offset: int) -> sp.Expr:
        self.expect_op("(")
        kind, name, noff = self.next()
        if kind != "name":
            raise ExprSyntaxError("expected an opaque function name in D(...)", noff)
        if name not in self.table.functions:
            raise UndeclaredSymbolError(name, noff)
        arity = self.table.functions[name]
        orders = []
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.next()
                k2, t2, o2 = self.next()
                if k2 != "num":
                    raise ExprSyntaxError("expected a nonnegative integer in D(...)", o2)
                orders.append(int(t2))
            else:
                break
        self.expect_op(")")
        if len(orders) != arity:
            raise ArityMismatchError(name, arity, len(orders), offset)
        args = self.call_args()
        if len(args) != arity:
            raise ArityMismatchError(name, arity, len(args), offset)
        return _opaque_class(name, arity, tuple(orders))(*args)


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse grammar text against the declared symbols; result is normalized."""
    return Expr(_Parser(text, table).parse())


# ---------------------------------------------------------------------------
# printer (round-trips through parse on normalized expressions)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

_KERNEL_PRINT = {sp.exp: "exp", sp.log: "log", sp.sin: "sin", sp.cos: "cos", sp.atan: "arctan"}


def _sorted_args(e: sp.Expr):
    return sorted(e.args, key=sp.default_sort_key)


def _print(e: sp.Expr, prec: int) -> str:
    if e.is_Integer:
        s = str(e)
        need = prec >= _PREC_MUL if e < 0 else False
        return f"({s})" if need else s
    if e.is_Rational:
        s = f"{e.p}/{e.q}"
        return f"({s})" if prec >= _PREC_MUL else s
    if e.is_Symbol:
        return e.name
    if isinstance(e, sp.exp):
        return f"exp({_print(e.args[0], 0)})"
    if e.func in _KERNEL_PRINT:
        return f"{_KERNEL_PRINT[e.func]}({_print(e.args[0], 0)})"
    if _is_opaque(e):
        cls = type(e)
        args = ",".join(_print(a, 0) for a in e.args)
        if any(cls._opaque_orders):
            orders = ",".join(str(o) for o in cls._opaque_orders)
            return f"D({cls._opaque_base},{orders})({args})"
        return f"{cls._opaque_base}({args})"
    if e.is_Add:
        parts = []
        for i, a in enumerate(_sorted_args(e)):
            if i == 0:
                parts.append(_print(a, _PREC_ADD))
            elif a.could_extract_minus_sign():
                parts.append(" - " + _print(-a, _PREC_ADD + 1))
            else:
                parts.append(" + " + _print(a, _PREC_ADD + 1))
        s = "".join(parts)
        return f"({s})" if prec > _PREC_ADD else s
    if e.is_Mul:
        num, den = [], []
        coeff = sp.S.One
        for a in _sorted_args(e):
            if a.is_Rational:
                coeff *= a
            elif a.is_Pow and a.exp.is_Integer and a.exp < 0:
                den.append(a.base if a.exp == -1 else sp.Pow(a.base, -a.exp))
            else:
                num.append(a)
        negative = coeff.p < 0
        p = abs(coeff.p)
        if p != 1 or not num:
            num.insert(0, sp.Integer(p))
        if coeff.q != 1:
            den.insert(0, sp.Integer(coeff.q))
        s = "*".join(_print(a, _PREC_MUL) for a in num)
        if den:
            den_s = "*".join(_print(a, _PREC_MUL + 1) for a in den)
            if len(den) > 1:
                den_s = f"({den_s})"
            s = f"{s}/{den_s}"
        if negative:
            s = f"-{s}"
            return f"({s})" if prec >= _PREC_MUL else s
        return f"({s})" if prec > _PREC_MUL else s
    if e.is_Pow:
        expo = e.exp
        if expo.is_Integer and expo > 0:
            return f"{_print(e.base, _PREC_POW + 1)}^{int(expo)}"
        if expo.is_Integer and expo < 0:
            inner = _print(sp.Pow(e.base, -expo) if expo != -1 else e.base, _PREC_MUL + 1)
            s = f"1/{inner}"
            return f"({s})" if prec > _PREC_MUL else s
        raise ExprError(f"cannot print non-integer power {e}")
    raise ExprError(f"cannot print expression node {type(e).__name__}: {e}")


def print_expr(e: Expr | sp.Expr) -> str:
    return _print(_sym(e), 0)
