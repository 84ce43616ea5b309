"""Immutable symbolic expressions over jet coordinates, parameters and opaque
function kernels.

Every expression is an element of one differential field over QQ, a sparse
rational-function field (``sympy.polys.fields``) whose generators are the
symbols plus interned atoms: a kernel (``exp``, ``log``, ``sin``, ``cos``,
``arctan``) or an opaque function with derivative orders, applied to
normalized arguments.  Each atom knows its own derivative, so ``derivation``
never leaves the field (Bronstein's monomial-extension tower):

    exp(g)' = g'*exp(g)     log(g)' = g'/g     arctan(g)' = g'/(1 + g^2)
    sin(g)' = g'*cos(g)     cos(g)' = -g'*sin(g)
    F(g1, ..., gk)' = sum_i D(F, e_i)(g1, ..., gk)*gi'

The exp generators form a Q-basis of their arguments, the constant 1 among
them: an argument N/D splits, by division N = q*D + r in the lex order,
into the monomials of q and the terms m*lc(D)/D for the monomials m of r,
and exp(g) is a monomial in the generators exp(b/k) of those terms.  So
exp(u)*exp(v) = exp(u + v), exp(u)*exp(1 - u) = exp(1) and
exp(1/(u + 1))*exp(u/(u + 1)) = exp(1), and by the Risch structure theorem
the normal form is canonical on the rational+exp fragment, except that
terms over distinct denominators sharing a factor (1/u, 1/(u + 1),
1/(u^2 + u)) are taken as independent.

Atoms are built unevaluated.  The kernel rewrites are exactly these:

    exp(a + b) = exp(a)*exp(b) and exp(q*a) = exp(a)^q for rational q
    exp(0) = 1, log(1) = 0, sin(0) = 0, cos(0) = 1, arctan(0) = 0
    sin(-g) = -sin(g), arctan(-g) = -arctan(g), cos(-g) = cos(g), where g
    is "negative" when its numerator's leading coefficient is negative

so exp(log(u)), log(2*u) and sin(u)^2 + cos(u)^2 stay as they are.  sympy
trees are built only at the edges (printing, hashing, ``lambdify``, numeric
evaluation); each product in them carries one merged ``exp(...)``.  No
float ever enters a symbolic expression.
"""

from __future__ import annotations

import random
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import sympy as sp
from sympy.core.add import _addsort
from sympy.core.mul import _mulsort
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _gens_order, _max_order, _re_gen

__all__ = [
    "Expr",
    "SymbolTable",
    "ZeroVerdict",
    "parse",
    "normalize",
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
_KERNEL_OF_TREE = {f: name for name, f in _KERNELS.items()}
_RESERVED = frozenset(_KERNELS) | {"D"}


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
    if cls is None:
        clsname = name + "__d" + "_".join(map(str, orders)) if any(orders) else name
        cls = type(
            clsname,
            (sp.Function,),
            {"_opaque_base": name, "_opaque_arity": arity, "_opaque_orders": orders, "nargs": arity},
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
            return self.jet_symbol(base, int(sub))
        raise UndeclaredSymbolError(text, offset)

    def opaque(self, name: str, *args: "Expr | sp.Expr") -> "Expr":
        if name not in self.functions:
            raise UndeclaredSymbolError(name)
        arity = self.functions[name]
        if len(args) != arity:
            raise ArityMismatchError(name, arity, len(args))
        return opaque(name, arity, *args)

    def __repr__(self):
        return (
            f"SymbolTable(independent={self.independent!r}, dependents={self.dependents!r}, "
            f"parameters={self.parameters!r}, functions={self.functions!r})"
        )


def opaque(name: str, arity: int, *args) -> "Expr":
    """Opaque application without a table, for internal fixture construction."""
    return _atom(_opaque_class(name, arity), tuple(normalize(a) for a in args))


# ---------------------------------------------------------------------------
# the ambient differential field
# ---------------------------------------------------------------------------


class _Atom:
    """A generator that is not a symbol: ``head`` (a kernel name or an opaque
    class) applied to normalized ``args``.  An exp atom stands for
    exp(args[0]/scale)."""

    __slots__ = ("head", "args", "scale", "symbol", "tree", "name", "free_symbols")

    def __init__(self, head, args: tuple["Expr", ...], scale: int = 1):
        self.head, self.args, self.scale = head, args, scale
        self.symbol = sp.Dummy(head if isinstance(head, str) else head.__name__)
        trees = [a.sym for a in args]
        # an exp atom's tree is exp(term), unscaled; the generator order
        # sorts atoms by their trees' text, as sympy's _sort_gens would
        self.tree = _KERNELS[head](*trees, evaluate=False) if isinstance(head, str) else head(*trees)
        self.name = str(self.tree)
        self.free_symbols = frozenset().union(*(a.free_symbols for a in args))

    def derivative(self, terms) -> "Expr":
        """The atom's image under the derivation sum c * d/ds over ``terms``."""
        head, args = self.head, self.args
        if not isinstance(head, str):
            total = ZERO
            for i, da in enumerate(derivation(a, terms) for a in args):
                if not da.is_rational_zero:
                    step = tuple(o + (j == i) for j, o in enumerate(head._opaque_orders))
                    total += da * _atom(_opaque_class(head._opaque_base, len(args), step), args)
            return total
        g = args[0]
        dg = derivation(g, terms)
        if dg.is_rational_zero:
            return ZERO
        if head == "exp":
            return dg * Expr._of(_AMBIENT.gen(self.symbol)) / self.scale
        if head == "log":
            return dg / g
        if head == "sin":
            return dg * _atom("cos", args)
        if head == "cos":
            return -dg * _atom("sin", args)
        return dg / (1 + g * g)  # arctan


class _AmbientField:
    """The generators of the one field, in one total order (``_sort_gens``
    order of their names, ties broken by name), so a quotient's sign never
    depends on the order generators were seen in.  An element lives in the
    subfield over the generators it was built from, ZZ(g1, ..., gn) where
    ``cancel`` needs no round trip from QQ; operands from different
    subfields are first moved into the subfield over their union, so no
    ring grows with every atom a process has seen.

    ``exp_basis`` maps each exp argument term (see ``_exp_terms``) to the
    atom of its generator exp(term/scale).  A generator that must take a
    root (exp(u) once exp(u/2) is needed) is retired for a rescaled one;
    ``retired`` maps it to its successor and the power relating them."""

    def __init__(self):
        self.lock = threading.RLock()
        self.atoms: dict[sp.Dummy, _Atom] = {}
        self.interned: dict[tuple, _Atom] = {}
        self.exp_basis: dict[Expr, _Atom] = {}
        self.retired: dict[sp.Dummy, tuple[sp.Dummy, int]] = {}
        self.keys: dict = {}
        self.fields: dict[tuple, FracField] = {}
        self.unions: dict[tuple, FracField] = {}
        self.perms: dict[tuple, list] = {}

    def key(self, s) -> tuple:
        k = self.keys.get(s)
        if k is None:
            atom = self.atoms.get(s)
            name = s.name if atom is None else atom.name
            base, index = _re_gen.match(name).groups()
            k = self.keys[s] = (_gens_order.get(base, _max_order), base, int(index or 0), name)
        return k

    def field(self, symbols: Iterable) -> FracField:
        """The subfield over ``symbols``."""
        symbols = tuple(sorted(set(symbols), key=self.key))
        field = self.fields.get(symbols)
        if field is None:
            # one object per generator tuple: ``unions`` and ``perms`` are
            # keyed by the ids of these fields, which the cache keeps alive
            with self.lock:
                field = self.fields.setdefault(symbols, FracField(symbols, ZZ, lex))
        return field

    def union(self, a: FracField, b: FracField) -> FracField:
        if a is b:
            return a
        u = self.unions.get((id(a), id(b)))
        if u is None:
            sa, sb = set(a.symbols), set(b.symbols)
            u = a if sb <= sa else b if sa <= sb else self.field(sa | sb)
            self.unions[id(a), id(b)] = u
        return u

    def convert(self, f, field):
        """``f`` moved into a subfield holding all of its generators."""
        if f.field is field:
            return f
        targets = self.perms.get((id(f.field), id(field)))
        if targets is None:
            targets = [(field.symbols.index(s), 1) for s in f.field.symbols]
            self.perms[id(f.field), id(field)] = targets
        return _relabel(f, field, targets)

    def gen(self, s):
        return self.field((s,)).gens[0]

    def atom(self, head, args: tuple["Expr", ...]) -> _Atom:
        with self.lock:
            atom = self.interned.get((head, args))
            if atom is None:
                atom = self.interned[head, args] = _Atom(head, args)
                self.atoms[atom.symbol] = atom
            return atom

    # -- the exp basis ------------------------------------------------------
    def exp(self, g: "Expr"):
        """exp(g) as a monomial in the exp generators."""
        with self.lock:
            powers = {}
            for term, c in _exp_terms(g):
                atom = self.exp_basis.get(term)
                if atom is None:
                    atom = self.exp_basis[term] = _Atom("exp", (term,))
                    self.atoms[atom.symbol] = atom
                root = (c * atom.scale).denominator
                if root != 1:
                    new = self.exp_basis[term] = _Atom("exp", (term,), atom.scale * root)
                    self.atoms[new.symbol] = new
                    self.retired[atom.symbol] = (new.symbol, root)
                    atom = new
                powers[atom.symbol] = int(c * atom.scale)
            field = self.field(powers)
            value = field.one
            for s, k in powers.items():
                value *= field.gens[field.symbols.index(s)] ** k
            return value

    def refresh(self, f):
        """``f`` with each retired exp generator replaced by its rescaled
        successor."""
        if not any(s in self.retired for s in f.field.symbols):
            return f
        targets = []
        for s in f.field.symbols:
            power = 1
            while s in self.retired:
                s, k = self.retired[s]
                power *= k
            targets.append((s, power))
        field = self.field(s for s, _ in targets)
        return _relabel(f, field, [(field.symbols.index(s), power) for s, power in targets])


def _relabel(f, field, targets: list[tuple[int, int]]):
    """``f`` in ``field``, its generator i becoming generator targets[i][0]
    of ``field`` raised to the power targets[i][1]."""
    ring = field.ring

    def relabel(p):
        terms = {}
        for monom, c in p.items():
            m = [0] * ring.ngens
            for (i, power), k in zip(targets, monom):
                m[i] += k * power
            terms[tuple(m)] = c
        return ring.zero.new(terms)

    return field.raw_new(relabel(f.numer), relabel(f.denom))


_AMBIENT = _AmbientField()


def _exp_terms(g: "Expr"):
    """(term, coefficient) pairs with g the sum of coefficient*term: the
    monomials of the quotient of g's numerator by its denominator, and the
    monomials of the remainder over the denominator made monic."""
    f = g._field()
    if not f:
        return []
    field, ring = f.field, f.field.ring
    qq = ring.clone(domain=QQ)
    (quotient,), remainder = f.numer.set_ring(qq).div([f.denom.set_ring(qq)])
    lc = f.denom.LC
    out = [(Expr._of(field.raw_new(ring({m: 1}), ring.one)), c) for m, c in quotient.iterterms()]
    return out + [(Expr._of(field.new(ring({m: lc}), f.denom)), c / lc) for m, c in remainder.iterterms()]


def _field_values(exprs: Sequence["Expr"]) -> list:
    """The elements of ``exprs``, all moved into the subfield over the union
    of their generators."""
    values = [x._field() for x in exprs]
    field = values[0].field
    for f in values[1:]:
        field = _AMBIENT.union(field, f.field)
    return [_AMBIENT.convert(f, field) for f in values]


def _signed(f):
    """``f`` with the denominator sign ``cancel`` gives: sympy's f**n for
    n < 0 swaps numerator and denominator as they are."""
    return f.raw_new(-f.numer, -f.denom) if f.denom.LC < 0 else f


def _used(f) -> list[int]:
    """Indices of the generators that occur in ``f``."""
    return [i for i, (a, b) in enumerate(zip(f.numer.degrees(), f.denom.degrees())) if a > 0 or b > 0]


# ---------------------------------------------------------------------------
# the Expr wrapper
# ---------------------------------------------------------------------------


def _binary(op):
    def method(self, other):
        a, b = _field_values((self, normalize(other)))
        try:
            return Expr._of(op(a, b))
        except ZeroDivisionError:
            raise ExprError("division by zero") from None

    return method


class Expr:
    """An immutable symbolic expression: an element ``_frac`` of the ambient
    field, with its sympy tree (``sym``) built on first use."""

    __slots__ = ("_sym", "_frac")

    def __init__(self, raw):
        if isinstance(raw, Expr):
            sym, frac = raw._sym, raw._frac
        elif isinstance(raw, (int, Fraction, sp.Expr)):
            sym, frac = None, _from_tree(sp.sympify(raw))
        else:
            raise TypeError(f"cannot interpret {raw!r} as an expression")
        object.__setattr__(self, "_sym", sym)
        object.__setattr__(self, "_frac", frac)

    @staticmethod
    def _of(frac) -> "Expr":
        e = object.__new__(Expr)
        object.__setattr__(e, "_sym", None)
        object.__setattr__(e, "_frac", frac)
        return e

    @staticmethod
    def number(p: int | Fraction, q: int = 1) -> "Expr":
        p = Fraction(p, q)
        field = _AMBIENT.field(())
        return Expr._of(field.raw_new(field.ring.ground_new(p.numerator), field.ring.ground_new(p.denominator)))

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    @property
    def sym(self) -> sp.Expr:
        """The normalized sympy tree."""
        s = self._sym
        if s is None:
            s = _tree(self._frac)
            object.__setattr__(self, "_sym", s)
        return s

    def _field(self):
        """The field element, with retired exp generators replaced."""
        f = self._frac
        if _AMBIENT.retired:
            f = _AMBIENT.refresh(f)
            object.__setattr__(self, "_frac", f)
        return f

    # -- arithmetic ---------------------------------------------------------
    __add__ = __radd__ = _binary(lambda a, b: a + b)
    __sub__ = _binary(lambda a, b: a - b)
    __rsub__ = _binary(lambda a, b: b - a)
    __mul__ = __rmul__ = _binary(lambda a, b: a * b)
    __truediv__ = _binary(lambda a, b: a / b)
    __rtruediv__ = _binary(lambda a, b: b / a)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("only integer powers are supported")
        f = self._field()
        if n < 0 and not f:
            raise ExprError("division by zero")
        return Expr._of(_signed(f**n)) if n else ONE

    def __neg__(self):
        return Expr._of(-self._frac)

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Expr):
            return False
        a, b = _field_values((self, other))
        return a == b

    def __hash__(self):
        return hash(self.sym)

    @property
    def is_rational_zero(self) -> bool:
        return not self._frac

    @property
    def free_symbols(self) -> frozenset:
        f = self._frac
        out = set()
        for i in _used(f):
            s = f.field.symbols[i]
            atom = _AMBIENT.atoms.get(s)
            out.update((s,) if atom is None else atom.free_symbols)
        return frozenset(out)

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


def _atom(head, args: tuple[Expr, ...]) -> Expr:
    return Expr._of(_AMBIENT.gen(_AMBIENT.atom(head, args).symbol))


def _kernel(name: str, arg: Expr) -> Expr:
    """A kernel applied to ``arg``, with the module docstring's rewrites."""
    if name == "exp":
        return Expr._of(_AMBIENT.exp(arg))
    f = arg._field()
    if name == "log":
        return ZERO if f == f.field.one else _atom("log", (arg,))
    if not f:
        return ONE if name == "cos" else ZERO
    if f.numer.LC < 0:
        value = _atom(name, (-arg,))
        return value if name == "cos" else -value
    return _atom(name, (arg,))


# ---------------------------------------------------------------------------
# sympy trees: reading them in, and building them for the edges
# ---------------------------------------------------------------------------


def _from_tree(tree: sp.Expr):
    """The field element of a sympy tree: symbols and atoms first, then
    sympy's own rebuild of the tree's sums, products and integer powers."""
    values: dict[sp.Expr, Expr] = {}

    def scan(e):
        if e in values or e.is_Rational:
            return
        if e.is_Symbol:
            values[e] = Expr._of(_AMBIENT.gen(e))
        elif e is sp.E:
            values[e] = _kernel("exp", ONE)
        elif e.func in _KERNEL_OF_TREE:
            values[e] = _kernel(_KERNEL_OF_TREE[e.func], Expr(e.args[0]))
        elif _is_opaque(e):
            values[e] = _atom(type(e), tuple(Expr(a) for a in e.args))
        elif e.is_Add or e.is_Mul or e.is_Pow and e.exp.is_Integer:
            for a in e.args:
                scan(a)
        else:
            raise ExprError(f"{e} is outside the supported expression fragment")

    scan(tree)
    fracs = _field_values([ONE, *values.values()])
    field = fracs[0].field
    try:
        return _signed(field.field_new(field._rebuild_expr(tree, dict(zip(values, fracs[1:])))))
    except ZeroDivisionError:
        raise ExprError(f"division by zero in {tree}") from None


def _tree(f) -> sp.Expr:
    """The sympy tree of a field element.  Each product gets one merged exp;
    over a monomial denominator, an exp factor whose argument extracts a
    minus sign stays outside the sum it multiplies."""
    field = f.field
    atoms = [_AMBIENT.atoms.get(s) for s in field.symbols]
    numer, denom = f.numer, f.denom
    used = _used(f)
    if not any(atoms[i] for i in used):
        return numer.as_expr() / denom.as_expr()
    exps = [i for i in used if atoms[i] is not None and atoms[i].head == "exp"]
    trees = {i: field.symbols[i] if atoms[i] is None else atoms[i].tree for i in used}
    holders: dict[tuple, sp.Dummy] = {}
    nodes: dict[sp.Dummy, sp.Expr] = {}

    def holder(powers: tuple) -> sp.Dummy:
        h = holders.get(powers)
        if h is None:
            arg = sum((atoms[i].args[0] * Fraction(k, atoms[i].scale) for i, k in powers), ZERO)
            h = holders[powers] = sp.Dummy()
            nodes[h] = sp.exp(arg.sym, evaluate=False)
        return h

    def poly_tree(p, shift: dict[int, int]) -> sp.Expr:
        terms = []
        for monom, c in p.iterterms():
            factors = [sp.Integer(int(c))]
            factors += [trees[i] ** monom[i] for i in used if i not in shift and monom[i]]
            powers = tuple((i, monom[i] - shift[i]) for i in exps if monom[i] != shift[i])
            if powers:
                factors.append(holder(powers))
            terms.append(sp.Mul(*factors))
        return sp.Add(*terms)

    shift = dict.fromkeys(exps, 0)
    if len(denom) == 1:
        (dmon,) = denom.itermonoms()
        shift = {i: dmon[i] for i in exps}
        content = {i: min(m[i] for m in numer.itermonoms()) for i in exps}
        out = tuple((i, content[i] - shift[i]) for i in exps if content[i] != shift[i])
        if len(numer) > 1 and out and nodes.get(holder(out)).args[0].could_extract_minus_sign():
            return _place(poly_tree(numer, content) * holder(out) / poly_tree(denom, shift), nodes)
    return _place(poly_tree(numer, shift) / poly_tree(denom, shift), nodes)


def _place(e: sp.Expr, nodes: Mapping[sp.Dummy, sp.Expr]) -> sp.Expr:
    """``e`` with each placeholder replaced by its exp node, rebuilding the
    products and sums around it in sympy's canonical argument order but
    without evaluation, which would rewrite exp(log(u)) to u and exp(1) to
    E."""
    if e in nodes:
        return nodes[e]
    if not e.args or not e.has(*nodes):
        return e
    args = [_place(a, nodes) for a in e.args]
    if e.is_Mul or e.is_Add:
        number = [a for a in args if a.is_Number]
        rest = [a for a in args if not a.is_Number]
        (_mulsort if e.is_Mul else _addsort)(rest)
        return e.func._from_args(number + rest)
    return e.func(*args, evaluate=False)


# ---------------------------------------------------------------------------
# derivations and substitution in the field
# ---------------------------------------------------------------------------


def diff(e: Expr, s: str | sp.Symbol, table: SymbolTable | None = None) -> Expr:
    """Formal partial derivative with respect to one symbol."""
    if isinstance(s, str):
        s = table.lookup(s) if table is not None else sp.Symbol(s)
    return derivation(e, [(s, ONE)])


def derivation(e: Expr, terms: Iterable[tuple[sp.Symbol, Expr]]) -> Expr:
    """The sum of c * de/ds over the (s, c) pairs of ``terms``, computed in
    the ambient field: the chain rule over the generators of e, with each
    atom's own derivative."""
    terms = [(s, c) for s, c in terms if not c.is_rational_zero]
    f = e._field()
    names = {s for s, _ in terms}
    images = []
    for i in _used(f):
        g = f.field.symbols[i]
        atom = _AMBIENT.atoms.get(g)
        if atom is None:
            cs = [c for s, c in terms if s == g]
            if cs:
                images.append((g, sum(cs[1:], cs[0])))
        elif atom.free_symbols & names:
            images.append((g, atom.derivative(terms)))
    f, *coeffs = _field_values([e, *(c for _, c in images)])
    acc = f.field.zero
    for (g, _), c in zip(images, coeffs):
        if c:
            acc += c * f.diff(f.field.gens[f.field.symbols.index(g)])
    return Expr._of(acc)


def _powers(x, k: int) -> list:
    out = [x.ring.one]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


def _compose(p, values: Mapping[int, tuple]) -> tuple:
    """p with generator i replaced by n/d for each (n, d) in ``values``, as
    a numerator and denominator: the terms are put over the product of the
    d**deg_i, so no gcd is taken before the final cancel."""
    degrees = p.degrees()
    powers = {i: (_powers(n, degrees[i]), _powers(d, degrees[i])) for i, (n, d) in values.items()}
    num = p.ring.zero
    for monom, c in p.iterterms():
        rest = list(monom)
        term = p.ring.one
        for i, (ns, ds) in powers.items():
            term *= ns[monom[i]] * ds[degrees[i] - monom[i]]
            rest[i] = 0
        num += term * p.ring({tuple(rest): c})
    den = p.ring.one
    for _, ds in powers.values():
        den *= ds[-1]
    return num, den


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution of symbols, by composition in the field."""
    mapping = {}
    for key, val in bindings.items():
        ks = sp.Symbol(key) if isinstance(key, str) else key
        if not isinstance(ks, sp.Symbol):
            raise ExprError(f"substitution key {key!r} is not a symbol")
        mapping[ks] = normalize(val)
    while True:
        f = e._field()
        images = {}
        for i in _used(f):
            g = f.field.symbols[i]
            atom = _AMBIENT.atoms.get(g)
            if atom is None:
                if g in mapping:
                    images[g] = mapping[g]
            elif atom.free_symbols & mapping.keys():
                args = tuple(substitute(a, mapping) for a in atom.args)
                if atom.head == "exp":
                    images[g] = _kernel("exp", args[0] / atom.scale)
                elif isinstance(atom.head, str):
                    images[g] = _kernel(atom.head, args[0])
                else:
                    images[g] = _atom(atom.head, args)
        if not images:
            return e
        f, *fracs = _field_values([e, *images.values()])
        if all(g in f.field.symbols for g in images):
            break
        # a new exp argument retired one of e's exp generators: start again
    values = {f.field.symbols.index(g): (v.numer, v.denom) for g, v in zip(images, fracs)}
    n1, d1 = _compose(f.numer, values)
    n2, d2 = _compose(f.denom, values)
    if not n2:
        raise ExprError("substitution makes a denominator vanish")
    return Expr._of(f.field.new(n1 * d2, d1 * n2))


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
    e: Expr | sp.Expr,
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
    val = (e.sym if isinstance(e, Expr) else e).xreplace(sub)
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
# zero testing
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


def _poly_at(p, point) -> Fraction:
    """p at exact rational values, ``point[i]`` for generator i."""
    total = Fraction(0)
    for monom, c in p.iterterms():
        term = Fraction(int(c))
        for i, k in enumerate(monom):
            if k:
                term *= point[i] ** k
        total += term
    return total


def is_zero(
    e: Expr,
    trials: int = 20,
    seed: int = 0,
    deny: Sequence[Expr] = (),
) -> ZeroVerdict:
    """Zero iff the normal form is the rational constant 0.  Otherwise
    sample random rational points, skipping singular ones and points where a
    ``deny`` expression nearly vanishes.  A value without atoms is a
    rational function: the first point where its numerator is nonzero (and
    its denominator is not) is an exact witness.  A value with atoms is
    evaluated numerically, with opaque applications as independent
    unknowns; a value above 1e-9 in magnitude is a witness, and if every
    sample vanishes the result is Unknown (a possible identity outside the
    rewrite set, such as sin^2 + cos^2 = 1)."""
    if trials < 1:
        raise ExprError("trials must be >= 1")
    if e.is_rational_zero:
        return ZERO_VERDICT
    f = e._field()
    gens = f.field.symbols
    exact = not any(gens[i] in _AMBIENT.atoms for i in _used(f))
    # opaque applications act as independent unknowns: a smooth function and
    # its formal derivatives are jointly unconstrained at a point
    atom_map = {} if exact else {a: sp.Dummy(f"atom{k}") for k, a in enumerate(_opaque_atoms(e.sym))}
    probe = None if exact else e.sym.xreplace(atom_map)
    symbols = sorted(e.free_symbols if exact else probe.free_symbols, key=lambda s: s.name)
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
            if any(abs(eval_numeric(d.sym.xreplace(atom_map), assignment)) <= 1e-3 for d in deny):
                continue
            if exact:
                point = [assignment.get(s) for s in gens]
                num, den = _poly_at(f.numer, point), _poly_at(f.denom, point)
                if not den:
                    continue
                value = float(num / den)
            else:
                value = eval_numeric(probe, assignment)
                num = abs(value) > 1e-9
        except SingularPointError:
            continue
        if num:
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
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_BINARY = {"+": Expr.__add__, "-": Expr.__sub__, "*": Expr.__mul__, "/": Expr.__truediv__}


class _Parser:
    """Recursive descent over the grammar; builds field elements directly."""

    def __init__(self, text: str, table: SymbolTable):
        self.table = table
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def accept(self, ops: str) -> str | None:
        """The next token if it is one of the operators ``ops``, consumed."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.i += 1
            return text
        return None

    def expect_op(self, op: str):
        if self.accept(op) is None:
            raise ExprSyntaxError(f"expected '{op}'", self.peek()[2])

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", offset)
        return e

    def expr(self, ops: str = "+-") -> Expr:
        operand = self.term if ops == "+-" else self.factor
        e = operand()
        while op := self.accept(ops):
            e = _BINARY[op](e, operand())
        return e

    def term(self) -> Expr:
        return self.expr("*/")

    def factor(self) -> Expr:
        sign = self.accept("+-")
        if sign:
            inner = self.factor()
            return inner if sign == "+" else -inner
        base = self.primary()
        if not self.accept("^"):
            return base
        off = self.peek()[2]
        f = self.factor()._frac
        if not (f.numer.is_ground and f.denom == f.field.ring.one):
            raise ExprSyntaxError("exponent must be an integer", off)
        return base ** int(f.numer.LC)

    def primary(self) -> Expr:
        kind, text, offset = self.next()
        if kind == "num":
            return Expr.number(int(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind != "name":
            raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)
        if text == "D":
            return self.derivative_node(offset)
        if text in _KERNELS:
            return _kernel(text, *self.call_args(text, 1, offset))
        if text in self.table.functions:
            arity = self.table.functions[text]
            return _atom(_opaque_class(text, arity), self.call_args(text, arity, offset))
        if self.peek()[:2] == ("op", "("):
            raise UndeclaredSymbolError(text, offset)
        return Expr._of(_AMBIENT.gen(self.table.lookup(text, offset)))

    def call_args(self, name: str, arity: int, offset: int) -> tuple[Expr, ...]:
        self.expect_op("(")
        args = [self.expr()]
        while self.accept(","):
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != arity:
            raise ArityMismatchError(name, arity, len(args), offset)
        return tuple(args)

    def derivative_node(self, offset: int) -> Expr:
        self.expect_op("(")
        kind, name, noff = self.next()
        if kind != "name":
            raise ExprSyntaxError("expected an opaque function name in D(...)", noff)
        if name not in self.table.functions:
            raise UndeclaredSymbolError(name, noff)
        arity = self.table.functions[name]
        orders = []
        while self.accept(","):
            k2, t2, o2 = self.next()
            if k2 != "num":
                raise ExprSyntaxError("expected a nonnegative integer in D(...)", o2)
            orders.append(int(t2))
        self.expect_op(")")
        if len(orders) != arity:
            raise ArityMismatchError(name, arity, len(orders), offset)
        return _atom(_opaque_class(name, arity, tuple(orders)), self.call_args(name, arity, offset))


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse grammar text against the declared symbols; result is normalized."""
    return _Parser(text, table).parse()


# ---------------------------------------------------------------------------
# printer (round-trips through parse on normalized expressions)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

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
    if e.func in _KERNEL_OF_TREE:
        return f"{_KERNEL_OF_TREE[e.func]}({_print(e.args[0], 0)})"
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
    return _print(e.sym if isinstance(e, Expr) else sp.sympify(e), 0)
