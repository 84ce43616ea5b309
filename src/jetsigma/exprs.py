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

A derivation is given by its image map, from each symbol to its image, and
resolves each generator with one lookup; a lone symbol is mapped to its
image object as it is.  ``diff`` maps one symbol to 1, a vector field keeps
its map, and D_x has one map per ``SymbolTable`` (``dx_images``), filled as
coordinates are met; ``jets.total_derivative`` keeps each result on its
expression with that map.  One rule forms every quotient, of an operator, a
derivation, a matrix entry or a sympy tree read in: the numerators go over
the lcm of their denominators, and the result takes one cancel, or none over
the denominator 1.

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
trees are built only at the edges: to print, to compile in ``oracle``, to
read an ``Expr(sp.Expr)`` input and to name atoms; each product in them
carries one merged ``exp(...)``.  An input tree is read in one walk
(``_from_tree``), with no sympy field arithmetic and no private sympy
method: each product adds its generators' exponents into one vector and
multiplies its rational coefficients, each sum collects its terms as
numerator and denominator pairs, and the element is formed once, by the
quotient rule above.  Hashing reads the field element, and
numeric evaluation and the zero test walk the generators (``_value``): exact
in Q without kernel atoms, to 30 digits with them.  No float ever enters a
symbolic expression.
"""

from __future__ import annotations

import numbers
import random
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from sys import float_info
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

import mpmath
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
    "CheckResult",
    "parse",
    "normalize",
    "is_zero",
    "diff",
    "derivation",
    "substitute",
    "eval_numeric",
    "print_expr",
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


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")
_ALIASES = {"x": 1, "xx": 2, "xxx": 3}


def _name_symbol(name: str) -> sp.Symbol:
    """The symbol a name stands for without a symbol table: the aliases
    ``u_x``, ``u_xx``, ``u_xxx`` are ``u_1``, ``u_2``, ``u_3``; every other
    name is read as it is."""
    base, sep, sub = name.partition("_")
    return sp.Symbol(f"{base}_{_ALIASES[sub]}" if sep and sub in _ALIASES else name)


class SymbolTable:
    """Registry of declared names: the independent variable, dependent
    variables (whose jet coordinates ``u_k`` exist for every k >= 0),
    parameters, and opaque functions with fixed arity.  Two tables with the
    same declarations are equal.

    ``dx_images`` is the total derivative's image map for ``derivation``:
    x -> 1 and u_k -> u_{k+1} for every k, filled as coordinates are met."""

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
        self._jet_symbols: dict[tuple[str, int], sp.Symbol] = {}
        self.dx_images = _TotalDerivativeImages(self)

    def extended(self, parameters: Sequence[str] = (), functions: Mapping[str, int] | None = None) -> "SymbolTable":
        return SymbolTable(
            self.independent,
            self.dependents,
            (*self.parameters, *parameters),
            {**self.functions, **(functions or {})},
        )

    def jet_symbol(self, dep: str, k: int) -> sp.Symbol:
        s = self._jet_symbols.get((dep, k))
        if s is None:
            if dep not in self.dependents:
                raise UndeclaredSymbolError(dep)
            if k < 0:
                raise ExprError("jet order must be >= 0")
            s = self._jet_symbols[dep, k] = sp.Symbol(dep if k == 0 else f"{dep}_{k}")
        return s

    def jet_index(self, sym: sp.Symbol) -> tuple[str, int] | None:
        """(dependent, order) of a jet coordinate symbol ``u`` or ``u_k``;
        None for every other symbol."""
        base, sep, sub = sym.name.partition("_")
        if base not in self.dependents:
            return None
        if not sep:
            return base, 0
        return (base, int(sub)) if sub.isdigit() else None

    def base_symbol(self, name: str) -> sp.Symbol:
        if name == self.independent or name in self.dependents or name in self.parameters:
            return sp.Symbol(name)
        raise UndeclaredSymbolError(name)

    def lookup(self, text: str, offset: int = -1) -> sp.Symbol:
        """Resolve a (possibly subscripted) coordinate name to its symbol."""
        index = self.jet_index(_name_symbol(text))
        if index is not None:
            return self.jet_symbol(*index)
        if "_" in text:
            raise UndeclaredSymbolError(text, offset)
        return self.base_symbol(text)

    def _declarations(self) -> tuple:
        return self.independent, self.dependents, self.parameters, frozenset(self.functions.items())

    def __eq__(self, other):
        return isinstance(other, SymbolTable) and self._declarations() == other._declarations()

    def __hash__(self):
        return hash(self._declarations())

    def __repr__(self):
        return (
            f"SymbolTable(independent={self.independent!r}, dependents={self.dependents!r}, "
            f"parameters={self.parameters!r}, functions={self.functions!r})"
        )


class _TotalDerivativeImages(dict):
    """The image map of D_x on one table's symbols: x -> 1, u_k -> u_{k+1}
    and None (image 0) for every other symbol, each entered the first time
    it is looked up, so no jet order bounds it.  Threads that race on a miss
    store equal images."""

    def __init__(self, table: SymbolTable):
        super().__init__({sp.Symbol(table.independent): ONE})
        self.table = table

    def __missing__(self, s: sp.Symbol):
        index = self.table.jet_index(s)
        image = self[s] = None if index is None else Expr(self.table.jet_symbol(index[0], index[1] + 1))
        return image

    # ``derivation`` reads images with ``get``, which here fills a miss
    get = dict.__getitem__


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

    def derivative(self, images) -> "Expr":
        """The atom's image under the derivation with image map ``images``."""
        head, args = self.head, self.args
        if not isinstance(head, str):
            total = ZERO
            for i, da in enumerate(derivation(a, images) for a in args):
                if not da.is_rational_zero:
                    step = tuple(o + (j == i) for j, o in enumerate(head._opaque_orders))
                    total += da * _atom(_opaque_class(head._opaque_base, len(args), step), args)
            return total
        g = args[0]
        dg = derivation(g, images)
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
        self.indices: dict[int, dict] = {}
        self.unions: dict[tuple, FracField] = {}
        self.moves: dict[tuple, Callable] = {}

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
            # one object per tuple, kept alive here: ``indices``, ``unions`` and ``moves`` key on its id
            with self.lock:
                field = self.fields.get(symbols)
                if field is None:
                    field = FracField(symbols, ZZ, lex)
                    self.indices[id(field)] = {s: i for i, s in enumerate(symbols)}
                    self.fields[symbols] = field
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
        """``f`` moved into ``field``, a number with no move map; ExprError
        if ``field`` lacks one of its generators."""
        if f.field is field:
            return f
        if f.numer.is_ground and f.denom.is_ground:
            return field.raw_new(field.ring.ground_new(f.numer.LC), field.ring.ground_new(f.denom.LC))
        move = self.moves.get((id(f.field), id(field)))
        if move is None:
            # a gather of the target's exponents; those the source lacks read the padding 0
            index, at = self.indices[id(field)], [f.field.ngens] * field.ngens
            for i, s in enumerate(f.field.symbols):
                if s not in index:
                    raise ExprError(f"the subfield lacks the generator {(self.atoms.get(s) or s).name}")
                at[index[s]] = i
            # one index would make itemgetter return a bare int, one slice a tuple
            move = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
            self.moves[id(f.field), id(field)] = move
        return _move(f, field, move)

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
            m = [powers[s] for s in field.symbols]
            n, d = (field.ring({tuple(max(0, sign * k) for k in m): 1}) for sign in (1, -1))
            return field.raw_new(n, d)  # a monomial over a monomial, with no cancel

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
        targets = [(self.indices[id(field)][s], power) for s, power in targets]

        def move(monom):
            m = [0] * field.ngens
            for (i, power), k in zip(targets, monom):
                m[i] += k * power
            return tuple(m)

        return _move(f, field, move)


def _move(f, field, move: Callable):
    """``f`` in ``field``: each monomial m of its numerator and denominator
    becomes move(m + (0,)), with its coefficient kept."""
    new = field.ring.dtype
    numer = new({move(m + (0,)): c for m, c in f.numer.items()})
    return field.raw_new(numer, new({move(m + (0,)): c for m, c in f.denom.items()}))


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
    out = [(Expr._of(field.raw_new(ring({m: 1}), ring.one)), c) for m, c in quotient.items()]
    return out + [(Expr._of(_sum_quotients(field, [(ring({m: lc}), f.denom)])), c / lc) for m, c in remainder.items()]


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


def _generators(f) -> list[tuple[int, sp.Symbol, _Atom | None]]:
    """(index, symbol, atom) for each generator that occurs in ``f``; the
    atom is None for a symbol."""
    symbols, atoms = f.field.symbols, _AMBIENT.atoms
    return [
        (i, symbols[i], atoms.get(symbols[i]))
        for i, (a, b) in enumerate(zip(f.numer.degrees(), f.denom.degrees()))
        if a > 0 or b > 0
    ]


def _opaque_applications(e: "Expr"):
    """The opaque atoms of ``e``, those inside other atoms' arguments too."""
    for _, _, atom in _generators(e._field()):
        if atom is not None:
            if not isinstance(atom.head, str):
                yield atom
            for arg in atom.args:
                yield from _opaque_applications(arg)


# ---------------------------------------------------------------------------
# the Expr wrapper
# ---------------------------------------------------------------------------


class Expr:
    """An immutable symbolic expression: an element ``_frac`` of the ambient
    field, with its sympy tree (``sym``) built on first use and its total
    derivative (``_dx``, an (image map, result) pair) kept by
    ``jets.total_derivative``."""

    __slots__ = ("_sym", "_frac", "_dx")

    def __init__(self, raw):
        if isinstance(raw, Expr):
            sym, frac = raw._sym, raw._frac
        elif isinstance(raw, sp.Symbol):
            sym, frac = None, _AMBIENT.gen(raw)
        elif isinstance(raw, (int, Fraction)) and not isinstance(raw, bool):
            sym, frac = None, Expr.number(raw)._frac
        elif isinstance(raw, sp.Expr):
            sym, frac = None, _from_tree(raw)
        else:
            raise TypeError(f"cannot interpret {raw!r} as an expression")
        object.__setattr__(self, "_sym", sym)
        object.__setattr__(self, "_frac", frac)
        object.__setattr__(self, "_dx", None)

    @staticmethod
    def _of(frac) -> "Expr":
        e = object.__new__(Expr)
        object.__setattr__(e, "_sym", None)
        object.__setattr__(e, "_frac", frac)
        object.__setattr__(e, "_dx", None)
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

    # -- arithmetic: ``_sum`` and ``_product`` form each result with ``_sum_quotients``
    __add__ = __radd__ = lambda self, other: _sum(self, normalize(other), 1)
    __sub__ = lambda self, other: _sum(self, normalize(other), -1)
    __rsub__ = lambda self, other: _sum(normalize(other), self, -1)
    __mul__ = __rmul__ = lambda self, other: _product(self, normalize(other), False)
    __truediv__ = lambda self, other: _product(self, normalize(other), True)
    __rtruediv__ = lambda self, other: _product(normalize(other), self, True)

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
        # a subfield move or an exp generator's retirement relabels the
        # monomials but keeps their coefficients
        f = self._frac
        return hash((self.free_symbols, tuple(sorted(f.numer.values())), tuple(sorted(f.denom.values()))))

    @property
    def is_rational_zero(self) -> bool:
        return not self._frac

    @property
    def free_symbols(self) -> frozenset:
        out = set()
        for _, s, atom in _generators(self._frac):
            out.update((s,) if atom is None else atom.free_symbols)
        return frozenset(out)

    def jet_order(self, table: SymbolTable) -> int:
        """Highest jet order among the coordinates appearing in the expression."""
        indices = filter(None, map(table.jet_index, self.free_symbols))
        return max((k for _, k in indices), default=0)

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
    """The field element of a sympy tree, read in one walk over the subfield
    of its symbols and atoms, once ``scan`` has found the symbols and
    interned the atoms (the value of each is a monomial over a monomial).  A
    product adds its factors' exponents into one vector and multiplies their
    rational coefficients; only its other factors (sums, alone or under a
    power) are multiplied as polynomials.  A sum collects its terms'
    numerator and denominator pairs, and ``_sum_quotients`` forms the tree's
    element once, with no cancel when every denominator is 1.  A zeroth
    power is 1, and a zero under a negative power raises before any quotient
    is formed."""
    symbols: set[sp.Symbol] = set()
    atoms: dict[sp.Expr, Expr] = {}

    def scan(e):
        if e.is_Add or e.is_Mul or e.is_Pow and e.exp.is_Integer:
            for a in e.args:
                scan(a)
        elif e.is_Symbol:
            symbols.add(e)
        elif e.is_Rational or e in atoms:
            return
        elif e is sp.E:
            atoms[e] = _kernel("exp", ONE)
        elif e.func in _KERNEL_OF_TREE:
            atoms[e] = _kernel(_KERNEL_OF_TREE[e.func], Expr(e.args[0]))
        elif _is_opaque(e):
            atoms[e] = _atom(type(e), tuple(Expr(a) for a in e.args))
        else:
            raise ExprError(f"{e} is outside the supported expression fragment")

    scan(tree)
    fracs = [v._field() for v in atoms.values()]
    field = _AMBIENT.field([*symbols, *(s for f in fracs for s in f.field.symbols)])
    ring, one, unit, index = field.ring, field.ring.one, [0] * field.ngens, _AMBIENT.indices[id(field)]
    leaves = {}
    for e, f in zip(atoms, fracs):
        ((dm, dc),) = f.denom.items()
        ((nm, nc),) = f.numer.items() or [(dm, 0)]
        m = list(unit)
        for s, a, b in zip(f.field.symbols, nm, dm):
            m[index[s]] = a - b
        leaves[e] = (int(nc) if dc == 1 else Fraction(int(nc), int(dc)), m, one, one)

    def term(e) -> tuple:
        """``e`` as (c, m, n, d): the value c * g^m * n/d over the
        generators g, with c an int or a Fraction and n, d polynomials."""
        if e.is_Rational:
            return int(e.p) if e.q == 1 else Fraction(int(e.p), int(e.q)), unit, one, one
        if e.is_Symbol:
            m = list(unit)
            m[index[e]] = 1
            return 1, m, one, one
        leaf = leaves.get(e)
        if leaf is not None:
            return leaf
        if e.is_Add:
            return (1, unit, *_over_lcm(ring, pairs(e.args)))
        if e.is_Mul:
            c, m, n, d = term(e.args[0])
            for a in e.args[1:]:
                ac, am, an, ad = term(a)
                c, m, n, d = c * ac, [x + y for x, y in zip(m, am)], _times(n, an), _times(d, ad)
            return c, m, n, d
        # a power with an integer exponent, the one node left after ``scan``
        c, m, n, d = term(e.base)
        k = int(e.exp)
        if k == 0:
            # 1 whatever the base's value, as sympy reads 0**0
            return 1, unit, one, one
        if k < 0:
            if not c or not n:
                raise ExprError(f"division by zero in {tree}")
            c, n, d = 1 / Fraction(c), d, n
        j = abs(k)
        return c**j, [x * k for x in m], n if _is_one(n) else n**j, d if _is_one(d) else d**j

    def pairs(nodes) -> list:
        """The (n, d) pairs of the sum of ``nodes``: its integer multiples
        of monomials added in one ring dict, and each other term c*g^m*n/d
        split into a numerator and a denominator."""
        monomials, out = {}, []
        for e in nodes:
            c, m, n, d = term(e)
            if not c:
                continue
            if c.denominator == 1 and min(m, default=0) >= 0 and _is_one(n) and _is_one(d):
                key = tuple(m)
                monomials[key] = monomials.get(key, 0) + c
                continue
            numer = _times(ring.dtype({tuple(max(x, 0) for x in m): ZZ(c.numerator)}), n)
            out.append((numer, _times(ring.dtype({tuple(max(-x, 0) for x in m): ZZ(c.denominator)}), d)))
        return [(ring.dtype({m: ZZ(int(c)) for m, c in monomials.items() if c}), one), *out]

    return _sum_quotients(field, pairs(tree.args if tree.is_Add else (tree,)))


def _tree(f) -> sp.Expr:
    """The sympy tree of a field element.  Each product gets one merged exp;
    over a monomial denominator, an exp factor whose argument extracts a
    minus sign stays outside the sum it multiplies."""
    numer, denom = f.numer, f.denom
    generators = _generators(f)
    if not any(atom for _, _, atom in generators):
        return numer.as_expr() / denom.as_expr()
    atoms = {i: atom for i, _, atom in generators}
    exps = [i for i, _, atom in generators if atom is not None and atom.head == "exp"]
    trees = {i: s if atom is None else atom.tree for i, s, atom in generators}
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
            factors += [tree ** monom[i] for i, tree in trees.items() if i not in shift and monom[i]]
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
        s = table.lookup(s) if table is not None else _name_symbol(s)
    return derivation(e, {s: ONE})


def derivation(e: Expr, images: Mapping[sp.Symbol, Expr]) -> Expr:
    """The sum of c * de/ds over the symbols s with image c =
    ``images.get(s)`` (None, or absent, for an image 0), computed in the
    ambient field: the chain rule over the generators of e, one lookup per
    generator, with each atom's own derivative.  A lone symbol s is mapped
    to its image object as it is.  Otherwise, with e = N/D and c_g = a_g/b_g
    the image of generator g, the terms a_g*(N'_g*D - N*D'_g) are summed
    over the lcm of the b_g times D^2 (``_sum_quotients``); D^2 is not
    formed when D = 1."""
    f = e._field()
    if len(f.numer) == 1 and _is_one(f.denom):
        ((m, c),) = f.numer.items()
        if c == 1 and sum(m) == 1 and (g := f.field.symbols[m.index(1)]) not in _AMBIENT.atoms:
            return images.get(g) or ZERO
    found = []
    for _, g, atom in _generators(f):
        if atom is None:
            c = images.get(g)
            if c is not None:
                found.append((g, c))
        elif any(images.get(s) is not None for s in atom.free_symbols):
            found.append((g, atom.derivative(images)))
    f, *coeffs = _field_values([e, *(c for _, c in found)])
    field, numer, denom = f.field, f.numer, f.denom
    unit, index = _is_one(denom), _AMBIENT.indices[id(field)]
    pairs = []
    for (g, _), c in zip(found, coeffs):
        if c:
            i = index[g]
            step = numer.diff(i) if unit else numer.diff(i) * denom - numer * denom.diff(i)
            pairs.append((_times(c.numer, step), c.denom))
    return Expr._of(_sum_quotients(field, pairs, None if unit else denom**2))


def _is_one(p) -> bool:
    """p == 1, without ``PolyElement.__eq__``'s type dispatch."""
    return len(p) == 1 and p.get(p.ring.zero_monom) == 1


def _times(a, b):
    """a*b in one ring, with no product formed when a factor is 1."""
    return b if _is_one(a) else a if _is_one(b) else a * b


def _over_lcm(ring, pairs: Sequence[tuple]) -> tuple:
    """The sum of n/d over the (n, d) polynomial ``pairs`` as a numerator
    and a denominator, with no cancel: pairs with n = 0 are skipped, and the
    rest go over the lcm L of their denominators other than 1, each n times
    L/d."""
    pairs = [(n, d) for n, d in pairs if n]
    if not pairs:
        return ring.zero, ring.one
    dens = list(dict.fromkeys(d for _, d in pairs if not _is_one(d)))
    if not dens:
        return sum((n for n, _ in pairs[1:]), pairs[0][0]), ring.one
    lcm, scales = dens[0], {}
    for d in dens[1:]:
        # L/e for each e so far; with L = g*a and d = g*b the lcm is L*b = d*a
        _, a, b = lcm.cofactors(d)
        scales = {e: _times(s, b) for e, s in (scales or {dens[0]: ring.one}).items()} | {d: a}
        lcm = lcm * b
    terms = [_times(n, lcm) if _is_one(d) else _times(n, scales[d]) if scales else n for n, d in pairs]
    return sum(terms[1:], terms[0]), lcm


def _sum_quotients(field, pairs: Sequence[tuple], denom=None):
    """The sum of n/d over the (n, d) polynomial ``pairs``, divided by
    ``denom``: the one rule that forms field elements.  The pairs go over the
    lcm of their denominators (``_over_lcm``), and the sum over it (times
    ``denom``) takes one cancel, or none when that is 1 or the sum is 0."""
    numer, lcm = _over_lcm(field.ring, pairs)
    if not numer:
        return field.zero
    if denom is None and _is_one(lcm):
        return field.raw_new(numer, lcm)
    return field.new(numer, lcm if denom is None else _times(lcm, denom))


def _sum(x: Expr, y: Expr, sign: int) -> Expr:
    """x + sign*y; a zero operand leaves the other, in lowest terms already."""
    if x.is_rational_zero or y.is_rational_zero:
        return x if y.is_rational_zero else y if sign > 0 else -y
    a, b = _field_values((x, y))
    return Expr._of(_sum_quotients(a.field, [(a.numer, a.denom), (b.numer if sign > 0 else -b.numer, b.denom)]))


def _product(x: Expr, y: Expr, divide: bool) -> Expr:
    """x*y, or x/y when ``divide``."""
    if divide and y.is_rational_zero:
        raise ExprError("division by zero")
    a, b = _field_values((x, y))
    n, d = (b.denom, b.numer) if divide else (b.numer, b.denom)
    return Expr._of(_sum_quotients(a.field, [(_times(a.numer, n), _times(a.denom, d))]))


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
        ks = _name_symbol(key) if isinstance(key, str) else key
        if not isinstance(ks, sp.Symbol):
            raise ExprError(f"substitution key {key!r} is not a symbol")
        mapping[ks] = normalize(val)
    while True:
        f = e._field()
        images = {}
        for _, g, atom in _generators(f):
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
        index = _AMBIENT.indices[id(f.field)]
        if all(g in index for g in images):
            break
        # a new exp argument retired one of e's exp generators: start again
    values = {index[g]: (v.numer, v.denom) for g, v in zip(images, fracs)}
    n1, d1 = _compose(f.numer, values)
    n2, d2 = _compose(f.denom, values)
    if not n2:
        raise ExprError("substitution makes a denominator vanish")
    return Expr._of(_sum_quotients(f.field, [(n1 * d2, d1 * n2)]))


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


_MP = mpmath.MPContext()
_MP.dps = 30
_MP_KERNELS = {"exp": _MP.exp, "log": _MP.log, "sin": _MP.sin, "cos": _MP.cos, "arctan": _MP.atan}


def _poly_at(p, point) -> Fraction:
    """p with generator i at ``point[i]``; exact over Fractions.  Each power
    point[i]**k is taken once, and each term multiplies its powers in the
    order of the generators."""
    powers = {}
    total = Fraction(0)
    for monom, c in p.iterterms():
        term = Fraction(int(c))
        for i, k in enumerate(monom):
            if k:
                power = powers.get((i, k))
                if power is None:
                    power = powers[i, k] = point[i] ** k
                term *= power
        total += term
    return total


def _value(f, point: Mapping, unknowns: Mapping):
    """``f`` at ``point`` (symbol -> Fraction), each opaque atom taking its
    value from ``unknowns`` and each kernel atom its kernel at its argument's
    value (divided by an exp atom's scale) to 30 digits: an exact Fraction
    unless ``f`` has a kernel atom."""
    values = {}
    for i, s, atom in _generators(f):
        if atom is None:
            if s not in point:
                raise ExprError(f"unbound symbols in numeric evaluation: {s}")
            values[i] = point[s]
        elif isinstance(atom.head, str):
            g = _value(atom.args[0]._field(), point, unknowns) / atom.scale
            if atom.head == "log" and g <= 0:
                raise SingularPointError("log of a nonpositive value")
            values[i] = _MP_KERNELS[atom.head](g)
        elif atom in unknowns:
            values[i] = unknowns[atom]
        else:
            raise ExprError(f"no value for the opaque application {atom.name}")
    num, den = _poly_at(f.numer, values), _poly_at(f.denom, values)
    if not den:
        raise SingularPointError("evaluation hit a pole")
    # a Fraction divides by an mpf only once converted
    return num / den if isinstance(den, Fraction) else _MP.convert(num) / den


def _finite(value) -> float:
    """``value`` as a float; SingularPointError if it overflows one."""
    if abs(value) > float_info.max:
        raise SingularPointError("evaluation overflowed a float")
    return float(value)


def eval_numeric(e: Expr | sp.Expr, point: Mapping) -> float:
    """``e`` at a rational point (``_value``), as a float.  A pole, a log of
    a nonpositive value or a result too large for a float raises
    SingularPointError; an unbound symbol or an opaque atom, ExprError."""
    at = {}
    for key, v in point.items():
        if not isinstance(v, (float, numbers.Rational)):
            raise ExprError(f"point component {v!r} is not rational")
        v = Fraction(v).limit_denominator(10**12) if isinstance(v, float) else Fraction(v)
        at[_name_symbol(key) if isinstance(key, str) else key] = v
    return _finite(_value(normalize(e)._field(), at, {}))


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

    @property
    def label(self) -> str:
        return {"zero": "Zero", "nonzero": "NonZero", "unknown": "Unknown"}[self.status]

    def __str__(self):
        if self.status == "nonzero" and self.witness is not None:
            pt = ", ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
            return f"NonZero[{self.value:.3g} at {pt}]"
        return self.label


ZERO_VERDICT = ZeroVerdict("zero")


def _sample_fraction(rng: random.Random, bound: int = 64) -> Fraction:
    """A signed rational p/q with 1 <= p, q <= ``bound``."""
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * rng.randint(1, bound), rng.randint(1, bound))


def _unknowns(f) -> set:
    """The symbols and opaque atoms of ``f`` outside opaque arguments."""
    out = set()
    for _, s, atom in _generators(f):
        kernel = atom is not None and isinstance(atom.head, str)
        out |= _unknowns(atom.args[0]._field()) if kernel else {atom or s}
    return out


def is_zero(e: Expr, trials: int = 20, seed: int = 0, deny: Sequence[Expr] = ()) -> ZeroVerdict:
    """Zero iff the normal form is the rational constant 0.  Otherwise
    sample random rational points, skipping singular ones and points where a
    ``deny`` expression nearly vanishes; each sample is ``_value``, with the
    opaque applications as unknowns drawn with the symbols.  A value without
    atoms is exact: the first point where its numerator is nonzero is a
    witness.  A value with atoms is a witness above 1e-9 in magnitude, and
    if every sample vanishes the result is Unknown (a possible identity
    outside the rewrite set, such as sin^2 + cos^2 = 1)."""
    if trials < 1:
        raise ExprError("trials must be >= 1")
    if e.is_rational_zero:
        return ZERO_VERDICT
    f = e._field()
    exact = not any(atom for _, _, atom in _generators(f))
    # a smooth function and its formal derivatives are jointly unconstrained
    # at a point; the opaque atoms, those inside opaque arguments included,
    # are named atom0, atom1, ... in the order of their trees
    opaque = sorted(set(_opaque_applications(e)), key=lambda a: sp.default_sort_key(a.tree))
    names = {atom: f"atom{k}" for k, atom in enumerate(opaque)}
    # the deny expressions are evaluated at the same point, so it binds their
    # symbols too
    unknowns = _unknowns(f).union(*(d.free_symbols for d in deny))
    unknowns = sorted(unknowns, key=lambda x: names[x] if isinstance(x, _Atom) else x.name)
    rng = random.Random(seed)
    done = attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 10 * trials:
            raise SingularDomainError(f"no nonsingular sample point found in {attempts - 1} attempts")
        # one draw binds the symbols and the opaque atoms alike
        draw = {x: _sample_fraction(rng) for x in unknowns}
        try:
            if any(abs(_finite(_value(d._field(), draw, draw))) <= 1e-3 for d in deny):
                continue
            value = _value(f, draw, draw)
            number = _finite(value)
        except SingularPointError:
            continue
        if value != 0 if exact else abs(number) > 1e-9:
            witness = {f"_{names[x]}" if isinstance(x, _Atom) else x.name: v for x, v in draw.items()}
            return ZeroVerdict("nonzero", witness=witness, value=number)
        done += 1
    return ZeroVerdict("unknown")


class Residual(NamedTuple):
    """One member of a ``CheckResult``."""

    key: Hashable
    expr: Expr
    verdict: ZeroVerdict


@dataclass(frozen=True)
class CheckResult:
    """Residuals keyed by the caller, each with its zero-test verdict, and
    the one rule that folds them into one verdict: Zero when every member is
    Zero (so an empty set is Zero), otherwise the first NonZero member's,
    otherwise Unknown."""

    residuals: dict
    verdicts: dict

    @classmethod
    def test(
        cls, residuals: Mapping, trials: int = 20, seed: int = 0, deny: Sequence[Expr] = ()
    ) -> "CheckResult":
        """One ``is_zero`` per residual, in the mapping's order."""
        residuals = dict(residuals)
        verdicts = {key: is_zero(r, trials=trials, seed=seed, deny=deny) for key, r in residuals.items()}
        return cls(residuals, verdicts)

    @property
    def witnesses(self) -> list[Residual]:
        """The members that are not Zero, in order."""
        return [Residual(k, self.residuals[k], v) for k, v in self.verdicts.items() if not v.is_zero]

    @property
    def failure(self) -> Residual | None:
        """The member whose verdict is the fold; None when the set holds."""
        witnesses = self.witnesses
        return next((w for w in witnesses if w.verdict.is_nonzero), witnesses[0] if witnesses else None)

    @property
    def verdict(self) -> ZeroVerdict:
        failure = self.failure
        return ZERO_VERDICT if failure is None else failure.verdict

    @property
    def holds(self) -> bool:
        return all(v.is_zero for v in self.verdicts.values())


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
