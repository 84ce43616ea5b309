"""Line-oriented session files: declarations, fields, twist matrices, systems,
seed invariants, transformation matrices, coordinate changes, and ansatz data
in one text format that commands can load and re-emit."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .determining import Ansatz
from .exprs import Expr, ExprError, SymbolTable, parse, print_expr
from .jets import JetContext, VectorField, VectorFieldSet
from .linalg import ExprMatrix
from .prolong import SigmaMatrix, sigma_prolong, standard_prolong
from .reduction import CoordinateChange, ODESystem, solve_for_highest

__all__ = ["Session", "SessionError", "MissingSessionDataError", "load_session", "loads_session", "dump_reduced_session"]


class SessionError(ExprError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


class MissingSessionDataError(ExprError):
    def __init__(self, what: str):
        super().__init__(f"the session lacks required data: {what}")
        self.what = what


@dataclass
class OracleSpec:
    initial: dict[str, Fraction]
    t1: Fraction
    step: Fraction


@dataclass
class Session:
    ctx: JetContext
    name: str = ""  # the file's stem, for a loaded session
    field_names: list[str] = field(default_factory=list)
    fields: VectorFieldSet | None = None
    sigma: SigmaMatrix | None = None
    system: ODESystem | None = None
    eta: Expr | None = None
    seeds: list[Expr] = field(default_factory=list)
    extra_base: list[Expr] = field(default_factory=list)
    matrices: dict[str, ExprMatrix] = field(default_factory=dict)
    conventions: dict[str, str] = field(default_factory=dict)
    change: CoordinateChange | None = None
    ansatz: Ansatz | None = None
    oracle: OracleSpec | None = None
    deny: list[Expr] = field(default_factory=list)
    _prolonged: dict[int, VectorFieldSet] = field(default_factory=dict, init=False, repr=False, compare=False)
    _solved: ODESystem | None = field(default=None, init=False, repr=False, compare=False)

    def require(self, what: str):
        value = getattr(self, what if what != "coordinate_change" else "change")
        if value is None or (isinstance(value, (list, dict)) and not value):
            raise MissingSessionDataError(what)
        return value

    def prolonged(self, order: int) -> VectorFieldSet:
        """The fields prolonged to `order`, built once per order.  They are
        twisted-prolonged with the session twist, except in equivalence-style
        sessions (a transformation matrix A present): those hold
        standard-prolongation generators, whose twist describes the
        transformed set instead."""
        if order not in self._prolonged:
            fields = self.require("fields")
            if self.sigma is not None and "A" not in self.matrices:
                self._prolonged[order] = sigma_prolong(fields, self.sigma, order)
            else:
                self._prolonged[order] = VectorFieldSet([standard_prolong(X, order) for X in fields])
        return self._prolonged[order]

    def solved_system(self) -> ODESystem:
        """The system solved for its highest derivatives, solved once."""
        if self._solved is None:
            self._solved = solve_for_highest(self.require("system"))
        return self._solved


# keyword: (keys read once, as a regex; keys that may repeat; takes a name;
# may repeat).  A section with no keys lists bare words.  A named section
# appears once per name.
_SECTIONS = {
    "context": ("independent|dependent|order", (), False, False),
    "params": (None, (), False, False),
    "functions": (None, (), False, False),
    "field": ("xi|phi", (), True, False),
    "sigma": (None, ("row",), False, False),
    "equation": ("order", ("implicit", "solved"), False, False),
    "invariant": ("order|expr|eta", (), False, True),
    "matrix": ("convention", ("row",), True, False),
    "change": (r"inverse\s+\S+|\S+", ("retained",), False, False),
    "ansatz": (r"phi[1-9]\d*|sigma|xi_zero", (), False, False),
    "oracle": ("initial|t1|step", (), False, False),
    "deny": (None, ("expr",), False, True),
}
_WORDS = ("params", "functions")


def _once(seen: set, what: str, lineno: int) -> None:
    """Record ``what``; recording it a second time is an error."""
    if what in seen:
        raise SessionError(f"repeated {what}", lineno)
    seen.add(what)


def _sections(text: str, seen: set):
    """Yield (keyword, name, header line, [(lineno, key, value), ...]) for
    each section, checked against _SECTIONS.  Each own-line entry and each
    header-line token is split into key and value at its first '=', both
    stripped; the value of a bare word is None."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise SessionError("unterminated section header", lineno)
            if current is not None:
                yield current
            keyword, _, name = line[1:end].strip().partition(" ")
            name = name.strip() or None
            if keyword not in _SECTIONS:
                raise SessionError(f"unknown section [{keyword}]", lineno)
            once, many, named, repeats = _SECTIONS[keyword]
            if named != (name is not None):
                raise SessionError(f"a [{keyword}] section {'needs a' if named else 'takes no'} name", lineno)
            if not repeats:
                _once(seen, f"[{keyword}{' ' + name if named else ''}] section", lineno)
            current, keys = (keyword, name, lineno, []), set()
            tokens = line[end + 1 :].split()
        elif current is None:
            raise SessionError("content before the first section header", lineno)
        else:
            tokens = [line]
        for token in tokens:
            key, eq, value = token.partition("=")
            key, value = " ".join(key.split()), value.strip()
            if (keyword in _WORDS) == bool(eq):
                raise SessionError(f"expected {'names' if keyword in _WORDS else 'key=value'}, got {token!r}", lineno)
            if keyword not in _WORDS and key not in many:
                if once is None or not re.fullmatch(once, key):
                    raise SessionError(f"unknown [{keyword}] entry {key!r}", lineno)
                _once(keys, f"{key}= entry", lineno)
            current[3].append((lineno, key, value if eq else None))
    if current is not None:
        yield current


def _at(lineno: int, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a library error reported at ``lineno``."""
    try:
        return build(*args, **kwargs)
    except SessionError:
        raise
    except ExprError as exc:
        raise SessionError(str(exc), lineno) from None


def _split_top_commas(text: str, lineno: int) -> list[str]:
    """The comma-separated cells of ``text`` outside parentheses, stripped;
    an empty cell is an error at ``lineno``."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    if "" in parts:
        raise SessionError(f"empty cell in {text!r} (a doubled or trailing comma?)", lineno)
    return parts


def _pair(text: str, lineno: int) -> tuple[str, str]:
    """The coordinate and value of a ``coordinate:value`` cell."""
    coord, colon, value = (part.strip() for part in text.partition(":"))
    if not colon:
        raise SessionError(f"expected coordinate:value, got {text!r}", lineno)
    return coord, value


def _int(text: str, lineno: int, what: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise SessionError(f"bad {what} {text!r}", lineno) from None
    if value < low:
        raise SessionError(f"{what} must be >= {low}, got {value}", lineno)
    return value


def _fraction(text: str, lineno: int, positive: bool = False) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SessionError(f"bad rational literal {text!r}: {exc}", lineno) from None
    if positive and value <= 0:
        raise SessionError(f"expected a positive value, got {text!r}", lineno)
    return value


def _choose(text: str, lineno: int, key: str, choices: tuple[str, ...]) -> str:
    if text not in choices:
        raise SessionError(f"{key} must be {' or '.join(choices)}, got {text!r}", lineno)
    return text


def loads_session(text: str) -> Session:
    seen: set[str] = set()
    sections = list(_sections(text, seen))
    if not sections or sections[0][0] != "context":
        raise SessionError("the first section must be [context]", sections[0][2] if sections else 1)

    # pass 1: the context, with the parameter and function declarations
    context_line = sections[0][2]
    context = {k: (v, n) for n, k, v in sections[0][3]}
    words = {kw: [(w, n) for n, k, _ in entries for w in k.split()] for kw, _, _, entries in sections if kw in _WORDS}
    params = words.get("params", [])
    if "dependent" not in context:
        raise SessionError("the [context] section must declare dependent variables", context_line)
    independent = context.get("independent", ("x", context_line))
    dependents = _split_top_commas(*context["dependent"])
    declared = [independent, *((d, context["dependent"][1]) for d in dependents), *params]
    functions = {}
    for word, lineno in words.get("functions", []):
        fname, slash, arity = word.partition("/")
        if not slash:
            raise SessionError(f"expected name/arity, got {word!r}", lineno)
        functions[fname] = _int(arity, lineno, "arity", 1)
        declared.append((fname, lineno))
    for name, lineno in declared:
        _once(seen, f"declaration of {name!r}", lineno)
    order = _int(*context.get("order", ("2", context_line)), "order", 0)
    parameters = [w for w, _ in params]
    ctx = _at(context_line, JetContext, independent[0], dependents, order, parameters=parameters, functions=functions)

    def parse_at(text_: str, lineno: int) -> Expr:
        return _at(lineno, ctx.parse, text_)

    def parse_cells(text_: str, lineno: int) -> list[Expr]:
        return [parse_at(cell, lineno) for cell in _split_top_commas(text_, lineno)]

    session = Session(ctx)
    fields: list[VectorField] = []
    sigma_line = None
    for keyword, name, head, entries in sections:
        one = {k: (v, n) for n, k, v in entries}
        rows = [parse_cells(v, n) for n, k, v in entries if k == "row"]
        if keyword == "field":
            phis = parse_cells(*one["phi"]) if "phi" in one else []
            if len(phis) != ctx.p:
                raise SessionError(f"field '{name}' needs phi with {ctx.p} component(s)", head)
            session.field_names.append(name)
            fields.append(VectorField.on_base(ctx, parse_at(*one.get("xi", ("0", head))), phis))
        elif keyword == "sigma":
            session.sigma, sigma_line = _at(head, SigmaMatrix, ctx, rows), head
        elif keyword == "equation":
            implicit = [parse_at(v, n) for n, k, v in entries if k == "implicit"]
            solved = {}
            for n, k, v in entries:
                if k == "solved":
                    coord, rhs = _pair(v, n)
                    coord = _at(n, ctx.table.lookup, coord)
                    _once(seen, f"solved= coordinate {coord}", n)
                    solved[coord] = parse_at(rhs, n)
            system_order = _int(*one["order"], "order", 1) if "order" in one else order
            equations = implicit or [Expr(c) - e for c, e in solved.items()]
            session.system = _at(head, ODESystem, ctx, system_order, equations, solved or None)
        elif keyword == "invariant":
            if ("expr" in one) == ("eta" in one):
                raise SessionError("an [invariant] section needs one of expr= and eta=", head)
            if "eta" in one:
                _once(seen, "eta= entry", one["eta"][1])
                session.eta = parse_at(*one["eta"])
            else:
                tag = _choose(*one.get("order", ("1", head)), "order", ("0", "1"))
                (session.extra_base if tag == "0" else session.seeds).append(parse_at(*one["expr"]))
        elif keyword == "matrix":
            if "convention" in one:
                value, n = one["convention"]
                if name != "A":
                    raise SessionError("convention= applies to [matrix A] only", n)
                session.conventions[name] = _choose(value, n, "convention", ("inverse_dx", "dx_inverse"))
            session.matrices[name] = _at(head, ExprMatrix, rows)
        elif keyword == "change":
            new = {k: parse_at(v, n) for n, k, v in entries if k != "retained" and " " not in k}
            if not new:
                raise SessionError("the [change] section declares no new coordinates", head)
            merged = _at(
                head,
                SymbolTable,
                ctx.independent,
                (*ctx.dependents, *[c for c in new if c not in ctx.dependents]),
                ctx.table.parameters,
                ctx.table.functions,
            )
            inverse = {k.split()[1]: _at(n, parse, v, merged) for n, k, v in entries if " " in k}
            retained = [c for n, k, v in entries if k == "retained" for c in _split_top_commas(v, n)]
            session.change = _at(head, CoordinateChange, ctx, new, inverse, retained=retained)
        elif keyword == "ansatz":
            templates = [f"phi{i}" for i in range(1, len(one.keys() - {"sigma", "xi_zero"}) + 1)]
            if not templates or "sigma" not in one or not one.keys() >= set(templates):
                raise SessionError("an ansatz needs a sigma template and templates phi1, phi2, ... without a gap", head)
            if "xi_zero" in one:
                # ansatz fields are vertical; the entry may only say so
                _choose(one["xi_zero"][0].lower(), one["xi_zero"][1], "xi_zero", ("true",))
            value, n = one["sigma"]
            sigma = _at(n, SigmaMatrix, ctx, [parse_cells(row, n) for row in value.split(";")])
            session.ansatz = _at(head, Ansatz, ctx, [parse_cells(*one[t]) for t in templates], sigma)
        elif keyword == "oracle":
            initial = {}
            if "initial" in one:
                value, n = one["initial"]
                for cell in _split_top_commas(value, n):
                    coord, number = _pair(cell, n)
                    _once(seen, f"initial= coordinate {coord}", n)
                    initial[coord] = _fraction(number, n)
            t1 = _fraction(*one.get("t1", ("1/2", head)), positive=True)
            step = _fraction(*one.get("step", ("1/1000", head)), positive=True)
            if (t1 / step).denominator != 1:
                line = one.get("step", one.get("t1", ("", head)))[1]
                raise SessionError(f"t1={t1} is not a whole number of steps of {step}", line)
            session.oracle = OracleSpec(initial, t1, step)
        elif keyword == "deny":
            session.deny += [parse_at(v, n) for n, _, v in entries]

    if session.eta is None:
        session.eta = Expr(ctx.x)
    if fields:
        session.fields = VectorFieldSet(fields)
        if session.sigma is not None and session.sigma.r != len(fields):
            r = session.sigma.r
            raise SessionError(f"twist matrix is {r}x{r} but there are {len(fields)} fields", sigma_line)
    return session


def load_session(path: str) -> Session:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SessionError(f"cannot read session file: {exc}")
    if not text.strip():
        raise SessionError("empty session file", 1)
    session = loads_session(text)
    session.name = os.path.splitext(os.path.basename(path))[0]
    return session


def dump_reduced_session(reduced: ODESystem, solved_targets: Mapping | None = None) -> str:
    """Serialize a reduced system so it can be loaded as a fresh session."""
    ctx = reduced.ctx
    lines = [
        "[context]",
        f"independent={ctx.independent}",
        "dependent=" + ",".join(ctx.dependents),
        f"order={reduced.order}",
    ]
    if ctx.table.parameters:
        lines.append("[params]")
        lines.append(" ".join(ctx.table.parameters))
    if ctx.table.functions:
        lines.append("[functions]")
        lines.append(" ".join(f"{n}/{a}" for n, a in ctx.table.functions.items()))
    lines.append("[equation]")
    lines.append(f"order={reduced.order}")
    for e in reduced.equations:
        lines.append(f"implicit={print_expr(e)}")
    if solved_targets:
        for coord, rhs in solved_targets.items():
            lines.append(f"solved={coord}:{print_expr(rhs)}")
    return "\n".join(lines) + "\n"
