"""Line-oriented session files: declarations, fields, twist matrices, systems,
seed invariants, transformation matrices, coordinate changes, and ansatz data
in one text format that commands can load and re-emit."""

from __future__ import annotations

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


def _split_top_commas(text: str) -> list[str]:
    """The comma-separated cells of ``text`` outside parentheses, stripped;
    an empty cell is kept, so the caller reports it with its line."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    return parts + [text[start:].strip()]


def _sections(text: str):
    """Yield (header, name, [(lineno, line), ...]) triples."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise SessionError("unterminated section header", lineno)
            header = line[1:end].strip()
            rest = line[end + 1 :].strip()
            parts = header.split(None, 1)
            keyword = parts[0]
            name = parts[1].strip() if len(parts) > 1 else None
            if current is not None:
                yield current
            current = (keyword, name, [])
            if rest:
                for token in rest.split():
                    current[2].append((lineno, token))
        else:
            if current is None:
                raise SessionError("content before the first section header", lineno)
            current[2].append((lineno, line))
    if current is not None:
        yield current


def _parse_fraction(text: str, lineno: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SessionError(f"bad rational literal {text!r}: {exc}", lineno)


def _parse_int(text: str, lineno: int | None, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SessionError(f"bad {what} {text.strip()!r}", lineno) from None


def loads_session(text: str) -> Session:
    sections = list(_sections(text))
    if not sections or sections[0][0] != "context":
        raise SessionError("the first section must be [context]", 1)

    # pass 1: context with optional parameter/function declarations
    ctx_kv: dict[str, str] = {}
    ctx_lines: dict[str, int] = {}
    params: list[str] = []
    functions: dict[str, int] = {}
    for keyword, name, lines in sections:
        if keyword == "context":
            for lineno, line in lines:
                if "=" not in line:
                    raise SessionError(f"expected key=value, got {line!r}", lineno)
                k, v = line.split("=", 1)
                ctx_kv[k.strip()] = v.strip()
                ctx_lines[k.strip()] = lineno
        elif keyword == "params":
            for lineno, line in lines:
                params.extend(line.split())
        elif keyword == "functions":
            for lineno, line in lines:
                for token in line.split():
                    if "/" not in token:
                        raise SessionError(f"expected name/arity, got {token!r}", lineno)
                    fname, ar = token.split("/", 1)
                    if not ar.isdigit() or int(ar) < 1:
                        raise SessionError(f"bad arity in {token!r}", lineno)
                    functions[fname] = int(ar)
    order = _parse_int(ctx_kv.get("order", "2"), ctx_lines.get("order"), "order")
    if order < 0:
        raise SessionError("order must be >= 0", ctx_lines.get("order"))
    try:
        independent = ctx_kv.get("independent", "x")
        dependents = [d for d in ctx_kv.get("dependent", "").split(",") if d]
        if not dependents:
            raise SessionError("the [context] section must declare dependent variables")
        ctx = JetContext(independent, dependents, order, parameters=params, functions=functions)
    except ExprError as exc:
        raise SessionError(str(exc))

    session = Session(ctx)
    implicit: list[Expr] = []
    solved: dict[str, Expr] = {}
    system_order = order
    fields: list[VectorField] = []
    change_new: dict[str, Expr] = {}
    change_inverse: dict[str, str] = {}
    change_retained: list[str] = []
    change_lines = False
    ansatz_phi: list[list[Expr]] = []
    ansatz_sigma: list[list[Expr]] | None = None

    def parse_expr(text_: str, lineno: int) -> Expr:
        if not text_.strip():
            raise SessionError("empty expression (a doubled or trailing comma?)", lineno)
        try:
            return ctx.parse(text_)
        except ExprError as exc:
            raise SessionError(f"{exc}", lineno)

    for keyword, name, lines in sections:
        if keyword in ("context", "params", "functions"):
            continue
        if keyword == "field":
            if name is None:
                raise SessionError("a [field] section needs a name")
            xi = Expr.number(0)
            phis: list[Expr] | None = None
            for lineno, line in lines:
                if "=" not in line:
                    raise SessionError(f"expected key=value, got {line!r}", lineno)
                k, v = line.split("=", 1)
                k = k.strip()
                if k == "xi":
                    xi = parse_expr(v, lineno)
                elif k == "phi":
                    phis = [parse_expr(p, lineno) for p in _split_top_commas(v)]
                else:
                    raise SessionError(f"unknown field entry {k!r}", lineno)
            if phis is None or len(phis) != ctx.p:
                raise SessionError(
                    f"field '{name}' needs phi with {ctx.p} component(s)"
                )
            session.field_names.append(name)
            fields.append(VectorField.on_base(ctx, xi, phis))
        elif keyword == "sigma":
            rows = []
            for lineno, line in lines:
                if not line.startswith("row="):
                    raise SessionError(f"expected row=..., got {line!r}", lineno)
                rows.append([parse_expr(p, lineno) for p in _split_top_commas(line[4:])])
            if any(len(r) != len(rows) for r in rows):
                raise SessionError(f"twist matrix must be square, got rows {[len(r) for r in rows]}")
            try:
                session.sigma = SigmaMatrix(ctx, rows)
            except ExprError as exc:
                raise SessionError(str(exc))
        elif keyword == "equation":
            for lineno, line in lines:
                if line.startswith("implicit="):
                    implicit.append(parse_expr(line[len("implicit=") :], lineno))
                elif line.startswith("solved="):
                    body = line[len("solved=") :]
                    if ":" not in body:
                        raise SessionError("solved entries use coordinate:expr", lineno)
                    coord, expr_text = body.split(":", 1)
                    solved[coord.strip()] = parse_expr(expr_text, lineno)
                elif line.startswith("order="):
                    system_order = _parse_int(line[len("order=") :], lineno, "order")
                    if system_order < 1:
                        raise SessionError("system order must be >= 1", lineno)
                else:
                    raise SessionError(f"unknown equation entry {line!r}", lineno)
        elif keyword == "invariant":
            order_tag = None
            expr_val = None
            is_eta = False
            for lineno, line in lines:
                if line.startswith("order="):
                    order_tag = line[len("order=") :].strip()
                elif line.startswith("expr="):
                    expr_val = parse_expr(line[len("expr=") :], lineno)
                elif line.startswith("eta="):
                    expr_val = parse_expr(line[len("eta=") :], lineno)
                    is_eta = True
                else:
                    raise SessionError(f"unknown invariant entry {line!r}", lineno)
            if expr_val is None:
                raise SessionError("an [invariant] section needs expr=...")
            if is_eta:
                session.eta = expr_val
            elif order_tag == "0":
                session.extra_base.append(expr_val)
            else:
                session.seeds.append(expr_val)
        elif keyword == "matrix":
            if name is None:
                raise SessionError("a [matrix] section needs a name")
            rows = []
            for lineno, line in lines:
                if line.startswith("row="):
                    rows.append([parse_expr(p, lineno) for p in _split_top_commas(line[4:])])
                elif line.startswith("convention="):
                    session.conventions[name] = line[len("convention=") :].strip()
                else:
                    raise SessionError(f"unknown matrix entry {line!r}", lineno)
            if not rows:
                raise SessionError(f"matrix '{name}' has no rows")
            session.matrices[name] = ExprMatrix(rows)
        elif keyword == "change":
            change_lines = True
            for lineno, line in lines:
                if line.startswith("inverse "):
                    body = line[len("inverse ") :]
                    if "=" not in body:
                        raise SessionError("inverse entries use old=expr", lineno)
                    old, expr_text = body.split("=", 1)
                    change_inverse[old.strip()] = expr_text.strip()
                elif line.startswith("retained="):
                    change_retained.extend(
                        t for t in line[len("retained=") :].split(",") if t
                    )
                elif "=" in line:
                    nm, expr_text = line.split("=", 1)
                    change_new[nm.strip()] = parse_expr(expr_text, lineno)
                else:
                    raise SessionError(f"unknown change entry {line!r}", lineno)
        elif keyword == "ansatz":
            for lineno, line in lines:
                if line.startswith("phi") and "=" in line:
                    k, v = line.split("=", 1)
                    idx = _parse_int(k[3:], lineno, "ansatz field index")
                    if idx < 1:
                        raise SessionError(f"ansatz field indices start at 1, got {k.strip()!r}", lineno)
                    while len(ansatz_phi) < idx:
                        ansatz_phi.append([])
                    ansatz_phi[idx - 1] = [parse_expr(p, lineno) for p in _split_top_commas(v)]
                elif line.startswith("sigma="):
                    ansatz_sigma = [
                        [parse_expr(cell, lineno) for cell in _split_top_commas(row)]
                        for row in line[len("sigma=") :].split(";")
                    ]
                elif line.startswith("xi_zero="):
                    # ansatz fields are vertical; the entry may only say so
                    if line[len("xi_zero=") :].strip().lower() != "true":
                        raise SessionError("ansatz fields are vertical: only xi_zero=true is accepted", lineno)
                else:
                    raise SessionError(f"unknown ansatz entry {line!r}", lineno)
        elif keyword == "oracle":
            initial: dict[str, Fraction] = {}
            t1 = Fraction(1, 2)
            step = Fraction(1, 1000)
            for lineno, line in lines:
                if line.startswith("initial="):
                    for chunk in _split_top_commas(line[len("initial=") :]):
                        if ":" not in chunk:
                            raise SessionError("initial entries use coord:value", lineno)
                        cname, val = chunk.split(":", 1)
                        initial[cname.strip()] = _parse_fraction(val.strip(), lineno)
                elif line.startswith("t1="):
                    t1 = _parse_fraction(line[3:], lineno)
                elif line.startswith("step="):
                    step = _parse_fraction(line[5:], lineno)
                else:
                    raise SessionError(f"unknown oracle entry {line!r}", lineno)
            session.oracle = OracleSpec(initial, t1, step)
        elif keyword == "deny":
            for lineno, line in lines:
                if line.startswith("expr="):
                    session.deny.append(parse_expr(line[5:], lineno))
                else:
                    raise SessionError(f"unknown deny entry {line!r}", lineno)
        else:
            raise SessionError(f"unknown section [{keyword}]")

    if session.eta is None:
        session.eta = Expr(ctx.x)
    if fields:
        session.fields = VectorFieldSet(fields)
    if session.sigma is not None and session.fields is not None:
        if session.sigma.r != len(session.fields):
            raise SessionError(
                f"twist matrix is {session.sigma.r}x{session.sigma.r} but there are "
                f"{len(session.fields)} fields"
            )
    if implicit or solved:
        try:
            if implicit:
                session.system = ODESystem(ctx, system_order, implicit, solved or None)
            else:
                eqs = [Expr(ctx.table.lookup(c)) - e for c, e in solved.items()]
                session.system = ODESystem(ctx, system_order, eqs, solved)
        except ExprError as exc:
            raise SessionError(str(exc))
    if change_lines:
        if not change_new:
            raise SessionError("the [change] section declares no new coordinates")
        merged = SymbolTable(
            ctx.independent,
            (*ctx.dependents, *[n for n in change_new if n not in ctx.dependents]),
            ctx.table.parameters,
            ctx.table.functions,
        )
        inverse = {}
        for old, text_ in change_inverse.items():
            try:
                inverse[old] = parse(text_, merged)
            except ExprError as exc:
                raise SessionError(f"in inverse binding for {old}: {exc}")
        try:
            session.change = CoordinateChange(
                ctx, change_new, inverse, retained=change_retained
            )
        except ExprError as exc:
            raise SessionError(f"coordinate change rejected: {exc}")
    if ansatz_phi or ansatz_sigma:
        if not ansatz_phi or ansatz_sigma is None:
            raise SessionError("an ansatz needs both phi templates and a sigma template")
        try:
            session.ansatz = Ansatz(ctx, ansatz_phi, SigmaMatrix(ctx, ansatz_sigma))
        except ExprError as exc:
            raise SessionError(f"ansatz rejected: {exc}")
    return session


def load_session(path: str) -> Session:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SessionError(f"cannot read session file: {exc}")
    if not text.strip():
        raise SessionError("empty session file", 1)
    return loads_session(text)


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
