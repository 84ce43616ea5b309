"""Independent numeric machinery: fixed-step RK4 integration of solved systems,
evaluation of invariants along trajectories, and jet-point sampling.

A trajectory keeps the grid times and state rows of its RK4 run as Python
floats; its numpy arrays (``ts``, ``samples``) are built on first read, so a
caller that reads only the ``end`` point, as the command line does, never
loads numpy."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

import sympy as sp
from sympy.printing.pycode import PythonCodePrinter

from .exprs import (
    _KERNELS,
    Expr,
    ExprError,
    SingularPointError,
    _is_opaque,
    _sample_fraction,
    eval_numeric,
    print_expr,
)
from .jets import JetContext

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Trajectory",
    "NonFiniteError",
    "GridMismatchError",
    "integrate",
    "invariant_along_trajectory",
    "sample_jet_point",
]


class NonFiniteError(ExprError):
    """Integration produced a non-finite state."""


class GridMismatchError(ExprError):
    """Two trajectories do not share the same sample grid."""


@dataclass
class Trajectory:
    """One RK4 run: the grid times and, per time, the row of state values in
    the order of ``names``, as the integration loop appended them.  The
    arrays ``ts`` and ``samples`` (coordinate name -> values on the grid) are
    built from them on first read; ``end`` reads the last row without them."""

    ctx: JetContext
    names: tuple[str, ...]
    times: list[float] = field(repr=False)
    rows: list[Sequence[float]] = field(repr=False)
    h: float

    @functools.cached_property
    def ts(self) -> np.ndarray:
        import numpy as np

        return np.array(self.times)

    @functools.cached_property
    def samples(self) -> dict[str, np.ndarray]:
        import numpy as np

        arr = np.array(self.rows)
        return {n: arr[:, i].copy() for i, n in enumerate(self.names)}

    @property
    def end(self) -> tuple[float, dict[str, float]]:
        """The last grid time and the state there, by coordinate name."""
        return self.times[-1], dict(zip(self.names, self.rows[-1]))

    def same_grid(self, other: "Trajectory") -> bool:
        import numpy as np

        return len(self.ts) == len(other.ts) and bool(np.allclose(self.ts, other.ts, atol=1e-12))


def _state_layout(sys) -> list[tuple[str, int]]:
    """Per-dependent chain lengths from the solved form: the state holds
    u^a_k for k below the order of a's solved coordinate."""
    layout: list[tuple[str, int]] = []
    orders = sys.solved_orders()
    for dep in sys.ctx.dependents:
        if dep not in orders:
            raise ExprError(f"no solved equation for dependent '{dep}'")
        layout.extend((dep, k) for k in range(orders[dep]))
    return layout


# the settings lambdify(..., modules="math") gives its PythonCodePrinter
_MATH_SETTINGS = {
    "fully_qualified_modules": False,
    "inline": True,
    "allow_unknown_functions": True,
    "user_functions": {},
}


class _KernelPrinter(PythonCodePrinter):
    """lambdify's math printer, except that each distinct kernel call prints
    as a local bound once to that call (``calls``: call text -> local)."""

    def __init__(self):
        super().__init__(_MATH_SETTINGS)
        self.calls: dict[str, str] = {}


def _hoisting(kernel: str):
    inherited = getattr(PythonCodePrinter, f"_print_{kernel}")

    def method(self, expr):
        return self.calls.setdefault(inherited(self, expr), f"_k{len(self.calls)}")

    return method


for _kernel in _KERNELS.values():
    setattr(_KernelPrinter, f"_print_{_kernel.__name__}", _hoisting(_kernel.__name__))

_MATH = {k: v for k, v in vars(math).items() if not k.startswith("_")}


def _function(lines: list[str], name: str, namespace: dict):
    """The function ``name`` defined by the source ``lines`` over a copy of
    ``namespace``."""
    namespace = dict(namespace)
    exec(compile("\n".join(lines), f"<oracle {name}>", "exec"), namespace)
    return namespace[name]


def _unbound(args: tuple[sp.Symbol, ...], trees: tuple[sp.Expr, ...]) -> list[str]:
    """What a tree needs beyond the arguments: its other symbols, and its
    opaque applications, which have no numeric value."""
    symbols = set().union(*(t.free_symbols for t in trees)) - set(args)
    opaque = {f for t in trees for f in t.atoms(sp.Function) if _is_opaque(f)}
    return sorted(map(print_expr, symbols | opaque))


# Enough for every right side and invariant of a bundled session or
# cross-check to stay compiled at once.
_COMPILED_MAX = 256


@functools.lru_cache(maxsize=_COMPILED_MAX)
def _compile(args: tuple[sp.Symbol, ...], trees: tuple[sp.Expr, ...]):
    """``_rhs(*args)``, the tuple of the trees' values, compiled once per
    (arguments, trees) key: the key is all that the printed code depends on.
    Every node prints as lambdify prints it, except that each distinct kernel
    call is computed once, first; the rounding is lambdify's."""
    unbound = _unbound(args, trees)
    if unbound:
        raise ExprError(f"no numeric value for {', '.join(unbound)}")
    printer = _KernelPrinter()
    params = ", ".join(map(printer.doprint, args))
    values = [printer.doprint(t) for t in trees]
    return _function(
        [
            f"def _rhs({params}):",
            *(f"    {local} = {call}" for call, local in printer.calls.items()),
            f"    return ({', '.join(values)},)",
        ],
        "_rhs",
        _MATH,
    )


@functools.cache  # one loop per state size
def _rk4(n: int):
    """``_run(rhs, t, h, steps, y0, ..., ts, history)``: ``steps`` classical
    RK4 steps of ``rhs(t, y0, ...)`` from t, the n state components held in
    locals, appending each new time to ``ts`` and state tuple to
    ``history``.  A stage that raises in ``rhs`` is a SingularPointError at
    the stage time."""

    def row(template: str) -> str:
        return "".join(template.format(i=i) + ", " for i in range(n))

    return _function(
        [
            f"def _run(rhs, t, h, steps, {row('y{i}')}ts, history):",
            "    h2 = h / 2",
            "    h6 = h / 6",
            "    for _ in range(steps):",
            "        s = t",
            "        try:",
            f"            {row('a{i}')}= rhs(t, {row('y{i}')})",
            "            s = t + h2",
            f"            {row('b{i}')}= rhs(s, {row('y{i} + h2 * a{i}')})",
            f"            {row('c{i}')}= rhs(s, {row('y{i} + h2 * b{i}')})",
            "            s = t + h",
            f"            {row('d{i}')}= rhs(s, {row('y{i} + h * c{i}')})",
            "        except (ZeroDivisionError, ValueError, OverflowError) as exc:",
            '            raise SingularPointError(f"right side singular at t={s}: {exc}") from exc',
            *(f"        y{i} = y{i} + h6 * (a{i} + 2 * b{i} + 2 * c{i} + d{i})" for i in range(n)),
            f"        if not ({' and '.join(f'isfinite(y{i})' for i in range(n))}):",
            '            raise NonFiniteError(f"state became non-finite at t={t + h}")',
            "        t += h",
            "        ts.append(t)",
            f"        history.append(({row('y{i}')}))",
        ],
        "_run",
        {"isfinite": math.isfinite, "SingularPointError": SingularPointError, "NonFiniteError": NonFiniteError},
    )


def integrate(
    sys,
    initial: Mapping[str, float | Fraction | int],
    t_span: tuple[float, float] = (0.0, 0.5),
    h: float = 1e-3,
) -> Trajectory:
    """Classical fixed-step RK4 on the first-order reformulation of a solved
    system; local error O(h^5).  The span must be a whole number of steps."""
    if not h > 0:
        raise ExprError("step size must be positive")
    if sys.solved is None:
        raise ExprError("integration needs a solved form")
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    steps = round(span / h) if 0 < span < math.inf else 0
    if not (steps and math.isclose(steps * h, span, rel_tol=1e-9)):
        raise ExprError(f"the span from t={t0} to t={t1} is not a positive whole number of steps of {h}")
    ctx = sys.ctx
    layout = _state_layout(sys)
    coords = [ctx.coord(dep, k) for dep, k in layout]
    names = [str(c) for c in coords]
    missing = [n for n in names if n not in initial]
    if missing:
        raise ExprError(f"initial data missing for {missing}")
    orders = sys.solved_orders()
    # a component's derivative is the next coordinate of its jet ladder, or
    # the solved right side at the top of the ladder
    rhs = _compile(
        (ctx.x, *coords),
        tuple(
            sys.solved[ctx.coord(dep, k + 1)].sym if k == orders[dep] - 1 else ctx.coord(dep, k + 1)
            for dep, k in layout
        ),
    )
    y = [float(initial[n]) for n in names]
    ts, history = [t0], [y]
    _rk4(len(y))(rhs, t0, h, steps, *y, ts, history)
    return Trajectory(ctx, tuple(names), ts, history, h)


def invariant_along_trajectory(e: Expr, traj: Trajectory):
    """Evaluate an expression on each jet sample of the trajectory and return
    (values, central-difference derivative on the interior grid).  Samples
    are passed as Python floats, so a pole raises ``SingularPointError``
    instead of giving inf."""
    import numpy as np

    names = [traj.ctx.independent, *traj.names]
    fn = _compile(tuple(sp.Symbol(n) for n in names), (e.sym,))
    values = []
    try:
        for t, row in zip(traj.times, traj.rows):
            values.append(fn(t, *row)[0])
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise SingularPointError(f"invariant singular at sample {len(values)}: {exc}") from exc
    values = np.array(values)
    deriv = (values[2:] - values[:-2]) / (2 * traj.h)
    return values, deriv


# attempts before sample_jet_point gives up on the deny list
_MAX_ATTEMPTS = 400


def sample_jet_point(
    ctx: JetContext,
    seed: int = 0,
    deny: Sequence[Expr] = (),
    order: int | None = None,
    bound: int = 64,
    threshold: float = 1e-3,
) -> dict[str, Fraction]:
    """Random rational jet point, each coordinate drawn as the zero test
    draws its samples, with every deny-list expression bounded away from
    zero (magnitude above the threshold, default 1e-3)."""
    rng = random.Random(seed)
    n = ctx.max_order if order is None else order
    names = [ctx.independent] + [str(ctx.coord(a, k)) for a in range(ctx.p) for k in range(n + 1)]
    for _ in range(_MAX_ATTEMPTS):
        pt = {name: _sample_fraction(rng, bound) for name in names}
        try:
            if all(abs(eval_numeric(d, pt)) > threshold for d in deny):
                return pt
        except SingularPointError:
            continue
    raise ExprError(f"no admissible jet point found in {_MAX_ATTEMPTS} attempts")
