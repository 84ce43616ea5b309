"""Independent numeric machinery: fixed-step RK4 integration of solved systems,
evaluation of invariants along trajectories, and jet-point sampling."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

import sympy as sp

from .exprs import Expr, ExprError, SingularPointError, eval_numeric
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
    ctx: JetContext
    ts: np.ndarray
    samples: dict[str, np.ndarray]  # coordinate name -> values on the grid
    h: float

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


# Enough for every right side and invariant of a bundled session or
# cross-check to stay compiled at once.
_COMPILED_MAX = 256


@functools.lru_cache(maxsize=_COMPILED_MAX)
def _compile(args: tuple[sp.Symbol, ...], trees: tuple[sp.Expr, ...]):
    """One math-module function of the arguments returning the list of the
    trees' values, compiled once per (arguments, trees) key: the key is all
    that the printed code depends on."""
    return sp.lambdify(args, list(trees), modules="math")


def integrate(
    sys,
    initial: Mapping[str, float | Fraction | int],
    t_span: tuple[float, float] = (0.0, 0.5),
    h: float = 1e-3,
) -> Trajectory:
    """Classical fixed-step RK4 on the first-order reformulation of a solved
    system; local error O(h^5)."""
    import numpy as np

    if h <= 0:
        raise ExprError("step size must be positive")
    if sys.solved is None:
        raise ExprError("integration needs a solved form")
    ctx = sys.ctx
    layout = _state_layout(sys)
    names = [str(ctx.coord(dep, k)) for dep, k in layout]
    missing = [n for n in names if n not in initial]
    if missing:
        raise ExprError(f"initial data missing for {missing}")
    orders = sys.solved_orders()
    # chain[i] is the state index whose value is component i's derivative
    # within the jet ladder, or None where the solved right side gives it
    chain: list[int | None] = []
    tops = []
    for dep, k in layout:
        if k < orders[dep] - 1:
            chain.append(names.index(str(ctx.coord(dep, k + 1))))
        else:
            chain.append(None)
            tops.append(sys.solved[ctx.coord(dep, orders[dep])].sym)
    fn = _compile((ctx.x, *(sp.Symbol(n) for n in names)), tuple(tops))

    def deriv(t: float, y: list[float]) -> list[float]:
        try:
            top = iter(fn(t, *y))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise SingularPointError(f"right side singular at t={t}: {exc}") from exc
        return [next(top) if i is None else y[i] for i in chain]

    t0, t1 = float(t_span[0]), float(t_span[1])
    steps = int(round((t1 - t0) / h))
    ts = [t0]
    y = [float(initial[n]) for n in names]
    history = [list(y)]
    t = t0
    for _ in range(steps):
        k1 = deriv(t, y)
        k2 = deriv(t + h / 2, [yi + h / 2 * ki for yi, ki in zip(y, k1)])
        k3 = deriv(t + h / 2, [yi + h / 2 * ki for yi, ki in zip(y, k2)])
        k4 = deriv(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
        y = [
            yi + h / 6 * (a + 2 * b + 2 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        ]
        if not all(math.isfinite(v) for v in y):
            raise NonFiniteError(f"state became non-finite at t={t + h}")
        t += h
        ts.append(t)
        history.append(list(y))
    arr = np.array(history)
    samples = {n: arr[:, i].copy() for i, n in enumerate(names)}
    return Trajectory(ctx, np.array(ts), samples, h)


def invariant_along_trajectory(e: Expr, traj: Trajectory):
    """Evaluate an expression on each jet sample of the trajectory and return
    (values, central-difference derivative on the interior grid).  Samples
    are passed as Python floats, so a pole raises ``SingularPointError``
    instead of giving inf."""
    import numpy as np

    ctx = traj.ctx
    names = [ctx.independent, *traj.samples.keys()]
    free = {s.name for s in e.free_symbols}
    unknown = free - set(names)
    if unknown:
        raise ExprError(f"expression needs coordinates not on the trajectory: {sorted(unknown)}")
    fn = _compile(tuple(sp.Symbol(n) for n in names), (e.sym,))
    rows = zip(traj.ts.tolist(), *(c.tolist() for c in traj.samples.values()))
    values = np.empty(len(traj.ts))
    for i, row in enumerate(rows):
        try:
            values[i] = fn(*row)[0]
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise SingularPointError(f"invariant singular at sample {i}: {exc}") from exc
    deriv = (values[2:] - values[:-2]) / (2 * traj.h)
    return values, deriv


def sample_jet_point(
    ctx: JetContext,
    seed: int = 0,
    deny: Sequence[Expr] = (),
    order: int | None = None,
    max_attempts: int = 400,
    bound: int = 64,
    threshold: float = 1e-3,
) -> dict[str, Fraction]:
    """Random rational jet point with every deny-list expression bounded away
    from zero (magnitude above the threshold, default 1e-3)."""
    rng = random.Random(seed)
    n = ctx.max_order if order is None else order
    names = [ctx.independent] + [str(ctx.coord(a, k)) for a in range(ctx.p) for k in range(n + 1)]
    for _ in range(max_attempts):
        pt = {
            name: Fraction(
                (-1 if rng.random() < 0.5 else 1) * rng.randint(1, bound), rng.randint(1, bound)
            )
            for name in names
        }
        try:
            if all(abs(eval_numeric(d, pt)) > threshold for d in deny):
                return pt
        except (SingularPointError, ExprError):
            continue
    raise ExprError(f"no admissible jet point found in {max_attempts} attempts")
