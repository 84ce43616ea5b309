import math
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from jetsigma import gallery, oracle
from jetsigma.exprs import Expr, ExprError, SingularPointError, eval_numeric
from jetsigma.jets import JetContext
from jetsigma.oracle import (
    GridMismatchError,
    integrate,
    invariant_along_trajectory,
    sample_jet_point,
)
from jetsigma.reduction import ODESystem, reconstruction_check, solve_for_highest

# A numpy warning (an inf or nan produced on the way) fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_free_particle():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2")], solved={"u_2": P("0")})
    traj = integrate(sys, {"u": 0, "u_1": 1}, (0.0, 1.0), 1e-3)
    assert traj.samples["u"][-1] == pytest.approx(1.0, abs=1e-9)


def test_exponential_growth():
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1 - u")], solved={"u_1": P("u")})
    traj = integrate(sys, {"u": 1}, (0.0, 1.0), 1e-3)
    assert traj.samples["u"][-1] == pytest.approx(math.e, abs=1e-6)


def test_self_convergence_ratio():
    """Halving the step shrinks the endpoint error by roughly 2^4."""
    from jetsigma import gallery

    case = gallery.exp_coupled_pair()
    initial = {"u": 0, "v": 0, "u_1": 1, "v_1": 1}
    coarse = integrate(case.system, initial, (0.0, 0.5), 2e-3)
    fine = integrate(case.system, initial, (0.0, 0.5), 1e-3)
    finest = integrate(case.system, initial, (0.0, 0.5), 5e-4)
    err_coarse = max(
        abs(coarse.samples[n][-1] - finest.samples[n][-1]) for n in coarse.samples
    )
    err_fine = max(
        abs(fine.samples[n][-1] - finest.samples[n][-1]) for n in fine.samples
    )
    # compare against the Richardson limit: e(2h)/e(h) ~ (16 E - E)/(E ... )
    # with the finest run as reference the observed ratio is (16+ eps)-ish
    ratio = err_coarse / err_fine
    assert 12 <= ratio <= 20


def test_invariant_along_trajectory_constant():
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1")], solved={"u_1": P("0")})
    traj = integrate(sys, {"u": 2}, (0.0, 0.3), 1e-3)
    vals, deriv = invariant_along_trajectory(P("u^2 + 3"), traj)
    assert np.allclose(vals, 7.0)
    assert np.max(np.abs(deriv)) < 1e-9


def test_sample_jet_point_determinism():
    ctx = JetContext("x", ["u", "v"], 2)
    assert sample_jet_point(ctx, seed=3) == sample_jet_point(ctx, seed=3)


def test_sample_jet_point_value_is_pinned():
    """The point drawn for a seed stays what it was when the sampler drew its
    own signed rationals instead of sharing the zero test's draw."""
    ctx = JetContext("x", ["u", "v"], 2)
    want = {"x": "-17/48", "u": "61/9", "u_1": "61/34", "u_2": "25/61", "v": "61/51", "v_1": "2/3", "v_2": "25"}
    assert sample_jet_point(ctx, seed=3) == {k: Fraction(v) for k, v in want.items()}


def test_sample_jet_point_deny():
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    pt = sample_jet_point(ctx, seed=5, deny=[P("u")])
    assert abs(pt["u"]) > Fraction(1, 1000)
    pt2 = sample_jet_point(ctx, seed=6, deny=[P("1 - u*v")])
    assert abs(eval_numeric(P("1 - u*v"), pt2)) > 1e-3


@pytest.mark.parametrize(
    "ctx, deny, order",
    [
        (JetContext("x", ["u"], 2), "u_2", 1),
        (JetContext("x", ["u"], 2, parameters=["c"]), "c*u", None),
    ],
)
def test_sample_jet_point_unbound_deny_symbol_raises(ctx, deny, order):
    """A deny expression the point does not bind is an error at once, not
    400 rejected attempts."""
    with pytest.raises(ExprError, match="unbound symbols"):
        sample_jet_point(ctx, deny=[ctx.parse(deny)], order=order)


def test_grid_mismatch():
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1")], solved={"u_1": P("0")})
    a = integrate(sys, {"u": 1}, (0.0, 0.2), 1e-3)
    b = integrate(sys, {"u": 1}, (0.0, 0.4), 1e-3)

    class FakeChange:
        new = {"u": P("u")}

    with pytest.raises(GridMismatchError):
        reconstruction_check(FakeChange(), a, b)


def test_integration_needs_initial_data():
    ctx = JetContext("x", ["u"], 2)
    P = ctx.parse
    sys = ODESystem(ctx, 2, [P("u_2")], solved={"u_2": P("0")})
    with pytest.raises(Exception):
        integrate(sys, {"u": 0}, (0.0, 1.0), 1e-3)


def test_invariant_pole_raises():
    """A pole on the trajectory raises like log(0) does, not inf."""
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1 + 1")], solved={"u_1": P("-1")})
    traj = integrate(sys, {"u": 0}, (0.0, 0.1), 1e-2)
    for text in ("1/u", "u^(-2)", "log(u)"):
        with pytest.raises(SingularPointError):
            invariant_along_trajectory(P(text), traj)


def test_stage_on_a_pole_reports_the_stage_time():
    """With h = 1e-2 the second stage of the first step lands on t = 0.005,
    the pole of 1/(x - 1/200); the error names that stage time."""
    ctx = JetContext("x", ["v"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("v_1 - 1/(x - 1/200)")], solved={"v_1": P("1/(x - 1/200)")})
    with pytest.raises(SingularPointError, match=r"^right side singular at t=0\.005: "):
        integrate(sys, {"v": 0}, (0.0, 0.1), 1e-2)


def test_state_overflow_is_non_finite():
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1 - u")], solved={"u_1": P("u")})
    with pytest.raises(oracle.NonFiniteError, match=r"^state became non-finite at t=1\.0$"):
        integrate(sys, {"u": 1e308}, (0.0, 2.0), 1.0)


@pytest.mark.parametrize(
    "solved, names",
    [
        ("a*u", "a"),
        ("F(u) + u", "F(u)"),
        ("b*F(x*u)", "F(u*x), b"),
    ],
)
def test_right_side_without_a_numeric_value_is_rejected(solved, names):
    """A parameter or an opaque application in a right side has no value
    on the trajectory: an ExprError naming it, not a NameError."""
    ctx = JetContext("x", ["u"], 1, parameters=["a", "b"], functions={"F": 1})
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P(f"u_1 - ({solved})")], solved={"u_1": P(solved)})
    with pytest.raises(ExprError, match=rf"^no numeric value for {re.escape(names)}$"):
        integrate(sys, {"u": 1}, (0.0, 0.1), 1e-2)


@pytest.mark.parametrize("invariant, names", [("F(u)", "F(u)"), ("u_1*u", "u_1"), ("a + F(u_2)", "F(u_2), a, u_2")])
def test_invariant_without_a_numeric_value_is_rejected(invariant, names):
    """Coordinates off the trajectory, parameters and opaque applications are
    named in one ExprError."""
    ctx = JetContext("x", ["u"], 2, parameters=["a"], functions={"F": 1})
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1")], solved={"u_1": P("0")})
    traj = integrate(sys, {"u": 1}, (0.0, 0.1), 1e-2)
    with pytest.raises(ExprError, match=rf"^no numeric value for {re.escape(names)}$"):
        invariant_along_trajectory(P(invariant), traj)


@pytest.mark.parametrize(
    "t_span, h",
    [((0.5, 0.0), 1e-2), ((0.0, 0.0), 1e-2), ((0.0, 0.5), 0.3), ((0.0, 0.5), 2.0), ((0.0, 0.5), float("nan"))],
)
def test_span_must_be_a_positive_whole_number_of_steps(t_span, h):
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1")], solved={"u_1": P("0")})
    with pytest.raises(ExprError, match="step"):
        integrate(sys, {"u": 1}, t_span, h)


def test_span_within_rounding_of_whole_steps_is_accepted():
    ctx = JetContext("x", ["u"], 1)
    P = ctx.parse
    sys = ODESystem(ctx, 1, [P("u_1")], solved={"u_1": P("0")})
    traj = integrate(sys, {"u": 1}, (0.0, 0.3), 0.1)  # 0.3 / 0.1 is 2.9999999999999996
    assert len(traj.ts) == 4


def _reference_integrate(sys, initial, t_span, h):
    """RK4 with one lambdify per right side, evaluated one at a time: the
    reference the compiled vector right side must match bit for bit."""
    ctx = sys.ctx
    orders = sys.solved_orders()
    layout = [(dep, k) for dep in ctx.dependents for k in range(orders[dep])]
    names = [str(ctx.coord(dep, k)) for dep, k in layout]
    args = [ctx.x, *(sp.Symbol(n) for n in names)]
    fns = []
    for dep, k in layout:
        if k < orders[dep] - 1:
            fns.append(names.index(str(ctx.coord(dep, k + 1))))
        else:
            rhs = sys.solved[ctx.coord(dep, orders[dep])]
            fns.append(sp.lambdify(args, rhs.sym, modules="math"))

    def deriv(t, y):
        return [y[fn] if isinstance(fn, int) else fn(t, *y) for fn in fns]

    t, y = float(t_span[0]), [float(initial[n]) for n in names]
    history = [list(y)]
    for _ in range(int(round((t_span[1] - t_span[0]) / h))):
        k1 = deriv(t, y)
        k2 = deriv(t + h / 2, [yi + h / 2 * ki for yi, ki in zip(y, k1)])
        k3 = deriv(t + h / 2, [yi + h / 2 * ki for yi, ki in zip(y, k2)])
        k4 = deriv(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
        y = [yi + h / 6 * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        t += h
        history.append(list(y))
    arr = np.array(history)
    return {n: arr[:, i].copy() for i, n in enumerate(names)}


def _reference_invariant(e, traj):
    names = [traj.ctx.independent, *traj.samples.keys()]
    fn = sp.lambdify([sp.Symbol(n) for n in names], e.sym, modules="math")
    cols = [traj.ts, *traj.samples.values()]
    return np.array([fn(*[c[i] for c in cols]) for i in range(len(traj.ts))])


def _kernel_mix():
    """A solved system repeating a log, sin, cos and arctan atom, with
    negative powers, and two invariants over the same atoms."""
    ctx = JetContext("x", ["u", "v"], 2)
    P = ctx.parse
    solved = {
        "u_2": "sin(u)*cos(v) + log(1 + u^2)*arctan(v_1) - sin(u)^2*(2 + cos(v))^(-2)",
        "v_2": "arctan(v_1)*cos(v) - log(1 + u^2)*(1 + u^2)^(-3) + x*sin(u)*cos(v)",
    }
    system = ODESystem(ctx, 2, [P(f"{k} - ({v})") for k, v in solved.items()], solved={k: P(v) for k, v in solved.items()})
    invariants = ["log(1 + u^2) + arctan(v_1)*sin(u)", "cos(v)^(-2)*log(1 + u^2) - u_1/sin(u)", "cos(v)^(-3)"]
    return system, [P(e) for e in invariants]


def _case(name):
    if name == "kernel_mix":
        return _kernel_mix()
    case = getattr(gallery, name)()
    return (case.system if case.system.solved is not None else solve_for_highest(case.system)), case.seeds


REFERENCE_CASES = [
    ("exp_coupled_pair", {"u": 0, "v": 0, "u_1": 1, "v_1": 1}),
    ("scaling_pair", {"u": 1, "v": 0, "u_1": Fraction(1, 2), "v_1": Fraction(1, 2)}),
    (
        "partial_rank_triple",
        {"u": 1, "v": Fraction(1, 2), "w": 1,
         "u_1": Fraction(3, 10), "v_1": Fraction(1, 5), "w_1": Fraction(1, 10)},
    ),
    ("kernel_mix", {"u": 1, "v": Fraction(1, 2), "u_1": Fraction(-1, 3), "v_1": Fraction(2, 5)}),
]


@pytest.mark.parametrize("name, initial", REFERENCE_CASES)
def test_integrate_matches_reference_bit_for_bit(name, initial):
    system, invariants = _case(name)
    traj = integrate(system, initial, (0.0, 0.2), 1e-3)
    reference = _reference_integrate(system, initial, (0.0, 0.2), 1e-3)
    assert list(traj.samples) == list(reference)
    for n, values in reference.items():
        assert traj.samples[n].tobytes() == values.tobytes(), n
    for e in invariants:
        values, _ = invariant_along_trajectory(e, traj)
        assert values.tobytes() == _reference_invariant(e, traj).tobytes(), e


@pytest.mark.parametrize("name, initial", REFERENCE_CASES)
def test_end_is_the_last_sample_bit_for_bit(name, initial):
    """``end`` reads the last grid time and state row, with no array, as the
    arrays hold them."""
    system, _ = _case(name)
    traj = integrate(system, initial, (0.0, 0.2), 1e-3)
    t, state = traj.end
    assert type(t) is float and all(type(v) is float for v in state.values())
    assert np.float64(t).tobytes() == traj.ts[-1].tobytes()
    assert list(state) == list(traj.samples)
    for n, values in traj.samples.items():
        assert np.float64(state[n]).tobytes() == values[-1].tobytes(), n


def test_each_tree_compiles_once():
    """Two integrations of one system and an invariant on each trajectory
    compile two kernels: the right side and the invariant."""
    oracle._compile.cache_clear()
    case = gallery.exp_coupled_pair()
    initial = {"u": 0, "v": 0, "u_1": 1, "v_1": 1}
    first = integrate(case.system, initial, (0.0, 0.05), 1e-2)
    second = integrate(case.system, initial, (0.0, 0.1), 1e-2)
    for traj in (first, second):
        invariant_along_trajectory(case.seeds[0], traj)
    info = oracle._compile.cache_info()
    assert (info.misses, info.hits) == (2, 2)
