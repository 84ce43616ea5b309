"""The values the gallery case studies are expected to give, keyed by case
name (``Session.name``).  Each helper parses them in the case's coordinates,
or in the invariant coordinates of its change for the reduced system."""

import sympy as sp

from jetsigma.exprs import Expr
from jetsigma.jets import VectorField, VectorFieldSet
from jetsigma.reduction import solve_for_highest

# case -> the second prolongation, one {(dependent, order): coefficient} per field
_PROLONGED = {
    "exp_coupled_pair": [
        {("u", 0): "1", ("v", 1): "v_1", ("u", 2): "u_1*v_1", ("v", 2): "v_2"},
        {("v", 0): "1", ("u", 1): "u_1", ("u", 2): "u_2", ("v", 2): "u_1*v_1"},
    ],
    "scaling_pair": [
        {("u", 0): "u", ("u", 1): "u_1", ("v", 1): "u^2", ("u", 2): "u_2 + u^2*u_1", ("v", 2): "3*u*u_1"},
        {("v", 0): "-u", ("u", 1): "-u*u_1", ("v", 1): "-u_1",
         ("u", 2): "-(u*u_2 + 2*u_1^2)", ("v", 2): "-(u_2 + u^2*u_1)"},
    ],
}

# case -> the solved reduced system, {target coordinate: right side}
_REDUCED_RHS = {
    "exp_coupled_pair": {"z1_1": "-z1*z2", "z2_1": "z1*z2"},
    "scaling_pair": {"z1_1": "z2^2", "z2_1": "z1*z2"},
    "three_component_chain": {"xi_2": "xi^3/(xi_1^2*z1*z2^2)", "z1_1": "xi^2/(xi_1^2*z2)", "z2_1": "xi/xi_1"},
    "partial_rank_triple": {"xi_2": "2*rho", "rho_1": "eta", "eta_1": "xi_1 - xi"},
}

# transposed-twist case -> its first prolongation, the generators the closure
# adjoins, the closed bracket table {(i, j): {k: coefficient}}, and Q[12]
# before and after contraction
_TWISTS = {
    "translations_transposed": {
        "first_prolongation": [{("u", 0): "1", ("v", 1): "u_1"}, {("v", 0): "1", ("u", 1): "v_1"}],
        "added": [{("u", 1): "u_1", ("v", 1): "-v_1"}, {("v", 1): "u_1"}, {("u", 1): "v_1"}],
        "table": {(0, 1): {2: "1"}, (0, 2): {3: "-2"}, (0, 4): {2: "1"}, (1, 2): {4: "2"},
                  (1, 3): {2: "-1"}, (2, 3): {3: "2"}, (2, 4): {4: "-2"}, (3, 4): {2: "1"}},
        "Q": ["u_1", "-v_1"],
        "Q_contracted": ["u_1", "-v_1"],
    },
    "scaling_transposed": {
        "first_prolongation": [
            {("u", 0): "u", ("u", 1): "u_1", ("v", 1): "-u*u_1"},
            {("v", 0): "-u", ("u", 1): "u^2", ("v", 1): "-u_1"},
        ],
        "added": [{("v", 1): "u^3"}],
        "table": {(0, 1): {1: "1", 2: "1"}, (0, 2): {2: "3"}},
        "Q": ["u", "-u^2"],
        "Q_contracted": ["u^2", "u^3"],
    },
    "translations_mixed": {
        "first_prolongation": [{("u", 0): "1", ("v", 1): "u_1"}, {("v", 0): "1", ("u", 1): "u"}],
        "added": [{("u", 1): "1", ("v", 1): "-u"}, {("v", 1): "1"}],
        "table": {(0, 1): {2: "1"}, (0, 2): {3: "-2"}},
        "Q": ["1", "-u"],
        "Q_contracted": ["1", "-u"],
    },
}


def _fields(case, order: int, rows) -> list[VectorField]:
    P = case.ctx.parse
    return [VectorField.from_coefficients(case.ctx, {k: P(v) for k, v in row.items()}, order) for row in rows]


def expected_prolonged(case) -> VectorFieldSet:
    return VectorFieldSet(_fields(case, 2, _PROLONGED[case.name]))


def reduced_rhs_mismatches(case, reduced, report) -> list[str]:
    """The coordinates whose right side, with the reduced system solved for
    ``report.targets``, differs from the expected one."""
    solved = solve_for_highest(reduced, targets=report.targets)
    P = case.change.new_ctx.parse
    expected = _REDUCED_RHS[case.name].items()
    return [name for name, rhs in expected if (solved.solved[sp.Symbol(name)] - P(rhs)).sym != 0]


def expected_first_prolongation(case) -> VectorFieldSet:
    return VectorFieldSet(_fields(case, 1, _TWISTS[case.name]["first_prolongation"]))


def expected_added(case) -> list[VectorField]:
    return _fields(case, 1, _TWISTS[case.name]["added"])


def expected_table(case) -> dict[tuple[int, int], dict[int, Expr]]:
    P = case.ctx.parse
    return {ij: {k: P(c) for k, c in row.items()} for ij, row in _TWISTS[case.name]["table"].items()}


def expected_Q(case) -> list[Expr]:
    return [case.ctx.parse(e) for e in _TWISTS[case.name]["Q"]]


def expected_Q_contracted(case) -> list[Expr]:
    return [case.ctx.parse(e) for e in _TWISTS[case.name]["Q_contracted"]]
