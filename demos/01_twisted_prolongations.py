"""Walkthrough: jointly twisted prolongations and order reduction.

Two translation fields d/du and d/dv are not symmetries of the coupled system

    u'' = u' v' (1 + e^-u),     v'' = u' v' (1 - e^-v)

but they become symmetries after prolonging them *jointly*, coupling the two
fields through the twist matrix sigma = [[0, v_1], [u_1, 0]].  The twisted
prolongations still admit invariants-by-differentiation, so the system drops
to first order in the invariant coordinates.
"""

from jetsigma import gallery
from jetsigma.invariants import generate_invariants
from jetsigma.jets import lie_bracket
from jetsigma.prolong import check_prolongation_commutation, sigma_prolong
from jetsigma.reduction import reduce_system, solve_for_highest, verify_sigma_symmetry

case = gallery.exp_coupled_pair()

print("base fields:")
for X in case.fields:
    print("  ", X)
print("twist matrix:", case.sigma)

Ys = sigma_prolong(case.fields, case.sigma, 2)
print("\ntwisted prolongations to the second jet bundle:")
for Y in Ys:
    print("  ", Y)

print("\nthe twisted pair commutes:", lie_bracket(Ys[0], Ys[1]).is_zero_field())
print(
    "commutation identity [Y, D_x] = sigma.Y - (...)D_x holds:",
    check_prolongation_commutation(Ys, case.sigma).holds,
)

rep = verify_sigma_symmetry(case.fields, case.sigma, case.system)
print("system invariant under the twisted pair:", rep.holds)

table = generate_invariants(Ys, case.eta, case.seeds, 2)
print("\ninvariant table (seeds e^-u v_1 and e^-v u_1, then one derivative):")
print(table)

reduced, report = reduce_system(case.system, table, case.change)
solved = solve_for_highest(reduced, targets=report.targets)
print("\nreduced first-order system (common exponential factors stripped):")
for coord, rhs in solved.solved.items():
    print(f"   d{coord}/dx".replace("_1", ""), "=", rhs)
print("stripped factors:", [str(s) for s in report.stripped])
