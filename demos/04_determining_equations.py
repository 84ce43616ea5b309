"""Walkthrough: determining equations for twisted symmetries.

For a given system the conditions on candidate (fields, twist) pairs are
generated by flowing coefficient templates through the twisted prolongation
and restricting to the solution manifold.  With opaque twist entries the
residuals stay symbolic (formal derivatives included); with parameter-only
templates they decompose into coefficient equations, one per monomial in the
first derivatives.
"""

from jetsigma import gallery
from jetsigma.determining import Ansatz, generate_determining
from jetsigma.exprs import print_expr, substitute
from jetsigma.jets import JetContext
from jetsigma.prolong import SigmaMatrix
from jetsigma.reduction import ODESystem, verify_sigma_symmetry

ctx, system, ansatz = gallery.constant_coefficient_ansatz()
print("system:")
for F in system.equations:
    print("   ", print_expr(F), "= 0")
print("templates: constant fields (c1,c2), (k1,k2); twist [[0, A(u_1,v_1)], [B(u_1,v_1), 0]]")

result = generate_determining(system, ansatz)
print("\ndetermining residuals (vanishing on the solution manifold required):")
for (i, h), r in sorted(result.residuals.items()):
    print(f"   field {i + 1} on equation {h + 1}:")
    print("     ", print_expr(r))

print("\n-- linear twist entries reduce the problem to algebra --")
ctx2 = JetContext(
    "x", ["u", "v"], 2, parameters=["c1", "c2", "k1", "k2", "p1", "p2", "q1", "q2"]
)
P = ctx2.parse
system2 = ODESystem(
    ctx2,
    2,
    [P("u_2 - u_1*v_1*(1+exp(-u))"), P("v_2 - u_1*v_1*(1+exp(-v))")],
    solved={"u_2": P("u_1*v_1*(1+exp(-u))"), "v_2": P("u_1*v_1*(1+exp(-v))")},
)
linear = Ansatz(
    ctx2,
    phi=[[P("c1"), P("c2")], [P("k1"), P("k2")]],
    sigma=SigmaMatrix(ctx2, [[P("0"), P("p1*u_1 + p2*v_1")], [P("q1*u_1 + q2*v_1"), P("0")]]),
)
collected = generate_determining(system2, linear)
print(f"collected {len(collected.coefficient_equations)} coefficient equations; first three:")
for eq in collected.coefficient_equations[:3]:
    print("   ", print_expr(eq), "= 0")

solution = {"p1": 0, "p2": 1, "q1": 1, "q2": 0, "c1": 1, "c2": 0, "k1": 0, "k2": 1}
print(
    "\nknown solution (cross twist with unit translation fields) satisfies all of them:",
    all(substitute(eq, solution).sym == 0 for eq in collected.coefficient_equations),
)

case = gallery.exp_coupled_pair()
rep = verify_sigma_symmetry(case.fields, case.sigma, case.system)
print("concrete candidate verified against the bundled system:", rep.holds)
