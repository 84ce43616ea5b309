"""Walkthrough: numeric cross-validation of symbolic reductions.

A fixed-step RK4 integrator provides an independent check: invariants
evaluated along a trajectory of the full system must satisfy the reduced
equations, and integrating the reduced system from matching initial
invariants must reproduce the invariant curves.
"""

import numpy as np

from jetsigma import gallery
from jetsigma.invariants import generate_invariants
from jetsigma.oracle import integrate, invariant_along_trajectory
from jetsigma.prolong import sigma_prolong
from jetsigma.reduction import reconstruction_check, reduce_system, solve_for_highest

case = gallery.exp_coupled_pair()
traj = integrate(case.system, {"u": 0, "v": 0, "u_1": 1, "v_1": 1}, (0.0, 1.0), 1e-3)
print("integrated the full system on [0, 1] with step 1e-3")
print("endpoint:", {n: round(float(v[-1]), 6) for n, v in traj.samples.items()})

z1, dz1 = invariant_along_trajectory(case.seeds[0], traj)
z2, dz2 = invariant_along_trajectory(case.seeds[1], traj)
print(
    "max |z1' + z1*z2| along the trajectory:",
    f"{np.max(np.abs(dz1 + (z1 * z2)[1:-1])):.2e}",
)
print(
    "max |z2' - z1*z2| along the trajectory:",
    f"{np.max(np.abs(dz2 - (z1 * z2)[1:-1])):.2e}",
)

Ys = sigma_prolong(case.fields, case.sigma, 2)
table = generate_invariants(Ys, case.eta, case.seeds, 2)
reduced, report = reduce_system(case.system, table, case.change)
solved = solve_for_highest(reduced, targets=report.targets)
matched = integrate(solved, {"z1": 1.0, "z2": 1.0}, (0.0, 1.0), 1e-3)
ok, worst = reconstruction_check(case.change, matched, traj)
print(f"reduced trajectory reproduces the invariant curves: {ok} (max residual {worst:.2e})")

coarse = integrate(case.system, {"u": 0, "v": 0, "u_1": 1, "v_1": 1}, (0.0, 0.5), 2e-3)
fine = integrate(case.system, {"u": 0, "v": 0, "u_1": 1, "v_1": 1}, (0.0, 0.5), 1e-3)
finest = integrate(case.system, {"u": 0, "v": 0, "u_1": 1, "v_1": 1}, (0.0, 0.5), 5e-4)
err_c = max(abs(coarse.samples[n][-1] - finest.samples[n][-1]) for n in coarse.samples)
err_f = max(abs(fine.samples[n][-1] - finest.samples[n][-1]) for n in fine.samples)
print(f"step-halving error ratio (fourth-order expected ~16): {err_c / err_f:.1f}")
