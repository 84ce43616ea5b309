"""The two in-process workloads: the commutation-identity population and the
numeric RK4 cross-check.

Each workload is a class whose constructor is the set-up (symbolic
preparation plus one warm-up item on fixed inputs, so that sympy's lazy
imports and caches are in place before timing and set-up costs the same for
every seed) and whose ``item`` method runs one seeded item.  ``item`` returns
whether the output check passed and the seconds spent in each of the item's
input classes: the commutation structure of the trial, or the four parts of
a cross-check.  The benchmark summarises each class by its best time in the
run (its 10th percentile once it has ten samples).

Run as a script (``python3 perfbench/inprocess.py <workload> <seed>``) it
performs one set-up in a fresh interpreter and prints its duration, which is
how ``run.py`` samples set-up time more than once per run.
"""

from __future__ import annotations

import json
import os
import random
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def item_rng(seed: int, index: int) -> random.Random:
    """Inputs of item ``index`` depend only on the run seed and the index."""
    return random.Random(seed * 1_000_003 + index)


# The workloads keep library modules, not functions, and look each function
# up when an item runs: the tracer rebinds module attributes, so a function
# held from set-up would stay wrapped after the tracer is uninstalled.


class Commutation:
    """Random vertical pair and polynomial twist on J^2(x; u, v): prolong
    jointly to order 2, check the commutation identity (must hold), perturb
    one prolonged coefficient and check again (must fail with a NonZero
    witness)."""

    def __init__(self, seed: int):
        import inputs
        from jetsigma import prolong

        self.inputs = inputs
        self.prolong = prolong
        self.ctx = inputs.commutation_context()
        # consecutive items that meet every class once
        self.cycle = inputs.STRUCTURES
        self.seed = 0
        self.item(-1)  # warm-up on the inputs of seed 0; its check is not counted
        self.seed = seed

    def item(self, index: int):
        start = perf_counter()
        k = index % self.inputs.STRUCTURES
        rng, shape = item_rng(self.seed, index), self.inputs.structure_rng(k)
        Xs = self.inputs.vertical_pair(rng, self.ctx, shape)
        sigma = self.inputs.twist(rng, self.ctx, shape)
        Ys = self.prolong.sigma_prolong(Xs, sigma, 2)
        holds = self.prolong.check_prolongation_commutation(Ys, sigma, seed=index).holds
        rep = self.prolong.check_prolongation_commutation(self.inputs.perturbed(rng, Ys), sigma, seed=index)
        caught = not rep.holds and any(r.verdict.is_nonzero for r in rep.witnesses)
        return holds and caught, {f"structure{k}": perf_counter() - start}


class CrossCheck:
    """RK4 (step 1e-3 on [0, 0.5]) of the exp_coupled_pair, scaling_pair and
    partial_rank_triple systems from seeded initial data; the invariants along
    each trajectory must satisfy the reduced equations to 1e-5 in sup norm,
    and halving the step must shrink the error of exp_coupled_pair by a
    fourth-order factor in [12, 20]."""

    TOL = 1e-5
    SPAN = (0.0, 0.5)
    H = 1e-3
    # The step-halving check runs at 2e-2, 1e-2 and 5e-3, where the error is
    # about 1e-9 and the ratio stays near 16.8 for every initial point of the
    # generator.  At 2e-3, 1e-3 and 5e-4 the fine error is about 1e-14, down
    # at rounding level, and the ratio wanders out of [12, 20] for some
    # initial points.
    CONVERGENCE_H = 1e-2
    # every item times all four parts
    cycle = 1

    def __init__(self, seed: int):
        import numpy as np

        import inputs
        from jetsigma import gallery, jets, oracle, reduction

        self.np = np
        self.inputs = inputs
        self.oracle = oracle
        self.exp_pair = gallery.exp_coupled_pair()
        self.scaling = gallery.scaling_pair()
        self.scaling_system = reduction.solve_for_highest(self.scaling.system)
        self.triple = gallery.partial_rank_triple()
        self.triple_dxi = jets.total_derivative(self.triple.seeds[0], self.triple.ctx)
        self.seed = 0
        self.item(-1)  # warm-up on the inputs of seed 0; its check is not counted
        self.seed = seed

    def _sup(self, a) -> float:
        return float(self.np.max(self.np.abs(a)))

    def item(self, index: int):
        rng = item_rng(self.seed, index)
        integrate, along = self.oracle.integrate, self.oracle.invariant_along_trajectory
        residuals = []
        times = {}

        start = perf_counter()
        case = self.exp_pair
        traj = integrate(case.system, self.inputs.initial_data(rng, case.name), self.SPAN, self.H)
        z1, dz1 = along(case.seeds[0], traj)
        z2, dz2 = along(case.seeds[1], traj)
        residuals += [self._sup(dz1 + (z1 * z2)[1:-1]), self._sup(dz2 - (z1 * z2)[1:-1])]
        now = perf_counter()
        times[case.name], start = now - start, now

        case = self.scaling
        traj = integrate(self.scaling_system, self.inputs.initial_data(rng, case.name), self.SPAN, self.H)
        w1, dw1 = along(case.seeds[0], traj)
        w2, dw2 = along(case.seeds[1], traj)
        residuals += [self._sup(dw1 - (w2 * w2)[1:-1]), self._sup(dw2 - (w1 * w2)[1:-1])]
        now = perf_counter()
        times[case.name], start = now - start, now

        case = self.triple
        traj = integrate(case.system, self.inputs.initial_data(rng, case.name), self.SPAN, self.H)
        xi, _ = along(case.seeds[0], traj)
        eta, deta = along(case.seeds[1], traj)
        rho, drho = along(case.seeds[2], traj)
        dxi, ddxi = along(self.triple_dxi, traj)
        residuals += [
            self._sup(ddxi - 2 * rho[1:-1]),
            self._sup(drho - eta[1:-1]),
            self._sup(deta - (dxi - xi)[1:-1]),
        ]
        now = perf_counter()
        times[case.name], start = now - start, now

        initial = self.inputs.initial_data(rng, self.exp_pair.name)
        system = self.exp_pair.system
        finest = integrate(system, initial, self.SPAN, self.CONVERGENCE_H / 2)
        coarse = integrate(system, initial, self.SPAN, self.CONVERGENCE_H * 2)
        fine = integrate(system, initial, self.SPAN, self.CONVERGENCE_H)
        err_c = max(abs(coarse.samples[n][-1] - finest.samples[n][-1]) for n in coarse.samples)
        err_f = max(abs(fine.samples[n][-1] - finest.samples[n][-1]) for n in fine.samples)
        times["step_halving"] = perf_counter() - start
        return max(residuals) < self.TOL and 12 <= err_c / err_f <= 20, times


WORKLOADS = {"commutation": Commutation, "crosscheck": CrossCheck}


def set_up(workload: str, seed: int, tracer=None):
    """Import the library and build the workload; returns (object, seconds).
    A tracer, if given, is installed after the import and records the build."""
    start = perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import jetsigma  # noqa: F401  (the import is part of set-up)

    if tracer is not None:
        tracer.install()
    obj = WORKLOADS[workload](seed)
    return obj, perf_counter() - start


if __name__ == "__main__":
    _, seconds = set_up(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"setup_s": seconds}))
