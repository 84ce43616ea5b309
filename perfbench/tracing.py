"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` replaces each traced public function or method with a
wrapper at every module binding that refers to it, so re-imports such as
``prolong.total_derivative`` and aliases such as ``invariants._is_zero`` are
traced too.  No library file changes.  Each call records a span (name,
start, end, parent span) in memory; ``Tracer.write`` saves them at the end
and ``Tracer.aggregate`` turns them into per-layer counts and times.  A span's
self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (metric name, module, attribute path).  One metric may cover several
# attributes: the arithmetic operators are traced together as exprs.arith and
# the gallery case builders as gallery.build.
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__pow__", "__neg__")
_GALLERY_BUILDERS = (
    "exp_coupled_pair", "scaling_pair", "transpose_twist_cases", "identity_twist_quotient",
    "bilinear_mixing", "bilinear_mixing_foreign_fields", "radial_quotient", "radial_polynomial",
    "three_component_chain", "partial_rank_triple", "partial_rank_invariant_basis",
    "constant_coefficient_ansatz",
)
TARGETS = [
    ("exprs.Expr", "exprs", ["Expr.__init__"]),
    ("exprs.arith", "exprs", [f"Expr.{op}" for op in _ARITH]),
    ("exprs.normalize", "exprs", ["normalize"]),
    ("exprs.diff", "exprs", ["diff"]),
    ("exprs.substitute", "exprs", ["substitute"]),
    ("exprs.parse", "exprs", ["parse"]),
    ("exprs.print_expr", "exprs", ["print_expr"]),
    ("exprs.is_zero", "exprs", ["is_zero"]),
    ("exprs.eval_numeric", "exprs", ["eval_numeric"]),
    ("jets.total_derivative", "jets", ["total_derivative"]),
    ("jets.VectorField.apply", "jets", ["VectorField.apply"]),
    ("jets.lie_bracket", "jets", ["lie_bracket"]),
    ("prolong.sigma_prolong", "prolong", ["sigma_prolong"]),
    ("prolong.standard_prolong", "prolong", ["standard_prolong"]),
    ("prolong.check_prolongation_commutation", "prolong", ["check_prolongation_commutation"]),
    ("linalg.linear_solve", "linalg", ["linear_solve"]),
    ("linalg.ExprMatrix.inverse", "linalg", ["ExprMatrix.inverse"]),
    ("linalg.ExprMatrix.det", "linalg", ["ExprMatrix.det"]),
    ("reduction.ODESystem", "reduction", ["ODESystem.__init__"]),
    ("reduction.solve_for_highest", "reduction", ["solve_for_highest"]),
    ("reduction.restrict", "reduction", ["restrict"]),
    ("reduction.verify_sigma_symmetry", "reduction", ["verify_sigma_symmetry"]),
    ("reduction.reduce_system", "reduction", ["reduce_system"]),
    ("reduction.reconstruction_check", "reduction", ["reconstruction_check"]),
    ("involution.structure_functions", "involution", ["structure_functions"]),
    ("involution.close_under_bracket", "involution", ["close_under_bracket"]),
    ("involution.check_involution_transfer", "involution", ["check_involution_transfer"]),
    ("invariants.generate_invariants", "invariants", ["generate_invariants"]),
    ("invariants.independence_check", "invariants", ["independence_check"]),
    ("equivalence.sigma_from_A", "equivalence", ["sigma_from_A"]),
    ("equivalence.standardizing_roundtrip", "equivalence", ["standardizing_roundtrip"]),
    ("equivalence.gauge_transform_sigma", "equivalence", ["gauge_transform_sigma"]),
    ("equivalence.mu_sigma_bridge", "equivalence", ["mu_sigma_bridge"]),
    ("determining.generate_determining", "determining", ["generate_determining"]),
    ("oracle.integrate", "oracle", ["integrate"]),
    ("oracle.invariant_along_trajectory", "oracle", ["invariant_along_trajectory"]),
    ("oracle.sample_jet_point", "oracle", ["sample_jet_point"]),
    ("session.load_session", "session", ["load_session"]),
    ("cli.run", "cli", ["run"]),
    ("cli.Report.to_json", "cli", ["Report.to_json"]),
    ("gallery.build", "gallery", list(_GALLERY_BUILDERS)),
]
SPAN_NAMES = [name for name, _, _ in TARGETS]
# The expression kernel is the leaf layer: its entries get calls and self
# time.  Every other traced function is an entry point into a layer and also
# gets its total (inclusive) time.
ENTRY_POINTS = [name for name in SPAN_NAMES if not name.startswith("exprs.")]
# Counters kept by observers at the span boundaries, and the metrics of the
# child process that runs the command-line front end.
COUNTERS = [
    "exprs.is_zero.sampled", "exprs.is_zero.unknown", "exprs.eval_numeric.singular",
    "prolong.sigma_prolong.coeffs", "oracle.integrate.steps",
]
PROCESS_METRICS = ["cli.import_s", "cli.process_overhead_s"]


def _is_zero_observer(counters, result, exc):
    if exc is not None or result.status != "zero":
        counters["exprs.is_zero.sampled"] += 1
    if exc is None and result.status == "unknown":
        counters["exprs.is_zero.unknown"] += 1


def _eval_numeric_observer(counters, result, exc):
    from jetsigma.exprs import SingularPointError

    if isinstance(exc, SingularPointError):
        counters["exprs.eval_numeric.singular"] += 1


def _sigma_prolong_observer(counters, result, exc):
    if exc is None:
        # coefficients computed by the joint steps: orders 1..n of every
        # dependent of every field
        counters["prolong.sigma_prolong.coeffs"] += sum(len(row) - 1 for Y in result for row in Y.psi)


def _integrate_observer(counters, result, exc):
    if exc is None:
        counters["oracle.integrate.steps"] += len(result.ts) - 1


OBSERVERS = {
    "exprs.is_zero": _is_zero_observer,
    "exprs.eval_numeric": _eval_numeric_observer,
    "prolong.sigma_prolong": _sigma_prolong_observer,
    "oracle.integrate": _integrate_observer,
}


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records one span per traced call; single-threaded by design."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
                if observer is not None:
                    observer(counters, result, exc)

        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded jetsigma modules."""
        for mod in ("exprs", "jets", "linalg", "prolong", "involution", "invariants",
                    "equivalence", "reduction", "determining", "oracle", "gallery",
                    "session", "cli"):
            importlib.import_module(f"jetsigma.{mod}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "jetsigma" or n.startswith("jetsigma.")]
        for name, mod_name, paths in TARGETS:
            home = sys.modules[f"jetsigma.{mod_name}"]
            wrapped: dict[int, object] = {}
            for path in paths:
                owner, attr = _resolve(home, path)
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original)
                wrapper = wrapped[id(original)]
                if owner is home:
                    # a module-level function: rebind it wherever it was imported
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, key, value))
                                setattr(mod, key, wrapper)
                else:
                    # a method: the class attribute is the only binding
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Save the spans as arrays: name index, start, end and parent index."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    def aggregate(self) -> dict:
        """Per-name calls, self time and total time (outermost spans only, so
        recursion is not counted twice), plus the observer counters."""
        n = len(self.name_id)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        total_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += duration[i] - covered[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != self.name_id[i]:
                p = self.parent[p]
            if p < 0:
                total_s[name] += duration[i]
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "counters": dict(self.counters)}


def merge(aggregates: list[dict]) -> dict:
    """Sum the aggregates of several processes."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "counters": {}}
    for agg in aggregates:
        for section, values in agg.items():
            for key, value in values.items():
                out[section][key] = out[section].get(key, 0) + value
    return out


def per_layer_metrics(agg: dict, process: dict[str, float]) -> dict[str, dict]:
    """The per-layer metrics, by name, with their units.  ``process`` holds
    the command-line child's import and overhead seconds (zero in process)."""
    calls, self_s, total_s, counters = agg["calls"], agg["self_s"], agg["total_s"], agg["counters"]
    m: dict[str, dict] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
        m[f"{name}.self_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
        if name in ENTRY_POINTS:
            m[f"{name}.total_s"] = {"value": total_s.get(name, 0.0), "unit": "s"}

    def ratio(num, den):
        return num / den if den else 0.0

    m["exprs.is_zero.sampled_ratio"] = {
        "value": ratio(counters.get("exprs.is_zero.sampled", 0), calls.get("exprs.is_zero", 0)),
        "unit": "ratio",
    }
    m["exprs.is_zero.unknown"] = {"value": counters.get("exprs.is_zero.unknown", 0), "unit": "count"}
    m["exprs.eval_numeric.singular"] = {"value": counters.get("exprs.eval_numeric.singular", 0), "unit": "count"}
    m["prolong.sigma_prolong.coeffs_per_s"] = {
        "value": ratio(counters.get("prolong.sigma_prolong.coeffs", 0), total_s.get("prolong.sigma_prolong", 0.0)),
        "unit": "1/s",
    }
    m["oracle.integrate.steps_per_s"] = {
        "value": ratio(counters.get("oracle.integrate.steps", 0), total_s.get("oracle.integrate", 0.0)),
        "unit": "1/s",
    }
    for key in PROCESS_METRICS:
        m[key] = {"value": process.get(key, 0.0), "unit": "s"}
    return m
