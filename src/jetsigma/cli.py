"""Command-line front end: load a session file, run checks, and emit a
human-readable or JSON report with a deterministic layout."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import partial

from .equivalence import (
    gauge_transform_sigma,
    mu_sigma_bridge,
    standardizing_roundtrip,
    verify_A_sigma,
)
from .exprs import CheckResult, Expr, ExprError, ZeroVerdict, is_zero, print_expr
from .involution import (
    ClosureExceededError,
    NotInvolutiveError,
    close_under_bracket,
    check_involution_transfer,
    structure_functions,
)
from .invariants import generate_invariants
from .jets import lie_bracket
from .oracle import integrate
from .prolong import SigmaMatrix
from .reduction import reduce_system, solve_for_highest, verify_sigma_symmetry
from .session import MissingSessionDataError, Session, dump_reduced_session, load_session

SCHEMA = "jetsigma-report/1"

# an empty check set holds: the entry that records a step ran to the end
RAN = CheckResult({}, {})


@dataclass
class Entry:
    name: str
    verdict: str  # Zero | NonZero | Unknown | true | false
    residual: str = ""
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in ("Zero", "true")

    @property
    def unknown(self) -> bool:
        return self.verdict == "Unknown"


@dataclass
class Report:
    command: str
    entries: list[Entry] = field(default_factory=list)
    objects: list[tuple[str, list[str]]] = field(default_factory=list)
    reduced_session: str | None = None  # set by reduce: the reduced system as session text

    def check(self, name: str, result: ZeroVerdict | CheckResult, residual: Expr | None = None):
        """The one entry writer.  One verdict is written with its label,
        residual and witness point; a check set as ``true``/``false`` from its
        fold, or ``Unknown`` when the fold is Unknown, without either."""
        witness = ""
        if isinstance(result, CheckResult):
            fold = result.verdict
            label = "Unknown" if fold.status == "unknown" else ("true" if fold.is_zero else "false")
        else:
            label = result.label
            if result.witness:
                pt = ", ".join(f"{k}={v}" for k, v in sorted(result.witness.items()))
                witness = f"{pt} -> {result.value:.6g}"
        self.entries.append(
            Entry(name, label, print_expr(residual) if residual is not None else "", witness)
        )

    def show(self, name: str, lines):
        self.objects.append((name, [str(ln) for ln in lines]))

    def merge(self, other: "Report"):
        self.entries.extend(other.entries)
        self.objects.extend(other.objects)
        if other.reduced_session is not None:
            self.reduced_session = other.reduced_session

    @property
    def exit_status(self) -> int:
        if any(not e.passed and not e.unknown for e in self.entries):
            return 1
        if any(e.unknown for e in self.entries):
            return 2
        return 0

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for name, body in self.objects:
            lines.append(f"-- {name}")
            lines.extend(f"   {ln}" for ln in body)
        for e in self.entries:
            mark = {True: "PASS"}.get(e.passed, "UNKNOWN" if e.unknown else "FAIL")
            lines.append(f"[{mark}] {e.name}: {e.verdict}")
            if e.residual and not e.passed:
                lines.append(f"       residual: {e.residual}")
            if e.witness and not e.passed:
                lines.append(f"       witness: {e.witness}")
        lines.append(f"exit: {self.exit_status}")
        return "\n".join(lines)

    def to_json(self, session_name: str, seed: int, trials: int) -> str:
        payload = {
            "schema": SCHEMA,
            "command": self.command,
            "session": session_name,
            "seed": seed,
            "numeric_trials": trials,
            "objects": [{"name": n, "lines": body} for n, body in self.objects],
            "entries": [
                {
                    "name": e.name,
                    "verdict": e.verdict,
                    "residual": e.residual,
                    "witness": e.witness,
                }
                for e in self.entries
            ],
            "exit_status": self.exit_status,
        }
        return json.dumps(payload, indent=2, sort_keys=False)


def _run_prolong(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("prolong")
    Ys = session.prolonged(order)
    for name, Y in zip(session.field_names, Ys):
        rep.show(f"prolonged field {name}", [str(Y)])
    return rep


def _run_bracket(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("bracket")
    Ys = session.prolonged(order)
    for i in range(len(Ys)):
        for j in range(i + 1, len(Ys)):
            br = lie_bracket(Ys[i], Ys[j])
            n1, n2 = session.field_names[i], session.field_names[j]
            rep.show(f"[{n1},{n2}]", [str(br)])
    return rep


def _run_involution(session: Session, order: int, trials: int, seed: int) -> Report:
    """Purely a report: involutivity is a finding about the set, not a check
    that can fail, so this command never drives a nonzero exit on its own."""
    rep = Report("involution")
    Ys = session.prolonged(order)
    try:
        sf = structure_functions(Ys)
        rep.show("involutive", ["yes"])
        rep.show("structure functions", [repr(sf)])
    except NotInvolutiveError as exc:
        rep.show("involutive", ["no"])
        rep.show("bracket outside span", [str(exc.bracket)])
        try:
            closed, crep = close_under_bracket(Ys)
            rep.show(
                "closure",
                [f"added {len(crep.added)} generator(s)"] + [str(f) for f in crep.added],
            )
            rep.show("closed structure functions", [repr(crep.structure)])
        except (ClosureExceededError, NotInvolutiveError) as exc2:
            rep.show("closure", [str(exc2)])
    return rep


def _run_theorem2(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("theorem2")
    fields = session.require("fields")
    sigma = session.require("sigma")
    tr = check_involution_transfer(fields, sigma, trials=trials, seed=seed)
    for (i, j), q in sorted(tr.Q.items()):
        rep.show(
            f"Q[{i + 1}{j + 1}]",
            [", ".join(print_expr(e) for e in q)],
        )
    rep.check("pointwise twist condition", tr.pointwise)
    rep.check("contracted twist condition", tr.contracted)
    return rep


def _run_check_symmetry(session: Session, order: int, trials: int, seed: int, zero_sigma=False) -> Report:
    rep = Report("check-symmetry")
    fields = session.require("fields")
    system = session.solved_system()
    sigma = session.sigma
    if zero_sigma or sigma is None:
        sigma = SigmaMatrix.zero(session.ctx, len(fields))
    sym = verify_sigma_symmetry(
        fields, sigma, system, trials=trials, seed=seed, deny=session.deny
    )
    for (i, h), verdict in sorted(sym.verdicts.items()):
        rep.check(f"field {session.field_names[i]} on equation {h + 1}", verdict, sym.residuals[(i, h)])
    return rep


def _run_ibdp(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("ibdp")
    session.require("seeds")
    Ys = session.prolonged(order)
    table = generate_invariants(
        Ys,
        session.require("eta"),
        session.seeds,
        order,
        extra_base=session.extra_base,
        trials=trials,
        seed=seed,
        deny=session.deny,
    )
    rep.show("invariant table", repr(table).splitlines())
    rep.check("all entries verified and independent", RAN)
    return rep


def _run_reduce(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("reduce")
    session.require("system")
    change = session.require("coordinate_change")
    system = session.solved_system()
    reduced, rrep = reduce_system(system, None, change)
    rep.show(
        "reduced system",
        [f"{print_expr(e)} = 0" for e in reduced.equations],
    )
    rep.show(
        "orders",
        [f"{name}: {k}" for name, k in sorted(rrep.orders.items())],
    )
    solved_text = {}
    try:
        solved_red = solve_for_highest(reduced, targets=rrep.targets)
        solved_text = {str(t): solved_red.solved[t] for t in rrep.targets}
        rep.show(
            "solved reduced system",
            [f"{t} = {print_expr(solved_text[t])}" for t in sorted(solved_text)],
        )
    except ExprError:
        pass
    rep.check("reduction emitted", RAN)
    rep.reduced_session = dump_reduced_session(reduced, solved_text or None)
    return rep


def _run_equivalence(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("equivalence")
    fields = session.require("fields")
    if "A" not in session.matrices:
        raise MissingSessionDataError("matrix A")
    A = session.matrices["A"]
    convention = session.conventions.get("A", "inverse_dx")
    rt = standardizing_roundtrip(
        fields, A, order, convention, trials=trials, seed=seed, deny=session.deny
    )
    sigma = rt.sigma
    rep.show("induced twist", [repr(sigma)])
    rep.check("twisted set equals combined standard prolongations", rt.check)
    if session.sigma is not None:
        match = {
            (i, j): sigma[i, j] - session.sigma[i, j] for i in range(sigma.r) for j in range(sigma.r)
        }
        rep.check("induced twist matches the session twist", CheckResult.test(match, trials=trials, seed=seed))
        if convention == "inverse_dx":
            transport = verify_A_sigma(A, session.sigma, session.ctx, trials=trials, seed=seed)
            rep.check("transport equation D_x A = A sigma", transport)
        else:
            transport = verify_A_sigma(A.inverse(), session.sigma, session.ctx, trials=trials, seed=seed)
            rep.check("transport equation D_x A^-1 = A^-1 sigma", transport)
    return rep


def _run_gauge(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("gauge")
    sigma = session.require("sigma")
    if "B" not in session.matrices:
        raise MissingSessionDataError("matrix B")
    out = gauge_transform_sigma(session.matrices["B"], sigma, session.ctx)
    rep.show("gauged twist", [repr(out)])
    rep.check("gauge transform computed", RAN)
    return rep


def _run_bridge(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("bridge")
    if "Phi" not in session.matrices:
        raise MissingSessionDataError("matrix Phi")
    S = session.matrices.get("S")
    M = session.matrices.get("M")
    if S is None and M is None:
        raise MissingSessionDataError("matrix S or M")
    result = mu_sigma_bridge(
        session.matrices["Phi"], session.ctx, S=S, M=M, trials=trials, seed=seed
    )
    rep.show("S", [repr(result.S)])
    rep.show("M", [repr(result.M)])
    rep.check("twists agree on the first jet bundle", result.lift)
    return rep


def _run_determining(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("determining")
    system = session.require("system")
    ansatz = session.require("ansatz")
    from .determining import generate_determining

    result = generate_determining(system, ansatz)
    for (i, h), r in sorted(result.residuals.items()):
        rep.show(f"residual field {i + 1} / equation {h + 1}", [print_expr(r)])
    if result.coefficient_equations is not None:
        rep.show(
            "coefficient equations",
            [print_expr(e) for e in result.coefficient_equations] or ["0"],
        )
    if not ansatz.has_opaque() and not session.ctx.table.parameters:
        for (i, h), r in sorted(result.residuals.items()):
            rep.check(f"residual {i + 1}/{h + 1}", is_zero(r, trials=trials, seed=seed), r)
    rep.check("determining residuals generated", RAN)
    return rep


def _run_oracle(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("oracle")
    session.require("system")
    spec = session.require("oracle")
    system = session.solved_system()
    h = float(spec.step)
    traj = integrate(system, spec.initial, (0.0, float(spec.t1)), h)
    endpoint = ", ".join(
        f"{n}={traj.samples[n][-1]:.9g}" for n in sorted(traj.samples)
    )
    rep.show("trajectory endpoint", [f"t={traj.ts[-1]:.6g}: {endpoint}"])
    half = integrate(system, spec.initial, (0.0, float(spec.t1)), h / 2)
    errs = []
    for n in traj.samples:
        errs.append(abs(traj.samples[n][-1] - half.samples[n][-1]))
    rep.show("halved-step endpoint deviation", [f"{max(errs):.3e}"])
    rep.check("integration finite", RAN)
    return rep


def _run_all(session: Session, order: int, trials: int, seed: int) -> Report:
    rep = Report("all")
    for runner, applies in COMMANDS.values():
        if applies is not None and applies(session):
            rep.merge(runner(session, order, trials, seed))
    return rep


# Every command with its runner and the session data without which `all`
# skips it, in the order `all` runs them.
COMMANDS = {
    "prolong": (_run_prolong, lambda s: s.fields is not None),
    "bracket": (_run_bracket, lambda s: s.fields is not None),
    "involution": (_run_involution, lambda s: s.fields is not None and "A" not in s.matrices),
    "theorem2": (
        _run_theorem2,
        lambda s: s.fields is not None and s.sigma is not None and "A" not in s.matrices,
    ),
    "check-symmetry": (_run_check_symmetry, lambda s: s.fields is not None and s.system is not None),
    "ibdp": (_run_ibdp, lambda s: bool(s.seeds)),
    "reduce": (_run_reduce, lambda s: s.system is not None and s.change is not None),
    "equivalence": (_run_equivalence, lambda s: "A" in s.matrices and s.fields is not None),
    "gauge": (_run_gauge, lambda s: "B" in s.matrices and s.sigma is not None),
    "bridge": (_run_bridge, lambda s: "Phi" in s.matrices),
    "determining": (_run_determining, lambda s: s.ansatz is not None and s.system is not None),
    "oracle": (_run_oracle, lambda s: s.oracle is not None and s.system is not None),
    "all": (_run_all, None),
}


def run(
    command: str, session: Session, order: int | None = None, trials: int = 20, seed: int = 0, zero_sigma: bool = False
) -> Report:
    """Dispatch a command against a loaded session.  The report's
    `reduced_session` holds the reduced system as session text after reduce
    (and after `all` when it runs reduce).  `zero_sigma` applies to
    check-symmetry only; any other command given it raises `ExprError`."""
    if command not in COMMANDS:
        raise ExprError(f"unknown command {command!r}")
    runner, _ = COMMANDS[command]
    if zero_sigma:
        if command != "check-symmetry":
            raise ExprError("--zero-sigma applies to check-symmetry only")
        runner = partial(_run_check_symmetry, zero_sigma=True)
    return runner(session, order if order is not None else session.ctx.max_order, trials, seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jetsigma",
        description="Twisted joint prolongations, differential invariants, and order reduction.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--session", required=True, help="session file to load")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--numeric-trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-order", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the report (and any reduced session) here")
    parser.add_argument(
        "--zero-sigma",
        action="store_true",
        help="override the session twist with the zero matrix (check-symmetry only)",
    )
    args = parser.parse_args(argv)

    try:
        session = load_session(args.session)
        report = run(
            args.command,
            session,
            order=args.max_order,
            trials=args.numeric_trials,
            seed=args.seed,
            zero_sigma=args.zero_sigma,
        )
        extra = report.reduced_session
        # the report, then the reduced session beside it; neither may land on
        # the session file or on the other
        paths = [args.out] if args.out else []
        if extra is not None and args.out:
            paths.append(os.path.splitext(args.out)[0] + ".session")
        taken = {os.path.realpath(args.session)}
        for path in paths:
            if os.path.realpath(path) in taken:
                raise ExprError(f"refusing to overwrite {path}: it is the session file or the report")
            taken.add(os.path.realpath(path))
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = (
        report.to_json(os.path.basename(args.session), args.seed, args.numeric_trials)
        if args.json
        else report.to_text()
    )
    if not args.out:
        print(text)
        if extra is not None and not args.json:
            print("-- reduced session --")
            print(extra, end="")
    for path, content in zip(paths, [text + "\n", extra]):
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 1
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
