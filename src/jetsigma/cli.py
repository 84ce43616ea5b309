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
from .invariants import SeedNotInvariantError, generate_invariants
from .jets import lie_bracket
from .oracle import integrate
from .prolong import SigmaMatrix
from .reduction import reduce_system, solve_for_highest, verify_sigma_symmetry
from .session import Session, dump_reduced_session, load_session

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


def _run_prolong(session: Session, rep: Report, order: int, trials: int, seed: int):
    for name, Y in zip(session.field_names, session.prolonged(order)):
        rep.show(f"prolonged field {name}", [str(Y)])


def _run_bracket(session: Session, rep: Report, order: int, trials: int, seed: int):
    Ys = session.prolonged(order)
    for i in range(len(Ys)):
        for j in range(i + 1, len(Ys)):
            br = lie_bracket(Ys[i], Ys[j])
            n1, n2 = session.field_names[i], session.field_names[j]
            rep.show(f"[{n1},{n2}]", [str(br)])


def _run_involution(session: Session, rep: Report, order: int, trials: int, seed: int):
    """Purely a report: involutivity is a finding about the set, not a check
    that can fail, so this command never drives a nonzero exit on its own."""
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


def _run_theorem2(session: Session, rep: Report, order: int, trials: int, seed: int):
    tr = check_involution_transfer(session.fields, session.sigma, trials=trials, seed=seed)
    for (i, j), q in sorted(tr.Q.items()):
        rep.show(
            f"Q[{i + 1}{j + 1}]",
            [", ".join(print_expr(e) for e in q)],
        )
    rep.check("pointwise twist condition", tr.pointwise)
    rep.check("contracted twist condition", tr.contracted)


def _run_check_symmetry(session: Session, rep: Report, order: int, trials: int, seed: int, zero_sigma=False):
    fields = session.fields
    sigma = session.sigma
    if zero_sigma or sigma is None:
        sigma = SigmaMatrix.zero(session.ctx, len(fields))
    sym = verify_sigma_symmetry(
        fields, sigma, session.solved_system(), trials=trials, seed=seed, deny=session.deny
    )
    for (i, h), verdict in sorted(sym.verdicts.items()):
        rep.check(f"field {session.field_names[i]} on equation {h + 1}", verdict, sym.residuals[(i, h)])


def _run_ibdp(session: Session, rep: Report, order: int, trials: int, seed: int):
    try:
        table = generate_invariants(
            session.prolonged(order),
            session.eta,
            session.seeds,
            order,
            extra_base=session.extra_base,
            trials=trials,
            seed=seed,
            deny=session.deny,
        )
    except SeedNotInvariantError as exc:
        name = f"seed {print_expr(exc.seed)} annihilated by field {session.field_names[exc.field_index]}"
        rep.check(name, exc.verdict)
        return
    rep.show("invariant table", repr(table).splitlines())
    rep.check("all entries verified and independent", RAN)


def _run_reduce(session: Session, rep: Report, order: int, trials: int, seed: int):
    reduced, rrep = reduce_system(session.solved_system(), None, session.change)
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


def _run_equivalence(session: Session, rep: Report, order: int, trials: int, seed: int):
    A = session.matrices["A"]
    convention = session.conventions.get("A", "inverse_dx")
    rt = standardizing_roundtrip(
        session.fields, A, order, convention, trials=trials, seed=seed, deny=session.deny
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


def _run_gauge(session: Session, rep: Report, order: int, trials: int, seed: int):
    out = gauge_transform_sigma(session.matrices["B"], session.sigma, session.ctx)
    rep.show("gauged twist", [repr(out)])
    rep.check("gauge transform computed", RAN)


def _run_bridge(session: Session, rep: Report, order: int, trials: int, seed: int):
    result = mu_sigma_bridge(
        session.matrices["Phi"],
        session.ctx,
        S=session.matrices.get("S"),
        M=session.matrices.get("M"),
        trials=trials,
        seed=seed,
    )
    rep.show("S", [repr(result.S)])
    rep.show("M", [repr(result.M)])
    rep.check("twists agree on the first jet bundle", result.lift)


def _run_determining(session: Session, rep: Report, order: int, trials: int, seed: int):
    from .determining import generate_determining

    result = generate_determining(session.system, session.ansatz)
    for (i, h), r in sorted(result.residuals.items()):
        rep.show(f"residual field {i + 1} / equation {h + 1}", [print_expr(r)])
    if result.coefficient_equations is not None:
        rep.show(
            "coefficient equations",
            [print_expr(e) for e in result.coefficient_equations] or ["0"],
        )
    if not session.ansatz.has_opaque() and not session.ctx.table.parameters:
        for (i, h), r in sorted(result.residuals.items()):
            rep.check(f"residual {i + 1}/{h + 1}", is_zero(r, trials=trials, seed=seed), r)
    rep.check("determining residuals generated", RAN)


def _run_oracle(session: Session, rep: Report, order: int, trials: int, seed: int):
    spec = session.oracle
    system = session.solved_system()
    h = float(spec.step)
    t, end = integrate(system, spec.initial, (0.0, float(spec.t1)), h).end
    endpoint = ", ".join(f"{n}={end[n]:.9g}" for n in sorted(end))
    rep.show("trajectory endpoint", [f"t={t:.6g}: {endpoint}"])
    _, half = integrate(system, spec.initial, (0.0, float(spec.t1)), h / 2).end
    rep.show("halved-step endpoint deviation", [f"{max(abs(end[n] - half[n]) for n in end):.3e}"])
    rep.check("integration finite", RAN)


def _run_all(session: Session, rep: Report, order: int, trials: int, seed: int):
    for name, (runner, needs) in COMMANDS.items():
        skip = name == "all" or (session.equivalence_style and name in _TWISTED_SET_ONLY)
        if not skip and session.has(*needs):
            runner(session, rep, order, trials, seed)


# Every command with its runner and the session data it needs (as
# `Session.has` names them), in the order a single run names the first one
# missing.  A runner writes into the report it is given and reads the data
# directly.  `all` runs, in table order, each command whose needs the session
# holds, except as `_TWISTED_SET_ONLY` says.
COMMANDS = {
    "prolong": (_run_prolong, ("fields",)),
    "bracket": (_run_bracket, ("fields",)),
    "involution": (_run_involution, ("fields",)),
    "theorem2": (_run_theorem2, ("fields", "sigma")),
    "check-symmetry": (_run_check_symmetry, ("fields", "system")),
    "ibdp": (_run_ibdp, ("seeds", "fields", "eta")),
    "reduce": (_run_reduce, ("system", "coordinate_change")),
    "equivalence": (_run_equivalence, ("fields", "matrix A")),
    "gauge": (_run_gauge, ("sigma", "matrix B")),
    "bridge": (_run_bridge, ("matrix Phi", "matrix S or M")),
    "determining": (_run_determining, ("system", "ansatz")),
    "oracle": (_run_oracle, ("system", "oracle")),
    "all": (_run_all, ()),
}

# The one rule of `all` that is not a need.  An equivalence-style session's
# fields are standard-prolongation generators and its twist describes the
# set A transforms them into, not a twisted set of these fields, so `all`
# leaves out the two reports on the fields' twisted set; a single run still
# gives them.
_TWISTED_SET_ONLY = ("involution", "theorem2")


def run(
    command: str, session: Session, order: int | None = None, trials: int = 20, seed: int = 0, zero_sigma: bool = False
) -> Report:
    """Run a command against a loaded session and return its one report.
    The session must hold the command's needs (`COMMANDS`), or
    `MissingSessionDataError` names the first it lacks; `all` runs, into its
    own report, each command whose needs the session holds.  The report's
    `reduced_session` holds the reduced system as session text after reduce
    (and after `all` when it runs reduce).  `zero_sigma` applies to
    check-symmetry only; any other command given it raises `ExprError`."""
    if command not in COMMANDS:
        raise ExprError(f"unknown command {command!r}")
    runner, needs = COMMANDS[command]
    if zero_sigma:
        if command != "check-symmetry":
            raise ExprError("--zero-sigma applies to check-symmetry only")
        runner = partial(_run_check_symmetry, zero_sigma=True)
    session.require(*needs)
    rep = Report(command)
    runner(session, rep, order if order is not None else session.ctx.max_order, trials, seed)
    return rep


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
