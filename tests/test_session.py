import json
import os
import subprocess
import sys

import pytest

from jetsigma.cli import main, run
from jetsigma.exprs import ExprError
from jetsigma.session import (
    MissingSessionDataError,
    SessionError,
    load_session,
    loads_session,
)

SESSIONS = os.path.join(
    os.path.dirname(__file__), "..", "src", "jetsigma", "sessions"
)


BUNDLED = sorted(f[: -len(".session")] for f in os.listdir(SESSIONS) if f.endswith(".session"))


def _path(name):
    return os.path.join(SESSIONS, name + ".session")


def test_load_bundled_session():
    s = load_session(_path("exp_coupled_pair"))
    assert s.ctx.dependents == ("u", "v")
    assert s.fields is not None and len(s.fields) == 2
    assert s.sigma is not None and s.sigma.r == 2
    assert s.system is not None and s.system.solved is not None
    assert len(s.seeds) == 2
    assert s.change is not None
    assert s.oracle is not None


@pytest.mark.parametrize("name", BUNDLED)
def test_a_session_loaded_twice_is_equal(name):
    """Contexts, systems, coordinate changes and ansatz templates compare
    by structure, with matching hashes, so two loads of one file are equal."""
    a, b = load_session(_path(name)), load_session(_path(name))
    assert a == b
    for part in ("ctx", "system", "change", "ansatz"):
        x, y = getattr(a, part), getattr(b, part)
        assert x == y and hash(x) == hash(y), part
        assert x is None or x is not y
    assert a.ctx.extended(a.ctx.max_order + 1) != a.ctx


def test_empty_session_rejected(tmp_path):
    p = tmp_path / "empty.session"
    p.write_text("")
    with pytest.raises(SessionError):
        load_session(str(p))


def test_nonsquare_twist_rejected():
    text = """
[context]
independent=x
dependent=u,v
order=1
[sigma]
row=0,u_1,0
row=u,0,0
"""
    with pytest.raises(SessionError):
        loads_session(text)


def test_undeclared_symbol_has_line():
    text = """
[context]
independent=x
dependent=u
order=1
[equation]
implicit=q + u_1
"""
    with pytest.raises(SessionError) as err:
        loads_session(text)
    assert "line 7" in str(err.value)


_MALFORMED_BASE = """[context]
independent=x
dependent=u
order=1
[equation]
order=1
solved=u_1:u
[ansatz]
phi1=u
sigma=0
xi_zero=true
"""


@pytest.mark.parametrize(
    "lineno, line",
    [
        (4, "order=two"),
        (4, "order=-1"),
        (6, "order=x"),
        (6, "order=-3"),
        (9, "phi="),
        (9, "phi0="),
        (9, "phi1=u,"),
        (10, "sigma=(u"),
        (10, "sigma=0,"),
        (10, "sigma=0;"),
        (11, "xi_zero=false"),
    ],
    ids=[
        "context-order", "context-order-negative", "equation-order", "equation-order-negative",
        "phi-without-index", "phi-index-zero", "phi-trailing-comma", "sigma-syntax", "sigma-trailing-comma",
        "sigma-trailing-semicolon", "xi-zero-false",
    ],
)
def test_malformed_entry_is_a_session_error_with_its_line(tmp_path, capsys, lineno, line):
    """A malformed integer or twist template, or a request for non-vertical
    ansatz fields, ends in ``error: ... (line N)`` and exit status 1, not a
    traceback or an error without its line."""
    lines = _MALFORMED_BASE.splitlines()
    path = tmp_path / "base.session"
    path.write_text(_MALFORMED_BASE)
    assert main(["determining", "--session", str(path)]) == 0
    capsys.readouterr()
    lines[lineno - 1] = line
    path.write_text("\n".join(lines) + "\n")
    assert main(["determining", "--session", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(line {lineno})" in err


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("[functions]\nA/1 B/0", 5),
        ("[matrix A]\nrow=1,", 5),
        ("[matrix A]\nrow=1,,2", 5),
        ("[matrix A]\nrow=,1", 5),
        ("[oracle]\ninitial=u:1,", 5),
        ("indepndent=t", 4),
        ("[field X]\nxi=0\neta=x\nphi=1", 6),
        ("[equation]\nimplicit=u_2\nexplicit=u_1", 6),
        ("[matrix A]\nrow=1\nconvention=foo", 6),
        ("[matrix B]\nrow=1\nconvention=inverse_dx", 6),
        ("[oracle]\nstep=0", 5),
        ("[oracle]\nt1=-1/2", 5),
        ("[oracle]\nt1=1/2\nstep=3/10", 6),
        ("[oracle]\nstep=3/10\nt1=1/2", 5),
        ("[oracle]\nt1=1/3", 5),
        ("[invariant]\norder=00\nexpr=u", 5),
        ("[invariant]\norder=2\nexpr=u", 5),
        ("[change]\nz=u_1\nretained=u,,u", 6),
    ],
    ids=[
        "arity-zero", "matrix-trailing-comma", "matrix-doubled-comma", "matrix-leading-comma", "initial-trailing-comma",
        "context-key-typo", "field-key", "equation-key", "convention-unknown", "convention-on-B", "step-zero",
        "t1-negative", "t1-not-whole-steps", "step-before-t1", "t1-not-whole-default-steps", "invariant-order-00",
        "invariant-order-2", "retained-doubled-comma",
    ],
)
def test_bad_entry_names_its_line(body, lineno):
    """An arity below 1, an empty cell in a comma-separated row, an unknown
    key or a value outside its range is a SessionError carrying the entry's
    line, not a shorter row or a value that fails later."""
    with pytest.raises(SessionError) as err:
        loads_session(f"[context]\ndependent=u\norder=1\n{body}\n")
    assert err.value.line == lineno


_PAIR = "[context]\ndependent=u,v\norder=2\n"


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("[sigma]\nrow=0\n[sigma]\nrow=0", 6),
        ("[oracle]\nt1=1\n[oracle]\nt1=1", 6),
        ("[params]\na\n[functions]\nA/1 B/1 A/2", 7),
        ("[params]\nc v", 5),
        ("[field X]\nphi=1,0\n[field X]\nphi=0,1", 6),
        ("[matrix A]\nrow=1\n[matrix A]\nrow=2", 6),
        ("[equation]\nsolved=u_2:0\nsolved=v_2:0\nsolved=u_2:u", 7),
        ("[equation]\nsolved=u_2:0\nsolved=u_xx:0", 6),
        ("[change]\nz=u\nz=v", 6),
        ("[change]\nz=u\ninverse u=z\ninverse  u = z", 7),
        ("[ansatz]\nphi1=0,0\nphi1=0,0\nsigma=0", 6),
        ("[ansatz]\nphi1=0,0\nsigma=0\nsigma=1", 7),
        ("[invariant]\neta=x\n[invariant]\neta=u", 7),
        ("[invariant]\norder=1\nexpr=u\norder=0", 7),
        ("[oracle]\ninitial=u:0,v:1,u:2", 5),
        ("order=3", 4),
        ("[context]\norder=1", 4),
    ],
    ids=[
        "second-sigma", "second-oracle", "function-arity-twice", "param-is-a-dependent", "field-name-reused",
        "matrix-name-reused", "solved-coordinate", "solved-coordinate-alias", "change-coordinate", "inverse-key",
        "ansatz-phi-index", "ansatz-sigma", "second-eta", "invariant-order", "initial-coordinate", "context-key",
        "second-context",
    ],
)
def test_repeated_entry_is_an_error_with_its_line(body, lineno):
    """An entry or section that would overwrite one already read is an error
    at the repeat's line."""
    with pytest.raises(SessionError, match="repeated") as err:
        loads_session(f"{_PAIR}{body}\n")
    assert err.value.line == lineno


def test_accumulating_entries_stay_legal():
    s = loads_session(
        f"{_PAIR}[equation]\nimplicit=u_2\nimplicit=v_2\n[invariant]\nexpr=u_1\n"
        "[invariant]\norder=0\nexpr=u - v\n[invariant]\nexpr=v_1\n[deny]\nexpr=u\nexpr=v\n[deny]\nexpr=u + v\n"
    )
    assert len(s.system.equations) == 2
    assert [str(e) for e in s.seeds] == ["u_1", "v_1"] and [str(e) for e in s.extra_base] == ["u - v"]
    assert [str(e) for e in s.deny] == ["u", "v", "u + v"]


def test_comma_lists_share_one_splitter():
    """dependent= and retained= take spaces after commas and reject an empty
    cell like every other comma list."""
    s = loads_session("[context]\ndependent=u, v\norder=1\n[change]\nz=u_1\nretained=v, u\n")
    assert s.ctx.dependents == ("u", "v")
    assert s.change.retained == ("v", "u")
    with pytest.raises(SessionError) as err:
        loads_session("[context]\ndependent=u,,v\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "body",
    [
        "[fields X]\nphi=1,0",
        "[field]\nphi=1,0",
        "[sigma X]\nrow=0",
        "[field X]\nphi=1",
        "[field X]\nphi=1,0\n[sigma]\nrow=0,0\nrow=0,0",
        "[sigma]\nrow=0,0\nrow=0",
        "[sigma]\nrow=u_2,0\nrow=0,0",
        "[equation]\norder=1\nimplicit=u_2",
        "[equation]\norder=1",
        "[change]\nz=u\ninverse u=2*z",
        "[change]\nz=u\nretained=w",
        "[change]\nretained=v",
        "[change]\nx=u",
        "[ansatz]\nphi1=0,0\nsigma=0,0;0,0",
        "[ansatz]\nphi1=0,0\nphi3=0,0\nsigma=0",
        "[ansatz]\nphi1=0,0",
        "[invariant]\norder=1",
        "[invariant]\nexpr=u\neta=x",
        "[params]\nu",
        "[params]\na\n[functions]\na/1",
        "[functions]\nA",
        "[matrix A]\nconvention=inverse_dx",
        "[matrix A]\nrow=1,2\nrow=1",
        "[oracle]\ninitial=u=0",
        "[oracle]\nt1=1/0",
        "[deny]\nexpr=",
        "[deny]\nu",
    ],
    ids=[
        "unknown-section", "nameless-field", "named-sigma", "phi-count", "sigma-field-count", "ragged-sigma",
        "sigma-order-2", "odesystem-order", "empty-equation", "coordinate-change-inverse",
        "coordinate-change-retained", "change-without-coordinates", "change-name-collision", "ansatz-size",
        "ansatz-gap", "ansatz-without-sigma", "invariant-without-expr", "invariant-expr-and-eta",
        "params-collision", "params-function-collision", "function-without-arity", "matrix-without-rows",
        "ragged-matrix", "initial-pair", "t1-division-by-zero", "empty-expression", "bare-word",
    ],
)
def test_every_session_error_has_its_line(body):
    """Whatever part of the library rejects a session, the SessionError
    carries a line: the entry's, or the section header's."""
    with pytest.raises(SessionError) as err:
        loads_session(f"{_PAIR}{body}\n")
    assert err.value.line is not None and 4 <= err.value.line <= 4 + body.count("\n")


@pytest.mark.parametrize("name", BUNDLED)
def test_spaces_around_equals_and_after_commas_change_nothing(name, tmp_path, capsys):
    """Keys and values are stripped, and so is every cell of a comma list."""
    with open(_path(name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    spaced = [
        line if line.startswith(("[", "#")) else line.replace("=", " = ", 1).replace(",", ", ") for line in lines
    ]
    path = tmp_path / f"{name}.session"
    path.write_text("\n".join(spaced) + "\n")
    status = main(["all", "--session", str(path), "--json"])
    with open(os.path.join(os.path.dirname(__file__), "golden", f"{name}.json"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
    assert status == (1 if name == "transposed_twist" else 0)


def test_run_all_exit_zero():
    s = load_session(_path("exp_coupled_pair"))
    rep = run("all", s)
    assert rep.exit_status == 0
    assert rep.reduced_session is not None  # the reduce stage emitted a session


def test_ibdp_without_eta_uses_the_independent_variable():
    """A session without an eta= line takes its own independent variable as
    eta, whatever it is called."""
    with open(_path("exp_coupled_pair"), encoding="utf-8") as fh:
        text = fh.read().replace("independent=x", "independent=t")
    s = loads_session(text)
    rep = run("ibdp", s)
    assert rep.exit_status == 0


def test_all_computes_each_artifact_once(monkeypatch):
    """`all` solves the session system once (check-symmetry, reduce and
    oracle share it) and prolongs the fields once per order."""
    import jetsigma.cli
    import jetsigma.session
    from jetsigma import prolong, reduction

    s = load_session(_path("scaling_pair"))
    solves = []
    real_solve = reduction.solve_for_highest

    def counting_solve(system, targets=None):
        if system is s.system and targets is None:
            solves.append(system)
        return real_solve(system, targets)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("jetsigma") and getattr(mod, "solve_for_highest", None) is real_solve:
            monkeypatch.setattr(mod, "solve_for_highest", counting_solve)

    builds = []
    real_prolong = prolong.sigma_prolong

    def counting_prolong(fields, sigma, order):
        builds.append(order)
        return real_prolong(fields, sigma, order)

    # the prolongations of the front end; verify_sigma_symmetry and the
    # transfer check prolong inside the library
    for mod in (jetsigma.cli, jetsigma.session):
        monkeypatch.setattr(mod, "sigma_prolong", counting_prolong, raising=False)

    rep = run("all", s)
    assert rep.exit_status == 0
    assert len(solves) == 1
    assert builds == [2]


def test_zero_sigma_override_fails_with_witness():
    s = load_session(_path("exp_coupled_pair"))
    rep = run("check-symmetry", s, zero_sigma=True)
    assert rep.exit_status == 1
    assert any(e.verdict == "NonZero" and e.witness for e in rep.entries)


@pytest.mark.parametrize("name", ["partial_rank_triple", "three_component_chain"])
def test_zero_sigma_with_deny_list_fails_with_witness(name, capsys):
    """The deny expressions of these sessions use coordinates that some
    residuals do not; the zero test still samples them and reports FAIL."""
    assert main(["check-symmetry", "--session", _path(name), "--zero-sigma"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "[FAIL]" in out and "witness: " in out


@pytest.mark.parametrize("command", ["all", "prolong"])
def test_zero_sigma_rejected_outside_check_symmetry(command, capsys):
    path = _path("exp_coupled_pair")
    with pytest.raises(ExprError, match="--zero-sigma applies to check-symmetry only"):
        run(command, load_session(path), zero_sigma=True)
    assert main([command, "--session", path, "--zero-sigma"]) == 1
    assert "--zero-sigma applies to check-symmetry only" in capsys.readouterr().err


def test_missing_session_data():
    text = """
[context]
independent=x
dependent=u
order=2
[equation]
solved=u_2:0
"""
    s = loads_session(text)
    with pytest.raises(MissingSessionDataError) as err:
        run("reduce", s)
    assert "coordinate_change" in str(err.value)


_SOLVED_ONLY = """
[context]
independent=x
dependent=u
order=2
[equation]
solved={key}:u
"""


def test_solved_key_alias_names_the_jet_coordinate():
    alias = loads_session(_SOLVED_ONLY.format(key="u_xx")).system
    plain = loads_session(_SOLVED_ONLY.format(key="u_2")).system
    assert alias.equations == plain.equations
    assert alias.solved == plain.solved


def test_solved_key_of_undeclared_dependent_rejected(tmp_path, capsys):
    path = tmp_path / "undeclared.session"
    path.write_text(_SOLVED_ONLY.format(key="w_2"))
    assert main(["all", "--session", str(path)]) == 1
    assert "error: undeclared symbol 'w_2'" in capsys.readouterr().err


def test_oracle_on_a_parameter_is_an_error(tmp_path, capsys):
    """A right side the oracle cannot evaluate (a parameter has no value on
    the trajectory) ends in ``error: ...`` and exit status 1, not a
    traceback, under ``oracle`` and under ``all``."""
    path = tmp_path / "parameter.session"
    path.write_text(
        "[context]\ndependent=u\norder=1\n[params]\na\n[equation]\nsolved=u_1:a*u\n[oracle]\ninitial=u:1\n"
    )
    for command in ("oracle", "all"):
        assert main([command, "--session", str(path)]) == 1
        assert capsys.readouterr().err == "error: no numeric value for a\n"


def test_reduced_session_roundtrips():
    s = load_session(_path("exp_coupled_pair"))
    reparsed = loads_session(run("reduce", s).reduced_session)
    assert reparsed.system is not None
    assert reparsed.ctx.dependents == ("z1", "z2")
    assert reparsed.system.solved is not None
    rep = run("prolong", reparsed) if reparsed.fields else None


def test_json_reports_are_byte_identical():
    s1 = load_session(_path("exp_coupled_pair"))
    s2 = load_session(_path("exp_coupled_pair"))
    r1 = run("check-symmetry", s1, trials=7, seed=3)
    r2 = run("check-symmetry", s2, trials=7, seed=3)
    j1 = r1.to_json("exp_coupled_pair.session", 3, 7)
    j2 = r2.to_json("exp_coupled_pair.session", 3, 7)
    assert j1 == j2
    payload = json.loads(j1)
    assert payload["schema"] == "jetsigma-report/1"
    assert payload["exit_status"] == 0


def test_cli_main_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = main(
        [
            "check-symmetry",
            "--session",
            _path("exp_coupled_pair"),
            "--json",
            "--out",
            str(out),
        ]
    )
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "check-symmetry"
    assert all(e["verdict"] == "Zero" for e in payload["entries"])


def test_cli_unknown_session_file():
    assert main(["prolong", "--session", "/nonexistent.session"]) == 1


def test_header_line_tokens():
    text = """
[context] independent=x dependent=u,v order=1
[field X1] xi=0
phi=1,0
[field X2]
xi=0
phi=0,1
"""
    s = loads_session(text)
    assert s.ctx.max_order == 1 and len(s.fields) == 2


@pytest.mark.parametrize("name", ["transposed_twist", "determining_ansatz"])
def test_all_json_depends_on_the_seed_only_in_the_seed_line(name, capsys):
    """The closure pivots and the determining residuals sample nothing, so a
    report whose verdicts are all exact is the same at every seed."""
    outputs = []
    for seed in ("0", "1"):
        status = main(["all", "--session", _path(name), "--json", "--seed", seed])
        outputs.append((status, capsys.readouterr().out.splitlines()))
    (status0, lines0), (status1, lines1) = outputs
    assert status0 == status1
    assert len(lines0) == len(lines1)
    differing = [(a, b) for a, b in zip(lines0, lines1) if a != b]
    assert differing == [('  "seed": 0,', '  "seed": 1,')]


def _copy(name, tmp_path, old="", new=""):
    """A bundled session copied to ``tmp_path/sp.session``, with one line replaced."""
    with open(_path(name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / "sp.session"
    path.write_text(text.replace(old, new, 1))
    return path


@pytest.mark.parametrize(
    "command, out",
    [("reduce", "sp.json"), ("reduce", "sp.session"), ("reduce", "r.session"), ("prolong", "sp.session")],
)
def test_outputs_never_overwrite_the_session_or_each_other(command, out, tmp_path, capsys):
    """The reduced session goes beside the report with the suffix .session.
    When the report or the reduced session would land on the session file,
    or both on one path, nothing is written."""
    session = _copy("exp_coupled_pair", tmp_path)
    before = session.read_bytes()
    assert main([command, "--session", str(session), "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: refusing to overwrite ")
    assert session.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["sp.session"]


def test_reduce_writes_report_and_reduced_session(tmp_path, capsys):
    session = _copy("exp_coupled_pair", tmp_path)
    assert main(["reduce", "--session", str(session), "--out", str(tmp_path / "r.txt")]) == 0
    assert (tmp_path / "r.txt").read_text().startswith("command: reduce\n")
    assert loads_session((tmp_path / "r.session").read_text()).ctx.dependents == ("z1", "z2")


@pytest.mark.parametrize("command", ["prolong", "reduce"])
def test_out_in_a_missing_directory_is_an_error(command, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main([command, "--session", _path("exp_coupled_pair"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_unwritable_reduced_session_path_is_an_error(tmp_path, capsys):
    """The report is written; the reduced session beside it cannot be."""
    (tmp_path / "r.session").mkdir()
    assert main(["reduce", "--session", _path("exp_coupled_pair"), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'r.session'}: ")
    assert (tmp_path / "r.json").read_text().startswith("command: reduce\n")


# sin^2 + cos^2 = 1 lies outside the rewrite set, so a residual built on it
# samples to zero without a zero normal form: its verdict is Unknown
PYTHAGORAS = "sin(u)^2+cos(u)^2-1"


@pytest.mark.parametrize(
    "command, name, old, new, names",
    [
        (
            "theorem2",
            "exp_coupled_pair",
            "row=0,v_1\n",
            f"row=0,v_1+({PYTHAGORAS})*u_1\n",
            ["pointwise twist condition", "contracted twist condition"],
        ),
        (
            "equivalence",
            "identity_twist_quotient",
            "row=0,u_1/u\n",
            f"row={PYTHAGORAS},u_1/u\n",
            ["induced twist matches the session twist", "transport equation D_x A = A sigma"],
        ),
        (
            "bridge",
            "component_bridge",
            "row=0,u + v\n",
            f"row={PYTHAGORAS},u + v\n",
            ["twists agree on the first jet bundle"],
        ),
    ],
    ids=["theorem2", "equivalence", "bridge"],
)
def test_unknown_member_makes_a_check_set_unknown(command, name, old, new, names, tmp_path, capsys):
    """A folded entry with an Unknown member and no NonZero one is reported
    as Unknown, and the command exits 2."""
    session = _copy(name, tmp_path, old, new)
    assert main([command, "--session", str(session)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("[UNKNOWN]")] == [f"[UNKNOWN] {n}: Unknown" for n in names]
    assert not [ln for ln in lines if ln.startswith("[FAIL]")]
    assert lines[-1] == "exit: 2"
