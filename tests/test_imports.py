"""Every module-level import of the library is used: referenced somewhere in
its module or re-exported through ``__all__``; importing the command-line
front end, and running it on a session that integrates, leaves numpy
unloaded, and only the functions in ``NUMPY_IMPORTERS`` import it; only ``exprs`` splits names at "_", so
how a name such as ``u_3`` encodes a jet coordinate is decided in one module
(``SymbolTable.lookup`` and ``SymbolTable.jet_index``); outside ``exprs`` an
expression's sympy tree (``.sym``) is read only by the few functions that
print, compile or reshape it (``TREE_READERS``); outside ``exprs`` a
zero-test verdict is read only by the few functions that word an error or
write a report entry (``VERDICT_READERS``), so every set of verdicts is
folded by ``exprs.CheckResult``; a field element is formed from a numerator
and a denominator by one routine, ``exprs._sum_quotients``
(``FIELD_NEW_CALLERS``), which only the callers in
``SUM_QUOTIENTS_CALLERS`` call, and over one lcm routine, ``exprs._on_lcm``, so
no ``.lcm(`` or ``.exquo(`` call appears; one function,
``jets.total_derivative``, keeps a result in an expression's ``_dx`` slot,
which the constructors only clear
(``DX_WRITERS``); ``MissingSessionDataError`` is raised by
``Session.require`` alone, so a command's needs are checked in one place
(``MISSING_DATA_RAISERS``); and only the zero test
(``exprs``) and the jet-point sampler (``oracle``) draw random numbers, so no
other verdict depends on a seed.  No library call picks its own sample count
or seed either: ``trials=`` and ``seed=`` only forward the caller's values.
Every function the benchmark's tracer wraps (``perfbench/tracing.py``
``TARGETS``) exists where it says, and it traces every gallery builder."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "jetsigma")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert _unused_imports(tree) == []


def _underscore_splits(tree: ast.Module) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("partition", "rpartition", "split", "rsplit")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "_"
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "exprs.py"])
def test_jet_names_decoded_only_in_exprs(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert _underscore_splits(tree) == []


# (module, qualified function name) pairs allowed to read ``Expr.sym``
TREE_READERS = {
    ("jets.py", "VectorField.__str__"),
    ("oracle.py", "integrate"),
    ("oracle.py", "invariant_along_trajectory"),
    ("reduction.py", "reduce_system"),
    ("involution.py", "_strip_rational_content"),
}


def _tree_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each ``.sym`` read."""
    reads = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == "sym":
            reads.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return reads


@pytest.mark.parametrize("module", [m for m in MODULES if m != "exprs.py"])
def test_trees_read_only_at_the_edges(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert [(scope, line) for scope, line in _tree_reads(tree) if (module, scope) not in TREE_READERS] == []


# (module, qualified function name) pairs allowed to call ``.new(`` or
# ``.field_new(`` on a field, which cancel; ``raw_new`` (moves, numbers,
# signs) does not cancel
FIELD_NEW_CALLERS = {("exprs.py", "_sum_quotients")}


def _field_new_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each ``.new(`` and
    ``.field_new(`` call."""
    calls = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("new", "field_new")
        ):
            calls.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return calls


@pytest.mark.parametrize("module", MODULES)
def test_quotients_formed_in_one_routine(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert [
        (scope, line) for scope, line in _field_new_calls(tree) if (module, scope) not in FIELD_NEW_CALLERS
    ] == []


def test_field_new_guard_sees_a_call():
    """The guard flags a quotient formed outside the routine, and only that."""
    tree = ast.parse(
        "def f(field, n, d):\n    field.raw_new(n, d)\n    field.field_new(n)\n    return field.new(n, d)\n"
    )
    assert _field_new_calls(tree) == [("f", 3), ("f", 4)]


# (module, qualified function name) pairs allowed to call
# ``exprs._sum_quotients``: the field operations of ``exprs``, the tree
# reader, and in ``linalg`` only the elimination results and the entries of
# ``ExprMatrix.combination``, so a matrix formula forms each entry once
SUM_QUOTIENTS_CALLERS = {
    ("exprs.py", "_exp_terms"),
    ("exprs.py", "_from_tree"),
    ("exprs.py", "derivation"),
    ("exprs.py", "_sum"),
    ("exprs.py", "_product"),
    ("exprs.py", "substitute"),
    ("determining.py", "collect_coefficients"),
    ("linalg.py", "_lift"),
    ("linalg.py", "ExprMatrix.combination"),
}


def _sum_quotients_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each
    ``_sum_quotients(`` call, by bare or dotted name."""
    calls = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name == "_sum_quotients":
                calls.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return calls


def test_sum_quotients_callers_are_pinned():
    """Every caller of the one quotient rule is listed, and every listed
    caller still calls it."""
    found = set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found.update((module, scope) for scope, _ in _sum_quotients_calls(ast.parse(fh.read(), module)))
    assert found == SUM_QUOTIENTS_CALLERS


def test_sum_quotients_guard_sees_a_call():
    """The guard flags a call by bare and by dotted name, in a method, and
    not the name read without a call."""
    tree = ast.parse(
        "class M:\n"
        "    def f(self, field, pairs):\n"
        "        a = _sum_quotients(field, pairs)\n"
        "        b = exprs._sum_quotients(field, pairs)\n"
        "        return _sum_quotients\n"
    )
    assert _sum_quotients_calls(tree) == [("M.f", 3), ("M.f", 4)]


def test_parser_forms_no_field_element():
    """The parser builds a tree for the one tree reader: it names no kernel
    or atom constructor, no number constructor and not the ambient field."""
    with open(os.path.join(SRC, "exprs.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), "exprs.py")
    (parser,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Parser"]
    names = {n.id for n in ast.walk(parser) if isinstance(n, ast.Name)}
    numbers = [
        n.lineno
        for n in ast.walk(parser)
        if isinstance(n, ast.Attribute) and n.attr == "number" and isinstance(n.value, ast.Name) and n.value.id == "Expr"
    ]
    assert names & {"_kernel", "_atom", "_AMBIENT"} == set()
    assert numbers == []


# (module, qualified function name) pairs allowed to write an expression's
# kept total derivative; the constructors' ``_dx`` of None is no write
DX_WRITERS = {("jets.py", "total_derivative")}


def _dx_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each write of a
    value other than None to ``_dx``: an assignment to ``._dx`` or a
    ``setattr``/``__setattr__`` call naming "_dx"."""
    writes = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Assign):
            writes.extend((scope, node.lineno) for t in node.targets if isinstance(t, ast.Attribute) and t.attr == "_dx")
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            args = node.args
            if (
                name in ("setattr", "__setattr__")
                and len(args) == 3
                and isinstance(args[1], ast.Constant)
                and args[1].value == "_dx"
                and not (isinstance(args[2], ast.Constant) and args[2].value is None)
            ):
                writes.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return writes


@pytest.mark.parametrize("module", MODULES)
def test_total_derivatives_kept_by_one_function(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert [(scope, line) for scope, line in _dx_writes(tree) if (module, scope) not in DX_WRITERS] == []


def test_dx_guard_sees_a_write():
    """The guard flags a result kept outside the one function, and not a
    constructor's clearing of the slot."""
    tree = ast.parse(
        "def f(e, images, d):\n"
        "    object.__setattr__(e, '_dx', None)\n"
        "    object.__setattr__(e, '_dx', (images, d))\n"
        "    setattr(e, '_dx', (images, d))\n"
        "    e._dx = (images, d)\n"
    )
    assert _dx_writes(tree) == [("f", 3), ("f", 4), ("f", 5)]


# the one (module, qualified function name) pair allowed to construct
# ``MissingSessionDataError``
MISSING_DATA_RAISERS = {("session.py", "Session.require")}


def _missing_data_errors(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each
    ``MissingSessionDataError(`` call, by bare or dotted name."""
    calls = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name == "MissingSessionDataError":
                calls.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return calls


@pytest.mark.parametrize("module", MODULES)
def test_missing_data_raised_in_one_place(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert [
        (scope, line) for scope, line in _missing_data_errors(tree) if (module, scope) not in MISSING_DATA_RAISERS
    ] == []


def test_missing_data_guard_sees_a_raise():
    """The guard flags an error raised outside ``Session.require``, and only
    a construction of it."""
    tree = ast.parse(
        "def f(s):\n"
        "    if s.fields is None:\n"
        "        raise MissingSessionDataError('fields')\n"
        "    if 'A' not in s.matrices:\n"
        "        raise session.MissingSessionDataError('matrix A')\n"
        "    return isinstance(s, MissingSessionDataError)\n"
    )
    assert _missing_data_errors(tree) == [("f", 3), ("f", 5)]


# (module, qualified function name) pairs allowed to read a verdict's
# ``.is_zero``, ``.is_nonzero`` or ``.status``
VERDICT_READERS = {
    ("reduction.py", "ODESystem.__init__"),
    ("reduction.py", "CoordinateChange.__init__"),
    ("invariants.py", "generate_invariants.certify"),
    ("cli.py", "Report.check"),
}

LINEAR_SOLVE_STATUSES = {"solved", "inconsistent", "underdetermined"}


def _verdict_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each read of
    ``.is_zero``, ``.is_nonzero`` or ``.status``.  A method call such as
    ``StructureFunctions.is_zero()`` is no read, and neither is a ``.status``
    compared only with ``linear_solve`` statuses."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Attribute)
            and node.left.attr == "status"
            and all(isinstance(c, ast.Constant) and c.value in LINEAR_SOLVE_STATUSES for c in node.comparators)
        ):
            skip.add(id(node.left))
    reads = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("is_zero", "is_nonzero", "status")
            and id(node) not in skip
        ):
            reads.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return reads


@pytest.mark.parametrize("module", [m for m in MODULES if m != "exprs.py"])
def test_verdicts_read_only_where_worded(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert [
        (scope, line) for scope, line in _verdict_reads(tree) if (module, scope) not in VERDICT_READERS
    ] == []


def test_verdict_guard_sees_a_fold():
    """The guard flags a module that folds verdicts on its own."""
    tree = ast.parse(
        "def f(vs, result):\n"
        "    if result.status == 'inconsistent':\n"
        "        return None\n"
        "    return all(v.is_zero for v in vs) or vs[0].status == 'unknown' or vs[0].is_nonzero\n"
    )
    assert _verdict_reads(tree) == [("f", 4), ("f", 4), ("f", 4)]


def _lcm_calls(tree: ast.Module) -> list[int]:
    """Lines of ``.lcm(`` and ``.exquo(`` calls: a polynomial lcm taken, or a
    denominator divided out of one, outside ``exprs._on_lcm``'s cofactors."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("lcm", "exquo")
    ]


@pytest.mark.parametrize("module", MODULES)
def test_one_lcm_routine(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert _lcm_calls(tree) == []


def test_lcm_guard_sees_a_call():
    """The guard flags an lcm or an exact quotient taken on its own, and not
    the cofactors the one routine uses."""
    tree = ast.parse(
        "def f(a, b):\n"
        "    _, x, y = a.cofactors(b)\n"
        "    m = a.lcm(b)\n"
        "    return m.exquo(b), math.lcm(2, 3), lcm\n"
    )
    assert _lcm_calls(tree) == [3, 4, 4]


def _imports_random(tree: ast.Module) -> bool:
    return any(
        (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "random")
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("exprs.py", "oracle.py")])
def test_random_only_in_zero_test_and_sampler(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert not _imports_random(tree)


def _forwarded(value: ast.expr, params: frozenset) -> bool:
    """A parameter of an enclosing function, or a parsed option ``args.*``."""
    if isinstance(value, ast.Name):
        return value.id in params
    return isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) and value.value.id == "args"


def _chosen_trials_or_seed(tree: ast.Module) -> list[int]:
    """Lines of calls that pass ``trials=`` or ``seed=`` a value of their own
    (a constant, arithmetic, a local) instead of forwarding one."""
    lines = []

    def visit(node: ast.AST, params: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = params | {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]}
        if isinstance(node, ast.Call):
            lines.extend(
                node.lineno
                for kw in node.keywords
                if kw.arg in ("trials", "seed") and not _forwarded(kw.value, params)
            )
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_sample_counts_and_seeds_only_forwarded(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert _chosen_trials_or_seed(tree) == []


def test_cli_import_leaves_numpy_unloaded():
    """numpy is imported by the functions that integrate, not at start-up."""
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, jetsigma.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def _fresh(code: str) -> list[str]:
    """The lines a fresh interpreter prints to standard error running
    ``code`` against this source tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stderr.split()


@pytest.mark.parametrize("session", ["scaling_pair", "exp_coupled_pair"])
def test_oracle_report_leaves_numpy_unloaded(session):
    """``all`` on a session with an [oracle] section integrates twice and
    reports the end points without loading numpy."""
    path = os.path.join(SRC, "sessions", f"{session}.session")
    code = (
        "import sys\n"
        "from jetsigma.cli import main\n"
        f"status = main(['all', '--session', {path!r}, '--json'])\n"
        "print(status, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    assert _fresh(code) == ["0", "False"]


def test_trajectory_arrays_load_numpy_on_first_read():
    """``integrate`` and ``end`` leave numpy unloaded; reading ``samples``
    builds the arrays and loads it."""
    code = (
        "import sys\n"
        "from jetsigma import gallery\n"
        "from jetsigma.oracle import integrate\n"
        "case = gallery.exp_coupled_pair()\n"
        "traj = integrate(case.system, {'u': 0, 'v': 0, 'u_1': 1, 'v_1': 1}, (0.0, 0.1), 1e-2)\n"
        "traj.end\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "traj.samples\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    assert _fresh(code) == ["False", "True"]


# (module, qualified function name) pairs allowed to import numpy: the
# trajectory's array builders and the functions that compare or evaluate
# along whole trajectories; an import under ``if TYPE_CHECKING:`` never runs
NUMPY_IMPORTERS = {
    ("oracle.py", "Trajectory.ts"),
    ("oracle.py", "Trajectory.samples"),
    ("oracle.py", "Trajectory.same_grid"),
    ("oracle.py", "invariant_along_trajectory"),
    ("reduction.py", "reconstruction_check"),
}


def _numpy_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each import of
    numpy or a numpy submodule, outside ``if TYPE_CHECKING:`` blocks."""
    imports = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child, scope)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        if any(m == "numpy" or m.startswith("numpy.") for m in modules):
            imports.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return imports


def test_numpy_importers_are_pinned():
    """numpy is imported only where whole arrays are read or built, so a
    command that reads only end points never loads it."""
    found = set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found.update((module, scope) for scope, _ in _numpy_imports(ast.parse(fh.read(), module)))
    assert found == NUMPY_IMPORTERS


def test_numpy_guard_sees_an_import():
    """The guard flags ``import numpy``, a submodule and ``from numpy
    import``, at module level and in a method, and skips a type-checking
    import and a module whose name only starts with numpy."""
    tree = ast.parse(
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "import numpy\n"
        "import numpyx\n"
        "class T:\n"
        "    def f(self):\n"
        "        import numpy.linalg\n"
        "        from numpy import array\n"
        "        from . import numpy_tools\n"
    )
    assert _numpy_imports(tree) == [("", 3), ("T.f", 7), ("T.f", 8)]


def _tracing():
    path = os.path.join(SRC, "..", "..", "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_trace_targets_resolve():
    """A renamed or moved library function would drop out of the per-layer
    trace silently; each target must be defined on the owner it names, as
    ``Tracer.install`` reads it."""
    tracing = _tracing()
    missing = []
    for name, module, paths in tracing.TARGETS:
        home = importlib.import_module(f"jetsigma.{module}")
        for target in paths:
            try:
                owner, attr = tracing._resolve(home, target)
            except AttributeError:
                owner, attr = None, None
            if owner is None or attr not in vars(owner):
                missing.append(f"{name}: jetsigma.{module}.{target}")
    assert missing == []


def test_every_gallery_builder_is_traced():
    """A builder added to or dropped from the gallery must be added to or
    dropped from the benchmark's gallery.build span with it."""
    from jetsigma import gallery

    assert set(gallery.__all__) == set(_tracing()._GALLERY_BUILDERS)
