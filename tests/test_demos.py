"""Byte-for-byte gate on the demos: each script in ``demos/`` must exit 0
and print exactly its stored output.

An intended output change regenerates a golden with
``PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt``.
"""

import difflib
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, "..")
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(HERE, "golden", "demos")
NAMES = sorted(f[: -len(".txt")] for f in os.listdir(GOLDEN) if f.endswith(".txt"))


def test_every_demo_has_a_golden():
    assert NAMES == sorted(f[: -len(".py")] for f in os.listdir(DEMOS) if f.endswith(".py"))


@pytest.mark.parametrize("name", NAMES)
def test_demo_output_matches_golden(name):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name + ".py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    with open(os.path.join(GOLDEN, name + ".txt"), encoding="utf-8") as fh:
        expected = fh.read()
    if run.stdout != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            run.stdout.splitlines(keepends=True),
            f"golden/demos/{name}.txt",
            f"demos/{name}.py",
        )
        pytest.fail("demo output differs from golden:\n" + "".join(diff), pytrace=False)
