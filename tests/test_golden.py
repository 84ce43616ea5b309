"""Byte-for-byte gate on the bundled sessions: ``jetsigma all --json`` must
print exactly the stored report and exit with the stored status.

An intended output change regenerates the goldens with
``jetsigma all --session <file> --json > tests/golden/<name>.json``.
"""

import difflib
import os

import pytest

from jetsigma import cli

HERE = os.path.dirname(__file__)
SESSIONS = os.path.join(HERE, "..", "src", "jetsigma", "sessions")
GOLDEN = os.path.join(HERE, "golden")
NAMES = sorted(f[: -len(".json")] for f in os.listdir(GOLDEN) if f.endswith(".json"))
# transposed_twist is the expected broken-involution finding
EXIT_STATUS = {"transposed_twist": 1}


def test_every_session_has_a_golden():
    sessions = sorted(f[: -len(".session")] for f in os.listdir(SESSIONS) if f.endswith(".session"))
    assert NAMES == sessions


@pytest.mark.parametrize("name", NAMES)
def test_all_report_matches_golden(name, capsys):
    status = cli.main(["all", "--session", os.path.join(SESSIONS, name + ".session"), "--json"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        expected = fh.read()
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            out.splitlines(keepends=True),
            f"golden/{name}.json",
            "jetsigma all --json",
        )
        pytest.fail("report differs from golden:\n" + "".join(diff), pytrace=False)
    assert status == EXIT_STATUS.get(name, 0)
