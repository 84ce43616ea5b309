"""Byte-for-byte gate on the bundled sessions: ``jetsigma all --json`` must
print exactly the stored report and exit with the stored status.  For two
sessions the text report, with the reduced session after it, is pinned too.

An intended output change regenerates the goldens with
``jetsigma all --session <file> --json > tests/golden/<name>.json`` and
``jetsigma all --session <file> > tests/golden/text/<name>.txt``.
"""

import difflib
import os

import pytest

from jetsigma import cli

HERE = os.path.dirname(__file__)
SESSIONS = os.path.join(HERE, "..", "src", "jetsigma", "sessions")
GOLDEN = os.path.join(HERE, "golden")
NAMES = sorted(f[: -len(".json")] for f in os.listdir(GOLDEN) if f.endswith(".json"))
TEXT_NAMES = sorted(f[: -len(".txt")] for f in os.listdir(os.path.join(GOLDEN, "text")))
# transposed_twist is the expected broken-involution finding
EXIT_STATUS = {"transposed_twist": 1}


def test_every_session_has_a_golden():
    sessions = sorted(f[: -len(".session")] for f in os.listdir(SESSIONS) if f.endswith(".session"))
    assert NAMES == sessions


def _check(name, argv, golden, capsys):
    status = cli.main(["all", "--session", os.path.join(SESSIONS, name + ".session"), *argv])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        expected = fh.read()
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            out.splitlines(keepends=True),
            f"golden/{golden}",
            " ".join(["jetsigma all", *argv]),
        )
        pytest.fail("report differs from golden:\n" + "".join(diff), pytrace=False)
    assert status == EXIT_STATUS.get(name, 0)


@pytest.mark.parametrize("name", NAMES)
def test_all_report_matches_golden(name, capsys):
    _check(name, ["--json"], name + ".json", capsys)


def test_text_goldens_cover_a_reduction_and_a_failure():
    assert TEXT_NAMES == ["exp_coupled_pair", "transposed_twist"]


@pytest.mark.parametrize("name", TEXT_NAMES)
def test_all_text_report_matches_golden(name, capsys):
    _check(name, [], os.path.join("text", name + ".txt"), capsys)
