"""The command line's byte pin: every run of ``cli_corpus.json`` still gives
the exit code, stdout and stderr the file records.

The corpus is rebuilt once per session by ``cli_corpus.corpus()`` (the
``corpus_build`` fixture of ``conftest.py``) and compared command by
command, so a failure names each argv whose record moved and prints both
records.  A change that moves bytes on purpose rewrites the
file with ``python3 tests/cli_corpus.py tests/cli_corpus.json``.
"""

import json
from pathlib import Path

import pytest

import cli_corpus

PINNED_FILE = Path(__file__).parent / "cli_corpus.json"
PINNED = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
COMMANDS = sorted({argv.split()[0] for argv in PINNED} | set(cli_corpus.FLAG_SETS))


@pytest.mark.parametrize("command", COMMANDS)
def test_every_run_keeps_its_bytes(corpus_build, command):
    records = corpus_build[0]
    moved = [argv for argv in cli_corpus.compare(PINNED, records) if argv.split()[0] == command]
    if moved:
        lines = cli_corpus.describe(moved, PINNED, records, ("pinned", "now"))
        head = f"{len(moved)} {command} runs moved from {PINNED_FILE.name}:"
        pytest.fail("\n".join([head, *lines]), pytrace=False)


def test_every_run_exits_0_1_or_2(corpus_build):
    """The exit-code contract; an exception that escapes ``cli.main`` is
    recorded as a string in place of the code, and a bool or float is no code."""
    for name, records in (("pinned", PINNED), ("now", corpus_build[0])):
        bad = {argv: code for argv, (code, _, _) in records.items()
               if type(code) is not int or code not in (0, 1, 2)}
        assert not bad, f"{name}: {bad}"


def test_a_build_restores_the_working_directory_and_the_cap_variable(corpus_build):
    _, before, after = corpus_build
    assert after == before
