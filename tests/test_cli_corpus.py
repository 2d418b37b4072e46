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


def test_compare_marks_and_counts_the_runs_whose_exit_code_moved(tmp_path, capsys):
    """``--compare`` exits 0 on equal corpora and 1 on different ones, marks
    each argv whose exit code moved and ends with the count of both."""
    base = {"a": [0, "x\n", ""], "b": [1, "y\n", ""], "c": [2, "", "e\n"]}
    moved = {"a": [0, "x!\n", ""], "b": [0, "y\n", ""], "d": [0, "", ""]}
    paths = []
    for name, records in (("base", base), ("same", dict(base)), ("moved", {**base, **moved})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(records), encoding="utf-8")

    assert cli_corpus.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out == "0 of 3 runs differ, 0 in exit code\n"

    assert cli_corpus.main(["--compare", str(paths[0]), str(paths[2])]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("differs: ")] == [
        "differs: a", "differs: b  [exit 1 -> 0]", "differs: d",
    ]
    assert lines[-1] == "3 of 4 runs differ, 1 in exit code"
