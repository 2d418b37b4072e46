"""The 27 golden ``--json`` reports, each a record of the CLI byte corpus.

``verify``, ``resource-pm`` and ``pm-validate`` check the paper's identities
on the literal W, so their reports must not move when the commands that only
use the resource read the folded table instead.  Each case names a graph of
``cli_corpus.GRAPHS`` and an argv without its ``--graph FILE``; its corpus
key is the argv with ``--graph GRAPH.json`` after the command.  The case
must be a record of ``cli_corpus.json``, and the corpus rebuilt in this
session must give it the same exit code, stdout and stderr, so the corpus
file stays the one pin of the bytes.

The checking commands' cases were captured at commit 76832be, whose every
table contracted the literal W.  The ``backend_agreement_max_dev`` line of
the chain(3) and chain(4) ``verify`` cases was re-captured when that field
moved from the dense oracle to the positive-branch walk; every other byte of
those cases is the 76832be capture.  That line of the chain(3) and chain(4)
``verify`` cases was re-captured once more when the agreement moved from
the walk to a direct contraction of the positive branch on the plain
state; the pc22 cases did not move.  The use commands'
cases (``signal``, ``game``, ``postselect`` and ``graph-state``) were
captured at commit 2ba7c17; ``game`` on chain(3) exits 2 with empty stdout,
since an odd chain is no deterministic game instance, and ``postselect`` at
20 000 shots exits 1, its TV above the 0.02 limit.  The vee cases were
captured at commit 5e53d4c: the vee's branches are not uniform, so its
``verify`` and mbqc ``pm-validate`` reports are the failing ones (exit 1,
the latter naming its worst trial), and its rank-1 sweep runs 300 trials.
"""

import json
from pathlib import Path

import pytest

import cli_corpus

PINNED = json.loads((Path(__file__).parent / "cli_corpus.json").read_text(encoding="utf-8"))


def _cases(graph: str, angles: str) -> dict[str, tuple[str, str]]:
    """The 8 golden cases of a graph with one angle per computation vertex."""
    return {
        f"game-{graph}": (graph, "game --json"),
        f"graph-state-{graph}": (graph, "graph-state --json"),
        f"pm-validate-{graph}": (graph, "pm-validate --json --shots 50 --seed 11"),
        f"pm-validate-rank1-{graph}":
            (graph, "pm-validate --json --family rank1 --shots 50 --seed 11"),
        f"postselect-{graph}":
            (graph, f"postselect --json --angles {angles} --shots 20000 --seed 7"),
        f"resource-pm-{graph}": (graph, "resource-pm --json"),
        f"signal-{graph}": (graph, f"signal --json --angles {angles}"),
        f"verify-{graph}": (graph, f"verify --json --angles {angles}"),
    }


GOLDEN = {
    **_cases("chain3", "0.3,1.1"),
    **_cases("chain4", "0.3,0.7,1.1"),
    **_cases("pc22", "0.3,1.1"),
    "pm-validate-rank1-vee": ("vee", "pm-validate --json --family rank1 --shots 300 --seed 3"),
    "pm-validate-vee": ("vee", "pm-validate --json --shots 50 --seed 11"),
    "verify-vee": ("vee", "verify --json --angles 0.7"),
}


def corpus_key(graph: str, argv: str) -> str:
    command, _, flags = argv.partition(" ")
    return f"{command} --graph {graph}.json {flags}"


@pytest.mark.parametrize("case", GOLDEN.values(), ids=GOLDEN.keys())
def test_checking_reports_keep_their_bytes(corpus_build, case):
    graph, argv = case
    assert graph in cli_corpus.GRAPHS
    key = corpus_key(graph, argv)
    assert key in PINNED, f"golden case {key!r} is no corpus record"
    assert corpus_build[0][key] == PINNED[key]
