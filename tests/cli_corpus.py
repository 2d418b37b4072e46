"""Byte corpus of the command line: every command's output on fixed inputs.

    python3 tests/cli_corpus.py OUT.json
    python3 tests/cli_corpus.py --compare A.json B.json

The first form runs every command, in text and ``--json`` form, with each
of a fixed list of flag sets (refusals included) on each of a fixed list of
graphs, plus a few argvs fixed per graph, through ``cli.main`` in this
process, and writes ``{argv: [exit, stdout, stderr]}`` to OUT.json.  The
graph files are written under relative names into a fresh working directory,
so every path an error message names is the same on every run; the caller's
working directory and ``ACAUSAL_MBQC_CAP`` are restored afterwards.  The
package is imported from the ``src`` directory beside this file, so a corpus
written from a checkout describes that checkout.

The second form lists every argv whose exit code, stdout or stderr differs
between two corpora, or that only one of them holds, and exits 1 if there is
any.

``cli_corpus.json`` beside this file is the corpus of the current code, and
``test_cli_corpus.py`` rebuilds it on every test run, so it pins every byte
the command line prints.  A change that moves bytes on purpose rewrites it
with ``python3 tests/cli_corpus.py tests/cli_corpus.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from acausal_mbqc import cli, config, graphstate  # noqa: E402

GRAPHS = {
    "chain2": graphstate.chain(2),
    "chain3": graphstate.chain(3),
    "chain4": graphstate.chain(4),
    "chain5": graphstate.chain(5),
    "chain6": graphstate.chain(6),
    "pc23": graphstate.parallel_chains([2, 3]),
    "pc22": graphstate.parallel_chains([2, 2]),
    "pc222": graphstate.parallel_chains([2, 2, 2]),
    "vee": graphstate.vee_graph(),
    "cycle3": graphstate.cycle_with_output(3),
    "cycle4": graphstate.cycle_with_output(4),
    "cycle5": graphstate.cycle_with_output(5),
    "chain15": graphstate.chain(15),
}
# files the flag sets name besides the graphs: a graph file that is no graph,
# and the chain pattern of chain(4) written out by hand
EXTRA_FILES = {
    "broken.json": "{\"vertices\": []}",
    "pattern.json": json.dumps({
        "order": ["c0", "c1", "c2"],
        "angles": {"c0": 0.0, "c1": 0.0, "c2": 0.0},
        "x_deps": {"c1": ["c0"], "c2": ["c1"]},
        "z_deps": {"c2": ["c0"]},
        "out_x_deps": {"o0": ["c2"]},
        "out_z_deps": {"o0": ["c1"]},
    }),
}

FLAG_SETS = {
    "graph-state": [[], ["--tol", "0"], ["--cap", "3"], ["--tol", "-1"], ["--cap", "0"]],
    "resource-pm": [[], ["--tol", "0"], ["--cap", "5"], ["--tol", "nan"]],
    "verify": [
        [],
        ["--angles", "0.7"],
        ["--angles", "0.3,1.1,0.2"],
        ["--shots", "2000", "--seed", "7", "--angles", "0.4"],
        ["--shots", "1000", "--angles-b", "0.1,0.2"],
        ["--angles", "inf"],
        ["--cap", "5"],
    ],
    "signal": [
        [],
        ["--angles", "0.7"],
        ["--angles", "0.3", "--angles-b", "1.2"],
        ["--angles", "x"],
        ["--angles-b", "1,2,3,4,5,6,7"],
    ],
    "postselect": [
        ["--shots", "5000"],
        ["--shots", "5000", "--seed", "3", "--angles", "0.4"],
        ["--shots", "2000", "--angles", "0.2,0.4"],
        ["--shots", "-1"],
        ["--seed", "-1"],
    ],
    "game": [
        [],
        ["--angles", "0.5"],
        ["--angles", "0,0"],
        ["--pattern", "pattern.json"],
        ["--pattern", "missing.json"],
        ["--cap", "3"],
        ["--cap", "15"],
    ],
    "pm-validate": [
        [],
        ["--shots", "50", "--seed", "11"],
        ["--family", "rank1", "--shots", "300", "--seed", "3"],
        ["--family", "rank1", "--tol", "10"],
        ["--shots", "100", "--tol", "1e-3"],
        ["--shots", "-1"],
        ["--cap", "5"],
    ],
}


def _checking_argvs(angles: str) -> list[list[str]]:
    """The ``--json`` reports of a graph with one angle per computation vertex;
    the flagless ``--json`` runs of the other commands are ``FLAG_SETS`` runs."""
    return [
        ["verify", "--json", "--angles", angles],
        ["signal", "--json", "--angles", angles],
        ["postselect", "--json", "--angles", angles, "--shots", "20000", "--seed", "7"],
        ["pm-validate", "--json", "--shots", "50", "--seed", "11"],
        ["pm-validate", "--json", "--family", "rank1", "--shots", "50", "--seed", "11"],
    ]


# argvs run on one graph only, without their "--graph FILE": on chain(3) and
# pc22 the folded table equals W's bit for bit, on chain(4) it does not, and
# the vee's branches are not uniform, so its verify and mbqc sweep fail
GRAPH_ARGVS = {
    "chain3": _checking_argvs("0.3,1.1"),
    "pc22": _checking_argvs("0.3,1.1"),
    "chain4": _checking_argvs("0.3,0.7,1.1"),
    "vee": [
        ["verify", "--json", "--angles", "0.7"],
        ["pm-validate", "--json", "--shots", "50", "--seed", "11"],
        ["pm-validate", "--json", "--family", "rank1", "--shots", "300", "--seed", "3"],
    ],
}


def run(argv: list[str]) -> list:
    """[exit, stdout, stderr] of one ``cli.main`` call; an exception that
    escapes it is recorded in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is corpus content
            code = f"uncaught {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def corpus() -> dict[str, list]:
    """Every command x flag set x text/--json x graph, and every argv of
    ``GRAPH_ARGVS``, run in a fresh directory under the default cap."""
    here, cap = os.getcwd(), os.environ.pop(config.CAP_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, g in GRAPHS.items():
                Path(f"{name}.json").write_text(json.dumps(graphstate.graph_to_json(g)))
            for name, text in EXTRA_FILES.items():
                Path(name).write_text(text)
            out = {}
            for command, flag_sets in FLAG_SETS.items():
                for flags in flag_sets:
                    for form in ([], ["--json"]):
                        for graph in [*GRAPHS, "broken"]:
                            argv = [command, "--graph", f"{graph}.json", *flags, *form]
                            out[" ".join(argv)] = run(argv)
            for graph, argvs in GRAPH_ARGVS.items():
                for command, *flags in argvs:
                    argv = [command, "--graph", f"{graph}.json", *flags]
                    out[" ".join(argv)] = run(argv)
            return out
        finally:
            os.chdir(here)
            if cap is not None:
                os.environ[config.CAP_ENV_VAR] = cap


def compare(a: dict, b: dict) -> list[str]:
    """The argvs whose records differ, or that only one corpus holds."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def describe(argvs: list[str], a: dict, b: dict, names: tuple[str, str]) -> list[str]:
    """Each argv with its record in both corpora (None where one lacks it)."""
    lines = []
    for argv in argvs:
        lines.append(f"differs: {argv}")
        lines += [f"  {name}: {records.get(argv)!r}" for name, records in zip(names, (a, b))]
    return lines


def main(args: list[str]) -> int:
    if len(args) == 3 and args[0] == "--compare":
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args[1:])
        differ = compare(a, b)
        for line in describe(differ, a, b, (args[1], args[2])):
            print(line)
        print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
        return 1 if differ else 0
    if len(args) == 1:
        records = corpus()
        Path(args[0]).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        exits: dict = {}
        for code, _, _ in records.values():
            exits[code] = exits.get(code, 0) + 1
        print(f"{len(records)} runs, exits {dict(sorted(exits.items(), key=str))}")
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
