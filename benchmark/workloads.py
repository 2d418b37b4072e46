"""The three benchmark workloads: seeded inputs, operations and output checks.

A workload is a fixed list of operations.  Each operation is one
``acausal-mbqc`` CLI command run in-process through ``cli.main`` (argument
parsing, graph loading and JSON emission included), except the causal shot
loop, which the CLI does not expose and which is called as
``game.girls_first_p0``.  Every operation names the exit code it must return
and a check that recomputes the expected values independently of the report.

Set-up (``write_inputs``) is the only place that draws from the benchmark
seed: it writes the graph JSON files, the angle lists and the CLI seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

TOL = 1e-9  # the CLI's default --tol; the checks below use the same

WORKLOADS = ("verify-dense", "table-large", "sweep-sample")


@dataclass(frozen=True)
class Op:
    """One operation of a workload pass.

    ``argv`` is the CLI argument list without ``--graph``; ``library`` ops
    leave it empty and run ``girls_first_p0`` instead.  ``check`` gets the
    parsed output and returns a problem description, or None when correct.
    ``repeat`` runs the operation twice per pass and requires byte-identical
    output (the determinism contract).
    """

    name: str
    graph: str
    n_comp: int
    n_out: int
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[["Op", object], str | None]
    repeat: bool = False
    library: bool = False
    params: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return "girls_first_p0" if self.library else self.argv[0]

    def describe(self) -> dict:
        return {"op": self.name, "command": self.command, "N": self.n_comp, "n": self.n_out}


# ---------------------------------------------------------------------------
# output checks: each recomputes its expectation from (N, n) alone


def _close(a, b, rel=TOL) -> bool:
    return a is not None and abs(float(a) - float(b)) <= rel * max(1.0, abs(float(b)))


def _trace_and_positivity(op: Op, doc) -> str | None:
    want = 2.0 ** (op.n_comp + op.n_out)
    if not _close(doc.get("trace"), want):
        return f"trace {doc.get('trace')!r} != 2^(N+n) = {want}"
    if doc.get("min_eigenvalue") is None or doc["min_eigenvalue"] < -TOL:
        return f"min_eigenvalue {doc.get('min_eigenvalue')!r} < -{TOL}"
    return None


def check_verify(op: Op, doc) -> str | None:
    problem = _trace_and_positivity(op, doc)
    if problem:
        return problem
    if doc["branch_independence_max_dev"] > TOL:
        return f"branch dependence {doc['branch_independence_max_dev']!r}"
    agreement = doc.get("backend_agreement_max_dev")
    if agreement is None or agreement > TOL:
        return f"dense/factorized agreement {agreement!r} (the dense oracle must run)"
    normalized = doc["normalization_dev"] <= TOL
    if normalized != (op.expect_exit == 0):
        return f"normalization_dev {doc['normalization_dev']!r} contradicts the expected verdict"
    return None


def check_resource_pm(op: Op, doc) -> str | None:
    if doc.get("num_qubits") != 2 * (op.n_comp + op.n_out):
        return f"num_qubits {doc.get('num_qubits')!r} != 2(N+n)"
    return _trace_and_positivity(op, doc)


def check_signal(op: Op, doc) -> str | None:
    tv = doc.get("signaling_tv")
    if tv is None or not (0.0 <= tv <= 1.0 + TOL):
        return f"signaling_tv {tv!r} outside [0, 1]"
    return None


def check_game(op: Op, doc) -> str | None:
    bound = 0.5 * (1.0 + 2.0 ** -op.n_out)
    if not _close(doc.get("p0_acausal"), 1.0):
        return f"p0_acausal {doc.get('p0_acausal')!r} != 1"
    if not _close(doc.get("bound"), bound, rel=1e-15):
        return f"bound {doc.get('bound')!r} != (1 + 2^-n)/2 = {bound}"
    if doc.get("violated") is not True:
        return "violated is not true"
    if not _close(doc.get("p0_girls_first_corrected"), 1.0):
        return f"p0_girls_first_corrected {doc.get('p0_girls_first_corrected')!r} != 1"
    return None


def check_postselect(op: Op, doc) -> str | None:
    block = doc.get("postselect", {})
    want = 2.0 ** -(op.n_comp + op.n_out)
    if not _close(block.get("expected"), want, rel=1e-15):
        return f"expected acceptance {block.get('expected')!r} != 2^-(N+n) = {want}"
    if block.get("shots") != op.params["shots"] or block.get("tv") is None:
        return f"postselect block incomplete: {block!r}"
    return None


def check_pm_validate(op: Op, doc) -> str | None:
    if doc.get("family") != op.params["family"] or doc.get("trials") != op.params["trials"]:
        return f"family/trials {doc.get('family')!r}/{doc.get('trials')!r} not as requested"
    if op.params["family"] == "mbqc" and doc.get("passed") is not True:
        return f"mbqc family did not pass: max_deviation {doc.get('max_deviation')!r}"
    return None


def check_girls_first(op: Op, value) -> str | None:
    # the corrected causal pattern wins every shot: the estimate is exactly 1
    return None if value == 1.0 else f"corrected girls_first_p0 {value!r} != 1"


# ---------------------------------------------------------------------------
# seeded inputs


def _angle_csv(rng, count: int) -> str:
    return ",".join(repr(float(a)) for a in rng.uniform(0.0, 2.0 * math.pi, size=count))


def _graphs(workload: str, rng):
    """(key, graph, angle CSV or None) for every graph the workload needs, in a fixed order."""
    from acausal_mbqc import graphstate as gs

    def rand(n_comp, n_out):
        g = gs.random_resource_graph(rng, n_comp, n_out)
        return f"random{n_comp}x{n_out}", g, _angle_csv(rng, n_comp)

    if workload == "verify-dense":
        out = [(f"chain{k}", gs.chain(k), None) for k in (2, 3, 4, 5)]
        out.append(("pc22", gs.parallel_chains([2, 2]), None))
        out.append(("cycle4", gs.cycle_with_output(4), None))
        out += [rand(2, 2), rand(3, 2), rand(4, 1)]
        return out
    if workload == "table-large":
        out = [(f"chain{k}", gs.chain(k), None) for k in (6, 7)]
        out.append(("pc222", gs.parallel_chains([2, 2, 2]), None))
        out += [rand(5, 2), rand(4, 3)]
        return out
    if workload == "sweep-sample":
        out = [(f"chain{k}", gs.chain(k), None) for k in (4, 6)]
        out.append(("pc22", gs.parallel_chains([2, 2]), None))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Generate the workload's inputs from ``seed`` and write the graph files.

    Returns the input manifest: per graph key its file, N, n and angle CSV,
    plus the integer seeds handed to seeded CLI commands.
    """
    import numpy as np
    from acausal_mbqc import graphstate as gs

    rng = np.random.default_rng(seed)
    graphs = {}
    for key, g, angles in _graphs(workload, rng):
        path = os.path.join(directory, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gs.graph_to_json(g), fh)
        graphs[key] = {"path": path, "N": g.n_computation, "n": g.n_output, "angles": angles}
    cli_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=6)]
    return {"graphs": graphs, "cli_seeds": cli_seeds}


def operations(workload: str, manifest: dict) -> list[Op]:
    """The workload's operation list over the graphs in ``manifest``."""
    graphs = manifest["graphs"]
    seeds = manifest["cli_seeds"]

    def op(command, key, check, *extra, expect=0, repeat=False, params=None, label=None):
        info = graphs[key]
        argv = [command, "--json", *extra]
        if info["angles"] is not None:
            argv += ["--angles", info["angles"]]
        return Op(
            name=f"{label or command} {key}",
            graph=key,
            n_comp=info["N"],
            n_out=info["n"],
            argv=tuple(argv),
            expect_exit=expect,
            check=check,
            repeat=repeat,
            params=params or {},
        )

    if workload == "verify-dense":
        ops = [op("verify", f"chain{k}", check_verify) for k in (2, 3, 4, 5)]
        ops.append(op("verify", "pc22", check_verify))
        # the deliberate non-uniform red: normalization fails, exit 1
        ops.append(op("verify", "cycle4", check_verify, expect=1))
        ops += [
            op("verify", "random2x2", check_verify, repeat=True),
            op("verify", "random3x2", check_verify),
            op("verify", "random4x1", check_verify),
        ]
        return ops
    if workload == "table-large":
        ops = [op("signal", k, check_signal) for k in ("chain6", "chain7", "pc222", "random5x2")]
        ops.append(op("signal", "random4x3", check_signal, repeat=True))
        ops += [op("game", k, check_game) for k in ("chain6", "pc222")]
        ops.append(op("resource-pm", "chain6", check_resource_pm))
        return ops
    if workload == "sweep-sample":
        trials = 200  # the CLI's default trial count, passed explicitly
        ops = [
            op(
                "pm-validate", key, check_pm_validate,
                "--shots", str(trials), "--seed", str(seeds[i]),
                params={"family": "mbqc", "trials": trials},
            )
            for i, key in enumerate(("chain4", "pc22"))
        ]
        ops.append(
            op(
                "pm-validate", "chain4", check_pm_validate,
                "--family", "rank1", "--shots", str(trials), "--seed", str(seeds[2]),
                params={"family": "rank1", "trials": trials}, label="pm-validate-rank1",
            )
        )
        shots = 4_000_000
        ops += [
            op(
                "postselect", key, check_postselect,
                "--shots", str(shots), "--seed", str(seed),
                repeat=(key == "chain4"), params={"shots": shots},
            )
            for key, seed in (("chain4", seeds[3]), ("chain6", seeds[4]))
        ]
        info = graphs["chain4"]
        ops.append(
            Op(
                name="girls_first_p0 chain4",
                graph="chain4",
                n_comp=info["N"],
                n_out=info["n"],
                argv=(),
                expect_exit=0,
                check=check_girls_first,
                library=True,
                params={"shots": 3000, "seed": seeds[5]},
            )
        )
        return ops
    raise ValueError(f"unknown workload {workload!r}")
