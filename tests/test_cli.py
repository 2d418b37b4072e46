"""Command-line interface: exit codes, report shapes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import acausal_mbqc
from acausal_mbqc import acausal, cli, config, graphstate, mbqc, procmat
from pm_reference import VEE


def graph_file(tmp_path, g, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(graphstate.graph_to_json(g)))
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    return graph_file(tmp_path, graphstate.chain(2), "p2")


@pytest.fixture
def p3_file(tmp_path):
    return graph_file(tmp_path, graphstate.chain(3), "p3")


@pytest.fixture
def vee_file(tmp_path):
    return graph_file(tmp_path, VEE, "vee")


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_passes_on_p2(capsys, p2_file):
    code, rep = run_json(capsys, ["verify", "--graph", p2_file, "--json"])
    assert code == 0
    assert rep["branch_independence_max_dev"] <= 1e-10
    assert rep["normalization_dev"] <= 1e-10
    assert rep["backend_agreement_max_dev"] <= 1e-10
    assert rep["trace"] == pytest.approx(4.0)
    # the five figures its exit code reads, and nothing else
    assert set(rep) == {
        "branch_independence_max_dev", "normalization_dev", "backend_agreement_max_dev",
        "trace", "min_eigenvalue",
    }


@pytest.mark.parametrize(
    "argv, builds, graph_states, factorized, dense, walks",
    [
        (["verify"], 1, 2, 1, 0, 0),
        (["postselect"], 1, 2, 2, 0, 0),
        (["game"], 1, 1, 1, 0, 1),
        (["signal"], 1, 1, 1, 0, 0),
        (["graph-state"], 1, 1, 0, 0, 0),
        (["resource-pm"], 1, 2, 0, 0, 0),
        (["pm-validate", "--shots", "5"], 1, 2, 1, 0, 0),
    ],
    ids=[
        "verify", "postselect", "game", "signal", "graph-state", "resource-pm",
        "pm-validate",
    ],
)
def test_builds_and_contractions_per_command(
    capsys, tmp_path, monkeypatch, argv, builds, graph_states, factorized, dense, walks
):
    """On chain(4) every command builds one resource, in ``cli.main``, and
    contracts at most one outcome table, its angle sets (or ``pm-validate``'s
    trials) stacked as trials, except ``postselect``, whose sampler contracts
    its Born cells in the same kernel as the table it is compared with; no
    command contracts the dense oracle.  Only ``game`` walks, once: its one
    split walk gives the validity gate and both girls-first scores, while
    ``verify``'s agreement contracts the positive
    branch of the plain state the resource holds.  Every command builds the
    plain graph state, and ``graph-state`` reports it; ``verify``,
    ``postselect``, ``resource-pm`` and ``pm-validate`` also build the
    decorated one, with the literal W or for the sampler; ``signal`` and
    ``game`` read the folded table and build no other state, ``game``'s walk
    starting from the plain state of the resource its instance holds."""
    calls = {}
    for owner, name in [
        (acausal, "build_resource_pm"),
        (graphstate, "graph_state"),
        (procmat, "_factorized_probability"),
        (procmat, "_dense_probability"),
        (mbqc, "_walk"),
    ]:
        real = getattr(owner, name)
        calls[name] = 0

        def counted(*a, _real=real, _name=name, **k):
            calls[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(owner, name, counted)
    path = graph_file(tmp_path, graphstate.chain(4), "p4")
    code, _ = run_json(capsys, [*argv, "--graph", path, "--json"])
    assert code == 0
    assert calls == {
        "build_resource_pm": builds,
        "graph_state": graph_states,
        "_factorized_probability": factorized,
        "_dense_probability": dense,
        "_walk": walks,
    }


def test_verify_fails_on_vee_at_random_angles(capsys, vee_file):
    code, rep = run_json(
        capsys, ["verify", "--graph", vee_file, "--angles", "0.8,2.2", "--json"]
    )
    assert code == 1
    assert rep["normalization_dev"] > 0.01
    assert rep["branch_independence_max_dev"] <= 1e-10


def test_json_output_is_byte_identical(capsys, p2_file):
    for argv in (
        ["postselect", "--graph", p2_file, "--shots", "5000", "--seed", "5", "--json"],
        # pm-validate's instruments come from block-wise draws of the seeded stream
        ["pm-validate", "--graph", p2_file, "--shots", "300", "--seed", "5", "--json"],
        ["pm-validate", "--graph", p2_file, "--family", "rank1", "--shots", "300",
         "--seed", "5", "--json"],
    ):
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second, argv


def test_parser_built_once_survives_usage_errors(capsys, p2_file):
    argv = ["verify", "--graph", p2_file, "--json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "--graph", p2_file, "--no-such-flag"]) == 2
    assert cli.main(["verify"]) == 2
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


def test_table_output_lists_sorted_keys(capsys, p2_file):
    """The table prints the --json document's value as Python prints it; on
    chain(2) the folded table gives 1 to within rounding."""
    code, rep = run_json(capsys, ["signal", "--graph", p2_file, "--json"])
    assert code == 0 and set(rep) == {"signaling_tv"}
    assert abs(rep["signaling_tv"] - 1.0) <= 1e-15
    code = cli.main(["signal", "--graph", p2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == f"signaling_tv = {rep['signaling_tv']}"


def test_graph_state_subcommand(capsys, p2_file):
    code, rep = run_json(capsys, ["graph-state", "--graph", p2_file, "--json"])
    assert code == 0
    assert rep["vertices"] == ["c0", "o0"]
    assert rep["stabilizer_max_deviation"] <= 1e-10
    amps = [complex(re, im) for re, im in rep["amplitudes"]]
    assert amps == [0.5, 0.5, 0.5, -0.5]


def test_resource_pm_subcommand(capsys, p2_file):
    code, rep = run_json(capsys, ["resource-pm", "--graph", p2_file, "--json"])
    assert code == 0
    assert rep["trace"] == pytest.approx(4.0)
    assert rep["num_qubits"] == 4
    assert rep["layout"]["A1"]["input"] == "c0"


def test_game_subcommand_pass_and_custom_pattern(capsys, p2_file, tmp_path):
    code, rep = run_json(capsys, ["game", "--graph", p2_file, "--json"])
    assert code == 0
    assert rep["violated"] is True

    # the chain pattern of chain(2)
    pattern = {"order": ["c0"], "angles": {"c0": 0.0}, "out_x_deps": {"o0": ["c0"]}}
    ppath = tmp_path / "pat.json"
    ppath.write_text(json.dumps(pattern))
    code2, rep2 = run_json(
        capsys, ["game", "--graph", p2_file, "--pattern", str(ppath), "--json"]
    )
    assert code2 == 0
    assert rep2 == rep


@pytest.mark.parametrize(
    "angles, message",
    [
        ([], "positive-branch output has fidelity"),
        (["--angles", "0"], "angle 0.0 at vertex 'c0' differs from the pattern's 1.0"),
        (["--angles", "1.0,0,0"], "positive-branch output has fidelity"),
    ],
    ids=["pattern-angles", "other-angles", "same-angles"],
)
def test_game_plays_the_angles_of_its_pattern(capsys, tmp_path, angles, message):
    """chain(4) with angle 1.0 at c0 is not a deterministic instance (its
    corrected girls-first score is 0.770): without --angles the gate tests
    the pattern's own angles, and --angles may only repeat them."""
    g = graphstate.chain(4)
    path = graph_file(tmp_path, g, "p4")
    ppath = tmp_path / "pat.json"
    ppath.write_text(json.dumps({  # the chain pattern of chain(4) at angles (1, 0, 0)
        "order": ["c0", "c1", "c2"],
        "angles": {"c0": 1.0, "c1": 0.0, "c2": 0.0},
        "x_deps": {"c1": ["c0"], "c2": ["c1"]},
        "z_deps": {"c2": ["c0"]},
        "out_x_deps": {"o0": ["c2"]},
        "out_z_deps": {"o0": ["c1"]},
    }))
    code = cli.main(["game", "--graph", path, "--pattern", str(ppath), *angles, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_game_rejects_invalid_instance(capsys, p3_file):
    code = cli.main(["game", "--graph", p3_file])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_pm_validate_families(capsys, p2_file):
    code, rep = run_json(
        capsys, ["pm-validate", "--graph", p2_file, "--shots", "20", "--json"]
    )
    assert code == 0
    assert rep["family"] == "mbqc"
    assert rep["passed"] is True

    code2, rep2 = run_json(
        capsys,
        ["pm-validate", "--graph", p2_file, "--family", "rank1", "--shots", "20", "--json"],
    )
    assert code2 == 0  # exploratory: reported, not asserted
    assert rep2["passed"] is False
    assert rep2["max_deviation"] > 0.01


def test_postselect_subcommand_checks_acceptance(capsys, p2_file):
    code, rep = run_json(
        capsys, ["postselect", "--graph", p2_file, "--shots", "30000", "--json"]
    )
    assert code == 0
    assert rep["postselect"]["expected"] == pytest.approx(0.25)


def test_missing_graph_file_exits_2(capsys, tmp_path):
    code = cli.main(["verify", "--graph", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_payload_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    assert cli.main(["verify", "--graph", str(bad)]) == 2


@pytest.mark.parametrize("flag", ["--graph", "--pattern"])
def test_deeply_nested_json_file_exits_2_without_a_traceback(tmp_path, p2_file, flag):
    """The JSON decoder's RecursionError is an input error, not a crash (exit 1)."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    files = {"--graph": p2_file, flag: str(nested)}
    argv = ["game", *(part for item in files.items() for part in item)]
    src = str(Path(acausal_mbqc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "acausal_mbqc.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: invalid JSON in {nested}")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "content",
    [b"1" * 5000, b"\xff{}"],
    ids=["integer-of-5000-digits", "not-utf-8"],
)
@pytest.mark.parametrize("flag", ["--graph", "--pattern"])
def test_undecodable_json_file_is_named(capsys, tmp_path, p2_file, flag, content):
    """A file the JSON decoder refuses with a plain ValueError (an integer
    past Python's 4300-digit limit) or whose bytes are not UTF-8 exits 2
    naming the file, as any other invalid JSON does."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    files = {"--graph": p2_file, flag: str(bad)}
    argv = ["verify" if flag == "--graph" else "game"]
    argv += [part for item in files.items() for part in item]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid JSON in {bad}: "), captured.err


@pytest.mark.parametrize("angle", ["1e6", "3e8", "1e17", "1e300", "-0.5"])
def test_verify_passes_at_angles_outside_one_turn(capsys, tmp_path, angle):
    """Every route reduces an angle mod 2 pi before it becomes a ket, so the
    table and the positive-branch walk agree however large the angle."""
    path = graph_file(tmp_path, graphstate.chain(4), "p4")
    code, rep = run_json(capsys, ["verify", "--graph", path, "--json", "--angles", angle])
    assert code == 0
    assert rep["backend_agreement_max_dev"] <= 1e-15


def test_bad_angle_csv_exits_2(capsys, p2_file):
    assert cli.main(["verify", "--graph", p2_file, "--angles", "abc"]) == 2


def test_wrong_angle_count_exits_2(capsys, p2_file):
    assert cli.main(["verify", "--graph", p2_file, "--angles", "0.1,0.2,0.3"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["bogus"]) == 2


def test_missing_required_graph_flag_exits_2(capsys):
    assert cli.main(["verify"]) == 2


def test_cap_flag_blocks_oversized_build(capsys, tmp_path):
    big = graphstate.parallel_chains([2] * 4)  # decorated state on 2N + n = 12 qubits
    path = tmp_path / "big.json"
    path.write_text(json.dumps(graphstate.graph_to_json(big)))
    code = cli.main(["resource-pm", "--graph", str(path), "--cap", "10"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resource-pm", "verify"])
def test_cap_counts_the_decorated_state_not_w(capsys, tmp_path, command):
    """W of parallel_chains([2]*4) has 16 qubits, its decorated state 12."""
    path = graph_file(tmp_path, graphstate.parallel_chains([2] * 4), "pc4")
    code, rep = run_json(capsys, [command, "--graph", path, "--json"])
    assert code == 0
    assert rep["trace"] == 256.0
    assert rep["min_eigenvalue"] == 0.0
    assert cli.main([command, "--graph", path, "--cap", "11"]) == 2
    assert "needs 12 qubits, above the cap of 11" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resource-pm", "verify", "postselect", "pm-validate"])
def test_decorated_state_above_the_default_cap_exits_2(capsys, tmp_path, command):
    path = graph_file(tmp_path, graphstate.chain(8), "chain8")  # 2N + n = 15
    assert cli.main([command, "--graph", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "graph state on 15 vertices needs 15 qubits" in captured.err
    assert f"above the cap of {config.DEFAULT_QUBIT_CAP}" in captured.err


# every command with the flags that keep it quick; the first three never
# build the decorated state on 2N + n qubits, only the plain one on N + n
_CAP_COMMANDS = {
    "signal": [],
    "game": [],
    "graph-state": [],
    "resource-pm": [],
    "verify": [],
    "postselect": ["--shots", "1000"],
    "pm-validate": ["--shots", "5"],
}


@pytest.mark.parametrize("command", list(_CAP_COMMANDS))
@pytest.mark.parametrize("cap", [4, 6, 3], ids=["cap-N+n", "cap-2N+n-1", "cap-N+n-1"])
def test_each_register_meets_the_cap_where_it_is_allocated(capsys, tmp_path, command, cap):
    """On chain(4), N + n = 4 and 2N + n = 7.  A cap from N + n up to
    2N + n - 1 passes the plain state and refuses the decorated one, so only
    the commands that read the literal W exit 2; below N + n every command
    exits 2.  A refusal names the register's qubits and prints no report."""
    path = graph_file(tmp_path, graphstate.chain(4), "p4")
    argv = [command, "--graph", path, "--json", "--cap", str(cap), *_CAP_COMMANDS[command]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    if cap < 4:
        refused = 4
    elif command in ("signal", "game", "graph-state"):
        refused = None
    else:
        refused = 7
    if refused is None:
        assert code == 0, captured.err
        assert captured.err == ""
    else:
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: graph state on {refused} vertices needs {refused} qubits, above the "
            f"cap of {cap}; raise it via the cap argument or {config.CAP_ENV_VAR}\n"
        )


def test_verify_on_chain14_refuses_the_decorated_state_before_allocating(capsys, tmp_path):
    """The decorated state of chain(14) has 27 qubits, 2 GiB of amplitudes;
    under the default cap ``verify`` refuses it on the way to W, having held
    no more than the 14-qubit plain state and its table."""
    path = graph_file(tmp_path, graphstate.chain(14), "chain14")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = cli.main(["verify", "--graph", path, "--json"])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "graph state on 27 vertices needs 27 qubits, above the cap of 14" in captured.err
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "length, cap", [(7, None), (8, 15)], ids=["chain7-default-cap", "chain8-cap15"]
)
def test_verify_checks_the_agreement_above_the_dense_operator_cap(
    capsys, tmp_path, monkeypatch, length, cap
):
    """W of chain(7) and chain(8) is above the dense operator cap; ``verify``
    still prints a number, from the positive-branch walk, and never
    contracts the dense oracle."""

    def refuse(*a, **k):
        raise AssertionError("verify must not contract the dense oracle")

    monkeypatch.setattr(procmat, "_dense_probability", refuse)
    path = graph_file(tmp_path, graphstate.chain(length), f"chain{length}")
    flags = [] if cap is None else ["--cap", str(cap)]
    code, rep = run_json(capsys, ["verify", "--graph", path, "--json", *flags])
    assert code == 0
    assert rep["backend_agreement_max_dev"] is not None
    assert rep["backend_agreement_max_dev"] <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["graph-state"],
        ["resource-pm"],
        ["verify"],
        ["signal"],
        ["postselect"],
        # at angle 0 chain(3) is no deterministic game instance (exit 2)
        ["game", "--angles", "1.5707963267948966"],
        ["pm-validate"],
        ["pm-validate", "--family", "rank1"],
    ],
    ids=[
        "graph-state", "resource-pm", "verify", "signal", "postselect", "game",
        "pm-validate", "pm-validate-rank1",
    ],
)
def test_no_command_reaches_the_dense_oracle(capsys, p3_file, monkeypatch, argv):
    """With the dense oracle's entry points (its table, ``dense()`` and the
    Choi tensors) made to raise, every command on chain(3) prints the report
    and exits 0, as it does unpatched."""
    argv = [*argv, "--graph", p3_file, "--json"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*a, **k):
        raise AssertionError("a command reached the dense oracle")

    monkeypatch.setattr(procmat, "_dense_probability", refuse)
    monkeypatch.setattr(procmat.ProcessMatrix, "dense", refuse)
    monkeypatch.setattr(procmat, "_choi_tensors", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["resource-pm", "verify"])
def test_chain7_positivity_floor_is_exact_and_fast(capsys, tmp_path, command):
    """W of chain(7) is 2^14-square; its floor comes from the factor, not from an eigvalsh."""
    path = graph_file(tmp_path, graphstate.chain(7), "chain7")
    start = time.perf_counter()
    code, rep = run_json(capsys, [command, "--graph", path, "--json"])
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert rep["min_eigenvalue"] == 0.0


@pytest.mark.parametrize(
    "graph, cap, argv, exit_code",
    [
        (graphstate.chain(4), 6, [command], 0 if command in ("signal", "game") else 2)
        for command in ("resource-pm", "verify", "signal", "postselect", "game")
    ]
    + [
        (graphstate.chain(4), 6, ["pm-validate", "--shots", "5"], 2),
        (graphstate.chain(6), 5, ["game"], 2),
        (graphstate.chain(8), 15, ["game"], 0),
        (graphstate.chain(8), 15, ["postselect", "--shots", "1000"], 1),
        (graphstate.chain(3), 5, ["verify"], 0),
    ],
    ids=[
        "resource-pm", "verify", "signal", "postselect", "game", "pm-validate",
        "game-chain6", "game-chain8", "postselect-chain8", "verify-dense-oracle",
    ],
)
def test_cap_flag_behaves_like_the_env_var(
    capsys, tmp_path, monkeypatch, graph, cap, argv, exit_code
):
    """--cap N and ACAUSAL_MBQC_CAP=N give the same exit code, stdout and stderr."""
    path = graph_file(tmp_path, graph, "g")
    flag_code = cli.main([*argv, "--graph", path, "--json", "--cap", str(cap)])
    flag = capsys.readouterr()
    monkeypatch.setenv(config.CAP_ENV_VAR, str(cap))
    env_code = cli.main([*argv, "--graph", path, "--json"])
    env = capsys.readouterr()
    assert flag_code == env_code == exit_code
    assert flag.out == env.out
    assert flag.err == env.err
    if exit_code == 2:
        # the first register above the cap: the plain state on N + n qubits,
        # else the decorated state on 2N + n that the literal W reads
        qubits = graph.n_computation + graph.n_output
        if qubits <= cap:
            qubits += graph.n_computation
        assert f"needs {qubits} qubits, above the cap of {cap}" in flag.err
    if argv == ["verify"] and exit_code == 0:
        # W of chain(3) has 6 qubits, above the cap of 5, but the walk's
        # plain graph state has 3: the agreement is checked all the same
        assert json.loads(flag.out)["backend_agreement_max_dev"] <= 1e-9


def test_cap_flag_wins_over_the_env_var_in_every_game_walk(capsys, tmp_path, monkeypatch):
    """The flag's cap reaches the resource the game instance holds, whose
    4-qubit plain graph state, above the env's 3, the split walk of the
    validity gate and both girls-first scores and the boys-first read all
    read."""
    path = graph_file(tmp_path, graphstate.parallel_chains([2, 2]), "pc22")
    monkeypatch.setenv(config.CAP_ENV_VAR, "3")
    code, rep = run_json(capsys, ["game", "--graph", path, "--json", "--cap", "6"])
    assert code == 0
    assert rep["p0_girls_first_corrected"] == pytest.approx(1.0, abs=1e-12)
    assert rep["p0_boys_first"] == pytest.approx(0.25, abs=1e-12)


def test_a_huge_cap_costs_nothing(capsys, tmp_path):
    """The cap is only compared with register sizes: ``game --cap 10^9`` on
    chain(4) passes with no cap-sized integer, or any other allocation above
    1 MiB, on the way."""
    path = graph_file(tmp_path, graphstate.chain(4), "p4")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = cli.main(["game", "--graph", path, "--json", "--cap", "1000000000"])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["violated"] is True
    assert peak < 2**20


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "subcommand" not in capsys.readouterr().err


# the flags each subcommand reads besides --graph, --json and --cap
OWN_FLAGS = {
    "graph-state": {"--tol"},
    "resource-pm": {"--tol"},
    "verify": {"--tol", "--angles"},
    "signal": {"--angles", "--angles-b"},
    "postselect": {"--angles", "--shots", "--seed"},
    "game": {"--angles", "--pattern"},
    "pm-validate": {"--tol", "--shots", "--seed", "--family"},
}
VALUE_FLAGS = [
    "--pattern", "--angles", "--angles-b", "--seed", "--shots", "--tol", "--backend", "--family",
]


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in OWN_FLAGS for f in VALUE_FLAGS if f not in OWN_FLAGS[c]],
)
def test_unread_flag_is_a_usage_error(capsys, tmp_path, command, flag):
    """A flag the command does not read exits 2 at parse time, before the graph is opened."""
    missing = str(tmp_path / "missing.json")
    assert cli.main([command, "--graph", missing, flag, "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err and flag in err, err


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_help_lists_exactly_the_flags_the_command_reads(capsys, command):
    assert cli.main([command, "--help"]) == 0
    listed = set(re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M))
    assert listed == {"--help", "--graph", "--json", "--cap"} | OWN_FLAGS[command]


def assert_flag_rejected(capsys, argv, flag):
    """Exit 2 at parse time with an error line naming the flag, and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and flag in err, err


def test_negative_shots_exits_2(capsys, p2_file):
    assert_flag_rejected(capsys, ["postselect", "--graph", p2_file, "--shots", "-5"], "--shots")
    assert_flag_rejected(capsys, ["pm-validate", "--graph", p2_file, "--shots", "-3"], "--shots")


@pytest.mark.parametrize("value", [2**63, 99999999999999999999])
@pytest.mark.parametrize("command", ["postselect", "pm-validate"])
def test_shots_above_int64_exit_2_before_the_graph_is_read(capsys, tmp_path, command, value):
    missing = str(tmp_path / "missing.json")
    code = cli.main([command, "--graph", missing, "--shots", str(value)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--shots" in err, err
    # the command's largest count (numpy's int64 limit, or pm-validate's trial
    # ceiling) passes the check; the missing graph fails after it
    largest = cli.MAX_TRIALS if command == "pm-validate" else cli.MAX_SHOTS
    assert cli.main([command, "--graph", missing, "--shots", str(largest)]) == 2
    assert "--shots" not in capsys.readouterr().err


@pytest.mark.parametrize("value", [cli.MAX_TRIALS + 1, 2**62, 2**63 - 1])
def test_pm_validate_trials_above_the_ceiling_exit_2_at_once(capsys, p2_file, tmp_path, value):
    """A trial count pm-validate cannot finish is refused before any work;
    postselect, whose cost is one draw, still accepts it."""
    start = time.perf_counter()
    code = cli.main(["pm-validate", "--graph", p2_file, "--shots", str(value)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and elapsed < 1.0, elapsed
    assert err.startswith("error:") and "--shots" in err and "MAX_TRIALS" in err, err
    # refused before the graph is read
    missing = str(tmp_path / "missing.json")
    assert cli.main(["pm-validate", "--graph", missing, "--shots", str(value)]) == 2
    assert "--shots" in capsys.readouterr().err
    assert cli.main(["postselect", "--graph", missing, "--shots", str(value)]) == 2
    assert "--shots" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["postselect", "pm-validate"])
def test_negative_seed_exits_2(capsys, p2_file, command):
    assert_flag_rejected(capsys, [command, "--graph", p2_file, "--seed", "-5"], "--seed")


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_cap_below_one_exits_2_before_the_graph_is_read(capsys, p2_file, tmp_path, command):
    """The --cap message wins over a missing graph file, and names the flag."""
    missing = str(tmp_path / "missing.json")
    for cap in ("0", "-3"):
        assert_flag_rejected(capsys, [command, "--graph", p2_file, "--cap", cap], "--cap")
        assert cli.main([command, "--graph", missing, "--cap", cap]) == 2
        assert capsys.readouterr().err == f"error: --cap must be >= 1, got {cap}\n"
    # a positive cap passes the check, and the missing graph fails after it
    assert cli.main([command, "--graph", missing, "--cap", "1"]) == 2
    assert "--cap" not in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_bad_cap_env_var_exits_2_before_the_graph_is_read(capsys, tmp_path, monkeypatch, command):
    """A bad ACAUSAL_MBQC_CAP wins over a missing graph file and is named;
    a --cap flag wins over it, and a bad flag value names the flag."""
    missing = str(tmp_path / "missing.json")
    for value, problem in (("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"),
                           ("abc", "must be an integer, got 'abc'")):
        monkeypatch.setenv(config.CAP_ENV_VAR, value)
        assert cli.main([command, "--graph", missing]) == 2
        assert capsys.readouterr().err == f"error: {config.CAP_ENV_VAR} {problem}\n"
        assert cli.main([command, "--graph", missing, "--cap", "5"]) == 2
        err = capsys.readouterr().err
        assert config.CAP_ENV_VAR not in err and "missing.json" in err, err
        assert cli.main([command, "--graph", missing, "--cap", value]) == 2
        err = capsys.readouterr().err
        assert "--cap" in err and config.CAP_ENV_VAR not in err, err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_exits_2(capsys, p2_file, tol):
    assert_flag_rejected(capsys, ["verify", "--graph", p2_file, "--tol", tol], "--tol")


@pytest.mark.parametrize("flag", ["--angles", "--angles-b"])
@pytest.mark.parametrize("value", ["inf", "0.1,nan", "-inf"])
def test_non_finite_angles_exit_2(capsys, p2_file, flag, value):
    assert_flag_rejected(capsys, ["signal", "--graph", p2_file, f"{flag}={value}"], flag)


def test_memory_error_exits_2(capsys, p2_file, monkeypatch):
    def out_of_memory(ns, r):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "verify", out_of_memory)
    assert cli.main(["verify", "--graph", p2_file]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"
