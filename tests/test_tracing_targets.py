"""The benchmark drives the package by attribute names and CLI flags; a rename must fail here.

``benchmark/tracing.py`` replaces each ``(owner, attribute)`` of its
``_targets`` through ``owner.__dict__``, so a missing name would break every
``--trace 1`` run without touching a Tier-1 test.  ``benchmark/workloads.py``
builds each operation's CLI argv, so a flag its command no longer accepts
would fail every pass.  ``benchmark/run.py`` and ``benchmark/workloads.py``
also call the library by name (``pkg.<module>.<name>``, ``gs.<name>``), so a
renamed library function would break a library operation; an AST scan of
both files finds every such name.  One untraced pass of every workload runs
in-process through ``run.run_pass``, so an operation whose output check
fails, fails here too.  The modules are loaded from their files without
writing bytecode next to them.
"""

import ast
import importlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

import acausal_mbqc
import acausal_mbqc.cli

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load_benchmark_module(name):
    module_name = f"benchmark_{name}"
    spec = importlib.util.spec_from_file_location(module_name, BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    # dataclasses look the defining module up in sys.modules while decorating
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[module_name]
    return module


def test_every_traced_target_is_an_attribute_of_its_owner():
    targets = load_benchmark_module("tracing")._targets(acausal_mbqc)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__
    ]
    assert targets
    assert not missing, f"tracing targets missing from the package: {missing}"


def test_every_benchmark_cli_operation_parses(tmp_path):
    workloads = load_benchmark_module("workloads")
    parser = acausal_mbqc.cli.build_parser()
    parsed = 0
    for workload in workloads.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        manifest = workloads.write_inputs(workload, 1, str(directory))
        for op in workloads.operations(workload, manifest):
            if op.library:
                continue
            argv = [*op.argv, "--graph", manifest["graphs"][op.graph]["path"]]
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{workload} operation {op.name!r} refused: {argv}")
            parsed += 1
    assert parsed


def library_names(path):
    """Every ``pkg.<module>.<name>`` and ``gs.<name>`` a benchmark file reads,
    as (module, name), where ``gs`` is the file's alias of ``graphstate``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "gs":
            names.add(("graphstate", node.attr))
        elif (
            isinstance(owner, ast.Attribute)
            and isinstance(owner.value, ast.Name)
            and owner.value.id == "pkg"
        ):
            names.add((owner.attr, node.attr))
    return names


def test_every_library_name_the_benchmark_calls_exists():
    names = library_names(BENCHMARK / "run.py") | library_names(BENCHMARK / "workloads.py")
    for expected in [
        ("game", "game_instance"),
        ("game", "girls_first_p0"),
        ("graphstate", "load_graph"),
        ("procmat", "clamped_probability_count"),
        ("graphstate", "graph_to_json"),
    ]:
        assert expected in names
    missing = sorted(
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"acausal_mbqc.{module}"), name)
    )
    assert not missing, f"the benchmark calls names missing from the package: {missing}"


def test_one_pass_of_every_workload_passes_its_checks(monkeypatch, tmp_path):
    """``benchmark/run.py`` imports its sibling modules by plain name and sets
    ``OPENBLAS_NUM_THREADS`` when loaded; both are undone after the test."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    for name in ("tracing", "workloads"):
        monkeypatch.setitem(sys.modules, name, load_benchmark_module(name))
    run = load_benchmark_module("run")
    workloads = sys.modules["workloads"]
    for workload in workloads.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        manifest = workloads.write_inputs(workload, 1, str(directory))
        ops = workloads.operations(workload, manifest)
        walls, _, failures = run.run_pass(acausal_mbqc, ops, manifest)
        assert len(walls) == len(ops) > 0
        assert failures == [], f"{workload}: {failures}"
