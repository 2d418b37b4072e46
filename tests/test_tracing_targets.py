"""The benchmark drives the package by attribute names and CLI flags; a rename must fail here.

``benchmark/tracing.py`` replaces each ``(owner, attribute)`` of its
``_targets`` through ``owner.__dict__``, so a missing name would break every
``--trace 1`` run without touching a Tier-1 test.  ``benchmark/workloads.py``
builds each operation's CLI argv, so a flag its command no longer accepts
would fail every pass.  Both modules are loaded from their files without
writing bytecode next to them.
"""

import importlib.util
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
