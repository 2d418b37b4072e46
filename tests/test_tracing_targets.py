"""The traced benchmark wraps package attributes by name; a rename must fail here.

``benchmark/tracing.py`` replaces each ``(owner, attribute)`` of its
``_targets`` through ``owner.__dict__``, so a missing name would break every
``--trace 1`` run without touching a Tier-1 test.  The module is loaded from
its file without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import acausal_mbqc
import acausal_mbqc.cli

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_target_is_an_attribute_of_its_owner():
    targets = load_tracing()._targets(acausal_mbqc)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__
    ]
    assert targets
    assert not missing, f"tracing targets missing from the package: {missing}"
