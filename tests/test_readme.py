"""The README's ``## Library`` example runs as printed, on the names the package exports.

A trimmed ``__init__`` or a renamed function must fail here rather than
leave the documented API broken, and a name exported beyond the README's
``am.<name>`` set must fail too.  Every ``<module>.<name>`` and
``tests/pm_reference.<name>`` the README names must exist, so a deletion
cannot leave a dead name in the docs, and the ``## CLI`` synopsis must name
the flags each command takes.
"""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import acausal_mbqc
import pm_reference
from acausal_mbqc import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["acausal", "config", "game", "graphstate", "mbqc", "procmat", "qlin"]


def library_block() -> str:
    """The first python code block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the Library section has no python code block"
    return match.group(1)


def test_every_name_the_readme_uses_is_exported():
    names = set(re.findall(r"\bam\.(\w+)", README.read_text(encoding="utf-8")))
    assert names
    missing = sorted(name for name in names if not hasattr(acausal_mbqc, name))
    assert not missing, f"README uses names acausal_mbqc does not export: {missing}"


def test_every_name_the_package_exports_is_in_the_readme():
    """The reverse: the top level holds the README's API and no more."""
    used = set(re.findall(r"\bam\.(\w+)", README.read_text(encoding="utf-8")))
    exported = {
        name
        for name, value in vars(acausal_mbqc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    extra = sorted(exported - used)
    assert not extra, f"acausal_mbqc exports names README does not use: {extra}"


def test_every_module_name_the_readme_names_resolves():
    text = README.read_text(encoding="utf-8")
    pattern = rf"(?<![\w/.])(?:am\.)?({'|'.join(MODULES + ['cli'])})\.(\w+)"
    named = {(importlib.import_module(f"acausal_mbqc.{m}"), n) for m, n in re.findall(pattern, text)}
    named |= {(pm_reference, n) for n in re.findall(r"tests/pm_reference\.(?!py\b)(\w+)", text)}
    assert named
    dead = sorted(f"{m.__name__}.{n}" for m, n in named if not hasattr(m, n))
    assert not dead, f"README names that do not exist: {dead}"


def test_cli_synopsis_names_exactly_the_flags_each_command_takes():
    """One ``acausal-mbqc <command>`` line per subcommand in the first sh
    block of ``## CLI``, naming ``--graph`` and the flags ``cli._SUBCOMMANDS``
    gives that command (``--json`` and ``--cap``, which every command takes,
    are stated once below the block)."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    synopsis = {}
    for line in block.splitlines():
        command, *rest = line.removeprefix("acausal-mbqc ").split()
        synopsis[command] = set(re.findall(r"--[\w-]+", " ".join(rest)))
    wanted = {name: {"--graph", *flags} for name, (_, flags) in cli._SUBCOMMANDS.items()}
    assert synopsis == wanted


def test_importing_the_package_alone_loads_every_module():
    """A fresh interpreter, so no other test's imports help: ``import
    acausal_mbqc`` binds every module that ``pkg.<module>`` readers use."""
    src = str(Path(acausal_mbqc.__file__).resolve().parents[1])
    code = f"import acausal_mbqc as pkg; print([getattr(pkg, m).__name__ for m in {MODULES!r}])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == f"{[f'acausal_mbqc.{m}' for m in MODULES]!r}\n"


def test_library_block_runs_and_gives_the_documented_results():
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    am, r, p, s = (namespace[k] for k in ("am", "r", "p", "s"))
    assert am is acausal_mbqc
    # the results its comments state
    assert am.branch_independence_report(p) == pytest.approx(0.0, abs=1e-12)
    assert am.normalization_report(p) == pytest.approx(0.0, abs=1e-12)
    tables = [am.outcome_probabilities(r, a) for a in (0.0, [3.14159, 0.0, 0.0])]
    assert am.signaling_tv(*tables) == pytest.approx(1.0, abs=1e-9)
    assert namespace["inst"].resource is r
    report = am.game_report(namespace["inst"])
    assert report["p0_acausal"] == pytest.approx(1.0, abs=1e-12)
    assert report["bound"] == 0.75 and report["violated"]
    assert am.postselection_report(s, p)["shots"] == 1_000_000
    assert am.backend_agreement(r, 0.7, p) <= 1e-12
