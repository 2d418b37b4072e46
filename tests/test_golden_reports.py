"""Every command's ``--json`` report, pinned byte for byte.

``verify``, ``resource-pm`` and ``pm-validate`` check the paper's identities
on the literal W, so their reports must not move when the commands that only
use the resource read the folded table instead.  ``golden_reports.json``
holds, per case, the graph preset, the argv, the exit code and the stdout;
each case here reruns its argv on a fresh graph file and compares.

The checking commands' cases were captured at commit 76832be, whose every
table contracted the literal W.  The ``backend_agreement_max_dev`` line of
the chain(3) and chain(4) ``verify`` cases was re-captured when that field
moved from the dense oracle to the positive-branch walk; every other byte of
those cases is the 76832be capture.  That line of the chain(3) and chain(4)
``verify`` and ``verify --shots`` cases was re-captured once more when the
agreement moved from the walk to a direct contraction of the positive
branch on the plain state; the pc22 cases did not move.  The use commands'
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

from acausal_mbqc import cli, graphstate

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text(encoding="utf-8"))
# on chain(3) and pc22 the folded table equals W's bit for bit; on chain(4)
# it does not, so a checking command that read the fold would move its bytes
GRAPHS = {
    "chain3": graphstate.chain(3),
    "pc22": graphstate.parallel_chains([2, 2]),
    "chain4": graphstate.chain(4),
    # branches that are not uniform: verify and the mbqc pm-validate fail here
    "vee": graphstate.vee_graph(),
}


@pytest.mark.parametrize("case", GOLDEN.values(), ids=GOLDEN.keys())
def test_checking_reports_keep_their_bytes(capsys, tmp_path, case):
    path = tmp_path / f"{case['graph']}.json"
    path.write_text(json.dumps(graphstate.graph_to_json(GRAPHS[case["graph"]])))
    code = cli.main([*case["argv"], "--graph", str(path)])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])

