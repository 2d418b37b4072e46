"""Causal measurement patterns: adaptive runs, exact enumeration, chain presets."""

import numpy as np
import pytest

from acausal_mbqc import graphstate, mbqc, qlin
from acausal_mbqc.mbqc import PatternError
from pm_reference import VEE, branch_probability


def test_adapted_angle_table():
    """The walk's adapted angle at each of the four parity pairs (s_x, s_z)."""
    phi = 0.9
    angles = mbqc._adapted(phi, np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
    assert angles[0] == pytest.approx(phi)
    assert angles[1] == pytest.approx((-phi) % (2 * np.pi))
    assert angles[2] == pytest.approx(phi + np.pi)
    assert angles[3] == pytest.approx((np.pi - phi) % (2 * np.pi))


def test_as_angle_map_forms():
    g = graphstate.chain(3)
    assert mbqc.as_angle_map(g, 0.3) == {"c0": 0.3, "c1": 0.3}
    assert mbqc.as_angle_map(g, [0.1, 0.2]) == {"c0": 0.1, "c1": 0.2}
    assert mbqc.as_angle_map(g, {"c0": 0.1, "c1": 0.2})["c1"] == 0.2
    with pytest.raises(PatternError):
        mbqc.as_angle_map(g, [0.1])  # wrong length
    with pytest.raises(PatternError):
        mbqc.as_angle_map(g, {"c0": 0.1})  # missing vertex
    assert mbqc.as_angle_map(g, np.array(0.3)) == {"c0": 0.3, "c1": 0.3}  # 0-d array
    with pytest.raises(PatternError, match="^angle for 'c0' must be finite, got nan$"):
        mbqc.as_angle_map(g, np.array(np.nan))
    # ints and numpy reals are real numbers; a bool, a string or a complex is not
    assert mbqc.as_angle_map(g, [1, np.float32(0.5)]) == {"c0": 1.0, "c1": 0.5}
    assert mbqc.as_angle_map(g, np.array([0.1, 0.2])) == {"c0": 0.1, "c1": 0.2}
    for bad, vertex in [
        (True, "c0"), (np.True_, "c0"), ([True, 0.5], "c0"), ([0.5, False], "c1"),
        ("0.5", "c0"), (1j, "c0"), ({"c0": 0.1, "c1": np.array(True)}, "c1"),
    ]:
        with pytest.raises(PatternError, match=f"^angle for '{vertex}' must be a real number"):
            mbqc.as_angle_map(g, bad)
    with pytest.raises(PatternError, match="^angle for 'c1' is an integer too large"):
        mbqc.as_angle_map(g, [0.0, 10**400])
    # no number, sequence or mapping at all
    for bad in (None, object()):
        with pytest.raises(PatternError, match="^angles must be a real number, a sequence"):
            mbqc.as_angle_map(g, bad)
    # patterns built in code take the same check as pattern files
    with pytest.raises(PatternError, match="^angle for 'c0' must be a real number"):
        mbqc.make_pattern(["c0"], {"c0": True})


def test_pattern_validation_rejects_forward_deps():
    g = graphstate.chain(3)
    with pytest.raises(PatternError):
        mbqc.validate_pattern(
            g,
            mbqc.make_pattern(
                order=("c0", "c1"),
                angles={"c0": 0.0, "c1": 0.0},
                x_deps={"c0": ("c1",)},  # depends on a later measurement
            ),
        )


def test_chain_pattern_structure():
    g = graphstate.chain(4)
    p = mbqc.chain_pattern(g)
    # measured far end toward the output: c0 first
    assert p.order == ("c0", "c1", "c2")
    assert p.x_deps.get("c1") == frozenset({"c0"})
    assert p.x_deps.get("c2") == frozenset({"c1"})
    assert p.z_deps.get("c2") == frozenset({"c0"})
    assert p.out_x_deps["o0"] == frozenset({"c2"})
    assert p.out_z_deps["o0"] == frozenset({"c1"})


def test_chain_pattern_rejects_branching_graph():
    with pytest.raises(PatternError):
        mbqc.chain_pattern(VEE)


def branch_table_p2(phi):
    """Exact (m, z) joint for the 2-chain at uniform angle phi, no corrections.

    |G> = (|0+> + |1->)/sqrt(2); project c0 on <phi^m|, then read o0.
    """
    g00 = 0.5 * np.array([1.0 + np.exp(-1j * phi), 1.0 - np.exp(-1j * phi)]) / np.sqrt(2)
    g10 = 0.5 * np.array([1.0 - np.exp(-1j * phi), 1.0 + np.exp(-1j * phi)]) / np.sqrt(2)
    return {
        (0, 0): abs(g00[0]) ** 2,
        (0, 1): abs(g00[1]) ** 2,
        (1, 0): abs(g10[0]) ** 2,
        (1, 1): abs(g10[1]) ** 2,
    }


@pytest.mark.parametrize("phi", [0.0, 0.4, 1.9, np.pi])
def test_branch_probability_against_worked_p2_table(phi):
    g = graphstate.chain(2)
    table = branch_table_p2(phi)
    for (m, z), expect in table.items():
        assert branch_probability(g, phi, [m], [z]) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize(
    "g", [graphstate.chain(3), VEE, graphstate.cycle_with_output(4)]
)
def test_branch_probabilities_always_total_one(g):
    """Non-adaptive joint outcomes form a complete basis on any graph."""
    rng = np.random.default_rng(41)
    angles = {c: float(rng.uniform(0, 2 * np.pi)) for c in g.computation}
    total = 0.0
    n_comp, n_out = g.n_computation, g.n_output
    for mi in range(2**n_comp):
        m = [(mi >> (n_comp - 1 - j)) & 1 for j in range(n_comp)]
        for zi in range(2**n_out):
            z = [(zi >> (n_out - 1 - t)) & 1 for t in range(n_out)]
            total += branch_probability(g, angles, m, z)
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_positive_branch_output_of_chain_is_hadamard_power(length):
    """All-plus measurement of a chain teleports |+> through H per link: row 0
    of the uncorrected split, the all-zeros history, holds that state."""
    g = graphstate.chain(length)
    _, weight, amps, _ = mbqc._walk(g, mbqc.chain_pattern(g), graphstate.graph_state(g))
    assert weight[0] > 0.0
    expect = qlin.equatorial_kets(0.0)[0]
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    for _ in range(length - 1):
        expect = hadamard @ expect
    assert abs(np.vdot(expect, amps[0])) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length", [2, 4, 6])
def test_corrected_even_chain_reads_zero_deterministically(length):
    """With corrections on, every branch of an even-total-length chain at
    angle 0 ends in readout 0."""
    g = graphstate.chain(length)
    p = mbqc.chain_pattern(g)
    _, weight, (dist, _) = mbqc.enumerate_causal(g, p, graphstate.graph_state(g))
    assert np.allclose(weight, 2.0 ** -g.n_computation, rtol=0, atol=1e-12)
    assert np.allclose(dist[:, 0], 1.0, rtol=0, atol=1e-10)


def test_uncorrected_chain_branches_disagree():
    g = graphstate.chain(4)
    p = mbqc.chain_pattern(g)
    _, probs, (_, dist) = mbqc.enumerate_causal(g, p, graphstate.graph_state(g))
    dists = dist[:, 0]
    assert max(dists) == pytest.approx(1.0, abs=1e-10)
    assert min(dists) == pytest.approx(0.0, abs=1e-10)
    # averaged over branches the readout is a coin flip
    assert np.dot(probs, dists) == pytest.approx(0.5, abs=1e-10)


def test_enumerate_causal_probabilities_total_one():
    g = graphstate.chain(3)
    p = mbqc.chain_pattern(g, angles=1.234)
    m, weight, dist = mbqc.enumerate_causal(g, p, graphstate.graph_state(g))
    assert sum(weight) == pytest.approx(1.0, abs=1e-12)
    assert m.shape == (2**g.n_computation, g.n_computation)
    assert weight.shape == (2**g.n_computation,)
    assert dist.shape == (2, 2**g.n_computation, 2**g.n_output)
    # the first vertex of the order is the most significant bit of the row
    rows = [tuple(int(b) for b in bits) for bits in np.ndindex(*(2,) * g.n_computation)]
    assert [tuple(row) for row in m.tolist()] == rows


def test_run_causal_matches_enumeration_statistics():
    g = graphstate.chain(2)
    p = mbqc.chain_pattern(g)
    rng, state = np.random.default_rng(43), graphstate.graph_state(g)
    wins = sum(mbqc.run_causal(g, p, state, rng).z == (0,) for _ in range(600))
    assert wins == 600  # corrected 2-chain at angle 0 is deterministic


def test_run_causal_branch_probability_is_history_weight():
    g = graphstate.chain(3)
    p = mbqc.chain_pattern(g)
    rng = np.random.default_rng(47)
    rec = mbqc.run_causal(g, p, graphstate.graph_state(g), rng)
    assert rec.branch_probability == pytest.approx(0.25, abs=1e-12)
    assert rec.corrected


def test_pattern_json_roundtrip(tmp_path):
    g = graphstate.chain(3)
    p = mbqc.chain_pattern(g, angles=0.77)
    payload = {
        "order": ["c0", "c1"],
        "angles": {"c0": 0.77, "c1": 0.77},
        "x_deps": {"c1": ["c0"]},
        "out_x_deps": {"o0": ["c1"]},
        "out_z_deps": {"o0": ["c0"]},
    }
    again = mbqc.pattern_from_json(payload)
    assert again == p
    path = tmp_path / "p.json"
    import json

    path.write_text(json.dumps(payload))
    assert mbqc.load_pattern(path) == p


def test_pattern_from_json_rejects_unknown_keys():
    with pytest.raises(PatternError):
        mbqc.pattern_from_json({"order": ["c0"], "angles": {"c0": 0.0}, "bogus": 1})


@pytest.mark.parametrize("angle", [True, 10**400], ids=["true", "1e400-int"])
def test_pattern_from_json_refuses_angles_that_are_no_finite_float(angle):
    """JSON ``true`` is a Python int, and an integer may overflow a float."""
    with pytest.raises(PatternError, match="angle for 'c1'"):
        mbqc.pattern_from_json({"order": ["c0", "c1"], "angles": {"c0": 0.0, "c1": angle}})


def test_the_walk_refuses_a_state_of_another_size():
    """The walk starts from the caller's graph state and builds none, so a
    state on another number of qubits than the graph's is refused."""
    g, other = graphstate.chain(3), graphstate.graph_state(graphstate.chain(4))
    with pytest.raises(PatternError, match=r"3-qubit state of g, not Ket\(num_qubits=4\)"):
        mbqc.enumerate_causal(g, mbqc.chain_pattern(g, 0.0), other)
