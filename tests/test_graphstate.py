"""Graph validation, graph-state construction, and branch-uniformity predicate."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acausal_mbqc import graphstate, qlin
from acausal_mbqc.graphstate import GraphError
from pm_reference import kron_cz_decorated_state, random_ket


PLUS = qlin.equatorial_ket(0.0)
CZ = np.diag([1.0, 1.0, 1.0, -1.0])


def cz_circuit_state(g):
    """Independent oracle: start from |+>^k and apply a CZ matrix per edge."""
    order = graphstate.ket_order(g)
    pos = {v: i for i, v in enumerate(order)}
    state = qlin.kron_all([PLUS] * len(order))
    for a, b in g.edges:
        state = qlin.apply_on_qubits(CZ, [pos[a], pos[b]], state)
    return state


def is_connected(g):
    seen, frontier = {g.vertices[0]}, [g.vertices[0]]
    while frontier:
        v = frontier.pop()
        for e in g.edges:
            if v in e:
                u = e[0] if e[1] == v else e[1]
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
    return len(seen) == len(g.vertices)


def test_graph_builder_normalizes_edges():
    g = graphstate.Graph(["a", "b"], [["b", "a"]], ["a"], ["b"])
    assert g.edges == (("a", "b"),)
    assert g.vertices == ("a", "b") and g.computation == ("a",) and g.output == ("b",)


# each malformed graph with every violation it is refused for, in order
MALFORMED = {
    (("a", "a"), (), ("a",), ("a",)): [  # duplicate vertex
        "duplicate vertex labels",
        "computation and output overlap: ['a']",
    ],
    (("a", "b"), (("a", "a"),), ("a",), ("b",)): ["self-loop at 'a'"],
    (("a", "b"), (("a", "b"), ("b", "a")), ("a",), ("b",)): ["duplicate edge ('a', 'b')"],
    (("a", "b"), (("a", "c"),), ("a",), ("b",)): [  # unknown endpoint
        "edge ('a', 'c') references unknown vertex"
    ],
    (("a", "b"), (("a", "b"),), ("a",), ("a",)): [  # overlap C and O
        "computation and output overlap: ['a']",
        "vertices outside computation/output partition: ['b']",
    ],
    (("a", "b"), (("a", "b"),), (), ("b",)): [
        "computation set is empty",
        "vertices outside computation/output partition: ['a']",
    ],
    (("a", "b"), (("a", "b"),), ("a",), ()): [
        "output set is empty",
        "vertices outside computation/output partition: ['b']",
    ],
    (("a", "b", "c"), (("a", "b"),), ("a",), ("b",)): [  # vertex in no part
        "vertices outside computation/output partition: ['c']"
    ],
}


@pytest.mark.parametrize("vertices,edges,comp,out", list(MALFORMED))
def test_validate_rejects_malformed(vertices, edges, comp, out):
    """A Graph cannot exist unchecked: construction names every violation."""
    with pytest.raises(GraphError) as err:
        graphstate.Graph(
            vertices=tuple(vertices),
            edges=tuple(tuple(e) for e in edges),
            computation=tuple(comp),
            output=tuple(out),
        )
    assert err.value.violations == MALFORMED[vertices, edges, comp, out]
    assert str(err.value) == "; ".join(MALFORMED[vertices, edges, comp, out])


@pytest.mark.parametrize(
    "g",
    [
        graphstate.chain(2),
        graphstate.chain(4),
        graphstate.parallel_chains([2, 3]),
        graphstate.cycle_with_output(5),
        graphstate.vee_graph(),
    ],
)
def test_graph_state_matches_cz_circuit(g):
    built = graphstate.graph_state(g)
    oracle = cz_circuit_state(g)
    assert np.allclose(built.amplitudes, oracle.amplitudes, atol=1e-12)


def test_graph_state_two_vertices_explicit():
    g = graphstate.chain(2)
    state = graphstate.graph_state(g)
    assert np.allclose(state.amplitudes, np.array([1, 1, 1, -1]) / 2.0)


@pytest.mark.parametrize(
    "g",
    [graphstate.chain(3), graphstate.cycle_with_output(4), graphstate.vee_graph()],
)
def test_stabilizers_fix_graph_state(g):
    state = graphstate.graph_state(g)
    assert graphstate.stabilizer_check(state, g) < 1e-12


def test_stabilizer_check_detects_wrong_state():
    g = graphstate.chain(3)
    wrong = qlin.kron_all([PLUS] * 3)  # no entanglement
    assert graphstate.stabilizer_check(wrong, g) > 0.5


@pytest.mark.parametrize(
    "g", [graphstate.chain(3), graphstate.vee_graph(), graphstate.decorate(graphstate.chain(3))]
)
def test_stabilizer_check_equals_pauli_matrices_applied(g):
    """The flip-and-sign defect equals the one from X and Z matrices applied
    by ``qlin.apply_on_qubits``, bit for bit, on states the stabilizers move."""
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    idx = graphstate.qubit_index(g)
    for seed in range(3):
        state = random_ket(np.random.default_rng(seed), len(idx))
        worst = 0.0
        for v in g.vertices:
            moved = qlin.apply_on_qubits(x, [idx[v]], state)
            for e in g.edges:
                if v in e:
                    moved = qlin.apply_on_qubits(z, [idx[e[0] if e[1] == v else e[1]]], moved)
            worst = max(worst, float(np.linalg.norm(moved.amplitudes - state.amplitudes)))
        assert graphstate.stabilizer_check(state, g) == worst


def test_decorate_adds_one_pendant_per_computation_vertex():
    g = graphstate.chain(3)
    d = graphstate.decorate(g)
    assert d.n_computation == g.n_computation
    assert len(d.vertices) == len(g.vertices) + g.n_computation
    dm = dict(zip(g.computation, d.output[g.n_output :]))
    assert set(dm) == set(g.computation)
    for c, red in dm.items():
        assert (tuple(sorted((c, red)))) in d.edges
        # pendant has exactly one neighbor
        assert [e for e in d.edges if red in e] == [tuple(sorted((c, red)))]


def test_ket_order_is_computation_then_output_then_pendants():
    g = graphstate.chain(3)
    d = graphstate.decorate(g)
    order = graphstate.ket_order(d)
    assert order[: d.n_computation] == d.computation
    assert order[d.n_computation : d.n_computation + g.n_output] == g.output
    reds = order[d.n_computation + g.n_output :]
    assert reds == ("c0'", "c1'")


def assert_decorated(g):
    """``decorate(g)`` keeps C, appends one fresh pendant per C vertex to the
    outputs in C order, hangs each on its own vertex alone, and its graph
    state is the gate-by-gate decorated state to 1e-15 per amplitude."""
    d = graphstate.decorate(g)
    reds = d.output[g.n_output :]
    assert d.computation == g.computation
    assert d.output[: g.n_output] == g.output
    assert len(reds) == g.n_computation == len(set(reds))
    assert not set(reds) & set(g.vertices)
    assert d.vertices == g.vertices + reds
    for c, red in zip(g.computation, reds):
        assert red.startswith(c + "'") and set(red[len(c) :]) == {"'"}
        assert [e for e in d.edges if red in e] == [tuple(sorted((c, red)))]
    assert set(d.edges) - set(g.edges) == {tuple(sorted(e)) for e in zip(g.computation, reds)}
    built = graphstate.graph_state(d).amplitudes
    assert np.max(np.abs(built - kron_cz_decorated_state(g).amplitudes)) <= 1e-15


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_decorate_is_the_open_graph_with_pendant_outputs(n_comp, n_out, seed):
    assert_decorated(graphstate.random_connected_graph(np.random.default_rng(seed), n_comp, n_out))


def test_decorate_skips_a_label_already_taken():
    """An output named ``c0'`` pushes c0's pendant to ``c0''``; c1's stays ``c1'``."""
    g = graphstate.Graph(("c0", "c1", "c0'"), (("c0", "c1"), ("c1", "c0'")), ("c0", "c1"), ("c0'",))
    assert_decorated(g)
    assert graphstate.decorate(g).output == ("c0'", "c0''", "c1'")


@pytest.mark.parametrize(
    "g,expected",
    [
        (graphstate.chain(2), True),
        (graphstate.chain(3), True),
        (graphstate.chain(6), True),
        (graphstate.parallel_chains([2, 2]), True),
        (graphstate.vee_graph(), False),
        (graphstate.cycle_with_output(3), False),
        (graphstate.cycle_with_output(5), False),
    ],
)
def test_has_uniform_branches(g, expected):
    assert graphstate.has_uniform_branches(g) is expected


def test_uniform_branch_predicate_matches_numeric_sweep():
    """The predicate must agree with a brute numeric check of branch uniformity."""
    rng = np.random.default_rng(31)
    for g in [graphstate.chain(3), graphstate.vee_graph(), graphstate.cycle_with_output(4)]:
        angles = {c: float(rng.uniform(0, 2 * np.pi)) for c in g.computation}
        state = graphstate.graph_state(g)
        total = 0.0
        n_comp, n_out = g.n_computation, g.n_output
        probs = []
        for mi in range(2**n_comp):
            m = [(mi >> (n_comp - 1 - j)) & 1 for j in range(n_comp)]
            row = 0.0
            for zi in range(2**n_out):
                z = [(zi >> (n_out - 1 - t)) & 1 for t in range(n_out)]
                kets = [
                    qlin.equatorial_ket(angles[c], b) for c, b in zip(g.computation, m)
                ] + [qlin.basis_ket([b]) for b in z]
                row += abs(qlin.overlap(qlin.kron_all(kets), state)) ** 2
            probs.append(row)
        uniform = max(abs(p - probs[0]) for p in probs) < 1e-9
        assert graphstate.has_uniform_branches(g) is uniform


def test_random_resource_graph_respects_predicate_and_sizes():
    rng = np.random.default_rng(37)
    for _ in range(10):
        g = graphstate.random_resource_graph(rng, 3, 2)
        assert g.n_computation == 3
        assert g.n_output == 2
        assert is_connected(g)
        assert graphstate.has_uniform_branches(g)


@pytest.mark.parametrize("seed, tries", [(246, 810), (1750, 525)])
def test_random_resource_graph_finds_rare_uniform_branch_graphs(seed, tries):
    """For N=4, n=1 about 1.5% of draws qualify; these seeds need more than 500 tries."""
    g = graphstate.random_resource_graph(np.random.default_rng(seed), 4, 1)
    assert graphstate.has_uniform_branches(g)
    # the first qualifying draw is returned, so a larger bound keeps every graph
    assert graphstate.random_resource_graph(np.random.default_rng(seed), 4, 1, max_tries=tries) == g
    with pytest.raises(graphstate.GraphError, match=f"in {tries - 1} tries for N=4, n=1"):
        graphstate.random_resource_graph(np.random.default_rng(seed), 4, 1, max_tries=tries - 1)


def test_chain_preset_shape():
    g = graphstate.chain(4)
    assert g.computation == ("c0", "c1", "c2")
    assert g.output == ("o0",)
    assert g.edges == (("c0", "c1"), ("c1", "c2"), ("c2", "o0"))


def test_cycle_preset_shape():
    g = graphstate.cycle_with_output(4)
    assert len(g.edges) == 4
    assert g.n_computation == 3
    assert all(sum(v in e for e in g.edges) == 2 for v in g.vertices)


def test_json_roundtrip(tmp_path):
    g = graphstate.parallel_chains([2, 3])
    payload = graphstate.graph_to_json(g)
    again = graphstate.graph_from_json(json.loads(json.dumps(payload)))
    assert again == g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    assert graphstate.load_graph(path) == g


@pytest.mark.parametrize(
    "payload",
    [
        {"vertices": ["a"], "edges": [], "computation": ["a"]},  # missing key
        {
            "vertices": ["a", "b"],
            "edges": [],
            "computation": ["a"],
            "output": ["b"],
            "extra": 1,
        },  # unknown key
        {"vertices": "ab", "edges": [], "computation": ["a"], "output": ["b"]},
        {"vertices": ["a", "b"], "edges": [["a"]], "computation": ["a"], "output": ["b"]},
    ],
)
def test_graph_from_json_rejects_bad_payloads(payload):
    with pytest.raises(GraphError):
        graphstate.graph_from_json(payload)


def test_graph_state_cap_enforced():
    import acausal_mbqc.config as config

    g = graphstate.parallel_chains([2] * 8)  # 16 qubits > default cap 14
    with pytest.raises(config.RegisterCapError):
        graphstate.graph_state(g)
    # explicit override allows it
    state = graphstate.graph_state(g, cap=16)
    assert state.num_qubits == 16
