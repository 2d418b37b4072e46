"""Resource process matrix: construction, identities, controls, and the sampler."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acausal_mbqc import acausal, config, game, graphstate, mbqc, procmat, qlin
from acausal_mbqc.procmat import ProcessMatrix
from pm_reference import VEE, backend_table, dense_tables, kron_cz_decorated_state


def perturbed_pure_ancilla(r):
    """Control: the literal W with each maximally mixed ancilla replaced by a pure |0>."""
    pure = qlin.kron_all([r.w.pure] + [qlin.Ket([1, 0])] * r.n_output)
    return ProcessMatrix(r.w.parties, pure=pure, scale=r.w.scale)


def perturbed_no_decoration(r):
    """Control: the literal W without the pendant entangling step (pendants stay |+>)."""
    gs = graphstate.graph_state(r.base_graph)
    pure = qlin.kron_all([gs] + [qlin.Ket(qlin.equatorial_kets(0.0)[0])] * r.n_computation)
    return ProcessMatrix(r.w.parties, pure=pure, scale=r.w.scale)


def literal_table(r, w, angle):
    """P(m, z) at one uniform angle, contracted on the process matrix ``w``
    by the factorized kernel, as ``outcome_probabilities(r, angle,
    literal=True)`` contracts the resource's literal W; the folded table
    never reads W, so a perturbed W is contracted here."""
    phis = np.full((1, r.n_computation), float(angle))
    block = procmat.mbqc_kets(phis, r.n_output)
    return procmat._trial_tables(w, block.measure, block.reprepare)[0].reshape(
        2**r.n_computation, 2**r.n_output
    )


def test_build_resource_pm_layout_and_shape():
    g = graphstate.chain(2)
    r = acausal.build_resource_pm(g)
    assert r.parties == r.w.parties == ("A1", "B1")
    assert r.w.num_qubits == 4
    layout = r.layout()
    assert tuple(layout) == r.parties
    assert layout["A1"]["input"] == "c0"
    assert layout["A1"]["output"] == r.decorated_graph.output[g.n_output :][0] == "c0'"
    assert layout["B1"]["input"] == "o0"
    assert layout["B1"]["output"] == "ancilla0"


@pytest.mark.parametrize(
    "g",
    [graphstate.chain(2), graphstate.chain(4), graphstate.parallel_chains([2, 2])],
)
def test_trace_and_positivity(g):
    r = acausal.build_resource_pm(g)
    assert r.w.trace() == pytest.approx(2.0 ** (g.n_computation + g.n_output), abs=1e-9)
    assert r.w.min_eigenvalue() >= -1e-10


PAPER_GRAPHS = {f"chain{n}": graphstate.chain(n) for n in range(2, 6)}
PAPER_GRAPHS.update(
    pc22=graphstate.parallel_chains([2, 2]),
    vee=VEE,
    cycle4=graphstate.cycle_with_output(4),
)
PAPER_GRAPHS.update(
    (f"random{seed}", graphstate.random_resource_graph(np.random.default_rng(seed), n_comp, n_out))
    for seed, n_comp, n_out in [(0, 1, 1), (1, 2, 2), (2, 3, 1)]
)


@pytest.mark.parametrize("g", PAPER_GRAPHS.values(), ids=PAPER_GRAPHS.keys())
def test_resource_is_the_papers_kron(g):
    """W = 2^(N+n) |G'><G'| (x) (I/2)^n, written as the literal kron, bit for bit."""
    r = acausal.build_resource_pm(g)
    amp = graphstate.graph_state(graphstate.decorate(g)).amplitudes
    n_comp, n_out = g.n_computation, g.n_output
    paper = np.kron(
        2.0 ** (n_comp + n_out) * np.outer(amp, amp.conj()), np.eye(2**n_out) / 2**n_out
    )
    assert np.array_equal(r.w.dense().entries, paper)


def test_p2_probability_table_at_angle_zero():
    r = acausal.build_resource_pm(graphstate.chain(2))
    probs = acausal.outcome_probabilities(r, 0.0)
    assert np.allclose(probs, [[0.5, 0.0], [0.5, 0.0]], atol=1e-12)
    assert probs[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert probs[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_acausal_matches_causal_enumeration_per_branch():
    """2^N * P(m, z) must equal the corrected adaptive-run distribution."""
    for g in [graphstate.chain(3), graphstate.chain(4)]:
        r = acausal.build_resource_pm(g)
        p = mbqc.chain_pattern(g, angles=0.9)
        # the literal W: on the fold every branch m contracts the same rows
        probs = acausal.outcome_probabilities(r, 0.9, literal=True)
        bits, _, (dists, _) = mbqc.enumerate_causal(g, p, r.plain)
        by_m = {tuple(row): dist for row, dist in zip(bits.tolist(), dists)}
        n_comp = g.n_computation
        for mi in range(2**n_comp):
            m = tuple((mi >> (n_comp - 1 - j)) & 1 for j in range(n_comp))
            scaled = (2.0**n_comp) * probs[mi, :]
            assert np.allclose(scaled, by_m[m], atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identities_on_random_resource_graphs(seed):
    rng = np.random.default_rng(seed)
    g = graphstate.random_resource_graph(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
    r = acausal.build_resource_pm(g)
    angles = {c: float(rng.uniform(0, 2 * np.pi)) for c in g.computation}
    probs = acausal.outcome_probabilities(r, angles, literal=True)
    assert acausal.branch_independence_report(probs) < 1e-10
    assert acausal.normalization_report(probs) < 1e-10
    assert r.w.min_eigenvalue() >= -1e-10


def test_branch_independence_holds_even_without_uniform_branches():
    """m-independence is structural; only the total can drift from 1."""
    g = VEE
    r = acausal.build_resource_pm(g)
    rng = np.random.default_rng(89)
    angles = {c: float(rng.uniform(0, 2 * np.pi)) for c in g.computation}
    probs = acausal.outcome_probabilities(r, angles, literal=True)
    assert acausal.branch_independence_report(probs) < 1e-10
    assert acausal.normalization_report(probs) > 0.01


def test_pure_ancilla_control_breaks_only_normalization():
    r = acausal.build_resource_pm(graphstate.chain(2))
    assert np.array_equal(
        literal_table(r, r.w, 0.0), acausal.outcome_probabilities(r, 0.0, literal=True)
    )
    bad = literal_table(r, perturbed_pure_ancilla(r), 0.0)
    assert acausal.branch_independence_report(bad) < 1e-10
    assert acausal.normalization_report(bad) > 0.5


def test_missing_decoration_control_breaks_only_branch_independence():
    r = acausal.build_resource_pm(graphstate.chain(2))
    bad = literal_table(r, perturbed_no_decoration(r), 0.0)
    assert acausal.branch_independence_report(bad) > 0.1
    assert acausal.normalization_report(bad) < 1e-10


def test_angle_negation_leaves_probabilities_unchanged():
    """Real resource amplitudes make phi -> -phi a complex conjugation."""
    r = acausal.build_resource_pm(graphstate.chain(3))
    rng = np.random.default_rng(97)
    angles = [float(rng.uniform(0, 2 * np.pi)) for _ in range(r.n_computation)]
    a = acausal.outcome_probabilities(r, angles)
    b = acausal.outcome_probabilities(r, [-x for x in angles])
    assert np.allclose(a, b, atol=1e-12)


def test_backend_agreement_on_presets():
    for g in [graphstate.chain(2), graphstate.chain(3), graphstate.parallel_chains([2, 2])]:
        r = acausal.build_resource_pm(g)
        probs = acausal.outcome_probabilities(r, 0.7)
        assert acausal.backend_agreement(r, 0.7, probs) < 1e-10


def test_signaling_tv_is_maximal_for_p2():
    r = acausal.build_resource_pm(graphstate.chain(2))
    p0, p_pi = acausal.outcome_probabilities(r, 0.0), acausal.outcome_probabilities(r, np.pi)
    assert acausal.signaling_tv(p0, p_pi) == pytest.approx(1.0, abs=1e-10)
    assert acausal.signaling_tv(p0, p0) == pytest.approx(0.0, abs=1e-12)


def test_signaling_tv_refuses_tables_of_different_shapes():
    """A (2, 2) and a (4, 2) table have z-marginals of one length, so their
    TV would read 0.0; they are refused, naming both shapes."""
    a, b = np.full((2, 2), 0.25), np.full((4, 2), 0.125)
    with pytest.raises(ValueError, match=re.escape("shapes (2, 2) and (4, 2)")):
        acausal.signaling_tv(a, b)


def test_rank_one_family_exposes_restricted_normalization():
    """General rank-1 instruments need not normalize on this resource."""
    r = acausal.build_resource_pm(graphstate.chain(2))
    rng = np.random.default_rng(83)
    report = procmat.pm_validate(
        r.w, procmat.rank_one_instrument_family(len(r.w.parties)), 30, 1e-9, rng
    )
    assert not report.passed
    assert report.max_deviation > 0.01


def test_mbqc_family_normalizes_on_resource():
    r = acausal.build_resource_pm(graphstate.chain(3))
    rng = np.random.default_rng(101)
    report = procmat.pm_validate(
        r.w,
        procmat.mbqc_instrument_family(r.n_computation, r.n_output),
        25,
        1e-9,
        rng,
    )
    assert report.passed


def test_postselected_sampler_deterministic_and_calibrated():
    r = acausal.build_resource_pm(graphstate.chain(2))
    res1 = acausal.postselected_sampler(r, 0.0, 40_000, seed=7)
    res2 = acausal.postselected_sampler(r, 0.0, 40_000, seed=7)
    assert np.array_equal(res1.counts, res2.counts)
    assert res1.accepted == res2.accepted
    assert res1.seed == 7
    assert res1.counts.sum() == res1.accepted
    # acceptance ~ 2^-(N+n) = 1/4 within 5 sigma
    p = 0.25
    sigma = np.sqrt(p * (1 - p) / 40_000)
    assert abs(res1.acceptance - p) < 5 * sigma


def test_postselected_sampler_different_seeds_differ():
    r = acausal.build_resource_pm(graphstate.chain(2))
    a = acausal.postselected_sampler(r, 0.0, 40_000, seed=1)
    b = acausal.postselected_sampler(r, 0.0, 40_000, seed=2)
    assert not np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("shots", [100000.7, True, 2.5, "10", np.float64(10.0)])
def test_postselected_sampler_refuses_a_shot_count_that_is_no_int(monkeypatch, shots):
    """A float shot count was truncated by the draw but reported and divided
    as given, and True ran one shot: anything but a Python or numpy int is
    refused before any draw."""

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler drew before checking its shots")

    r = acausal.build_resource_pm(graphstate.chain(3))
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"^shots must be an int, got {re.escape(repr(shots))}$"):
        acausal.postselected_sampler(r, 0.1, shots, 1)


@pytest.mark.parametrize("seed", [1.7, True])
def test_postselected_sampler_refuses_a_seed_that_is_no_int(monkeypatch, seed):
    """A float or bool seed ran and reported ``seed: 1``: it is refused before any draw."""

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler drew before checking its seed")

    r = acausal.build_resource_pm(graphstate.chain(3))
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
        acausal.postselected_sampler(r, 0.1, 1000, seed)


def test_postselected_sampler_takes_a_numpy_int_and_reports_an_int():
    r = acausal.build_resource_pm(graphstate.chain(3))
    want = acausal.postselected_sampler(r, 0.1, 1000, 1)
    got = acausal.postselected_sampler(r, 0.1, np.int64(1000), np.int64(1))
    assert type(got.shots) is int and got.shots == 1000
    assert type(got.seed) is int and got.seed == 1
    assert np.array_equal(got.counts, want.counts)


def test_postselection_report_tv_small_on_p2():
    r = acausal.build_resource_pm(graphstate.chain(2))
    rep = acausal.postselection_report(
        acausal.postselected_sampler(r, 0.0, 60_000, seed=11),
        acausal.outcome_probabilities(r, 0.0),
    )
    assert rep["expected"] == pytest.approx(0.25)
    assert rep["tv"] is not None and rep["tv"] < 0.02
    assert rep["seed"] == 11


def test_default_seed_applied_when_omitted():
    import acausal_mbqc.config as config

    res = acausal.postselected_sampler(acausal.build_resource_pm(graphstate.chain(2)), 0.0, 1000)
    assert res.seed == config.DEFAULT_SEED


PENDANT_GRAPHS = dict(PAPER_GRAPHS)
PENDANT_GRAPHS.update(
    chain6=graphstate.chain(6),
    chain7=graphstate.chain(7),
    pc222=graphstate.parallel_chains([2, 2, 2]),
)
PENDANT_GRAPHS.update(
    (f"random{seed}-{n_comp}x{n_out}",
     graphstate.random_resource_graph(np.random.default_rng(seed), n_comp, n_out))
    for seed, n_comp, n_out in [(3, 2, 1), (4, 3, 2), (5, 4, 1), (6, 5, 2), (7, 4, 3)]
)


@pytest.mark.parametrize("g", PENDANT_GRAPHS.values(), ids=PENDANT_GRAPHS.keys())
def test_pendant_route_is_the_kron_and_cz_route(g):
    """The build's independent route, one product with a sign table, is the
    gate-by-gate construction to within 1e-15 per amplitude, and it is the
    decorated graph state."""
    new = acausal._pendant_route(g, graphstate.graph_state(g)).amplitudes
    reference = kron_cz_decorated_state(g).amplitudes
    assert np.max(np.abs(new - reference)) <= 1e-15
    assert qlin.fidelity(qlin.Ket(new), graphstate.graph_state(graphstate.decorate(g))) >= 1 - 1e-12


def test_pendant_route_reads_no_decorated_graph(monkeypatch):
    """Route b reads the plain graph state the resource holds: it builds no
    graph state and never decorates."""
    r = acausal.build_resource_pm(graphstate.chain(4))
    calls = []
    real = graphstate.graph_state
    monkeypatch.setattr(graphstate, "graph_state", lambda h, *a: calls.append(h) or real(h, *a))
    monkeypatch.setattr(graphstate, "decorate", None)
    acausal._pendant_route(r.base_graph, r.plain)
    assert calls == []


def test_the_literal_w_is_built_once_on_first_read(monkeypatch):
    """``build_resource_pm`` builds the plain graph state alone; the first
    read of ``w`` builds the decorated state (route a) and no other state,
    since route b reads the held plain state, and later reads build nothing."""
    calls = []
    real = graphstate.graph_state
    monkeypatch.setattr(
        graphstate, "graph_state", lambda h, *a: calls.append(h.n_output) or real(h, *a)
    )
    r = acausal.build_resource_pm(graphstate.chain(4))
    assert calls == [1]
    acausal.outcome_probabilities(r, 0.3)
    assert calls == [1]
    w = r.w
    # the decorated graph's outputs are the base output and the 3 pendants
    assert calls == [1, 4]
    # W's pure factor is the decorated state, on 2N + n = 7 qubits
    assert r.w is w and r.w.pure.num_qubits == 7 and len(calls) == 2


def _flip_one_sign(amps):
    out = amps.copy()
    out[3] *= -1.0
    return out


def _z_on_last_pendant(amps):
    return amps * np.where(np.arange(amps.size) & 1, -1.0, 1.0)


@pytest.mark.parametrize("perturb", [_flip_one_sign, _z_on_last_pendant], ids=["one-sign", "z"])
@pytest.mark.parametrize("g", [graphstate.chain(2), graphstate.chain(5)], ids=["chain2", "chain5"])
def test_a_perturbed_decorated_state_is_refused(monkeypatch, g, perturb):
    """The literal W's build, on its first read, compares its two routes: a
    decorated graph state with one amplitude's sign flipped, or with Z on a
    pendant, raises AcausalError."""
    real = graphstate.graph_state

    def perturbed(h, *a):
        state = real(h, *a)
        return qlin.Ket(perturb(state.amplitudes)) if h.n_output > g.n_output else state

    monkeypatch.setattr(graphstate, "graph_state", perturbed)
    r = acausal.build_resource_pm(g)
    with pytest.raises(acausal.AcausalError, match="decorated state identity violated"):
        r.w


def test_dense_oracle_refuses_chain7_before_allocating(monkeypatch):
    """W of chain(7) is above the dense operator cap; its ``dense()`` refuses
    at once, with the operator cap's message, before it allocates."""
    w = acausal.build_resource_pm(graphstate.chain(7)).w
    monkeypatch.setattr(np, "zeros", None)
    message = "dense process matrix needs 14 qubits, above the operator cap 12"
    start = time.perf_counter()
    with pytest.raises(config.RegisterCapError, match=message):
        w.dense()
    assert time.perf_counter() - start < 1.0


def test_backend_agreement_contracts_the_positive_branch_on_chain7(monkeypatch):
    """On chain(7), whose W is above the dense operator cap, the agreement is
    a number: one contraction of the plain graph state the resource holds,
    which runs no walk, builds no other state, contracts no table and leaves
    the literal W unbuilt."""
    r = acausal.build_resource_pm(graphstate.chain(7))
    probs = acausal.outcome_probabilities(r, 0.7)
    calls = {}
    for owner, name in [(mbqc, "_walk"), (graphstate, "graph_state"), (procmat, "_trial_tables")]:
        real = getattr(owner, name)
        calls[name] = 0

        def counted(*a, _real=real, _name=name, **k):
            calls[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(owner, name, counted)
    assert acausal.backend_agreement(r, 0.7, probs) <= 1e-12
    assert calls == {"_walk": 0, "graph_state": 0, "_trial_tables": 0}
    assert "w" not in vars(r)


@pytest.mark.parametrize(
    "bad, at",
    [(bad, at) for at in (0, -1) for bad in (float("nan"), float("inf"), float("-inf"))],
    ids=["nan", "inf", "-inf", "nan-last", "inf-last", "-inf-last"],
)
@pytest.mark.parametrize(
    "route",
    [
        lambda r, a: acausal.outcome_probabilities(r, a),
        lambda r, a: acausal.outcome_probabilities(r, a, literal=True),
        lambda r, a: acausal.postselected_sampler(r, a, 100),
        lambda r, a: acausal.backend_agreement(r, a, np.zeros((4, 2))),
        lambda r, a: game.game_instance(r, a),
    ],
    ids=["folded", "literal", "sampler", "agreement", "game"],
)
def test_every_route_refuses_a_non_finite_angle_naming_its_vertex(route, bad, at):
    """One check, in ``mbqc.as_angle_map``, before any ket is built: the
    same PatternError on every route, naming the first or the last
    computation vertex, and no numpy warning."""
    r = acausal.build_resource_pm(graphstate.chain(3))
    angles = [0.0, 0.0]
    angles[at] = bad
    vertex = r.base_graph.computation[at]
    with pytest.raises(mbqc.PatternError, match=f"^angle for '{vertex}' must be finite, got {bad}$"):
        route(r, angles)


@st.composite
def agreement_cases(draw):
    """A graph with N + n <= 8, uniform-branch (N <= 4) or any connected
    draw, and random angles, some of them at 1e8 or above."""
    uniform = draw(st.booleans())
    n_comp = draw(st.integers(1, 4 if uniform else 7))
    n_out = draw(st.integers(1, 8 - n_comp))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if uniform:
        g = graphstate.random_resource_graph(rng, n_comp, n_out)
    else:
        g = graphstate.random_connected_graph(rng, n_comp, n_out)
    angle = st.one_of(
        st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False),
        st.floats(1e8, 1e17, allow_nan=False, allow_infinity=False),
    )
    return g, {c: draw(angle) for c in g.computation}


@settings(max_examples=40, deadline=None, database=None)
@given(agreement_cases())
def test_backend_agreement_equals_the_walks_positive_branch(case):
    """The contraction agrees with row 0 of the unadapted causal walk, which
    reduces each angle mod 2 pi in ``make_pattern`` as the contraction does
    in ``equatorial_kets``, to 1e-15 at every readout z."""
    g, ang = case
    r = acausal.build_resource_pm(g)
    _, weight, (_, dist) = mbqc.enumerate_causal(g, mbqc.make_pattern(g.computation, ang), r.plain)
    assert acausal.backend_agreement(r, ang, weight[0] * dist[0]) <= 1e-15


@pytest.mark.parametrize(
    "perturb",
    [perturbed_no_decoration, perturbed_pure_ancilla],
    ids=["no-decoration", "pure-ancilla"],
)
@pytest.mark.parametrize(
    "g",
    [graphstate.chain(3), graphstate.chain(4), graphstate.parallel_chains([2, 2])],
    ids=["chain3", "chain4", "pc22"],
)
def test_backend_agreement_catches_a_wrong_w_that_the_dense_oracle_passes(g, perturb):
    """The dense oracle traces the W it is given, so it agrees with a wrong
    W's factorized table; the positive-branch walk never reads W and reports
    the wrong W's table as off by more than 0.05."""
    r = acausal.build_resource_pm(g)
    bad_w = perturb(r)
    bad = literal_table(r, bad_w, 0.7)
    phis = np.full((1, r.n_computation), 0.7)
    block = procmat.mbqc_kets(phis, r.n_output)
    dense = dense_tables(bad_w, block.measure, block.reprepare)[0].reshape(bad.shape)
    assert float(np.max(np.abs(dense - bad))) <= 1e-12
    assert acausal.backend_agreement(r, 0.7, bad) > 0.05


def test_factored_min_eigenvalue_builds_no_operator(monkeypatch):
    """The factored floor reads the spectrum; no HermOp or eigvalsh."""

    def refuse(*args, **kwargs):
        raise AssertionError("factored min_eigenvalue must not build or diagonalize W")

    monkeypatch.setattr(qlin.HermOp, "__init__", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert acausal.build_resource_pm(graphstate.chain(4)).w.min_eigenvalue() == 0.0


@pytest.mark.parametrize("backend", ["factorized", "dense"])
def test_table_from_stacked_kets_equals_the_instrument_objects(backend):
    """``outcome_probabilities`` contracts one block of every party's kets,
    yet gives the bytes of the table over the one-party blocks of
    ``alice_instrument``/``bob_instrument`` put side by side, by the
    literal W's factorized kernel and by the dense oracle."""
    rng = np.random.default_rng(23)
    graphs = [graphstate.chain(3), graphstate.parallel_chains([2, 2])]
    graphs += [graphstate.random_resource_graph(rng, 3, 2) for _ in range(3)]
    for g in graphs:
        r = acausal.build_resource_pm(g)
        ang = {c: float(rng.uniform(-10.0, 10.0)) for c in g.computation}
        instruments = [procmat.alice_instrument(ang[c]) for c in g.computation]
        instruments += [procmat.bob_instrument() for _ in g.output]
        measure, reprepare = (
            np.concatenate([getattr(inst, side) for inst in instruments], axis=1)
            for side in ("measure", "reprepare")
        )
        kernel = dense_tables if backend == "dense" else procmat._trial_tables
        reference = kernel(r.w, measure, reprepare)
        table = backend_table(r, ang, backend)
        assert np.array_equal(table, reference.reshape(table.shape)), (g.edges, ang)


def test_table_options_are_keyword_only():
    """A stale positional backend name is refused: taken positionally, the
    string would be a truthy ``literal`` or a ``first_trial``."""
    r = acausal.build_resource_pm(graphstate.chain(3))
    with pytest.raises(TypeError):
        acausal.outcome_probabilities(r, 0.0, "dense")
    block = procmat.mbqc_kets(np.zeros((1, r.n_computation)), r.n_output)
    with pytest.raises(TypeError):
        procmat._trial_tables(r.w, block.measure, block.reprepare, "dense")


def test_table_kets_get_the_ket_tests(monkeypatch):
    r = acausal.build_resource_pm(graphstate.chain(2))
    long = qlin.equatorial_kets(np.array([[0.3]])) * (1.0 + 1e-9)
    monkeypatch.setattr(qlin, "equatorial_kets", lambda phis: long)
    with pytest.raises(qlin.QlinError, match="deviates from 1"):
        acausal.outcome_probabilities(r, 0.3)


STACK_GRAPHS = {
    "chain3": graphstate.chain(3),
    "chain6": graphstate.chain(6),
    "chain7": graphstate.chain(7),
    "pc222": graphstate.parallel_chains([2, 2, 2]),
    "random5x2": graphstate.random_resource_graph(np.random.default_rng(8), 5, 2),
    "random4x3": graphstate.random_resource_graph(np.random.default_rng(9), 4, 3),
}


@pytest.mark.parametrize("g", STACK_GRAPHS.values(), ids=STACK_GRAPHS.keys())
def test_stacked_angle_sets_equal_their_single_tables(g):
    """``signal``'s two angle sets, as two trials of one contraction, give
    the two tables that each set gives alone, bit for bit; on the smallest
    W the dense oracle is held to the same."""
    rng = np.random.default_rng(g.n_computation)
    r = acausal.build_resource_pm(g)
    sets = [{c: float(rng.uniform(0.0, 2 * np.pi)) for c in g.computation} for _ in range(2)]
    sets.append({c: 0.0 for c in g.computation})
    backends = ["factorized", "dense"] if r.w.num_qubits <= 8 else ["factorized"]
    for backend in backends:
        stacked = backend_table(r, sets, backend)
        assert stacked.shape == (len(sets), 2**g.n_computation, 2**g.n_output)
        for ang, table in zip(sets, stacked):
            assert np.array_equal(table, backend_table(r, ang, backend))
