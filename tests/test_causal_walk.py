"""The split measurement walk of ``mbqc`` and the multinomial sampler.

``sample_causal`` must reproduce, bit for bit, a causal run written one shot
at a time on ``qlin.sample_projective`` with the same Generator, on chain and
on random patterns, from one walk whatever the shots.  ``enumerate_causal``
must equal the same run with every outcome forced, on chain and on random
patterns, and its split must hold one state's worth of amplitudes per step.  The postselected sampler
must be calibrated: acceptance near 2^-(N+n) and its accepted counts near the
exact table.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acausal_mbqc import acausal, config, game, graphstate, mbqc, qlin

ATOL = 1e-12
WALK_GRAPHS = [graphstate.chain(k) for k in range(2, 7)] + [graphstate.parallel_chains([2, 2])]
READOUT_BASIS = (qlin.basis_ket([0]), qlin.basis_ket([1]))


def _parity(bits, deps):
    return sum(bits[u] for u in deps) % 2


def _one_run(g, p, rng, correct, forced=None):
    """One causal run on qlin.sample_projective: (m by vertex, state, weight)."""
    state = graphstate.graph_state(g)
    live = list(graphstate.ket_order(g))
    m_by, weight = {}, 1.0
    for v in p.order:
        phi = mbqc.adapted_angle(
            p.angles[v], _parity(m_by, p.x_deps.get(v, ())), _parity(m_by, p.z_deps.get(v, ()))
        )
        force = None if forced is None else forced[v]
        basis = (qlin.equatorial_ket(phi, 0), qlin.equatorial_ket(phi, 1))
        res = qlin.sample_projective(state, basis, live.index(v), rng, force=force)
        state, m_by[v] = res.state, res.outcome
        weight *= res.probability
        live.remove(v)
    for o in g.output if correct else ():
        if _parity(m_by, p.out_x_deps.get(o, ())):
            state = qlin.apply_on_qubits(np.array([[0, 1], [1, 0]]), [live.index(o)], state)
        if _parity(m_by, p.out_z_deps.get(o, ())):
            state = qlin.apply_on_qubits(np.diag([1, -1]), [live.index(o)], state)
    return m_by, state, weight


def per_shot_oracle(g, p, shots, rng, correct):
    """``shots`` runs one at a time, reading out O in order after each."""
    ms, zs = [], []
    for _ in range(shots):
        m_by, state, _ = _one_run(g, p, rng, correct)
        z = []
        for _ in g.output:  # only O is left, so each readout is position 0
            res = qlin.sample_projective(state, READOUT_BASIS, 0, rng)
            state = res.state
            z.append(res.outcome)
        ms.append([m_by[c] for c in g.computation])
        zs.append(z)
    return np.array(ms), np.array(zs)


@pytest.mark.parametrize("cap", [None, "6"], ids=["default-cap", "cap6"])
@pytest.mark.parametrize("correct", [True, False])
@pytest.mark.parametrize("g", WALK_GRAPHS, ids=lambda g: f"{g.n_computation}+{g.n_output}")
def test_sample_causal_equals_per_shot_runs(monkeypatch, g, correct, cap):
    """Same outcome arrays and the same stream position as one run per shot,
    under cap 6 (the largest graph's size) and under the default cap."""
    if cap is not None:
        monkeypatch.setenv(config.CAP_ENV_VAR, cap)
    for seed, angle in [(3, 0.0), (4, 0.9), (5, 2.2)]:
        p = mbqc.chain_pattern(g, angle)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        m, z, weight = mbqc.sample_causal(g, p, graphstate.graph_state(g), 70, a, correct=correct)
        m_ref, z_ref = per_shot_oracle(g, p, 70, b, correct)
        assert np.array_equal(m, m_ref), (seed, angle)
        assert np.array_equal(z, z_ref), (seed, angle)
        assert a.random() == b.random()
        # chain patterns have uniform branches: every history weighs 2^-N
        assert np.allclose(weight, 2.0**-g.n_computation, atol=ATOL)


def test_run_causal_is_one_row_of_sample_causal():
    g = graphstate.chain(4)
    p = mbqc.chain_pattern(g, 0.4)
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    state = graphstate.graph_state(g)
    m, z, weight = mbqc.sample_causal(g, p, state, 5, a, correct=False)
    for row in range(5):
        rec = mbqc.run_causal(g, p, state, b, correct=False)
        assert rec.m == tuple(m[row]) and rec.z == tuple(z[row])
        assert rec.branch_probability == weight[row] and not rec.corrected


def test_sampled_game_builds_the_graph_state_once(monkeypatch):
    """The instance builds the plain graph state with its resource; the
    sampled and exact girls-first scores and the boys-first score read it."""
    calls = []
    real = graphstate.graph_state
    monkeypatch.setattr(
        graphstate, "graph_state", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    inst = game.game_instance(graphstate.chain(4))
    assert game.girls_first_p0(inst, shots=3000, seed=1) == 1.0
    assert game.girls_first_p0(inst) == pytest.approx(1.0, abs=ATOL)
    assert game.boys_first_p0(inst) == pytest.approx(0.5, abs=ATOL)
    assert len(calls) == 1


@pytest.mark.parametrize("shots", [1, 70, 3000])
@pytest.mark.parametrize(
    "g", [graphstate.chain(4), graphstate.parallel_chains([2, 2])], ids=["chain4", "pc22"]
)
def test_sample_causal_walks_once_whatever_the_shots(monkeypatch, g, shots):
    """One split walk and N + n measurement steps per call, on the caller's
    graph state: the shots descend the walk's tree, no state is walked per
    shot, and none is built."""
    state = graphstate.graph_state(g)
    calls = {"_walk": 0, "_measure": 0, "graph_state": 0}
    for owner, name in [(mbqc, "_walk"), (mbqc, "_measure"), (graphstate, "graph_state")]:
        real = getattr(owner, name)

        def counted(*a, _real=real, _name=name, **k):
            calls[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(owner, name, counted)
    rng = np.random.default_rng(1)
    m, z, _ = mbqc.sample_causal(g, mbqc.chain_pattern(g, 0.4), state, shots, rng)
    assert m.shape == (shots, g.n_computation) and z.shape == (shots, g.n_output)
    assert calls == {"_walk": 1, "_measure": g.n_computation + g.n_output, "graph_state": 0}


def histories(g, p, correct):
    """``enumerate_causal``'s rows keyed by outcome bits: (weight, readout distribution)."""
    m, weight, dist = mbqc.enumerate_causal(g, p, graphstate.graph_state(g), correct=correct)
    return {tuple(row): (w, d) for row, w, d in zip(m.tolist(), weight, dist)}


@st.composite
def chain_patterns(draw):
    """parallel_chains with N + n <= 6, random base angles, either correction flag."""
    lengths = draw(
        st.lists(st.integers(2, 4), min_size=1, max_size=3).filter(lambda ls: sum(ls) <= 6)
    )
    g = graphstate.parallel_chains(lengths)
    angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False)
    return g, mbqc.chain_pattern(g, [draw(angle) for _ in g.computation]), draw(st.booleans())


@settings(max_examples=30, deadline=None, database=None)
@given(chain_patterns())
def test_enumerate_causal_equals_forced_runs(case):
    g, p, correct = case
    branches = histories(g, p, correct)
    assert len(branches) == 2**g.n_computation
    for bits in itertools.product((0, 1), repeat=g.n_computation):
        m_by, state, weight = _one_run(g, p, None, correct, forced=dict(zip(p.order, bits)))
        probability, dist = branches[tuple(m_by[c] for c in g.computation)]
        assert abs(probability - weight) <= ATOL
        assert np.max(np.abs(dist - np.abs(state.amplitudes) ** 2)) <= ATOL


@st.composite
def random_patterns(draw):
    """Random connected graphs with N + n <= 6, a random order, random strictly
    earlier x/z deps and output deps, and angles that include multiples of
    pi/2, at which some histories cannot happen."""
    n_comp = draw(st.integers(1, 5))
    n_out = draw(st.integers(1, 6 - n_comp))
    g = graphstate.random_connected_graph(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n_comp, n_out
    )
    order = draw(st.permutations(g.computation))

    def subset(vertices):
        return draw(st.lists(st.sampled_from(vertices), unique=True)) if vertices else []

    x_deps = {v: subset(order[:i]) for i, v in enumerate(order)}
    z_deps = {v: subset(order[:i]) for i, v in enumerate(order)}
    out_x = {o: subset(g.computation) for o in g.output}
    out_z = {o: subset(g.computation) for o in g.output}
    angle = st.one_of(
        st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]),
        st.floats(0.0, 2 * math.pi, allow_nan=False),
    )
    angles = {c: draw(angle) for c in g.computation}
    p = mbqc.make_pattern(order, angles, x_deps, z_deps, out_x, out_z)
    return g, mbqc.validate_pattern(g, p), draw(st.booleans())


def _five_alices_one_bob(edges, order, x_deps, z_deps, out_x, out_z, angles, correct):
    g = graphstate.Graph(
        ("c0", "c1", "c2", "c3", "c4", "o0"), edges, ("c0", "c1", "c2", "c3", "c4"), ("o0",)
    )
    return g, mbqc.make_pattern(order, angles, x_deps, z_deps, out_x, out_z), correct


# Two patterns of random_patterns' kind with one vertex at 3.4e-05 rad, where a history
# weighs about 1.8e-11: its renormalized readout distribution differs from the
# forced run's by 6.9e-12 and 1.2e-11, above ATOL, while the joint
# probabilities weight * dist differ by at most 2.5e-17
SMALL_ANGLE_CASES = [
    _five_alices_one_bob(
        [("c0", "c1"), ("c0", "c2"), ("c0", "c3"), ("c0", "c4"),
         ("c1", "c2"), ("c1", "c3"), ("c1", "o0"), ("c2", "o0")],
        ["c2", "c4", "c0", "c1", "c3"],
        {"c4": ["c2"], "c0": ["c2", "c4"], "c1": ["c4", "c0"], "c3": ["c2", "c4", "c0"]},
        {"c4": ["c2"], "c0": ["c2"], "c1": ["c2", "c0"], "c3": ["c2", "c4", "c1"]},
        {"o0": ["c0", "c4"]},
        {"o0": ["c2"]},
        {"c0": math.pi, "c1": 3.4e-05, "c2": 3 * math.pi / 2, "c3": math.pi / 2, "c4": 0.0},
        False,
    ),
    _five_alices_one_bob(
        [("c0", "c1"), ("c0", "c2"), ("c0", "c4"), ("c2", "c3"),
         ("c2", "c4"), ("c3", "o0"), ("c4", "o0")],
        ["c0", "c4", "c2", "c1", "c3"],
        {"c2": ["c4"], "c1": ["c2"], "c3": ["c4", "c2", "c1"]},
        {"c4": ["c0"], "c1": ["c0"], "c3": ["c4", "c2", "c1"]},
        {"o0": ["c0", "c3"]},
        {"o0": ["c1", "c2", "c4"]},
        {"c0": 0.0, "c1": 0.0, "c2": math.pi / 2, "c3": 0.0, "c4": 3.4e-05},
        False,
    ),
]


@settings(max_examples=60, deadline=None, database=None)
@given(random_patterns())
@example(SMALL_ANGLE_CASES[0])
@example(SMALL_ANGLE_CASES[1])
def test_enumerate_causal_equals_forced_runs_on_random_patterns(case):
    """A history the per-shot oracle refuses to force weighs below its forcing
    floor; the split must give it (nearly) zero probability.

    The readouts are compared as joint probabilities, weight * dist: the
    readout of a history of weight w is renormalized by 1 / w, which
    magnifies the rounding error of its amplitudes; multiplied back by the
    weight, the error stays near machine epsilon."""
    g, p, correct = case
    branches = histories(g, p, correct)
    assert len(branches) == 2**g.n_computation
    assert sum(w for w, _ in branches.values()) == pytest.approx(1.0, abs=ATOL)
    for bits in itertools.product((0, 1), repeat=g.n_computation):
        forced = dict(zip(p.order, bits))
        probability, dist = branches[tuple(forced[c] for c in g.computation)]
        try:
            _, state, weight = _one_run(g, p, None, correct, forced=forced)
        except qlin.QlinError:
            assert probability <= ATOL
            continue
        assert abs(probability - weight) <= ATOL
        joint = weight * np.abs(state.amplitudes) ** 2
        assert np.max(np.abs(probability * dist - joint)) <= ATOL


@pytest.mark.parametrize("g", WALK_GRAPHS, ids=lambda g: f"{g.n_computation}+{g.n_output}")
def test_one_split_walk_gives_every_correction_flag(monkeypatch, g):
    """``correct=(True, False)`` walks once, and each stacked distribution
    equals its single-flag call bit for bit."""
    p = mbqc.make_pattern(
        g.computation,
        {c: 0.3 + i for i, c in enumerate(g.computation)},
        out_x_deps={o: g.computation[::2] for o in g.output},
        out_z_deps={o: g.computation[1::2] for o in g.output},
    )
    walks = []
    real = mbqc._walk
    monkeypatch.setattr(mbqc, "_walk", lambda *a, **k: walks.append(1) or real(*a, **k))
    state = graphstate.graph_state(g)
    m, weight, both = mbqc.enumerate_causal(g, p, state, correct=(True, False))
    assert len(walks) == 1 and both.shape == (2, 2**g.n_computation, 2**g.n_output)
    for flag, dist in zip((True, False), both):
        m_1, weight_1, dist_1 = mbqc.enumerate_causal(g, p, state, correct=flag)
        assert np.array_equal(m, m_1) and np.array_equal(weight, weight_1)
        assert np.array_equal(dist, dist_1)
    assert not np.array_equal(both[0], both[1])


@pytest.mark.parametrize(
    "g", [graphstate.chain(4), graphstate.parallel_chains([2, 2])], ids=["chain4", "pc22"]
)
def test_split_holds_one_state_of_amplitudes_per_step(monkeypatch, g):
    """Each step of the split measures 2^i rows of 2^(N+n-i) amplitudes."""
    sizes = []
    real = mbqc._measure
    monkeypatch.setattr(
        mbqc, "_measure", lambda state, *a: sizes.append(state.size) or real(state, *a)
    )
    p, state = mbqc.chain_pattern(g, 0.7), graphstate.graph_state(g)
    for correct in (True, False):
        mbqc.enumerate_causal(g, p, state, correct=correct)
    assert sizes == [2 ** (g.n_computation + g.n_output)] * (2 * g.n_computation)


def test_exact_game_on_chain14_under_the_default_cap():
    """2^13 histories of a 14-qubit state, split in 13 steps."""
    start = time.perf_counter()
    inst = game.game_instance(graphstate.chain(14))
    assert game.girls_first_p0(inst, correct=True) == pytest.approx(1.0, abs=ATOL)
    assert game.girls_first_p0(inst, correct=False) == pytest.approx(0.5, abs=ATOL)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "g",
    [graphstate.chain(k) for k in (2, 4, 6, 14)] + [graphstate.parallel_chains([2, 2])],
    ids=["chain2", "chain4", "chain6", "chain14", "pc22"],
)
@pytest.mark.parametrize("angles", [0.0, 1.3], ids=["angle0", "angle1.3"])
def test_uncorrected_girls_first_equals_boys_first(g, angles):
    """No signaling: measuring C cannot move O's marginal, so without
    corrections the split's p0 equals the z = 0 column of |G>, a route that
    shares no code with the walk."""
    ang = mbqc.as_angle_map(g, angles)
    pattern = mbqc.chain_pattern(g, ang)
    r = acausal.build_resource_pm(g)
    _, weight, dist = mbqc.enumerate_causal(g, pattern, r.plain, correct=False)
    girls = game._exact_p0(weight, dist)
    # built directly: the validity gate refuses nonzero angles
    inst = game.GameInstance(r, ang, pattern, p0_corrected=np.nan, p0_uncorrected=girls)
    assert abs(game.girls_first_p0(inst, correct=False) - game.boys_first_p0(inst)) <= ATOL


def _assert_sampled_like_per_shot_runs(g, p, correct, shots, seed):
    """``sample_causal`` gives the per-shot oracle's outcomes and stream
    position, and each row's weight is ``enumerate_causal``'s weight of that
    history, bit for bit."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    m, z, weight = mbqc.sample_causal(g, p, graphstate.graph_state(g), shots, a, correct=correct)
    m_ref, z_ref = per_shot_oracle(g, p, shots, b, correct)
    assert np.array_equal(m, m_ref) and np.array_equal(z, z_ref)
    assert a.random() == b.random()
    branches = histories(g, p, correct)
    assert [branches[row][0] for row in map(tuple, m.tolist())] == weight.tolist()


# the vee graph's branches are not uniform: at these angles its four histories
# weigh about 0.15, 0.35, 0.35 and 0.15
VEE_CASE = (
    graphstate.vee_graph(),
    mbqc.make_pattern(("c0", "c1"), {"c0": 0.8, "c1": 2.2}, out_z_deps={"o0": ["c0"]}),
    True,
)


@settings(max_examples=40, deadline=None, database=None)
@given(random_patterns(), st.integers(0, 2**32 - 1))
@example(VEE_CASE, 11)
@example(SMALL_ANGLE_CASES[0], 12)
def test_sample_causal_equals_per_shot_runs_on_random_patterns(case, seed):
    g, p, correct = case
    _assert_sampled_like_per_shot_runs(g, p, correct, 40, seed)


@pytest.mark.parametrize("correct", [True, False])
def test_sample_causal_through_zero_weight_branches(correct):
    """cycle_with_output(4) at the angles of the zero-weight test: the walk's
    third step has nodes whose outcome 0 has probability 0, and others where
    it is 1 up to round-off, and every shot still matches the per-shot oracle."""
    g = graphstate.cycle_with_output(4)
    p = mbqc.make_pattern(g.computation, mbqc.as_angle_map(g, [math.pi / 2, 0.0, math.pi / 2]))
    p0 = mbqc._walk(g, p, graphstate.graph_state(g))[3][2]
    assert p0.min() == 0.0 and p0.max() == pytest.approx(1.0, abs=1e-15)
    _assert_sampled_like_per_shot_runs(g, p, correct, 500, 21)


def test_enumerate_causal_drops_zero_weight_branches():
    """On the vee graph at angle 0 two of four histories cannot happen."""
    g = graphstate.vee_graph()
    p = mbqc.make_pattern(g.computation, {c: 0.0 for c in g.computation})
    branches = histories(g, p, False)
    for m in [(0, 1), (1, 0)]:
        probability, dist = branches[m]
        assert probability == 0.0
        assert not dist.any()
    assert sum(w for w, _ in branches.values()) == pytest.approx(1.0, abs=ATOL)


def test_positive_branch_output_raises_on_a_zero_weight_branch():
    """The game's gate reads the all-zeros history of its one split walk and
    refuses it when that history cannot happen."""
    g = graphstate.cycle_with_output(4)
    angles = mbqc.as_angle_map(g, [math.pi / 2, 0.0, math.pi / 2])
    pattern = mbqc.make_pattern(g.computation, angles)
    with pytest.raises(mbqc.PatternError, match="positive branch has zero probability"):
        game.game_instance(g, None, pattern)


@pytest.mark.parametrize(
    "g",
    [
        graphstate.chain(4),
        graphstate.parallel_chains([2, 2]),
        graphstate.random_resource_graph(np.random.default_rng(2024), 3, 2),
    ],
    ids=["chain4", "pc22", "random3x2"],
)
def test_postselected_sampler_calibration(g):
    """10^6 shots: acceptance within 5 sigma of 2^-(N+n), TV to the exact table <= 0.02."""
    shots = 1_000_000
    r = acausal.build_resource_pm(g)
    rep = acausal.postselection_report(
        acausal.postselected_sampler(r, 0.0, shots, seed=99), acausal.outcome_probabilities(r, 0.0)
    )
    p = rep["expected"]
    assert p == 2.0 ** -(g.n_computation + g.n_output)
    assert abs(rep["acceptance"] - p) <= 5 * math.sqrt(p * (1 - p) / shots)
    assert rep["tv"] <= 0.02
