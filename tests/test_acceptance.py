"""Acceptance criteria for the resource-process-matrix verification suite.

Each test is one criterion; its ``pytest -v`` PASSED/FAILED line is the
criterion verdict, and the printed detail records the measured numbers.

The graph suite is the three fixed instances (2-chain, 4-chain, 5-cycle with
one designated output) plus twenty seeded random uniform-branch graphs.  The
5-cycle is included deliberately: its cycle structure admits a stabilizer
product supported on the computation vertices alone, so its branch weights
are not uniform and the construction's normalization guarantee does not
cover it.  The normalization sweep (criterion 3) asserts both sides of that
boundary: exact normalization on every graph satisfying
``graphstate.has_uniform_branches`` and a measured breakdown on the 5-cycle.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from acausal_mbqc import acausal, config, game, graphstate, mbqc, procmat
from pm_reference import backend_table

ATOL = 1e-10
BREAKDOWN_DEV = 0.01  # a non-uniform-branch graph must deviate by more at some angle set
ANGLE_SETS = 10
SUITE_RANDOM_GRAPHS = 20


@functools.lru_cache(maxsize=1)
def graph_suite():
    fixed = [
        ("chain2", graphstate.chain(2)),
        ("chain4", graphstate.chain(4)),
        ("cycle5", graphstate.cycle_with_output(5)),
    ]
    rng = np.random.default_rng(config.DEFAULT_SEED)
    randoms = []
    for i in range(SUITE_RANDOM_GRAPHS):
        n_comp = int(rng.integers(1, 5))
        n_out = int(rng.integers(1, 3))
        randoms.append((f"random{i:02d}", graphstate.random_resource_graph(rng, n_comp, n_out)))
    return tuple(fixed + randoms)


@functools.lru_cache(maxsize=1)
def resource_suite():
    return tuple((name, g, acausal.build_resource_pm(g)) for name, g in graph_suite())


def angle_sets_for(g, count=ANGLE_SETS):
    rng = np.random.default_rng([config.DEFAULT_SEED, g.n_computation, len(g.vertices)])
    sets = [{c: 0.0 for c in g.computation}]
    while len(sets) < count:
        sets.append({c: float(rng.uniform(0, 2 * np.pi)) for c in g.computation})
    return sets


def all_outcomes(n_comp, n_out):
    for m in itertools.product((0, 1), repeat=n_comp):
        for z in itertools.product((0, 1), repeat=n_out):
            yield m, z


def test_criterion_01_resource_construction_and_trace():
    """Every suite graph builds, with trace 2^(N+n), in bounded time."""
    start = time.perf_counter()
    rows = []
    for name, g, r in resource_suite():
        expected = 2.0 ** (g.n_computation + g.n_output)
        rows.append((name, abs(r.w.trace() - expected)))
    elapsed = time.perf_counter() - start
    worst = max(dev for _, dev in rows)
    print(f"criterion 01: {len(rows)} graphs built, worst trace dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= ATOL
    assert elapsed < 5.0


def test_criterion_02_branch_independence_sweep():
    """P(m, z) = P(0, z) for every outcome, graph, and random angle set, on
    the literal W: on the fold every branch m contracts the same rows."""
    start = time.perf_counter()
    worst = 0.0
    worst_at = ""
    for name, g, r in resource_suite():
        for ang in angle_sets_for(g):
            probs = acausal.outcome_probabilities(r, ang, literal=True)
            dev = acausal.branch_independence_report(probs)
            if dev > worst:
                worst, worst_at = dev, name
    elapsed = time.perf_counter() - start
    print(f"criterion 02: worst branch dependence {worst:.2e} (at {worst_at}), {elapsed:.1f}s")
    assert worst <= ATOL
    assert elapsed < 30.0


def test_criterion_03_normalization_sweep():
    """Outcome probabilities sum to 1 exactly where uniform branches promise it.

    The resource is a normalized process matrix only for graphs whose causal
    measurement branches are equally likely (``graphstate.has_uniform_branches``).
    Both sides of that boundary are asserted over every suite graph and angle
    set: each uniform-branch graph is normalized within ATOL at every angle
    set, and each graph outside the predicate, the 5-cycle among them,
    deviates by more than BREAKDOWN_DEV at some angle set.  A failure names
    the graph, the index of the angle set in ``angle_sets_for`` and the
    deviation.
    """
    uniform, nonuniform = {}, {}
    for name, g, r in resource_suite():
        devs = [
            acausal.normalization_report(acausal.outcome_probabilities(r, ang))
            for ang in angle_sets_for(g)
        ]
        worst = int(np.argmax(devs))
        side = uniform if graphstate.has_uniform_branches(g) else nonuniform
        side[name] = (worst, devs[worst])

    assert uniform and "cycle5" in nonuniform, (
        f"suite must hold graphs on both sides of the boundary, cycle5 on the "
        f"non-uniform one (uniform: {sorted(uniform)}, non-uniform: {sorted(nonuniform)})"
    )

    def describe(rows):
        return {n: f"{d:.3e} at angle set {i}" for n, (i, d) in rows.items()}

    worst_name = max(uniform, key=lambda n: uniform[n][1])
    worst_idx, worst_dev = uniform[worst_name]
    print(
        f"criterion 03: worst uniform-branch normalization dev {worst_dev:.3e} at "
        f"{worst_name} (angle set {worst_idx}) over {len(uniform)} graphs; "
        f"non-uniform-branch devs: {describe(nonuniform)}"
    )
    unnormalized = {n: row for n, row in uniform.items() if row[1] > ATOL}
    assert not unnormalized, (
        f"normalization deviates above {ATOL:.0e} on uniform-branch graphs: "
        f"{describe(unnormalized)}"
    )
    still_normalized = {n: row for n, row in nonuniform.items() if row[1] <= BREAKDOWN_DEV}
    assert not still_normalized, (
        f"non-uniform-branch graphs stay within {BREAKDOWN_DEV} of normalization at every "
        f"angle set, so has_uniform_branches misclassifies them: {describe(still_normalized)}"
    )


def test_criterion_04_pm_validity():
    """Resource operators are positive with the stated trace."""
    worst_eig = 0.0
    worst_trace = 0.0
    for name, g, r in resource_suite():
        worst_eig = min(worst_eig, r.w.min_eigenvalue())
        worst_trace = max(
            worst_trace, abs(r.w.trace() - 2.0 ** (g.n_computation + g.n_output))
        )
    print(f"criterion 04: min eigenvalue {worst_eig:.2e}, worst trace dev {worst_trace:.2e}")
    assert worst_eig >= -ATOL
    assert worst_trace <= ATOL


def decorated_state_oracle(g):
    """Raw-numpy decorated graph state: |+>^K with a sign flip per edge."""
    comp, out = list(g.computation), list(g.output)
    reds = [c + "'" for c in comp]
    order = comp + out + reds
    pos = {v: i for i, v in enumerate(order)}
    k = len(order)
    edges = [(pos[a], pos[b]) for a, b in g.edges]
    edges += [(pos[c], pos[r]) for c, r in zip(comp, reds)]
    vec = np.full(2**k, 2.0 ** (-k / 2), dtype=complex)
    idx = np.arange(2**k)
    for a, b in edges:
        both = ((idx >> (k - 1 - a)) & 1) & ((idx >> (k - 1 - b)) & 1)
        vec[both == 1] *= -1.0
    return vec


def born_oracle(g, ang, m, z):
    """P(m, z) from first principles: 2^N |<phi^m, z, m | G'>|^2."""
    factors = []
    for c, bit in zip(g.computation, m):
        sign = -1.0 if bit else 1.0
        factors.append(np.array([1.0, sign * np.exp(1j * ang[c])]) / np.sqrt(2.0))
    for bit in z:
        factors.append(np.array([1.0, 0.0]) if bit == 0 else np.array([0.0, 1.0]))
    for bit in m:
        factors.append(np.array([1.0, 0.0]) if bit == 0 else np.array([0.0, 1.0]))
    bra = functools.reduce(np.kron, factors)
    amp = np.vdot(bra, decorated_state_oracle(g))
    return (2.0**g.n_computation) * abs(amp) ** 2


def test_criterion_05_born_rule_against_first_principles():
    """pm_probability equals a raw-numpy amplitude computation, 50 random cases."""
    rng = np.random.default_rng(config.DEFAULT_SEED + 5)
    small = [(name, g, r) for name, g, r in resource_suite()
             if g.n_computation + g.n_output <= 5]
    worst = 0.0
    for _ in range(50):
        name, g, r = small[int(rng.integers(len(small)))]
        ang = {c: float(rng.uniform(0, 2 * np.pi)) for c in g.computation}
        m = tuple(int(b) for b in rng.integers(0, 2, g.n_computation))
        z = tuple(int(b) for b in rng.integers(0, 2, g.n_output))
        got = acausal.outcome_probabilities(r, ang).reshape((2,) * len(m + z))[m + z]
        expect = born_oracle(g, ang, m, z)
        worst = max(worst, abs(got - expect))
    print(f"criterion 05: worst Born deviation {worst:.2e} over 50 cases")
    assert worst <= ATOL


def test_criterion_06_acausal_equals_corrected_causal():
    """2^N P(0, z) equals the corrected adaptive-simulation distribution."""
    worst = 0.0
    for g in [graphstate.chain(2), graphstate.chain(4), graphstate.parallel_chains([2, 2])]:
        r = acausal.build_resource_pm(g)
        for angles in [0.0, 1.1]:
            p = mbqc.chain_pattern(g, angles=angles)
            probs = acausal.outcome_probabilities(r, angles)
            _, weight, dists = mbqc.enumerate_causal(g, p, r.plain)
            dist = sum(w * d for w, d in zip(weight, dists))
            scaled = (2.0**g.n_computation) * probs[0, :]
            worst = max(worst, float(np.max(np.abs(scaled - dist))))
    print(f"criterion 06: worst acausal-vs-causal deviation {worst:.2e}")
    assert worst <= ATOL


def test_criterion_07_game_violates_causal_bound():
    """The acausal strategy beats the causal bound; causal strategies do not."""
    start = time.perf_counter()
    p2_graph, pair_graph = graphstate.chain(2), graphstate.parallel_chains([2, 2])
    p2 = game.game_report(game.game_instance(p2_graph))
    pair = game.game_report(game.game_instance(pair_graph))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 07: p0 {p2['p0_acausal']:.6f} vs bound {p2['bound']} (1 output); "
        f"p0 {pair['p0_acausal']:.6f} vs bound {pair['bound']} (2 outputs); {elapsed:.2f}s"
    )
    assert p2["violated"] and pair["violated"]
    assert p2["p0_acausal"] == pytest.approx(1.0, abs=ATOL)
    assert p2["p0_boys_first"] == pytest.approx(0.5, abs=ATOL)
    assert p2["p0_girls_first_uncorrected"] == pytest.approx(0.5, abs=ATOL)
    assert pair["p0_acausal"] == pytest.approx(1.0, abs=ATOL)
    assert pair["p0_boys_first"] == pytest.approx(0.25, abs=ATOL)
    assert elapsed < 1.0


def test_criterion_08_signaling_from_inside_the_process():
    """Alice's angle choice shifts Bob's readout with total variation 1."""
    r = acausal.build_resource_pm(graphstate.chain(2))
    tv = acausal.signaling_tv(
        acausal.outcome_probabilities(r, 0.0), acausal.outcome_probabilities(r, np.pi)
    )
    print(f"criterion 08: total variation {tv:.12f}")
    assert tv == pytest.approx(1.0, abs=ATOL)


def test_criterion_09_postselected_sampler_calibration():
    """10^6-shot sampler: acceptance within 5 sigma of 2^-(N+n), TV <= 0.02,
    reproducible under a fixed seed."""
    start = time.perf_counter()
    # at 10^5 shots the exact sampler's TV on chain(4) averages 0.013 and
    # exceeds 0.02 for 1 seed in 20; at 10^6 it averages 0.004
    shots = 1_000_000
    for g in [graphstate.chain(2), graphstate.chain(4)]:
        r = acausal.build_resource_pm(g)
        rep = acausal.postselection_report(
            acausal.postselected_sampler(r, 0.0, shots, seed=config.DEFAULT_SEED),
            acausal.outcome_probabilities(r, 0.0),
        )
        p = rep["expected"]
        sigma = np.sqrt(p * (1 - p) / shots)
        print(
            f"criterion 09: {g.n_computation + g.n_output} register, acceptance "
            f"{rep['acceptance']:.5f} vs {p} (sigma {sigma:.2e}), tv {rep['tv']:.4f}"
        )
        assert abs(rep["acceptance"] - p) <= 5 * sigma
        assert rep["tv"] <= 0.02
    r2 = acausal.build_resource_pm(graphstate.chain(2))
    a = acausal.postselected_sampler(r2, 0.0, shots, seed=config.DEFAULT_SEED)
    b = acausal.postselected_sampler(r2, 0.0, shots, seed=config.DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    assert np.array_equal(a.counts, b.counts)
    assert elapsed < 60.0


def test_criterion_10_backend_agreement():
    """Dense trace and factorized overlap backends agree on every probability."""
    worst = 0.0
    checked = 0
    for name, g, r in resource_suite():
        if g.n_computation + g.n_output > 5:
            continue
        for ang in angle_sets_for(g, count=3):
            dense = backend_table(r, ang, "dense")
            factorized = acausal.outcome_probabilities(r, ang, literal=True)
            worst = max(worst, float(np.max(np.abs(dense - factorized))))
        checked += 1
    print(f"criterion 10: worst backend disagreement {worst:.2e} over {checked} graphs")
    assert checked >= 3
    assert worst <= ATOL


def test_criterion_11_every_branch_is_the_positive_branch():
    """Every branch m of the literal W's table is the positive branch of the
    plain graph state, P_W(m, z) = P_G(0^N, z), contracted directly: the route of
    ``verify``'s ``backend_agreement_max_dev``, on every suite graph, the
    non-uniform 5-cycle included."""
    worst = 0.0
    checked = 0
    for name, g, r in resource_suite():
        for ang in angle_sets_for(g, count=3):
            probs = acausal.outcome_probabilities(r, ang, literal=True)
            worst = max(worst, acausal.backend_agreement(r, ang, probs))
        checked += 1
    print(f"criterion 11: worst positive-branch deviation {worst:.2e} over {checked} graphs")
    assert checked == len(graph_suite())
    assert worst <= ATOL
