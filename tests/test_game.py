"""Causal guessing game: bound, strategies, acausal violation."""

import re

import numpy as np
import pytest

from acausal_mbqc import acausal, game, graphstate, mbqc, qlin
from acausal_mbqc.game import GameError


@pytest.mark.parametrize("n,expected", [(1, 0.75), (2, 0.625), (3, 0.5625)])
def test_causal_bound_values(n, expected):
    assert game.causal_bound(n) == pytest.approx(expected)


def test_causal_bound_rejects_nonpositive():
    with pytest.raises(GameError):
        game.causal_bound(0)


@pytest.mark.parametrize("n", [True, 2.0])
def test_causal_bound_refuses_a_count_that_is_no_int(n):
    """True read as 1 (0.75) and 2.0 as 2 (0.625): only an int is a count of outputs."""
    with pytest.raises(GameError, match=f"^n must be a positive integer, got {re.escape(repr(n))}$"):
        game.causal_bound(n)


def test_game_instance_accepts_even_chain():
    inst = game.game_instance(graphstate.chain(2))
    assert inst.n_output == 1


def test_game_instance_rejects_odd_chain():
    """A 3-chain at angle 0 leaves the output in |+>, not |0>."""
    with pytest.raises(GameError):
        game.game_instance(graphstate.chain(3))


def test_p2_game_numbers():
    inst = game.game_instance(graphstate.chain(2))
    r = acausal.build_resource_pm(inst.graph)
    assert game.acausal_p0(r, inst.angles) == pytest.approx(1.0, abs=1e-10)
    assert game.girls_first_p0(inst) == pytest.approx(1.0, abs=1e-10)
    assert game.girls_first_p0(inst, correct=False) == pytest.approx(0.5, abs=1e-10)
    assert game.boys_first_p0(inst) == pytest.approx(0.5, abs=1e-10)


def test_two_chain_game_numbers():
    inst = game.game_instance(graphstate.parallel_chains([2, 2]))
    assert game.causal_bound(inst.n_output) == pytest.approx(0.625)
    r = acausal.build_resource_pm(inst.graph)
    assert game.acausal_p0(r, inst.angles) == pytest.approx(1.0, abs=1e-10)
    assert game.boys_first_p0(inst) == pytest.approx(0.25, abs=1e-10)
    assert game.girls_first_p0(inst, correct=False) == pytest.approx(0.25, abs=1e-10)


def test_game_report_declares_violation():
    g = graphstate.chain(4)
    rep = game.game_report(game.game_instance(g))
    assert rep["violated"] is True
    assert rep["p0_acausal"] > rep["bound"] + 1e-9
    assert rep["p0_boys_first"] <= rep["bound"] + 1e-10
    assert rep["p0_girls_first_uncorrected"] <= rep["bound"] + 1e-10
    assert set(rep) == {
        "p0_acausal",
        "p0_girls_first_corrected",
        "p0_girls_first_uncorrected",
        "p0_boys_first",
        "bound",
        "violated",
    }


def test_girls_first_sampled_matches_exact():
    inst = game.game_instance(graphstate.chain(2))
    sampled = game.girls_first_p0(inst, shots=500, seed=13)
    assert sampled == pytest.approx(1.0, abs=1e-12)  # deterministic win
    uncorrected = game.girls_first_p0(inst, correct=False, shots=3000, seed=13)
    assert uncorrected == pytest.approx(0.5, abs=0.05)


def test_girls_first_sampling_is_seeded():
    inst = game.game_instance(graphstate.chain(2))
    a = game.girls_first_p0(inst, correct=False, shots=500, seed=21)
    b = game.girls_first_p0(inst, correct=False, shots=500, seed=21)
    assert a == b


@pytest.mark.parametrize("shots", [2.5, 0.0, True, False, "10"])
def test_girls_first_refuses_a_shot_count_that_is_no_int(monkeypatch, shots):
    """2.5 failed deep in numpy, and 0.0 or False read as the exact score:
    anything but a Python or numpy int is refused before any draw."""

    def refuse(*args, **kwargs):
        raise AssertionError("girls_first_p0 drew before checking its shots")

    inst = game.game_instance(graphstate.chain(2))
    monkeypatch.setattr(mbqc, "sample_causal", refuse)
    with pytest.raises(GameError, match="^shots must be an int, got "):
        game.girls_first_p0(inst, shots=shots)


@pytest.mark.parametrize("shots", [-1, np.int64(-5)], ids=["-1", "int64(-5)"])
def test_girls_first_refuses_a_negative_shot_count_naming_it(shots):
    inst = game.game_instance(graphstate.chain(2))
    with pytest.raises(GameError, match=f"^shots must be nonnegative, got {re.escape(repr(shots))}$"):
        game.girls_first_p0(inst, shots=shots)


@pytest.mark.parametrize("seed", [True, 1.7, -1, pytest.param(np.int64(-1), id="int64(-1)")])
def test_girls_first_refuses_a_seed_that_is_no_int(monkeypatch, seed):
    """True ran as seed 1, 1.7 failed in numpy's SeedSequence and a negative
    seed failed in numpy naming no seed: a seed that is no non-negative
    Python or numpy int is refused, naming it, before any draw."""

    def refuse(*args, **kwargs):
        raise AssertionError("girls_first_p0 drew before checking its seed")

    inst = game.game_instance(graphstate.chain(4))
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(mbqc, "sample_causal", refuse)
    want = f"^seed must be a non-negative int, got {re.escape(repr(seed))}$"
    with pytest.raises(GameError, match=want):
        game.girls_first_p0(inst, correct=False, shots=50, seed=seed)


def test_girls_first_takes_a_numpy_int():
    inst = game.game_instance(graphstate.chain(2))
    want = game.girls_first_p0(inst, correct=False, shots=500, seed=21)
    assert game.girls_first_p0(inst, correct=False, shots=np.int64(500), seed=21) == want
    assert game.girls_first_p0(inst, shots=np.int64(0)) == game.girls_first_p0(inst)


def test_standard_instances_all_violate():
    """Single chains of length 2 and 4, and two parallel 2-chains."""
    for g in [graphstate.chain(2), graphstate.chain(4), graphstate.parallel_chains([2, 2])]:
        rep = game.game_report(game.game_instance(g))
        assert rep["violated"], g


def test_custom_pattern_accepted():
    g = graphstate.chain(2)
    p = mbqc.chain_pattern(g)
    inst = game.game_instance(g, 0.0, p)
    r = acausal.build_resource_pm(g)
    assert game.acausal_p0(r, inst.angles) == pytest.approx(1.0, abs=1e-10)


def test_game_report_builds_no_projector(monkeypatch):
    """p0_boys_first is the squared norm of the z = 0^n column of |G>: no
    projector, nor any other operator, is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("game_report must not build a projector")

    monkeypatch.setattr(qlin.HermOp, "__init__", refuse)
    for g, boys in [(graphstate.chain(4), 0.5), (graphstate.parallel_chains([2, 2]), 0.25)]:
        rep = game.game_report(game.game_instance(g))
        assert rep["violated"] is True
        assert rep["p0_boys_first"] == pytest.approx(boys, abs=1e-12)


def test_game_report_builds_no_graph_state(monkeypatch):
    """The report reads the boys-first score off the plain graph state the
    resource holds, bit for bit ``boys_first_p0``'s, and the acausal score
    off the folded table: it builds no state and no literal W."""
    for g in [graphstate.chain(4), graphstate.parallel_chains([2, 2])]:
        inst = game.game_instance(g)
        boys = game.boys_first_p0(inst)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphstate, "graph_state", None)
            rep = game.game_report(inst)
        assert rep["p0_boys_first"] == boys
        assert "w" not in vars(inst.resource)


def test_an_instance_scores_under_the_cap_it_was_built_with():
    """chain(16) is above the default cap of 14: an instance made under cap
    16 holds its resource, so its sampled girls-first and its boys-first
    scores read that resource's plain state and build none under the
    default cap."""
    inst = game.game_instance(acausal.build_resource_pm(graphstate.chain(16), 16))
    assert game.girls_first_p0(inst) == pytest.approx(1.0, abs=1e-10)
    assert game.girls_first_p0(inst, shots=10, seed=1) == 1.0
    assert game.boys_first_p0(inst) == pytest.approx(0.5, abs=1e-12)
    assert inst.resource.cap == 16


def test_an_instance_of_a_built_resource_holds_that_resource(monkeypatch):
    """Given a resource, the instance walks the plain state that resource
    holds and builds no other."""
    r = acausal.build_resource_pm(graphstate.chain(4))
    monkeypatch.setattr(graphstate, "graph_state", None)
    inst = game.game_instance(r)
    assert inst.resource is r and inst.graph is r.base_graph
    assert game.game_report(inst)["violated"] is True


def _random_pattern(g, seed):
    """A pattern on g with random angles and random strictly earlier deps."""
    rng = np.random.default_rng(seed)
    order = list(g.computation)

    def subset(vertices):
        return [v for v in vertices if rng.random() < 0.5]

    return mbqc.make_pattern(
        order,
        {c: float(rng.uniform(0.0, 2 * np.pi)) for c in order},
        {v: subset(order[:i]) for i, v in enumerate(order)},
        {v: subset(order[:i]) for i, v in enumerate(order)},
        {o: subset(order) for o in g.output},
        {o: subset(order) for o in g.output},
    )


PC22 = graphstate.parallel_chains([2, 2])
GAME_CASES = {
    "chain2": (graphstate.chain(2), None),
    "chain4": (graphstate.chain(4), None),
    "chain6": (graphstate.chain(6), None),
    "pc22": (PC22, None),
    "pc222": (graphstate.parallel_chains([2, 2, 2]), None),
    "chain4-pattern-0.9": (graphstate.chain(4), mbqc.chain_pattern(graphstate.chain(4), 0.9)),
    "chain4-random": (graphstate.chain(4), _random_pattern(graphstate.chain(4), 1)),
    "pc22-random": (PC22, _random_pattern(PC22, 2)),
}


@pytest.mark.parametrize("g, pattern", GAME_CASES.values(), ids=GAME_CASES.keys())
def test_game_report_scores_are_girls_first_p0(g, pattern):
    """The two girls-first scores of one split walk are each exactly the
    score of the walk's amplitudes with and without the byproducts; a
    deterministic instance holds them, and its report prints them."""
    p = mbqc.chain_pattern(g) if pattern is None else pattern
    state = graphstate.graph_state(g)
    _, weight, (corrected, uncorrected) = mbqc.enumerate_causal(g, p, state)
    m, _, amps, _ = mbqc._walk(g, p, state)
    alone = {
        True: game._exact_p0(weight, np.abs(mbqc._byproducts(g, p, m, amps)) ** 2),
        False: game._exact_p0(weight, np.abs(amps) ** 2),
    }
    assert game._exact_p0(weight, corrected) == alone[True]
    assert game._exact_p0(weight, uncorrected) == alone[False]
    if pattern is not None:  # not deterministic: the gate refuses it
        with pytest.raises(GameError, match="not a deterministic game instance"):
            game.game_instance(g, None, pattern)
        return
    inst = game.game_instance(g, None, pattern)
    rep = game.game_report(inst)
    assert rep["p0_girls_first_corrected"] == alone[True] == game.girls_first_p0(inst)
    assert rep["p0_girls_first_uncorrected"] == alone[False]
    assert alone[False] == game.girls_first_p0(inst, correct=False)


def test_game_walks_once_and_the_report_not_at_all(monkeypatch):
    """``mbqc._walk`` calls: one for the instance, none for the report or the
    exact scores, one for each sampled estimate, whatever its shots."""
    g = graphstate.chain(4)
    walks = []
    real = mbqc._walk
    monkeypatch.setattr(mbqc, "_walk", lambda *a, **k: walks.append(1) or real(*a, **k))
    inst = game.game_instance(g)
    assert len(walks) == 1
    rep = game.game_report(inst)
    assert game.girls_first_p0(inst) == rep["p0_girls_first_corrected"]
    assert game.girls_first_p0(inst, correct=False) == rep["p0_girls_first_uncorrected"]
    assert len(walks) == 1
    game.girls_first_p0(inst, shots=10, seed=1)
    assert len(walks) == 2
    game.girls_first_p0(inst, shots=3000, seed=1)
    assert len(walks) == 3


def test_a_pattern_plays_its_own_angles():
    """Without angles the instance takes the pattern's, so the acausal score
    and both walks see the same angles; an equal angle set is accepted."""
    g = graphstate.chain(4)
    p = mbqc.chain_pattern(g, 2 * np.pi)
    assert game.game_instance(g, None, p).angles == p.angles == {c: 0.0 for c in g.computation}
    assert game.game_instance(g, 2 * np.pi, p).angles == p.angles


def test_angles_that_differ_from_the_pattern_are_refused():
    g = graphstate.chain(4)
    p = mbqc.make_pattern(g.computation, {"c0": 0.0, "c1": 0.5, "c2": 0.0})
    with pytest.raises(GameError, match="vertex 'c1' differs from the pattern's 0.5"):
        game.game_instance(g, 0.0, p)
    with pytest.raises(GameError, match="vertex 'c0' differs"):
        game.game_instance(g, [0.1, 0.6, 0.0], p)
