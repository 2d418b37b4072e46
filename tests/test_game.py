"""Causal guessing game: bound, strategies, acausal violation."""

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
    rep = game.game_report(game.game_instance(g), acausal.build_resource_pm(g))
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


def test_standard_instances_all_violate():
    """Single chains of length 2 and 4, and two parallel 2-chains."""
    for g in [graphstate.chain(2), graphstate.chain(4), graphstate.parallel_chains([2, 2])]:
        rep = game.game_report(game.game_instance(g), acausal.build_resource_pm(g))
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
        rep = game.game_report(game.game_instance(g), acausal.build_resource_pm(g))
        assert rep["violated"] is True
        assert rep["p0_boys_first"] == pytest.approx(boys, abs=1e-12)


def test_game_report_rejects_a_resource_of_another_graph():
    inst = game.game_instance(graphstate.chain(2))
    with pytest.raises(GameError, match="different graph"):
        game.game_report(inst, acausal.build_resource_pm(graphstate.chain(4)))


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
    """The report's two girls-first scores come from one split walk, and each
    is exactly the score of its own walk."""
    inst = game.game_instance(g, 0.0, pattern)
    rep = game.game_report(inst, acausal.build_resource_pm(g))
    assert rep["p0_girls_first_corrected"] == game.girls_first_p0(inst, correct=True)
    assert rep["p0_girls_first_uncorrected"] == game.girls_first_p0(inst, correct=False)
