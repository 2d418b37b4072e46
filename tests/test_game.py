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
    """p0_boys_first is the squared norm of the z = 0^n column of |G>."""

    def refuse(*args, **kwargs):
        raise AssertionError("game_report must not build a projector")

    monkeypatch.setattr(qlin, "projector", refuse)
    for g, boys in [(graphstate.chain(4), 0.5), (graphstate.parallel_chains([2, 2]), 0.25)]:
        rep = game.game_report(game.game_instance(g), acausal.build_resource_pm(g))
        assert rep["violated"] is True
        assert rep["p0_boys_first"] == pytest.approx(boys, abs=1e-12)


def test_game_report_rejects_a_resource_of_another_graph():
    inst = game.game_instance(graphstate.chain(2))
    with pytest.raises(GameError, match="different graph"):
        game.game_report(inst, acausal.build_resource_pm(graphstate.chain(4)))
