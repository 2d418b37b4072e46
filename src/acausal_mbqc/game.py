"""Causal game separating the acausal resource from any fixed party ordering.

The referee asks for the computation's deterministic output 0^n.  Under a
fixed order, whichever side goes first limits the score: measuring parties
first ("girls first") allows perfect play, readout first ("boys first")
reduces the outputs to their unconditioned marginal.  A causal strategy
averaging the two orders scores at most (1 + 2^-n)/2; the acausal resource
scores 1 in both orders simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import acausal, config, graphstate, mbqc, qlin
from .graphstate import Graph
from .mbqc import Pattern


class GameError(ValueError):
    """Instance does not define a valid deterministic game."""


VALIDITY_ATOL = 1e-10
VIOLATION_ATOL = 1e-9


@dataclass(frozen=True)
class GameInstance:
    """Graph, angles, and pattern whose corrected output is |0...0> exactly."""

    graph: Graph
    angles: Mapping[str, float]
    pattern: Pattern

    @property
    def n_output(self) -> int:
        return self.graph.n_output


def game_instance(
    g: Graph, angles=0.0, pattern: Pattern | None = None, cap: int | None = None
) -> GameInstance:
    """Build an instance, enforcing the validity gate.

    The positive-branch output must have fidelity >= 1 - 1e-10 with |0^n>;
    chains of even total length at angle 0 qualify, odd ones do not.
    """
    graphstate.validate(g)
    ang = mbqc.as_angle_map(g, angles)
    if pattern is None:
        pattern = mbqc.chain_pattern(g, ang)
    else:
        mbqc.validate_pattern(g, pattern)
    target = qlin.basis_ket([0] * g.n_output)
    fid = qlin.fidelity(mbqc.positive_branch_output(g, ang, cap), target)
    if fid < 1.0 - VALIDITY_ATOL:
        raise GameError(
            f"positive-branch output has fidelity {fid!r} with |0^n|; "
            "not a deterministic game instance"
        )
    return GameInstance(graph=g, angles=ang, pattern=pattern)


def causal_bound(n: int) -> float:
    """Best causal success probability for n output bits: (1 + 2^-n)/2."""
    if int(n) != n or n < 1:
        raise GameError(f"n must be a positive integer, got {n!r}")
    return 0.5 * (1.0 + 2.0 ** -int(n))


def acausal_p0(r: acausal.ResourcePM, angles) -> float:
    """Success probability with the acausal resource: sum over m of P(m, 0^n)."""
    probs = acausal.outcome_probabilities(r, angles)
    return float(probs[:, 0].sum())


def _exact_p0(weight: np.ndarray, dist: np.ndarray) -> float:
    """sum over the histories of weight * P(z = 0^n | history), added left to
    right in the walk's row order, as a running sum: no pairwise (np.sum) or
    compensated (Python >= 3.12 sum) reordering."""
    return float(np.cumsum(weight * dist[:, 0])[-1])


def girls_first_p0(
    inst: GameInstance,
    correct: bool = True,
    shots: int = 0,
    seed: int | None = None,
    cap: int | None = None,
) -> float:
    """Success probability when all measurements happen before readout.

    shots = 0 evaluates the exact branch enumeration; shots > 0 estimates it
    from that many seeded causal runs, sampled in one batched walk.
    """
    if shots == 0:
        _, weight, dist = mbqc.enumerate_causal(inst.graph, inst.pattern, correct=correct, cap=cap)
        return _exact_p0(weight, dist)
    if shots < 0:
        raise GameError("shots must be nonnegative")
    rng = np.random.default_rng(config.DEFAULT_SEED if seed is None else seed)
    _, z, _ = mbqc.sample_causal(inst.graph, inst.pattern, shots, rng, correct=correct, cap=cap)
    return int(np.count_nonzero(~z.any(axis=1))) / shots


def boys_first_p0(inst: GameInstance, cap: int | None = None) -> float:
    """Success probability when the outputs are read out first: <0^n| Tr_C |G><G| |0^n>."""
    g = inst.graph  # the squared norm of the z = 0^n column of |G> as a (2^N, 2^n) array
    amps = graphstate.graph_state(g, cap).amplitudes.reshape(2**g.n_computation, 2**g.n_output)
    return float(np.sum(np.abs(amps[:, 0]) ** 2))


def game_report(inst: GameInstance, r: acausal.ResourcePM) -> dict:
    """Full comparison for one instance on its graph's resource, whose cap every
    walk obeys; ``violated`` is the headline.

    Both exact girls-first scores come from one split walk of the instance's
    pattern, which keeps the uncorrected and the corrected readout of every
    history; each equals ``girls_first_p0(inst, correct=...)`` bit for bit.
    """
    if r.base_graph != inst.graph:
        raise GameError("the resource was built from a different graph than the instance")
    bound = causal_bound(inst.n_output)
    p0 = acausal_p0(r, inst.angles)
    _, weight, (corrected, uncorrected) = mbqc.enumerate_causal(
        inst.graph, inst.pattern, correct=(True, False), cap=r.w.cap
    )
    return {
        "p0_acausal": p0,
        "p0_girls_first_corrected": _exact_p0(weight, corrected),
        "p0_girls_first_uncorrected": _exact_p0(weight, uncorrected),
        "p0_boys_first": boys_first_p0(inst, r.w.cap),
        "bound": bound,
        "violated": bool(p0 > bound + VIOLATION_ATOL),
    }

