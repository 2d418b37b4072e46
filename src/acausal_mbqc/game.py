"""Causal game separating the acausal resource from any fixed party ordering.

The referee asks for the computation's deterministic output 0^n.  Under a
fixed order, whichever side goes first limits the score: measuring parties
first ("girls first") allows perfect play, readout first ("boys first")
reduces the outputs to their unconditioned marginal.  A causal strategy
averaging the two orders scores at most (1 + 2^-n)/2; the acausal resource
scores 1 in both orders simultaneously.

An instance holds the resource of its graph (``acausal.build_resource_pm``),
built once under the instance's cap: the split walk that gives its exact
girls-first scores, the sampled girls-first runs, the boys-first score and
the acausal score of ``game_report`` all read the one plain graph state it
holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import acausal, config, mbqc
from .graphstate import Graph
from .mbqc import Pattern


class GameError(ValueError):
    """Instance does not define a valid deterministic game."""


VALIDITY_ATOL = 1e-10
VIOLATION_ATOL = 1e-9


@dataclass(frozen=True)
class GameInstance:
    """The resource of a graph, the angles and the pattern whose corrected
    output is |0...0> exactly, with the exact girls-first score of each
    readout, corrected and uncorrected, from the pattern's one split walk of
    the plain graph state that the resource holds."""

    resource: acausal.ResourcePM
    angles: Mapping[str, float]
    pattern: Pattern
    p0_corrected: float
    p0_uncorrected: float

    @property
    def graph(self) -> Graph:
        return self.resource.base_graph

    @property
    def n_output(self) -> int:
        return self.graph.n_output


def game_instance(
    g: Graph | acausal.ResourcePM, angles=None, pattern: Pattern | None = None,
    cap: int | None = None,
) -> GameInstance:
    """Build an instance from one split walk of its pattern, enforcing the validity gate.

    ``g`` is the graph, whose resource is built here under ``cap``, or a
    resource already built, which carries its own cap.  Every later score of
    the instance reads the plain graph state of that resource, so no state
    is built again.  Without a pattern, ``angles`` (default 0) drive the
    chain pattern; with one, the instance plays the pattern's angles, and
    ``angles`` may only repeat them.  The walk's all-zeros history must have
    nonzero weight and an output with fidelity >= 1 - 1e-10 with |0^n>;
    chains of even total length at angle 0 qualify, odd ones do not.
    """
    r = g if isinstance(g, acausal.ResourcePM) else acausal.build_resource_pm(g, cap)
    g = r.base_graph
    if pattern is None:
        ang = mbqc.as_angle_map(g, 0.0 if angles is None else angles)
        pattern = mbqc.chain_pattern(g, ang)
    else:
        ang = mbqc.validate_pattern(g, pattern).angles
        # compared as the pattern stores its angles, mod 2 pi
        for v, a in ({} if angles is None else mbqc.as_angle_map(g, angles)).items():
            if a % mbqc.TWO_PI != ang[v]:
                raise GameError(
                    f"angle {a!r} at vertex {v!r} differs from the pattern's {ang[v]!r}; "
                    "the game plays the pattern's angles"
                )
    _, weight, (corrected, uncorrected) = mbqc.enumerate_causal(
        g, pattern, r.plain, correct=(True, False)
    )
    if weight[0] == 0.0:
        raise mbqc.PatternError("positive branch has zero probability at these angles")
    fid = float(corrected[0, 0])
    if fid < 1.0 - VALIDITY_ATOL:
        raise GameError(
            f"positive-branch output has fidelity {fid!r} with |0^n|; "
            "not a deterministic game instance"
        )
    return GameInstance(
        resource=r,
        angles=ang,
        pattern=pattern,
        p0_corrected=_exact_p0(weight, corrected),
        p0_uncorrected=_exact_p0(weight, uncorrected),
    )


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
) -> float:
    """Success probability when all measurements happen before readout.

    shots = 0 reads the exact score the instance holds from its split walk;
    shots > 0 estimates it from that many seeded causal runs, each descending
    the tree of one split walk (``mbqc.sample_causal``).
    """
    if shots == 0:
        return inst.p0_corrected if correct else inst.p0_uncorrected
    if shots < 0:
        raise GameError("shots must be nonnegative")
    rng = np.random.default_rng(config.DEFAULT_SEED if seed is None else seed)
    _, z, _ = mbqc.sample_causal(
        inst.graph, inst.pattern, inst.resource.plain, shots, rng, correct=correct
    )
    return int(np.count_nonzero(~z.any(axis=1))) / shots


def boys_first_p0(inst: GameInstance) -> float:
    """Success probability when the outputs are read out first: <0^n| Tr_C |G><G| |0^n>,
    the squared norm of the z = 0^n column of the plain graph state that the
    instance's resource holds, read as a (2^N, 2^n) array."""
    amps = inst.resource.plain.amplitudes.reshape(-1, 2**inst.n_output)
    return float(np.sum(np.abs(amps[:, 0]) ** 2))


def game_report(inst: GameInstance) -> dict:
    """Full comparison for one instance on the resource it holds; ``violated``
    is the headline.

    Both exact girls-first scores are the ones the instance holds from its
    split walk, which kept the uncorrected and the corrected readout of every
    history; the report walks no more.  The boys-first score reads the plain
    graph state the resource holds, and the acausal score its folded table,
    so the report builds no state.
    """
    bound = causal_bound(inst.n_output)
    p0 = acausal_p0(inst.resource, inst.angles)
    return {
        "p0_acausal": p0,
        "p0_girls_first_corrected": inst.p0_corrected,
        "p0_girls_first_uncorrected": inst.p0_uncorrected,
        "p0_boys_first": boys_first_p0(inst),
        "bound": bound,
        "violated": bool(p0 > bound + VIOLATION_ATOL),
    }
