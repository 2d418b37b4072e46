"""Simulation and verification of acausal graph-computation process matrices.

The package builds process matrices whose quantum comb runs a graph-state
computation with the measurement outcomes acting *after* the corrections they
would normally feed, checks the identities that make this consistent (branch
independence, normalization, positivity), and quantifies the resulting
causal-order violation through a guessing game and a postselected sampler.
"""

from . import acausal, config, game, graphstate, mbqc, procmat, qlin
from .acausal import (
    backend_agreement,
    branch_independence_report,
    build_resource_pm,
    normalization_report,
    outcome_probabilities,
    postselected_sampler,
    postselection_report,
    signaling_tv,
)
from .game import game_instance, game_report
from .graphstate import chain

__version__ = "0.1.0"
