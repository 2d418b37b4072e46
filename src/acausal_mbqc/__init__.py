"""Simulation and verification of acausal graph-computation process matrices.

The package builds process matrices whose quantum comb runs a graph-state
computation with the measurement outcomes acting *after* the corrections they
would normally feed, checks the identities that make this consistent (branch
independence, normalization, positivity), and quantifies the resulting
causal-order violation through a guessing game and a postselected sampler.
"""

from .config import (
    DEFAULT_QUBIT_CAP,
    DEFAULT_SEED,
    RegisterCapError,
    qubit_cap,
)
from .qlin import (
    HermOp,
    Ket,
    QlinError,
    basis_ket,
    equatorial_ket,
    fidelity,
    kron_all,
    min_eigenvalue,
    overlap,
    permute_qubits,
    sample_projective,
)
from .graphstate import (
    Graph,
    GraphError,
    chain,
    cycle_with_output,
    decorate,
    graph_from_json,
    graph_state,
    graph_to_json,
    has_uniform_branches,
    ket_order,
    load_graph,
    parallel_chains,
    random_resource_graph,
    stabilizer_check,
    vee_graph,
)
from .mbqc import (
    Pattern,
    PatternError,
    RunRecord,
    adapted_angle,
    as_angle_map,
    chain_pattern,
    enumerate_causal,
    load_pattern,
    make_pattern,
    pattern_from_json,
    pattern_to_json,
    run_causal,
    sample_causal,
    validate_pattern,
)
from .procmat import (
    Instrument,
    ProcessMatrix,
    ProcmatError,
    alice_instrument,
    bob_instrument,
    clamped_probability_count,
    mbqc_instrument_family,
    outcome_table,
    pm_probability,
    pm_validate,
    rank_one_instrument_family,
)
from .acausal import (
    AcausalError,
    PostselectResult,
    ResourcePM,
    backend_agreement,
    branch_independence_report,
    build_resource_pm,
    normalization_report,
    outcome_probabilities,
    postselected_sampler,
    postselection_report,
    signaling_tv,
)
from .game import (
    GameError,
    GameInstance,
    acausal_p0,
    boys_first_p0,
    causal_bound,
    game_instance,
    game_report,
    girls_first_p0,
)

__version__ = "0.1.0"

