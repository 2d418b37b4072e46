"""The acausal resource: a process matrix that runs a graph computation in one shot.

Construction: decorate the graph (one pendant per computation vertex), then

    W = 2^(N+n) |G'><G'| (x) (I/2)^n

on 2(N+n) qubits.  Party j of the N "Alice" parties holds computation vertex
j as input and its pendant as output; party t of the n "Bob" parties holds
output vertex t as input and one maximally mixed ancilla qubit as output.
The register holds every input, then every output (``procmat``'s order), so
the decorated state's own order (computation, output, pendants) is its
prefix, the ancillas are its last n qubits, and W is literally the kron
above.

When every Alice measures equatorially and reprepares her outcome bit, the
pendant projection turns into a Z^m byproduct on the measured vertex, which
the outcome-signed basis absorbs: every outcome branch m yields the same
output statistics as the positive branch, with no causal order among the
parties.  For graphs with uniformly random branches this makes W a normalized
process matrix; the package verifies both sides of that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import config, graphstate, mbqc, procmat, qlin
from .graphstate import Graph
from .procmat import ProcessMatrix


class AcausalError(RuntimeError):
    """Internal construction identity failed; indicates a genuine bug."""


@dataclass(frozen=True)
class ResourcePM:
    """Resource process matrix plus the graphs and layout it was built from."""

    w: ProcessMatrix
    base_graph: Graph
    decorated_graph: Graph

    @property
    def n_computation(self) -> int:
        return self.base_graph.n_computation

    @property
    def n_output(self) -> int:
        return self.base_graph.n_output

    @property
    def decorated_state(self) -> qlin.Ket:
        """W's pure factor: the decorated graph state the build checked against the cap."""
        return self.w.pure

    @property
    def alice_parties(self) -> tuple[str, ...]:
        return tuple(f"A{j + 1}" for j in range(self.n_computation))

    @property
    def bob_parties(self) -> tuple[str, ...]:
        return tuple(f"B{t + 1}" for t in range(self.n_output))

    def trace(self) -> float:
        return self.w.trace()

    def min_eigenvalue(self) -> float:
        return self.w.min_eigenvalue()

    def layout(self) -> dict[str, dict[str, str]]:
        """Party -> {input: vertex, output: vertex-or-ancilla}, in party order:
        party i of k holds register qubits i (input) and k + i (output)."""
        dec = self.decorated_graph.decoration_map
        out: dict[str, dict[str, str]] = {}
        for j, c in enumerate(self.base_graph.computation):
            out[f"A{j + 1}"] = {"input": c, "output": dec[c]}
        for t, o in enumerate(self.base_graph.output):
            out[f"B{t + 1}"] = {"input": o, "output": f"ancilla{t}"}
        return out


def _pendant_route(g: Graph, cap: int) -> qlin.Ket:
    """The decorated state from the plain graph state alone: CZ(c_j, p_j) on
    fresh |+> pendants.  On the register (c, o, p) those CZs flip the sign
    wherever c and p share an odd number of set bits, so the state is
    plain[c, o] (-1)^(c.p) 2^(-N/2): one product with a (2^N, 2^N) sign table."""
    n_comp, n_out = g.n_computation, g.n_output
    plain = graphstate.graph_state(g, cap).amplitudes.reshape(2**n_comp, 2**n_out, 1)
    bits = np.arange(2**n_comp)
    scale = 2.0 ** (-n_comp / 2)
    pendants = np.where(np.bitwise_count(bits[:, None] & bits) & 1, -scale, scale)
    return qlin.Ket(plain * pendants[:, None, :])


def build_resource_pm(g: Graph, cap: int | None = None) -> ResourcePM:
    """Build W for an undecorated graph, verifying the decoration identity.

    Two routes give the decorated state, and they must agree (fidelity
    >= 1 - 1e-12) on every build.  Route a, which W keeps, is the graph state
    of the decorated graph; it runs first, so the cap refuses an oversized
    register before anything is allocated.  Route b (``_pendant_route``)
    never reads the decorated graph: it entangles fresh |+> pendants onto the
    plain graph state, as one product with a sign table.  The cap is resolved
    once here and carried by W, so the dense oracle obeys the same cap.
    """
    graphstate.validate(g)
    if g.decoration is not None:
        raise graphstate.GraphError(["build_resource_pm expects an undecorated graph"])
    n_comp, n_out = g.n_computation, g.n_output
    cap = config.qubit_cap(cap)

    # W stays factored; the largest array is the decorated state on 2N + n
    # qubits, which graph_state caps before allocating
    decorated = graphstate.decorate(g)
    route_a = graphstate.graph_state(decorated, cap)
    # independent route: the plain graph state and the pendants' CZ signs
    fid = qlin.fidelity(route_a, _pendant_route(g, cap))
    if fid < 1.0 - 1e-12:
        raise AcausalError(f"decoration identity violated: fidelity {fid!r}")

    parties = [f"A{j + 1}" for j in range(n_comp)] + [f"B{t + 1}" for t in range(n_out)]
    w = ProcessMatrix(parties, pure=route_a, scale=float(2 ** (n_comp + n_out)), cap=cap)
    return ResourcePM(w=w, base_graph=g, decorated_graph=decorated)


def _table(r: ResourcePM, angle_sets, backend: str) -> np.ndarray:
    """P(m, z) for each angle set, shaped (sets, one axis per party: Alices,
    then Bobs), from one contraction over the kets of ``procmat.mbqc_kets``
    with one trial per set."""
    maps = [mbqc.as_angle_map(r.base_graph, a) for a in angle_sets]
    phis = np.array([[ang[c] for c in r.base_graph.computation] for ang in maps])
    kets = procmat.mbqc_kets(phis, r.alice_parties, r.bob_parties)
    return procmat._trial_tables(r.w, kets, procmat._resolved_backend(backend))


def outcome_probabilities(r: ResourcePM, angles, backend: str = "factorized") -> np.ndarray:
    """All P(m, z) as a (2^N, 2^n) array, bit 0 most significant.

    ``angles`` is one angle set (as ``mbqc.as_angle_map`` reads it), or a
    list of angle mappings: then each set is one trial of the same
    contraction, and the result is (sets, 2^N, 2^n), every table equal bit
    for bit to the one its set gives alone.
    """
    stacked = isinstance(angles, list) and bool(angles) and all(
        isinstance(a, Mapping) for a in angles
    )
    table = _table(r, angles if stacked else [angles], backend)
    shape = (2**r.n_computation, 2**r.n_output)
    return table.reshape((len(table), *shape) if stacked else shape)


def branch_independence_report(probs: np.ndarray) -> float:
    """max over (m, z) of |P(m, z) - P(0, z)| in a table; zero means no branch dependence."""
    return float(np.max(np.abs(probs - probs[0:1, :])))


def normalization_report(probs: np.ndarray) -> float:
    """|sum over (m, z) of P - 1|; nonzero flags an unnormalized process matrix."""
    return float(abs(probs.sum() - 1.0))


def signaling_tv(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    """Total variation between the Bobs' z-marginals of tables at two Alice angle choices.

    Any positive value certifies Alice-to-Bob signaling within the process.
    """
    za, zb = probs_a.sum(axis=0), probs_b.sum(axis=0)
    return float(0.5 * np.sum(np.abs(za - zb)))


def backend_agreement(r: ResourcePM, angles, probs: np.ndarray) -> float:
    """max over (m, z) of |dense - probs| for the caller's table ``probs`` at
    ``angles``; only the dense-trace oracle is contracted here, so it checks
    the very numbers the caller reports."""
    dense = outcome_probabilities(r, angles, backend="dense")
    return float(np.max(np.abs(dense - probs)))


# ---------------------------------------------------------------------------
# postselected sampling

@dataclass(frozen=True)
class PostselectResult:
    """Accepted-outcome counts from simulating the protocol with postselection."""

    counts: np.ndarray  # (2^N, 2^n) ints over (m, z)
    shots: int
    accepted: int
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.counts)
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def acceptance(self) -> float:
        return self.accepted / self.shots if self.shots else 0.0

    def empirical_distribution(self) -> np.ndarray | None:
        if self.accepted == 0:
            return None
        return self.counts / self.accepted


def postselected_sampler(
    r: ResourcePM, angles, shots: int, seed: int | None = None
) -> PostselectResult:
    """Sample the resource's decorated state, keep runs where pendants echo
    outcomes and ancilla bits match the readout.

    Every computation vertex is rotated into its equatorial basis once, so a
    basis-state draw of the whole register is exactly a joint Born sample of
    (outcome bits, readout bits, pendant bits); ancilla bits are fair coins.
    Acceptance requires pendant == outcome per vertex and ancilla == readout
    per output, and happens at rate 2^-(N+n) for uniform-branch graphs.

    Contract: one ``numpy.random.default_rng(seed)`` Generator draws
    ``multinomial(shots, probs)`` over the 2^(2N+n) basis states, whose
    (m, z, pendant = m) cells are the runs that pass the pendant test; then
    ``binomial(kept, 2^-n)`` per (m, z) cell keeps the runs whose n ancilla
    coins equal the readout.  The accepted counts have exactly the joint law
    of ``shots`` independent per-run draws, and a fixed seed gives identical
    counts.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    g = r.base_graph
    ang = mbqc.as_angle_map(g, angles)
    n_comp, n_out = g.n_computation, g.n_output
    seed = config.DEFAULT_SEED if seed is None else int(seed)

    state = r.decorated_state
    for j, c in enumerate(g.computation):
        # basis change: row m is <phi^m|, so basis-state bit j becomes outcome m_j
        rows = np.array([qlin.equatorial_ket(ang[c], m).amplitudes.conj() for m in (0, 1)])
        state = qlin.apply_on_qubits(rows, [j], state)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()

    rng = np.random.default_rng(seed)
    # register order is C, O, pendants: axes (m, z, pendant), pendant == m kept
    cells = rng.multinomial(shots, probs).reshape(2**n_comp, 2**n_out, 2**n_comp)
    kept = cells[np.arange(2**n_comp), :, np.arange(2**n_comp)]
    counts = rng.binomial(kept, 2.0**-n_out)
    return PostselectResult(counts=counts, shots=shots, accepted=int(counts.sum()), seed=seed)


def postselection_report(result: PostselectResult, exact: np.ndarray) -> dict:
    """Sampler-vs-exact comparison: acceptance rate, expected rate, and the
    total variation between the accepted empirical distribution and the exact
    outcome table ``exact`` (normalized)."""
    exact = exact / exact.sum()
    emp = result.empirical_distribution()
    tv = None if emp is None else float(0.5 * np.sum(np.abs(emp - exact)))
    return {
        "acceptance": result.acceptance,
        "expected": 1.0 / exact.size,
        "tv": tv,
        "shots": result.shots,
        "seed": result.seed,
    }
