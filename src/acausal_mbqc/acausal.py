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

The resource holds only the plain graph state |G> on N+n qubits.  Each
pendant hangs on its vertex by one CZ, so an Alice element with measure ket
a and reprepare ket r folds into one row on her vertex c:

    <a|_c <r|_p CZ_cp |+>_p = sum_x conj(a[x]) conj((H r)[x]) <x|_c,

the standard CZ algebra of graph states (Hein, Eisert & Briegel, PRA 69,
062311, 2004).  Every entry of a table is then 2^(N+n) 2^-n = 2^N times the
squared overlap of |G> with the Alices' rows conj(a) * conj(H r) and the
Bobs' rows conj(measure), each Bob's ancilla giving 1/2 for his unit
reprepare ket.  The fold holds for every rank-1 element, and
``outcome_probabilities`` contracts it by default, through the same
factorized kernel as W's own table (``literal=True``), on half as many
qubits: both read the two ket arrays of the MBQC ``InstrumentBlock``, the
fold with a copy of its measure array whose Alice slots are multiplied by
sqrt(2) H r.

The literal W is built on the first read of ``ResourcePM.w``, and that
build checks the decorated state two ways; its pure factor
``r.w.pure`` is the decorated state.  The commands that check the paper's
identities (``verify``, ``resource-pm``, ``pm-validate``) read it: on the
fold every branch m contracts the same rows of |G>, so a branch-independence
figure computed there would read 0.0 by construction and show nothing.

When every Alice measures equatorially and reprepares her outcome bit, the
pendant projection turns into a Z^m byproduct on the measured vertex, which
the outcome-signed basis absorbs: every outcome branch m yields the same
output statistics as the positive branch, with no causal order among the
parties.  For graphs with uniformly random branches this makes W a normalized
process matrix; the package verifies both sides of that boundary.

In closed form, P_W(m, z) = P_G(0^N, z) for every m: the Born probability of
the plain graph state under <phi_j^0| on every computation vertex.
``backend_agreement`` checks a table against that right side, the positive
branch contracted straight from the plain state, one computation qubit at a
time: it never reads W nor runs ``procmat``'s kernel, so a wrong kernel and
a wrong W both break it, and it runs at every size within the cap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import config, graphstate, mbqc, procmat, qlin
from .graphstate import Graph
from .procmat import ProcessMatrix


class AcausalError(RuntimeError):
    """Internal construction identity failed; indicates a genuine bug."""


@dataclass(frozen=True, eq=False)
class ResourcePM:
    """The resource of a graph: its plain graph state, the graph and the
    resolved cap.  The literal W (``w``) and the decorated graph are built
    on first read; W's build checks its decorated state two ways, and that
    state on 2N + n qubits meets the cap then, not before."""

    plain: qlin.Ket
    base_graph: Graph
    cap: int

    @property
    def n_computation(self) -> int:
        return self.base_graph.n_computation

    @property
    def n_output(self) -> int:
        return self.base_graph.n_output

    @functools.cached_property
    def decorated_graph(self) -> Graph:
        return graphstate.decorate(self.base_graph)

    @functools.cached_property
    def w(self) -> ProcessMatrix:
        """The literal W, built on first read and checked two ways.

        Route a, which W keeps, is the graph state of the decorated graph;
        route b (``_pendant_route``) entangles fresh |+> pendants onto the
        plain state the resource holds, as one product with a sign table, and
        never reads the decorated graph.  They must agree to fidelity
        >= 1 - 1e-12, else AcausalError.
        """
        route_a = graphstate.graph_state(self.decorated_graph, self.cap)
        fid = qlin.fidelity(route_a, _pendant_route(self.base_graph, self.plain))
        if fid < 1.0 - 1e-12:
            raise AcausalError(f"decorated state identity violated: fidelity {fid!r}")
        scale = float(2 ** (self.n_computation + self.n_output))
        return ProcessMatrix(self.parties, route_a, scale)

    @functools.cached_property
    def parties(self) -> tuple[str, ...]:
        """W's party names, the Alices A1..AN, then the Bobs B1..Bn: party i
        of W reads index i of every instrument block."""
        alices = tuple(f"A{j + 1}" for j in range(self.n_computation))
        return alices + tuple(f"B{t + 1}" for t in range(self.n_output))

    def layout(self) -> dict[str, dict[str, str]]:
        """Party -> {input: vertex, output: vertex-or-ancilla}, in party order:
        party i of k holds register qubits i (input) and k + i (output)."""
        g = self.base_graph
        pendants = self.decorated_graph.output[self.n_output :]
        ancillas = tuple(f"ancilla{t}" for t in range(self.n_output))
        pairs = zip(g.computation + g.output, pendants + ancillas)
        return {p: {"input": i, "output": o} for p, (i, o) in zip(self.parties, pairs)}


def _pendant_route(g: Graph, plain: qlin.Ket) -> qlin.Ket:
    """The decorated state from the plain graph state alone: CZ(c_j, p_j) on
    fresh |+> pendants.  On the register (c, o, p) those CZs flip the sign
    wherever c and p share an odd number of set bits, so the state is
    plain[c, o] (-1)^(c.p) 2^(-N/2): one product with a (2^N, 2^N) sign table."""
    n_comp, n_out = g.n_computation, g.n_output
    amps = plain.amplitudes.reshape(2**n_comp, 2**n_out, 1)
    bits = np.arange(2**n_comp)
    scale = 2.0 ** (-n_comp / 2)
    pendants = np.where(np.bitwise_count(bits[:, None] & bits) & 1, -scale, scale)
    return qlin.Ket(amps * pendants[:, None, :])


def build_resource_pm(g: Graph, cap: int | None = None) -> ResourcePM:
    """The resource of a graph: its plain graph state.

    The cap is resolved once here and carried by the resource, so the literal
    W and the sampler obey the same cap, and ``backend_agreement`` contracts
    the plain state built under it.  Each register meets it where
    ``graphstate.graph_state`` allocates it: the plain state here on N + n
    qubits, the decorated state on 2N + n on the first read of ``w``.
    """
    cap = config.qubit_cap(cap)
    return ResourcePM(plain=graphstate.graph_state(g, cap), base_graph=g, cap=cap)


# sqrt(2) H, symmetric: r @ it is (r0 + r1, r0 - r1), exactly
_ROOT2_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


def _folded_table(r: ResourcePM, block: procmat.InstrumentBlock) -> np.ndarray:
    """Validated outcome tables of a block of trials over the resource's
    parties (Alices, then Bobs, index-ordered), as ``procmat._trial_tables``
    gives them for W, contracted on the plain graph state; the kernel refuses
    a block of another party count.

    Each Alice's measure ket a becomes a * (sqrt(2) H r), r her reprepare
    ket, in one product over the Alices' slots of a copy of the block's
    measure array: the factorized kernel conjugates it into her folded row,
    scaled by sqrt(2); for a reprepared bit, (r0 + r1, r0 - r1) = (1, +-1)
    exactly.  The rows of general rank-1 kets are not unit kets, so they go
    to the kernel as raw arrays, not as a block.  The kernel reads the fold
    as the process matrix 2^(N+n) |G><G| (x) (I/2)^(N+n): party i's input
    qubit is its vertex, and its output qubit, which no folded row reads, is
    I/2.  The Alices' N halves cancel the rows' 2^N, and the Bobs' n halves
    are the ancillas', so every entry carries the exact coefficient 2^N of
    the fold.
    """
    measure = block.measure.copy()
    measure[:, : r.n_computation] *= block.reprepare[:, : r.n_computation] @ _ROOT2_HADAMARD
    scale = float(2 ** (r.n_computation + r.n_output))
    w = ProcessMatrix(r.parties, r.plain, scale)
    return procmat._trial_tables(w, measure, block.reprepare)


def _table(r: ResourcePM, angle_sets, literal: bool) -> np.ndarray:
    """P(m, z) for each angle set, shaped (sets, one axis per party: Alices,
    then Bobs), from one contraction over the block of ``procmat.mbqc_kets``
    with one trial per set, on the literal W or on the fold."""
    maps = [mbqc.as_angle_map(r.base_graph, a) for a in angle_sets]
    phis = np.array([[ang[c] for c in r.base_graph.computation] for ang in maps])
    block = procmat.mbqc_kets(phis, r.n_output)
    if literal:
        return procmat._trial_tables(r.w, block.measure, block.reprepare)
    return _folded_table(r, block)


def outcome_probabilities(r: ResourcePM, angles, *, literal: bool = False) -> np.ndarray:
    """All P(m, z) as a (2^N, 2^n) array, bit 0 most significant.

    ``angles`` is one angle set (as ``mbqc.as_angle_map`` reads it), or a
    list of angle mappings: then each set is one trial of the same
    contraction, and the result is (sets, 2^N, 2^n), every table equal bit
    for bit to the one its set gives alone.

    By default the table is contracted on the plain graph state, every
    pendant folded into its vertex's row; ``literal=True`` contracts the
    literal W's pure factor, which a branch-independence figure needs.
    """
    stacked = isinstance(angles, list) and bool(angles) and all(
        isinstance(a, Mapping) for a in angles
    )
    table = _table(r, angles if stacked else [angles], literal)
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
    Tables of different shapes are refused.
    """
    if probs_a.shape != probs_b.shape:
        raise ValueError(f"tables of shapes {probs_a.shape} and {probs_b.shape} differ")
    za, zb = probs_a.sum(axis=0), probs_b.sum(axis=0)
    return float(0.5 * np.sum(np.abs(za - zb)))


def backend_agreement(r: ResourcePM, angles, probs: np.ndarray) -> float:
    """max over (m, z) of |probs[m, z] - P_G(0^N, z)| for the caller's table
    ``probs`` at ``angles``.

    P_G(0^N, z) is the Born probability of the plain graph state under
    <phi_j^0| on every computation vertex and <z| on the outputs: the
    positive branch, contracted here straight from ``r.plain`` one leading
    computation qubit at a time, O(2^(N+n)) work in all.  It never reads W
    and shares no code with ``procmat``'s kernel.  The paper's result is
    P_W(m, z) = P_G(0^N, z) for every m, so a wrong kernel and a wrong W both
    show here, at every size within the cap, and it checks the very numbers
    the caller reports.
    """
    g = r.base_graph
    ang = mbqc.as_angle_map(g, angles)
    bras = qlin.equatorial_kets([ang[c] for c in g.computation])[:, 0].conj()
    amps = r.plain.amplitudes
    for bra in bras:  # the plain state's leading qubits are C, in C order
        amps = bra @ amps.reshape(2, -1)
    return float(np.max(np.abs(probs - np.abs(amps) ** 2)))


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
    """Sample the resource's decorated state, the literal W's pure factor
    (built on first read), keep runs where pendants echo outcomes and
    ancilla bits match the readout.

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
    counts.  ``shots`` and a given ``seed`` must be Python or numpy ints (not
    bools), checked before any draw.
    """
    if not config.is_int(shots):
        raise ValueError(f"shots must be an int, got {shots!r}")
    if shots < 1:
        raise ValueError("shots must be positive")
    if seed is not None and not config.is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    g = r.base_graph
    ang = mbqc.as_angle_map(g, angles)
    n_comp, n_out = g.n_computation, g.n_output
    seed = config.DEFAULT_SEED if seed is None else int(seed)

    state = r.w.pure
    for j, c in enumerate(g.computation):
        # basis change: row m is <phi^m|, so basis-state bit j becomes outcome m_j
        rows = qlin.equatorial_kets(ang[c]).conj()
        state = qlin.apply_on_qubits(rows, [j], state)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()

    rng = np.random.default_rng(seed)
    # register order is C, O, pendants: axes (m, z, pendant), pendant == m kept
    cells = rng.multinomial(shots, probs).reshape(2**n_comp, 2**n_out, 2**n_comp)
    kept = cells[np.arange(2**n_comp), :, np.arange(2**n_comp)]
    counts = rng.binomial(kept, 2.0**-n_out)
    return PostselectResult(counts=counts, shots=int(shots), accepted=int(counts.sum()), seed=seed)


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
