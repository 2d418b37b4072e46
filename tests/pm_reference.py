"""Reference constructions that the tests compare the package against.

``reference_sweep`` is the per-trial reference for ``pm_validate``.  Each
trial draws one instrument tuple as a one-trial ``InstrumentBlock``, with
the random samplers below and in the order that the instrument families
used before they drew whole blocks, contracts it through
``procmat._trial_tables``, and keeps the first trial whose deviation is
strictly larger than every earlier one.  The batched ``pm_validate`` must
reproduce it: the same totals, the same worst trial and its descriptions,
and the same random stream.

``dense_tables`` is the one way the tests reach the dense oracle
``procmat._dense_probability``, under the range guard every table gets.
``backend_table`` gives a resource's MBQC table by a named route: the
default fold, the literal W's factorized kernel, or the dense oracle on the
literal W.

``labelled_factorized_probability`` is the reference for
``procmat._factorized_probability``: the same contraction, but each step
works out its axes from a list of register labels and builds its bra as an
``einsum`` of ones with every conjugated ket on a pure qubit, one
``procmat._batched_tensordot`` per party.  The planned kernel must equal it
bit for bit.

``double_sum_choi`` is the reference for ``procmat._choi_tensors``: the
double sum built one (k, l) term at a time.

``kron_cz_decorated_state`` is the reference for ``acausal._pendant_route``:
the plain graph state with N |+> pendants appended by ``qlin.kron_all`` and
one ``qlin.apply_on_qubits`` of CZ per computation vertex and its pendant.

``set_gf2_survivors`` is the reference for ``graphstate._gf2_survivors``:
the same enumeration of computation subsets, with each neighbourhood and
each subset held as a set of vertex names.

``branch_probability`` is the non-adaptive Born probability of one outcome
tuple, read from the graph state with one product bra, and ``cptp_check``
tests an instrument's summed Choi operator, traced down by
``partial_trace``.  ``density_pm`` is the process matrix that hands each
party one qubit of a state.  ``random_ket``, ``random_density`` and
``random_single_qubit_basis`` draw the random states of the test families.
``VEE`` is the vee graph, two computation vertices on one output, whose
branches are not uniform.
"""

import string

import numpy as np

from acausal_mbqc import acausal, graphstate, mbqc, procmat, qlin

# two computation vertices sharing one output neighbour: its branches are not uniform
VEE = graphstate.Graph(("c0", "c1", "o0"), (("c0", "o0"), ("c1", "o0")), ("c0", "c1"), ("o0",))


def dense_tables(w: procmat.ProcessMatrix, measure, reprepare) -> np.ndarray:
    """The dense oracle's validated outcome tables of a block of trials,
    shaped (trials, E, ..., E), from the block's two (trials, parties, E, 2)
    arrays, as ``procmat._trial_tables`` gives the factorized kernel's."""
    return procmat._validated_table(procmat._dense_probability(w, measure, reprepare))


def backend_table(r, angles, backend: str) -> np.ndarray:
    """``acausal.outcome_probabilities(r, angles)`` by the route ``backend``
    names: "folded" (the default), "factorized" (``literal=True``) or
    "dense" (``dense_tables`` on the literal W's MBQC kets, shaped as
    ``outcome_probabilities`` shapes its tables)."""
    if backend == "folded":
        return acausal.outcome_probabilities(r, angles)
    if backend == "factorized":
        return acausal.outcome_probabilities(r, angles, literal=True)
    assert backend == "dense", backend
    stacked = isinstance(angles, list) and all(isinstance(a, dict) for a in angles)
    maps = [mbqc.as_angle_map(r.base_graph, a) for a in (angles if stacked else [angles])]
    phis = np.array([[ang[c] for c in r.base_graph.computation] for ang in maps])
    block = procmat.mbqc_kets(phis, r.n_output)
    tables = dense_tables(r.w, block.measure, block.reprepare)
    shape = (2**r.n_computation, 2**r.n_output)
    return tables.reshape((len(tables), *shape) if stacked else shape)


def labelled_factorized_probability(
    w: procmat.ProcessMatrix, measure: np.ndarray, reprepare: np.ndarray
) -> np.ndarray:
    """The factorized tables of a block of trials, (trials, E, ..., E), from
    the block's two (trials, parties, E, 2) arrays, with the axes of every
    step looked up in a list of labels."""
    amp = w.pure.as_tensor()[None]
    # axis label per non-trial axis of amp: a register qubit, or None for an element axis
    labels: list[int | None] = list(range(w.pure.num_qubits))
    for i in range(len(w.parties)):
        # <u| on the party's pure qubits, one row per (trial, element); a mixed
        # qubit contributes <k|I/2|k> = 1/2 for its unit ket
        bra = np.ones(measure.shape[:1] + measure.shape[2:3], dtype=np.complex128)
        axes = []
        for qubit, rows in zip(w.qubits(i), (measure[:, i], reprepare[:, i])):
            if qubit in labels:
                bra = np.einsum("te...,tef->te...f", bra, rows.conj())
                axes.append(labels.index(qubit))
        amp = procmat._batched_tensordot(amp, bra, axes)
        labels = [q for a, q in enumerate(labels) if a not in axes] + [None]
    return w._mixed_coeff() * np.abs(amp) ** 2


def random_ket(rng: np.random.Generator, num_qubits: int) -> qlin.Ket:
    """Haar-distributed unit ket."""
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qlin.Ket(vec / np.linalg.norm(vec))


def random_density(rng: np.random.Generator, num_qubits: int) -> qlin.HermOp:
    """Full-rank random density operator (normalized Ginibre product)."""
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return qlin.HermOp(rho / np.trace(rho).real)


def density_pm(psi: qlin.Ket) -> procmat.ProcessMatrix:
    """W = 2^k |psi><psi| (x) (I/2)^k = |psi><psi| (x) I^k on k parties, party
    Pi reading qubit i of psi as its input: with measure-reprepare
    instruments it gives the Born probabilities of psi, and it is normalized
    for every CPTP instrument tuple."""
    k = psi.num_qubits
    return procmat.ProcessMatrix([f"P{i + 1}" for i in range(k)], pure=psi, scale=2.0**k)


def random_single_qubit_basis(rng: np.random.Generator) -> tuple[qlin.Ket, qlin.Ket]:
    """Haar-random orthonormal single-qubit basis (columns of a random unitary)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return qlin.Ket(q[:, 0]), qlin.Ket(q[:, 1])


def branch_probability(g, angles, m, z) -> float:
    """Joint probability of outcome tuple (m, z) under non-adaptive equatorial
    measurement of C at the given base angles plus computational readout of O.

    Summing over all (m, z) gives exactly 1 for any graph (the projectors form
    a complete orthonormal basis).
    """
    ang = mbqc.as_angle_map(g, angles)
    m = tuple(int(b) for b in m)
    z = tuple(int(b) for b in z)
    if len(m) != g.n_computation or any(b not in (0, 1) for b in m):
        raise mbqc.PatternError(f"m must be {g.n_computation} bits")
    if len(z) != g.n_output or any(b not in (0, 1) for b in z):
        raise mbqc.PatternError(f"z must be {g.n_output} bits")
    factors = [qlin.Ket(qlin.equatorial_kets(ang[c])[mc]) for c, mc in zip(g.computation, m)]
    factors += [qlin.Ket(np.eye(2)[bit]) for bit in z]
    bra = qlin.kron_all(factors)
    return float(abs(qlin.overlap(bra, graphstate.graph_state(g))) ** 2)


def set_gf2_survivors(g) -> list[tuple[str, ...]]:
    """Computation subsets S, in mask order, such that every output and every
    computation vertex outside S has even adjacency into S."""
    adj = {v: set() for v in g.vertices}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    cset = list(g.computation)
    survivors = []
    for mask in range(1, 2**len(cset)):
        inside = {c for j, c in enumerate(cset) if (mask >> j) & 1}
        ok = all(len(adj[o] & inside) % 2 == 0 for o in g.output) and all(
            len(adj[c] & inside) % 2 == 0 for c in cset if c not in inside
        )
        if ok:
            survivors.append(tuple(sorted(inside)))
    return survivors


def kron_cz_decorated_state(g) -> qlin.Ket:
    """The decorated graph state of a graph ``g``, built gate by
    gate: |G> (x) |+>^N, then CZ between computation vertex j and pendant j."""
    n_comp, n_out = g.n_computation, g.n_output
    plus = qlin.Ket(qlin.equatorial_kets(0.0)[0])
    state = qlin.kron_all([graphstate.graph_state(g)] + [plus] * n_comp)
    for j in range(n_comp):
        state = qlin.apply_on_qubits(np.diag([1, 1, 1, -1]), [j, n_comp + n_out + j], state)
    return state


def partial_trace(op: qlin.HermOp, discard) -> qlin.HermOp:
    """Trace out the listed register positions; kept qubits keep their relative order."""
    k = op.num_qubits
    discard = sorted({int(q) for q in discard})
    if any(q < 0 or q >= k for q in discard):
        raise qlin.QlinError(f"discard positions {discard} out of range for {k} qubits")
    keep = [q for q in range(k) if q not in discard]
    letters = string.ascii_lowercase + string.ascii_uppercase
    if 2 * k > len(letters):
        raise qlin.QlinError(f"partial_trace supports up to {len(letters) // 2} qubits")
    row = [letters[i] for i in range(k)]
    col = [row[i] if i in discard else letters[k + i] for i in range(k)]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    spec = "".join(row + col) + "->" + "".join(out)
    reduced = np.einsum(spec, op.as_tensor()).reshape(2 ** len(keep), 2 ** len(keep))
    return qlin.HermOp(reduced)


def cptp_check(block: procmat.InstrumentBlock) -> tuple[float, float]:
    """(identity deviation, min eigenvalue) of the summed Choi operator of
    the instrument of a one-trial, one-party block: CPTP iff it traces out
    to the identity and is PSD."""
    choi = procmat._choi_tensors(block.measure[0, 0], block.reprepare[0, 0])
    total = qlin.HermOp(choi.sum(0).reshape(4, 4))
    reduced = partial_trace(total, [1])  # trace out the output qubit
    dev = float(np.max(np.abs(reduced.entries - np.eye(2))))
    return dev, qlin.min_eigenvalue(total)


def mbqc_sampler(alices, bobs):
    """One trial's MBQC block of ``alices`` Alices, then ``bobs`` Bobs: one
    scalar uniform angle per Alice, in order."""

    def sample(rng):
        phis = [float(rng.uniform(0.0, qlin.TWO_PI)) for _ in range(alices)]
        return procmat.mbqc_kets(np.array([phis]), bobs)

    return sample


def rank_one_sampler(parties):
    """One trial's rank-1 block of ``parties`` parties: per party, in order, a
    Haar-random measure basis and then two Haar-random reprepare kets."""

    def fmt(ket):
        a, b = ket.amplitudes
        return f"({a.real:+.3f}{a.imag:+.3f}j, {b.real:+.3f}{b.imag:+.3f}j)"

    def sample(rng):
        measure, reprepare, desc = [], [], []
        for _ in range(parties):
            mk = random_single_qubit_basis(rng)
            rk = (random_ket(rng, 1), random_ket(rng, 1))
            measure.append([k.amplitudes for k in mk])
            reprepare.append([k.amplitudes for k in rk])
            desc.append(f"measure {fmt(mk[0])}/{fmt(mk[1])}, reprepare {fmt(rk[0])}/{fmt(rk[1])}")
        desc = tuple(desc)
        return procmat.InstrumentBlock(np.array([measure]), np.array([reprepare]), lambda t: desc)

    return sample


def reference_sweep(w, sample, trials, rng):
    """(per-trial totals, index of the worst trial, its descriptions in party order)."""
    totals = []
    worst, worst_trial, worst_desc = -1.0, None, {}
    for t in range(trials):
        block = sample(rng)
        total = float(procmat._trial_tables(w, block.measure, block.reprepare).sum())
        totals.append(total)
        dev = abs(total - 1.0)
        if dev > worst:
            worst, worst_trial = dev, t
            worst_desc = dict(zip(w.parties, block.describe(0)))
    return np.array(totals), worst_trial, worst_desc


def double_sum_choi(measure, reprepare):
    """Choi tensors [..., r_in, r_out, c_in, c_out] of a stack of elements
    given by their kets, as the double sum sum_{k,l} |k><l| (x) M(|l><k|),
    one term at a time; each coefficient <phi|l><k|phi> is multiplied out in
    real arithmetic, with the rounding ``procmat._choi_tensors`` has."""
    rr = reprepare[..., :, None] * reprepare.conj()[..., None, :]
    op = np.zeros(measure.shape[:-1] + (2, 2, 2, 2), dtype=np.complex128)
    re, im = measure.real, measure.imag
    for k in range(2):
        for l in range(2):
            coeff = np.empty(measure.shape[:-1], dtype=np.complex128)
            coeff.real = re[..., l] * re[..., k] + im[..., l] * im[..., k]
            coeff.imag = re[..., l] * im[..., k] - im[..., l] * re[..., k]
            op[..., k, :, l, :] += coeff[..., None, None] * rr
    return op

