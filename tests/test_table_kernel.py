"""Property tests for the outcome-table kernel ``procmat._trial_tables``.

The factorized overlap and the dense-trace oracle, which the tests reach
through ``pm_reference.dense_tables``, must agree with each other and with
the first-principles Born amplitude of criterion 05 on random uniform-branch
graphs with N + n <= 5, and the range guard must clamp and count each tiny
negative entry once.  The dense kernel,
the definition Tr[W (x) CJ] traced one party at a time, must equal the
factorized kernel on random W, come back C-contiguous in party order, and
peak below 2.25 copies of W.  The trace and positivity floor that W reads
off its pure factor must match the materialized dense operator, and that
operator must equal, entry for entry, the plain kron of the projector with
I/2 per mixed qubit, built with one ``HermOp``.  Every route's table of a
resource (``pm_reference.backend_table``) must equal, in every branch, the
positive branch of the plain graph state, which is ``backend_agreement``'s
route, with or without uniform branches.  The factorized kernel, planned
once per register shape, must equal bit for bit the per-party sweep that
works its axes out from register labels (``pm_reference``).
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acausal_mbqc import acausal, config, graphstate, procmat, qlin
from pm_reference import (
    backend_table,
    dense_tables,
    density_pm,
    double_sum_choi,
    labelled_factorized_probability,
    random_ket,
    rank_one_sampler,
)
from test_acceptance import born_oracle

ATOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def resources(draw):
    """A random uniform-branch graph with N + n <= 5, its resource and random angles."""
    n_comp = draw(st.integers(1, 4))
    n_out = draw(st.integers(1, 5 - n_comp))
    seed = draw(st.integers(0, 2**32 - 1))
    g = graphstate.random_resource_graph(np.random.default_rng(seed), n_comp, n_out)
    angle = st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False)
    ang = {c: draw(angle) for c in g.computation}
    return g, acausal.build_resource_pm(g), ang


@PROPERTY_SETTINGS
@given(resources())
def test_backends_match_first_principles_born_rule(case):
    g, r, ang = case
    born = np.array(
        [
            [born_oracle(g, ang, m, z) for z in itertools.product((0, 1), repeat=g.n_output)]
            for m in itertools.product((0, 1), repeat=g.n_computation)
        ]
    )
    for backend in ("factorized", "dense"):
        table = backend_table(r, ang, backend)
        assert table.shape == born.shape
        assert float(np.max(np.abs(table - born))) <= ATOL, backend


@PROPERTY_SETTINGS
@given(resources(), st.integers(0, 2**32 - 1))
def test_backends_agree_on_random_rank_one_instruments(case, seed):
    _, r, _ = case
    parties = r.alice_parties + r.bob_parties
    block = rank_one_sampler(parties)(np.random.default_rng(seed))
    fact = procmat._trial_tables(r.w, block.measure, block.reprepare)[0]
    dense = dense_tables(r.w, block.measure, block.reprepare)[0]
    assert fact.shape == (2,) * len(parties)
    assert float(np.max(np.abs(fact - dense))) <= ATOL


@st.composite
def any_resources(draw):
    """A random graph with N + n <= 5, with or without uniform branches (the
    fold needs none), and its resource."""
    n_comp = draw(st.integers(1, 4))
    n_out = draw(st.integers(1, 5 - n_comp))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = graphstate.random_resource_graph(rng, n_comp, n_out)
    else:
        g = graphstate.random_connected_graph(rng, n_comp, n_out)
    return g, acausal.build_resource_pm(g)


@PROPERTY_SETTINGS
@given(any_resources(), st.integers(0, 2**32 - 1))
def test_folded_table_equals_the_literal_w(case, seed):
    """Every pendant folded into its vertex's row, on the plain graph state,
    gives the literal W's table to 1e-14, against both its factorized kernel
    and the dense oracle, for the MBQC kets and for random rank-1 kets; the
    default table of ``outcome_probabilities`` is the fold."""
    g, r = case
    rng = np.random.default_rng(seed)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=(2, g.n_computation))
    mbqc_block = procmat.mbqc_kets(phis, r.alice_parties, r.bob_parties)
    family = procmat.rank_one_instrument_family(r.alice_parties + r.bob_parties)
    for block in (mbqc_block, family.draw(rng, 3)):
        folded = acausal._folded_table(r, block)
        for backend, kernel in (("factorized", procmat._trial_tables), ("dense", dense_tables)):
            literal = kernel(r.w, block.measure, block.reprepare)
            assert folded.shape == literal.shape
            assert float(np.max(np.abs(folded - literal))) <= 1e-14, backend
    sets = [dict(zip(g.computation, row)) for row in phis.tolist()]
    table = acausal.outcome_probabilities(r, sets)
    assert np.array_equal(table, acausal._folded_table(r, mbqc_block).reshape(table.shape))


def test_folded_table_refuses_a_block_in_another_party_order():
    """The fold reads the Alices' slots as the block's first N, so a block
    whose parties are not the resource's Alices, then Bobs, is refused."""
    r = acausal.build_resource_pm(graphstate.chain(3))
    parties = r.bob_parties + r.alice_parties
    block = procmat.rank_one_instrument_family(parties).draw(np.random.default_rng(2), 1)
    with pytest.raises(procmat.ProcmatError, match="block parties"):
        acausal._folded_table(r, block)


@st.composite
def walk_cases(draw):
    """A graph with N + n <= 6 and random angles: a uniform-branch draw
    (N <= 4), any connected draw (uniform or not), or the 5-cycle."""
    kind = draw(st.sampled_from(["uniform", "connected", "cycle5"]))
    if kind == "cycle5":
        g = graphstate.cycle_with_output(5)
    else:
        n_comp = draw(st.integers(1, 4 if kind == "uniform" else 5))
        n_out = draw(st.integers(1, 6 - n_comp))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "uniform":
            g = graphstate.random_resource_graph(rng, n_comp, n_out)
        else:
            g = graphstate.random_connected_graph(rng, n_comp, n_out)
    angle = st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False)
    return acausal.build_resource_pm(g), {c: draw(angle) for c in g.computation}


@PROPERTY_SETTINGS
@given(walk_cases())
def test_positive_branch_walk_agrees_with_every_backend(case):
    """``backend_agreement``'s route, the plain state's positive branch,
    equals every branch of the literal W's factorized table, of the dense
    oracle's and of the fold to 1e-12, on graphs with and without uniform
    branches."""
    r, ang = case
    for backend in ("factorized", "dense", "folded"):
        table = backend_table(r, ang, backend)
        assert acausal.backend_agreement(r, ang, table) <= ATOL, backend


def factored_w(n_parties, n_pure, scale, seed):
    """W = scale |pure><pure| (x) (I/2)^m with the pure ket on the first ``n_pure`` qubits."""
    rng = np.random.default_rng(seed)
    pure = random_ket(rng, n_pure) if n_pure else qlin.Ket([1.0])
    parties = [f"P{i + 1}" for i in range(n_parties)]
    return procmat.ProcessMatrix(parties, pure=pure, scale=scale)


@st.composite
def factored_process_matrices(draw):
    """A random W whose dense form fits the operator cap, with a
    pure prefix of any length: none, up to the first party's output, or all."""
    n_parties = draw(st.integers(1, min(4, config.DENSE_OPERATOR_CAP // 2)))
    return factored_w(
        n_parties,
        n_pure=draw(st.integers(0, 2 * n_parties)),
        scale=draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@PROPERTY_SETTINGS
@given(factored_process_matrices())
@example(factored_w(n_parties=2, n_pure=0, scale=3.0, seed=0))
def test_factored_trace_and_floor_match_dense_oracle(w):
    tol = ATOL * w.scale
    dense = w.dense()
    assert abs(w.min_eigenvalue() - qlin.min_eigenvalue(dense)) <= tol
    assert abs(w.trace() - float(dense.trace().real)) <= tol
    if not w.pure.num_qubits:
        # every qubit mixed: W = scale (I/2)^k has floor scale 2^-k, not 0
        assert w.min_eigenvalue() == pytest.approx(w.scale * 0.5**w.num_qubits)


def kron_dense(w):
    """Reference W: scale times the kron of the projector with I/2 per mixed qubit."""
    amp = w.pure.amplitudes
    big = np.outer(amp, amp.conj())
    for _ in range(w.num_qubits - w.pure.num_qubits):
        big = np.kron(big, np.eye(2) / 2)
    return w.scale * big


@PROPERTY_SETTINGS
@given(factored_process_matrices())
@example(factored_w(n_parties=3, n_pure=6, scale=3.7, seed=1))
@example(factored_w(n_parties=2, n_pure=0, scale=0.3, seed=0))
@example(factored_w(n_parties=4, n_pure=5, scale=13.0, seed=2))
def test_dense_equals_kron_reference(w):
    assert np.array_equal(w.dense().entries, kron_dense(w))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_density_process_matrix_equals_kron_reference(k):
    """W = rho (x) I^k for rho = |psi><psi|: every input, then every output."""
    psi = random_ket(np.random.default_rng(k), k)
    reference = np.kron(np.outer(psi.amplitudes, psi.amplitudes.conj()), np.eye(2**k))
    assert np.array_equal(density_pm(psi).dense().entries, reference)


@pytest.mark.parametrize("kind", ["factored", "density"])
def test_dense_builds_one_hermop_and_no_kron_or_permutation(monkeypatch, kind):
    w = (
        factored_w(n_parties=3, n_pure=4, scale=1.5, seed=3) if kind == "factored"
        else density_pm(random_ket(np.random.default_rng(5), 3))
    )
    calls = {"kron_all": 0, "permute_qubits": 0}
    sizes = []
    real_init = qlin.HermOp.__init__

    def counted_init(self, entries, **kwargs):
        sizes.append(np.shape(entries)[0])
        real_init(self, entries, **kwargs)

    for name in calls:
        def counted(*args, _name=name, _real=getattr(qlin, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(qlin, name, counted)
    monkeypatch.setattr(qlin.HermOp, "__init__", counted_init)
    op = w.dense()
    assert sizes == [2**6] and op.num_qubits == 6
    assert calls == {"kron_all": 0, "permute_qubits": 0}


def test_dense_holds_one_copy_of_w():
    """W is written once, into the array its HermOp keeps: no block, kron or
    frozen copy of it exists beside it."""
    r = acausal.build_resource_pm(graphstate.chain(4))
    w_bytes = np.dtype(np.complex128).itemsize * 4**r.w.num_qubits
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op = r.w.dense()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert op.entries.nbytes == w_bytes
    assert peak < 1.25 * w_bytes, peak / w_bytes


def unit_kets(rng, shape):
    vecs = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def block_kets(rng, parties, shape):
    """Random unit measure and reprepare kets for ``parties`` parties, drawn
    party by party as (trials, elements) stacks, stacked into the kernel's
    two (trials, parties, elements, 2) arrays."""
    pairs = [(unit_kets(rng, shape), unit_kets(rng, shape)) for _ in range(parties)]
    return tuple(np.stack(arrays, axis=1) for arrays in zip(*pairs))


@st.composite
def planned_kernel_cases(draw):
    """A random W of 1 to 4 parties, its pure factor a random ket on 0 to 2k
    qubits at a random scale, and a block of 1, 2 or 5 trials.  A block has
    one element count: either every party takes one random element, or each
    party takes two-element kets by a route of its own: MBQC kets (an
    Alice's or a Bob's), the rank-1 family's drawn kets, or two random
    elements.  A block of one route is passed as that route's arrays, so
    the MBQC readout keeps its broadcast stride."""
    n_parties = draw(st.integers(1, 4))
    w = factored_w(
        n_parties,
        n_pure=draw(st.integers(0, 2 * n_parties)),
        scale=draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    trials = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    split = draw(st.integers(0, n_parties))
    phis = rng.uniform(0.0, 2.0 * math.pi, size=(trials, split))
    mbqc = procmat.mbqc_kets(phis, w.parties[:split], w.parties[split:])
    rank1 = procmat.rank_one_instrument_family(w.parties).draw(rng, trials)
    routes = {
        "mbqc": (mbqc.measure, mbqc.reprepare),
        "rank1": (rank1.measure, rank1.reprepare),
        "random": block_kets(rng, n_parties, (trials, 2)),
    }
    if draw(st.booleans()):
        return w, block_kets(rng, n_parties, (trials, 1))
    kinds = draw(st.lists(st.sampled_from(sorted(routes)), min_size=n_parties, max_size=n_parties))
    if len(set(kinds)) == 1:
        return w, routes[kinds[0]]
    return w, tuple(
        np.stack([routes[kind][j][:, i] for i, kind in enumerate(kinds)], axis=1) for j in (0, 1)
    )


@settings(max_examples=150, deadline=None, database=None)
@given(planned_kernel_cases())
def test_planned_kernel_equals_the_labelled_reference_bit_for_bit(case):
    """The kernel that reads its steps off the cached plan, with its bras
    built from the pure qubits alone, gives every bit of the kernel that
    works its axes out from register labels and builds each bra from ones."""
    w, kets = case
    table = procmat._factorized_probability(w, *kets)
    assert np.array_equal(table, labelled_factorized_probability(w, *kets))


def test_the_plan_is_made_once_per_register_shape():
    """A table reads the plan of its (parties, pure qubits) shape: the fold
    of chain(5) and its literal W are two shapes, planned once each however
    many tables are contracted."""
    procmat._contraction_plan.cache_clear()
    r = acausal.build_resource_pm(graphstate.chain(5))
    for angle in (0.1, 0.2, 0.3):
        acausal.outcome_probabilities(r, angle)
        acausal.outcome_probabilities(r, angle, literal=True)
    info = procmat._contraction_plan.cache_info()
    assert (info.misses, info.hits) == (2, 4)


@st.composite
def dense_kernel_cases(draw):
    """A W whose dense form fits the operator cap (a random one, or a density
    process matrix) and a block of 1 to 6 trials of random unit kets, 1 to 3
    elements per party."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        w = density_pm(random_ket(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k))
    else:
        w = draw(factored_process_matrices())
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return w, block_kets(rng, len(w.parties), shape)


def kernel_case(n_parties, n_pure, trials=3, elements=2):
    w = factored_w(n_parties, n_pure=n_pure, scale=1.5, seed=n_parties + n_pure)
    return w, block_kets(np.random.default_rng(11), n_parties, (trials, elements))


def assert_equals_factorized(w, kets, table):
    ref = procmat._factorized_probability(w, *kets)
    assert table.shape == ref.shape
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


@PROPERTY_SETTINGS
@given(dense_kernel_cases())
def test_dense_kernel_equals_the_tensordot_reference(case):
    """The dense kernel, the one-tensordot-per-party trace of the whole W,
    equals the overlap of the kets with the pure factor, which shares no
    arithmetic with it, on random W and density process matrices."""
    w, kets = case
    assert_equals_factorized(w, kets, procmat._dense_probability(w, *kets))


KERNEL_CASES = [
    kernel_case(2, n_pure=0),  # every qubit mixed
    kernel_case(2, n_pure=1),  # both of P2's qubits mixed, P1's input pure
    kernel_case(2, n_pure=2),  # P2's output qubit mixed, its input pure
    kernel_case(3, n_pure=4, trials=6, elements=3),  # P3's output mixed, a third step
    kernel_case(3, n_pure=6, trials=2, elements=3),  # every qubit pure
    kernel_case(1, n_pure=2, trials=1),  # one party: one step
    kernel_case(1, n_pure=1),
    kernel_case(1, n_pure=0, elements=1),
]


def test_slab_path_equals_the_reference():
    """On eight fixed W that name which of the last party's qubits are
    mixed (the split a slab-by-slab writer of W was tested on), one, two
    and three parties, the dense kernel equals the factorized kernel."""
    for w, kets in KERNEL_CASES:
        assert_equals_factorized(w, kets, procmat._dense_probability(w, *kets))


# components whose products and sums round differently by sign or zero
SIGNED_COMPONENTS = np.array([0.0, -0.0, 1.0, -1.0, math.sqrt(0.5), -math.sqrt(0.5), 0.6, -0.8])


@st.composite
def choi_ket_stacks(draw):
    """Measure and reprepare kets shaped (trials, elements, 2), 1 to 3000
    trials and 1 to 3 elements: MBQC equatorial kets with the readout as a
    broadcast reprepare stack, random unit (rank-1) kets, or components
    drawn from signed zeros, units and a few fractions."""
    trials = draw(st.integers(1, 3000))
    elements = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["mbqc", "rank1", "signed"]))
    shape = (trials, elements)
    if family == "mbqc":
        kets = qlin.equatorial_kets(rng.uniform(0.0, 2.0 * math.pi, size=shape))
        measure = kets[:, :, draw(st.integers(0, 1))]
        readout = np.eye(2, dtype=np.complex128)[np.arange(elements) % 2]
        return measure, np.broadcast_to(readout, shape + (2,))
    if family == "rank1":
        return unit_kets(rng, shape), unit_kets(rng, shape)

    def signed():
        parts = rng.choice(SIGNED_COMPONENTS, size=shape + (2, 2))
        return parts[..., 0] + 1j * parts[..., 1]

    return signed(), signed()


@settings(max_examples=60, deadline=None, database=None)
@given(choi_ket_stacks())
@example((np.array([[[-0.0, 0.0]]], dtype=complex), np.array([[[0.0, -0.0]]], dtype=complex)))
def test_choi_tensors_equal_the_double_sum_bit_for_bit(stacks):
    """The one broadcast pass of ``_choi_tensors`` gives the bits of the
    term-by-term double sum, signed zeros included."""
    measure, reprepare = stacks
    cj = procmat._choi_tensors(measure, reprepare)
    ref = double_sum_choi(measure, reprepare)
    assert cj.shape == ref.shape == measure.shape[:-1] + (2, 2, 2, 2)
    assert cj.tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dense_table_is_c_contiguous_in_party_order(k):
    """The table comes back with one axis per party in party order, as a
    C-contiguous array: every party draws its own random kets, so the
    factorized kernel's table, which reads party i at index i, equals it
    only in that order."""
    w = factored_w(k, n_pure=k + 1, scale=1.5, seed=k)
    kets = block_kets(np.random.default_rng(k), k, (2, 3))
    table = procmat._dense_probability(w, *kets)
    assert table.shape == (2,) + (3,) * k
    assert table.flags.c_contiguous
    assert_equals_factorized(w, kets, table)


def test_a_nan_imaginary_part_is_refused(monkeypatch):
    """A table entry with a finite real part and a NaN imaginary part fails
    the imaginary-part check, which NaN would pass as ``> 1e-10``.  The NaN
    is planted on the last party's step only: an earlier one would reach
    the real part through the later products."""
    w = acausal.build_resource_pm(graphstate.chain(3)).w
    kets = block_kets(np.random.default_rng(3), len(w.parties), (1, 2))
    real = procmat._batched_tensordot
    steps = []

    def planting(a, b, axes):
        steps.append(None)
        out = real(a, b, axes)
        return out + complex(0.0, math.nan) if len(steps) == len(w.parties) else out

    monkeypatch.setattr(procmat, "_batched_tensordot", planting)
    with pytest.raises(procmat.ProcmatError, match="imaginary part nan"):
        dense_tables(w, *kets)
    assert len(steps) == len(w.parties)


def test_dense_table_refuses_above_the_cap_before_allocating():
    """W of chain(7) has 14 qubits, above the dense operator cap: its
    ``dense()`` refuses, and neither W nor a table or Choi tensor is
    allocated."""
    w = acausal.build_resource_pm(graphstate.chain(7)).w
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(config.RegisterCapError):
            w.dense()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


def test_dense_table_of_chain5_peaks_below_2_25_copies_of_w():
    """The oracle holds W whole (16 MiB on chain(5)) and, while it traces the
    first party, the transposed copy that the step multiplies: one MBQC table
    peaks near 2.1x the bytes of W, and below 2.25x."""
    r = acausal.build_resource_pm(graphstate.chain(5))
    w = r.w
    w_bytes = np.dtype(np.complex128).itemsize * 4**w.num_qubits
    block = procmat.mbqc_kets(np.full((1, r.n_computation), 0.7), r.alice_parties, r.bob_parties)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = dense_tables(w, block.measure, block.reprepare)[0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.shape == (2,) * 5
    assert peak < 2.25 * w_bytes, peak / w_bytes


def with_raw_table(monkeypatch, backend, raw):
    """Make the ``backend`` kernel return ``raw`` as its one-trial stack, so
    that only the table's range guard acts on it."""
    monkeypatch.setattr(procmat, f"_{backend}_probability", lambda w, *kets: raw[None].copy())
    return acausal.build_resource_pm(graphstate.chain(2))


@pytest.mark.parametrize("backend", ["factorized", "dense"])
def test_table_clamps_and_counts_each_tiny_negative_entry(monkeypatch, backend):
    r = with_raw_table(monkeypatch, backend, np.array([[-5e-11, 0.5], [-1e-9, 0.5]]))
    before = procmat.clamped_probability_count()
    table = backend_table(r, 0.0, backend)
    assert procmat.clamped_probability_count() == before + 2
    assert table.tolist() == [[0.0, 0.5], [0.0, 0.5]]


@pytest.mark.parametrize("backend", ["factorized", "dense"])
@pytest.mark.parametrize("value", [-2e-8, 1.0 + 2e-8, math.nan])
def test_table_rejects_out_of_range_entry(monkeypatch, backend, value):
    r = with_raw_table(monkeypatch, backend, np.array([[0.25, 0.25], [value, 0.25]]))
    before = procmat.clamped_probability_count()
    with pytest.raises(procmat.ProcmatError, match=re.escape(f"{value!r} at outcome (1, 0)")):
        backend_table(r, 0.0, backend)
    assert procmat.clamped_probability_count() == before
