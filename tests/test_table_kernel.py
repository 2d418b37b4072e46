"""Property tests for the outcome-table kernel ``procmat.outcome_table``.

Its two backends, the factorized overlap and the dense-trace oracle, must
agree with each other and with the first-principles Born amplitude of
criterion 05 on random uniform-branch graphs with N + n <= 5, and its range
guard must clamp and count each tiny negative entry once.  The dense kernel,
the definition Tr[W (x) CJ] traced one party at a time, must equal the
factorized kernel on random W, come back C-contiguous in party order, and
peak below 2.25 copies of W.  The trace and positivity floor that W reads
off its pure factor must match the materialized dense operator, and that
operator must equal, entry for entry, the plain kron of the projector with
I/2 per mixed qubit, built with one ``HermOp``.  Every backend's table of a
resource must equal, in every branch, the positive branch of the causal
walk, which is ``backend_agreement``'s route, with or without uniform
branches.
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
    density_pm,
    double_sum_choi,
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
        table = acausal.outcome_probabilities(r, ang, backend=backend)
        assert table.shape == born.shape
        assert float(np.max(np.abs(table - born))) <= ATOL, backend


@PROPERTY_SETTINGS
@given(resources(), st.integers(0, 2**32 - 1))
def test_backends_agree_on_random_rank_one_instruments(case, seed):
    _, r, _ = case
    parties = r.alice_parties + r.bob_parties
    instruments = rank_one_sampler(parties)(np.random.default_rng(seed))
    fact = procmat.outcome_table(r.w, instruments, backend="factorized")
    dense = procmat.outcome_table(r.w, instruments, backend="dense")
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
    mbqc_kets = procmat.mbqc_kets(phis, r.alice_parties, r.bob_parties)
    family = procmat.rank_one_instrument_family(r.alice_parties + r.bob_parties)
    for kets in (mbqc_kets, family.draw(rng, 3).kets):
        folded = acausal._folded_table(r, kets)
        for backend in ("factorized", "dense"):
            literal = procmat._trial_tables(r.w, kets, backend)
            assert folded.shape == literal.shape
            assert float(np.max(np.abs(folded - literal))) <= 1e-14, backend
    sets = [dict(zip(g.computation, row)) for row in phis.tolist()]
    table = acausal.outcome_probabilities(r, sets)
    assert np.array_equal(table, acausal._folded_table(r, mbqc_kets).reshape(table.shape))


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
    """``backend_agreement``'s route, the walk's positive branch, equals every
    branch of the literal W's factorized table, of the dense oracle's and of
    the fold to 1e-12, on graphs with and without uniform branches."""
    r, ang = case
    for backend in ("factorized", "dense", "folded"):
        table = acausal.outcome_probabilities(r, ang, backend)
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
    return w, {p: (unit_kets(rng, shape), unit_kets(rng, shape)) for p in w.parties}


def kernel_case(n_parties, n_pure, trials=3, elements=2):
    w = factored_w(n_parties, n_pure=n_pure, scale=1.5, seed=n_parties + n_pure)
    rng = np.random.default_rng(11)
    shape = (trials, elements)
    return w, {p: (unit_kets(rng, shape), unit_kets(rng, shape)) for p in w.parties}


def assert_equals_factorized(w, kets, table):
    ref = procmat._factorized_probability(w, kets)
    assert table.shape == ref.shape
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


@PROPERTY_SETTINGS
@given(dense_kernel_cases())
def test_dense_kernel_equals_the_tensordot_reference(case):
    """The dense kernel, the one-tensordot-per-party trace of the whole W,
    equals the overlap of the kets with the pure factor, which shares no
    arithmetic with it, on random W and density process matrices."""
    w, kets = case
    assert_equals_factorized(w, kets, procmat._dense_probability(w, kets))


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
        assert_equals_factorized(w, kets, procmat._dense_probability(w, kets))


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
    C-contiguous array: party i has i + 1 elements here, so the shape names
    the order."""
    w = factored_w(k, n_pure=k + 1, scale=1.5, seed=k)
    rng = np.random.default_rng(k)
    kets = {
        p: (unit_kets(rng, (2, i + 1)), unit_kets(rng, (2, i + 1)))
        for i, p in enumerate(w.parties)
    }
    table = procmat._dense_probability(w, kets)
    assert table.shape == (2,) + tuple(range(1, k + 1))
    assert table.flags.c_contiguous
    assert_equals_factorized(w, kets, table)


def test_a_nan_imaginary_part_is_refused(monkeypatch):
    """A table entry with a finite real part and a NaN imaginary part fails
    the imaginary-part check, which NaN would pass as ``> 1e-10``.  The NaN
    is planted on the last party's step only: an earlier one would reach
    the real part through the later products."""
    w = acausal.build_resource_pm(graphstate.chain(3)).w
    rng = np.random.default_rng(3)
    kets = {p: (unit_kets(rng, (1, 2)), unit_kets(rng, (1, 2))) for p in w.parties}
    real = procmat._batched_tensordot
    steps = []

    def planting(a, b, axes):
        steps.append(None)
        out = real(a, b, axes)
        return out + complex(0.0, math.nan) if len(steps) == len(w.parties) else out

    monkeypatch.setattr(procmat, "_batched_tensordot", planting)
    with pytest.raises(procmat.ProcmatError, match="imaginary part nan"):
        procmat._trial_tables(w, kets, "dense")
    assert len(steps) == len(w.parties)


def test_dense_table_refuses_above_the_cap_before_allocating():
    """W of chain(7) has 14 qubits, above the dense operator cap: neither W
    nor a table or Choi tensor is allocated."""
    r = acausal.build_resource_pm(graphstate.chain(7))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(config.RegisterCapError):
            acausal.outcome_probabilities(r, 0.0, backend="dense")
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
    instruments = {p: procmat.alice_instrument(0.7) for p in r.alice_parties}
    instruments.update({p: procmat.bob_instrument() for p in r.bob_parties})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = procmat.outcome_table(w, instruments, "dense")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.shape == (2,) * 5
    assert peak < 2.25 * w_bytes, peak / w_bytes


def with_raw_table(monkeypatch, backend, raw):
    """Make ``backend`` return ``raw`` as its one-trial stack, so that only the
    table's range guard acts on it."""
    monkeypatch.setattr(procmat, f"_{backend}_probability", lambda w, kets: raw[None].copy())
    return acausal.build_resource_pm(graphstate.chain(2))


@pytest.mark.parametrize("backend", ["factorized", "dense"])
def test_table_clamps_and_counts_each_tiny_negative_entry(monkeypatch, backend):
    r = with_raw_table(monkeypatch, backend, np.array([[-5e-11, 0.5], [-1e-9, 0.5]]))
    before = procmat.clamped_probability_count()
    table = acausal.outcome_probabilities(r, 0.0, backend=backend)
    assert procmat.clamped_probability_count() == before + 2
    assert table.tolist() == [[0.0, 0.5], [0.0, 0.5]]


@pytest.mark.parametrize("backend", ["factorized", "dense"])
@pytest.mark.parametrize("value", [-2e-8, 1.0 + 2e-8, math.nan])
def test_table_rejects_out_of_range_entry(monkeypatch, backend, value):
    r = with_raw_table(monkeypatch, backend, np.array([[0.25, 0.25], [value, 0.25]]))
    before = procmat.clamped_probability_count()
    with pytest.raises(procmat.ProcmatError, match=re.escape(f"{value!r} at outcome (1, 0)")):
        acausal.outcome_probabilities(r, 0.0, backend=backend)
    assert procmat.clamped_probability_count() == before
