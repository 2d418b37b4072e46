"""Property tests for the outcome-table kernel ``procmat.outcome_table``.

Its two backends, the factorized overlap and the dense-trace oracle, must
agree with each other and with the first-principles Born amplitude of
criterion 05 on random uniform-branch graphs with N + n <= 5, and its range
guard must clamp and count each tiny negative entry once.  The dense kernel
must equal the one-tensordot-per-party reference and trace W without
building it.  The trace and positivity floor that W reads off its pure
factor must match the materialized dense operator, and that operator must
equal, entry for entry, the plain kron of the projector with I/2 per mixed
qubit, built with one ``HermOp``.
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
from pm_reference import density_pm, random_ket, rank_one_sampler, tensordot_dense_probability
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


@PROPERTY_SETTINGS
@given(dense_kernel_cases())
def test_dense_kernel_equals_the_tensordot_reference(case):
    w, kets = case
    ref = tensordot_dense_probability(w, kets)
    table = procmat._dense_probability(w, kets)
    assert table.shape == ref.shape
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


@st.composite
def slab_cases(draw):
    """A random W and a block of 1 to 6 trials of random unit kets, 1 to 3
    elements per party."""
    w = draw(factored_process_matrices())
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return w, {p: (unit_kets(rng, shape), unit_kets(rng, shape)) for p in w.parties}


def slab_case(n_parties, n_pure, trials=3, elements=2):
    w = factored_w(n_parties, n_pure=n_pure, scale=1.5, seed=n_parties + n_pure)
    rng = np.random.default_rng(11)
    shape = (trials, elements)
    return w, {p: (unit_kets(rng, shape), unit_kets(rng, shape)) for p in w.parties}


@PROPERTY_SETTINGS
@given(slab_cases())
@example(slab_case(2, n_pure=0))  # every qubit mixed
@example(slab_case(2, n_pure=1))  # both of P2's qubits mixed, P1's input pure
@example(slab_case(2, n_pure=2))  # P2's output qubit mixed, its input pure
@example(slab_case(3, n_pure=4, trials=6, elements=3))  # P3's output mixed, a third step
@example(slab_case(3, n_pure=6, trials=2, elements=3))  # every qubit pure
@example(slab_case(1, n_pure=2, trials=1))  # one party: each slab is a scalar
@example(slab_case(1, n_pure=1))
@example(slab_case(1, n_pure=0, elements=1))
def test_slab_path_equals_the_reference(case):
    """The dense kernel writes W slab by slab, each slab fixing the indices
    of the last party, whose qubits the examples name; its table must match
    the one-tensordot-per-party reference, which multiplies all of W."""
    w, kets = case
    table = procmat._dense_probability(w, kets)
    ref = tensordot_dense_probability(w, kets)
    assert table.shape == ref.shape
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


def dense_table_writes(w, kets, tile_bytes):
    """One dense table of ``w`` with each tile of a slab within
    ``tile_bytes``, and how many tiles it wrote."""
    writes = 0
    real = procmat._write_tile

    def counted(*args):
        nonlocal writes
        writes += 1
        real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(procmat, "_TILE_BYTES", tile_bytes)
        mp.setattr(procmat, "_write_tile", counted)
        table = procmat._dense_probability(w, kets)
    return table, writes


def test_a_mixed_slab_party_output_halves_the_slabs():
    """The slab party is the last, whose output is the register's last qubit:
    on the resource it is maximally mixed, so the 8 slabs whose rows and
    columns differ there are never written, and each other slab is written
    once, if its Choi entry is nonzero in some trial.  A Bob's readout has
    2 such slabs, each streamed through 4 tiles of 256 KiB on chain(5);
    random kets trace all 8 nonzero slabs.  A W with no mixed qubit writes
    all 16."""
    r = acausal.build_resource_pm(graphstate.chain(5))
    phis = np.full((1, len(r.alice_parties)), 0.7)
    mbqc = procmat.mbqc_kets(phis, r.alice_parties, r.bob_parties)
    assert dense_table_writes(r.w, mbqc, 256 << 10)[1] == 2 * 4
    rng = np.random.default_rng(5)
    kets = {p: (unit_kets(rng, (1, 2)), unit_kets(rng, (1, 2))) for p in r.w.parties}
    assert dense_table_writes(r.w, kets, 1 << 62)[1] == 8
    pure = factored_w(2, n_pure=4, scale=1.5, seed=4)
    kets = {p: (unit_kets(rng, (1, 2)), unit_kets(rng, (1, 2))) for p in pure.parties}
    assert dense_table_writes(pure, kets, 1 << 62)[1] == 16


@PROPERTY_SETTINGS
@given(slab_cases())
@example(slab_case(3, n_pure=6))  # the rest's two qubits pure: 4 tiles
@example(slab_case(4, n_pure=8, trials=2))  # 16 tiles
@example(slab_case(4, n_pure=3))  # 4 tiles, the rest's last two qubits mixed
@example(slab_case(4, n_pure=6, trials=2, elements=3))  # 8 tiles, one mixed rest qubit
@example(slab_case(3, n_pure=2))  # too short to tile: 2 tiles, one mixed rest qubit
@example(slab_case(4, n_pure=1))  # no pure rest qubit: 1 tile
@example(slab_case(2, n_pure=4))  # no rest
@example(slab_case(1, n_pure=1))
def test_tiles_change_no_bit_of_the_table(case):
    """Streamed through the smallest tiles, which fix every pure qubit of the
    rest, each slab spans 2^(pure rest qubits) tiles, at least 4 whenever it
    has two such qubits.  The table is the one-tile table bit for bit, since
    no sum is split across tiles."""
    w, kets = case
    k = len(w.parties)
    rest = [q for q in range(w.num_qubits) if q not in w.qubits(k - 1) + w.qubits(0)]
    pure_rest = sum(q < w.pure.num_qubits for q in rest)
    whole, slabs = dense_table_writes(w, kets, 1 << 62)
    table, tiles = dense_table_writes(w, kets, 16)
    assert tiles == 2**pure_rest * slabs
    assert table.tobytes() == whole.tobytes() and table.shape == whole.shape
    ref = tensordot_dense_probability(w, kets)
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dense_table_is_c_contiguous_in_party_order(k):
    """The slab party is traced first, but the table comes back with one
    axis per party in party order, as a C-contiguous array: party i has
    i + 1 elements here, so the shape names the order."""
    w = factored_w(k, n_pure=k + 1, scale=1.5, seed=k)
    rng = np.random.default_rng(k)
    kets = {
        p: (unit_kets(rng, (2, i + 1)), unit_kets(rng, (2, i + 1)))
        for i, p in enumerate(w.parties)
    }
    table = procmat._dense_probability(w, kets)
    assert table.shape == (2,) + tuple(range(1, k + 1))
    assert table.flags.c_contiguous
    ref = tensordot_dense_probability(w, kets)
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("planted", [math.nan], ids=["nan"])
def test_slab_checks_refuse_a_planted_entry(planted):
    """An entry planted into each tile after it is written reaches the table,
    whose range check refuses it, naming the outcome and the trial."""
    w = acausal.build_resource_pm(graphstate.chain(2)).w
    rng = np.random.default_rng(11)
    kets = {p: (unit_kets(rng, (3, 2)), unit_kets(rng, (3, 2))) for p in w.parties}
    real = procmat._write_tile

    def planting(out, *args):
        real(out, *args)
        out.reshape(-1)[1] += planted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(procmat, "_write_tile", planting)
        with pytest.raises(procmat.ProcmatError, match=r"probability nan at outcome \(\d, \d\) of trial \d"):
            procmat._trial_tables(w, kets, "dense")


def test_slab_path_refuses_above_the_cap_before_allocating():
    """W of chain(7) has 14 qubits, above the dense operator cap: no tile,
    table or Choi tensor is allocated."""
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


def test_dense_table_of_a_factored_w_never_builds_w(monkeypatch):
    """The dense table of a chain(5) resource is written slab by slab:
    ``dense()`` is never called, and the table allocates less than a quarter
    of the 16 MiB that W would take."""
    r = acausal.build_resource_pm(graphstate.chain(5))
    w_bytes = np.dtype(np.complex128).itemsize * 4**r.w.num_qubits
    instruments = {p: procmat.alice_instrument(0.7) for p in r.alice_parties}
    instruments.update({p: procmat.bob_instrument() for p in r.bob_parties})

    def refuse(self):
        raise AssertionError("the dense table of a factored W must not build W")

    monkeypatch.setattr(procmat.ProcessMatrix, "dense", refuse)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = procmat.outcome_table(r.w, instruments, "dense")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.shape == (2,) * 5
    assert peak < w_bytes / 4, peak / w_bytes


def test_dense_table_of_chain6_holds_less_than_a_sixteenth_of_w():
    """W of chain(6), the largest under the cap, takes 256 MiB and each of
    its slabs 16 MiB; streamed through tiles, one dense table allocates less
    than one slab."""
    r = acausal.build_resource_pm(graphstate.chain(6))
    w_bytes = np.dtype(np.complex128).itemsize * 4**r.w.num_qubits
    instruments = {p: procmat.alice_instrument(0.7) for p in r.alice_parties}
    instruments.update({p: procmat.bob_instrument() for p in r.bob_parties})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = procmat.outcome_table(r.w, instruments, "dense")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.shape == (2,) * 6
    assert peak < w_bytes / 16, peak / w_bytes


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
