"""Property tests for the outcome-table kernel ``procmat.outcome_table``.

Its two backends, the factorized overlap and the dense-trace oracle, must
agree with each other and with the first-principles Born amplitude of
criterion 05 on random uniform-branch graphs with N + n <= 5, and its range
guard must clamp and count each tiny negative entry once.  The dense kernel
must equal the one-tensordot-per-party reference on any slot layout and
trace W without copying it.  The trace and
positivity floor that a factored W reads off its factor must match the
materialized dense operator, and that operator must equal, entry for entry,
the projector-kron-permute construction, built with one ``HermOp``.
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
from pm_reference import random_density, random_ket, rank_one_sampler, tensordot_dense_probability
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


def factored_w(n_slots, n_pure, order, scale, seed):
    """W = scale |pure><pure| (x) (I/2)^k with the pure qubits first in ``order``."""
    rng = np.random.default_rng(seed)
    pure = random_ket(rng, n_pure) if n_pure else qlin.Ket([1.0])
    factor = procmat.PureMixedFactor(
        pure=pure,
        pure_qubits=tuple(order[:n_pure]),
        mixed_qubits=tuple(order[n_pure:]),
        scale=scale,
    )
    slots = [procmat.Slot(f"P{i + 1}", 2 * i, 2 * i + 1) for i in range(n_slots)]
    return procmat.ProcessMatrix(slots, factor=factor)


@st.composite
def factored_process_matrices(draw):
    """A random factored W whose dense form fits the operator cap."""
    n_slots = draw(st.integers(1, min(4, config.DENSE_OPERATOR_CAP // 2)))
    k = 2 * n_slots
    return factored_w(
        n_slots,
        n_pure=draw(st.integers(0, k)),
        order=draw(st.permutations(range(k))),
        scale=draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@PROPERTY_SETTINGS
@given(factored_process_matrices())
@example(factored_w(n_slots=2, n_pure=0, order=[3, 1, 0, 2], scale=3.0, seed=0))
def test_factored_trace_and_floor_match_dense_oracle(w):
    f = w.factor
    tol = ATOL * f.scale
    dense = w.dense()
    assert abs(w.min_eigenvalue() - qlin.min_eigenvalue(dense)) <= tol
    assert abs(w.trace() - float(dense.trace().real)) <= tol
    if not f.pure_qubits:
        # every qubit mixed: W = scale (I/2)^k has floor scale 2^-k, not 0
        assert w.min_eigenvalue() == pytest.approx(f.scale * 0.5 ** len(f.mixed_qubits))


def kron_permute_dense(w):
    """Reference W: projector, a kron with I/2 per mixed qubit, then a qubit permutation."""
    f = w.factor
    big = qlin.kron_all([qlin.projector(f.pure)] + [qlin.maximally_mixed(1) for _ in f.mixed_qubits])
    return f.scale * qlin.permute_qubits(big, list(f.pure_qubits) + list(f.mixed_qubits)).entries


@PROPERTY_SETTINGS
@given(factored_process_matrices())
@example(factored_w(n_slots=3, n_pure=6, order=[4, 0, 5, 2, 1, 3], scale=3.7, seed=1))
@example(factored_w(n_slots=2, n_pure=0, order=[3, 1, 0, 2], scale=0.3, seed=0))
@example(factored_w(n_slots=4, n_pure=5, order=[7, 2, 0, 5, 3, 6, 1, 4], scale=13.0, seed=2))
def test_dense_equals_kron_permute_reference(w):
    assert np.array_equal(w.dense().entries, kron_permute_dense(w))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_density_process_matrix_equals_kron_permute_reference(k):
    rho = random_density(np.random.default_rng(k), k)
    big = qlin.kron_all([rho] + [qlin.maximally_mixed(1) for _ in range(k)])
    perm = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    reference = 2.0**k * qlin.permute_qubits(big, perm).entries
    assert np.array_equal(procmat.density_process_matrix(rho).dense().entries, reference)


@pytest.mark.parametrize("kind", ["factored", "density"])
def test_dense_builds_one_hermop_and_no_kron_or_permutation(monkeypatch, kind):
    rho = random_density(np.random.default_rng(5), 3)
    w = factored_w(n_slots=3, n_pure=4, order=[5, 0, 3, 1, 4, 2], scale=1.5, seed=3)
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
    op = w.dense() if kind == "factored" else procmat.density_process_matrix(rho).dense()
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


def test_dense_table_makes_no_copy_of_w():
    """With W built, the dense table of chain(5) allocates less than a quarter
    of W beyond it: the first party is traced through views of W, where a
    transposed copy alone would be all of W."""
    r = acausal.build_resource_pm(graphstate.chain(5))
    w_bytes = r.w.dense().entries.nbytes
    instruments = {p: procmat.alice_instrument(0.7) for p in r.alice_parties}
    instruments.update({p: procmat.bob_instrument() for p in r.bob_parties})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = procmat.outcome_table(r.w, instruments, "dense")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.shape == (2,) * 5
    assert peak < w_bytes / 4, peak / w_bytes


def with_slots(w, qubits):
    """``w``'s factor with slot i on qubits (qubits[2i], qubits[2i + 1])."""
    slots = [
        procmat.Slot(f"P{i + 1}", qubits[2 * i], qubits[2 * i + 1])
        for i in range(len(qubits) // 2)
    ]
    return procmat.ProcessMatrix(slots, factor=w.factor)


def unit_kets(rng, shape):
    vecs = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


@st.composite
def dense_kernel_cases(draw):
    """A W with a dense form (factored with adjacent slots, factored with
    slots on any qubits, or a density process matrix) and a block of 1 to 6
    trials of random unit kets, 1 to 3 elements per party."""
    kind = draw(st.sampled_from(["factored", "scattered", "density"]))
    if kind == "density":
        k = draw(st.integers(1, 3))
        w = procmat.density_process_matrix(
            random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)
        )
    else:
        w = draw(factored_process_matrices())
        if kind == "scattered":
            w = with_slots(w, draw(st.permutations(range(w.num_qubits))))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return w, {p: (unit_kets(rng, shape), unit_kets(rng, shape)) for p in w.parties}


def scattered_case():
    """Slot P1 on qubits (1, 3) and P2 on (0, 2), with three trials of two elements."""
    w = with_slots(factored_w(2, n_pure=3, order=[2, 0, 3, 1], scale=2.0, seed=4), [1, 3, 0, 2])
    rng = np.random.default_rng(7)
    return w, {p: (unit_kets(rng, (3, 2)), unit_kets(rng, (3, 2))) for p in w.parties}


@PROPERTY_SETTINGS
@given(dense_kernel_cases())
@example(scattered_case())
def test_dense_kernel_equals_the_tensordot_reference(case):
    w, kets = case
    ref = tensordot_dense_probability(w, kets)
    table = procmat._dense_probability(w, kets)
    assert table.shape == ref.shape
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


def fresh(w):
    """``w``'s slots and factor, with no dense operator built yet."""
    return procmat.ProcessMatrix(w.slots, factor=w.factor)


@st.composite
def slab_cases(draw):
    """A factored W with slots on any qubits and a block of 1 to 6 trials of
    random unit kets, 1 to 3 elements per party."""
    w = draw(factored_process_matrices())
    w = with_slots(w, draw(st.permutations(range(w.num_qubits))))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return w, {p: (unit_kets(rng, shape), unit_kets(rng, shape)) for p in w.parties}


def slab_case(n_slots, n_pure, order, trials=3, elements=2):
    w = factored_w(n_slots, n_pure=n_pure, order=order, scale=1.5, seed=n_slots + n_pure)
    rng = np.random.default_rng(11)
    shape = (trials, elements)
    return w, {p: (unit_kets(rng, shape), unit_kets(rng, shape)) for p in w.parties}


@PROPERTY_SETTINGS
@given(slab_cases())
@example(slab_case(2, n_pure=2, order=[2, 3, 0, 1]))  # both of P1's qubits mixed
@example(slab_case(2, n_pure=3, order=[3, 0, 2, 1]))  # P1's output qubit mixed
@example(slab_case(3, n_pure=4, order=[5, 1, 3, 2, 0, 4], trials=6, elements=3))  # input mixed
@example(slab_case(1, n_pure=2, order=[1, 0], trials=1))  # one slot: each slab is a scalar
@example(slab_case(1, n_pure=1, order=[0, 1]))
@example(slab_case(1, n_pure=0, order=[1, 0], elements=1))
def test_slab_path_equals_the_view_path_and_the_reference(case):
    """On a factored W that is not held, the dense kernel writes W slab by
    slab; its table must be the bytes of the trace through views of the
    built W, and match the one-tensordot-per-party reference."""
    w, kets = case
    w = fresh(w)
    table = procmat._dense_probability(w, kets)
    assert w._op is None
    ref = tensordot_dense_probability(w, kets)  # builds W
    assert np.array_equal(table, procmat._dense_probability(w, kets))
    assert table.shape == ref.shape
    assert float(np.max(np.abs(table - ref))) <= ATOL * max(1.0, float(np.max(np.abs(ref))))


@PROPERTY_SETTINGS
@given(slab_cases())
def test_slab_checks_see_the_hermitian_defect_of_all_of_w(case):
    """The largest defect over the mirrored slab pairs is W's own
    ``_hermitian_defect``, bit for bit."""
    w, kets = case
    w = fresh(w)
    defects = []
    real = qlin._hermitian_defect

    def spy(*args):
        defects.append(real(*args))
        return defects[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlin, "_hermitian_defect", spy)
        procmat._dense_probability(w, kets)
    assert w._op is None
    assert max(defects, default=0.0) == real(w.dense().entries)


@pytest.mark.parametrize(
    "planted, message",
    [(1e-6, "operator is not Hermitian within"), (math.nan, "operator entries must be finite")],
    ids=["asymmetric", "nan"],
)
def test_slab_checks_refuse_a_planted_entry(monkeypatch, planted, message):
    """An entry planted into one slab of a mirrored pair, after it is
    written, makes the dense oracle refuse W."""
    w, kets = slab_case(2, n_pure=4, order=[0, 1, 2, 3])
    real = procmat._write_embedded
    writes = []

    def planting(out, *args):
        real(out, *args)
        writes.append(len(writes))
        if len(writes) == 2:  # the first slab of the pair (0, 0, 0, 1), (0, 1, 0, 0)
            out[0, 1] += planted

    monkeypatch.setattr(procmat, "_write_embedded", planting)
    with pytest.raises(qlin.QlinError, match=re.escape(message)):
        procmat._dense_probability(fresh(w), kets)
    assert len(writes) >= 2


def test_slab_path_refuses_above_the_cap_before_allocating():
    """W of chain(7) has 14 qubits, above the dense operator cap: its slab
    buffers would be 256 MiB each, and none is allocated."""
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
    """The dense table of a fresh chain(5) resource is written slab by slab:
    ``dense()`` is never called, and the table allocates less than half of
    the 16 MiB that W would take."""
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
    assert peak < w_bytes / 2, peak / w_bytes


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
