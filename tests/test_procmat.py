"""Instrument Choi operators, CPTP checks, and process-matrix probabilities."""

import numpy as np
import pytest

from acausal_mbqc import acausal, graphstate, procmat, qlin
from acausal_mbqc.procmat import (
    ProcmatError,
    ProcessMatrix,
    PureMixedFactor,
    Slot,
)


def test_choi_of_measure_reprepare_closed_form():
    """The double-sum construction must equal |measure><measure| (x) |rep><rep|."""
    rng = np.random.default_rng(51)
    for _ in range(10):
        m = qlin.random_ket(rng, 1)
        r = qlin.random_ket(rng, 1)
        cj = procmat.CJOperator(m, r)
        oracle = np.kron(
            np.outer(m.amplitudes, m.amplitudes.conj()),
            np.outer(r.amplitudes, r.amplitudes.conj()),
        )
        assert np.allclose(cj.op.entries, oracle, atol=1e-12)


def test_conjugated_measure_ket_equals_negated_angle():
    """Transposing the Choi construction is the same as negating the angle."""
    phi = 1.1
    for m in (0, 1):
        conj = qlin.Ket(qlin.equatorial_ket(phi, m).amplitudes.conj())
        neg = qlin.equatorial_ket(-phi, m)
        cj_conj = procmat.CJOperator(conj, qlin.KET0)
        cj_neg = procmat.CJOperator(neg, qlin.KET0)
        assert np.allclose(cj_conj.op.entries, cj_neg.op.entries, atol=1e-12)


@pytest.mark.parametrize("phi", [0.0, 0.8, np.pi, 4.4])
def test_alice_instrument_is_cptp(phi):
    report = procmat.cptp_check(procmat.alice_instrument(phi))
    assert report.passes()
    assert report.identity_deviation < 1e-12
    assert report.min_eigenvalue > -1e-12


def test_bob_instrument_is_cptp():
    assert procmat.cptp_check(procmat.bob_instrument()).passes()


def test_cptp_check_flags_dropped_element():
    full = procmat.alice_instrument(0.3)
    half = procmat.Instrument(elements=full.elements[:1], description="half")
    report = procmat.cptp_check(half)
    assert not report.passes()
    assert report.identity_deviation == pytest.approx(0.5, abs=1e-12)


def test_density_pm_reproduces_born_rule():
    """Measure-reprepare parties on 2^k rho (x) (I/2)^k recover <b|rho|b>."""
    rng = np.random.default_rng(53)
    rho = qlin.random_density(rng, 2)
    w = procmat.density_process_matrix(rho)
    basis_a = qlin.random_single_qubit_basis(rng)
    basis_b = qlin.random_single_qubit_basis(rng)
    total = 0.0
    for ka in (0, 1):
        for kb in (0, 1):
            assignment = {
                "P1": procmat.CJOperator(basis_a[ka], qlin.random_ket(rng, 1)),
                "P2": procmat.CJOperator(basis_b[kb], qlin.random_ket(rng, 1)),
            }
            p = procmat.pm_probability(w, assignment)
            bra = np.kron(basis_a[ka].amplitudes, basis_b[kb].amplitudes)
            born = float(np.real(bra.conj() @ rho.entries @ bra))
            assert p == pytest.approx(born, abs=1e-12)
            total += p
    assert total == pytest.approx(1.0, abs=1e-10)


def test_density_pm_normalizes_for_arbitrary_rank1_instruments():
    rng = np.random.default_rng(59)
    w = procmat.density_process_matrix(qlin.random_density(rng, 2))
    report = procmat.pm_validate(
        w, procmat.rank_one_instrument_family(["P1", "P2"]), 20, 1e-9, rng
    )
    assert report.passed
    assert report.max_deviation < 1e-9


def small_factored_pm(rng):
    """W = 2 |psi><psi|_{in} (x) (I/2)_{out} on one party slot."""
    psi = qlin.random_ket(rng, 1)
    return ProcessMatrix(
        slots=[Slot("A", 0, 1)],
        factor=PureMixedFactor(pure=psi, pure_qubits=(0,), mixed_qubits=(1,), scale=2.0),
    ), psi


def test_factorized_and_dense_backends_agree():
    rng = np.random.default_rng(61)
    w, psi = small_factored_pm(rng)
    basis = qlin.random_single_qubit_basis(rng)
    for k in (0, 1):
        cj = procmat.CJOperator(basis[k], qlin.random_ket(rng, 1))
        pf = procmat.pm_probability(w, {"A": cj}, backend="factorized")
        pd = procmat.pm_probability(w, {"A": cj}, backend="dense")
        born = float(abs(np.vdot(basis[k].amplitudes, psi.amplitudes)) ** 2)
        assert pf == pytest.approx(pd, abs=1e-12)
        assert pf == pytest.approx(born, abs=1e-12)


def test_trace_and_min_eigenvalue_from_factor_match_dense():
    rng = np.random.default_rng(71)
    w, _ = small_factored_pm(rng)
    dense_op = w.dense()
    assert w.trace() == pytest.approx(float(dense_op.trace().real), abs=1e-12)
    assert w.min_eigenvalue() == pytest.approx(qlin.min_eigenvalue(dense_op), abs=1e-12)


def test_pm_probability_validates_parties():
    rng = np.random.default_rng(73)
    w, _ = small_factored_pm(rng)
    cj = procmat.CJOperator(qlin.KET0, qlin.KET0)
    with pytest.raises(ProcmatError):
        procmat.pm_probability(w, {"B": cj})
    with pytest.raises(ProcmatError):
        procmat.pm_probability(w, {"A": cj, "B": cj})


def test_slots_must_partition_register():
    with pytest.raises(ProcmatError):
        ProcessMatrix(
            slots=[Slot("A", 0, 1), Slot("B", 1, 2)],
            op=qlin.identity_op(4),
        )


def test_clamp_counter_and_range_guard():
    procmat.reset_clamped_probability_count()
    before = procmat.clamped_probability_count()
    assert procmat._validated_table(-5e-11) == 0.0
    assert procmat.clamped_probability_count() == before + 1
    assert procmat._validated_table(0.3) == 0.3
    assert procmat.clamped_probability_count() == before + 1
    with pytest.raises(ProcmatError):
        procmat._validated_table(-2e-8)
    with pytest.raises(ProcmatError):
        procmat._validated_table(1.0 + 2e-8)
    procmat.reset_clamped_probability_count()
    assert procmat.clamped_probability_count() == 0


def test_pm_validate_worst_assignment_is_reported():
    rng = np.random.default_rng(79)
    w = procmat.density_process_matrix(qlin.random_density(rng, 1))
    report = procmat.pm_validate(
        w, procmat.mbqc_instrument_family(["P1"], []), 5, 1e-9, rng
    )
    assert report.trials == 5
    assert report.passed
    # every trial is within tolerance, so no trial is named as the worst
    assert report.worst_assignment is None


def test_pm_validate_names_the_failing_trial():
    """Rank-1 instruments break the normalization of the chain(2) resource."""
    r = acausal.build_resource_pm(graphstate.chain(2))
    family = procmat.rank_one_instrument_family(r.alice_parties + r.bob_parties)
    report = procmat.pm_validate(r.w, family, 20, 1e-9, np.random.default_rng(83))
    assert not report.passed
    assert report.max_deviation > 0.5
    assert set(report.worst_assignment) == {"A1", "B1"}
    assert all(desc.startswith("measure ") for desc in report.worst_assignment.values())


def test_backend_dispatch_on_a_dense_only_process_matrix():
    rng = np.random.default_rng(89)
    w = procmat.density_process_matrix(qlin.random_density(rng, 2))
    instruments = {"P1": procmat.alice_instrument(0.4), "P2": procmat.bob_instrument()}
    with pytest.raises(ProcmatError, match="needs a factored process matrix"):
        procmat.outcome_table(w, instruments, backend="factorized")
    dense = procmat.outcome_table(w, instruments, backend="dense")
    assert np.array_equal(procmat.outcome_table(w, instruments), dense)
    with pytest.raises(ProcmatError, match="unknown backend"):
        procmat.outcome_table(w, instruments, backend="sparse")


@pytest.mark.parametrize("backend", ["auto", "factorized"])
def test_factorized_table_never_builds_a_choi_operator(monkeypatch, backend):
    r = acausal.build_resource_pm(graphstate.chain(4))

    def refuse(cj):
        raise AssertionError("the factorized backend read CJOperator.op")

    monkeypatch.setattr(procmat.CJOperator, "op", property(refuse))
    table = acausal.outcome_probabilities(r, 0.7, backend=backend)
    assert float(table.sum()) == pytest.approx(1.0, abs=1e-10)
