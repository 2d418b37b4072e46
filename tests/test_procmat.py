"""Instrument Choi operators, CPTP checks, and process-matrix probabilities."""

import numpy as np
import pytest

from acausal_mbqc import acausal, graphstate, procmat, qlin
from acausal_mbqc.procmat import ProcmatError, ProcessMatrix
from pm_reference import (
    cptp_check,
    dense_tables,
    density_pm,
    random_ket,
    random_single_qubit_basis,
)

KET0 = qlin.basis_ket([0])


def choi_operator(measure, reprepare):
    """The 4x4 Choi operator on (input, output) of one element, from its kets."""
    return procmat._choi_tensors(measure, reprepare).reshape(4, 4)


def test_choi_of_measure_reprepare_closed_form():
    """The double-sum construction must equal |measure><measure| (x) |rep><rep|."""
    rng = np.random.default_rng(51)
    for _ in range(10):
        m = random_ket(rng, 1).amplitudes
        r = random_ket(rng, 1).amplitudes
        oracle = np.kron(np.outer(m, m.conj()), np.outer(r, r.conj()))
        assert np.allclose(choi_operator(m, r), oracle, atol=1e-12)


def test_stacked_choi_tensors_equal_one_element_at_a_time():
    rng = np.random.default_rng(52)
    measure = np.array([random_ket(rng, 1).amplitudes for _ in range(6)]).reshape(3, 2, 2)
    reprepare = np.array([random_ket(rng, 1).amplitudes for _ in range(6)]).reshape(3, 2, 2)
    stacked = procmat._choi_tensors(measure, reprepare)
    assert stacked.shape == (3, 2, 2, 2, 2, 2)
    for t in range(3):
        for e in range(2):
            one = choi_operator(measure[t, e], reprepare[t, e])
            assert np.array_equal(stacked[t, e].reshape(4, 4), one)


def test_conjugated_measure_ket_equals_negated_angle():
    """Transposing the Choi construction is the same as negating the angle."""
    phi = 1.1
    for m in (0, 1):
        conj = qlin.equatorial_ket(phi, m).amplitudes.conj()
        neg = qlin.equatorial_ket(-phi, m).amplitudes
        ket0 = KET0.amplitudes
        assert np.allclose(choi_operator(conj, ket0), choi_operator(neg, ket0), atol=1e-12)


@pytest.mark.parametrize("phi", [0.0, 0.8, np.pi, 4.4])
def test_alice_instrument_is_cptp(phi):
    identity_deviation, min_eigenvalue = cptp_check(procmat.alice_instrument(phi))
    assert identity_deviation < 1e-12
    assert min_eigenvalue > -1e-12


def test_bob_instrument_is_cptp():
    identity_deviation, min_eigenvalue = cptp_check(procmat.bob_instrument())
    assert identity_deviation <= 1e-10 and min_eigenvalue >= -1e-10


def test_cptp_check_flags_dropped_element():
    full = procmat.alice_instrument(0.3)
    half = procmat.InstrumentBlock(
        full.parties, full.measure[:, :, :1], full.reprepare[:, :, :1], full.describe
    )
    identity_deviation, _ = cptp_check(half)
    assert identity_deviation == pytest.approx(0.5, abs=1e-12)


def test_mbqc_kets_are_the_instruments_of_the_paper():
    """Alice measures |phi^m> and reprepares |m>; Bob reads out and reprepares |z>."""
    alice = procmat.alice_instrument(0.9)
    assert alice.parties == ("A",) and alice.measure.shape == (1, 1, 2, 2)
    assert alice.describe(0) == {"A": "equatorial(phi=0.900000)"}
    for m in (0, 1):
        assert np.array_equal(alice.measure[0, 0, m], qlin.equatorial_ket(0.9, m).amplitudes)
        assert np.array_equal(alice.reprepare[0, 0, m], qlin.basis_ket([m]).amplitudes)
    bob = procmat.bob_instrument()
    assert bob.parties == ("B",) and bob.describe(0) == {"B": "computational readout"}
    assert np.array_equal(bob.measure[0, 0], np.eye(2))
    assert np.array_equal(bob.reprepare[0, 0], np.eye(2))
    block = procmat.mbqc_kets(np.array([[0.9, 2.0], [0.1, 0.2]]), ("A1", "A2"), ("B1",))
    assert block.parties == ("A1", "A2", "B1")
    assert block.measure.shape == block.reprepare.shape == (2, 3, 2, 2)
    assert np.array_equal(block.measure[0, 0], alice.measure[0, 0])
    assert np.array_equal(block.reprepare[1, 0], alice.reprepare[0, 0])
    assert np.array_equal(block.measure[1, 1], procmat.alice_instrument(0.2).measure[0, 0])
    assert np.array_equal(block.measure[1, 2], bob.measure[0, 0])
    assert np.array_equal(block.reprepare[0, 2], bob.reprepare[0, 0])


@pytest.mark.parametrize(
    "measure, reprepare",
    [
        (np.zeros((1, 1, 0, 2)), np.zeros((1, 1, 0, 2))),
        (np.eye(2)[None, None], np.eye(2)[None, None, :1]),
        (np.eye(2)[None, None], np.ones((1, 1, 2))),
        (np.eye(2)[None, None], np.eye(2)[None]),
        (np.eye(3)[None, None], np.eye(3)[None, None]),
    ],
    ids=["no-element", "element-counts", "reprepare-rank", "no-party-axis", "not-a-qubit"],
)
def test_instrument_block_refuses_a_malformed_shape(measure, reprepare):
    """Every party holds one instrument of at least one element, each element
    a measure and a reprepare single-qubit ket."""
    with pytest.raises(ProcmatError, match=r"elements >= 1, 2\) shape"):
        procmat.InstrumentBlock(("A",), measure, reprepare, lambda t: {})


def test_instrument_block_refuses_a_ket_that_is_not_unit():
    with pytest.raises(qlin.QlinError, match="^reprepare ket norm deviates from 1"):
        procmat.InstrumentBlock(
            ("A",), np.eye(2)[None, None], np.eye(2)[None, None] * (1.0 + 1e-9), lambda t: {}
        )


def test_density_pm_reproduces_born_rule():
    """Measure-reprepare parties on 2^k rho (x) (I/2)^k recover <b|rho|b>
    for rho = |psi><psi|."""
    rng = np.random.default_rng(53)
    psi = random_ket(rng, 2)
    w = density_pm(psi)
    basis_a = random_single_qubit_basis(rng)
    basis_b = random_single_qubit_basis(rng)
    total = 0.0
    for ka in (0, 1):
        for kb in (0, 1):
            assignment = {
                "P1": (basis_a[ka].amplitudes, random_ket(rng, 1).amplitudes),
                "P2": (basis_b[kb].amplitudes, random_ket(rng, 1).amplitudes),
            }
            p = procmat.pm_probability(w, assignment)
            bra = np.kron(basis_a[ka].amplitudes, basis_b[kb].amplitudes)
            born = float(abs(np.vdot(bra, psi.amplitudes)) ** 2)
            assert p == pytest.approx(born, abs=1e-12)
            total += p
    assert total == pytest.approx(1.0, abs=1e-10)


def test_density_pm_normalizes_for_arbitrary_rank1_instruments():
    rng = np.random.default_rng(59)
    w = density_pm(random_ket(rng, 2))
    report = procmat.pm_validate(
        w, procmat.rank_one_instrument_family(["P1", "P2"]), 20, 1e-9, rng
    )
    assert report.passed
    assert report.max_deviation < 1e-9


def small_factored_pm(rng):
    """W = 2 |psi><psi|_{in} (x) (I/2)_{out} for one party."""
    psi = random_ket(rng, 1)
    return ProcessMatrix(["A"], pure=psi, scale=2.0), psi


def test_factorized_and_dense_backends_agree():
    rng = np.random.default_rng(61)
    w, psi = small_factored_pm(rng)
    basis = random_single_qubit_basis(rng)
    for k in (0, 1):
        element = (basis[k].amplitudes, random_ket(rng, 1).amplitudes)
        pf = procmat.pm_probability(w, {"A": element})
        pd = dense_tables(w, element[0][None, None, None], element[1][None, None, None]).item()
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
    element = (KET0.amplitudes, KET0.amplitudes)
    with pytest.raises(ProcmatError):
        procmat.pm_probability(w, {"B": element})
    with pytest.raises(ProcmatError):
        procmat.pm_probability(w, {"A": element, "B": element})
    with pytest.raises(ProcmatError, match="block kets must share"):
        procmat.pm_probability(w, {"A": (np.eye(2), KET0.amplitudes)})


@pytest.mark.parametrize(
    "parties, kwargs, message",
    [
        (["A", "A"], dict(pure=KET0, scale=1.0), "duplicate party names"),
        ([], dict(pure=KET0, scale=1.0), "at least one party"),
        (["A"], dict(pure=qlin.basis_ket([0] * 3), scale=1.0), "exceeds the 2-qubit"),
        (["A"], dict(pure=KET0, scale=0.0), "scale must be finite and positive"),
        (["A"], dict(pure=KET0, scale=float("nan")), "scale must be finite and positive"),
        (["A"], dict(pure=KET0, scale=float("inf")), "scale must be finite and positive"),
    ],
    ids=["duplicate", "no-party", "pure-too-large", "scale", "scale-nan", "scale-inf"],
)
def test_process_matrix_refuses_a_malformed_register(parties, kwargs, message):
    with pytest.raises(ProcmatError, match=message):
        ProcessMatrix(parties, **kwargs)


def test_instrument_errors_name_the_field_and_no_foreign_option():
    def block(measure, reprepare):
        return procmat.InstrumentBlock(("A",), measure[None, None], reprepare[None, None], None)

    with pytest.raises(qlin.QlinError) as info:
        block(np.eye(2) * 1.001, np.eye(2))
    assert str(info.value).startswith("measure ket norm deviates from 1")
    assert "require_normalized" not in str(info.value)
    with pytest.raises(qlin.QlinError, match="^reprepare ket amplitudes must be finite$"):
        block(np.eye(2), np.full((2, 2), np.nan))
    with pytest.raises(qlin.QlinError, match="pass require_normalized=False"):
        qlin.Ket([1.0, 1.0])
    kets = np.broadcast_to(np.eye(2) * 1.001, (1, 1, 2, 2))
    with pytest.raises(qlin.QlinError) as info:
        procmat.InstrumentBlock(("A",), kets, kets, lambda t: {})
    assert "require_normalized" not in str(info.value)


def test_clamp_counter_and_range_guard():
    before = procmat.clamped_probability_count()
    assert procmat._validated_table(-5e-11) == 0.0
    assert procmat.clamped_probability_count() == before + 1
    assert procmat._validated_table(0.3) == 0.3
    assert procmat.clamped_probability_count() == before + 1
    with pytest.raises(ProcmatError):
        procmat._validated_table(-2e-8)
    with pytest.raises(ProcmatError):
        procmat._validated_table(1.0 + 2e-8)


def test_pm_validate_worst_assignment_is_reported():
    rng = np.random.default_rng(79)
    w = density_pm(random_ket(rng, 1))
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


@pytest.mark.parametrize("kwargs", [{}, {"literal": True}], ids=["default", "factorized"])
def test_factorized_table_never_builds_a_choi_operator(monkeypatch, kwargs):
    r = acausal.build_resource_pm(graphstate.chain(4))

    def refuse(measure, reprepare):
        raise AssertionError("the factorized backend built Choi tensors")

    monkeypatch.setattr(procmat, "_choi_tensors", refuse)
    table = acausal.outcome_probabilities(r, 0.7, **kwargs)
    assert float(table.sum()) == pytest.approx(1.0, abs=1e-10)
