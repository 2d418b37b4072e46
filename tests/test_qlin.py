"""Register linear algebra, checked against raw numpy constructions."""

import numpy as np
import pytest

from acausal_mbqc import qlin
from acausal_mbqc.qlin import HermOp, Ket, QlinError
from pm_reference import random_density, random_ket, random_single_qubit_basis


def test_basis_ket_index_convention():
    # qubit 0 is the most significant bit of the flat index
    k = qlin.basis_ket([1, 0, 1])
    assert k.num_qubits == 3
    assert k.amplitudes[0b101] == 1.0
    assert np.sum(np.abs(k.amplitudes)) == 1.0


def test_equatorial_ket_components():
    phi = 0.7
    k0 = qlin.equatorial_ket(phi, 0)
    k1 = qlin.equatorial_ket(phi, 1)
    s = 1 / np.sqrt(2)
    assert np.allclose(k0.amplitudes, [s, s * np.exp(1j * phi)])
    assert np.allclose(k1.amplitudes, [s, -s * np.exp(1j * phi)])
    assert abs(qlin.overlap(k0, k1)) < 1e-12


def test_ket_normalization_enforced():
    with pytest.raises(QlinError):
        Ket([1.0, 1.0])
    raw = Ket([1.0, 1.0], require_normalized=False)
    assert raw.norm() == pytest.approx(np.sqrt(2.0))


def test_ket_arrays_frozen():
    k = qlin.basis_ket([0])
    with pytest.raises(ValueError):
        k.amplitudes[0] = 5.0


def test_hermop_copies_caller_data_and_freezes_owned_data():
    data = np.eye(4, dtype=np.complex128)
    op = HermOp(data)
    assert not np.shares_memory(op.entries, data)
    data[0, 0] = 5.0
    assert op.entries[0, 0] == 1.0
    owned = np.eye(4, dtype=np.complex128)
    op = HermOp(owned, _owned=True)
    assert np.shares_memory(op.entries, owned)
    assert not op.entries.flags.writeable and not owned.flags.writeable
    # a non-Hermitian matrix is refused, owned or not
    with pytest.raises(QlinError, match="not Hermitian"):
        HermOp([[0, 1], [0, 0]])
    with pytest.raises(QlinError, match="not Hermitian"):
        HermOp(np.array([[0, 1], [0, 0]], dtype=np.complex128), _owned=True)
    with pytest.raises(QlinError, match="finite"):
        HermOp(np.full((2, 2), np.nan, dtype=np.complex128), _owned=True)


T = qlin._HERMITIAN_TILE


@pytest.mark.parametrize("dim", [1, 2, 3, T - 1, T, T + 1, 2 * T + 3, 3 * T, 2**9])
def test_tiled_hermitian_defect_equals_one_shot(dim):
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    near = m + m.conj().T + 1e-12 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    for mat in (m, near):
        assert qlin._hermitian_defect(mat) == float(np.max(np.abs(mat - mat.conj().T)))


def test_hermop_rejects_a_defect_in_the_corner_tile():
    """The only asymmetric pair, (0, n-1) against (n-1, 0), lies in an off-diagonal tile."""
    n = 2**9
    m = np.eye(n, dtype=np.complex128)
    m[0, n - 1] = 1e-6
    with pytest.raises(QlinError, match=r"defect 1\.000e-06"):
        HermOp(m)
    m[n - 1, 0] = 1e-6
    HermOp(m)


def test_kron_all_matches_numpy():
    rng = np.random.default_rng(3)
    a, b = random_ket(rng, 1), random_ket(rng, 2)
    joint = qlin.kron_all([a, b])
    assert np.allclose(joint.amplitudes, np.kron(a.amplitudes, b.amplitudes))
    ops = [HermOp(np.diag([1.0, -1.0])), HermOp(np.eye(2))]
    joint_op = qlin.kron_all(ops)
    assert np.allclose(joint_op.entries, np.kron(ops[0].entries, ops[1].entries))


def test_kron_all_rejects_mixed_types():
    with pytest.raises(QlinError):
        qlin.kron_all([qlin.KET0, HermOp(np.eye(2))])


def test_permute_qubits_roundtrip_and_oracle():
    rng = np.random.default_rng(5)
    k = random_ket(rng, 3)
    # perm[i] = new position of qubit i; oracle by explicit bit shuffling
    perm = (2, 0, 1)
    moved = qlin.permute_qubits(k, perm)
    expect = np.zeros(8, dtype=complex)
    for idx in range(8):
        bits = [(idx >> (2 - i)) & 1 for i in range(3)]
        new_bits = [0, 0, 0]
        for i, p in enumerate(perm):
            new_bits[p] = bits[i]
        new_idx = (new_bits[0] << 2) | (new_bits[1] << 1) | new_bits[2]
        expect[new_idx] = k.amplitudes[idx]
    assert np.allclose(moved.amplitudes, expect)
    back = qlin.permute_qubits(moved, (1, 2, 0))
    assert np.allclose(back.amplitudes, k.amplitudes)


def test_apply_on_qubits_matches_kron_oracle():
    rng = np.random.default_rng(7)
    state = random_ket(rng, 3)
    # single-qubit op on middle qubit
    got = qlin.apply_on_qubits(qlin.PAULI_X.entries, [1], state)
    big = np.kron(np.kron(np.eye(2), qlin.PAULI_X.entries), np.eye(2))
    assert np.allclose(got.amplitudes, big @ state.amplitudes)
    # two-qubit op on (2, 0): build the oracle by permuting targets to front
    u = qlin.CZ.entries
    got2 = qlin.apply_on_qubits(u, [2, 0], state)
    # oracle: permute qubits (2, 0, 1) -> positions (targets first), apply, undo
    front = qlin.permute_qubits(state, (1, 2, 0))
    acted = Ket(
        np.kron(u, np.eye(2)) @ front.amplitudes, require_normalized=False
    )
    undone = qlin.permute_qubits(acted, (2, 0, 1))
    assert np.allclose(got2.amplitudes, undone.amplitudes)
    with pytest.raises(QlinError, match=r"shape \(2, 2\) does not act on 2 targets"):
        qlin.apply_on_qubits(qlin.PAULI_X.entries, [0, 1], state)


def test_apply_cz_symmetric():
    rng = np.random.default_rng(11)
    state = random_ket(rng, 2)
    a = qlin.apply_on_qubits(qlin.CZ.entries, [0, 1], state)
    b = qlin.apply_on_qubits(qlin.CZ.entries, [1, 0], state)
    assert np.allclose(a.amplitudes, b.amplitudes)


def test_partial_trace_oracle():
    rng = np.random.default_rng(13)
    rho_a = random_density(rng, 1)
    rho_b = random_density(rng, 2)
    joint = HermOp(np.kron(rho_a.entries, rho_b.entries))
    keep_a = qlin.partial_trace(joint, [1, 2])
    keep_b = qlin.partial_trace(joint, [0])
    assert np.allclose(keep_a.entries, rho_a.entries)
    assert np.allclose(keep_b.entries, rho_b.entries)
    assert qlin.partial_trace(joint, []).entries == pytest.approx(joint.entries)


def test_min_eigenvalue_matches_numpy():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 2)
    assert qlin.min_eigenvalue(rho) == pytest.approx(
        float(np.linalg.eigvalsh(rho.entries)[0])
    )


def test_fidelity():
    minus = qlin.equatorial_ket(0.0, 1)
    assert qlin.fidelity(qlin.PLUS, minus) == pytest.approx(0.0, abs=1e-12)
    assert qlin.fidelity(qlin.PLUS, qlin.PLUS) == pytest.approx(1.0)


@pytest.mark.parametrize("target", [0, 1, 2])
def test_sample_projective_forced_branches(target):
    rng = np.random.default_rng(19)
    state = random_ket(rng, 3)
    r0 = qlin.sample_projective(state, qlin.COMPUTATIONAL_BASIS, target, force=0)
    r1 = qlin.sample_projective(state, qlin.COMPUTATIONAL_BASIS, target, force=1)
    assert r0.probability + r1.probability == pytest.approx(1.0)
    assert r0.state.num_qubits == 2
    # oracle: marginal of |amplitudes|^2 over the target bit
    probs = np.abs(state.amplitudes.reshape((2,) * 3)) ** 2
    marg = probs.sum(axis=tuple(i for i in range(3) if i != target))
    assert r0.probability == pytest.approx(float(marg[0]))


def test_sample_projective_statistics_seeded():
    rng = np.random.default_rng(23)
    state = Ket(np.array([np.sqrt(0.8), np.sqrt(0.2)]))
    outcomes = [
        qlin.sample_projective(state, qlin.COMPUTATIONAL_BASIS, 0, rng).outcome
        for _ in range(4000)
    ]
    assert np.mean(outcomes) == pytest.approx(0.2, abs=0.03)


def test_sample_projective_last_qubit_gives_scalar_ket():
    res = qlin.sample_projective(qlin.PLUS, qlin.COMPUTATIONAL_BASIS, 0, force=1)
    assert res.state.num_qubits == 0
    assert res.probability == pytest.approx(0.5)


def test_sample_projective_force_zero_branch_errors():
    with pytest.raises(QlinError):
        qlin.sample_projective(qlin.KET0, qlin.COMPUTATIONAL_BASIS, 0, force=1)


def test_sample_projective_rejects_sloppy_basis():
    skew = (qlin.KET0, qlin.equatorial_ket(0.3, 0))
    with pytest.raises(QlinError):
        qlin.sample_projective(qlin.PLUS, skew, 0, force=0)


def test_random_single_qubit_basis_orthonormal():
    rng = np.random.default_rng(29)
    for _ in range(25):
        b0, b1 = random_single_qubit_basis(rng)
        assert b0.norm() == pytest.approx(1.0)
        assert b1.norm() == pytest.approx(1.0)
        assert abs(qlin.overlap(b0, b1)) < 1e-10
