"""Dense complex linear algebra over ordered qubit registers.

Single ordering contract used by the whole package: qubit 0 is the most
significant bit of a basis-state label, so a register ``[q0, ..., q_{k-1}]``
stores the amplitude of basis state ``|b0 b1 ... b_{k-1}>`` at flat index
``b0*2**(k-1) + ... + b_{k-1}``.  Equivalently, reshaping a state vector to
``(2,)*k`` puts qubit ``i`` on axis ``i``.

All objects are immutable after construction (the backing arrays are frozen)
and therefore safe to share between threads.  Nothing in this module owns
random state; samplers take a ``numpy.random.Generator`` from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config


class QlinError(ValueError):
    """Violation of a register-algebra precondition."""


def _num_qubits_for(dim: int) -> int:
    k = int(dim).bit_length() - 1
    if dim <= 0 or 2**k != dim:
        raise QlinError(f"dimension {dim} is not a power of two")
    return k


def _frozen_array(data, shape, *, copy: bool = True) -> np.ndarray:
    """A read-only complex128 array of ``shape``: a copy of ``data``, or with
    ``copy=False`` ``data`` itself, frozen in place."""
    arr = np.array(data, dtype=np.complex128, copy=copy)
    arr.flags.writeable = False
    return arr.reshape(shape)


def check_unit_kets(vecs: np.ndarray, name: str = "ket", hint: str = "") -> None:
    """The tests a normalized ``Ket`` applies, run on one vector or on every
    vector along the last axis of a stack: finite amplitudes and
    |norm - 1| <= NORM_ATOL.  Errors name the vectors ``name``; ``hint``
    ends the norm error."""
    if not np.all(np.isfinite(vecs)):
        raise QlinError(f"{name} amplitudes must be finite")
    if vecs.ndim == 1:  # one vector takes numpy's fast whole-array norm
        worst = abs(float(np.linalg.norm(vecs)) - 1.0)
    else:
        worst = float(np.max(np.abs(np.linalg.norm(vecs, axis=-1) - 1.0), initial=0.0))
    if worst > config.NORM_ATOL:
        raise QlinError(
            f"{name} norm deviates from 1 by {worst!r}, more than {config.NORM_ATOL}{hint}"
        )


class Ket:
    """Pure state vector on an ordered qubit register.

    Parameters
    ----------
    amplitudes : array_like
        Complex amplitudes of length ``2**k``.
    require_normalized : bool, optional
        When True (default) the norm must equal 1 within ``config.NORM_ATOL``.
        Unnormalized construction must be requested explicitly.
    """

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes, *, require_normalized: bool = True):
        vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        k = _num_qubits_for(vec.size)
        if require_normalized:
            check_unit_kets(vec, hint="; pass require_normalized=False for raw vectors")
        elif not np.all(np.isfinite(vec)):
            raise QlinError("ket amplitudes must be finite")
        self.amplitudes = _frozen_array(vec, vec.shape)
        self.num_qubits = k

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def as_tensor(self) -> np.ndarray:
        """Read-only view shaped ``(2,)*num_qubits`` with qubit i on axis i."""
        return self.amplitudes.reshape((2,) * self.num_qubits)

    def __repr__(self) -> str:
        return f"Ket(num_qubits={self.num_qubits})"


# largest and smallest side of the square tiles over which ``_hermitian_defect``
# compares M with M^dag
_HERMITIAN_TILE = 128
_HERMITIAN_MIN_TILE = 16


def _hermitian_defect(mat: np.ndarray) -> float:
    """max |M - M^dag| over a square matrix M, one pair of mirrored tiles at a time.

    Each tile on or above the diagonal is compared with its mirror tile, so
    each pair of tiles is read once and no full-size transpose or difference
    is allocated; |M_ij - conj(M_ji)| equals |M_ji - conj(M_ij)| exactly, so
    those tiles give the same maximum as the whole matrix.  A tile side of
    about n/8 keeps the temporaries of one pair near 1/16 of M, so checking
    an operator adds little to holding it.
    """
    n = mat.shape[0]
    t = max(_HERMITIAN_MIN_TILE, min(_HERMITIAN_TILE, n // 8))
    defect = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            tile = mat[i:i + t, j:j + t]
            mirrored = mat[j:j + t, i:i + t]
            defect = max(defect, float(np.max(np.abs(tile - mirrored.conj().T))))
    return defect


class HermOp:
    """Hermitian operator on an ordered qubit register, stored dense:
    ``||M - M^dag||_max <= config.HERMITIAN_ATOL`` is enforced.

    The operator keeps a frozen copy of ``entries``.  Package code that has
    just built a complex128 array nobody else holds passes ``_owned=True``:
    the same checks run, and that array itself is frozen and kept, so a
    large operator is never held twice.
    """

    __slots__ = ("entries", "num_qubits")

    def __init__(self, entries, *, _owned: bool = False):
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QlinError(f"operator must be square, got shape {mat.shape}")
        k = _num_qubits_for(mat.shape[0])
        if not np.all(np.isfinite(mat)):
            raise QlinError("operator entries must be finite")
        defect = _hermitian_defect(mat)
        if defect > config.HERMITIAN_ATOL:
            raise QlinError(
                f"operator is not Hermitian within {config.HERMITIAN_ATOL} (defect {defect:.3e})"
            )
        self.entries = _frozen_array(mat, mat.shape, copy=not _owned)
        self.num_qubits = k

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def as_tensor(self) -> np.ndarray:
        """Read-only view shaped ``(2,)*2k``: row axes first, then column axes."""
        return self.entries.reshape((2,) * (2 * self.num_qubits))

    def __repr__(self) -> str:
        return f"HermOp(num_qubits={self.num_qubits})"


# ---------------------------------------------------------------------------
# constructors

def basis_ket(bits: Sequence[int]) -> Ket:
    """Computational basis state |b0 b1 ... b_{k-1}>."""
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits) or not bits:
        raise QlinError(f"bits must be a nonempty 0/1 sequence, got {bits}")
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    vec = np.zeros(2 ** len(bits), dtype=np.complex128)
    vec[idx] = 1.0
    return Ket(vec)


def equatorial_kets(phis) -> np.ndarray:
    """Amplitudes of |phi^m> = (|0> + (-1)^m e^{i phi} |1>) / sqrt(2) for an
    array of angles, shaped ``phis.shape + (2, 2)``: outcome m, then amplitude."""
    phase = np.exp(1j * np.asarray(phis, dtype=float))
    kets = np.empty(phase.shape + (2, 2), dtype=np.complex128)
    kets[..., 0] = 1.0
    kets[..., 0, 1] = phase
    kets[..., 1, 1] = -phase
    return kets / np.sqrt(2.0)


def equatorial_ket(phi: float, outcome: int = 0) -> Ket:
    """|phi^m> = (|0> + (-1)^m e^{i phi} |1>) / sqrt(2)."""
    if outcome not in (0, 1):
        raise QlinError(f"outcome must be 0 or 1, got {outcome}")
    return Ket(equatorial_kets(float(phi))[outcome])


# ---------------------------------------------------------------------------
# register operations

def kron_all(factors: Sequence[Ket] | Sequence[HermOp]):
    """Tensor product of kets (or of operators), first factor most significant.

    Parameters
    ----------
    factors : sequence of Ket or sequence of HermOp
        Nonempty and homogeneous in type.

    Returns
    -------
    Ket or HermOp
    """
    factors = list(factors)
    if not factors:
        raise QlinError("kron_all needs at least one factor")
    if all(isinstance(f, Ket) for f in factors):
        vec = factors[0].amplitudes
        for f in factors[1:]:
            vec = np.kron(vec, f.amplitudes)
        return Ket(vec, require_normalized=False)
    if all(isinstance(f, HermOp) for f in factors):
        mat = factors[0].entries
        for f in factors[1:]:
            mat = np.kron(mat, f.entries)
        return HermOp(mat)
    raise QlinError("kron_all factors must be all Ket or all HermOp")


def _check_perm(perm: Sequence[int], k: int) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise QlinError(f"perm must be a permutation of range({k}), got {perm}")
    return perm


def permute_qubits(obj, perm: Sequence[int]):
    """Relabel register positions: input qubit ``i`` moves to position ``perm[i]``.

    Round-trips exactly with the inverse permutation.  Works on Ket and HermOp.
    """
    if isinstance(obj, Ket):
        k = obj.num_qubits
        perm = _check_perm(perm, k)
        arr = np.moveaxis(obj.as_tensor(), range(k), perm)
        return Ket(arr.reshape(-1), require_normalized=False)
    if isinstance(obj, HermOp):
        k = obj.num_qubits
        perm = _check_perm(perm, k)
        src = list(range(2 * k))
        dst = list(perm) + [k + p for p in perm]
        arr = np.moveaxis(obj.as_tensor(), src, dst)
        return HermOp(arr.reshape(2**k, 2**k))
    raise QlinError(f"cannot permute {type(obj).__name__}")


def apply_on_qubits(op: np.ndarray, targets: Sequence[int], state: Ket) -> Ket:
    """Apply a j-qubit matrix to the listed register positions of a state.

    Parameters
    ----------
    op : array_like
        (2^j, 2^j) matrix on j = ``len(targets)`` qubits; need not be Hermitian.
    targets : sequence of int
        Distinct register positions; ``targets[i]`` receives op qubit ``i``.
    state : Ket

    Returns
    -------
    Ket
        The transformed vector; not renormalized, so non-unitary maps are fine.
    """
    k = state.num_qubits
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise QlinError(f"targets must be distinct, got {targets}")
    if any(t < 0 or t >= k for t in targets):
        raise QlinError(f"targets {targets} out of range for {k} qubits")
    j = len(targets)
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2**j, 2**j):
        raise QlinError(f"operator of shape {op.shape} does not act on {j} targets")
    op_t = op.reshape((2,) * (2 * j))
    arr = np.tensordot(op_t, state.as_tensor(), axes=(list(range(j, 2 * j)), targets))
    # tensordot left the op's row axes in front; put them back at the targets
    arr = np.moveaxis(arr, range(j), targets)
    return Ket(arr.reshape(-1), require_normalized=False)


def min_eigenvalue(op: HermOp) -> float:
    """Smallest eigenvalue of a Hermitian operator."""
    return float(np.linalg.eigvalsh(op.entries)[0])


def overlap(bra: Ket, ket: Ket) -> complex:
    """<bra|ket> for equal-size registers."""
    if bra.num_qubits != ket.num_qubits:
        raise QlinError("overlap needs equal register sizes")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def fidelity(a: Ket, b: Ket) -> float:
    """|<a|b>|^2 for unit kets."""
    return float(abs(overlap(a, b)) ** 2)


# ---------------------------------------------------------------------------
# projective measurement

@dataclass(frozen=True)
class MeasureResult:
    """One projective single-qubit measurement: outcome bit, post-state, branch weight."""

    outcome: int
    state: Ket
    probability: float


def _branch(state: Ket, basis_ket_: Ket, target: int) -> np.ndarray:
    return np.tensordot(basis_ket_.amplitudes.conj(), state.as_tensor(), axes=(0, target))


def sample_projective(
    state: Ket,
    basis: tuple[Ket, Ket],
    target: int,
    rng: np.random.Generator | None = None,
    *,
    force: int | None = None,
) -> MeasureResult:
    """Measure one qubit in a two-element orthonormal basis and contract it away.

    Parameters
    ----------
    state : Ket
        Unit ket on k qubits.
    basis : (Ket, Ket)
        Single-qubit kets for outcomes 0 and 1; orthonormal within
        ``config.BASIS_ORTHO_ATOL``.
    target : int
        Register position to measure; remaining qubits keep relative order.
    rng : numpy.random.Generator, optional
        Required unless ``force`` is given; owns all randomness.
    force : int, optional
        Postselect this outcome instead of sampling.  Forcing a branch with
        probability below ``config.MIN_FORCE_PROBABILITY`` is an error.

    Returns
    -------
    MeasureResult
        ``probability`` is the Born weight of the realized branch and the
        returned state is renormalized on the remaining k-1 qubits.
    """
    b0, b1 = basis
    if b0.num_qubits != 1 or b1.num_qubits != 1:
        raise QlinError("measurement basis kets must be single-qubit")
    tol = config.BASIS_ORTHO_ATOL
    if abs(b0.norm() - 1) > tol or abs(b1.norm() - 1) > tol or abs(overlap(b0, b1)) > tol:
        raise QlinError("measurement basis is not orthonormal within tolerance")
    if target < 0 or target >= state.num_qubits:
        raise QlinError(f"target {target} out of range for {state.num_qubits} qubits")

    branches = [_branch(state, b0, target), _branch(state, b1, target)]
    probs = [float(np.sum(np.abs(a) ** 2)) for a in branches]

    if force is not None:
        if force not in (0, 1):
            raise QlinError(f"forced outcome must be 0 or 1, got {force}")
        outcome = int(force)
        if probs[outcome] < config.MIN_FORCE_PROBABILITY:
            raise QlinError(
                f"cannot force outcome {outcome}: branch probability "
                f"{probs[outcome]:.3e} below {config.MIN_FORCE_PROBABILITY}"
            )
    else:
        if rng is None:
            raise QlinError("rng is required when no outcome is forced")
        outcome = 0 if rng.random() < probs[0] else 1

    post = branches[outcome].reshape(-1) / np.sqrt(probs[outcome])
    return MeasureResult(outcome=outcome, state=Ket(post), probability=probs[outcome])

