"""Process matrices and local instruments in the Choi representation.

Every party's local operation is a measure-and-reprepare instrument: element
``a`` maps rho -> |r_a><phi_a| rho |phi_a><r_a|, and a ``CJOperator`` stores
just those two single-qubit kets.  Its Choi-Jamiolkowski (CJ) operator
sum_{k,l} |k><l| (x) M(|l><k|), which evaluates exactly to
|phi><phi| (x) |r><r|, is built on demand by ``CJOperator.op``; CJ registers
are ordered input qubit first, then output qubit.

A process matrix W assigns each party one input and one output qubit of a
global register; probabilities are P = Tr[W (Pi_a (x) Pi_b ...)].
``outcome_table`` computes them for every element of every party's
instrument at once, as one contraction sweep over the parties.  Its two
backends are kept deliberately independent: a dense trace of the
materialized W against each element's ``op`` (the oracle), and a factorized
overlap of each element's kets with W of the form
scale * |pure><pure| (x) (I/2)^k.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import config, qlin
from .qlin import HermOp, Ket


class ProcmatError(ValueError):
    """Violation of a process-matrix or instrument precondition."""


TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# CJ operators and instruments

@dataclass(frozen=True)
class CJOperator:
    """One rank-1 instrument element rho -> |r><phi| rho |phi><r|.

    The element is its two single-qubit kets, ``measure_ket`` (phi) and
    ``reprepare_ket`` (r).  The factorized backend reads the kets; the dense
    oracle reads ``op``, which builds the Choi operator from its definition.
    """

    measure_ket: Ket
    reprepare_ket: Ket

    def __post_init__(self):
        for name, ket in (("measure_ket", self.measure_ket), ("reprepare_ket", self.reprepare_ket)):
            if ket.num_qubits != 1:
                raise ProcmatError(f"{name} must be single-qubit")

    @property
    def op(self) -> HermOp:
        """Choi operator on (input, output) via the literal double sum."""
        phi = self.measure_ket.amplitudes
        rr = np.outer(self.reprepare_ket.amplitudes, self.reprepare_ket.amplitudes.conj())
        op = np.zeros((4, 4), dtype=np.complex128)
        for k in range(2):
            for l in range(2):
                ketbra = np.zeros((2, 2), dtype=np.complex128)
                ketbra[k, l] = 1.0
                # M(|l><k|) = <phi|l><k|phi> |r><r|
                op += np.kron(ketbra, (phi.conj()[l] * phi[k]) * rr)
        return HermOp(op)


@dataclass(frozen=True)
class Instrument:
    """All outcome elements of one party's local operation."""

    elements: tuple[CJOperator, ...]
    description: str = ""

    def __post_init__(self):
        if not self.elements:
            raise ProcmatError("instrument needs at least one element")


def alice_instrument(phi: float) -> Instrument:
    """Equatorial measurement at angle phi, reprepared as the outcome bit."""
    return Instrument(
        elements=tuple(
            CJOperator(qlin.equatorial_ket(phi, m), qlin.basis_ket([m])) for m in (0, 1)
        ),
        description=f"equatorial(phi={float(phi):.6f})",
    )


def bob_instrument() -> Instrument:
    """Computational-basis readout, reprepared as the outcome bit."""
    return Instrument(
        elements=tuple(
            CJOperator(qlin.basis_ket([z]), qlin.basis_ket([z])) for z in (0, 1)
        ),
        description="computational readout",
    )


def instrument_from_kets(
    measure_kets: Sequence[Ket], reprepare_kets: Sequence[Ket], description: str = ""
) -> Instrument:
    """Rank-1 instrument from per-outcome measure and reprepare kets."""
    if len(measure_kets) != len(reprepare_kets):
        raise ProcmatError("need one reprepare ket per measure ket")
    elems = tuple(CJOperator(mk, rk) for mk, rk in zip(measure_kets, reprepare_kets))
    return Instrument(elements=elems, description=description)


@dataclass(frozen=True)
class CptpReport:
    """Trace-preservation defect and positivity floor of a summed instrument."""

    identity_deviation: float
    min_eigenvalue: float

    def passes(self, tol: float = 1e-10) -> bool:
        return self.identity_deviation <= tol and self.min_eigenvalue >= -tol


def cptp_check(inst: Instrument) -> CptpReport:
    """CPTP iff the summed CJ operator is PSD and traces out to the identity."""
    total = HermOp(sum(e.op.entries for e in inst.elements))
    reduced = qlin.partial_trace(total, [1])  # trace out the output qubit
    dev = float(np.max(np.abs(reduced.entries - np.eye(2))))
    return CptpReport(identity_deviation=dev, min_eigenvalue=qlin.min_eigenvalue(total))


# ---------------------------------------------------------------------------
# process matrices

@dataclass(frozen=True)
class Slot:
    """One party's input/output qubit positions in the global register."""

    party: str
    input_qubit: int
    output_qubit: int


@dataclass(frozen=True)
class PureMixedFactor:
    """W = scale * |pure><pure| on ``pure_qubits`` (x) I/2 on each ``mixed_qubit``."""

    pure: Ket
    pure_qubits: tuple[int, ...]
    mixed_qubits: tuple[int, ...]
    scale: float


class ProcessMatrix:
    """Process matrix over single-qubit-in/single-qubit-out party slots.

    Holds a dense operator, a pure (x) maximally-mixed factorization, or both;
    the factorization enables large instances and the independent fast backend.
    """

    def __init__(
        self,
        slots: Sequence[Slot],
        op: HermOp | None = None,
        factor: PureMixedFactor | None = None,
    ):
        slots = tuple(slots)
        if not slots:
            raise ProcmatError("process matrix needs at least one slot")
        if op is None and factor is None:
            raise ProcmatError("process matrix needs a dense operator or a factorization")
        parties = [s.party for s in slots]
        if len(set(parties)) != len(parties):
            raise ProcmatError(f"duplicate party names: {parties}")
        claimed = [q for s in slots for q in (s.input_qubit, s.output_qubit)]
        if sorted(claimed) != list(range(2 * len(slots))):
            raise ProcmatError(
                f"slot qubits must partition range({2 * len(slots)}), got {sorted(claimed)}"
            )
        if op is not None and op.num_qubits != 2 * len(slots):
            raise ProcmatError(
                f"dense operator on {op.num_qubits} qubits does not match {len(slots)} slots"
            )
        if factor is not None:
            both = sorted(factor.pure_qubits + factor.mixed_qubits)
            if both != list(range(2 * len(slots))):
                raise ProcmatError("factor qubits must partition the register")
            if factor.pure.num_qubits != len(factor.pure_qubits):
                raise ProcmatError("factor pure ket size disagrees with its qubit list")
            if factor.scale <= 0:
                raise ProcmatError("factor scale must be positive")
        self.slots = slots
        self.factor = factor
        self._op = op
        self.cap: int | None = None  # register cap set by the builder; None reads env/default

    @property
    def num_qubits(self) -> int:
        return 2 * len(self.slots)

    @property
    def parties(self) -> tuple[str, ...]:
        return tuple(s.party for s in self.slots)

    def dense(self) -> HermOp:
        """Materialize the dense operator (cached); capped by ``self.cap`` and the operator cap."""
        if self._op is None:
            f = self.factor
            k = self.num_qubits
            limit = min(config.qubit_cap(self.cap), config.DENSE_OPERATOR_CAP)
            if k > limit:
                raise config.RegisterCapError(
                    f"dense process matrix needs {k} qubits, above the operator cap {limit}"
                )
            p = len(f.pure_qubits)
            amp = f.pure.as_tensor()
            # |pure><pure| as the broadcast product of a column and a conjugated row
            self._op = _embed(
                (amp.reshape(amp.shape + (1,) * p), amp.conj().reshape((1,) * p + amp.shape)),
                f.pure_qubits,
                f.mixed_qubits,
                f.scale * 0.5 ** len(f.mixed_qubits),
            )
        return self._op

    def trace(self) -> float:
        if self.factor is not None:
            return float(self.factor.scale * np.sum(np.abs(self.factor.pure.amplitudes) ** 2))
        return float(self._op.trace().real)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, the positivity floor of W.

        A factored W = scale |pure><pure| (x) (I/2)^k on p pure qubits has the
        exact spectrum scale 2^-k ||pure||^2 (multiplicity 2^k) and 0
        (multiplicity (2^p - 1) 2^k), so its floor is exactly 0.0 when p >= 1
        and scale 2^-k ||pure||^2 when the pure register has dimension 1; no
        operator is built.  A dense-only W is diagonalized.
        """
        if self.factor is not None:
            if self.factor.pure_qubits:
                return 0.0
            return self.trace() * 0.5 ** len(self.factor.mixed_qubits)
        return qlin.min_eigenvalue(self._op)


def _embed(
    factors: Sequence[np.ndarray],
    block_qubits: Sequence[int],
    identity_qubits: Sequence[int],
    coeff: float,
) -> HermOp:
    """coeff * B (x) I as one HermOp in register order.

    B, the broadcast product of ``factors`` (each shaped (2,)*2p or
    broadcastable to it: row axes first, then column axes), acts on
    ``block_qubits``; I acts on ``identity_qubits``.  B is computed
    contiguously, then written into one zeroed (2,)*2k array through the view
    that einsum gives of its diagonal over the identity qubits, so no kron or
    permutation copy of the full operator is made.
    """
    block_qubits = list(block_qubits)
    identity_qubits = list(identity_qubits)
    k = len(block_qubits) + len(identity_qubits)
    block = factors[0]
    for factor in factors[1:]:
        block = block * factor
    # coeff after the product: since its 2^-n part is exact, every entry has
    # the value of scale * (|pure><pure| (x) (I/2)^n) taken factor by factor
    block = block * coeff
    out = np.zeros((2,) * (2 * k), dtype=np.complex128)
    # einsum labels: row axis q is q and column axis q is k + q, except that an
    # identity qubit's column shares its row label, which selects the diagonal
    cols = [q if q in identity_qubits else k + q for q in range(k)]
    view = np.einsum(
        out, list(range(k)) + cols, block_qubits + [k + q for q in block_qubits] + identity_qubits
    )
    view[...] = block[(...,) + (None,) * len(identity_qubits)]
    del block, view  # free the block before HermOp copies the operator
    return HermOp(out.reshape(2**k, 2**k))


# ---------------------------------------------------------------------------
# probabilities

_clamp_lock = threading.Lock()
_clamp_count = 0


def clamped_probability_count() -> int:
    """How many tiny-negative probabilities were clamped to zero so far."""
    with _clamp_lock:
        return _clamp_count


def reset_clamped_probability_count() -> None:
    global _clamp_count
    with _clamp_lock:
        _clamp_count = 0


def _validated_table(values: np.ndarray) -> np.ndarray:
    """Range-check a probability table; entries in [-slack, 0) are clamped to
    zero and counted once each, anything outside [-slack, 1 + slack] errors."""
    global _clamp_count
    lo = -config.PROBABILITY_RANGE_SLACK
    hi = 1.0 + config.PROBABILITY_RANGE_SLACK
    values = np.asarray(values, dtype=float)
    bad = ~((values >= lo) & (values <= hi))
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ProcmatError(
            f"probability {float(values[at])!r} at outcome {at} outside [{lo}, {hi}]"
        )
    negative = values < 0.0
    clamped = int(negative.sum())
    if clamped:
        with _clamp_lock:
            _clamp_count += clamped
        values = np.where(negative, 0.0, values)
    return values


def outcome_table(
    w: ProcessMatrix, instruments: Mapping[str, Instrument], backend: str = "auto"
) -> np.ndarray:
    """P[e_0, ..., e_{k-1}] = Tr[W (x)_slots CJ], every element of every instrument.

    The table has one axis per slot of ``w``, in slot order, with one entry
    per element of that party's instrument.

    backend: "dense" (trace against the materialized operator), "factorized"
    (overlap against the pure (x) mixed form; needs a factored ``w``), or
    "auto" (factorized when ``w`` is factored, dense otherwise).
    """
    if set(instruments) != set(w.parties):
        raise ProcmatError(
            f"instrument parties {sorted(instruments)} do not match {sorted(w.parties)}"
        )
    if backend == "auto":
        backend = "factorized" if w.factor is not None else "dense"
    if backend == "factorized":
        return _validated_table(_factorized_probability(w, instruments))
    if backend == "dense":
        return _validated_table(_dense_probability(w, instruments))
    raise ProcmatError(f"unknown backend {backend!r}")


def pm_probability(
    w: ProcessMatrix, assignment: Mapping[str, CJOperator], backend: str = "auto"
) -> float:
    """P = Tr[W (x)_parties CJ], one CJ element per party (see ``outcome_table``)."""
    instruments = {party: Instrument(elements=(cj,)) for party, cj in assignment.items()}
    return float(outcome_table(w, instruments, backend).reshape(-1)[0])


def _factorized_probability(
    w: ProcessMatrix, instruments: Mapping[str, Instrument]
) -> np.ndarray:
    """Factorized backend of ``outcome_table``: contract the pure factor with
    each party's stacked conjugate measure and reprepare kets in turn."""
    f = w.factor
    if f is None:
        raise ProcmatError("factorized backend needs a factored process matrix")
    amp = f.pure.as_tensor()
    # axis label per axis of amp: a register qubit, or None for an element axis
    labels: list[int | None] = list(f.pure_qubits)
    for slot in w.slots:
        elements = instruments[slot.party].elements
        # <u| on the slot's pure qubits, one row per element; a mixed qubit
        # contributes <k|I/2|k> = 1/2 for its unit ket, counted below
        bra = np.ones(len(elements), dtype=np.complex128)
        axes = []
        for qubit, kets in (
            (slot.input_qubit, [cj.measure_ket for cj in elements]),
            (slot.output_qubit, [cj.reprepare_ket for cj in elements]),
        ):
            if qubit in labels:
                rows = np.stack([ket.amplitudes for ket in kets]).conj()
                bra = np.einsum("e...,ef->e...f", bra, rows)
                axes.append(labels.index(qubit))
        amp = np.tensordot(amp, bra, axes=(axes, list(range(1, bra.ndim))))
        labels = [q for i, q in enumerate(labels) if i not in axes] + [None]
    return f.scale * 0.5 ** len(f.mixed_qubits) * np.abs(amp) ** 2


def _dense_probability(
    w: ProcessMatrix, instruments: Mapping[str, Instrument]
) -> np.ndarray:
    """Dense backend of ``outcome_table`` and the independent oracle: trace W
    against each party's stacked CJ tensors [e, r_in, r_out, c_in, c_out]."""
    op = w.dense()
    k = w.num_qubits
    table = op.as_tensor()
    # axis label per axis of table: (row/col, register qubit), or None for an element axis
    labels: list[tuple[str, int] | None] = [("r", q) for q in range(k)]
    labels += [("c", q) for q in range(k)]
    for slot in w.slots:
        cj = np.stack([e.op.as_tensor() for e in instruments[slot.party].elements])
        # Tr[W X] pairs W's column indices with X's row indices and vice versa
        axes = [
            labels.index(("c", slot.input_qubit)),
            labels.index(("c", slot.output_qubit)),
            labels.index(("r", slot.input_qubit)),
            labels.index(("r", slot.output_qubit)),
        ]
        table = np.tensordot(table, cj, axes=(axes, [1, 2, 3, 4]))
        labels = [lab for i, lab in enumerate(labels) if i not in axes] + [None]
    worst_imag = float(np.max(np.abs(table.imag)))
    if worst_imag > 1e-10:
        raise ProcmatError(f"probability has imaginary part {worst_imag:.3e}")
    return table.real


# ---------------------------------------------------------------------------
# normalization sweeps

InstrumentFamily = Callable[[np.random.Generator], Mapping[str, Instrument]]


@dataclass(frozen=True)
class PmValidityReport:
    """Positivity floor plus worst total-probability deviation over sampled instruments.

    ``worst_assignment`` describes each party's instrument in the worst trial
    when that trial's deviation exceeds the tolerance, and is None otherwise.
    """

    min_eigenvalue: float
    max_deviation: float
    worst_assignment: dict[str, str] | None
    trials: int
    tolerance: float
    passed: bool


def pm_validate(
    w: ProcessMatrix,
    family: InstrumentFamily,
    trials: int,
    tol: float,
    rng: np.random.Generator,
) -> PmValidityReport:
    """Check that outcome probabilities total 1 for sampled CPTP instrument tuples.

    Reports the worst deviation rather than raising: a violation means the
    operator is not a valid process matrix for that instrument family, which
    is legitimate report content for exploratory families.
    """
    if trials < 1:
        raise ProcmatError("pm_validate needs at least one trial")
    worst = -1.0
    worst_desc: dict[str, str] = {}
    for _ in range(trials):
        instruments = dict(family(rng))
        if set(instruments) != set(w.parties):
            raise ProcmatError("family must assign an instrument to every party")
        total = float(outcome_table(w, instruments).sum())
        dev = abs(total - 1.0)
        if dev > worst:
            worst = dev
            worst_desc = {p: instruments[p].description for p in w.parties}
    min_eig = w.min_eigenvalue()
    return PmValidityReport(
        min_eigenvalue=min_eig,
        max_deviation=worst,
        worst_assignment=worst_desc if worst > tol else None,
        trials=trials,
        tolerance=tol,
        passed=(worst <= tol and min_eig >= -tol),
    )


def mbqc_instrument_family(
    alice_parties: Sequence[str], bob_parties: Sequence[str]
) -> InstrumentFamily:
    """Random equatorial angles for the Alices, computational readout for the Bobs."""
    alices = tuple(alice_parties)
    bobs = tuple(bob_parties)

    def sample(rng: np.random.Generator) -> dict[str, Instrument]:
        out = {a: alice_instrument(float(rng.uniform(0.0, TWO_PI))) for a in alices}
        out.update({b: bob_instrument() for b in bobs})
        return out

    return sample


def rank_one_instrument_family(parties: Sequence[str]) -> InstrumentFamily:
    """Haar-random rank-1 measure bases with independent random reprepare kets.

    Exploratory: such instruments are CPTP but can expose operators that are
    only normalized for restricted families.
    """
    parties = tuple(parties)

    def fmt(ket: Ket) -> str:
        a, b = ket.amplitudes
        return f"({a.real:+.3f}{a.imag:+.3f}j, {b.real:+.3f}{b.imag:+.3f}j)"

    def sample(rng: np.random.Generator) -> dict[str, Instrument]:
        out = {}
        for p in parties:
            mk = qlin.random_single_qubit_basis(rng)
            rk = (qlin.random_ket(rng, 1), qlin.random_ket(rng, 1))
            out[p] = instrument_from_kets(
                mk, rk, description=f"measure {fmt(mk[0])}/{fmt(mk[1])}, reprepare {fmt(rk[0])}/{fmt(rk[1])}"
            )
        return out

    return sample


def density_process_matrix(rho: HermOp, party_prefix: str = "P") -> ProcessMatrix:
    """W = 2^k rho (x) (I/2)^k with each party reading one qubit of rho.

    With measure-reprepare instruments this reproduces the Born probabilities
    of rho exactly; the repreparations meet the maximally mixed outputs and
    drop out.
    """
    k = rho.num_qubits
    trace = float(rho.trace().real)
    if abs(trace - 1.0) > 1e-10:
        raise ProcmatError(f"rho must have unit trace, got {trace}")
    # 2^k rho (x) (I/2)^k = rho (x) I^k
    op = _embed((rho.as_tensor(),), range(0, 2 * k, 2), range(1, 2 * k, 2), 1.0)
    slots = [Slot(f"{party_prefix}{i + 1}", 2 * i, 2 * i + 1) for i in range(k)]
    return ProcessMatrix(slots, op=op)
