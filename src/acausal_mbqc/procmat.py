"""Process matrices and local instruments in the Choi representation.

Every party's local operation is a measure-and-reprepare instrument: element
``a`` maps rho -> |r_a><phi_a| rho |phi_a><r_a|.  Instruments have one form,
an ``InstrumentBlock``: every party's single-qubit kets phi and r stacked
into two arrays ``measure`` and ``reprepare``, shaped (trials, parties,
elements, 2) with party i at index i, checked once each; ``mbqc_kets`` is
the one definition of the MBQC instruments in that form.  A block names no
party: only W (``ProcessMatrix.parties``) does, and party i of W reads index
i of every block.
The element's Choi-Jamiolkowski (CJ) operator sum_{k,l} |k><l| (x) M(|l><k|),
which evaluates exactly to |phi><phi| (x) |r><r|, is built only by the dense
oracle, through ``_choi_tensors``; CJ registers are ordered input qubit
first, then output qubit.

A process matrix W of k parties acts on one register of 2k qubits that holds
every input, then every output: party i owns input qubit i and output qubit
k + i.  Probabilities are P = Tr[W (Pi_a (x) Pi_b ...)].
``_trial_tables`` computes them for every element of every party's
instrument in every trial of a block at once, as one contraction sweep over
the parties, reading a block's two arrays in W's party order; it refuses a
block with another number of parties than W's.
``pm_validate`` runs it over blocks of sampled trials, and
``pm_probability`` over the one-trial block of one element per party.
W has one form, scale * |pure><pure| (x) (I/2)^m: the pure ket on the
first qubits of the register and I/2 on the m after them.  Every table is
the factorized overlap of each element's kets with the pure factor, the one
contraction loop of the package, whose steps are planned once per register
shape (``_contraction_plan``): the resource's tables (``acausal``) run it
too, by default on the plain graph state with every pendant folded into its
vertex's row, read as a process matrix whose output qubits are all
maximally mixed; the literal W of the resource is then built only when a
caller reads it.  The dense oracle, ``_dense_probability``, reads the same
two arrays but is kept independent of the kernel and is called only by the
tests: the definition as written, a trace of W, built whole with
``dense()`` and checked as a ``HermOp``, against each element's Choi
operator from its double-sum definition, one party at a time.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import config, qlin
from .qlin import HermOp, Ket


class ProcmatError(ValueError):
    """Violation of a process-matrix or instrument precondition."""


# ---------------------------------------------------------------------------
# instruments

def _choi_tensors(measure: np.ndarray, reprepare: np.ndarray) -> np.ndarray:
    """Choi tensors [..., r_in, r_out, c_in, c_out] of a stack of elements
    given by their kets (each shaped (..., 2)), every one built as the
    literal double sum sum_{k,l} |k><l| (x) M(|l><k|), all four terms in
    one broadcast pass."""
    rr = reprepare[..., :, None] * reprepare.conj()[..., None, :]
    # M(|l><k|) = <phi|l><k|phi> |r><r|, coefficient [..., k, l].  It is
    # multiplied out in real arithmetic, one rounding per product and sum, so
    # it does not depend on whether numpy's complex loop fuses them
    re_k, im_k = measure.real[..., :, None], measure.imag[..., :, None]
    re_l, im_l = measure.real[..., None, :], measure.imag[..., None, :]
    coeff = np.empty(measure.shape[:-1] + (2, 2), dtype=np.complex128)
    coeff.real = re_l * re_k + im_l * im_k
    coeff.imag = re_l * im_k - im_l * re_k
    # added into zeros, so a -0.0 product is stored as 0.0, as a sum of terms stores it
    op = np.zeros(measure.shape[:-1] + (2, 2, 2, 2), dtype=np.complex128)
    op += coeff[..., :, None, :, None] * rr[..., None, :, None, :]
    return op


@dataclass(frozen=True)
class InstrumentBlock:
    """The instrument tuples of a block of trials, as the two arrays drawn for them.

    In trial t, party i's element e maps rho -> |r><phi| rho |phi><r|, where
    phi is ``measure[t, i, e]`` and r is ``reprepare[t, i, e]``: both arrays
    are (trials, parties, elements, 2), the one form of instruments that the
    kernel and the dense oracle read.  The block is index-ordered and names
    no party: party i of the W it is contracted with reads index i, and the
    kernel refuses a W of another party count.  ``describe(t)`` describes
    each party's instrument in trial t, a tuple of strings in party order.
    Construction refuses a block without parties or elements, and runs
    ``Ket``'s tests once on each array, reading an axis of stride 0 (a
    broadcast, such as one readout shared by every trial) at its first index
    only: every ket of the block is tested, each stored ket once.
    """

    measure: np.ndarray
    reprepare: np.ndarray
    describe: Callable[[int], tuple[str, ...]]

    def __post_init__(self):
        shape = self.measure.shape
        ok = len(shape) == 4 and min(shape[1:3]) > 0 and shape[3] == 2
        if not ok or self.reprepare.shape != shape:
            raise ProcmatError(
                "block kets must share one (trials, parties >= 1, elements >= 1, 2) "
                f"shape, got {self.measure.shape} and {self.reprepare.shape}"
            )
        for name, kets in (("measure", self.measure), ("reprepare", self.reprepare)):
            index = tuple(slice(None if s else 1) for s in kets.strides[:3])
            qlin.check_unit_kets(kets[index], f"{name} ket")


# |z>, measured and reprepared for outcome z
_READOUT = np.eye(2, dtype=np.complex128)


def mbqc_kets(phis: np.ndarray, bobs: int) -> InstrumentBlock:
    """The MBQC instrument tuple of each trial of a block, as a block of stacked kets.

    ``phis`` is (trials, N): in trial t, Alice i (party i) measures the
    equatorial kets |phi^m> at angle ``phis[t, i]`` and reprepares her
    outcome bit |m>, and each of the ``bobs`` Bobs after her (parties N to
    N + bobs - 1) reads out |z> in the computational basis and reprepares it.
    The measure array holds the Alices' equatorial kets, then the readout
    once per Bob; the reprepare array is the readout, the exact basis
    broadcast over every trial and party.  The block runs ``Ket``'s tests on
    both.
    """
    alices = phis.shape[1]
    measure = np.empty((len(phis), alices + bobs, 2, 2), dtype=np.complex128)
    measure[:, :alices] = qlin.equatorial_kets(phis)
    measure[:, alices:] = _READOUT
    reprepare = np.broadcast_to(_READOUT, measure.shape)

    def describe(t: int) -> tuple[str, ...]:
        out = tuple(f"equatorial(phi={float(phi):.6f})" for phi in phis[t])
        return out + ("computational readout",) * bobs

    return InstrumentBlock(measure, reprepare, describe)


def alice_instrument(phi: float) -> InstrumentBlock:
    """Equatorial measurement at angle phi, reprepared as the outcome bit:
    the one-trial block of one party."""
    return mbqc_kets(np.array([[phi]], dtype=float), 0)


def bob_instrument() -> InstrumentBlock:
    """Computational-basis readout, reprepared as the outcome bit: the
    one-trial block of one party."""
    return mbqc_kets(np.zeros((1, 0)), 1)


# ---------------------------------------------------------------------------
# process matrices

class ProcessMatrix:
    """Process matrix of k parties, each with one input and one output qubit.

    W = scale * |pure><pure| (x) (I/2)^m: the ``pure`` ket on the register's
    first qubits and I/2 on each of the m qubits after them.  The register
    holds every input, then every output: party i owns input qubit i and
    output qubit k + i (``qubits(i)``).
    """

    def __init__(self, parties: Sequence[str], pure: Ket, scale: float):
        parties = tuple(parties)
        if not parties:
            raise ProcmatError("process matrix needs at least one party")
        if len(set(parties)) != len(parties):
            raise ProcmatError(f"duplicate party names: {list(parties)}")
        k = 2 * len(parties)
        if pure.num_qubits > k:
            raise ProcmatError(
                f"pure ket on {pure.num_qubits} qubits exceeds the {k}-qubit register"
            )
        # NaN fails every comparison, so ``scale <= 0`` alone would pass it
        if not (math.isfinite(scale) and scale > 0):
            raise ProcmatError(f"scale must be finite and positive, got {scale!r}")
        self.parties = parties
        self.pure = pure
        self.scale = scale

    @property
    def num_qubits(self) -> int:
        return 2 * len(self.parties)

    def qubits(self, i: int) -> tuple[int, int]:
        """Party i's input and output qubits in the register."""
        return i, len(self.parties) + i

    def _mixed_coeff(self) -> float:
        """scale * 2^-m, m the number of maximally mixed qubits."""
        return self.scale * 0.5 ** (self.num_qubits - self.pure.num_qubits)

    def dense(self) -> HermOp:
        """W written as kron(scale |pure><pure|, (I/2)^m), refused above
        ``min(config.qubit_cap(), DENSE_OPERATOR_CAP)`` qubits before
        anything is allocated.  Row (a, x) of a zeroed
        (P, M, P, M) array, P and M the dimensions of the pure and the mixed
        qubits, gets pure[a] * conj(pure) at its columns (:, x), and the
        array is then scaled by scale 2^-m: each entry is the value of W
        taken factor by factor, written in place into the one array that the
        HermOp keeps, so no block or kron copy of W is made."""
        limit = min(config.qubit_cap(), config.DENSE_OPERATOR_CAP)
        if self.num_qubits > limit:
            raise config.RegisterCapError(
                f"dense process matrix needs {self.num_qubits} qubits, above the "
                f"operator cap {limit}"
            )
        amp = self.pure.amplitudes
        conj = amp.conj()
        pure, mixed = len(amp), 2 ** (self.num_qubits - self.pure.num_qubits)
        op = np.zeros((pure, mixed, pure, mixed), dtype=np.complex128)
        for a in range(pure):
            for x in range(mixed):
                np.multiply(amp[a], conj, out=op[a, x, :, x])
        op *= self._mixed_coeff()
        return HermOp(op.reshape((pure * mixed,) * 2), _owned=True)

    def trace(self) -> float:
        return float(self.scale * np.sum(np.abs(self.pure.amplitudes) ** 2))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, the positivity floor of W.

        W on p pure qubits has the exact spectrum scale 2^-m ||pure||^2
        (multiplicity 2^m) and 0 (multiplicity (2^p - 1) 2^m), so its floor
        is exactly 0.0 when p >= 1 and scale 2^-m ||pure||^2 when the pure
        register has dimension 1; no operator is built.
        """
        if self.pure.num_qubits:
            return 0.0
        return self.trace() * 0.5 ** self.num_qubits


# ---------------------------------------------------------------------------
# probabilities

_clamp_lock = threading.Lock()
_clamp_count = 0


def clamped_probability_count() -> int:
    """How many tiny-negative probabilities were clamped to zero so far."""
    with _clamp_lock:
        return _clamp_count


def _validated_table(values: np.ndarray, first_trial: int = 0) -> np.ndarray:
    """Range-check a stack of probability tables, one per trial along axis 0
    (the first numbered ``first_trial``); entries in [-slack, 0) are clamped
    to zero and counted once each, anything outside [-slack, 1 + slack]
    errors, naming its trial and outcome."""
    global _clamp_count
    lo = -config.PROBABILITY_RANGE_SLACK
    hi = 1.0 + config.PROBABILITY_RANGE_SLACK
    values = np.asarray(values, dtype=float)
    low = values.min(initial=np.inf)
    # a NaN makes ``low`` NaN, which fails ``>=``
    if not (low >= lo and values.max(initial=-np.inf) <= hi):
        bad = ~((values >= lo) & (values <= hi))
        by_trial = values.reshape((-1,) + values.shape[1:])
        at = tuple(int(i) for i in np.argwhere(bad.reshape(by_trial.shape))[0])
        raise ProcmatError(
            f"probability {float(by_trial[at])!r} at outcome {at[1:]} of trial "
            f"{first_trial + at[0]} outside [{lo}, {hi}]"
        )
    if low < 0.0:
        negative = values < 0.0
        with _clamp_lock:
            _clamp_count += int(negative.sum())
        values = np.where(negative, 0.0, values)
    return values


def pm_probability(
    w: ProcessMatrix, assignment: Mapping[str, tuple[np.ndarray, np.ndarray]]
) -> float:
    """P = Tr[W (x)_parties CJ] for one element per party, given as its
    (measure, reprepare) pair of single-qubit amplitude arrays: the table of
    the one-trial block of those one-element instruments."""
    if set(assignment) != set(w.parties):
        raise ProcmatError(f"parties {sorted(assignment)} do not match {sorted(w.parties)}")
    kets = [np.array([[[assignment[p][j]] for p in w.parties]], dtype=complex) for j in (0, 1)]
    block = InstrumentBlock(*kets, lambda t: ())
    return float(_trial_tables(w, block.measure, block.reprepare).item())


def _trial_tables(
    w: ProcessMatrix, measure: np.ndarray, reprepare: np.ndarray, *, first_trial: int = 0
) -> np.ndarray:
    """Validated outcome tables of a block of trials, shaped (trials, E, ..., E),
    one axis of E elements per party of ``w``, from the (trials, parties, E, 2)
    arrays of an ``InstrumentBlock``, party i of W at index i (the trials
    numbered from ``first_trial``): the one entry to the kernel.  A block
    whose party axis is not W's party count is refused before any
    contraction.
    """
    if measure.shape[1] != len(w.parties):
        raise ProcmatError(f"block has {measure.shape[1]} parties, W has {len(w.parties)}")
    return _validated_table(_factorized_probability(w, measure, reprepare), first_trial)


def _batched_tensordot(a: np.ndarray, b: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``np.tensordot(a[t], b[t], (axes, range(1, b.ndim - 1)))`` for every trial t.

    Axis 0 of both arrays is the trial axis; a's may have length 1, and is
    then shared by every trial of b.  ``axes`` index a's other axes; b is
    (trials, elements, contracted...).  The result is (trials, a's free
    axes..., elements), computed as tensordot computes each trial: free
    axes in order against the contracted ones, one matrix product per trial.
    """
    axes = [i + 1 for i in axes]
    free = [i for i in range(1, a.ndim) if i not in axes]
    m = math.prod(a.shape[i] for i in free)
    k = math.prod(a.shape[i] for i in axes)
    lhs = a.transpose([0] + free + axes).reshape(a.shape[0], m, k)
    rhs = b.reshape(b.shape[0], b.shape[1], k).transpose(0, 2, 1)
    out = np.matmul(lhs, rhs)
    return out.reshape((out.shape[0],) + tuple(a.shape[i] for i in free) + (b.shape[1],))


@functools.cache
def _contraction_plan(parties: int, pure: int) -> tuple[tuple, ...]:
    """The steps of ``_factorized_probability`` on k = ``parties`` parties and a
    pure factor on ``pure`` qubits, one per party: (transpose order, contracted
    size 2^j for the party's j pure qubits, free shape).

    Before step i the amplitudes are (trials, the uncontracted pure qubits in
    register order..., one element axis over the parties before i), and
    before step 0 without that axis.  The order moves the party's pure qubits
    last, as ``_batched_tensordot`` does; the free shape is the qubit axes
    that stay, to which the caller appends the element axis.
    """
    qubits = list(range(pure))
    steps = []
    for i in range(parties):
        owned = [q for q in (i, parties + i) if q < pure]
        axes = [qubits.index(q) + 1 for q in owned]
        free = [a for a in range(1, len(qubits) + 1 + (i > 0)) if a not in axes]
        qubits = [q for q in qubits if q not in owned]
        steps.append(((0, *free, *axes), 2 ** len(owned), (2,) * len(qubits)))
    return tuple(steps)


def _factorized_probability(
    w: ProcessMatrix, measure: np.ndarray, reprepare: np.ndarray
) -> np.ndarray:
    """The kernel of the outcome tables: contract the pure factor with
    each party's stacked conjugate measure and reprepare kets in turn,
    party i's at index i of the (trials, parties, elements, 2) arrays,
    keeping the trial axis in front.  ``acausal``'s folded table calls it
    with the plain graph state and the folded kets.

    Each step is one batched matrix product, read off the cached
    ``_contraction_plan`` of the register's shape: the party's bra <u| on
    its pure qubits, one row per (trial, element), against the amplitudes
    with those qubits moved last.  A mixed qubit contributes <k|I/2|k> = 1/2
    for its unit ket, counted in ``_mixed_coeff``; a party with no pure qubit
    contracts a bra of ones.  The element axes so far are kept as one axis,
    split into one per party at the end.  Every product has the operands of
    a ``_batched_tensordot`` per party, so the tables are bit for bit those
    of that per-party sweep (``tests/pm_reference.py``).
    """
    amp = w.pure.as_tensor()[None]
    trials, parties, count = measure.shape[:3]
    elements = 1
    plan = _contraction_plan(parties, w.pure.num_qubits)
    for i, (order, contracted, free) in enumerate(plan):
        m, r = measure[:, i].conj(), reprepare[:, i].conj()
        if contracted == 4:
            # einsum's products: numpy's complex multiply loop may fuse a
            # multiply-add, which rounds some entries differently
            bra = np.einsum("tea,teb->teab", m, r).reshape(trials, count, 4)
        elif contracted == 2:  # its input qubit alone, as the pure qubits come first
            bra = m
        else:
            bra = np.ones((trials, count, 1), dtype=np.complex128)
        lhs = amp.transpose(order).reshape(len(amp), elements << len(free), contracted)
        amp = np.matmul(lhs, bra.transpose(0, 2, 1))
        elements *= count
        amp = amp.reshape((len(amp), *free, elements))
    return w._mixed_coeff() * np.abs(amp.reshape((len(amp),) + (count,) * parties)) ** 2


# the oracle stays in src/ because benchmark/tracing.py wraps it by name
def _dense_probability(
    w: ProcessMatrix, measure: np.ndarray, reprepare: np.ndarray
) -> np.ndarray:
    """The independent oracle of the outcome tables, which only the tests
    call: Tr[W (x)_parties CJ] by its definition, W written whole by
    ``dense()``, then traced against each party's stacked CJ tensors
    [t, e, r_in, r_out, c_in, c_out], built by the double-sum definition
    from the kets the kernel reads, one ``_batched_tensordot`` step per
    party in party order.
    The table comes back C-contiguous with its element axes in party order.
    """
    table = w.dense().as_tensor()[None]
    labels: list[tuple[str, int] | None] = [
        (side, q) for side in "rc" for q in range(w.num_qubits)
    ]
    for i in range(len(w.parties)):
        axes = [labels.index(lab) for lab in _traced_labels(w.qubits(i))]
        table = _batched_tensordot(table, _choi_tensors(measure[:, i], reprepare[:, i]), axes)
        labels = [lab for a, lab in enumerate(labels) if a not in axes] + [None]
    # NaN fails every comparison, so ``worst_imag > 1e-10`` alone would pass
    # it; a non-finite real part is left to ``_validated_table``, which names
    # its outcome and trial
    worst_imag = float(np.max(np.abs(table.imag)))
    if not worst_imag <= 1e-10 and np.isfinite(table.real).all():
        raise ProcmatError(f"probability has imaginary part {worst_imag:.3e}")
    # C-ordered, as the factorized kernel's table is
    return np.ascontiguousarray(table.real)


def _traced_labels(qubits: tuple[int, int]) -> list[tuple[str, int]]:
    """W's axes that the CJ tensor [r_in, r_out, c_in, c_out] of a party on
    (input, output) ``qubits`` contracts, in that order: Tr[W X] pairs W's
    column indices with X's row indices and vice versa."""
    q_in, q_out = qubits
    return [("c", q_in), ("c", q_out), ("r", q_in), ("r", q_out)]


# ---------------------------------------------------------------------------
# normalization sweeps

# byte budget of one block of pm_validate trials, counted by ``_trial_bytes``
_BLOCK_BYTES = 4 << 20


def _trial_bytes(w: ProcessMatrix, family: InstrumentFamily) -> int:
    """Bytes that one trial adds to a block: what its draw allocates besides
    its kets (``family.draw_bytes``), the block's measure and reprepare
    arrays, the two copies of one of them that the block's unit-ket check
    holds, and the most that its factorized contraction steps hold at once.
    A step holds its input, the transposed copy that is multiplied, and its
    output, so three copies of the largest intermediate bound every step.
    """
    elements = 2  # every family draws two-outcome instruments
    stack = elements * 2  # entries of one party's measure or reprepare kets
    # the block's two arrays, and the check's two copies of one of them
    kets = 4 * len(w.parties) * stack
    p = w.pure.num_qubits
    size = 2**p
    largest = 0
    for i in range(len(w.parties)):
        size = size // 2 ** sum(q < p for q in w.qubits(i)) * elements
        largest = max(largest, size)
    return np.dtype(np.complex128).itemsize * (3 * largest + kets) + family.draw_bytes


def _block_trials(w: ProcessMatrix, family: InstrumentFamily) -> int:
    """Trials per block, the most that keep a block within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // _trial_bytes(w, family))


@dataclass(frozen=True)
class InstrumentFamily:
    """A distribution over instrument tuples, sampled a block of trials at a time.

    ``draw(rng, trials)`` returns an ``InstrumentBlock`` of a fixed number
    of parties, index-ordered like every block, whose instruments each have
    two outcomes.  Drawing T trials consumes ``rng`` exactly as T one-trial
    draws do, so the block size never changes which instruments a seed gives.  ``draw_bytes`` is what
    a draw allocates per trial besides the kets it returns, counted from the
    shapes of its arrays, so that the block budget covers the draw.
    """

    draw: Callable[[np.random.Generator, int], InstrumentBlock]
    draw_bytes: int


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


def _trial_totals(w: ProcessMatrix, family: InstrumentFamily, trials: int, rng: np.random.Generator):
    """Yield (block, totals) per drawn block: the total probability of each of its trials."""
    size = _block_trials(w, family)
    for start in range(0, trials, size):
        block = family.draw(rng, min(size, trials - start))
        tables = _trial_tables(w, block.measure, block.reprepare, first_trial=start)
        totals = tables.reshape(len(tables), -1).sum(axis=1)
        del tables
        yield block, totals
        del block  # before the next draw, as the caller does


def pm_validate(
    w: ProcessMatrix,
    family: InstrumentFamily,
    trials: int,
    tol: float,
    rng: np.random.Generator,
) -> PmValidityReport:
    """Check that outcome probabilities total 1 for sampled CPTP instrument tuples.

    The trials are drawn and contracted a block at a time.  The worst trial
    is the first with the largest deviation; only the worst trial of a block
    that raises the running worst is described.

    Reports the worst deviation rather than raising: a violation means the
    operator is not a valid process matrix for that instrument family, which
    is legitimate report content for exploratory families.
    """
    if not config.is_int(trials) or trials < 1:
        raise ProcmatError(f"pm_validate needs a positive int of trials, got {trials!r}")
    if math.isnan(tol):
        # every comparison with NaN is False: the report would fail and name no trial
        raise ProcmatError(f"pm_validate needs a tolerance that is a number, got {tol!r}")
    worst = -1.0
    worst_desc: dict[str, str] = {}
    for block, totals in _trial_totals(w, family, trials, rng):
        dev = np.abs(totals - 1.0)
        t = int(np.argmax(dev))
        if dev[t] > worst:
            worst = float(dev[t])
            worst_desc = dict(zip(w.parties, block.describe(t)))
        del block  # so that only one block is held while the next is drawn
    min_eig = w.min_eigenvalue()
    return PmValidityReport(
        min_eigenvalue=min_eig,
        max_deviation=worst,
        worst_assignment=worst_desc if worst > tol else None,
        trials=trials,
        tolerance=tol,
        passed=(worst <= tol and min_eig >= -tol),
    )


def mbqc_instrument_family(alices: int, bobs: int) -> InstrumentFamily:
    """Random equatorial angles for the ``alices`` first parties, computational
    readout for the ``bobs`` after them."""

    def draw(rng: np.random.Generator, trials: int) -> InstrumentBlock:
        # one uniform angle per trial and Alice, in the order of one-trial draws
        return mbqc_kets(rng.uniform(0.0, qlin.TWO_PI, size=(trials, alices)), bobs)

    # per Alice: her angle, its phase and her equatorial kets before and after
    # their 1/sqrt(2) scaling; the block's arrays are counted by ``_trial_bytes``
    return InstrumentFamily(draw, alices * (8 + 16 * (1 + 4 + 4)))


def _vector_norms(vecs: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each complex vector along the last axis, bit for
    bit: it sums the same BLAS dot products of the real and imaginary parts."""
    re = vecs.real[..., None, :]
    im = vecs.imag[..., None, :]
    squares = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(squares[..., 0, 0])


def rank_one_instrument_family(parties: int) -> InstrumentFamily:
    """Haar-random rank-1 measure bases with independent random reprepare
    kets, for ``parties`` parties.

    Each party draws its measure basis (the phase-fixed Q of a complex
    Ginibre QR) and two Haar-random reprepare kets from the same normals, in
    the same order, as the one-trial reference sampler of
    ``tests/pm_reference.py``, so a seed gives the same instruments as that
    sampler.

    Exploratory: such instruments are CPTP but can expose operators that are
    only normalized for restricted families.
    """

    def fmt(amplitudes: np.ndarray) -> str:
        a, b = amplitudes
        return f"({a.real:+.3f}{a.imag:+.3f}j, {b.real:+.3f}{b.imag:+.3f}j)"

    def draw(rng: np.random.Generator, trials: int) -> InstrumentBlock:
        # per trial and party: 4 + 4 normals for the real and imaginary 2x2
        # matrix of the basis, then 2 + 2 for each of the two reprepare kets
        x = rng.normal(size=(trials, parties, 16))
        g = (x[..., 0:4] + 1j * x[..., 4:8]).reshape(trials, parties, 2, 2)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        # the basis kets are the columns of the phase-fixed unitary
        measure = np.swapaxes(q * (d / np.abs(d))[..., None, :], -1, -2)
        parts = x[..., 8:16].reshape(trials, parties, 2, 2, 2)
        vec = parts[..., 0, :] + 1j * parts[..., 1, :]
        reprepare = vec / _vector_norms(vec)[..., None]

        def describe(t: int) -> tuple[str, ...]:
            return tuple(
                f"measure {fmt(mk[0])}/{fmt(mk[1])}, reprepare {fmt(rk[0])}/{fmt(rk[1])}"
                for mk, rk in zip(measure[t], reprepare[t])
            )

        return InstrumentBlock(measure, reprepare, describe)

    # per party: 16 normals, |d| and 4 pairs of norm sums (26 reals), and
    # the complex i*x terms and sums that make g and vec (16), the copy, tau,
    # Q and R of numpy's QR (14) and d/|d| (2)
    return InstrumentFamily(draw, parties * (8 * 26 + 16 * 32))
