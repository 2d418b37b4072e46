"""References for ``procmat.pm_validate`` and the dense outcome-table kernel.

``reference_sweep`` is the per-trial reference for ``pm_validate``.  Each trial draws one instrument tuple as ``Instrument`` objects, with the
``qlin`` samplers and in the order that the instrument families used before
they drew whole blocks, contracts it through ``procmat.outcome_table``, and
keeps the first trial whose deviation is strictly larger than every earlier
one.  The batched ``pm_validate`` must reproduce it: the same totals, the same
worst trial and its descriptions, and the same random stream.

``tensordot_dense_probability`` is the reference for
``procmat._dense_probability``: every party, the first included, is one
``procmat._batched_tensordot`` step, so its first step multiplies a transposed
copy of all of W.
"""

import numpy as np

from acausal_mbqc import procmat, qlin


def mbqc_sampler(alices, bobs):
    def sample(rng):
        out = {a: procmat.alice_instrument(float(rng.uniform(0.0, procmat.TWO_PI))) for a in alices}
        out.update({b: procmat.bob_instrument() for b in bobs})
        return out

    return sample


def rank_one_sampler(parties):
    def fmt(ket):
        a, b = ket.amplitudes
        return f"({a.real:+.3f}{a.imag:+.3f}j, {b.real:+.3f}{b.imag:+.3f}j)"

    def sample(rng):
        out = {}
        for p in parties:
            mk = qlin.random_single_qubit_basis(rng)
            rk = (qlin.random_ket(rng, 1), qlin.random_ket(rng, 1))
            out[p] = procmat.instrument_from_kets(
                mk, rk,
                description=f"measure {fmt(mk[0])}/{fmt(mk[1])}, reprepare {fmt(rk[0])}/{fmt(rk[1])}",
            )
        return out

    return sample


def reference_sweep(w, sample, trials, rng):
    """(per-trial totals, index of the worst trial, its descriptions in slot order)."""
    totals = []
    worst, worst_trial, worst_desc = -1.0, None, {}
    for t in range(trials):
        instruments = sample(rng)
        total = float(procmat.outcome_table(w, instruments).sum())
        totals.append(total)
        dev = abs(total - 1.0)
        if dev > worst:
            worst, worst_trial = dev, t
            worst_desc = {p: instruments[p].description for p in w.parties}
    return np.array(totals), worst_trial, worst_desc


def tensordot_dense_probability(w, kets):
    """(trials, E_0, ..., E_{k-1}) tables of Tr[W (x) CJ], one tensordot step per party."""
    k = w.num_qubits
    table = w.dense().as_tensor()[None]
    labels = [("r", q) for q in range(k)] + [("c", q) for q in range(k)]
    for slot in w.slots:
        cj = procmat._choi_tensors(*kets[slot.party])
        axes = [
            labels.index(("c", slot.input_qubit)),
            labels.index(("c", slot.output_qubit)),
            labels.index(("r", slot.input_qubit)),
            labels.index(("r", slot.output_qubit)),
        ]
        table = procmat._batched_tensordot(table, cj, axes)
        labels = [lab for i, lab in enumerate(labels) if i not in axes] + [None]
    return table.real
